//! Minimal std-only HTTP exposition endpoint for metrics scrapes.
//!
//! This is deliberately *not* a web framework: it answers exactly three
//! `GET` routes over HTTP/1.0-style request/response pairs (connection
//! closed after each response), which is all a Prometheus scraper or a
//! `curl` in a CI smoke test needs:
//!
//! * `/metrics`     — Prometheus text exposition format 0.0.4.
//! * `/stats.json`  — the same unified snapshot as JSON (counters, gauges,
//!   histogram summaries).
//! * `/traces.json` — the slow-query log and the sampled-trace ring with
//!   full per-stage breakdowns.
//!
//! The accept loop runs on one thread and serves requests inline: scrapes
//! are rare (seconds apart) and responses are small, so there is nothing to
//! pipeline. The socket ingress ([`crate::net`]) stays completely separate —
//! a stuck scraper can never block query traffic.

// Bytes from the network reach this file: no code outside the tests may
// panic on them.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::obs_export;
use crate::stats::ServiceStats;
use cardest_obs::{json_str, Observer, Trace, STAGES};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps between polls when idle.
const ACCEPT_TICK: Duration = Duration::from_millis(10);
/// Per-request socket timeout: a scraper that stalls mid-request is dropped
/// rather than holding the (single) serving thread.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Largest request head we will buffer before answering 400.
const MAX_REQUEST_BYTES: usize = 4096;
/// Most traces returned per section of `/traces.json`.
const MAX_HTTP_TRACES: usize = 64;

/// A running metrics endpoint; dropping it (or calling
/// [`MetricsServer::shutdown`]) stops the accept loop and joins the thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9188"`; port 0 picks a free port) and
    /// starts answering scrapes against the given live stats + observer.
    pub fn bind(
        addr: &str,
        stats: Arc<ServiceStats>,
        obs: Arc<Observer>,
    ) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_loop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((conn, _)) => {
                    let _ = serve_one(conn, &stats, &obs);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if stop_loop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(ACCEPT_TICK);
                }
                Err(_) => {
                    if stop_loop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(ACCEPT_TICK);
                }
            }
        });
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn serve_one(mut conn: TcpStream, stats: &ServiceStats, obs: &Observer) -> io::Result<()> {
    conn.set_read_timeout(Some(IO_TIMEOUT))?;
    conn.set_write_timeout(Some(IO_TIMEOUT))?;
    let path = match read_request_path(&mut conn) {
        Some(path) => path,
        None => return respond(&mut conn, 400, "text/plain", "bad request\n"),
    };
    match path.as_str() {
        "/metrics" => {
            let body = obs_export::metrics_snapshot(&stats.snapshot(), obs).render_prometheus();
            respond(&mut conn, 200, "text/plain; version=0.0.4", &body)
        }
        "/stats.json" => {
            let body = obs_export::metrics_snapshot(&stats.snapshot(), obs).render_json();
            respond(&mut conn, 200, "application/json", &body)
        }
        "/traces.json" => {
            let body = render_traces_json(obs, MAX_HTTP_TRACES);
            respond(&mut conn, 200, "application/json", &body)
        }
        _ => respond(&mut conn, 404, "text/plain", "not found\n"),
    }
}

/// Reads the request head and returns the path of a `GET` request line;
/// `None` on anything malformed, oversized, or non-GET.
fn read_request_path(conn: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !head_complete(&buf) {
        if buf.len() >= MAX_REQUEST_BYTES {
            return None;
        }
        match conn.read(&mut chunk) {
            Ok(0) => break,
            // `Read` guarantees n <= chunk.len(); treat a violation as a
            // malformed request instead of trusting it with a panic.
            Ok(n) => buf.extend_from_slice(chunk.get(..n)?),
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    // Ignore any query string: `/metrics?foo=1` still scrapes.
    Some(path.split('?').next().unwrap_or(path).to_string())
}

fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

fn respond(conn: &mut TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        _ => "Not Found",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes())?;
    conn.write_all(body.as_bytes())?;
    conn.flush()
}

/// JSON for `/traces.json`: the slow-query log and the sampled ring, each
/// trace with its full per-stage breakdown in nanoseconds.
pub fn render_traces_json(obs: &Observer, max: usize) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"sample_every\":{},\"slow_threshold_ns\":{},",
        obs.sample_every(),
        obs.slow_threshold_ns()
    ));
    out.push_str("\"slow\":");
    render_trace_list(&mut out, &obs.slow_traces(max));
    out.push_str(",\"recent\":");
    render_trace_list(&mut out, &obs.recent_traces(max));
    out.push('}');
    out
}

fn render_trace_list(out: &mut String, traces: &[Trace]) {
    out.push('[');
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"epoch\":{},\"source\":{},\"total_ns\":{},\"attributed_ns\":{},\"stages\":{{",
            t.id,
            t.epoch,
            t.source,
            t.total_ns,
            t.attributed_ns()
        ));
        let mut first = true;
        for &stage in STAGES.iter() {
            // Stage discriminants index the fixed-size span array; a missing
            // entry renders as zero rather than panicking the HTTP thread.
            let ns = t.stages_ns.get(stage as usize).copied().unwrap_or(0);
            if ns == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{ns}", json_str(stage.name())));
        }
        out.push_str("}}");
    }
    out.push(']');
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
mod tests {
    use super::*;
    use cardest_obs::{ObsConfig, Stage, TraceBuilder};

    fn scrape(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut conn = TcpStream::connect(addr).expect("connect scrape");
        conn.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .expect("send request");
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("read response");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn endpoint_serves_metrics_stats_and_traces() {
        let stats = Arc::new(ServiceStats::new());
        stats.record_request();
        stats.record_exact_hit();
        let obs = Arc::new(Observer::new(ObsConfig {
            sample_every: 1,
            ..ObsConfig::default()
        }));
        let mut b = TraceBuilder::new();
        b.add_ns(Stage::Model, 5_000);
        obs.finish_trace(&b, Duration::from_micros(7), 3, 0);

        let server =
            MetricsServer::bind("127.0.0.1:0", Arc::clone(&stats), Arc::clone(&obs)).expect("bind");
        let addr = server.local_addr();

        let (status, body) = scrape(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("cardest_requests_total 1"));
        assert!(body.contains("# TYPE cardest_request_latency histogram"));

        let (status, body) = scrape(addr, "/stats.json");
        assert_eq!(status, 200);
        assert!(body.starts_with('{') && body.ends_with('}'));
        assert!(body.contains("\"cardest_exact_hits_total\":1"));

        let (status, body) = scrape(addr, "/traces.json");
        assert_eq!(status, 200);
        assert!(body.contains("\"recent\":[{"));
        assert!(body.contains("\"model\":5000"));

        let (status, _) = scrape(addr, "/nope");
        assert_eq!(status, 404);

        server.shutdown();
    }
}
