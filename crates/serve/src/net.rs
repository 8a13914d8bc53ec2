//! Socket ingress: a std-only TCP front-end over the micro-batching
//! [`Service`], speaking the length-prefixed [`crate::wire`] protocol.
//!
//! Layout per connection: one **reader** thread (owns the receive half,
//! decodes frames, performs admission control, submits to the service) and
//! one **writer** thread (drains an in-order queue of pending responses and
//! writes them back). Responses therefore come back in request order per
//! connection, while the worker pool behind the queue stays free to batch
//! and reorder across connections.
//!
//! Admission control happens at ingress, where backpressure belongs:
//!
//! * **Connection limit** ([`NetConfig::max_connections`]) — excess accepts
//!   are answered with one [`ErrorCode::ConnLimit`] frame and closed.
//! * **Per-client quota** ([`NetConfig::client_quota`]) — at most that many
//!   outstanding requests per wire client id (or per connection for
//!   anonymous clients), enforced through the shared
//!   [`crate::ServiceStats`] quota table so rejects land in the same
//!   snapshot as served traffic.
//! * **Bounded queue** ([`NetConfig::queue_limit`]) — when the in-flight
//!   gauge is at the limit, new requests never queue: they are answered
//!   from the monotone cache at full fidelity (exact hit), **degraded**
//!   from a cache bracket (`[lo, hi]`, [`crate::wire::FLAG_DEGRADED`] set), or
//!   refused with [`ErrorCode::Overloaded`]. This is the paper's
//!   monotonicity guarantee doing production work: an overloaded server
//!   still answers with bounded error at zero model cost.
//! * **Deadlines** — a request's `deadline_us` (or
//!   [`NetConfig::default_deadline`]) rides into the queue; a worker that
//!   reaches an expired job sheds it the same way instead of computing.
//!
//! Framing faults (bad magic, oversized length prefix, truncated bodies,
//! slow-loris half-frames past [`NetConfig::frame_timeout`]) poison only
//! their own connection: the reader answers with one
//! [`ErrorCode::Malformed`] frame and closes; the worker pool never sees
//! the bytes. Connections silent between frames past
//! [`NetConfig::idle_timeout`] are closed quietly, so idle connects cannot
//! pin connection slots. Shutdown is a graceful drain — readers stop
//! consuming, writers flush every response already in flight, then the
//! service joins.

use crate::obs_export;
use crate::service::{EstimateSource, Request, Response, ServeError, Service};
use crate::wire::{
    Decoder, ErrorCode, ErrorFrame, Frame, RequestFrame, ResponseFrame, StatsFrame, TracesFrame,
    WireError, WireQuery, WireSource, WireTrace, MAX_WIRE_TRACES,
};
use cardest_data::Record;
use cardest_obs::{Stage, TraceBuilder};
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Key space for anonymous clients (wire `client_id == 0`): quota accounting
/// falls back to per-connection identity, kept disjoint from real client ids
/// by the top bit.
const CONN_KEY_BASE: u64 = 1 << 63;

/// How often blocked reads and the accept loop wake to poll the stop flag.
const POLL_TICK: Duration = Duration::from_millis(20);

/// Ingress tuning knobs, layered on top of [`crate::ServeConfig`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Concurrent connections accepted; `0` = unlimited. Excess connections
    /// receive one [`ErrorCode::ConnLimit`] frame and are closed.
    pub max_connections: usize,
    /// Bound on requests in flight (queued or computing) across all
    /// connections; `0` = unbounded. At the bound, arrivals are shed —
    /// answered from the cache (exact or degraded bracket) or refused —
    /// never queued.
    pub queue_limit: usize,
    /// Deadline applied to requests that do not carry their own
    /// (`deadline_us == 0`). `None` means such requests never expire.
    pub default_deadline: Option<Duration>,
    /// Max outstanding requests per client id; `0` = unlimited.
    pub client_quota: usize,
    /// Slow-loris guard: a connection that leaves a frame half-sent this
    /// long is answered [`ErrorCode::Malformed`] and closed.
    pub frame_timeout: Duration,
    /// Idle guard: a connection with no traffic for this long *between*
    /// frames is closed, so idle connects cannot pin
    /// [`NetConfig::max_connections`] slots forever. `None` disables it.
    pub idle_timeout: Option<Duration>,
    /// Model served when a request's model name is empty.
    pub default_model: String,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 64,
            queue_limit: 1024,
            default_deadline: None,
            client_quota: 0,
            frame_timeout: Duration::from_secs(10),
            idle_timeout: Some(Duration::from_secs(60)),
            default_model: "default".into(),
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    service: Arc<Service>,
    /// Records addressable by [`WireQuery::Index`]; typically the served
    /// dataset, shared with co-located optimizer sessions.
    dataset: Vec<Arc<Record>>,
    config: NetConfig,
    /// Requests admitted to the service queue and not yet answered — the
    /// gauge admission control reads.
    inflight: AtomicUsize,
    /// Open connections.
    conns: AtomicUsize,
    next_conn_id: AtomicU64,
    stop: AtomicBool,
}

/// What the reader hands the writer, in response order.
enum WriterMsg {
    /// Already-materialized frame (pong, error, shed answer).
    Immediate(Frame),
    /// A submitted request: the writer blocks on the service's reply
    /// channel, releases the in-flight gauge and quota slot, and writes the
    /// response.
    Pending {
        request_id: u64,
        client_key: u64,
        rx: Receiver<Result<Response, ServeError>>,
    },
}

/// The running TCP front-end: owns the accept loop, the connection threads,
/// and the [`Service`] behind them.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    conn_joins: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting. The server
    /// takes ownership of the service; reach it through
    /// [`NetServer::service`] for in-process calls (cache pre-warming,
    /// hot-swap, stats).
    pub fn bind(
        addr: &str,
        service: Service,
        dataset: Vec<Arc<Record>>,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service: Arc::new(service),
            dataset,
            config,
            inflight: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(1),
            stop: AtomicBool::new(false),
        });
        let conn_joins = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conn_joins = Arc::clone(&conn_joins);
            std::thread::spawn(move || accept_loop(&listener, &shared, &conn_joins))
        };
        Ok(NetServer {
            addr,
            shared,
            accept: Some(accept),
            conn_joins,
        })
    }

    /// The bound address (resolves the port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind the socket, for in-process calls alongside
    /// network traffic (hot-swap, cache warming, snapshots).
    pub fn service(&self) -> &Arc<Service> {
        &self.shared.service
    }

    /// Open connections right now.
    pub fn connections(&self) -> usize {
        self.shared.conns.load(Ordering::Acquire)
    }

    /// Graceful drain: stop accepting, stop reading new requests, flush
    /// every response already in flight, join all threads, then shut the
    /// service down.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let joins: Vec<JoinHandle<()>> = {
            // A panicked connection thread poisons the join list; shutdown
            // must still drain it, so recover the guard instead of panicking.
            let _one = cardest_obs::one_lock();
            let mut guard = self
                .conn_joins
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            guard.drain(..).collect()
        };
        for handle in joins {
            let _ = handle.join();
        }
        // All connection threads are gone, so this is the last `Arc` and the
        // drop joins the worker pool.
        debug_assert_eq!(Arc::strong_count(&self.shared.service), 1);
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conn_joins: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let limit = shared.config.max_connections;
                if limit > 0 && shared.conns.load(Ordering::Acquire) >= limit {
                    refuse_connection(stream);
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::AcqRel);
                // ordering: relaxed is enough for a unique-id counter — the
                // id is handed to exactly one thread and nothing else is
                // published through this atomic.
                let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    handle_connection(&shared, stream, conn_id);
                    shared.conns.fetch_sub(1, Ordering::AcqRel);
                });
                // Only this accept thread ever locks the join list while
                // running; recover from a poison left by a panicking
                // shutdown path rather than taking the accept loop down.
                let _one = cardest_obs::one_lock();
                let mut joins = conn_joins
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                // Reap finished threads while we are here, so a long-running
                // server churning short connections does not accumulate dead
                // JoinHandles without bound.
                joins.retain(|h| !h.is_finished());
                joins.push(handle);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_TICK),
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
}

/// Tells an over-limit connection why it is being closed (best effort).
fn refuse_connection(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = Frame::Error(ErrorFrame {
        request_id: 0,
        code: ErrorCode::ConnLimit,
        message: "connection limit reached".into(),
    })
    .write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream, conn_id: u64) {
    // Accepted sockets are blocking; switch to short-timeout reads so the
    // reader can poll the stop flag and the slow-loris clock.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(POLL_TICK)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        let _ = stream.shutdown(Shutdown::Both);
        return;
    };
    // capacity: unbounded per-connection writer queue; depth is bounded by
    // this connection's admission-controlled in-flight request count (plus
    // one shutdown marker), so a hostile peer cannot grow it — it can only
    // stop reading, which parks the writer thread, not this queue.
    let (wtx, wrx) = channel::<WriterMsg>();
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || writer_loop(write_half, &wrx, &shared))
    };

    let client = shared.service.client();
    let obs = Arc::clone(shared.service.observer());
    let stats = Arc::clone(shared.service.stats_handle());
    let mut dec = Decoder::new();
    let mut buf = [0u8; 4096];
    // timing: slow-loris idle clock, not a latency measurement — it times
    // the gap between reads to evict stalled clients, so it must tick even
    // when observation is off.
    let mut last_byte = Instant::now();
    // Ingress accounting: the decoder counts complete frames / consumed
    // bytes; deltas since the last report flow into the shared stats after
    // every read, so a snapshot mid-stream reconciles with client totals.
    let mut reported_bytes = 0u64;
    let mut reported_frames = 0u64;
    'conn: while !shared.stop.load(Ordering::Acquire) {
        match stream.read(&mut buf) {
            Ok(0) => break, // clean EOF
            Ok(n) => {
                // timing: refresh of the slow-loris idle clock (see above).
                last_byte = Instant::now();
                // `Read` guarantees n <= buf.len(); fall back to the whole
                // buffer rather than trusting that contract with a panic.
                dec.extend(buf.get(..n).unwrap_or(&buf));
                loop {
                    let t_decode = obs.enabled().then(Instant::now);
                    let next = dec.next_frame();
                    let decode_ns = t_decode
                        .map(|t| t.elapsed().as_nanos().min(u64::MAX as u128) as u64)
                        .unwrap_or(0);
                    // Report the delta *before* handling, so a `StatsRequest`
                    // answers with its own frame already counted.
                    stats.record_ingress(
                        dec.bytes_consumed() - reported_bytes,
                        dec.frames_decoded() - reported_frames,
                    );
                    reported_bytes = dec.bytes_consumed();
                    reported_frames = dec.frames_decoded();
                    match next {
                        Ok(Some(frame)) => {
                            if !handle_frame(shared, &client, &wtx, frame, conn_id, decode_ns) {
                                break 'conn;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            send_error(&wtx, 0, ErrorCode::Malformed, &e.to_string());
                            break 'conn;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if dec.mid_frame() {
                    if last_byte.elapsed() > shared.config.frame_timeout {
                        send_error(
                            &wtx,
                            0,
                            ErrorCode::Malformed,
                            "frame timed out mid-transfer",
                        );
                        break;
                    }
                } else if let Some(idle) = shared.config.idle_timeout {
                    // Between frames: a silent peer eventually loses its
                    // connection slot (idle connects must not exhaust
                    // `max_connections`). A quiet close, not a protocol
                    // error — the client did nothing malformed.
                    if last_byte.elapsed() > idle {
                        break;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break, // peer reset
        }
    }

    // Dropping the sender lets the writer drain every pending response,
    // then exit: a graceful per-connection flush.
    drop(wtx);
    let _ = writer.join();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Handles one decoded frame; `false` closes the connection. `decode_ns` is
/// the wall clock the reader spent decoding this frame: for requests it
/// seeds the job's trace, for other kinds it feeds the decode histogram
/// directly.
fn handle_frame(
    shared: &Arc<Shared>,
    client: &crate::ServiceClient,
    wtx: &Sender<WriterMsg>,
    frame: Frame,
    conn_id: u64,
    decode_ns: u64,
) -> bool {
    match frame {
        Frame::Ping(token) => {
            shared
                .service
                .observer()
                .record_stage_ns(Stage::Decode, decode_ns);
            let _ = wtx.send(WriterMsg::Immediate(Frame::Pong(token)));
            true
        }
        Frame::Request(req) => {
            handle_request(shared, client, wtx, req, conn_id, decode_ns);
            true
        }
        // Wire-level introspection pulls: answered inline from the shared
        // stats + observer, never touching the request queue — metrics stay
        // readable while the service is saturated.
        Frame::StatsRequest(token) => {
            let obs = shared.service.observer();
            obs.record_stage_ns(Stage::Decode, decode_ns);
            let counters = obs_export::wire_counters(&shared.service.stats(), obs);
            let _ = wtx.send(WriterMsg::Immediate(Frame::Stats(StatsFrame {
                token,
                counters,
            })));
            true
        }
        Frame::TraceRequest { token, max } => {
            let obs = shared.service.observer();
            obs.record_stage_ns(Stage::Decode, decode_ns);
            let cap = if max == 0 {
                MAX_WIRE_TRACES
            } else {
                (max as usize).min(MAX_WIRE_TRACES)
            };
            // Slow queries first (the interesting ones survive truncation),
            // then sampled traces fill the remainder; a trace that is both
            // slow and sampled appears once.
            let mut traces = obs.slow_traces(cap);
            let slow_ids: Vec<u64> = traces.iter().map(|t| t.id).collect();
            for t in obs.recent_traces(cap) {
                if traces.len() >= cap {
                    break;
                }
                if !slow_ids.contains(&t.id) {
                    traces.push(t);
                }
            }
            let traces = traces
                .into_iter()
                .map(|t| WireTrace {
                    id: t.id,
                    epoch: t.epoch,
                    total_ns: t.total_ns,
                    source: t.source,
                    stages_ns: t.stages_ns.to_vec(),
                })
                .collect();
            let _ = wtx.send(WriterMsg::Immediate(Frame::Traces(TracesFrame {
                token,
                traces,
            })));
            true
        }
        // A client has no business sending server-side kinds; treat it as a
        // protocol violation and close.
        Frame::Response(_)
        | Frame::Error(_)
        | Frame::Pong(_)
        | Frame::Stats(_)
        | Frame::Traces(_) => {
            send_error(
                wtx,
                0,
                ErrorCode::Malformed,
                "unexpected frame kind from client",
            );
            false
        }
    }
}

fn handle_request(
    shared: &Arc<Shared>,
    client: &crate::ServiceClient,
    wtx: &Sender<WriterMsg>,
    req: RequestFrame,
    conn_id: u64,
    decode_ns: u64,
) {
    let stats = shared.service.stats_handle();
    // Admission span: everything between decode and enqueue (query lookup,
    // quota check, queue-limit check). Decode + admission are seeded into
    // the job's trace and reach the histograms via `finish_trace`; requests
    // answered at ingress (errors, quota rejects, sheds) never become jobs,
    // so their spans are intentionally not recorded — the histograms
    // describe the served path.
    let obs = shared.service.observer();
    let t_admission = obs.enabled().then(Instant::now);
    let client_key = if req.client_id != 0 {
        req.client_id
    } else {
        CONN_KEY_BASE | conn_id
    };
    let model = if req.model.is_empty() {
        shared.config.default_model.clone()
    } else {
        req.model
    };
    let query: Arc<Record> = match req.query {
        WireQuery::Index(i) => match shared.dataset.get(i as usize) {
            Some(rec) => Arc::clone(rec),
            None => {
                stats.record_request();
                stats.record_error();
                send_error(
                    wtx,
                    req.request_id,
                    ErrorCode::BadQuery,
                    &format!(
                        "query index {i} out of range ({} records)",
                        shared.dataset.len()
                    ),
                );
                return;
            }
        },
        WireQuery::Bits(bits) => Arc::new(Record::Bits(bits)),
    };

    // Quota: at most `client_quota` outstanding requests per client.
    if !stats.client_begin(client_key, shared.config.client_quota) {
        stats.record_request();
        send_error(
            wtx,
            req.request_id,
            ErrorCode::QuotaExceeded,
            "client quota exceeded",
        );
        return;
    }

    // Bounded queue: at the limit requests are shed, never queued. The
    // monotone cache still answers what it can — exactly when it has the
    // entry, degraded from a bracket otherwise.
    let limit = shared.config.queue_limit;
    if limit > 0 && shared.inflight.load(Ordering::Acquire) >= limit {
        stats.record_request();
        match shared.service.shed_answer(&model, &query, req.theta) {
            Ok(Some(resp)) => {
                if resp.source.is_degraded() {
                    stats.client_shed(client_key);
                }
                let _ = wtx.send(WriterMsg::Immediate(Frame::Response(response_frame(
                    req.request_id,
                    &resp,
                ))));
            }
            Ok(None) => {
                stats.record_shed_reject();
                cardest_core::metrics::record_shed();
                send_error(
                    wtx,
                    req.request_id,
                    ErrorCode::Overloaded,
                    "queue full and nothing cached to degrade onto",
                );
            }
            Err(e) => {
                stats.record_error();
                send_error(wtx, req.request_id, error_code(&e), &e.to_string());
            }
        }
        stats.client_end(client_key);
        return;
    }

    let deadline = if req.deadline_us > 0 {
        Some(Duration::from_micros(u64::from(req.deadline_us)))
    } else {
        shared.config.default_deadline
    };
    shared.inflight.fetch_add(1, Ordering::AcqRel);
    let mut trace = TraceBuilder::new();
    if let Some(t) = t_admission {
        trace.add_ns(Stage::Decode, decode_ns);
        trace.add(Stage::Admission, t.elapsed());
    }
    let rx = client.submit_traced(
        Request {
            model,
            query,
            theta: req.theta,
        },
        deadline,
        trace,
    );
    let _ = wtx.send(WriterMsg::Pending {
        request_id: req.request_id,
        client_key,
        rx,
    });
}

fn send_error(wtx: &Sender<WriterMsg>, request_id: u64, code: ErrorCode, message: &str) {
    let _ = wtx.send(WriterMsg::Immediate(Frame::Error(ErrorFrame {
        request_id,
        code,
        message: message.into(),
    })));
}

/// Writes frames back in submission order. Even after a write failure it
/// keeps *draining* pending messages so the in-flight gauge and quota slots
/// are always released — a dead client must not poison admission control.
fn writer_loop(mut stream: TcpStream, wrx: &Receiver<WriterMsg>, shared: &Arc<Shared>) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let stats = shared.service.stats_handle();
    let obs = shared.service.observer();
    let mut dead = false;
    for msg in wrx.iter() {
        let frame = match msg {
            WriterMsg::Immediate(frame) => frame,
            WriterMsg::Pending {
                request_id,
                client_key,
                rx,
            } => {
                let result = rx.recv().unwrap_or(Err(ServeError::ServiceStopped));
                let frame = match result {
                    Ok(resp) => {
                        // Attribute the shed *before* releasing the quota
                        // slot: a zero-outstanding entry is evictable from
                        // the bounded client table.
                        if resp.source.is_degraded() {
                            stats.client_shed(client_key);
                        }
                        Frame::Response(response_frame(request_id, &resp))
                    }
                    Err(e) => Frame::Error(ErrorFrame {
                        request_id,
                        code: error_code(&e),
                        message: e.to_string(),
                    }),
                };
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
                stats.client_end(client_key);
                frame
            }
        };
        if !dead {
            // Respond-encode span: serialization only, not the socket write
            // (a slow peer is the peer's latency, not the server's).
            let t_encode = obs.enabled().then(Instant::now);
            let bytes = frame.encode();
            if let Some(t) = t_encode {
                obs.record_stage(Stage::RespondEncode, t.elapsed());
            }
            if std::io::Write::write_all(&mut stream, &bytes).is_err() {
                dead = true;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
}

/// Maps a served [`Response`] onto the wire. Point answers carry
/// `lo == hi == estimate`; bracket answers carry the monotone bounds, and
/// shed brackets additionally raise the degraded flag.
fn response_frame(request_id: u64, resp: &Response) -> ResponseFrame {
    let (lo, hi, source, batch, degraded) = match resp.source {
        EstimateSource::Computed { batch_size } => (
            resp.estimate,
            resp.estimate,
            WireSource::Computed,
            batch_size as u32,
            false,
        ),
        EstimateSource::Coalesced => (
            resp.estimate,
            resp.estimate,
            WireSource::Coalesced,
            0,
            false,
        ),
        EstimateSource::CacheExact => (
            resp.estimate,
            resp.estimate,
            WireSource::CacheExact,
            0,
            false,
        ),
        EstimateSource::CacheBounds { lo, hi } => (lo, hi, WireSource::CacheBounds, 0, false),
        EstimateSource::ShedBracket { lo, hi } => (lo, hi, WireSource::ShedBracket, 0, true),
    };
    ResponseFrame {
        request_id,
        epoch: resp.epoch,
        estimate: resp.estimate,
        lo,
        hi,
        source,
        batch,
        degraded,
    }
}

fn error_code(e: &ServeError) -> ErrorCode {
    match e {
        ServeError::UnknownModel(_) => ErrorCode::UnknownModel,
        ServeError::ServiceStopped => ErrorCode::ShuttingDown,
        ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        ServeError::Overloaded => ErrorCode::Overloaded,
    }
}

// ── Client ───────────────────────────────────────────────────────────────

/// A small blocking client for the wire protocol — what the loadgen, the
/// tests, and any non-Rust client's reference implementation look like.
/// Supports pipelining: [`NetClient::send`] any number of frames, then
/// [`NetClient::recv`] the answers in order.
pub struct NetClient {
    stream: TcpStream,
    dec: Decoder,
}

impl NetClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            dec: Decoder::new(),
        })
    }

    /// The underlying stream (tests use it to inject raw/hostile bytes).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        frame.write_to(&mut self.stream)
    }

    /// Blocks until the next complete frame arrives. Wire-level corruption
    /// surfaces as [`ErrorKind::InvalidData`]; a server-side close as
    /// [`ErrorKind::UnexpectedEof`].
    pub fn recv(&mut self) -> std::io::Result<Frame> {
        let mut buf = [0u8; 4096];
        loop {
            match self.dec.next_frame() {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {}
                Err(e) => return Err(wire_to_io(e)),
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-stream",
                ));
            }
            // `Read` guarantees n <= buf.len(); fall back to the whole
            // buffer rather than trusting that contract with a panic.
            self.dec.extend(buf.get(..n).unwrap_or(&buf));
        }
    }

    /// One request/response round trip.
    pub fn call(&mut self, req: RequestFrame) -> std::io::Result<Frame> {
        self.send(&Frame::Request(req))?;
        self.recv()
    }

    /// Liveness probe: sends a ping, expects the matching pong.
    pub fn ping(&mut self, token: u64) -> std::io::Result<bool> {
        self.send(&Frame::Ping(token))?;
        Ok(matches!(self.recv()?, Frame::Pong(t) if t == token))
    }

    /// Pulls the server's unified metrics snapshot over the wire as flat
    /// `(name, value)` counters (see [`crate::obs_export::wire_counters`]).
    pub fn stats(&mut self, token: u64) -> std::io::Result<StatsFrame> {
        self.send(&Frame::StatsRequest(token))?;
        match self.recv()? {
            Frame::Stats(s) if s.token == token => Ok(s),
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("expected Stats({token}), got {other:?}"),
            )),
        }
    }

    /// Pulls up to `max` recent traces (slow-query log first, then sampled
    /// ring); `0` asks for the server's maximum.
    pub fn traces(&mut self, token: u64, max: u32) -> std::io::Result<TracesFrame> {
        self.send(&Frame::TraceRequest { token, max })?;
        match self.recv()? {
            Frame::Traces(t) if t.token == token => Ok(t),
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("expected Traces({token}), got {other:?}"),
            )),
        }
    }
}

fn wire_to_io(e: WireError) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::service::ServeConfig;
    use std::io::Write;

    /// A server with no models and no dataset: enough to exercise the
    /// protocol edge (ping, errors, limits) without training anything.
    fn empty_server(config: NetConfig) -> NetServer {
        let service = Service::start(Arc::new(ModelRegistry::new()), ServeConfig::default());
        NetServer::bind("127.0.0.1:0", service, Vec::new(), config).expect("bind loopback")
    }

    fn index_request(id: u64, idx: u64) -> RequestFrame {
        RequestFrame {
            request_id: id,
            client_id: 0,
            theta: 1.0,
            deadline_us: 0,
            model: String::new(),
            query: WireQuery::Index(idx),
        }
    }

    #[test]
    fn ping_pong_and_typed_errors_round_trip() {
        let server = empty_server(NetConfig::default());
        let mut client = NetClient::connect(server.addr()).expect("connect");
        assert!(client.ping(0xABCD).expect("pong"));
        // No dataset: any index is out of range.
        match client.call(index_request(1, 0)).expect("answered") {
            Frame::Error(e) => {
                assert_eq!(e.request_id, 1);
                assert_eq!(e.code, ErrorCode::BadQuery);
            }
            other => panic!("expected BadQuery, got {other:?}"),
        }
        // Inline query for a model that does not exist.
        let req = RequestFrame {
            request_id: 2,
            client_id: 0,
            theta: 1.0,
            deadline_us: 0,
            model: "ghost".into(),
            query: WireQuery::Bits(cardest_data::BitVec::from_u64(0b101, 8)),
        };
        match client.call(req).expect("answered") {
            Frame::Error(e) => {
                assert_eq!(e.request_id, 2);
                assert_eq!(e.code, ErrorCode::UnknownModel);
            }
            other => panic!("expected UnknownModel, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn connection_limit_refuses_with_a_typed_frame() {
        let server = empty_server(NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        });
        let mut first = NetClient::connect(server.addr()).expect("connect");
        assert!(first.ping(1).expect("first connection live"));
        let mut second = NetClient::connect(server.addr()).expect("tcp accepts");
        match second.recv().expect("refusal frame") {
            Frame::Error(e) => assert_eq!(e.code, ErrorCode::ConnLimit),
            other => panic!("expected ConnLimit, got {other:?}"),
        }
        assert!(second.recv().is_err(), "refused connection closes");
        // The first connection is unaffected.
        assert!(first.ping(2).expect("still live"));
        drop(first);
        server.shutdown();
    }

    #[test]
    fn stats_and_traces_pull_over_the_wire() {
        let server = empty_server(NetConfig::default());
        let mut client = NetClient::connect(server.addr()).expect("connect");
        assert!(client.ping(1).expect("pong"));
        let stats = client.stats(42).expect("stats frame");
        assert_eq!(stats.token, 42);
        // The stats request itself was counted before it was answered, and
        // the ping before it was too.
        assert!(stats.counter("cardest_ingress_frames_total").unwrap_or(0) >= 2);
        assert_eq!(stats.counter("cardest_requests_total"), Some(0));
        let traces = client.traces(7, 0).expect("traces frame");
        assert_eq!(traces.token, 7);
        assert!(traces.traces.is_empty(), "no requests served yet");
        server.shutdown();
    }

    #[test]
    fn garbage_bytes_poison_only_their_own_connection() {
        let server = empty_server(NetConfig::default());
        let mut victim = NetClient::connect(server.addr()).expect("connect");
        victim
            .stream()
            .write_all(&[0xFF; 64])
            .expect("write garbage");
        match victim.recv().expect("error frame before close") {
            Frame::Error(e) => assert_eq!(e.code, ErrorCode::Malformed),
            other => panic!("expected Malformed, got {other:?}"),
        }
        assert!(victim.recv().is_err(), "connection closes after corruption");
        // A fresh connection works fine.
        let mut ok = NetClient::connect(server.addr()).expect("connect");
        assert!(ok.ping(7).expect("server healthy"));
        server.shutdown();
    }
}
