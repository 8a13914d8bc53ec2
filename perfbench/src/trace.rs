//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)`; a layer's self time
//! is its span's duration minus the part its child spans cover. Spans are
//! recorded only in `--trace 1` runs: a disabled tracer reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// Per span name: `(count, self times in ns)`. Children of one span run
    /// one after another on its thread, so their durations add up.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            out.entry(s.name)
                .or_default()
                .push((s.end_ns - s.start_ns).saturating_sub(*c));
        }
        out
    }

    /// Number of distinct request ids that carry spans.
    pub fn requests(&self) -> usize {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.req).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Prints the self-time table: count, total, mean and p50 per span name.
    pub fn print_self_times(&self) {
        println!(
            "# self time by span ({} spans, {} request ids)",
            self.spans.len(),
            self.requests()
        );
        println!(
            "# {:<34} {:>8} {:>12} {:>12} {:>12}",
            "span", "count", "total_ms", "mean_us", "p50_us"
        );
        for (name, mut v) in self.self_times() {
            v.sort_unstable();
            let total: u64 = v.iter().sum();
            println!(
                "# {:<34} {:>8} {:>12.3} {:>12.3} {:>12.3}",
                name,
                v.len(),
                total as f64 / 1e6,
                total as f64 / v.len() as f64 / 1e3,
                crate::stats::percentile(&v, 0.5) as f64 / 1e3
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.enter("outer", 1);
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let st = t.self_times();
        let outer = st["outer"][0];
        let inner = st["inner"][0];
        assert!(inner >= 5_000_000);
        assert!(
            outer < inner,
            "outer self {outer} should exclude inner {inner}"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", 0, || ());
        assert!(t.self_times().is_empty());
    }
}
