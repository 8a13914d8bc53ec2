//! Per-thread instrumentation counters for the estimation hot path, with a
//! global drain so **process totals are exact**.
//!
//! The Estimator API's whole point is that a τ-sweep over k thresholds does
//! **one** feature extraction and **one** encoder pass instead of k. These
//! counters make that claim checkable: the CardNet inference paths bump them
//! on every `h_rec` extraction, every encoder forward, and every decoder
//! evaluation, and a test can snapshot them around a sweep and assert the
//! exact ratio (`estimator::tests::prepared_sweep_runs_the_encoder_once`
//! does, for both encoder kinds).
//!
//! Two views exist over the same counters:
//!
//! - **Per-thread** ([`ApiCounters::snapshot`] / [`ApiCounters::delta_since`])
//!   — each thread observes only the estimation work it performed itself, so
//!   exact-ratio assertions stay deterministic under a parallel test runner.
//! - **Process-wide** ([`ApiCounters::process_totals`]) — every thread's
//!   slab is registered in a global list at first use and *drained into a
//!   retired accumulator when the thread exits*, so totals never lose the
//!   contribution of short-lived pool workers. `process_totals` = retired +
//!   the live slabs of all currently-running threads.
//!
//! Counters are relaxed atomics on a thread-owned cache line: uncontended
//! `fetch_add`s, cheap enough for the per-extraction hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// One thread's counter slab. Written only by the owning thread (relaxed
/// stores); read by anyone computing process totals.
#[derive(Debug, Default)]
struct Slab {
    extractions: AtomicU64,
    encoder_passes: AtomicU64,
    decoder_calls: AtomicU64,
    sheds: AtomicU64,
    degraded_answers: AtomicU64,
    encoder_ns: AtomicU64,
    decoder_ns: AtomicU64,
}

impl Slab {
    fn read(&self) -> ApiCounters {
        ApiCounters {
            extractions: self.extractions.load(Ordering::Relaxed),
            encoder_passes: self.encoder_passes.load(Ordering::Relaxed),
            decoder_calls: self.decoder_calls.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            degraded_answers: self.degraded_answers.load(Ordering::Relaxed),
            encoder_ns: self.encoder_ns.load(Ordering::Relaxed),
            decoder_ns: self.decoder_ns.load(Ordering::Relaxed),
        }
    }

    fn add(&self, c: &ApiCounters) {
        self.extractions.fetch_add(c.extractions, Ordering::Relaxed);
        self.encoder_passes
            .fetch_add(c.encoder_passes, Ordering::Relaxed);
        self.decoder_calls
            .fetch_add(c.decoder_calls, Ordering::Relaxed);
        self.sheds.fetch_add(c.sheds, Ordering::Relaxed);
        self.degraded_answers
            .fetch_add(c.degraded_answers, Ordering::Relaxed);
        self.encoder_ns.fetch_add(c.encoder_ns, Ordering::Relaxed);
        self.decoder_ns.fetch_add(c.decoder_ns, Ordering::Relaxed);
    }
}

/// Global registry: live per-thread slabs plus the retired accumulator that
/// exited threads drain into. Guarded by one mutex taken only on thread
/// start/exit and on `process_totals` — never on the counting hot path.
struct Registry {
    live: Mutex<Vec<Arc<Slab>>>,
    retired: Slab,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        live: Mutex::new(Vec::new()),
        retired: Slab::default(),
    })
}

/// Thread-local handle. Registers the slab on first use; the `Drop` at
/// thread exit drains the slab into the retired accumulator and removes it
/// from the live list **atomically under the registry lock**, so a racing
/// `process_totals` never double-counts or misses an exiting thread.
struct LocalHandle {
    slab: Arc<Slab>,
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        let reg = registry();
        let mut live = reg.live.lock().unwrap();
        reg.retired.add(&self.slab.read());
        live.retain(|s| !Arc::ptr_eq(s, &self.slab));
    }
}

thread_local! {
    static LOCAL: LocalHandle = {
        let slab = Arc::new(Slab::default());
        registry().live.lock().unwrap().push(Arc::clone(&slab));
        LocalHandle { slab }
    };
}

#[inline]
fn with_slab(f: impl FnOnce(&Slab)) {
    // `with` can fail only during thread teardown after the handle dropped;
    // counts from that window are unattributable and safely ignored.
    let _ = LOCAL.try_with(|h| f(&h.slab));
}

/// Records one `h_rec` feature extraction (record → bit vector).
pub fn record_extraction() {
    with_slab(|s| {
        s.extractions.fetch_add(1, Ordering::Relaxed);
    });
}

/// Records one encoder forward pass (VAE latent + Ψ embeddings), whatever
/// the batch size — batching is the point, so a batched pass counts once.
pub fn record_encoder_pass() {
    with_slab(|s| {
        s.encoder_passes.fetch_add(1, Ordering::Relaxed);
    });
}

/// Records `n` per-distance decoder evaluations (`g_i`).
pub fn record_decoder_calls(n: u64) {
    with_slab(|s| {
        s.decoder_calls.fetch_add(n, Ordering::Relaxed);
    });
}

/// Records one load-shed decision: a request refused a model run by
/// admission control or an expired deadline (whether or not a degraded
/// answer was still possible).
pub fn record_shed() {
    with_slab(|s| {
        s.sheds.fetch_add(1, Ordering::Relaxed);
    });
}

/// Records one **degraded** answer: a shed request answered from a monotone
/// cache bracket instead of a model run. Always ≤ [`record_shed`]'s count —
/// the difference is hard rejects.
pub fn record_degraded_answer() {
    with_slab(|s| {
        s.degraded_answers.fetch_add(1, Ordering::Relaxed);
    });
}

/// Records wall-clock time spent in encoder forward passes (feature/latent
/// matmuls). Feeds the `encoder_pass` tracing span in the serving layer.
pub fn record_encoder_time(d: Duration) {
    let ns = d.as_nanos().min(u64::MAX as u128) as u64;
    with_slab(|s| {
        s.encoder_ns.fetch_add(ns, Ordering::Relaxed);
    });
}

/// Records wall-clock time spent in monotone decoder sweeps.
pub fn record_decoder_time(d: Duration) {
    let ns = d.as_nanos().min(u64::MAX as u128) as u64;
    with_slab(|s| {
        s.decoder_ns.fetch_add(ns, Ordering::Relaxed);
    });
}

/// A point-in-time snapshot of estimation counters — either one thread's
/// ([`ApiCounters::snapshot`]) or the whole process's
/// ([`ApiCounters::process_totals`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApiCounters {
    pub extractions: u64,
    pub encoder_passes: u64,
    pub decoder_calls: u64,
    /// Load-shed decisions (serving layer: admission control / deadlines).
    pub sheds: u64,
    /// Degraded answers served from a monotone cache bracket.
    pub degraded_answers: u64,
    /// Nanoseconds spent in encoder forward passes.
    pub encoder_ns: u64,
    /// Nanoseconds spent in monotone decoder sweeps.
    pub decoder_ns: u64,
}

impl ApiCounters {
    /// Current totals for the calling thread.
    pub fn snapshot() -> ApiCounters {
        let mut out = ApiCounters::default();
        let _ = LOCAL.try_with(|h| out = h.slab.read());
        out
    }

    /// Exact process-wide totals: counts drained from every exited thread
    /// plus the live slabs of all running threads. Taking the registry lock
    /// makes this linearizable against thread exit — a worker's counts are
    /// visible either in its live slab or in the retired accumulator, never
    /// neither and never both.
    pub fn process_totals() -> ApiCounters {
        let reg = registry();
        let live = reg.live.lock().unwrap();
        let mut total = reg.retired.read();
        for slab in live.iter() {
            total = total.saturating_add(&slab.read());
        }
        total
    }

    /// Counter movement since an earlier snapshot on the same thread (or
    /// between two `process_totals` calls).
    pub fn delta_since(&self, earlier: &ApiCounters) -> ApiCounters {
        ApiCounters {
            extractions: self.extractions - earlier.extractions,
            encoder_passes: self.encoder_passes - earlier.encoder_passes,
            decoder_calls: self.decoder_calls - earlier.decoder_calls,
            sheds: self.sheds - earlier.sheds,
            degraded_answers: self.degraded_answers - earlier.degraded_answers,
            encoder_ns: self.encoder_ns - earlier.encoder_ns,
            decoder_ns: self.decoder_ns - earlier.decoder_ns,
        }
    }

    fn saturating_add(&self, other: &ApiCounters) -> ApiCounters {
        ApiCounters {
            extractions: self.extractions.saturating_add(other.extractions),
            encoder_passes: self.encoder_passes.saturating_add(other.encoder_passes),
            decoder_calls: self.decoder_calls.saturating_add(other.decoder_calls),
            sheds: self.sheds.saturating_add(other.sheds),
            degraded_answers: self.degraded_answers.saturating_add(other.degraded_answers),
            encoder_ns: self.encoder_ns.saturating_add(other.encoder_ns),
            decoder_ns: self.decoder_ns.saturating_add(other.decoder_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff_exactly() {
        let before = ApiCounters::snapshot();
        record_extraction();
        record_encoder_pass();
        record_encoder_pass();
        record_decoder_calls(3);
        record_shed();
        record_shed();
        record_degraded_answer();
        record_encoder_time(Duration::from_nanos(500));
        record_decoder_time(Duration::from_nanos(200));
        let delta = ApiCounters::snapshot().delta_since(&before);
        // Exact equality is safe: counters are thread-local and this test's
        // thread performs no other estimation work.
        assert_eq!(delta.extractions, 1);
        assert_eq!(delta.encoder_passes, 2);
        assert_eq!(delta.decoder_calls, 3);
        assert_eq!(delta.sheds, 2);
        assert_eq!(delta.degraded_answers, 1);
        assert_eq!(delta.encoder_ns, 500);
        assert_eq!(delta.decoder_ns, 200);
    }

    #[test]
    fn short_lived_worker_counts_survive_thread_exit() {
        // Regression test for the worker-thread loss bug: counts recorded on
        // a pool thread must remain visible in process totals after the
        // thread exits (previously they vanished with the thread-local).
        let before = ApiCounters::process_totals();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    record_extraction();
                    record_encoder_pass();
                    record_decoder_calls(17);
                    record_encoder_time(Duration::from_nanos(1000));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let delta = ApiCounters::process_totals().delta_since(&before);
        // `>=` not `==`: other tests run concurrently in this process and
        // may bump the same process-wide totals.
        assert!(delta.extractions >= 4, "lost extractions: {delta:?}");
        assert!(delta.encoder_passes >= 4, "lost encoder passes: {delta:?}");
        assert!(delta.decoder_calls >= 68, "lost decoder calls: {delta:?}");
        assert!(delta.encoder_ns >= 4000, "lost encoder time: {delta:?}");
    }

    #[test]
    fn process_totals_see_live_threads() {
        use std::sync::mpsc;
        // A still-running thread's counts must be visible without waiting
        // for its exit.
        let before = ApiCounters::process_totals();
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            record_shed();
            record_degraded_answer();
            ready_tx.send(()).unwrap();
            // Hold the thread alive until the main thread has observed.
            done_rx.recv().unwrap();
        });
        ready_rx.recv().unwrap();
        let delta = ApiCounters::process_totals().delta_since(&before);
        assert!(delta.sheds >= 1);
        assert!(delta.degraded_answers >= 1);
        done_tx.send(()).unwrap();
        h.join().unwrap();
    }
}
