//! Lock-free service counters: request totals, cache effectiveness, load
//! shedding, the micro-batch size distribution, and a log-bucketed latency
//! histogram from which p50/p99 are read without ever locking the hot path.
//!
//! The one exception to "lock-free" is the per-client quota table: client
//! identities arrive at the network edge, so the table is touched once per
//! ingress request (never by workers) and a short mutex there is fine —
//! admission control is exactly where backpressure is supposed to live. The
//! table is bounded at [`MAX_TRACKED_CLIENTS`] entries (client ids are an
//! attacker-chosen wire field), evicting idle entries at the cap.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use cardest_obs::{HistogramSnapshot, LogHistogram};

/// Batch-size buckets: bucket `b` holds batches of `2^b ..= 2^{b+1} - 1`
/// requests (bucket 0 = singletons).
const BATCH_BUCKETS: usize = 12;
/// Hard cap on distinct client ids the quota table tracks. `client_id` is an
/// arbitrary attacker-chosen wire field, so the table must be bounded: at
/// the cap, a new id first evicts an idle (zero-outstanding) entry, and if
/// every tracked client has requests in flight the newcomer is refused as a
/// quota reject. Eviction loses only per-client attribution — the aggregate
/// counters live in the atomics and are never evicted.
pub const MAX_TRACKED_CLIENTS: usize = 4096;

/// Shared, atomically updated counters. One instance per [`crate::Service`];
/// workers and the response path update it, reporters snapshot it.
///
/// Every counter is a private field, so code outside this crate reads the
/// totals only through [`ServiceStats::snapshot`], the one reader every
/// export surface shares:
///
/// ```
/// let stats = cardest_serve::ServiceStats::new();
/// stats.record_request();
/// assert_eq!(stats.snapshot().requests, 1);
/// ```
///
/// An ad-hoc read of the atomic itself does not compile:
///
/// ```compile_fail
/// use std::sync::atomic::Ordering;
/// let stats = cardest_serve::ServiceStats::new();
/// let _ = stats.requests.load(Ordering::Relaxed);
/// ```
pub struct ServiceStats {
    /// Requests accepted (including ones answered from cache or failed).
    requests: AtomicU64,
    /// Answered from an exact `(epoch, fp, τ)` cache entry.
    exact_hits: AtomicU64,
    /// Answered from a tight monotone bracket without running the model.
    bound_hits: AtomicU64,
    /// Ran through the model (micro-batched).
    computed: AtomicU64,
    /// Answered by sharing another identical request's row in the same
    /// micro-batch.
    coalesced: AtomicU64,
    /// Failed (unknown model name).
    errors: AtomicU64,
    /// Load-shed but still answered: degraded monotone-bracket responses
    /// (admission control or expired deadline, no model run).
    shed_bracket: AtomicU64,
    /// Load-shed and refused: nothing cached to degrade onto.
    shed_rejected: AtomicU64,
    /// Refused at ingress because the client exceeded its quota.
    quota_rejected: AtomicU64,
    /// Micro-batches executed (model runs, not request groups).
    batches: AtomicU64,
    /// Sum of micro-batch sizes (mean batch = this / batches).
    batch_size_sum: AtomicU64,
    batch_hist: [AtomicU64; BATCH_BUCKETS],
    /// End-to-end latency of every answered request.
    latency: LogHistogram,
    /// Bytes consumed off sockets as complete wire frames (all connections).
    ingress_bytes: AtomicU64,
    /// Wire frames decoded off sockets (all connections).
    ingress_frames: AtomicU64,
    /// Per-client accounting (requests, outstanding, shed, rejects), keyed
    /// by the wire protocol's client id. Touched only at the network edge.
    clients: Mutex<HashMap<u64, ClientStats>>,
}

/// Per-client counters behind the quota table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests this client presented at ingress (admitted or not).
    pub requests: u64,
    /// Requests currently in flight (admitted, not yet answered).
    pub outstanding: u64,
    /// Degraded (shed-bracket) answers this client received.
    pub shed: u64,
    /// Requests refused for exceeding the client's outstanding quota.
    pub quota_rejected: u64,
}

impl Default for ServiceStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceStats {
    pub fn new() -> ServiceStats {
        ServiceStats {
            requests: AtomicU64::new(0),
            exact_hits: AtomicU64::new(0),
            bound_hits: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed_bracket: AtomicU64::new(0),
            shed_rejected: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_size_sum: AtomicU64::new(0),
            batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: LogHistogram::new(),
            ingress_bytes: AtomicU64::new(0),
            ingress_frames: AtomicU64::new(0),
            clients: Mutex::new(HashMap::new()),
        }
    }

    /// Accumulates wire-ingress deltas from a connection reader: `bytes`
    /// consumed as complete frames and `frames` decoded. Readers report
    /// deltas (from [`crate::wire::Decoder`]'s counters) as they go, so the
    /// process totals stay live while connections are open.
    pub fn record_ingress(&self, bytes: u64, frames: u64) {
        if bytes > 0 {
            self.ingress_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        if frames > 0 {
            self.ingress_frames.fetch_add(frames, Ordering::Relaxed);
        }
    }

    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_exact_hit(&self) {
        self.exact_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_bound_hit(&self) {
        self.bound_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// One degraded answer from the monotone cache bracket.
    pub fn record_shed_bracket(&self) {
        self.shed_bracket.fetch_add(1, Ordering::Relaxed);
    }

    /// One hard shed (nothing cached to degrade onto).
    pub fn record_shed_reject(&self) {
        self.shed_rejected.fetch_add(1, Ordering::Relaxed);
    }

    // ── Per-client quota accounting (network-edge only) ──────────────────

    /// Registers an arriving request for `client_id` and admits it against
    /// `quota` (`0` = unlimited outstanding). On admission the client's
    /// outstanding count is incremented and must be released by
    /// [`ServiceStats::client_end`]; a refusal bumps the quota-reject
    /// counters instead.
    pub fn client_begin(&self, client_id: u64, quota: usize) -> bool {
        let _one = cardest_obs::one_lock();
        let mut table = self.clients.lock().expect("client table poisoned");
        // Bound the table before inserting a new id: random client ids must
        // not grow server memory without limit.
        if table.len() >= MAX_TRACKED_CLIENTS && !table.contains_key(&client_id) {
            let idle = table
                .iter()
                .find(|(_, c)| c.outstanding == 0)
                .map(|(&id, _)| id);
            match idle {
                Some(id) => {
                    table.remove(&id);
                }
                None => {
                    // Every tracked client is mid-flight (only possible when
                    // total in-flight ≥ the cap): refuse rather than grow.
                    drop(table);
                    self.quota_rejected.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        let entry = table.entry(client_id).or_default();
        entry.requests += 1;
        if quota > 0 && entry.outstanding >= quota as u64 {
            entry.quota_rejected += 1;
            drop(table);
            self.quota_rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        entry.outstanding += 1;
        true
    }

    /// Releases one admitted request for `client_id`.
    pub fn client_end(&self, client_id: u64) {
        let _one = cardest_obs::one_lock();
        let mut table = self.clients.lock().expect("client table poisoned");
        if let Some(entry) = table.get_mut(&client_id) {
            entry.outstanding = entry.outstanding.saturating_sub(1);
        }
    }

    /// Attributes one degraded answer to `client_id`. Only tracked clients
    /// are credited — inserting here would let shed attribution re-grow the
    /// bounded table past [`MAX_TRACKED_CLIENTS`].
    pub fn client_shed(&self, client_id: u64) {
        let _one = cardest_obs::one_lock();
        let mut table = self.clients.lock().expect("client table poisoned");
        if let Some(entry) = table.get_mut(&client_id) {
            entry.shed += 1;
        }
    }

    /// Point-in-time copy of one client's counters.
    pub fn client_stats(&self, client_id: u64) -> ClientStats {
        let _one = cardest_obs::one_lock();
        self.clients
            .lock()
            .expect("client table poisoned")
            .get(&client_id)
            .copied()
            .unwrap_or_default()
    }

    /// One model run over `size` stacked queries.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_size_sum
            .fetch_add(size as u64, Ordering::Relaxed);
        self.computed.fetch_add(size as u64, Ordering::Relaxed);
        let bucket = (usize::BITS - 1 - size.max(1).leading_zeros()) as usize;
        self.batch_hist[bucket.min(BATCH_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// End-to-end latency of one answered request (enqueue → response sent).
    pub fn record_latency(&self, latency: Duration) {
        self.latency.record(latency);
    }

    /// A consistent-enough copy for reporting (individual counters are read
    /// relaxed; exactness across counters is not needed for monitoring).
    pub fn snapshot(&self) -> StatsSnapshot {
        let _one = cardest_obs::one_lock();
        let mut clients: Vec<(u64, ClientStats)> = self
            .clients
            .lock()
            .expect("client table poisoned")
            .iter()
            .map(|(&id, &c)| (id, c))
            .collect();
        clients.sort_by_key(|&(id, _)| id);
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            bound_hits: self.bound_hits.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed_bracket: self.shed_bracket.load(Ordering::Relaxed),
            shed_rejected: self.shed_rejected.load(Ordering::Relaxed),
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
            clients,
            batches: self.batches.load(Ordering::Relaxed),
            batch_size_sum: self.batch_size_sum.load(Ordering::Relaxed),
            batch_hist: self
                .batch_hist
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            latency_hist: self.latency.snapshot(),
            ingress_bytes: self.ingress_bytes.load(Ordering::Relaxed),
            ingress_frames: self.ingress_frames.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ServiceStats`] with derived rates/quantiles.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    pub requests: u64,
    pub exact_hits: u64,
    pub bound_hits: u64,
    pub computed: u64,
    pub coalesced: u64,
    pub errors: u64,
    /// Degraded monotone-bracket answers (load shed, still answered).
    pub shed_bracket: u64,
    /// Hard sheds (refused: no cached bracket to degrade onto).
    pub shed_rejected: u64,
    /// Requests refused for exceeding a per-client quota.
    pub quota_rejected: u64,
    /// Per-client counters, sorted by client id.
    pub clients: Vec<(u64, ClientStats)>,
    pub batches: u64,
    pub batch_size_sum: u64,
    /// Count of micro-batches whose size fell in `[2^b, 2^{b+1})`.
    pub batch_hist: Vec<u64>,
    /// End-to-end request latencies, log2-bucketed: bucket `b` counts the
    /// requests whose latency fell in `[2^b, 2^{b+1})` ns.
    pub latency_hist: HistogramSnapshot,
    /// Bytes consumed off sockets as complete wire frames.
    pub ingress_bytes: u64,
    /// Wire frames decoded off sockets.
    pub ingress_frames: u64,
}

impl StatsSnapshot {
    /// Successfully answered requests, across every response source
    /// (degraded shed-bracket answers included — the client got bounds).
    pub fn answered(&self) -> u64 {
        self.exact_hits + self.bound_hits + self.coalesced + self.computed + self.shed_bracket
    }

    /// Fraction of ingress traffic that was load-shed (degraded answers
    /// plus hard rejects) — the saturation signal an operator watches.
    pub fn shed_rate(&self) -> f64 {
        let shed = self.shed_bracket + self.shed_rejected;
        if self.requests == 0 {
            return 0.0;
        }
        shed as f64 / self.requests as f64
    }

    /// Fraction of answered requests served from cache (exact or bounds).
    pub fn hit_rate(&self) -> f64 {
        if self.answered() == 0 {
            return 0.0;
        }
        (self.exact_hits + self.bound_hits) as f64 / self.answered() as f64
    }

    pub fn bound_hit_rate(&self) -> f64 {
        if self.answered() == 0 {
            return 0.0;
        }
        self.bound_hits as f64 / self.answered() as f64
    }

    /// Fraction of answered requests that avoided a model row entirely
    /// (cache hits plus intra-batch coalescing).
    pub fn saved_rate(&self) -> f64 {
        if self.answered() == 0 {
            return 0.0;
        }
        (self.exact_hits + self.bound_hits + self.coalesced) as f64 / self.answered() as f64
    }

    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batch_size_sum as f64 / self.batches as f64
    }

    /// Approximate latency quantile (`q` in `[0, 1]`) from the log-bucketed
    /// histogram: the geometric midpoint of the bucket holding the q-th
    /// request ([`HistogramSnapshot::quantile_ns`]). Buckets cover
    /// `[2^b, 2^{b+1})`, so the resolution is a factor of 2 (each reported
    /// value is within √2 of the true one) — plenty for p50/p99 reporting.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.latency_hist.quantile_ns(q))
    }

    /// `(size-range label, count)` rows for the non-empty batch buckets.
    pub fn batch_histogram_rows(&self) -> Vec<(String, u64)> {
        self.batch_hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let lo = 1u64 << b;
                let hi = (1u64 << (b + 1)) - 1;
                let label = if lo == hi {
                    format!("{lo}")
                } else {
                    format!("{lo}-{hi}")
                };
                (label, c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = ServiceStats::new();
        for _ in 0..10 {
            stats.record_request();
        }
        stats.record_exact_hit();
        stats.record_exact_hit();
        stats.record_bound_hit();
        stats.record_batch(7);
        stats.record_batch(1);
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 10);
        assert_eq!(snap.exact_hits, 2);
        assert_eq!(snap.bound_hits, 1);
        assert_eq!(snap.computed, 8);
        assert_eq!(snap.batches, 2);
        assert!((snap.mean_batch_size() - 4.0).abs() < 1e-12);
        // 2 exact + 1 bound out of 11 answered.
        assert!((snap.hit_rate() - 3.0 / 11.0).abs() < 1e-12);
        assert!((snap.saved_rate() - 3.0 / 11.0).abs() < 1e-12);
        let rows = snap.batch_histogram_rows();
        assert_eq!(rows.len(), 2); // bucket "1" and bucket "4-7"
        assert_eq!(rows[0], ("1".to_string(), 1));
        assert_eq!(rows[1], ("4-7".to_string(), 1));
    }

    #[test]
    fn shed_counters_and_quota_table_reconcile() {
        let stats = ServiceStats::new();
        // Client 7 has quota 2: two admissions, then rejects until released.
        assert!(stats.client_begin(7, 2));
        assert!(stats.client_begin(7, 2));
        assert!(!stats.client_begin(7, 2));
        assert!(!stats.client_begin(7, 2));
        stats.client_end(7);
        assert!(stats.client_begin(7, 2));
        // Client 8 is unlimited (quota 0).
        for _ in 0..5 {
            assert!(stats.client_begin(8, 0));
        }
        stats.record_shed_bracket();
        stats.record_shed_bracket();
        stats.client_shed(7);
        stats.record_shed_reject();
        for _ in 0..10 {
            stats.record_request();
        }
        let snap = stats.snapshot();
        assert_eq!(snap.shed_bracket, 2);
        assert_eq!(snap.shed_rejected, 1);
        assert_eq!(snap.quota_rejected, 2);
        assert!((snap.shed_rate() - 0.3).abs() < 1e-12);
        // Degraded answers count as answered.
        assert_eq!(snap.answered(), 2);
        let c7 = stats.client_stats(7);
        assert_eq!(c7.requests, 5);
        assert_eq!(c7.outstanding, 2);
        assert_eq!(c7.quota_rejected, 2);
        assert_eq!(c7.shed, 1);
        let c8 = stats.client_stats(8);
        assert_eq!((c8.requests, c8.outstanding), (5, 5));
        assert_eq!(stats.client_stats(99), ClientStats::default());
        let ids: Vec<u64> = snap.clients.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![7, 8], "snapshot sorted by client id");
    }

    #[test]
    fn quota_table_stays_bounded_under_random_client_ids() {
        let stats = ServiceStats::new();
        // A hostile client presenting a fresh id per request: every request
        // is admitted (its predecessor is idle and gets evicted) but the
        // table never grows past the cap.
        for id in 0..(MAX_TRACKED_CLIENTS as u64 + 500) {
            assert!(stats.client_begin(id, 4));
            stats.client_end(id);
        }
        let snap = stats.snapshot();
        assert!(snap.clients.len() <= MAX_TRACKED_CLIENTS);
        assert_eq!(snap.quota_rejected, 0);
        // Shed attribution for an evicted (untracked) id must not re-insert.
        stats.client_shed(0);
        assert!(stats.snapshot().clients.len() <= MAX_TRACKED_CLIENTS);
    }

    #[test]
    fn full_quota_table_of_inflight_clients_refuses_newcomers() {
        let stats = ServiceStats::new();
        for id in 0..MAX_TRACKED_CLIENTS as u64 {
            assert!(stats.client_begin(id, 0));
        }
        // Every tracked client is mid-flight: a newcomer is refused, counted
        // as a quota reject, and the table does not grow.
        assert!(!stats.client_begin(u64::MAX, 0));
        let snap = stats.snapshot();
        assert_eq!(snap.clients.len(), MAX_TRACKED_CLIENTS);
        assert_eq!(snap.quota_rejected, 1);
        // Releasing one slot readmits new ids.
        stats.client_end(3);
        assert!(stats.client_begin(u64::MAX, 0));
        assert_eq!(stats.snapshot().clients.len(), MAX_TRACKED_CLIENTS);
    }

    #[test]
    fn latency_quantiles_are_ordered() {
        let stats = ServiceStats::new();
        for us in [1u64, 10, 10, 10, 10, 100, 100, 1000, 10_000] {
            stats.record_latency(Duration::from_micros(us));
        }
        // An absurd latency lands in (and saturates into) the top bucket.
        let huge = Duration::from_secs(400_000); // ~4.6 days > 2^47 ns
        stats.record_latency(huge);
        let snap = stats.snapshot();
        let p50 = snap.latency_quantile(0.50);
        let p99 = snap.latency_quantile(0.99);
        let p100 = snap.latency_quantile(1.0);
        assert!(p50 <= p99, "{p50:?} > {p99:?}");
        assert!(p99 <= p100, "{p99:?} > {p100:?}");
        assert!(p50 >= Duration::from_micros(5) && p50 <= Duration::from_micros(20));
        // The overflow bucket reports its geometric midpoint — the same
        // convention as every other bucket — not the bucket edge.
        let top = cardest_obs::HIST_BUCKETS - 1;
        let expected = Duration::from_nanos(cardest_obs::bucket_midpoint_ns(top));
        assert_eq!(p100, expected);
        assert!(p100 >= Duration::from_nanos(1 << top));
        assert!(p100 < Duration::from_nanos(1 << (top + 1)));
        assert_eq!(
            StatsSnapshot::default_zero().latency_quantile(0.5),
            Duration::ZERO
        );
    }

    impl StatsSnapshot {
        fn default_zero() -> StatsSnapshot {
            ServiceStats::new().snapshot()
        }
    }
}
