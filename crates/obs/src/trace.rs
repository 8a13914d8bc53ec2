//! Per-stage request tracing: stack-allocated span accumulation on the hot
//! path, per-stage latency histograms, a bounded ring of sampled full
//! traces, and a slow-query log.
//!
//! Design constraints:
//! - **No allocation on the hot path.** A [`TraceBuilder`] is a fixed
//!   `[u64; STAGE_COUNT]` carried by value inside the request job; spans are
//!   added with a single array store. Allocation happens only when a trace
//!   is *captured* (sampled into the ring or over the slow threshold), and a
//!   captured [`Trace`] is a flat `Copy` struct anyway.
//! - **Monotonic clock.** Callers time spans with [`std::time::Instant`];
//!   this module only ever sees elapsed durations.
//! - **Always-on histograms, sampled traces.** Per-stage histograms are fed
//!   by every finished request; only every `sample_every`-th request is
//!   retained as a full trace (plus everything over the slow threshold).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::hist::{HistogramSnapshot, LogHistogram};
use crate::lockwitness::one_lock;

/// Pipeline stages instrumented along the serving path, in request order.
///
/// `EncoderPass` and `DecoderSweep` are *sub-spans* of `Model` (the batched
/// kernel call wall-clock): when summing stages against the end-to-end
/// total, include `Model` and skip the two sub-spans (see
/// [`Stage::is_substage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Wire-frame decode on the connection reader thread.
    Decode = 0,
    /// Admission control: quota + queue-limit checks before enqueue.
    Admission = 1,
    /// Enqueue until a worker picks the job up (queue wait).
    QueueWait = 2,
    /// Time spent waiting on the micro-batch: the collection window plus the
    /// batch's serialized shared work (sibling prepare/probe, coalescing,
    /// result distribution) outside this request's own spans.
    BatchWindow = 3,
    /// Shared feature preparation + fingerprinting.
    Prepare = 4,
    /// Estimate-cache probe (exact / bound / miss).
    CacheProbe = 5,
    /// Whole batched model call (prepare-to-estimates wall clock).
    Model = 6,
    /// Encoder forward passes inside the model call (sub-span of `Model`).
    EncoderPass = 7,
    /// Monotone decoder sweeps inside the model call (sub-span of `Model`).
    DecoderSweep = 8,
    /// Response-frame encode on the writer side.
    RespondEncode = 9,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 10;

/// All stages in request order.
pub const STAGES: [Stage; STAGE_COUNT] = [
    Stage::Decode,
    Stage::Admission,
    Stage::QueueWait,
    Stage::BatchWindow,
    Stage::Prepare,
    Stage::CacheProbe,
    Stage::Model,
    Stage::EncoderPass,
    Stage::DecoderSweep,
    Stage::RespondEncode,
];

impl Stage {
    /// Stable snake_case name used in metric names and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::BatchWindow => "batch_window",
            Stage::Prepare => "prepare",
            Stage::CacheProbe => "cache_probe",
            Stage::Model => "model",
            Stage::EncoderPass => "encoder_pass",
            Stage::DecoderSweep => "decoder_sweep",
            Stage::RespondEncode => "respond_encode",
        }
    }

    /// True for spans nested inside another span (`EncoderPass` and
    /// `DecoderSweep` are inside `Model`); excluded from coverage sums.
    pub fn is_substage(self) -> bool {
        matches!(self, Stage::EncoderPass | Stage::DecoderSweep)
    }

    /// Inverse of `Stage as u8`; `None` for out-of-range codes.
    pub fn from_u8(v: u8) -> Option<Stage> {
        STAGES.get(v as usize).copied()
    }
}

/// Zero-allocation span accumulator carried inside a request job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceBuilder {
    stages_ns: [u64; STAGE_COUNT],
}

impl TraceBuilder {
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Add `d` to the accumulated time for `stage` (spans for the same
    /// stage accumulate, e.g. a retried cache probe).
    // lint: hot-path
    #[inline]
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.add_ns(stage, d.as_nanos().min(u64::MAX as u128) as u64);
    }

    // lint: hot-path
    #[inline]
    pub fn add_ns(&mut self, stage: Stage, ns: u64) {
        self.stages_ns[stage as usize] = self.stages_ns[stage as usize].saturating_add(ns);
    }

    /// Accumulated nanoseconds for one stage.
    pub fn get_ns(&self, stage: Stage) -> u64 {
        self.stages_ns[stage as usize]
    }

    pub fn stages_ns(&self) -> &[u64; STAGE_COUNT] {
        &self.stages_ns
    }
}

/// A captured end-to-end trace of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trace {
    /// Monotonically increasing capture id (process-local).
    pub id: u64,
    /// Per-stage accumulated nanoseconds, indexed by `Stage as usize`.
    pub stages_ns: [u64; STAGE_COUNT],
    /// End-to-end latency in nanoseconds (enqueue to response).
    pub total_ns: u64,
    /// Model epoch that answered the request.
    pub epoch: u64,
    /// Caller-defined answer-source code (the serve layer uses its wire
    /// `WireSource` encoding: computed / coalesced / cache / bracket).
    pub source: u8,
}

impl Trace {
    /// Sum of top-level spans (sub-spans excluded) — compare against
    /// `total_ns` to measure how much of the latency is attributed.
    pub fn attributed_ns(&self) -> u64 {
        STAGES
            .iter()
            .filter(|s| !s.is_substage())
            .map(|&s| self.stages_ns[s as usize])
            .sum()
    }
}

/// Configuration for an [`Observer`].
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Master switch; when false, `finish_trace` still counts requests but
    /// records nothing else (callers should also skip span timing).
    pub enabled: bool,
    /// Capture every n-th finished request as a full trace (1 = all,
    /// 0 = never sample; slow queries are always captured).
    pub sample_every: u64,
    /// Requests at or above this end-to-end latency land in the slow log.
    pub slow_threshold: Duration,
    /// Capacity of the recent-trace ring buffer.
    pub ring_capacity: usize,
    /// Capacity of the slow-query log (ring of the most recent slow traces).
    pub slow_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            sample_every: 16,
            slow_threshold: Duration::from_millis(100),
            ring_capacity: 256,
            slow_capacity: 64,
        }
    }
}

/// Aggregation point for one service instance: per-stage histograms, the
/// end-to-end histogram, the sampled-trace ring, and the slow-query log.
///
/// Shared across worker and connection threads behind an `Arc`; recording
/// into histograms is lock-free, trace capture takes a short mutex only on
/// the sampled / slow subset.
#[derive(Debug)]
pub struct Observer {
    enabled: AtomicBool,
    sample_every: AtomicU64,
    slow_threshold_ns: AtomicU64,
    seq: AtomicU64,
    captured: AtomicU64,
    slow_seen: AtomicU64,
    stages: [LogHistogram; STAGE_COUNT],
    total: LogHistogram,
    ring: Mutex<VecDeque<Trace>>,
    slow: Mutex<VecDeque<Trace>>,
    ring_capacity: usize,
    slow_capacity: usize,
}

impl Observer {
    pub fn new(cfg: ObsConfig) -> Observer {
        Observer {
            enabled: AtomicBool::new(cfg.enabled),
            sample_every: AtomicU64::new(cfg.sample_every),
            slow_threshold_ns: AtomicU64::new(
                cfg.slow_threshold.as_nanos().min(u64::MAX as u128) as u64
            ),
            seq: AtomicU64::new(0),
            captured: AtomicU64::new(0),
            slow_seen: AtomicU64::new(0),
            stages: std::array::from_fn(|_| LogHistogram::new()),
            total: LogHistogram::new(),
            ring: Mutex::new(VecDeque::with_capacity(cfg.ring_capacity.min(4096))),
            slow: Mutex::new(VecDeque::with_capacity(cfg.slow_capacity.min(4096))),
            ring_capacity: cfg.ring_capacity,
            slow_capacity: cfg.slow_capacity,
        }
    }

    /// Whether span timing should be performed at all. Callers check this
    /// once per request and skip clock reads entirely when disabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        // ordering: relaxed suffices — the flag publishes no data, only a
        // hint; readers that race the toggle merely time (or skip) a few
        // spans on either side of it, which sampling tolerates by design.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record a standalone span for a stage that is not tied to a request
    /// trace (e.g. frame decode on the reader thread, which happens before
    /// a job exists). Feeds the stage histogram only.
    // lint: hot-path
    #[inline]
    pub fn record_stage(&self, stage: Stage, d: Duration) {
        if self.enabled() {
            self.stages[stage as usize].record(d);
        }
    }

    // lint: hot-path
    #[inline]
    pub fn record_stage_ns(&self, stage: Stage, ns: u64) {
        if self.enabled() {
            self.stages[stage as usize].record_ns(ns);
        }
    }

    /// Finish a request: feed every stage histogram and the end-to-end
    /// histogram, then capture the full trace if sampled or slow.
    pub fn finish_trace(&self, builder: &TraceBuilder, total: Duration, epoch: u64, source: u8) {
        if !self.enabled() {
            return;
        }
        let total_ns = total.as_nanos().min(u64::MAX as u128) as u64;
        for &stage in STAGES.iter() {
            let ns = builder.get_ns(stage);
            // Sub-spans may legitimately be 0 (cache hits never run the
            // model); recording zeros would drown the histograms, so only
            // nonzero spans are recorded. QueueWait/BatchWindow zeros are
            // meaningful and always recorded.
            if ns > 0 || matches!(stage, Stage::QueueWait | Stage::BatchWindow) {
                self.stages[stage as usize].record_ns(ns);
            }
        }
        self.total.record_ns(total_ns);

        // ordering: relaxed suffices — the ticket only drives the 1-in-N
        // sampling decision; atomicity gives uniqueness, and no other
        // memory is synchronized through it.
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let every = self.sample_every.load(Ordering::Relaxed);
        let slow = total_ns >= self.slow_threshold_ns.load(Ordering::Relaxed);
        let sampled = every > 0 && n.is_multiple_of(every);
        if !sampled && !slow {
            return;
        }
        let trace = Trace {
            id: n,
            stages_ns: *builder.stages_ns(),
            total_ns,
            epoch,
            source,
        };
        if sampled && self.ring_capacity > 0 {
            self.captured.fetch_add(1, Ordering::Relaxed);
            let _one = one_lock();
            let mut ring = self.ring.lock().unwrap();
            if ring.len() == self.ring_capacity {
                ring.pop_front();
            }
            ring.push_back(trace);
        }
        if slow && self.slow_capacity > 0 {
            self.slow_seen.fetch_add(1, Ordering::Relaxed);
            let _one = one_lock();
            let mut log = self.slow.lock().unwrap();
            if log.len() == self.slow_capacity {
                log.pop_front();
            }
            log.push_back(trace);
        }
    }

    /// Most recent sampled traces, oldest first, at most `max`.
    pub fn recent_traces(&self, max: usize) -> Vec<Trace> {
        let _one = one_lock();
        let ring = self.ring.lock().unwrap();
        let skip = ring.len().saturating_sub(max);
        ring.iter().skip(skip).copied().collect()
    }

    /// Most recent slow-query traces, oldest first, at most `max`.
    pub fn slow_traces(&self, max: usize) -> Vec<Trace> {
        let _one = one_lock();
        let log = self.slow.lock().unwrap();
        let skip = log.len().saturating_sub(max);
        log.iter().skip(skip).copied().collect()
    }

    /// Snapshot of one stage's latency histogram.
    pub fn stage_histogram(&self, stage: Stage) -> HistogramSnapshot {
        self.stages[stage as usize].snapshot()
    }

    /// Snapshot of the end-to-end latency histogram.
    pub fn total_histogram(&self) -> HistogramSnapshot {
        self.total.snapshot()
    }

    /// Number of requests finished through this observer.
    pub fn finished(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Number of traces captured into the ring (lifetime, not current len).
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Number of slow queries seen (lifetime, not current log length).
    pub fn slow_seen(&self) -> u64 {
        self.slow_seen.load(Ordering::Relaxed)
    }

    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }
}

impl Default for Observer {
    fn default() -> Self {
        Observer::new(ObsConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_builder(ns: u64) -> TraceBuilder {
        let mut b = TraceBuilder::new();
        b.add_ns(Stage::QueueWait, ns / 2);
        b.add_ns(Stage::Model, ns / 2);
        b.add_ns(Stage::EncoderPass, ns / 4);
        b
    }

    #[test]
    fn sampling_captures_every_nth() {
        let obs = Observer::new(ObsConfig {
            sample_every: 4,
            slow_threshold: Duration::from_secs(1000),
            ..ObsConfig::default()
        });
        for i in 0..16 {
            obs.finish_trace(&sample_builder(1000 + i), Duration::from_micros(10), 1, 0);
        }
        assert_eq!(obs.finished(), 16);
        assert_eq!(obs.captured(), 4);
        assert_eq!(obs.recent_traces(100).len(), 4);
        assert_eq!(obs.slow_seen(), 0);
    }

    #[test]
    fn slow_queries_always_captured() {
        let obs = Observer::new(ObsConfig {
            sample_every: 0, // never sample
            slow_threshold: Duration::from_micros(50),
            ..ObsConfig::default()
        });
        obs.finish_trace(&sample_builder(100), Duration::from_micros(10), 1, 0);
        obs.finish_trace(&sample_builder(100), Duration::from_micros(80), 2, 3);
        assert!(obs.recent_traces(10).is_empty());
        let slow = obs.slow_traces(10);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].epoch, 2);
        assert_eq!(slow[0].source, 3);
    }

    #[test]
    fn ring_is_bounded() {
        let obs = Observer::new(ObsConfig {
            sample_every: 1,
            ring_capacity: 8,
            slow_threshold: Duration::from_secs(1000),
            ..ObsConfig::default()
        });
        for _ in 0..100 {
            obs.finish_trace(&sample_builder(64), Duration::from_nanos(64), 1, 0);
        }
        let traces = obs.recent_traces(1000);
        assert_eq!(traces.len(), 8);
        // Oldest first; the last 8 of 100 captures survive.
        assert_eq!(traces[0].id, 92);
        assert_eq!(traces[7].id, 99);
    }

    #[test]
    fn disabled_observer_records_nothing() {
        let obs = Observer::new(ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        });
        obs.finish_trace(&sample_builder(100), Duration::from_millis(500), 1, 0);
        obs.record_stage(Stage::Decode, Duration::from_micros(5));
        assert_eq!(obs.finished(), 0);
        assert_eq!(obs.total_histogram().count, 0);
        assert_eq!(obs.stage_histogram(Stage::Decode).count, 0);
    }

    #[test]
    fn attributed_excludes_substages() {
        let mut b = TraceBuilder::new();
        b.add_ns(Stage::QueueWait, 100);
        b.add_ns(Stage::Model, 200);
        b.add_ns(Stage::EncoderPass, 150);
        b.add_ns(Stage::DecoderSweep, 40);
        let t = Trace {
            id: 0,
            stages_ns: *b.stages_ns(),
            total_ns: 310,
            epoch: 1,
            source: 0,
        };
        assert_eq!(t.attributed_ns(), 300);
    }

    #[test]
    fn stage_codes_round_trip() {
        for (i, &s) in STAGES.iter().enumerate() {
            assert_eq!(s as usize, i);
            assert_eq!(Stage::from_u8(s as u8), Some(s));
        }
        assert_eq!(Stage::from_u8(STAGE_COUNT as u8), None);
    }
}
