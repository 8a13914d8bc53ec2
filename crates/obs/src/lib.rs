//! # cardest-obs — observability primitives for the serving stack
//!
//! Std-only building blocks threaded through the whole request path:
//!
//! - [`LogHistogram`] — lock-free log2-bucketed latency histograms: the one
//!   histogram type behind every latency the stack reports, `ServiceStats`'
//!   end-to-end latency included.
//! - [`Stage`] / [`TraceBuilder`] / [`Trace`] — a zero-allocation span API
//!   over a monotonic clock: jobs carry a fixed-size [`TraceBuilder`] and
//!   each pipeline stage adds its elapsed time with one array store.
//! - [`Observer`] — per-service aggregation point: always-on per-stage
//!   histograms, a bounded ring of sampled full traces, and a slow-query
//!   log capturing every request over a configurable threshold with its
//!   complete span breakdown plus epoch and answer source.
//! - [`MetricsSnapshot`] — a single coherent, ordered bag of counters,
//!   gauges, and histograms with Prometheus text exposition
//!   ([`MetricsSnapshot::render_prometheus`]) and JSON rendering
//!   ([`MetricsSnapshot::render_json`]), shared by the wire `Stats` frame
//!   and the HTTP metrics endpoint.
//! - [`one_lock`] — the debug-build lock witness: every tracked lock
//!   acquisition, in this crate and in the layers above it, checks that its
//!   thread holds no other tracked lock.
//!
//! This crate depends on nothing (std only) so every layer — core, nn,
//! serve, bench — can feed it without dependency cycles.

pub mod hist;
pub mod lockwitness;
pub mod snapshot;
pub mod trace;

pub use hist::{bucket_midpoint_ns, bucket_of, HistogramSnapshot, LogHistogram, HIST_BUCKETS};
pub use lockwitness::{one_lock, OneLock};
pub use snapshot::{json_f64, json_str, MetricsSnapshot};
pub use trace::{ObsConfig, Observer, Stage, Trace, TraceBuilder, STAGES, STAGE_COUNT};
