//! `cardest-serve`: a concurrent estimation service.
//!
//! The paper's economics only pay off inside a long-running system: a learned
//! estimator answers in microseconds what exact selection answers in
//! milliseconds (Table 6), so the estimator is deployed as a shared component
//! queried concurrently by many optimizer sessions. This crate is that
//! deployment shell, built on `std` threads and mpsc channels only (the
//! workspace's dependency policy has no async runtime):
//!
//! * [`registry::ModelRegistry`] — named, `Arc`-wrapped estimators with
//!   epoch-tagged hot-swap: a freshly retrained snapshot replaces the live
//!   model without pausing in-flight queries, and a half-written model is
//!   unrepresentable.
//! * [`service::Service`] — a worker pool that drains the request queue into
//!   **micro-batches** and feeds them through the estimator's batch-first
//!   API ([`cardest_core::CardinalityEstimator::estimate_batch`]): queries
//!   are `prepare`d once at ingress, the encoder runs once per batch, and
//!   every served value stays bit-identical to the unbatched scalar path.
//! * [`cache::EstimateCache`] — a sharded LRU cache keyed by
//!   `(model epoch, query fingerprint, τ-bucket)` that exploits the
//!   monotonicity guarantee: a lookup at τ bracketed by cached τ₁ ≤ τ ≤ τ₂
//!   yields the *bounds* `[ĉ(τ₁), ĉ(τ₂)]` as a
//!   [`cardest_core::Estimate`] — something no non-monotone estimator could
//!   offer — and short-circuits when the bracket is pinned or tight. With
//!   [`service::ServeConfig::cache_curve_points`] set, computed misses seed
//!   the cache with whole threshold-curve points, turning repeat θ-sweeps
//!   into exact hits.
//! * [`stats::ServiceStats`] — lock-free counters: throughput, p50/p99
//!   latency, cache hit/bound-hit rates, shed/quota counters, and a
//!   batch-size histogram.
//! * [`wire`] + [`net`] — the network edge: a length-prefixed binary frame
//!   codec (versioned header, request ids, τ, degraded flag) and a std-only
//!   TCP front-end with per-connection reader/writer threads, bounded-queue
//!   admission control, per-client quotas, and load shedding that falls back
//!   to the monotone cache's `[lo, hi]` bracket instead of queuing without
//!   bound.
//!
//! ```no_run
//! use cardest_serve::{ModelRegistry, ServeConfig, Service};
//! use std::sync::Arc;
//! # fn trained() -> cardest_core::CardNetEstimator { unimplemented!() }
//! # fn a_record() -> std::sync::Arc<cardest_data::Record> { unimplemented!() }
//! let registry = Arc::new(ModelRegistry::new());
//! registry.publish("default", trained());
//! let service = Service::start(Arc::clone(&registry), ServeConfig::default());
//! let resp = service.estimate("default", a_record(), 8.0).unwrap();
//! println!("ĉ = {} (model epoch {})", resp.estimate, resp.epoch);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod http;
pub mod net;
pub mod obs_export;
pub mod registry;
pub mod service;
pub mod stats;
pub mod wire;

#[cfg(test)]
pub(crate) mod testutil;

pub use cache::{CacheLookup, EstimateCache};
pub use http::MetricsServer;
pub use net::{NetClient, NetConfig, NetServer};
pub use obs_export::{metrics_snapshot, wire_counters};
pub use registry::{ModelRegistry, RegistryReader, ServeModel};
pub use service::{
    EstimateSource, Request, Response, ServeConfig, ServeError, Service, ServiceClient,
};
pub use stats::{ClientStats, ServiceStats, StatsSnapshot};
pub use wire::{
    Decoder, ErrorCode, ErrorFrame, Frame, RequestFrame, ResponseFrame, StatsFrame, TracesFrame,
    WireError, WireQuery, WireSource, WireTrace, MAX_STATS_ENTRIES, MAX_TRACE_STAGES,
    MAX_WIRE_TRACES,
};
