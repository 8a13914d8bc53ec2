//! The request path: a worker pool that drains an mpsc queue into
//! micro-batches, probes the monotone cache, and runs the model **once per
//! batch** instead of once per query.
//!
//! Batching changes the arithmetic *layout*, not the arithmetic: the batched
//! path ([`cardest_core::CardinalityEstimator::estimate_batch`]) computes each
//! row with the same per-row accumulation order as the single-query path, so
//! served estimates are **bit-identical** to `estimator.estimate(q, θ)` run
//! on one thread with no batching. That invariant is what makes the cache
//! sound (a cached value *is* the value) and is asserted by the integration
//! tests (`tests/serve.rs` across worker counts, batch windows and cache
//! settings; `tests/serve_net.rs` over the socket).
//!
//! Concurrency layout: one shared queue, `workers` threads. A worker locks
//! the queue only while *collecting* a batch (blocking for at most
//! `batch_window`); it computes with the lock released, so collection of the
//! next batch overlaps with computation of the current one. Under load this
//! converges to all workers computing while one collects — the classic
//! single-dispatcher micro-batching layout, with no dedicated dispatcher
//! thread to idle when traffic stops.

use crate::cache::{CacheLookup, EstimateCache};
use crate::registry::{ModelRegistry, RegistryReader, ServeModel};
use crate::stats::{ServiceStats, StatsSnapshot};
use cardest_core::{CardinalityEstimator, Estimate, PreparedQuery};
use cardest_data::{BitVec, Record};
use cardest_obs::{ObsConfig, Observer, Stage, TraceBuilder};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Largest micro-batch a worker will assemble.
    pub batch_max: usize,
    /// How long a worker waits for the batch to fill once the first request
    /// arrived. Zero means "drain whatever is already queued, never wait".
    pub batch_window: Duration,
    /// Total estimate-cache entries across shards; 0 disables caching.
    pub cache_capacity: usize,
    /// Relative slack for the monotone-bound short-circuit: a bracket
    /// `[lo, hi]` answers the request when `hi − lo ≤ tolerance · max(hi, 1)`.
    /// At the default `0.0` only *degenerate* brackets (`lo == hi`) short-
    /// circuit — those pin the true value exactly, so estimates stay
    /// bit-identical to the uncached path.
    pub bound_tolerance: f64,
    /// When > 0, each computed miss runs the model's full threshold
    /// **curve** (same per-row arithmetic, every decoder is evaluated either
    /// way) and seeds the cache with this many evenly spaced curve points in
    /// addition to the requested τ — so a later miss between two cached τ
    /// values answers from the same model epoch's [`Estimate`] bounds, and a
    /// θ-sweep over a repeated query turns into exact hits. `0` (default)
    /// keeps the plain batched-kernel path.
    pub cache_curve_points: usize,
    /// Unused: nothing reads this field. Every micro-batch's kernels run on
    /// the worker thread that collected it, and the pool's `workers` give
    /// the concurrency across batches. The last literal that sets it is
    /// perfbench's (`perfbench/src/system.rs`); the change that drops that
    /// line can delete the field and its `Default` line with it.
    pub kernel_threads: usize,
    /// Pinned compute-kernel backend for the micro-batch kernels; `None`
    /// (default) resolves [`cardest_core::KernelBackend::default_backend`]
    /// — the `CARDEST_KERNEL_BACKEND` env override, else the best tier the
    /// CPU supports (explicit AVX2/AVX-512 SIMD where available). Every
    /// backend is bit-identical, so this too can never change a served
    /// estimate or a cache entry.
    pub kernel_backend: Option<cardest_core::KernelBackend>,
    /// Per-stage tracing master switch. When off, workers skip every span
    /// clock read; the [`Observer`] still exists (so it can be re-enabled at
    /// runtime via [`cardest_obs::Observer::set_enabled`]) but records
    /// nothing.
    pub tracing: bool,
    /// Capture every n-th finished request as a full trace (1 = all,
    /// 0 = never; slow queries are always captured).
    pub trace_sample: u64,
    /// End-to-end latency at or above which a request lands in the
    /// slow-query log with its full span breakdown.
    pub slow_threshold: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            batch_max: 64,
            batch_window: Duration::from_micros(200),
            cache_capacity: 4096,
            bound_tolerance: 0.0,
            cache_curve_points: 0,
            kernel_threads: 1,
            kernel_backend: None,
            tracing: true,
            trace_sample: 16,
            slow_threshold: Duration::from_millis(100),
        }
    }
}

impl ServeConfig {
    /// The observer configuration implied by the tracing knobs.
    pub fn obs_config(&self) -> ObsConfig {
        ObsConfig {
            enabled: self.tracing,
            sample_every: self.trace_sample,
            slow_threshold: self.slow_threshold,
            ..ObsConfig::default()
        }
    }

    /// The per-micro-batch kernel config handed to the estimator's batched
    /// paths: [`ServeConfig::kernel_backend`] pinned when set.
    pub fn kernel_parallelism(&self) -> cardest_core::Parallelism {
        cardest_core::Parallelism::serial().with_backend_opt(self.kernel_backend)
    }
}

/// One estimation request.
#[derive(Clone)]
pub struct Request {
    /// Registry name of the model to query.
    pub model: String,
    /// The query record (`Arc` so a load generator can replay a shared
    /// stream without cloning payloads).
    pub query: Arc<Record>,
    /// Similarity threshold θ.
    pub theta: f64,
}

/// How a response was produced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EstimateSource {
    /// Ran through the model, in a micro-batch of `batch_size` unique
    /// queries.
    Computed { batch_size: usize },
    /// Identical to another request in the same micro-batch; answered from
    /// that request's row without its own model run.
    Coalesced,
    /// Exact cache entry for `(epoch, fingerprint, τ)`.
    CacheExact,
    /// Monotone bracket `[lo, hi]` was tight enough to answer without the
    /// model.
    CacheBounds { lo: f64, hi: f64 },
    /// Load-shed **degraded** answer: the request was refused a model run
    /// (admission control or an expired deadline) and answered from the
    /// monotone cache bracket `[lo, hi]` instead. The point value is the
    /// bracket's [`Estimate::from_bracket`] value; clients should trust the
    /// bounds, not the point.
    ShedBracket { lo: f64, hi: f64 },
}

impl EstimateSource {
    /// Whether this answer is a degraded (load-shed) one.
    pub fn is_degraded(&self) -> bool {
        matches!(self, EstimateSource::ShedBracket { .. })
    }
}

/// A served estimate, tagged with the epoch of the model that produced it —
/// the tag a client (or test) uses to tell which side of a hot-swap it saw.
#[derive(Clone, Debug)]
pub struct Response {
    pub estimate: f64,
    /// Publish epoch of the model that answered (see [`ServeModel::epoch`]).
    pub epoch: u64,
    pub source: EstimateSource,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// No model is published under the requested name.
    UnknownModel(String),
    /// The service shut down before (or while) answering.
    ServiceStopped,
    /// The request sat queued past its deadline and no cache bracket was
    /// available for a degraded answer.
    DeadlineExceeded,
    /// Admission control refused the request (bounded queue full) and no
    /// cache bracket was available for a degraded answer.
    Overloaded,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "no model published as `{name}`"),
            ServeError::ServiceStopped => write!(f, "service stopped"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded while queued"),
            ServeError::Overloaded => write!(f, "service overloaded, request shed"),
        }
    }
}

impl std::error::Error for ServeError {}

struct Job {
    req: Request,
    resp: Sender<Result<Response, ServeError>>,
    enqueued: Instant,
    /// Load-shed horizon: a job still unserved past this instant is answered
    /// from the cache bracket (degraded) or refused, never computed.
    deadline: Option<Instant>,
    /// Zero-allocation span accumulator; may arrive pre-seeded with
    /// decode/admission spans measured by the ingress layer before the job
    /// existed.
    trace: TraceBuilder,
}

/// A cloneable submission handle; cheap to hand to every client thread.
#[derive(Clone)]
pub struct ServiceClient {
    tx: Sender<Job>,
    stats: Arc<ServiceStats>,
}

impl ServiceClient {
    /// Enqueues a request; the returned channel yields exactly one result.
    /// Submitting many requests before draining any is how a client opts
    /// into pipelining (and gives workers batches to chew on).
    pub fn submit(&self, req: Request) -> Receiver<Result<Response, ServeError>> {
        self.submit_with_deadline(req, None)
    }

    /// [`ServiceClient::submit`] with a load-shed budget: if the request is
    /// still queued once `deadline` has elapsed, a worker answers it from
    /// the monotone cache bracket (degraded, [`EstimateSource::ShedBracket`])
    /// or with [`ServeError::DeadlineExceeded`] — it never spends model time
    /// on an answer the caller has already given up on.
    pub fn submit_with_deadline(
        &self,
        req: Request,
        deadline: Option<Duration>,
    ) -> Receiver<Result<Response, ServeError>> {
        self.submit_traced(req, deadline, TraceBuilder::new())
    }

    /// [`ServiceClient::submit_with_deadline`] with a pre-seeded span
    /// accumulator: the socket ingress passes `Decode`/`Admission` spans it
    /// measured before the job existed, so captured traces cover the whole
    /// wire path, not just queue-to-response.
    pub fn submit_traced(
        &self,
        req: Request,
        deadline: Option<Duration>,
        trace: TraceBuilder,
    ) -> Receiver<Result<Response, ServeError>> {
        self.stats.record_request();
        // capacity: unbounded, but at most one message ever flows through it
        // (the single response for this request), so depth is ≤ 1 by
        // construction.
        let (resp_tx, resp_rx) = channel();
        // timing: enqueue stamp for deadline arithmetic and QueueWait span
        // attribution; it must exist even for untraced jobs because the
        // deadline check in process_batch consumes it.
        let now = Instant::now();
        let job = Job {
            req,
            resp: resp_tx,
            enqueued: now,
            deadline: deadline.map(|d| now + d),
            trace,
        };
        if let Err(send_err) = self.tx.send(job) {
            // Queue closed: answer the caller directly instead of hanging.
            let _ = send_err.0.resp.send(Err(ServeError::ServiceStopped));
        }
        resp_rx
    }

    /// Blocking convenience wrapper around [`ServiceClient::submit`].
    pub fn estimate(
        &self,
        model: &str,
        query: Arc<Record>,
        theta: f64,
    ) -> Result<Response, ServeError> {
        self.submit(Request {
            model: model.to_string(),
            query,
            theta,
        })
        .recv()
        .unwrap_or(Err(ServeError::ServiceStopped))
    }
}

/// The running service: owns the worker pool; dropping it (or calling
/// [`Service::shutdown`]) closes the queue and joins the workers.
pub struct Service {
    registry: Arc<ModelRegistry>,
    cache: Arc<EstimateCache>,
    stats: Arc<ServiceStats>,
    obs: Arc<Observer>,
    client: ServiceClient,
    tx: Option<Sender<Job>>,
    /// Set on shutdown so idle workers wake and exit even while external
    /// [`ServiceClient`] clones still hold the queue's sender side open.
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    config: ServeConfig,
}

impl Service {
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> Service {
        let cache = Arc::new(EstimateCache::new(config.cache_capacity));
        let stats = Arc::new(ServiceStats::new());
        let obs = Arc::new(Observer::new(config.obs_config()));
        // capacity: unbounded job queue; admission control (shed brackets +
        // per-source quotas) rejects producers before they enqueue, so queue
        // depth is bounded upstream, and a blocking bounded send here would
        // bypass the shed accounting that the stats/metrics surface reports.
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let reader = registry.reader();
                let cache = Arc::clone(&cache);
                let stats = Arc::clone(&stats);
                let obs = Arc::clone(&obs);
                let stop = Arc::clone(&stop);
                let cfg = config.clone();
                std::thread::spawn(move || {
                    worker_loop(&rx, reader, &cache, &stats, &obs, &stop, &cfg)
                })
            })
            .collect();
        let client = ServiceClient {
            tx: tx.clone(),
            stats: Arc::clone(&stats),
        };
        Service {
            registry,
            cache,
            stats,
            obs,
            client,
            tx: Some(tx),
            stop,
            workers,
            config,
        }
    }

    pub fn client(&self) -> ServiceClient {
        self.client.clone()
    }

    pub fn submit(&self, req: Request) -> Receiver<Result<Response, ServeError>> {
        self.client.submit(req)
    }

    pub fn estimate(
        &self,
        model: &str,
        query: Arc<Record>,
        theta: f64,
    ) -> Result<Response, ServeError> {
        self.client.estimate(model, query, theta)
    }

    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    pub fn cache(&self) -> &EstimateCache {
        &self.cache
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The live counters themselves (the ingress layer shares them so shed
    /// and quota events land in the same snapshot as served traffic).
    pub fn stats_handle(&self) -> &Arc<ServiceStats> {
        &self.stats
    }

    /// Per-stage tracing state: histograms, the sampled-trace ring, and the
    /// slow-query log. The ingress layer records its `Decode`, `Admission`,
    /// and `RespondEncode` spans here, and the introspection surfaces
    /// (wire `Stats`/`Traces` frames, the HTTP exporter) read from it.
    pub fn observer(&self) -> &Arc<Observer> {
        &self.obs
    }

    /// Admission-control fallback: answers `query`@`theta` from the cache
    /// **without touching the request queue** — the saturation path.
    ///
    /// * An exact `(epoch, fp, τ)` entry answers at full fidelity
    ///   ([`EstimateSource::CacheExact`]): saturation never degrades a
    ///   request the cache can answer outright.
    /// * A monotone bracket answers degraded
    ///   ([`EstimateSource::ShedBracket`]) — the trade the monotonicity
    ///   guarantee makes possible: a bounded-error estimate at zero model
    ///   cost while the queue is full.
    /// * `Ok(None)` means nothing was cached; the caller rejects with
    ///   [`ServeError::Overloaded`].
    pub fn shed_answer(
        &self,
        model: &str,
        query: &Arc<Record>,
        theta: f64,
    ) -> Result<Option<Response>, ServeError> {
        let Some(model) = self.registry.get(model) else {
            return Err(ServeError::UnknownModel(model.to_string()));
        };
        let estimator = &model.estimator;
        let prepared = estimator.prepare_shared(query);
        let fp = fingerprint(prepared.bits().expect("CardNet prepare extracts"));
        let tau = estimator.threshold_step(theta);
        match self.cache.lookup(model.epoch, fp, tau) {
            CacheLookup::Exact(value) => {
                self.stats.record_exact_hit();
                Ok(Some(Response {
                    estimate: value,
                    epoch: model.epoch,
                    source: EstimateSource::CacheExact,
                }))
            }
            CacheLookup::Bounds { lo, hi } if model.monotone => {
                let bracket = Estimate::from_bracket(lo, hi);
                self.stats.record_shed_bracket();
                cardest_core::metrics::record_shed();
                cardest_core::metrics::record_degraded_answer();
                Ok(Some(Response {
                    estimate: bracket.value,
                    epoch: model.epoch,
                    source: EstimateSource::ShedBracket { lo, hi },
                }))
            }
            _ => Ok(None),
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Closes the queue, lets workers drain in-flight jobs, joins them.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // The stop flag (not channel disconnection) is what ends the workers:
        // an external `ServiceClient` clone may still hold a live sender, so
        // idle workers cannot rely on `recv()` erroring out. They poll the
        // flag between idle ticks, finish any in-flight batch, and exit.
        self.stop.store(true, Ordering::Release);
        self.tx = None;
        self.client.tx = dead_sender();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A sender whose receiver is already gone — used to neuter the service's
/// internal client on shutdown.
fn dead_sender() -> Sender<Job> {
    // capacity: unbounded but inert — the receiver is dropped immediately,
    // so every send fails fast and nothing is ever queued.
    let (tx, _) = channel();
    tx
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Stable fingerprint of a query *as the model sees it*: the extracted bit
/// vector. Two records that extract identically share cache entries.
fn fingerprint(bits: &BitVec) -> u64 {
    // DefaultHasher is keyed with constants, so fingerprints are stable
    // across threads and runs (required: cache keys outlive any one thread).
    let mut h = DefaultHasher::new();
    bits.len().hash(&mut h);
    bits.words().hash(&mut h);
    h.finish()
}

/// How often an idle worker wakes to check the stop flag.
const IDLE_TICK: Duration = Duration::from_millis(25);

fn worker_loop(
    rx: &Mutex<Receiver<Job>>,
    mut reader: RegistryReader,
    cache: &EstimateCache,
    stats: &ServiceStats,
    obs: &Observer,
    stop: &AtomicBool,
    cfg: &ServeConfig,
) {
    loop {
        let (batch, sealed) =
            collect_batch(rx, stop, cfg.batch_max, cfg.batch_window, obs.enabled());
        if batch.is_empty() {
            return; // queue disconnected or service stopped
        }
        process_batch(batch, sealed, &mut reader, cache, stats, obs, cfg);
    }
}

/// Blocks for the first job (waking every [`IDLE_TICK`] to honor shutdown),
/// then fills the batch until `batch_max`, the window closes, or the queue
/// drains. The queue lock is held throughout — collection is serialized
/// across workers, computation is not. When `traced`, also returns the seal
/// stamp that ended each job's `BatchWindow` span, so the next span starts
/// where this one ended.
fn collect_batch(
    rx: &Mutex<Receiver<Job>>,
    stop: &AtomicBool,
    batch_max: usize,
    window: Duration,
    traced: bool,
) -> (Vec<Job>, Option<Instant>) {
    let _one = cardest_obs::one_lock();
    // lint: allow(guard-held-across-blocking) the queue lock IS the batch-
    // collection critical section: exactly one worker assembles a batch at a
    // time while the others sleep on the mutex, and every recv under the
    // guard is bounded by IDLE_TICK or the remaining batch window.
    let rx = rx.lock().expect("request queue poisoned");
    let first = loop {
        if stop.load(Ordering::Acquire) {
            // Drain-but-stop: answer anything already queued, then exit.
            match rx.try_recv() {
                Ok(job) => break job,
                Err(_) => return (Vec::new(), None),
            }
        }
        match rx.recv_timeout(IDLE_TICK) {
            Ok(job) => break job,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return (Vec::new(), None),
        }
    };
    let mut batch = vec![first];
    // timing: batch-window control clock — it bounds how long the worker
    // waits for more jobs, so it runs unconditionally; the same stamp seeds
    // QueueWait/BatchWindow span attribution below when tracing is on.
    let t_first = Instant::now();
    let deadline = t_first + window;
    while batch.len() < batch_max.max(1) {
        // timing: remaining-window computation for the same control clock.
        let now = Instant::now();
        if now >= deadline {
            // Window closed: take only what is already queued.
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        } else {
            match rx.recv_timeout(deadline - now) {
                Ok(job) => batch.push(job),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }
    // Span attribution per job: queue wait is enqueue → the worker's first
    // recv (zero for jobs that arrived *during* the window), batch window is
    // the remainder until the batch sealed.
    let sealed = traced.then(Instant::now);
    if let Some(t_sealed) = sealed {
        for job in &mut batch {
            let picked_up = if job.enqueued > t_first {
                job.enqueued
            } else {
                t_first
            };
            job.trace.add(
                Stage::QueueWait,
                picked_up.saturating_duration_since(job.enqueued),
            );
            job.trace.add(
                Stage::BatchWindow,
                t_sealed.saturating_duration_since(picked_up),
            );
        }
    }
    (batch, sealed)
}

fn process_batch(
    batch: Vec<Job>,
    sealed: Option<Instant>,
    reader: &mut RegistryReader,
    cache: &EstimateCache,
    stats: &ServiceStats,
    obs: &Observer,
    cfg: &ServeConfig,
) {
    // Group by model name (almost always a single group), resolving each
    // name once per batch so every job in a group sees the same model Arc.
    let mut groups: Vec<(String, Vec<Job>)> = Vec::new();
    for job in batch {
        match groups.iter_mut().find(|(name, _)| *name == job.req.model) {
            Some((_, jobs)) => jobs.push(job),
            None => groups.push((job.req.model.clone(), vec![job])),
        }
    }
    for (name, jobs) in groups {
        match reader.get(&name) {
            Some(model) => serve_group(&model, jobs, sealed, cache, stats, obs, cfg),
            None => {
                for job in jobs {
                    stats.record_error();
                    stats.record_latency(job.enqueued.elapsed());
                    let _ = job.resp.send(Err(ServeError::UnknownModel(name.clone())));
                }
            }
        }
    }
}

struct Pending {
    job: Job,
    fp: u64,
    tau: usize,
    prepared: PreparedQuery,
    /// When this job's cache probe ended (traced runs only); the wait from
    /// here to the kernel launch is sibling/dedup time and is attributed to
    /// `Stage::BatchWindow` so traces stay gap-free.
    ready: Option<Instant>,
}

/// Serves one model's share of a batch. `sealed` is the batch's seal stamp
/// (traced runs only); every span below starts at the stamp that ended the
/// one before it, so a job's spans sum to its end-to-end time up to the
/// response itself.
fn serve_group(
    model: &ServeModel,
    jobs: Vec<Job>,
    sealed: Option<Instant>,
    cache: &EstimateCache,
    stats: &ServiceStats,
    obs: &Observer,
    cfg: &ServeConfig,
) {
    let estimator = &model.estimator;
    let epoch = model.epoch;
    let traced = obs.enabled();
    let mut pending: Vec<Pending> = Vec::with_capacity(jobs.len());

    // From the seal to a job's own prepare, the job waits on the batch: the
    // queue unlock, grouping, the registry read and, late in a large batch,
    // its siblings' prepare/probe work. That wait is attributed to
    // BatchWindow, so per-stage sums keep covering end-to-end latency as
    // batches grow.
    for mut job in jobs {
        // `prepare_shared` runs `h_rec` once and keeps the request's
        // `Arc<Record>` without copying the payload; the estimate depends on
        // θ only through τ = threshold_step(θ), so τ is the cache's θ-bucket.
        let t_prep = traced.then(Instant::now);
        if let (Some(t0), Some(t1)) = (sealed, t_prep) {
            // For jobs answered inside this loop (cache hits, sheds) this is
            // their whole sibling wait; pending jobs get the rest at the
            // kernel call below.
            job.trace
                .add(Stage::BatchWindow, t1.saturating_duration_since(t0));
        }
        let prepared = estimator.prepare_shared(&job.req.query);
        let fp = fingerprint(prepared.bits().expect("CardNet prepare extracts"));
        let tau = estimator.threshold_step(job.req.theta);
        // One stamp ends Prepare and starts CacheProbe, and the next ends
        // CacheProbe and starts the pending wait.
        let t_prepared = traced.then(Instant::now);
        if let (Some(t0), Some(t1)) = (t_prep, t_prepared) {
            job.trace
                .add(Stage::Prepare, t1.saturating_duration_since(t0));
        }
        // A job queued past its deadline is load-shed: a cache answer is
        // still free (exact hits below cost nothing), but it will not be
        // granted a model run.
        let expired = match job.deadline {
            // timing: admission-control check against the enqueue-relative
            // deadline, not a latency measurement.
            Some(deadline) => Instant::now() > deadline,
            None => false,
        };
        let lookup = cache.lookup(epoch, fp, tau);
        let t_probed = traced.then(Instant::now);
        if let (Some(t0), Some(t1)) = (t_prepared, t_probed) {
            job.trace
                .add(Stage::CacheProbe, t1.saturating_duration_since(t0));
        }
        match lookup {
            CacheLookup::Exact(value) => {
                stats.record_exact_hit();
                respond(job, value, epoch, EstimateSource::CacheExact, stats, obs);
            }
            CacheLookup::Bounds { lo, hi } if model.monotone => {
                // Two cached curve points bracket the miss; `Estimate` owns
                // the pin/tolerance math. A pinned bracket (`lo == hi`)
                // squeezes the true value exactly — monotone curves cannot
                // dip between equal endpoints — so the short-circuit stays
                // bit-identical even at tolerance 0, and the pinned value is
                // safe to cache as exact.
                let bracket = Estimate::from_bracket(lo, hi);
                if bracket.is_pinned() {
                    cache.insert(epoch, fp, tau, bracket.value);
                }
                if bracket.is_pinned() || bracket.within_tolerance(cfg.bound_tolerance) {
                    stats.record_bound_hit();
                    respond(
                        job,
                        bracket.value,
                        epoch,
                        EstimateSource::CacheBounds { lo, hi },
                        stats,
                        obs,
                    );
                } else if expired {
                    // The deadline passed while queued, but monotonicity
                    // still buys a degraded answer: the bracket's midpoint
                    // with honest `[lo, hi]` bounds, no model time spent.
                    stats.record_shed_bracket();
                    cardest_core::metrics::record_shed();
                    cardest_core::metrics::record_degraded_answer();
                    respond(
                        job,
                        bracket.value,
                        epoch,
                        EstimateSource::ShedBracket { lo, hi },
                        stats,
                        obs,
                    );
                } else {
                    pending.push(Pending {
                        ready: t_probed,
                        job,
                        fp,
                        tau,
                        prepared,
                    });
                }
            }
            _ if expired => {
                // Nothing cached to degrade onto: refuse rather than spend
                // model time past the caller's budget.
                stats.record_shed_reject();
                cardest_core::metrics::record_shed();
                stats.record_latency(job.enqueued.elapsed());
                let _ = job.resp.send(Err(ServeError::DeadlineExceeded));
            }
            _ => pending.push(Pending {
                ready: t_probed,
                job,
                fp,
                tau,
                prepared,
            }),
        }
    }

    if pending.is_empty() {
        return;
    }

    // Coalesce duplicates: a Zipf-hot query repeated within one micro-batch
    // gets one model row, not many. In curve mode one computed curve answers
    // *every* τ of a query, so rows dedup on the fingerprint alone — a
    // same-query θ-sweep landing in one batch costs one model run. (Like the
    // cache, this trusts the 64-bit fingerprint; a SipHash collision between
    // distinct live queries is vanishingly unlikely and would only alias two
    // cache entries.)
    let curve_mode = cfg.cache_curve_points > 0;
    let mut seen: std::collections::HashMap<(u64, usize), usize> = std::collections::HashMap::new();
    let mut unique: Vec<usize> = Vec::new(); // pending indices, one per row
    let mut row_of: Vec<usize> = Vec::with_capacity(pending.len());
    for (i, p) in pending.iter().enumerate() {
        let key = (p.fp, if curve_mode { 0 } else { p.tau });
        let row = *seen.entry(key).or_insert_with(|| {
            unique.push(i);
            unique.len() - 1
        });
        row_of.push(row);
    }

    let batch_size = unique.len();
    enum RowResult {
        Scalar(f64),
        Curve(cardest_core::CardinalityCurve),
    }
    // Model span: the whole batched kernel call's wall clock, attributed to
    // every job it answered (the batch is the unit of compute — each job's
    // latency really did include the full call). The encoder/decoder
    // sub-spans come from this thread's `ApiCounters` timing delta: the
    // model times its whole stacked encoder call and its decoder sweep on
    // the calling thread, where every kernel runs.
    let meter_before = traced.then(cardest_core::metrics::ApiCounters::snapshot);
    let t_model = traced.then(Instant::now);
    if let Some(tm) = t_model {
        for p in &mut pending {
            if let Some(ready) = p.ready {
                // Remaining siblings' prepare/probe plus coalescing between
                // this job going pending and the kernel launch.
                p.job
                    .trace
                    .add(Stage::BatchWindow, tm.saturating_duration_since(ready));
            }
        }
    }
    let rows: Vec<RowResult> = if curve_mode {
        // Curve path: the batched curve kernel (one encoder pass for the
        // whole micro-batch — every decoder column comes out of it anyway)
        // yields each unique query's full curve; seed the cache with evenly
        // spaced curve points so future misses at other τ values answer
        // from curve-derived brackets or exact hits.
        let refs: Vec<&PreparedQuery> = unique.iter().map(|&i| &pending[i].prepared).collect();
        estimator
            .curve_batch_par(&refs, cfg.kernel_parallelism())
            .into_iter()
            .zip(&unique)
            .map(|(curve, &i)| {
                seed_curve_points(cache, epoch, pending[i].fp, &curve, cfg.cache_curve_points);
                RowResult::Curve(curve)
            })
            .collect()
    } else {
        // Batch-first path: the estimator's own batched kernel runs the
        // encoder once for the whole micro-batch. Per-row arithmetic mirrors
        // the scalar path exactly (the API's bit-identity contract), which
        // is what makes the cache sound — a cached value *is* the value.
        let refs: Vec<&PreparedQuery> = unique.iter().map(|&i| &pending[i].prepared).collect();
        let thetas: Vec<f64> = unique.iter().map(|&i| pending[i].job.req.theta).collect();
        estimator
            .estimate_batch_par(&refs, &thetas, cfg.kernel_parallelism())
            .into_iter()
            .map(|e| RowResult::Scalar(e.value))
            .collect()
    };
    // The model's end stamp also starts each job's wait for distribution.
    let t_distribute = traced.then(Instant::now);
    let (model_ns, enc_ns, dec_ns) = match (t_model, t_distribute, &meter_before) {
        (Some(t0), Some(t1), Some(before)) => {
            let delta = cardest_core::metrics::ApiCounters::snapshot().delta_since(before);
            (
                t1.saturating_duration_since(t0)
                    .as_nanos()
                    .min(u64::MAX as u128) as u64,
                delta.encoder_ns,
                delta.decoder_ns,
            )
        }
        _ => (0, 0, 0),
    };
    stats.record_batch(batch_size);
    for ((i, mut p), row) in pending.into_iter().enumerate().zip(row_of) {
        let estimate = match &rows[row] {
            RowResult::Scalar(v) => *v,
            // Exact curve value at this request's own τ, whichever row
            // computed the curve.
            RowResult::Curve(curve) => curve.value_at(p.tau),
        };
        let source = if unique[row] == i {
            cache.insert(epoch, p.fp, p.tau, estimate);
            EstimateSource::Computed { batch_size }
        } else {
            if curve_mode {
                // A coalesced τ still gets its exact entry: the value came
                // from the same curve at zero extra model cost.
                cache.insert(epoch, p.fp, p.tau, estimate);
            }
            stats.record_coalesced();
            EstimateSource::Coalesced
        };
        if traced {
            p.job.trace.add_ns(Stage::Model, model_ns);
            p.job.trace.add_ns(Stage::EncoderPass, enc_ns);
            p.job.trace.add_ns(Stage::DecoderSweep, dec_ns);
            if let Some(t) = t_distribute {
                // Earlier siblings' cache insert + respond work is serialized
                // ahead of this job; count that wait against the batch.
                p.job.trace.add(Stage::BatchWindow, t.elapsed());
            }
        }
        respond(p.job, estimate, epoch, source, stats, obs);
    }
}

/// Inserts `points` evenly spaced values of a freshly computed curve (always
/// including the final step) under their τ keys — the curve-derived entries
/// later requests bracket against.
fn seed_curve_points(
    cache: &EstimateCache,
    epoch: u64,
    fp: u64,
    curve: &cardest_core::CardinalityCurve,
    points: usize,
) {
    let last = curve.len() - 1;
    let points = points.clamp(1, curve.len());
    for j in 0..points {
        let step = if points == 1 {
            last
        } else {
            j * last / (points - 1)
        };
        cache.insert(epoch, fp, step, curve.value_at(step));
    }
}

/// The [`Trace::source`] code for an answer: the wire `WireSource`
/// discriminant, so socket clients and trace readers decode sources the
/// same way.
fn source_code(source: &EstimateSource) -> u8 {
    match source {
        EstimateSource::Computed { .. } => 0,
        EstimateSource::Coalesced => 1,
        EstimateSource::CacheExact => 2,
        EstimateSource::CacheBounds { .. } => 3,
        EstimateSource::ShedBracket { .. } => 4,
    }
}

fn respond(
    job: Job,
    estimate: f64,
    epoch: u64,
    source: EstimateSource,
    stats: &ServiceStats,
    obs: &Observer,
) {
    let total = job.enqueued.elapsed();
    stats.record_latency(total);
    if obs.enabled() {
        // A trace seeded by the ingress layer carries spans measured before
        // the job was enqueued; fold them into the end-to-end total so
        // stage coverage is measured against the full wire path.
        let pre_queue_ns = job.trace.get_ns(Stage::Decode) + job.trace.get_ns(Stage::Admission);
        obs.finish_trace(
            &job.trace,
            total + Duration::from_nanos(pre_queue_ns),
            epoch,
            source_code(&source),
        );
    }
    let _ = job.resp.send(Ok(Response {
        estimate,
        epoch,
        source,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_setup;
    use cardest_core::CardinalityEstimator;

    fn unbatched_config() -> ServeConfig {
        ServeConfig {
            workers: 1,
            batch_max: 1,
            batch_window: Duration::ZERO,
            cache_capacity: 0,
            bound_tolerance: 0.0,
            cache_curve_points: 0,
            kernel_backend: None,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn served_estimates_are_bit_identical_to_direct_calls() {
        let (ds, est) = tiny_setup(21);
        let registry = Arc::new(ModelRegistry::new());
        // Reference values from the plain single-thread path, before the
        // estimator moves into the registry.
        let queries: Vec<(Arc<Record>, f64)> = (0..20)
            .map(|i| {
                let q = Arc::new(ds.records[i * 5].clone());
                let theta = ds.theta_max * (i as f64) / 19.0;
                (q, theta)
            })
            .collect();
        let reference: Vec<f64> = queries
            .iter()
            .map(|(q, theta)| est.estimate(q, *theta))
            .collect();
        registry.publish("m", est);

        let service = Service::start(registry, ServeConfig::default());
        for ((q, theta), want) in queries.iter().zip(&reference) {
            let got = service
                .estimate("m", Arc::clone(q), *theta)
                .expect("served")
                .estimate;
            assert_eq!(got.to_bits(), want.to_bits(), "θ={theta}");
        }
        service.shutdown();
    }

    #[test]
    fn repeat_queries_hit_the_cache_exactly() {
        let (ds, est) = tiny_setup(22);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", est);
        let service = Service::start(registry, ServeConfig::default());
        let q = Arc::new(ds.records[3].clone());
        let first = service.estimate("m", Arc::clone(&q), 6.0).expect("first");
        assert!(matches!(first.source, EstimateSource::Computed { .. }));
        let second = service.estimate("m", Arc::clone(&q), 6.0).expect("second");
        assert_eq!(second.source, EstimateSource::CacheExact);
        assert_eq!(second.estimate.to_bits(), first.estimate.to_bits());
        // A different θ in the same τ-bucket also hits.
        let snap = service.stats();
        assert!(snap.exact_hits >= 1);
        service.shutdown();
    }

    #[test]
    fn loose_bracket_computes_tight_bracket_short_circuits() {
        const TOLERANCE: f64 = 0.10;
        let (ds, est) = tiny_setup(23);
        let fx_tau_max = est.extractor().tau_max();
        let theta_of = {
            let theta_max = ds.theta_max;
            move |tau: usize| theta_max * (tau as f64 + 0.5) / (fx_tau_max as f64)
        };
        let q = Arc::new(ds.records[5].clone());
        // Direct-path values, before the estimator moves into the registry.
        let direct: Vec<f64> = (0..fx_tau_max)
            .map(|tau| est.estimate(&q, theta_of(tau)))
            .collect();
        let loose =
            |lo: usize, hi: usize| direct[hi] - direct[lo] > TOLERANCE * direct[hi].max(1.0);
        assert!(
            loose(4, 6) && !loose(1, 3) && direct[1] < direct[3],
            "this query's curve no longer has the brackets the test needs: {direct:?}"
        );
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", est);
        let ask = |service: &Service, tau: usize| {
            service
                .estimate("m", Arc::clone(&q), theta_of(tau))
                .expect("served")
        };

        let service = Service::start(
            Arc::clone(&registry),
            ServeConfig {
                bound_tolerance: TOLERANCE,
                ..ServeConfig::default()
            },
        );
        for tau in [1, 3, 4, 6] {
            assert_eq!(ask(&service, tau).estimate.to_bits(), direct[tau].to_bits());
        }
        // [ĉ(4), ĉ(6)] is wider than the tolerance: the model computes τ=5.
        let wide = ask(&service, 5);
        assert!(
            matches!(wide.source, EstimateSource::Computed { .. }),
            "a loose bracket must not answer, got {:?}",
            wide.source
        );
        assert_eq!(wide.estimate.to_bits(), direct[5].to_bits());
        // [ĉ(1), ĉ(3)] is inside it: τ=2 answers from the bracket, within the
        // tolerance of the direct estimate.
        let tight = ask(&service, 2);
        match tight.source {
            EstimateSource::CacheBounds { lo, hi } => {
                assert_eq!(lo.to_bits(), direct[1].to_bits());
                assert_eq!(hi.to_bits(), direct[3].to_bits());
            }
            other => panic!("expected a bounds answer, got {other:?}"),
        }
        assert!(
            (tight.estimate - direct[2]).abs() <= TOLERANCE * direct[2].max(1.0),
            "bracket answer {} strays from the direct estimate {}",
            tight.estimate,
            direct[2]
        );
        assert_eq!(service.stats().bound_hits, 1);
        service.shutdown();

        // At infinite tolerance any bracket answers, even the wide one.
        let service = Service::start(
            registry,
            ServeConfig {
                bound_tolerance: f64::INFINITY,
                ..ServeConfig::default()
            },
        );
        let lo = ask(&service, 1);
        let hi = ask(&service, 6);
        let mid = ask(&service, 3);
        match mid.source {
            EstimateSource::CacheBounds { lo: l, hi: h } => {
                assert_eq!(l.to_bits(), lo.estimate.to_bits());
                assert_eq!(h.to_bits(), hi.estimate.to_bits());
                assert!(l <= mid.estimate && mid.estimate <= h);
            }
            other => panic!("expected a bounds answer, got {other:?}"),
        }
        assert_eq!(service.stats().bound_hits, 1);
        service.shutdown();
    }

    #[test]
    fn curve_seeding_turns_a_sweep_into_cache_hits() {
        let (ds, est) = tiny_setup(28);
        let tau_max = est.extractor().tau_max();
        // Reference sweep values before the estimator moves into the
        // registry: the served answers must stay bit-identical no matter
        // how the cache produced them.
        let q = Arc::new(ds.records[5].clone());
        let theta_of = |tau: usize| ds.theta_max * (tau as f64 + 0.5) / (tau_max as f64);
        let reference: Vec<f64> = (0..tau_max)
            .map(|t| est.estimate(&q, theta_of(t)))
            .collect();

        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", est);
        let service = Service::start(
            registry,
            ServeConfig {
                workers: 1,
                batch_max: 1,
                batch_window: Duration::ZERO,
                cache_capacity: 4096,
                bound_tolerance: 0.0,
                // Seed every curve point: the first request computes once,
                // the rest of the sweep is exact hits.
                cache_curve_points: tau_max + 1,
                kernel_backend: None,
                ..ServeConfig::default()
            },
        );
        let first = service
            .estimate("m", Arc::clone(&q), theta_of(0))
            .expect("served");
        assert!(matches!(first.source, EstimateSource::Computed { .. }));
        assert_eq!(first.estimate.to_bits(), reference[0].to_bits());
        for (t, want) in reference.iter().enumerate().skip(1) {
            let resp = service
                .estimate("m", Arc::clone(&q), theta_of(t))
                .expect("served");
            assert_eq!(
                resp.source,
                EstimateSource::CacheExact,
                "τ={t} should be a curve-seeded hit"
            );
            assert_eq!(resp.estimate.to_bits(), want.to_bits(), "τ={t}");
        }
        let snap = service.stats();
        assert_eq!(snap.batches, 1, "one model run for the whole sweep");
        assert!(snap.exact_hits >= (tau_max - 1) as u64);
        service.shutdown();
    }

    #[test]
    fn curve_mode_coalesces_a_pipelined_sweep_into_one_model_run() {
        let (ds, est) = tiny_setup(29);
        let tau_max = est.extractor().tau_max();
        let q = Arc::new(ds.records[4].clone());
        let theta_of = |t: usize| ds.theta_max * (t as f64 + 0.5) / (tau_max as f64);
        let reference: Vec<f64> = (0..tau_max)
            .map(|t| est.estimate(&q, theta_of(t)))
            .collect();

        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", est);
        let service = Service::start(
            registry,
            ServeConfig {
                workers: 1,
                batch_max: 64,
                batch_window: Duration::from_millis(200),
                cache_capacity: 4096,
                bound_tolerance: 0.0,
                cache_curve_points: 2,
                kernel_backend: None,
                ..ServeConfig::default()
            },
        );
        // A whole θ-sweep of one query submitted before draining: every τ is
        // distinct, but one curve answers them all — expect exactly one
        // model row and τ_max − 1 coalesced responses.
        let receivers: Vec<_> = (0..tau_max)
            .map(|t| {
                service.submit(Request {
                    model: "m".into(),
                    query: Arc::clone(&q),
                    theta: theta_of(t),
                })
            })
            .collect();
        let responses: Vec<Response> = receivers
            .into_iter()
            .map(|rx| rx.recv().expect("worker alive").expect("served"))
            .collect();
        for (t, (resp, want)) in responses.iter().zip(&reference).enumerate() {
            assert_eq!(resp.estimate.to_bits(), want.to_bits(), "τ={t}");
        }
        let computed = responses
            .iter()
            .filter(|r| matches!(r.source, EstimateSource::Computed { .. }))
            .count();
        let coalesced = responses
            .iter()
            .filter(|r| r.source == EstimateSource::Coalesced)
            .count();
        assert_eq!((computed, coalesced), (1, tau_max - 1));
        let snap = service.stats();
        assert_eq!(snap.batches, 1);
        assert!(
            (snap.mean_batch_size() - 1.0).abs() < 1e-9,
            "one unique curve row"
        );
        service.shutdown();
    }

    #[test]
    fn expired_deadline_with_warm_bracket_sheds_a_degraded_answer() {
        let (ds, est) = tiny_setup(31);
        let fx_tau_max = est.extractor().tau_max();
        let theta_of = {
            let theta_max = ds.theta_max;
            move |tau: usize| theta_max * (tau as f64 + 0.5) / (fx_tau_max as f64)
        };
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", est);
        let service = Service::start(registry, ServeConfig::default());
        let q = Arc::new(ds.records[9].clone());
        // Warm the cache on either side of the τ we will shed at.
        let lo = service.estimate("m", Arc::clone(&q), theta_of(1)).unwrap();
        let hi = service.estimate("m", Arc::clone(&q), theta_of(6)).unwrap();
        // An already-expired deadline: the worker must not spend model time.
        let resp = service
            .client()
            .submit_with_deadline(
                Request {
                    model: "m".into(),
                    query: Arc::clone(&q),
                    theta: theta_of(3),
                },
                Some(Duration::ZERO),
            )
            .recv()
            .expect("service alive")
            .expect("degraded answer");
        match resp.source {
            EstimateSource::ShedBracket { lo: l, hi: h } => {
                assert_eq!(l.to_bits(), lo.estimate.to_bits());
                assert_eq!(h.to_bits(), hi.estimate.to_bits());
                assert!(l <= resp.estimate && resp.estimate <= h);
                assert!(resp.source.is_degraded());
            }
            other => panic!("expected a shed-bracket answer, got {other:?}"),
        }
        let snap = service.stats();
        assert_eq!(snap.shed_bracket, 1);
        assert_eq!(snap.shed_rejected, 0);
        service.shutdown();
    }

    #[test]
    fn expired_deadline_with_cold_cache_is_refused() {
        let (ds, est) = tiny_setup(32);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", est);
        let service = Service::start(registry, ServeConfig::default());
        let q = Arc::new(ds.records[11].clone());
        let err = service
            .client()
            .submit_with_deadline(
                Request {
                    model: "m".into(),
                    query: Arc::clone(&q),
                    theta: 5.0,
                },
                Some(Duration::ZERO),
            )
            .recv()
            .expect("service alive")
            .expect_err("nothing cached to degrade onto");
        assert_eq!(err, ServeError::DeadlineExceeded);
        let snap = service.stats();
        assert_eq!(snap.shed_rejected, 1);
        assert_eq!(snap.shed_bracket, 0);
        // A generous deadline is never shed.
        let ok = service
            .client()
            .submit_with_deadline(
                Request {
                    model: "m".into(),
                    query: q,
                    theta: 5.0,
                },
                Some(Duration::from_secs(30)),
            )
            .recv()
            .expect("service alive")
            .expect("served");
        assert!(matches!(ok.source, EstimateSource::Computed { .. }));
        service.shutdown();
    }

    #[test]
    fn shed_answer_prefers_exact_hits_and_falls_back_to_brackets() {
        let (ds, est) = tiny_setup(33);
        let fx_tau_max = est.extractor().tau_max();
        let theta_of = {
            let theta_max = ds.theta_max;
            move |tau: usize| theta_max * (tau as f64 + 0.5) / (fx_tau_max as f64)
        };
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", est);
        let service = Service::start(registry, ServeConfig::default());
        let q = Arc::new(ds.records[5].clone());
        let lo = service.estimate("m", Arc::clone(&q), theta_of(2)).unwrap();
        let hi = service.estimate("m", Arc::clone(&q), theta_of(7)).unwrap();

        // Exact τ: full-fidelity cache answer even under saturation.
        let exact = service
            .shed_answer("m", &q, theta_of(2))
            .expect("model known")
            .expect("cached");
        assert_eq!(exact.source, EstimateSource::CacheExact);
        assert_eq!(exact.estimate.to_bits(), lo.estimate.to_bits());

        // Bracketed τ: degraded monotone-bounds answer.
        let shed = service
            .shed_answer("m", &q, theta_of(4))
            .expect("model known")
            .expect("bracketed");
        match shed.source {
            EstimateSource::ShedBracket { lo: l, hi: h } => {
                assert_eq!(l.to_bits(), lo.estimate.to_bits());
                assert_eq!(h.to_bits(), hi.estimate.to_bits());
            }
            other => panic!("expected shed bracket, got {other:?}"),
        }

        // A query the cache has never seen: nothing to shed onto.
        let cold = Arc::new(ds.records[50].clone());
        assert!(service
            .shed_answer("m", &cold, theta_of(4))
            .expect("model known")
            .is_none());
        assert!(matches!(
            service.shed_answer("ghost", &q, 1.0),
            Err(ServeError::UnknownModel(_))
        ));
        service.shutdown();
    }

    #[test]
    fn unknown_model_is_an_error_not_a_hang() {
        let (_, est) = tiny_setup(24);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("real", est);
        let service = Service::start(registry, unbatched_config());
        let q = Arc::new(Record::Bits(BitVec::zeros(4)));
        let err = service.estimate("ghost", q, 1.0).expect_err("must fail");
        assert_eq!(err, ServeError::UnknownModel("ghost".into()));
        assert_eq!(service.stats().errors, 1);
        service.shutdown();
    }

    #[test]
    fn pipelined_submissions_form_micro_batches() {
        let (ds, est) = tiny_setup(25);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", est);
        let service = Service::start(
            registry,
            ServeConfig {
                workers: 1,
                batch_max: 64,
                batch_window: Duration::from_millis(200),
                cache_capacity: 0,
                bound_tolerance: 0.0,
                cache_curve_points: 0,
                kernel_backend: None,
                ..ServeConfig::default()
            },
        );
        // 16 distinct queries submitted before any response is drained: the
        // lone worker's first recv starts the window and the rest arrive
        // well within it, forming a single micro-batch.
        let receivers: Vec<_> = (0..16)
            .map(|i| {
                service.submit(Request {
                    model: "m".into(),
                    query: Arc::new(ds.records[i].clone()),
                    theta: 5.0,
                })
            })
            .collect();
        for rx in receivers {
            let resp = rx.recv().expect("worker alive").expect("served");
            match resp.source {
                EstimateSource::Computed { batch_size } => assert!(batch_size > 1),
                other => panic!("cache disabled, expected computed: {other:?}"),
            }
        }
        let snap = service.stats();
        assert_eq!(snap.batches, 1, "expected one micro-batch");
        assert!((snap.mean_batch_size() - 16.0).abs() < 1e-9);
        service.shutdown();
    }

    #[test]
    fn duplicate_requests_in_one_batch_coalesce() {
        let (ds, est) = tiny_setup(27);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", est);
        let service = Service::start(
            registry,
            ServeConfig {
                workers: 1,
                batch_max: 64,
                batch_window: Duration::from_millis(200),
                cache_capacity: 0, // coalescing is intra-batch, not the cache
                bound_tolerance: 0.0,
                cache_curve_points: 0,
                kernel_backend: None,
                ..ServeConfig::default()
            },
        );
        let q = Arc::new(ds.records[2].clone());
        let receivers: Vec<_> = (0..8)
            .map(|_| {
                service.submit(Request {
                    model: "m".into(),
                    query: Arc::clone(&q),
                    theta: 5.0,
                })
            })
            .collect();
        let responses: Vec<Response> = receivers
            .into_iter()
            .map(|rx| rx.recv().expect("worker alive").expect("served"))
            .collect();
        let computed = responses
            .iter()
            .filter(|r| matches!(r.source, EstimateSource::Computed { .. }))
            .count();
        let coalesced = responses
            .iter()
            .filter(|r| r.source == EstimateSource::Coalesced)
            .count();
        assert_eq!((computed, coalesced), (1, 7));
        let first = responses[0].estimate.to_bits();
        assert!(responses.iter().all(|r| r.estimate.to_bits() == first));
        let snap = service.stats();
        assert_eq!(snap.batches, 1);
        assert!(
            (snap.mean_batch_size() - 1.0).abs() < 1e-9,
            "one unique row"
        );
        assert_eq!(snap.coalesced, 7);
        service.shutdown();
    }

    #[test]
    fn shutdown_then_estimate_reports_stopped() {
        let (ds, est) = tiny_setup(26);
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("m", est);
        let service = Service::start(Arc::clone(&registry), unbatched_config());
        let client = service.client();
        let q = Arc::new(ds.records[0].clone());
        assert!(client.estimate("m", Arc::clone(&q), 2.0).is_ok());
        service.shutdown();
        assert_eq!(
            client.estimate("m", q, 2.0).expect_err("stopped"),
            ServeError::ServiceStopped
        );
    }
}
