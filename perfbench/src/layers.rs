//! Per-layer probes for the traced run: timed calls into each crate's
//! public functions, on the workload's own model, keys and serve settings.
//!
//! Each probe repeats a call in chunks and reports the median chunk, so one
//! slow stretch of the host does not set the figure. Figures that are
//! compared with each other are timed in turn, chunk by chunk, so the
//! host's speed drifts affect them alike.

use crate::stats::{median, percentile, Summary, Windows};
use crate::system::{net_config, request_frame, serve_config, Inputs, System, MODEL};
use crate::workloads::{connect, is_failure, Gen, ReplyLedger};
use cardest_core::estimator::CardinalityEstimator;
use cardest_core::{CardNetEstimator, Snapshot};
use cardest_data::Record;
use cardest_fx::build_extractor;
use cardest_nn::Matrix;
use cardest_serve::wire::decode_payload;
use cardest_serve::{
    CacheLookup, EstimateCache, EstimateSource, Frame, NetServer, Request, ResponseFrame, Service,
    StatsSnapshot, WireSource,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A timed call: chunk length, and the call, given a running index.
type Call<'a> = (usize, &'a mut dyn FnMut(usize));

/// Times `calls` in turn, one chunk of each per round, for about `budget`;
/// returns each call's median per-call time in ns.
fn per_call_ns_each(budget: Duration, calls: &mut [Call]) -> Vec<f64> {
    let mut chunks = vec![Vec::new(); calls.len()];
    let start = Instant::now();
    let mut round = 0usize;
    while round < 5 || (start.elapsed() < budget && round < 10_000) {
        for ((chunk, f), times) in calls.iter_mut().zip(&mut chunks) {
            let t = Instant::now();
            for j in 0..*chunk {
                f(round * *chunk + j);
            }
            times.push(t.elapsed().as_nanos() as f64 / *chunk as f64);
        }
        round += 1;
    }
    chunks.iter().map(|c| median(c)).collect()
}

/// [`per_call_ns_each`] for one call.
fn per_call_ns(chunk: usize, budget: Duration, mut f: impl FnMut(usize)) -> f64 {
    per_call_ns_each(budget, &mut [(chunk, &mut f)])[0]
}

const BUDGET: Duration = Duration::from_millis(250);

/// The terms of `core.estimator.unexplained_frac`, in µs per query.
pub struct EstimatorTerms {
    /// fx: `extract` per record.
    pub fx_us: f64,
    /// core::model: `encode_all` for one query.
    pub encode_us: f64,
    /// core::model: `decode_prefix` over all `n_out` steps, the decoding
    /// `estimate_batch` does per query.
    pub decode_us: f64,
    /// core::estimator: `prepare` (which extracts) + `estimate_batch` (which
    /// encodes and decodes) for one query, the call pair of
    /// `estimate_inproc`.
    pub estimate_b1_us: f64,
}

impl EstimatorTerms {
    /// Times the four terms in turn over the workload's keys.
    pub fn measure(est: &CardNetEstimator, inp: &Inputs) -> EstimatorTerms {
        let fx = est.extractor();
        let (model, store, par) = (est.model(), est.store(), est.parallelism());
        let rows: Vec<Matrix> = (0..64)
            .map(|i| {
                let (idx, _) = inp.key(i);
                Matrix::from_vec(1, fx.dim(), fx.extract(&inp.ds.records[idx]).to_f32())
            })
            .collect();
        let z: Vec<Matrix> = rows
            .iter()
            .map(|x| model.encode_all_with(store, x, par))
            .collect();
        let last = model.config.n_out - 1;
        let mut extract = |i: usize| {
            let (idx, _) = inp.key(i);
            black_box(fx.extract(black_box(&inp.ds.records[idx])));
        };
        let mut encode = |i: usize| {
            black_box(model.encode_all_with(store, black_box(&rows[i % rows.len()]), par));
        };
        let mut decode = |i: usize| {
            black_box(model.decode_prefix(store, black_box(&z[i % z.len()]), last));
        };
        let mut estimate = |i: usize| {
            let (idx, theta) = inp.key(i);
            let p = est.prepare(&inp.ds.records[idx]);
            black_box(est.estimate_batch(&[&p], &[theta]));
        };
        let ns = per_call_ns_each(
            4 * BUDGET,
            &mut [
                (256, &mut extract),
                (4, &mut encode),
                (64, &mut decode),
                (4, &mut estimate),
            ],
        );
        EstimatorTerms {
            fx_us: ns[0] / 1e3,
            encode_us: ns[1] / 1e3,
            decode_us: ns[2] / 1e3,
            estimate_b1_us: ns[3] / 1e3,
        }
    }

    pub fn unexplained_frac(&self) -> f64 {
        1.0 - (self.fx_us + self.encode_us + self.decode_us) / self.estimate_b1_us
    }
}

/// nn: matmul throughput on Φ's layer shapes at `rows` input rows (GFLOP/s).
pub fn matmul_gflops(est: &CardNetEstimator, rows: usize) -> f64 {
    let c = &est.model().config;
    let x_dim = c.input_dim
        + if c.vae_hidden.is_empty() {
            0
        } else {
            c.vae_latent
        };
    let mut dims = vec![x_dim + c.e_dim];
    dims.extend(&c.phi_hidden);
    dims.push(c.z_dim);
    let fill = |r: usize, k: usize| {
        Matrix::from_vec(
            r,
            k,
            (0..r * k)
                .map(|v| ((v * 7919) % 97) as f32 / 97.0)
                .collect(),
        )
    };
    let layers: Vec<(Matrix, Matrix)> = dims
        .windows(2)
        .map(|d| (fill(rows, d[0]), fill(d[0], d[1])))
        .collect();
    let flops: usize = dims.windows(2).map(|d| 2 * rows * d[0] * d[1]).sum();
    let par = est.parallelism();
    let ns = per_call_ns(16, BUDGET, |_| {
        for (a, b) in &layers {
            black_box(black_box(a).matmul_with(black_box(b), par));
        }
    });
    flops as f64 / ns
}

/// core::estimator: `prepare` + `estimate_batch` per query (µs) at batch
/// size `b`, the call pair the workloads make.
pub fn estimate_us(est: &CardNetEstimator, inp: &Inputs, b: usize) -> f64 {
    let n_chunks = 256 / b;
    per_call_ns(1, BUDGET, |i| {
        let c = i % n_chunks;
        let keys: Vec<(usize, f64)> = (c * b..(c + 1) * b).map(|k| inp.key(k)).collect();
        let prepared: Vec<_> = keys
            .iter()
            .map(|&(idx, _)| est.prepare(&inp.ds.records[idx]))
            .collect();
        let ps: Vec<_> = prepared.iter().collect();
        let thetas: Vec<f64> = keys.iter().map(|&(_, theta)| theta).collect();
        black_box(est.estimate_batch(&ps, &thetas));
    }) / 1e3
        / b as f64
}

/// serve::cache: lookup (and insert on miss) per request, replaying the
/// workload's keys through a standalone cache of the workload's capacity.
pub fn cache_lookup_ns(est: &CardNetEstimator, inp: &Inputs, capacity: usize) -> f64 {
    let cache = EstimateCache::new(capacity);
    let steps: Vec<usize> = inp.grid.iter().map(|&t| est.threshold_step(t)).collect();
    per_call_ns(1024, BUDGET, |i| {
        let (r, t) = inp.keys[i % inp.keys.len()];
        let fp = u64::from(r).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xCA5E;
        let tau = steps[t as usize];
        if let CacheLookup::Miss = cache.lookup(1, fp, tau) {
            cache.insert(1, fp, tau, f64::from(r));
        }
    })
}

/// serve::wire: encode and decode per frame (ns), over the workload's
/// requests and matching responses.
pub fn wire_ns(inp: &Inputs) -> (f64, f64) {
    let frames: Vec<Frame> = (0..512)
        .flat_map(|i| {
            let (idx, theta) = inp.key(i);
            [
                request_frame(i as u64, &inp.ds.records[idx], theta),
                Frame::Response(ResponseFrame {
                    request_id: i as u64,
                    epoch: 1,
                    estimate: theta * 3.0,
                    lo: theta * 3.0,
                    hi: theta * 3.0,
                    source: WireSource::Computed,
                    batch: 1,
                    degraded: false,
                }),
            ]
        })
        .collect();
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let enc = per_call_ns(256, BUDGET, |i| {
        black_box(black_box(&frames[i % frames.len()]).encode());
    });
    let dec = per_call_ns(256, BUDGET, |i| {
        let bytes = &encoded[i % encoded.len()];
        black_box(decode_payload(black_box(&bytes[4..])).expect("round trip"));
    });
    (enc, dec)
}

/// Cache, batching and coalescing figures of a service between two of its
/// stats snapshots.
pub struct ServeRatios {
    pub hit_ratio: f64,
    pub batch_rows_mean: f64,
    pub coalesced_ratio: f64,
}

impl ServeRatios {
    pub fn between(before: &StatsSnapshot, after: &StatsSnapshot) -> ServeRatios {
        let requests = (after.requests - before.requests).max(1) as f64;
        let hits = after.exact_hits + after.bound_hits - before.exact_hits - before.bound_hits;
        ServeRatios {
            hit_ratio: hits as f64 / requests,
            batch_rows_mean: (after.batch_size_sum - before.batch_size_sum) as f64
                / (after.batches - before.batches).max(1) as f64,
            coalesced_ratio: (after.coalesced - before.coalesced) as f64 / requests,
        }
    }
}

/// What the serve probe measured.
pub struct ServeProbe {
    pub socket: OpenLoop,
    pub inproc: OpenLoop,
    pub rtt_p50_us: f64,
    /// Over the socket open loop, from a cold cache.
    pub ratios: ServeRatios,
    pub post_swap_hit_ratio: f64,
    pub late_p99_us: f64,
    pub failed: u64,
    pub attempted: u64,
}

/// The workload's keys through a fresh service and socket on the
/// workload's settings: an open loop over the socket at the offered rate,
/// then a publish (new epoch, so the cache starts cold again), the same
/// open loop in-process, then reads with one request in flight.
pub fn serve_probe(
    sys: &System,
    inp: &Inputs,
    serve: &crate::config::ServeCfg,
    secs: f64,
    width: Duration,
    gen: &mut Gen,
) -> ServeProbe {
    let svc = Service::start(Arc::clone(&sys.registry), serve_config(serve));
    let records: Vec<Arc<Record>> = inp.ds.records.iter().cloned().map(Arc::new).collect();
    let server = NetServer::bind("127.0.0.1:0", svc, records.clone(), net_config(serve))
        .expect("bind a loopback port");
    let svc = server.service();
    let post_swap = 1000;

    let before = svc.stats();
    let socket = open_loop(server.addr(), inp, serve.offered_qps, secs, width, gen);
    let ratios = ServeRatios::between(&before, &svc.stats());

    // Re-publish the live model: a new epoch invalidates every cache entry.
    let live = sys.live();
    let snap = Snapshot::from_trainer(
        &sys.learner.trainer,
        live.estimator.extractor().name(),
        sys.tau_max,
    );
    sys.registry
        .publish_snapshot(
            MODEL,
            snap,
            build_extractor(&inp.ds, sys.tau_max, sys.extractor_seed),
        )
        .expect("re-published snapshot matches its extractor");
    let (inproc, post_swap_hit_ratio) = open_loop_inproc(
        svc,
        &records,
        inp,
        serve.offered_qps,
        secs,
        width,
        post_swap,
        gen,
    );

    let mut rtt = Vec::new();
    let mut rtt_failed = 0u64;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(secs / 2.0) {
        let (idx, theta) = inp.key(rtt.len());
        let t = Instant::now();
        let r = service_read(svc, &records[idx], theta);
        rtt.push(t.elapsed().as_nanos() as u64);
        rtt_failed += u64::from(r.is_err());
    }
    rtt.sort_unstable();
    let mut late = socket.late_ns.clone();
    late.sort_unstable();
    let failed = socket.failed + inproc.failed + rtt_failed;
    let attempted = socket.attempted + inproc.attempted + rtt.len() as u64;
    let probe = ServeProbe {
        rtt_p50_us: percentile(&rtt, 0.5) as f64 / 1e3,
        ratios,
        post_swap_hit_ratio,
        late_p99_us: percentile(&late, 0.99) as f64 / 1e3,
        socket,
        inproc,
        failed,
        attempted,
    };
    server.shutdown();
    probe
}

// ── open-loop generators of the serve probe ─────────────────────────────

/// One synchronous in-process read. Checks that the reply channel carries
/// exactly one reply. Returns `(epoch, estimate bits, cache hit)`.
pub fn service_read(
    svc: &Service,
    rec: &Arc<Record>,
    theta: f64,
) -> Result<(u64, u64, bool), String> {
    let rx = svc.submit(Request {
        model: MODEL.to_string(),
        query: Arc::clone(rec),
        theta,
    });
    let r = rx.recv().map_err(|_| "no reply".to_string())?;
    if rx.recv().is_ok() {
        return Err("second reply".into());
    }
    let r = r.map_err(|e| e.to_string())?;
    if r.source.is_degraded() {
        return Err("degraded answer".into());
    }
    let hit = matches!(
        r.source,
        EstimateSource::CacheExact | EstimateSource::CacheBounds { .. }
    );
    Ok((r.epoch, r.estimate.to_bits(), hit))
}

/// Result of an open-loop run over one connection.
pub struct OpenLoop {
    pub summary: Summary,
    pub attempted: u64,
    pub failed: u64,
    /// How late the sender ran behind each request's due time (ns).
    pub late_ns: Vec<u64>,
}

/// Poisson arrival offsets at `rate` for `secs`.
fn poisson_schedule(rate: f64, secs: f64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        t += -u.ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Calls `send(i)` at `t0 + schedule[i]`, sleeping until each is due, and
/// stops early when `send` fails. Returns how late each send ran (ns).
fn paced(schedule: &[Duration], t0: Instant, mut send: impl FnMut(usize) -> bool) -> Vec<u64> {
    let mut late = Vec::with_capacity(schedule.len());
    for (i, due) in schedule.iter().enumerate() {
        let due = t0 + *due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        late.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        if !send(i) {
            break;
        }
    }
    late
}

/// Open loop over its own connection at `rate`: a paced sender thread and
/// a receiver thread. Each request is timed from its scheduled due time, so
/// a stalled sender shows up as latency of the requests it delayed.
pub fn open_loop(
    addr: SocketAddr,
    inp: &Inputs,
    rate: f64,
    secs: f64,
    width: Duration,
    gen: &mut Gen,
) -> OpenLoop {
    let schedule = poisson_schedule(rate, secs, inp.arrival_seed);
    let n = schedule.len();
    let mut client = connect(addr, gen);
    let mut writer = client.stream().try_clone().expect("clone the socket");
    client
        .stream()
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set a read timeout");
    gen.at_least(2, 1);
    let t0 = Instant::now() + Duration::from_millis(2);
    let (late_ns, got) = std::thread::scope(|s| {
        let schedule = &schedule;
        let sender = s.spawn(move || {
            paced(schedule, t0, |i| {
                let (idx, theta) = inp.key(i);
                let frame = request_frame(i as u64, &inp.ds.records[idx], theta);
                frame.write_to(&mut writer).is_ok()
            })
        });
        let receiver = s.spawn(move || {
            let mut got = Vec::with_capacity(n);
            while got.len() < n {
                match client.recv() {
                    Ok(Frame::Response(r)) => got.push((Instant::now() - t0, r)),
                    _ => break,
                }
            }
            got
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let mut ledger = ReplyLedger::default();
    for _ in 0..n {
        ledger.sent();
    }
    // Windows group requests by when they were due, so each window carries
    // the same offered load.
    let mut windows = Windows::new(Duration::from_secs_f64(secs), width);
    let mut ok = 0usize;
    for (at, r) in &got {
        if ledger.replied(r.request_id) && !is_failure(r) {
            let due = schedule[r.request_id as usize];
            windows.record(due, at.saturating_sub(due).as_nanos() as u64);
            ok += 1;
        }
    }
    let (_, once) = ledger.tally();
    OpenLoop {
        summary: windows.finish(),
        attempted: n as u64,
        failed: (n - ok.min(once)) as u64,
        late_ns,
    }
}

/// The same open loop into the in-process service: one thread submits on
/// schedule, one collects the replies in order. Also returns the cache hit
/// ratio over the first `post_swap` replies.
#[allow(clippy::too_many_arguments)]
pub fn open_loop_inproc(
    svc: &Service,
    records: &[Arc<Record>],
    inp: &Inputs,
    rate: f64,
    secs: f64,
    width: Duration,
    post_swap: usize,
    gen: &mut Gen,
) -> (OpenLoop, f64) {
    let schedule = poisson_schedule(rate, secs, inp.arrival_seed);
    let n = schedule.len();
    gen.at_least(2, 0);
    let client = svc.client();
    let t0 = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = std::sync::mpsc::channel();
    let (late_ns, got) = std::thread::scope(|s| {
        let schedule = &schedule;
        let sender = s.spawn(move || {
            paced(schedule, t0, |i| {
                let (idx, theta) = inp.key(i);
                let reply = client.submit(Request {
                    model: MODEL.to_string(),
                    query: Arc::clone(&records[idx]),
                    theta,
                });
                tx.send((i, reply)).is_ok()
            })
        });
        let receiver = s.spawn(move || {
            let mut got = Vec::with_capacity(n);
            for (i, reply) in rx {
                let r = reply.recv();
                got.push((i, Instant::now() - t0, r));
            }
            got
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let mut windows = Windows::new(Duration::from_secs_f64(secs), width);
    let mut failed = (n - got.len()) as u64;
    let (mut early, mut early_hits) = (0usize, 0usize);
    for (rank, (i, at, r)) in got.into_iter().enumerate() {
        match r {
            Ok(Ok(resp)) if !resp.source.is_degraded() => {
                let hit = matches!(
                    resp.source,
                    EstimateSource::CacheExact | EstimateSource::CacheBounds { .. }
                );
                windows.record(
                    schedule[i],
                    at.saturating_sub(schedule[i]).as_nanos() as u64,
                );
                if rank < post_swap {
                    early += 1;
                    early_hits += usize::from(hit);
                }
            }
            _ => failed += 1,
        }
    }
    let open = OpenLoop {
        summary: windows.finish(),
        attempted: n as u64,
        failed,
        late_ns,
    };
    (open, early_hits as f64 / early.max(1) as f64)
}
