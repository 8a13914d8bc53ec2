//! End-to-end socket-ingress tests: loopback client/server round trips over
//! the wire protocol must be **bit-identical** to in-process estimation,
//! under concurrency, hot-swap, quotas, and load shedding.
//!
//! The serving invariant being defended: batching, caching, framing, and
//! admission control may change *when* and *whether* the model runs, but
//! never the bits of a full-fidelity answer — and a degraded (shed) answer
//! must carry exactly the monotone cache bracket, never a made-up number.

use cardest_core::estimator::{CardNetEstimator, CardinalityEstimator};
use cardest_core::model::CardNetConfig;
use cardest_core::train::{train_cardnet, TrainerOptions};
use cardest_data::synth::{hm_imagenet, SynthConfig};
use cardest_data::zipf::Zipf;
use cardest_data::{Dataset, Record, Workload};
use cardest_fx::build_extractor;
use cardest_serve::{
    ErrorCode, Frame, ModelRegistry, NetClient, NetConfig, NetServer, RequestFrame, ResponseFrame,
    ServeConfig, Service, WireQuery, WireSource,
};
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// The tracing comparison times p99 latencies, so it runs alone: it takes
/// this lock for writing, and every other test in this binary holds a read
/// guard for its whole run.
static TIMING: RwLock<()> = RwLock::new(());

fn share_cores() -> RwLockReadGuard<'static, ()> {
    TIMING.read().unwrap_or_else(PoisonError::into_inner)
}

fn small_model(ds: &Dataset, epochs: usize) -> CardNetEstimator {
    let fx = build_extractor(ds, 10, 1);
    let split = Workload::sample_from(ds, 0.25, 8, 2).split(3);
    let mut cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
    cfg.phi_hidden = vec![24, 16];
    cfg.z_dim = 12;
    cfg = cfg.without_vae();
    let opts = TrainerOptions {
        epochs,
        vae_epochs: 0,
        ..TrainerOptions::quick()
    };
    let (trainer, _) = train_cardnet(fx.as_ref(), &split.train, &split.valid, cfg, opts);
    CardNetEstimator::from_trainer(fx, trainer)
}

fn shared_records(ds: &Dataset) -> Vec<Arc<Record>> {
    ds.records.iter().cloned().map(Arc::new).collect()
}

fn start_server(
    ds: &Dataset,
    est: CardNetEstimator,
    serve_cfg: ServeConfig,
    net_cfg: NetConfig,
) -> (NetServer, u64) {
    let registry = Arc::new(ModelRegistry::new());
    let epoch = registry.publish("default", est);
    let service = Service::start(registry, serve_cfg);
    let server = NetServer::bind("127.0.0.1:0", service, shared_records(ds), net_cfg)
        .expect("bind loopback");
    (server, epoch)
}

fn index_request(id: u64, client_id: u64, idx: usize, theta: f64) -> RequestFrame {
    RequestFrame {
        request_id: id,
        client_id,
        theta,
        deadline_us: 0,
        model: String::new(), // empty selects the configured default
        query: WireQuery::Index(idx as u64),
    }
}

fn expect_response(frame: Frame) -> ResponseFrame {
    match frame {
        Frame::Response(r) => r,
        other => panic!("expected a response frame, got {other:?}"),
    }
}

fn wait_until(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < limit {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn socket_round_trips_are_bit_identical_to_in_process_estimation() {
    let _cores = share_cores();
    let ds = hm_imagenet(SynthConfig::new(300, 191));
    let est = small_model(&ds, 3);
    let queries: Vec<(usize, f64)> = (0..60)
        .map(|i| (i * 5 % ds.len(), ds.theta_max * (i % 16) as f64 / 15.0))
        .collect();
    // Ground truth from the plain single-thread estimator, computed before
    // the model moves into the registry.
    let reference: Vec<f64> = queries
        .iter()
        .map(|&(idx, theta)| est.estimate(&ds.records[idx], theta))
        .collect();

    let (server, epoch) = start_server(&ds, est, ServeConfig::default(), NetConfig::default());
    let mut client = NetClient::connect(server.addr()).expect("connect");

    // Fully pipelined: send the whole stream, then drain in order.
    for (i, &(idx, theta)) in queries.iter().enumerate() {
        client
            .send(&Frame::Request(index_request(i as u64, 0, idx, theta)))
            .expect("send");
    }
    for (i, want) in reference.iter().enumerate() {
        let resp = expect_response(client.recv().expect("answered"));
        assert_eq!(resp.request_id, i as u64, "responses arrive in order");
        assert_eq!(resp.epoch, epoch);
        assert!(!resp.degraded, "no shedding at this load");
        assert_eq!(
            resp.estimate.to_bits(),
            want.to_bits(),
            "socket answer diverged from the direct path at request {i}"
        );
        assert!(resp.lo <= resp.estimate && resp.estimate <= resp.hi);
    }

    // The same queries as inline bit vectors (a client that does not share
    // the dataset) must answer identically to the index form.
    for (i, (&(idx, theta), want)) in queries.iter().zip(&reference).enumerate() {
        let req = RequestFrame {
            request_id: 1000 + i as u64,
            client_id: 0,
            theta,
            deadline_us: 0,
            model: String::new(),
            query: WireQuery::Bits(ds.records[idx].as_bits().clone()),
        };
        let resp = expect_response(client.call(req).expect("answered"));
        assert_eq!(
            resp.estimate.to_bits(),
            want.to_bits(),
            "inline-bits answer diverged at request {i}"
        );
    }

    // And the in-process path sees the very same service.
    let (idx, theta) = queries[7];
    let inproc = server
        .service()
        .estimate("default", Arc::new(ds.records[idx].clone()), theta)
        .expect("served");
    assert_eq!(inproc.estimate.to_bits(), reference[7].to_bits());
    server.shutdown();
}

#[test]
fn concurrent_socket_clients_are_deterministic() {
    let _cores = share_cores();
    let ds = hm_imagenet(SynthConfig::new(300, 192));
    let est = small_model(&ds, 3);
    // Zipf-skewed per-client streams: repeats exercise the cache, distinct
    // queries exercise batching across connections.
    let streams: Vec<Vec<(usize, f64)>> = (0..4)
        .map(|c| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(400 + c);
            let hot = Zipf::new(60.min(ds.len()), 1.1);
            (0..100)
                .map(|_| {
                    let idx = hot.sample(&mut rng);
                    let theta = ds.theta_max * (rng.gen_range(0..16) as f64) / 15.0;
                    (idx, theta)
                })
                .collect()
        })
        .collect();
    let reference: Vec<Vec<f64>> = streams
        .iter()
        .map(|s| {
            s.iter()
                .map(|&(idx, theta)| est.estimate(&ds.records[idx], theta))
                .collect()
        })
        .collect();

    let (server, _) = start_server(&ds, est, ServeConfig::default(), NetConfig::default());
    let addr = server.addr();
    let handles: Vec<_> = streams
        .iter()
        .cloned()
        .map(|stream| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                for (i, &(idx, theta)) in stream.iter().enumerate() {
                    client
                        .send(&Frame::Request(index_request(i as u64, 0, idx, theta)))
                        .expect("send");
                }
                (0..stream.len())
                    .map(|_| expect_response(client.recv().expect("answered")).estimate)
                    .collect::<Vec<f64>>()
            })
        })
        .collect();
    for (c, handle) in handles.into_iter().enumerate() {
        let got = handle.join().expect("client thread");
        for (i, (g, want)) in got.iter().zip(&reference[c]).enumerate() {
            assert_eq!(
                g.to_bits(),
                want.to_bits(),
                "client {c} request {i} diverged under concurrency"
            );
        }
    }
    server.shutdown();
}

#[test]
fn hot_swap_under_load_keeps_every_answer_epoch_consistent() {
    let _cores = share_cores();
    let ds = hm_imagenet(SynthConfig::new(300, 193));
    let model_a = small_model(&ds, 2);
    let model_b = small_model(&ds, 6); // different weights on purpose
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let stream: Vec<(usize, f64)> = (0..300)
        .map(|_| {
            let idx = rng.gen_range(0..ds.len());
            let theta = ds.theta_max * (rng.gen_range(0..16) as f64) / 15.0;
            (idx, theta)
        })
        .collect();
    // Reference answers for both generations, before they move.
    let mut expect_a: HashMap<(usize, u64), f64> = HashMap::new();
    let mut expect_b: HashMap<(usize, u64), f64> = HashMap::new();
    for &(idx, theta) in &stream {
        expect_a
            .entry((idx, theta.to_bits()))
            .or_insert_with(|| model_a.estimate(&ds.records[idx], theta));
        expect_b
            .entry((idx, theta.to_bits()))
            .or_insert_with(|| model_b.estimate(&ds.records[idx], theta));
    }

    let (server, epoch_a) =
        start_server(&ds, model_a, ServeConfig::default(), NetConfig::default());
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let half = stream.len() / 2;
    for (i, &(idx, theta)) in stream[..half].iter().enumerate() {
        client
            .send(&Frame::Request(index_request(i as u64, 0, idx, theta)))
            .expect("send");
    }
    // Force one pre-swap answer so generation A provably served traffic…
    let first = expect_response(client.recv().expect("answered"));
    assert_eq!(first.epoch, epoch_a, "pre-swap answer must be model A's");
    // …then hot-swap through the server's own service handle while the rest
    // of the first half is in flight.
    let epoch_b = server.service().registry().publish("default", model_b);
    assert!(epoch_b > epoch_a, "swap must bump the epoch");
    for (i, &(idx, theta)) in stream[half..].iter().enumerate() {
        client
            .send(&Frame::Request(index_request(
                (half + i) as u64,
                0,
                idx,
                theta,
            )))
            .expect("send");
    }

    let mut saw = [0usize, 0];
    for &(idx, theta) in &stream[1..] {
        let resp = expect_response(client.recv().expect("answered"));
        // Every answer belongs entirely to one published generation: the
        // epoch tag says which, and the bit-exact match against that
        // generation's reference proves no torn model ever served.
        let expect = if resp.epoch == epoch_a {
            saw[0] += 1;
            &expect_a
        } else {
            assert_eq!(resp.epoch, epoch_b, "unknown epoch {}", resp.epoch);
            saw[1] += 1;
            &expect_b
        };
        let want = expect[&(idx, theta.to_bits())];
        assert_eq!(
            resp.estimate.to_bits(),
            want.to_bits(),
            "epoch {} answer diverged from that generation's reference",
            resp.epoch
        );
    }
    // A post-swap request must answer from B (the swap is already visible:
    // all queued work above has drained through this connection).
    let resp = expect_response(
        client
            .call(index_request(9999, 0, stream[0].0, stream[0].1))
            .expect("answered"),
    );
    assert_eq!(resp.epoch, epoch_b, "post-drain answers come from model B");
    assert!(saw[1] > 0, "model B must have served part of the stream");
    server.shutdown();
}

/// Saturates a 1-worker server whose queue admits only 4 requests: the
/// overflow must be answered **degraded** from the exact monotone cache
/// bracket (or refused when nothing is cached), every shed the clients
/// observed must reconcile with the server's counters, and once the overload
/// drains the same query must be served at full fidelity again.
#[test]
fn load_shedding_answers_from_brackets_and_counters_reconcile() {
    let _cores = share_cores();
    let ds = hm_imagenet(SynthConfig::new(200, 194));
    let est = small_model(&ds, 2);
    let tau_max = est.extractor().tau_max();
    let theta_of = |tau: usize| ds.theta_max * (tau as f64 + 0.5) / (tau_max as f64);
    let hot_idx = 9usize;
    // Direct-path references: the cache entries the pre-warm creates are
    // bit-identical to these (that is the serving invariant), so the shed
    // brackets must carry exactly these bits.
    let expected_lo = est.estimate(&ds.records[hot_idx], theta_of(1));
    let expected_hi = est.estimate(&ds.records[hot_idx], theta_of(7));
    let expected_mid = est.estimate(&ds.records[hot_idx], theta_of(4));
    let stalled_queries: Vec<(usize, f64)> = (0..4).map(|i| (40 + i, theta_of(3))).collect();
    let stalled_reference: Vec<f64> = stalled_queries
        .iter()
        .map(|&(idx, theta)| est.estimate(&ds.records[idx], theta))
        .collect();

    let window = Duration::from_millis(1500);
    let (server, epoch) = start_server(
        &ds,
        est,
        ServeConfig {
            workers: 1,
            batch_max: 64,
            batch_window: window, // one slow batch stalls all admitted work
            cache_capacity: 1024,
            bound_tolerance: 0.0,
            cache_curve_points: 0,
            kernel_backend: None,
            ..ServeConfig::default()
        },
        NetConfig {
            queue_limit: 4,
            ..NetConfig::default()
        },
    );

    // Pre-warm the cache at τ=1 and τ=7 for the hot query.
    let mut warm = NetClient::connect(server.addr()).expect("connect");
    warm.send(&Frame::Request(index_request(1, 0, hot_idx, theta_of(1))))
        .expect("send");
    warm.send(&Frame::Request(index_request(2, 0, hot_idx, theta_of(7))))
        .expect("send");
    let w1 = expect_response(warm.recv().expect("warm lo"));
    let w2 = expect_response(warm.recv().expect("warm hi"));
    assert_eq!(w1.estimate.to_bits(), expected_lo.to_bits());
    assert_eq!(w2.estimate.to_bits(), expected_hi.to_bits());

    // Fill the queue: 4 fresh queries stall in the worker's batch window.
    let mut stall = NetClient::connect(server.addr()).expect("connect");
    for (i, &(idx, theta)) in stalled_queries.iter().enumerate() {
        stall
            .send(&Frame::Request(index_request(10 + i as u64, 0, idx, theta)))
            .expect("send");
    }
    assert!(
        wait_until(Duration::from_secs(5), || {
            server.service().stats().requests >= 6
        }),
        "stalled requests must reach the service queue"
    );

    // Overflow client (id 42): 6 requests at a bracketed τ — degraded
    // bracket answers — and one for a never-seen query — a hard reject.
    let mut shed = NetClient::connect(server.addr()).expect("connect");
    for i in 0..6 {
        shed.send(&Frame::Request(index_request(
            20 + i,
            42,
            hot_idx,
            theta_of(4),
        )))
        .expect("send");
    }
    shed.send(&Frame::Request(index_request(30, 42, 150, theta_of(4))))
        .expect("send");

    for i in 0..6 {
        let resp = expect_response(shed.recv().expect("degraded answer"));
        assert_eq!(resp.request_id, 20 + i);
        assert!(resp.degraded, "shed answers carry the degraded flag");
        assert_eq!(resp.source, WireSource::ShedBracket);
        assert_eq!(resp.epoch, epoch);
        assert_eq!(
            resp.lo.to_bits(),
            expected_lo.to_bits(),
            "bracket lo must be the cached τ=1 value, bit-exactly"
        );
        assert_eq!(
            resp.hi.to_bits(),
            expected_hi.to_bits(),
            "bracket hi must be the cached τ=7 value, bit-exactly"
        );
        assert!(resp.lo <= resp.estimate && resp.estimate <= resp.hi);
    }
    match shed.recv().expect("reject frame") {
        Frame::Error(e) => {
            assert_eq!(e.request_id, 30);
            assert_eq!(e.code, ErrorCode::Overloaded, "cold query cannot degrade");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // The stalled work still completes at full fidelity.
    for (i, want) in stalled_reference.iter().enumerate() {
        let resp = expect_response(stall.recv().expect("computed answer"));
        assert_eq!(resp.request_id, 10 + i as u64);
        assert!(!resp.degraded);
        assert_eq!(
            resp.estimate.to_bits(),
            want.to_bits(),
            "admitted request {i} diverged despite the overload"
        );
    }

    // Once the overload drains, the query that was shed is served at full
    // fidelity again: shedding is a mode, not a latch.
    let after = expect_response(
        shed.call(index_request(40, 0, hot_idx, theta_of(4)))
            .expect("post-drain answer"),
    );
    assert!(!after.degraded, "shedding outlived the overload");
    assert_ne!(after.source, WireSource::ShedBracket);
    assert_eq!(after.estimate.to_bits(), expected_mid.to_bits());

    // Counters reconcile with what the clients observed.
    let snap = server.service().stats();
    assert_eq!(snap.shed_bracket, 6, "six degraded answers were observed");
    assert_eq!(snap.shed_rejected, 1, "one hard reject was observed");
    assert_eq!(snap.quota_rejected, 0);
    assert_eq!(snap.requests, 2 + 4 + 7 + 1);
    let client42 = snap
        .clients
        .iter()
        .find(|(id, _)| *id == 42)
        .map(|&(_, c)| c)
        .expect("client 42 tracked");
    assert_eq!(client42.requests, 7);
    assert_eq!(client42.shed, 6);
    assert_eq!(client42.outstanding, 0, "every slot was released");
    server.shutdown();
}

/// The acceptance loop for the introspection surface: drive a mix of
/// served, degraded, and rejected traffic over the socket, then pull a
/// `Stats` frame and assert the server's request/shed/degraded counters
/// reconcile **exactly** with what the clients observed frame-by-frame —
/// and that a `Traces` pull returns real per-stage timings for that
/// traffic.
#[test]
fn stats_frame_counters_reconcile_exactly_with_client_observations() {
    let _cores = share_cores();
    let ds = hm_imagenet(SynthConfig::new(200, 196));
    let est = small_model(&ds, 2);
    let tau_max = est.extractor().tau_max();
    let theta_of = |tau: usize| ds.theta_max * (tau as f64 + 0.5) / (tau_max as f64);
    let hot_idx = 5usize;

    let window = Duration::from_millis(1500);
    let (server, epoch) = start_server(
        &ds,
        est,
        ServeConfig {
            workers: 1,
            batch_max: 64,
            batch_window: window,
            cache_capacity: 1024,
            bound_tolerance: 0.0,
            cache_curve_points: 0,
            kernel_backend: None,
            trace_sample: 1, // capture every trace so the pull below has data
            ..ServeConfig::default()
        },
        NetConfig {
            queue_limit: 4,
            ..NetConfig::default()
        },
    );

    // Client-side tallies: every frame each client receives is classified
    // here, and nothing else touches this server.
    let mut seen_responses = 0u64;
    let mut seen_degraded = 0u64;
    let mut seen_rejects = 0u64;
    let mut sent_requests = 0u64;

    // Pre-warm the bracket at τ=1 and τ=7 so overflow can degrade.
    let mut warm = NetClient::connect(server.addr()).expect("connect");
    for (id, tau) in [(1u64, 1usize), (2, 7)] {
        warm.send(&Frame::Request(index_request(
            id,
            0,
            hot_idx,
            theta_of(tau),
        )))
        .expect("send");
        sent_requests += 1;
    }
    for _ in 0..2 {
        expect_response(warm.recv().expect("warm answer"));
        seen_responses += 1;
    }

    // Stall the single worker, fill the 4-slot queue…
    let mut stall = NetClient::connect(server.addr()).expect("connect");
    for i in 0..4u64 {
        stall
            .send(&Frame::Request(index_request(
                10 + i,
                0,
                30 + i as usize,
                theta_of(3),
            )))
            .expect("send");
        sent_requests += 1;
    }
    assert!(
        wait_until(Duration::from_secs(5), || {
            server.service().stats().requests >= 6
        }),
        "stalled requests must reach the service queue"
    );

    // …then overflow: 5 bracketed requests answer degraded, one cold query
    // is refused outright.
    let mut shed = NetClient::connect(server.addr()).expect("connect");
    for i in 0..5u64 {
        shed.send(&Frame::Request(index_request(
            20 + i,
            42,
            hot_idx,
            theta_of(4),
        )))
        .expect("send");
        sent_requests += 1;
    }
    shed.send(&Frame::Request(index_request(30, 42, 150, theta_of(4))))
        .expect("send");
    sent_requests += 1;
    for _ in 0..6 {
        match shed.recv().expect("shed answer") {
            Frame::Response(r) => {
                assert!(r.degraded);
                seen_responses += 1;
                seen_degraded += 1;
            }
            Frame::Error(e) => {
                assert_eq!(e.code, ErrorCode::Overloaded);
                seen_rejects += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    // Let the stalled work finish so served/answered totals are settled.
    for _ in 0..4 {
        let r = expect_response(stall.recv().expect("computed answer"));
        assert!(!r.degraded);
        seen_responses += 1;
    }

    // Pull the Stats frame over the wire — a fresh connection, exactly the
    // surface an external monitoring agent would use.
    let mut probe = NetClient::connect(server.addr()).expect("connect");
    let stats = probe.stats(99).expect("stats frame");
    assert_eq!(stats.token, 99);
    let counter = |name: &str| {
        stats
            .counter(name)
            .unwrap_or_else(|| panic!("stats frame missing {name}"))
    };
    assert_eq!(
        counter("cardest_requests_total"),
        sent_requests,
        "every request frame the clients sent must be counted, nothing more"
    );
    assert_eq!(
        counter("cardest_answered_total"),
        seen_responses,
        "answered must equal the response frames the clients received"
    );
    assert_eq!(
        counter("cardest_shed_bracket_total"),
        seen_degraded,
        "degraded answers must reconcile with client-observed degraded flags"
    );
    assert_eq!(
        counter("cardest_shed_rejected_total"),
        seen_rejects,
        "hard rejects must reconcile with client-observed Overloaded errors"
    );
    assert_eq!(counter("cardest_quota_rejected_total"), 0);
    // The traced request latencies flow into the same snapshot: every
    // answered request finished exactly one trace (sheds answered at
    // ingress never enter the pipeline, so they carry no trace).
    assert_eq!(
        counter("cardest_traces_finished_total"),
        seen_responses - seen_degraded,
        "one finished trace per pipeline-served answer"
    );
    assert_eq!(
        counter("cardest_request_latency_count"),
        seen_responses - seen_degraded
    );

    // And the trace pull returns those same requests with nonzero per-stage
    // attribution.
    let traces = probe.traces(7, 0).expect("traces frame");
    assert_eq!(traces.token, 7);
    assert_eq!(
        traces.traces.len() as u64,
        seen_responses - seen_degraded,
        "sample_every=1 captures every pipeline-served request"
    );
    for t in &traces.traces {
        assert_eq!(t.epoch, epoch);
        assert!(t.total_ns > 0, "trace {} has an empty total", t.id);
        // Top-level stages must attribute real, non-overlapping time; the
        // encoder/decoder substages overlap the model span and are excluded
        // from the coverage sum (the same rule as `Trace::attributed_ns`).
        let attributed: u64 = cardest_obs::STAGES
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_substage())
            .map(|(i, _)| t.stages_ns.get(i).copied().unwrap_or(0))
            .sum();
        assert!(attributed > 0, "trace {} attributes no stage time", t.id);
        assert!(
            attributed <= t.total_ns,
            "trace {} attributes more time than elapsed ({} > {})",
            t.id,
            attributed,
            t.total_ns
        );
    }
    server.shutdown();
}

/// Per-client quotas bound *outstanding* requests: with a quota of 2 and a
/// stalled worker, a burst of 4 yields two served answers and two typed
/// quota rejects, tracked per client id.
#[test]
fn per_client_quota_rejects_excess_outstanding_requests() {
    let _cores = share_cores();
    let ds = hm_imagenet(SynthConfig::new(200, 195));
    let est = small_model(&ds, 2);
    let reference: Vec<f64> = (0..2).map(|i| est.estimate(&ds.records[i], 4.0)).collect();
    let (server, _) = start_server(
        &ds,
        est,
        ServeConfig {
            workers: 1,
            batch_max: 64,
            batch_window: Duration::from_millis(800),
            cache_capacity: 0,
            bound_tolerance: 0.0,
            cache_curve_points: 0,
            kernel_backend: None,
            ..ServeConfig::default()
        },
        NetConfig {
            client_quota: 2,
            ..NetConfig::default()
        },
    );
    let mut client = NetClient::connect(server.addr()).expect("connect");
    for i in 0..4u64 {
        client
            .send(&Frame::Request(index_request(i, 7, i as usize % 2, 4.0)))
            .expect("send");
    }
    // In-order responses: two pending answers (after the batch window),
    // then the two rejects that were refused at ingress.
    let mut served = Vec::new();
    let mut rejects = 0;
    for _ in 0..4 {
        match client.recv().expect("answered") {
            Frame::Response(r) => served.push(r),
            Frame::Error(e) => {
                assert_eq!(e.code, ErrorCode::QuotaExceeded);
                rejects += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(served.len(), 2);
    assert_eq!(rejects, 2);
    for (r, want) in served.iter().zip(&reference) {
        assert_eq!(r.estimate.to_bits(), want.to_bits());
    }
    let snap = server.service().stats();
    assert_eq!(snap.quota_rejected, 2);
    let client7 = snap
        .clients
        .iter()
        .find(|(id, _)| *id == 7)
        .map(|&(_, c)| c)
        .expect("client 7 tracked");
    assert_eq!(client7.requests, 4);
    assert_eq!(client7.quota_rejected, 2);
    assert_eq!(client7.outstanding, 0);
    server.shutdown();
}

/// One leg of the tracing comparison: a service with tracing on or off
/// behind its own socket ingress, and the latencies its client observed.
struct Leg {
    server: NetServer,
    client: NetClient,
    latencies_us: Vec<u64>,
    /// The tracer's capture count when the measured window opened.
    captured_before: u64,
}

impl Leg {
    /// Starts the leg's server and warms it with a closed-loop, fully
    /// pipelined pass over `warm`, so that both legs start from the same
    /// cache and an awake pool. Returns the leg and the requests per second
    /// the warm-up pass sustained.
    fn start(
        registry: &Arc<ModelRegistry>,
        records: &[Arc<Record>],
        tracing: bool,
        warm: &[(usize, f64)],
    ) -> (Leg, f64) {
        let service = Service::start(
            Arc::clone(registry),
            ServeConfig {
                workers: 2,
                batch_max: 64,
                batch_window: Duration::from_micros(500),
                cache_capacity: 4096,
                bound_tolerance: 0.0,
                cache_curve_points: 0,
                kernel_backend: None,
                tracing, // default sampling: every 16th trace is captured
                ..ServeConfig::default()
            },
        );
        let server = NetServer::bind(
            "127.0.0.1:0",
            service,
            records.to_vec(),
            NetConfig {
                queue_limit: 4096,
                ..NetConfig::default()
            },
        )
        .expect("bind loopback");
        let mut client = NetClient::connect(server.addr()).expect("connect");
        let t0 = Instant::now();
        for (i, &(idx, theta)) in warm.iter().enumerate() {
            client
                .send(&Frame::Request(index_request(i as u64, 1, idx, theta)))
                .expect("send");
        }
        for _ in warm {
            expect_response(client.recv().expect("answered"));
        }
        let capacity = warm.len() as f64 / t0.elapsed().as_secs_f64();
        let captured_before = server.service().observer().captured();
        let leg = Leg {
            server,
            client,
            latencies_us: Vec::new(),
            captured_before,
        };
        (leg, capacity)
    }

    /// Receives the responses to requests `0..n`, in order, timing each
    /// from the stamp its sender took.
    fn receive(&mut self, n: u64, stamps: Receiver<Instant>) {
        for id in 0..n {
            let resp = expect_response(self.client.recv().expect("answered"));
            let sent = stamps.recv().expect("every request is stamped");
            assert_eq!(resp.request_id, id, "responses arrive in order");
            assert!(!resp.degraded, "no shedding at this load");
            self.latencies_us.push(sent.elapsed().as_micros() as u64);
        }
    }

    /// Shuts the server down and returns the leg's client-observed p99 and
    /// the share of the measured window's captured trace time that top-level
    /// stage spans attribute (0 when nothing was captured).
    fn finish(mut self) -> (u64, f64) {
        let obs = Arc::clone(self.server.service().observer());
        let traces = obs.recent_traces((obs.captured() - self.captured_before) as usize);
        let attributed: u64 = traces.iter().map(|t| t.attributed_ns()).sum();
        let total: u64 = traces.iter().map(|t| t.total_ns).sum();
        self.server.shutdown();
        self.latencies_us.sort_unstable();
        let rank = ((self.latencies_us.len() - 1) as f64 * 0.99).round() as usize;
        let coverage = if total == 0 {
            0.0
        } else {
            attributed as f64 / total as f64
        };
        (self.latencies_us[rank], coverage)
    }
}

/// Offers `requests` open-loop to both legs at `rate` per second each,
/// with Poisson arrivals. Every arrival goes to both servers back to back,
/// the first of them alternating, so load from outside the test falls on
/// both legs alike. The sender follows its own schedule, never the replies, so a slow
/// server grows its queue instead of slowing the load.
fn offer_to_both(mut legs: [&mut Leg; 2], requests: &[(usize, f64)], rate: f64) {
    let n = requests.len() as u64;
    let mut writers: Vec<TcpStream> = legs
        .iter_mut()
        .map(|leg| leg.client.stream().try_clone().expect("clone socket"))
        .collect();
    std::thread::scope(|scope| {
        let mut stamps = Vec::new();
        for leg in legs {
            // capacity: unbounded, one send stamp per request; the receiver
            // pops one per response, so depth is at most the requests in
            // flight on this leg.
            let (tx, rx) = channel::<Instant>();
            stamps.push(tx);
            scope.spawn(move || leg.receive(n, rx));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xA551);
        let mut due = Instant::now();
        for (id, &(idx, theta)) in (0..).zip(requests) {
            due += Duration::from_secs_f64(-(1.0 - rng.gen::<f64>()).ln() / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let frame = Frame::Request(index_request(id, 1, idx, theta));
            for leg in [id % 2, 1 - id % 2] {
                let leg = leg as usize;
                let sent = Instant::now();
                frame.write_to(&mut writers[leg]).expect("send");
                stamps[leg].send(sent).expect("receiver alive");
            }
        }
    });
}

/// Tracing is on by default, so it must be cheap and it must explain where
/// a request's time went. Over the socket ingress, so that the decode and
/// admission spans are measured too, one open-loop stream is offered to a
/// tracing-off and a tracing-on server at once. The traced p99 may exceed
/// the untraced one by at most 5% plus 1 ms of scheduler slack, both legs
/// meet a 200 ms p99 SLO, and the traced leg's captured traces attribute at
/// least 90% of their end-to-end time to top-level stages.
#[test]
fn tracing_overhead_and_stage_coverage_hold_over_the_socket() {
    const SLO_US: u64 = 200_000;
    let _alone = TIMING.write().unwrap_or_else(PoisonError::into_inner);
    let ds = hm_imagenet(SynthConfig::new(300, 197));
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", small_model(&ds, 2));
    let records = shared_records(&ds);
    // Zipf keys over a θ grid: hot repeats hit the cache, the rest batch.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x50C7);
    let hot = Zipf::new(200.min(ds.len()), 1.2);
    // 3,800 measured requests, so that one host stall does not set the p99,
    // and at one trace in 16 the window's traces still fit the tracer's
    // 256-trace ring.
    let stream: Vec<(usize, f64)> = (0..4000)
        .map(|_| {
            let theta = ds.theta_max * f64::from(rng.gen_range(1..=32)) / 32.0;
            (hot.sample(&mut rng), theta)
        })
        .collect();
    let (warm, measured) = stream.split_at(200);

    // Each attempt is a fresh pair of servers. Only an overhead miss is
    // rerun, up to three pairs: one host stall can spoil a pair's p99s, a
    // real per-request cost spoils all three. The SLO and the coverage are
    // checked once, on the pair that is kept.
    let cheap = |off_p99: u64, on_p99: u64| on_p99 as f64 <= off_p99 as f64 * 1.05 + 1_000.0;
    let mut attempt = 1;
    let (off_p99, on_p99, coverage) = loop {
        let (mut off, capacity) = Leg::start(&registry, &records, false, warm);
        let (mut on, _) = Leg::start(&registry, &records, true, warm);
        // The legs share the host, so each is offered 15% of what the
        // untraced warm-up sustained alone: together they stay well short of
        // saturation, where a small cost would turn into a long queue.
        let rate = (0.15 * capacity).clamp(200.0, 20_000.0);
        offer_to_both([&mut off, &mut on], measured, rate);
        let (off_p99, _) = off.finish();
        let (on_p99, coverage) = on.finish();
        if cheap(off_p99, on_p99) || attempt == 3 {
            break (off_p99, on_p99, coverage);
        }
        attempt += 1;
    };
    assert!(
        cheap(off_p99, on_p99),
        "tracing costs too much: p99 {off_p99} us untraced vs {on_p99} us traced, in 3 pairs"
    );
    assert!(
        off_p99.max(on_p99) <= SLO_US,
        "p99 over the {SLO_US} us SLO: {off_p99} us untraced, {on_p99} us traced"
    );
    assert!(
        coverage >= 0.90,
        "stage spans attribute only {:.1}% of the traced time",
        coverage * 100.0
    );
}
