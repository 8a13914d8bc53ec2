//! Integration tests for the `cardest-serve` subsystem: concurrency
//! determinism (batched N-worker serving must be bit-identical to 1-worker
//! and to the plain estimator), and hot-swap atomicity (mid-stream model
//! replacement never yields an estimate from a half-written model).

use cardest_core::estimator::{CardNetEstimator, CardinalityEstimator};
use cardest_core::model::CardNetConfig;
use cardest_core::train::{train_cardnet, TrainerOptions};
use cardest_data::synth::{hm_imagenet, SynthConfig};
use cardest_data::zipf::Zipf;
use cardest_data::{Dataset, Record, Workload};
use cardest_fx::build_extractor;
use cardest_serve::{ModelRegistry, Request, ServeConfig, Service, StatsSnapshot};
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

fn small_model(ds: &Dataset, seed_epochs: usize) -> CardNetEstimator {
    let fx = build_extractor(ds, 10, 1);
    let split = Workload::sample_from(ds, 0.25, 8, 2).split(3);
    let mut cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
    cfg.phi_hidden = vec![24, 16];
    cfg.z_dim = 12;
    cfg = cfg.without_vae();
    let opts = TrainerOptions {
        epochs: seed_epochs,
        vae_epochs: 0,
        ..TrainerOptions::quick()
    };
    let (trainer, _) = train_cardnet(fx.as_ref(), &split.train, &split.valid, cfg, opts);
    CardNetEstimator::from_trainer(fx, trainer)
}

/// A Zipf-skewed request stream (record index, shared record, θ): repeats
/// exercise the cache, distinct queries exercise batching.
fn request_stream(ds: &Dataset, n: usize, seed: u64) -> Vec<(usize, Arc<Record>, f64)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let hot = Zipf::new(60.min(ds.len()), 1.1);
    (0..n)
        .map(|_| {
            let idx = hot.sample(&mut rng);
            let theta = ds.theta_max * (rng.gen_range(0..16) as f64) / 15.0;
            (idx, Arc::new(ds.records[idx].clone()), theta)
        })
        .collect()
}

/// Requests `play` keeps outstanding: fewer than `batch_max`, so a batch is
/// sealed by its window or by an empty queue, not by its size, and what it
/// holds changes with the window.
const IN_FLIGHT: usize = 16;

/// Plays the stream through a fresh service, pipelined [`IN_FLIGHT`] deep,
/// and returns the served estimates (stream order) and the service's final
/// counters.
fn play(
    registry: &Arc<ModelRegistry>,
    stream: &[(usize, Arc<Record>, f64)],
    workers: usize,
    batch_window: Duration,
    cache_capacity: usize,
) -> (Vec<f64>, StatsSnapshot) {
    let service = Service::start(
        Arc::clone(registry),
        ServeConfig {
            workers,
            batch_max: 32,
            batch_window,
            cache_capacity,
            bound_tolerance: 0.0,
            cache_curve_points: 0,
            kernel_backend: None,
            ..ServeConfig::default()
        },
    );
    let mut unsent = stream.iter();
    let mut outstanding = VecDeque::with_capacity(IN_FLIGHT);
    let mut out = Vec::with_capacity(stream.len());
    loop {
        while outstanding.len() < IN_FLIGHT {
            let Some((_, rec, theta)) = unsent.next() else {
                break;
            };
            outstanding.push_back(service.submit(Request {
                model: "m".into(),
                query: Arc::clone(rec),
                theta: *theta,
            }));
        }
        let Some(rx) = outstanding.pop_front() else {
            break;
        };
        out.push(rx.recv().expect("service alive").expect("served").estimate);
    }
    let snap = service.stats();
    service.shutdown();
    (out, snap)
}

#[test]
fn one_worker_and_many_workers_serve_identical_estimates() {
    let ds = hm_imagenet(SynthConfig::new(300, 91));
    let est = small_model(&ds, 3);
    let stream = request_stream(&ds, 400, 17);
    // Ground truth from the single-thread, unbatched estimator call.
    let reference: Vec<f64> = stream
        .iter()
        .map(|(_, rec, theta)| est.estimate(rec, *theta))
        .collect();

    let registry = Arc::new(ModelRegistry::new());
    registry.publish("m", est);
    // Batching, concurrency and caching change when the model runs, never
    // the bits: every worker count × batch window, with the cache off (every
    // answer computed) and on (Zipf repeats answer from the cache).
    let windows = [
        Duration::ZERO,
        Duration::from_micros(300),
        Duration::from_millis(2),
    ];
    for workers in [1, 4] {
        for window in windows {
            for cache_capacity in [0, 1024] {
                let (served, snap) = play(&registry, &stream, workers, window, cache_capacity);
                let run = format!("{workers} workers, window {window:?}, cache {cache_capacity}");
                for (i, (got, want)) in served.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{run}: diverged from the direct path at request {i}"
                    );
                }
                if cache_capacity > 0 {
                    assert!(snap.exact_hits > 0, "{run}: repeats never hit the cache");
                } else {
                    assert_eq!(snap.exact_hits + snap.bound_hits, 0, "{run}: cache is off");
                }
            }
        }
    }
}

#[test]
fn hot_swap_mid_stream_is_atomic_and_epoch_tagged() {
    let ds = hm_imagenet(SynthConfig::new(300, 92));
    let model_a = small_model(&ds, 2);
    let model_b = small_model(&ds, 6); // different weights on purpose
    let stream = request_stream(&ds, 600, 23);

    // Reference answers for *both* generations, computed up front (before
    // the estimators move into the registry).
    let mut expect_a: HashMap<(usize, u64), f64> = HashMap::new();
    let mut expect_b: HashMap<(usize, u64), f64> = HashMap::new();
    for (idx, rec, theta) in &stream {
        expect_a
            .entry((*idx, theta.to_bits()))
            .or_insert_with(|| model_a.estimate(rec, *theta));
        expect_b
            .entry((*idx, theta.to_bits()))
            .or_insert_with(|| model_b.estimate(rec, *theta));
    }

    let registry = Arc::new(ModelRegistry::new());
    let epoch_a = registry.publish("m", model_a);
    let service = Service::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 3,
            batch_max: 16,
            batch_window: Duration::from_micros(200),
            // Cache on: entries are epoch-keyed, so pre-swap entries must
            // never answer post-swap requests.
            cache_capacity: 512,
            bound_tolerance: 0.0,
            cache_curve_points: 0,
            kernel_backend: None,
            ..ServeConfig::default()
        },
    );

    // Stream requests while the swap happens mid-flight.
    let submit = |(_, rec, theta): &(usize, Arc<Record>, f64)| {
        service.submit(Request {
            model: "m".into(),
            query: Arc::clone(rec),
            theta: *theta,
        })
    };
    let half = stream.len() / 2;
    let mut responses = Vec::with_capacity(stream.len());
    let first_half: Vec<_> = stream[..half].iter().map(submit).collect();
    // Force one pre-swap answer so generation A provably served traffic…
    responses.push(
        first_half[0]
            .recv()
            .expect("service alive")
            .expect("served"),
    );
    assert_eq!(
        responses[0].epoch, epoch_a,
        "pre-swap answer must be model A's"
    );
    // …then swap while the rest of the first half is still in flight.
    let epoch_b = registry.publish("m", model_b);
    assert!(epoch_b > epoch_a, "swap must bump the epoch");
    let second_half: Vec<_> = stream[half..].iter().map(submit).collect();
    responses.extend(
        first_half
            .into_iter()
            .skip(1)
            .chain(second_half)
            .map(|rx| rx.recv().expect("service alive").expect("served")),
    );

    let mut saw = [0usize, 0];
    for (resp, (idx, _, theta)) in responses.into_iter().zip(&stream) {
        // Every response must come from exactly one published generation —
        // by construction a torn model is unrepresentable, and the epoch
        // tag + bit-exact match against that generation's reference proves
        // the estimate is entirely model A's or entirely model B's.
        let expect = if resp.epoch == epoch_a {
            saw[0] += 1;
            &expect_a
        } else if resp.epoch == epoch_b {
            saw[1] += 1;
            &expect_b
        } else {
            panic!("estimate tagged with unpublished epoch {}", resp.epoch);
        };
        let want = expect[&(*idx, theta.to_bits())];
        assert_eq!(
            resp.estimate.to_bits(),
            want.to_bits(),
            "epoch {} estimate does not match that generation's model",
            resp.epoch
        );
    }
    // The swap happened mid-stream with requests still flowing on both
    // sides, so both generations must have answered at least once.
    assert!(saw[0] > 0, "model A never answered");
    assert!(saw[1] > 0, "model B never answered");
    service.shutdown();
}
