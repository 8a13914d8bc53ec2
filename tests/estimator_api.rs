//! Property tests for the v2 Estimator API (prepare → curve → estimate).
//!
//! Across Hamming / Jaccard / edit extractors and the estimator families,
//! these pin down the API's contracts:
//!
//! * `curve(q, θ).last()` equals `estimate(q, θ)` **bit for bit** — sweeping
//!   through a prepared query is the scalar path, just cheaper;
//! * every estimator advertising `is_monotonic()` returns a non-decreasing
//!   curve;
//! * curve-indexed estimators (`threshold_step > 0`) honor the indexing
//!   contract `curve(q, θ).value_at(threshold_step(θ')) == estimate(q, θ')`
//!   for θ' ≤ θ — the property the GPH allocator's single-curve DP relies
//!   on.

use cardest_baselines::{build_db_se, DbUs, MeanEstimator, TlKde};
use cardest_core::estimator::{CardNetEstimator, CardinalityEstimator};
use cardest_core::metrics::ApiCounters;
use cardest_core::model::CardNetConfig;
use cardest_core::train::{train_cardnet, TrainerOptions};
use cardest_data::synth::{ed_aminer, hm_imagenet, jc_bms, SynthConfig};
use cardest_data::{Dataset, Workload};
use cardest_fx::build_extractor;
use proptest::prelude::*;
use std::sync::OnceLock;

struct Fixture {
    ds: Dataset,
    estimators: Vec<Box<dyn CardinalityEstimator>>,
}

/// One fixture per extractor domain (Hamming / Jaccard / edit), each with a
/// quickly trained CardNet plus the cheap-to-build baselines. Built once —
/// proptest cases only sample queries and thresholds.
fn fixtures() -> &'static Vec<Fixture> {
    static FIX: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIX.get_or_init(|| {
        let datasets = vec![
            hm_imagenet(SynthConfig::new(160, 404)),
            jc_bms(SynthConfig::new(160, 405)),
            ed_aminer(SynthConfig::new(160, 406)),
        ];
        datasets
            .into_iter()
            .map(|ds| {
                let fx = build_extractor(&ds, 10, 1);
                let split = Workload::sample_from(&ds, 0.25, 6, 2).split(3);
                let mut cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
                cfg.phi_hidden = vec![16];
                cfg.z_dim = 8;
                cfg = cfg.without_vae();
                let opts = TrainerOptions {
                    epochs: 2,
                    vae_epochs: 0,
                    ..TrainerOptions::quick()
                };
                let (trainer, _) =
                    train_cardnet(fx.as_ref(), &split.train, &split.valid, cfg, opts);
                let estimators: Vec<Box<dyn CardinalityEstimator>> = vec![
                    Box::new(CardNetEstimator::from_trainer(fx, trainer)),
                    Box::new(DbUs::build(&ds, 0.3, 7)),
                    build_db_se(&ds, 8),
                    Box::new(TlKde::build(&ds, 0.2, 9)),
                    Box::new(MeanEstimator::build(&split.train, ds.theta_max, 16)),
                ];
                Fixture { ds, estimators }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn curves_are_monotone_and_bit_identical_to_estimates(
        kind in 0usize..3,
        qi in 0usize..160,
        frac in 0.0f64..=1.0,
        frac2 in 0.0f64..=1.0,
    ) {
        let fixture = &fixtures()[kind];
        let ds = &fixture.ds;
        let q = &ds.records[qi % ds.len()];
        let theta = ds.theta_max * frac;
        for est in &fixture.estimators {
            let prepared = est.prepare(q);
            let curve = est.curve(&prepared, theta);
            let scalar = est.estimate(q, theta);
            prop_assert_eq!(
                curve.last().to_bits(),
                scalar.to_bits(),
                "{} on {}: curve end {} != estimate {} at θ={}",
                est.name(), ds.name, curve.last(), scalar, theta
            );
            prop_assert_eq!(
                est.estimate_prepared(&prepared, theta).to_bits(),
                scalar.to_bits(),
                "{} on {}: estimate_prepared diverged at θ={}",
                est.name(), ds.name, theta
            );
            if est.is_monotonic() {
                prop_assert!(
                    curve.is_non_decreasing(),
                    "{} on {}: monotone estimator produced a dipping curve at θ={}: {:?}",
                    est.name(), ds.name, theta, curve.values()
                );
            }
            let steps = est.threshold_step(theta);
            if steps > 0 {
                prop_assert_eq!(
                    curve.len(), steps + 1,
                    "{} on {}: curve has {} points for step {}",
                    est.name(), ds.name, curve.len(), steps
                );
                // Indexing contract at an arbitrary smaller threshold.
                let theta2 = theta * frac2;
                prop_assert_eq!(
                    curve.value_at(est.threshold_step(theta2)).to_bits(),
                    est.estimate(q, theta2).to_bits(),
                    "{} on {}: curve index at θ'={} (θ={}) diverged",
                    est.name(), ds.name, theta2, theta
                );
            }
        }
    }
}

#[test]
fn estimate_batch_matches_scalars_for_every_estimator() {
    for fixture in fixtures() {
        let ds = &fixture.ds;
        // Ragged thresholds in descending order: a θ above θ_max (clamped to
        // τ_max) first, θ = 0 last, and query 0 again at a smaller θ.
        let picks = [0, 25, 50, 75, 0, 100, 125];
        let fracs = [1.5, 1.0, 0.8, 0.6, 0.4, 0.2, 0.0];
        let queries: Vec<_> = picks.iter().map(|&i| ds.records[i].clone()).collect();
        let thetas: Vec<f64> = fracs.iter().map(|f| ds.theta_max * f).collect();
        for est in &fixture.estimators {
            let prepared: Vec<_> = queries.iter().map(|q| est.prepare(q)).collect();
            let refs: Vec<_> = prepared.iter().collect();
            let batch = est.estimate_batch(&refs, &thetas);
            assert_eq!(batch.len(), queries.len());
            for ((q, &theta), got) in queries.iter().zip(&thetas).zip(&batch) {
                let want = est.estimate(q, theta);
                assert_eq!(
                    got.value.to_bits(),
                    want.to_bits(),
                    "{} on {} θ={theta}",
                    est.name(),
                    ds.name
                );
                assert!(got.lo <= got.value && got.value <= got.hi);
            }
            if est.name() == "CardNet" {
                // Bit-identity cannot see a batch that embeds all n_out
                // distances and reads only each row's prefix; the counters
                // can. τ = {0, 5} is 1 + 6 decoder rows.
                let theta_at = |tau: usize| {
                    (0..=1000)
                        .map(|s| ds.theta_max * f64::from(s) / 1000.0)
                        .find(|&t| est.threshold_step(t) == tau)
                        .expect("a θ for this τ")
                };
                let before = ApiCounters::snapshot();
                let _ = est.estimate_batch(&refs[..2], &[theta_at(0), theta_at(5)]);
                let delta = ApiCounters::snapshot().delta_since(&before);
                assert_eq!(delta.encoder_passes, 1, "{}", ds.name);
                assert_eq!(delta.decoder_calls, 1 + 6, "{}", ds.name);
            }
        }
    }
}
