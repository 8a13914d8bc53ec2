//! Figure 8: handling updates. A stream of 200 operations (each inserting or
//! deleting 5 records) is applied; three strategies are compared on MSE over
//! the stream: `IncLearn` (incremental learning, §8), `Retrain` (full
//! retraining at checkpoints), and `+Sample` (the stale model plus a
//! sampling-based correction on the delta).

use cardest_bench::report::evaluate;
use cardest_bench::zoo::{cardnet_config, trainer_options};
use cardest_bench::{Bundle, Scale};
use cardest_core::estimator::{CardNetEstimator, CardinalityEstimator};
use cardest_core::incremental::IncrementalLearner;
use cardest_core::train::train_cardnet;
use cardest_data::{Dataset, Record};
use cardest_fx::build_extractor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `+Sample`: the original model's estimate plus a uniform-sample estimate of
/// the *delta* between the updated and original datasets.
struct PlusSample<'a> {
    base: &'a CardNetEstimator,
    added: Vec<Record>,
    removed: Vec<Record>,
    distance: cardest_data::Distance,
}

impl CardinalityEstimator for PlusSample<'_> {
    fn estimate(&self, query: &Record, theta: f64) -> f64 {
        let plus = self
            .added
            .iter()
            .filter(|r| self.distance.eval_within(query, r, theta).is_some())
            .count() as f64;
        let minus = self
            .removed
            .iter()
            .filter(|r| self.distance.eval_within(query, r, theta).is_some())
            .count() as f64;
        (self.base.estimate(query, theta) + plus - minus).max(0.0)
    }

    fn name(&self) -> String {
        "+Sample".into()
    }

    fn size_bytes(&self) -> usize {
        self.base.size_bytes()
    }
}

fn apply_ops(
    ds: &mut Dataset,
    rng: &mut StdRng,
    added: &mut Vec<Record>,
    removed: &mut Vec<Record>,
) {
    // One operation: insert or delete 5 records.
    if rng.gen_bool(0.5) {
        for _ in 0..5 {
            let mut bits = ds.records[rng.gen_range(0..ds.len())].as_bits().clone();
            for _ in 0..2 {
                bits.flip(rng.gen_range(0..bits.len()));
            }
            let r = Record::Bits(bits);
            added.push(r.clone());
            ds.records.push(r);
        }
    } else {
        for _ in 0..5 {
            if ds.len() > 100 {
                let r = ds.records.swap_remove(rng.gen_range(0..ds.len()));
                removed.push(r);
            }
        }
    }
}

fn main() {
    let scale = Scale::from_env();
    eprintln!("# exp_fig8 (Figure 8 updates), scale = {}", scale.label());
    let bundles = vec![Bundle::default_four(&scale).remove(0)];
    let n_ops = 200usize;
    let checkpoints = [0usize, 50, 100, 150, 200];

    for b in bundles {
        let mut ds = b.dataset.clone();
        let fx = build_extractor(&ds, scale.tau_max, scale.seed ^ 0xF0);
        let cfg = cardnet_config(fx.dim(), fx.tau_max() + 1, true);
        let (trainer, _) = train_cardnet(
            fx.as_ref(),
            &b.split.train,
            &b.split.valid,
            cfg.clone(),
            trainer_options(&scale),
        );
        // IncLearn path owns a trainer; +Sample keeps a frozen clone.
        let fx2 = build_extractor(&ds, scale.tau_max, scale.seed ^ 0xF0);
        let (frozen_trainer, _) = train_cardnet(
            fx2.as_ref(),
            &b.split.train,
            &b.split.valid,
            cfg.clone(),
            trainer_options(&scale),
        );
        let frozen = CardNetEstimator::from_trainer(fx2, frozen_trainer);
        let mut learner = IncrementalLearner::new(
            trainer,
            b.split.train.clone(),
            b.split.valid.clone(),
            fx.as_ref(),
        );

        let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xD0);
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let mut inc_secs = 0.0f64;
        let mut retrain_secs = 0.0f64;

        println!("\n## Figure 8 — {} (MSE over the update stream)", ds.name);
        println!(
            "{:<8} {:>12} {:>12} {:>12}",
            "Ops", "IncLearn", "Retrain", "+Sample"
        );
        for op in 0..=n_ops {
            if op > 0 {
                apply_ops(&mut ds, &mut rng, &mut added, &mut removed);
            }
            if !checkpoints.contains(&op) {
                continue;
            }
            // Fresh test labels against the updated dataset.
            let mut test = b.split.test.clone();
            test.relabel(&ds);

            // IncLearn: §8 monitor-and-resume.
            let t0 = std::time::Instant::now();
            learner.on_update(&ds, fx.as_ref());
            inc_secs += t0.elapsed().as_secs_f64();
            let inc_est = CardNetEstimator::from_trainer_ref(fx.as_ref(), &learner.trainer);
            let inc_mse = evaluate(&inc_est, &test).mse;

            // Retrain: from scratch on relabelled data.
            let t1 = std::time::Instant::now();
            let mut train = b.split.train.clone();
            let mut valid = b.split.valid.clone();
            train.relabel(&ds);
            valid.relabel(&ds);
            let fx3 = build_extractor(&ds, scale.tau_max, scale.seed ^ 0xF0);
            let (rt, _) = train_cardnet(
                fx3.as_ref(),
                &train,
                &valid,
                cardnet_config(fx3.dim(), fx3.tau_max() + 1, true),
                trainer_options(&scale),
            );
            retrain_secs += t1.elapsed().as_secs_f64();
            let rt_est = CardNetEstimator::from_trainer(fx3, rt);
            let rt_mse = evaluate(&rt_est, &test).mse;

            // +Sample: frozen model + delta correction.
            let ps = PlusSample {
                base: &frozen,
                added: added.clone(),
                removed: removed.clone(),
                distance: ds.distance(),
            };
            let ps_mse = evaluate(&ps, &test).mse;

            println!("{op:<8} {inc_mse:>12.1} {rt_mse:>12.1} {ps_mse:>12.1}");
        }
        println!(
            "\nCumulative maintenance time: IncLearn {inc_secs:.1}s vs Retrain {retrain_secs:.1}s \
             (paper: minutes vs hours)"
        );
    }
}
