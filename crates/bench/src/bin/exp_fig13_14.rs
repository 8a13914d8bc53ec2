//! Figures 13 and 14: the GPH Hamming-distance query optimizer.
//!
//! Figure 13 sweeps the threshold and reports per-estimator query processing
//! time split into threshold allocation (which includes estimation) and
//! lookup + verification. Figure 14 fixes θ and sweeps the histogram's size
//! to show CardNet-A beating even a large histogram.

#![forbid(unsafe_code)]

use cardest_baselines::db_se::GroupHistogram;
use cardest_baselines::MeanEstimator;
use cardest_bench::zoo::{cardnet_config, trainer_options};
use cardest_bench::Scale;
use cardest_core::estimator::{CardNetEstimator, CardinalityEstimator};
use cardest_core::train::train_cardnet;
use cardest_data::synth::{hm_imagenet, SynthConfig};
use cardest_data::{Dataset, Workload};
use cardest_fx::build_extractor;
use cardest_qopt::gph::{EstimatorPartCost, ExactPartCost, GphProcessor, PartCostModel};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Trains one estimator per part dataset and wraps it as a part-cost model.
fn estimator_cost(
    parts: &[Dataset],
    scale: &Scale,
    label: &str,
    build: impl Fn(&Dataset, &cardest_data::WorkloadSplit) -> Box<dyn CardinalityEstimator>,
) -> EstimatorPartCost {
    let per_part = parts
        .iter()
        .map(|pds| {
            // Per-part models see the full workload fraction the main
            // estimators get: a starved part model mis-allocates thresholds.
            let wl = Workload::sample_from(pds, 0.15, 12, scale.seed + 3);
            let split = wl.split(scale.seed + 4);
            build(pds, &split)
        })
        .collect();
    EstimatorPartCost {
        per_part,
        label: label.into(),
    }
}

fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "# exp_fig13_14 (Figures 13 & 14), scale = {}",
        scale.label()
    );
    let ds = hm_imagenet(SynthConfig::new(scale.n_records.min(4000), scale.seed + 50));
    // Four parts leave the allocator real freedom (2 parts have a near-empty
    // DP budget, so every cost model would pick the same allocation).
    let proc = GphProcessor::build(&ds, 4);
    let part_datasets = proc.part_datasets(&ds);

    let exact = ExactPartCost { index: &proc.index };
    let hist = estimator_cost(&part_datasets, &scale, "Histogram", |pds, _| {
        Box::new(GroupHistogram::build(pds))
    });
    let mean = estimator_cost(&part_datasets, &scale, "Mean", |pds, split| {
        Box::new(MeanEstimator::build(&split.train, pds.theta_max, 33))
    });
    let cardnet = estimator_cost(&part_datasets, &scale, "CardNet-A", |pds, split| {
        let fx = build_extractor(pds, scale.tau_max, scale.seed ^ 0xF0);
        let cfg = cardnet_config(fx.dim(), fx.tau_max() + 1, true);
        let (t, _) = train_cardnet(
            fx.as_ref(),
            &split.train,
            &split.valid,
            cfg,
            trainer_options(&scale),
        );
        Box::new(CardNetEstimator::from_trainer(fx, t))
    });
    let models: Vec<&dyn PartCostModel> = vec![&exact, &cardnet, &hist, &mean];

    let mut rng = rand::rngs::StdRng::seed_from_u64(scale.seed ^ 0x1313);
    let mut qidx: Vec<usize> = (0..ds.len()).collect();
    qidx.shuffle(&mut rng);
    let queries: Vec<_> = qidx[..200.min(ds.len())]
        .iter()
        .map(|&i| ds.records[i].clone())
        .collect();

    println!("\n## Figure 13 — GPH total processing time (s per 200 queries)");
    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "Estimator", "θ", "alloc (s)", "process (s)", "total (s)", "candidates"
    );
    for model in &models {
        for theta in [4u32, 8, 12, 16] {
            let mut alloc_s = 0.0;
            let mut proc_s = 0.0;
            let mut candidates = 0usize;
            for q in &queries {
                let out = proc.process(&ds, q, theta, *model);
                alloc_s += out.allocation_secs;
                proc_s += out.processing_secs;
                candidates += out.candidates;
            }
            println!(
                "{:<12} {:>8} {:>12.4} {:>12.4} {:>12.4} {:>12}",
                model.name(),
                theta,
                alloc_s,
                proc_s,
                alloc_s + proc_s,
                candidates
            );
        }
    }

    // Figure 14: θ fixed at 50% of max; histogram size sweep via group width.
    println!("\n## Figure 14 — histogram size vs time (θ=10), CardNet-A as reference");
    println!(
        "{:<24} {:>12} {:>12}",
        "Cost model", "size (B)", "total (s)"
    );
    let theta = 10u32;
    let run_total = |model: &dyn PartCostModel| -> f64 {
        queries
            .iter()
            .map(|q| {
                let o = proc.process(&ds, q, theta, model);
                o.allocation_secs + o.processing_secs
            })
            .sum()
    };
    println!(
        "{:<24} {:>12} {:>12.4}",
        "CardNet-A",
        cardnet.size_bytes(),
        run_total(&cardnet)
    );
    println!(
        "{:<24} {:>12} {:>12.4}",
        "Histogram(8-bit groups)",
        hist.size_bytes(),
        run_total(&hist)
    );
    println!(
        "{:<24} {:>12} {:>12.4}",
        "Mean",
        mean.size_bytes(),
        run_total(&mean)
    );
    println!(
        "{:<24} {:>12} {:>12.4}",
        "Exact(oracle)",
        0,
        run_total(&exact)
    );
}
