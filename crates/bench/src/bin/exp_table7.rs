//! Table 7: component ablations. For each component C the paper reports
//! `γ_ξ = (ξ(CardNet−C) − ξ(CardNet)) / ξ(CardNet−C)` — the share of the
//! error that the component removes (positive = component helps).
//!
//! Components: feature extraction (replaced by raw/naive encodings),
//! incremental prediction (replaced by direct cumulative regression),
//! the VAE (removed), and dynamic training (λ_Δ term removed).
//!
//! Beside each γ ratio it prints the mean q-error of the full model and of
//! the ablated one: at quick scale the ratios swing with the trainer seed
//! far more than the q-errors they come from, so a training change is
//! checked against the raw values.

use cardest_bench::report::evaluate;
use cardest_bench::zoo::{cardnet_config, trainer_options};
use cardest_bench::{Bundle, Scale};
use cardest_core::estimator::{CardNetEstimator, CardinalityEstimator};
use cardest_core::train::train_cardnet;
use cardest_data::metrics::Accuracy;
use cardest_fx::{build_extractor, naive_extractor};

#[derive(Clone, Copy)]
enum Variant {
    Full,
    NoFx,
    NoIncremental,
    NoVae,
    NoDynamic,
}

fn train_variant(
    b: &Bundle,
    scale: &Scale,
    variant: Variant,
    accelerated: bool,
) -> Box<dyn CardinalityEstimator> {
    let fx_seed = scale.seed ^ 0xF0;
    let fx = match variant {
        Variant::NoFx => naive_extractor(&b.dataset, scale.tau_max, fx_seed),
        _ => build_extractor(&b.dataset, scale.tau_max, fx_seed),
    };
    let mut cfg = cardnet_config(fx.dim(), fx.tau_max() + 1, accelerated);
    let mut opts = trainer_options(scale);
    match variant {
        Variant::NoIncremental => cfg = cfg.without_incremental(),
        Variant::NoVae => cfg = cfg.without_vae(),
        Variant::NoDynamic => opts.dynamic = false,
        _ => {}
    }
    let (trainer, _) = train_cardnet(fx.as_ref(), &b.split.train, &b.split.valid, cfg, opts);
    Box::new(CardNetEstimator::from_trainer(fx, trainer))
}

fn gamma(full: f64, ablated: f64) -> f64 {
    if ablated <= 0.0 {
        return 0.0;
    }
    (ablated - full) / ablated
}

fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "# exp_table7 (Table 7 ablations), scale = {}",
        scale.label()
    );
    let bundles = Bundle::default_four(&scale);

    println!("\n## Table 7: component ablation γ ratios (positive = component helps)");
    println!(
        "{:<14} {:<10} {:>10} {:>12} {:>8} {:>9} {:>9} {:>10}",
        "Dataset", "Variant", "γ_MSE", "γ_MAPE", "γ_q", "q(full)", "q(−C)", "(model)"
    );
    for accelerated in [false, true] {
        let model_name = if accelerated { "CardNet-A" } else { "CardNet" };
        for b in &bundles {
            let full = evaluate(
                train_variant(b, &scale, Variant::Full, accelerated).as_ref(),
                &b.split.test,
            );
            let variants: [(&str, Variant); 4] = [
                ("FeatureExt", Variant::NoFx),
                ("Incremental", Variant::NoIncremental),
                ("VAE", Variant::NoVae),
                ("DynTrain", Variant::NoDynamic),
            ];
            for (name, v) in variants {
                // The paper skips the HM feature-extraction cell (identity).
                if matches!(v, Variant::NoFx)
                    && b.dataset.kind == cardest_data::DistanceKind::Hamming
                {
                    continue;
                }
                let ablated: Accuracy = evaluate(
                    train_variant(b, &scale, v, accelerated).as_ref(),
                    &b.split.test,
                );
                println!(
                    "{:<14} {:<10} {:>9.0}% {:>11.0}% {:>7.0}% {:>9.3} {:>9.3} {:>10}",
                    b.dataset.name,
                    name,
                    100.0 * gamma(full.mse, ablated.mse),
                    100.0 * gamma(full.mape, ablated.mape),
                    100.0 * gamma(full.mean_q_error - 1.0, ablated.mean_q_error - 1.0),
                    full.mean_q_error,
                    ablated.mean_q_error,
                    model_name,
                );
            }
        }
    }
}
