//! Figure 6 / Table 8: accuracy as a function of the number of decoders
//! (τ_max + 1), on higher-dimensional datasets. The paper's finding: too few
//! decoders make the extraction lossy; too many add non-increasing points
//! that are hard to learn — the sweet spot sits in between.

#![forbid(unsafe_code)]

use cardest_bench::report::evaluate;
use cardest_bench::zoo::{cardnet_config, trainer_options};
use cardest_bench::{Bundle, Scale};
use cardest_core::estimator::CardNetEstimator;
use cardest_core::train::train_cardnet;
use cardest_data::synth::{ed_dblp, hm_highdim, jc_dblpq3, SynthConfig};
use cardest_fx::build_extractor;

fn main() {
    let scale = Scale::from_env();
    eprintln!("# exp_fig6 (Figure 6 / Table 8), scale = {}", scale.label());
    let datasets = vec![
        hm_highdim(
            SynthConfig::new(scale.n_records, scale.seed + 20),
            256,
            64.0,
        ),
        ed_dblp(SynthConfig::new(scale.n_records, scale.seed + 21)),
        jc_dblpq3(SynthConfig::new(scale.n_records, scale.seed + 22)),
    ];
    for ds in datasets {
        let name = ds.name.clone();
        let b = Bundle::prepare(ds, &scale);
        println!("\n## Figure 6 — {name} (CardNet-A accuracy vs decoder count)");
        println!(
            "{:<10} {:>12} {:>12} {:>10}",
            "Decoders", "MSE", "MAPE(%)", "q-error"
        );
        for tau_max in [4usize, 8, 16, 24, 32] {
            let fx = build_extractor(&b.dataset, tau_max, scale.seed ^ 0xF0);
            let cfg = cardnet_config(fx.dim(), fx.tau_max() + 1, true);
            let n_dec = fx.tau_max() + 1;
            let (trainer, _) = train_cardnet(
                fx.as_ref(),
                &b.split.train,
                &b.split.valid,
                cfg,
                trainer_options(&scale),
            );
            let est = CardNetEstimator::from_trainer(fx, trainer);
            let acc = evaluate(&est, &b.split.test);
            println!(
                "{n_dec:<10} {:>12.1} {:>12.2} {:>10.3}",
                acc.mse, acc.mape, acc.mean_q_error
            );
        }
    }
}
