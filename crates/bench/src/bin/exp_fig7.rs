//! Figure 7: MSE vs. training-set fraction (20%–100%) on the four default
//! datasets. The paper's finding: all models degrade with less data, but
//! CardNet{-A} degrades the most gracefully.

#![forbid(unsafe_code)]

use cardest_bench::report::{evaluate, print_header, print_row};
use cardest_bench::zoo::{train_model, ModelKind};
use cardest_bench::{Bundle, Scale};

fn main() {
    let scale = Scale::from_env();
    eprintln!("# exp_fig7 (Figure 7), scale = {}", scale.label());
    // Fewer fractions and the lighter models keep the sweep tractable: the
    // paper's five-point sweep over six models is 120 trainings per run.
    let fractions = [0.2, 0.6, 1.0];
    let subset = [
        ModelKind::CardNetA,
        ModelKind::TlXgb,
        ModelKind::DlRmi,
        ModelKind::DlMoe,
    ];
    for b in Bundle::default_four(&scale) {
        let cols: Vec<String> = fractions
            .iter()
            .map(|f| format!("{:.0}%", f * 100.0))
            .collect();
        print_header(&format!("Figure 7 MSE — {}", b.dataset.name), &cols);
        for &kind in &subset {
            let row: Vec<f64> = fractions
                .iter()
                .map(|&f| {
                    let train = b.split.train.truncate_fraction(f);
                    let m = train_model(kind, &b.dataset, &train, &b.split.valid, &scale);
                    evaluate(m.estimator.as_ref(), &b.split.test).mse
                })
                .collect();
            print_row(kind.label(), &row);
        }
    }
}
