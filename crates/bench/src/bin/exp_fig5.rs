//! Figure 5: MSE and MAPE as functions of the query threshold on the four
//! default datasets, for the figure-subset models.

#![forbid(unsafe_code)]

use cardest_bench::report::{evaluate_at, print_header, print_row};
use cardest_bench::zoo::{train_model, ModelKind};
use cardest_bench::{Bundle, Scale};

fn main() {
    let scale = Scale::from_env();
    eprintln!("# exp_fig5 (Figure 5), scale = {}", scale.label());
    for b in Bundle::default_four(&scale) {
        let models: Vec<_> = ModelKind::figure_subset()
            .iter()
            .map(|&k| train_model(k, &b.dataset, &b.split.train, &b.split.valid, &scale))
            .collect();
        let grid = &b.split.test.thresholds;
        let cols: Vec<String> = grid.iter().map(|t| format!("θ={t:.2}")).collect();

        print_header(&format!("Figure 5 MSE — {}", b.dataset.name), &cols);
        for m in &models {
            let row: Vec<f64> = (0..grid.len())
                .map(|gi| evaluate_at(m.estimator.as_ref(), &b.split.test, gi).mse)
                .collect();
            print_row(m.kind.label(), &row);
        }
        print_header(&format!("Figure 5 MAPE (%) — {}", b.dataset.name), &cols);
        for m in &models {
            let row: Vec<f64> = (0..grid.len())
                .map(|gi| evaluate_at(m.estimator.as_ref(), &b.split.test, gi).mape)
                .collect();
            print_row(m.kind.label(), &row);
        }
    }
}
