//! Figures 9 and 10: long-tail queries and out-of-dataset generalizability.
//!
//! * Figure 9 groups *test* queries by actual cardinality and reports MSE per
//!   group — the long tail (huge balls) is the hard case.
//! * Figure 10 generates adversarial out-of-dataset queries (random records
//!   far from every k-medoids centroid, §9.10) and reports MSE per
//!   cardinality group.
//!
//! Models are trained once per dataset and reused for both figures.

use cardest_bench::report::{per_query_pairs, print_header, print_row};
use cardest_bench::zoo::{train_model, ModelKind};
use cardest_bench::{Bundle, Scale};
use cardest_data::metrics;
use cardest_data::sampling::{cardinality_groups, out_of_dataset_queries, Clustering};
use cardest_data::Workload;

fn grouped_mse(actual: &[f64], pred: &[f64], width: f64, n_groups: usize) -> Vec<f64> {
    let groups = cardinality_groups(actual, width, n_groups);
    groups
        .iter()
        .map(|idx| {
            if idx.is_empty() {
                return f64::NAN;
            }
            let a: Vec<f64> = idx.iter().map(|&i| actual[i]).collect();
            let p: Vec<f64> = idx.iter().map(|&i| pred[i]).collect();
            metrics::mse(&a, &p)
        })
        .collect()
}

fn group_width(wl: &Workload) -> f64 {
    let max_card = wl
        .queries
        .iter()
        .map(|q| *q.cards.last().expect("non-empty curve"))
        .max()
        .unwrap_or(1) as f64;
    (max_card / 4.0).max(1.0)
}

fn main() {
    let scale = Scale::from_env();
    eprintln!("# exp_fig9_10 (Figures 9 & 10), scale = {}", scale.label());
    for b in Bundle::default_four(&scale) {
        // Train the comparison subset once.
        let models: Vec<_> = ModelKind::figure_subset()
            .iter()
            .map(|&k| train_model(k, &b.dataset, &b.split.train, &b.split.valid, &scale))
            .collect();

        // Figure 9: long-tail grouping of the in-distribution test set.
        let width = group_width(&b.split.test);
        let cols: Vec<String> = (0..4)
            .map(|g| format!("[{:.0},{:.0})", g as f64 * width, (g + 1) as f64 * width))
            .collect();
        print_header(
            &format!("Figure 9 MSE by cardinality group — {}", b.dataset.name),
            &cols,
        );
        for m in &models {
            let (actual, pred) = per_query_pairs(m.estimator.as_ref(), &b.split.test);
            print_row(m.kind.label(), &grouped_mse(&actual, &pred, width, 4));
        }

        // Figure 10: out-of-dataset queries against the same trained models.
        let clustering = Clustering::cluster(&b.dataset, 8, scale.seed ^ 0xA0);
        let n_ood = (b.split.test.len()).clamp(20, 100);
        let ood =
            out_of_dataset_queries(&b.dataset, &clustering, n_ood * 3, n_ood, scale.seed ^ 0xA1);
        let ood_wl = Workload::label(&b.dataset, ood, b.split.test.thresholds.clone());
        let ood_width = group_width(&ood_wl);
        let ood_cols: Vec<String> = (0..4)
            .map(|g| {
                format!(
                    "[{:.0},{:.0})",
                    g as f64 * ood_width,
                    (g + 1) as f64 * ood_width
                )
            })
            .collect();
        print_header(
            &format!("Figure 10 MSE, out-of-dataset queries — {}", b.dataset.name),
            &ood_cols,
        );
        for m in &models {
            let (actual, pred) = per_query_pairs(m.estimator.as_ref(), &ood_wl);
            print_row(m.kind.label(), &grouped_mse(&actual, &pred, ood_width, 4));
        }
    }
}
