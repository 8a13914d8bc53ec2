//! Tables 13–16: workload-construction robustness (§9.12).
//!
//! Table 13 reports cluster sizes per dataset; Tables 14–16 report MSE for
//! three train/test policy combinations: trained on a single uniform sample
//! and tested on multiple uniform samples; trained and tested on multiple
//! uniform samples; and trained on a single *skewed* sample (uniform over
//! k-medoids clusters) while testing on multiple uniform samples.

#![forbid(unsafe_code)]

use cardest_bench::report::{evaluate, print_header, print_row};
use cardest_bench::zoo::{train_model, ModelKind};
use cardest_bench::{Bundle, Scale};
use cardest_data::sampling::{draw_queries, Clustering, SamplingPolicy};
use cardest_data::Workload;

fn labelled(
    ds: &cardest_data::Dataset,
    scale: &Scale,
    policy: SamplingPolicy,
    n: usize,
    seed: u64,
) -> Workload {
    let queries = draw_queries(ds, n, policy, seed);
    let grid = Workload::uniform_grid(ds.theta_max, scale.n_thresholds);
    Workload::label(ds, queries, grid)
}

fn main() {
    let scale = Scale::from_env();
    eprintln!("# exp_sampling (Tables 13-16), scale = {}", scale.label());
    let bundles = Bundle::default_four(&scale);
    let names: Vec<String> = bundles.iter().map(|b| b.dataset.name.clone()).collect();
    let subset = [
        ModelKind::CardNetA,
        ModelKind::DlRmi,
        ModelKind::TlXgb,
        ModelKind::DbUs,
    ];
    let k = 8usize;

    // Table 13: cluster sizes.
    print_header("Table 13: records per k-medoids cluster (sorted)", &names);
    let mut size_rows: Vec<Vec<f64>> = vec![Vec::new(); k];
    for b in &bundles {
        let cl = Clustering::cluster(&b.dataset, k, scale.seed ^ 0x13);
        let mut sizes = cl.cluster_sizes(k);
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        for (i, s) in sizes.into_iter().enumerate() {
            size_rows[i].push(s as f64);
        }
    }
    for (i, row) in size_rows.iter().enumerate() {
        print_row(&format!("cluster {}", i + 1), row);
    }

    let n_queries = |b: &Bundle| b.split.train.len() + b.split.valid.len() + b.split.test.len();

    // The three policy combinations.
    let combos: [(&str, SamplingPolicy); 3] = [
        (
            "Table 14: train single-uniform, test multi-uniform",
            SamplingPolicy::SingleUniform,
        ),
        (
            "Table 15: train multi-uniform, test multi-uniform",
            SamplingPolicy::MultipleUniform { samples: 5 },
        ),
        (
            "Table 16: train single-skewed, test multi-uniform",
            SamplingPolicy::SingleSkewed { clusters: k },
        ),
    ];
    for (title, train_policy) in combos {
        print_header(&format!("{title} (MSE)"), &names);
        for &kind in &subset {
            let mut cells = Vec::new();
            for b in &bundles {
                let n = n_queries(b);
                let train_wl =
                    labelled(&b.dataset, &scale, train_policy, n * 8 / 10, scale.seed + 1);
                let valid_wl = labelled(&b.dataset, &scale, train_policy, n / 10, scale.seed + 2);
                let test_wl = labelled(
                    &b.dataset,
                    &scale,
                    SamplingPolicy::MultipleUniform { samples: 5 },
                    n / 10,
                    scale.seed + 3,
                );
                let m = train_model(kind, &b.dataset, &train_wl, &valid_wl, &scale);
                cells.push(evaluate(m.estimator.as_ref(), &test_wl).mse);
            }
            print_row(kind.label(), &cells);
        }
    }
    println!("\nShape check: CardNet-A stays best under every policy (paper §9.12).");
}
