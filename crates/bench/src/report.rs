//! Accuracy/timing evaluation and paper-shaped table printing.

use cardest_core::CardinalityEstimator;
use cardest_data::metrics::Accuracy;
use cardest_data::Workload;
use std::time::Instant;

/// Evaluates an estimator over a test workload: one `(query, θ)` pair per
/// grid cell, like the paper's test protocol. Each query is `prepare`d once
/// and swept across the threshold grid through the prepared-query API —
/// feature extraction and encoding happen once per query, not once per grid
/// cell — with values bit-identical to per-cell `estimate` calls.
pub fn evaluate(est: &dyn CardinalityEstimator, test: &Workload) -> Accuracy {
    let cells = test.queries.len() * test.thresholds.len();
    let mut actual = Vec::with_capacity(cells);
    let mut predicted = Vec::with_capacity(cells);
    for lq in &test.queries {
        let prepared = est.prepare(&lq.query);
        for (&theta, &c) in test.thresholds.iter().zip(&lq.cards) {
            actual.push(f64::from(c));
            predicted.push(est.estimate_prepared(&prepared, theta).max(0.0));
        }
    }
    Accuracy::compute(&actual, &predicted)
}

/// Evaluates only at one fixed threshold (the per-threshold sweeps of
/// Figure 5). `grid_index` selects the threshold from the grid.
pub fn evaluate_at(est: &dyn CardinalityEstimator, test: &Workload, grid_index: usize) -> Accuracy {
    let theta = test.thresholds[grid_index];
    let mut actual = Vec::new();
    let mut predicted = Vec::new();
    for lq in &test.queries {
        actual.push(f64::from(lq.cards[grid_index]));
        predicted.push(est.estimate(&lq.query, theta).max(0.0));
    }
    Accuracy::compute(&actual, &predicted)
}

/// Per-query actual/estimated pairs at the maximum threshold — the input for
/// the long-tail (Figure 9) and generalizability (Figure 10) groupings.
pub fn per_query_pairs(est: &dyn CardinalityEstimator, test: &Workload) -> (Vec<f64>, Vec<f64>) {
    let last = test.thresholds.len() - 1;
    let theta = test.thresholds[last];
    let mut actual = Vec::with_capacity(test.len());
    let mut predicted = Vec::with_capacity(test.len());
    for lq in &test.queries {
        actual.push(f64::from(lq.cards[last]));
        predicted.push(est.estimate(&lq.query, theta).max(0.0));
    }
    (actual, predicted)
}

/// Average per-query estimation latency in milliseconds (Table 6 protocol:
/// one query at a time, in memory).
pub fn avg_estimation_ms(est: &dyn CardinalityEstimator, test: &Workload) -> f64 {
    let mut total = 0.0f64;
    let mut n = 0usize;
    for lq in &test.queries {
        for &theta in &test.thresholds {
            let t0 = Instant::now();
            std::hint::black_box(est.estimate(&lq.query, theta));
            total += t0.elapsed().as_secs_f64();
            n += 1;
        }
    }
    total / n.max(1) as f64 * 1e3
}

/// Prints a table header: `Model` + one column per dataset.
pub fn print_header(title: &str, datasets: &[String]) {
    println!("\n## {title}");
    print!("{:<12}", "Model");
    for d in datasets {
        print!(" {d:>14}");
    }
    println!();
    println!("{}", "-".repeat(12 + 15 * datasets.len()));
}

/// Prints one row of numeric cells.
pub fn print_row(model: &str, cells: &[f64]) {
    print!("{model:<12}");
    for &c in cells {
        print!(" {:>14}", format_cell(c));
    }
    println!();
}

/// Compact numeric formatting: integers below 10⁶, scientific above,
/// 2–3 significant decimals below 100.
pub fn format_cell(v: f64) -> String {
    if !v.is_finite() {
        return "-".into();
    }
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if a >= 1e6 {
        format!("{v:.2e}")
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_data::synth::{hm_imagenet, SynthConfig};
    use cardest_data::{Dataset, Record};

    struct Oracle<'a>(&'a Dataset);
    impl CardinalityEstimator for Oracle<'_> {
        fn estimate(&self, q: &Record, theta: f64) -> f64 {
            self.0.cardinality_scan(q, theta) as f64
        }
        fn name(&self) -> String {
            "Exact".into()
        }
        fn size_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn oracle_evaluates_perfectly() {
        let ds = hm_imagenet(SynthConfig::new(120, 3));
        let wl = Workload::sample_from(&ds, 0.2, 6, 1);
        let acc = evaluate(&Oracle(&ds), &wl);
        assert_eq!(acc.mse, 0.0);
        assert_eq!(acc.mean_q_error, 1.0);
        let acc1 = evaluate_at(&Oracle(&ds), &wl, 3);
        assert_eq!(acc1.mse, 0.0);
    }

    #[test]
    fn formatting_covers_ranges() {
        assert_eq!(format_cell(0.0), "0");
        assert_eq!(format_cell(4.63391), "4.63");
        assert_eq!(format_cell(1234.0), "1234");
        assert!(format_cell(2.5e7).contains('e'));
        assert_eq!(format_cell(0.0314), "0.0314");
        assert_eq!(format_cell(f64::NAN), "-");
    }

    #[test]
    fn timing_is_positive() {
        let ds = hm_imagenet(SynthConfig::new(60, 4));
        let wl = Workload::sample_from(&ds, 0.2, 4, 2);
        let ms = avg_estimation_ms(&Oracle(&ds), &wl);
        assert!(ms > 0.0);
    }
}
