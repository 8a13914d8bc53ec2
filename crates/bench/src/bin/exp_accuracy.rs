//! Tables 3, 4, and 5: MSE / MAPE / mean q-error of every model on the eight
//! dataset stand-ins.
//!
//! ```text
//! CARDEST_SCALE=quick cargo run --release -p cardest-bench --bin exp_accuracy
//! ```

use cardest_bench::report::{evaluate, print_header, print_row};
use cardest_bench::zoo::{train_model, ModelKind};
use cardest_bench::{Bundle, Scale};

fn main() {
    let scale = Scale::from_env();
    eprintln!("# exp_accuracy (Tables 3/4/5), scale = {}", scale.label());
    let bundles = Bundle::default_suite(&scale);
    let names: Vec<String> = bundles.iter().map(|b| b.dataset.name.clone()).collect();

    // rows[model] = per-dataset accuracy.
    let mut rows = Vec::new();
    for &kind in ModelKind::all() {
        let mut accs = Vec::new();
        for b in &bundles {
            let model = train_model(kind, &b.dataset, &b.split.train, &b.split.valid, &scale);
            let acc = evaluate(model.estimator.as_ref(), &b.split.test);
            eprintln!(
                "  {:<10} {:<14} mse={:.1} mape={:.1}% q={:.2} ({:.1}s train)",
                kind.label(),
                b.dataset.name,
                acc.mse,
                acc.mape,
                acc.mean_q_error,
                model.train_secs
            );
            accs.push(acc);
        }
        rows.push((kind, accs));
    }

    print_header("Table 3: MSE", &names);
    for (kind, accs) in &rows {
        print_row(
            kind.label(),
            &accs.iter().map(|a| a.mse).collect::<Vec<_>>(),
        );
    }
    print_header("Table 4: MAPE (%)", &names);
    for (kind, accs) in &rows {
        print_row(
            kind.label(),
            &accs.iter().map(|a| a.mape).collect::<Vec<_>>(),
        );
    }
    print_header("Table 5: mean q-error", &names);
    for (kind, accs) in &rows {
        print_row(
            kind.label(),
            &accs.iter().map(|a| a.mean_q_error).collect::<Vec<_>>(),
        );
    }

    // The headline check of the paper: CardNet{-A} should win on (nearly)
    // every dataset.
    let card_best: Vec<f64> = (0..names.len())
        .map(|d| {
            rows.iter()
                .filter(|(k, _)| matches!(k, ModelKind::CardNet | ModelKind::CardNetA))
                .map(|(_, a)| a[d].mean_q_error)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let other_best: Vec<f64> = (0..names.len())
        .map(|d| {
            rows.iter()
                .filter(|(k, _)| !matches!(k, ModelKind::CardNet | ModelKind::CardNetA))
                .map(|(_, a)| a[d].mean_q_error)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let wins = card_best
        .iter()
        .zip(&other_best)
        .filter(|(c, o)| c <= o)
        .count();
    println!(
        "\nCardNet{{-A}} best-q-error wins: {wins}/{} datasets",
        names.len()
    );
}
