//! Table 6: average estimation time (milliseconds) of every model, plus the
//! time to actually *run* the exact similarity selection (`SimSelect`).

use cardest_bench::report::{avg_estimation_ms, print_header, print_row};
use cardest_bench::zoo::{train_model, ModelKind};
use cardest_bench::{Bundle, Scale};
use cardest_select::build_selector;
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
    eprintln!("# exp_table6 (Table 6), scale = {}", scale.label());
    let bundles = Bundle::default_suite(&scale);
    let names: Vec<String> = bundles.iter().map(|b| b.dataset.name.clone()).collect();

    // SimSelect row: run the real selection algorithm per test query.
    let mut simselect_row = Vec::new();
    for b in &bundles {
        let selector = build_selector(&b.dataset);
        let mut total = 0.0f64;
        let mut n = 0usize;
        for lq in &b.split.test.queries {
            for &theta in &b.split.test.thresholds {
                let t0 = Instant::now();
                std::hint::black_box(selector.count(&lq.query, theta));
                total += t0.elapsed().as_secs_f64();
                n += 1;
            }
        }
        simselect_row.push(total / n.max(1) as f64 * 1e3);
    }

    let mut rows: Vec<(&str, Vec<f64>)> = vec![("SimSelect", simselect_row)];
    for &kind in ModelKind::all() {
        let mut cells = Vec::new();
        for b in &bundles {
            let model = train_model(kind, &b.dataset, &b.split.train, &b.split.valid, &scale);
            cells.push(avg_estimation_ms(model.estimator.as_ref(), &b.split.test));
        }
        eprintln!("  {:<10} done", kind.label());
        rows.push((kind.label(), cells));
    }

    print_header("Table 6: average estimation time (ms)", &names);
    for (label, cells) in &rows {
        print_row(label, cells);
    }

    // Shape checks the paper reports: CardNet-A faster than CardNet and
    // faster than SimSelect.
    let idx = |label: &str| {
        rows.iter()
            .position(|(l, _)| *l == label)
            .expect("row exists")
    };
    let (card, card_a, sim) = (idx("CardNet"), idx("CardNet-A"), idx("SimSelect"));
    let faster_than_card = rows[card_a]
        .1
        .iter()
        .zip(&rows[card].1)
        .filter(|(a, c)| a < c)
        .count();
    let faster_than_sim = rows[card_a]
        .1
        .iter()
        .zip(&rows[sim].1)
        .filter(|(a, s)| a < s)
        .count();
    println!(
        "\nCardNet-A faster than CardNet on {faster_than_card}/{} datasets; \
         faster than SimSelect on {faster_than_sim}/{}",
        names.len(),
        names.len()
    );
}
