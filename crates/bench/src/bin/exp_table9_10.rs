//! Tables 9 and 10: model sizes (bytes) and training times (seconds) on the
//! four default datasets. (The paper reports MB and hours at 1M+ records;
//! relative ordering is the reproduced shape.)

use cardest_bench::report::{print_header, print_row};
use cardest_bench::zoo::{train_model, ModelKind};
use cardest_bench::{Bundle, Scale};

fn main() {
    let scale = Scale::from_env();
    eprintln!("# exp_table9_10 (Tables 9 & 10), scale = {}", scale.label());
    let bundles = Bundle::default_four(&scale);
    let names: Vec<String> = bundles.iter().map(|b| b.dataset.name.clone()).collect();

    let mut size_rows = Vec::new();
    let mut time_rows = Vec::new();
    for &kind in ModelKind::all() {
        let mut sizes = Vec::new();
        let mut times = Vec::new();
        for b in &bundles {
            let model = train_model(kind, &b.dataset, &b.split.train, &b.split.valid, &scale);
            sizes.push(model.estimator.size_bytes() as f64 / 1024.0);
            times.push(model.train_secs);
        }
        size_rows.push((kind, sizes));
        time_rows.push((kind, times));
        eprintln!("  {:<10} done", kind.label());
    }

    print_header("Table 9: model size (KiB)", &names);
    for (kind, sizes) in &size_rows {
        print_row(kind.label(), sizes);
    }
    print_header("Table 10: training time (s)", &names);
    for (kind, times) in &time_rows {
        print_row(kind.label(), times);
    }

    // Shape check: DNNsτ is the largest deep model, as in the paper.
    let stau = size_rows
        .iter()
        .find(|(k, _)| *k == ModelKind::DlDnnSTau)
        .map(|(_, s)| s.iter().sum::<f64>())
        .expect("row exists");
    let card = size_rows
        .iter()
        .find(|(k, _)| *k == ModelKind::CardNet)
        .map(|(_, s)| s.iter().sum::<f64>())
        .expect("row exists");
    println!(
        "\nDL-DNNsT total {:.0} KiB vs CardNet {:.0} KiB (paper: DNNsτ largest)",
        stau, card
    );
}
