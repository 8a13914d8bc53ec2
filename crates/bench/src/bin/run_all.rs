//! Runs every experiment binary in sequence — the full §9 reproduction.
//!
//! ```text
//! CARDEST_SCALE=quick cargo run --release -p cardest-bench --bin run_all
//! ```

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "exp_table2",
    "exp_fig1",
    "exp_accuracy",
    "exp_fig5",
    "exp_table6",
    "exp_table7",
    "exp_fig6",
    "exp_table9_10",
    "exp_fig7",
    "exp_fig8",
    "exp_fig9_10",
    "exp_fig11_12",
    "exp_fig13_14",
    "exp_sampling",
];

fn main() {
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe has a directory")
        .to_path_buf();
    let started = std::time::Instant::now();
    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n================ {exp} ================");
        let t0 = std::time::Instant::now();
        let status = Command::new(exe_dir.join(exp))
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {exp}: {e}"));
        println!(
            "--- {exp} finished in {:.1}s ---",
            t0.elapsed().as_secs_f64()
        );
        if !status.success() {
            failures.push(*exp);
        }
    }
    println!(
        "\n================ run_all: {}/{} experiments succeeded in {:.0}s ================",
        EXPERIMENTS.len() - failures.len(),
        EXPERIMENTS.len(),
        started.elapsed().as_secs_f64()
    );
    if !failures.is_empty() {
        eprintln!("failed: {failures:?}");
        std::process::exit(1);
    }
}
