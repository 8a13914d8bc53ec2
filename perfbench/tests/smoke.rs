//! Tiny-size smoke run of every workload, untraced and traced.
//!
//! Asserts that each run passes its own checks, prints every metric that
//! `BENCHMARK.json` lists (with the same unit) both as a `metric` line and
//! in the final JSON line, and that no generator used more threads or
//! connections than the host has CPUs.

use serde::Deserialize;
use std::process::Command;

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

fn benchmark() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Runs one tiny workload and returns its standard output.
fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn assert_reports(stdout: &str, metrics: &[Metric], what: &str) {
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{what}: {last}"
    );
    for m in metrics {
        let line = stdout
            .lines()
            .find(|l| {
                l.split_whitespace().nth(1) == Some(m.name.as_str()) && l.starts_with("metric ")
            })
            .unwrap_or_else(|| panic!("{what}: no `metric {}` line", m.name));
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(
            fields.get(3),
            Some(&m.unit.as_str()),
            "{what}: unit of {line}"
        );
        let value: f64 = fields[2].parse().expect("numeric value");
        assert!(value.is_finite(), "{what}: {line}");
        let json = format!("\"{}\": {{\"value\": ", m.name);
        assert!(
            last.contains(&json),
            "{what}: {} missing from the JSON line",
            m.name
        );
        assert!(
            last.contains(&format!("{json}{}, \"unit\": \"{}\"}}", fields[2], m.unit)),
            "{what}: JSON value or unit of {} differs from its metric line",
            m.name
        );
    }
}

fn assert_generator_within_nproc(stdout: &str, what: &str) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let line = stdout
        .lines()
        .find(|l| l.starts_with("# gen "))
        .unwrap_or_else(|| panic!("{what}: no generator line"));
    for field in ["threads=", "connections="] {
        let n: usize = line
            .split_whitespace()
            .find_map(|f| f.strip_prefix(field))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{what}: no {field} in {line}"));
        assert!(
            n <= nproc,
            "{what}: generator used {field}{n} on {nproc} CPUs"
        );
    }
}

fn smoke(workload: &str) {
    let b = benchmark();
    assert!(b.workloads.iter().any(|w| w.name == workload));
    let e2e = run(workload, 0);
    assert_reports(&e2e, &b.end_to_end, &format!("{workload} untraced"));
    assert_generator_within_nproc(&e2e, workload);
    let traced = run(workload, 1);
    assert_reports(&traced, &b.per_layer, &format!("{workload} traced"));
    assert_generator_within_nproc(&traced, workload);
    assert!(
        traced.contains("# self time by span"),
        "{workload}: no self-time table"
    );
}

#[test]
fn estimate_inproc_smoke() {
    smoke("estimate_inproc");
}

#[test]
fn serve_zipf_smoke() {
    smoke("serve_zipf");
}

#[test]
fn every_per_layer_metric_names_what_it_should_move() {
    let b = benchmark();
    let config = include_str!("../workloads.json");
    for m in &b.per_layer {
        assert!(
            config.contains(&format!("[\"{}\", \"", m.name)),
            "workloads.json `layers` has no entry for {}",
            m.name
        );
    }
}
