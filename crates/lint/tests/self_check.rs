//! The linter's reason to exist: the real tree must lint clean, through the
//! library and through the CI-facing binary (including the JSON report).

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use cardest_lint::{run, Config};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("lint crate lives two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn real_tree_lints_clean() {
    let report = run(&Config::workspace(&workspace_root())).expect("tree lints");
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity that the walk actually saw the tree, not an empty directory.
    assert!(report.files_scanned > 50, "{} files", report.files_scanned);
    // The audit inventory must surface the known surfaces: the SIMD kernels'
    // unsafe sites and the lock-free counters' explicit orderings.
    assert!(report
        .inventory
        .unsafe_sites
        .iter()
        .any(|s| s.file.ends_with("crates/nn/src/kernels.rs")));
    assert!(!report.inventory.atomics.is_empty());
    // The cross-file pass must discover the serving stack's locks, and no
    // code path may hold two of them at once: the graph has no edges, not
    // even waived ones.
    let graph = &report.lock_graph;
    assert!(
        graph
            .locks
            .iter()
            .any(|l| l.id == "serve::EstimateCache.shards"),
        "lock graph should name the cache shards: {:?}",
        graph.locks
    );
    assert!(graph.edges.is_empty(), "{:?}", graph.edges);
    // Schema-3 inventories: the serving stack's queue topology is fully
    // justified, and every wire-length dataflow the taint pass traced was
    // sanitized before its sink (otherwise the tree would not lint clean).
    let channels = &report.inventory.channels;
    assert!(!channels.is_empty(), "no channels inventoried");
    assert!(
        channels.iter().all(|c| c.test || c.justified),
        "unjustified production channel in inventory: {channels:?}"
    );
    let flows = &report.inventory.taint_flows;
    assert!(!flows.is_empty(), "no taint flows traced in wire.rs");
    assert!(
        flows.iter().all(|t| t.sanitized),
        "unsanitized flow: {flows:?}"
    );
}

#[test]
fn deny_gate_passes_on_real_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_cardest-lint"))
        .arg("--deny")
        .arg(workspace_root())
        .output()
        .expect("spawn cardest-lint");
    assert!(
        out.status.success(),
        "cardest-lint --deny failed on the tree:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn json_report_has_findings_and_inventory() {
    let out = Command::new(env!("CARGO_BIN_EXE_cardest-lint"))
        .arg("--json")
        .arg(workspace_root())
        .output()
        .expect("spawn cardest-lint");
    assert!(out.status.success());
    let js = String::from_utf8_lossy(&out.stdout);
    assert!(js.starts_with('{') && js.trim_end().ends_with('}'));
    assert!(js.contains("\"schema\":4"));
    assert!(js.contains("\"findings\":[]"));
    assert!(js.contains("\"inventory\":"));
    assert!(js.contains("\"unsafe\":[{"));
    assert!(js.contains("\"atomics\":[{"));
    assert!(js.contains("\"files_scanned\":"));
    // Schema 3: the channel topology and every traced wire-length dataflow
    // ride in the inventory. The real tree has unbounded channels (all
    // justified) and sanitized taint flows (the clamps the taint rule
    // verifies), so both arrays are non-empty here.
    assert!(js.contains("\"channels\":[{"));
    assert!(js.contains("\"kind\":\"unbounded\""));
    assert!(js.contains("\"taint_flows\":[{"));
    assert!(js.contains("\"sanitized\":true"));
    // The lock graph rides in the inventory: non-empty locks on the real
    // tree, and no edges. Schema 4 carries no `order` or `cycles`.
    assert!(js.contains("\"lock_graph\":"));
    assert!(js.contains("\"locks\":[{"));
    assert!(js.contains("\"edges\":[]"));
    assert!(!js.contains("\"order\":") && !js.contains("\"cycles\":"));
}

/// The trimmed lines of `manifest`'s `header` table, up to the next table.
fn table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect()
}

/// The compiler keeps `unsafe` inside the SIMD kernels only if every crate
/// opts into a Cargo lints table: the workspace table forbids `unsafe_code`,
/// every crate but `cardest-nn` inherits it, and `cardest-nn`'s own table
/// denies `unsafe_code` and undocumented unsafe. A new crate that forgets
/// its `[lints]` table fails here. The vendored shims under `vendor/` stand
/// in for third-party crates and stay out of the table.
#[test]
fn every_crate_opts_into_the_lints_tables() {
    let root = workspace_root();
    let read = |p: PathBuf| fs::read_to_string(&p).expect("read manifest");
    let workspace = read(root.join("Cargo.toml"));
    assert!(
        table(&workspace, "[workspace.lints.rust]").contains(&"unsafe_code = \"forbid\""),
        "the root Cargo.toml must forbid unsafe_code under [workspace.lints.rust]"
    );
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    assert!(crates.len() >= 12, "{crates:?}");
    for dir in crates {
        let manifest = read(dir.join("Cargo.toml"));
        if dir.ends_with("nn") {
            assert!(
                table(&manifest, "[lints.rust]").contains(&"unsafe_code = \"deny\""),
                "cardest-nn must deny unsafe_code in its [lints.rust] table"
            );
            let clippy = table(&manifest, "[lints.clippy]");
            for lint in ["undocumented_unsafe_blocks", "missing_safety_doc"] {
                assert!(
                    clippy.contains(&format!("{lint} = \"deny\"").as_str()),
                    "cardest-nn must deny clippy::{lint} in its [lints.clippy] table"
                );
            }
        } else {
            assert!(
                table(&manifest, "[lints]").contains(&"workspace = true"),
                "{} does not inherit the workspace lints table",
                dir.display()
            );
        }
    }
}
