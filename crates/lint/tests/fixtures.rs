//! Per-rule fixture tests: each `fixtures/<case>` directory is a
//! micro-workspace (`crates/app/src/...`) linted with the same canonical
//! [`Config::workspace`] CI uses, through both the library API and the
//! installed binary (`--deny` must exit nonzero on every seeded violation).

use std::path::PathBuf;
use std::process::Command;

use cardest_lint::{run, Config, Report, Rule};

fn fixture_root(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(case)
}

fn lint_fixture(case: &str) -> Report {
    let root = fixture_root(case);
    assert!(root.is_dir(), "missing fixture {case}");
    run(&Config::workspace(&root)).expect("fixture lints")
}

fn rules_of(report: &Report) -> Vec<Rule> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[track_caller]
fn assert_clean(case: &str) {
    let report = lint_fixture(case);
    assert!(
        report.is_clean(),
        "expected {case} to be clean, got:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ── Tokenizer resilience ─────────────────────────────────────────────────

#[test]
fn tokenizer_tricky_cases_produce_no_findings() {
    assert_clean("tokenizer");
}

// ── Rule 1: unsafe-safety-comment ────────────────────────────────────────

#[test]
fn unsafe_without_justification_is_flagged() {
    let report = lint_fixture("unsafe_bad");
    let rules = rules_of(&report);
    assert_eq!(rules.len(), 2, "{:?}", report.findings);
    assert!(rules.iter().all(|r| *r == Rule::UnsafeSafety));
}

#[test]
fn unsafe_justification_forms_are_accepted() {
    assert_clean("unsafe_ok");
}

// ── Rule 2: no-panic-on-hostile-input ────────────────────────────────────

#[test]
fn panicking_constructs_on_hostile_path_are_flagged() {
    let report = lint_fixture("panic_bad");
    let rules = rules_of(&report);
    assert_eq!(rules.len(), 4, "{:?}", report.findings);
    assert!(rules.iter().all(|r| *r == Rule::NoPanicHostile));
    let messages: String = report
        .findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(messages.contains("`.unwrap()`"));
    assert!(messages.contains("`.expect()`"));
    assert!(messages.contains("`panic!`"));
    assert!(messages.contains("indexing"));
}

#[test]
fn typed_errors_checked_access_and_tests_are_exempt() {
    assert_clean("panic_ok");
}

// ── Rule 3: atomics-ordering-audit ───────────────────────────────────────

#[test]
fn undocumented_ordering_hazards_are_flagged() {
    let report = lint_fixture("atomics_bad");
    let rules = rules_of(&report);
    assert_eq!(rules.len(), 3, "{:?}", report.findings);
    assert!(rules.iter().all(|r| *r == Rule::AtomicsOrdering));
}

#[test]
fn documented_conventions_are_accepted() {
    assert_clean("atomics_ok");
}

// ── Rule 4: no-alloc-in-hot-path ─────────────────────────────────────────

#[test]
fn allocations_in_marked_functions_are_flagged() {
    let report = lint_fixture("hotpath_bad");
    let rules = rules_of(&report);
    assert_eq!(rules.len(), 3, "{:?}", report.findings);
    assert!(rules.iter().all(|r| *r == Rule::NoAllocHotPath));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("not attached")));
}

#[test]
fn alloc_free_marked_functions_pass() {
    assert_clean("hotpath_ok");
}

// ── Rule 5: lock-order (cross-file) ──────────────────────────────────────

#[test]
fn nested_lock_acquisition_is_flagged() {
    let report = lint_fixture("lockorder_bad");
    let rules = rules_of(&report);
    assert_eq!(rules.len(), 1, "{:?}", report.findings);
    assert_eq!(rules.first().copied().unwrap(), Rule::LockOrder);
    let message = &report.findings.first().unwrap().message;
    assert!(
        message.contains("`app::Pair.b` is acquired while `app::Pair.a` is held")
            && message.contains("(in `sum`)"),
        "the finding must name the nesting and its function: {message}"
    );
    assert_eq!(report.lock_graph.edges.len(), 1);
}

#[test]
fn consistent_order_with_call_expansion_edge_is_clean() {
    let report = lint_fixture("lockorder_ok");
    assert!(report.is_clean(), "{:?}", report.findings);
    assert!(
        report
            .lock_graph
            .edges
            .iter()
            .any(|e| e.from == "app::State.conns" && e.to == "app::State.stats"),
        "holding `conns` across a call to `inner` (which takes `stats`) must \
         produce the expanded edge, waived but still in the graph: {:?}",
        report.lock_graph.edges
    );
}

// ── Rule 6: instant-outside-span ─────────────────────────────────────────

#[test]
fn bare_instant_in_observed_scope_is_flagged() {
    let report = lint_fixture("instant_bad");
    let rules = rules_of(&report);
    assert_eq!(rules.len(), 1, "{:?}", report.findings);
    assert_eq!(rules.first().copied().unwrap(), Rule::InstantSpan);
}

#[test]
fn span_idiom_timing_comment_and_tests_pass() {
    assert_clean("instant_ok");
}

// ── Rule 7: hostile-length-taint ─────────────────────────────────────────

#[test]
fn unclamped_wire_lengths_reaching_sinks_are_flagged() {
    let report = lint_fixture("taint_bad");
    let rules = rules_of(&report);
    assert_eq!(rules.len(), 2, "{:?}", report.findings);
    assert!(rules.iter().all(|r| *r == Rule::HostileLengthTaint));
    // Both flows ride in the inventory, marked unsanitized.
    assert_eq!(report.inventory.taint_flows.len(), 2);
    assert!(report.inventory.taint_flows.iter().all(|t| !t.sanitized));
}

#[test]
fn clamped_wire_lengths_pass_and_flows_are_still_recorded() {
    let report = lint_fixture("taint_ok");
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.inventory.taint_flows.len(), 3);
    assert!(report.inventory.taint_flows.iter().all(|t| t.sanitized));
}

// ── Rule 8: guard-held-across-blocking ───────────────────────────────────

#[test]
fn guard_held_across_recv_is_flagged() {
    let report = lint_fixture("guardblock_bad");
    let rules = rules_of(&report);
    assert_eq!(rules.len(), 1, "{:?}", report.findings);
    assert_eq!(rules.first().copied().unwrap(), Rule::GuardBlocking);
    assert!(report
        .findings
        .first()
        .unwrap()
        .message
        .contains("channel recv"));
}

#[test]
fn scoped_guards_nonblocking_polls_and_justified_holds_pass() {
    assert_clean("guardblock_ok");
}

// ── Rule 9: channel-capacity-audit ───────────────────────────────────────

#[test]
fn unjustified_channels_are_flagged_per_boundedness_class() {
    let report = lint_fixture("chancap_bad");
    let rules = rules_of(&report);
    assert_eq!(rules.len(), 3, "{:?}", report.findings);
    assert!(rules.iter().all(|r| *r == Rule::ChannelCapacity));
    let kinds: Vec<&str> = report.inventory.channels.iter().map(|c| c.kind).collect();
    for kind in ["unbounded", "rendezvous", "bounded"] {
        assert!(kinds.contains(&kind), "missing {kind} in {kinds:?}");
    }
}

#[test]
fn justified_and_test_channels_pass_but_are_inventoried() {
    let report = lint_fixture("chancap_ok");
    assert!(report.is_clean(), "{:?}", report.findings);
    let channels = &report.inventory.channels;
    assert_eq!(channels.len(), 3, "{channels:?}");
    assert!(
        channels.iter().any(|c| c.test && !c.justified),
        "the test-code channel must be listed (exempt, not hidden): {channels:?}"
    );
}

// ── Suppression hygiene ──────────────────────────────────────────────────

#[test]
fn reasonless_or_unknown_suppressions_are_flagged() {
    let report = lint_fixture("suppress_bad");
    let rules = rules_of(&report);
    assert_eq!(rules.len(), 2, "{:?}", report.findings);
    assert!(rules.iter().all(|r| *r == Rule::Suppression));
    let messages: String = report
        .findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(messages.contains("must state a reason"));
    assert!(messages.contains("unknown rule"));
}

// ── The binary gate: `--deny` exits nonzero on every seeded violation ────

/// One seeded-violation fixture per rule. [`fixture_suite_covers_every_rule`]
/// fails the build if a rule is added to [`Rule::ALL`] without a fixture
/// riding here, so this list cannot silently fall behind the registry.
const BAD_CASES: &[(&str, Rule)] = &[
    ("unsafe_bad", Rule::UnsafeSafety),
    ("panic_bad", Rule::NoPanicHostile),
    ("atomics_bad", Rule::AtomicsOrdering),
    ("hotpath_bad", Rule::NoAllocHotPath),
    ("suppress_bad", Rule::Suppression),
    ("lockorder_bad", Rule::LockOrder),
    ("instant_bad", Rule::InstantSpan),
    ("taint_bad", Rule::HostileLengthTaint),
    ("guardblock_bad", Rule::GuardBlocking),
    ("chancap_bad", Rule::ChannelCapacity),
];

#[test]
fn fixture_suite_covers_every_rule() {
    for rule in Rule::ALL {
        assert!(
            BAD_CASES.iter().any(|(_, r)| *r == rule),
            "rule `{}` has no seeded-violation fixture in BAD_CASES — add a \
             `fixtures/<case>` micro-workspace for it",
            rule.name()
        );
    }
}

#[test]
fn deny_gate_exits_nonzero_on_each_bad_fixture() {
    for &(case, rule) in BAD_CASES {
        let out = Command::new(env!("CARGO_BIN_EXE_cardest-lint"))
            .arg("--deny")
            .arg(fixture_root(case))
            .output()
            .expect("spawn cardest-lint");
        assert!(
            !out.status.success(),
            "--deny must fail on {case}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("[{}]", rule.name())),
            "{case} output should cite {}: {stdout}",
            rule.name()
        );
    }
}

#[test]
fn deny_gate_passes_on_good_fixtures() {
    for case in [
        "tokenizer",
        "unsafe_ok",
        "panic_ok",
        "atomics_ok",
        "hotpath_ok",
        "lockorder_ok",
        "instant_ok",
        "taint_ok",
        "guardblock_ok",
        "chancap_ok",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cardest-lint"))
            .arg("--deny")
            .arg(fixture_root(case))
            .output()
            .expect("spawn cardest-lint");
        assert!(
            out.status.success(),
            "--deny must pass on {case}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
