//! # cardest-lint — the workspace invariant checker
//!
//! Mechanizes the conventions this codebase relies on but `rustc`/clippy
//! cannot see. The checker walks every `crates/*/src/**/*.rs` file under a
//! workspace root, lexes each file just enough to separate code from
//! comments and string literals ([`lex`]), and enforces nine rules:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-safety-comment` | every `unsafe` block/fn carries a `// SAFETY:` (or `/// # Safety`) justification |
//! | `no-panic-on-hostile-input` | no `unwrap`/`expect`/panic macros/direct indexing in non-test code of network-facing decode files (`src/wire.rs`, `src/net.rs`, `src/http.rs`) |
//! | `atomics-ordering-audit` | `SeqCst` always, and `Relaxed` in read-modify-write or flag-publish position, must carry an `// ordering:` justification |
//! | `no-alloc-in-hot-path` | functions marked `// lint: hot-path` call no allocating constructors |
//! | `lock-order` | the cross-file lock-acquisition graph ([`lockgraph`]) has no edges: no lock is taken while another is held |
//! | `instant-outside-span` | `Instant::now()` in serve/obs production code starts an observed span or carries `// timing:` |
//! | `hostile-length-taint` | wire-read lengths ([`taint`]) are clamped before reaching an allocation or indexing sink |
//! | `guard-held-across-blocking` | no lock guard is live across `.join()`/channel ops/`Condvar::wait`/socket IO/kernel entry |
//! | `channel-capacity-audit` | every channel creation carries a `// capacity:` justification of its boundedness |
//!
//! What the compiler can enforce is left to it: wire-enum coverage is a
//! wildcard-free `match` in serve's round-trip tests, and metrics counters
//! are private fields behind one `snapshot()` reader.
//!
//! The concurrency-aware rules share a lightweight per-crate symbol
//! table ([`symbols`]): struct-field locks, lock-typed parameters, accessor
//! functions, and function spans — no `syn`, no type checker, just enough
//! resolution to be right about this workspace. The dataflow rule
//! ([`taint`]) adds intra-procedural taint tracking on the same masked
//! token stream, and the whole rule set is self-measured by a mutation
//! harness ([`mutate`]) that seeds one violation per rule per crate and
//! fails unless every mutant is killed.
//!
//! Any finding can be waived in place with a suppression comment that names
//! the rule and **must** state a reason, e.g.
//! `// lint: allow(no-panic-on-hostile-input) length was bounds-checked on the previous line.`
//! A suppression without a reason (or naming an unknown rule) is itself a
//! finding, so waivers stay auditable.
//!
//! The binary prints rustc-style `file:line: [rule] message` lines (or a
//! `--json` machine report including an unsafe/atomics inventory) and exits
//! nonzero on any finding.

#![forbid(unsafe_code)]

pub mod lex;
pub mod lockgraph;
pub mod mutate;
pub mod rules;
pub mod symbols;
pub mod taint;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use lockgraph::{LockEdge, LockGraph, LockNode};
pub use rules::Rule;

/// What to check. [`Config::workspace`] builds the canonical configuration
/// used by CI and the self-check test; fixtures reuse it on mini-trees that
/// mirror the `crates/<name>/src` layout.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root: the directory containing `crates/`.
    pub root: PathBuf,
    /// Path suffixes (with `/` separators) of files whose non-test code
    /// must never panic on hostile input.
    pub hostile_suffixes: Vec<String>,
    /// Path prefixes whose production code is subject to
    /// `instant-outside-span`.
    pub span_scopes: Vec<String>,
    /// Function names that enter the compute-kernel layer: calling one while
    /// a lock guard is live is flagged by `guard-held-across-blocking`, in
    /// addition to the built-in blocking set (join/send/recv/wait/socket IO).
    pub kernel_entry_calls: Vec<String>,
}

impl Config {
    /// The canonical workspace configuration: every `crates/*/src` tree is
    /// scanned; any `src/wire.rs`, `src/net.rs`, or `src/http.rs` is a
    /// hostile-input decode path; serve and obs are the span scopes.
    pub fn workspace(root: &Path) -> Config {
        Config {
            root: root.to_path_buf(),
            hostile_suffixes: vec![
                "src/wire.rs".to_string(),
                "src/net.rs".to_string(),
                "src/http.rs".to_string(),
            ],
            span_scopes: vec![
                "crates/serve/src/".to_string(),
                "crates/obs/src/".to_string(),
            ],
            kernel_entry_calls: vec![
                "infer_dist_batch".to_string(),
                "estimate_batch".to_string(),
                "estimate_batch_par".to_string(),
                "curve_batch_par".to_string(),
            ],
        }
    }

    fn is_hostile(&self, rel: &str) -> bool {
        self.hostile_suffixes.iter().any(|s| rel.ends_with(s))
    }
}

/// One rule violation, pointing at a specific source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// A line of interest for the `--json` inventory (every `unsafe` site,
/// every explicit `Ordering::` use), whether or not it violates a rule.
#[derive(Debug, Clone)]
pub struct Site {
    pub file: String,
    pub line: usize,
    pub excerpt: String,
}

/// One channel-creation site found by `channel-capacity-audit`: every
/// queue in the workspace, with its boundedness class and whether a
/// `// capacity:` comment justifies it.
#[derive(Debug, Clone)]
pub struct ChannelSite {
    pub file: String,
    pub line: usize,
    /// `unbounded` (`channel()`), `rendezvous` (`sync_channel(0)`), or
    /// `bounded` (`sync_channel(n)` for any other capacity expression).
    pub kind: &'static str,
    /// A `// capacity:` justification is present in the site's context.
    pub justified: bool,
    /// Channel creation is in `#[cfg(test)]` code (listed but never flagged).
    pub test: bool,
    pub excerpt: String,
}

/// One wire-length dataflow traced by `hostile-length-taint`: a value read
/// off the wire that reached an allocation/indexing sink, and whether a
/// clamp sanitized it on the way.
#[derive(Debug, Clone)]
pub struct TaintFlow {
    pub file: String,
    /// Line of the wire read that introduced the value.
    pub source_line: usize,
    /// Line of the allocation/indexing sink it reached.
    pub sink_line: usize,
    /// The tainted binding observed at the sink.
    pub var: String,
    /// The sink pattern hit (e.g. `Vec::with_capacity`).
    pub sink: String,
    /// A `MAX_*`/`.len()` comparison or `.min(…)` clamp intervened.
    pub sanitized: bool,
}

/// Machine-readable audit inventory, emitted with `--json` so CI can
/// archive how the tree's unsafe/atomics surface evolves over time.
#[derive(Debug, Clone, Default)]
pub struct Inventory {
    pub unsafe_sites: Vec<Site>,
    pub atomics: Vec<Site>,
    pub channels: Vec<ChannelSite>,
    pub taint_flows: Vec<TaintFlow>,
}

/// Version of the `--json` report shape. Bumped to 2 when the inventory
/// gained the `lock_graph` section (and the report this `schema` field);
/// to 3 when it gained the `channels` and `taint_flows` inventories; to 4
/// when `lock_graph` dropped `order` and `cycles` (every edge is a finding).
pub const JSON_SCHEMA: u32 = 4;

/// Result of a full lint run.
#[derive(Debug, Clone)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub inventory: Inventory,
    pub lock_graph: LockGraph,
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the machine report. Hand-rolled JSON: this crate is std-only
    /// by design (it must not depend on anything it audits).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"schema\":{JSON_SCHEMA},\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule.name()),
                json_str(&f.message),
            ));
        }
        out.push_str(&format!("],\"files_scanned\":{},", self.files_scanned));
        out.push_str("\"inventory\":{\"unsafe\":[");
        push_sites(&mut out, &self.inventory.unsafe_sites);
        out.push_str("],\"atomics\":[");
        push_sites(&mut out, &self.inventory.atomics);
        out.push_str("],\"channels\":[");
        for (i, c) in self.inventory.channels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{},\"line\":{},\"kind\":{},\"justified\":{},\"test\":{},\"excerpt\":{}}}",
                json_str(&c.file),
                c.line,
                json_str(c.kind),
                c.justified,
                c.test,
                json_str(&c.excerpt),
            ));
        }
        out.push_str("],\"taint_flows\":[");
        for (i, t) in self.inventory.taint_flows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{},\"source_line\":{},\"sink_line\":{},\"var\":{},\"sink\":{},\"sanitized\":{}}}",
                json_str(&t.file),
                t.source_line,
                t.sink_line,
                json_str(&t.var),
                json_str(&t.sink),
                t.sanitized,
            ));
        }
        out.push_str("],\"lock_graph\":");
        push_lock_graph(&mut out, &self.lock_graph);
        out.push_str("}}");
        out
    }
}

fn push_lock_graph(out: &mut String, g: &LockGraph) {
    out.push_str("{\"locks\":[");
    for (i, l) in g.locks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"kind\":{},\"file\":{},\"line\":{}}}",
            json_str(&l.id),
            json_str(l.kind),
            json_str(&l.file),
            l.line,
        ));
    }
    out.push_str("],\"edges\":[");
    for (i, e) in g.edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"from\":{},\"to\":{},\"file\":{},\"line\":{},\"fn\":{}}}",
            json_str(&e.from),
            json_str(&e.to),
            json_str(&e.file),
            e.line,
            json_str(&e.func),
        ));
    }
    out.push_str("]}");
}

fn push_sites(out: &mut String, sites: &[Site]) {
    for (i, s) in sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":{},\"line\":{},\"excerpt\":{}}}",
            json_str(&s.file),
            s.line,
            json_str(&s.excerpt),
        ));
    }
}

/// Escape a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One loaded, lexed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Raw source lines (for excerpts).
    pub raw: Vec<String>,
    /// Code view (comments/literal bodies blanked), per line.
    pub code: Vec<String>,
    /// Comment view, per line.
    pub comment: Vec<String>,
    /// Per line: is this inside a `#[cfg(test)]` item?
    pub is_test: Vec<bool>,
}

impl SourceFile {
    pub fn load(root: &Path, rel: &str) -> io::Result<SourceFile> {
        let src = fs::read_to_string(root.join(rel))?;
        Ok(SourceFile::from_source(rel, &src))
    }

    pub fn from_source(rel: &str, src: &str) -> SourceFile {
        let masked = lex::mask(src);
        let raw: Vec<String> = src.lines().map(|l| l.to_string()).collect();
        let is_test = rules::test_lines(&masked.code);
        SourceFile {
            rel: rel.to_string(),
            raw,
            code: masked.code,
            comment: masked.comment,
            is_test,
        }
    }
}

/// Recursively collect `.rs` files under `dir`, as root-relative paths.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(root, &p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = p.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Enumerate the scan set: every `.rs` file under every `crates/*/src`.
pub fn scan_set(root: &Path) -> io::Result<Vec<String>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no crates/ directory under {}", root.display()),
        ));
    }
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for c in crate_dirs {
        collect_rs(root, &c.join("src"), &mut files)?;
    }
    Ok(files)
}

/// Run every rule over the configured tree.
pub fn run(cfg: &Config) -> io::Result<Report> {
    let rels = scan_set(&cfg.root)?;
    let mut sources = Vec::with_capacity(rels.len());
    for rel in &rels {
        sources.push(SourceFile::load(&cfg.root, rel)?);
    }
    Ok(run_sources(cfg, &sources))
}

/// Run every rule over an already-loaded source set. This is [`run`] minus
/// the disk walk; the mutation harness ([`mutate`]) drives it on in-memory
/// copies of the tree with seeded violations.
pub fn run_sources(cfg: &Config, sources: &[SourceFile]) -> Report {
    let mut findings = Vec::new();
    let mut inventory = Inventory::default();
    for f in sources {
        rules::check_file(cfg, f, &mut findings, &mut inventory);
    }
    rules::check_instant_spans(cfg, sources, &mut findings);
    taint::check_taint(cfg, sources, &mut findings, &mut inventory);
    let tables = symbols::build(sources);
    let lock_graph = lockgraph::analyze(cfg, &tables, sources, &mut findings);

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.name()).cmp(&(b.file.as_str(), b.line, b.rule.name()))
    });
    findings.dedup();
    Report {
        findings,
        inventory,
        lock_graph,
        files_scanned: sources.len(),
    }
}
