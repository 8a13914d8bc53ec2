//! Cross-file lock-order analysis.
//!
//! Using the per-crate symbol tables from [`crate::symbols`], this pass:
//!
//! 1. finds every acquisition of a *declared* lock (`expr.lock()` on a
//!    `Mutex` symbol, `.read()`/`.write()` on an `RwLock` symbol) in
//!    non-test code;
//! 2. infers how long each guard is held by walking the statement and
//!    block structure of the enclosing function (a `let`-bound guard lives
//!    to the end of its block or an explicit `drop(guard)`, a temporary
//!    guard to the end of its statement);
//! 3. records an edge `A -> B` whenever lock `B` is acquired — directly, or
//!    via a one-level-expanded intra-crate call (`self.f(…)`, `f(…)`,
//!    `Type::f(…)`) — while a guard for `A` is still held;
//! 4. reports every edge as a finding: the workspace holds at most one lock
//!    per thread, so no order among locks needs keeping and no cycle can
//!    form. A deliberate nesting is waived with a reasoned
//!    `// lint: allow(lock-order)` on the line of the edge's witness site.
//!
//! The held-interval inference is deliberately an *over*-approximation
//! (e.g. `let n = m.lock().unwrap().len();` binds a `usize`, not a guard,
//! but is treated as held to end of block): a superset of held intervals
//! can only add edges, never hide a real nesting. Receivers that do not
//! resolve through the symbol table (`stdout().lock()`, `TcpStream::read`)
//! are ignored — only workspace-declared locks participate.
//!
//! Besides findings, the pass emits the graph itself ([`LockGraph`]), which
//! the `--json` inventory serializes. At run time the same invariant is
//! checked by `cardest_obs::one_lock`, the debug-build witness every tracked
//! acquisition calls.

use std::collections::{BTreeSet, HashMap};

use crate::lex::is_ident_byte;
use crate::rules::{suppressed, Rule};
use crate::symbols::{self, CrateTable, FnSym, LockKind};
use crate::{Config, Finding, SourceFile};

/// One node of the acquisition graph (a declared lock).
#[derive(Debug, Clone)]
pub struct LockNode {
    /// Stable id, e.g. `serve::ServiceStats.clients`.
    pub id: String,
    /// `mutex` or `rwlock`.
    pub kind: &'static str,
    /// Declaration site.
    pub file: String,
    pub line: usize,
}

/// One edge: `to` acquired while a guard of `from` is held.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    /// Witness site: where `to` is acquired (or the call that acquires it).
    pub file: String,
    pub line: usize,
    /// Function containing the witness site.
    pub func: String,
}

/// The global lock-acquisition graph.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// All declared locks, sorted by id.
    pub locks: Vec<LockNode>,
    /// Deduplicated `(from, to)` edges with one witness site each,
    /// waived ones included.
    pub edges: Vec<LockEdge>,
}

/// One resolved acquisition inside a function body.
struct Acq {
    /// Lock index in the crate table.
    lock: usize,
    /// Byte offset (into the joined body text) of the `.` of the call.
    off: usize,
    /// End of the held interval (exclusive byte offset).
    end: usize,
    /// 1-based source line of the acquisition.
    line: usize,
}

struct FnBody {
    text: Vec<u8>,
    /// Brace depth *before* each byte.
    depth: Vec<u32>,
    /// 1-based source line for each byte.
    line: Vec<usize>,
}

fn join_body(f: &SourceFile, func: &FnSym) -> FnBody {
    let mut text = Vec::new();
    let mut line = Vec::new();
    for li in func.start..=func.end.min(f.code.len().saturating_sub(1)) {
        for &b in f.code[li].as_bytes() {
            text.push(b);
            line.push(li + 1);
        }
        text.push(b'\n');
        line.push(li + 1);
    }
    let mut depth = Vec::with_capacity(text.len());
    let mut d = 0u32;
    for &b in &text {
        depth.push(d);
        match b {
            b'{' => d += 1,
            b'}' => d = d.saturating_sub(1),
            _ => {}
        }
    }
    FnBody { text, depth, line }
}

/// Statement start: scan back from `p` to just past the previous `;`, `{`
/// or `}` (string/comment bodies are already blanked in the code view).
fn stmt_start(text: &[u8], p: usize) -> usize {
    let mut i = p;
    while i > 0 && !matches!(text[i - 1], b';' | b'{' | b'}') {
        i -= 1;
    }
    i
}

/// If the statement binds its value (`let [mut] name = …`), the guard name.
fn let_binding(stmt: &str) -> Option<&str> {
    let t = stmt.trim_start().strip_prefix("let ")?;
    let t = t.trim_start();
    let t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
    let end = t.bytes().take_while(|&c| is_ident_byte(c)).count();
    (end > 0).then(|| &t[..end])
}

/// End of the held interval for an acquisition at `p` with depth `d`.
fn held_end(body: &FnBody, p: usize, d: u32, bound: Option<&str>) -> usize {
    let n = body.text.len();
    let mut end = n;
    for j in p + 1..n {
        let b = body.text[j];
        let closes_block = b == b'}' && body.depth[j] <= d;
        let ends_stmt = bound.is_none() && b == b';' && body.depth[j] <= d;
        if closes_block || ends_stmt {
            end = j;
            break;
        }
    }
    // An explicit `drop(name)` in the guard's own block releases it early;
    // one inside a nested block (a branch) releases it on that path only.
    if let Some(name) = bound {
        let hay = &body.text[p..end];
        let pat = b"drop";
        let mut i = 0usize;
        while i + pat.len() < hay.len() {
            if &hay[i..i + pat.len()] == pat
                && body.depth[p + i] <= d
                && (i == 0 || !is_ident_byte(hay[i - 1]))
                && hay[i + pat.len()] == b'('
            {
                let inner_start = i + pat.len() + 1;
                if let Some(close) = hay[inner_start..].iter().position(|&c| c == b')') {
                    let inner = &hay[inner_start..inner_start + close];
                    if std::str::from_utf8(inner).map(str::trim) == Ok(name) {
                        return p + i;
                    }
                }
            }
            i += 1;
        }
    }
    end
}

const ACQ_PATTERNS: &[(&str, LockKind)] = &[
    (".lock(", LockKind::Mutex),
    (".read(", LockKind::RwLock),
    (".write(", LockKind::RwLock),
];

/// All resolved lock acquisitions in one function body.
fn find_acqs(f: &SourceFile, table: &CrateTable, func: &FnSym, body: &FnBody) -> Vec<Acq> {
    let text = std::str::from_utf8(&body.text).unwrap_or("");
    let mut acqs = Vec::new();
    for &(pat, want_kind) in ACQ_PATTERNS {
        let mut start = 0usize;
        while let Some(rel) = text.get(start..).and_then(|s| s.find(pat)) {
            let p = start + rel;
            start = p + 1;
            let line = body.line[p];
            // Skip acquisitions in `#[cfg(test)]` code; the rule targets
            // production lock discipline.
            if f.is_test.get(line - 1).copied().unwrap_or(false) {
                continue;
            }
            let comps = symbols::parse_receiver(&body.text, p);
            let Some(lock) = table.resolve_lock(&comps, func) else {
                continue;
            };
            if table.locks[lock].kind != want_kind {
                continue;
            }
            let ss = stmt_start(&body.text, p);
            let stmt = std::str::from_utf8(&body.text[ss..p]).unwrap_or("");
            let bound = let_binding(stmt);
            let end = held_end(body, p, body.depth[p], bound);
            acqs.push(Acq {
                lock,
                off: p,
                end,
                line,
            });
        }
    }
    acqs.sort_by_key(|a| a.off);
    acqs
}

const CALL_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while",
];

/// Calls eligible for one-level expansion inside `body.text[from..to]`:
/// `name(…)` (free), `self.name(…)` (method on self), or `Path::name(…)`.
/// Arbitrary `expr.name(…)` receivers are *not* expanded — without types we
/// cannot tell which impl they hit, and guessing creates false edges.
fn find_calls(body: &FnBody, from: usize, to: usize) -> Vec<(String, usize)> {
    let t = &body.text;
    let mut out = Vec::new();
    for j in from..to.min(t.len()) {
        if t[j] != b'(' {
            continue;
        }
        // Walk back over whitespace, then the identifier.
        let mut i = j;
        while i > 0 && (t[i - 1] as char).is_ascii_whitespace() {
            i -= 1;
        }
        let end = i;
        while i > 0 && is_ident_byte(t[i - 1]) {
            i -= 1;
        }
        if i == end {
            continue;
        }
        let name = match std::str::from_utf8(&t[i..end]) {
            Ok(s) => s,
            Err(_) => continue,
        };
        if CALL_KEYWORDS.contains(&name) || name.as_bytes()[0].is_ascii_digit() {
            continue;
        }
        // Classify by what precedes the identifier.
        let ok = if i == 0 {
            true
        } else {
            match t[i - 1] {
                b'.' => {
                    // Only `self.name(` counts; other receivers are opaque.
                    let r = i - 1;
                    r >= 4 && &t[r - 4..r] == b"self" && (r == 4 || !is_ident_byte(t[r - 5]))
                }
                b':' => i >= 2 && t[i - 2] == b':',
                b'!' => false,
                c => !is_ident_byte(c),
            }
        };
        // `fn name(` is the definition, not a call.
        let is_def = {
            let mut k = i;
            while k > 0 && (t[k - 1] as char).is_ascii_whitespace() {
                k -= 1;
            }
            k >= 2 && &t[k - 2..k] == b"fn" && (k == 2 || !is_ident_byte(t[k - 3]))
        };
        if ok && !is_def {
            out.push((name.to_string(), j));
        }
    }
    out
}

/// Method-call patterns that block the calling thread: thread joins,
/// channel handoffs, condvar waits, and socket/stream IO. `.try_recv(` and
/// `.try_send(` are deliberately absent (non-blocking), as are `.read(`/
/// `.write(` (they collide with the RwLock acquisition patterns and the
/// rule must not flag nested lock acquisition — that is `lock-order`'s job).
const BLOCKING_PATTERNS: &[(&str, &str)] = &[
    (".join(", "thread join"),
    (".send(", "channel send"),
    (".recv(", "channel recv"),
    (".recv_timeout(", "channel recv"),
    (".wait(", "condvar wait"),
    (".wait_timeout(", "condvar wait"),
    (".wait_while(", "condvar wait"),
    (".write_all(", "socket/stream write"),
    (".read_exact(", "socket/stream read"),
    (".accept(", "socket accept"),
    ("thread::sleep(", "sleep"),
];

/// `guard-held-across-blocking`: reusing the guard-lifetime inference, flag
/// every blocking call (and every configured kernel-layer entry) inside a
/// held interval. A guard held across a block stalls every other contender
/// of that lock for the blocking call's full duration — the latency-cliff
/// shape the micro-batching layout exists to avoid. Suppressible at either
/// the blocking line or the acquisition line (one `// lint: allow` on the
/// `.lock()` covers every blocking call under that guard).
fn check_guard_blocking(
    cfg: &Config,
    f: &SourceFile,
    table: &CrateTable,
    func: &FnSym,
    body: &FnBody,
    acqs: &[Acq],
    findings: &mut Vec<Finding>,
) {
    let text = std::str::from_utf8(&body.text).unwrap_or("");
    let kernel: Vec<(String, String)> = cfg
        .kernel_entry_calls
        .iter()
        .map(|n| (format!(".{n}("), format!("kernel entry `{n}`")))
        .collect();
    for a in acqs {
        let lock_id = &table.locks[a.lock].id;
        let window = match text.get(a.off..a.end) {
            Some(w) => w,
            None => continue,
        };
        let all_pats = BLOCKING_PATTERNS
            .iter()
            .map(|&(p, w)| (p, w))
            .chain(kernel.iter().map(|(p, w)| (p.as_str(), w.as_str())));
        for (pat, what) in all_pats {
            let mut start = 0usize;
            while let Some(rel) = window.get(start..).and_then(|s| s.find(pat)) {
                let p = a.off + start + rel;
                start += rel + 1;
                if p == a.off {
                    continue; // the acquisition itself (`.read(`-style overlap)
                }
                let line = body.line[p];
                if suppressed(f, line - 1, Rule::GuardBlocking)
                    || suppressed(f, a.line - 1, Rule::GuardBlocking)
                {
                    continue;
                }
                findings.push(Finding {
                    file: f.rel.clone(),
                    line,
                    rule: Rule::GuardBlocking,
                    message: format!(
                        "guard for `{lock_id}` (acquired at line {} in `{}`) is still held \
                         across a {what} (`{}`); every contender of the lock stalls for the \
                         call's full duration — release the guard first, or justify with a \
                         `// lint: allow(guard-held-across-blocking) <reason>`",
                        a.line,
                        func.name,
                        pat.trim_start_matches('.').trim_end_matches('('),
                    ),
                });
            }
        }
    }
}

struct RawEdge {
    from: usize,
    to: usize,
    file: String,
    line: usize,
    func: String,
}

/// Run the pass: build the graph, report every unwaived edge site as a
/// finding, and flag guards held across blocking calls.
pub fn analyze(
    cfg: &Config,
    tables: &HashMap<String, CrateTable>,
    sources: &[SourceFile],
    findings: &mut Vec<Finding>,
) -> LockGraph {
    // Global node list, sorted by id for deterministic output.
    let mut crate_names: Vec<&String> = tables.keys().collect();
    crate_names.sort();
    let mut locks: Vec<(&str, usize, LockNode)> = Vec::new();
    for cname in &crate_names {
        let table = &tables[cname.as_str()];
        for (li, l) in table.locks.iter().enumerate() {
            locks.push((
                cname.as_str(),
                li,
                LockNode {
                    id: l.id.clone(),
                    kind: match l.kind {
                        LockKind::Mutex => "mutex",
                        LockKind::RwLock => "rwlock",
                    },
                    file: l.file.clone(),
                    line: l.line,
                },
            ));
        }
    }
    locks.sort_by(|a, b| a.2.id.cmp(&b.2.id));
    let global: HashMap<(&str, usize), usize> = locks
        .iter()
        .enumerate()
        .map(|(g, (c, li, _))| ((*c, *li), g))
        .collect();

    // Per-crate edge discovery.
    let mut raw_edges: Vec<RawEdge> = Vec::new();
    for cname in &crate_names {
        let table = &tables[cname.as_str()];
        // Pass 1: every function's own acquisitions.
        let bodies: Vec<FnBody> = table
            .fns
            .iter()
            .map(|func| join_body(&sources[func.file_idx], func))
            .collect();
        let acqs: Vec<Vec<Acq>> = table
            .fns
            .iter()
            .zip(&bodies)
            .map(|(func, body)| find_acqs(&sources[func.file_idx], table, func, body))
            .collect();
        let direct: Vec<BTreeSet<usize>> = acqs
            .iter()
            .map(|a| a.iter().map(|x| x.lock).collect())
            .collect();

        // Pass 2: edges from overlapping guards and expanded calls, plus
        // the blocking-while-locked scan over the same held intervals.
        for (fi, func) in table.fns.iter().enumerate() {
            let body = &bodies[fi];
            let file = &sources[func.file_idx].rel;
            check_guard_blocking(
                cfg,
                &sources[func.file_idx],
                table,
                func,
                body,
                &acqs[fi],
                findings,
            );
            for a in &acqs[fi] {
                let gfrom = global[&(cname.as_str(), a.lock)];
                for b in &acqs[fi] {
                    if b.off > a.off && b.off < a.end {
                        raw_edges.push(RawEdge {
                            from: gfrom,
                            to: global[&(cname.as_str(), b.lock)],
                            file: file.clone(),
                            line: b.line,
                            func: func.name.clone(),
                        });
                    }
                }
                for (callee_name, call_off) in find_calls(body, a.off, a.end) {
                    let Some(callees) = table.fn_by_name.get(&callee_name) else {
                        continue;
                    };
                    for &ci in callees {
                        for &l in &direct[ci] {
                            raw_edges.push(RawEdge {
                                from: gfrom,
                                to: global[&(cname.as_str(), l)],
                                file: file.clone(),
                                line: body.line[call_off],
                                func: func.name.clone(),
                            });
                        }
                    }
                }
            }
        }
    }

    // Every nesting is a finding at its witness site, unless that line
    // carries a reasoned allow.
    let by_rel: HashMap<&str, &SourceFile> = sources.iter().map(|f| (f.rel.as_str(), f)).collect();
    for e in &raw_edges {
        let waived = by_rel
            .get(e.file.as_str())
            .is_some_and(|f| suppressed(f, e.line - 1, Rule::LockOrder));
        if waived {
            continue;
        }
        let (from, to) = (&locks[e.from].2.id, &locks[e.to].2.id);
        findings.push(Finding {
            file: e.file.clone(),
            line: e.line,
            rule: Rule::LockOrder,
            message: format!(
                "`{to}` is acquired while `{from}` is held (in `{}`); a thread holds at most \
                 one lock — release `{from}` first, or justify the nesting with a \
                 `// lint: allow(lock-order) <reason>`",
                e.func
            ),
        });
    }

    // Dedup to one witness per (from, to), keeping the first site in
    // (file, line) order.
    raw_edges.sort_by(|a, b| {
        (a.from, a.to, a.file.as_str(), a.line).cmp(&(b.from, b.to, b.file.as_str(), b.line))
    });
    raw_edges.dedup_by(|a, b| a.from == b.from && a.to == b.to);

    LockGraph {
        edges: raw_edges
            .iter()
            .map(|e| LockEdge {
                from: locks[e.from].2.id.clone(),
                to: locks[e.to].2.id.clone(),
                file: e.file.clone(),
                line: e.line,
                func: e.func.clone(),
            })
            .collect(),
        locks: locks.into_iter().map(|(_, _, n)| n).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::build;

    fn graph_of(files: &[(&str, &str)]) -> (LockGraph, Vec<Finding>) {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile::from_source(rel, src))
            .collect();
        let tables = build(&sources);
        let mut findings = Vec::new();
        let cfg = Config::workspace(std::path::Path::new("."));
        let graph = analyze(&cfg, &tables, &sources, &mut findings);
        (graph, findings)
    }

    const CYCLIC: &str = r#"
use std::sync::Mutex;
pub struct Pair { a: Mutex<u64>, b: Mutex<u64> }
impl Pair {
    pub fn fwd(&self) -> u64 {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        *ga + *gb
    }
    pub fn rev(&self) -> u64 {
        let gb = self.b.lock().unwrap();
        let ga = self.a.lock().unwrap();
        *ga - *gb
    }
}
"#;

    #[test]
    fn two_lock_cycle_is_reported_with_both_witnesses() {
        // A cycle is two nestings, and each is a finding at its own site.
        let (graph, findings) = graph_of(&[("crates/app/src/lib.rs", CYCLIC)]);
        assert_eq!(graph.locks.len(), 2);
        assert_eq!(graph.edges.len(), 2);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == Rule::LockOrder));
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("(in `fwd`)")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("(in `rev`)")), "{msgs:?}");
    }

    #[test]
    fn one_nesting_without_a_cycle_is_a_finding() {
        let src = r#"
use std::sync::Mutex;
pub struct S { a: Mutex<u64>, b: Mutex<u64> }
impl S {
    pub fn sum(&self) -> u64 {
        let ga = self.a.lock().unwrap();
        let gb = self.b.lock().unwrap();
        *ga + *gb
    }
}
"#;
        let (graph, findings) = graph_of(&[("crates/app/src/lib.rs", src)]);
        assert_eq!(graph.edges.len(), 1);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::LockOrder);
        assert_eq!(findings[0].line, 7, "reported at the inner acquisition");
        assert!(findings[0]
            .message
            .contains("`app::S.b` is acquired while `app::S.a` is held"));
    }

    #[test]
    fn call_expansion_adds_edges_one_level_deep() {
        let src = r#"
use std::sync::Mutex;
pub struct S { a: Mutex<u64>, b: Mutex<u64> }
impl S {
    pub fn outer(&self) {
        let g = self.a.lock().unwrap();
        self.inner();
        drop(g);
    }
    fn inner(&self) {
        let _g = self.b.lock().unwrap();
    }
}
"#;
        let (graph, findings) = graph_of(&[("crates/app/src/lib.rs", src)]);
        assert_eq!(graph.edges.len(), 1);
        assert_eq!(graph.edges[0].from, "app::S.a");
        assert_eq!(graph.edges[0].to, "app::S.b");
        // The expanded edge is reported at the call site.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!((findings[0].rule, findings[0].line), (Rule::LockOrder, 7));
    }

    #[test]
    fn temporary_guards_do_not_overlap_across_statements() {
        let src = r#"
use std::sync::Mutex;
pub struct S { a: Mutex<u64>, b: Mutex<u64> }
impl S {
    pub fn seq(&self) -> u64 {
        *self.a.lock().unwrap() += 1;
        *self.b.lock().unwrap()
    }
}
"#;
        // Both guards are statement temporaries: `a`'s drops at its `;`,
        // before `b` is taken, so there is no nesting. (A `let`-bound value
        // would be over-approximated as a guard held to end of block.)
        let (graph, findings) = graph_of(&[("crates/app/src/lib.rs", src)]);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(graph.edges.is_empty(), "{:?}", graph.edges);
    }

    #[test]
    fn drop_releases_a_guard_before_the_next_acquisition() {
        let src = r#"
use std::sync::Mutex;
pub struct S { a: Mutex<u64>, b: Mutex<u64> }
impl S {
    pub fn handoff(&self) {
        let g = self.a.lock().unwrap();
        drop(g);
        let h = self.b.lock().unwrap();
        drop(h);
    }
}
"#;
        let (graph, findings) = graph_of(&[("crates/app/src/lib.rs", src)]);
        assert!(findings.is_empty());
        assert!(graph.edges.is_empty());
    }

    #[test]
    fn a_drop_in_one_branch_does_not_release_the_guard_after_it() {
        let src = r#"
use std::sync::Mutex;
pub struct S { a: Mutex<u64>, b: Mutex<u64> }
impl S {
    pub fn maybe(&self, early: bool) -> u64 {
        let g = self.a.lock().unwrap();
        if early {
            drop(g);
            return 0;
        }
        *self.b.lock().unwrap()
    }
}
"#;
        let (graph, findings) = graph_of(&[("crates/app/src/lib.rs", src)]);
        assert_eq!(graph.edges.len(), 1, "{:?}", graph.edges);
        assert_eq!((findings[0].rule, findings[0].line), (Rule::LockOrder, 11));
    }

    #[test]
    fn unresolved_receivers_are_ignored() {
        let src = r#"
pub fn print_all(lines: &[String]) {
    let out = std::io::stdout();
    let mut h = out.lock();
    for l in lines {
        let _ = h.write_all(l.as_bytes());
    }
}
"#;
        let (graph, findings) = graph_of(&[("crates/app/src/lib.rs", src)]);
        assert!(findings.is_empty());
        assert!(graph.locks.is_empty());
        assert!(graph.edges.is_empty());
    }

    #[test]
    fn suppression_on_the_acquisition_line_waives_the_edge() {
        let src = CYCLIC.replace(
            "let gb = self.b.lock().unwrap();\n        let ga = self.a.lock().unwrap();",
            "let gb = self.b.lock().unwrap();\n        // lint: allow(lock-order) drain order is pinned by the caller.\n        let ga = self.a.lock().unwrap();",
        );
        let (graph, findings) = graph_of(&[("crates/app/src/lib.rs", &src)]);
        assert_eq!(graph.edges.len(), 2, "graph still records the waived edge");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("(in `fwd`)"), "{findings:?}");
    }

    #[test]
    fn guard_held_across_channel_recv_is_flagged() {
        let src = r#"
use std::sync::Mutex;
use std::sync::mpsc::Receiver;
pub struct Q { q: Mutex<u64> }
impl Q {
    pub fn drain(&self, rx: &Receiver<u64>) -> u64 {
        let g = self.q.lock().unwrap();
        let v = rx.recv().unwrap();
        *g + v
    }
}
"#;
        let (_, findings) = graph_of(&[("crates/app/src/lib.rs", src)]);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == Rule::GuardBlocking)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        let msg = &hits[0].message;
        assert!(msg.contains("app::Q.q"), "{msg}");
        assert!(msg.contains("channel recv"), "{msg}");
        assert!(msg.contains("`drain`"), "{msg}");
    }

    #[test]
    fn guard_dropped_before_blocking_call_is_clean() {
        let src = r#"
use std::sync::Mutex;
use std::sync::mpsc::Receiver;
pub struct Q { q: Mutex<u64> }
impl Q {
    pub fn drain(&self, rx: &Receiver<u64>) -> u64 {
        let v = {
            let g = self.q.lock().unwrap();
            *g
        };
        v + rx.recv().unwrap()
    }
}
"#;
        let (_, findings) = graph_of(&[("crates/app/src/lib.rs", src)]);
        assert!(
            findings.iter().all(|f| f.rule != Rule::GuardBlocking),
            "{findings:?}"
        );
    }

    #[test]
    fn guard_blocking_allow_on_the_acquisition_line_waives_the_finding() {
        let src = r#"
use std::sync::Mutex;
use std::sync::mpsc::Receiver;
pub struct Q { q: Mutex<u64> }
impl Q {
    pub fn drain(&self, rx: &Receiver<u64>) -> u64 {
        // lint: allow(guard-held-across-blocking) single consumer; recv is the critical section.
        let g = self.q.lock().unwrap();
        let v = rx.recv().unwrap();
        *g + v
    }
}
"#;
        let (_, findings) = graph_of(&[("crates/app/src/lib.rs", src)]);
        assert!(
            findings.iter().all(|f| f.rule != Rule::GuardBlocking),
            "{findings:?}"
        );
    }

    #[test]
    fn guard_held_across_kernel_entry_call_is_flagged() {
        for call in ["k.estimate_batch(&[])", "k.curve_batch_par(&[], par)"] {
            let src = format!(
                r#"
use std::sync::Mutex;
pub struct S {{ cache: Mutex<u64> }}
impl S {{
    pub fn answer(&self, k: &Kernel, par: Par) -> u64 {{
        let g = self.cache.lock().unwrap();
        let _ = {call};
        *g
    }}
}}
"#
            );
            let (_, findings) = graph_of(&[("crates/app/src/lib.rs", &src)]);
            let hits: Vec<_> = findings
                .iter()
                .filter(|f| f.rule == Rule::GuardBlocking)
                .collect();
            assert_eq!(hits.len(), 1, "{call}: {findings:?}");
            assert!(
                hits[0].message.contains("kernel entry"),
                "{call}: {}",
                hits[0].message
            );
        }
    }
}
