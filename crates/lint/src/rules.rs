//! The workspace rules, plus the suppression machinery they share.
//!
//! All rules operate on the masked code/comment views from [`crate::lex`],
//! so string literals and comments can never produce false code matches.
//! Findings are attached to 1-based line numbers; a finding on line `L` can
//! be waived by a suppression comment on `L` itself (trailing) or on the
//! contiguous run of comment/attribute/blank lines directly above `L`.

use crate::lex::{find_word, is_ident_byte, macro_call, method_call};
use crate::{Config, Finding, Inventory, Site, SourceFile};

/// The rule set. Names (from [`Rule::name`]) are what appear in output and
/// in suppression comments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Every `unsafe` block or fn carries a SAFETY justification.
    UnsafeSafety,
    /// No panicking constructs in non-test code of hostile-input files.
    NoPanicHostile,
    /// SeqCst, and Relaxed in RMW/flag-publish position, need justification.
    AtomicsOrdering,
    /// Hot-path-marked functions must not allocate.
    NoAllocHotPath,
    /// No edge in the cross-file lock-acquisition graph: a thread holds at
    /// most one lock at a time.
    LockOrder,
    /// `Instant::now()` in serve/obs production code must start an observed
    /// span or carry a `// timing:` justification.
    InstantSpan,
    /// Wire-read lengths must pass a clamp before reaching an allocation
    /// or indexing sink (intra-procedural dataflow, hostile files only).
    HostileLengthTaint,
    /// No lock guard may be live across a blocking call (join, channel
    /// send/recv, condvar wait, socket IO, kernel entry).
    GuardBlocking,
    /// Every channel creation needs a `// capacity:` justification.
    ChannelCapacity,
    /// Suppressions themselves must be well-formed and carry a reason.
    Suppression,
}

impl Rule {
    /// Every rule, in the order `--list-rules` prints them.
    pub const ALL: [Rule; 10] = [
        Rule::UnsafeSafety,
        Rule::NoPanicHostile,
        Rule::AtomicsOrdering,
        Rule::NoAllocHotPath,
        Rule::LockOrder,
        Rule::InstantSpan,
        Rule::HostileLengthTaint,
        Rule::GuardBlocking,
        Rule::ChannelCapacity,
        Rule::Suppression,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeSafety => "unsafe-safety-comment",
            Rule::NoPanicHostile => "no-panic-on-hostile-input",
            Rule::AtomicsOrdering => "atomics-ordering-audit",
            Rule::NoAllocHotPath => "no-alloc-in-hot-path",
            Rule::LockOrder => "lock-order",
            Rule::InstantSpan => "instant-outside-span",
            Rule::HostileLengthTaint => "hostile-length-taint",
            Rule::GuardBlocking => "guard-held-across-blocking",
            Rule::ChannelCapacity => "channel-capacity-audit",
            Rule::Suppression => "suppression",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn doc(self) -> &'static str {
        match self {
            Rule::UnsafeSafety => "every `unsafe` block/fn carries a SAFETY justification",
            Rule::NoPanicHostile => {
                "no panicking constructs in non-test code of hostile-input decode files"
            }
            Rule::AtomicsOrdering => {
                "SeqCst, and Relaxed in RMW/flag-publish position, need an `// ordering:` comment"
            }
            Rule::NoAllocHotPath => "functions marked `// lint: hot-path` must not allocate",
            Rule::LockOrder => {
                "the cross-file lock-acquisition graph has no edges: no lock is taken while another is held"
            }
            Rule::InstantSpan => {
                "`Instant::now()` in serve/obs code starts an observed span or has `// timing:`"
            }
            Rule::HostileLengthTaint => {
                "wire-read lengths are clamped (`MAX_*`/`.len()`/`.min(…)`) before allocation/indexing"
            }
            Rule::GuardBlocking => {
                "no lock guard is live across join/channel/condvar/socket IO/kernel-entry calls"
            }
            Rule::ChannelCapacity => {
                "every `channel()`/`sync_channel(n)` creation carries a `// capacity:` justification"
            }
            Rule::Suppression => "suppression comments must be well-formed and carry a reason",
        }
    }

    /// Rules that may be named in a suppression comment. `suppression`
    /// findings are deliberately not waivable — that would be circular.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .find(|r| *r != Rule::Suppression && r.name() == name)
    }
}

// ---------------------------------------------------------------------------
// Shared line-level helpers
// ---------------------------------------------------------------------------

/// Strip comment markers (`//`, `///`, `//!`, leading `*` of block-comment
/// continuation lines) and surrounding whitespace from a comment-view line.
fn comment_content(line: &str) -> &str {
    line.trim()
        .trim_start_matches('/')
        .trim_start_matches(['!', '*'])
        .trim()
}

fn is_attr_line(code: &str) -> bool {
    let t = code.trim();
    t.starts_with("#[") || t.starts_with("#!")
}

/// Candidate comment lines for justifying/suppressing a finding on `line`:
/// the line itself plus the contiguous run of comment/attribute/blank lines
/// directly above it.
fn context_lines(f: &SourceFile, line: usize) -> Vec<usize> {
    let mut out = vec![line];
    let mut i = line;
    while i > 0 {
        i -= 1;
        let code = f.code[i].trim();
        if code.is_empty() || is_attr_line(&f.code[i]) {
            out.push(i);
        } else {
            break;
        }
    }
    out
}

/// Parse a suppression comment line into `(rule name, reason)`.
/// Syntax (start-anchored so prose mentioning the syntax is not parsed):
/// a comment whose content begins `lint: allow(<rule>) <reason>`.
fn parse_suppression(comment_line: &str) -> Option<(&str, &str)> {
    let c = comment_content(comment_line);
    let rest = c.strip_prefix("lint: allow(")?;
    let close = rest.find(')')?;
    Some((rest[..close].trim(), rest[close + 1..].trim()))
}

pub(crate) fn suppressed(f: &SourceFile, line: usize, rule: Rule) -> bool {
    context_lines(f, line).into_iter().any(|i| {
        parse_suppression(&f.comment[i])
            .and_then(|(name, _)| Rule::from_name(name))
            .is_some_and(|r| r == rule)
    })
}

/// `ordering:` marker in a comment (case-insensitive), excluding the path
/// separator in prose like "Ordering::Relaxed".
fn has_ordering_marker(text: &str) -> bool {
    let low = text.to_ascii_lowercase();
    let mut start = 0usize;
    while let Some(p) = low.get(start..).and_then(|s| s.find("ordering:")) {
        let after = start + p + "ordering:".len();
        if low.as_bytes().get(after) != Some(&b':') {
            return true;
        }
        start = after;
    }
    false
}

/// End line of the item starting at `start`: the line closing its brace
/// block, or the line of a terminating `;` for brace-less items.
pub fn item_span(code: &[String], start: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut seen_brace = false;
    for (li, line) in code.iter().enumerate().skip(start) {
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen_brace = true;
                }
                '}' => {
                    depth -= 1;
                    if seen_brace && depth <= 0 {
                        return Some(li);
                    }
                }
                ';' if !seen_brace && depth == 0 => return Some(li),
                _ => {}
            }
        }
    }
    None
}

/// Per line: is it inside a `#[cfg(test)]` item (test module or test-only
/// item)? Rules that target production code skip these lines.
pub fn test_lines(code: &[String]) -> Vec<bool> {
    let mut t = vec![false; code.len()];
    let mut i = 0usize;
    while i < code.len() {
        if code[i].trim().starts_with("#[cfg(test)]") {
            if let Some(end) = item_span(code, i) {
                for flag in &mut t[i..=end] {
                    *flag = true;
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    t
}

fn site(f: &SourceFile, i: usize) -> Site {
    Site {
        file: f.rel.clone(),
        line: i + 1,
        excerpt: f
            .raw
            .get(i)
            .map(|l| l.trim().to_string())
            .unwrap_or_default(),
    }
}

// ---------------------------------------------------------------------------
// Rule 1: unsafe-safety-comment
// ---------------------------------------------------------------------------

fn has_safety_comment(f: &SourceFile, line: usize) -> bool {
    context_lines(f, line)
        .into_iter()
        .any(|i| f.comment[i].contains("SAFETY") || f.comment[i].contains("# Safety"))
}

// ---------------------------------------------------------------------------
// Rule 2: no-panic-on-hostile-input
// ---------------------------------------------------------------------------

const PANIC_METHODS: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_err",
    "expect_err",
    "unwrap_unchecked",
];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Rust keywords that may lexically precede `[` without forming an index
/// expression (`&mut [f32]`, `let [a, b] = …`, `return [0; 4]`, …).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while",
];

/// Position of a direct index expression `expr[…]` on this line, if any.
/// Heuristic: `[` preceded (ignoring spaces) by an identifier that is not a
/// keyword, or by `)`, `]`, or `?` — which excludes attributes, `vec![…]`,
/// slice types, array literals, and slice patterns.
fn index_position(line: &str) -> Option<usize> {
    let b = line.as_bytes();
    for (p, &c) in b.iter().enumerate() {
        if c != b'[' {
            continue;
        }
        let mut q = p;
        while q > 0 && (b[q - 1] == b' ' || b[q - 1] == b'\t') {
            q -= 1;
        }
        if q == 0 {
            continue;
        }
        let prev = b[q - 1];
        if prev == b')' || prev == b']' || prev == b'?' {
            return Some(p);
        }
        if is_ident_byte(prev) {
            let mut s = q - 1;
            while s > 0 && is_ident_byte(b[s - 1]) {
                s -= 1;
            }
            // A lifetime (`&'a [u8]`) is a type position, not an index.
            let is_lifetime = s > 0 && b[s - 1] == b'\'';
            if let Some(ident) = line.get(s..q) {
                if !KEYWORDS.contains(&ident) && !is_lifetime {
                    return Some(p);
                }
            }
        }
    }
    None
}

fn check_hostile_line(f: &SourceFile, i: usize, findings: &mut Vec<Finding>) {
    let code = &f.code[i];
    let mut push = |msg: String| {
        if !suppressed(f, i, Rule::NoPanicHostile) {
            findings.push(Finding {
                file: f.rel.clone(),
                line: i + 1,
                rule: Rule::NoPanicHostile,
                message: msg,
            });
        }
    };
    for m in PANIC_METHODS {
        if method_call(code, m).is_some() {
            push(format!(
                "`.{m}()` can panic on hostile input; propagate a typed error instead"
            ));
        }
    }
    for m in PANIC_MACROS {
        if macro_call(code, m).is_some() {
            push(format!(
                "`{m}!` is reachable from hostile input; return an error instead"
            ));
        }
    }
    if index_position(code).is_some() {
        push(
            "direct slice/array indexing can panic on hostile input; use `.get()` or a \
             length-checked helper"
                .to_string(),
        );
    }
}

// ---------------------------------------------------------------------------
// Rule 3: atomics-ordering-audit
// ---------------------------------------------------------------------------

/// RMW operations where a Relaxed result is only conventionally fine when
/// the value is discarded (pure counters). If the value is consumed, the
/// site is ordering-sensitive and must be justified.
const RMW_COUNTERS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
];

/// RMW operations that are always ordering-sensitive under Relaxed.
const RMW_ALWAYS: &[&str] = &[
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
];

/// Is the RMW result consumed (bound, compared, or returned) rather than
/// discarded as a statement? Line-local heuristic.
fn value_consumed(line: &str, callpos: usize) -> bool {
    let t = line.trim_end();
    if !t.ends_with(';') {
        return true;
    }
    let lead = line.trim_start();
    for kw in ["if ", "while ", "return ", "match "] {
        if lead.starts_with(kw) {
            return true;
        }
    }
    let b = line.as_bytes();
    for i in 0..callpos.min(b.len().saturating_sub(1)) {
        if b[i] == b'=' {
            let prev = if i > 0 { b[i - 1] } else { b' ' };
            let next = b[i + 1];
            if !matches!(prev, b'=' | b'!' | b'<' | b'>') && !matches!(next, b'=' | b'>') {
                return true;
            }
        }
    }
    false
}

fn check_atomics_line(f: &SourceFile, i: usize, findings: &mut Vec<Finding>) {
    let code = &f.code[i];
    let mut push = |msg: String| {
        if !suppressed(f, i, Rule::AtomicsOrdering)
            && !context_lines(f, i)
                .into_iter()
                .any(|k| has_ordering_marker(&f.comment[k]))
        {
            findings.push(Finding {
                file: f.rel.clone(),
                line: i + 1,
                rule: Rule::AtomicsOrdering,
                message: msg,
            });
        }
    };
    if find_word(code, "SeqCst").is_some() {
        push(
            "SeqCst is almost never required here; justify it with an `// ordering:` comment \
             or weaken it"
                .to_string(),
        );
    }
    if find_word(code, "Relaxed").is_some() {
        if method_call(code, "store").is_some() {
            push(
                "Relaxed store publishing a flag/value needs an `// ordering:` justification \
                 (Release, or an argument why no data is published)"
                    .to_string(),
            );
        }
        for m in RMW_ALWAYS {
            if method_call(code, m).is_some() {
                push(format!(
                    "Relaxed `{m}` is ordering-sensitive; add an `// ordering:` justification"
                ));
            }
        }
        for m in RMW_COUNTERS {
            if let Some(p) = method_call(code, m) {
                if value_consumed(code, p) {
                    push(format!(
                        "Relaxed `{m}` whose result is consumed needs an `// ordering:` \
                         justification (pure statement counters are the documented convention)"
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: no-alloc-in-hot-path
// ---------------------------------------------------------------------------

const ALLOC_PATHS: &[&str] = &[
    "Vec::new",
    "Vec::with_capacity",
    "VecDeque::new",
    "VecDeque::with_capacity",
    "String::new",
    "String::from",
    "String::with_capacity",
    "Box::new",
    "Rc::new",
    "Arc::new",
    "HashMap::new",
    "HashSet::new",
    "BTreeMap::new",
    "BTreeSet::new",
];
const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_string",
    "to_owned",
    "into_owned",
    "collect",
    "clone",
];
const ALLOC_MACROS: &[&str] = &["vec", "format"];

fn alloc_token(code: &str) -> Option<&'static str> {
    for p in ALLOC_PATHS {
        if let Some(at) = code.find(p) {
            let before_ok = at == 0 || !is_ident_byte(code.as_bytes()[at - 1]);
            let end = at + p.len();
            let after_ok = end >= code.len() || !is_ident_byte(code.as_bytes()[end]);
            if before_ok && after_ok {
                return Some(p);
            }
        }
    }
    for m in ALLOC_METHODS {
        if method_call(code, m).is_some() {
            return Some(m);
        }
    }
    ALLOC_MACROS
        .iter()
        .find(|m| macro_call(code, m).is_some())
        .copied()
}

const HOT_PATH_MARKER: &str = "lint: hot-path";

fn check_hot_paths(f: &SourceFile, findings: &mut Vec<Finding>) {
    for i in 0..f.comment.len() {
        if !comment_content(&f.comment[i]).starts_with(HOT_PATH_MARKER) {
            continue;
        }
        // The marker binds to the next `fn` through blank/comment/attribute
        // lines (or a trailing marker on the fn line itself).
        let mut fn_line = None;
        for j in i..f.code.len().min(i + 16) {
            if find_word(&f.code[j], "fn").is_some() {
                fn_line = Some(j);
                break;
            }
            let t = f.code[j].trim();
            if j > i && !t.is_empty() && !is_attr_line(&f.code[j]) {
                break;
            }
        }
        let Some(fl) = fn_line else {
            findings.push(Finding {
                file: f.rel.clone(),
                line: i + 1,
                rule: Rule::NoAllocHotPath,
                message: "hot-path marker is not attached to a function".to_string(),
            });
            continue;
        };
        let Some(end) = item_span(&f.code, fl) else {
            continue;
        };
        for k in fl..=end {
            if let Some(tok) = alloc_token(&f.code[k]) {
                if !suppressed(f, k, Rule::NoAllocHotPath) {
                    findings.push(Finding {
                        file: f.rel.clone(),
                        line: k + 1,
                        rule: Rule::NoAllocHotPath,
                        message: format!("allocating call `{tok}` inside a hot-path function"),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 9: channel-capacity-audit
// ---------------------------------------------------------------------------

/// `capacity:` marker in a comment (case-insensitive), mirroring the
/// `ordering:`/`timing:` justification conventions.
fn has_capacity_marker(text: &str) -> bool {
    let low = text.to_ascii_lowercase();
    let mut start = 0usize;
    while let Some(p) = low.get(start..).and_then(|s| s.find("capacity:")) {
        let after = start + p + "capacity:".len();
        if low.as_bytes().get(after) != Some(&b':') {
            return true;
        }
        start = after;
    }
    false
}

/// A channel construction on this code line: `(kind, column)`. Matches
/// `channel(…)`, `channel::<T>(…)`, and `sync_channel(cap)` at identifier
/// boundaries; `sync_channel(0)` is a rendezvous channel, any other
/// capacity expression is `bounded`, plain `channel` is `unbounded`.
fn channel_site(code: &str) -> Option<(&'static str, usize)> {
    for word in ["sync_channel", "channel"] {
        let Some(at) = find_word(code, word) else {
            continue;
        };
        // Skip an optional turbofish (`channel::<WriterMsg>`), then require
        // a call paren so imports (`use mpsc::channel`) never match.
        let mut p = at + word.len();
        let b = code.as_bytes();
        if code[p..].starts_with("::<") {
            let mut depth = 0i64;
            for (i, c) in code[p..].char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            p += i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        if b.get(p) != Some(&b'(') {
            continue;
        }
        if word == "channel" {
            return Some(("unbounded", at));
        }
        let arg: String = code[p + 1..]
            .chars()
            .take_while(|&c| c != ')')
            .collect::<String>()
            .trim()
            .to_string();
        let kind = if arg == "0" { "rendezvous" } else { "bounded" };
        return Some((kind, at));
    }
    None
}

/// Every channel creation must say why its boundedness is right: unbounded
/// queues are unbounded memory under backpressure, rendezvous channels are
/// handoff latency, and a bounded capacity is a tuning decision — all three
/// deserve one `// capacity:` line. The audit also records every site in
/// the `--json` inventory so the workspace's queue topology is reviewable.
fn check_channels(f: &SourceFile, findings: &mut Vec<Finding>, inv: &mut Inventory) {
    for i in 0..f.code.len() {
        let Some((kind, _)) = channel_site(&f.code[i]) else {
            continue;
        };
        let justified = context_lines(f, i)
            .into_iter()
            .any(|k| has_capacity_marker(&f.comment[k]));
        inv.channels.push(crate::ChannelSite {
            file: f.rel.clone(),
            line: i + 1,
            kind,
            justified,
            test: f.is_test[i],
            excerpt: f
                .raw
                .get(i)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        });
        if f.is_test[i] || justified || suppressed(f, i, Rule::ChannelCapacity) {
            continue;
        }
        findings.push(Finding {
            file: f.rel.clone(),
            line: i + 1,
            rule: Rule::ChannelCapacity,
            message: format!(
                "{kind} channel created without a `// capacity:` justification; say why this \
                 boundedness cannot grow without limit (or why blocking sends are safe here)"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Suppression hygiene
// ---------------------------------------------------------------------------

fn check_suppressions(f: &SourceFile, findings: &mut Vec<Finding>) {
    for (i, cl) in f.comment.iter().enumerate() {
        if !comment_content(cl).starts_with("lint: allow(") {
            continue;
        }
        let msg = match parse_suppression(cl) {
            None => "malformed suppression: missing closing parenthesis".to_string(),
            Some((name, _)) if Rule::from_name(name).is_none() => {
                format!("suppression names unknown rule `{name}`")
            }
            Some((name, "")) => {
                format!("suppression of `{name}` must state a reason")
            }
            Some(_) => continue,
        };
        findings.push(Finding {
            file: f.rel.clone(),
            line: i + 1,
            rule: Rule::Suppression,
            message: msg,
        });
    }
}

// ---------------------------------------------------------------------------
// Per-file driver
// ---------------------------------------------------------------------------

pub fn check_file(cfg: &Config, f: &SourceFile, findings: &mut Vec<Finding>, inv: &mut Inventory) {
    check_suppressions(f, findings);
    let hostile = cfg.is_hostile(&f.rel);
    for i in 0..f.code.len() {
        let code = &f.code[i];
        if find_word(code, "unsafe").is_some() {
            inv.unsafe_sites.push(site(f, i));
            if !has_safety_comment(f, i) && !suppressed(f, i, Rule::UnsafeSafety) {
                findings.push(Finding {
                    file: f.rel.clone(),
                    line: i + 1,
                    rule: Rule::UnsafeSafety,
                    message: "`unsafe` without an adjacent `SAFETY:` justification".to_string(),
                });
            }
        }
        if code.contains("Ordering::") {
            inv.atomics.push(site(f, i));
        }
        if !f.is_test[i] {
            if hostile {
                check_hostile_line(f, i, findings);
            }
            check_atomics_line(f, i, findings);
        }
    }
    check_hot_paths(f, findings);
    check_channels(f, findings, inv);
}

// ---------------------------------------------------------------------------
// Cross-file helpers
// ---------------------------------------------------------------------------

/// `path::Variant` occurrence with identifier boundaries on both sides.
fn contains_path(text: &str, pat: &str) -> bool {
    let b = text.as_bytes();
    let mut start = 0usize;
    while let Some(p) = text.get(start..).and_then(|s| s.find(pat)) {
        let at = start + p;
        let end = at + pat.len();
        let before_ok = at == 0 || !is_ident_byte(b[at - 1]);
        let after_ok = end >= b.len() || !is_ident_byte(b[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Function spans of a file: `(name, start line, end line)`, 0-based
/// inclusive.
pub(crate) fn fn_spans(code: &[String]) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    for (i, line) in code.iter().enumerate() {
        let Some(at) = find_word(line, "fn") else {
            continue;
        };
        let rest = line[at + "fn".len()..].trim_start();
        let name: String = rest
            .bytes()
            .take_while(|&c| is_ident_byte(c))
            .map(char::from)
            .collect();
        if name.is_empty() {
            continue;
        }
        if let Some(end) = item_span(code, i) {
            spans.push((name, i, end));
        }
    }
    spans
}

// ---------------------------------------------------------------------------
// Rule 6: instant-outside-span
// ---------------------------------------------------------------------------

/// `timing:` marker in a comment (case-insensitive), mirroring the
/// `ordering:` convention for atomics.
fn has_timing_marker(text: &str) -> bool {
    let low = text.to_ascii_lowercase();
    let mut start = 0usize;
    while let Some(p) = low.get(start..).and_then(|s| s.find("timing:")) {
        let after = start + p + "timing:".len();
        if low.as_bytes().get(after) != Some(&b':') {
            return true;
        }
        start = after;
    }
    false
}

/// In the observed scopes (serve/obs), every production `Instant::now()`
/// must either start an observed stage span (the `enabled().then(Instant::now)`
/// idiom) or carry a `// timing:` comment saying what clock it is and why it
/// is not a span — otherwise latency quietly escapes the per-stage
/// accounting that `batch_window`/trace coverage gates rely on.
pub fn check_instant_spans(cfg: &Config, sources: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in sources {
        if !cfg
            .span_scopes
            .iter()
            .any(|p| f.rel.starts_with(p.as_str()))
        {
            continue;
        }
        for i in 0..f.code.len() {
            if f.is_test[i] {
                continue;
            }
            let code = &f.code[i];
            let Some(at) = code.find("Instant::now") else {
                continue;
            };
            if !contains_path(code, "Instant::now") {
                continue;
            }
            // The span idiom: the clock only exists when observation is on.
            if code[..at].contains("then(") {
                continue;
            }
            if context_lines(f, i)
                .into_iter()
                .any(|k| has_timing_marker(&f.comment[k]))
                || suppressed(f, i, Rule::InstantSpan)
            {
                continue;
            }
            findings.push(Finding {
                file: f.rel.clone(),
                line: i + 1,
                rule: Rule::InstantSpan,
                message: "`Instant::now()` outside an observed stage span; gate it with \
                          `enabled().then(Instant::now)` or justify the clock with a \
                          `// timing:` comment"
                    .to_string(),
            });
        }
    }
}
