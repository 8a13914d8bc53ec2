//! A lightweight per-crate symbol table: just enough name resolution to
//! support the cross-file lock passes (lock-order and
//! guard-held-across-blocking) without a real type checker.
//!
//! The table records three kinds of symbols per crate:
//!
//! - **Lock fields** — struct fields whose declared type mentions `Mutex<`
//!   or `RwLock<` (including wrappers like `Arc<Mutex<…>>` and containers
//!   like `Vec<Mutex<…>>`). Field names are assumed unique per crate, which
//!   holds for this workspace and keeps resolution table-driven instead of
//!   type-driven.
//! - **Lock parameters** — function parameters whose type mentions a lock.
//!   A parameter whose name matches a known lock field unifies with that
//!   field (the common "pass `&self.foo` down" pattern); otherwise it gets
//!   its own identity keyed by file stem, so the same name in sibling
//!   functions of one file refers to one lock.
//! - **Functions** — name, body span, parameter list, and (for accessor
//!   functions returning `&Mutex<…>`) the lock field their body exposes.
//!
//! Resolution of a lock *acquisition site* (`expr.lock()` / `.read()` /
//! `.write()`) walks the receiver expression backwards from the call and
//! maps its final component through this table. Receivers that resolve to
//! nothing — `stdout().lock()`, `TcpStream::read` — are deliberately
//! ignored: only locks the workspace declared are tracked.

use std::collections::HashMap;

use crate::lex::{find_word, is_ident_byte};
use crate::rules::item_span;
use crate::SourceFile;

/// What kind of synchronization primitive a symbol is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Mutex,
    RwLock,
}

/// One declared lock (a struct field or a function-parameter lock).
#[derive(Debug, Clone)]
pub struct LockSym {
    /// Stable identifier, e.g. `serve::ServiceStats.clients` for fields or
    /// `serve::service.rx` for parameter locks (crate::file-stem.name).
    pub id: String,
    pub kind: LockKind,
    /// Declaration site (workspace-relative file, 1-based line).
    pub file: String,
    pub line: usize,
}

/// One function (or method) definition.
#[derive(Debug, Clone)]
pub struct FnSym {
    pub name: String,
    /// Index into the scan set / `sources` slice.
    pub file_idx: usize,
    /// 0-based line of the `fn` keyword.
    pub start: usize,
    /// 0-based line closing the body (inclusive). `start == end` bodies are
    /// possible for one-liners; declarations without a body are skipped.
    pub end: usize,
    /// Parameter locks: `(param name, lock index)`.
    pub param_locks: Vec<(String, usize)>,
}

/// Per-crate symbol table.
#[derive(Debug, Default)]
pub struct CrateTable {
    /// Crate directory name (`crates/<name>/…`).
    pub name: String,
    /// All locks declared in the crate.
    pub locks: Vec<LockSym>,
    /// Struct-field lock name → index into `locks`.
    pub fields: HashMap<String, usize>,
    /// Accessor fn name → index into `locks` (fns returning `&Mutex<…>`
    /// whose body exposes a known lock field).
    pub accessors: HashMap<String, usize>,
    /// All function definitions in the crate.
    pub fns: Vec<FnSym>,
    /// Function name → indices into `fns` (overload sets across impls).
    pub fn_by_name: HashMap<String, Vec<usize>>,
}

/// Crate directory name for a workspace-relative path (`crates/<name>/…`).
pub fn crate_of(rel: &str) -> Option<&str> {
    let mut parts = rel.split('/');
    if parts.next() != Some("crates") {
        return None;
    }
    parts.next()
}

fn file_stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or(rel)
}

fn lock_kind_of(ty: &str) -> Option<LockKind> {
    // `Mutex<` / `RwLock<` at an identifier boundary, so `FauxMutex<`
    // does not match.
    for (pat, kind) in [("Mutex<", LockKind::Mutex), ("RwLock<", LockKind::RwLock)] {
        let mut start = 0usize;
        while let Some(p) = ty.get(start..).and_then(|s| s.find(pat)) {
            let at = start + p;
            if at == 0 || !is_ident_byte(ty.as_bytes()[at - 1]) {
                return Some(kind);
            }
            start = at + 1;
        }
    }
    None
}

/// Leading identifier of `s` (after trimming), if any.
fn leading_ident(s: &str) -> Option<&str> {
    let t = s.trim_start();
    let end = t.bytes().take_while(|&c| is_ident_byte(c)).count();
    if end == 0 {
        None
    } else {
        t.get(..end)
    }
}

/// Split a parameter list at top-level commas (angle brackets and parens
/// tracked so `HashMap<u64, ClientStats>` stays one parameter).
fn split_params(params: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = 0usize;
    for (i, c) in params.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&params[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&params[start..]);
    out
}

/// Extract the parenthesized parameter text and the return-type text of the
/// `fn` starting at line `start` (scanning at most a few lines of signature).
fn fn_signature(code: &[String], start: usize) -> Option<(String, String)> {
    let mut sig = String::new();
    for line in code.iter().skip(start).take(12) {
        sig.push_str(line);
        sig.push(' ');
        // The signature ends at the body `{` or a declaration-only `;` once
        // the parameter parens are balanced.
        let open = sig.find('(')?;
        let mut depth = 0i64;
        for (i, c) in sig[open..].char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        let params = sig[open + 1..open + i].to_string();
                        let rest = &sig[open + i + 1..];
                        if let Some(body) = rest.find(['{', ';']) {
                            return Some((params, rest[..body].to_string()));
                        }
                        // Return type continues on a later line.
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Build the per-crate symbol tables for the whole scan set.
pub fn build(sources: &[SourceFile]) -> HashMap<String, CrateTable> {
    let mut tables: HashMap<String, CrateTable> = HashMap::new();

    // Pass 1: struct-field locks.
    for (fi, f) in sources.iter().enumerate() {
        let Some(krate) = crate_of(&f.rel) else {
            continue;
        };
        let table = tables
            .entry(krate.to_string())
            .or_insert_with(|| CrateTable {
                name: krate.to_string(),
                ..CrateTable::default()
            });
        collect_struct_locks(f, table);
        let _ = fi;
    }

    // Pass 2: functions (needs the field set for param unification and
    // accessor detection).
    for (fi, f) in sources.iter().enumerate() {
        let Some(krate) = crate_of(&f.rel) else {
            continue;
        };
        let table = tables.get_mut(krate).expect("crate table from pass 1");
        collect_fns(f, fi, table);
    }
    tables
}

fn collect_struct_locks(f: &SourceFile, table: &mut CrateTable) {
    let mut i = 0usize;
    while i < f.code.len() {
        let line = &f.code[i];
        let Some(at) = find_word(line, "struct") else {
            i += 1;
            continue;
        };
        let Some(name) = leading_ident(&line[at + "struct".len()..]) else {
            i += 1;
            continue;
        };
        let name = name.to_string();
        let Some(end) = item_span(&f.code, i) else {
            i += 1;
            continue;
        };
        // Walk the struct body, splitting field segments at depth-1 commas
        // (commas inside generic arguments still leave `ident: …Mutex<` as
        // the segment prefix, which is all `record_field` needs).
        let mut depth = 0i64;
        let mut seg = String::new();
        let mut seg_line = i;
        for li in i..=end {
            for c in f.code[li].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        if depth == 1 {
                            seg.clear();
                            seg_line = li;
                        }
                    }
                    '}' => {
                        if depth == 1 {
                            record_field(&seg, seg_line, &name, f, table);
                        }
                        depth -= 1;
                    }
                    ',' if depth == 1 => {
                        record_field(&seg, seg_line, &name, f, table);
                        seg.clear();
                        seg_line = li;
                    }
                    c if depth == 1 => seg.push(c),
                    _ => {}
                }
            }
            if depth == 1 {
                seg.push(' ');
            }
        }
        i = end + 1;
    }
}

/// Record one struct-field segment (`[pub] ident: Type…`) if lock-typed.
fn record_field(seg: &str, line: usize, strukt: &str, f: &SourceFile, table: &mut CrateTable) {
    let t = seg.trim();
    // Strip `pub`, `pub(crate)`, `pub(super)` … visibility prefixes.
    let t = match t.strip_prefix("pub") {
        Some(r) if r.starts_with([' ', '(']) => {
            let r = r.trim_start();
            match r.strip_prefix('(').and_then(|s| s.split_once(')')) {
                Some((_, after)) => after.trim_start(),
                None => r,
            }
        }
        _ => t,
    };
    let Some(field) = leading_ident(t) else {
        return;
    };
    let rest = &t[field.len()..];
    if !rest.trim_start().starts_with(':') {
        return;
    }
    let Some(kind) = lock_kind_of(rest) else {
        return;
    };
    let idx = table.locks.len();
    table.locks.push(LockSym {
        id: format!("{}::{}.{}", table.name, strukt, field),
        kind,
        file: f.rel.clone(),
        line: line + 1,
    });
    table.fields.insert(field.to_string(), idx);
}

fn collect_fns(f: &SourceFile, file_idx: usize, table: &mut CrateTable) {
    for start in 0..f.code.len() {
        let line = &f.code[start];
        let Some(at) = find_word(line, "fn") else {
            continue;
        };
        let Some(name) = leading_ident(&line[at + "fn".len()..]) else {
            continue;
        };
        let name = name.to_string();
        let Some((params, ret)) = fn_signature(&f.code, start) else {
            continue;
        };
        let Some(end) = item_span(&f.code, start) else {
            continue;
        };
        // Declaration without a body (trait method): nothing to analyze.
        if f.code[start..=end].iter().all(|l| !l.contains('{')) {
            continue;
        }

        let mut param_locks = Vec::new();
        for p in split_params(&params) {
            let Some(pname) = leading_ident(p) else {
                continue;
            };
            let Some(kind) = lock_kind_of(p) else {
                continue;
            };
            // Unify with a same-named struct field when one exists (the
            // "pass the field down" pattern); otherwise mint a
            // file-stem-scoped lock identity.
            let idx = match table.fields.get(pname) {
                Some(&idx) => idx,
                None => {
                    let id = format!("{}::{}.{}", table.name, file_stem(&f.rel), pname);
                    match table.locks.iter().position(|l| l.id == id) {
                        Some(idx) => idx,
                        None => {
                            table.locks.push(LockSym {
                                id,
                                kind,
                                file: f.rel.clone(),
                                line: start + 1,
                            });
                            table.locks.len() - 1
                        }
                    }
                }
            };
            param_locks.push((pname.to_string(), idx));
        }

        // Accessor detection: `-> &…Mutex<…>` return type whose body touches
        // a known lock field.
        if lock_kind_of(&ret).is_some() {
            let field_hit = f.code[start..=end].iter().find_map(|l| {
                table
                    .fields
                    .iter()
                    .find_map(|(fname, &idx)| l.contains(&format!("self.{fname}")).then_some(idx))
            });
            if let Some(idx) = field_hit {
                table.accessors.insert(name.clone(), idx);
            }
        }

        let fidx = table.fns.len();
        table.fns.push(FnSym {
            name: name.clone(),
            file_idx,
            start,
            end,
            param_locks,
        });
        table.fn_by_name.entry(name).or_default().push(fidx);
    }
}

/// A parsed receiver component, outermost-last: `self.shards[i]` yields
/// `[shards(Index), self]` walking backwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompKind {
    Plain,
    Call,
    Index,
}

/// Walk a receiver expression backwards from `pos` (the index of the `.`
/// that starts `.lock(`/`.read(`/`.write(`) and return its components in
/// reverse order (final field/method first).
pub fn parse_receiver(text: &[u8], pos: usize) -> Vec<(String, CompKind)> {
    let mut comps = Vec::new();
    let mut i = pos;
    loop {
        // Skip whitespace (receivers span lines in chained calls).
        while i > 0 && (text[i - 1] as char).is_ascii_whitespace() {
            i -= 1;
        }
        if i == 0 {
            break;
        }
        let mut kind = CompKind::Plain;
        // Trailing `(…)` or `[…]` groups (possibly stacked, e.g. `f()[0]`).
        loop {
            let c = text[i - 1];
            let (open, close) = match c {
                b')' => (b'(', b')'),
                b']' => (b'[', b']'),
                _ => break,
            };
            kind = if close == b')' {
                CompKind::Call
            } else {
                CompKind::Index
            };
            let mut depth = 0i64;
            while i > 0 {
                let c = text[i - 1];
                if c == close {
                    depth += 1;
                } else if c == open {
                    depth -= 1;
                    if depth == 0 {
                        i -= 1;
                        break;
                    }
                }
                i -= 1;
            }
            while i > 0 && (text[i - 1] as char).is_ascii_whitespace() {
                i -= 1;
            }
        }
        // The identifier (absent for a parenthesized expression like
        // `(a.b()).lock()` — then the group itself ends the walk).
        let end = i;
        while i > 0 && is_ident_byte(text[i - 1]) {
            i -= 1;
        }
        if i == end && kind == CompKind::Plain {
            break;
        }
        let name = String::from_utf8_lossy(&text[i..end]).into_owned();
        comps.push((name, kind));
        // Continue through `.` or `::` separators.
        if i >= 1 && text[i - 1] == b'.' {
            i -= 1;
        } else if i >= 2 && text[i - 1] == b':' && text[i - 2] == b':' {
            i -= 2;
        } else {
            break;
        }
    }
    comps
}

impl CrateTable {
    /// Resolve a receiver (as parsed by [`parse_receiver`]) to a lock index,
    /// given the enclosing function (for parameter locks).
    pub fn resolve_lock(&self, comps: &[(String, CompKind)], enclosing: &FnSym) -> Option<usize> {
        let (name, kind) = comps.first()?;
        match kind {
            CompKind::Call => self.accessors.get(name.as_str()).copied(),
            CompKind::Plain | CompKind::Index => {
                if let Some(&idx) = self.fields.get(name.as_str()) {
                    return Some(idx);
                }
                // A bare identifier may be a lock-typed parameter of the
                // enclosing function.
                if comps.len() == 1 {
                    enclosing
                        .param_locks
                        .iter()
                        .find(|(p, _)| p == name)
                        .map(|&(_, idx)| idx)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(rel, src)
    }

    #[test]
    fn struct_field_locks_are_collected() {
        let src = "pub struct S {\n    pub a: Mutex<u64>,\n    b: Vec<Mutex<V>>,\n    c: Arc<RwLock<W>>,\n    d: u64,\n}\n";
        let f = sf("crates/app/src/lib.rs", src);
        let tables = build(std::slice::from_ref(&f));
        let t = &tables["app"];
        assert_eq!(t.locks.len(), 3);
        assert_eq!(t.locks[0].id, "app::S.a");
        assert_eq!(t.locks[1].id, "app::S.b");
        assert_eq!(t.locks[2].kind, LockKind::RwLock);
        assert!(t.fields.contains_key("c"));
        assert!(!t.fields.contains_key("d"));
    }

    #[test]
    fn param_locks_unify_with_fields_by_name() {
        let src = "struct S {\n    joins: Mutex<Vec<u8>>,\n}\nfn f(joins: &Arc<Mutex<Vec<u8>>>, other: &Mutex<u8>) {\n    let _ = joins;\n}\n";
        let f = sf("crates/app/src/net.rs", src);
        let tables = build(std::slice::from_ref(&f));
        let t = &tables["app"];
        let fsym = t.fns.iter().find(|x| x.name == "f").unwrap();
        assert_eq!(fsym.param_locks.len(), 2);
        // `joins` unified with the field; `other` minted a file-stem id.
        assert_eq!(t.locks[fsym.param_locks[0].1].id, "app::S.joins");
        assert_eq!(t.locks[fsym.param_locks[1].1].id, "app::net.other");
    }

    #[test]
    fn accessor_fns_map_to_their_field() {
        let src = "struct C {\n    shards: Vec<Mutex<u8>>,\n}\nimpl C {\n    fn shard(&self, i: usize) -> &Mutex<u8> {\n        &self.shards[i & 3]\n    }\n}\n";
        let f = sf("crates/app/src/cache.rs", src);
        let tables = build(std::slice::from_ref(&f));
        let t = &tables["app"];
        let idx = t.accessors["shard"];
        assert_eq!(t.locks[idx].id, "app::C.shards");
    }

    #[test]
    fn receiver_parsing_handles_chains_calls_and_indexing() {
        let cases: &[(&str, &[&str])] = &[
            ("self.clients.lock()", &["clients", "self"]),
            ("self.shards[idx].lock()", &["shards", "self"]),
            ("self.shard(e, fp)\n    .lock()", &["shard", "self"]),
            ("registry().live.lock()", &["live", "registry"]),
            ("rx.lock()", &["rx"]),
        ];
        for (src, want) in cases {
            let pos = src.find(".lock(").unwrap();
            let comps = parse_receiver(src.as_bytes(), pos);
            let names: Vec<&str> = comps.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(&names, want, "receiver of {src:?}");
        }
    }
}
