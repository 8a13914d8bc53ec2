//! Mutation self-test: prove the linter catches what it claims.
//!
//! "The tree lints clean" is a weak statement on its own — a rule with a
//! silent matching bug lints clean too. This harness turns the claim into a
//! measurement: for every rule × every target crate it seeds **one**
//! representative violation into an in-memory copy of the real tree (remove
//! a length clamp, nest one lock inside another, un-justify a channel),
//! reruns the full analysis, and records whether the rule *killed* the
//! mutant — i.e. produced a finding of that rule in the mutated file. CI
//! runs `cardest-lint --mutate` and fails below a 100 % kill rate, then
//! uploads the matrix as `lint-mutation-matrix.json`.
//!
//! Mutants never touch disk and never need to compile: the linter operates
//! on masked token streams, so an injected lock nesting over fields nothing
//! else uses is as good a probe as a real one. In-place mutations (the serve
//! clamp removal, the serve channel's lost `// capacity:`) rewrite existing
//! lines so the harness also exercises each rule's justification-recognition
//! path, not just its match path.

use std::io;

use crate::rules::Rule;
use crate::{run_sources, scan_set, Config, SourceFile};

/// Crates the harness seeds violations into: the serving layer (the attack
/// surface), observability (shared concurrent state), the metrics core, and
/// the SIMD kernel crate.
pub const TARGET_CRATES: &[&str] = &["serve", "obs", "core", "nn"];

/// How one mutant rewrites the in-memory tree.
enum Mutation {
    /// Add a new source file at `rel`.
    AddFile { rel: String, content: String },
    /// Replace the first occurrence of `find` in `rel` with `replace`.
    Replace {
        rel: String,
        find: String,
        replace: String,
    },
}

impl Mutation {
    /// The file the seeded violation lives in (where the kill must land).
    fn primary(&self) -> &str {
        match self {
            Mutation::AddFile { rel, .. } | Mutation::Replace { rel, .. } => rel,
        }
    }

    /// Apply to a copy of the baseline. Errors if the target file or text
    /// is missing — a harness bug, not a surviving mutant, so it is loud.
    fn apply(&self, baseline: &[SourceFile]) -> io::Result<Vec<SourceFile>> {
        let mut out = baseline.to_vec();
        match self {
            Mutation::AddFile { rel, content } => {
                if out.iter().any(|f| &f.rel == rel) {
                    return Err(other(format!("mutant file `{rel}` already exists")));
                }
                out.push(SourceFile::from_source(rel, content));
            }
            Mutation::Replace { rel, find, replace } => {
                let f = find_mut(&mut out, rel)?;
                let text = f.raw.join("\n");
                if !text.contains(find.as_str()) {
                    return Err(other(format!(
                        "mutation target `{find}` not found in `{rel}`"
                    )));
                }
                let text = text.replacen(find.as_str(), replace, 1);
                *f = SourceFile::from_source(rel, &text);
            }
        }
        Ok(out)
    }
}

fn find_mut<'a>(sources: &'a mut [SourceFile], rel: &str) -> io::Result<&'a mut SourceFile> {
    sources
        .iter_mut()
        .find(|f| f.rel == rel)
        .ok_or_else(|| other(format!("mutation target file `{rel}` not in scan set")))
}

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// The seeded violation for `rule` in `krate`, or `None` where the rule
/// cannot apply (its scope excludes the crate by construction).
fn mutant_for(rule: Rule, krate: &str) -> Option<Mutation> {
    let src = |name: &str| format!("crates/{krate}/src/{name}");
    match rule {
        Rule::AtomicsOrdering => Some(Mutation::AddFile {
            rel: src("injected_atomics.rs"),
            content: "use std::sync::atomic::{AtomicU64, Ordering};\n\n\
                      pub fn injected_publish(flag: &AtomicU64) {\n    \
                      flag.store(1, Ordering::Relaxed);\n}\n"
                .to_string(),
        }),
        Rule::NoAllocHotPath => Some(Mutation::AddFile {
            rel: src("injected_hot.rs"),
            content: "// lint: hot-path\npub fn injected_hot() -> Vec<u64> {\n    Vec::new()\n}\n"
                .to_string(),
        }),
        Rule::LockOrder => Some(Mutation::AddFile {
            rel: src("injected_nesting.rs"),
            content: "use std::sync::Mutex;\n\n\
                      pub struct InjectedPair {\n    a: Mutex<u64>,\n    b: Mutex<u64>,\n}\n\n\
                      impl InjectedPair {\n    \
                      pub fn injected_sum(&self) -> u64 {\n        \
                      let ga = self.a.lock().unwrap();\n        \
                      let gb = self.b.lock().unwrap();\n        *ga + *gb\n    }\n}\n"
                .to_string(),
        }),
        Rule::InstantSpan => {
            // Scoped to the serve/obs span surfaces; elsewhere n/a.
            (krate == "serve" || krate == "obs").then(|| Mutation::AddFile {
                rel: src("injected_clock.rs"),
                content: "pub fn injected_clock() -> std::time::Instant {\n    \
                          std::time::Instant::now()\n}\n"
                    .to_string(),
            })
        }
        Rule::HostileLengthTaint => Some(if krate == "serve" {
            // Remove a real length clamp: the STATS count guard in wire.rs.
            Mutation::Replace {
                rel: src("wire.rs"),
                find: "if n as usize > MAX_STATS_ENTRIES {".to_string(),
                replace: "if n as usize > payload_hint {".to_string(),
            }
        } else {
            Mutation::AddFile {
                rel: src("http.rs"),
                content: "pub struct InjReader {\n    pos: u32,\n}\n\n\
                          impl InjReader {\n    \
                          pub fn u32(&mut self) -> u32 {\n        self.pos\n    }\n    \
                          pub fn injected_decode(&mut self) -> Vec<u8> {\n        \
                          let n = self.u32() as usize;\n        \
                          Vec::with_capacity(n)\n    }\n}\n"
                    .to_string(),
            }
        }),
        Rule::GuardBlocking => Some(Mutation::AddFile {
            rel: src("injected_guard.rs"),
            content: "use std::sync::mpsc::Receiver;\nuse std::sync::Mutex;\n\n\
                      pub struct InjectedQ {\n    q: Mutex<u64>,\n}\n\n\
                      impl InjectedQ {\n    \
                      pub fn injected_drain(&self, rx: &Receiver<u64>) -> u64 {\n        \
                      let g = self.q.lock().unwrap();\n        \
                      let v = rx.recv().unwrap();\n        *g + v\n    }\n}\n"
                .to_string(),
        }),
        Rule::ChannelCapacity => Some(if krate == "serve" {
            // Un-justify a real channel: blank the first `// capacity:`.
            Mutation::Replace {
                rel: src("service.rs"),
                find: "// capacity:".to_string(),
                replace: "// widened:".to_string(),
            }
        } else {
            Mutation::AddFile {
                rel: src("injected_chan.rs"),
                content: "use std::sync::mpsc;\n\n\
                          pub fn injected_pipe() -> (mpsc::Sender<u8>, mpsc::Receiver<u8>) {\n    \
                          mpsc::channel::<u8>()\n}\n"
                    .to_string(),
            }
        }),
        Rule::Suppression => Some(Mutation::AddFile {
            rel: src("injected_allow.rs"),
            content: "// lint: allow(lock-order)\npub fn injected_noop() {}\n".to_string(),
        }),
    }
}

/// Outcome of one seeded mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutantStatus {
    /// The rule produced at least one finding in the mutated file.
    Killed,
    /// The mutant lints clean under its rule — a coverage hole.
    Survived,
    /// The rule's scope excludes the crate by construction.
    NotApplicable,
}

impl MutantStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            MutantStatus::Killed => "killed",
            MutantStatus::Survived => "survived",
            MutantStatus::NotApplicable => "n/a",
        }
    }
}

/// One cell of the kill matrix.
#[derive(Debug, Clone)]
pub struct MutantOutcome {
    pub rule: Rule,
    pub krate: &'static str,
    /// The mutated/added file (empty for n/a cells).
    pub file: String,
    pub status: MutantStatus,
    /// Findings of `rule` attributed to `file` in the mutated run.
    pub findings: usize,
}

/// The full rules × crates kill matrix.
#[derive(Debug, Clone)]
pub struct MutationMatrix {
    pub outcomes: Vec<MutantOutcome>,
}

impl MutationMatrix {
    pub fn applicable(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status != MutantStatus::NotApplicable)
            .count()
    }

    pub fn killed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == MutantStatus::Killed)
            .count()
    }

    pub fn survivors(&self) -> Vec<&MutantOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.status == MutantStatus::Survived)
            .collect()
    }

    pub fn all_killed(&self) -> bool {
        self.survivors().is_empty()
    }

    /// `lint-mutation-matrix.json`: the CI artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":1,\"targets\":[");
        for (i, c) in TARGET_CRATES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{c}\""));
        }
        out.push_str("],\"mutants\":[");
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"crate\":\"{}\",\"file\":\"{}\",\"status\":\"{}\",\"findings\":{}}}",
                o.rule.name(),
                o.krate,
                o.file,
                o.status.as_str(),
                o.findings,
            ));
        }
        let (killed, applicable) = (self.killed(), self.applicable());
        out.push_str(&format!(
            "],\"killed\":{killed},\"applicable\":{applicable},\"kill_rate\":{}}}",
            if applicable == 0 {
                "null".to_string()
            } else if killed == applicable {
                "1.0".to_string()
            } else {
                format!("{:.3}", killed as f64 / applicable as f64)
            }
        ));
        out
    }

    /// Human-readable matrix for `--mutate` without `--json`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let width = Rule::ALL
            .iter()
            .map(|r| r.name().len())
            .max()
            .unwrap_or(0)
            .max("rule".len());
        out.push_str(&format!("{:<width$}", "rule"));
        for c in TARGET_CRATES {
            out.push_str(&format!("  {c:>8}"));
        }
        out.push('\n');
        for rule in Rule::ALL {
            out.push_str(&format!("{:<width$}", rule.name()));
            for c in TARGET_CRATES {
                let cell = self
                    .outcomes
                    .iter()
                    .find(|o| o.rule == rule && o.krate == *c)
                    .map(|o| o.status.as_str())
                    .unwrap_or("?");
                out.push_str(&format!("  {cell:>8}"));
            }
            out.push('\n');
        }
        let (killed, applicable) = (self.killed(), self.applicable());
        out.push_str(&format!(
            "mutation kill rate: {killed}/{applicable} ({})\n",
            if self.all_killed() { "100%" } else { "FAIL" }
        ));
        out
    }
}

/// Load the baseline tree once, verify it lints clean (a dirty baseline
/// would make every kill ambiguous), then run every rule × crate mutant.
pub fn run_mutations(cfg: &Config) -> io::Result<MutationMatrix> {
    let rels = scan_set(&cfg.root)?;
    let mut baseline = Vec::with_capacity(rels.len());
    for rel in &rels {
        baseline.push(SourceFile::load(&cfg.root, rel)?);
    }
    let base_report = run_sources(cfg, &baseline);
    if !base_report.is_clean() {
        return Err(other(format!(
            "baseline tree has {} finding(s); fix them before measuring mutation coverage",
            base_report.findings.len()
        )));
    }

    let mut outcomes = Vec::new();
    for rule in Rule::ALL {
        for &krate in TARGET_CRATES {
            let Some(mutation) = mutant_for(rule, krate) else {
                outcomes.push(MutantOutcome {
                    rule,
                    krate,
                    file: String::new(),
                    status: MutantStatus::NotApplicable,
                    findings: 0,
                });
                continue;
            };
            let primary = mutation.primary().to_string();
            let mutated = mutation.apply(&baseline)?;
            let report = run_sources(cfg, &mutated);
            let hits = report
                .findings
                .iter()
                .filter(|f| f.rule == rule && f.file == primary)
                .count();
            outcomes.push(MutantOutcome {
                rule,
                krate,
                file: primary,
                status: if hits > 0 {
                    MutantStatus::Killed
                } else {
                    MutantStatus::Survived
                },
                findings: hits,
            });
        }
    }
    Ok(MutationMatrix { outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_a_mutant_for_the_serving_crate() {
        // serve is the attack surface: every rule must be probed there.
        for rule in Rule::ALL {
            assert!(
                mutant_for(rule, "serve").is_some(),
                "no serve mutant for {}",
                rule.name()
            );
        }
    }

    #[test]
    fn instant_span_is_not_applicable_outside_its_scope() {
        assert!(mutant_for(Rule::InstantSpan, "core").is_none());
        assert!(mutant_for(Rule::InstantSpan, "nn").is_none());
        assert!(mutant_for(Rule::InstantSpan, "obs").is_some());
    }

    #[test]
    fn matrix_json_reports_a_full_kill_as_rate_one() {
        let outcomes = Rule::ALL
            .into_iter()
            .flat_map(|rule| {
                TARGET_CRATES.iter().map(move |&krate| MutantOutcome {
                    rule,
                    krate,
                    file: "crates/x/src/y.rs".to_string(),
                    status: MutantStatus::Killed,
                    findings: 1,
                })
            })
            .collect();
        let m = MutationMatrix { outcomes };
        assert!(m.all_killed());
        let json = m.to_json();
        assert!(json.contains("\"kill_rate\":1.0"), "{json}");
        assert!(json.contains("\"schema\":1"), "{json}");
    }

    #[test]
    fn a_survivor_fails_the_matrix_and_shows_in_text() {
        let m = MutationMatrix {
            outcomes: vec![MutantOutcome {
                rule: Rule::LockOrder,
                krate: "serve",
                file: "crates/serve/src/injected_nesting.rs".to_string(),
                status: MutantStatus::Survived,
                findings: 0,
            }],
        };
        assert!(!m.all_killed());
        assert_eq!(m.survivors().len(), 1);
        assert!(m.render_text().contains("survived"));
        assert!(m.to_json().contains("\"status\":\"survived\""));
    }
}
