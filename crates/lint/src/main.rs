//! `cardest-lint` CLI: lint the workspace tree and exit nonzero on any
//! finding.
//!
//! ```text
//! cargo run -p cardest-lint                    # human-readable findings
//! cargo run -p cardest-lint -- --json          # machine report + inventory
//! cargo run -p cardest-lint -- --deny          # explicit CI gate (same exit code)
//! cargo run -p cardest-lint -- --rule lock-order,hostile-length-taint
//! cargo run -p cardest-lint -- --list-rules    # print the rule registry
//! cargo run -p cardest-lint -- --mutate        # mutation self-test (kill matrix)
//! cargo run -p cardest-lint -- PATH            # lint a different workspace root
//! ```

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use cardest_lint::{mutate, run, Config, Rule};

const USAGE: &str =
    "usage: cardest-lint [--json] [--deny] [--rule NAMES] [--list-rules] [--mutate] [ROOT]

Lints every crates/*/src file under ROOT (default: the enclosing workspace)
against the project invariants and exits nonzero on any finding.

  --json        print a machine-readable report (schema 4: findings +
                unsafe/atomics/channels/taint-flow inventories + lock
                graph) to stdout instead of rustc-style lines
  --deny        explicit strict gate for CI; today all findings are already
                denied, the flag reserves room for warn-level rules
  --rule NAMES  report findings of the named rules only, comma-separated
                (the full analysis still runs; output and the exit code
                are filtered); repeatable
  --list-rules  print every rule name with a one-line description and exit
  --mutate      mutation self-test: seed one violation per rule per target
                crate into an in-memory copy of the tree and verify every
                mutant is killed; prints the kill matrix (JSON with --json)
                and exits nonzero below a 100% kill rate
";

fn find_root() -> Option<PathBuf> {
    let mut dir = env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn list_rules() {
    for r in Rule::ALL {
        println!("{:<26} {}", r.name(), r.doc());
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut do_mutate = false;
    let mut only: Vec<Rule> = Vec::new();
    let mut root: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny" => {} // all findings are denying today; see USAGE
            "--mutate" => do_mutate = true,
            "--list-rules" => {
                list_rules();
                return ExitCode::SUCCESS;
            }
            "--rule" => {
                let Some(names) = args.next() else {
                    eprintln!("cardest-lint: --rule needs a rule name (or a comma-separated list)\n{USAGE}");
                    return ExitCode::from(2);
                };
                for name in names.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                    // `suppression` is intentionally selectable here even
                    // though it cannot be suppressed, so Rule::ALL is the
                    // single source of valid names.
                    match Rule::ALL.into_iter().find(|r| r.name() == name) {
                        Some(r) => {
                            if !only.contains(&r) {
                                only.push(r);
                            }
                        }
                        None => {
                            eprintln!("cardest-lint: unknown rule `{name}`; valid rules are:");
                            list_rules();
                            return ExitCode::from(2);
                        }
                    }
                }
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("cardest-lint: unknown flag `{flag}`\n{USAGE}");
                return ExitCode::from(2);
            }
            path => root = Some(PathBuf::from(path)),
        }
    }
    let Some(root) = root.or_else(find_root) else {
        eprintln!("cardest-lint: could not locate a workspace root (a directory with crates/ and Cargo.toml); pass one explicitly");
        return ExitCode::from(2);
    };
    let cfg = Config::workspace(&root);

    if do_mutate {
        let matrix = match mutate::run_mutations(&cfg) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("cardest-lint: {e}");
                return ExitCode::from(2);
            }
        };
        if json {
            println!("{}", matrix.to_json());
        } else {
            print!("{}", matrix.render_text());
        }
        for s in matrix.survivors() {
            eprintln!(
                "cardest-lint: mutant survived: rule `{}` did not fire on `{}`",
                s.rule.name(),
                s.file
            );
        }
        return if matrix.all_killed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cardest-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if !only.is_empty() {
        report.findings.retain(|f| only.contains(&f.rule));
    }

    if json {
        println!("{}", report.to_json());
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        eprintln!(
            "cardest-lint: {} finding(s) across {} file(s)",
            report.findings.len(),
            report.files_scanned
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
