//! Workspace lint gate: `cargo run -p hfqo_lint [workspace-root]`.
//! Exits non-zero on any active violation, stale allowlist entry, or
//! malformed allowlist. See the library docs for the rules (L1–L5, L7).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::current_dir().expect("hfqo_lint: cannot determine cwd"));

    let (active, suppressed, stale) = match hfqo_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hfqo_lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    for v in &active {
        eprintln!("{v}");
    }
    for e in &stale {
        eprintln!("allow.list: stale entry `{e}` — no matching violation remains; delete the line");
    }

    if active.is_empty() && stale.is_empty() {
        println!(
            "hfqo_lint: clean ({} violation(s) allowlisted with justification)",
            suppressed.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "hfqo_lint: {} active violation(s), {} stale allowlist entr(ies)",
            active.len(),
            stale.len()
        );
        ExitCode::FAILURE
    }
}
