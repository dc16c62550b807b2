//! Self-tests for the lint: every rule must fire on its known-violating
//! fixture (and only where expected), the allowlist must round-trip —
//! including the stale-entry error path — and the live workspace must
//! scan clean, making `cargo test` itself a lint gate.
//!
//! Fixture sources live under `tests/fixtures/` (excluded from the
//! workspace scan precisely because they violate on purpose); the
//! classification path each fixture is scanned *as* is chosen per test,
//! since path-based scoping (tests/, crates/sync/) is part of
//! what is under test.

use hfqo_lint::{parse_allowlist, scan_file, scan_unnamed_pub, scan_workspace, Rule};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn count(rel_path: &str, source: &str, rule: Rule) -> usize {
    scan_file(rel_path, source)
        .iter()
        .filter(|v| v.rule == rule)
        .count()
}

#[test]
fn l1_fires_on_raw_std_sync_outside_crates_sync() {
    let src = fixture("l1_std_sync.rs");
    assert_eq!(count("crates/serve/src/x.rs", &src, Rule::L1), 1);
    // The same source inside crates/sync is exempt.
    assert_eq!(count("crates/sync/src/x.rs", &src, Rule::L1), 0);
}

#[test]
fn l2_fires_on_wall_clock() {
    let src = fixture("l2_wall_clock.rs");
    assert_eq!(count("crates/rejoin/src/x.rs", &src, Rule::L2), 1);
}

#[test]
fn l3_fires_only_on_the_unjustified_strong_ordering() {
    let src = fixture("l3_unjustified_ordering.rs");
    let hits: Vec<_> = scan_file("crates/exec/src/x.rs", &src)
        .into_iter()
        .filter(|v| v.rule == Rule::L3)
        .collect();
    // One bare Acquire fires; the justified Acquire and the Relaxed
    // load do not.
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].message.contains("Acquire"));
}

#[test]
fn l4_fires_in_test_code_only() {
    let src = fixture("l4_sleep_in_test.rs");
    // Scanned as a library file: only the cfg(test) sleep fires, not
    // the library backoff helper.
    let hits: Vec<_> = scan_file("crates/serve/src/x.rs", &src)
        .into_iter()
        .filter(|v| v.rule == Rule::L4)
        .collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    // Scanned as an integration-test file: both sleeps are test code.
    assert_eq!(count("tests/x.rs", &src, Rule::L4), 2);
}

#[test]
fn l5_fires_on_lock_and_channel_unwraps_in_library_code() {
    let src = fixture("l5_lock_unwrap.rs");
    assert_eq!(count("crates/serve/src/x.rs", &src, Rule::L5), 2);
    // Test code is out of scope for L5.
    assert_eq!(count("tests/x.rs", &src, Rule::L5), 0);
}

/// L7 over the fixture as `crates/a/src/lib.rs` plus one more file.
fn l7_items(other_path: &str, other_source: &str) -> Vec<String> {
    let files = [
        (
            "crates/a/src/lib.rs".to_string(),
            fixture("l7_unnamed_pub.rs"),
        ),
        (other_path.to_string(), other_source.to_string()),
    ];
    scan_unnamed_pub(&files)
        .into_iter()
        .map(|v| {
            assert_eq!(v.rule, Rule::L7);
            v.item.expect("L7 names its item")
        })
        .collect()
}

#[test]
fn l7_fires_on_a_pub_fn_nothing_outside_its_crate_names() {
    let call = "fn main() { a::nobody_names_me(); }\n";
    // Unnamed, named only inside its own crate's library, or named only
    // in a comment or a string elsewhere: the one `pub fn` fires. The
    // type, the `pub(crate)` fn and the cfg(test) module never do.
    for (path, source) in [
        ("crates/b/src/lib.rs", "fn unrelated() {}\n"),
        ("crates/a/src/other.rs", call),
        (
            "crates/b/src/lib.rs",
            "// nobody_names_me\nconst S: &str = \"nobody_names_me\";\n",
        ),
    ] {
        assert_eq!(l7_items(path, source), ["nobody_names_me"], "{path}");
    }
}

#[test]
fn l7_is_silent_when_the_name_appears_outside_the_crate() {
    for path in [
        "crates/b/src/lib.rs",
        "crates/a/tests/it.rs",
        "crates/a/src/main.rs",
        "crates/a/src/bin/tool.rs",
        "perfbench/src/main.rs",
        "tests/end_to_end.rs",
        "examples/demo.rs",
    ] {
        let call = "fn main() { a::nobody_names_me(); }\n";
        assert!(l7_items(path, call).is_empty(), "{path}");
    }
}

#[test]
fn l7_reexports_name_nothing() {
    let facade = fixture("l7_reexports.rs");
    // Re-exported on one line and in a block: still named by nothing.
    assert_eq!(l7_items("src/lib.rs", &facade), ["nobody_names_me"]);
    // Code after the block names again.
    let calls = format!("{facade}fn main() {{ a::nobody_names_me(); }}\n");
    assert!(l7_items("src/lib.rs", &calls).is_empty());
}

#[test]
fn l7_allowlist_entries_name_the_item() {
    let files = [(
        "crates/a/src/lib.rs".to_string(),
        fixture("l7_unnamed_pub.rs"),
    )];
    let allow = parse_allowlist(
        "L7 crates/a/src/lib.rs::nobody_names_me -- kept on purpose\n\
         L7 crates/a/src/lib.rs::gone -- stale on purpose\n",
    )
    .expect("well-formed allowlist parses");
    let (active, suppressed, stale) = hfqo_lint::apply_allowlist(scan_unnamed_pub(&files), &allow);
    assert!(active.is_empty(), "{active:?}");
    assert_eq!(suppressed.len(), 1);
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].path, "crates/a/src/lib.rs::gone");
}

#[test]
fn allowlist_roundtrip_suppresses_and_reports_stale() {
    let src = fixture("l2_wall_clock.rs");
    let violations = scan_file("crates/rejoin/src/x.rs", &src);
    let allow = parse_allowlist(
        "# comment\n\
         L2 crates/rejoin/src/x.rs -- latency metric only\n\
         L2 crates/never/was/violating.rs -- stale on purpose\n",
    )
    .expect("well-formed allowlist parses");
    let (active, suppressed, stale) = hfqo_lint::apply_allowlist(violations, &allow);
    assert!(active.is_empty(), "{active:?}");
    assert_eq!(suppressed.len(), 1);
    assert_eq!(stale.len(), 1, "the unmatched entry must surface as stale");
    assert_eq!(stale[0].path, "crates/never/was/violating.rs");
}

#[test]
fn workspace_scan_skips_the_fixture_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let violations = scan_workspace(&root).expect("workspace scans");
    assert!(
        violations
            .iter()
            .all(|v| !v.path.contains("crates/lint/tests/fixtures")),
        "fixtures must never leak into the workspace scan"
    );
}

/// The whole point: the live workspace is lint-clean under the
/// checked-in allowlist, so `cargo test` fails alongside CI when a
/// violation or a stale allowlist entry appears.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (active, _suppressed, stale) = hfqo_lint::run(&root).expect("lint runs");
    assert!(active.is_empty(), "active lint violations: {active:#?}");
    assert!(stale.is_empty(), "stale allowlist entries: {stale:#?}");
}
