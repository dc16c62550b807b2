//! Runs the driver itself, in `--smoke` mode (a fiftieth of each op
//! list, one pass), on every workload, untraced and traced: each run
//! must pass its oracle and its result line must carry every declared
//! metric and nothing else.

use hfqo_perfbench::ledger::report::{END_TO_END, PER_LAYER};
use hfqo_perfbench::workloads::NAMES;
use std::process::Command;

fn smoke(workload: &str, trace: bool) -> String {
    let spans = format!("{}/spans_{workload}.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_hfqo_perfbench"))
        .args(["--workload", workload, "--seed", "1009", "--seconds", "1"])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
            "--spans",
            &spans,
        ])
        .output()
        .expect("the driver starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    if trace {
        let written = std::fs::read_to_string(&spans).expect("a traced run writes its spans");
        assert!(written.lines().count() > 1, "{workload}: empty span file");
        assert!(written.starts_with("{\"id\":0,\"name\":\""));
    }
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(line: &str, declared: &[(&str, &str)], other: &[(&str, &str)]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    for (name, unit) in declared {
        let at = line
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("`{name}` missing from {line}"));
        let entry = &line[at..at + line[at..].find('}').expect("entry closes")];
        assert!(entry.ends_with(&format!("\"unit\": \"{unit}\"")), "{entry}");
    }
    for (name, _) in other {
        assert!(
            !line.contains(&format!("\"{name}\":")),
            "`{name}` is not for this mode"
        );
    }
}

#[test]
fn every_workload_passes_its_oracle_untraced() {
    for workload in NAMES {
        let line = smoke(workload, false);
        check(&line, END_TO_END, PER_LAYER);
        for (name, _) in END_TO_END {
            assert!(
                !line.contains(&format!("\"{name}\": {{\"value\": 0,")),
                "{workload}: end-to-end metric `{name}` is 0"
            );
        }
    }
}

#[test]
fn every_workload_passes_its_oracle_and_staged_proof_traced() {
    for workload in NAMES {
        check(&smoke(workload, true), PER_LAYER, END_TO_END);
    }
}

#[test]
fn a_bad_command_line_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_hfqo_perfbench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the driver starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}
