//! End-to-end tests of the `berkmin-bench` binary: dispatch and usage
//! errors, one paper figure, and the two `BENCH_*.json` writers.

use std::path::PathBuf;
use std::process::{Command, Output};

use berkmin::telemetry::json::{self, Value};
use berkmin_bench::COMMANDS;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_berkmin-bench"))
        .args(args)
        .output()
        .expect("berkmin-bench runs")
}

/// A temp file path of this test's own.
fn temp_path(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("berkmin_bench_{test}_{}.json", std::process::id()))
}

/// Runs a `BENCH_*.json` writer into a temp file and parses the result.
fn bench_json(test: &str, args: &[&str]) -> Value {
    let path = temp_path(test);
    let path_arg = path.to_str().expect("utf-8 temp path");
    let out = bench(&[args, &["--out", path_arg]].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("JSON written");
    std::fs::remove_file(&path).ok();
    json::parse(&text).expect("JSON parses")
}

#[test]
fn usage_errors_exit_2_and_list_every_subcommand() {
    for args in [
        &[][..],
        &["table11"][..],
        &["fig1", "--bogus"][..],
        &["preprocess", "--threads", "2"][..],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for command in COMMANDS {
            assert!(
                stderr.contains(command.name),
                "usage lacks {}: {stderr}",
                command.name
            );
        }
    }
}

#[test]
fn fig1_prints_the_mobility_table() {
    let out = bench(&["fig1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Fig. 1b: fraction of decisions on cone variables"),
        "{stdout}"
    );
    assert!(
        stdout.contains("| Decision window | BerkMin | Less_mobility |"),
        "{stdout}"
    );
    assert!(stdout.contains("mean cone-decision fraction"), "{stdout}");
}

#[test]
fn preprocess_smoke_writes_a_null_row_when_the_simplifier_never_ran() {
    let doc = bench_json("preprocess_smoke", &["preprocess", "--smoke"]);
    let rows = doc
        .get("results")
        .and_then(Value::as_array)
        .expect("results");
    assert_eq!(rows.len(), 3);
    for row in rows {
        let simplify = row.get("simplify").expect("simplify field");
        if row.get("instance").and_then(Value::as_str) == Some("cnt3u") {
            // Refuted by unit propagation while loading: nothing to report.
            assert_eq!(simplify, &Value::Null);
        } else {
            let count = |key| simplify.get(key).and_then(Value::as_u64).expect(key);
            assert!(count("clauses_after") <= count("clauses_before"), "{row:?}");
            assert!(count("clauses_before") > 0, "{row:?}");
        }
    }
}

#[test]
fn portfolio_smoke_writes_four_rows() {
    let doc = bench_json(
        "portfolio_smoke",
        &["portfolio", "--smoke", "--threads", "2"],
    );
    assert_eq!(doc.get("threads").and_then(Value::as_u64), Some(2));
    let rows = doc
        .get("results")
        .and_then(Value::as_array)
        .expect("results");
    assert_eq!(rows.len(), 4);
    for row in rows {
        for arm in ["single", "portfolio"] {
            let verdict = row.get(arm).and_then(|a| a.get("verdict"));
            assert!(verdict.and_then(Value::as_str).is_some(), "{row:?}");
        }
    }
}
