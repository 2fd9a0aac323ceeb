//! End-to-end tests of the `berkmin-cli` binary: DIMACS in, SAT-competition
//! output and exit codes out, DRAT proof emission and self-checking.

use std::io::Write;
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_berkmin-cli"))
}

fn run_with_stdin(args: &[&str], input: &str) -> (String, i32) {
    let mut child = cli()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn berkmin-cli");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("cli runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn sat_instance_reports_model_and_exit_10() {
    let (stdout, code) = run_with_stdin(&[], "p cnf 2 2\n1 -2 0\n2 0\n");
    assert_eq!(code, 10);
    assert!(stdout.contains("s SATISFIABLE"), "{stdout}");
    assert!(stdout.contains("v 1 2 0"), "model line expected: {stdout}");
}

#[test]
fn unsat_instance_reports_exit_20_with_checked_proof() {
    let dimacs = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n";
    let (stdout, code) = run_with_stdin(&["--check-proof"], dimacs);
    assert_eq!(code, 20);
    assert!(stdout.contains("s UNSATISFIABLE"), "{stdout}");
    assert!(stdout.contains("proof checked"), "{stdout}");
}

#[test]
fn proof_file_is_written_and_parseable() {
    let dir = std::env::temp_dir().join(format!("berkmin_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let proof_path = dir.join("out.drat");
    let dimacs = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n";
    let (_, code) = run_with_stdin(
        &["--proof", proof_path.to_str().unwrap(), "--quiet"],
        dimacs,
    );
    assert_eq!(code, 20);
    let text = std::fs::read_to_string(&proof_path).expect("proof written");
    let proof = berkmin_drat::DratProof::parse(&text).expect("proof parses");
    assert!(proof.ends_with_empty_clause());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_on_budget_exit_0() {
    // Pigeonhole with 1-conflict budget.
    let mut dimacs = String::from("p cnf 12 22\n");
    // 4 pigeons, 3 holes: var = p*3 + h + 1.
    for p in 0..4 {
        for h in 0..3 {
            dimacs.push_str(&format!("{} ", p * 3 + h + 1));
        }
        dimacs.push_str("0\n");
    }
    for h in 0..3 {
        for p1 in 0..4 {
            for p2 in (p1 + 1)..4 {
                dimacs.push_str(&format!("-{} -{} 0\n", p1 * 3 + h + 1, p2 * 3 + h + 1));
            }
        }
    }
    let (stdout, code) = run_with_stdin(&["--max-conflicts", "1", "--no-model"], &dimacs);
    assert_eq!(code, 0);
    assert!(stdout.contains("s UNKNOWN"), "{stdout}");
}

#[test]
fn config_presets_are_selectable() {
    for cfg in ["berkmin", "chaff", "limmat", "less-mobility"] {
        let (stdout, code) = run_with_stdin(&["--config", cfg], "p cnf 1 1\n1 0\n");
        assert_eq!(code, 10, "config {cfg}");
        assert!(stdout.contains("s SATISFIABLE"), "config {cfg}: {stdout}");
    }
}

#[test]
fn malformed_input_exits_2() {
    let (_, code) = run_with_stdin(&["--quiet"], "p cnf x y\n");
    assert_eq!(code, 2);
}

#[test]
fn bmc_subcommand_incremental_and_scratch_agree_on_depth() {
    // The enabled 3-bit counter first shows all-ones at depth 7; both modes
    // must find it and exit with the SAT code.
    for extra in [&[][..], &["--scratch"][..]] {
        let mut args = vec!["bmc", "--bits", "3"];
        args.extend_from_slice(extra);
        let (stdout, code) = run_with_stdin(&args, "");
        assert_eq!(code, 10, "args {args:?}: {stdout}");
        assert!(stdout.contains("s SATISFIABLE"), "{stdout}");
        assert!(
            stdout.contains("first reachable at depth 7"),
            "args {args:?}: {stdout}"
        );
    }
}

#[test]
fn bmc_subcommand_reports_unreachable_within_short_bound() {
    let (stdout, code) = run_with_stdin(&["bmc", "--bits", "3", "--max-depth", "5"], "");
    assert_eq!(code, 20, "{stdout}");
    assert!(stdout.contains("s UNSATISFIABLE"), "{stdout}");
    assert!(stdout.contains("unreachable within depth 5"), "{stdout}");
}

#[test]
fn bmc_subcommand_budget_abort_reports_unknown() {
    let (stdout, code) = run_with_stdin(&["bmc", "--bits", "4", "--max-conflicts", "1"], "");
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("s UNKNOWN"), "{stdout}");
    assert!(stdout.contains("conflict budget exhausted"), "{stdout}");
}

#[test]
fn empty_formula_p_cnf_0_0_is_sat_with_empty_model_line() {
    // The degenerate "p cnf 0 0" input: SAT, a bare "v 0" model line, and
    // the SAT-competition exit code — consistent with the library answer.
    let (stdout, code) = run_with_stdin(&[], "p cnf 0 0\n");
    assert_eq!(code, 10, "{stdout}");
    assert!(stdout.contains("s SATISFIABLE"), "{stdout}");
    assert!(
        stdout.contains("v 0"),
        "empty model line expected: {stdout}"
    );
}

#[test]
fn explicit_empty_clause_is_unsat_with_checkable_proof() {
    // A bare "0" clause line is the empty clause: immediately UNSAT, and
    // both the written proof and the self-check must handle it.
    let dir = std::env::temp_dir().join(format!("berkmin_cli_empty_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let proof_path = dir.join("empty.drat");
    let dimacs = "p cnf 2 2\n1 2 0\n0\n";
    let (stdout, code) = run_with_stdin(
        &["--check-proof", "--proof", proof_path.to_str().unwrap()],
        dimacs,
    );
    assert_eq!(code, 20, "{stdout}");
    assert!(stdout.contains("s UNSATISFIABLE"), "{stdout}");
    let text = std::fs::read_to_string(&proof_path).expect("proof written");
    let proof = berkmin_drat::DratProof::parse(&text).expect("proof parses");
    assert!(proof.ends_with_empty_clause(), "proof: {text:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn header_reserved_vars_without_clauses_get_a_full_model() {
    // "p cnf 4 0": no constraints, but the model must still assign all
    // four header-reserved variables.
    let (stdout, code) = run_with_stdin(&[], "p cnf 4 0\n");
    assert_eq!(code, 10, "{stdout}");
    let model_line = stdout
        .lines()
        .find(|l| l.starts_with("v "))
        .expect("model line");
    let vals: Vec<i32> = model_line[2..]
        .split_whitespace()
        .map(|t| t.parse().unwrap())
        .collect();
    assert_eq!(vals.len(), 5, "4 vars + terminator: {model_line}");
    assert_eq!(*vals.last().unwrap(), 0);
    for v in 1..=4i32 {
        assert!(
            vals.contains(&v) || vals.contains(&-v),
            "variable {v} missing from model: {model_line}"
        );
    }
}

#[test]
fn portfolio_engine_solves_sat_and_unsat_with_worker_summary() {
    // Deterministic two-worker portfolio: verdicts match the single-threaded
    // answer and the worker summary line names the winner.
    let unsat = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n";
    let (stdout, code) = run_with_stdin(
        &["--engine", "portfolio", "--threads", "2", "--deterministic"],
        unsat,
    );
    assert_eq!(code, 20, "{stdout}");
    assert!(stdout.contains("s UNSATISFIABLE"), "{stdout}");
    let workers = stdout
        .lines()
        .find(|l| l.starts_with("c workers"))
        .expect("worker summary line");
    assert!(workers.contains("winner"), "{workers}");
    assert!(workers.contains("exported"), "{workers}");

    let (stdout, code) = run_with_stdin(
        &["--engine", "portfolio", "--threads", "2", "--deterministic"],
        "p cnf 2 2\n1 -2 0\n2 0\n",
    );
    assert_eq!(code, 10, "{stdout}");
    assert!(stdout.contains("v 1 2 0"), "{stdout}");
}

#[test]
fn portfolio_rejects_proof_logging_while_sharing_is_on() {
    // A DRAT proof of a sharing portfolio would be unsound (imported clauses
    // are not RUP-derivable in the importer's log) — the CLI must refuse the
    // combination up front instead of emitting a bogus proof.
    let mut child = cli()
        .args(["--engine", "portfolio", "--check-proof"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn berkmin-cli");
    // The CLI rejects the flag combination before reading any input, so it
    // may already have exited — a broken pipe here is part of the contract.
    let _ = child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"p cnf 1 2\n1 0\n-1 0\n");
    let out = child.wait_with_output().expect("cli runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("configuration error"), "{stderr}");
}

#[test]
fn portfolio_without_sharing_emits_a_checkable_winner_proof() {
    let dimacs = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n";
    let (stdout, code) = run_with_stdin(
        &[
            "--engine",
            "portfolio",
            "--no-share",
            "--deterministic",
            "--check-proof",
        ],
        dimacs,
    );
    assert_eq!(code, 20, "{stdout}");
    assert!(stdout.contains("proof checked"), "{stdout}");
}

#[test]
fn time_line_reports_average_and_max_lbd() {
    let dimacs = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n";
    let (stdout, code) = run_with_stdin(&["--no-model"], dimacs);
    assert_eq!(code, 20, "{stdout}");
    let time_line = stdout
        .lines()
        .find(|l| l.starts_with("c time"))
        .expect("time line");
    assert!(time_line.contains("avg lbd"), "{time_line}");
    assert!(time_line.contains("max"), "{time_line}");
}

/// hole(n) as DIMACS text: n+1 pigeons, n holes — UNSAT with enough
/// conflicts to exercise restarts and progress reporting.
fn pigeonhole_dimacs(n: usize) -> String {
    let var = |p: usize, h: usize| p * n + h + 1;
    let mut clauses = Vec::new();
    for p in 0..=n {
        clauses.push(
            (0..n)
                .map(|h| var(p, h).to_string())
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    for h in 0..n {
        for p1 in 0..=n {
            for p2 in (p1 + 1)..=n {
                clauses.push(format!("-{} -{}", var(p1, h), var(p2, h)));
            }
        }
    }
    let mut out = format!("p cnf {} {}\n", (n + 1) * n, clauses.len());
    for c in clauses {
        out.push_str(&c);
        out.push_str(" 0\n");
    }
    out
}

/// Fetches a named counter out of the CLI's
/// `c decisions .. conflicts .. propagations ..` stats line.
fn stdout_counter(stdout: &str, name: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("c decisions"))
        .expect("stats line");
    let mut toks = line.split_whitespace();
    while let Some(tok) = toks.next() {
        if tok == name {
            return toks.next().and_then(|v| v.parse().ok()).expect("count");
        }
    }
    panic!("counter {name} not on stats line: {line}");
}

#[test]
fn stats_json_matches_the_printed_stats_for_the_single_engine() {
    let dir = std::env::temp_dir().join(format!("berkmin_cli_stats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stats.json");
    let (stdout, code) = run_with_stdin(
        &["--stats-json", path.to_str().unwrap(), "--no-model"],
        &pigeonhole_dimacs(5),
    );
    assert_eq!(code, 20, "{stdout}");
    let text = std::fs::read_to_string(&path).expect("stats written");
    let snapshot = berkmin::StatsSnapshot::parse(&text).expect("stats JSON parses");
    assert_eq!(snapshot.verdict, berkmin::SolveVerdict::Unsat);
    assert!(snapshot.seconds >= 0.0);
    // The JSON is the same snapshot the human-readable lines came from.
    assert_eq!(
        snapshot.stats.conflicts,
        stdout_counter(&stdout, "conflicts")
    );
    assert_eq!(
        snapshot.stats.decisions,
        stdout_counter(&stdout, "decisions")
    );
    assert_eq!(snapshot.stats.restarts, stdout_counter(&stdout, "restarts"));
    assert!(snapshot.stats.conflicts > 0);
    assert_eq!(snapshot.stats.solve_calls, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_json_for_the_deterministic_portfolio_carries_worker_reports() {
    let dir = std::env::temp_dir().join(format!("berkmin_cli_pstats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pstats.json");
    let (stdout, code) = run_with_stdin(
        &[
            "--engine",
            "portfolio",
            "--threads",
            "2",
            "--deterministic",
            "--stats-json",
            path.to_str().unwrap(),
            "--no-model",
        ],
        &pigeonhole_dimacs(5),
    );
    assert_eq!(code, 20, "{stdout}");
    let text = std::fs::read_to_string(&path).expect("stats written");
    let snapshot = berkmin::StatsSnapshot::parse(&text).expect("stats JSON parses");
    assert_eq!(snapshot.verdict, berkmin::SolveVerdict::Unsat);
    assert_eq!(
        snapshot.stats.conflicts,
        stdout_counter(&stdout, "conflicts")
    );

    // The extra "workers" section: one entry per worker, whose exported
    // counts sum to the merged stats counter.
    let value = berkmin::telemetry::json::parse(&text).expect("raw JSON parses");
    let workers = value
        .get("workers")
        .and_then(|w| w.as_array())
        .expect("workers array");
    assert_eq!(workers.len(), 2);
    let exported: u64 = workers
        .iter()
        .map(|w| w.get("exported").and_then(|v| v.as_u64()).unwrap())
        .sum();
    assert_eq!(exported, snapshot.stats.clauses_exported);
    assert!(workers
        .iter()
        .any(|w| w.get("winner").and_then(|v| v.as_bool()) == Some(true)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bmc_stats_json_records_per_depth_results() {
    let dir = std::env::temp_dir().join(format!("berkmin_cli_bmcstats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bmc.json");
    let (stdout, code) = run_with_stdin(
        &[
            "bmc",
            "--bits",
            "3",
            "--max-depth",
            "5",
            "--stats-json",
            path.to_str().unwrap(),
        ],
        "",
    );
    assert_eq!(code, 20, "{stdout}");
    let text = std::fs::read_to_string(&path).expect("stats written");
    let snapshot = berkmin::StatsSnapshot::parse(&text).expect("stats JSON parses");
    assert_eq!(snapshot.verdict, berkmin::SolveVerdict::Unsat);
    assert_eq!(snapshot.stats.solve_calls, 6, "one per depth 0..=5");
    let value = berkmin::telemetry::json::parse(&text).unwrap();
    let depths = value
        .get("depths")
        .and_then(|d| d.as_array())
        .expect("depths array");
    assert_eq!(depths.len(), 6);
    assert!(depths
        .iter()
        .all(|d| { d.get("result").and_then(|r| r.as_str()) == Some("unreachable") }));
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: a budget-aborted BMC sweep used to return before the
/// `c time … total conflicts` and warm-engine summary lines — an unknown
/// verdict silently swallowed the run's accounting. Both arms must print
/// the summary on every outcome.
#[test]
fn bmc_unknown_still_prints_the_run_summary() {
    // Incremental arm.
    let (stdout, code) = run_with_stdin(&["bmc", "--bits", "4", "--max-conflicts", "1"], "");
    assert_eq!(code, 0, "{stdout}");
    let time_at = stdout.find("c time").expect("time line printed");
    let warm_at = stdout
        .find("c warm engine")
        .expect("warm-engine line printed");
    let verdict_at = stdout.find("s UNKNOWN").expect("verdict printed");
    assert!(stdout.contains("total conflicts"), "{stdout}");
    assert!(time_at < verdict_at, "summary before verdict: {stdout}");
    assert!(warm_at < verdict_at, "summary before verdict: {stdout}");

    // Scratch arm.
    let (stdout, code) = run_with_stdin(
        &["bmc", "--bits", "4", "--max-conflicts", "1", "--scratch"],
        "",
    );
    assert_eq!(code, 0, "{stdout}");
    let time_at = stdout.find("c time").expect("time line printed");
    let verdict_at = stdout.find("s UNKNOWN").expect("verdict printed");
    assert!(time_at < verdict_at, "summary before verdict: {stdout}");
    assert!(stdout.contains("stopped at depth"), "{stdout}");
}

#[test]
fn verbose_flag_prints_restart_annotations() {
    // hole(6) restarts at least once under the default interval; each
    // restart prints a `-v` annotation. Without -v, no such line appears.
    let dimacs = pigeonhole_dimacs(6);
    let (stdout, code) = run_with_stdin(&["-v", "--no-model"], &dimacs);
    assert_eq!(code, 20, "{stdout}");
    assert!(stdout.contains("restart 1 at conflict"), "{stdout}");

    let (stdout, _) = run_with_stdin(&["--no-model"], &dimacs);
    assert!(!stdout.contains("restart 1 at conflict"), "{stdout}");
}

#[test]
fn workers_line_reports_eviction_and_miss_counters() {
    let (stdout, code) = run_with_stdin(
        &["--engine", "portfolio", "--threads", "2", "--deterministic"],
        &pigeonhole_dimacs(5),
    );
    assert_eq!(code, 20, "{stdout}");
    let workers = stdout
        .lines()
        .find(|l| l.starts_with("c workers"))
        .expect("worker summary line");
    assert!(workers.contains("evicted"), "{workers}");
    assert!(workers.contains("missed"), "{workers}");
}

#[test]
fn paranoid_flag_is_accepted_and_solves_normally() {
    let (stdout, code) = run_with_stdin(&["--paranoid"], "p cnf 2 2\n1 -2 0\n2 0\n");
    assert_eq!(code, 10, "{stdout}");
    assert!(stdout.contains("s SATISFIABLE"), "{stdout}");
    let (stdout, code) = run_with_stdin(
        &["--paranoid", "--check-proof", "--no-model"],
        "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n",
    );
    assert_eq!(code, 20, "{stdout}");
    assert!(stdout.contains("proof checked"), "{stdout}");
}

/// Regression: `--engine` used to replace the whole configuration, so a
/// budget given before it was silently dropped and hole(7) ran to UNSAT.
/// The shared flags now apply after the preset in either order.
#[test]
fn budget_survives_a_later_engine_flag() {
    let hole7 = pigeonhole_dimacs(7);
    for args in [
        ["--engine", "chaff", "--max-conflicts", "10", "--no-model"],
        ["--max-conflicts", "10", "--engine", "chaff", "--no-model"],
    ] {
        let (stdout, code) = run_with_stdin(&args, &hole7);
        assert_eq!(code, 0, "args {args:?}: {stdout}");
        assert!(stdout.contains("s UNKNOWN"), "args {args:?}: {stdout}");
        assert_eq!(stdout_counter(&stdout, "conflicts"), 10, "args {args:?}");
    }
}

/// The same flag-order regression on `bmc`: with the budget before
/// `--engine`, the sweep used to ignore it and reach depth 15 (exit 10).
#[test]
fn bmc_budget_survives_a_later_engine_flag() {
    for args in [
        [
            "bmc",
            "--bits",
            "4",
            "--engine",
            "chaff",
            "--max-conflicts",
            "1",
        ],
        [
            "bmc",
            "--bits",
            "4",
            "--max-conflicts",
            "1",
            "--engine",
            "chaff",
        ],
    ] {
        let (stdout, code) = run_with_stdin(&args, "");
        assert_eq!(code, 0, "args {args:?}: {stdout}");
        assert!(stdout.contains("s UNKNOWN"), "args {args:?}: {stdout}");
        assert!(stdout.contains("conflict budget exhausted"), "{stdout}");
    }
}

/// `bmc` needs one warm incremental engine, so it refuses the portfolio
/// wherever `--engine` appears among its flags.
#[test]
fn bmc_rejects_the_portfolio_engine() {
    for args in [
        ["bmc", "--engine", "portfolio", "--bits", "3"],
        ["bmc", "--bits", "3", "--engine", "portfolio"],
    ] {
        let (stdout, code) = run_with_stdin(&args, "");
        assert_eq!(code, 2, "args {args:?}: {stdout}");
    }
}
