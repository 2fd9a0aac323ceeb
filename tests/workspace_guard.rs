//! Guards against the root-package trap: plain `cargo test -q` at the
//! workspace root runs only this facade package's suite, **not** the member
//! crates' unit and property tests — `--workspace` is required for those.
//! This test (which plain `cargo test -q` *does* run) pins the CI workflow
//! to the full-coverage invocations, so dropping a `--workspace` flag or
//! the bench smoke step fails loudly instead of silently shrinking CI.
//!
//! The assertions are comment-anchored: `.github/workflows/ci.yml` carries
//! a `workspace-guard:` marker comment pointing back at this file.

use std::fs;
use std::path::Path;

fn ci_config() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows/ci.yml");
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read CI workflow {}: {e}", path.display()))
}

#[test]
fn ci_tests_the_whole_workspace() {
    let ci = ci_config();
    for required in [
        "cargo test -q --workspace",
        "cargo test -q --doc --workspace",
        "cargo clippy --workspace --all-targets",
        "cargo build --release --workspace --all-targets",
    ] {
        assert!(
            ci.contains(required),
            "CI workflow no longer runs `{required}` — plain `cargo test` at \
             the root covers only the facade package, so CI must keep the \
             --workspace invocations (see this file's module docs)"
        );
    }
}

#[test]
fn ci_keeps_the_rustdoc_step() {
    // The builder/engine/sink redesign leans on intra-doc links between
    // crates; this step turns a broken link into a CI failure instead of a
    // silently rotting docs surface.
    let ci = ci_config();
    for required in [
        r#"RUSTDOCFLAGS="-D warnings""#,
        "cargo doc --no-deps --workspace",
    ] {
        assert!(
            ci.contains(required),
            "CI workflow dropped `{required}` — without the rustdoc step, \
             broken intra-doc links on the builder/engine API surface would \
             accrue silently"
        );
    }
}

#[test]
fn ci_keeps_the_bench_smoke_step() {
    let ci = ci_config();
    assert!(
        ci.contains("cargo bench -p berkmin-bench --bench bcp -- --test"),
        "CI workflow dropped the criterion-shim BCP bench smoke step; the \
         bench layer would rot silently without it"
    );
    assert!(
        ci.contains("cargo bench -p berkmin-bench --bench incremental_bmc -- --test"),
        "CI workflow dropped the incremental-BMC bench smoke step; it is \
         what re-checks that clause reuse keeps beating per-depth scratch \
         re-solving"
    );
    assert!(
        ci.contains("workspace-guard:"),
        "CI workflow lost its marker comment linking back to tests/workspace_guard.rs"
    );
}

#[test]
fn ci_keeps_the_portfolio_steps() {
    // The portfolio's correctness claim rests on the agreement sweep
    // (deterministic two-worker portfolio vs single-threaded BerkMin,
    // sharing on and off); its perf claim rests on the bench smoke that
    // writes BENCH_portfolio.json. Both must keep running on every push.
    let ci = ci_config();
    assert!(
        ci.contains("cargo test -q --release --test solver_agreement portfolio"),
        "CI workflow dropped the portfolio agreement sweep; portfolio \
         verdicts would no longer be checked against the lone solver"
    );
    assert!(
        ci.contains("--bin portfolio_bench -- --smoke --threads 2"),
        "CI workflow dropped the portfolio bench smoke step; the 1-vs-N \
         thread comparison (BENCH_portfolio.json) would rot silently"
    );
}

#[test]
fn ci_keeps_the_telemetry_smoke_step() {
    // The observability layer's end-to-end check: solve a generated
    // instance with --stats-json and -v, parse the emitted JSON back and
    // require the key counters non-zero — for the single engine and the
    // deterministic portfolio. Without this step a silently empty or
    // malformed stats file would ship unnoticed.
    let ci = ci_config();
    for required in [
        "-v --stats-json stats.json",
        "--deterministic \\\n            --stats-json pstats.json",
        r#"assert s["stats"]["conflicts"] > 0"#,
        r#"assert len(s["workers"]) == 2"#,
    ] {
        assert!(
            ci.contains(required),
            "CI workflow dropped `{required}` from the telemetry smoke step; \
             the --stats-json/-v surface would rot silently"
        );
    }
    // The portfolio arm checks the counter table's merge kinds end to end:
    // `solve_calls` is set once by the aggregator, `conflicts` is summed.
    let portfolio_arm = ci
        .split("--stats-json pstats.json")
        .nth(1)
        .expect("telemetry smoke step has a portfolio arm");
    for required in [
        r#"assert s["stats"]["solve_calls"] == 1"#,
        r#"assert sum(w["conflicts"] for w in s["workers"]) == s["stats"]["conflicts"]"#,
    ] {
        assert!(
            portfolio_arm.contains(required),
            "CI workflow dropped `{required}` from the portfolio arm of the \
             telemetry smoke step; a merge-kind regression would ship unnoticed"
        );
    }
}

#[test]
fn ci_keeps_the_preprocessing_steps() {
    // The preprocessing subsystem's three CI legs: the agreement sweep that
    // runs every paper configuration with simplification off and fully on,
    // the proof pipeline that pushes elimination's add/delete lines through
    // the independent checker (plus the reconstructed-model SAT arm), and
    // the bench smoke that writes BENCH_preprocess.json.
    let ci = ci_config();
    assert!(
        ci.contains("cargo test -q --release --test solver_agreement all_configs"),
        "CI workflow dropped the simplified agreement sweep; preprocessing \
         could silently move verdicts on the paper configurations"
    );
    assert!(
        ci.contains("--elim --proof hole5.drat --check-proof hole5.cnf"),
        "CI workflow dropped the elimination proof pipeline; DRAT streams \
         with elimination deletions would no longer be checked end-to-end"
    );
    assert!(
        ci.contains("grep -q '^d ' hole5.drat"),
        "CI workflow no longer insists the elimination proof carries `d` \
         lines — the deletion-emitting path would rot silently"
    );
    assert!(
        ci.contains("--elim elim_sat.cnf"),
        "CI workflow dropped the reconstructed-model SAT arm; model \
         extension over eliminated variables would go unexercised"
    );
    assert!(
        ci.contains("--bin preprocess_bench -- --smoke"),
        "CI workflow dropped the preprocess bench smoke step; the on/off \
         comparison (BENCH_preprocess.json) would rot silently"
    );
}

#[test]
fn ci_keeps_the_fuzz_smoke_step() {
    // The differential fuzz harness is the integrity layer's teeth: a
    // bounded fixed-seed sweep in which every SAT model, UNSAT core and
    // refutation proof is independently certified. CI must keep running it.
    let ci = ci_config();
    assert!(
        ci.contains("cargo run --release -p berkmin-fuzz -- run --cases"),
        "CI workflow dropped the differential fuzz smoke step; solver \
         answers would no longer be cross-certified on every push"
    );
}
