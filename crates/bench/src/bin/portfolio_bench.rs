//! Portfolio-vs-single benchmark — machine-readable evidence for the
//! parallel portfolio's perf claim.
//!
//! Runs every pooled instance twice — once under the best single
//! configuration (plain BerkMin) and once under the threaded sharing
//! portfolio — and writes `BENCH_portfolio.json`: per instance, the
//! verdict, wall-clock seconds and conflict counts of both runs, plus the
//! portfolio's winning worker and per-worker totals.
//!
//! ```text
//! portfolio_bench [--threads N] [--share-lbd K] [--smoke] [--out FILE]
//! ```
//!
//! `--smoke` selects a small pool for CI; the default pool is larger and
//! harder. Wall-clock numbers are honest: on a single hardware core the
//! portfolio's edge comes from diversification (some worker's heuristics
//! fit the instance), not from parallel speed-up.

use berkmin::telemetry::json::Value;
use berkmin::{Budget, PortfolioConfig, PortfolioEngine, SatEngine, SolverConfig};
use berkmin_bench::{run_engine, run_instance, RunResult, Verdict};
use berkmin_gens::{hole, ksat, miters, parity, BenchInstance};

struct Comparison {
    instance: String,
    single: RunResult,
    portfolio: RunResult,
    winner: Option<usize>,
    winner_conflicts: u64,
}

fn pool(smoke: bool) -> Vec<BenchInstance> {
    if smoke {
        vec![
            hole::pigeonhole(6),
            parity::parity_unsat(9, 2),
            ksat::random_ksat(26, 110, 3, 1),
            ksat::xor_unsat(12, 14, 2),
        ]
    } else {
        vec![
            hole::pigeonhole(7),
            hole::pigeonhole(8),
            parity::parity_unsat(10, 2),
            parity::parity_learning(12, 16, 3),
            ksat::random_ksat(40, 170, 3, 1),
            ksat::random_ksat(40, 170, 3, 2),
            ksat::planted_ksat(60, 255, 3, 3),
            ksat::xor_unsat(16, 18, 2),
            miters::equivalent_miter(80, 30, 3),
            miters::multiplier_miter(5, 2),
        ]
    }
}

fn compare(inst: &BenchInstance, threads: usize, share_lbd: u32, budget: Budget) -> Comparison {
    let single = run_instance(inst, &SolverConfig::berkmin(), budget);

    let mut engine = PortfolioEngine::new(
        PortfolioConfig::new(threads)
            .with_share_lbd(Some(share_lbd))
            .with_budget(budget),
    );
    engine.reserve_vars(inst.cnf.num_vars());
    for clause in &inst.cnf {
        engine.add_clause(clause.lits());
    }
    let portfolio = run_engine(inst, &mut engine);
    let winner = engine.winner();
    let winner_conflicts = winner
        .and_then(|w| engine.reports().get(w))
        .map(|r| r.conflicts)
        .unwrap_or(0);
    Comparison {
        instance: inst.name.clone(),
        single,
        portfolio,
        winner,
        winner_conflicts,
    }
}

fn write_json(path: &str, threads: usize, share_lbd: u32, rows: &[Comparison]) {
    let results = rows
        .iter()
        .map(|row| {
            Value::object([
                ("instance", Value::Str(row.instance.clone())),
                ("single", row.single.to_json()),
                ("portfolio", row.portfolio.to_json()),
                (
                    "winner",
                    row.winner.map_or(Value::Null, |w| Value::Int(w as u64)),
                ),
                ("winner_conflicts", Value::Int(row.winner_conflicts)),
            ])
        })
        .collect();
    let doc = Value::object([
        ("threads", Value::Int(threads as u64)),
        ("share_lbd", Value::Int(share_lbd.into())),
        ("results", Value::Array(results)),
    ]);
    std::fs::write(path, doc.render() + "\n").expect("write BENCH_portfolio.json");
}

fn main() {
    let mut threads = 4usize;
    let mut share_lbd = 4u32;
    let mut smoke = false;
    let mut out = String::from("BENCH_portfolio.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => threads = it.next().and_then(|v| v.parse().ok()).expect("--threads N"),
            "--share-lbd" => {
                share_lbd = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--share-lbd K")
            }
            "--smoke" => smoke = true,
            "--out" => out = it.next().cloned().expect("--out FILE"),
            other => panic!("unknown argument {other}"),
        }
    }

    // Deterministic "timeout": generous enough that both arms finish every
    // pooled instance; reported as an abort if ever hit.
    let budget = Budget::conflicts(2_000_000);
    let rows: Vec<Comparison> = pool(smoke)
        .iter()
        .map(|inst| compare(inst, threads, share_lbd, budget))
        .collect();

    println!("portfolio_bench: 1 thread vs {threads} threads (share-lbd {share_lbd})");
    println!(
        "{:<34} {:>7} {:>10} {:>12} | {:>7} {:>10} {:>12}  winner",
        "instance", "1t", "time(s)", "conflicts", "Nt", "time(s)", "conflicts"
    );
    let (mut time_wins, mut conflict_wins) = (0usize, 0usize);
    for row in &rows {
        assert_ne!(row.single.verdict.label(), "abort", "{}", row.instance);
        assert_eq!(
            row.single.verdict == Verdict::Sat,
            row.portfolio.verdict == Verdict::Sat,
            "{}: portfolio and single verdicts disagree",
            row.instance
        );
        if row.portfolio.time < row.single.time {
            time_wins += 1;
        }
        if row.winner_conflicts < row.single.stats.conflicts {
            conflict_wins += 1;
        }
        println!(
            "{:<34} {:>7} {:>10.3} {:>12} | {:>7} {:>10.3} {:>12}  w{}",
            row.instance,
            row.single.verdict.label(),
            row.single.time.as_secs_f64(),
            row.single.stats.conflicts,
            row.portfolio.verdict.label(),
            row.portfolio.time.as_secs_f64(),
            row.portfolio.stats.conflicts,
            row.winner.map(|w| w.to_string()).unwrap_or_default(),
        );
    }
    println!(
        "portfolio wall-clock wins: {time_wins}/{}; winner-conflicts wins: {conflict_wins}/{}",
        rows.len(),
        rows.len()
    );
    write_json(&out, threads, share_lbd, &rows);
    println!("wrote {out}");
}
