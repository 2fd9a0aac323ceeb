//! The two `BENCH_*.json` writers, each running every pooled instance
//! under two arms:
//!
//! * `portfolio` — the best single configuration (plain BerkMin) vs the
//!   threaded sharing portfolio; per instance, both runs plus the
//!   portfolio's winning worker and its conflicts. Wall-clock numbers are
//!   honest: on a single hardware core the portfolio's edge comes from
//!   diversification (some worker's heuristics fit the instance), not
//!   from parallel speed-up.
//! * `preprocess` — simplification off vs the full pipeline (subsumption,
//!   self-subsuming resolution, bounded variable elimination); per
//!   instance, both runs plus the simplifier's reductions, or `null` when
//!   it never ran (a formula refuted while loading). The run panics if the
//!   arms disagree on a verdict or the simplifier grows a formula: numbers
//!   from an unsound run would be worse than none.
//!
//! `--smoke` selects a small pool for CI; the default pool is larger and
//! harder. Both use a 2,000,000-conflict budget, generous enough that
//! both arms finish every pooled instance.

use std::cell::Cell;
use std::io::Write;
use std::rc::Rc;

use berkmin::telemetry::json::Value;
use berkmin::{
    Budget, PortfolioConfig, PortfolioEngine, SimplifyConfig, SolveEvent, SolverBuilder,
    SolverConfig,
};
use berkmin_gens::{bmc_gen, hole, ksat, miters, parity};

use crate::{run_engine, run_instance, Error, Outcome, RunResult, Verdict};

const BUDGET: Budget = Budget::conflicts(2_000_000);

/// The flags of both writers; `--threads` and `--share-lbd` are the
/// portfolio's alone.
struct Flags {
    smoke: bool,
    out: String,
    threads: usize,
    share_lbd: u32,
}

impl Flags {
    /// Parses `args`, writing to `out` unless `--out` says otherwise.
    fn parse(args: &[String], out: &str, portfolio: bool) -> Result<Flags, Error> {
        let mut flags = Flags {
            smoke: false,
            out: out.to_string(),
            threads: 4,
            share_lbd: 4,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => flags.smoke = true,
                "--out" => flags.out = value(arg, it.next())?,
                "--threads" if portfolio => flags.threads = value(arg, it.next())?,
                "--share-lbd" if portfolio => flags.share_lbd = value(arg, it.next())?,
                other => return Err(Error::Usage(format!("unknown flag {other:?}"))),
            }
        }
        Ok(flags)
    }
}

/// The value given to `flag`, parsed.
fn value<T: std::str::FromStr>(flag: &str, given: Option<&String>) -> Result<T, Error> {
    let parsed = given.and_then(|v| v.parse().ok());
    parsed.ok_or_else(|| Error::Usage(format!("{flag} needs a valid value")))
}

/// One line of the two-arm table: the instance, each arm's verdict,
/// seconds and conflicts, then `tail`. Header lines pass the column names.
fn two_arm_line(out: &mut dyn Write, name: &str, cells: [&str; 6], tail: &str) -> Outcome {
    let [v1, t1, c1, v2, t2, c2] = cells;
    writeln!(
        out,
        "{name:<34} {v1:>7} {t1:>10} {c1:>12} | {v2:>7} {t2:>10} {c2:>12}  {tail}"
    )?;
    Ok(())
}

/// The two-arm table line of runs `a` and `b` of `name`.
fn two_arm_row(
    out: &mut dyn Write,
    name: &str,
    a: &RunResult,
    b: &RunResult,
    tail: &str,
) -> Outcome {
    let [t1, t2] = [a, b].map(|r| format!("{:.3}", r.time.as_secs_f64()));
    let [c1, c2] = [a, b].map(|r| r.stats.conflicts.to_string());
    let (v1, v2) = (a.verdict.label(), b.verdict.label());
    two_arm_line(out, name, [v1, &t1, &c1, v2, &t2, &c2], tail)
}

/// Writes `{fields..., "results": rows}` to `path` as one JSON line.
fn write_json(path: &str, mut fields: Vec<(&str, Value)>, rows: Vec<Value>) -> Outcome {
    fields.push(("results", Value::Array(rows)));
    std::fs::write(path, Value::object(fields).render() + "\n")?;
    Ok(())
}

/// `portfolio`: 1 thread vs the sharing portfolio, into `BENCH_portfolio.json`.
pub(crate) fn portfolio(args: &[String], out: &mut dyn Write) -> Outcome {
    let flags = Flags::parse(args, "BENCH_portfolio.json", true)?;
    let pool = if flags.smoke {
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
    };
    let (threads, share_lbd) = (flags.threads, flags.share_lbd);
    writeln!(
        out,
        "berkmin-bench portfolio: 1 thread vs {threads} threads (share-lbd {share_lbd})"
    )?;
    let head = ["1t", "time(s)", "conflicts", "Nt", "time(s)", "conflicts"];
    two_arm_line(out, "instance", head, "winner")?;
    let (mut time_wins, mut conflict_wins) = (0usize, 0usize);
    let mut rows = Vec::new();
    for inst in &pool {
        let single = run_instance(inst, &SolverConfig::berkmin(), BUDGET);
        let mut engine = PortfolioEngine::new(
            PortfolioConfig::new(threads)
                .with_share_lbd(Some(share_lbd))
                .with_budget(BUDGET),
        );
        let portfolio = run_engine(inst, &mut engine);
        let winner = engine.winner();
        let winner_report = winner.and_then(|w| engine.reports().get(w));
        let winner_conflicts = winner_report.map_or(0, |r| r.conflicts);
        assert_ne!(single.verdict, Verdict::Aborted, "{}", inst.name);
        assert_eq!(
            single.verdict == Verdict::Sat,
            portfolio.verdict == Verdict::Sat,
            "{}: portfolio and single verdicts disagree",
            inst.name
        );
        time_wins += usize::from(portfolio.time < single.time);
        conflict_wins += usize::from(winner_conflicts < single.stats.conflicts);
        let tail = format!("w{}", winner.map(|w| w.to_string()).unwrap_or_default());
        two_arm_row(out, &inst.name, &single, &portfolio, &tail)?;
        rows.push(Value::object([
            ("instance", Value::Str(inst.name.clone())),
            ("single", single.to_json()),
            ("portfolio", portfolio.to_json()),
            (
                "winner",
                winner.map_or(Value::Null, |w| Value::Int(w as u64)),
            ),
            ("winner_conflicts", Value::Int(winner_conflicts)),
        ]));
    }
    let n = pool.len();
    writeln!(
        out,
        "portfolio wall-clock wins: {time_wins}/{n}; winner-conflicts wins: {conflict_wins}/{n}"
    )?;
    let head = vec![
        ("threads", Value::Int(threads as u64)),
        ("share_lbd", Value::Int(share_lbd.into())),
    ];
    write_json(&flags.out, head, rows)?;
    writeln!(out, "wrote {}", flags.out)?;
    Ok(())
}

/// `preprocess`: simplification off vs on, into `BENCH_preprocess.json`.
pub(crate) fn preprocess(args: &[String], out: &mut dyn Write) -> Outcome {
    let flags = Flags::parse(args, "BENCH_preprocess.json", false)?;
    let pool = if flags.smoke {
        vec![
            hole::pigeonhole(6),
            ksat::random_ksat(26, 110, 3, 1),
            bmc_gen::bmc_counter_unsat(3),
        ]
    } else {
        vec![
            hole::pigeonhole(7),
            ksat::random_ksat(40, 170, 3, 1),
            ksat::random_ksat(40, 170, 3, 2),
            ksat::planted_ksat(60, 255, 3, 3),
            ksat::xor_unsat(14, 16, 2),
            bmc_gen::bmc_counter_unsat(4),
            bmc_gen::bmc_counter(4),
        ]
    };
    writeln!(out, "berkmin-bench preprocess: simplification off vs on")?;
    let tail = format!("{:>9} {:>9}", "clauses-", "vars-");
    let head = ["off", "time(s)", "conflicts", "on", "time(s)", "conflicts"];
    two_arm_line(out, "instance", head, &tail)?;
    let mut reduced = 0usize;
    let mut rows = Vec::new();
    for inst in &pool {
        let off_config = SolverConfig::berkmin().with_simplify(SimplifyConfig::off());
        let off = run_instance(inst, &off_config, BUDGET);
        // The on-arm is observed for the clause counts the search started
        // from: the first `Simplify` event's before, the last one's after.
        // No event means the simplifier never ran.
        let sizes = Rc::new(Cell::new(None::<(u64, u64)>));
        let tap = Rc::clone(&sizes);
        let on_config = SolverConfig::berkmin().with_simplify(SimplifyConfig::full());
        let mut engine = SolverBuilder::with_config(on_config.with_budget(BUDGET))
            .on_event(move |e: &SolveEvent| {
                if let SolveEvent::Simplify {
                    clauses_before,
                    clauses_after,
                    ..
                } = *e
                {
                    let before = tap.get().map_or(clauses_before, |(b, _)| b);
                    tap.set(Some((before, clauses_after)));
                }
            })
            .build_engine();
        let on = run_engine(inst, engine.as_mut());
        assert_eq!(
            off.verdict, on.verdict,
            "{}: simplification changed the verdict",
            inst.name
        );
        let s = &on.stats;
        let (simplify, tail) = match sizes.get() {
            None => (Value::Null, format!("{:>9} {:>9}", "-", "-")),
            Some((before, after)) => {
                assert!(
                    after <= before,
                    "{}: simplification grew the formula",
                    inst.name
                );
                reduced += usize::from(after < before || s.vars_eliminated > 0);
                let counts = [
                    ("subsumed", s.clauses_subsumed),
                    ("strengthened", s.clauses_strengthened),
                    ("eliminated", s.vars_eliminated),
                    ("resolvents", s.elim_resolvents),
                    ("clauses_before", before),
                    ("clauses_after", after),
                    ("vars_after", inst.cnf.num_vars() as u64 - s.vars_eliminated),
                ];
                let tail = format!("{:>9} {:>9}", before - after, s.vars_eliminated);
                (Value::object(counts.map(|(k, n)| (k, Value::Int(n)))), tail)
            }
        };
        two_arm_row(out, &inst.name, &off, &on, &tail)?;
        rows.push(Value::object([
            ("instance", Value::Str(inst.name.clone())),
            ("vars", Value::Int(inst.cnf.num_vars() as u64)),
            ("clauses", Value::Int(inst.cnf.num_clauses() as u64)),
            ("off", off.to_json()),
            ("on", on.to_json()),
            ("simplify", simplify),
        ]));
    }
    assert!(
        reduced > 0,
        "the pool must contain at least one instance the simplifier shrinks"
    );
    writeln!(
        out,
        "instances shrunk by preprocessing: {reduced}/{}",
        pool.len()
    )?;
    write_json(&flags.out, Vec::new(), rows)?;
    writeln!(out, "wrote {}", flags.out)?;
    Ok(())
}
