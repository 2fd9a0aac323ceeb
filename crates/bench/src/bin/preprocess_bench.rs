//! Preprocessing on/off benchmark — machine-readable evidence for the
//! simplifier's claim: fewer clauses and variables reach the search, with
//! no change of verdict.
//!
//! Runs every pooled instance twice — once with simplification disabled
//! and once with the full pipeline (subsumption, self-subsuming
//! resolution, bounded variable elimination) — and writes
//! `BENCH_preprocess.json`: per instance, both verdicts, wall-clock
//! seconds and conflict counts, plus the simplifier's reductions (clauses
//! before/after, variables eliminated, resolvents added).
//!
//! ```text
//! preprocess_bench [--smoke] [--out FILE]
//! ```
//!
//! `--smoke` selects a small pool for CI; the default pool is larger and
//! harder. The run aborts (panics) if the two arms ever disagree on a
//! verdict or the simplifier grows a formula — a benchmark reporting
//! numbers from an unsound run would be worse than no benchmark.

use std::cell::RefCell;
use std::rc::Rc;

use berkmin::telemetry::json::Value;
use berkmin::{Budget, SimplifyConfig, SolveEvent, SolverBuilder, SolverConfig};
use berkmin_bench::{run_engine, run_instance, RunResult};
use berkmin_gens::{bmc_gen, hole, ksat, BenchInstance};

/// The `Simplify` telemetry of one preprocessing run.
#[derive(Debug, Clone, Copy, Default)]
struct Reduction {
    subsumed: u64,
    strengthened: u64,
    eliminated: u64,
    resolvents: u64,
    clauses_before: u64,
    clauses_after: u64,
}

struct Comparison {
    instance: String,
    vars: usize,
    clauses: usize,
    off: RunResult,
    on: RunResult,
    reduction: Reduction,
}

fn pool(smoke: bool) -> Vec<BenchInstance> {
    if smoke {
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
    }
}

fn compare(inst: &BenchInstance, budget: Budget) -> Comparison {
    let off = run_instance(
        inst,
        &SolverConfig::berkmin().with_simplify(SimplifyConfig::off()),
        budget,
    );

    // The simplifying arm is observed so the report carries the exact
    // clause counts the search started from, not a reconstruction.
    let reduction = Rc::new(RefCell::new(Reduction::default()));
    let tap = Rc::clone(&reduction);
    let mut engine = SolverBuilder::with_config(
        SolverConfig::berkmin()
            .with_simplify(SimplifyConfig::full())
            .with_budget(budget),
    )
    .on_event(move |e: &SolveEvent| {
        if let SolveEvent::Simplify {
            subsumed,
            strengthened,
            eliminated,
            resolvents,
            clauses_before,
            clauses_after,
            ..
        } = e
        {
            let mut r = tap.borrow_mut();
            if r.clauses_before == 0 {
                r.clauses_before = *clauses_before;
            }
            r.clauses_after = *clauses_after;
            r.subsumed += subsumed;
            r.strengthened += strengthened;
            r.eliminated += eliminated;
            r.resolvents += resolvents;
        }
    })
    .build_engine();
    engine.reserve_vars(inst.cnf.num_vars());
    for clause in &inst.cnf {
        engine.add_clause(clause.lits());
    }
    let on = run_engine(inst, engine.as_mut());
    let reduction = *reduction.borrow();
    assert!(
        reduction.clauses_after <= reduction.clauses_before,
        "{}: simplification grew the formula",
        inst.name
    );
    Comparison {
        instance: inst.name.clone(),
        vars: inst.cnf.num_vars(),
        clauses: inst.cnf.num_clauses(),
        off,
        on,
        reduction,
    }
}

fn write_json(path: &str, rows: &[Comparison]) {
    let results = rows
        .iter()
        .map(|row| {
            let r = &row.reduction;
            let simplify = Value::object([
                ("subsumed", Value::Int(r.subsumed)),
                ("strengthened", Value::Int(r.strengthened)),
                ("eliminated", Value::Int(r.eliminated)),
                ("resolvents", Value::Int(r.resolvents)),
                ("clauses_before", Value::Int(r.clauses_before)),
                ("clauses_after", Value::Int(r.clauses_after)),
                ("vars_after", Value::Int(row.vars as u64 - r.eliminated)),
            ]);
            Value::object([
                ("instance", Value::Str(row.instance.clone())),
                ("vars", Value::Int(row.vars as u64)),
                ("clauses", Value::Int(row.clauses as u64)),
                ("off", row.off.to_json()),
                ("on", row.on.to_json()),
                ("simplify", simplify),
            ])
        })
        .collect();
    let doc = Value::object([("results", Value::Array(results))]);
    std::fs::write(path, doc.render() + "\n").expect("write BENCH_preprocess.json");
}

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_preprocess.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
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
        .map(|inst| compare(inst, budget))
        .collect();

    println!("preprocess_bench: simplification off vs on");
    println!(
        "{:<34} {:>7} {:>10} {:>12} | {:>7} {:>10} {:>12}  {:>9} {:>9}",
        "instance",
        "off",
        "time(s)",
        "conflicts",
        "on",
        "time(s)",
        "conflicts",
        "clauses-",
        "vars-"
    );
    let mut reduced = 0usize;
    for row in &rows {
        assert_eq!(
            row.off.verdict.label(),
            row.on.verdict.label(),
            "{}: simplification changed the verdict",
            row.instance
        );
        let r = &row.reduction;
        if r.clauses_after < r.clauses_before || r.eliminated > 0 {
            reduced += 1;
        }
        println!(
            "{:<34} {:>7} {:>10.3} {:>12} | {:>7} {:>10.3} {:>12}  {:>9} {:>9}",
            row.instance,
            row.off.verdict.label(),
            row.off.time.as_secs_f64(),
            row.off.stats.conflicts,
            row.on.verdict.label(),
            row.on.time.as_secs_f64(),
            row.on.stats.conflicts,
            r.clauses_before - r.clauses_after,
            r.eliminated,
        );
    }
    assert!(
        reduced > 0,
        "the pool must contain at least one instance the simplifier shrinks"
    );
    println!(
        "instances shrunk by preprocessing: {reduced}/{}",
        rows.len()
    );
    write_json(&out, &rows);
    println!("wrote {out}");
}
