//! The per-instance and zChaff-vs-BerkMin tables (Tables 3, 6–10) and the
//! `calibrate` utility.

use std::io::Write;
use std::time::Instant;

use berkmin::{Budget, SolverConfig};
use berkmin_gens::suites::{class_suite, PaperClass, ABLATION_ORDER};
use berkmin_gens::{beijing, hanoi, miters, pipeline, BenchInstance};

use crate::{class_budget, run_class, run_instance, Outcome, RunResult, TextTable, Verdict};

/// Table 3, "Skin effect" (paper §6): for five hard instances, `f(r)` is
/// how often the branching variable came from the conflict clause at
/// distance `r` from the top of the clause stack. The paper finds that `f`
/// decays quickly in `r`, with `f(0)` small because the topmost clause is
/// normally consumed by BCP at once (it is only branched on right after a
/// restart).
pub(crate) fn table3(_: &[String], out: &mut dyn Write) -> Outcome {
    // The paper's five columns: miter70_60_5 (Miters), hanoi6 (Hanoi),
    // 2bitadd_10 (Beijing), 7pipe (Fvp_unsat2.0), 9vliw (Fvp_unsat1.0).
    let results: Vec<RunResult> = [
        miters::rect_multiplier_miter(6, 7, 5),
        hanoi::hanoi(6),
        beijing::factor_prime(12, 10),
        pipeline::npipe(5),
        pipeline::npipe_ooo(4),
    ]
    .iter()
    .map(|inst| run_instance(inst, &SolverConfig::berkmin(), Budget::conflicts(1_000_000)))
    .collect();

    let mut headers = vec!["Distance"];
    headers.extend(results.iter().map(|r| r.name.as_str()));
    let mut table = TextTable::new(
        "Table 3: Skin effect — f(r) = decisions taken from the clause at stack distance r",
        &headers,
    );
    for r in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 50, 100, 500, 1000, 2000] {
        let mut row = vec![format!("f({r})")];
        row.extend(results.iter().map(|res| res.stats.f(r).to_string()));
        table.add_row(row);
    }
    table.write(out)?;

    // The paper's qualitative claim, made checkable: f decreases with r.
    for res in &results {
        let (f1, f10, f100) = (res.stats.f(1), res.stats.f(10), res.stats.f(100));
        let verdict = if f1 >= f10 && f10 >= f100 {
            "ok"
        } else {
            "VIOLATED"
        };
        writeln!(
            out,
            "{}: f(1)={f1} >= f(10)={f10} >= f(100)={f100}  (decay spot check: {verdict})",
            res.name
        )?;
    }
    Ok(())
}

/// Table 6 (paper §9): zChaff vs BerkMin over the eight easier classes,
/// with instance counts and total times. The paper's shape: Chaff wins
/// Hole, BerkMin wins the rest, and neither aborts.
pub(crate) fn table6(_: &[String], out: &mut dyn Write) -> Outcome {
    let mut table = TextTable::new(
        "Table 6: Benchmarks on which zChaff's and BerkMin's performances are comparable",
        &[
            "Class of benchmarks",
            "Number of instances",
            "zChaff (s)",
            "BerkMin (s)",
        ],
    );
    let (mut chaff_total, mut berkmin_total) = (0.0, 0.0);
    for class in [
        PaperClass::Blocksworld,
        PaperClass::Hole,
        PaperClass::Par16,
        PaperClass::Sss10,
        PaperClass::Sss10a,
        PaperClass::SssSat10,
        PaperClass::FvpUnsat10,
        PaperClass::VliwSat10,
    ] {
        let suite = class_suite(class);
        let budget = class_budget(class);
        let rc = run_class(class.name(), &suite, &SolverConfig::chaff_like(), budget);
        let rb = run_class(class.name(), &suite, &SolverConfig::berkmin(), budget);
        chaff_total += rc.total_time().as_secs_f64();
        berkmin_total += rb.total_time().as_secs_f64();
        table.add_row([
            class.name().to_string(),
            suite.len().to_string(),
            rc.time_cell(),
            rb.time_cell(),
        ]);
    }
    table.add_row([
        "Total".to_string(),
        String::new(),
        format!("{chaff_total:.2}"),
        format!("{berkmin_total:.2}"),
    ]);
    table.write(out)?;
    Ok(())
}

/// Table 7 (paper §9): the four harder classes, where the paper's zChaff
/// aborts instances while BerkMin finishes everything — the robustness
/// claim of the title. Tables 7–9 use the heavyweight versions of the
/// hard classes.
pub(crate) fn table7(_: &[String], out: &mut dyn Write) -> Outcome {
    let classes: [(PaperClass, Vec<BenchInstance>, u64); 4] = [
        (
            PaperClass::Beijing,
            class_suite(PaperClass::Beijing),
            200_000,
        ),
        (PaperClass::Miters, class_suite(PaperClass::Miters), 400_000),
        (
            PaperClass::Hanoi,
            vec![hanoi::hanoi(5), hanoi::hanoi(6), hanoi::hanoi(7)],
            400_000,
        ),
        (
            PaperClass::FvpUnsat20,
            vec![
                pipeline::npipe(4),
                pipeline::npipe(5),
                pipeline::npipe(6),
                pipeline::npipe_ooo(4),
            ],
            600_000,
        ),
    ];
    let mut table = TextTable::new(
        "Table 7: Benchmarks on which BerkMin dominates",
        &[
            "Class of benchmarks",
            "Number of instances",
            "zChaff time (s)",
            "zChaff aborted",
            "BerkMin time (s)",
            "BerkMin aborted",
        ],
    );
    for (class, suite, budget) in classes {
        let budget = Budget::conflicts(budget);
        let rc = run_class(class.name(), &suite, &SolverConfig::chaff_like(), budget);
        let rb = run_class(class.name(), &suite, &SolverConfig::berkmin(), budget);
        table.add_row([
            class.name().to_string(),
            suite.len().to_string(),
            rc.time_cell(),
            rc.aborted().to_string(),
            rb.time_cell(),
            rb.aborted().to_string(),
        ]);
    }
    table.write(out)?;
    Ok(())
}

/// The named hard instances of Tables 8 and 9, each run by zChaff and by
/// BerkMin: `(instance, zChaff run, BerkMin run)`.
fn named_runs() -> Vec<(BenchInstance, RunResult, RunResult)> {
    let budget = Budget::conflicts(1_200_000);
    [
        pipeline::npipe_ooo(4), // 9vliw_bp_mc analog
        hanoi::hanoi(6),        // hanoi5 analog
        hanoi::hanoi(7),        // hanoi6 analog
        pipeline::npipe(4),
        pipeline::npipe(5),
        pipeline::npipe(6),
        pipeline::npipe(7),
    ]
    .into_iter()
    .map(|inst| {
        let rc = run_instance(&inst, &SolverConfig::chaff_like(), budget);
        let rb = run_instance(&inst, &SolverConfig::berkmin(), budget);
        (inst, rc, rb)
    })
    .collect()
}

/// The "Satisfiable" column of Tables 8 and 9, from BerkMin's run.
fn satisfiable(r: &RunResult) -> String {
    match r.verdict {
        Verdict::Sat => "Yes",
        Verdict::Unsat => "No",
        Verdict::Aborted => "?",
    }
    .to_string()
}

/// `cell`, marked ` *` when `r` aborted on its budget.
fn star(r: &RunResult, cell: String) -> String {
    if r.verdict == Verdict::Aborted {
        cell + " *"
    } else {
        cell
    }
}

/// Table 8 (paper §9): per-instance decisions and runtimes on the named
/// hard instances (9vliw_bp_mc, hanoi5/6, 4pipe–7pipe). The paper's
/// shape: BerkMin builds much smaller search trees (fewer decisions) and
/// zChaff aborts 7pipe.
pub(crate) fn table8(_: &[String], out: &mut dyn Write) -> Outcome {
    let mut table = TextTable::new(
        "Table 8: per-instance decisions and runtimes (zChaff vs BerkMin)",
        &[
            "Instance",
            "Satisfiable",
            "zChaff decisions",
            "zChaff time (s)",
            "BerkMin decisions",
            "BerkMin time (s)",
        ],
    );
    for (inst, rc, rb) in named_runs() {
        let mut row = vec![inst.name, satisfiable(&rb)];
        for r in [&rc, &rb] {
            let aborted = if r.verdict == Verdict::Aborted {
                ">"
            } else {
                ""
            };
            row.push(star(r, r.stats.decisions.to_string()));
            row.push(star(r, format!("{aborted}{:.1}", r.time.as_secs_f64())));
        }
        table.add_row(row);
    }
    table.write(out)?;
    writeln!(
        out,
        "* = aborted on the conflict budget (the paper's timeout analog)"
    )?;
    Ok(())
}

/// Table 9 (paper §9): database growth on the named hard instances,
/// `(generated clauses + initial)/(initial)` for both solvers plus
/// BerkMin's `(largest simultaneous CNF)/(initial)`. The paper's headline:
/// BerkMin keeps peak memory within ~4× of the input while Chaff's
/// database grows far larger.
pub(crate) fn table9(_: &[String], out: &mut dyn Write) -> Outcome {
    let mut table = TextTable::new(
        "Table 9: database size relative to the initial CNF",
        &[
            "Instance",
            "Satisfiable",
            "zChaff DB/initial",
            "BerkMin DB/initial",
            "BerkMin largest/initial",
        ],
    );
    for (inst, rc, rb) in named_runs() {
        table.add_row([
            inst.name,
            satisfiable(&rb),
            star(&rc, format!("{:.2}", rc.stats.database_growth_ratio())),
            star(&rb, format!("{:.2}", rb.stats.database_growth_ratio())),
            star(&rb, format!("{:.2}", rb.stats.peak_memory_ratio())),
        ]);
    }
    table.write(out)?;
    writeln!(
        out,
        "* = aborted on the conflict budget; ratios reflect the aborted run"
    )?;
    Ok(())
}

/// Table 10 (paper §9): BerkMin, Limmat and zChaff over the 17
/// final-stage SAT-2002 industrial rows (regenerated analogs). The paper's
/// shape: BerkMin solves the most instances overall and the most
/// satisfiable ones, and each solver has rows only it handles comfortably.
pub(crate) fn table10(_: &[String], out: &mut dyn Write) -> Outcome {
    let solvers = [
        SolverConfig::berkmin(),
        SolverConfig::limmat_like(),
        SolverConfig::chaff_like(),
    ];
    let mut table = TextTable::new(
        "Table 10: SAT-2002 final-stage analogs, three solvers",
        &[
            "Family",
            "Instance",
            "Sat/Unsat",
            "BerkMin (s)",
            "Limmat (s)",
            "zChaff (s)",
        ],
    );
    let mut solved = [0usize; 3];
    let mut solved_sat = [0usize; 3];
    for (family, inst) in berkmin_gens::suites::sat2002_suite() {
        let mut row = vec![family.to_string(), inst.name.clone(), "?".to_string()];
        for (i, config) in solvers.iter().enumerate() {
            let r = run_instance(&inst, config, Budget::conflicts(700_000));
            if r.verdict == Verdict::Aborted {
                row.push("*".to_string());
                continue;
            }
            solved[i] += 1;
            solved_sat[i] += usize::from(r.verdict == Verdict::Sat);
            row[2] = if r.verdict == Verdict::Sat {
                "Sat"
            } else {
                "Unsat"
            }
            .to_string();
            row.push(format!("{:.1}", r.time.as_secs_f64()));
        }
        table.add_row(row);
    }
    for (label, counts) in [
        ("Total solved", solved),
        ("Total solved satisfiable", solved_sat),
    ] {
        let mut row = vec![label.to_string(), String::new(), String::new()];
        row.extend(counts.iter().map(usize::to_string));
        table.add_row(row);
    }
    table.write(out)?;
    writeln!(
        out,
        "* = aborted on the conflict budget (the paper's 6 h timeout analog)"
    )?;
    Ok(())
}

/// Times every class suite under the default BerkMin configuration, so the
/// table budgets and instance sizes can be tuned. Not a paper artifact.
pub(crate) fn calibrate(_: &[String], out: &mut dyn Write) -> Outcome {
    for class in ABLATION_ORDER {
        let gen_start = Instant::now();
        let suite = class_suite(class);
        let gen_time = gen_start.elapsed();
        let result = run_class(
            class.name(),
            &suite,
            &SolverConfig::berkmin(),
            class_budget(class),
        );
        write!(
            out,
            "{:<14} gen {:>6.2}s solve {:>8.3}s conflicts {:>9} aborts {}  [",
            class.name(),
            gen_time.as_secs_f64(),
            result.total_time().as_secs_f64(),
            result.total_conflicts(),
            result.aborted()
        )?;
        for r in &result.runs {
            let secs = r.time.as_secs_f64();
            write!(out, " {}:{secs:.2}s/{}c", r.name, r.stats.conflicts)?;
        }
        writeln!(out, " ]")?;
    }
    Ok(())
}
