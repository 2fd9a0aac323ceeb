//! The ablation tables (Tables 1, 2, 4, 5 and `extensions`): each runs
//! several solver configurations over the 12 paper classes and prints one
//! column per configuration.

use std::io::Write;

use berkmin::{ActivityIndex, DecisionStrategy, RestartPolicy, SolverConfig, TopClausePolarity};
use berkmin_gens::suites::{class_suite, ABLATION_ORDER};

use crate::{class_budget, run_class, Outcome, TextTable};

/// One column of an ablation table: its header and its configuration.
type Arm = (&'static str, SolverConfig);

/// One ablation table: subcommand name, title and arms. The first arm is
/// always the published BerkMin configuration.
struct Ablation {
    name: &'static str,
    title: &'static str,
    arms: Vec<Arm>,
}

/// BerkMin with one setting changed.
fn berkmin_with(header: &'static str, edit: impl FnOnce(&mut SolverConfig)) -> Arm {
    let mut config = SolverConfig::berkmin();
    edit(&mut config);
    (header, config)
}

fn top(header: &'static str, polarity: TopClausePolarity) -> Arm {
    (header, SolverConfig::with_top_polarity(polarity))
}

/// Every ablation table.
fn ablations() -> Vec<Ablation> {
    let berkmin = || ("BerkMin (s)", SolverConfig::berkmin());
    vec![
        // §4: activity credited from every clause responsible for a conflict
        // vs only the learnt clause's variables (Chaff-like). The paper
        // reports a 2.5× total slowdown, mostly on Hanoi, Miters and
        // Fvp_unsat2.0.
        Ablation {
            name: "table1",
            title: "Table 1: Changing sensitivity of decision-making \
                    (time s, budget-aborts in parens)",
            arms: vec![
                berkmin(),
                ("Less_sensitivity (s)", SolverConfig::less_sensitivity()),
            ],
        },
        // §5: branch on the most active free variable of the current top
        // conflict clause vs of the whole formula. The paper reports a >12×
        // total slowdown with aborts on Beijing and Fvp_unsat2.0.
        Ablation {
            name: "table2",
            title: "Table 2: Changing mobility of decision-making \
                    (time s, budget-aborts in parens)",
            arms: vec![
                berkmin(),
                ("Less_mobility (s)", SolverConfig::less_mobility()),
            ],
        },
        // §7: six polarity heuristics for decisions on the top clause. The
        // paper finds BerkMin's database symmetrization and Take_rand best,
        // with Unsat_top and Take_1 aborting on Hole/Beijing/Miters.
        Ablation {
            name: "table4",
            title: "Table 4: Branch selection (time s, budget-aborts in parens)",
            arms: vec![
                berkmin(),
                top("Sat_top (s)", TopClausePolarity::SatTop),
                top("Unsat_top (s)", TopClausePolarity::UnsatTop),
                top("Take_0 (s)", TopClausePolarity::Take0),
                top("Take_1 (s)", TopClausePolarity::Take1),
                top("Take_rand (s)", TopClausePolarity::TakeRand),
            ],
        },
        // §8: BerkMin's age/length/activity retention vs GRASP-style
        // dropping of every learnt clause longer than 42. The paper reports
        // ≥2× slowdowns on Hanoi, Miters and Fvp_unsat2.0.
        Ablation {
            name: "table5",
            title: "Table 5: Database management (time s, budget-aborts in parens)",
            arms: vec![
                berkmin(),
                ("Limited_keeping (s)", SolverConfig::limited_keeping()),
            ],
        },
        // Not a paper table: the features the paper proposes but does not
        // implement. Remark 2's window of top clauses, §10's better restart
        // strategy (Luby), post-paper learnt-clause minimization (MiniSat
        // 2005) and Remark 1's heap index for the most-active fallback.
        Ablation {
            name: "extensions",
            title: "Extensions: the paper's future-work features vs published BerkMin",
            arms: vec![
                berkmin(),
                berkmin_with("Window4 (s)", |c| {
                    c.decision = DecisionStrategy::BerkMinWindow { window: 4 }
                }),
                berkmin_with("Window16 (s)", |c| {
                    c.decision = DecisionStrategy::BerkMinWindow { window: 16 }
                }),
                berkmin_with("Luby (s)", |c| c.restart = RestartPolicy::Luby(128)),
                berkmin_with("Minimize (s)", |c| c.minimize_learnt = true),
                berkmin_with("HeapIdx (s)", |c| c.activity_index = ActivityIndex::Heap),
            ],
        },
    ]
}

/// Runs the ablation table called `name` over every class and writes it
/// (rows = classes + total, columns = arms).
///
/// # Panics
///
/// Panics if there is no ablation table called `name`.
pub(crate) fn run(name: &str, out: &mut dyn Write) -> Outcome {
    let ablation = ablations()
        .into_iter()
        .find(|a| a.name == name)
        .expect("an ablation table of that name");
    let mut headers = vec!["Class of benchmarks"];
    headers.extend(ablation.arms.iter().map(|(header, _)| *header));
    let mut table = TextTable::new(ablation.title, &headers);
    let mut totals = vec![(0.0f64, 0usize); ablation.arms.len()];
    for class in ABLATION_ORDER {
        let suite = class_suite(class);
        let mut row = vec![class.name().to_string()];
        for ((_, config), total) in ablation.arms.iter().zip(&mut totals) {
            let result = run_class(class.name(), &suite, config, class_budget(class));
            total.0 += result.total_time().as_secs_f64();
            total.1 += result.aborted();
            row.push(result.time_cell());
        }
        table.add_row(row);
    }
    let mut total_row = vec!["Total".to_string()];
    total_row.extend(
        totals
            .iter()
            .map(|&(secs, aborts)| crate::runner::time_cell(secs, aborts)),
    );
    table.add_row(total_row);
    table.write(out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin::Budget;
    use berkmin_gens::hole;

    #[test]
    fn ablation_driver_smoke() {
        // A miniature two-arm run over a single tiny class exercises the
        // aggregation path without the full table cost.
        let arms = [
            ("berkmin", SolverConfig::berkmin()),
            ("less_sensitivity", SolverConfig::less_sensitivity()),
        ];
        let suite = vec![hole::pigeonhole(4)];
        for (_, cfg) in &arms {
            let r = crate::run_class("Hole", &suite, cfg, Budget::conflicts(100_000));
            assert_eq!(r.aborted(), 0);
        }
    }

    #[test]
    fn every_ablation_starts_from_berkmin_and_is_a_command() {
        for ablation in ablations() {
            let (header, config) = &ablation.arms[0];
            assert_eq!(*header, "BerkMin (s)");
            assert_eq!(config, &SolverConfig::berkmin());
            assert!(crate::COMMANDS.iter().any(|c| c.name == ablation.name));
        }
    }
}
