//! Instance and suite runners with deterministic budgets. The run path is
//! engine-generic: every instance is driven through `dyn SatEngine`, so
//! the harness measures whatever engine a configuration (or an entirely
//! different backend) builds.

use std::time::{Duration, Instant};

use berkmin::telemetry::json::Value;
use berkmin::{Budget, SatEngine, SolveStatus, SolverBuilder, SolverConfig, Stats};
use berkmin_gens::BenchInstance;

/// Verdict of a single run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfiable, model verified against the formula.
    Sat,
    /// Proven unsatisfiable.
    Unsat,
    /// Budget exhausted — the analog of the paper's timeout aborts.
    Aborted,
}

impl Verdict {
    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Sat => "SAT",
            Verdict::Unsat => "UNSAT",
            Verdict::Aborted => "abort",
        }
    }
}

/// Result of running one instance under one configuration.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Instance name.
    pub name: String,
    /// Outcome.
    pub verdict: Verdict,
    /// Wall-clock time of the solve call.
    pub time: Duration,
    /// Full solver statistics.
    pub stats: Stats,
}

impl RunResult {
    /// The run as one arm of a `BENCH_*.json` row: verdict, wall-clock
    /// seconds and conflicts.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("verdict", Value::Str(self.verdict.label().to_string())),
            ("time_s", Value::Num(self.time.as_secs_f64())),
            ("conflicts", Value::Int(self.stats.conflicts)),
        ])
    }
}

/// Runs `inst` under `config` with the given conflict budget: builds the
/// configured engine and delegates to the engine-generic [`run_engine`].
///
/// # Panics
///
/// Panics if the verdict contradicts the instance's construction-guaranteed
/// expectation, or if a SAT model fails verification — an experiment with a
/// wrong answer must never be reported.
pub fn run_instance(inst: &BenchInstance, config: &SolverConfig, budget: Budget) -> RunResult {
    let mut engine = SolverBuilder::with_config(config.clone().with_budget(budget)).build_engine();
    run_engine(inst, engine.as_mut())
}

/// Loads `inst` into a fresh engine and solves it — the measurement core
/// every harness shares, generic over any [`SatEngine`]. Only the solve
/// call is timed.
///
/// # Panics
///
/// Same verdict/model checks as [`run_instance`].
pub fn run_engine(inst: &BenchInstance, engine: &mut dyn SatEngine) -> RunResult {
    // Feed the borrowed formula straight through the trait surface rather
    // than `SolverBuilder::cnf`, which would buffer a per-clause copy only
    // for `build()` to replay — this path runs 50× per sweep.
    engine.reserve_vars(inst.cnf.num_vars());
    for clause in &inst.cnf {
        engine.add_clause(clause.lits());
    }
    let start = Instant::now();
    let status = engine.solve();
    let time = start.elapsed();
    let verdict = match &status {
        SolveStatus::Sat(model) => {
            assert!(
                inst.cnf.is_satisfied_by(model),
                "{}: solver returned a bad model",
                inst.name
            );
            assert_ne!(
                inst.expected,
                Some(false),
                "{}: SAT on an UNSAT-by-construction instance",
                inst.name
            );
            Verdict::Sat
        }
        SolveStatus::Unsat => {
            assert_ne!(
                inst.expected,
                Some(true),
                "{}: UNSAT on a SAT-by-construction instance",
                inst.name
            );
            Verdict::Unsat
        }
        SolveStatus::Unknown(_) => Verdict::Aborted,
    };
    RunResult {
        name: inst.name.clone(),
        verdict,
        time,
        stats: engine.stats().clone(),
    }
}

/// Aggregate over a class of instances — one row of the paper's tables.
#[derive(Debug, Clone)]
pub struct ClassResult {
    /// Class name (table row label).
    pub class: String,
    /// Per-instance results.
    pub runs: Vec<RunResult>,
}

impl ClassResult {
    /// Total wall-clock time over all instances.
    pub fn total_time(&self) -> Duration {
        self.runs.iter().map(|r| r.time).sum()
    }

    /// Number of aborted instances.
    pub fn aborted(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.verdict == Verdict::Aborted)
            .count()
    }

    /// Total conflicts over all instances (the deterministic cost metric).
    pub fn total_conflicts(&self) -> u64 {
        self.runs.iter().map(|r| r.stats.conflicts).sum()
    }

    /// Formats the paper's "time (aborted)" cell: `12.34` or `>12.34 (2)`.
    pub fn time_cell(&self) -> String {
        time_cell(self.total_time().as_secs_f64(), self.aborted())
    }
}

/// The paper's "time (aborted)" cell: `12.34`, or `>12.34 (2)` when
/// `aborted` runs hit their budget.
pub(crate) fn time_cell(secs: f64, aborted: usize) -> String {
    if aborted > 0 {
        format!(">{secs:.2} ({aborted})")
    } else {
        format!("{secs:.2}")
    }
}

/// Runs a whole class under one configuration.
pub fn run_class(
    class: &str,
    instances: &[BenchInstance],
    config: &SolverConfig,
    budget: Budget,
) -> ClassResult {
    ClassResult {
        class: class.to_string(),
        runs: instances
            .iter()
            .map(|inst| run_instance(inst, config, budget))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin_gens::hole;

    #[test]
    fn run_reports_expected_verdicts() {
        let inst = hole::pigeonhole(4);
        let r = run_instance(&inst, &SolverConfig::berkmin(), Budget::unlimited());
        assert_eq!(r.verdict, Verdict::Unsat);
        assert!(r.stats.conflicts > 0);
    }

    #[test]
    fn tiny_budget_aborts() {
        let inst = hole::pigeonhole(7);
        let r = run_instance(&inst, &SolverConfig::berkmin(), Budget::conflicts(2));
        assert_eq!(r.verdict, Verdict::Aborted);
    }

    #[test]
    fn class_aggregation_formats_abort_cells() {
        let instances = vec![hole::pigeonhole(3), hole::pigeonhole(7)];
        let res = run_class(
            "Hole",
            &instances,
            &SolverConfig::berkmin(),
            Budget::conflicts(1000),
        );
        assert_eq!(res.aborted(), 1);
        assert!(res.time_cell().starts_with('>'));
        assert!(res.time_cell().ends_with("(1)"));
    }

    #[test]
    fn sat_models_are_verified() {
        let inst = hole::pigeonhole_sat(4);
        let r = run_instance(&inst, &SolverConfig::berkmin(), Budget::unlimited());
        assert_eq!(r.verdict, Verdict::Sat);
    }
}
