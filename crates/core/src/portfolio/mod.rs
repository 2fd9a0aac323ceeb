//! Parallel portfolio solving with learnt-clause sharing.
//!
//! A [`PortfolioEngine`] races N diversified solver configurations
//! ([`SolverConfig::portfolio_worker`]) on the same formula; the first
//! definitive answer (SAT or UNSAT) wins and the losers are cancelled
//! cooperatively through the solvers' terminate hook (polled every ~1024
//! conflicts and at restart boundaries). Optionally the workers exchange
//! short / low-LBD learnt clauses through a bounded [`share::ClausePool`]:
//! clauses passing the export filter (`len ≤ 2 || lbd ≤ cap`) are published
//! after each conflict and imported by the other workers at their solve
//! entries and restart boundaries.
//!
//! # The formula store
//!
//! The engine keeps its formula in one long-lived [`Solver`] that never
//! searches. Clauses, assumptions and the freeze/melt contract
//! ([`Solver::freeze`]) go straight to it. At every solve call the store
//! runs the ordinary [`crate::preprocess`] passes per
//! [`PortfolioConfig::simplify`] — once, before diversifying, so
//! subsumption, strengthening and variable elimination are paid one time
//! instead of once per worker — and exports the result: its level-0 units
//! plus its live original clauses. The workers load that snapshot inside
//! their threads and run with simplification off. A winning SAT model is
//! extended over the eliminated variables through the store's
//! reconstruction stack.
//!
//! # One scheduler
//!
//! Both execution modes drive the same worker operations — build, step,
//! finish — and let the first definitive answer claim the win:
//!
//! * **Threaded** (default): one `std::thread` per worker, each running a
//!   single step under the full budget. Non-deterministic — the winner
//!   depends on scheduling.
//! * **Deterministic** ([`PortfolioConfig::deterministic`]): the workers
//!   step round-robin on the calling thread in fixed slices of 512
//!   conflicts; the first definitive answer in worker order wins. Same code
//!   paths (including sharing), reproducible verdicts, winner and
//!   statistics — what the test suite and the fuzz harness drive.
//!
//! # Proofs
//!
//! With sharing **off**, a proof sink attached via
//! [`PortfolioEngine::set_proof`] receives the store's simplification steps
//! followed by the winning worker's complete DRAT stream (each worker logs
//! privately into a buffer; only the winner's is replayed). Every
//! simplifier clause is RUP at its emission point, and the winner proves
//! from the simplified formula, so the concatenation checks against the
//! original formula. With sharing **on**, imported clauses are not
//! RUP-derivable in the importer's own proof, so attaching a proof sink is
//! a configuration error and `set_proof` panics — the engine never emits an
//! unsound proof silently.

mod share;
mod worker;

pub(crate) use share::ClausePool;

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

use berkmin_cnf::{Assignment, LBool, Lit, Var};

use crate::config::{Budget, SimplifyConfig, SolverConfig};
use crate::engine::SatEngine;
use crate::proof::{NoProof, ProofSink};
use crate::search::{SolveStatus, StopReason};
use crate::solver::Solver;
use crate::stats::Stats;
use crate::telemetry::{SolveEvent, SolveObserver, SolveVerdict};

use worker::{emit_shared, ProofOp, Race, SharedObserver, Worker, WorkerResult};

/// Maximum clauses the share pool retains; older entries are evicted
/// (sharing is best-effort — dropping a clause never costs soundness).
const POOL_CAPACITY: usize = 4096;

/// Conflicts per worker per round in deterministic mode.
const SLICE_CONFLICTS: u64 = 512;

/// Configuration of a [`PortfolioEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Number of worker solvers to race (≥ 1; diversified per
    /// [`SolverConfig::portfolio_worker`]).
    pub threads: usize,
    /// Learnt-clause sharing: `Some(cap)` exports clauses with
    /// `len ≤ 2 || lbd ≤ cap` to the other workers; `None` disables
    /// sharing (required for proof logging).
    pub share_lbd: Option<u32>,
    /// Run the workers round-robin on the calling thread in fixed
    /// conflict slices instead of spawning threads — reproducible verdict,
    /// winner and statistics (used by tests and the fuzz harness).
    pub deterministic: bool,
    /// Per-worker resource budget for each solve call. In deterministic
    /// mode only the conflict component is honored (the schedule slices by
    /// conflicts).
    pub budget: Budget,
    /// Run every worker with paranoid in-search self-audits (expensive;
    /// meant for the fuzz harness and debugging).
    pub paranoid: bool,
    /// Pre-simplification of the shared formula, run once before the
    /// workers diversify (the workers themselves never simplify). Defaults
    /// to [`SimplifyConfig::default`] — subsumption on, elimination off.
    pub simplify: SimplifyConfig,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            threads: 4,
            share_lbd: Some(4),
            deterministic: false,
            budget: Budget::unlimited(),
            paranoid: false,
            simplify: SimplifyConfig::default(),
        }
    }
}

impl PortfolioConfig {
    /// A default-sharing portfolio of `threads` workers.
    pub fn new(threads: usize) -> Self {
        PortfolioConfig {
            threads: threads.max(1),
            ..PortfolioConfig::default()
        }
    }

    /// Sets the sharing policy (builder-style): `Some(cap)` shares clauses
    /// with `len ≤ 2 || lbd ≤ cap`, `None` disables sharing.
    pub fn with_share_lbd(mut self, share_lbd: Option<u32>) -> Self {
        self.share_lbd = share_lbd;
        self
    }

    /// Selects the deterministic fixed-schedule mode (builder-style).
    pub fn with_deterministic(mut self, deterministic: bool) -> Self {
        self.deterministic = deterministic;
        self
    }

    /// Sets the per-worker budget (builder-style).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables paranoid worker self-audits (builder-style).
    pub fn with_paranoid(mut self, paranoid: bool) -> Self {
        self.paranoid = paranoid;
        self
    }

    /// Sets the pre-simplification configuration (builder-style).
    pub fn with_simplify(mut self, simplify: SimplifyConfig) -> Self {
        self.simplify = simplify;
        self
    }
}

/// How one worker's last run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// Found a model.
    Sat,
    /// Proved unsatisfiability (absolutely or under the assumptions).
    Unsat,
    /// Stopped without an answer: cancelled after another worker won
    /// ([`StopReason::Callback`]), ran out of budget, or — in deterministic
    /// mode — was still mid-schedule when the race ended.
    Stopped(StopReason),
}

impl WorkerOutcome {
    /// The outcome's name: `"sat"`, `"unsat"` or `"stopped"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            WorkerOutcome::Sat => "sat",
            WorkerOutcome::Unsat => "unsat",
            WorkerOutcome::Stopped(_) => "stopped",
        }
    }
}

/// Per-worker summary of the last [`PortfolioEngine::solve`] call — what
/// the CLI's `c workers` line prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Worker index (also its slot in [`SolverConfig::portfolio_worker`]).
    pub id: usize,
    /// How the worker's run ended.
    pub outcome: WorkerOutcome,
    /// Whether this worker's answer was the one the portfolio returned.
    pub winner: bool,
    /// Conflicts the worker spent this call.
    pub conflicts: u64,
    /// Decisions the worker spent this call.
    pub decisions: u64,
    /// Clauses the worker exported to the share pool.
    pub exported: u64,
    /// Foreign clauses the worker integrated from the share pool.
    pub imported: u64,
    /// Pool entries evicted before this worker's import polls reached
    /// them — shared clauses the worker never got to see (an upper bound:
    /// it includes the worker's own publications and clauses its LBD
    /// filter would have rejected).
    pub missed: u64,
}

/// A parallel portfolio of diversified CDCL solvers behind the ordinary
/// [`SatEngine`] interface.
///
/// Clauses and assumptions accumulate exactly as on a single
/// [`Solver`](crate::Solver) — they are stored in one;
/// each [`solve`](SatEngine::solve) call builds a fresh set of diversified
/// workers over the accumulated formula and races them (threaded or
/// deterministic per [`PortfolioConfig`]). Learnt state is **not** carried
/// between calls — the portfolio trades the single engine's warm-start for
/// diversification, which is the better deal on the one-shot and
/// few-call workloads it targets.
///
/// # Examples
///
/// ```
/// use berkmin::{PortfolioConfig, PortfolioEngine, SatEngine};
/// use berkmin_cnf::Lit;
///
/// let mut engine = PortfolioEngine::new(
///     PortfolioConfig::new(2).with_deterministic(true),
/// );
/// engine.add_clause(&[Lit::from_dimacs(1), Lit::from_dimacs(2)]);
/// engine.add_clause(&[Lit::from_dimacs(-1)]);
/// assert!(engine.solve().is_sat());
/// assert!(engine.reports().iter().any(|r| r.winner));
/// ```
pub struct PortfolioEngine {
    config: PortfolioConfig,
    /// The formula store: clauses, pending assumptions, freeze and
    /// elimination flags and the reconstruction stack. It only ever runs
    /// the preprocessor; the workers search.
    store: Solver,
    stats: Stats,
    model: Option<Assignment>,
    failed: Vec<Lit>,
    reports: Vec<WorkerReport>,
    winner: Option<usize>,
    proof: Option<Box<dyn ProofSink>>,
    observer: Option<Box<dyn SolveObserver + Send>>,
}

impl std::fmt::Debug for PortfolioEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortfolioEngine")
            .field("config", &self.config)
            .field("store", &self.store)
            .field("winner", &self.winner)
            .field("proof", &self.proof.is_some())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl PortfolioEngine {
    /// Creates an empty portfolio engine.
    pub fn new(config: PortfolioConfig) -> Self {
        let store = Solver::with_config(
            SolverConfig::berkmin()
                .with_simplify(config.simplify)
                .with_paranoid(config.paranoid),
        );
        PortfolioEngine {
            config: PortfolioConfig {
                threads: config.threads.max(1),
                ..config
            },
            store,
            stats: Stats::new(),
            model: None,
            failed: Vec::new(),
            reports: Vec::new(),
            winner: None,
            proof: None,
            observer: None,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.config
    }

    /// Attaches a proof sink that will receive the **winning worker's**
    /// complete DRAT stream after every solve call, preceded by the
    /// pre-simplifier's additions and deletions (attach before the first
    /// solve so those land ahead of any worker-derived clause).
    ///
    /// # Panics
    ///
    /// Panics when clause sharing is enabled
    /// ([`PortfolioConfig::share_lbd`] is `Some`): imported clauses are not
    /// RUP-derivable in the importing worker's proof, so no sound DRAT log
    /// exists. Disable sharing to log proofs.
    pub fn set_proof(&mut self, sink: Box<dyn ProofSink>) {
        assert!(
            self.config.share_lbd.is_none(),
            "configuration error: portfolio proof logging requires clause \
             sharing to be off (--share-lbd would make the winner's DRAT \
             stream unsound)"
        );
        self.proof = Some(sink);
    }

    /// Per-worker reports from the last solve call (empty before the first
    /// call).
    pub fn reports(&self) -> &[WorkerReport] {
        &self.reports
    }

    /// Index of the worker whose answer the last solve call returned
    /// (`None` before the first call or when every worker stopped
    /// without an answer).
    pub fn winner(&self) -> Option<usize> {
        self.winner
    }

    /// Replaces the per-worker budget for subsequent solve calls.
    pub fn set_budget(&mut self, budget: Budget) {
        self.config.budget = budget;
    }

    /// Protects `var` from elimination by the pre-simplifier — the
    /// contract of [`Solver::freeze`](crate::Solver::freeze), which this
    /// forwards to.
    pub fn freeze(&mut self, var: Var) {
        self.store.freeze(var);
    }

    /// Lifts a [`PortfolioEngine::freeze`]: the next pre-simplification run
    /// (under [`SimplifyConfig::inprocess`]) may eliminate `var` again.
    pub fn melt(&mut self, var: Var) {
        self.store.melt(var);
    }

    /// Whether `var` is currently protected from elimination.
    pub fn is_frozen(&self, var: Var) -> bool {
        self.store.is_frozen(var)
    }

    /// Whether the pre-simplifier has eliminated `var` (see
    /// [`PortfolioEngine::freeze`] for the contract this implies).
    pub fn is_eliminated(&self, var: Var) -> bool {
        self.store.is_eliminated(var)
    }

    /// Races the workers and returns the winner and every worker's result.
    /// Threaded: one step per thread under the full budget, the losers
    /// cancelled by the winner's flag; worker events (when observing)
    /// arrive in scheduling order. Deterministic: see `round_robin`.
    fn race(&self, race: Race) -> (Option<usize>, Vec<WorkerResult>) {
        let results = if self.config.deterministic {
            self.round_robin(&race)
        } else {
            let (race, budget) = (&race, self.config.budget);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..self.config.threads)
                    .map(|id| {
                        s.spawn(move || {
                            let mut worker = Worker::build(id, race);
                            worker.step(budget);
                            worker.finish()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        (race.winner.into_inner().unwrap(), results)
    }

    /// The deterministic schedule: steps of [`SLICE_CONFLICTS`] in worker
    /// order, round after round, until one is definitive or every worker
    /// has spent its conflict budget. Worker events (when observing) form a
    /// reproducible stream: `WorkerStart` in worker order, the tagged
    /// solver events in schedule order, then `WorkerDone` in worker order.
    fn round_robin(&self, race: &Race) -> Vec<WorkerResult> {
        let cap = self.config.budget.max_conflicts;
        let mut workers: Vec<Worker> = (0..self.config.threads)
            .map(|id| Worker::build(id, race))
            .collect();
        'rounds: loop {
            let mut live = false;
            for worker in &mut workers {
                let allowance = SLICE_CONFLICTS.min(cap.saturating_sub(worker.conflicts()));
                if allowance == 0 {
                    worker.stop(StopReason::ConflictBudget);
                    continue;
                }
                live = true;
                if worker.step(Budget::conflicts(allowance)) {
                    break 'rounds;
                }
            }
            if !live {
                break;
            }
        }
        workers.into_iter().map(Worker::finish).collect()
    }
}

impl SatEngine for PortfolioEngine {
    fn reserve_vars(&mut self, n: usize) {
        self.store.reserve_vars(n);
    }

    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.store.add_clause(lits.iter().copied())
    }

    fn assume(&mut self, lit: Lit) {
        self.store.assume(lit);
    }

    fn solve(&mut self) -> SolveStatus {
        self.stats.solve_calls += 1;
        self.reports.clear();
        self.winner = None;
        self.model = None;
        self.failed.clear();

        // The observer moves behind an `Arc<Mutex<..>>` for the race (the
        // store, the workers' `Forward` adapters and the portfolio itself
        // share it) and is reclaimed afterwards for the next call.
        let shared: Option<SharedObserver> = self.observer.take().map(|b| Arc::new(Mutex::new(b)));
        emit_shared(
            &shared,
            &SolveEvent::SolveStart {
                call: self.stats.solve_calls,
                num_vars: self.store.num_vars(),
                num_clauses: self.store.num_live_clauses(),
                assumptions: self.store.pending_assumptions.len(),
            },
        );
        let base = self.stats.since(&Stats::default());

        // Simplify the formula once before diversifying. The store reports
        // its steps straight to the proof sink (ahead of any worker-derived
        // clause) and its `Simplify` event to the observer; its counters
        // for this call fold into the portfolio's.
        if let Some(obs) = &shared {
            let obs = Arc::clone(obs);
            self.store
                .set_observer(Some(Box::new(move |e: &SolveEvent| {
                    obs.lock().unwrap().on_event(e)
                })));
        }
        let clauses = match self.proof.as_deref_mut() {
            Some(sink) => self.store.simplified_clauses(sink),
            None => self.store.simplified_clauses(&mut NoProof),
        };
        self.store.set_observer(None);
        self.stats.merge(&std::mem::take(&mut self.store.stats));
        self.stats.initial_clauses = clauses.len() as u64;

        let pool = self
            .config
            .share_lbd
            .map(|_| Arc::new(ClausePool::new(POOL_CAPACITY, self.config.threads)));
        let race = Race {
            num_vars: self.store.num_vars(),
            clauses: &clauses,
            assumptions: &self.store.assumptions,
            sharing: self.config.share_lbd.zip(pool.clone()),
            cancel: Arc::new(AtomicBool::new(false)),
            winner: Mutex::new(None),
            observer: shared.clone(),
            record_proof: self.proof.is_some(),
            paranoid: self.config.paranoid,
        };
        let (winner, results) = self.race(race);
        self.winner = winner;
        let pool_summary = pool.map(|p| p.summary());

        for (id, result) in results.iter().enumerate() {
            let outcome = match &result.status {
                SolveStatus::Sat(_) => WorkerOutcome::Sat,
                SolveStatus::Unsat => WorkerOutcome::Unsat,
                SolveStatus::Unknown(reason) => WorkerOutcome::Stopped(*reason),
            };
            self.reports.push(WorkerReport {
                id,
                outcome,
                winner: winner == Some(id),
                conflicts: result.stats.conflicts,
                decisions: result.stats.decisions,
                exported: result.stats.clauses_exported,
                imported: result.stats.clauses_imported,
                missed: pool_summary
                    .as_ref()
                    .and_then(|s| s.missed.get(id).copied())
                    .unwrap_or(0),
            });
            self.stats.merge(&result.stats);
        }
        if let Some(summary) = &pool_summary {
            self.stats.pool_evicted += summary.evicted;
            self.stats.pool_missed += summary.missed.iter().sum::<u64>();
        }

        let status = match winner {
            None => {
                // Every worker stopped without answering: surface the first
                // worker's stop reason (budget exhaustion in practice).
                results
                    .first()
                    .map(|r| r.status.clone())
                    .unwrap_or(SolveStatus::Unknown(StopReason::ConflictBudget))
            }
            Some(w) => {
                if let Some(sink) = &mut self.proof {
                    for op in &results[w].proof_ops {
                        match op {
                            ProofOp::Add(lits) => sink.add_clause(lits),
                            ProofOp::Delete(lits) => sink.delete_clause(lits),
                        }
                    }
                }
                match &results[w].status {
                    SolveStatus::Sat(model) => {
                        // Extend the winner's model back over every
                        // variable the pre-simplifier eliminated (the
                        // worker valued them arbitrarily — the
                        // reconstruction overwrites with the value that
                        // satisfies the dissolved clauses).
                        let mut model = model.clone();
                        self.store.reconstructor.extend_model(&mut model);
                        self.model = Some(model.clone());
                        SolveStatus::Sat(model)
                    }
                    SolveStatus::Unsat => {
                        self.failed = results[w].failed.clone();
                        SolveStatus::Unsat
                    }
                    SolveStatus::Unknown(_) => unreachable!("winner is definitive"),
                }
            }
        };

        if let Some(summary) = pool_summary.filter(|s| s.evicted > 0) {
            emit_shared(
                &shared,
                &SolveEvent::PoolEvicted {
                    evicted: summary.evicted,
                },
            );
        }
        let spent = self.stats.since(&base);
        emit_shared(
            &shared,
            &SolveEvent::SolveDone {
                verdict: SolveVerdict::from(&status),
                conflicts: spent.conflicts,
                decisions: spent.decisions,
                propagations: spent.propagations,
                restarts: spent.restarts,
            },
        );
        if let Some(arc) = shared {
            // Threads are joined and the race dropped, so this is the last
            // clone; reclaim the observer for the next call.
            if let Ok(mutex) = Arc::try_unwrap(arc) {
                self.observer = Some(mutex.into_inner().unwrap());
            }
        }
        status
    }

    fn value(&self, var: Var) -> LBool {
        self.model
            .as_ref()
            .map(|m| m.value(var))
            .unwrap_or(LBool::Undef)
    }

    fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn set_observer(&mut self, observer: Option<Box<dyn SolveObserver + Send>>) {
        self.observer = observer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    fn deterministic(threads: usize, share: Option<u32>) -> PortfolioEngine {
        PortfolioEngine::new(
            PortfolioConfig::new(threads)
                .with_deterministic(true)
                .with_share_lbd(share),
        )
    }

    /// hole(n) clauses: n+1 pigeons, n holes (UNSAT).
    fn pigeonhole(n: usize) -> Vec<Vec<Lit>> {
        let lit = |p: usize, h: usize| Lit::from_dimacs((p * n + h + 1) as i32);
        let mut clauses = Vec::new();
        for p in 0..=n {
            clauses.push((0..n).map(|h| lit(p, h)).collect());
        }
        for h in 0..n {
            for p1 in 0..=n {
                for p2 in (p1 + 1)..=n {
                    clauses.push(vec![!lit(p1, h), !lit(p2, h)]);
                }
            }
        }
        clauses
    }

    #[test]
    fn trivial_sat_and_unsat_through_the_trait() {
        let mut engine = deterministic(2, Some(4));
        assert!(engine.add_clause(&[lit(1), lit(2)]));
        assert!(engine.add_clause(&[lit(-1)]));
        assert!(engine.solve().is_sat());
        assert_eq!(engine.value(Var::new(0)), LBool::False);
        assert_eq!(engine.value(Var::new(1)), LBool::True);
        assert!(engine.winner().is_some());

        assert!(engine.add_clause(&[lit(2)]));
        // x2 is a level-0 unit by now, so (¬x2) empties: trivially UNSAT.
        assert!(!engine.add_clause(&[lit(-2)]));
        assert!(engine.solve().is_unsat());
        assert!(engine.failed_assumptions().is_empty());
    }

    #[test]
    fn empty_clause_makes_add_clause_report_false() {
        let mut engine = deterministic(2, None);
        assert!(!engine.add_clause(&[]));
        assert!(engine.solve().is_unsat());
    }

    /// Regression: the portfolio used to report `false` only for a
    /// literally empty clause, breaking the [`SatEngine::add_clause`]
    /// contract once the formula became trivially unsatisfiable.
    #[test]
    fn add_clause_reports_trivial_unsat_like_a_single_solver() {
        let mut solver = Solver::with_config(SolverConfig::berkmin());
        let mut portfolio = deterministic(2, None);
        let engines: [&mut dyn SatEngine; 2] = [&mut solver, &mut portfolio];
        for engine in engines {
            let added: Vec<bool> = [vec![lit(1)], vec![lit(-1)], vec![lit(2), lit(3)]]
                .iter()
                .map(|c| engine.add_clause(c))
                .collect();
            assert_eq!(added, [true, false, false]);
        }
    }

    #[test]
    fn assumptions_yield_cores_like_a_single_solver() {
        let mut engine = deterministic(2, Some(4));
        engine.add_clause(&[lit(-1), lit(2)]);
        engine.add_clause(&[lit(-2), lit(3)]);
        engine.assume(lit(1));
        engine.assume(lit(-3));
        assert!(engine.solve().is_unsat());
        let core = engine.failed_assumptions();
        assert!(!core.is_empty());
        assert!(core.iter().all(|l| [lit(1), lit(-3)].contains(l)));
        // Assumptions were consumed: a plain re-solve is SAT.
        assert!(engine.solve().is_sat());
    }

    #[test]
    fn unsat_race_has_one_winner_and_stopped_losers() {
        let mut engine = deterministic(3, Some(4));
        for c in pigeonhole(5) {
            engine.add_clause(&c);
        }
        assert!(engine.solve().is_unsat());
        let winners: Vec<_> = engine.reports().iter().filter(|r| r.winner).collect();
        assert_eq!(winners.len(), 1);
        assert_eq!(winners[0].outcome, WorkerOutcome::Unsat);
        for r in engine.reports() {
            if !r.winner {
                assert!(
                    matches!(r.outcome, WorkerOutcome::Stopped(_)),
                    "loser {} must have stopped, got {:?}",
                    r.id,
                    r.outcome
                );
            }
        }
    }

    #[test]
    fn sharing_moves_clauses_between_workers() {
        // Small slices force many solve-entry import polls; hole(6) makes
        // every worker learn plenty of short clauses.
        let mut engine = PortfolioEngine::new(
            PortfolioConfig::new(2)
                .with_deterministic(true)
                .with_share_lbd(Some(8)),
        );
        for c in pigeonhole(6) {
            engine.add_clause(&c);
        }
        assert!(engine.solve().is_unsat());
        let exported: u64 = engine.reports().iter().map(|r| r.exported).sum();
        let imported: u64 = engine.reports().iter().map(|r| r.imported).sum();
        assert!(exported > 0, "workers must export on hole(6)");
        assert!(imported > 0, "workers must import at slice boundaries");
        assert_eq!(engine.stats().clauses_imported, imported);
    }

    #[test]
    fn budgeted_portfolio_reports_unknown() {
        let mut engine = PortfolioEngine::new(
            PortfolioConfig::new(2)
                .with_deterministic(true)
                .with_share_lbd(None)
                .with_budget(Budget::conflicts(3)),
        );
        for c in pigeonhole(7) {
            engine.add_clause(&c);
        }
        let status = engine.solve();
        assert!(status.is_unknown(), "3 conflicts cannot settle hole(7)");
        assert!(engine.winner().is_none());
        assert!(engine
            .reports()
            .iter()
            .all(|r| matches!(r.outcome, WorkerOutcome::Stopped(_))));
    }

    #[test]
    fn threaded_mode_agrees_on_small_instances() {
        let mut engine = PortfolioEngine::new(PortfolioConfig::new(2).with_share_lbd(Some(4)));
        for c in pigeonhole(4) {
            engine.add_clause(&c);
        }
        assert!(engine.solve().is_unsat());
        assert_eq!(engine.reports().iter().filter(|r| r.winner).count(), 1);

        let mut sat = PortfolioEngine::new(PortfolioConfig::new(2));
        sat.add_clause(&[lit(1), lit(2)]);
        sat.add_clause(&[lit(-2)]);
        let status = sat.solve();
        let model = status.model().expect("satisfiable");
        assert!(model.satisfies(lit(1)));
    }

    #[test]
    fn winner_proof_replays_into_the_sink() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Counting {
            adds: usize,
            empty: bool,
        }
        impl ProofSink for Counting {
            fn add_clause(&mut self, lits: &[Lit]) {
                self.adds += 1;
                if lits.is_empty() {
                    self.empty = true;
                }
            }
            fn delete_clause(&mut self, _lits: &[Lit]) {}
        }

        let sink = Rc::new(RefCell::new(Counting::default()));
        let mut engine = deterministic(2, None);
        engine.set_proof(Box::new(Rc::clone(&sink)));
        for c in pigeonhole(4) {
            engine.add_clause(&c);
        }
        assert!(engine.solve().is_unsat());
        assert!(sink.borrow().empty, "winner's refutation ends in []");
        assert!(sink.borrow().adds > 1);
    }

    #[test]
    #[should_panic(expected = "configuration error")]
    fn proof_with_sharing_is_rejected() {
        let mut engine = deterministic(2, Some(4));
        engine.set_proof(Box::new(crate::proof::NoProof));
    }

    /// Regression for the `Stats::merge` formula-counter bug: merging the
    /// workers' stats used to sum their per-worker copies of
    /// `initial_clauses` and `solve_calls` (N× the truth), relying on the
    /// aggregator to overwrite afterwards. The counters are now excluded
    /// from the merge and pinned to the portfolio-level view.
    #[test]
    fn portfolio_stats_keep_formula_level_counters() {
        let mut engine = deterministic(3, Some(4));
        for c in pigeonhole(4) {
            engine.add_clause(&c);
        }
        let num_clauses = pigeonhole(4).len() as u64;
        assert!(engine.solve().is_unsat());
        assert_eq!(engine.stats().initial_clauses, num_clauses);
        assert_eq!(engine.stats().solve_calls, 1);
        assert!(engine.solve().is_unsat());
        assert_eq!(engine.stats().initial_clauses, num_clauses);
        assert_eq!(engine.stats().solve_calls, 2);
    }

    /// Deterministic, share-free engine with full pre-simplification
    /// (subsumption + elimination).
    fn simplifying(threads: usize) -> PortfolioEngine {
        PortfolioEngine::new(
            PortfolioConfig::new(threads)
                .with_deterministic(true)
                .with_share_lbd(None)
                .with_simplify(SimplifyConfig::full()),
        )
    }

    #[test]
    fn pre_simplification_shrinks_the_shared_formula_once() {
        let mut engine = simplifying(2);
        engine.add_clause(&[lit(1), lit(2)]);
        engine.add_clause(&[lit(1), lit(2), lit(3)]); // subsumed
        engine.add_clause(&[lit(-1), lit(-2), lit(4)]);
        assert!(engine.solve().is_sat());
        assert_eq!(engine.stats().clauses_subsumed, 1);
        assert!(
            engine.stats().initial_clauses < 3,
            "the workers must race on the reduced formula"
        );
        // Without inprocessing the second call reuses the reduction.
        assert!(engine.solve().is_sat());
        assert_eq!(engine.stats().clauses_subsumed, 1);
    }

    #[test]
    fn models_reconstruct_over_engine_eliminated_variables() {
        let mut engine = simplifying(2);
        engine.add_clause(&[lit(1), lit(2)]);
        engine.add_clause(&[lit(-2), lit(3)]);
        engine.add_clause(&[lit(-1), lit(4)]);
        let status = engine.solve();
        let model = status.model().expect("satisfiable");
        assert!(engine.stats().vars_eliminated >= 1);
        assert!(model.satisfies(lit(1)) || model.satisfies(lit(2)));
        assert!(model.satisfies(lit(-2)) || model.satisfies(lit(3)));
        assert!(model.satisfies(lit(-1)) || model.satisfies(lit(4)));
        // `value` answers through the reconstructed model too.
        for v in 0..4 {
            assert_ne!(engine.value(Var::new(v)), LBool::Undef);
        }
    }

    #[test]
    fn frozen_variables_survive_engine_elimination() {
        let mut engine = simplifying(2);
        engine.freeze(Var::new(1));
        assert!(engine.is_frozen(Var::new(1)));
        engine.add_clause(&[lit(1), lit(2)]);
        engine.add_clause(&[lit(-2), lit(3)]);
        assert!(engine.solve().is_sat());
        assert!(!engine.is_eliminated(Var::new(1)));
        // The frozen variable can still be assumed afterwards.
        engine.assume(lit(-2));
        assert!(engine.solve().is_sat());
    }

    #[test]
    #[should_panic(expected = "eliminated variable")]
    fn eliminated_variables_reject_new_clauses() {
        let mut engine = simplifying(2);
        engine.add_clause(&[lit(1), lit(2)]);
        engine.add_clause(&[lit(-2), lit(3)]);
        engine.add_clause(&[lit(-1), lit(4)]);
        assert!(engine.solve().is_sat());
        let v = (0..4)
            .map(Var::new)
            .find(|&v| engine.is_eliminated(v))
            .expect("full simplification eliminates at least one variable");
        engine.add_clause(&[Lit::pos(v)]);
    }

    #[test]
    fn simplifier_proof_precedes_the_winner_refutation() {
        #[derive(Default)]
        struct Recording {
            adds: usize,
            dels: usize,
            empty: bool,
        }
        impl ProofSink for Recording {
            fn add_clause(&mut self, lits: &[Lit]) {
                self.adds += 1;
                if lits.is_empty() {
                    self.empty = true;
                }
            }
            fn delete_clause(&mut self, _lits: &[Lit]) {
                self.dels += 1;
            }
        }

        let sink = std::rc::Rc::new(std::cell::RefCell::new(Recording::default()));
        let mut engine = simplifying(2);
        engine.set_proof(Box::new(std::rc::Rc::clone(&sink)));
        // The ternary clause is subsumed (a deletion in the prefix) and the
        // remainder collapses by strengthening into a contradiction.
        engine.add_clause(&[lit(1), lit(2)]);
        engine.add_clause(&[lit(1), lit(2), lit(3)]);
        engine.add_clause(&[lit(-1), lit(2)]);
        engine.add_clause(&[lit(-2), lit(3)]);
        engine.add_clause(&[lit(-3), lit(-2)]);
        assert!(engine.solve().is_unsat());
        assert!(sink.borrow().empty, "the refutation ends in []");
        assert!(sink.borrow().dels > 0, "simplifier deletions are logged");
    }

    #[test]
    fn deterministic_runs_are_reproducible() {
        let run = || {
            let mut engine = deterministic(3, Some(4));
            for c in pigeonhole(6) {
                engine.add_clause(&c);
            }
            let status = engine.solve();
            (
                status.is_unsat(),
                engine.winner(),
                engine.stats().conflicts,
                engine.reports().to_vec(),
            )
        };
        assert_eq!(run(), run());
    }
}
