//! One portfolio worker and the race it runs in.
//!
//! A worker is an ordinary [`Solver`] assembled from the portfolio's
//! formula snapshot with a diversified configuration
//! ([`SolverConfig::portfolio_worker`]), the race's cancellation flag wired
//! through the `on_terminate` hook, and — when sharing is on — the
//! export/import hooks connected to the shared [`ClausePool`]. Workers are
//! built *inside* their threads ([`Solver`] is deliberately `!Send`: it
//! carries boxed callbacks); only plain data crosses thread boundaries.
//!
//! Both schedules drive a worker through the same three operations:
//! [`Worker::build`] (emits `WorkerStart`), any number of [`Worker::step`]s
//! (each stages the assumptions and solves under an allowance; the first
//! definitive answer of the race claims the win), and [`Worker::finish`]
//! (packages a [`WorkerResult`] and emits `WorkerDone`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use berkmin_cnf::Lit;

use crate::builder::SolverBuilder;
use crate::config::{Budget, SimplifyConfig, SolverConfig};
use crate::proof::ProofSink;
use crate::search::{SolveStatus, StopReason};
use crate::solver::Solver;
use crate::stats::Stats;
use crate::telemetry::{SolveEvent, SolveObserver, SolveVerdict};

use super::share::ClausePool;

/// The portfolio's observer as shared by its workers: one mutex serializes
/// events from all threads, so the observer sees a totally ordered stream.
pub(crate) type SharedObserver = Arc<Mutex<Box<dyn SolveObserver + Send>>>;

/// Per-worker adapter installed as the worker solver's observer: wraps each
/// event in [`SolveEvent::Worker`] with the worker's id and forwards it to
/// the portfolio's shared observer under the mutex.
struct Forward {
    worker: usize,
    shared: SharedObserver,
}

impl SolveObserver for Forward {
    fn on_event(&mut self, event: &SolveEvent) {
        let tagged = SolveEvent::Worker {
            worker: self.worker,
            event: Box::new(event.clone()),
        };
        self.shared.lock().unwrap().on_event(&tagged);
    }
}

/// Emits a portfolio-level (untagged) event into the shared observer, if
/// one is attached.
pub(crate) fn emit_shared(observer: &Option<SharedObserver>, event: &SolveEvent) {
    if let Some(shared) = observer {
        shared.lock().unwrap().on_event(event);
    }
}

/// One buffered proof operation — the `Send`-able form of a worker's DRAT
/// stream, replayed into the portfolio's real sink if that worker wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ProofOp {
    /// A deduced clause (empty on refutation).
    Add(Vec<Lit>),
    /// A database deletion.
    Delete(Vec<Lit>),
}

/// A [`ProofSink`] that records operations instead of writing them — each
/// worker logs privately; only the winner's log is published.
#[derive(Debug, Default)]
pub(crate) struct ProofBuffer {
    pub(crate) ops: Vec<ProofOp>,
}

impl ProofSink for ProofBuffer {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.ops.push(ProofOp::Add(lits.to_vec()));
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.ops.push(ProofOp::Delete(lits.to_vec()));
    }
}

/// Everything a finished worker hands back across the thread boundary.
#[derive(Debug)]
pub(crate) struct WorkerResult {
    pub(crate) status: SolveStatus,
    pub(crate) failed: Vec<Lit>,
    pub(crate) stats: Stats,
    pub(crate) proof_ops: Vec<ProofOp>,
}

/// What every worker of one solve call shares. Plain `Sync` data, so the
/// threaded schedule hands each thread a reference.
pub(crate) struct Race<'a> {
    /// Variables of the formula snapshot.
    pub(crate) num_vars: usize,
    /// The formula snapshot every worker loads.
    pub(crate) clauses: &'a [Vec<Lit>],
    /// The call's assumptions, staged before every step.
    pub(crate) assumptions: &'a [Lit],
    /// The LBD export cap and the share pool, when sharing is on.
    pub(crate) sharing: Option<(u32, Arc<ClausePool>)>,
    /// Raised by the winner; every worker polls it through its terminate
    /// hook, so a loser stops within one poll interval (~1024 conflicts).
    pub(crate) cancel: Arc<AtomicBool>,
    /// The worker that first answered definitively.
    pub(crate) winner: Mutex<Option<usize>>,
    /// Receives the workers' events, tagged with their ids.
    pub(crate) observer: Option<SharedObserver>,
    /// Attach a private [`ProofBuffer`] to every worker.
    pub(crate) record_proof: bool,
    /// Run every worker with paranoid in-search self-audits.
    pub(crate) paranoid: bool,
}

/// One worker of a [`Race`].
pub(crate) struct Worker<'r> {
    id: usize,
    race: &'r Race<'r>,
    solver: Solver,
    tap: Option<Rc<RefCell<ProofBuffer>>>,
    /// How the last step ended (`None` before the first).
    status: Option<SolveStatus>,
}

impl<'r> Worker<'r> {
    /// Assembles worker `id` over the race's formula and emits
    /// `WorkerStart`. The portfolio simplified the formula once already, so
    /// the worker runs with simplification off.
    pub(crate) fn build(id: usize, race: &'r Race<'r>) -> Self {
        debug_assert!(
            !(race.record_proof && race.sharing.is_some()),
            "proof recording with sharing on would be unsound"
        );
        let config = SolverConfig::portfolio_worker(id)
            .with_paranoid(race.paranoid)
            .with_simplify(SimplifyConfig::off());
        let mut builder = SolverBuilder::with_config(config).reserve_vars(race.num_vars);
        for clause in race.clauses {
            builder = builder.clause(clause.iter().copied());
        }
        let cancel = Arc::clone(&race.cancel);
        builder = builder.on_terminate(move || cancel.load(Ordering::Relaxed));
        if let Some((max_lbd, pool)) = &race.sharing {
            let (max_lbd, export_pool, pool) = (*max_lbd, Arc::clone(pool), Arc::clone(pool));
            builder = builder.share_export(max_lbd, move |lits, lbd| {
                export_pool.publish(id, lits, lbd);
            });
            builder = builder.share_import(move |buf| {
                pool.collect(id, max_lbd, buf);
            });
        }
        if let Some(shared) = &race.observer {
            builder = builder.on_event(Forward {
                worker: id,
                shared: Arc::clone(shared),
            });
        }
        let tap = race
            .record_proof
            .then(|| Rc::new(RefCell::new(ProofBuffer::default())));
        if let Some(buffer) = &tap {
            builder = builder.proof(Rc::clone(buffer));
        }
        emit_shared(&race.observer, &SolveEvent::WorkerStart { worker: id });
        Worker {
            id,
            race,
            solver: builder.build(),
            tap,
            status: None,
        }
    }

    /// Conflicts the worker has spent so far.
    pub(crate) fn conflicts(&self) -> u64 {
        self.solver.stats().conflicts
    }

    /// Stages the race's assumptions and solves under `allowance`. A
    /// definitive answer claims the win if no other worker has, raising
    /// the cancel flag; returns whether the answer was definitive.
    pub(crate) fn step(&mut self, allowance: Budget) -> bool {
        self.solver.set_budget(allowance);
        for &a in self.race.assumptions {
            self.solver.assume(a);
        }
        let status = self.solver.solve();
        let definitive = !status.is_unknown();
        self.status = Some(status);
        if definitive {
            let mut winner = self.race.winner.lock().unwrap();
            if winner.is_none() {
                *winner = Some(self.id);
                self.race.cancel.store(true, Ordering::SeqCst);
            }
        }
        definitive
    }

    /// Records a stop the schedule decided without stepping the worker.
    pub(crate) fn stop(&mut self, reason: StopReason) {
        self.status = Some(SolveStatus::Unknown(reason));
    }

    /// Packages the outcome as plain `Send` data and emits `WorkerDone`. A
    /// worker the schedule never stepped reports the cooperative-stop
    /// reason, like a cancelled thread.
    pub(crate) fn finish(self) -> WorkerResult {
        let status = self
            .status
            .unwrap_or(SolveStatus::Unknown(StopReason::Callback));
        emit_shared(
            &self.race.observer,
            &SolveEvent::WorkerDone {
                worker: self.id,
                verdict: SolveVerdict::from(&status),
            },
        );
        let failed = self.solver.failed_assumptions().to_vec();
        let stats = self.solver.stats().clone();
        drop(self.solver); // releases the solver's clone of the proof tap
        let proof_ops = self
            .tap
            .and_then(|t| Rc::try_unwrap(t).ok())
            .map(|cell| cell.into_inner().ops)
            .unwrap_or_default();
        WorkerResult {
            status,
            failed,
            stats,
            proof_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// hole(n): n+1 pigeons in n holes — small but exponentially hard, so a
    /// worker is reliably mid-search when the flag rises.
    fn pigeonhole(n: usize) -> Vec<Vec<Lit>> {
        let lit = |pigeon: usize, hole: usize| Lit::from_dimacs((pigeon * n + hole + 1) as i32);
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

    /// Runs worker 0 alone over hole(n) for one unlimited step.
    fn run_alone(n: usize, cancel: Arc<AtomicBool>) -> WorkerResult {
        let clauses = pigeonhole(n);
        let race = Race {
            num_vars: (n + 1) * n,
            clauses: &clauses,
            assumptions: &[],
            sharing: None,
            cancel,
            winner: Mutex::new(None),
            observer: None,
            record_proof: false,
            paranoid: false,
        };
        let mut worker = Worker::build(0, &race);
        worker.step(Budget::unlimited());
        worker.finish()
    }

    #[test]
    fn pre_raised_cancel_flag_stops_at_solve_entry() {
        let result = run_alone(8, Arc::new(AtomicBool::new(true)));
        assert_eq!(
            result.status,
            SolveStatus::Unknown(StopReason::Callback),
            "the entry poll must observe an already-raised flag"
        );
        assert_eq!(result.stats.conflicts, 0);
    }

    #[test]
    fn raising_the_flag_mid_search_cancels_the_worker() {
        // hole(10) takes far longer than the flag-raising thread's delay;
        // the terminate poll fires at restart boundaries and every 1024
        // conflicts, so the worker stops soon after the flag rises.
        let cancel = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&cancel);
        let raiser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            flag.store(true, Ordering::SeqCst);
        });
        let result = run_alone(10, cancel);
        raiser.join().unwrap();
        assert_eq!(
            result.status,
            SolveStatus::Unknown(StopReason::Callback),
            "a loser must observe termination instead of searching on"
        );
    }
}
