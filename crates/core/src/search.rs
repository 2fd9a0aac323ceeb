//! The CDCL search loop and its solve-session machinery.
//!
//! This module owns everything that happens *during* a solve call: the
//! propagate/analyze/decide loop, BCP over the watch structure, restart
//! and garbage-collection plumbing, learnt-clause recording, the
//! solve-event hooks ([`SolveEvents`]) and the session bracket that emits
//! [`SolveEvent::SolveStart`]/[`SolveEvent::SolveDone`]. The thin
//! [`Solver`] facade (`solver.rs`) composes the state subsystems — the
//! [`Trail`](crate::Trail), the [`Watches`](crate::watch::Watches) and the
//! [`SearchLimits`](crate::limits::SearchLimits) scheduler — and the
//! public result types live here beside the loop that produces them.

use berkmin_cnf::{Assignment, LBool, Lit, Var};

use crate::clause_db::ClauseRef;
use crate::config::ActivityIndex;
use crate::proof::ProofSink;
use crate::solver::Solver;
use crate::telemetry::{SolveEvent, SolveObserver, SolveVerdict};
use crate::watch::Watcher;

/// Why a run stopped without an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The conflict budget was exhausted — the deterministic analog of the
    /// paper's wall-clock timeouts ("aborted" rows in Tables 2, 4, 7).
    ConflictBudget,
    /// The decision budget was exhausted.
    DecisionBudget,
    /// The propagation budget was exhausted.
    PropagationBudget,
    /// The terminate callback (see
    /// [`SolverBuilder::on_terminate`](crate::SolverBuilder::on_terminate))
    /// asked the solver to stop. Budgets are unaffected: a later
    /// [`Solver::solve`] call gets its usual per-call allowance.
    Callback,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::ConflictBudget => write!(f, "conflict budget exhausted"),
            StopReason::DecisionBudget => write!(f, "decision budget exhausted"),
            StopReason::PropagationBudget => write!(f, "propagation budget exhausted"),
            StopReason::Callback => write!(f, "terminate callback requested stop"),
        }
    }
}

/// A boxed terminate callback: polled at solve entry, at restart
/// boundaries, and every 1024 conflicts; returning `true` aborts with
/// [`StopReason::Callback`].
pub type TerminateCallback = Box<dyn FnMut() -> bool>;

/// A boxed learnt-clause callback: receives each conflict-derived learnt
/// clause (asserting literal first) whose length is within the cap it was
/// registered with.
pub type LearntCallback = Box<dyn FnMut(&[Lit])>;

/// A boxed share-export callback: receives each conflict-derived learnt
/// clause that passes the export filter (length ≤ 2, or LBD within the
/// registered cap), together with its LBD — the portfolio's outbound half
/// of learnt-clause sharing.
pub type ExportCallback = Box<dyn FnMut(&[Lit], u32)>;

/// A boxed share-import source: polled at solve entry and at every restart
/// boundary, it pushes candidate clauses into the supplied buffer; the solver integrates them
/// at decision level 0 (level-0-simplified, attached as learnt clauses).
/// Every pushed clause **must** be implied by the original formula — the
/// portfolio's inbound half of learnt-clause sharing.
pub type ImportCallback = Box<dyn FnMut(&mut Vec<Vec<Lit>>)>;

/// The solve-event hooks a solver carries (installed at construction time
/// through [`SolverBuilder`](crate::SolverBuilder), replaceable later via
/// [`Solver::set_terminate`] / [`Solver::set_learnt_callback`]). Callbacks
/// receive no solver reference — they observe only what they captured plus
/// the arguments passed, so they cannot perturb the search.
#[derive(Default)]
pub(crate) struct SolveEvents {
    /// Polled at solve entry, at every restart boundary, and every 1024
    /// conflicts (so a restart-free search cannot starve it); returning
    /// `true` aborts the call with [`StopReason::Callback`].
    pub(crate) terminate: Option<TerminateCallback>,
    /// Fired once per conflict-derived learnt clause of length ≤ the cap
    /// (asserting literal first), right after the clause is reported to the
    /// proof sink and before search resumes.
    pub(crate) on_learnt: Option<(usize, LearntCallback)>,
    /// Share-export hook: fired (after `on_learnt`) for every learnt clause
    /// with `len ≤ 2 || lbd ≤ cap`, carrying the clause and its LBD.
    pub(crate) export: Option<(u32, ExportCallback)>,
    /// Share-import source: polled at solve entry and at every restart
    /// boundary (after §8 database reduction); fetched clauses are
    /// integrated at level 0.
    pub(crate) import: Option<ImportCallback>,
    /// Structured telemetry observer (see [`crate::telemetry`]): receives
    /// typed [`SolveEvent`]s. Every emission site checks this `Option`
    /// once, so an observer-less solver pays nothing.
    pub(crate) observer: Option<Box<dyn SolveObserver>>,
}

impl std::fmt::Debug for SolveEvents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveEvents")
            .field("terminate", &self.terminate.is_some())
            .field("on_learnt", &self.on_learnt.as_ref().map(|(cap, _)| *cap))
            .field("export", &self.export.as_ref().map(|(cap, _)| *cap))
            .field("import", &self.import.is_some())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

/// Result of [`Solver::solve`].
///
/// For runs under assumptions (staged with [`Solver::assume`]),
/// [`SolveStatus::Unsat`] means *unsatisfiable under those assumptions*;
/// consult [`Solver::failed_assumptions`] to distinguish an absolute
/// refutation (empty core) from an assumption conflict (non-empty core).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveStatus {
    /// Satisfiable; carries a model that satisfies every original clause.
    Sat(Assignment),
    /// Proven unsatisfiable.
    Unsat,
    /// Gave up because a [`Budget`](crate::Budget) limit was hit.
    Unknown(StopReason),
}

impl SolveStatus {
    /// `true` iff the status is [`SolveStatus::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveStatus::Sat(_))
    }

    /// `true` iff the status is [`SolveStatus::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveStatus::Unsat)
    }

    /// `true` iff the run was aborted on a budget.
    pub fn is_unknown(&self) -> bool {
        matches!(self, SolveStatus::Unknown(_))
    }

    /// Returns the model if satisfiable.
    pub fn model(&self) -> Option<&Assignment> {
        match self {
            SolveStatus::Sat(m) => Some(m),
            _ => None,
        }
    }
}

impl Solver {
    /// One solve session: consumes the pending assumptions, emits the
    /// [`SolveEvent::SolveStart`]/[`SolveEvent::SolveDone`] bracket, and
    /// runs the CDCL loop ([`Solver::search`]), reporting to `proof`. The
    /// single implementation behind [`Solver::solve`].
    pub(crate) fn solve_session(&mut self, proof: &mut dyn ProofSink) -> SolveStatus {
        self.begin_solve();
        if self.events.observer.is_some() {
            let event = SolveEvent::SolveStart {
                call: self.stats.solve_calls,
                num_vars: self.num_vars,
                num_clauses: self.db.num_live(),
                assumptions: self.assumptions.len(),
            };
            self.emit(event);
        }
        let status = self.search(proof);
        if self.events.observer.is_some() {
            let event = SolveEvent::SolveDone {
                verdict: SolveVerdict::from(&status),
                conflicts: self.limits.conflicts_spent(&self.stats),
                decisions: self.limits.decisions_spent(&self.stats),
                propagations: self.limits.propagations_spent(&self.stats),
                restarts: self.limits.restarts_spent(&self.stats),
            };
            self.emit(event);
        }
        status
    }

    /// Solve entry without the search, for the portfolio's formula store:
    /// stages the pending assumptions (so the simplifier freezes their
    /// variables), propagates level 0 and runs the simplifier if it is due.
    /// Returns the resulting formula for the workers to load: the level-0
    /// units, the live original clauses, and the empty clause once refuted.
    pub(crate) fn simplified_clauses(&mut self, proof: &mut dyn ProofSink) -> Vec<Vec<Lit>> {
        self.begin_solve();
        if self.ok && self.propagate().is_some() {
            self.ok = false;
        }
        self.simplify_formula(proof);
        let mut clauses: Vec<Vec<Lit>> = self.trail.iter().map(|&l| vec![l]).collect();
        for cref in self.db.iter_live() {
            if !self.db.is_learnt(cref) {
                clauses.push(self.db.lits(cref).to_vec());
            }
        }
        if !self.ok {
            clauses.push(Vec::new());
        }
        clauses
    }

    /// The CDCL search proper: entry checks, import poll, then the
    /// propagate/analyze/decide loop until an answer or a stop.
    fn search(&mut self, proof: &mut dyn ProofSink) -> SolveStatus {
        if self.should_terminate() {
            return SolveStatus::Unknown(StopReason::Callback);
        }
        if !self.ok {
            return self.conclude_unsat(proof);
        }
        if self.decision_level() == 0 && self.propagate().is_some() {
            self.ok = false;
            return self.conclude_unsat(proof);
        }
        // Preprocess at solve entry, over the propagated level-0 trail:
        // subsumption, strengthening and bounded variable elimination (see
        // `crate::preprocess`), with every change reported to the proof
        // sink and eliminated variables pushed onto the reconstruction
        // stack.
        self.simplify_formula(proof);
        if !self.ok {
            return self.conclude_unsat(proof);
        }
        // Import shared clauses at solve entry as well as at restart
        // boundaries: a budget-sliced driver (the deterministic portfolio
        // schedule) may never search long enough to restart, and entry is
        // an equally valid level-0 "between search trees" point.
        self.import_shared_clauses();
        if !self.ok {
            return self.conclude_unsat(proof);
        }
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                // All conflict-cadence questions are answered in one batch
                // here, while the counters hold the values this conflict
                // ticked them to.
                let due = self.limits.on_conflict(&self.stats, &self.config);
                if self.decision_level() == 0 {
                    self.ok = false;
                    return self.conclude_unsat(proof);
                }
                let (learnt, bt_level, lbd) = self.analyze(confl);
                proof.add_clause(&learnt);
                if let Some((cap, callback)) = &mut self.events.on_learnt {
                    if learnt.len() <= *cap {
                        callback(&learnt);
                    }
                }
                // Share export: short clauses are always worth the wire,
                // longer ones only when their glue is low (paper-era
                // portfolio practice; the LBD cap is the one knob).
                let mut exported = false;
                if let Some((max_lbd, callback)) = &mut self.events.export {
                    if learnt.len() <= 2 || lbd <= *max_lbd {
                        self.stats.clauses_exported += 1;
                        callback(&learnt, lbd);
                        exported = true;
                    }
                }
                if exported && self.events.observer.is_some() {
                    let event = SolveEvent::ShareExport {
                        len: learnt.len(),
                        lbd,
                    };
                    self.emit(event);
                }
                self.cancel_until(bt_level);
                self.record_learnt(learnt);
                self.apply_maintenance(due);
                self.paranoid_audit("after conflict handling");
                if due.progress_tick && self.events.observer.is_some() {
                    let event = SolveEvent::Progress {
                        conflicts: self.stats.conflicts,
                        trail: self.trail.len(),
                        heap: self.heap.len(),
                        learnt: self.db.num_learnt(),
                        avg_lbd: self.stats.avg_lbd(),
                    };
                    self.emit(event);
                }
                // Restart boundaries alone can starve the terminate
                // callback (RestartPolicy::Never, FixedInterval(u64::MAX),
                // or a huge Luby leg), so it is also polled on a fixed
                // conflict cadence. Budgets stay untouched.
                if due.poll_terminate && self.should_terminate() {
                    return SolveStatus::Unknown(StopReason::Callback);
                }
                if due.conflict_budget_exhausted {
                    return SolveStatus::Unknown(StopReason::ConflictBudget);
                }
            } else {
                self.paranoid_audit("after propagation");
                if self
                    .limits
                    .propagation_budget_exhausted(&self.stats, &self.config.budget)
                {
                    return SolveStatus::Unknown(StopReason::PropagationBudget);
                }
                if self
                    .limits
                    .restart_due(self.decision_level(), &self.stats, self.config.restart)
                {
                    // The terminate callback is polled at every restart
                    // boundary — the natural "between search trees" point
                    // the IC3/BMC drivers expect. Budgets are untouched.
                    if self.should_terminate() {
                        return SolveStatus::Unknown(StopReason::Callback);
                    }
                    self.restart(proof);
                    if !self.ok {
                        // An imported clause collapsed to the empty clause
                        // under the level-0 assignment: absolute refutation.
                        return self.conclude_unsat(proof);
                    }
                    self.paranoid_audit("after restart");
                    continue;
                }
                // Enqueue pending assumptions as pseudo-decisions: the
                // assumption at index `i` owns decision level `i + 1`. An
                // already-implied assumption opens a *dummy* level (keeping
                // index and level in lockstep); a falsified one means the
                // formula conflicts with the assumption set — extract the
                // core and answer UNSAT without touching `ok`.
                let mut asserted_assumption = false;
                while self.decision_level() < self.assumptions.len() {
                    let a = self.assumptions[self.decision_level()];
                    match self.lit_value(a) {
                        LBool::True => self.trail.open_dummy_level(),
                        LBool::Undef => {
                            self.push_decision(a);
                            asserted_assumption = true;
                            break;
                        }
                        LBool::False => {
                            self.failed = self.analyze_final(a);
                            self.stats.assumption_conflicts += 1;
                            self.cancel_until(0);
                            self.paranoid_audit("after failed-assumption backtrack");
                            return SolveStatus::Unsat;
                        }
                    }
                }
                if asserted_assumption {
                    continue; // propagate the assumption before deciding
                }
                if self
                    .limits
                    .decision_budget_exhausted(&self.stats, &self.config.budget)
                {
                    return SolveStatus::Unknown(StopReason::DecisionBudget);
                }
                match self.decide() {
                    None => {
                        self.paranoid_audit("at SAT");
                        return SolveStatus::Sat(self.extract_model());
                    }
                    Some(l) => {
                        self.stats.decisions += 1;
                        if self.config.record_decisions {
                            self.stats.decision_log.push(l.var());
                        }
                        self.push_decision(l);
                    }
                }
            }
        }
    }

    /// Boolean constraint propagation with two watched literals, structured
    /// as blocker-check → binary-pass → long-clause-pass: for each newly
    /// true literal the inline binary watchers are drained first (no arena
    /// access at all), then the long-clause watchers with the Chaff blocker
    /// fast path in front of any arena read.
    ///
    /// Returns the conflicting clause, if any. On conflict the propagation
    /// queue is drained so the caller sees a consistent trail.
    pub(crate) fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        'queue: while let Some(p) = self.trail.next_queued() {
            let false_lit = !p;

            // --- binary pass: the watcher *is* the other literal. ---
            let bins = self.watches.take_binary(p.code());
            for w in &bins {
                match self.trail.lit_value(w.other) {
                    LBool::True => {}
                    LBool::Undef => {
                        self.stats.propagations += 1;
                        self.trail.assign(w.other, Some(w.cref));
                    }
                    LBool::False => {
                        conflict = Some(w.cref);
                        break;
                    }
                }
            }
            self.watches.put_binary(p.code(), bins);
            if conflict.is_some() {
                self.trail.drain_queue();
                break 'queue;
            }

            // --- long-clause pass. ---
            let mut ws = self.watches.take_long(p.code());
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                // Fast path: the blocker literal already satisfies the clause.
                if self.trail.lit_value(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                {
                    let c = self.db.lits_mut(cref);
                    if c[0] == false_lit {
                        c.swap(0, 1);
                    }
                    debug_assert_eq!(c[1], false_lit, "watch invariant violated");
                }
                let first = self.db.lits(cref)[0];
                if first != w.blocker && self.trail.lit_value(first) == LBool::True {
                    ws[i] = Watcher {
                        cref,
                        blocker: first,
                    };
                    i += 1;
                    continue;
                }
                // Look for a non-false literal to move the watch to.
                let mut relocated = None;
                for (k, &lk) in self.db.lits(cref).iter().enumerate().skip(2) {
                    if self.trail.lit_value(lk) != LBool::False {
                        relocated = Some((k, lk));
                        break;
                    }
                }
                if let Some((k, lk)) = relocated {
                    self.db.lits_mut(cref).swap(1, k);
                    self.watches.push_long(
                        (!lk).code(),
                        Watcher {
                            cref,
                            blocker: first,
                        },
                    );
                    ws.swap_remove(i);
                    continue;
                }
                // Clause is unit (or conflicting) under the current trail.
                ws[i] = Watcher {
                    cref,
                    blocker: first,
                };
                i += 1;
                if self.trail.lit_value(first) == LBool::False {
                    conflict = Some(cref);
                    self.trail.drain_queue();
                    self.watches.put_long(p.code(), ws);
                    break 'queue;
                }
                self.stats.propagations += 1;
                self.trail.assign(first, Some(cref));
            }
            self.watches.put_long(p.code(), ws);
        }
        conflict
    }

    /// Registers the two watched literals of `cref` (positions 0 and 1)
    /// with the watch structure.
    pub(crate) fn attach(&mut self, cref: ClauseRef) {
        debug_assert!(!self.db.is_garbage(cref), "attach of deleted {cref:?}");
        self.watches.attach(cref, self.db.lits(cref));
    }

    /// Rebuilds every watch list (long and binary) from the live clause
    /// set. Only valid at decision level 0 with an empty propagation queue
    /// (i.e. during database reduction).
    pub(crate) fn rebuild_watches(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        self.watches.rebuild(&self.db);
    }

    /// Runs the compacting clause-arena garbage collector: reclaims every
    /// record marked deleted (emitting its DRAT `d` line), slides the
    /// survivors to the front of the arena, and rewrites every outstanding
    /// [`ClauseRef`] — the conflict-clause stack, the trail's reason
    /// pointers, and (by rebuilding) the watch lists. A reason whose clause
    /// was deleted belongs to a level-0 fact, whose reason is never
    /// consulted again, so it is dropped.
    ///
    /// Only valid at decision level 0 with a fully propagated trail; run at
    /// every §8 database reduction.
    pub(crate) fn collect_garbage<S: ProofSink + ?Sized>(&mut self, proof: &mut S) {
        debug_assert_eq!(self.decision_level(), 0);
        self.db.compact_stack();
        if self.db.garbage_words() == 0 {
            // Nothing was deleted or shrunk: every outstanding reference
            // (watches included) is still valid — skip the whole collection.
            return;
        }
        let (map, reclaimed) = self.db.collect(proof);
        self.stats.gc_runs += 1;
        self.stats.gc_words_reclaimed += reclaimed as u64;
        self.trail.remap_reasons(|cref| map.remap_live(cref));
        self.rebuild_watches();
    }

    /// Resets the per-call state at the top of every solve session: the
    /// previous search tree is undone, the pending assumptions are consumed
    /// and installed (their variables materialized), the stale failed core
    /// is dropped, and the scheduler is re-armed (budget baseline and
    /// restart scratch) so no limit or conflict-count leaks in from an
    /// earlier call.
    fn begin_solve(&mut self) {
        self.cancel_until(0);
        self.assumptions = std::mem::take(&mut self.pending_assumptions);
        let max_var = self
            .assumptions
            .iter()
            .map(|l| l.var().index() + 1)
            .max()
            .unwrap_or(0);
        self.ensure_vars(max_var);
        self.failed.clear();
        self.limits.begin_call(&self.stats);
        self.stats.solve_calls += 1;
        debug_assert!(
            self.seen.iter().all(|&s| !s),
            "conflict-analysis scratch leaked across solve calls"
        );
    }

    fn conclude_unsat(&mut self, proof: &mut dyn ProofSink) -> SolveStatus {
        if !self.emitted_empty {
            proof.add_clause(&[]);
            self.emitted_empty = true;
        }
        SolveStatus::Unsat
    }

    /// Delivers `event` to the observer, if one is attached. Emission
    /// sites that would *construct* a non-trivial event first check
    /// `self.events.observer.is_some()` so an observer-less solver pays
    /// only that one branch.
    #[inline]
    pub(crate) fn emit(&mut self, event: SolveEvent) {
        if let Some(observer) = &mut self.events.observer {
            observer.on_event(&event);
        }
    }

    /// Whether a telemetry observer is attached (the emission-site gate
    /// for code outside this module).
    #[inline]
    pub(crate) fn has_observer(&self) -> bool {
        self.events.observer.is_some()
    }

    /// Installs (or clears) the structured telemetry observer — the typed
    /// counterpart of the `c`-line progress output. See
    /// [`crate::telemetry`] for the event vocabulary and ordering
    /// guarantees. Usually installed at construction time via
    /// [`SolverBuilder::on_event`](crate::SolverBuilder::on_event).
    pub fn set_observer(&mut self, observer: Option<Box<dyn SolveObserver>>) {
        self.events.observer = observer;
    }

    /// Polls the terminate callback, if any.
    fn should_terminate(&mut self) -> bool {
        match &mut self.events.terminate {
            Some(callback) => callback(),
            None => false,
        }
    }

    /// Installs (or clears) the terminate callback — polled at solve entry,
    /// at every restart boundary, and every 1024 conflicts (so even a
    /// restart-free search honors it); returning `true` makes the current
    /// and any later [`Solver::solve`] call return
    /// [`SolveStatus::Unknown`]\([`StopReason::Callback`]\) until the
    /// callback is cleared or starts returning `false`. Budgets are never
    /// consumed by a callback stop. Usually installed at construction time
    /// via [`SolverBuilder::on_terminate`](crate::SolverBuilder::on_terminate).
    pub fn set_terminate(&mut self, callback: Option<TerminateCallback>) {
        self.events.terminate = callback;
    }

    /// Installs (or clears) the learnt-clause callback: fired once per
    /// conflict-derived learnt clause of length ≤ `max_len` (asserting
    /// literal first), after the clause is reported to the proof sink and
    /// before search resumes. Every delivered clause is a logical
    /// consequence of the original formula (never of the assumptions).
    /// Usually installed at construction time via
    /// [`SolverBuilder::on_learnt`](crate::SolverBuilder::on_learnt).
    pub fn set_learnt_callback(&mut self, callback: Option<(usize, LearntCallback)>) {
        self.events.on_learnt = callback;
    }

    /// Installs (or clears) the share-export callback: fired once per
    /// conflict-derived learnt clause that passes the sharing filter
    /// (length ≤ 2, or LBD ≤ `max_lbd`), with the clause's literals and its
    /// glue. Every exported clause is a logical consequence of the original
    /// formula, so it is sound for any solver working on the same formula
    /// to add it. Usually installed at construction time via
    /// [`SolverBuilder::share_export`](crate::SolverBuilder::share_export).
    pub fn set_export_callback(&mut self, callback: Option<(u32, ExportCallback)>) {
        self.events.export = callback;
    }

    /// Installs (or clears) the share-import source: polled at solve entry
    /// and at every restart boundary (trail at level 0) with a scratch
    /// buffer the source fills with foreign clauses. **Every supplied clause must be implied by the
    /// original formula** — the solver attaches them without re-deriving
    /// them, so an unsound import corrupts verdicts. For the same reason an
    /// import source cannot be combined with a proof sink (the imports are
    /// not RUP-derivable in this solver's proof);
    /// [`SolverBuilder::build`](crate::SolverBuilder::build) enforces this.
    /// Usually installed at construction time via
    /// [`SolverBuilder::share_import`](crate::SolverBuilder::share_import).
    pub fn set_import_source(&mut self, source: Option<ImportCallback>) {
        self.events.import = source;
    }

    /// Replaces the construction-time proof sink, returning the previous
    /// one — how a caller that attached a shared sink reclaims sole
    /// ownership (e.g. to `Rc::try_unwrap` it) without dropping the solver.
    pub fn replace_proof_sink(&mut self, sink: Box<dyn ProofSink>) -> Box<dyn ProofSink> {
        std::mem::replace(&mut self.proof, sink)
    }

    /// Installs a freshly learnt clause: records activities, attaches
    /// watches, pushes it on the conflict-clause stack and asserts its
    /// first literal. Assumes the trail has been backtracked to the
    /// asserting level already.
    pub(crate) fn record_learnt(&mut self, lits: Vec<Lit>) {
        self.stats.learnt_total += 1;
        self.stats.learnt_lits_total += lits.len() as u64;
        for &l in &lits {
            // lit_activity censuses every deduced conflict clause (§7).
            self.lit_activity[l.code()] += 1;
            self.vsids[l.code()] += 1;
        }
        if lits.len() == 1 {
            // Unit conflict clause: becomes a retained level-0 fact (§8).
            self.stats.learnt_units += 1;
            debug_assert_eq!(self.decision_level(), 0);
            self.unchecked_enqueue(lits[0], None);
        } else {
            let asserting = lits[0];
            let cref = self.db.add_learnt(&lits);
            self.attach(cref);
            self.unchecked_enqueue(asserting, Some(cref));
        }
        let live = self.db.num_live() as u64;
        self.stats.max_live_clauses = self.stats.max_live_clauses.max(live);
    }

    /// Applies the periodic maintenance the scheduler said falls due at
    /// this conflict: activity aging (§1/§5) and VSIDS halving for the
    /// Chaff baseline.
    fn apply_maintenance(&mut self, due: crate::limits::DueActions) {
        if due.decay_var_activity {
            let d = self.config.activity_decay_divisor;
            for a in &mut self.var_activity {
                *a /= d;
            }
            if self.config.activity_index == ActivityIndex::Heap {
                self.heap.rebuild(&self.var_activity);
            }
        }
        if due.decay_vsids {
            for a in &mut self.vsids {
                *a /= 2;
            }
        }
    }

    /// Abandons the current search tree and runs database management (§8),
    /// then integrates any clauses offered by the share-import source —
    /// the "between search trees" point where foreign clauses can be
    /// attached with the trail at level 0.
    fn restart(&mut self, mut proof: &mut dyn ProofSink) {
        self.stats.restarts += 1;
        self.limits.on_restart();
        self.cancel_until(0);
        if self.events.observer.is_some() {
            let event = SolveEvent::Restart {
                restarts: self.stats.restarts,
                conflicts: self.stats.conflicts,
            };
            self.emit(event);
        }
        self.reduce_db(&mut proof);
        self.import_shared_clauses();
    }

    /// Drains the share-import source and installs its clauses at decision
    /// level 0. Each clause is simplified against the level-0 assignment
    /// (satisfied ⇒ skipped, false literals stripped), then attached as a
    /// *learnt* clause — imports compete under the §8 retention policy like
    /// any other conflict clause instead of bloating the original formula.
    /// A clause degenerating to a unit becomes a level-0 fact (propagated
    /// by the main loop); degenerating to the empty clause refutes the
    /// formula (`ok = false` — legal because import sources only supply
    /// formula-implied clauses).
    ///
    /// Imported clauses are **not** reported to the proof sink: they are
    /// not RUP-derivable from this solver's own deductions, so a DRAT log
    /// would become unsound. [`SolverBuilder`](crate::SolverBuilder)
    /// therefore rejects attaching both a proof sink and an import source.
    fn import_shared_clauses(&mut self) {
        if self.events.import.is_none() {
            return;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let imported_before = self.stats.clauses_imported;
        let mut buf = std::mem::take(&mut self.import_buf);
        buf.clear();
        if let Some(source) = &mut self.events.import {
            source(&mut buf);
        }
        'clauses: for lits in &mut buf {
            lits.sort_unstable();
            lits.dedup();
            if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
                continue; // tautology (defensive; learnt clauses never are)
            }
            if lits.iter().any(|&l| self.lit_value(l) == LBool::True) {
                continue 'clauses; // already satisfied at level 0
            }
            lits.retain(|&l| self.lit_value(l) != LBool::False);
            match lits.len() {
                0 => {
                    self.ok = false;
                    self.stats.clauses_imported += 1;
                    break;
                }
                1 => {
                    self.stats.clauses_imported += 1;
                    self.unchecked_enqueue(lits[0], None);
                }
                _ => {
                    self.stats.clauses_imported += 1;
                    let cref = self.db.add_learnt(lits);
                    self.attach(cref);
                    let live = self.db.num_live() as u64;
                    self.stats.max_live_clauses = self.stats.max_live_clauses.max(live);
                }
            }
        }
        buf.clear();
        self.import_buf = buf;
        let imported = self.stats.clauses_imported - imported_before;
        if imported > 0 && self.events.observer.is_some() {
            self.emit(SolveEvent::ShareImport { count: imported });
        }
    }

    /// Extracts the satisfying assignment from a fully assigned trail,
    /// extending it back over preprocessor-eliminated variables.
    pub(crate) fn extract_model(&self) -> Assignment {
        let mut model = Assignment::new(self.num_vars);
        for i in 0..self.num_vars {
            let v = Var::new(i as u32);
            // Unconstrained variables default to false.
            model.assign(v, self.trail.value(v) == LBool::True);
        }
        // Extend the model back over the variables the preprocessor
        // eliminated, in reverse elimination order, so it satisfies the
        // *original* formula rather than just the simplified one.
        self.reconstructor.extend_model(&mut model);
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Budget, SolverConfig};

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::with_config(SolverConfig::berkmin());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn single_unit_clause() {
        let mut s = Solver::with_config(SolverConfig::berkmin());
        let x = Lit::from_dimacs(1);
        s.add_clause([x]);
        match s.solve() {
            SolveStatus::Sat(m) => assert!(m.satisfies(x)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Solver::with_config(SolverConfig::berkmin());
        s.add_clause([Lit::from_dimacs(1)]);
        s.add_clause([Lit::from_dimacs(-1)]);
        assert!(s.solve().is_unsat());
        assert!(!s.is_ok());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::with_config(SolverConfig::berkmin());
        assert!(!s.add_clause([]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = Solver::with_config(SolverConfig::berkmin());
        s.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(-1)]);
        assert_eq!(s.db.num_live(), 0);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut s = Solver::with_config(SolverConfig::berkmin());
        s.add_clause([Lit::from_dimacs(1), Lit::from_dimacs(1)]);
        // Collapses to a unit clause, asserted immediately.
        assert_eq!(s.db.num_live(), 0);
        assert_eq!(s.value(Var::new(0)), LBool::True);
    }

    #[test]
    fn propagation_chain_resolves_without_decisions() {
        // x1 ∧ (¬x1∨x2) ∧ (¬x2∨x3): all forced.
        let mut s = Solver::with_config(SolverConfig::berkmin());
        s.add_clause([Lit::from_dimacs(1)]);
        s.add_clause([Lit::from_dimacs(-1), Lit::from_dimacs(2)]);
        s.add_clause([Lit::from_dimacs(-2), Lit::from_dimacs(3)]);
        let status = s.solve();
        let m = status.model().unwrap();
        assert!(m.satisfies(Lit::from_dimacs(3)));
        assert_eq!(s.stats().decisions, 0);
    }

    #[test]
    fn budget_abort_reports_unknown() {
        // A formula needing work: small pigeonhole, 1-conflict budget.
        let mut s = Solver::with_config(SolverConfig::berkmin().with_budget(Budget::conflicts(1)));
        // PHP(2): 3 pigeons, 2 holes.
        let lit = |p: usize, h: usize| Lit::from_dimacs((p * 2 + h + 1) as i32);
        for p in 0..3 {
            s.add_clause([lit(p, 0), lit(p, 1)]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    s.add_clause([!lit(p1, h), !lit(p2, h)]);
                }
            }
        }
        match s.solve() {
            SolveStatus::Unknown(StopReason::ConflictBudget) => {}
            other => panic!("expected budget abort, got {other:?}"),
        }
    }
}
