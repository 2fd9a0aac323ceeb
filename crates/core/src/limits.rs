//! The search scheduler: every "is it time yet?" decision in one place.
//!
//! [`SearchLimits`] owns the per-call budget baseline, the
//! conflicts-since-restart counter and the run-once preprocessing latch,
//! and answers every cadence question the CDCL loop asks: restart due?
//! activity decay due? terminate-callback poll due? progress tick due?
//! budget exhausted? Before this module those checks were scattered
//! across `begin_solve`, `on_conflict_maintenance`, `restart_due` and
//! inline modulo arithmetic in the search loop — each with its own copy
//! of the baseline bookkeeping.
//!
//! The conflict-cadence answers come back batched in a [`DueActions`]
//! value from [`SearchLimits::on_conflict`], computed once per conflict at
//! the moment the conflict counter ticks (the counters do not move again
//! until the conflict is fully handled, so the batch stays coherent while
//! the loop works through it).

use crate::config::{Budget, DecisionStrategy, RestartPolicy, SolverConfig};
use crate::stats::Stats;

/// Conflicts between terminate-callback polls inside a search tree. Restart
/// boundaries also poll, but a policy like [`RestartPolicy::Never`] (or a
/// huge fixed interval) would otherwise never hand control back.
pub(crate) const TERMINATE_POLL_CONFLICTS: u64 = 1024;

/// The batch of maintenance actions that fall due at one conflict —
/// [`SearchLimits::on_conflict`]'s answer, consumed by the search loop in
/// its fixed order (decays with the conflict handling, then the progress
/// tick, then the terminate poll, then the budget check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DueActions {
    /// Age every `var_activity` counter (paper §1/§5) and rebuild the heap.
    pub(crate) decay_var_activity: bool,
    /// Halve the VSIDS counters (Chaff baseline cadence).
    pub(crate) decay_vsids: bool,
    /// Emit a [`SolveEvent::Progress`](crate::telemetry::SolveEvent) tick
    /// (if an observer is attached).
    pub(crate) progress_tick: bool,
    /// Poll the terminate callback (the every-1024-conflicts cadence).
    pub(crate) poll_terminate: bool,
    /// The per-call conflict budget is exhausted — stop after this
    /// conflict is handled.
    pub(crate) conflict_budget_exhausted: bool,
}

/// The search scheduler: per-call budget accounting, restart pacing and
/// periodic-maintenance cadence for one solver.
#[derive(Debug, Default)]
pub(crate) struct SearchLimits {
    /// Counters at solve entry (no histogram or decision log): budgets are
    /// per-call, so each check compares against the growth since this
    /// baseline rather than the lifetime totals (which would make a second
    /// call inherit the previous call's spend).
    base: Stats,
    /// Conflicts since the last restart (or solve entry) — the restart
    /// policies' clock.
    conflicts_since_restart: u64,
    /// Whether the preprocessor has run at least once (the default
    /// configuration simplifies only the first solve call).
    simplified_once: bool,
}

impl SearchLimits {
    /// Creates a scheduler with no spend recorded.
    pub(crate) fn new() -> Self {
        SearchLimits::default()
    }

    /// Re-arms the scheduler at solve entry: snapshots the budget baseline
    /// and resets the restart clock, so no limit or conflict count leaks
    /// in from an earlier call.
    pub(crate) fn begin_call(&mut self, stats: &Stats) {
        self.conflicts_since_restart = 0;
        self.base = stats.since(&Stats::default());
    }

    /// Registers one conflict and returns the batch of maintenance actions
    /// that fall due at it. Call right after `stats.conflicts` ticks.
    pub(crate) fn on_conflict(&mut self, stats: &Stats, config: &SolverConfig) -> DueActions {
        self.conflicts_since_restart += 1;
        let c = stats.conflicts;
        let per_call = c - self.base.conflicts;
        DueActions {
            decay_var_activity: config.activity_decay_interval > 0
                && c % config.activity_decay_interval == 0
                && config.activity_decay_divisor > 1,
            decay_vsids: config.decision == DecisionStrategy::Vsids
                && config.vsids_decay_interval > 0
                && c % config.vsids_decay_interval == 0,
            progress_tick: config.progress_every > 0 && per_call % config.progress_every == 0,
            poll_terminate: per_call % TERMINATE_POLL_CONFLICTS == 0,
            conflict_budget_exhausted: per_call >= config.budget.max_conflicts,
        }
    }

    /// Whether the restart policy calls for abandoning the current tree.
    pub(crate) fn restart_due(
        &self,
        decision_level: usize,
        stats: &Stats,
        policy: RestartPolicy,
    ) -> bool {
        if decision_level == 0 && self.conflicts_since_restart == 0 {
            return false;
        }
        match policy {
            RestartPolicy::FixedInterval(n) => self.conflicts_since_restart >= n,
            RestartPolicy::Luby(base) => {
                self.conflicts_since_restart >= base * luby(stats.restarts + 1)
            }
            RestartPolicy::Never => false,
        }
    }

    /// Resets the restart clock — call when a restart is performed.
    pub(crate) fn on_restart(&mut self) {
        self.conflicts_since_restart = 0;
    }

    /// The counters spent by the current solve call.
    pub(crate) fn spent(&self, stats: &Stats) -> Stats {
        stats.since(&self.base)
    }

    /// Whether the per-call decision budget is exhausted.
    #[inline]
    pub(crate) fn decision_budget_exhausted(&self, stats: &Stats, budget: &Budget) -> bool {
        stats.decisions - self.base.decisions >= budget.max_decisions
    }

    /// Whether the per-call propagation budget is exhausted.
    #[inline]
    pub(crate) fn propagation_budget_exhausted(&self, stats: &Stats, budget: &Budget) -> bool {
        stats.propagations - self.base.propagations >= budget.max_propagations
    }

    /// Whether preprocessing should run at this solve entry: always under
    /// `inprocess`, otherwise only once per solver lifetime. Marks the
    /// latch, so ask exactly once per call.
    pub(crate) fn simplify_due(&mut self, inprocess: bool) -> bool {
        if self.simplified_once && !inprocess {
            return false;
        }
        self.simplified_once = true;
        true
    }

    /// Human-readable "what falls due next" summary for `Debug` output:
    /// conflicts until the next restart, activity decay and terminate
    /// poll, given the current counters.
    pub(crate) fn next_due(&self, stats: &Stats, config: &SolverConfig) -> String {
        let restart = match config.restart {
            RestartPolicy::FixedInterval(n) => Some(n.saturating_sub(self.conflicts_since_restart)),
            RestartPolicy::Luby(base) => {
                Some((base * luby(stats.restarts + 1)).saturating_sub(self.conflicts_since_restart))
            }
            RestartPolicy::Never => None,
        };
        let decay = if config.activity_decay_interval > 0 && config.activity_decay_divisor > 1 {
            Some(config.activity_decay_interval - stats.conflicts % config.activity_decay_interval)
        } else {
            None
        };
        let spent = stats.conflicts - self.base.conflicts;
        let poll = TERMINATE_POLL_CONFLICTS - spent % TERMINATE_POLL_CONFLICTS;
        match (restart, decay) {
            (Some(r), Some(d)) => {
                format!("restart in {r} conflicts, decay in {d}, terminate poll in {poll}")
            }
            (Some(r), None) => format!("restart in {r} conflicts, terminate poll in {poll}"),
            (None, Some(d)) => format!("no restarts, decay in {d}, terminate poll in {poll}"),
            (None, None) => format!("no restarts, terminate poll in {poll}"),
        }
    }
}

/// The Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
pub(crate) fn luby(i: u64) -> u64 {
    // Find the subsequence containing index i.
    let mut k = 1u32;
    while (1u64 << k) - 1 < i {
        k += 1;
    }
    let mut i = i;
    let mut kk = k;
    while (1u64 << kk) - 1 != i {
        i -= (1u64 << (kk - 1)) - 1;
        kk = 1;
        while (1u64 << kk) - 1 < i {
            kk += 1;
        }
    }
    1u64 << (kk - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_prefix_matches_reference() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn budget_baseline_is_per_call() {
        let mut stats = Stats::new();
        stats.conflicts = 100;
        stats.decisions = 40;
        let mut limits = SearchLimits::new();
        limits.begin_call(&stats);
        assert_eq!(limits.spent(&stats).conflicts, 0);
        stats.conflicts = 103;
        assert_eq!(limits.spent(&stats).conflicts, 3);
        let budget = Budget {
            max_decisions: 5,
            ..Budget::unlimited()
        };
        stats.decisions = 44;
        assert!(!limits.decision_budget_exhausted(&stats, &budget));
        stats.decisions = 45;
        assert!(limits.decision_budget_exhausted(&stats, &budget));
    }

    #[test]
    fn simplify_latch_fires_once_unless_inprocessing() {
        let mut limits = SearchLimits::new();
        assert!(limits.simplify_due(false));
        assert!(!limits.simplify_due(false));
        assert!(limits.simplify_due(true), "inprocessing re-arms every call");
        let mut inproc = SearchLimits::new();
        assert!(inproc.simplify_due(true));
        assert!(inproc.simplify_due(true));
    }

    #[test]
    fn restart_clock_ticks_on_conflicts_and_resets() {
        let mut stats = Stats::new();
        let config = SolverConfig::berkmin();
        let mut limits = SearchLimits::new();
        limits.begin_call(&stats);
        // A quiescent solver at level 0 never restarts.
        assert!(!limits.restart_due(0, &stats, RestartPolicy::FixedInterval(1)));
        stats.conflicts += 1;
        limits.on_conflict(&stats, &config);
        assert!(limits.restart_due(3, &stats, RestartPolicy::FixedInterval(1)));
        assert!(!limits.restart_due(3, &stats, RestartPolicy::FixedInterval(2)));
        assert!(!limits.restart_due(3, &stats, RestartPolicy::Never));
        limits.on_restart();
        assert!(!limits.restart_due(0, &stats, RestartPolicy::FixedInterval(1)));
    }
}
