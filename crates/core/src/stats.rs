//! Search statistics, including the skin-effect histogram of paper §6.
//!
//! Every scalar counter is one row of the `counters!` table below: its
//! doc string, name, type and merge kind. The table generates the
//! [`Stats`] fields, [`Stats::merge`] and the counter list the JSON
//! snapshot ([`crate::telemetry::stats_to_json`]) is written from, so a new
//! counter is one new row.

use berkmin_cnf::Var;

/// How [`Stats::merge`] folds a counter of another block into this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Merge {
    /// Work: the two values are added.
    Sum,
    /// A peak: the larger value wins.
    Max,
    /// A fact about the formula or the calls, which every portfolio worker
    /// sees a copy of. Summing would count it once per worker, so the merge
    /// leaves it alone and the aggregator sets it.
    Formula,
}

impl Merge {
    /// Folds `b` into `a` by this kind.
    fn apply<T: Ord + std::ops::Add<Output = T>>(self, a: T, b: T) -> T {
        match self {
            Merge::Sum => a + b,
            Merge::Max => a.max(b),
            Merge::Formula => a,
        }
    }
}

/// The counter table: `doc, name: type = merge kind;` per row.
macro_rules! counters {
    ($($(#[$doc:meta])+ $name:ident: $ty:ty = $kind:ident;)+) => {
        /// Counters collected during a solve run.
        ///
        /// Everything the paper's tables report is derivable from this
        /// structure: decisions and runtimes (Table 8), database-size ratios
        /// (Table 9), and the skin-effect distribution `f(r)` (Table 3).
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct Stats {
            $($(#[$doc])+ pub $name: $ty,)+
            /// Skin-effect histogram: `top_distance_hist[r]` is `f(r)`, the
            /// number of times the branching variable was chosen from the
            /// conflict clause at distance `r` from the top of the stack
            /// (paper §6, Table 3).
            pub top_distance_hist: Vec<u64>,
            /// Optional per-decision log of the chosen variable, recorded
            /// when [`crate::SolverConfig::record_decisions`] is set (used by
            /// the Fig. 1 cone-switching experiment).
            pub decision_log: Vec<Var>,
        }

        impl Stats {
            /// Every scalar counter's name and merge kind, in table order.
            pub(crate) const COUNTERS: &'static [(&'static str, Merge)] =
                &[$((stringify!($name), Merge::$kind)),+];

            /// Every scalar counter's name and value, in table order.
            pub(crate) fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), u64::from(self.$name))),+]
            }

            /// Sets the scalar counter called `name`; `None` when there is
            /// no such counter or `value` does not fit its type.
            pub(crate) fn set_counter(&mut self, name: &str, value: u64) -> Option<()> {
                match name {
                    $(stringify!($name) => self.$name = value.try_into().ok()?,)+
                    _ => return None,
                }
                Some(())
            }

            fn merge_counters(&mut self, other: &Stats) {
                $(self.$name = Merge::$kind.apply(self.$name, other.$name);)+
            }
        }
    };
}

counters! {
    /// Number of branching decisions made.
    decisions: u64 = Sum;
    /// Number of conflicts encountered.
    conflicts: u64 = Sum;
    /// Number of literals propagated by BCP.
    propagations: u64 = Sum;
    /// Number of restarts performed (paper §1: search-tree abandonments).
    restarts: u64 = Sum;
    /// Number of clause-database reductions performed (paper §8).
    reductions: u64 = Sum;
    /// Total conflict clauses ever deduced (including later-deleted ones).
    learnt_total: u64 = Sum;
    /// Conflict clauses deduced as unit clauses (asserted at level 0).
    learnt_units: u64 = Sum;
    /// Total literals across all deduced conflict clauses.
    learnt_lits_total: u64 = Sum;
    /// Conflict clauses deleted by database management.
    deleted_clauses: u64 = Sum;
    /// Compacting clause-arena garbage collections performed (one per §8
    /// reduction).
    gc_runs: u64 = Sum;
    /// Total arena words reclaimed by the compacting collector.
    gc_words_reclaimed: u64 = Sum;
    /// Maximum number of live clauses (original + learnt) ever in memory —
    /// the "Largest CNF size" column of Table 9.
    max_live_clauses: u64 = Max;
    /// Number of clauses in the initial formula (Table 9 denominator).
    initial_clauses: u64 = Formula;
    /// Decisions taken from the current top conflict clause (paper §5).
    decisions_from_top_clause: u64 = Sum;
    /// Decisions taken on the globally most active free variable, i.e. when
    /// every conflict clause was satisfied (paper §5).
    decisions_from_free_var: u64 = Sum;
    /// Number of clauses inspected as "responsible for a conflict" during
    /// conflict analysis (paper §4's sensitivity set).
    responsible_clauses: u64 = Sum;
    /// Number of solve calls made on this solver (incremental use: the
    /// counters above accumulate across calls).
    solve_calls: u64 = Formula;
    /// Number of solve calls answered UNSAT by final-conflict analysis of a
    /// falsified assumption (the formula itself was not refuted).
    assumption_conflicts: u64 = Sum;
    /// Sum of the LBD (literal block distance, "glue") of every deduced
    /// conflict clause: the number of distinct decision levels among its
    /// literals at deduction time. Low-LBD clauses are the ones worth
    /// sharing between portfolio workers; `lbd_sum / learnt_total` is the
    /// average glue ([`Stats::avg_lbd`]).
    lbd_sum: u64 = Sum;
    /// Largest LBD ever observed on a deduced conflict clause.
    lbd_max: u32 = Max;
    /// Clauses handed to the share-export callback (portfolio sharing:
    /// length ≤ 2 or LBD within the export cap).
    clauses_exported: u64 = Sum;
    /// Clauses integrated from the share-import source at restart
    /// boundaries (after the per-importer filter and level-0 simplification
    /// dropped the rest).
    clauses_imported: u64 = Sum;
    /// Entries the portfolio's bounded share pool evicted past its
    /// capacity (each eviction is a shared clause some consumer may never
    /// see — best-effort sharing, never a soundness issue).
    pool_evicted: u64 = Sum;
    /// Pool entries that were evicted before some consumer's cursor
    /// reached them, summed over consumers — an upper bound on the import
    /// candidates slow consumers lost to eviction (own publications and
    /// clauses the LBD filter would have dropped are included; their fate
    /// is unknowable once evicted).
    pool_missed: u64 = Sum;
    /// Clauses removed by the preprocessor's backward-subsumption pass (a
    /// live clause was a superset of another).
    clauses_subsumed: u64 = Sum;
    /// Clauses strengthened by the preprocessor's self-subsuming
    /// resolution pass (one literal dropped per count).
    clauses_strengthened: u64 = Sum;
    /// Variables dissolved by bounded variable elimination (their models
    /// are recovered through the reconstruction stack).
    vars_eliminated: u64 = Sum;
    /// Resolvent clauses the preprocessor added while eliminating
    /// variables (tautological and satisfied resolvents are not counted).
    elim_resolvents: u64 = Sum;
}

impl Stats {
    /// Creates a zeroed statistics block.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Records that the branching variable was taken from the conflict
    /// clause at distance `r` from the top of the stack.
    pub(crate) fn record_top_distance(&mut self, r: usize) {
        if self.top_distance_hist.len() <= r {
            self.top_distance_hist.resize(r + 1, 0);
        }
        self.top_distance_hist[r] += 1;
        self.decisions_from_top_clause += 1;
    }

    /// The skin-effect count `f(r)` (0 when `r` was never observed).
    pub fn f(&self, r: usize) -> u64 {
        self.top_distance_hist.get(r).copied().unwrap_or(0)
    }

    /// Ratio (total clauses ever in database)/(initial clauses), the
    /// "(Database size)/(Initial CNF size)" column of Table 9.
    pub fn database_growth_ratio(&self) -> f64 {
        if self.initial_clauses == 0 {
            return 0.0;
        }
        (self.initial_clauses + self.learnt_total) as f64 / self.initial_clauses as f64
    }

    /// Ratio (largest simultaneous clause count)/(initial clauses), the
    /// "(Largest CNF size)/(Initial CNF size)" column of Table 9.
    pub fn peak_memory_ratio(&self) -> f64 {
        if self.initial_clauses == 0 {
            return 0.0;
        }
        self.max_live_clauses as f64 / self.initial_clauses as f64
    }

    /// Average length of deduced conflict clauses.
    pub fn avg_learnt_len(&self) -> f64 {
        if self.learnt_total == 0 {
            return 0.0;
        }
        self.learnt_lits_total as f64 / self.learnt_total as f64
    }

    /// Average LBD ("glue") of deduced conflict clauses.
    pub fn avg_lbd(&self) -> f64 {
        if self.learnt_total == 0 {
            return 0.0;
        }
        self.lbd_sum as f64 / self.learnt_total as f64
    }

    /// Folds another statistics block into this one — how the portfolio
    /// engine aggregates its per-worker counters into one view. Each
    /// counter merges by its kind in the table; the skin-effect histogram
    /// is summed element-wise and `other`'s decision log is appended.
    pub fn merge(&mut self, other: &Stats) {
        self.merge_counters(other);
        if self.top_distance_hist.len() < other.top_distance_hist.len() {
            self.top_distance_hist
                .resize(other.top_distance_hist.len(), 0);
        }
        for (slot, &count) in self
            .top_distance_hist
            .iter_mut()
            .zip(&other.top_distance_hist)
        {
            *slot += count;
        }
        self.decision_log.extend_from_slice(&other.decision_log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_grows_on_demand() {
        let mut s = Stats::new();
        s.record_top_distance(3);
        s.record_top_distance(0);
        s.record_top_distance(3);
        assert_eq!(s.f(0), 1);
        assert_eq!(s.f(3), 2);
        assert_eq!(s.f(1), 0);
        assert_eq!(s.f(99), 0);
        assert_eq!(s.decisions_from_top_clause, 3);
    }

    #[test]
    fn ratios_handle_empty_formula() {
        let s = Stats::new();
        assert_eq!(s.database_growth_ratio(), 0.0);
        assert_eq!(s.peak_memory_ratio(), 0.0);
        assert_eq!(s.avg_learnt_len(), 0.0);
    }

    #[test]
    fn merge_sums_counters_and_maxes_peaks() {
        let mut a = Stats {
            conflicts: 10,
            learnt_total: 4,
            lbd_sum: 8,
            lbd_max: 3,
            max_live_clauses: 100,
            clauses_exported: 2,
            top_distance_hist: vec![1, 2],
            ..Stats::new()
        };
        let b = Stats {
            conflicts: 5,
            learnt_total: 1,
            lbd_sum: 7,
            lbd_max: 7,
            max_live_clauses: 60,
            clauses_imported: 3,
            top_distance_hist: vec![1, 0, 4],
            ..Stats::new()
        };
        a.merge(&b);
        assert_eq!(a.conflicts, 15);
        assert_eq!(a.learnt_total, 5);
        assert_eq!(a.lbd_sum, 15);
        assert_eq!(a.lbd_max, 7);
        assert_eq!(a.max_live_clauses, 100);
        assert_eq!(a.clauses_exported, 2);
        assert_eq!(a.clauses_imported, 3);
        assert_eq!(a.top_distance_hist, vec![2, 2, 4]);
        assert!((a.avg_lbd() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn merge_leaves_formula_level_counters_alone() {
        // Two workers on the same 100-clause formula, one solve call each:
        // the aggregate must NOT double-count the formula or the calls.
        let mut a = Stats {
            initial_clauses: 100,
            solve_calls: 1,
            conflicts: 10,
            ..Stats::new()
        };
        let b = Stats {
            initial_clauses: 100,
            solve_calls: 1,
            conflicts: 20,
            ..Stats::new()
        };
        a.merge(&b);
        assert_eq!(a.initial_clauses, 100);
        assert_eq!(a.solve_calls, 1);
        assert_eq!(a.conflicts, 30);
    }

    #[test]
    fn merge_follows_each_rows_kind() {
        let mut a = Stats::new();
        for (i, &(name, _)) in Stats::COUNTERS.iter().enumerate() {
            a.set_counter(name, i as u64 + 1).unwrap();
        }
        let before = a.counters();
        a.merge(&a.clone());
        let rows = Stats::COUNTERS.iter().zip(before).zip(a.counters());
        for ((&(name, kind), (_, old)), (_, new)) in rows {
            let want = if kind == Merge::Sum { 2 * old } else { old };
            assert_eq!(new, want, "{name} merges as {kind:?}");
        }
    }

    #[test]
    fn growth_ratio_matches_table9_definition() {
        let s = Stats {
            initial_clauses: 100,
            learnt_total: 140,
            max_live_clauses: 104,
            ..Stats::new()
        };
        assert!((s.database_growth_ratio() - 2.4).abs() < 1e-9);
        assert!((s.peak_memory_ratio() - 1.04).abs() < 1e-9);
    }
}
