//! Model reconstruction over eliminated variables.
//!
//! Bounded variable elimination removes a variable `x` by replacing the
//! clauses containing `x` with their pairwise resolvents. A model of the
//! reduced formula says nothing about `x`; to answer SAT against the
//! *original* formula the solver must extend the model with a value for
//! `x` that satisfies the deleted clauses. The [`Reconstructor`] records,
//! per eliminated variable, the deleted clauses of **one** side (all those
//! containing the side literal `l`) and replays them in reverse
//! elimination order: set `l` false by default, flip it true iff some
//! recorded clause has every *other* literal false. The clauses of the
//! opposite side are then satisfied automatically — any countermodel would
//! falsify a resolvent, which the search model is known to satisfy.

use berkmin_cnf::{Assignment, Lit};

/// The reconstruction stack: per eliminated variable, the side literal and
/// the deleted clauses containing it, in elimination order. Storage is
/// flat (one literal pool, one clause-range table, one entry table) so
/// recording costs no per-clause allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct Reconstructor {
    /// Literal pool backing every recorded clause.
    lits: Vec<Lit>,
    /// Recorded clauses as `[start, end)` ranges into [`Reconstructor::lits`].
    clauses: Vec<(u32, u32)>,
    /// One entry per eliminated variable, in elimination order: the side
    /// literal plus its `[start, end)` range into
    /// [`Reconstructor::clauses`].
    entries: Vec<(Lit, u32, u32)>,
}

impl Reconstructor {
    /// Records the elimination of `side.var()`: `clauses` are the deleted
    /// clauses containing the literal `side` (the smaller occurrence side).
    pub(crate) fn record<'a, I>(&mut self, side: Lit, clauses: I)
    where
        I: IntoIterator<Item = &'a [Lit]>,
    {
        let first = self.clauses.len() as u32;
        for clause in clauses {
            debug_assert!(clause.contains(&side), "recorded clause misses {side:?}");
            let start = self.lits.len() as u32;
            self.lits.extend_from_slice(clause);
            self.clauses.push((start, self.lits.len() as u32));
        }
        self.entries.push((side, first, self.clauses.len() as u32));
    }

    /// Extends `model` (a total assignment of the simplified formula) over
    /// every eliminated variable, walking the entries in reverse
    /// elimination order. After the walk the model satisfies every clause
    /// that was ever deleted by elimination.
    pub(crate) fn extend_model(&self, model: &mut Assignment) {
        for &(side, first, last) in self.entries.iter().rev() {
            // Default: make the side literal false …
            model.assign(side.var(), side.is_negative());
            // … unless some recorded clause needs it true (all its other
            // literals are false under the extended-so-far model).
            let forced = self.clauses[first as usize..last as usize]
                .iter()
                .any(|&(s, e)| {
                    self.lits[s as usize..e as usize]
                        .iter()
                        .all(|&l| l == side || !model.satisfies(l))
                });
            if forced {
                model.assign(side.var(), side.is_positive());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin_cnf::Var;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    #[test]
    fn default_leaves_side_literal_false() {
        // Eliminate x1 whose positive side was {(x1 ∨ x2)}; model has x2
        // true, so the clause is satisfied and x1 stays false.
        let mut r = Reconstructor::default();
        r.record(lit(1), [&[lit(1), lit(2)][..]]);
        let mut model = Assignment::new(2);
        model.assign(Var::new(1), true);
        r.extend_model(&mut model);
        assert!(model.satisfies(lit(-1)));
    }

    #[test]
    fn clause_with_other_literals_false_forces_side_true() {
        let mut r = Reconstructor::default();
        r.record(lit(1), [&[lit(1), lit(2)][..]]);
        let mut model = Assignment::new(2);
        model.assign(Var::new(1), false); // x2 false ⇒ clause needs x1
        r.extend_model(&mut model);
        assert!(model.satisfies(lit(1)));
    }

    #[test]
    fn negative_side_literal_is_handled() {
        // Side literal ¬x1 with clause (¬x1 ∨ x2), x2 false ⇒ x1 = false.
        let mut r = Reconstructor::default();
        r.record(lit(-1), [&[lit(-1), lit(2)][..]]);
        let mut model = Assignment::new(2);
        model.assign(Var::new(1), false);
        r.extend_model(&mut model);
        assert!(model.satisfies(lit(-1)));
    }

    #[test]
    fn reverse_order_lets_later_entries_feed_earlier_ones() {
        // Eliminate x1 first (side clause (x1 ∨ x2)), then x2 (side clause
        // (x2 ∨ x3)). Reconstruction must value x2 before x1 consults it.
        let mut r = Reconstructor::default();
        r.record(lit(1), [&[lit(1), lit(2)][..]]);
        r.record(lit(2), [&[lit(2), lit(3)][..]]);
        let mut model = Assignment::new(3);
        model.assign(Var::new(2), false); // x3 false
        r.extend_model(&mut model);
        // x2 forced true by (x2 ∨ x3); then (x1 ∨ x2) is satisfied, so x1
        // keeps its default false.
        assert!(model.satisfies(lit(2)));
        assert!(model.satisfies(lit(-1)));
    }
}
