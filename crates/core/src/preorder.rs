//! Pre-orders over interpretations and minimal-model selection.
//!
//! Katsuno–Mendelzon-style characterizations (and the paper's Theorem 3.1)
//! all have the shape `Mod(ψ op μ) = Min(Mod(μ), ≤_ψ)`: pick the models of
//! the new information minimal in a pre-order measuring closeness to the
//! knowledge base. This module provides the generic `Min` computation and
//! the pre-order abstractions that the concrete operators instantiate.

use arbitrex_logic::{Interp, ModelSet};

/// A pre-order (reflexive, transitive relation) over interpretations.
pub trait Preorder {
    /// Does `a ≤ b` hold?
    fn le(&self, a: Interp, b: Interp) -> bool;

    /// The strict part: `a < b` iff `a ≤ b` and not `b ≤ a`.
    fn lt(&self, a: Interp, b: Interp) -> bool {
        self.le(a, b) && !self.le(b, a)
    }
}

/// A pre-order induced by a rank function into an ordered key space:
/// `a ≤ b ⇔ rank(a) ≤ rank(b)`. Always a *total* pre-order.
///
/// All the paper's concrete operators are ranked: Dalal ranks by
/// [`crate::distance::min_dist`], the model-fitting operator by
/// [`crate::distance::odist`], weighted fitting by
/// [`crate::distance::wdist`].
pub struct RankOrder<K: Ord, F: Fn(Interp) -> K> {
    rank: F,
}

impl<K: Ord, F: Fn(Interp) -> K> RankOrder<K, F> {
    /// Wrap a rank function.
    pub fn new(rank: F) -> Self {
        RankOrder { rank }
    }

    /// The rank of an interpretation.
    pub fn rank(&self, i: Interp) -> K {
        (self.rank)(i)
    }
}

impl<K: Ord, F: Fn(Interp) -> K> Preorder for RankOrder<K, F> {
    fn le(&self, a: Interp, b: Interp) -> bool {
        (self.rank)(a) <= (self.rank)(b)
    }
}

/// `Min(S, ≤)`: the members of `S` with no strictly smaller member.
///
/// Generic over any pre-order; quadratic in `|S|`. Ranked orders should
/// prefer [`min_by_rank`], which is linear.
pub fn min_models(s: &ModelSet, pre: &impl Preorder) -> ModelSet {
    let minimal = s
        .iter()
        .filter(|&i| !s.iter().any(|j| pre.lt(j, i)))
        .collect::<Vec<_>>();
    ModelSet::new(s.n_vars(), minimal)
}

/// `Min(S, ≤)` for a ranked pre-order: the members of `S` achieving the
/// minimum rank. Single pass — `rank` is invoked exactly once per member
/// (the pre-kernel implementation scanned twice, ranking every member
/// again during the filter pass).
pub fn min_by_rank<K: Ord, F: Fn(Interp) -> K>(s: &ModelSet, rank: F) -> ModelSet {
    let unlimited = crate::budget::Budget::unlimited();
    crate::kernel::select_min(s.n_vars(), s.iter(), |i, _| Some(rank(i)), &unlimited).minima
}

/// [`min_by_rank`] for ranked pre-orders wrapped in a [`RankOrder`],
/// without re-borrowing the closure. Callers holding a `RankOrder` (the
/// loyal-assignment machinery, [`crate::fitting::RankFitting`]) go through
/// here so the single-pass guarantee covers them too.
pub fn min_models_ranked<K: Ord, F: Fn(Interp) -> K>(
    s: &ModelSet,
    order: &RankOrder<K, F>,
) -> ModelSet {
    min_by_rank(s, |i| order.rank(i))
}

/// Check that `pre` is a *total* pre-order over the given universe:
/// reflexive, transitive, and any two elements comparable. Used by the
/// loyalty validation in [`crate::assignment`] and by tests of Theorem 3.1's
/// "only if" direction.
pub fn is_total_preorder(universe: &ModelSet, pre: &impl Preorder) -> bool {
    // Reflexivity + totality.
    for a in universe.iter() {
        if !pre.le(a, a) {
            return false;
        }
        for b in universe.iter() {
            if !pre.le(a, b) && !pre.le(b, a) {
                return false;
            }
        }
    }
    // Transitivity.
    for a in universe.iter() {
        for b in universe.iter() {
            if !pre.le(a, b) {
                continue;
            }
            for c in universe.iter() {
                if pre.le(b, c) && !pre.le(a, c) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(bits: u64) -> Interp {
        Interp(bits)
    }

    #[test]
    fn rank_order_is_total_preorder() {
        let pre = RankOrder::new(|x: Interp| x.count_true());
        let universe = ModelSet::all(3);
        assert!(is_total_preorder(&universe, &pre));
    }

    #[test]
    fn min_models_picks_rank_minima() {
        let pre = RankOrder::new(|x: Interp| x.count_true());
        let s = ModelSet::new(3, [i(0b011), i(0b100), i(0b111)]);
        let m = min_models(&s, &pre);
        assert_eq!(m, ModelSet::new(3, [i(0b100)]));
        assert_eq!(min_by_rank(&s, |x| x.count_true()), m);
    }

    #[test]
    fn ties_keep_all_minima() {
        let s = ModelSet::new(3, [i(0b001), i(0b010), i(0b011)]);
        let m = min_by_rank(&s, |x| x.count_true());
        assert_eq!(m, ModelSet::new(3, [i(0b001), i(0b010)]));
    }

    #[test]
    fn min_of_empty_is_empty() {
        let s = ModelSet::empty(2);
        let pre = RankOrder::new(|x: Interp| x.0);
        assert!(min_models(&s, &pre).is_empty());
        assert!(min_by_rank(&s, |x| x.0).is_empty());
    }

    #[test]
    fn min_agrees_between_generic_and_ranked() {
        // Pseudo-random ranks.
        let rank = |x: Interp| (x.0.wrapping_mul(0x9E3779B9) >> 3) % 5;
        let universe = ModelSet::all(4);
        let pre = RankOrder::new(rank);
        assert_eq!(min_models(&universe, &pre), min_by_rank(&universe, rank));
    }

    #[test]
    fn min_by_rank_ranks_each_member_exactly_once() {
        use std::cell::Cell;
        let calls = Cell::new(0usize);
        let s = ModelSet::new(4, (0..12).map(i));
        let m = min_by_rank(&s, |x| {
            calls.set(calls.get() + 1);
            x.count_true()
        });
        assert_eq!(
            calls.get(),
            s.len(),
            "rank must be computed once per member"
        );
        assert_eq!(m, ModelSet::new(4, [i(0)]));

        calls.set(0);
        let order = RankOrder::new(|x: Interp| {
            calls.set(calls.get() + 1);
            x.count_true()
        });
        min_models_ranked(&s, &order);
        assert_eq!(calls.get(), s.len());
    }

    #[test]
    fn min_models_ranked_agrees_with_min_by_rank() {
        let rank = |x: Interp| (x.0.wrapping_mul(0x9E3779B9) >> 3) % 5;
        let universe = ModelSet::all(4);
        let order = RankOrder::new(rank);
        assert_eq!(
            min_models_ranked(&universe, &order),
            min_by_rank(&universe, rank)
        );
    }

    #[test]
    fn partial_preorder_detected_as_non_total() {
        // Bitmask subset order is a partial order, not total.
        struct Subset;
        impl Preorder for Subset {
            fn le(&self, a: Interp, b: Interp) -> bool {
                a.0 & !b.0 == 0
            }
        }
        let universe = ModelSet::all(2);
        assert!(!is_total_preorder(&universe, &Subset));
        // But min_models still works: only the empty set is minimal.
        let m = min_models(&universe, &Subset);
        assert_eq!(m, ModelSet::new(2, [i(0)]));
    }
}
