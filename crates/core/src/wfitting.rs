//! Weighted model-fitting (Section 4 of the paper).

use crate::budget::{Budget, WeightedOutcome};
use crate::kernel::{select_min, BudgetedSelect, VoteTally};
use crate::telemetry;
use crate::weighted::WeightedKb;
use arbitrex_logic::{Interp, ModelSet};

/// A theory-change operator on weighted knowledge bases (the `F`-postulate
/// analogue of [`crate::operator::ChangeOperator`]).
pub trait WeightedChangeOperator {
    /// Operator name for experiment tables.
    fn name(&self) -> &'static str;

    /// `Mod(ψ̃ ▷ μ̃)` as a weighted knowledge base.
    fn apply(&self, psi: &WeightedKb, mu: &WeightedKb) -> WeightedKb;
}

impl<T: WeightedChangeOperator + ?Sized> WeightedChangeOperator for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn apply(&self, psi: &WeightedKb, mu: &WeightedKb) -> WeightedKb {
        (**self).apply(psi, mu)
    }
}

/// The paper's weighted model-fitting operator: minimize
/// `wdist(ψ̃, I) = Σ_J dist(I, J) · ψ̃(J)` over the support of `μ̃`,
/// keeping `μ̃`'s weights on the minimizers and zero elsewhere — exactly
/// the weighted `Min` of Section 4.
///
/// Example 4.1 of the paper (35 students):
///
/// ```
/// use arbitrex_core::{WdistFitting, WeightedChangeOperator, WeightedKb};
/// use arbitrex_logic::Interp;
/// // S = bit0, D = bit1, Q = bit2.
/// let psi = WeightedKb::from_weights(3, [
///     (Interp(0b001), 10), // SQL only
///     (Interp(0b010), 20), // Datalog only
///     (Interp(0b111), 5),  // all three
/// ]);
/// let mu = WeightedKb::from_weights(3, [(Interp(0b010), 1), (Interp(0b011), 1)]);
/// let result = WdistFitting.apply(&psi, &mu);
/// assert_eq!(result.weight(Interp(0b010)), 1); // teach Datalog only
/// assert_eq!(result.weight(Interp(0b011)), 0);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct WdistFitting;

impl WdistFitting {
    /// One pass over μ̃'s support, each model ranked in `O(n)` from ψ̃'s
    /// per-bit vote tally; the caller gives each returned model its
    /// μ̃-weight.
    fn select(&self, psi: &WeightedKb, mu: &WeightedKb, budget: &Budget) -> BudgetedSelect<u128> {
        telemetry::WDIST_APPLICATIONS.incr();
        // (F2): unsatisfiable ψ̃ fits nothing.
        if !psi.is_satisfiable() {
            return BudgetedSelect::exact(None, ModelSet::empty(mu.n_vars()));
        }
        telemetry::WSUPPORT_SCANNED.add(psi.support_size() as u64);
        let votes = VoteTally::of(psi.n_vars(), psi.support());
        select_min(
            mu.n_vars(),
            mu.support().map(|(i, _)| i),
            |i, _| Some(votes.rank(i)),
            budget,
        )
    }
}

impl WeightedChangeOperator for WdistFitting {
    fn name(&self) -> &'static str {
        "wdist-fitting"
    }

    fn apply(&self, psi: &WeightedKb, mu: &WeightedKb) -> WeightedKb {
        let min = self.select(psi, mu, &Budget::unlimited()).minima;
        WeightedKb::from_weights(mu.n_vars(), min.iter().map(|i| (i, mu.weight(i))))
    }
}

impl WdistFitting {
    /// `Mod(ψ̃ ▷ μ̃)` under `budget`, degrading gracefully on exhaustion
    /// per the [`Quality`](crate::budget::Quality) containment contract;
    /// with [`Budget::unlimited`] it agrees exactly with
    /// [`WeightedChangeOperator::apply`].
    pub fn apply_with_budget(
        &self,
        psi: &WeightedKb,
        mu: &WeightedKb,
        budget: &Budget,
    ) -> WeightedOutcome {
        self.select(psi, mu, budget)
            .into_weighted_outcome(budget, |i| mu.weight(i))
    }
}

/// Weighted fitting by a generic rank on `(ψ̃, I)` — the weighted analogue
/// of [`crate::fitting::RankFitting`], for experimenting with other
/// aggregators under the F-postulate harness.
pub struct WeightedRankFitting<K, F> {
    name: &'static str,
    rank: F,
    _marker: std::marker::PhantomData<K>,
}

impl<K: Ord, F: Fn(&WeightedKb, Interp) -> K> WeightedRankFitting<K, F> {
    /// Build a weighted fitting operator from a rank function.
    pub fn new(name: &'static str, rank: F) -> Self {
        WeightedRankFitting {
            name,
            rank,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<K: Ord, F: Fn(&WeightedKb, Interp) -> K> WeightedChangeOperator for WeightedRankFitting<K, F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn apply(&self, psi: &WeightedKb, mu: &WeightedKb) -> WeightedKb {
        telemetry::WDIST_APPLICATIONS.incr();
        if !psi.is_satisfiable() {
            return WeightedKb::unsatisfiable(mu.n_vars());
        }
        // Single pass: rank invoked once per support member.
        let min = select_min(
            mu.n_vars(),
            mu.support().map(|(i, _)| i),
            |i, _| Some((self.rank)(psi, i)),
            &Budget::unlimited(),
        )
        .minima;
        WeightedKb::from_weights(mu.n_vars(), min.iter().map(|i| (i, mu.weight(i))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::wdist;

    fn i(bits: u64) -> Interp {
        Interp(bits)
    }

    fn example_41_psi() -> WeightedKb {
        WeightedKb::from_weights(3, [(i(0b001), 10), (i(0b010), 20), (i(0b111), 5)])
    }

    fn example_41_mu() -> WeightedKb {
        WeightedKb::from_weights(3, [(i(0b010), 1), (i(0b011), 1)])
    }

    #[test]
    fn example_41_full_reproduction() {
        let psi = example_41_psi();
        let mu = example_41_mu();
        assert_eq!(wdist(&psi, i(0b010)), Some(30));
        assert_eq!(wdist(&psi, i(0b011)), Some(35));
        let result = WdistFitting.apply(&psi, &mu);
        assert_eq!(result.weight(i(0b010)), 1);
        assert_eq!(result.weight(i(0b011)), 0);
        assert_eq!(result.support_size(), 1);
    }

    #[test]
    fn contrast_with_example_31_majority_flips_the_outcome() {
        // Same shape as Example 3.1 (unit weights) picks {S,D} under odist;
        // the 20-strong Datalog majority flips weighted fitting to {D}.
        let unit = WeightedKb::from_weights(3, [(i(0b001), 1), (i(0b010), 1), (i(0b111), 1)]);
        let mu = example_41_mu();
        let r_unit = WdistFitting.apply(&unit, &mu);
        // wdist(unit, {D}) = 2+0+2... dist({D},{S})=2, dist({D},{D})=0,
        // dist({D},{S,D,Q})=2 -> 4; wdist(unit, {S,D}) = 1+1+1 = 3.
        assert_eq!(r_unit.weight(i(0b011)), 1);
        assert_eq!(r_unit.weight(i(0b010)), 0);
        let r_majority = WdistFitting.apply(&example_41_psi(), &mu);
        assert_eq!(r_majority.weight(i(0b010)), 1);
    }

    #[test]
    fn f1_result_implies_mu() {
        let psi = example_41_psi();
        let mu = example_41_mu();
        assert!(WdistFitting.apply(&psi, &mu).implies(&mu));
    }

    #[test]
    fn f2_unsatisfiable_psi() {
        let r = WdistFitting.apply(&WeightedKb::unsatisfiable(3), &example_41_mu());
        assert!(!r.is_satisfiable());
    }

    #[test]
    fn f3_satisfiable_inputs_satisfiable_output() {
        let r = WdistFitting.apply(&example_41_psi(), &example_41_mu());
        assert!(r.is_satisfiable());
    }

    #[test]
    fn unsatisfiable_mu_gives_unsatisfiable_result() {
        let r = WdistFitting.apply(&example_41_psi(), &WeightedKb::unsatisfiable(3));
        assert!(!r.is_satisfiable());
    }

    #[test]
    fn result_weights_come_from_mu_not_psi() {
        let psi = WeightedKb::from_weights(2, [(i(0b00), 7)]);
        let mu = WeightedKb::from_weights(2, [(i(0b01), 3), (i(0b11), 9)]);
        let r = WdistFitting.apply(&psi, &mu);
        // {0b01} is closer (wdist 7 vs 14); its μ weight 3 is preserved.
        assert_eq!(r.weight(i(0b01)), 3);
        assert_eq!(r.weight(i(0b11)), 0);
    }

    #[test]
    fn weights_scale_invariance() {
        // Scaling ψ̃ uniformly cannot change the minimizers.
        let psi = example_41_psi();
        let mu = example_41_mu();
        let r1 = WdistFitting.apply(&psi, &mu);
        let r2 = WdistFitting.apply(&psi.scale(17), &mu);
        assert_eq!(r1, r2);
    }

    #[test]
    fn generic_rank_fitting_matches_wdist_fitting() {
        let op = WeightedRankFitting::new("wdist-generic", |psi: &WeightedKb, x| {
            wdist(psi, x).unwrap()
        });
        let psi = example_41_psi();
        let mu = example_41_mu();
        assert_eq!(op.apply(&psi, &mu), WdistFitting.apply(&psi, &mu));
    }

    #[test]
    fn classical_embedding_agrees_with_sum_fitting() {
        use crate::fitting::SumFitting;
        use crate::operator::ChangeOperator;
        use arbitrex_logic::ModelSet;
        let psi_ms = ModelSet::new(3, [i(0b001), i(0b010), i(0b111)]);
        let mu_ms = ModelSet::new(3, [i(0b010), i(0b011)]);
        let classical = SumFitting.apply(&psi_ms, &mu_ms);
        let weighted = WdistFitting.apply(
            &WeightedKb::from_model_set(&psi_ms),
            &WeightedKb::from_model_set(&mu_ms),
        );
        assert_eq!(weighted.support_set(), classical);
    }
}
