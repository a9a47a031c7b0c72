//! Model-fitting operators `ψ ▷ μ` (Section 3 of the paper).
//!
//! A model-fitting operator selects from the models of the new information
//! `μ` the models *overall closest* to the whole model set of `ψ` — the
//! defining contrast with revision (closest to the *nearest* model of `ψ`)
//! and update (closest per-model). The paper's concrete instance aggregates
//! Dalal distances by **max** ([`crate::distance::odist`]) and is proven to
//! satisfy postulates (A1–A8) via Theorem 3.1; the postulate harness in
//! [`crate::postulates`] re-verifies that claim mechanically.

use crate::budget::{Budget, BudgetedChangeOperator, Outcome};
use crate::kernel::{
    gmax_fill_pruned, odist_pruned, select_min, select_min_vec, BudgetedSelect, PopProfile,
    VoteTally,
};
use crate::operator::ChangeOperator;
use crate::preorder::min_by_rank;
use arbitrex_logic::{Interp, ModelSet};

/// The paper's model-fitting operator: minimize
/// `odist(ψ, I) = max_{J ∈ Mod(ψ)} dist(I, J)` over `I ∈ Mod(μ)`.
///
/// The egalitarian consensus: the chosen models minimize the *worst*
/// disagreement with any voice in `ψ`.
///
/// **Reproduction finding (paper erratum):** contrary to the claim below
/// Theorem 3.1, this operator does **not** satisfy postulate (A8).
/// Minimal counterexample (1 variable): `ψ₁ = ¬a`, `ψ₂ = ⊤`, `μ = ⊤` —
/// `(ψ₁ ▷ μ) ∧ (ψ₂ ▷ μ) = ¬a` is satisfiable, yet `(ψ₁ ∨ ψ₂) ▷ μ = ⊤`
/// does not imply `¬a`, because `odist(⊤, ·)` ties every interpretation.
/// The underlying loyal-assignment condition (2) fails for
/// max-aggregation (see [`crate::assignment::OdistAssignment`]).
/// (A1)–(A7) all hold (verified exhaustively and by fuzzing);
/// [`LexOdistFitting`] repairs (A8) via a deterministic tie-break, and the
/// weighted semantics of Section 4 repairs it without one.
///
/// Example 3.1 of the paper:
///
/// ```
/// use arbitrex_core::{ChangeOperator, OdistFitting};
/// use arbitrex_logic::{Interp, ModelSet};
/// // S = bit0, D = bit1, Q = bit2.
/// let psi = ModelSet::new(3, [Interp(0b001), Interp(0b010), Interp(0b111)]);
/// let mu = ModelSet::new(3, [Interp(0b010), Interp(0b011)]);
/// let result = OdistFitting.apply(&psi, &mu);
/// assert_eq!(result.as_singleton(), Some(Interp(0b011))); // teach S and D
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OdistFitting;

impl OdistFitting {
    fn select(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> BudgetedSelect<u32> {
        // (A2): nothing can be fitted to an unsatisfiable knowledge base.
        let Some(prof) = PopProfile::of(psi) else {
            return BudgetedSelect::exact(None, ModelSet::empty(mu.n_vars()));
        };
        select_min(
            mu.n_vars(),
            mu.iter(),
            |i, cap| odist_pruned(psi.as_slice(), &prof, i, cap.copied()),
            budget,
        )
    }
}

impl ChangeOperator for OdistFitting {
    fn name(&self) -> &'static str {
        "odist-fitting"
    }

    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        self.select(psi, mu, &Budget::unlimited()).minima
    }
}

impl BudgetedChangeOperator for OdistFitting {
    fn apply_with_budget(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> Outcome {
        self.select(psi, mu, budget).into_outcome(budget)
    }
}

/// Model-fitting with a deterministic tie-break: minimize the pair
/// `(odist(ψ, I), I)` lexicographically, the fixed bitmask order breaking
/// odist ties.
///
/// Induced by the loyal assignment
/// [`crate::assignment::LexOdistAssignment`], so by Theorem 3.1 it
/// satisfies **all** of (A1)–(A8) — verified exhaustively in the tests.
/// The price of repairing (A8) this way is neutrality: ties between
/// equally good consensus candidates are broken by an arbitrary fixed
/// preference instead of being reported. The weighted operators of
/// Section 4 avoid the dilemma entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct LexOdistFitting;

impl LexOdistFitting {
    fn select(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> BudgetedSelect<(u32, u64)> {
        let Some(prof) = PopProfile::of(psi) else {
            return BudgetedSelect::exact(None, ModelSet::empty(mu.n_vars()));
        };
        // Prune on the leading odist component: any candidate whose odist
        // strictly exceeds the best's is lexicographically greater.
        select_min(
            mu.n_vars(),
            mu.iter(),
            |i, cap: Option<&(u32, u64)>| {
                odist_pruned(psi.as_slice(), &prof, i, cap.map(|c| c.0)).map(|d| (d, i.0))
            },
            budget,
        )
    }
}

impl ChangeOperator for LexOdistFitting {
    fn name(&self) -> &'static str {
        "lex-odist-fitting"
    }

    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        self.select(psi, mu, &Budget::unlimited()).minima
    }
}

impl BudgetedChangeOperator for LexOdistFitting {
    fn apply_with_budget(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> Outcome {
        self.select(psi, mu, budget).into_outcome(budget)
    }
}

/// Sum-aggregated fitting: minimize `Σ_{J ∈ Mod(ψ)} dist(I, J)` — the
/// unweighted majority flavour (each model of `ψ` votes with weight 1).
///
/// **Not** a model-fitting operator in the paper's sense: because
/// `Mod(ψ₁ ∨ ψ₂)` is a set *union*, shared models are counted once, which
/// breaks the loyalty conditions on `≤_{ψ₁∨ψ₂}` and with them postulate
/// (A7)/(A8). The postulate harness exhibits concrete counterexamples
/// (experiment E3); the weighted treatment of Section 4 exists precisely to
/// repair this — weighted disjunction `⊔` *adds* weights instead of
/// deduplicating, and [`crate::wfitting::WdistFitting`] then satisfies
/// F1–F8.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumFitting;

impl SumFitting {
    fn select(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> BudgetedSelect<u128> {
        if psi.is_empty() {
            return BudgetedSelect::exact(None, ModelSet::empty(mu.n_vars()));
        }
        let votes = VoteTally::of(psi.n_vars(), psi.iter().map(|j| (j, 1)));
        select_min(mu.n_vars(), mu.iter(), |i, _| Some(votes.rank(i)), budget)
    }
}

impl ChangeOperator for SumFitting {
    fn name(&self) -> &'static str {
        "sum-fitting"
    }

    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        self.select(psi, mu, &Budget::unlimited()).minima
    }
}

impl BudgetedChangeOperator for SumFitting {
    fn apply_with_budget(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> Outcome {
        self.select(psi, mu, budget).into_outcome(budget)
    }
}

/// Leximax (GMax) fitting: rank `I` by the *sorted descending vector* of
/// its distances to every model of `ψ`, compared lexicographically.
///
/// A classic egalitarian refinement of [`OdistFitting`] (later belief-
/// merging literature calls this family `Δ^GMax`): first minimize the
/// worst disagreement, then the second-worst among those tied, and so on.
/// Refines odist — every GMax-minimal model is odist-minimal — and
/// satisfies (A1)–(A6); over set-union disjunction it fails **both**
/// (A7) and (A8) (the distance *vector* of `ψ₁ ∨ ψ₂` is not determined
/// by the disjuncts' vectors, so even the intersection direction of
/// loyalty breaks — measured exhaustively in `tests/postulate_matrix.rs`,
/// where plain odist still keeps (A7)).
#[derive(Debug, Clone, Copy, Default)]
pub struct GMaxFitting;

/// The GMax rank vector: distances to each model of `ψ`, sorted
/// descending.
pub fn gmax_vector(psi: &ModelSet, i: Interp) -> Vec<u32> {
    let mut v: Vec<u32> = psi.iter().map(|j| i.dist(j)).collect();
    v.sort_unstable_by(|a, b| b.cmp(a));
    v
}

impl GMaxFitting {
    fn select(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> BudgetedSelect<Vec<u32>> {
        let Some(prof) = PopProfile::of(psi) else {
            return BudgetedSelect::exact(None, ModelSet::empty(mu.n_vars()));
        };
        // Buffer-reusing selection: no per-candidate Vec allocation.
        select_min_vec(
            mu.n_vars(),
            mu.iter(),
            |i, cap, buf| gmax_fill_pruned(psi.as_slice(), &prof, i, cap, buf),
            budget,
        )
    }
}

impl ChangeOperator for GMaxFitting {
    fn name(&self) -> &'static str {
        "gmax-fitting"
    }

    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        self.select(psi, mu, &Budget::unlimited()).minima
    }
}

impl BudgetedChangeOperator for GMaxFitting {
    fn apply_with_budget(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> Outcome {
        self.select(psi, mu, budget).into_outcome(budget)
    }
}

/// Generic fitting from any rank function on `(ψ, I)` — the "loyal
/// assignment → operator" direction of Theorem 3.1 as a constructor.
///
/// Given `rank(ψ, I)`, applies `Mod(ψ ▷ μ) = Min(Mod(μ), ≤_ψ)` where
/// `I ≤_ψ J ⇔ rank(ψ, I) ≤ rank(ψ, J)`. Whether the induced operator
/// satisfies (A1–A8) depends on the rank being loyal — testable with
/// [`crate::assignment::check_loyalty`].
pub struct RankFitting<K, F> {
    name: &'static str,
    rank: F,
    _marker: std::marker::PhantomData<K>,
}

impl<K: Ord, F: Fn(&ModelSet, Interp) -> K> RankFitting<K, F> {
    /// Build a fitting operator from a rank function.
    pub fn new(name: &'static str, rank: F) -> Self {
        RankFitting {
            name,
            rank,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<K: Ord, F: Fn(&ModelSet, Interp) -> K> ChangeOperator for RankFitting<K, F> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        if psi.is_empty() {
            return ModelSet::empty(mu.n_vars());
        }
        min_by_rank(mu, |i| (self.rank)(psi, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::odist;

    fn ms(n: u32, bits: &[u64]) -> ModelSet {
        ModelSet::new(n, bits.iter().map(|&b| Interp(b)))
    }

    #[test]
    fn example_31_full_reproduction() {
        // μ = (¬S∧D) ∨ (S∧D), ψ = (S∧¬D∧¬Q) ∨ (¬S∧D∧¬Q) ∨ (S∧D∧Q).
        let psi = ms(3, &[0b001, 0b010, 0b111]);
        let mu = ms(3, &[0b010, 0b011]);
        assert_eq!(odist(&psi, Interp(0b010)), Some(2));
        assert_eq!(odist(&psi, Interp(0b011)), Some(1));
        let result = OdistFitting.apply(&psi, &mu);
        assert_eq!(result.as_singleton(), Some(Interp(0b011)));
    }

    #[test]
    fn a2_unsatisfiable_kb_gives_unsatisfiable_result() {
        let mu = ms(2, &[0b01, 0b10]);
        assert!(OdistFitting.apply(&ModelSet::empty(2), &mu).is_empty());
        assert!(SumFitting.apply(&ModelSet::empty(2), &mu).is_empty());
    }

    #[test]
    fn a1_result_implies_mu_and_a3_satisfiable() {
        let psi = ms(3, &[0b000, 0b111]);
        let mu = ms(3, &[0b001, 0b110]);
        for op in [&OdistFitting as &dyn ChangeOperator, &SumFitting] {
            let r = op.apply(&psi, &mu);
            assert!(r.implies(&mu), "{}", op.name());
            assert!(!r.is_empty(), "{}", op.name());
        }
    }

    #[test]
    fn fitting_is_not_conjunction_even_when_consistent() {
        // Unlike revision (R2), fitting may *exclude* models of ψ ∧ μ:
        // ψ = {∅, {a,b,c}}, μ = {∅, {a}}: odist(∅)=3, odist({a})=2 — the
        // fit picks {a} even though ∅ ∈ ψ∧μ.
        let psi = ms(3, &[0b000, 0b111]);
        let mu = ms(3, &[0b000, 0b001]);
        let got = OdistFitting.apply(&psi, &mu);
        assert_eq!(got, ms(3, &[0b001]));
        let conj = psi.intersect(&mu);
        assert!(!conj.is_empty());
        assert_ne!(got, conj);
    }

    #[test]
    fn odist_vs_sum_disagree_on_majorities() {
        // ψ has two voices at ∅ and one at {a,b,c,d}.
        // μ offers ∅ vs {a,b}: odist prefers the compromise {a,b}
        // (max 2 < max 4); sum prefers the majority ∅ (0+0+4=4 < 2+2+2=6).
        // Model sets dedup, so the majority is two *distinct* voices near ∅.
        let psi = ms(4, &[0b0000, 0b1000, 0b1111]);
        let mu = ms(4, &[0b0000, 0b0011]);
        // odist: ∅ -> max(0,1,4)=4; {a,b} -> max(2,3,2)=3. Fit picks {a,b}.
        assert_eq!(OdistFitting.apply(&psi, &mu), ms(4, &[0b0011]));
        // sum: ∅ -> 0+1+4=5; {a,b} -> 2+3+2=7. Sum picks ∅.
        assert_eq!(SumFitting.apply(&psi, &mu), ms(4, &[0b0000]));
    }

    #[test]
    fn rank_fitting_reconstructs_odist_fitting() {
        let op = RankFitting::new("odist-generic", |psi: &ModelSet, i| odist(psi, i).unwrap());
        let psi = ms(3, &[0b001, 0b010, 0b111]);
        let mu = ms(3, &[0b010, 0b011]);
        assert_eq!(op.apply(&psi, &mu), OdistFitting.apply(&psi, &mu));
        assert_eq!(op.name(), "odist-generic");
    }

    #[test]
    fn ties_are_preserved() {
        // Symmetric ψ around two models of μ: both are kept.
        let psi = ms(2, &[0b00, 0b11]);
        let mu = ms(2, &[0b01, 0b10]);
        let r = OdistFitting.apply(&psi, &mu);
        assert_eq!(r, mu);
    }

    #[test]
    fn empty_mu_yields_empty() {
        let psi = ms(2, &[0b00]);
        assert!(OdistFitting.apply(&psi, &ModelSet::empty(2)).is_empty());
    }

    #[test]
    fn gmax_refines_odist() {
        // Every GMax choice is odist-minimal; sometimes strictly fewer.
        let psi = ms(3, &[0b000, 0b011, 0b111]);
        let mu = ModelSet::all(3);
        let odist_min = OdistFitting.apply(&psi, &mu);
        let gmax_min = GMaxFitting.apply(&psi, &mu);
        assert!(gmax_min.implies(&odist_min));
        // Exhaustive refinement over all non-empty ψ, μ at n = 2.
        for pmask in 1u32..16 {
            for mmask in 1u32..16 {
                let psi = ModelSet::new(2, (0..4u64).filter(|b| pmask >> b & 1 == 1).map(Interp));
                let mu = ModelSet::new(2, (0..4u64).filter(|b| mmask >> b & 1 == 1).map(Interp));
                assert!(GMaxFitting
                    .apply(&psi, &mu)
                    .implies(&OdistFitting.apply(&psi, &mu)));
            }
        }
    }

    #[test]
    fn gmax_vector_is_sorted_descending() {
        let psi = ms(3, &[0b000, 0b111]);
        let v = gmax_vector(&psi, Interp(0b001));
        assert_eq!(v, vec![2, 1]);
    }

    #[test]
    fn gmax_keeps_genuinely_tied_candidates() {
        // ψ = {{a}, {b}}, μ = {∅, {a,b}}: both candidates have the vector
        // [1, 1], so GMax — like odist — keeps both.
        let psi = ms(2, &[0b01, 0b10]);
        let mu = ms(2, &[0b00, 0b11]);
        assert_eq!(GMaxFitting.apply(&psi, &mu), mu);
    }

    #[test]
    fn gmax_strictly_refines_on_a_second_worst_tie_break() {
        // ψ = {000, 011, 110}, candidates 101 and 000:
        //   101 -> dists (2, 2, 2) -> vector [2, 2, 2]
        //   000 -> dists (0, 2, 2) -> vector [2, 2, 0]
        // odist ties both at 2; GMax separates on the third-worst entry.
        // (With only two ψ-models a parity argument shows an equal-max,
        // different-tail tie is impossible — three models are needed.)
        let psi = ms(3, &[0b000, 0b011, 0b110]);
        let mu = ms(3, &[0b101, 0b000]);
        assert_eq!(OdistFitting.apply(&psi, &mu), mu);
        assert_eq!(GMaxFitting.apply(&psi, &mu), ms(3, &[0b000]));
        assert_eq!(gmax_vector(&psi, Interp(0b101)), vec![2, 2, 2]);
        assert_eq!(gmax_vector(&psi, Interp(0b000)), vec![2, 2, 0]);
    }
}
