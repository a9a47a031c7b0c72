//! Arbitration `ψ Δ φ` — the paper's headline operator.
//!
//! Arbitration is the special case of model-fitting where the candidate
//! pool is *unconstrained*: `ψ Δ φ = (ψ ∨ φ) ▷ ⊤`, i.e. fit the best
//! interpretations of the whole universe `𝓜` to the combined voices of
//! the old and the new information (Corollary 3.1). Because `∨` is
//! commutative, arbitration is commutative — the defining symmetry that
//! revision and update lack.
//!
//! Each fitting operator fits against `𝓜` through one inherent
//! `apply_universe(ψ, budget)`. It streams the `2^n` candidate bitmasks
//! through the selection kernel (or answers in closed form), so the
//! universe is never allocated and peak memory is proportional to the
//! answer. When `budget` gives out, the outcome degrades per the
//! [`Quality`](crate::budget::Quality) containment contract;
//! [`Budget::unlimited`] never trips and gives the exact answer. Past
//! [`arbitrex_logic::ENUM_LIMIT`] variables every entry returns
//! [`CoreError::EnumLimitExceeded`] instead of attempting the scan.

use crate::budget::{Budget, Outcome, WeightedOutcome};
use crate::error::CoreError;
use crate::fitting::{GMaxFitting, LexOdistFitting, OdistFitting, SumFitting};
use crate::kernel::{
    gmax_fill_pruned, select_min_universe_odist, select_min_vec, BudgetedSelect, PopProfile,
    VoteTally,
};
use crate::operator::ChangeOperator;
use crate::weighted::WeightedKb;
use crate::wfitting::{WdistFitting, WeightedChangeOperator};
use arbitrex_logic::{all_interps, ModelSet};

/// The selection `ψ ▷ ⊤` of an unsatisfiable ψ: nothing, once the width is
/// known to be enumerable.
fn empty_universe<K>(n: u32) -> Result<BudgetedSelect<K>, CoreError> {
    CoreError::check_enum_limit(n)?;
    Ok(BudgetedSelect::exact(None, ModelSet::empty(n)))
}

impl OdistFitting {
    /// `ψ ▷ ⊤` over `n = psi.n_vars()` variables under `budget` (see the
    /// [module docs](self)).
    pub fn apply_universe(&self, psi: &ModelSet, budget: &Budget) -> Result<Outcome, CoreError> {
        Ok(self.select_universe(psi, budget)?.into_outcome(budget))
    }

    fn select_universe(
        &self,
        psi: &ModelSet,
        budget: &Budget,
    ) -> Result<BudgetedSelect<u32>, CoreError> {
        let n = psi.n_vars();
        if psi.is_empty() {
            return empty_universe(n);
        }
        // Branch-and-bound with the pairwise triangle-inequality bound —
        // far stronger than the bare monotone bound for the max aggregate.
        select_min_universe_odist(n, psi.as_slice(), budget)
    }
}

impl LexOdistFitting {
    /// `ψ ▷ ⊤` under `budget`: the smallest odist minimum, read from the
    /// odist selection. Cut short, the smallest incumbent plus the
    /// frontier still holds it: either the exact minimum was visited, and
    /// then every incumbent is an exact minimum, or it is in the frontier.
    pub fn apply_universe(&self, psi: &ModelSet, budget: &Budget) -> Result<Outcome, CoreError> {
        let mut sel = OdistFitting.select_universe(psi, budget)?;
        let first = sel.minima.iter().next();
        sel.minima = ModelSet::new(psi.n_vars(), first);
        Ok(sel.into_outcome(budget))
    }
}

impl SumFitting {
    /// `ψ ▷ ⊤` under `budget`: the per-bit majority of `Mod(ψ)`, in
    /// closed form — no universe scan.
    pub fn apply_universe(&self, psi: &ModelSet, budget: &Budget) -> Result<Outcome, CoreError> {
        let n = psi.n_vars();
        let sel = if psi.is_empty() {
            empty_universe(n)?
        } else {
            VoteTally::of(n, psi.iter().map(|j| (j, 1))).universe_minima(budget)?
        };
        Ok(sel.into_outcome(budget))
    }
}

impl GMaxFitting {
    /// `ψ ▷ ⊤` under `budget` (see the [module docs](self)).
    pub fn apply_universe(&self, psi: &ModelSet, budget: &Budget) -> Result<Outcome, CoreError> {
        let n = psi.n_vars();
        let Some(prof) = PopProfile::of(psi) else {
            return Ok(empty_universe::<Vec<u32>>(n)?.into_outcome(budget));
        };
        CoreError::check_enum_limit(n)?;
        // Streamed but sequential: the buffer-reusing vector selection
        // keeps allocation flat, which matters more here than chunking.
        Ok(select_min_vec(
            n,
            all_interps(n),
            |i, cap, buf| gmax_fill_pruned(psi.as_slice(), &prof, i, cap, buf),
            budget,
        )
        .into_outcome(budget))
    }
}

impl WdistFitting {
    /// `ψ̃ ▷ 𝓜̃` under `budget`, where `𝓜̃` is the weighted knowledge base
    /// with weight 1 everywhere: the per-bit weighted majority of ψ̃
    /// (Example 4.1's majority), in closed form — no universe scan.
    /// Minimizers and (on degradation) frontier members alike enter the
    /// result with their `𝓜̃` weight, 1.
    pub fn apply_universe(
        &self,
        psi: &WeightedKb,
        budget: &Budget,
    ) -> Result<WeightedOutcome, CoreError> {
        crate::telemetry::WDIST_APPLICATIONS.incr();
        let n = psi.n_vars();
        let sel = if psi.is_satisfiable() {
            crate::telemetry::WSUPPORT_SCANNED.add(psi.support_size() as u64);
            VoteTally::of(n, psi.support()).universe_minima(budget)?
        } else {
            empty_universe(n)?
        };
        Ok(sel.into_weighted_outcome(budget, |_| 1))
    }
}

/// Arbitration `ψ Δ φ = (ψ ∨ φ) ▷ 𝓜` with the paper's [`OdistFitting`],
/// as a [`ChangeOperator`] for the postulate harness.
///
/// ```
/// use arbitrex_core::{Arbitration, ChangeOperator};
/// use arbitrex_logic::{Interp, ModelSet};
/// let psi = ModelSet::new(2, [Interp(0b00)]);
/// let phi = ModelSet::new(2, [Interp(0b11)]);
/// let both_ways = (
///     Arbitration.apply(&psi, &phi),
///     Arbitration.apply(&phi, &psi),
/// );
/// assert_eq!(both_ways.0, both_ways.1); // commutative
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Arbitration;

impl ChangeOperator for Arbitration {
    fn name(&self) -> &'static str {
        "arbitration"
    }

    fn apply(&self, psi: &ModelSet, phi: &ModelSet) -> ModelSet {
        // invariant: deliberate documented panic — the trait's infallible
        // convenience entry; fallible callers use try_arbitrate_with_budget.
        try_arbitrate_with_budget(psi, phi, &Budget::unlimited())
            .expect(
                "signature exceeds ENUM_LIMIT; use try_arbitrate_with_budget or the SAT backend",
            )
            .models
    }
}

/// Convenience: arbitrate with the paper's odist-based fitting.
///
/// Panics past [`arbitrex_logic::ENUM_LIMIT`]; use
/// [`try_arbitrate_with_budget`] to handle wide signatures gracefully.
///
/// Example 3.1 as an arbitration `ψ Δ μ = (ψ ∨ μ) ▷ ⊤`: the three
/// teachers and the two offers arbitrate to the same consensus the
/// fitting picks, here found by searching the whole universe:
///
/// ```
/// use arbitrex_core::arbitrate;
/// use arbitrex_logic::{Interp, ModelSet};
/// // S = bit0, D = bit1, Q = bit2.
/// let psi = ModelSet::new(3, [Interp(0b001), Interp(0b010), Interp(0b111)]);
/// let phi = ModelSet::new(3, [Interp(0b010), Interp(0b011)]);
/// assert_eq!(arbitrate(&psi, &phi).as_singleton(), Some(Interp(0b011)));
/// assert_eq!(arbitrate(&phi, &psi), arbitrate(&psi, &phi)); // commutative
/// ```
pub fn arbitrate(psi: &ModelSet, phi: &ModelSet) -> ModelSet {
    Arbitration.apply(psi, phi)
}

/// `ψ Δ φ` under a [`Budget`]: a typed, degrade-gracefully variant of
/// [`arbitrate`] that returns an [`Outcome`] instead of running to
/// completion, and a typed error instead of panicking past the
/// enumeration limit.
///
/// With [`Budget::unlimited`] the result is bit-identical to
/// [`arbitrate`]; when the budget trips, the outcome's
/// [`Quality`](crate::budget::Quality) states the containment contract the
/// returned models satisfy.
///
/// ```
/// use arbitrex_core::{arbitrate, try_arbitrate_with_budget, Budget, CoreError};
/// use arbitrex_logic::{Interp, ModelSet, ENUM_LIMIT};
/// // Example 3.1 (S = bit0, D = bit1, Q = bit2): consensus is {S,D}.
/// let psi = ModelSet::new(3, [Interp(0b001), Interp(0b010), Interp(0b111)]);
/// let phi = ModelSet::new(3, [Interp(0b010), Interp(0b011)]);
/// let out = try_arbitrate_with_budget(&psi, &phi, &Budget::unlimited()).unwrap();
/// assert!(out.is_exact());
/// assert_eq!(out.models.as_singleton(), Some(Interp(0b011)));
/// assert_eq!(out.models, arbitrate(&psi, &phi));
/// // Past the enumeration limit the same call reports a typed error.
/// let wide = ModelSet::new(ENUM_LIMIT + 1, [Interp(0)]);
/// assert!(matches!(
///     try_arbitrate_with_budget(&wide, &wide, &Budget::unlimited()),
///     Err(CoreError::EnumLimitExceeded { .. })
/// ));
/// ```
pub fn try_arbitrate_with_budget(
    psi: &ModelSet,
    phi: &ModelSet,
    budget: &Budget,
) -> Result<Outcome, CoreError> {
    OdistFitting.apply_universe(&psi.union(phi), budget)
}

/// A folk alternative for comparison: symmetrized revision
/// `ψ ▽ φ = (ψ ∘ φ) ∨ (φ ∘ ψ)` — "each side concedes to the other, keep
/// both compromises".
///
/// Commutative by construction, so it shares arbitration's headline
/// symmetry — but it is **not** a model-fitting operator: its results live
/// inside `Mod(ψ) ∪ Mod(φ)` (each revision satisfies (R1)), so it can
/// never propose a genuinely new compromise interpretation the way
/// `Δ` does (e.g. the midpoints between two far-apart camps), and the
/// postulate harness exhibits (A8)/(A5) failures. Included as a baseline
/// for the experiments: symmetry alone does not make an arbitration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SymmetricRevision<R = crate::revision::DalalRevision> {
    revision: R,
}

impl<R: ChangeOperator> SymmetricRevision<R> {
    /// Symmetrize the given revision operator.
    pub fn new(revision: R) -> Self {
        SymmetricRevision { revision }
    }
}

impl<R: ChangeOperator> ChangeOperator for SymmetricRevision<R> {
    fn name(&self) -> &'static str {
        "symmetric-revision"
    }

    fn apply(&self, psi: &ModelSet, phi: &ModelSet) -> ModelSet {
        self.revision
            .apply(psi, phi)
            .union(&self.revision.apply(phi, psi))
    }
}

/// Weighted arbitration (Section 4): `ψ̃ Δ φ̃ = (ψ̃ ⊔ φ̃) ▷ 𝓜̃` with the
/// paper's [`WdistFitting`], where `𝓜̃` has weight 1 everywhere. Weighted
/// disjunction *adds* weights, so repeated voices genuinely count double —
/// the majority semantics of Example 4.1.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightedArbitration;

impl WeightedChangeOperator for WeightedArbitration {
    fn name(&self) -> &'static str {
        "weighted-arbitration"
    }

    fn apply(&self, psi: &WeightedKb, phi: &WeightedKb) -> WeightedKb {
        // invariant: deliberate documented panic — the trait's infallible
        // convenience entry; fallible callers use try_warbitrate_with_budget.
        try_warbitrate_with_budget(psi, phi, &Budget::unlimited())
            .expect(
                "signature exceeds ENUM_LIMIT; use try_warbitrate_with_budget or the SAT backend",
            )
            .kb
    }
}

/// Convenience: weighted arbitration with the paper's wdist-based fitting.
///
/// Panics past [`arbitrex_logic::ENUM_LIMIT`]; use
/// [`try_warbitrate_with_budget`] to handle wide signatures gracefully.
///
/// Example 4.1 as a weighted arbitration: the 35 students' weighted theory
/// joined with the unit-weight offer still singles out `{D}` — the
/// 20-strong Datalog majority outvotes the compromise `{S,D}`:
///
/// ```
/// use arbitrex_core::{warbitrate, WeightedKb};
/// use arbitrex_logic::Interp;
/// // S = bit0, D = bit1, Q = bit2.
/// let psi = WeightedKb::from_weights(3, [
///     (Interp(0b001), 10), // SQL only
///     (Interp(0b010), 20), // Datalog only
///     (Interp(0b111), 5),  // all three
/// ]);
/// let offer = WeightedKb::from_weights(3, [(Interp(0b010), 1), (Interp(0b011), 1)]);
/// let consensus = warbitrate(&psi, &offer);
/// assert_eq!(consensus.support_set().as_singleton(), Some(Interp(0b010)));
/// ```
pub fn warbitrate(psi: &WeightedKb, phi: &WeightedKb) -> WeightedKb {
    WeightedArbitration.apply(psi, phi)
}

/// `ψ̃ Δ φ̃` under a [`Budget`]: a typed, degrade-gracefully variant of
/// [`warbitrate`] that returns a [`WeightedOutcome`] instead of running to
/// completion, and a typed error instead of panicking past the
/// enumeration limit. With [`Budget::unlimited`] the result is
/// bit-identical to [`warbitrate`].
///
/// ```
/// use arbitrex_core::{try_warbitrate_with_budget, Budget, CoreError, WeightedKb};
/// use arbitrex_logic::{Interp, ENUM_LIMIT};
/// // The Example 4.1 outcome, via the fallible path.
/// let psi = WeightedKb::from_weights(3, [
///     (Interp(0b001), 10), (Interp(0b010), 20), (Interp(0b111), 5),
/// ]);
/// let offer = WeightedKb::from_weights(3, [(Interp(0b010), 1), (Interp(0b011), 1)]);
/// let out = try_warbitrate_with_budget(&psi, &offer, &Budget::unlimited()).unwrap();
/// assert!(out.is_exact());
/// assert_eq!(out.kb.support_set().as_singleton(), Some(Interp(0b010)));
/// // Past the enumeration limit the same call reports a typed error.
/// let wide = WeightedKb::from_weights(ENUM_LIMIT + 1, [(Interp(0), 1)]);
/// assert!(matches!(
///     try_warbitrate_with_budget(&wide, &wide, &Budget::unlimited()),
///     Err(CoreError::EnumLimitExceeded { .. })
/// ));
/// ```
pub fn try_warbitrate_with_budget(
    psi: &WeightedKb,
    phi: &WeightedKb,
    budget: &Budget,
) -> Result<WeightedOutcome, CoreError> {
    WdistFitting.apply_universe(&psi.join(phi), budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitrex_logic::Interp;

    fn i(bits: u64) -> Interp {
        Interp(bits)
    }

    fn ms(n: u32, bits: &[u64]) -> ModelSet {
        ModelSet::new(n, bits.iter().map(|&b| Interp(b)))
    }

    #[test]
    fn arbitration_is_commutative_exhaustive_n2() {
        let arb = Arbitration;
        for pmask in 0u32..16 {
            for qmask in 0u32..16 {
                let psi = ModelSet::new(2, (0..4u64).filter(|b| pmask >> b & 1 == 1).map(Interp));
                let phi = ModelSet::new(2, (0..4u64).filter(|b| qmask >> b & 1 == 1).map(Interp));
                assert_eq!(arb.apply(&psi, &phi), arb.apply(&phi, &psi));
            }
        }
    }

    #[test]
    fn arbitration_between_opposite_corners_meets_in_the_middle() {
        // ψ = {∅}, φ = {{a,b}}: the consensus minimizes the max distance,
        // which the two middle points achieve (max 1 each).
        let psi = ms(2, &[0b00]);
        let phi = ms(2, &[0b11]);
        let got = arbitrate(&psi, &phi);
        assert_eq!(got, ms(2, &[0b01, 0b10]));
    }

    #[test]
    fn arbitration_of_agreeing_theories_is_their_models() {
        let psi = ms(2, &[0b01]);
        let got = arbitrate(&psi, &psi);
        assert_eq!(got, psi);
    }

    #[test]
    fn jury_scenario_unweighted_treats_voices_equally() {
        // Nine witnesses say "A started it" ({A}), two say "B" ({B}).
        // Unweighted arbitration cannot see the 9-vs-2 majority: the voices
        // deduplicate to {A} vs {B} and the consensus is symmetric.
        let nine = ms(2, &[0b01]);
        let two = ms(2, &[0b10]);
        let got = arbitrate(&nine, &two);
        // Candidates: odist over {A},{B}: ∅->1? dist(00,01)=1, dist(00,10)=1
        // -> max 1; {A}-> max(0,2)=2; {B}->2; {A,B}->max(1,1)=1.
        assert_eq!(got, ms(2, &[0b00, 0b11]));
    }

    #[test]
    fn jury_scenario_weighted_respects_the_majority() {
        // Same jury with weights 9 and 2: the majority verdict {A} wins.
        let nine = WeightedKb::from_weights(2, [(i(0b01), 9)]);
        let two = WeightedKb::from_weights(2, [(i(0b10), 2)]);
        let got = warbitrate(&nine, &two);
        // wdist to candidates: {A}: 0*9+2*2=4; {B}: 2*9+0*2=18;
        // ∅: 9+2=11; {A,B}: 9+2=11.
        assert_eq!(got.support_size(), 1);
        assert_eq!(got.weight(i(0b01)), 1);
    }

    #[test]
    fn weighted_arbitration_is_commutative() {
        let a = WeightedKb::from_weights(2, [(i(0b00), 3), (i(0b01), 1)]);
        let b = WeightedKb::from_weights(2, [(i(0b11), 5)]);
        assert_eq!(warbitrate(&a, &b), warbitrate(&b, &a));
    }

    #[test]
    fn arbitration_with_unsatisfiable_voice() {
        // ψ ∨ ⊥ = ψ, so arbitrating with ⊥ fits to ψ alone.
        let psi = ms(2, &[0b01]);
        let got = arbitrate(&psi, &ModelSet::empty(2));
        assert_eq!(got, psi);
        // Both unsatisfiable: (A2) applies — empty result.
        assert!(arbitrate(&ModelSet::empty(2), &ModelSet::empty(2)).is_empty());
    }

    #[test]
    fn symmetric_revision_is_commutative_but_not_fitting() {
        let sym = SymmetricRevision::<crate::revision::DalalRevision>::default();
        // Commutative on the whole 2-variable universe.
        for pmask in 0u32..16 {
            for qmask in 0u32..16 {
                let psi = ModelSet::new(2, (0..4u64).filter(|b| pmask >> b & 1 == 1).map(Interp));
                let phi = ModelSet::new(2, (0..4u64).filter(|b| qmask >> b & 1 == 1).map(Interp));
                assert_eq!(sym.apply(&psi, &phi), sym.apply(&phi, &psi));
            }
        }
        // But it cannot create compromise interpretations: two far corners
        // over 4 vars yield only the corners themselves, never midpoints.
        let psi = ms(4, &[0b0000]);
        let phi = ms(4, &[0b1111]);
        let sym_result = sym.apply(&psi, &phi);
        assert_eq!(sym_result, ms(4, &[0b0000, 0b1111]));
        let delta = arbitrate(&psi, &phi);
        assert!(
            delta.iter().all(|i| i.count_true() == 2),
            "Δ finds midpoints"
        );
        // And the A-axioms reject it.
        use crate::postulates::harness::check_exhaustive;
        use crate::postulates::PostulateId;
        assert!(
            check_exhaustive(&sym, &[PostulateId::A5], 2).is_err()
                || check_exhaustive(&sym, &[PostulateId::A8], 2).is_err()
        );
    }

    #[test]
    fn try_arbitrate_reports_enum_limit_as_typed_error() {
        use arbitrex_logic::ENUM_LIMIT;
        let n = ENUM_LIMIT + 1;
        let psi = ms(n, &[0b0]);
        let phi = ms(n, &[0b1]);
        let b = Budget::unlimited();
        let err = try_arbitrate_with_budget(&psi, &phi, &b).unwrap_err();
        assert_eq!(
            err,
            CoreError::EnumLimitExceeded {
                n_vars: n,
                limit: ENUM_LIMIT
            }
        );
        assert!(err.to_string().contains("SAT backend"));
        // The weighted side and the empty-ψ path report the same error.
        let wpsi = WeightedKb::from_weights(n, [(i(0), 1)]);
        let wphi = WeightedKb::from_weights(n, [(i(1), 1)]);
        assert!(try_warbitrate_with_budget(&wpsi, &wphi, &b).is_err());
        assert!(try_arbitrate_with_budget(&ModelSet::empty(n), &ModelSet::empty(n), &b).is_err());
    }

    #[test]
    fn try_arbitrate_matches_arbitrate_inside_the_limit() {
        let b = Budget::unlimited();
        let psi = ms(2, &[0b00]);
        let phi = ms(2, &[0b11]);
        assert_eq!(
            try_arbitrate_with_budget(&psi, &phi, &b).unwrap().models,
            arbitrate(&psi, &phi)
        );
        let wa = WeightedKb::from_weights(2, [(i(0b01), 9)]);
        let wb = WeightedKb::from_weights(2, [(i(0b10), 2)]);
        assert_eq!(
            try_warbitrate_with_budget(&wa, &wb, &b).unwrap().kb,
            warbitrate(&wa, &wb)
        );
    }

    #[test]
    fn streaming_universe_fitting_matches_materialized_default() {
        // Each streaming universe fitting must agree with materializing
        // Mod(⊤) and calling apply, on every non-empty ψ at n = 3.
        fn materialized<F: ChangeOperator>(f: &F, psi: &ModelSet) -> ModelSet {
            f.apply(psi, &ModelSet::all(psi.n_vars()))
        }
        let b = Budget::unlimited();
        for pmask in 1u32..=255 {
            let psi = ModelSet::new(3, (0..8u64).filter(|b| pmask >> b & 1 == 1).map(Interp));
            assert_eq!(
                OdistFitting.apply_universe(&psi, &b).unwrap().models,
                materialized(&OdistFitting, &psi)
            );
            assert_eq!(
                LexOdistFitting.apply_universe(&psi, &b).unwrap().models,
                materialized(&LexOdistFitting, &psi)
            );
            assert_eq!(
                SumFitting.apply_universe(&psi, &b).unwrap().models,
                materialized(&SumFitting, &psi)
            );
            assert_eq!(
                GMaxFitting.apply_universe(&psi, &b).unwrap().models,
                materialized(&GMaxFitting, &psi)
            );
        }
        // Weighted: random-ish weights over a few supports.
        for seed in 1u64..=32 {
            let a = seed.wrapping_mul(0x9E3779B97F4A7C15);
            let psi = WeightedKb::from_weights(
                3,
                (0..4).map(|k| (Interp(a >> (k * 3) & 0b111), (a >> (k * 7) & 0b11) + 1)),
            );
            assert_eq!(
                WdistFitting.apply_universe(&psi, &b).unwrap().kb,
                WdistFitting.apply(&psi, &WeightedKb::all(3))
            );
        }
    }

    #[test]
    fn custom_fitting_changes_the_consensus() {
        // Majority 2-vs-1 between ∅-ish voices and a far corner.
        let psi = ms(4, &[0b0000, 0b1000]);
        let phi = ms(4, &[0b1111]);
        let egalitarian = Arbitration.apply(&psi, &phi);
        let majority = SumFitting
            .apply_universe(&psi.union(&phi), &Budget::unlimited())
            .unwrap()
            .models;
        assert_ne!(egalitarian, majority);
    }

    #[test]
    fn budgeted_arbitration_unconstrained_matches_exact() {
        let psi = ms(3, &[0b001, 0b010, 0b111]);
        let phi = ms(3, &[0b010, 0b011]);
        let out = try_arbitrate_with_budget(&psi, &phi, &Budget::unlimited()).unwrap();
        assert!(out.is_exact());
        assert_eq!(out.models, crate::kernel::naive::arbitrate(&psi, &phi));
        // Each fitting's unlimited universe selection is exact.
        let pool = psi.union(&phi);
        let all = ModelSet::all(3);
        for check in [
            (
                OdistFitting.apply(&pool, &all),
                OdistFitting.apply_universe(&pool, &Budget::unlimited()),
            ),
            (
                LexOdistFitting.apply(&pool, &all),
                LexOdistFitting.apply_universe(&pool, &Budget::unlimited()),
            ),
            (
                SumFitting.apply(&pool, &all),
                SumFitting.apply_universe(&pool, &Budget::unlimited()),
            ),
            (
                GMaxFitting.apply(&pool, &all),
                GMaxFitting.apply_universe(&pool, &Budget::unlimited()),
            ),
        ] {
            let out = check.1.unwrap();
            assert!(out.is_exact());
            assert_eq!(out.models, check.0);
        }
    }

    #[test]
    fn unlimited_budget_meters_the_branch_and_bound() {
        use crate::budget::Budget;
        // Two models at n = 16 take the odist branch-and-bound; an
        // unlimited budget runs that same metered search and the outcome
        // reports the nodes it opened.
        let psi = ms(16, &[0b0000_0000_0111]);
        let phi = ms(16, &[0b1111_0000_0000_1010]);
        let out = try_arbitrate_with_budget(&psi, &phi, &Budget::unlimited()).unwrap();
        assert!(out.is_exact());
        assert_eq!(out.models, arbitrate(&psi, &phi));
        assert_eq!(out.models, crate::kernel::naive::arbitrate(&psi, &phi));
        assert!(out.spent.nodes > 0, "{:?}", out.spent);
    }

    #[test]
    fn budgeted_arbitration_fault_keeps_containment() {
        use crate::budget::{Budget, BudgetSite, FaultPlan, Quality, TripReason};
        let psi = ms(3, &[0b001, 0b010, 0b111]);
        let phi = ms(3, &[0b010, 0b011]);
        let exact = arbitrate(&psi, &phi);
        for at in [1, 3, 6] {
            let b = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, at));
            let out = try_arbitrate_with_budget(&psi, &phi, &b).unwrap();
            assert_eq!(out.quality, Quality::UpperBound);
            assert_eq!(out.spent.trip.unwrap().reason, TripReason::Fault);
            for m in exact.iter() {
                assert!(out.models.contains(m), "lost exact minimum {m:?} at {at}");
            }
        }
    }

    #[test]
    fn budgeted_warbitration_unconstrained_and_faulted() {
        use crate::budget::{Budget, BudgetSite, FaultPlan, Quality, TripReason};
        let psi = WeightedKb::from_weights(3, [(i(0b001), 10), (i(0b010), 20), (i(0b111), 5)]);
        let offer = WeightedKb::from_weights(3, [(i(0b010), 1), (i(0b011), 1)]);
        let exact = warbitrate(&psi, &offer);
        let out = try_warbitrate_with_budget(&psi, &offer, &Budget::unlimited()).unwrap();
        assert!(out.is_exact());
        assert_eq!(out.kb, exact);
        // The closed form ticks once per minimum it emits, and Example
        // 4.1 has one: a fault at the first tick leaves it in the
        // frontier, a later fault never fires.
        let b = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, 1));
        let degraded = try_warbitrate_with_budget(&psi, &offer, &b).unwrap();
        assert_eq!(degraded.quality, Quality::UpperBound);
        assert_eq!(degraded.spent.trip.unwrap().reason, TripReason::Fault);
        assert_eq!(degraded.kb, exact);
        let b = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, 4));
        let late = try_warbitrate_with_budget(&psi, &offer, &b).unwrap();
        assert!(late.is_exact());
        assert_eq!(late.kb, exact);
    }
}
