//! Update operators (the Katsuno–Mendelzon family).
//!
//! Update treats the new information as more *recent*: the world has
//! changed, and each possible world (model of `ψ`) is brought forward to
//! its own closest models of `μ`, then the results are unioned — postulate
//! (U8) makes this per-model locality an axiom, which is exactly what
//! Theorem 3.2 shows to be incompatible with both (R1–R3) and (A8).
//!
//! Convention for inconsistent `ψ`: the union over zero models is empty
//! (`⊥ ⋄ μ = ⊥`), the standard KM reading — you cannot update worlds you
//! do not have.

use crate::budget::{Budget, BudgetSite, BudgetedChangeOperator, Outcome};
use crate::kernel::BudgetedSelect;
use crate::operator::ChangeOperator;
use crate::revision::pma_select;
use arbitrex_logic::{Interp, ModelSet};

/// The union over every world `j` of ψ of `select_world(j)`, which appends
/// `j`'s closest models of μ to its output.
///
/// One [`BudgetSite::Scan`] tick per world (each world's selection scans
/// all of μ). On exhaustion the exact result is abandoned: every per-world
/// selection implies μ, so μ itself is the natural sound
/// over-approximation — unlike the kernel scans there is no partial
/// frontier to keep.
fn per_world(
    psi: &ModelSet,
    mu: &ModelSet,
    budget: &Budget,
    mut select_world: impl FnMut(Interp, &mut Vec<Interp>),
) -> BudgetedSelect<()> {
    let mut meter = budget.meter(BudgetSite::Scan);
    let mut out: Vec<Interp> = Vec::new();
    for j in psi.iter() {
        if let Err(t) = meter.tick() {
            return BudgetedSelect {
                best: None,
                minima: ModelSet::empty(mu.n_vars()),
                frontier: Some(mu.iter().collect()),
                trip: Some(t),
            };
        }
        select_world(j, &mut out);
    }
    BudgetedSelect::exact(None, ModelSet::new(mu.n_vars(), out))
}

/// Winslett's possible-models-approach update (propositional
/// simplification): each model `J` of `ψ` keeps the models of `μ` whose
/// change set `I Δ J` is ⊆-minimal; results are unioned. Satisfies U1–U8.
///
/// On Example 3.1 update refuses to choose: each teacher's world moves to
/// its own closest offer ({S} and {S,D,Q} both land on {S,D}, {D} stays
/// put), and the union keeps *both* offers — per-world locality (U8)
/// cannot deliver the single consensus arbitration finds:
///
/// ```
/// use arbitrex_core::{ChangeOperator, WinslettUpdate};
/// use arbitrex_logic::{Interp, ModelSet};
/// // S = bit0, D = bit1, Q = bit2.
/// let psi = ModelSet::new(3, [Interp(0b001), Interp(0b010), Interp(0b111)]);
/// let mu = ModelSet::new(3, [Interp(0b010), Interp(0b011)]);
/// let updated = WinslettUpdate.apply(&psi, &mu);
/// assert_eq!(updated, mu); // both offers survive
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct WinslettUpdate;

impl WinslettUpdate {
    fn select(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> BudgetedSelect<()> {
        per_world(psi, mu, budget, |j, out| out.extend(pma_select(mu, j)))
    }
}

impl ChangeOperator for WinslettUpdate {
    fn name(&self) -> &'static str {
        "winslett-update"
    }

    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        self.select(psi, mu, &Budget::unlimited()).minima
    }
}

impl BudgetedChangeOperator for WinslettUpdate {
    fn apply_with_budget(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> Outcome {
        self.select(psi, mu, budget).into_outcome(budget)
    }
}

/// Forbus' update: like Winslett but with minimal Hamming *cardinality*
/// per model instead of ⊆-minimal change sets.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForbusUpdate;

impl ForbusUpdate {
    fn select(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> BudgetedSelect<()> {
        // Single pass over μ per world: running minimum plus tied set,
        // instead of a min pass followed by a filter pass re-computing
        // every distance.
        let mut tied: Vec<Interp> = Vec::new();
        per_world(psi, mu, budget, |j, out| {
            let mut best = u32::MAX;
            tied.clear();
            for i in mu.iter() {
                let d = i.dist(j);
                if d < best {
                    best = d;
                    tied.clear();
                    tied.push(i);
                } else if d == best {
                    tied.push(i);
                }
            }
            out.extend_from_slice(&tied);
        })
    }
}

impl ChangeOperator for ForbusUpdate {
    fn name(&self) -> &'static str {
        "forbus-update"
    }

    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        self.select(psi, mu, &Budget::unlimited()).minima
    }
}

impl BudgetedChangeOperator for ForbusUpdate {
    fn apply_with_budget(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> Outcome {
        self.select(psi, mu, budget).into_outcome(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u32, bits: &[u64]) -> ModelSet {
        ModelSet::new(n, bits.iter().map(|&b| Interp(b)))
    }

    #[test]
    fn update_of_inconsistent_kb_is_empty() {
        let mu = ms(2, &[0b01, 0b10]);
        assert!(WinslettUpdate.apply(&ModelSet::empty(2), &mu).is_empty());
        assert!(ForbusUpdate.apply(&ModelSet::empty(2), &mu).is_empty());
    }

    #[test]
    fn result_implies_mu() {
        let psi = ms(3, &[0b000, 0b111]);
        let mu = ms(3, &[0b001, 0b010, 0b100]);
        for op in [&WinslettUpdate as &dyn ChangeOperator, &ForbusUpdate] {
            assert!(op.apply(&psi, &mu).implies(&mu), "{}", op.name());
        }
    }

    #[test]
    fn u2_when_psi_implies_mu_update_is_psi() {
        let psi = ms(3, &[0b001, 0b010]);
        let mu = ms(3, &[0b001, 0b010, 0b100]);
        for op in [&WinslettUpdate as &dyn ChangeOperator, &ForbusUpdate] {
            assert_eq!(op.apply(&psi, &mu), psi, "{}", op.name());
        }
    }

    #[test]
    fn update_differs_from_revision_on_disjunctive_kb() {
        // The classic KM book example shape: ψ = {∅, {a,b}}, μ = {{a}}.
        // Revision picks µ's closest to the *whole* KB; update moves every
        // world, so both worlds land on {a} here — but with
        // μ = {{a},{b}} each world chooses its own target:
        let psi = ms(2, &[0b00, 0b11]);
        let mu = ms(2, &[0b01, 0b10]);
        // From ∅: diffs {a},{b} both minimal; from {a,b}: diffs {b},{a}
        // both minimal — update keeps both models of μ.
        assert_eq!(WinslettUpdate.apply(&psi, &mu), mu);
        assert_eq!(ForbusUpdate.apply(&psi, &mu), mu);
        // Dalal revision also keeps both (dist 1 each); the separation
        // shows up under U8-style decomposition (see postulates tests).
    }

    #[test]
    fn u8_distributes_over_kb_disjunction() {
        let psi1 = ms(3, &[0b000]);
        let psi2 = ms(3, &[0b011]);
        let mu = ms(3, &[0b001, 0b111]);
        for op in [&WinslettUpdate as &dyn ChangeOperator, &ForbusUpdate] {
            let whole = op.apply(&psi1.union(&psi2), &mu);
            let parts = op.apply(&psi1, &mu).union(&op.apply(&psi2, &mu));
            assert_eq!(whole, parts, "{}", op.name());
        }
    }

    #[test]
    fn winslett_vs_forbus_subset_vs_cardinality() {
        // ψ = {∅}; μ = {{a}, {b,c}}: Winslett keeps both (⊆-incomparable),
        // Forbus keeps only {a} (1 < 2).
        let psi = ms(3, &[0b000]);
        let mu = ms(3, &[0b001, 0b110]);
        assert_eq!(WinslettUpdate.apply(&psi, &mu), mu);
        assert_eq!(ForbusUpdate.apply(&psi, &mu), ms(3, &[0b001]));
    }

    #[test]
    fn empty_mu_yields_empty() {
        let psi = ms(2, &[0b00]);
        for op in [&WinslettUpdate as &dyn ChangeOperator, &ForbusUpdate] {
            assert!(op.apply(&psi, &ModelSet::empty(2)).is_empty());
        }
    }
}
