//! Revision operators (the AGM family, propositional KM formulation).
//!
//! These are the baselines the paper positions arbitration against: Dalal,
//! Satoh, Borgida, Weber, and drastic (full-meet) revision, each in its
//! standard model-theoretic form. All treat the *new* information `μ` as
//! more reliable than the knowledge base `ψ` — postulate (R2) forces
//! `ψ ∘ μ = ψ ∧ μ` whenever the two are jointly satisfiable, which is
//! exactly what Theorem 3.2 shows to be incompatible with arbitration's
//! (A8).
//!
//! Convention for inconsistent `ψ`: every operator returns `Mod(μ)` (the
//! knowledge base carries no usable information, the new information is
//! fully trusted). This satisfies R1–R6.

use crate::budget::{Budget, BudgetedChangeOperator, Outcome};
use crate::kernel::{min_dist_pruned, select_min, BudgetedSelect, PopProfile};
use crate::operator::ChangeOperator;
use arbitrex_logic::{Interp, ModelSet};

/// Dalal's revision: keep the models of `μ` at minimal Hamming distance
/// from the nearest model of `ψ`. Proven in \[KM91\] to satisfy R1–R6.
///
/// On Example 3.1 revision picks `{D}` — the offer closest to *some*
/// teacher (the Datalog teacher gets their way exactly) — where the
/// paper's arbitration picks the egalitarian `{S,D}`:
///
/// ```
/// use arbitrex_core::{ChangeOperator, DalalRevision};
/// use arbitrex_logic::{Interp, ModelSet};
/// // S = bit0, D = bit1, Q = bit2.
/// let psi = ModelSet::new(3, [Interp(0b001), Interp(0b010), Interp(0b111)]);
/// let mu = ModelSet::new(3, [Interp(0b010), Interp(0b011)]);
/// let revised = DalalRevision.apply(&psi, &mu);
/// assert_eq!(revised.as_singleton(), Some(Interp(0b010))); // {D}, dist 0
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DalalRevision;

impl DalalRevision {
    fn select(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> BudgetedSelect<u32> {
        let Some(prof) = PopProfile::of(psi) else {
            return BudgetedSelect::exact(None, mu.clone());
        };
        select_min(
            mu.n_vars(),
            mu.iter(),
            |i, cap| min_dist_pruned(psi.as_slice(), &prof, i, cap.copied()),
            budget,
        )
    }
}

impl ChangeOperator for DalalRevision {
    fn name(&self) -> &'static str {
        "dalal-revision"
    }

    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        self.select(psi, mu, &Budget::unlimited()).minima
    }
}

impl BudgetedChangeOperator for DalalRevision {
    fn apply_with_budget(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> Outcome {
        self.select(psi, mu, budget).into_outcome(budget)
    }
}

/// Satoh's revision: keep the models of `μ` whose symmetric difference with
/// some model of `ψ` is set-inclusion minimal among *all* such differences.
#[derive(Debug, Clone, Copy, Default)]
pub struct SatohRevision;

/// The ⊆-minimal elements of a set of difference masks.
fn subset_minimal(masks: &[u64]) -> Vec<u64> {
    masks
        .iter()
        .copied()
        .filter(|&m| !masks.iter().any(|&other| other != m && other & !m == 0))
        .collect()
}

impl ChangeOperator for SatohRevision {
    fn name(&self) -> &'static str {
        "satoh-revision"
    }

    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        if psi.is_empty() {
            return mu.clone();
        }
        let mut diffs: Vec<u64> = Vec::new();
        for i in mu.iter() {
            for j in psi.iter() {
                diffs.push(i.diff_mask(j));
            }
        }
        diffs.sort_unstable();
        diffs.dedup();
        let minimal = subset_minimal(&diffs);
        let keep = mu
            .iter()
            .filter(|&i| psi.iter().any(|j| minimal.contains(&i.diff_mask(j))));
        ModelSet::new(mu.n_vars(), keep)
    }
}

/// Borgida's revision: the conjunction when consistent; otherwise each model
/// of `ψ` selects its own ⊆-minimal-difference models of `μ` (like Winslett
/// update), and the results are unioned.
#[derive(Debug, Clone, Copy, Default)]
pub struct BorgidaRevision;

/// The models of `mu` whose difference with the single interpretation `j`
/// is ⊆-minimal among all models of `mu` — Winslett's PMA selection, shared
/// by Borgida revision and Winslett update.
pub(crate) fn pma_select(mu: &ModelSet, j: Interp) -> Vec<Interp> {
    // Compute each difference mask once and carry it alongside its model —
    // the filter pass previously re-XOR'd every candidate.
    let paired: Vec<(Interp, u64)> = mu.iter().map(|i| (i, i.diff_mask(j))).collect();
    let mut sorted: Vec<u64> = paired.iter().map(|&(_, m)| m).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let minimal = subset_minimal(&sorted);
    paired
        .into_iter()
        .filter(|(_, m)| minimal.contains(m))
        .map(|(i, _)| i)
        .collect()
}

impl ChangeOperator for BorgidaRevision {
    fn name(&self) -> &'static str {
        "borgida-revision"
    }

    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        if psi.is_empty() {
            return mu.clone();
        }
        let both = psi.intersect(mu);
        if !both.is_empty() {
            return both;
        }
        let mut out: Vec<Interp> = Vec::new();
        for j in psi.iter() {
            out.extend(pma_select(mu, j));
        }
        ModelSet::new(mu.n_vars(), out)
    }
}

/// Weber's revision: take the union `D` of all of Satoh's ⊆-minimal
/// difference sets; keep the models of `μ` that agree with some model of
/// `ψ` on every variable outside `D`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeberRevision;

impl ChangeOperator for WeberRevision {
    fn name(&self) -> &'static str {
        "weber-revision"
    }

    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        if psi.is_empty() {
            return mu.clone();
        }
        let mut diffs: Vec<u64> = Vec::new();
        for i in mu.iter() {
            for j in psi.iter() {
                diffs.push(i.diff_mask(j));
            }
        }
        diffs.sort_unstable();
        diffs.dedup();
        let d_union: u64 = subset_minimal(&diffs).into_iter().fold(0, |a, m| a | m);
        let outside = !d_union;
        let keep = mu
            .iter()
            .filter(|&i| psi.iter().any(|j| (i.0 ^ j.0) & outside == 0));
        ModelSet::new(mu.n_vars(), keep)
    }
}

/// Drastic (full-meet) revision: `ψ ∧ μ` when consistent, otherwise `μ`.
/// The coarsest operator satisfying R1–R6; useful as a control in the
/// experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrasticRevision;

impl ChangeOperator for DrasticRevision {
    fn name(&self) -> &'static str {
        "drastic-revision"
    }

    fn apply(&self, psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        let both = psi.intersect(mu);
        if both.is_empty() {
            mu.clone()
        } else {
            both
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(bits: u64) -> Interp {
        Interp(bits)
    }

    fn ms(n: u32, bits: &[u64]) -> ModelSet {
        ModelSet::new(n, bits.iter().map(|&b| Interp(b)))
    }

    /// All five operators, for shared sanity tests.
    fn all_ops() -> Vec<Box<dyn ChangeOperator>> {
        vec![
            Box::new(DalalRevision),
            Box::new(SatohRevision),
            Box::new(BorgidaRevision),
            Box::new(WeberRevision),
            Box::new(DrasticRevision),
        ]
    }

    #[test]
    fn consistent_case_is_conjunction_for_all() {
        // R2: when ψ ∧ μ is satisfiable every revision returns it.
        let psi = ms(3, &[0b001, 0b010]);
        let mu = ms(3, &[0b010, 0b100]);
        let expect = ms(3, &[0b010]);
        for op in all_ops() {
            assert_eq!(op.apply(&psi, &mu), expect, "{}", op.name());
        }
    }

    #[test]
    fn result_always_implies_mu() {
        let psi = ms(3, &[0b111]);
        let mu = ms(3, &[0b000, 0b001, 0b010]);
        for op in all_ops() {
            assert!(op.apply(&psi, &mu).implies(&mu), "{}", op.name());
        }
    }

    #[test]
    fn inconsistent_kb_returns_mu() {
        let psi = ModelSet::empty(3);
        let mu = ms(3, &[0b001, 0b110]);
        for op in all_ops() {
            assert_eq!(op.apply(&psi, &mu), mu, "{}", op.name());
        }
    }

    #[test]
    fn dalal_minimizes_hamming_distance() {
        // ψ = {A,B} (one model 0b11); μ = models of !A | !B over 2 vars.
        let psi = ms(2, &[0b11]);
        let mu = ms(2, &[0b00, 0b01, 0b10]);
        // Distances: 0b00 -> 2, 0b01 -> 1, 0b10 -> 1.
        assert_eq!(DalalRevision.apply(&psi, &mu), ms(2, &[0b01, 0b10]));
    }

    #[test]
    fn dalal_example_31_contrast() {
        // The paper notes Dalal's revision would pick {D} in Example 3.1.
        // ψ = {{S},{D},{S,D,Q}}, μ = {{D},{S,D}} (bits S=1,D=2,Q=4).
        let psi = ms(3, &[0b001, 0b010, 0b111]);
        let mu = ms(3, &[0b010, 0b011]);
        // min_dist: {D} -> 0 (in ψ); {S,D} -> 1.
        assert_eq!(DalalRevision.apply(&psi, &mu), ms(3, &[0b010]));
    }

    #[test]
    fn satoh_uses_subset_not_cardinality_minimality() {
        // Classic separation: ψ = {∅}; μ = {{a}, {b,c}} — Dalal keeps only
        // {a} (distance 1 < 2) but Satoh keeps both ({a}Δ∅ = {a} and
        // {b,c}Δ∅ = {b,c} are ⊆-incomparable).
        let psi = ms(3, &[0b000]);
        let mu = ms(3, &[0b001, 0b110]);
        assert_eq!(DalalRevision.apply(&psi, &mu), ms(3, &[0b001]));
        assert_eq!(SatohRevision.apply(&psi, &mu), ms(3, &[0b001, 0b110]));
    }

    #[test]
    fn subset_minimal_masks() {
        assert_eq!(subset_minimal(&[0b01, 0b11, 0b10]), vec![0b01, 0b10]);
        assert_eq!(subset_minimal(&[0b0]), vec![0b0]);
        assert_eq!(subset_minimal(&[0b01, 0b0]), vec![0b0]);
        assert_eq!(subset_minimal(&[]), Vec::<u64>::new());
    }

    #[test]
    fn borgida_unions_per_model_selections_when_inconsistent() {
        // ψ = {∅, {a,b}}; μ = {{a}, {b}, {a,b,c}} over 3 vars.
        let psi = ms(3, &[0b000, 0b011]);
        let mu = ms(3, &[0b001, 0b010, 0b111]);
        // For J=∅: diffs {a},{b},{a,b,c}: minimal {a},{b} -> keep 0b001,0b010.
        // For J={a,b}: diffs {b},{a},{c}: all singletons minimal -> keep all.
        let got = BorgidaRevision.apply(&psi, &mu);
        assert_eq!(got, ms(3, &[0b001, 0b010, 0b111]));
    }

    #[test]
    fn weber_erases_conflict_variables() {
        // ψ = {{a}}, μ = {{b}} over vars a,b: minimal diff = {a,b}, so
        // D = {a,b}, no variable outside D constrains anything -> μ.
        let psi = ms(2, &[0b01]);
        let mu = ms(2, &[0b10]);
        assert_eq!(WeberRevision.apply(&psi, &mu), ms(2, &[0b10]));
        // With an extra variable c held equal, c must stay matching:
        // ψ = {{a,c}}, μ = {{b,c},{b}}: diffs {a,b} (both keep c) and
        // {a,b,c}; minimal = {a,b}; outside D the KB forces c true.
        let psi = ms(3, &[0b101]);
        let mu = ms(3, &[0b110, 0b010]);
        assert_eq!(WeberRevision.apply(&psi, &mu), ms(3, &[0b110]));
    }

    #[test]
    fn weber_contains_satoh() {
        // Weber's result always ⊇ Satoh's (its D erases at least as much).
        let cases = [
            (ms(3, &[0b000]), ms(3, &[0b001, 0b110])),
            (ms(3, &[0b101, 0b010]), ms(3, &[0b111, 0b000])),
            (ms(2, &[0b11]), ms(2, &[0b00])),
        ];
        for (psi, mu) in cases {
            let s = SatohRevision.apply(&psi, &mu);
            let w = WeberRevision.apply(&psi, &mu);
            assert!(s.implies(&w), "Satoh ⊄ Weber on {psi:?}, {mu:?}");
        }
    }

    #[test]
    fn drastic_falls_back_to_mu() {
        let psi = ms(2, &[0b00]);
        let mu = ms(2, &[0b11, 0b01]);
        assert_eq!(DrasticRevision.apply(&psi, &mu), mu);
    }

    #[test]
    fn empty_mu_yields_empty_result() {
        let psi = ms(2, &[0b00]);
        let mu = ModelSet::empty(2);
        for op in all_ops() {
            assert!(op.apply(&psi, &mu).is_empty(), "{}", op.name());
        }
    }

    #[test]
    fn pma_select_minimal_differences() {
        let mu = ms(3, &[0b001, 0b011, 0b111]);
        let sel = pma_select(&mu, i(0b000));
        assert_eq!(sel, vec![i(0b001)]);
        let mu2 = ms(3, &[0b001, 0b110]);
        let sel2 = pma_select(&mu2, i(0b000));
        assert_eq!(sel2, vec![i(0b001), i(0b110)]);
    }
}
