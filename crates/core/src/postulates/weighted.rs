//! The weighted model-fitting postulates (F1)–(F8) of Section 4: the
//! (A)-axioms with weighted knowledge bases, weighted implication
//! (pointwise `≤`), weighted conjunction `⊓` (pointwise min) and weighted
//! disjunction `⊔` (pointwise sum).
//!
//! The sum in `⊔` is the heart of the matter: it preserves multiplicity
//! where classical `∨` deduplicates, which is why `wdist` *is* a weighted
//! loyal assignment and [`crate::wfitting::WdistFitting`] satisfies all of
//! (F1)–(F8) — including the (F8) whose classical counterpart (A8) the
//! unweighted odist operator fails (see
//! [`crate::fitting::OdistFitting`]).

use crate::weighted::WeightedKb;
use crate::wfitting::WeightedChangeOperator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Identifier for a weighted postulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum WPostulateId {
    F1,
    F2,
    F3,
    F4,
    F5,
    F6,
    F7,
    F8,
}

impl WPostulateId {
    /// All weighted postulates.
    pub fn all() -> &'static [WPostulateId] {
        use WPostulateId::*;
        &[F1, F2, F3, F4, F5, F6, F7, F8]
    }

    /// Short name, e.g. `"F8"`.
    pub fn name(self) -> &'static str {
        use WPostulateId::*;
        match self {
            F1 => "F1",
            F2 => "F2",
            F3 => "F3",
            F4 => "F4",
            F5 => "F5",
            F6 => "F6",
            F7 => "F7",
            F8 => "F8",
        }
    }
}

impl fmt::Display for WPostulateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The weighted theories an (F)-postulate instance is evaluated over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WCtx {
    /// The weighted knowledge base `ψ̃` / `ψ̃₁`.
    pub psi1: WeightedKb,
    /// The second weighted knowledge base `ψ̃₂` (F7/F8).
    pub psi2: WeightedKb,
    /// The weighted new information `μ̃`.
    pub mu: WeightedKb,
    /// The weighted conjunct `φ̃` (F5/F6).
    pub phi: WeightedKb,
}

/// A weighted postulate violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WCounterexample {
    /// The violated postulate.
    pub id: WPostulateId,
    /// The witnessing weighted theories.
    pub ctx: WCtx,
}

/// (F1) `ψ̃ ▷ μ̃` implies `μ̃`.
pub fn f1(op: &dyn WeightedChangeOperator, c: &WCtx) -> bool {
    op.apply(&c.psi1, &c.mu).implies(&c.mu)
}

/// (F2) If `ψ̃` is unsatisfiable then `ψ̃ ▷ μ̃` is unsatisfiable.
pub fn f2(op: &dyn WeightedChangeOperator, c: &WCtx) -> bool {
    c.psi1.is_satisfiable() || !op.apply(&c.psi1, &c.mu).is_satisfiable()
}

/// (F3) If both `ψ̃` and `μ̃` are satisfiable then `ψ̃ ▷ μ̃` is satisfiable.
pub fn f3(op: &dyn WeightedChangeOperator, c: &WCtx) -> bool {
    !c.psi1.is_satisfiable() || !c.mu.is_satisfiable() || op.apply(&c.psi1, &c.mu).is_satisfiable()
}

/// (F4) Irrelevance of syntax: our weighted KBs are normalized weight
/// functions, so equal semantics means equal values — holds by
/// construction.
pub fn f4(_op: &dyn WeightedChangeOperator, _c: &WCtx) -> bool {
    true
}

/// (F5) `(ψ̃ ▷ μ̃) ⊓ φ̃` implies `ψ̃ ▷ (μ̃ ⊓ φ̃)`.
pub fn f5(op: &dyn WeightedChangeOperator, c: &WCtx) -> bool {
    op.apply(&c.psi1, &c.mu)
        .meet(&c.phi)
        .implies(&op.apply(&c.psi1, &c.mu.meet(&c.phi)))
}

/// (F6) If `(ψ̃ ▷ μ̃) ⊓ φ̃` is satisfiable then `ψ̃ ▷ (μ̃ ⊓ φ̃)` implies
/// `(ψ̃ ▷ μ̃) ⊓ φ̃`.
pub fn f6(op: &dyn WeightedChangeOperator, c: &WCtx) -> bool {
    let lhs = op.apply(&c.psi1, &c.mu).meet(&c.phi);
    !lhs.is_satisfiable() || op.apply(&c.psi1, &c.mu.meet(&c.phi)).implies(&lhs)
}

/// (F7) `(ψ̃₁ ▷ μ̃) ⊓ (ψ̃₂ ▷ μ̃)` implies `(ψ̃₁ ⊔ ψ̃₂) ▷ μ̃`.
pub fn f7(op: &dyn WeightedChangeOperator, c: &WCtx) -> bool {
    op.apply(&c.psi1, &c.mu)
        .meet(&op.apply(&c.psi2, &c.mu))
        .implies(&op.apply(&c.psi1.join(&c.psi2), &c.mu))
}

/// (F8) If `(ψ̃₁ ▷ μ̃) ⊓ (ψ̃₂ ▷ μ̃)` is satisfiable then
/// `(ψ̃₁ ⊔ ψ̃₂) ▷ μ̃` implies `(ψ̃₁ ▷ μ̃) ⊓ (ψ̃₂ ▷ μ̃)`.
pub fn f8(op: &dyn WeightedChangeOperator, c: &WCtx) -> bool {
    let both = op.apply(&c.psi1, &c.mu).meet(&op.apply(&c.psi2, &c.mu));
    !both.is_satisfiable() || op.apply(&c.psi1.join(&c.psi2), &c.mu).implies(&both)
}

/// Does `op` satisfy `id` on `ctx`?
pub fn wholds(op: &dyn WeightedChangeOperator, id: WPostulateId, ctx: &WCtx) -> bool {
    use WPostulateId::*;
    match id {
        F1 => f1(op, ctx),
        F2 => f2(op, ctx),
        F3 => f3(op, ctx),
        F4 => f4(op, ctx),
        F5 => f5(op, ctx),
        F6 => f6(op, ctx),
        F7 => f7(op, ctx),
        F8 => f8(op, ctx),
    }
}

/// Every weighted KB over `n_vars` variables with weights in
/// `0..=max_weight` — `(max_weight+1)^(2^n)` of them; keep `n_vars ≤ 1` for
/// quadruple-exhaustive checks with `max_weight 2`, or `n_vars = 2` with
/// `max_weight 1`.
pub fn all_weighted_kbs(n_vars: u32, max_weight: u64) -> Vec<WeightedKb> {
    let universe = 1u64 << n_vars;
    let base = max_weight + 1;
    let count = base.pow(universe as u32);
    (0..count)
        .map(|mut code| {
            let mut weights = Vec::new();
            for i in 0..universe {
                let w = code % base;
                code /= base;
                weights.push((arbitrex_logic::Interp(i), w));
            }
            WeightedKb::from_weights(n_vars, weights)
        })
        .collect()
}

/// Exhaustive (F)-postulate check over every quadruple of weighted KBs
/// with the given parameters.
#[allow(clippy::result_large_err)] // counterexamples deliberately carry full witnesses
pub fn wcheck_exhaustive(
    op: &dyn WeightedChangeOperator,
    ids: &[WPostulateId],
    n_vars: u32,
    max_weight: u64,
) -> Result<(), WCounterexample> {
    let kbs = all_weighted_kbs(n_vars, max_weight);
    assert!(
        kbs.len() <= 32,
        "exhaustive weighted quadruples would be too many"
    );
    for psi1 in &kbs {
        for psi2 in &kbs {
            for mu in &kbs {
                for phi in &kbs {
                    let ctx = WCtx {
                        psi1: psi1.clone(),
                        psi2: psi2.clone(),
                        mu: mu.clone(),
                        phi: phi.clone(),
                    };
                    for &id in ids {
                        if !wholds(op, id, &ctx) {
                            return Err(WCounterexample { id, ctx });
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Sample a random weighted KB over `n_vars` variables.
pub fn random_weighted_kb<R: Rng + ?Sized>(
    rng: &mut R,
    n_vars: u32,
    max_support: usize,
    max_weight: u64,
    empty_prob: f64,
) -> WeightedKb {
    if rng.random_bool(empty_prob) {
        return WeightedKb::unsatisfiable(n_vars);
    }
    let count = rng.random_range(1..=max_support);
    WeightedKb::from_weights(
        n_vars,
        (0..count).map(|_| {
            (
                arbitrex_logic::random::random_interp(rng, n_vars),
                rng.random_range(1..=max_weight),
            )
        }),
    )
}

/// Randomized (F)-postulate check over `samples` random weighted
/// quadruples.
#[allow(clippy::result_large_err)]
pub fn wcheck_random(
    op: &dyn WeightedChangeOperator,
    ids: &[WPostulateId],
    n_vars: u32,
    samples: usize,
    seed: u64,
) -> Result<(), WCounterexample> {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_support = (1usize << n_vars).min(6);
    for _ in 0..samples {
        let ctx = WCtx {
            psi1: random_weighted_kb(&mut rng, n_vars, max_support, 5, 0.05),
            psi2: random_weighted_kb(&mut rng, n_vars, max_support, 5, 0.05),
            mu: random_weighted_kb(&mut rng, n_vars, max_support, 5, 0.05),
            phi: random_weighted_kb(&mut rng, n_vars, max_support, 5, 0.05),
        };
        for &id in ids {
            if !wholds(op, id, &ctx) {
                return Err(WCounterexample { id, ctx });
            }
        }
    }
    Ok(())
}

/// One row of a weighted satisfaction matrix.
#[derive(Debug, Clone)]
pub struct WMatrixRow {
    /// Operator name.
    pub operator: String,
    /// Per-postulate outcome.
    pub results: Vec<(WPostulateId, bool)>,
}

impl WMatrixRow {
    /// Did the operator pass `id`?
    pub fn passed(&self, id: WPostulateId) -> Option<bool> {
        self.results
            .iter()
            .find(|(p, _)| *p == id)
            .map(|&(_, ok)| ok)
    }
}

/// Build the weighted operator × F-postulate satisfaction matrix:
/// exhaustive over `n = 1` with weights `0..=2`, confirmed by randomized
/// checks at `n = 2` (a weighted analog of the classical E3 matrix).
pub fn wsatisfaction_matrix(
    ops: &[&dyn WeightedChangeOperator],
    ids: &[WPostulateId],
) -> Vec<WMatrixRow> {
    ops.iter()
        .map(|op| WMatrixRow {
            operator: op.name().to_string(),
            results: ids
                .iter()
                .map(|&id| {
                    let ok = wcheck_exhaustive(*op, &[id], 1, 2).is_ok()
                        && wcheck_random(*op, &[id], 2, 4_000, 17).is_ok();
                    (id, ok)
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wfitting::{WdistFitting, WeightedRankFitting};
    use arbitrex_logic::Interp;

    #[test]
    fn wdist_fitting_satisfies_f1_to_f8_exhaustively_n1_w2() {
        // 2 interpretations × weights {0,1,2} = 9 KBs; 9⁴ quadruples.
        assert_eq!(
            wcheck_exhaustive(&WdistFitting, WPostulateId::all(), 1, 2),
            Ok(())
        );
    }

    #[test]
    fn wdist_fitting_satisfies_f1_to_f8_exhaustively_n2_w1() {
        // 4 interpretations × weights {0,1} = 16 KBs; 16⁴ quadruples.
        assert_eq!(
            wcheck_exhaustive(&WdistFitting, WPostulateId::all(), 2, 1),
            Ok(())
        );
    }

    #[test]
    fn wdist_fitting_satisfies_f1_to_f8_randomized_n4() {
        assert_eq!(
            wcheck_random(&WdistFitting, WPostulateId::all(), 4, 20_000, 1993),
            Ok(())
        );
    }

    #[test]
    fn weighted_f8_repairs_the_classical_a8_counterexample() {
        // The classical erratum instance, reweighted: ψ̃₁ = ¬a (weight 1),
        // ψ̃₂ = ⊤ (weight 1 everywhere), μ̃ = ⊤. Under ⊔ the union weights
        // ∅ twice, so wdist breaks the tie that odist could not.
        let psi1 = WeightedKb::from_weights(1, [(Interp(0), 1)]);
        let psi2 = WeightedKb::all(1);
        let mu = WeightedKb::all(1);
        let ctx = WCtx {
            psi1,
            psi2,
            mu,
            phi: WeightedKb::unsatisfiable(1),
        };
        assert!(f8(&WdistFitting, &ctx));
        assert!(f7(&WdistFitting, &ctx));
    }

    #[test]
    fn weighted_max_aggregation_fails_f_postulates() {
        // A weighted "odist" (max of dist·weight) is *not* weighted-loyal;
        // the harness finds an F7/F8 violation — multiplicity alone is not
        // enough, the aggregator must distribute over ⊔.
        let wmax = WeightedRankFitting::new("wmax-fitting", |psi: &WeightedKb, x| {
            psi.support()
                .map(|(j, w)| x.dist(j) as u128 * w as u128)
                .max()
                .unwrap_or(0)
        });
        // Explicit witness (needs ≥ 2 variables — at n = 1 the max
        // degenerates to a single term): ψ̃₁ = {00↦1}, ψ̃₂ = {01↦2},
        // μ̃ = {00↦1, 11↦1}. The meet of the two fits is {00}, but the
        // joined KB ties 00 and 11 under max-aggregation.
        let ctx = WCtx {
            psi1: WeightedKb::from_weights(2, [(Interp(0b00), 1)]),
            psi2: WeightedKb::from_weights(2, [(Interp(0b01), 2)]),
            mu: WeightedKb::from_weights(2, [(Interp(0b00), 1), (Interp(0b11), 1)]),
            phi: WeightedKb::unsatisfiable(2),
        };
        assert!(!f8(&wmax, &ctx));
        // The randomized harness finds violations on its own, too.
        let fuzz = wcheck_random(&wmax, &[WPostulateId::F7, WPostulateId::F8], 2, 20_000, 5);
        assert!(fuzz.is_err());
    }

    #[test]
    fn all_weighted_kbs_counts() {
        assert_eq!(all_weighted_kbs(1, 1).len(), 4);
        assert_eq!(all_weighted_kbs(1, 2).len(), 9);
        assert_eq!(all_weighted_kbs(2, 1).len(), 16);
    }

    #[test]
    fn random_weighted_kb_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let kb = random_weighted_kb(&mut rng, 3, 4, 5, 0.0);
            assert!(kb.is_satisfiable());
            assert!(kb.support_size() <= 4);
            // Duplicate draws merge by summing, so the per-entry cap is
            // max_support · max_weight.
            assert!(kb.support().all(|(_, w)| (1..=20).contains(&w)));
        }
    }

    #[test]
    fn weighted_matrix_separates_aggregators() {
        use crate::arbitration::WeightedArbitration;
        let wmax = WeightedRankFitting::new("wmax-fitting", |psi: &WeightedKb, x| {
            psi.support()
                .map(|(j, w)| x.dist(j) as u128 * w as u128)
                .max()
                .unwrap_or(0)
        });
        let warb = WeightedArbitration;
        let ops: Vec<&dyn WeightedChangeOperator> = vec![&WdistFitting, &wmax, &warb];
        let rows = wsatisfaction_matrix(&ops, WPostulateId::all());
        // The paper's wdist fitting passes everything.
        let wdist_row = &rows[0];
        assert!(WPostulateId::all()
            .iter()
            .all(|&id| wdist_row.passed(id) == Some(true)));
        // The weighted max aggregator fails F7 or F8.
        let wmax_row = &rows[1];
        assert!(
            wmax_row.passed(WPostulateId::F7) == Some(false)
                || wmax_row.passed(WPostulateId::F8) == Some(false)
        );
        // Weighted arbitration is not itself a weighted *fitting* operator
        // (F1 fails: the result need not imply φ̃ — that is the point).
        let warb_row = &rows[2];
        assert_eq!(warb_row.passed(WPostulateId::F1), Some(false));
        assert_eq!(warb_row.passed(WPostulateId::F3), Some(true));
    }

    #[test]
    fn f4_is_constantly_true() {
        let kb = WeightedKb::all(1);
        let ctx = WCtx {
            psi1: kb.clone(),
            psi2: kb.clone(),
            mu: kb.clone(),
            phi: kb,
        };
        assert!(f4(&WdistFitting, &ctx));
    }
}
