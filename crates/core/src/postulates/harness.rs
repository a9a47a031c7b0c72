//! Checking infrastructure: exhaustive small-universe verification,
//! randomized fuzzing, satisfaction matrices, and the Theorem 3.2
//! incompatibility constructions.

use super::{holds, Counterexample, Ctx, PostulateId};
use crate::operator::ChangeOperator;
use arbitrex_logic::{random::random_model_set, Interp, ModelSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every subset of the `n_vars`-variable universe, as a model set.
///
/// There are `2^(2^n_vars)` of them — callers should keep `n_vars ≤ 2`
/// (16 sets) for quadruple-exhaustive checks.
pub fn all_theories(n_vars: u32) -> Vec<ModelSet> {
    let universe: Vec<Interp> = ModelSet::all(n_vars).iter().collect();
    let count = 1u64 << universe.len();
    (0..count)
        .map(|mask| {
            ModelSet::new(
                n_vars,
                universe
                    .iter()
                    .enumerate()
                    .filter_map(|(k, &i)| (mask >> k & 1 == 1).then_some(i)),
            )
        })
        .collect()
}

/// Exhaustively check `op` against `ids` over **every** quadruple of
/// theories on the `n_vars`-variable universe. A complete verification of
/// those postulates on that universe.
///
/// Cost: `(2^(2^n))⁴` postulate evaluations — 65 536 quadruples at `n = 2`.
#[allow(clippy::result_large_err)] // counterexamples deliberately carry full witnesses
pub fn check_exhaustive(
    op: &dyn ChangeOperator,
    ids: &[PostulateId],
    n_vars: u32,
) -> Result<(), Counterexample> {
    assert!(
        n_vars <= 2,
        "exhaustive quadruple check is only feasible for n ≤ 2"
    );
    let theories = all_theories(n_vars);
    for psi1 in &theories {
        for psi2 in &theories {
            for mu in &theories {
                for phi in &theories {
                    let ctx = Ctx {
                        psi1: psi1.clone(),
                        psi2: psi2.clone(),
                        mu: mu.clone(),
                        phi: phi.clone(),
                    };
                    for &id in ids {
                        if !holds(op, id, &ctx) {
                            return Err(Counterexample { id, ctx });
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Randomized check: `samples` random theory quadruples over `n_vars`
/// variables (empty theories included with small probability, so the
/// satisfiability postulates get exercised).
#[allow(clippy::result_large_err)]
pub fn check_random(
    op: &dyn ChangeOperator,
    ids: &[PostulateId],
    n_vars: u32,
    samples: usize,
    seed: u64,
) -> Result<(), Counterexample> {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_models = (1usize << n_vars).min(8);
    for _ in 0..samples {
        let ctx = Ctx {
            psi1: random_model_set(&mut rng, n_vars, max_models, 0.05),
            psi2: random_model_set(&mut rng, n_vars, max_models, 0.05),
            mu: random_model_set(&mut rng, n_vars, max_models, 0.05),
            phi: random_model_set(&mut rng, n_vars, max_models, 0.05),
        };
        for &id in ids {
            if !holds(op, id, &ctx) {
                return Err(Counterexample { id, ctx });
            }
        }
    }
    Ok(())
}

/// One row of a satisfaction matrix: an operator's verdict per postulate.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Operator name.
    pub operator: String,
    /// Per-postulate outcome: `Ok(())` (no violation found) or the first
    /// counterexample.
    pub results: Vec<(PostulateId, Result<(), Counterexample>)>,
}

impl MatrixRow {
    /// Did the operator pass `id`?
    pub fn passed(&self, id: PostulateId) -> Option<bool> {
        self.results
            .iter()
            .find(|(p, _)| *p == id)
            .map(|(_, r)| r.is_ok())
    }
}

/// Build the operator × postulate satisfaction matrix (experiment E3):
/// exhaustive over the 2-variable universe.
pub fn satisfaction_matrix(ops: &[&dyn ChangeOperator], ids: &[PostulateId]) -> Vec<MatrixRow> {
    ops.iter()
        .map(|op| MatrixRow {
            operator: op.name().to_string(),
            results: ids
                .iter()
                .map(|&id| (id, check_exhaustive(*op, &[id], 2)))
                .collect(),
        })
        .collect()
}

/// Outcome of running one of Theorem 3.2's concrete constructions against
/// an operator: which of the two clashing postulate groups the operator
/// violated on that construction. A correct theorem means *no* operator
/// can report `neither`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeparationVerdict {
    /// The operator violated the first postulate group of the pair.
    ViolatesFirst,
    /// The operator violated the second postulate group of the pair.
    ViolatesSecond,
    /// Both groups were violated on the construction.
    ViolatesBoth,
    /// Neither violated — would contradict Theorem 3.2 if the postulates
    /// were claimed globally; on a single construction it merely means the
    /// conflict does not materialize for these inputs.
    Neither,
}

fn verdict(first_holds: bool, second_holds: bool) -> SeparationVerdict {
    match (first_holds, second_holds) {
        (false, false) => SeparationVerdict::ViolatesBoth,
        (false, true) => SeparationVerdict::ViolatesFirst,
        (true, false) => SeparationVerdict::ViolatesSecond,
        (true, true) => SeparationVerdict::Neither,
    }
}

/// Theorem 3.2, construction 1: no operator satisfies both (R2) and (A8).
/// Uses `ψ₁ = m₁ ∨ m₂`, `ψ₂ = m₂`, `μ = m₁ ∨ m₂` on distinct singletons.
/// Returns which side `op` gives up on these inputs.
pub fn separation_r2_a8(op: &dyn ChangeOperator, n_vars: u32) -> SeparationVerdict {
    let m1 = Interp(0b0);
    let m2 = Interp(0b1);
    let psi1 = ModelSet::new(n_vars, [m1, m2]);
    let psi2 = ModelSet::new(n_vars, [m2]);
    let mu = ModelSet::new(n_vars, [m1, m2]);
    let ctx = Ctx {
        psi1,
        psi2,
        mu,
        phi: ModelSet::empty(n_vars),
    };
    // R2 must hold on both (ψ₁, μ) and (ψ₂, μ) and (ψ₁∨ψ₂, μ) for the
    // construction; evaluate R2 on the union context too.
    let union_ctx = Ctx {
        psi1: ctx.psi1.union(&ctx.psi2),
        psi2: ctx.psi2.clone(),
        mu: ctx.mu.clone(),
        phi: ctx.phi.clone(),
    };
    let r2_all = holds(op, PostulateId::R2, &ctx)
        && holds(
            op,
            PostulateId::R2,
            &Ctx {
                psi1: ctx.psi2.clone(),
                ..ctx.clone()
            },
        )
        && holds(op, PostulateId::R2, &union_ctx);
    let a8 = holds(op, PostulateId::A8, &ctx);
    verdict(r2_all, a8)
}

/// Theorem 3.2, construction 2: no operator satisfies (U2), (U8) and (A8)
/// simultaneously. Same theories as construction 1.
pub fn separation_u2_u8_a8(op: &dyn ChangeOperator, n_vars: u32) -> SeparationVerdict {
    let m1 = Interp(0b0);
    let m2 = Interp(0b1);
    let psi1 = ModelSet::new(n_vars, [m1, m2]);
    let psi2 = ModelSet::new(n_vars, [m2]);
    let mu = ModelSet::new(n_vars, [m1, m2]);
    let ctx = Ctx {
        psi1: psi1.clone(),
        psi2: psi2.clone(),
        mu: mu.clone(),
        phi: ModelSet::empty(n_vars),
    };
    let u2_both = holds(op, PostulateId::U2, &ctx)
        && holds(
            op,
            PostulateId::U2,
            &Ctx {
                psi1: psi2.clone(),
                ..ctx.clone()
            },
        );
    let u8 = holds(op, PostulateId::U8, &ctx);
    let a8 = holds(op, PostulateId::A8, &ctx);
    verdict(u2_both && u8, a8)
}

/// Theorem 3.2, construction 3: no operator satisfies (R1), (R2), (R3) and
/// (U8). Uses `ψ₁ = m₁`, `μ = m₂ ∨ m₃` on three distinct singletons, with
/// `ψ₂` ranging over `m₂` and `m₃` (the proof's "without loss of
/// generality" covers both variants; a tie-breaking operator can dodge one
/// of them). Needs ≥ 2 variables.
pub fn separation_r123_u8(op: &dyn ChangeOperator, n_vars: u32) -> SeparationVerdict {
    assert!(n_vars >= 2);
    let m1 = Interp(0b00);
    let m2 = Interp(0b01);
    let m3 = Interp(0b10);
    let psi1 = ModelSet::new(n_vars, [m1]);
    let mu = ModelSet::new(n_vars, [m2, m3]);
    let mut r123_all = true;
    let mut u8_all = true;
    for second in [m2, m3] {
        let psi2 = ModelSet::new(n_vars, [second]);
        let ctx = Ctx {
            psi1: psi1.clone(),
            psi2: psi2.clone(),
            mu: mu.clone(),
            phi: ModelSet::empty(n_vars),
        };
        let union_ctx = Ctx {
            psi1: psi1.union(&psi2),
            ..ctx.clone()
        };
        r123_all &= holds(op, PostulateId::R1, &ctx)
            && holds(op, PostulateId::R3, &ctx)
            && holds(
                op,
                PostulateId::R2,
                &Ctx {
                    psi1: psi2.clone(),
                    ..ctx.clone()
                },
            )
            && holds(op, PostulateId::R2, &union_ctx);
        u8_all &= holds(op, PostulateId::U8, &ctx);
    }
    verdict(r123_all, u8_all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitration::Arbitration;
    use crate::fitting::OdistFitting;
    use crate::revision::{DalalRevision, DrasticRevision};
    use crate::update::WinslettUpdate;

    #[test]
    fn all_theories_counts() {
        assert_eq!(all_theories(1).len(), 4);
        assert_eq!(all_theories(2).len(), 16);
    }

    #[test]
    fn exhaustive_catches_a_planted_violation() {
        // An operator that returns μ unchanged violates R2 (among others).
        struct Identity;
        impl ChangeOperator for Identity {
            fn name(&self) -> &'static str {
                "identity"
            }
            fn apply(&self, _psi: &ModelSet, mu: &ModelSet) -> ModelSet {
                mu.clone()
            }
        }
        let err = check_exhaustive(&Identity, &[PostulateId::R2], 2).unwrap_err();
        assert_eq!(err.id, PostulateId::R2);
        // But it does satisfy R1/R3.
        assert!(check_exhaustive(&Identity, &[PostulateId::R1, PostulateId::R3], 2).is_ok());
    }

    #[test]
    fn random_checker_is_deterministic_per_seed() {
        let a = check_random(&DalalRevision, &[PostulateId::A8], 3, 5_000, 9);
        let b = check_random(&DalalRevision, &[PostulateId::A8], 3, 5_000, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_shape_and_diagonals() {
        use crate::fitting::LexOdistFitting;
        let ops: Vec<&dyn ChangeOperator> = vec![&DalalRevision, &WinslettUpdate, &LexOdistFitting];
        let ids = [PostulateId::R2, PostulateId::U8, PostulateId::A8];
        let rows = satisfaction_matrix(&ops, &ids);
        assert_eq!(rows.len(), 3);
        // Each operator passes its own family's signature postulate and
        // fails the others' — the pairwise-disjointness picture.
        assert_eq!(rows[0].passed(PostulateId::R2), Some(true));
        assert_eq!(rows[0].passed(PostulateId::U8), Some(false));
        assert_eq!(rows[0].passed(PostulateId::A8), Some(false));
        assert_eq!(rows[1].passed(PostulateId::U8), Some(true));
        assert_eq!(rows[1].passed(PostulateId::R2), Some(false));
        assert_eq!(rows[1].passed(PostulateId::A8), Some(false));
        assert_eq!(rows[2].passed(PostulateId::A8), Some(true));
        assert_eq!(rows[2].passed(PostulateId::R2), Some(false));
        assert_eq!(rows[2].passed(PostulateId::U8), Some(false));
    }

    #[test]
    fn theorem_32_constructions_bite_every_family() {
        use crate::fitting::LexOdistFitting;
        // Revision keeps R2, loses A8.
        assert_eq!(
            separation_r2_a8(&DalalRevision, 2),
            SeparationVerdict::ViolatesSecond
        );
        assert_eq!(
            separation_r2_a8(&DrasticRevision, 2),
            SeparationVerdict::ViolatesSecond
        );
        // The repaired fitting operator keeps A8, loses R2.
        assert_eq!(
            separation_r2_a8(&LexOdistFitting, 2),
            SeparationVerdict::ViolatesFirst
        );
        // The paper's odist operator loses A8 *on this very construction* —
        // the erratum again: ψ₂'s models are a subset of ψ₁'s, so the union
        // order ties where A8 needs strictness. R2 happens to hold here.
        assert_eq!(
            separation_r2_a8(&OdistFitting, 2),
            SeparationVerdict::ViolatesSecond
        );
        // Update keeps U2+U8, loses A8.
        assert_eq!(
            separation_u2_u8_a8(&WinslettUpdate, 2),
            SeparationVerdict::ViolatesSecond
        );
        // The repaired fitting operator loses the U-side of construction 2.
        assert_eq!(
            separation_u2_u8_a8(&LexOdistFitting, 2),
            SeparationVerdict::ViolatesFirst
        );
        // Construction 3: revision keeps R1-R3, loses U8; update keeps U8,
        // loses the R side; fitting loses the R side too.
        assert_eq!(
            separation_r123_u8(&DalalRevision, 2),
            SeparationVerdict::ViolatesSecond
        );
        assert_eq!(
            separation_r123_u8(&WinslettUpdate, 2),
            SeparationVerdict::ViolatesFirst
        );
        assert_ne!(
            separation_r123_u8(&LexOdistFitting, 2),
            SeparationVerdict::Neither
        );
    }

    #[test]
    fn no_operator_survives_any_construction_unscathed() {
        use crate::fitting::LexOdistFitting;
        let lex = LexOdistFitting;
        let ops: Vec<&dyn ChangeOperator> = vec![
            &DalalRevision,
            &DrasticRevision,
            &WinslettUpdate,
            &OdistFitting,
            &lex,
        ];
        for op in &ops {
            assert_ne!(
                separation_r2_a8(*op, 2),
                SeparationVerdict::Neither,
                "{} refutes Theorem 3.2 construction 1?!",
                op.name()
            );
            assert_ne!(
                separation_u2_u8_a8(*op, 2),
                SeparationVerdict::Neither,
                "{} refutes Theorem 3.2 construction 2?!",
                op.name()
            );
            assert_ne!(
                separation_r123_u8(*op, 2),
                SeparationVerdict::Neither,
                "{} refutes Theorem 3.2 construction 3?!",
                op.name()
            );
        }
        // Arbitration (not a ▷-style operator itself) is also covered by
        // construction 1: it cannot satisfy R2 either.
        let arb = Arbitration;
        assert_ne!(separation_r2_a8(&arb, 2), SeparationVerdict::Neither);
    }
}
