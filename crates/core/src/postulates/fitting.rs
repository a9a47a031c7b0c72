//! The paper's model-fitting postulates (A1)–(A8) over model sets.
//!
//! (A1), (A3)–(A5) coincide with (U1), (U3)–(U5); (A6) with (R6). (A2),
//! (A7) and (A8) are the new axioms: (A2) pins down the unsatisfiable
//! knowledge base, while (A7)/(A8) say the overall-closest models to
//! `ψ₁ ∨ ψ₂` are the intersection of the overall-closest models to each
//! disjunct whenever that intersection is non-empty.

use super::Ctx;
use crate::operator::ChangeOperator;

/// (A1) `ψ ▷ μ` implies `μ`.
pub fn a1(op: &dyn ChangeOperator, c: &Ctx) -> bool {
    op.apply(&c.psi1, &c.mu).implies(&c.mu)
}

/// (A2) If `ψ` is unsatisfiable then `ψ ▷ μ` is unsatisfiable.
pub fn a2(op: &dyn ChangeOperator, c: &Ctx) -> bool {
    !c.psi1.is_empty() || op.apply(&c.psi1, &c.mu).is_empty()
}

/// (A3) If both `ψ` and `μ` are satisfiable then `ψ ▷ μ` is satisfiable.
pub fn a3(op: &dyn ChangeOperator, c: &Ctx) -> bool {
    c.psi1.is_empty() || c.mu.is_empty() || !op.apply(&c.psi1, &c.mu).is_empty()
}

/// (A4) Irrelevance of syntax — holds by construction on model sets.
pub fn a4(_op: &dyn ChangeOperator, _c: &Ctx) -> bool {
    true
}

/// (A5) `(ψ ▷ μ) ∧ φ` implies `ψ ▷ (μ ∧ φ)`.
pub fn a5(op: &dyn ChangeOperator, c: &Ctx) -> bool {
    op.apply(&c.psi1, &c.mu)
        .intersect(&c.phi)
        .implies(&op.apply(&c.psi1, &c.mu.intersect(&c.phi)))
}

/// (A6) If `(ψ ▷ μ) ∧ φ` is satisfiable then `ψ ▷ (μ ∧ φ)` implies
/// `(ψ ▷ μ) ∧ φ`.
pub fn a6(op: &dyn ChangeOperator, c: &Ctx) -> bool {
    let lhs = op.apply(&c.psi1, &c.mu).intersect(&c.phi);
    lhs.is_empty() || op.apply(&c.psi1, &c.mu.intersect(&c.phi)).implies(&lhs)
}

/// (A7) `(ψ₁ ▷ μ) ∧ (ψ₂ ▷ μ)` implies `(ψ₁ ∨ ψ₂) ▷ μ`.
pub fn a7(op: &dyn ChangeOperator, c: &Ctx) -> bool {
    op.apply(&c.psi1, &c.mu)
        .intersect(&op.apply(&c.psi2, &c.mu))
        .implies(&op.apply(&c.psi1.union(&c.psi2), &c.mu))
}

/// (A8) If `(ψ₁ ▷ μ) ∧ (ψ₂ ▷ μ)` is satisfiable then `(ψ₁ ∨ ψ₂) ▷ μ`
/// implies `(ψ₁ ▷ μ) ∧ (ψ₂ ▷ μ)`.
pub fn a8(op: &dyn ChangeOperator, c: &Ctx) -> bool {
    let both = op
        .apply(&c.psi1, &c.mu)
        .intersect(&op.apply(&c.psi2, &c.mu));
    both.is_empty() || op.apply(&c.psi1.union(&c.psi2), &c.mu).implies(&both)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitration::Arbitration;
    use crate::fitting::{LexOdistFitting, OdistFitting, SumFitting};
    use crate::postulates::harness::{check_exhaustive, check_random};
    use crate::postulates::PostulateId;
    use arbitrex_logic::{Interp, ModelSet};

    #[test]
    fn odist_fitting_satisfies_a1_to_a7_exhaustively_n2() {
        use PostulateId::*;
        assert_eq!(
            check_exhaustive(&OdistFitting, &[A1, A2, A3, A4, A5, A6, A7], 2),
            Ok(())
        );
    }

    #[test]
    fn odist_fitting_satisfies_a1_to_a7_randomized_n4() {
        use PostulateId::*;
        assert_eq!(
            check_random(&OdistFitting, &[A1, A2, A3, A4, A5, A6, A7], 4, 30_000, 42),
            Ok(())
        );
    }

    #[test]
    fn odist_fitting_violates_a8_the_paper_erratum() {
        // The minimal counterexample: ψ₁ = ¬a, ψ₂ = ⊤, μ = ⊤ over one
        // variable. odist(⊤, ·) ties everything, so the union result is ⊤,
        // which does not imply the satisfiable intersection ¬a.
        let psi1 = ModelSet::new(1, [Interp(0)]);
        let psi2 = ModelSet::all(1);
        let mu = ModelSet::all(1);
        let ctx = Ctx::new(psi1, psi2, mu, ModelSet::empty(1));
        assert!(!a8(&OdistFitting, &ctx));
        // And the exhaustive harness finds it too.
        let err = check_exhaustive(&OdistFitting, &[PostulateId::A8], 2).unwrap_err();
        assert_eq!(err.id, PostulateId::A8);
    }

    #[test]
    fn lex_odist_fitting_satisfies_a1_to_a8_exhaustively_n2() {
        // Theorem 3.1's "if" direction, exhibited by the repaired operator:
        // complete verification over the 2-variable universe (16⁴
        // quadruples).
        assert_eq!(
            check_exhaustive(&LexOdistFitting, PostulateId::fitting(), 2),
            Ok(())
        );
    }

    #[test]
    fn lex_odist_fitting_satisfies_a1_to_a8_randomized_n4() {
        assert_eq!(
            check_random(&LexOdistFitting, PostulateId::fitting(), 4, 30_000, 42),
            Ok(())
        );
    }

    #[test]
    fn sum_fitting_violates_a7_or_a8() {
        // The documented negative instance: set-union disjunction dedups
        // shared voices, breaking loyalty for the sum aggregator.
        let e7 = check_exhaustive(&SumFitting, &[PostulateId::A7], 2);
        let e8 = check_exhaustive(&SumFitting, &[PostulateId::A8], 2);
        assert!(e7.is_err() || e8.is_err());
    }

    #[test]
    fn sum_fitting_still_satisfies_a1_a6() {
        use PostulateId::*;
        assert_eq!(
            check_exhaustive(&SumFitting, &[A1, A2, A3, A4, A5, A6], 2),
            Ok(())
        );
    }

    #[test]
    fn arbitration_as_operator_satisfies_a2_a3() {
        // ψ Δ φ is satisfiable whenever ψ ∨ φ is (per Corollary 3.1 it is
        // fitting applied to the union) — spot-check the satisfiability
        // postulates through the arbitration wrapper.
        use PostulateId::*;
        let arb = Arbitration;
        // A1 fails for arbitration (the result need not imply φ — that is
        // the point), but A3 holds and A2 holds w.r.t. the union being
        // empty only when both are.
        assert!(check_exhaustive(&arb, &[A1], 2).is_err());
        assert_eq!(check_exhaustive(&arb, &[A3], 2), Ok(()));
    }

    #[test]
    fn revision_fails_a8_on_theorem_32_construction() {
        use crate::revision::DalalRevision;
        let err = check_exhaustive(&DalalRevision, &[PostulateId::A8], 2).unwrap_err();
        assert_eq!(err.id, PostulateId::A8);
    }
}
