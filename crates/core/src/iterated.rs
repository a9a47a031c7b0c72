//! Iterated theory change: sequences of changes and their long-run
//! dynamics.
//!
//! The paper treats a single change step; a database lives through many.
//! This module provides sequence application for any [`ChangeOperator`]
//! and the dynamics analysis used by the experiments. The state space is
//! finite, so iterating `ψ ← op(ψ, μ)` with fixed `μ` always becomes
//! *eventually periodic* — but, perhaps surprisingly, the period is not
//! always 1: revision stabilizes after one step (forced by (R2)), while
//! model-fitting can enter a genuine 2-cycle. Witness over two variables:
//! `ψ = {01, 10}`, `μ = ⊤` — the odist consensus of `{01, 10}` is
//! `{00, 11}`, whose consensus is `{01, 10}` again. Arbitration "between"
//! two symmetric camps oscillates between the camps and their midpoints.

use crate::operator::ChangeOperator;
use arbitrex_logic::ModelSet;

/// Apply `op` left-to-right through a sequence of inputs:
/// `((ψ op μ₁) op μ₂) op …`.
pub fn apply_sequence(op: &dyn ChangeOperator, psi: &ModelSet, inputs: &[ModelSet]) -> ModelSet {
    inputs
        .iter()
        .fold(psi.clone(), |acc, mu| op.apply(&acc, mu))
}

/// The outcome of iterating a change step on a finite state space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationOutcome {
    /// Visited states, starting with the initial `ψ`, ending at the first
    /// repeated state (inclusive) or after `max_steps`.
    pub trajectory: Vec<ModelSet>,
    /// Index in `trajectory` where its final state first appeared, if the
    /// iteration closed a cycle within the step budget.
    pub cycle_start: Option<usize>,
}

impl IterationOutcome {
    /// Cycle length, if a cycle was closed (`1` = fixpoint).
    pub fn period(&self) -> Option<usize> {
        self.cycle_start
            .map(|start| self.trajectory.len() - 1 - start)
    }

    /// Did the iteration converge to a single stable theory?
    pub fn is_fixpoint(&self) -> bool {
        self.period() == Some(1)
    }
}

fn iterate_impl<F: FnMut(&ModelSet) -> ModelSet>(
    psi: &ModelSet,
    max_steps: usize,
    mut step: F,
) -> IterationOutcome {
    let mut trajectory = vec![psi.clone()];
    for _ in 0..max_steps {
        // invariant: the trajectory starts non-empty and only grows.
        let next = step(trajectory.last().unwrap());
        let seen = trajectory.iter().position(|s| *s == next);
        trajectory.push(next);
        if let Some(start) = seen {
            return IterationOutcome {
                trajectory,
                cycle_start: Some(start),
            };
        }
    }
    IterationOutcome {
        trajectory,
        cycle_start: None,
    }
}

/// Iterate `ψ ← op(ψ, μ)` with a fixed `μ`, stopping when a previously
/// visited state recurs (cycle closed) or after `max_steps`.
pub fn iterate_fixed_input(
    op: &dyn ChangeOperator,
    psi: &ModelSet,
    mu: &ModelSet,
    max_steps: usize,
) -> IterationOutcome {
    iterate_impl(psi, max_steps, |current| op.apply(current, mu))
}

/// Iterate self-arbitration `ψ ← ψ Δ ψ` (the theory's own consensus core).
pub fn iterate_self_arbitration(psi: &ModelSet, max_steps: usize) -> IterationOutcome {
    let arb = crate::arbitration::Arbitration;
    iterate_impl(psi, max_steps, |current| arb.apply(current, current))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitting::OdistFitting;
    use crate::revision::DalalRevision;
    use crate::update::WinslettUpdate;
    use arbitrex_logic::Interp;

    fn ms(n: u32, bits: &[u64]) -> ModelSet {
        ModelSet::new(n, bits.iter().map(|&b| Interp(b)))
    }

    #[test]
    fn revision_by_fixed_mu_is_idempotent_after_one_step() {
        // After ψ ∘ μ ⊆ μ, postulate (R2) makes every further revision by μ
        // a no-op.
        let psi = ms(3, &[0b111]);
        let mu = ms(3, &[0b000, 0b001, 0b010]);
        let out = iterate_fixed_input(&DalalRevision, &psi, &mu, 10);
        assert!(out.is_fixpoint());
        assert!(out.trajectory.len() <= 3);
    }

    #[test]
    fn the_two_camp_oscillation() {
        // The documented period-2 witness: symmetric camps under a full μ.
        let psi = ms(2, &[0b01, 0b10]);
        let mu = ModelSet::all(2);
        let out = iterate_fixed_input(&OdistFitting, &psi, &mu, 10);
        assert_eq!(out.period(), Some(2));
        assert_eq!(out.trajectory[1], ms(2, &[0b00, 0b11]));
        assert_eq!(out.trajectory[2], psi);
    }

    #[test]
    fn self_arbitration_oscillates_on_symmetric_camps() {
        let psi = ms(2, &[0b00, 0b11]);
        let out = iterate_self_arbitration(&psi, 20);
        assert_eq!(out.period(), Some(2));
        assert_ne!(out.trajectory[0], out.trajectory[1]);
    }

    #[test]
    fn self_arbitration_fixpoint_on_singletons() {
        let psi = ms(3, &[0b101]);
        let out = iterate_self_arbitration(&psi, 5);
        assert!(out.is_fixpoint());
        assert_eq!(out.trajectory[1], psi);
    }

    #[test]
    fn apply_sequence_folds_in_order() {
        let psi = ms(2, &[0b00]);
        let seq = [ms(2, &[0b01, 0b10]), ms(2, &[0b10, 0b11])];
        let result = apply_sequence(&DalalRevision, &psi, &seq);
        let manual = DalalRevision.apply(&DalalRevision.apply(&psi, &seq[0]), &seq[1]);
        assert_eq!(result, manual);
    }

    #[test]
    fn empty_sequence_returns_psi() {
        let psi = ms(2, &[0b01]);
        assert_eq!(apply_sequence(&DalalRevision, &psi, &[]), psi);
    }

    #[test]
    fn all_operators_are_eventually_periodic_with_period_at_most_two() {
        // Finite state space guarantees eventual periodicity; measured on
        // the full 2-variable universe the period never exceeds 2, and
        // revision/update always hit period 1.
        let ops: Vec<&dyn ChangeOperator> = vec![&DalalRevision, &WinslettUpdate, &OdistFitting];
        for pmask in 1u32..16 {
            for mmask in 1u32..16 {
                let psi = ms(
                    2,
                    &(0..4u64)
                        .filter(|b| pmask >> b & 1 == 1)
                        .collect::<Vec<_>>(),
                );
                let mu = ms(
                    2,
                    &(0..4u64)
                        .filter(|b| mmask >> b & 1 == 1)
                        .collect::<Vec<_>>(),
                );
                for op in &ops {
                    let out = iterate_fixed_input(*op, &psi, &mu, 64);
                    let period = out.period().unwrap_or_else(|| {
                        panic!(
                            "{} never cycled for psi={pmask:04b} mu={mmask:04b}",
                            op.name()
                        )
                    });
                    assert!(period <= 2, "{} period {period}", op.name());
                    if op.name() != "odist-fitting" {
                        assert_eq!(period, 1, "{} should stabilize", op.name());
                    }
                }
            }
        }
    }
}
