//! Cardinality minimization: find a model minimizing the number of true
//! literals among a given set.
//!
//! This is the engine behind the SAT backend for Dalal's revision operator:
//! with difference variables `d_i ↔ (x_i ⊕ y_i)` between a model of `μ` and
//! a model of `ψ`, minimizing the true count of `{d_i}` computes the minimal
//! Hamming distance — and the optimal models fall out of the final solve.

use crate::card::CardinalityLadder;
use crate::lit::Lit;
use crate::solver::{SolveResult, Solver};
use arbitrex_telemetry::budget::{Budget, BudgetSite, Exhausted};

/// A feasible cardinality bound found by [`minimize_true_count_budgeted`].
#[derive(Debug)]
pub struct MinimizeBound {
    /// A feasible true-count: the minimum when `trip` is `None`, otherwise
    /// the best *incumbent* — an upper bound on the minimum.
    pub k: usize,
    /// A satisfying assignment achieving `k` (original variables only).
    pub model: Vec<bool>,
    /// The encoded ladder (its bound can be re-imposed via
    /// [`CardinalityLadder::assert_at_most`]).
    pub ladder: CardinalityLadder,
    /// `Some` when the budget gave out mid-search, leaving `k` inexact.
    pub trip: Option<Exhausted>,
}

impl MinimizeBound {
    /// Is `k` the true minimum (search ran to completion)?
    pub fn is_exact(&self) -> bool {
        self.trip.is_none()
    }
}

/// Outcome of a budgeted cardinality minimization.
#[derive(Debug)]
pub enum MinimizeOutcome {
    /// The clause set is unsatisfiable: nothing to minimize.
    Unsat,
    /// The budget gave out before *any* model was found — no incumbent,
    /// no bound.
    Interrupted(Exhausted),
    /// A feasible bound, exact unless `trip` is set.
    Bound(MinimizeBound),
}

/// Find the minimum number of `targets` literals that can be simultaneously
/// true in a model of the solver's clause set, by binary search over an
/// assumption-driven cardinality ladder.
///
/// The bound's `model` is a satisfying assignment achieving `k` (as a
/// bool-per-variable snapshot covering the *original* variables present
/// before the ladder was encoded). The ladder's auxiliary clauses remain in
/// the solver afterwards; the bound can be re-imposed by the caller via
/// [`CardinalityLadder::assert_at_most`] on the returned ladder.
///
/// Each binary-search step is charged to [`BudgetSite::LadderStep`] on
/// `budget` (pass [`Budget::unlimited`] for an exact search), and
/// exhaustion degrades gracefully — the best *incumbent* bound found so far
/// is returned (flagged inexact) instead of the search aborting. Because
/// every incumbent is feasible, an inexact `k` is always an upper bound on
/// the true minimum: the models within distance `k` are a superset of the
/// optimal ones.
///
/// The budget governs the binary search itself; to also interrupt the
/// individual SAT solves, attach (a clone of) the same budget to the
/// solver with [`Solver::set_budget`].
pub fn minimize_true_count_budgeted(
    solver: &mut Solver,
    targets: &[Lit],
    budget: &Budget,
) -> MinimizeOutcome {
    let n_original = solver.num_vars();
    match solver.solve() {
        SolveResult::Unsat => return MinimizeOutcome::Unsat,
        SolveResult::Interrupted => return MinimizeOutcome::Interrupted(solver.trip()),
        SolveResult::Sat => {}
    }
    let count_in_model = |s: &Solver| {
        targets
            .iter()
            .filter(|l| s.model_value(l.var()) == Some(l.is_pos()))
            .count()
    };
    let best_count = count_in_model(solver);
    let mut best_model: Vec<bool> = solver.model()[..n_original as usize].to_vec();
    if best_count == 0 || targets.is_empty() {
        let ladder = CardinalityLadder::encode(solver, targets);
        return MinimizeOutcome::Bound(MinimizeBound {
            k: best_count,
            model: best_model,
            ladder,
            trip: None,
        });
    }
    let ladder = CardinalityLadder::encode(solver, targets);
    // Invariant: sat with ≤ hi is known (hi = best_count), unsat with ≤ lo-1
    // unknown; classic binary search on the least feasible bound.
    let mut lo = 0usize;
    let mut hi = best_count;
    let mut steps = 0u64;
    let mut trip: Option<Exhausted> = None;
    while lo < hi {
        if let Err(t) = budget.charge(BudgetSite::LadderStep, 1) {
            trip = Some(t);
            break;
        }
        steps += 1;
        let mid = lo + (hi - lo) / 2;
        let assumption = ladder.at_most(mid);
        let assumps: Vec<Lit> = assumption.into_iter().collect();
        match solver.solve_with_assumptions(&assumps) {
            SolveResult::Sat => {
                let c = count_in_model(solver);
                debug_assert!(c <= mid);
                best_model = solver.model()[..n_original as usize].to_vec();
                hi = c;
            }
            SolveResult::Unsat => {
                lo = mid + 1;
            }
            SolveResult::Interrupted => {
                trip = Some(solver.trip());
                break;
            }
        }
    }
    crate::telemetry::CARD_BINSEARCH_STEPS.add(steps);
    MinimizeOutcome::Bound(MinimizeBound {
        k: hi,
        model: best_model,
        ladder,
        trip,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact minimum `(k, model, ladder)` under an unlimited budget,
    /// `None` when the clause set is unsatisfiable.
    fn exact_min(s: &mut Solver, targets: &[Lit]) -> Option<(usize, Vec<bool>, CardinalityLadder)> {
        match minimize_true_count_budgeted(s, targets, &Budget::unlimited()) {
            MinimizeOutcome::Bound(b) => {
                assert!(b.is_exact());
                Some((b.k, b.model, b.ladder))
            }
            MinimizeOutcome::Unsat => None,
            MinimizeOutcome::Interrupted(trip) => panic!("unlimited budget tripped: {trip:?}"),
        }
    }

    #[test]
    fn minimum_is_zero_when_targets_unconstrained() {
        let mut s = Solver::new();
        s.ensure_vars(3);
        s.add_dimacs_clause(&[1, 2, 3]);
        // x0 can be false: min true count of {x0} is 0.
        let (k, model, _) = exact_min(&mut s, &[Lit::pos(0)]).unwrap();
        assert_eq!(k, 0);
        assert!(!model[0]);
    }

    #[test]
    fn forced_literals_push_minimum_up() {
        let mut s = Solver::new();
        s.ensure_vars(3);
        // x0 forced; x1 ∨ x2 forced (at least one).
        s.add_dimacs_clause(&[1]);
        s.add_dimacs_clause(&[2, 3]);
        let targets = [Lit::pos(0), Lit::pos(1), Lit::pos(2)];
        let (k, model, _) = exact_min(&mut s, &targets).unwrap();
        assert_eq!(k, 2);
        assert!(model[0]);
        assert!(model[1] ^ model[2] || (model[1] != model[2]));
    }

    #[test]
    fn at_least_constraints_via_big_clauses() {
        // Exactly-one over 4 vars: minimum true count is 1.
        let mut s = Solver::new();
        s.ensure_vars(4);
        s.add_dimacs_clause(&[1, 2, 3, 4]);
        for i in 1..=4 {
            for j in (i + 1)..=4 {
                s.add_dimacs_clause(&[-i, -j]);
            }
        }
        let targets: Vec<Lit> = (0..4).map(Lit::pos).collect();
        let (k, model, _) = exact_min(&mut s, &targets).unwrap();
        assert_eq!(k, 1);
        assert_eq!(model.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn minimize_over_negative_literals() {
        // Maximize trues == minimize falses: x0 ∨ x1 with targets ¬x0, ¬x1.
        let mut s = Solver::new();
        s.ensure_vars(2);
        s.add_dimacs_clause(&[1, 2]);
        let targets = [Lit::neg_on(0), Lit::neg_on(1)];
        let (k, model, _) = exact_min(&mut s, &targets).unwrap();
        assert_eq!(k, 0);
        assert!(model[0] && model[1]);
    }

    #[test]
    fn empty_target_set() {
        let mut s = Solver::new();
        s.ensure_vars(2);
        s.add_dimacs_clause(&[1]);
        let (k, model, _) = exact_min(&mut s, &[]).unwrap();
        assert_eq!(k, 0);
        assert!(model[0]);
    }

    #[test]
    fn budgeted_fault_on_ladder_step_keeps_incumbent_upper_bound() {
        use arbitrex_telemetry::budget::{FaultPlan, TripReason};
        // Exactly-one over 4 vars: true minimum is 1, initial incumbent
        // is whatever the first solve found (≥ 1).
        let mut s = Solver::new();
        s.ensure_vars(4);
        s.add_dimacs_clause(&[1, 2, 3, 4]);
        let targets: Vec<Lit> = (0..4).map(Lit::pos).collect();
        let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::LadderStep, 1));
        match minimize_true_count_budgeted(&mut s, &targets, &budget) {
            MinimizeOutcome::Bound(b) => {
                assert!(!b.is_exact());
                assert_eq!(b.trip.unwrap().reason, TripReason::Fault);
                // The incumbent is feasible, hence an upper bound on 0
                // (all-false satisfies the clause via... no: clause needs
                // one true) — on the true minimum 1.
                assert!(b.k >= 1);
                assert_eq!(
                    b.model.iter().filter(|&&v| v).count(),
                    b.k,
                    "incumbent model must achieve its own bound"
                );
            }
            other => panic!("expected Bound, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_unsat_is_typed() {
        let mut s = Solver::new();
        s.ensure_vars(1);
        s.add_dimacs_clause(&[1]);
        s.add_dimacs_clause(&[-1]);
        assert!(matches!(
            minimize_true_count_budgeted(&mut s, &[Lit::pos(0)], &Budget::unlimited()),
            MinimizeOutcome::Unsat
        ));
    }

    #[test]
    fn ladder_can_lock_in_the_optimum() {
        let mut s = Solver::new();
        s.ensure_vars(3);
        s.add_dimacs_clause(&[1, 2]);
        s.add_dimacs_clause(&[2, 3]);
        let targets: Vec<Lit> = (0..3).map(Lit::pos).collect();
        let (k, _, ladder) = exact_min(&mut s, &targets).unwrap();
        assert_eq!(k, 1); // x1 alone satisfies both clauses
        ladder.assert_at_most(&mut s, k);
        // Now x1 is effectively forced: check by assuming ¬x1.
        assert_eq!(
            s.solve_with_assumptions(&[Lit::neg_on(1)]),
            SolveResult::Unsat
        );
    }
}
