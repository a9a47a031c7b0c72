//! AllSAT: enumerate (projected) models via blocking clauses.
//!
//! The theory-change backends need `Mod(φ)` explicitly — revision, update
//! and model-fitting all quantify over model sets. For formulas whose model
//! count is manageable even when the variable count is not, SAT-based
//! enumeration projected onto the original (non-Tseitin) variables is the
//! scalable route.

use crate::lit::Lit;
use crate::solver::{SolveResult, Solver};
use arbitrex_telemetry::budget::{Budget, BudgetSite, Exhausted};

/// Bound on enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllSatLimit {
    /// Enumerate every model.
    Unlimited,
    /// Stop after this many models.
    AtMost(usize),
}

/// How a budgeted enumeration ([`enumerate_models_budgeted`]) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumStatus {
    /// Every projected model was enumerated.
    Complete,
    /// The [`AllSatLimit`] was hit before enumeration finished.
    LimitExceeded,
    /// The budget gave out mid-enumeration; the returned models are a
    /// *partial subset* of the projected model set.
    Interrupted(Exhausted),
}

/// Result of a budgeted enumeration: the models found so far (sorted,
/// deduplicated) plus how the enumeration ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumResult {
    /// Projected models found (all of them iff `status` is `Complete`).
    pub models: Vec<u64>,
    /// How the enumeration ended.
    pub status: EnumStatus,
}

/// Enumerate the models of the solver's clause set projected onto variables
/// `0..project_vars`, as bitmasks (bit `v` = variable `v` true).
///
/// Each found projection is blocked with a clause over the projection
/// variables, so models that agree on the projection are reported once.
/// Blocking clauses stay in the solver — pass a dedicated solver instance.
///
/// Each model found is charged to [`BudgetSite::Model`] on `budget`; pass
/// [`Budget::unlimited`] for a plain enumeration. The result carries the
/// sorted models found so far together with a typed [`EnumStatus`]: only
/// `Complete` means the set is whole. An `Interrupted` status means the
/// returned set is a *subset* of the projected models — never a superset —
/// so the degradation direction is well-defined.
///
/// The budget governs the enumeration loop itself; to also interrupt the
/// individual SAT solves, attach (a clone of) the same budget to the
/// solver with [`Solver::set_budget`].
///
/// # Panics
/// Panics if `project_vars` exceeds 64 or the solver's variable count.
pub fn enumerate_models_budgeted(
    solver: &mut Solver,
    project_vars: u32,
    limit: AllSatLimit,
    budget: &Budget,
) -> EnumResult {
    assert!(project_vars <= 64, "projection wider than 64 bits");
    assert!(project_vars <= solver.num_vars());
    let mut out: Vec<u64> = Vec::new();
    let mut blocked = 0u64;
    let mut status = loop {
        match solver.solve() {
            SolveResult::Unsat => break EnumStatus::Complete,
            SolveResult::Interrupted => break EnumStatus::Interrupted(solver.trip()),
            SolveResult::Sat => {
                let mut bits = 0u64;
                let mut blocking: Vec<Lit> = Vec::with_capacity(project_vars as usize);
                for v in 0..project_vars {
                    // invariant: a Sat result always carries a complete model.
                    let val = solver.model_value(v).expect("model covers all vars");
                    if val {
                        bits |= 1u64 << v;
                    }
                    blocking.push(Lit::new(v, !val));
                }
                out.push(bits);
                if let Err(trip) = budget.charge(BudgetSite::Model, 1) {
                    break EnumStatus::Interrupted(trip);
                }
                if let AllSatLimit::AtMost(max) = limit {
                    if out.len() > max {
                        break EnumStatus::LimitExceeded;
                    }
                }
                if blocking.is_empty() {
                    // Zero projection vars: a single (empty) projection.
                    break EnumStatus::Complete;
                }
                blocked += 1;
                if !solver.add_clause(&blocking) {
                    break EnumStatus::Complete; // blocking clause made the set unsat
                }
            }
        }
    };
    crate::telemetry::ALLSAT_MODELS.add(out.len() as u64);
    crate::telemetry::ALLSAT_BLOCKING_CLAUSES.add(blocked);
    out.sort_unstable();
    out.dedup();
    if status == EnumStatus::Complete {
        if let AllSatLimit::AtMost(max) = limit {
            if out.len() > max {
                status = EnumStatus::LimitExceeded;
            }
        }
    }
    EnumResult {
        models: out,
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver_with(n: u32, clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new();
        s.ensure_vars(n);
        for c in clauses {
            s.add_dimacs_clause(c);
        }
        s
    }

    /// Every projected model, asserting the enumeration ran to completion.
    fn all_models(s: &mut Solver, project_vars: u32, limit: AllSatLimit) -> Vec<u64> {
        let r = enumerate_models_budgeted(s, project_vars, limit, &Budget::unlimited());
        assert_eq!(r.status, EnumStatus::Complete);
        r.models
    }

    #[test]
    fn enumerates_all_models_of_small_formula() {
        // x1 ∨ x2 over 2 vars: 3 models.
        let mut s = solver_with(2, &[&[1, 2]]);
        let models = all_models(&mut s, 2, AllSatLimit::Unlimited);
        assert_eq!(models, vec![0b01, 0b10, 0b11]);
    }

    #[test]
    fn unsat_formula_has_no_models() {
        let mut s = solver_with(1, &[&[1], &[-1]]);
        let models = all_models(&mut s, 1, AllSatLimit::Unlimited);
        assert!(models.is_empty());
    }

    #[test]
    fn free_variables_double_the_count() {
        // Clause only on x1; x2 free => models {1}, {1,2} projected on both.
        let mut s = solver_with(2, &[&[1]]);
        let models = all_models(&mut s, 2, AllSatLimit::Unlimited);
        assert_eq!(models, vec![0b01, 0b11]);
    }

    #[test]
    fn projection_merges_agreeing_models() {
        // x2 free, project only on x1: one projected model.
        let mut s = solver_with(2, &[&[1]]);
        let models = all_models(&mut s, 1, AllSatLimit::Unlimited);
        assert_eq!(models, vec![0b1]);
    }

    #[test]
    fn limit_truncation_is_reported() {
        let mut s = solver_with(3, &[]); // 8 models
        let r = enumerate_models_budgeted(&mut s, 3, AllSatLimit::AtMost(4), &Budget::unlimited());
        assert_eq!(r.status, EnumStatus::LimitExceeded);
        let mut s = solver_with(3, &[]);
        let all = all_models(&mut s, 3, AllSatLimit::AtMost(8));
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn zero_projection_vars() {
        let mut s = solver_with(2, &[&[1, 2]]);
        let models = all_models(&mut s, 0, AllSatLimit::Unlimited);
        assert_eq!(models, vec![0]);
    }

    #[test]
    fn budgeted_candidate_limit_keeps_partial_subset() {
        let mut s = solver_with(3, &[]); // 8 models
        let budget = Budget::unlimited().with_candidate_limit(3);
        let r = enumerate_models_budgeted(&mut s, 3, AllSatLimit::Unlimited, &budget);
        assert!(matches!(r.status, EnumStatus::Interrupted(_)));
        // A subset of the true model set, not a superset.
        assert!(r.models.len() <= 4);
        assert!(r.models.iter().all(|&m| m < 8));
        assert_eq!(budget.spent().models, r.models.len() as u64);
    }

    #[test]
    fn budgeted_fault_mid_allsat_trips_deterministically() {
        use arbitrex_telemetry::budget::{FaultPlan, TripReason};
        let mut s = solver_with(3, &[]);
        let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Model, 2));
        let r = enumerate_models_budgeted(&mut s, 3, AllSatLimit::Unlimited, &budget);
        match r.status {
            EnumStatus::Interrupted(trip) => {
                assert_eq!(trip.reason, TripReason::Fault);
                assert_eq!(trip.site, BudgetSite::Model);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        assert_eq!(r.models.len(), 2);
    }

    #[test]
    fn budgeted_complete_matches_unbudgeted() {
        let mut s = solver_with(2, &[&[1, 2]]);
        let r = enumerate_models_budgeted(
            &mut s,
            2,
            AllSatLimit::Unlimited,
            &Budget::unlimited().with_candidate_limit(100),
        );
        assert_eq!(r.status, EnumStatus::Complete);
        assert_eq!(r.models, vec![0b01, 0b10, 0b11]);
    }

    #[test]
    fn solver_budget_interrupts_enumeration() {
        // A conflict-starved solver budget trips inside solve(); the
        // enumeration surfaces the partial subset with Interrupted status.
        let mut s = solver_with(3, &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3]]);
        let budget = Budget::unlimited().with_conflict_limit(0);
        s.set_budget(Some(budget.clone()));
        let r = enumerate_models_budgeted(&mut s, 3, AllSatLimit::Unlimited, &budget);
        // Either the first solve got lucky without conflicts or we tripped;
        // in both cases the result is typed, never a panic.
        match r.status {
            EnumStatus::Complete | EnumStatus::Interrupted(_) => {}
            other => panic!("unexpected status {other:?}"),
        }
    }

    #[test]
    fn tseitin_style_aux_vars_are_projected_away() {
        // x3 defined as x1 ∧ x2 (aux); formula asserts x3.
        let mut s = solver_with(3, &[&[-3, 1], &[-3, 2], &[-1, -2, 3], &[3]]);
        let models = all_models(&mut s, 2, AllSatLimit::Unlimited);
        assert_eq!(models, vec![0b11]);
    }
}
