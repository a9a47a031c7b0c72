//! Budget-governed operator execution: typed, degrade-gracefully outcomes.
//!
//! Every enumeration-backed operator in this crate has a budgeted variant
//! that accepts a [`Budget`] (wall-clock deadline, step/conflict/candidate
//! limits, a [`CancelToken`], or a deterministic [`FaultPlan`]) and returns
//! a typed [`Outcome`] instead of running to completion or panicking. The
//! contract is directional and checked property-style in
//! `tests/budget_containment.rs`:
//!
//! * [`Quality::Exact`] — the budget never tripped; the models are exactly
//!   the operator's answer.
//! * [`Quality::UpperBound`] — the budget tripped, and the models are the
//!   minima found so far **unioned with every not-yet-refuted candidate**
//!   (the frontier). The true answer is a *subset* of what is returned —
//!   an over-approximation with a well-defined direction.
//! * [`Quality::Interrupted`] — the budget tripped and the frontier was too
//!   large to materialize (past [`Budget::frontier_limit`]); the models are
//!   the best *incumbents* only, with no containment guarantee in either
//!   direction.
//!
//! The selection kernel has one implementation per algorithm, and it is
//! always metered: an unconstrained budget ([`Budget::unlimited`]) runs
//! the same scans and searches as any other, charging
//! [`BudgetSite::Scan`] per candidate and [`BudgetSite::Node`] per
//! branch-and-bound node through batching meters — it just never trips.
//! [`Outcome::spent`] therefore reports the kernel work of exact runs
//! too. The SAT backend arms its solvers the same way, so exact SAT runs
//! report the conflicts they spent.

pub use arbitrex_telemetry::budget::{
    Budget, BudgetSite, BudgetSpent, CancelToken, Exhausted, FaultFamily, FaultPlan, FaultSite,
    Faults, TripReason,
};

use crate::operator::ChangeOperator;
use crate::telemetry;
use crate::weighted::WeightedKb;
use arbitrex_logic::ModelSet;

/// How trustworthy a budgeted answer is. See the module docs for the
/// containment contract of each level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// The search ran to completion: the answer is exact.
    Exact,
    /// The budget tripped; the answer contains every true minimum plus the
    /// unrefuted frontier (a superset of the exact answer).
    UpperBound,
    /// The budget tripped and the frontier overflowed; the answer is the
    /// incumbent set only (no containment guarantee).
    Interrupted,
}

impl Quality {
    /// Stable snake_case name (used in JSON and CLI messages).
    pub fn name(self) -> &'static str {
        match self {
            Quality::Exact => "exact",
            Quality::UpperBound => "upper_bound",
            Quality::Interrupted => "interrupted",
        }
    }

    /// Is this an exact answer?
    pub fn is_exact(self) -> bool {
        matches!(self, Quality::Exact)
    }
}

/// The typed result of a budgeted operator application: the models, how
/// much to trust them, and what they cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The resulting model set (exact, over-approximate, or incumbent-only
    /// according to `quality`).
    pub models: ModelSet,
    /// The containment contract the models satisfy.
    pub quality: Quality,
    /// Work charged to the budget, including the trip record if it gave
    /// out.
    pub spent: BudgetSpent,
}

impl Outcome {
    /// Assemble an outcome, recording it in the `"budget"` telemetry
    /// section.
    pub fn new(models: ModelSet, quality: Quality, budget: &Budget) -> Outcome {
        let spent = budget.spent();
        record_outcome(&spent);
        Outcome {
            models,
            quality,
            spent,
        }
    }

    /// An exact outcome (the budget never tripped on this path).
    pub fn exact(models: ModelSet, budget: &Budget) -> Outcome {
        Outcome::new(models, Quality::Exact, budget)
    }

    /// Did the search run to completion?
    pub fn is_exact(&self) -> bool {
        self.quality.is_exact()
    }
}

/// The weighted analogue of [`Outcome`], for weighted arbitration and
/// [`WdistFitting::apply_with_budget`](crate::WdistFitting::apply_with_budget).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedOutcome {
    /// The resulting weighted knowledge base.
    pub kb: WeightedKb,
    /// The containment contract the support satisfies (weights on frontier
    /// members are the pool weights they carried).
    pub quality: Quality,
    /// Work charged to the budget, including the trip record.
    pub spent: BudgetSpent,
}

impl WeightedOutcome {
    /// Assemble a weighted outcome, recording it in the `"budget"`
    /// telemetry section.
    pub fn new(kb: WeightedKb, quality: Quality, budget: &Budget) -> WeightedOutcome {
        let spent = budget.spent();
        record_outcome(&spent);
        WeightedOutcome { kb, quality, spent }
    }

    /// An exact weighted outcome.
    pub fn exact(kb: WeightedKb, budget: &Budget) -> WeightedOutcome {
        WeightedOutcome::new(kb, Quality::Exact, budget)
    }

    /// Did the search run to completion?
    pub fn is_exact(&self) -> bool {
        self.quality.is_exact()
    }
}

pub(crate) fn record_outcome(spent: &BudgetSpent) {
    telemetry::BUDGETED_CALLS.incr();
    if let Some(trip) = spent.trip {
        telemetry::BUDGET_TRIPS.incr();
        if trip.reason == TripReason::Fault {
            telemetry::FAULT_TRIPS.incr();
        }
    }
}

/// Budget-governed application, implemented by every enumeration-backed
/// classical operator (the fitting family, Dalal revision, and the update
/// operators).
///
/// `apply_with_budget(ψ, μ, unlimited)` must agree exactly with
/// [`ChangeOperator::apply`]; with a constrained budget the result follows
/// the [`Quality`] containment contract.
pub trait BudgetedChangeOperator: ChangeOperator {
    /// `Mod(ψ op μ)` under `budget`, degrading gracefully on exhaustion.
    fn apply_with_budget(&self, psi: &ModelSet, mu: &ModelSet, budget: &Budget) -> Outcome;
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitrex_logic::Interp;

    #[test]
    fn quality_names_are_stable() {
        assert_eq!(Quality::Exact.name(), "exact");
        assert_eq!(Quality::UpperBound.name(), "upper_bound");
        assert_eq!(Quality::Interrupted.name(), "interrupted");
        assert!(Quality::Exact.is_exact());
        assert!(!Quality::UpperBound.is_exact());
    }

    #[test]
    fn exact_outcome_carries_spent_snapshot() {
        let b = Budget::unlimited();
        b.charge(BudgetSite::Scan, 42).unwrap();
        let o = Outcome::exact(ModelSet::new(2, [Interp(0b01)]), &b);
        assert!(o.is_exact());
        assert_eq!(o.spent.scans, 42);
        assert!(o.spent.trip.is_none());
    }

    #[test]
    fn weighted_outcome_mirrors_classical() {
        let b = Budget::unlimited();
        let o = WeightedOutcome::exact(WeightedKb::from_weights(2, [(Interp(0b10), 3)]), &b);
        assert!(o.is_exact());
        assert_eq!(o.kb.weight(Interp(0b10)), 3);
    }
}
