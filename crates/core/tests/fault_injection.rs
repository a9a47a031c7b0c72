//! Deterministic fault-injection matrix: every degradation edge in the
//! engine — kernel scan, branch-and-bound, SAT search, AllSAT
//! enumeration, and the cardinality ladder — is tripped via [`FaultPlan`]
//! and must return a typed outcome obeying the containment contract
//! instead of panicking.
//!
//! The charge arithmetic makes trips past the actual work count legal
//! no-ops: a fault at the k-th event of a site the search never reaches k
//! times simply never fires and the search completes exactly. Only the
//! `at = 1` row of each matrix is guaranteed to trip (the first event of
//! an exercised site always charges).

use std::time::Duration;

use arbitrex_core::kernel::{naive, select_min_subcube_odist};
use arbitrex_core::satbackend::{dalal_revision_sat_budgeted, odist_fitting_sat_budgeted};
use arbitrex_core::{
    try_arbitrate_with_budget, Budget, BudgetSite, BudgetedChangeOperator, CancelToken,
    DalalRevision, FaultPlan, Quality, TripReason,
};
use arbitrex_logic::{form_of, Interp, ModelSet};

const SAT_MODEL_LIMIT: usize = 1 << 12;

fn superset(big: &ModelSet, small: &ModelSet) -> bool {
    small.iter().all(|m| big.contains(m))
}

fn subset(small: &ModelSet, big: &ModelSet) -> bool {
    superset(big, small)
}

/// Site 1: the kernel's ranked candidate scan (`select_min`
/// behind every pool-based operator).
#[test]
fn kernel_scan_fault_matrix() {
    let psi = ModelSet::new(4, [Interp(0b0011), Interp(0b1100)]);
    let mu = ModelSet::new(
        4,
        [
            Interp(0b0000),
            Interp(0b0111),
            Interp(0b1111),
            Interp(0b1010),
        ],
    );
    let exact = naive::dalal_revision(&psi, &mu);
    for at in [1u64, 2, 3, 4, 5, 100] {
        let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, at));
        let out = DalalRevision.apply_with_budget(&psi, &mu, &budget);
        match out.quality {
            Quality::Exact => assert_eq!(out.models, exact, "fault at {at}"),
            Quality::UpperBound => {
                assert!(superset(&out.models, &exact), "fault at {at}");
                assert_eq!(out.spent.trip.unwrap().reason, TripReason::Fault);
            }
            Quality::Interrupted => panic!("tiny pools never overflow the frontier (at {at})"),
        }
    }
    // The first candidate always ticks: at = 1 must degrade.
    let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, 1));
    let out = DalalRevision.apply_with_budget(&psi, &mu, &budget);
    assert_eq!(out.quality, Quality::UpperBound);
}

/// Site 2: branch-and-bound node expansion.
#[test]
fn bnb_node_fault_matrix() {
    let n = 6;
    let psi_models: Vec<Interp> = [0b000011u64, 0b110000, 0b010101].map(Interp).to_vec();
    let psi = ModelSet::new(n, psi_models.iter().copied());
    let exact = naive::odist_fitting(&psi, &ModelSet::all(n));
    for at in [1u64, 2, 3, 7, 20, 10_000] {
        let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Node, at));
        let sel = select_min_subcube_odist(n, &psi_models, &budget);
        let quality = sel.quality();
        let out = sel.into_outcome(&budget);
        match quality {
            Quality::Exact => assert_eq!(out.models, exact, "node fault at {at}"),
            Quality::UpperBound => {
                assert!(superset(&out.models, &exact), "node fault at {at}");
                assert_eq!(out.spent.trip.unwrap().reason, TripReason::Fault);
            }
            // 2^6 interpretations fit in any frontier; never interrupted.
            Quality::Interrupted => panic!("unexpected frontier overflow (at {at})"),
        }
    }
    // The root node always charges: at = 1 must degrade.
    let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Node, 1));
    let sel = select_min_subcube_odist(n, &psi_models, &budget);
    assert!(sel.trip.is_some(), "root node fault must trip");
}

/// Site 4: AllSAT enumeration. Two tied optima exist; faulting the first
/// enumerated model leaves a typed partial subset.
#[test]
fn allsat_model_fault_yields_partial_subset() {
    let psi = form_of(2, [Interp(0b11)]);
    let mu = form_of(2, [Interp(0b00), Interp(0b01), Interp(0b10)]);
    let psi_m = ModelSet::new(2, [Interp(0b11)]);
    let mu_m = ModelSet::new(2, [Interp(0b00), Interp(0b01), Interp(0b10)]);
    let exact = naive::dalal_revision(&psi_m, &mu_m);
    assert_eq!(exact.len(), 2, "test premise: tied optima");
    let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Model, 1));
    let out = dalal_revision_sat_budgeted(&psi, &mu, 2, SAT_MODEL_LIMIT, &budget)
        .expect("model limit not reached");
    assert_eq!(out.quality, Quality::Interrupted);
    assert_eq!(out.spent.trip.unwrap().reason, TripReason::Fault);
    assert!(
        subset(&out.models, &exact),
        "partial enumeration must stay within the optimum set"
    );
    assert!(out.models.len() < exact.len());
}

/// Site 5: the cardinality-ladder / radius binary search. Interrupting it
/// leaves a sound upper-bound radius and a superset answer.
#[test]
fn cardinality_ladder_fault_keeps_upper_bound() {
    let psi_models: Vec<Interp> = [0b0011u64, 0b1100].map(Interp).to_vec();
    let psi = ModelSet::new(4, psi_models.iter().copied());
    let mu_m = ModelSet::new(4, [Interp(0b0000), Interp(0b0110), Interp(0b1111)]);
    let mu = form_of(4, mu_m.iter());
    let exact = naive::odist_fitting(&psi, &mu_m);
    let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::LadderStep, 1));
    let out = odist_fitting_sat_budgeted(&psi_models, &mu, 4, SAT_MODEL_LIMIT, &budget)
        .expect("model limit not reached");
    assert_eq!(out.quality, Quality::UpperBound);
    assert_eq!(out.spent.trip.unwrap().reason, TripReason::Fault);
    assert!(superset(&out.models, &exact));
}

/// Cancellation is just another trip reason: a token cancelled mid-scan
/// degrades the universe search with `TripReason::Cancelled`.
#[test]
fn cancellation_degrades_universe_arbitration() {
    // Eight models over 11 variables keep the universe on the linear-scan
    // path (too little work for the subcube search to pay) with enough
    // candidates (2^11) to cross the meter's 1024-tick checkpoint.
    let n = 11;
    let psi = ModelSet::new(n, (0..4).map(|k| Interp(k << 3)));
    let phi = ModelSet::new(n, (0..4).map(|k| Interp((1 << n) - 1 - (k << 3))));
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_cancel(token);
    let out = try_arbitrate_with_budget(&psi, &phi, &budget).expect("within enum limit");
    assert!(!out.quality.is_exact());
    assert_eq!(out.spent.trip.unwrap().reason, TripReason::Cancelled);
    let exact = naive::arbitrate(&psi, &phi);
    if out.quality == Quality::UpperBound {
        assert!(superset(&out.models, &exact));
    }
}

/// A deadline in the past trips at the first checkpoint with
/// `TripReason::Deadline`.
#[test]
fn expired_deadline_degrades_universe_arbitration() {
    // The linear-scan shape of the test above.
    let n = 11;
    let psi = ModelSet::new(n, (0..4).map(|k| Interp(0b101 | k << 3)));
    let phi = ModelSet::new(n, (0..4).map(|k| Interp(0b010 | k << 5)));
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    let out = try_arbitrate_with_budget(&psi, &phi, &budget).expect("within enum limit");
    assert!(!out.quality.is_exact());
    assert_eq!(out.spent.trip.unwrap().reason, TripReason::Deadline);
}

/// A fault plan far past the search's work count never fires: the result
/// is exact and bit-identical to the unbudgeted answer.
#[test]
fn fault_beyond_work_count_is_a_no_op() {
    let psi = ModelSet::new(4, [Interp(0b0011)]);
    let mu = ModelSet::new(4, [Interp(0b0000), Interp(0b1111)]);
    let exact = naive::dalal_revision(&psi, &mu);
    for site in BudgetSite::ALL {
        let budget = Budget::unlimited().with_fault(FaultPlan::new(site, u64::MAX));
        let out = DalalRevision.apply_with_budget(&psi, &mu, &budget);
        assert!(out.is_exact(), "site {}", site.name());
        assert_eq!(out.models, exact, "site {}", site.name());
    }
}

fn random_3sat(n: u32, clauses: u32, seed: u64) -> arbitrex_logic::Formula {
    use arbitrex_logic::{Formula, Var};
    // Tiny deterministic LCG so the instance is reproducible.
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let cs: Vec<Formula> = (0..clauses)
        .map(|_| {
            Formula::or((0..3).map(|_| {
                let v = Var((next() % n as u64) as u32);
                let lit = Formula::var(v);
                if next() % 2 == 0 {
                    lit
                } else {
                    Formula::not(lit)
                }
            }))
        })
        .collect();
    Formula::and(cs)
}

/// Site 3: the SAT solver's conflict loop, exercised through the Dalal
/// SAT backend on a random-3SAT `μ` (seed pinned; 19 conflicts when run
/// to completion — verified by the `u64::MAX` row, which also proves an
/// armed-but-never-firing fault leaves the answer exact).
#[test]
fn sat_conflict_fault_degrades() {
    let n = 16;
    let ones = Interp((1u64 << n) - 1);
    let psi = form_of(n, [ones]);
    let mu = random_3sat(n, 67, 1);
    let exact = {
        let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Conflict, u64::MAX));
        let out = dalal_revision_sat_budgeted(&psi, &mu, n, SAT_MODEL_LIMIT, &budget)
            .expect("model limit not reached");
        assert!(out.is_exact(), "far-off conflict fault must not fire");
        assert!(
            out.spent.conflicts >= 1,
            "test premise: search needs conflicts"
        );
        out
    };
    for at in [1u64, 2, 5, 10] {
        let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Conflict, at));
        let out = dalal_revision_sat_budgeted(&psi, &mu, n, SAT_MODEL_LIMIT, &budget)
            .expect("model limit not reached");
        assert!(!out.is_exact(), "conflict fault at {at} must degrade");
        assert_eq!(out.spent.trip.unwrap().reason, TripReason::Fault);
        if out.quality == Quality::UpperBound {
            // Best-incumbent bound: never tighter than the true optimum.
            assert!(
                out.distance.unwrap() >= exact.distance.unwrap(),
                "fault at {at}"
            );
        }
    }
}
