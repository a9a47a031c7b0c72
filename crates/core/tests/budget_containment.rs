//! Property tests for the budget containment contract, checked against
//! the `kernel::naive` oracles on seeded random instances:
//!
//! - an **unconstrained** budget yields `Quality::Exact` and a result
//!   bit-identical to the naive oracle, for every budgeted operator;
//! - under an injected fault, `Quality::UpperBound` answers are
//!   **supersets** of the oracle (sound over-approximations), SAT
//!   `Quality::Interrupted` enumerations are **subsets** of the optimum
//!   set, and `Quality::Exact` answers still equal the oracle (the fault
//!   landed past the work count).

use rand::{rngs::StdRng, Rng, SeedableRng};

use arbitrex_core::kernel::naive;
use arbitrex_core::satbackend::{dalal_revision_sat_budgeted, odist_fitting_sat_budgeted};
use arbitrex_core::{
    try_arbitrate_with_budget, try_warbitrate_with_budget, Budget, BudgetSite,
    BudgetedChangeOperator, DalalRevision, FaultPlan, ForbusUpdate, GMaxFitting, LexOdistFitting,
    OdistFitting, Quality, SumFitting, TripReason, WdistFitting, WeightedKb, WinslettUpdate,
};
use arbitrex_logic::{form_of, Interp, ModelSet};

const N: u32 = 5;

type Oracle = fn(&ModelSet, &ModelSet) -> ModelSet;

fn operators() -> Vec<(Box<dyn BudgetedChangeOperator>, Oracle)> {
    vec![
        (Box::new(DalalRevision), naive::dalal_revision as Oracle),
        (Box::new(OdistFitting), naive::odist_fitting as Oracle),
        (
            Box::new(LexOdistFitting),
            naive::lex_odist_fitting as Oracle,
        ),
        (Box::new(SumFitting), naive::sum_fitting as Oracle),
        (Box::new(GMaxFitting), naive::gmax_fitting as Oracle),
        (Box::new(WinslettUpdate), naive::winslett_update as Oracle),
        (Box::new(ForbusUpdate), naive::forbus_update as Oracle),
    ]
}

fn random_set(rng: &mut StdRng) -> ModelSet {
    let density = rng.random_range(50..600u32) as f64 / 1000.0;
    ModelSet::new(
        N,
        (0..(1u64 << N))
            .map(Interp)
            .filter(|_| rng.random_bool(density)),
    )
}

fn random_kb(rng: &mut StdRng) -> WeightedKb {
    let support = random_set(rng);
    WeightedKb::from_weights(N, support.iter().map(|i| (i, rng.random_range(1..9u64))))
}

fn superset(big: &ModelSet, small: &ModelSet) -> bool {
    small.iter().all(|m| big.contains(m))
}

/// Containment check shared by every degraded-path test: Exact must equal
/// the oracle, UpperBound must contain it; Interrupted carries no
/// containment guarantee (and never occurs on these tiny pools — assert
/// that too, so a frontier regression is loud).
fn check(quality: Quality, models: &ModelSet, exact: &ModelSet, ctx: &str) {
    match quality {
        Quality::Exact => assert_eq!(models, exact, "{ctx}"),
        Quality::UpperBound => assert!(superset(models, exact), "{ctx}"),
        Quality::Interrupted => panic!("tiny pools must not overflow the frontier ({ctx})"),
    }
}

#[test]
fn unconstrained_budget_matches_oracles() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    let ops = operators();
    for case in 0..192 {
        let psi = random_set(&mut rng);
        let mu = random_set(&mut rng);
        for (op, oracle) in &ops {
            let budget = Budget::unlimited();
            let out = op.apply_with_budget(&psi, &mu, &budget);
            let ctx = format!("case {case}, operator {}", op.name());
            assert_eq!(out.quality, Quality::Exact, "{ctx}");
            assert_eq!(out.models, oracle(&psi, &mu), "{ctx}");
            assert!(out.spent.trip.is_none(), "{ctx}");
        }
    }
}

#[test]
fn faulted_operators_keep_containment() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    let ops = operators();
    for case in 0..96 {
        let psi = random_set(&mut rng);
        let mu = random_set(&mut rng);
        let at: u64 = rng.random_range(1..41);
        for (op, oracle) in &ops {
            let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, at));
            let out = op.apply_with_budget(&psi, &mu, &budget);
            let ctx = format!("case {case}, operator {}, fault at {at}", op.name());
            check(out.quality, &out.models, &oracle(&psi, &mu), &ctx);
            if out.quality != Quality::Exact {
                assert_eq!(out.spent.trip.unwrap().reason, TripReason::Fault, "{ctx}");
            }
        }
    }
}

#[test]
fn unconstrained_arbitration_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for case in 0..128 {
        let psi = random_set(&mut rng);
        let phi = random_set(&mut rng);
        let budget = Budget::unlimited();
        let out = try_arbitrate_with_budget(&psi, &phi, &budget).expect("within enum limit");
        assert_eq!(out.quality, Quality::Exact, "case {case}");
        assert_eq!(out.models, naive::arbitrate(&psi, &phi), "case {case}");
    }
}

#[test]
fn faulted_arbitration_keeps_containment() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    for case in 0..96 {
        let psi = random_set(&mut rng);
        let phi = random_set(&mut rng);
        let at: u64 = rng.random_range(1..33);
        // 5 variables keep the universe search on its linear-scan path,
        // so the fault lands on the Scan site.
        let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, at));
        let out = try_arbitrate_with_budget(&psi, &phi, &budget).expect("within enum limit");
        let ctx = format!("case {case}, fault at {at}");
        check(
            out.quality,
            &out.models,
            &naive::arbitrate(&psi, &phi),
            &ctx,
        );
    }
}

#[test]
fn weighted_paths_match_oracles_and_keep_containment() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0005);
    for case in 0..96 {
        let psi = random_kb(&mut rng);
        let mu = random_kb(&mut rng);

        // Unconstrained: bit-identical to the weighted oracle, weights and
        // all.
        let out = WdistFitting.apply_with_budget(&psi, &mu, &Budget::unlimited());
        let exact = naive::wdist_fitting(&psi, &mu);
        assert_eq!(out.quality, Quality::Exact, "case {case}");
        assert_eq!(out.kb.support_set(), exact.support_set(), "case {case}");
        for (i, w) in exact.support() {
            assert_eq!(out.kb.weight(i), w, "case {case}, model {i:?}");
        }

        // Faulted: support containment, and every kept model retains its
        // μ̃-weight (degradation must not invent weights).
        let at: u64 = rng.random_range(1..33);
        let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, at));
        let degraded = WdistFitting.apply_with_budget(&psi, &mu, &budget);
        let ctx = format!("case {case}, fault at {at}");
        check(
            degraded.quality,
            &degraded.kb.support_set(),
            &exact.support_set(),
            &ctx,
        );
        for (i, w) in degraded.kb.support() {
            assert_eq!(w, mu.weight(i), "{ctx}, model {i:?}");
        }

        // Weighted arbitration, same contract.
        let phi = random_kb(&mut rng);
        let wexact = naive::warbitrate(&psi, &phi);
        let wout = try_warbitrate_with_budget(&psi, &phi, &budget).expect("within enum limit");
        check(
            wout.quality,
            &wout.kb.support_set(),
            &wexact.support_set(),
            &ctx,
        );
    }
}

#[test]
fn sat_backend_matches_oracles_and_keeps_containment() {
    const MODEL_LIMIT: usize = 1 << 12;
    let mut rng = StdRng::seed_from_u64(0x5eed_0006);
    for case in 0..48 {
        let psi = random_set(&mut rng);
        let mu = random_set(&mut rng);
        let psi_f = form_of(N, psi.iter());
        let mu_f = form_of(N, mu.iter());
        let psi_models: Vec<Interp> = psi.iter().collect();

        // Unconstrained SAT == enumeration oracle.
        let out = dalal_revision_sat_budgeted(&psi_f, &mu_f, N, MODEL_LIMIT, &Budget::unlimited())
            .expect("model limit not reached");
        assert!(out.is_exact(), "case {case}");
        assert_eq!(out.models, naive::dalal_revision(&psi, &mu), "case {case}");

        if !psi.is_empty() {
            let fit = odist_fitting_sat_budgeted(
                &psi_models,
                &mu_f,
                N,
                MODEL_LIMIT,
                &Budget::unlimited(),
            )
            .expect("model limit not reached");
            assert!(fit.is_exact(), "case {case}");
            assert_eq!(fit.models, naive::odist_fitting(&psi, &mu), "case {case}");
        }

        // Model fault: interrupted enumerations are subsets of the optimum
        // set (the ladder completed exactly before the fault fired).
        let exact = naive::dalal_revision(&psi, &mu);
        let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Model, 1));
        let out = dalal_revision_sat_budgeted(&psi_f, &mu_f, N, MODEL_LIMIT, &budget)
            .expect("model limit not reached");
        match out.quality {
            Quality::Exact => assert_eq!(out.models, exact, "case {case}"),
            Quality::Interrupted => {
                assert!(superset(&exact, &out.models), "case {case}");
            }
            Quality::UpperBound => panic!("a model fault cannot loosen the bound (case {case})"),
        }

        // Ladder fault: upper-bound radius, superset answer.
        if !psi.is_empty() && !mu.is_empty() {
            let fit_exact = naive::odist_fitting(&psi, &mu);
            let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::LadderStep, 1));
            let fit = odist_fitting_sat_budgeted(&psi_models, &mu_f, N, MODEL_LIMIT, &budget)
                .expect("model limit not reached");
            match fit.quality {
                Quality::Exact => assert_eq!(fit.models, fit_exact, "case {case}"),
                Quality::UpperBound => assert!(superset(&fit.models, &fit_exact), "case {case}"),
                Quality::Interrupted => {} // no incumbent: no containment claim
            }
        }
    }
}
