//! SAT-backed implementations for signatures beyond the enumeration limit.
//!
//! The paper's Section 5 poses the computational complexity of revision /
//! update / arbitration as an open problem. This module provides the
//! scalable side of experiment E8: Dalal revision by cardinality-minimal
//! Hamming distance over a CDCL solver, SAT-based model enumeration, and
//! arbitration radius search for knowledge bases with explicitly known
//! models.
//!
//! Every operation runs under a [`Budget`]; pass [`Budget::unlimited`]
//! for an exact answer. Each body ends in one tail: lock the distance
//! bound, enumerate the models within it, and grade how the search and the
//! enumeration ended into a [`Quality`].
//!
//! Complexity honesty: full model-fitting quantifies over *all* models of
//! `ψ` (`odist` is a max), putting the general problem at the second level
//! of the polynomial hierarchy; the SAT route here covers the practically
//! common case where `Mod(ψ)` is explicit (e.g. merging a handful of
//! sources), while revision needs only the `∃∃`-pattern and scales fully.

use crate::budget::{Budget, BudgetSite, BudgetSpent, Quality};
use crate::telemetry;
use arbitrex_logic::{to_clauses, Cnf, Formula, Interp, ModelSet};
use arbitrex_sat::telemetry::record_solver;
use arbitrex_sat::{
    enumerate_models_budgeted, minimize_true_count_budgeted, AllSatLimit, CardinalityLadder,
    EnumStatus, Lit, MinimizeOutcome, SolveResult, Solver,
};

/// Enumerate `Mod(f)` over `n_vars` variables through Tseitin + AllSAT with
/// projection onto the original variables.
///
/// Returns `None` if the model count exceeds `limit`.
pub fn models_via_sat(f: &Formula, n_vars: u32, limit: usize) -> Option<ModelSet> {
    telemetry::SAT_BACKEND_CALLS.incr();
    let mut solver = Solver::new();
    solver.ensure_vars(n_vars);
    add_cnf_remapped(&mut solver, &to_clauses(f, n_vars), |v| v);
    let res = enumerate_models_budgeted(
        &mut solver,
        n_vars,
        AllSatLimit::AtMost(limit),
        &Budget::unlimited(),
    );
    record_solver(&solver);
    (res.status == EnumStatus::Complete)
        .then(|| ModelSet::new(n_vars, res.models.into_iter().map(Interp)))
}

/// Add a Tseitin CNF to `solver`, mapping original DIMACS variable `w`
/// (1-based, `w ≤ cnf.n_original`) through `map` and allocating fresh
/// solver variables for the auxiliaries.
fn add_cnf_remapped(solver: &mut Solver, cnf: &Cnf, map: impl Fn(u32) -> u32) {
    let n_aux = cnf.n_vars - cnf.n_original;
    let aux_base = solver.num_vars();
    solver.ensure_vars(aux_base + n_aux);
    for clause in &cnf.clauses {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&l| {
                let w = l.unsigned_abs();
                let var = if w <= cnf.n_original {
                    map(w - 1)
                } else {
                    aux_base + (w - cnf.n_original - 1)
                };
                Lit::new(var, l > 0)
            })
            .collect();
        solver.add_clause(&lits);
    }
}

/// The typed result of a SAT-backed operation: the degradation ladder runs
/// optimal-distance → best-incumbent-distance (models within an upper
/// bound, [`Quality::UpperBound`]) → whatever models were enumerated before
/// interruption ([`Quality::Interrupted`], a *subset* of the models at
/// `distance`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatOutcome {
    /// The distance bound the models satisfy: the minimum when `quality`
    /// is exact, an upper bound otherwise; `None` when vacuous (e.g. `ψ`
    /// inconsistent, where revision returns `Mod(μ)` unranked) or when the
    /// search was interrupted before any incumbent existed.
    pub distance: Option<u32>,
    /// The models within `distance` (all of them unless interrupted
    /// mid-enumeration).
    pub models: ModelSet,
    /// The containment contract the models satisfy.
    pub quality: Quality,
    /// Work charged to the budget, including the trip record.
    pub spent: BudgetSpent,
}

impl SatOutcome {
    fn new(distance: Option<u32>, models: ModelSet, quality: Quality, budget: &Budget) -> Self {
        let spent = budget.spent();
        crate::budget::record_outcome(&spent);
        SatOutcome {
            distance,
            models,
            quality,
            spent,
        }
    }

    /// No models and no distance: an unsatisfiable side (`quality` exact)
    /// or a search interrupted before any incumbent existed.
    fn empty(n_vars: u32, quality: Quality, budget: &Budget) -> Self {
        SatOutcome::new(None, ModelSet::empty(n_vars), quality, budget)
    }

    /// Did the search run to completion?
    pub fn is_exact(&self) -> bool {
        self.quality.is_exact()
    }
}

/// A solver over `cnf` on variables `0..n` (auxiliaries after), armed with
/// (a clone of) `budget` so every SAT search charges
/// [`BudgetSite::Conflict`] — exact runs too, so their outcomes report the
/// conflicts they spent.
fn armed_solver(cnf: &Cnf, n: u32, budget: &Budget) -> Solver {
    let mut solver = Solver::new();
    solver.set_budget(Some(budget.clone()));
    solver.ensure_vars(n);
    add_cnf_remapped(&mut solver, cnf, |v| v);
    solver
}

/// An armed solver over `μ`, once a first solve shows `μ` satisfiable;
/// otherwise the outcome to return (no models: exact when `μ` is
/// unsatisfiable, interrupted when the probe tripped the budget).
fn satisfiable_mu(mu: &Formula, n: u32, budget: &Budget) -> Result<Solver, SatOutcome> {
    let mut solver = armed_solver(&to_clauses(mu, n), n, budget);
    let quality = match solver.solve() {
        SolveResult::Sat => return Ok(solver),
        SolveResult::Unsat => Quality::Exact,
        SolveResult::Interrupted => Quality::Interrupted,
    };
    record_solver(&solver);
    Err(SatOutcome::empty(n, quality, budget))
}

/// The shared tail: enumerate the projections onto `0..n` of `solver`,
/// whose distance bound the caller has locked, and grade the result.
/// `exact` says whether the bound search ran to completion. After a trip
/// the budget is sticky-exhausted, so materializing the degraded result —
/// like the kernel's frontier collection — runs uncharged (still capped by
/// `model_limit`).
///
/// Returns `None` when the enumeration exceeds `model_limit`.
fn enumerate_within(
    mut solver: Solver,
    n: u32,
    distance: Option<u32>,
    exact: bool,
    model_limit: usize,
    budget: &Budget,
) -> Option<SatOutcome> {
    let unlimited = Budget::unlimited();
    let enum_budget = if exact {
        budget
    } else {
        solver.set_budget(None);
        &unlimited
    };
    let res = enumerate_models_budgeted(
        &mut solver,
        n,
        AllSatLimit::AtMost(model_limit),
        enum_budget,
    );
    record_solver(&solver);
    let quality = match res.status {
        EnumStatus::LimitExceeded => return None,
        EnumStatus::Complete if exact => Quality::Exact,
        EnumStatus::Complete => Quality::UpperBound,
        EnumStatus::Interrupted(_) => Quality::Interrupted,
    };
    let models = ModelSet::new(n, res.models.into_iter().map(Interp));
    Some(SatOutcome::new(distance, models, quality, budget))
}

/// Dalal's revision via SAT: minimize the Hamming distance between a model
/// of `μ` and a model of `ψ` with a sequential-counter ladder and binary
/// search, then enumerate every model of `μ` achieving it.
///
/// Agrees exactly with [`crate::revision::DalalRevision`] on enumerable
/// signatures (cross-checked in the integration tests) while scaling to
/// signatures far beyond `2^n` enumeration.
///
/// The solver charges [`BudgetSite::Conflict`] per conflict, the
/// cardinality minimization charges [`BudgetSite::LadderStep`] per
/// binary-search step, and the final enumeration charges
/// [`BudgetSite::Model`] per model. On exhaustion the result degrades per
/// [`SatOutcome`]'s ladder instead of aborting.
///
/// Returns `None` only when the model enumeration exceeds `model_limit`
/// (a resource cap, distinct from budget exhaustion).
pub fn dalal_revision_sat_budgeted(
    psi: &Formula,
    mu: &Formula,
    n_vars: u32,
    model_limit: usize,
    budget: &Budget,
) -> Option<SatOutcome> {
    telemetry::SAT_BACKEND_CALLS.incr();
    // Variable layout: x = 0..n (models of μ), y = n..2n (models of ψ),
    // then Tseitin auxiliaries, then difference vars.
    let n = n_vars;
    let mu_cnf = to_clauses(mu, n);
    let psi_cnf = to_clauses(psi, n);

    // ψ inconsistent ⇒ revision returns Mod(μ).
    let mut probe = armed_solver(&psi_cnf, n, budget);
    let r = probe.solve();
    record_solver(&probe);
    match r {
        SolveResult::Interrupted => {
            return Some(SatOutcome::empty(n, Quality::Interrupted, budget))
        }
        SolveResult::Unsat => {
            let solver = armed_solver(&mu_cnf, n, budget);
            return enumerate_within(solver, n, None, true, model_limit, budget);
        }
        SolveResult::Sat => {}
    }

    let mut solver = Solver::new();
    solver.set_budget(Some(budget.clone()));
    solver.ensure_vars(2 * n);
    add_cnf_remapped(&mut solver, &mu_cnf, |v| v);
    add_cnf_remapped(&mut solver, &psi_cnf, |v| n + v);

    // Difference variables d_v ↔ (x_v ⊕ y_v).
    let d_base = solver.num_vars();
    solver.ensure_vars(d_base + n);
    let mut d_lits = Vec::with_capacity(n as usize);
    for v in 0..n {
        let x = Lit::pos(v);
        let y = Lit::pos(n + v);
        let d = Lit::pos(d_base + v);
        solver.add_clause(&[d.negate(), x, y]);
        solver.add_clause(&[d.negate(), x.negate(), y.negate()]);
        solver.add_clause(&[d, x.negate(), y]);
        solver.add_clause(&[d, x, y.negate()]);
        d_lits.push(d);
    }

    let bound = match minimize_true_count_budgeted(&mut solver, &d_lits, budget) {
        MinimizeOutcome::Bound(b) => b,
        // μ unsatisfiable (ψ was checked above).
        MinimizeOutcome::Unsat => {
            record_solver(&solver);
            return Some(SatOutcome::empty(n, Quality::Exact, budget));
        }
        // No incumbent: nothing trustworthy to return.
        MinimizeOutcome::Interrupted(_) => {
            record_solver(&solver);
            return Some(SatOutcome::empty(n, Quality::Interrupted, budget));
        }
    };
    // Lock the bound: the optimum when exact, the best incumbent — an
    // upper bound — otherwise.
    bound.ladder.assert_at_most(&mut solver, bound.k);
    let distance = Some(bound.k as u32);
    enumerate_within(solver, n, distance, bound.is_exact(), model_limit, budget)
}

/// The paper's model-fitting operator via SAT, for a knowledge base given
/// as an *explicit* model set (the common case in merging scenarios):
/// binary search on the radius `r` such that some model of `μ` is within
/// distance `r` of **every** model of `ψ`, then enumerate the optimum.
///
/// Radius binary-search steps charge [`BudgetSite::LadderStep`], SAT
/// conflicts charge [`BudgetSite::Conflict`], and the final enumeration
/// charges [`BudgetSite::Model`]. The search keeps `hi` feasible throughout
/// (radius `n` always is, given satisfiable `μ`), so interrupting the
/// binary search still yields models within a sound upper-bound radius —
/// a superset of the optimal fit, reported as [`Quality::UpperBound`].
///
/// Returns `None` only when the model enumeration exceeds `model_limit`.
pub fn odist_fitting_sat_budgeted(
    psi_models: &[Interp],
    mu: &Formula,
    n_vars: u32,
    model_limit: usize,
    budget: &Budget,
) -> Option<SatOutcome> {
    telemetry::SAT_BACKEND_CALLS.incr();
    let n = n_vars;
    if psi_models.is_empty() {
        // (A2): unsatisfiable knowledge base fits nothing.
        return Some(SatOutcome::empty(n, Quality::Exact, budget));
    }
    let mut solver = match satisfiable_mu(mu, n, budget) {
        Ok(solver) => solver,
        Err(out) => return Some(out),
    };

    // One ladder per ψ-model J, over the literals "x_v differs from J_v".
    let ladders: Vec<CardinalityLadder> = psi_models
        .iter()
        .map(|j| {
            let diff_lits: Vec<Lit> = (0..n)
                .map(|v| Lit::new(v, !j.get(arbitrex_logic::Var(v))))
                .collect();
            CardinalityLadder::encode(&mut solver, &diff_lits)
        })
        .collect();

    // Binary search the least feasible radius r in [0, n]; `hi` stays
    // feasible at every point, so a trip mid-search leaves a sound upper
    // bound.
    let mut lo = 0usize;
    let mut hi = n as usize; // always feasible: any model differs ≤ n
    let mut steps = 0u64;
    let mut tripped = false;
    while lo < hi {
        if budget.charge(BudgetSite::LadderStep, 1).is_err() {
            tripped = true;
            break;
        }
        steps += 1;
        let mid = lo + (hi - lo) / 2;
        let assumps: Vec<Lit> = ladders.iter().filter_map(|l| l.at_most(mid)).collect();
        match solver.solve_with_assumptions(&assumps) {
            SolveResult::Sat => hi = mid,
            SolveResult::Unsat => lo = mid + 1,
            SolveResult::Interrupted => {
                tripped = true;
                break;
            }
        }
    }
    arbitrex_sat::telemetry::CARD_BINSEARCH_STEPS.add(steps);
    // Lock the best feasible radius found.
    for ladder in &ladders {
        ladder.assert_at_most(&mut solver, hi);
    }
    enumerate_within(solver, n, Some(hi as u32), !tripped, model_limit, budget)
}

/// Weighted model-fitting via SAT, for a weighted knowledge base given as
/// an explicit support list: minimize
/// `wdist(ψ̃, I) = Σ_J dist(I, J) · ψ̃(J)` over models `I` of `μ`.
///
/// Encoding: one unary counter over the multiset of difference literals,
/// each `(J, v)` literal replicated `ψ̃(J) / g` times (`g` = gcd of the
/// weights — uniform scaling cannot change the minimizers). Counter size
/// is `O((Σ scaled-weights · n)²)` clauses, so this is intended for a few
/// voices with small relative weights — exactly the merging scenarios —
/// not for amortizing astronomically scaled weights.
///
/// Under a [`Budget`], degrades per [`SatOutcome`]'s ladder: an inexact
/// minimization bound is still feasible (every incumbent is), so the
/// enumerated models are a sound superset of the optimal ones.
///
/// Returns `None` only when the model enumeration exceeds `model_limit`
/// (an unlimited budget never trips, so its outcome is exact).
pub fn wdist_fitting_sat_budgeted(
    psi_weighted: &[(Interp, u64)],
    mu: &Formula,
    n_vars: u32,
    model_limit: usize,
    budget: &Budget,
) -> Option<SatOutcome> {
    telemetry::SAT_BACKEND_CALLS.incr();
    let n = n_vars;
    let support: Vec<(Interp, u64)> = psi_weighted
        .iter()
        .copied()
        .filter(|&(_, w)| w > 0)
        .collect();
    if support.is_empty() {
        // (F2): unsatisfiable ψ̃ fits nothing.
        return Some(SatOutcome::empty(n, Quality::Exact, budget));
    }
    let g = support.iter().fold(0u64, |acc, &(_, w)| gcd(acc, w));
    let mut solver = match satisfiable_mu(mu, n, budget) {
        Ok(solver) => solver,
        Err(out) => return Some(out),
    };
    // The weighted multiset of difference literals.
    let mut diff_lits: Vec<Lit> = Vec::new();
    for &(j, w) in &support {
        let copies = (w / g) as usize;
        for v in 0..n {
            let lit = Lit::new(v, !j.get(arbitrex_logic::Var(v)));
            for _ in 0..copies {
                diff_lits.push(lit);
            }
        }
    }
    let bound = match minimize_true_count_budgeted(&mut solver, &diff_lits, budget) {
        MinimizeOutcome::Bound(b) => b,
        // The solver was satisfiable above, so Unsat here can only mean an
        // interrupted re-solve under a sticky-tripped budget; either way
        // there is no incumbent to report.
        MinimizeOutcome::Unsat | MinimizeOutcome::Interrupted(_) => {
            record_solver(&solver);
            return Some(SatOutcome::empty(n, Quality::Interrupted, budget));
        }
    };
    bound.ladder.assert_at_most(&mut solver, bound.k);
    let distance = Some(bound.k as u32);
    enumerate_within(solver, n, distance, bound.is_exact(), model_limit, budget)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitting::OdistFitting;
    use crate::operator::ChangeOperator;
    use crate::revision::DalalRevision;
    use arbitrex_logic::{parse, Sig};

    #[test]
    fn models_via_sat_agrees_with_enumeration() {
        let mut sig = Sig::new();
        let f = parse(&mut sig, "(A | B) & (B | C) & !(A & B & C)").unwrap();
        let n = sig.width();
        let via_sat = models_via_sat(&f, n, 1000).unwrap();
        assert_eq!(via_sat, ModelSet::of_formula(&f, n));
    }

    #[test]
    fn models_via_sat_respects_limit() {
        let mut sig = Sig::new();
        let f = parse(&mut sig, "A | !A").unwrap();
        assert!(models_via_sat(&f, 1, 1).is_none());
        assert!(models_via_sat(&f, 1, 2).is_some());
    }

    #[test]
    fn dalal_sat_matches_enumeration_on_examples() {
        let cases = [
            ("A & B", "!A | !B"),
            ("A & B & C", "!C"),
            ("(A | B) & C", "!C & (A <-> B)"),
            ("!A & !B & !C", "A & B"),
        ];
        for (p, m) in cases {
            let mut sig = Sig::new();
            let psi = parse(&mut sig, p).unwrap();
            let mu = parse(&mut sig, m).unwrap();
            let n = sig.width();
            let sat =
                dalal_revision_sat_budgeted(&psi, &mu, n, 10_000, &Budget::unlimited()).unwrap();
            let reference = DalalRevision.apply(
                &ModelSet::of_formula(&psi, n),
                &ModelSet::of_formula(&mu, n),
            );
            assert_eq!(sat.models, reference, "mismatch on ({p}, {m})");
        }
    }

    #[test]
    fn dalal_sat_inconsistent_psi_returns_mu() {
        let mut sig = Sig::new();
        let psi = parse(&mut sig, "A & !A").unwrap();
        let mu = parse(&mut sig, "A | B").unwrap();
        let n = sig.width();
        let sat = dalal_revision_sat_budgeted(&psi, &mu, n, 100, &Budget::unlimited()).unwrap();
        assert_eq!(sat.distance, None);
        assert_eq!(sat.models, ModelSet::of_formula(&mu, n));
    }

    #[test]
    fn dalal_sat_unsat_mu_is_empty() {
        let mut sig = Sig::new();
        let psi = parse(&mut sig, "A").unwrap();
        let mu = parse(&mut sig, "B & !B").unwrap();
        let n = sig.width();
        let sat = dalal_revision_sat_budgeted(&psi, &mu, n, 100, &Budget::unlimited()).unwrap();
        assert!(sat.models.is_empty());
    }

    #[test]
    fn dalal_sat_reports_the_minimal_distance() {
        let mut sig = Sig::new();
        let psi = parse(&mut sig, "A & B & C & D").unwrap();
        let mu = parse(&mut sig, "!A & !B").unwrap();
        let n = sig.width();
        let sat = dalal_revision_sat_budgeted(&psi, &mu, n, 100, &Budget::unlimited()).unwrap();
        assert_eq!(sat.distance, Some(2));
    }

    #[test]
    fn odist_sat_reproduces_example_31() {
        let mut sig = Sig::new();
        sig.var("S");
        sig.var("D");
        sig.var("Q");
        let mu = parse(&mut sig, "(!S & D & !Q) | (S & D & !Q)").unwrap();
        let psi_models = [Interp(0b001), Interp(0b010), Interp(0b111)];
        let sat =
            odist_fitting_sat_budgeted(&psi_models, &mu, 3, 100, &Budget::unlimited()).unwrap();
        assert_eq!(sat.distance, Some(1));
        assert_eq!(sat.models.as_singleton(), Some(Interp(0b011)));
    }

    #[test]
    fn odist_sat_matches_enumeration_operator() {
        let mut sig = Sig::new();
        let mu = parse(&mut sig, "(A | B) & (C -> A)").unwrap();
        let n = sig.width();
        let psi_models = [Interp(0b000), Interp(0b111), Interp(0b010)];
        let sat =
            odist_fitting_sat_budgeted(&psi_models, &mu, n, 1000, &Budget::unlimited()).unwrap();
        let reference =
            OdistFitting.apply(&ModelSet::new(n, psi_models), &ModelSet::of_formula(&mu, n));
        assert_eq!(sat.models, reference);
    }

    #[test]
    fn odist_sat_empty_psi_is_a2() {
        let mut sig = Sig::new();
        let mu = parse(&mut sig, "A").unwrap();
        let sat = odist_fitting_sat_budgeted(&[], &mu, 1, 10, &Budget::unlimited()).unwrap();
        assert!(sat.models.is_empty());
    }

    #[test]
    fn wdist_sat_reproduces_example_41() {
        let mut sig = Sig::new();
        sig.var("S");
        sig.var("D");
        sig.var("Q");
        let mu = parse(&mut sig, "(!S & D & !Q) | (S & D & !Q)").unwrap();
        let psi = [(Interp(0b001), 10), (Interp(0b010), 20), (Interp(0b111), 5)];
        let sat = wdist_fitting_sat_budgeted(&psi, &mu, 3, 100, &Budget::unlimited()).unwrap();
        // wdist({D}) = 30, scaled by gcd 5 -> 6.
        assert_eq!(sat.distance, Some(6));
        assert_eq!(sat.models.as_singleton(), Some(Interp(0b010)));
        // Exact runs arm their solvers too, so they report conflicts.
        assert!(sat.is_exact());
        assert!(sat.spent.conflicts > 0, "{:?}", sat.spent);
    }

    #[test]
    fn wdist_sat_agrees_with_wdist_fitting() {
        use crate::weighted::WeightedKb;
        use crate::wfitting::{WdistFitting, WeightedChangeOperator};
        let mut sig = Sig::new();
        let mu = parse(&mut sig, "(A | B) & (C -> A)").unwrap();
        let n = sig.width();
        let psi = [(Interp(0b000), 3), (Interp(0b111), 2), (Interp(0b010), 1)];
        let sat = wdist_fitting_sat_budgeted(&psi, &mu, n, 100, &Budget::unlimited()).unwrap();
        let reference = WdistFitting.apply(
            &WeightedKb::from_weights(n, psi),
            &WeightedKb::from_model_set(&ModelSet::of_formula(&mu, n)),
        );
        assert_eq!(sat.models, reference.support_set());
    }

    #[test]
    fn wdist_sat_handles_edge_cases() {
        let mut sig = Sig::new();
        let mu = parse(&mut sig, "A").unwrap();
        // Empty / zero-weight ψ̃ -> unsatisfiable result (F2).
        let sat = wdist_fitting_sat_budgeted(&[], &mu, 1, 10, &Budget::unlimited()).unwrap();
        assert!(sat.models.is_empty());
        let sat = wdist_fitting_sat_budgeted(&[(Interp(0), 0)], &mu, 1, 10, &Budget::unlimited())
            .unwrap();
        assert!(sat.models.is_empty());
        // Unsatisfiable μ.
        let bad = parse(&mut sig, "A & !A").unwrap();
        let sat = wdist_fitting_sat_budgeted(&[(Interp(0), 1)], &bad, 1, 10, &Budget::unlimited())
            .unwrap();
        assert!(sat.models.is_empty());
    }

    #[test]
    fn wdist_sat_at_scale() {
        // A 9-vs-2 jury over 30 propositions: majority's world wins.
        let n = 30u32;
        let mut sig = Sig::with_anon_vars(n as usize);
        let mu = parse(&mut sig, "true | v0").unwrap(); // unconstrained
        let world_a = Interp::full(n);
        let world_b = Interp::EMPTY;
        let sat = wdist_fitting_sat_budgeted(
            &[(world_a, 9), (world_b, 2)],
            &mu,
            n,
            10,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(sat.models.as_singleton(), Some(world_a));
    }

    #[test]
    fn budgeted_odist_sat_ladder_fault_degrades_to_upper_bound() {
        use crate::budget::{BudgetSite, FaultPlan};
        let mut sig = Sig::new();
        let mu = parse(&mut sig, "(A | B) & (C -> A)").unwrap();
        let n = sig.width();
        let psi_models = [Interp(0b000), Interp(0b111), Interp(0b010)];
        let exact =
            odist_fitting_sat_budgeted(&psi_models, &mu, n, 1000, &Budget::unlimited()).unwrap();
        // Trip the radius binary search on its first step: the locked
        // radius stays at the initial feasible hi = n, so every model of μ
        // is enumerated — a superset of the optimal fit.
        let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::LadderStep, 1));
        let out = odist_fitting_sat_budgeted(&psi_models, &mu, n, 1000, &budget).unwrap();
        assert_eq!(out.quality, Quality::UpperBound);
        assert!(out.distance.unwrap() >= exact.distance.unwrap());
        for m in exact.models.iter() {
            assert!(out.models.contains(m), "lost optimal model {m:?}");
        }
    }

    #[test]
    fn budgeted_dalal_sat_model_fault_interrupts_with_partial_models() {
        use crate::budget::{BudgetSite, FaultPlan, TripReason};
        let mut sig = Sig::new();
        let psi = parse(&mut sig, "A & B").unwrap();
        let mu = parse(&mut sig, "!A | !B").unwrap();
        let n = sig.width();
        let exact = dalal_revision_sat_budgeted(&psi, &mu, n, 1000, &Budget::unlimited()).unwrap();
        assert!(exact.models.len() > 1, "need ties for a mid-AllSAT trip");
        // Trip after the first enumerated model: a strict subset survives.
        let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Model, 1));
        let out = dalal_revision_sat_budgeted(&psi, &mu, n, 1000, &budget).unwrap();
        assert_eq!(out.quality, Quality::Interrupted);
        assert_eq!(out.spent.trip.unwrap().reason, TripReason::Fault);
        assert!(out.models.len() < exact.models.len());
        for m in out.models.iter() {
            assert!(exact.models.contains(m), "spurious model {m:?}");
        }
    }

    #[test]
    fn sat_backends_scale_past_the_enumeration_limit() {
        // 40 variables: 2^40 enumeration is impossible, SAT handles it.
        let n = 40u32;
        let mut sig = Sig::with_anon_vars(n as usize);
        // ψ: all variables true; μ: v0 false and v1 false.
        let psi_text = (0..n)
            .map(|i| format!("v{i}"))
            .collect::<Vec<_>>()
            .join(" & ");
        let psi = parse(&mut sig, &psi_text).unwrap();
        let mu = parse(&mut sig, "!v0 & !v1").unwrap();
        let sat = dalal_revision_sat_budgeted(&psi, &mu, n, 10, &Budget::unlimited()).unwrap();
        assert_eq!(sat.distance, Some(2));
        // The unique optimum: everything true except v0, v1.
        assert_eq!(sat.models.len(), 1);
        let m = sat.models.as_singleton().unwrap();
        assert!(!m.get(arbitrex_logic::Var(0)));
        assert!(!m.get(arbitrex_logic::Var(1)));
        assert!((2..n).all(|v| m.get(arbitrex_logic::Var(v))));
    }
}
