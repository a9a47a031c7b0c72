//! Differential tests: every operator routed through the fast-path
//! selection kernel must agree exactly with its naive, specification-shaped
//! oracle in `arbitrex_core::kernel::naive` — on random inputs, on the
//! empty-ψ/empty-μ edges, and on weighted knowledge bases. The sum and
//! weighted-sum fittings, which the per-bit vote tally answers in closed
//! form, are also checked exhaustively at small widths and on the shapes
//! that stress a per-bit majority: even splits, one-model and
//! whole-universe ψ, zero and near-`u64::MAX` weights. The odist and
//! lex-odist universe selections are checked at every width from 0 to 16,
//! on both sides of the block-scan/subcube-search dispatch, with ties that
//! straddle 64-candidate blocks and with faults and step limits that cut
//! the block scan short.

use arbitrex_core::kernel::{naive, select_min_block_odist, BudgetedSelect};
use arbitrex_core::{
    arbitrate, odist, warbitrate, Budget, BudgetSite, ChangeOperator, DalalRevision, FaultPlan,
    ForbusUpdate, GMaxFitting, LexOdistFitting, OdistFitting, SumFitting, TripReason, WdistFitting,
    WeightedChangeOperator, WeightedKb, WinslettUpdate,
};
use arbitrex_logic::{Interp, ModelSet};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CASES: usize = 400;

/// A random model set over `n` variables; empty with probability ~1/8.
fn gen_model_set<R: Rng + ?Sized>(rng: &mut R, n: u32) -> ModelSet {
    if rng.random_bool(0.125) {
        return ModelSet::empty(n);
    }
    let count = rng.random_range(1..=(1usize << n.min(4)));
    ModelSet::new(
        n,
        (0..count).map(|_| Interp(rng.random_range(0..1u64 << n))),
    )
}

fn gen_weighted_kb<R: Rng + ?Sized>(rng: &mut R, n: u32) -> WeightedKb {
    if rng.random_bool(0.125) {
        return WeightedKb::unsatisfiable(n);
    }
    let count = rng.random_range(1..=6usize);
    WeightedKb::from_weights(
        n,
        (0..count).map(|_| {
            (
                Interp(rng.random_range(0..1u64 << n)),
                rng.random_range(1..40u64),
            )
        }),
    )
}

#[test]
fn odist_fitting_matches_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1F1);
    for case in 0..CASES {
        let n = rng.random_range(1..=10u32);
        let psi = gen_model_set(&mut rng, n);
        let mu = gen_model_set(&mut rng, n);
        assert_eq!(
            OdistFitting.apply(&psi, &mu),
            naive::odist_fitting(&psi, &mu),
            "case {case}: psi={psi:?} mu={mu:?}"
        );
    }
}

#[test]
fn lex_odist_fitting_matches_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1F2);
    for case in 0..CASES {
        let n = rng.random_range(1..=10u32);
        let psi = gen_model_set(&mut rng, n);
        let mu = gen_model_set(&mut rng, n);
        assert_eq!(
            LexOdistFitting.apply(&psi, &mu),
            naive::lex_odist_fitting(&psi, &mu),
            "case {case}: psi={psi:?} mu={mu:?}"
        );
    }
}

#[test]
fn sum_fitting_matches_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1F3);
    for case in 0..CASES {
        let n = rng.random_range(1..=10u32);
        let psi = gen_model_set(&mut rng, n);
        let mu = gen_model_set(&mut rng, n);
        assert_eq!(
            SumFitting.apply(&psi, &mu),
            naive::sum_fitting(&psi, &mu),
            "case {case}: psi={psi:?} mu={mu:?}"
        );
    }
}

#[test]
fn gmax_fitting_matches_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1F4);
    for case in 0..CASES {
        let n = rng.random_range(1..=10u32);
        let psi = gen_model_set(&mut rng, n);
        let mu = gen_model_set(&mut rng, n);
        assert_eq!(
            GMaxFitting.apply(&psi, &mu),
            naive::gmax_fitting(&psi, &mu),
            "case {case}: psi={psi:?} mu={mu:?}"
        );
    }
}

#[test]
fn dalal_revision_matches_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1F5);
    for case in 0..CASES {
        let n = rng.random_range(1..=10u32);
        let psi = gen_model_set(&mut rng, n);
        let mu = gen_model_set(&mut rng, n);
        assert_eq!(
            DalalRevision.apply(&psi, &mu),
            naive::dalal_revision(&psi, &mu),
            "case {case}: psi={psi:?} mu={mu:?}"
        );
    }
}

#[test]
fn winslett_update_matches_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1F6);
    for case in 0..CASES {
        let n = rng.random_range(1..=10u32);
        let psi = gen_model_set(&mut rng, n);
        let mu = gen_model_set(&mut rng, n);
        assert_eq!(
            WinslettUpdate.apply(&psi, &mu),
            naive::winslett_update(&psi, &mu),
            "case {case}: psi={psi:?} mu={mu:?}"
        );
    }
}

#[test]
fn forbus_update_matches_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1F7);
    for case in 0..CASES {
        let n = rng.random_range(1..=10u32);
        let psi = gen_model_set(&mut rng, n);
        let mu = gen_model_set(&mut rng, n);
        assert_eq!(
            ForbusUpdate.apply(&psi, &mu),
            naive::forbus_update(&psi, &mu),
            "case {case}: psi={psi:?} mu={mu:?}"
        );
    }
}

#[test]
fn wdist_fitting_matches_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1F8);
    for case in 0..CASES {
        let n = rng.random_range(1..=10u32);
        let psi = gen_weighted_kb(&mut rng, n);
        let mu = gen_weighted_kb(&mut rng, n);
        assert_eq!(
            WdistFitting.apply(&psi, &mu),
            naive::wdist_fitting(&psi, &mu),
            "case {case}: psi={psi:?} mu={mu:?}"
        );
    }
}

#[test]
fn streaming_arbitration_matches_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1F9);
    for case in 0..CASES {
        let n = rng.random_range(1..=10u32);
        let psi = gen_model_set(&mut rng, n);
        let phi = gen_model_set(&mut rng, n);
        assert_eq!(
            arbitrate(&psi, &phi),
            naive::arbitrate(&psi, &phi),
            "case {case}: psi={psi:?} phi={phi:?}"
        );
    }
}

#[test]
fn streaming_weighted_arbitration_matches_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1FA);
    for case in 0..CASES / 2 {
        let n = rng.random_range(1..=8u32);
        let psi = gen_weighted_kb(&mut rng, n);
        let phi = gen_weighted_kb(&mut rng, n);
        assert_eq!(
            warbitrate(&psi, &phi),
            naive::warbitrate(&psi, &phi),
            "case {case}: psi={psi:?} phi={phi:?}"
        );
    }
}

#[test]
fn edge_cases_agree_with_oracles() {
    for n in [1u32, 3, 6] {
        let empty = ModelSet::empty(n);
        let full = ModelSet::all(n);
        let single = ModelSet::new(n, [Interp(0)]);
        for psi in [&empty, &full, &single] {
            for mu in [&empty, &full, &single] {
                assert_eq!(OdistFitting.apply(psi, mu), naive::odist_fitting(psi, mu));
                assert_eq!(GMaxFitting.apply(psi, mu), naive::gmax_fitting(psi, mu));
                assert_eq!(SumFitting.apply(psi, mu), naive::sum_fitting(psi, mu));
                assert_eq!(DalalRevision.apply(psi, mu), naive::dalal_revision(psi, mu));
                assert_eq!(ForbusUpdate.apply(psi, mu), naive::forbus_update(psi, mu));
                assert_eq!(arbitrate(psi, mu), naive::arbitrate(psi, mu));
            }
        }
        let wempty = WeightedKb::unsatisfiable(n);
        let wsingle = WeightedKb::from_weights(n, [(Interp(0), 7)]);
        for psi in [&wempty, &wsingle] {
            for mu in [&wempty, &wsingle] {
                assert_eq!(WdistFitting.apply(psi, mu), naive::wdist_fitting(psi, mu));
                assert_eq!(warbitrate(psi, mu), naive::warbitrate(psi, mu));
            }
        }
    }
}

/// `SumFitting` through `apply` and `apply_universe` against the naive
/// oracle; returns the universe answer.
fn check_sum(psi: &ModelSet, mu: &ModelSet, ctx: &str) -> ModelSet {
    let n = psi.n_vars();
    assert_eq!(
        SumFitting.apply(psi, mu),
        naive::sum_fitting(psi, mu),
        "{ctx}"
    );
    let universe = SumFitting
        .apply_universe(psi, &Budget::unlimited())
        .unwrap()
        .models;
    assert_eq!(
        universe,
        naive::sum_fitting(psi, &ModelSet::all(n)),
        "{ctx}: universe"
    );
    universe
}

/// `WdistFitting` through `apply`, `apply_universe` and `warbitrate`
/// against the naive oracles; returns the universe answer.
fn check_wdist(psi: &WeightedKb, phi: &WeightedKb, ctx: &str) -> WeightedKb {
    let n = psi.n_vars();
    assert_eq!(
        WdistFitting.apply(psi, phi),
        naive::wdist_fitting(psi, phi),
        "{ctx}"
    );
    let universe = WdistFitting
        .apply_universe(psi, &Budget::unlimited())
        .unwrap()
        .kb;
    assert_eq!(
        universe,
        naive::wdist_fitting(psi, &WeightedKb::all(n)),
        "{ctx}: universe"
    );
    assert_eq!(
        warbitrate(psi, phi),
        naive::warbitrate(psi, phi),
        "{ctx}: warbitrate"
    );
    universe
}

#[test]
fn sum_and_wdist_closed_form_match_naive_oracles_at_widths_0_to_16() {
    let mut rng = StdRng::seed_from_u64(0xD1FB);
    // Exhaustive over every ψ for n ≤ 4, each with random weights, μ and φ.
    for n in 0..=4u32 {
        for bits in 0..1u64 << (1 << n) {
            let psi = ModelSet::new(n, (0..1u64 << n).filter(|b| bits >> b & 1 == 1).map(Interp));
            let mu = gen_model_set(&mut rng, n);
            let ctx = format!("n = {n}, psi = {psi:?}");
            check_sum(&psi, &mu, &ctx);
            let wpsi = WeightedKb::from_weights(n, psi.iter().map(|i| (i, rng.random_range(1..5))));
            check_wdist(&wpsi, &gen_weighted_kb(&mut rng, n), &ctx);
        }
    }
    // Random above.
    for n in 5..=16u32 {
        let cases = if n <= 10 { 24 } else { 4 };
        for case in 0..cases {
            let ctx = format!("n = {n}, case {case}");
            check_sum(
                &gen_model_set(&mut rng, n),
                &gen_model_set(&mut rng, n),
                &ctx,
            );
            let (psi, phi) = (gen_weighted_kb(&mut rng, n), gen_weighted_kb(&mut rng, n));
            check_wdist(&psi, &phi, &ctx);
        }
    }
    for n in 0..=16u32 {
        let ctx = format!("n = {n}");
        let any = |rng: &mut StdRng| Interp(rng.random_range(0..1u64 << n));
        let none = WeightedKb::unsatisfiable(n);
        // Even splits: two models disagreeing on `t` bits tie on each of
        // them, so the minima are all 2^t mixes.
        let j = any(&mut rng);
        let split = any(&mut rng);
        let psi = ModelSet::new(n, [j, Interp(j.0 ^ split.0)]);
        let t = split.0.count_ones();
        assert_eq!(
            check_sum(&psi, &psi, &ctx).len(),
            1 << t,
            "{ctx}: even split"
        );
        let w = rng.random_range(1..1000);
        let wpsi = WeightedKb::from_weights(n, psi.iter().map(|i| (i, w)));
        let got = check_wdist(&wpsi, &none, &ctx);
        assert_eq!(got.support_size(), 1 << t, "{ctx}: weighted even split");
        // One model: it is its own and only consensus.
        let single = ModelSet::new(n, [j]);
        assert_eq!(check_sum(&single, &single, &ctx), single, "{ctx}: single");
        let wsingle = WeightedKb::from_weights(n, [(j, w)]);
        assert_eq!(check_wdist(&wsingle, &none, &ctx).support_set(), single);
        // ψ = 𝓜: every bit ties and every interpretation is a minimum. The
        // oracles are quadratic in 2^n here, so they stop at n = 10.
        let all = ModelSet::all(n);
        let wall = WeightedKb::all(n);
        if n <= 10 {
            assert_eq!(check_sum(&all, &single, &ctx), all, "{ctx}: universe psi");
            assert_eq!(check_wdist(&wall, &wsingle, &ctx).support_set(), all);
        } else {
            assert_eq!(
                SumFitting
                    .apply_universe(&all, &Budget::unlimited())
                    .unwrap()
                    .models,
                all,
                "{ctx}"
            );
            assert_eq!(
                WdistFitting
                    .apply_universe(&wall, &Budget::unlimited())
                    .unwrap()
                    .kb,
                wall,
                "{ctx}"
            );
        }
        // Zero weights are no votes.
        let zeros =
            WeightedKb::from_weights(n, [(j, 0), (Interp(j.0 ^ split.0), 3), (any(&mut rng), 0)]);
        assert_eq!(zeros.support_size(), 1, "{ctx}");
        let only = ModelSet::new(n, [Interp(j.0 ^ split.0)]);
        assert_eq!(check_wdist(&zeros, &wsingle, &ctx).support_set(), only);
        let all_zero = WeightedKb::from_weights(n, [(j, 0)]);
        assert!(!check_wdist(&all_zero, &wsingle, &ctx).is_satisfiable());
        // Weights near u64::MAX: sixteen of them overflow 64 bits many
        // times over in the tally, which must still be exact.
        let heavy = WeightedKb::from_weights(
            n,
            gen_model_set(&mut rng, n)
                .iter()
                .map(|i| (i, u64::MAX - rng.random_range(0..3u64))),
        );
        check_wdist(&heavy, &none, &format!("{ctx}: heavy"));
    }
}

/// `count` distinct random models over `n` variables (capped at `2^n`).
fn distinct_models<R: Rng + ?Sized>(rng: &mut R, n: u32, count: usize) -> ModelSet {
    let mut models = std::collections::BTreeSet::new();
    while models.len() < count.min(1 << n) {
        models.insert(Interp(rng.random_range(0..1u64 << n)));
    }
    ModelSet::new(n, models)
}

/// Odist and lex-odist universe fitting against the naive oracles; returns
/// the odist answer.
fn check_odist_universe(psi: &ModelSet, ctx: &str) -> ModelSet {
    let all = ModelSet::all(psi.n_vars());
    let got = OdistFitting
        .apply_universe(psi, &Budget::unlimited())
        .unwrap()
        .models;
    assert_eq!(got, naive::odist_fitting(psi, &all), "{ctx}: odist");
    assert_eq!(
        LexOdistFitting
            .apply_universe(psi, &Budget::unlimited())
            .unwrap()
            .models,
        naive::lex_odist_fitting(psi, &all),
        "{ctx}: lex-odist"
    );
    got
}

/// `minima ∪ frontier ⊇ exact` for an interrupted selection; for an exact
/// one, the oracle's minima and odist, and `2^n` scans charged.
fn check_block_containment(psi: &ModelSet, budget: &Budget, ctx: &str) -> BudgetedSelect<u32> {
    let n = psi.n_vars();
    let exact = naive::odist_fitting(psi, &ModelSet::all(n));
    let sel = select_min_block_odist(n, psi.as_slice(), budget);
    let frontier = ModelSet::new(n, sel.frontier.clone().expect("frontier fits"));
    if sel.trip.is_none() {
        assert_eq!(sel.minima, exact, "{ctx}");
        let best = exact.iter().next().and_then(|i| odist(psi, i));
        assert_eq!(sel.best, best, "{ctx}");
        assert_eq!(budget.spent().scans, 1 << n, "{ctx}");
    } else {
        let covered = sel.minima.union(&frontier);
        assert!(exact.iter().all(|i| covered.contains(i)), "{ctx}");
    }
    sel
}

#[test]
fn odist_universe_selection_matches_naive_oracle_at_widths_0_to_16() {
    let mut rng = StdRng::seed_from_u64(0xD1FC);
    for n in 0..=16u32 {
        // Few models take the subcube search at wide n, many the block scan.
        for m in [1usize, 2, 3, 8, 40] {
            for case in 0..if n <= 10 { 6 } else { 2 } {
                let psi = distinct_models(&mut rng, n, m);
                check_odist_universe(&psi, &format!("n = {n}, m = {m}, case {case}"));
            }
        }
        let ctx = format!("n = {n}");
        // One model: it is its own and only odist minimum.
        let single = distinct_models(&mut rng, n, 1);
        assert_eq!(check_odist_universe(&single, &ctx), single, "{ctx}: single");
        // ψ = 𝓜: every candidate's complement is a model, so all 2^n tie
        // at odist n. The oracles are quadratic in 2^n, so stop at n = 10.
        if n <= 10 {
            let all = ModelSet::all(n);
            assert_eq!(check_odist_universe(&all, &ctx), all, "{ctx}: universe psi");
        }
        if n >= 7 {
            // Two models one flip either side of bit 6: the two minima
            // `j` and `j ^ 0b110_0000` lie in different 64-lane blocks.
            let j = rng.random_range(0..1u64 << n);
            let psi = ModelSet::new(n, [Interp(j ^ 1 << 5), Interp(j ^ 1 << 6)]);
            let minima = check_odist_universe(&psi, &ctx);
            let expect = ModelSet::new(n, [Interp(j), Interp(j ^ 0b110_0000)]);
            assert_eq!(minima, expect, "{ctx}: straddling tie");
            // Antipodal models: every half-popcount candidate ties, across
            // every block.
            let far = ModelSet::new(n, [Interp(0), Interp((1 << n) - 1)]);
            check_odist_universe(&far, &format!("{ctx}: antipodal"));
        }
    }
}

#[test]
fn block_scan_faults_and_step_limits_keep_containment() {
    let mut rng = StdRng::seed_from_u64(0xD1FD);
    for n in [3u32, 6, 7, 9, 12] {
        for case in 0..4 {
            let m = rng.random_range(1..20);
            let psi = distinct_models(&mut rng, n, m);
            for k in [1u64, 64, 65] {
                let ctx = format!("n = {n}, case {case}, scan:{k}");
                let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, k));
                let sel = check_block_containment(&psi, &budget, &ctx);
                // A block is ranked whole or not at all: the fault trips
                // the block holding candidate k, if the universe has one.
                let lanes = 1u64 << n.min(6);
                let tripped_at = (k - 1) / lanes * lanes;
                assert_eq!(sel.trip.is_some(), tripped_at < 1 << n, "{ctx}");
                if sel.trip.is_some() {
                    let rest: Vec<Interp> = (tripped_at..1 << n).map(Interp).collect();
                    assert_eq!(sel.frontier, Some(rest), "{ctx}");
                }
                // Lex-odist through the same selection keeps containment.
                let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, k));
                let out = LexOdistFitting.apply_universe(&psi, &budget).unwrap();
                let exact = naive::lex_odist_fitting(&psi, &ModelSet::all(n));
                assert!(exact.iter().all(|i| out.models.contains(i)), "{ctx}: lex");
            }
        }
    }
    // The meter checks a step limit once per 1024 candidates, so a limit of
    // 1500 at n = 12 trips at the second check: on the 32nd block, which
    // stays unranked with the 32 after it.
    let psi = distinct_models(&mut rng, 12, 30);
    let budget = Budget::unlimited().with_step_limit(1500);
    let sel = check_block_containment(&psi, &budget, "step limit");
    assert_eq!(sel.trip.map(|t| t.reason), Some(TripReason::Steps));
    assert_eq!(sel.frontier.map(|f| f.len()), Some(4096 - 31 * 64));
}

/// At n = 16 a `ψ ∨ φ` of 24 or more models takes the block scan.
#[test]
fn wide_arbitration_agrees_with_naive_oracle() {
    let mut rng = StdRng::seed_from_u64(0xD1FE);
    const N: u32 = 16;
    for seed in 0..8 {
        let psi = distinct_models(&mut rng, N, 14);
        let phi = distinct_models(&mut rng, N, 12);
        assert_eq!(
            arbitrate(&psi, &phi),
            naive::arbitrate(&psi, &phi),
            "seed {seed}"
        );
    }
    for seed in 0..4 {
        let psi = distinct_models(&mut rng, N, 14);
        let phi = distinct_models(&mut rng, N, 12);
        let psi = WeightedKb::from_weights(N, psi.iter().map(|i| (i, 1 + i.0 % 9)));
        let phi = WeightedKb::from_weights(N, phi.iter().map(|i| (i, 1 + i.0 % 5)));
        assert_eq!(
            warbitrate(&psi, &phi),
            naive::warbitrate(&psi, &phi),
            "seed {seed}"
        );
        // 𝓜̃ carries weight 1 everywhere, so every minimizer has weight 1.
        let got = WdistFitting
            .apply_universe(&psi, &Budget::unlimited())
            .unwrap()
            .kb;
        assert!(got.is_satisfiable() && got.support().all(|(_, w)| w == 1));
    }
}
