//! Differential tests: every operator routed through the fast-path
//! selection kernel must agree exactly with its naive, specification-shaped
//! oracle in `arbitrex_core::kernel::naive` — on random inputs, on the
//! empty-ψ/empty-μ edges, and on weighted knowledge bases. The sum and
//! weighted-sum fittings, which the per-bit vote tally answers in closed
//! form, are also checked exhaustively at small widths and on the shapes
//! that stress a per-bit majority: even splits, one-model and
//! whole-universe ψ, zero and near-`u64::MAX` weights.

use arbitrex_core::kernel::naive;
use arbitrex_core::{
    arbitrate, warbitrate, ChangeOperator, DalalRevision, ForbusUpdate, GMaxFitting,
    LexOdistFitting, OdistFitting, SumFitting, UniverseFitting, WdistFitting,
    WeightedChangeOperator, WeightedKb, WeightedUniverseFitting, WinslettUpdate,
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
    let universe = SumFitting.apply_universe(psi).unwrap();
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
    let universe = WdistFitting.apply_universe(psi).unwrap();
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
            assert_eq!(SumFitting.apply_universe(&all).unwrap(), all, "{ctx}");
            assert_eq!(WdistFitting.apply_universe(&wall).unwrap(), wall, "{ctx}");
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
