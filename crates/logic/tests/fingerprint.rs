//! `query_fingerprint` properties: the fingerprint the result cache's
//! admission doorkeeper uses to recognize a query's second sighting.
//!
//! * **Invariance.** A joint (ψ, μ) query rewritten by a variable
//!   permutation and by shuffling `∧`/`∨` children keeps its fingerprint,
//!   for random formulas of every connective and for the minterm DNFs the
//!   serving benchmark sends.
//! * **Discrimination.** Random DNF queries that are not the same query
//!   (their joint canonical keys differ) almost never share a fingerprint,
//!   so the doorkeeper rarely admits a first sighting by mistake.

use arbitrex_logic::random::FormulaGen;
use arbitrex_logic::{
    canonicalize_query, form_of, query_fingerprint, rename_formula, Formula, Interp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Fisher–Yates.
fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.random_range(0..=i));
    }
}

/// A random permutation of `0..n`.
fn permutation(rng: &mut StdRng, n: u32) -> Vec<u32> {
    let mut map: Vec<u32> = (0..n).collect();
    shuffle(&mut map, rng);
    map
}

/// `f` with the children of every `∧`/`∨` shuffled, built without the
/// flattening smart constructors so the tree keeps its shape.
fn shuffle_children(f: &Formula, rng: &mut StdRng) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Var(_) => f.clone(),
        Formula::Not(g) => Formula::Not(Box::new(shuffle_children(g, rng))),
        Formula::And(gs) | Formula::Or(gs) => {
            let mut kids: Vec<Formula> = gs.iter().map(|g| shuffle_children(g, rng)).collect();
            shuffle(&mut kids, rng);
            if matches!(f, Formula::And(_)) {
                Formula::And(kids)
            } else {
                Formula::Or(kids)
            }
        }
        Formula::Implies(a, b) => Formula::Implies(
            Box::new(shuffle_children(a, rng)),
            Box::new(shuffle_children(b, rng)),
        ),
        Formula::Iff(a, b) => Formula::Iff(
            Box::new(shuffle_children(a, rng)),
            Box::new(shuffle_children(b, rng)),
        ),
        Formula::Xor(a, b) => Formula::Xor(
            Box::new(shuffle_children(a, rng)),
            Box::new(shuffle_children(b, rng)),
        ),
    }
}

/// A DNF of `1..=max_minterms` distinct random minterms over `n` variables.
fn minterm_dnf(rng: &mut StdRng, n: u32, max_minterms: usize) -> Formula {
    let k = rng.random_range(1..=max_minterms);
    let mut models: Vec<u64> = (0..k).map(|_| rng.random_range(0..1u64 << n)).collect();
    models.sort_unstable();
    models.dedup();
    form_of(n, models.into_iter().map(Interp))
}

/// Assert that `variants` fresh renamings-and-shuffles of `(psi, mu)` all
/// keep the original's fingerprint.
fn assert_invariant(rng: &mut StdRng, psi: &Formula, mu: &Formula, n: u32, variants: usize) {
    let want = query_fingerprint(&[psi, mu], n);
    for _ in 0..variants {
        let perm = permutation(rng, n);
        let p = shuffle_children(&rename_formula(psi, &perm), rng);
        let m = shuffle_children(&rename_formula(mu, &perm), rng);
        assert_eq!(
            query_fingerprint(&[&p, &m], n),
            want,
            "renaming {perm:?} moved the fingerprint of\n  ψ = {psi:?}\n  μ = {mu:?}"
        );
    }
}

#[test]
fn random_formulas_are_invariant_under_renaming_and_shuffling() {
    let mut rng = StdRng::seed_from_u64(0x000f_19e7_0001);
    for n in 1..=8u32 {
        let gen = FormulaGen {
            n_vars: n,
            max_depth: 6,
            leaf_bias: 0.2,
        };
        for _ in 0..40 {
            let psi = gen.sample(&mut rng);
            let mu = gen.sample(&mut rng);
            assert_invariant(&mut rng, &psi, &mu, n, 4);
        }
    }
}

#[test]
fn benchmark_shaped_dnfs_are_invariant_under_renaming_and_shuffling() {
    let mut rng = StdRng::seed_from_u64(0x000f_19e7_0002);
    // query-cold: fresh ψ and φ of at most 8 minterms, widths 10–12.
    for n in 10..=12u32 {
        for _ in 0..30 {
            let psi = minterm_dnf(&mut rng, n, 8);
            let phi = minterm_dnf(&mut rng, n, 8);
            assert_invariant(&mut rng, &psi, &phi, n, 3);
        }
    }
    // query-compiled: a 24-minterm width-14 ψ against μ of at most 4.
    for _ in 0..30 {
        let psi = minterm_dnf(&mut rng, 14, 24);
        let mu = minterm_dnf(&mut rng, 14, 4);
        assert_invariant(&mut rng, &psi, &mu, 14, 3);
    }
}

#[test]
fn formula_order_and_width_are_part_of_the_fingerprint() {
    let mut rng = StdRng::seed_from_u64(0x000f_19e7_0003);
    let psi = minterm_dnf(&mut rng, 10, 8);
    let mu = minterm_dnf(&mut rng, 10, 4);
    let base = query_fingerprint(&[&psi, &mu], 10);
    assert_ne!(base, query_fingerprint(&[&mu, &psi], 10));
    assert_ne!(base, query_fingerprint(&[&psi, &mu], 11));
    assert_ne!(base, query_fingerprint(&[&psi], 10));
}

#[test]
fn distinct_dnf_queries_rarely_share_a_fingerprint() {
    let mut rng = StdRng::seed_from_u64(0x000f_19e7_0004);
    // Distinct queries are those with distinct joint canonical keys.
    let mut keys: HashSet<Vec<u8>> = HashSet::new();
    // Fingerprint → how many distinct queries carry it.
    let mut buckets: HashMap<u64, usize> = HashMap::new();
    while keys.len() < 2_000 {
        let n = rng.random_range(10..=14u32);
        let psi = minterm_dnf(&mut rng, n, 8);
        let mu = minterm_dnf(&mut rng, n, 4);
        if keys.insert(canonicalize_query(&[&psi, &mu], n).key_bytes()) {
            *buckets
                .entry(query_fingerprint(&[&psi, &mu], n))
                .or_default() += 1;
        }
    }
    let pairs = keys.len() * (keys.len() - 1) / 2;
    let colliding: usize = buckets.values().map(|k| k * (k - 1) / 2).sum();
    assert!(
        colliding * 100 < pairs,
        "{colliding} of {pairs} pairs of distinct queries share a fingerprint"
    );
}
