//! Admission to the result cache: once an `OpCache` has evicted, a query
//! is looked up and stored only on its second sighting.
//!
//! * A repeated query on an evicting cache reports `bypass` (first
//!   sighting: key hash recorded, no lookup), then `miss` (looked up,
//!   stored), then `hit`; an alpha-variant of it hits too.
//! * `clear()` returns the cache to admitting every query.
//! * Answers never depend on admission: a seeded stream of repeats,
//!   renamings and fresh queries through the cached entry points on a
//!   small evicting cache matches the naive oracles on every request.

use arbitrex_core::kernel::naive;
use arbitrex_core::telemetry::{self, CACHE_FIRST_SIGHTINGS};
use arbitrex_core::{
    cached_apply, cached_arbitrate, Budget, CacheStatus, DalalRevision, OdistFitting, OpCache,
};
use arbitrex_logic::{form_of, parse, rename_formula, Formula, Interp, ModelSet, Sig};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Arbitrate `psi` against `phi` through `cache` and return the status.
fn status(cache: &OpCache, psi: &str, phi: &str, n: u32) -> CacheStatus {
    let mut sig = Sig::new();
    for i in 0..n {
        sig.var(&format!("V{i}"));
    }
    let p = parse(&mut sig, psi).unwrap();
    let f = parse(&mut sig, phi).unwrap();
    assert_eq!(sig.width(), n, "{psi} / {phi} must stay within V0..V{n}");
    let (p, f) = (ModelSet::of_formula(&p, n), ModelSet::of_formula(&f, n));
    let (out, status) = cached_arbitrate(cache, &p, &f, &Budget::unlimited()).unwrap();
    let want = naive::arbitrate(&p, &f);
    assert_eq!(out.models, want, "{psi} Δ {phi}");
    status
}

/// Fill a one-shard, two-entry cache with three distinct queries, so its
/// third insertion evicts.
fn push_past_first_eviction(cache: &OpCache) {
    for psi in ["V0", "V0 & V1", "V0 & V1 & V2"] {
        assert_eq!(status(cache, psi, "!V0", 3), CacheStatus::Miss, "{psi}");
    }
}

#[test]
fn evicting_cache_admits_a_query_on_its_second_sighting() {
    let cache = OpCache::with_shards(1, 2);
    push_past_first_eviction(&cache);
    let before = CACHE_FIRST_SIGHTINGS.get();
    let (psi, phi) = ("(V0 & !V1) | V2", "!V0 & !V2");
    assert_eq!(status(&cache, psi, phi, 3), CacheStatus::Bypass);
    assert!(CACHE_FIRST_SIGHTINGS.get() > before || !telemetry::enabled());
    assert_eq!(status(&cache, psi, phi, 3), CacheStatus::Miss);
    assert_eq!(status(&cache, psi, phi, 3), CacheStatus::Hit);
    // Renamed (V0→V2→V1→V0) and shuffled: the same model sets up to the
    // renaming, so the same key.
    assert_eq!(
        status(&cache, "V1 | (!V0 & V2)", "!V1 & !V2", 3),
        CacheStatus::Hit
    );
}

#[test]
fn clear_restores_admit_all() {
    let cache = OpCache::with_shards(1, 2);
    push_past_first_eviction(&cache);
    assert_eq!(status(&cache, "V0 | V1", "!V1", 3), CacheStatus::Bypass);
    cache.clear();
    assert!(cache.is_empty());
    // Never evicted since the clear: a first sighting is a plain miss.
    assert_eq!(status(&cache, "V0 | V2", "V1", 3), CacheStatus::Miss);
    assert_eq!(status(&cache, "V0 | V2", "V1", 3), CacheStatus::Hit);
}

/// Fisher–Yates.
fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.random_range(0..=i));
    }
}

/// A DNF of `1..=max_minterms` random minterms over `n` variables.
fn minterm_dnf(rng: &mut StdRng, n: u32, max_minterms: usize) -> Formula {
    let k = rng.random_range(1..=max_minterms);
    form_of(n, (0..k).map(|_| Interp(rng.random_range(0..1u64 << n))))
}

/// `(psi, mu)` under a random renaming, with every disjunction's minterms
/// shuffled.
fn variant(rng: &mut StdRng, psi: &Formula, mu: &Formula, n: u32) -> (Formula, Formula) {
    let mut perm: Vec<u32> = (0..n).collect();
    shuffle(&mut perm, rng);
    let mut renamed = |f: &Formula| match rename_formula(f, &perm) {
        Formula::Or(mut kids) => {
            shuffle(&mut kids, rng);
            Formula::Or(kids)
        }
        other => other,
    };
    (renamed(psi), renamed(mu))
}

#[test]
fn admission_never_changes_an_answer() {
    let mut rng = StdRng::seed_from_u64(0xad_0001);
    let budget = Budget::unlimited();
    let cache = OpCache::with_shards(1, 4);
    // Twelve recurring queries, three per width, among fresh ones.
    let bases: Vec<(u32, Formula, Formula)> = (0..12)
        .map(|i| {
            let n = 3 + i % 4;
            (n, minterm_dnf(&mut rng, n, 4), minterm_dnf(&mut rng, n, 3))
        })
        .collect();
    let (mut hits, mut misses, mut bypasses) = (0, 0, 0);
    let mut count = |s: CacheStatus| match s {
        CacheStatus::Hit => hits += 1,
        CacheStatus::Miss => misses += 1,
        CacheStatus::Bypass => bypasses += 1,
    };
    for step in 0..600 {
        let (n, psi, mu) = if rng.random_bool(0.6) {
            let (n, psi, mu) = &bases[rng.random_range(0..bases.len())];
            let (p, m) = variant(&mut rng, psi, mu, *n);
            (*n, p, m)
        } else {
            let n = rng.random_range(3..=6u32);
            (n, minterm_dnf(&mut rng, n, 4), minterm_dnf(&mut rng, n, 3))
        };
        let (mp, mm) = (ModelSet::of_formula(&psi, n), ModelSet::of_formula(&mu, n));
        let (out, s) = cached_arbitrate(&cache, &mp, &mm, &budget).unwrap();
        assert_eq!(
            out.models,
            naive::arbitrate(&mp, &mm),
            "arbitrate, step {step}"
        );
        count(s);
        let (out, s) = cached_apply(&cache, &OdistFitting, &mp, &mm, &budget).unwrap();
        assert_eq!(
            out.models,
            naive::odist_fitting(&mp, &mm),
            "odist, step {step}"
        );
        count(s);
        let (out, s) = cached_apply(&cache, &DalalRevision, &mp, &mm, &budget).unwrap();
        assert_eq!(
            out.models,
            naive::dalal_revision(&mp, &mm),
            "dalal, step {step}"
        );
        count(s);
    }
    // The stream must have exercised every admission outcome.
    assert!(
        hits > 0 && misses > 0 && bypasses > 0,
        "hits {hits}, misses {misses}, bypasses {bypasses}"
    );
}
