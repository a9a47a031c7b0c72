//! What a result-cache key costs: the model key the cache builds —
//! `Mod(ψ)` and `Mod(μ)` enumerated, then keyed on their bits with a
//! canonical column order — against the retired joint `canonicalize_query`
//! (NNF, sort, colour refinement, fixed-point renumbering, then the key
//! bytes), which stays as the reference.
//!
//! The queries are DNFs of full minterms, the shapes of the serving
//! benchmark, each keyed the way its endpoint keys it:
//!
//! * `query-hot`: arbitrations at widths 4–8 with at most 4 minterms a
//!   side, keyed on `Mod(ψ) ∪ Mod(φ)`;
//! * `query-cold`: arbitrations at widths 10–12 with at most 8 minterms a
//!   side, keyed on the union;
//! * `query-compiled`: odist fits at width 14 with a 24-minterm ψ and a μ
//!   of at most 4, keyed on the pair.
//!
//! `cargo bench -p arbitrex-bench --bench cache_key`

use arbitrex_core::QueryKey;
use arbitrex_logic::{canonicalize_query, form_of, Formula, Interp, ModelSet};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// A DNF of `1..=max_minterms` random minterms over `n` variables.
fn dnf(rng: &mut StdRng, n: u32, max_minterms: usize) -> Formula {
    let k = rng.random_range(1..=max_minterms);
    form_of(n, (0..k).map(|_| Interp(rng.random_range(0..1u64 << n))))
}

/// `count` (ψ, μ) pairs over `n` variables.
fn queries(n: u32, psi_minterms: usize, mu_minterms: usize, count: usize) -> Vec<[Formula; 2]> {
    let mut rng =
        StdRng::seed_from_u64(u64::from(n) << 16 | (psi_minterms << 8 | mu_minterms) as u64);
    (0..count)
        .map(|_| {
            [
                dnf(&mut rng, n, psi_minterms),
                dnf(&mut rng, n, mu_minterms),
            ]
        })
        .collect()
}

/// The cache's key for `[psi, mu]`, enumeration included: the union for
/// an arbitration, the pair for a fit.
fn model_key(psi: &Formula, mu: &Formula, n: u32, union: bool) -> QueryKey {
    let (mp, mm) = (ModelSet::of_formula(psi, n), ModelSet::of_formula(mu, n));
    if union {
        QueryKey::new("arbitrate", n, &[&mp.union(&mm)])
    } else {
        QueryKey::new("apply:odist", n, &[&mp, &mm])
    }
}

fn bench_cache_key(c: &mut Criterion) {
    let shapes = [
        ("query-hot", 4, 4, 4, true),
        ("query-hot", 6, 4, 4, true),
        ("query-hot", 8, 4, 4, true),
        ("query-cold", 10, 8, 8, true),
        ("query-cold", 11, 8, 8, true),
        ("query-cold", 12, 8, 8, true),
        ("query-compiled", 14, 24, 4, false),
    ];
    for (shape, n, psi_minterms, mu_minterms, union) in shapes {
        let qs = queries(n, psi_minterms, mu_minterms, 8);
        let mut group = c.benchmark_group(format!("cache_key/{shape}"));
        group.bench_with_input(BenchmarkId::new("canonicalize_query", n), &qs, |b, qs| {
            b.iter(|| {
                for [psi, mu] in qs {
                    black_box(canonicalize_query(&[psi, mu], n).key_bytes());
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("model_key", n), &qs, |b, qs| {
            b.iter(|| {
                for [psi, mu] in qs {
                    black_box(model_key(psi, mu, n, union));
                }
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_cache_key);
criterion_main!(benches);
