//! What a result-cache key costs against the fingerprint that now decides
//! whether to build one: the joint `canonicalize_query` (NNF, sort, colour
//! refinement, fixed-point renumbering, then the key bytes) against
//! `query_fingerprint` (one colouring walk and one hashing walk per
//! formula).
//!
//! The queries are DNFs of full minterms, the shapes of the serving
//! benchmark: `query-cold`-like (ψ, φ) pairs at widths 10–12 with at most
//! 8 minterms each, and `query-compiled`-like (ψ, μ) pairs at width 14
//! with a 24-minterm ψ and a μ of at most 4.
//!
//! `cargo bench -p arbitrex-bench --bench cache_key`

use arbitrex_logic::{canonicalize_query, form_of, query_fingerprint, Formula, Interp};
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

fn bench_cache_key(c: &mut Criterion) {
    let shapes = [
        ("query-cold", 10, 8, 8),
        ("query-cold", 11, 8, 8),
        ("query-cold", 12, 8, 8),
        ("query-compiled", 14, 24, 4),
    ];
    for (shape, n, psi_minterms, mu_minterms) in shapes {
        let qs = queries(n, psi_minterms, mu_minterms, 8);
        let mut group = c.benchmark_group(format!("cache_key/{shape}"));
        group.bench_with_input(BenchmarkId::new("canonicalize_query", n), &qs, |b, qs| {
            b.iter(|| {
                for [psi, mu] in qs {
                    black_box(canonicalize_query(&[psi, mu], n).key_bytes());
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("query_fingerprint", n), &qs, |b, qs| {
            b.iter(|| {
                for [psi, mu] in qs {
                    black_box(query_fingerprint(&[psi, mu], n));
                }
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_cache_key);
criterion_main!(benches);
