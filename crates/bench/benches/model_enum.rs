//! Model enumeration, the first layer of every kernel answer: the
//! word-wide `ModelSet::of_formula` (64 interpretations per tree walk)
//! against the per-interpretation filter `(0..2^n).filter(|i| eval(f, i))`
//! it replaced.
//!
//! The formulas are DNFs of full minterms, the shape the serving
//! benchmark sends: `query-cold`-like sides at widths 10–12 with at most
//! 8 minterms, and `query-compiled`-like theories at width 14 with 24.
//!
//! `cargo bench -p arbitrex-bench --bench model_enum`

use arbitrex_logic::{eval, form_of, Formula, Interp, ModelSet};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// `count` DNFs over `n` variables, each of 1..=`max_minterms` minterms.
fn dnfs(n: u32, max_minterms: usize, count: usize) -> Vec<Formula> {
    let mut rng = StdRng::seed_from_u64(u64::from(n) << 8 | max_minterms as u64);
    (0..count)
        .map(|_| {
            let k = rng.random_range(1..=max_minterms);
            form_of(n, (0..k).map(|_| Interp(rng.random_range(0..1u64 << n))))
        })
        .collect()
}

fn filter(f: &Formula, n: u32) -> Vec<Interp> {
    (0..1u64 << n).map(Interp).filter(|&i| eval(f, i)).collect()
}

fn bench_enumeration(c: &mut Criterion) {
    let shapes = [
        ("query-cold", 10, 8),
        ("query-cold", 11, 8),
        ("query-cold", 12, 8),
        ("query-compiled", 14, 24),
    ];
    for (shape, n, max_minterms) in shapes {
        let fs = dnfs(n, max_minterms, 8);
        let mut group = c.benchmark_group(format!("model_enum/{shape}"));
        group.bench_with_input(BenchmarkId::new("filter", n), &fs, |b, fs| {
            b.iter(|| {
                for f in fs {
                    black_box(filter(f, n));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("of_formula", n), &fs, |b, fs| {
            b.iter(|| {
                for f in fs {
                    black_box(ModelSet::of_formula(f, n));
                }
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_enumeration);
criterion_main!(benches);
