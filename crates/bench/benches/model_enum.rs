//! Model enumeration, the first layer of every kernel answer.
//! `ModelSet::of_formula` expands a cube cover (a DNF of conjunctions of
//! literals) cube by cube, or walks the universe over its cubes when they
//! hold too many interpretations, and walks it 64 interpretations per
//! tree walk for any other formula. Each shape is timed three ways:
//!
//! * `filter`: the per-interpretation filter `(0..2^n).filter(|i| eval(f, i))`;
//! * `block_walk`: `of_formula` on `¬¬f`, which denotes the same set but is
//!   no cube cover, so it takes the 64-lane walk;
//! * `of_formula`: `of_formula` on `f` itself.
//!
//! The DNFs are of full minterms, the shape the serving benchmark sends:
//! `query-cold`-like sides at widths 10–12 with 1–8 minterms, and
//! `query-compiled`-like theories at width 14 with 24. The last shape is a
//! random 3-CNF at width 14, no cube cover: `of_formula` must walk there
//! too and cost the same as `block_walk`.
//!
//! `cargo bench -p arbitrex-bench --bench model_enum`

use arbitrex_logic::{eval, form_of, Formula, Interp, ModelSet, Var};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::ops::RangeInclusive;

/// `count` DNFs over `n` variables, each of a `minterms`-drawn number of
/// minterms.
fn dnfs(n: u32, minterms: RangeInclusive<usize>, count: usize) -> Vec<Formula> {
    let mut rng = StdRng::seed_from_u64(u64::from(n) << 8 | *minterms.end() as u64);
    (0..count)
        .map(|_| {
            let k = rng.random_range(minterms.clone());
            form_of(n, (0..k).map(|_| Interp(rng.random_range(0..1u64 << n))))
        })
        .collect()
}

/// `count` random 3-CNFs of `clauses` clauses over `n` variables.
fn cnfs(n: u32, clauses: usize, count: usize) -> Vec<Formula> {
    let mut rng = StdRng::seed_from_u64(u64::from(n) << 8 | 0xcf);
    (0..count)
        .map(|_| {
            Formula::And(
                (0..clauses)
                    .map(|_| {
                        Formula::Or(
                            (0..3)
                                .map(|_| {
                                    Formula::lit(Var(rng.random_range(0..n)), rng.random_bool(0.5))
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

fn filter(f: &Formula, n: u32) -> Vec<Interp> {
    (0..1u64 << n).map(Interp).filter(|&i| eval(f, i)).collect()
}

fn bench_enumeration(c: &mut Criterion) {
    let shapes = [
        ("query-cold", 10, dnfs(10, 1..=8, 8)),
        ("query-cold", 11, dnfs(11, 1..=8, 8)),
        ("query-cold", 12, dnfs(12, 1..=8, 8)),
        ("query-compiled", 14, dnfs(14, 24..=24, 8)),
        ("3-cnf", 14, cnfs(14, 20, 8)),
    ];
    for (shape, n, fs) in shapes {
        let mut group = c.benchmark_group(format!("model_enum/{shape}"));
        group.bench_with_input(BenchmarkId::new("filter", n), &fs, |b, fs| {
            b.iter(|| {
                for f in fs {
                    black_box(filter(f, n));
                }
            })
        });
        let negated: Vec<Formula> = fs
            .iter()
            .map(|f| Formula::Not(Box::new(Formula::Not(Box::new(f.clone())))))
            .collect();
        group.bench_with_input(BenchmarkId::new("block_walk", n), &negated, |b, fs| {
            b.iter(|| {
                for f in fs {
                    black_box(ModelSet::of_formula(f, n));
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
