//! E8 — Dalal revision: truth-table enumeration vs the SAT backend, as the
//! signature grows. The crossover (SAT overtaking enumeration) is the
//! measured answer to the practical side of the Section 5 open problem.

use arbitrex_bench::random_kcnf_pairs;
use arbitrex_core::satbackend::dalal_revision_sat_budgeted;
use arbitrex_core::{Budget, ChangeOperator, DalalRevision};
use arbitrex_logic::ModelSet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn e8(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8/dalal-enumeration");
    for n in [8u32, 12, 16] {
        let pairs = random_kcnf_pairs(n, 3, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &pairs, |b, pairs| {
            b.iter(|| {
                for (psi, mu) in pairs {
                    let pm = ModelSet::of_formula(psi, n);
                    let mm = ModelSet::of_formula(mu, n);
                    black_box(DalalRevision.apply(&pm, &mm));
                }
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("e8/dalal-sat");
    for n in [8u32, 12, 16, 24, 32] {
        let pairs = random_kcnf_pairs(n, 3, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &pairs, |b, pairs| {
            b.iter(|| {
                for (psi, mu) in pairs {
                    black_box(dalal_revision_sat_budgeted(
                        psi,
                        mu,
                        n,
                        1024,
                        &Budget::unlimited(),
                    ));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, e8);
criterion_main!(benches);
