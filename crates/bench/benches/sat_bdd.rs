//! Substrate benchmarks: the CDCL solver on random 3-SAT (around the
//! phase-transition ratio) and pigeonhole instances, AllSAT enumeration,
//! and BDD compilation + model counting.

use arbitrex_bdd::{compile, BddManager};
use arbitrex_logic::random::{random_kcnf_clauses, FormulaGen};
use arbitrex_sat::{enumerate_models_budgeted, AllSatLimit, Budget, Solver};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn solver_random_3sat(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat/random-3sat@4.26");
    for n in [50u32, 100, 150] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let m = (n as f64 * 4.26) as usize;
        let clauses = random_kcnf_clauses(&mut rng, n, 3, m);
        group.bench_with_input(BenchmarkId::from_parameter(n), &clauses, |b, clauses| {
            b.iter(|| {
                let mut s = Solver::new();
                s.ensure_vars(n);
                for cl in clauses {
                    s.add_dimacs_clause(cl);
                }
                black_box(s.solve())
            })
        });
    }
    group.finish();
}

fn solver_pigeonhole(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat/pigeonhole");
    for holes in [4u32, 5, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(holes), &holes, |b, &holes| {
            b.iter(|| {
                let pigeons = holes + 1;
                let p = |i: u32, j: u32| (holes * i + j + 1) as i32;
                let mut s = Solver::new();
                s.ensure_vars(pigeons * holes);
                for i in 0..pigeons {
                    let clause: Vec<i32> = (0..holes).map(|j| p(i, j)).collect();
                    s.add_dimacs_clause(&clause);
                }
                for j in 0..holes {
                    for i1 in 0..pigeons {
                        for i2 in (i1 + 1)..pigeons {
                            s.add_dimacs_clause(&[-p(i1, j), -p(i2, j)]);
                        }
                    }
                }
                black_box(s.solve())
            })
        });
    }
    group.finish();
}

fn allsat_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat/allsat");
    for n in [10u32, 14, 18] {
        let mut rng = StdRng::seed_from_u64(99);
        // Loose formulas with many models: ratio 2.0.
        let clauses = random_kcnf_clauses(&mut rng, n, 3, 2 * n as usize);
        group.bench_with_input(BenchmarkId::from_parameter(n), &clauses, |b, clauses| {
            b.iter(|| {
                let mut s = Solver::new();
                s.ensure_vars(n);
                for cl in clauses {
                    s.add_dimacs_clause(cl);
                }
                black_box(enumerate_models_budgeted(
                    &mut s,
                    n,
                    AllSatLimit::AtMost(100_000),
                    &Budget::unlimited(),
                ))
            })
        });
    }
    group.finish();
}

fn bdd_compile_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd/compile+count");
    for n in [8u32, 12, 16] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let gen = FormulaGen {
            n_vars: n,
            max_depth: 7,
            leaf_bias: 0.2,
        };
        let formulas: Vec<_> = (0..5).map(|_| gen.sample(&mut rng)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &formulas, |b, formulas| {
            b.iter(|| {
                for f in formulas {
                    let mut mgr = BddManager::new();
                    let bdd = compile(&mut mgr, f);
                    black_box(mgr.count_models(bdd, n));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    solver_random_3sat,
    solver_pigeonhole,
    allsat_enumeration,
    bdd_compile_count
);
criterion_main!(benches);
