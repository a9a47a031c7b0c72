//! E12 — the fast-path selection kernel vs the naive oracles.
//!
//! Three series per width: the retained naive implementation (two-pass
//! selection over a materialized universe), arbitration through the
//! dispatched kernel, and the block scan alone on the same `ψ ∨ φ`.
//! `cargo run --release -p arbitrex-bench --bin experiments e12` prints
//! the same comparison as a table and writes `BENCH_PR2.json`.

use arbitrex_bench::random_pairs;
use arbitrex_core::arbitration::arbitrate;
use arbitrex_core::kernel::{naive, select_min_block_odist};
use arbitrex_core::{Budget, ChangeOperator, DalalRevision, GMaxFitting, OdistFitting, SumFitting};
use arbitrex_logic::ModelSet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const WIDTHS: [u32; 4] = [10, 12, 14, 16];

fn bench_arbitration(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12/arbitration");
    for n in WIDTHS {
        let wl = random_pairs(n, 8, 4, 12);
        group.bench_with_input(BenchmarkId::new("naive", n), &wl, |b, wl| {
            b.iter(|| {
                for (psi, phi) in &wl.pairs {
                    black_box(naive::arbitrate(psi, phi));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("pruned", n), &wl, |b, wl| {
            b.iter(|| {
                for (psi, phi) in &wl.pairs {
                    black_box(arbitrate(psi, phi));
                }
            })
        });
        let unions: Vec<ModelSet> = wl.pairs.iter().map(|(psi, phi)| psi.union(phi)).collect();
        group.bench_with_input(BenchmarkId::new("block", n), &unions, |b, unions| {
            let budget = Budget::unlimited();
            b.iter(|| {
                for u in unions.iter().filter(|u| !u.is_empty()) {
                    black_box(select_min_block_odist(n, u.as_slice(), &budget));
                }
            })
        });
    }
    group.finish();
}

fn bench_fitting_kernels(c: &mut Criterion) {
    // Fitting over a materialized μ = ⊤ pool isolates the single-pass +
    // pruning layers (no streaming, no threads).
    let mut group = c.benchmark_group("e12/fitting");
    for n in WIDTHS {
        let wl = random_pairs(n, 8, 4, 21);
        let full = ModelSet::all(n);
        type Pair<'a> = (&'a arbitrex_bench::Workload, &'a ModelSet);
        let input: Pair = (&wl, &full);
        group.bench_with_input(
            BenchmarkId::new("odist-naive", n),
            &input,
            |b, (wl, full)| {
                b.iter(|| {
                    for (psi, _) in &wl.pairs {
                        black_box(naive::odist_fitting(psi, full));
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("odist-pruned", n),
            &input,
            |b, (wl, full)| {
                b.iter(|| {
                    for (psi, _) in &wl.pairs {
                        black_box(OdistFitting.apply(psi, full));
                    }
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("sum-naive", n), &input, |b, (wl, full)| {
            b.iter(|| {
                for (psi, _) in &wl.pairs {
                    black_box(naive::sum_fitting(psi, full));
                }
            })
        });
        group.bench_with_input(
            BenchmarkId::new("sum-pruned", n),
            &input,
            |b, (wl, full)| {
                b.iter(|| {
                    for (psi, _) in &wl.pairs {
                        black_box(SumFitting.apply(psi, full));
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("gmax-naive", n),
            &input,
            |b, (wl, full)| {
                b.iter(|| {
                    for (psi, _) in &wl.pairs {
                        black_box(naive::gmax_fitting(psi, full));
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("gmax-pruned", n),
            &input,
            |b, (wl, full)| {
                b.iter(|| {
                    for (psi, _) in &wl.pairs {
                        black_box(GMaxFitting.apply(psi, full));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_revision_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12/dalal");
    for n in WIDTHS {
        let wl = random_pairs(n, 8, 4, 33);
        let full = ModelSet::all(n);
        for (label, run) in [
            (
                "naive",
                Box::new(|psi: &ModelSet, full: &ModelSet| naive::dalal_revision(psi, full))
                    as Box<dyn Fn(&ModelSet, &ModelSet) -> ModelSet>,
            ),
            (
                "pruned",
                Box::new(|psi: &ModelSet, full: &ModelSet| DalalRevision.apply(psi, full)),
            ),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &wl, |b, wl| {
                b.iter(|| {
                    for (psi, _) in &wl.pairs {
                        black_box(run(psi, &full));
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_arbitration,
    bench_fitting_kernels,
    bench_revision_kernel
);
criterion_main!(benches);
