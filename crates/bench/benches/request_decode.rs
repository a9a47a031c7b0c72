//! Request decoding: a query side's text to its model set, the step every
//! query request takes before the kernel sees it. Each shape is timed two
//! ways:
//!
//! * `parse`: `parse` into a `Formula`, then `ModelSet::try_of_formula`;
//! * `read_cover`: `read_cover` straight into cubes, then
//!   `ModelSet::try_of_cover`.
//!
//! The texts are DNFs of full minterms in the serving benchmark's own
//! spelling, `(x3 & !x1 & …) | (…)`: `query-hot`-like sides at widths 4–8
//! with 1–4 minterms, their minterms and literals shuffled under fresh
//! names; `query-cold`-like sides at widths 10–12 with 1–8 minterms; and
//! `query-compiled`-like theories at width 14 with 24 minterms.
//!
//! `cargo bench -p arbitrex-bench --bench request_decode`

use arbitrex_logic::{parse, read_cover, ModelSet, Sig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::ops::RangeInclusive;

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// `count` DNF texts, each over a width drawn from `widths` with a
/// number of minterms drawn from `minterms`; `shuffled` draws fresh names
/// and shuffles minterms and literals.
fn texts(
    widths: RangeInclusive<u32>,
    minterms: RangeInclusive<usize>,
    shuffled: bool,
    count: usize,
) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(u64::from(*widths.end()) << 8 | *minterms.end() as u64);
    (0..count)
        .map(|_| {
            let n = rng.random_range(widths.clone());
            let names: Vec<String> = (0..n)
                .map(|i| {
                    if shuffled {
                        format!("x{}", rng.random_range(0..4096u32))
                    } else {
                        format!("v{i}")
                    }
                })
                .collect();
            let k = rng.random_range(minterms.clone());
            (0..k)
                .map(|_| {
                    let model = rng.random_range(0..1u64 << n);
                    let mut order: Vec<usize> = (0..n as usize).collect();
                    if shuffled {
                        shuffle(&mut rng, &mut order);
                    }
                    let literals: Vec<String> = order
                        .iter()
                        .map(|&i| {
                            let bang = if model >> i & 1 == 1 { "" } else { "!" };
                            format!("{bang}{}", names[i])
                        })
                        .collect();
                    format!("({})", literals.join(" & "))
                })
                .collect::<Vec<_>>()
                .join(" | ")
        })
        .collect()
}

fn bench_decode(c: &mut Criterion) {
    let shapes = [
        ("query-hot", texts(4..=8, 1..=4, true, 8)),
        ("query-cold", texts(10..=12, 1..=8, false, 8)),
        ("query-compiled", texts(14..=14, 24..=24, false, 8)),
    ];
    for (shape, texts) in shapes {
        let mut group = c.benchmark_group("request_decode");
        group.bench_with_input(BenchmarkId::new("parse", shape), &texts, |b, texts| {
            b.iter(|| {
                for text in texts {
                    let mut sig = Sig::new();
                    let f = parse(&mut sig, text).unwrap();
                    black_box(ModelSet::try_of_formula(&f, sig.width()).unwrap());
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("read_cover", shape), &texts, |b, texts| {
            b.iter(|| {
                for text in texts {
                    let mut sig = Sig::new();
                    let cover = read_cover(&mut sig, text).unwrap();
                    black_box(ModelSet::try_of_cover(&cover, sig.width()).unwrap());
                }
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
