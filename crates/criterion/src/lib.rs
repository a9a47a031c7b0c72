//! In-tree stand-in for the `criterion` crate.
//!
//! The build environment for this workspace has no registry access, so the
//! workspace vendors the slice of the criterion 0.8 API its benches use:
//! [`Criterion::benchmark_group`], [`Criterion::bench_function`],
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`],
//! [`BenchmarkId::from_parameter`] and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Measurement model: a short warm-up, then timed batches with a doubling
//! iteration count until the time budget is met; the reported figure is the
//! best (minimum) per-iteration time across batches, which is the most
//! noise-robust point statistic for a single-machine harness. The mean over
//! every timed iteration follows it: where the two differ widely, some
//! batches hit slow paths (an allocator growing or returning memory, say)
//! that the best batch missed. Results are printed to stdout, one line per
//! benchmark:
//!
//! ```text
//! bench  e12/arbitrate-pruned/14        123.4 µs/iter  (mean 130.2 µs, 64 iters, 12 batches)
//! ```
//!
//! Environment knobs: `CRITERION_BUDGET_MS` bounds per-benchmark measuring
//! time (default 300 ms — raise for stabler numbers, lower for CI smoke).

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Per-benchmark measurement budget.
fn budget() -> Duration {
    let ms = std::env::var("CRITERION_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(10))
}

/// Timing loop driver handed to benchmark closures.
pub struct Bencher {
    /// Best observed per-iteration time, in nanoseconds.
    best_ns: f64,
    /// Time spent in every timed batch, in nanoseconds.
    total_ns: f64,
    total_iters: u64,
    batches: u32,
}

impl Bencher {
    fn new() -> Self {
        Bencher {
            best_ns: f64::INFINITY,
            total_ns: 0.0,
            total_iters: 0,
            batches: 0,
        }
    }

    /// Time `f`, called in batches until the measurement budget is spent.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: one untimed call (page in code/data, fill caches).
        black_box(f());
        let budget = budget();
        let started = Instant::now();
        let mut iters_per_batch: u64 = 1;
        while started.elapsed() < budget {
            let t0 = Instant::now();
            for _ in 0..iters_per_batch {
                black_box(f());
            }
            let dt = t0.elapsed();
            self.total_ns += dt.as_nanos() as f64;
            let ns = dt.as_nanos() as f64 / iters_per_batch as f64;
            if ns < self.best_ns {
                self.best_ns = ns;
            }
            self.total_iters += iters_per_batch;
            self.batches += 1;
            // Grow batches until each one is long enough to time reliably.
            if dt < Duration::from_millis(10) {
                iters_per_batch = iters_per_batch.saturating_mul(2);
            }
        }
    }

    fn report(&self, label: &str) {
        let (value, unit) = humanize_ns(self.best_ns);
        let (mean, mean_unit) = humanize_ns(self.total_ns / self.total_iters as f64);
        println!(
            "bench  {label:<44} {value:>9.1} {unit}/iter  (mean {mean:.1} {mean_unit}, {} iters, {} batches)",
            self.total_iters, self.batches
        );
    }
}

fn humanize_ns(ns: f64) -> (f64, &'static str) {
    if ns < 1_000.0 {
        (ns, "ns")
    } else if ns < 1_000_000.0 {
        (ns / 1_000.0, "µs")
    } else if ns < 1_000_000_000.0 {
        (ns / 1_000_000.0, "ms")
    } else {
        (ns / 1_000_000_000.0, "s")
    }
}

/// Identifier for one benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id rendered from a bare parameter (criterion's
    /// `BenchmarkId::from_parameter`).
    pub fn from_parameter<D: Display>(parameter: D) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }

    /// An id with a function name and a parameter.
    pub fn new<D: Display>(function_name: &str, parameter: D) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }
}

impl<D: Display> From<D> for BenchmarkId {
    fn from(d: D) -> Self {
        BenchmarkId { id: d.to_string() }
    }
}

/// The top-level harness handle.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _criterion: self,
        }
    }

    /// Run a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new();
        f(&mut b);
        b.report(id);
        self
    }
}

/// A group of benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Run a benchmark parameterized by a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut b = Bencher::new();
        f(&mut b, input);
        b.report(&format!("{}/{}", self.name, id.id));
        self
    }

    /// Run a benchmark without an input parameter.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher::new();
        f(&mut b);
        b.report(&format!("{}/{}", self.name, id.id));
        self
    }

    /// Close the group (kept for API compatibility; prints a separator).
    pub fn finish(self) {
        println!();
    }
}

/// Bundle benchmark functions under one name (criterion's list form).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_and_reports() {
        std::env::set_var("CRITERION_BUDGET_MS", "10");
        let mut c = Criterion::default();
        c.bench_function("smoke/noop", |b| b.iter(|| 1 + 1));
        let mut group = c.benchmark_group("smoke");
        group.bench_with_input(BenchmarkId::from_parameter(4), &4u32, |b, &n| {
            b.iter(|| (0..n).sum::<u32>())
        });
        group.finish();
    }

    #[test]
    fn humanize_picks_sensible_units() {
        assert_eq!(humanize_ns(500.0).1, "ns");
        assert_eq!(humanize_ns(5_000.0).1, "µs");
        assert_eq!(humanize_ns(5_000_000.0).1, "ms");
        assert_eq!(humanize_ns(5_000_000_000.0).1, "s");
    }

    #[test]
    fn benchmark_id_forms() {
        assert_eq!(BenchmarkId::from_parameter(12).id, "12");
        assert_eq!(BenchmarkId::new("f", 12).id, "f/12");
    }
}
