//! Exercises the parallel universe-scan path by forcing a worker count
//! through `ARBITREX_THREADS`.
//!
//! Lives in its own integration-test binary so the env var set here cannot
//! race with other tests: the kernel reads it per call, and nothing else
//! in this process touches it.

#![cfg(feature = "parallel")]

use arbitrex_core::kernel::naive;
use arbitrex_core::telemetry::{self, PARALLEL_SHARDS};
use arbitrex_core::{arbitrate, try_arbitrate, warbitrate};
use arbitrex_core::{WdistFitting, WeightedKb, WeightedUniverseFitting};
use arbitrex_logic::{Interp, ModelSet};

fn set_threads(n: &str) {
    // Safe here: this binary is the only writer and all reads happen on
    // threads this test spawns and joins.
    std::env::set_var("ARBITREX_THREADS", n);
}

/// At n = 16 a `ψ ∨ φ` of 24 or more models is too spread out for the
/// subcube search and predicts at least `2^16·24 ≈ 1.5M` units of scan
/// work, enough for three workers: the chunked scan genuinely runs.
const N: u32 = 16;

fn scrambled(n: u32, seed: u64, count: usize) -> ModelSet {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    ModelSet::new(
        n,
        (0..count).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Interp(x & ((1 << n) - 1))
        }),
    )
}

#[test]
fn parallel_arbitration_agrees_with_naive_oracle() {
    set_threads("3");
    let shards = PARALLEL_SHARDS.get();
    for seed in 0..8u64 {
        let psi = scrambled(N, seed, 14);
        let phi = scrambled(N, seed + 100, 12);
        assert_eq!(
            arbitrate(&psi, &phi),
            naive::arbitrate(&psi, &phi),
            "seed {seed}"
        );
    }
    assert!(
        PARALLEL_SHARDS.get() > shards || !telemetry::enabled(),
        "the chunked scan never ran"
    );
}

#[test]
fn parallel_weighted_arbitration_agrees_with_naive_oracle() {
    set_threads("3");
    for seed in 0..4u64 {
        let psi_ms = scrambled(N, seed + 200, 14);
        let phi_ms = scrambled(N, seed + 300, 12);
        let psi = WeightedKb::from_weights(N, psi_ms.iter().map(|i| (i, 1 + i.0 % 9)));
        let phi = WeightedKb::from_weights(N, phi_ms.iter().map(|i| (i, 1 + i.0 % 5)));
        assert_eq!(
            warbitrate(&psi, &phi),
            naive::warbitrate(&psi, &phi),
            "seed {seed}"
        );
    }
}

#[test]
fn thread_count_override_tolerates_garbage_and_extremes() {
    let psi = scrambled(N, 42, 14);
    let phi = scrambled(N, 43, 12);
    let reference = naive::arbitrate(&psi, &phi);
    // Unparseable values fall back to available parallelism; huge values
    // clamp to 64; 1 forces the sequential path.
    for v in ["not-a-number", "0", "1", "9999"] {
        set_threads(v);
        assert_eq!(
            try_arbitrate(&psi, &phi).unwrap(),
            reference,
            "ARBITREX_THREADS={v}"
        );
    }
}

#[test]
fn parallel_weighted_universe_fitting_preserves_unit_weights() {
    set_threads("2");
    let psi = WeightedKb::from_weights(N, scrambled(N, 7, 26).iter().map(|i| (i, 3)));
    let got = WdistFitting.apply_universe(&psi).unwrap();
    // 𝓜̃ carries weight 1 everywhere, so every minimizer comes back with
    // weight exactly 1.
    assert!(got.support().all(|(_, w)| w == 1));
    assert!(got.is_satisfiable());
}
