//! A zero-capacity `OpCache` skips building query keys, and every cached
//! entry point answers exactly as if it had looked: status `Bypass`, the
//! kernel's models, one `cache_bypasses`
//! for the skipped lookup plus one more for a non-exact outcome, and no
//! hit, miss or insertion.
//!
//! The cache counters are process-global, so this file holds a single
//! test: nothing else in its process touches them.

use arbitrex_core::telemetry::{self, CACHE_BYPASSES, CACHE_HITS, CACHE_INSERTIONS, CACHE_MISSES};
use arbitrex_core::{
    cached_apply, cached_arbitrate, cached_warbitrate, try_arbitrate_with_budget,
    try_warbitrate_with_budget, Budget, BudgetedChangeOperator, CacheStatus, OdistFitting, OpCache,
    Quality,
};
use arbitrex_logic::{parse, Formula, ModelSet, Sig};
use std::time::Duration;

/// Counter deltas around one call: [bypasses, hits + misses + insertions].
fn deltas<T>(f: impl FnOnce() -> T) -> (T, [u64; 2]) {
    let counts = || {
        let others = CACHE_HITS.get() + CACHE_MISSES.get() + CACHE_INSERTIONS.get();
        [CACHE_BYPASSES.get(), others]
    };
    let before = counts();
    let out = f();
    let after = counts();
    (out, [after[0] - before[0], after[1] - before[1]])
}

/// What a disabled cache reports for an outcome of `quality`.
fn expect_bypass(what: String, quality: Quality, status: CacheStatus, counts: [u64; 2]) {
    let per_lookup = u64::from(telemetry::enabled());
    let bypasses = per_lookup * (1 + u64::from(quality != Quality::Exact));
    assert_eq!(status, CacheStatus::Bypass, "{what}");
    assert_eq!(
        counts,
        [bypasses, 0],
        "{what}: [bypasses, hits + misses + insertions]"
    );
}

#[test]
fn disabled_cache_answers_and_counts_as_before() {
    let cache = OpCache::new(0);
    let mut sig = Sig::new();
    let psi = parse(&mut sig, "(A & B) | (!C & D)").unwrap();
    let mu = parse(&mut sig, "!A | (C & !D)").unwrap();
    // A wide disjunction that a zero deadline cannot finish.
    let mut wide_sig = Sig::new();
    let names: Vec<String> = (0..11).map(|i| format!("V{i}")).collect();
    let wide = parse(&mut wide_sig, &names.join(" | ")).unwrap();

    let exact = Budget::unlimited();
    let expired = Budget::unlimited().with_deadline(Duration::from_millis(0));
    let cases: [(&str, &Formula, &Formula, u32, &Budget); 2] = [
        ("exact", &psi, &mu, sig.width(), &exact),
        ("expired", &wide, &wide, wide_sig.width(), &expired),
    ];
    let mut saw_degraded = false;
    for (label, p, m, n, budget) in cases {
        let (mp, mm) = (ModelSet::of_formula(p, n), ModelSet::of_formula(m, n));
        // Exact references for the answers that come back exact.
        let arb = try_arbitrate_with_budget(&mp, &mm, &exact).unwrap();
        let fit = OdistFitting.apply_with_budget(&mp, &mm, &exact);

        let ((out, status), c) = deltas(|| cached_arbitrate(&cache, &mp, &mm, budget).unwrap());
        expect_bypass(format!("cached_arbitrate {label}"), out.quality, status, c);
        saw_degraded |= out.quality != Quality::Exact;
        if out.quality == Quality::Exact {
            assert_eq!(out.models, arb.models);
        }

        let ((out, status), c) =
            deltas(|| cached_apply(&cache, &OdistFitting, &mp, &mm, budget).unwrap());
        expect_bypass(format!("cached_apply {label}"), out.quality, status, c);
        if out.quality == Quality::Exact {
            assert_eq!(out.models, fit.models);
        }

        let wp = arbitrex_core::cache::weighted_side(&mp, 3);
        let wm = arbitrex_core::cache::weighted_side(&mm, 1);
        let ((out, status), c) = deltas(|| cached_warbitrate(&cache, &wp, &wm, budget).unwrap());
        expect_bypass(format!("cached_warbitrate {label}"), out.quality, status, c);
        if out.quality == Quality::Exact {
            let want = try_warbitrate_with_budget(&wp, &wm, &exact).unwrap();
            assert!(out.kb.equivalent(&want.kb));
        }
    }
    assert!(saw_degraded, "the expired budget must degrade an answer");
    assert!(cache.is_empty());
}
