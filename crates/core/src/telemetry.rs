//! Operator telemetry: the process-global counters behind `--stats`.
//!
//! This module assembles the workspace's observability surface: the
//! selection-kernel counters defined here (section `"kernel"`), the
//! weighted-path counters (section `"weighted"`), and the solver counters
//! owned by [`arbitrex_sat::telemetry`] (section `"sat"`), snapshotted
//! together as one [`TelemetrySnapshot`]. Every counter's definition and
//! its tie to a paper concept is documented in `OBSERVABILITY.md` at the
//! workspace root.
//!
//! All state lives in the `arbitrex-telemetry` crate and is compiled out
//! when this crate is built without its default-on `telemetry` feature:
//! every increment becomes an inlined no-op, [`enabled`] returns `false`,
//! and snapshots read all zeros. The instrumented hot loops accumulate
//! into plain locals and flush once per call, so the disabled build is
//! bit-identical work-wise to an uninstrumented one.
//!
//! Counters are process-global and monotonic. For a per-call profile,
//! bracket the call with [`capture`] (or [`reset`] + [`snapshot`]):
//!
//! ```
//! use arbitrex_core::{telemetry, try_arbitrate_with_budget, Budget};
//! use arbitrex_logic::{Interp, ModelSet};
//! let psi = ModelSet::new(2, [Interp(0b00)]);
//! let phi = ModelSet::new(2, [Interp(0b11)]);
//! let (result, stats) =
//!     telemetry::capture(|| try_arbitrate_with_budget(&psi, &phi, &Budget::unlimited()));
//! assert!(result.is_ok());
//! // With the `telemetry` feature on, the kernel reports its scan.
//! assert_eq!(stats.is_all_zero(), !telemetry::enabled());
//! println!("{}", stats.to_json());
//! ```
//!
//! Concurrency caveat: the counters are shared by every thread in the
//! process, so [`capture`] profiles *everything* that runs during the
//! closure, not just the closure's call tree. The CLI and benches run one
//! operator at a time, where the distinction is moot.

use arbitrex_telemetry::{Counter, Section, Timer};

pub use arbitrex_telemetry::{enabled, SectionSnapshot, TelemetrySnapshot, TimerSnapshot};

// --- section "kernel": the selection kernel (kernel.rs) --------------------

/// Kernel selections performed ([`crate::kernel::select_min`] and friends —
/// one per operator application that reaches the kernel).
pub static SELECTIONS: Counter = Counter::new("selections");
/// Candidates fed through a selection scan.
pub static CANDIDATES_SCANNED: Counter = Counter::new("candidates_scanned");
/// Candidates rejected by a pruned evaluator before full ranking
/// (`None`/`false` under the cap contract).
pub static CANDIDATES_PRUNED: Counter = Counter::new("candidates_pruned");
/// Rejections decided by the popcount-profile lower bound alone, without
/// touching `Mod(ψ)` ([`crate::kernel::PopProfile`]).
pub static PROFILE_PRUNE_HITS: Counter = Counter::new("profile_prune_hits");
/// Co-minimal candidates returned across selections (final tie-set sizes).
pub static TIES_KEPT: Counter = Counter::new("ties_kept");
/// Subcube nodes expanded by the odist branch-and-bound search, the only
/// subcube search.
pub static BNB_NODES_OPENED: Counter = Counter::new("bnb_nodes_opened");
/// Odist branch-and-bound children discarded whole by its partial-distance
/// or pairwise triangle-inequality bound.
pub static BNB_NODES_CUT: Counter = Counter::new("bnb_nodes_cut");
/// Calls routed to the SAT backend ([`crate::satbackend`]).
pub static SAT_BACKEND_CALLS: Counter = Counter::new("sat_backend_calls");
/// Wall time inside universe-scale selection entry points.
pub static UNIVERSE_SEARCH: Timer = Timer::new("universe_search");

/// The `"kernel"` section.
pub static KERNEL_SECTION: Section = Section {
    name: "kernel",
    counters: &[
        &SELECTIONS,
        &CANDIDATES_SCANNED,
        &CANDIDATES_PRUNED,
        &PROFILE_PRUNE_HITS,
        &TIES_KEPT,
        &BNB_NODES_OPENED,
        &BNB_NODES_CUT,
        &SAT_BACKEND_CALLS,
    ],
    timers: &[&UNIVERSE_SEARCH],
};

// --- section "weighted": the weighted path (wfitting.rs) -------------------

/// Weighted fitting / arbitration applications ([`crate::wfitting`]).
pub static WDIST_APPLICATIONS: Counter = Counter::new("wdist_applications");
/// ψ̃-support entries tallied per weighted application (the `Σ_J` width).
pub static WSUPPORT_SCANNED: Counter = Counter::new("wsupport_scanned");

/// The `"weighted"` section.
pub static WEIGHTED_SECTION: Section = Section {
    name: "weighted",
    counters: &[&WDIST_APPLICATIONS, &WSUPPORT_SCANNED],
    timers: &[],
};

// --- section "budget": budgeted execution (budget.rs, kernel budgeted paths)

/// Budgeted operator applications that produced a typed outcome
/// ([`crate::budget::Outcome`] / [`crate::budget::WeightedOutcome`]).
pub static BUDGETED_CALLS: Counter = Counter::new("budgeted_calls");
/// Outcomes whose budget tripped (quality degraded below exact).
pub static BUDGET_TRIPS: Counter = Counter::new("budget_trips");
/// Trips triggered by an armed [`crate::budget::FaultPlan`] rather than a
/// real resource limit.
pub static FAULT_TRIPS: Counter = Counter::new("fault_trips");
/// Not-yet-refuted frontier candidates materialized into degraded results.
pub static FRONTIER_MODELS: Counter = Counter::new("frontier_models");
/// Frontiers abandoned because they exceeded
/// [`crate::budget::Budget::frontier_limit`] (outcome demoted from
/// upper-bound to interrupted).
pub static FRONTIER_OVERFLOWS: Counter = Counter::new("frontier_overflows");

/// The `"budget"` section.
pub static BUDGET_SECTION: Section = Section {
    name: "budget",
    counters: &[
        &BUDGETED_CALLS,
        &BUDGET_TRIPS,
        &FAULT_TRIPS,
        &FRONTIER_MODELS,
        &FRONTIER_OVERFLOWS,
    ],
    timers: &[],
};

// --- section "cache": the canonicalizing result cache (cache.rs) -----------

/// Cache lookups answered from a stored result ([`crate::cache::OpCache`]) —
/// the query was alpha-equivalent (up to variable renaming and argument
/// shuffling) to an earlier exact answer.
pub static CACHE_HITS: Counter = Counter::new("cache_hits");
/// Cache lookups that found no stored result and fell through to the
/// operator.
pub static CACHE_MISSES: Counter = Counter::new("cache_misses");
/// Lookups that skipped the cache entirely (capacity zero, oversized
/// signature, or a non-exact outcome that is not cacheable). First
/// sightings are counted apart, in [`CACHE_FIRST_SIGHTINGS`].
pub static CACHE_BYPASSES: Counter = Counter::new("cache_bypasses");
/// Queries an evicting cache saw for the first time: the admission
/// doorkeeper recorded their fingerprint and they were answered without a
/// cache key, a lookup or an insertion.
pub static CACHE_FIRST_SIGHTINGS: Counter = Counter::new("cache_first_sightings");
/// Exact results written into the cache after a miss.
pub static CACHE_INSERTIONS: Counter = Counter::new("cache_insertions");
/// Entries displaced by the LRU policy to make room for an insertion.
pub static CACHE_EVICTIONS: Counter = Counter::new("cache_evictions");

/// The `"cache"` section.
pub static CACHE_SECTION: Section = Section {
    name: "cache",
    counters: &[
        &CACHE_HITS,
        &CACHE_MISSES,
        &CACHE_BYPASSES,
        &CACHE_FIRST_SIGHTINGS,
        &CACHE_INSERTIONS,
        &CACHE_EVICTIONS,
    ],
    timers: &[],
};

/// Every section in snapshot order: kernel, weighted, budget, cache,
/// then the solver counters owned by `arbitrex-sat`.
pub fn sections() -> [&'static Section; 5] {
    [
        &KERNEL_SECTION,
        &WEIGHTED_SECTION,
        &BUDGET_SECTION,
        &CACHE_SECTION,
        &arbitrex_sat::telemetry::SAT_SECTION,
    ]
}

/// Snapshot every counter and timer in the workspace.
pub fn snapshot() -> TelemetrySnapshot {
    arbitrex_telemetry::snapshot_of(&sections())
}

/// Reset every counter and timer to zero.
pub fn reset() {
    arbitrex_telemetry::reset_of(&sections());
}

/// Run `f` against freshly reset counters and return its result together
/// with the snapshot it produced — the per-call profile of
/// `try_arbitrate_with_budget`, `apply_with_budget` and friends. See the
/// module docs for the process-global concurrency caveat.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, TelemetrySnapshot) {
    reset();
    let out = f();
    (out, snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitration::try_arbitrate_with_budget;
    use crate::budget::Budget;
    use arbitrex_logic::{Interp, ModelSet};

    #[test]
    fn capture_profiles_an_arbitration_call() {
        let psi = ModelSet::new(4, [Interp(0b0000)]);
        let phi = ModelSet::new(4, [Interp(0b1111)]);
        let (result, stats) =
            capture(|| try_arbitrate_with_budget(&psi, &phi, &Budget::unlimited()));
        assert!(result.is_ok());
        assert_eq!(stats.enabled, enabled());
        if enabled() {
            // The n=4 path is a straight universe scan through select_min.
            assert!(stats.get("kernel", "candidates_scanned").unwrap() >= 16);
            assert!(stats.get("kernel", "selections").unwrap() >= 1);
        } else {
            assert!(stats.is_all_zero());
        }
    }

    #[test]
    fn snapshot_has_all_five_sections() {
        let snap = snapshot();
        let names: Vec<_> = snap.sections.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["kernel", "weighted", "budget", "cache", "sat"]);
        let json = snap.to_json();
        assert!(json.contains("\"bnb_nodes_cut\""));
        assert!(json.contains("\"conflicts\""));
        assert!(json.contains("\"wsupport_scanned\""));
        assert!(json.contains("\"budget_trips\""));
        assert!(json.contains("\"cache_hits\""));
    }

    #[test]
    fn reset_zeroes_every_section() {
        let psi = ModelSet::new(3, [Interp(0b001), Interp(0b010), Interp(0b111)]);
        let phi = ModelSet::new(3, [Interp(0b011)]);
        let _ = try_arbitrate_with_budget(&psi, &phi, &Budget::unlimited());
        reset();
        assert!(snapshot().is_all_zero());
    }
}
