//! Cooperative execution budgets: deadlines, step/conflict/candidate
//! limits, cancellation, and deterministic fault injection.
//!
//! Unlike the counters in the crate root, this module is **always
//! compiled** — budget enforcement is a correctness feature (graceful
//! degradation instead of panics or unbounded runs), not observability,
//! so it does not depend on the `enabled` cargo feature. A telemetry-off
//! build still enforces budgets.
//!
//! The model is cooperative: long-running loops in the selection kernel
//! and the SAT solver *charge* a shared [`Budget`] at well-defined sites
//! ([`BudgetSite`]) and unwind with a typed [`Exhausted`] record when any
//! limit trips. Hot loops charge through a [`Meter`], which batches the
//! shared-state traffic so the cost per iteration is a local increment.
//! Once a budget trips it stays tripped — every clone (e.g. every parallel
//! shard) observes the same first-trip record and unwinds.
//!
//! [`FaultPlan`] turns the same machinery into a deterministic fault
//! harness: trip the budget at exactly the k-th event of a chosen site,
//! independent of wall-clock, so every degradation edge in the workspace
//! can be exercised reproducibly.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Number of distinct charge sites (length of [`BudgetSite::ALL`]).
pub const SITE_COUNT: usize = 8;

/// Where in the engine a unit of work is charged.
///
/// Sites deliberately mirror the telemetry counter sites so a fault plan
/// can trip "at the k-th B&B node" or "at the j-th conflict" exactly.
/// The `Wal*`/`Snapshot*` sites are durability events in the server's
/// write-ahead log: no limit ever applies to them (durable commits are
/// never rationed), but a [`FaultPlan`] can trip them to inject a torn
/// write, a lost fsync, or a failed snapshot rename deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetSite {
    /// One candidate ranked by a kernel scan (pool or universe).
    Scan,
    /// One branch-and-bound subcube node expanded.
    Node,
    /// One SAT solver conflict.
    Conflict,
    /// One model produced by AllSAT enumeration.
    Model,
    /// One cardinality-ladder / radius binary-search step.
    LadderStep,
    /// One write-ahead-log record appended (fault: torn write).
    WalWrite,
    /// One write-ahead-log fsync (fault: fsync skipped and reported failed).
    WalFsync,
    /// One snapshot temp-file rename (fault: rename fails, temp left behind).
    SnapshotRename,
}

impl BudgetSite {
    /// Every site, in charge-array order.
    pub const ALL: [BudgetSite; SITE_COUNT] = [
        BudgetSite::Scan,
        BudgetSite::Node,
        BudgetSite::Conflict,
        BudgetSite::Model,
        BudgetSite::LadderStep,
        BudgetSite::WalWrite,
        BudgetSite::WalFsync,
        BudgetSite::SnapshotRename,
    ];

    /// Stable snake_case name (used in JSON and CLI messages).
    pub fn name(self) -> &'static str {
        match self {
            BudgetSite::Scan => "scan",
            BudgetSite::Node => "node",
            BudgetSite::Conflict => "conflict",
            BudgetSite::Model => "model",
            BudgetSite::LadderStep => "ladder_step",
            BudgetSite::WalWrite => "wal_write",
            BudgetSite::WalFsync => "wal_fsync",
            BudgetSite::SnapshotRename => "snapshot_rename",
        }
    }
}

/// Why a budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The step limit (scan + node + ladder work units) was exceeded.
    Steps,
    /// The conflict limit was exceeded.
    Conflicts,
    /// The candidate limit (enumerated models) was exceeded.
    Candidates,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// A [`FaultPlan`] fired (deterministic fault injection).
    Fault,
}

impl TripReason {
    /// Stable snake_case name (used in JSON and CLI messages).
    pub fn name(self) -> &'static str {
        match self {
            TripReason::Deadline => "deadline",
            TripReason::Steps => "steps",
            TripReason::Conflicts => "conflicts",
            TripReason::Candidates => "candidates",
            TripReason::Cancelled => "cancelled",
            TripReason::Fault => "fault",
        }
    }
}

/// The typed record of a budget trip: where work was being charged and
/// which limit gave out. Returned by every `try_*_with_budget` path in
/// place of the panics/aborts it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    /// The site whose charge observed the trip.
    pub site: BudgetSite,
    /// The limit that gave out.
    pub reason: TripReason,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exhausted ({} at site {})",
            self.reason.name(),
            self.site.name()
        )
    }
}

impl std::error::Error for Exhausted {}

/// A cooperative cancellation handle. Clone it, hand one clone to the
/// running operator (via [`Budget::with_cancel`]) and call
/// [`CancelToken::cancel`] from any thread; the next budget check unwinds
/// with [`TripReason::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has [`CancelToken::cancel`] been called on any clone?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Deterministic fault injection: trip the budget when the cumulative
/// charge at `site` reaches `at` (1-based — `at = 1` trips on the very
/// first event). Wall-clock independent, so tests of every degradation
/// edge are reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The site to trip at.
    pub site: BudgetSite,
    /// The 1-based event count at which to trip.
    pub at: u64,
}

impl FaultPlan {
    /// Trip at the `at`-th event charged to `site`.
    pub fn new(site: BudgetSite, at: u64) -> FaultPlan {
        FaultPlan { site, at }
    }
}

/// State shared by every clone of a [`Budget`] (all shards of one run).
#[derive(Debug)]
struct Shared {
    spent: [AtomicU64; SITE_COUNT],
    tripped: AtomicBool,
    trip: OnceLock<Exhausted>,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            spent: Default::default(),
            tripped: AtomicBool::new(false),
            trip: OnceLock::new(),
        }
    }
}

/// Cumulative work charged to a budget, per site, plus the trip record if
/// the budget gave out. Embedded in every degraded `Outcome` so callers
/// can see what a partial answer cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetSpent {
    /// Candidates ranked by kernel scans.
    pub scans: u64,
    /// Branch-and-bound nodes expanded.
    pub nodes: u64,
    /// SAT solver conflicts.
    pub conflicts: u64,
    /// Models produced by AllSAT enumeration.
    pub models: u64,
    /// Cardinality-ladder / radius search steps.
    pub ladder_steps: u64,
    /// Write-ahead-log records appended.
    pub wal_writes: u64,
    /// Write-ahead-log fsyncs issued.
    pub wal_fsyncs: u64,
    /// Snapshot temp-file renames attempted.
    pub snapshot_renames: u64,
    /// The trip record, if the budget gave out.
    pub trip: Option<Exhausted>,
}

impl BudgetSpent {
    /// The charge recorded at one site.
    pub fn get(&self, site: BudgetSite) -> u64 {
        match site {
            BudgetSite::Scan => self.scans,
            BudgetSite::Node => self.nodes,
            BudgetSite::Conflict => self.conflicts,
            BudgetSite::Model => self.models,
            BudgetSite::LadderStep => self.ladder_steps,
            BudgetSite::WalWrite => self.wal_writes,
            BudgetSite::WalFsync => self.wal_fsyncs,
            BudgetSite::SnapshotRename => self.snapshot_renames,
        }
    }

    /// Total work units across every site.
    pub fn total(&self) -> u64 {
        self.scans
            + self.nodes
            + self.conflicts
            + self.models
            + self.ladder_steps
            + self.wal_writes
            + self.wal_fsyncs
            + self.snapshot_renames
    }
}

/// A cooperative execution budget.
///
/// Cheap to clone — clones share the same spent counters and trip state,
/// so one `Budget` governs an entire operator application including its
/// parallel shards and any SAT solvers it spawns. An unlimited budget
/// ([`Budget::unlimited`]) never trips, but metered loops still charge
/// it, so [`Budget::spent`] reports the work they did.
///
/// ```
/// use arbitrex_telemetry::budget::{Budget, BudgetSite};
/// let b = Budget::unlimited().with_step_limit(10);
/// for _ in 0..10 {
///     assert!(b.charge(BudgetSite::Scan, 1).is_ok());
/// }
/// let trip = b.charge(BudgetSite::Scan, 1).unwrap_err();
/// assert_eq!(trip.site, BudgetSite::Scan);
/// assert_eq!(b.spent().scans, 11);
/// ```
#[derive(Debug, Clone)]
pub struct Budget {
    shared: Arc<Shared>,
    start: Instant,
    deadline: Option<Duration>,
    step_limit: Option<u64>,
    conflict_limit: Option<u64>,
    candidate_limit: Option<u64>,
    cancel: Option<CancelToken>,
    fault: Option<FaultPlan>,
    frontier_limit: u64,
}

/// Default cap on how many not-yet-refuted candidates a degraded kernel
/// answer will materialize before downgrading from `UpperBound` to
/// `Interrupted` quality. See [`Budget::with_frontier_limit`].
pub const DEFAULT_FRONTIER_LIMIT: u64 = 1 << 16;

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no limits: never trips, but still records every
    /// charge.
    pub fn unlimited() -> Budget {
        Budget {
            shared: Arc::new(Shared::new()),
            start: Instant::now(),
            deadline: None,
            step_limit: None,
            conflict_limit: None,
            candidate_limit: None,
            cancel: None,
            fault: None,
            frontier_limit: DEFAULT_FRONTIER_LIMIT,
        }
    }

    /// Trip once `deadline` of wall-clock time has elapsed since this call.
    /// Deadlines are checked at charge time (strided in hot loops), so the
    /// overshoot is bounded by one check interval.
    pub fn with_deadline(mut self, deadline: Duration) -> Budget {
        self.start = Instant::now();
        self.deadline = Some(deadline);
        self
    }

    /// Trip once the combined [`BudgetSite::Scan`] + [`BudgetSite::Node`] +
    /// [`BudgetSite::LadderStep`] charge exceeds `limit` work units.
    pub fn with_step_limit(mut self, limit: u64) -> Budget {
        self.step_limit = Some(limit);
        self
    }

    /// Trip once more than `limit` SAT conflicts have been charged.
    pub fn with_conflict_limit(mut self, limit: u64) -> Budget {
        self.conflict_limit = Some(limit);
        self
    }

    /// Trip once more than `limit` enumerated models have been charged.
    pub fn with_candidate_limit(mut self, limit: u64) -> Budget {
        self.candidate_limit = Some(limit);
        self
    }

    /// Attach a cancellation token; checked at charge time.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Attach a deterministic fault plan (testing): trip exactly at the
    /// plan's event count. Meters on the fault's site check every tick.
    pub fn with_fault(mut self, plan: FaultPlan) -> Budget {
        self.fault = Some(plan);
        self
    }

    /// Override the frontier-materialization cap (see
    /// [`DEFAULT_FRONTIER_LIMIT`]).
    pub fn with_frontier_limit(mut self, limit: u64) -> Budget {
        self.frontier_limit = limit;
        self
    }

    /// `true` when this budget can never trip (no limits, deadline,
    /// cancellation, or fault plan). Callers whose instrumentation is
    /// costly and only matters for trips (SAT solver arming) skip it for
    /// such budgets.
    pub fn is_unconstrained(&self) -> bool {
        self.deadline.is_none()
            && self.step_limit.is_none()
            && self.conflict_limit.is_none()
            && self.candidate_limit.is_none()
            && self.cancel.is_none()
            && self.fault.is_none()
    }

    /// The frontier-materialization cap for degraded kernel answers.
    pub fn frontier_limit(&self) -> u64 {
        self.frontier_limit
    }

    /// The trip record, if this budget has given out.
    pub fn tripped(&self) -> Option<Exhausted> {
        if self.shared.tripped.load(Ordering::Relaxed) {
            self.shared.trip.get().copied()
        } else {
            None
        }
    }

    /// Snapshot the cumulative per-site charges and the trip record.
    pub fn spent(&self) -> BudgetSpent {
        let s = &self.shared.spent;
        BudgetSpent {
            scans: s[BudgetSite::Scan as usize].load(Ordering::Relaxed),
            nodes: s[BudgetSite::Node as usize].load(Ordering::Relaxed),
            conflicts: s[BudgetSite::Conflict as usize].load(Ordering::Relaxed),
            models: s[BudgetSite::Model as usize].load(Ordering::Relaxed),
            ladder_steps: s[BudgetSite::LadderStep as usize].load(Ordering::Relaxed),
            wal_writes: s[BudgetSite::WalWrite as usize].load(Ordering::Relaxed),
            wal_fsyncs: s[BudgetSite::WalFsync as usize].load(Ordering::Relaxed),
            snapshot_renames: s[BudgetSite::SnapshotRename as usize].load(Ordering::Relaxed),
            trip: self.tripped(),
        }
    }

    /// Record the first trip and return it (later callers get the first
    /// record, so every shard reports the same `Exhausted`).
    fn trip(&self, site: BudgetSite, reason: TripReason) -> Exhausted {
        let rec = *self.shared.trip.get_or_init(|| Exhausted { site, reason });
        self.shared.tripped.store(true, Ordering::Relaxed);
        rec
    }

    fn step_total(&self) -> u64 {
        let s = &self.shared.spent;
        s[BudgetSite::Scan as usize].load(Ordering::Relaxed)
            + s[BudgetSite::Node as usize].load(Ordering::Relaxed)
            + s[BudgetSite::LadderStep as usize].load(Ordering::Relaxed)
    }

    /// Charge `n` work units to `site`. Returns the trip record (first
    /// one wins across threads) once any limit gives out; once tripped,
    /// every subsequent charge on every clone fails immediately.
    pub fn charge(&self, site: BudgetSite, n: u64) -> Result<(), Exhausted> {
        if self.shared.tripped.load(Ordering::Relaxed) {
            // invariant: tripped is only stored after trip is initialized.
            return Err(self.shared.trip.get().copied().unwrap_or(Exhausted {
                site,
                reason: TripReason::Steps,
            }));
        }
        let total = self.shared.spent[site as usize].fetch_add(n, Ordering::Relaxed) + n;
        if let Some(f) = self.fault {
            if f.site == site && total >= f.at {
                return Err(self.trip(site, TripReason::Fault));
            }
        }
        match site {
            BudgetSite::Scan | BudgetSite::Node | BudgetSite::LadderStep => {
                if let Some(limit) = self.step_limit {
                    if self.step_total() > limit {
                        return Err(self.trip(site, TripReason::Steps));
                    }
                }
            }
            BudgetSite::Conflict => {
                if let Some(limit) = self.conflict_limit {
                    if total > limit {
                        return Err(self.trip(site, TripReason::Conflicts));
                    }
                }
            }
            BudgetSite::Model => {
                if let Some(limit) = self.candidate_limit {
                    if total > limit {
                        return Err(self.trip(site, TripReason::Candidates));
                    }
                }
            }
            // Durability sites: never rationed; only a fault plan (checked
            // above), cancellation, or a deadline can trip them.
            BudgetSite::WalWrite | BudgetSite::WalFsync | BudgetSite::SnapshotRename => {}
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(self.trip(site, TripReason::Cancelled));
            }
        }
        if let Some(deadline) = self.deadline {
            if self.start.elapsed() >= deadline {
                return Err(self.trip(site, TripReason::Deadline));
            }
        }
        Ok(())
    }

    /// A batching [`Meter`] for a hot loop charging `site`. With a fault
    /// plan armed on `site` the meter checks every tick (determinism);
    /// otherwise it batches [`METER_STRIDE`] ticks per shared charge.
    pub fn meter(&self, site: BudgetSite) -> Meter<'_> {
        let stride = match self.fault {
            Some(f) if f.site == site => 1,
            _ => METER_STRIDE,
        };
        Meter {
            budget: self,
            site,
            stride,
            pending: 0,
            tripped: self.tripped(),
        }
    }
}

/// How many ticks a [`Meter`] accumulates locally before touching the
/// shared budget state ("checked every N iterations"). Limits may
/// overshoot by at most this many work units; fault plans never do.
pub const METER_STRIDE: u64 = 1024;

/// A per-call-site batching view of a [`Budget`] for hot loops: `tick`
/// is a local increment except every [`METER_STRIDE`]-th call (or every
/// call when a fault plan targets this site). Flushes the remaining local
/// count to the shared budget on drop, so `Budget::spent` stays exact.
#[derive(Debug)]
pub struct Meter<'a> {
    budget: &'a Budget,
    site: BudgetSite,
    stride: u64,
    pending: u64,
    tripped: Option<Exhausted>,
}

impl Meter<'_> {
    /// Charge one work unit. Returns the trip record once the budget has
    /// given out (sticky: keeps returning it).
    #[inline]
    pub fn tick(&mut self) -> Result<(), Exhausted> {
        if let Some(t) = self.tripped {
            return Err(t);
        }
        self.pending += 1;
        if self.pending >= self.stride {
            let n = std::mem::take(&mut self.pending);
            if let Err(t) = self.budget.charge(self.site, n) {
                self.tripped = Some(t);
                return Err(t);
            }
        }
        Ok(())
    }

    /// The sticky trip record, if this meter has observed one.
    pub fn tripped(&self) -> Option<Exhausted> {
        self.tripped
    }
}

impl Drop for Meter<'_> {
    fn drop(&mut self) {
        if self.pending > 0 {
            let _ = self
                .budget
                .charge(self.site, std::mem::take(&mut self.pending));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unconstrained());
        for _ in 0..10_000 {
            assert!(b.charge(BudgetSite::Scan, 1).is_ok());
        }
        assert_eq!(b.spent().scans, 10_000);
        assert!(b.tripped().is_none());
    }

    #[test]
    fn step_limit_spans_scan_node_and_ladder_sites() {
        let b = Budget::unlimited().with_step_limit(5);
        assert!(b.charge(BudgetSite::Scan, 2).is_ok());
        assert!(b.charge(BudgetSite::Node, 2).is_ok());
        assert!(b.charge(BudgetSite::LadderStep, 1).is_ok());
        let trip = b.charge(BudgetSite::Node, 1).unwrap_err();
        assert_eq!(trip.reason, TripReason::Steps);
        assert_eq!(trip.site, BudgetSite::Node);
        // Sticky: later charges at any site fail with the same record.
        assert_eq!(b.charge(BudgetSite::Scan, 1).unwrap_err(), trip);
        assert_eq!(b.spent().trip, Some(trip));
    }

    #[test]
    fn conflict_and_candidate_limits_are_independent() {
        let b = Budget::unlimited()
            .with_conflict_limit(2)
            .with_candidate_limit(3);
        assert!(b.charge(BudgetSite::Conflict, 2).is_ok());
        assert!(b.charge(BudgetSite::Model, 3).is_ok());
        let trip = b.charge(BudgetSite::Conflict, 1).unwrap_err();
        assert_eq!(trip.reason, TripReason::Conflicts);
    }

    #[test]
    fn fault_plan_trips_exactly_at_k() {
        let b = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Node, 3));
        assert!(b.charge(BudgetSite::Node, 1).is_ok());
        assert!(b.charge(BudgetSite::Node, 1).is_ok());
        let trip = b.charge(BudgetSite::Node, 1).unwrap_err();
        assert_eq!(trip.reason, TripReason::Fault);
        assert_eq!(b.spent().nodes, 3);
    }

    #[test]
    fn fault_plan_ignores_other_sites() {
        let b = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Model, 1));
        assert!(b.charge(BudgetSite::Scan, 100).is_ok());
        assert!(b.charge(BudgetSite::Model, 1).is_err());
    }

    #[test]
    fn cancel_token_trips_any_clone() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        let b2 = b.clone();
        assert!(b.charge(BudgetSite::Scan, 1).is_ok());
        token.cancel();
        let trip = b2.charge(BudgetSite::Scan, 1).unwrap_err();
        assert_eq!(trip.reason, TripReason::Cancelled);
        assert!(b.tripped().is_some());
    }

    #[test]
    fn deadline_in_the_past_trips_immediately() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        let trip = b.charge(BudgetSite::Conflict, 1).unwrap_err();
        assert_eq!(trip.reason, TripReason::Deadline);
    }

    #[test]
    fn clones_share_spent_counters() {
        let b = Budget::unlimited();
        let b2 = b.clone();
        b.charge(BudgetSite::Scan, 7).unwrap();
        b2.charge(BudgetSite::Scan, 5).unwrap();
        assert_eq!(b.spent().scans, 12);
        assert_eq!(b2.spent().scans, 12);
    }

    #[test]
    fn meter_batches_but_flushes_exactly_on_drop() {
        let b = Budget::unlimited();
        {
            let mut m = b.meter(BudgetSite::Scan);
            for _ in 0..(METER_STRIDE + 37) {
                m.tick().unwrap();
            }
        }
        assert_eq!(b.spent().scans, METER_STRIDE + 37);
    }

    #[test]
    fn meter_with_fault_is_tick_exact() {
        let b = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, 5));
        let mut m = b.meter(BudgetSite::Scan);
        for _ in 0..4 {
            m.tick().unwrap();
        }
        let trip = m.tick().unwrap_err();
        assert_eq!(trip.reason, TripReason::Fault);
        assert_eq!(b.spent().scans, 5);
        // Sticky on the meter too.
        assert!(m.tick().is_err());
    }

    #[test]
    fn meter_respects_limit_within_one_stride() {
        let b = Budget::unlimited().with_step_limit(10);
        let mut m = b.meter(BudgetSite::Scan);
        let mut ticks = 0u64;
        while m.tick().is_ok() {
            ticks += 1;
            assert!(ticks <= 10 + METER_STRIDE, "meter failed to trip");
        }
        assert!(ticks >= 10, "tripped before the limit");
    }

    #[test]
    fn first_trip_wins() {
        let b = Budget::unlimited()
            .with_conflict_limit(0)
            .with_candidate_limit(0);
        let t1 = b.charge(BudgetSite::Conflict, 1).unwrap_err();
        let t2 = b.charge(BudgetSite::Model, 1).unwrap_err();
        assert_eq!(t1, t2);
        assert_eq!(t1.reason, TripReason::Conflicts);
    }

    #[test]
    fn exhausted_displays_site_and_reason() {
        let e = Exhausted {
            site: BudgetSite::LadderStep,
            reason: TripReason::Deadline,
        };
        assert_eq!(
            format!("{e}"),
            "budget exhausted (deadline at site ladder_step)"
        );
    }

    #[test]
    fn wal_sites_are_unrationed_but_faultable() {
        // Step/conflict/candidate limits never apply to durability sites…
        let b = Budget::unlimited()
            .with_step_limit(1)
            .with_conflict_limit(1)
            .with_candidate_limit(1);
        for _ in 0..100 {
            assert!(b.charge(BudgetSite::WalWrite, 1).is_ok());
            assert!(b.charge(BudgetSite::WalFsync, 1).is_ok());
            assert!(b.charge(BudgetSite::SnapshotRename, 1).is_ok());
        }
        let s = b.spent();
        assert_eq!(s.get(BudgetSite::WalWrite), 100);
        assert_eq!(s.get(BudgetSite::WalFsync), 100);
        assert_eq!(s.get(BudgetSite::SnapshotRename), 100);
        // …but a fault plan trips them exactly at k.
        let b = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::WalFsync, 2));
        assert!(b.charge(BudgetSite::WalWrite, 1).is_ok());
        assert!(b.charge(BudgetSite::WalFsync, 1).is_ok());
        let trip = b.charge(BudgetSite::WalFsync, 1).unwrap_err();
        assert_eq!(trip.reason, TripReason::Fault);
        assert_eq!(trip.site, BudgetSite::WalFsync);
    }

    #[test]
    fn spent_get_and_total() {
        let b = Budget::unlimited();
        b.charge(BudgetSite::Model, 2).unwrap();
        b.charge(BudgetSite::LadderStep, 3).unwrap();
        let s = b.spent();
        assert_eq!(s.get(BudgetSite::Model), 2);
        assert_eq!(s.get(BudgetSite::LadderStep), 3);
        assert_eq!(s.total(), 5);
    }
}
