//! Cooperative execution budgets: deadlines, step/conflict/candidate
//! limits, cancellation — and the workspace's one deterministic fault
//! registry.
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
//! Once a budget trips it stays tripped — every clone (e.g. the one a SAT
//! solver holds) observes the same first-trip record and unwinds.
//!
//! Deterministic fault injection is one registry for every layer: a
//! [`FaultPlan`] names a [`FaultSite`] and the 1-based charge `k` at which
//! it fires (parsed from the `site:k` spelling of `--fault`), and
//! [`Faults`] is the `Arc`-shared trigger that counts charges and fires
//! the plans, wall-clock independent, with a per-[`FaultFamily`] policy:
//! compute sites trip the [`Budget`] they are charged through, durability
//! sites stay fired, and network/shard sites fire once.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Number of distinct charge sites (length of [`BudgetSite::ALL`]).
pub const SITE_COUNT: usize = 5;

/// Where in the engine a unit of work is charged.
///
/// Sites deliberately mirror the telemetry counter sites so a fault plan
/// can trip "at the k-th B&B node" or "at the j-th conflict" exactly.
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
}

impl BudgetSite {
    /// Every site, in charge-array order.
    pub const ALL: [BudgetSite; SITE_COUNT] = [
        BudgetSite::Scan,
        BudgetSite::Node,
        BudgetSite::Conflict,
        BudgetSite::Model,
        BudgetSite::LadderStep,
    ];

    /// Stable snake_case name (used in JSON and CLI messages).
    pub fn name(self) -> &'static str {
        FaultSite::from(self).name()
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

/// Consecutive charges a fired `net_partition` plan refuses (the firing
/// charge included) before the partition heals.
pub const PARTITION_REFUSALS: u64 = 3;

/// Number of distinct fault sites (length of [`FaultSite::ALL`]).
pub const FAULT_SITE_COUNT: usize = 16;

/// How an armed plan behaves once it fires; every [`FaultSite`] belongs
/// to exactly one family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFamily {
    /// Operator work, charged through a [`Budget`]: the firing trips
    /// that budget, and the request degrades with [`TripReason::Fault`].
    Compute,
    /// The server's WAL and snapshot writer. Sticky: once a durability
    /// plan fires, every later durability charge on the same [`Faults`]
    /// fires too, so no commit is acknowledged behind a torn frame.
    Durability,
    /// The replication transport. Fires once — a network fault heals —
    /// except `net_partition`, which refuses [`PARTITION_REFUSALS`]
    /// consecutive charges.
    Net,
    /// The shard router. Fires once.
    Shard,
}

/// Every place a deterministic fault can be armed: one variant per
/// `--fault` site spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The k-th candidate ranked by a kernel scan.
    Scan,
    /// The k-th branch-and-bound node expanded.
    Node,
    /// The k-th SAT solver conflict.
    Conflict,
    /// The k-th model produced by AllSAT enumeration.
    Model,
    /// The k-th cardinality-ladder / radius search step.
    LadderStep,
    /// The k-th WAL append writes a torn frame prefix and fails.
    WalWrite,
    /// The k-th WAL fsync is skipped and reported failed.
    WalFsync,
    /// The k-th snapshot temp-file rename fails, leaving the temp file.
    SnapshotRename,
    /// The stream is cut before the k-th replication frame ships.
    NetDrop,
    /// One byte of the k-th shipped frame is corrupted in transit.
    NetTorn,
    /// The k-th shipped frame is delivered twice.
    NetDup,
    /// The k-th replication batch request is delayed.
    NetDelay,
    /// The k-th replication request and the next
    /// [`PARTITION_REFUSALS`]−1 are refused, then the partition heals.
    NetPartition,
    /// The k-th shard `release` is refused after the new owner pulled.
    ShardHandoffTorn,
    /// The k-th routed KB request is answered 421 as if the ring were
    /// stale.
    ShardRingStale,
    /// The k-th proxied read is dropped with 502.
    ShardProxyDrop,
}

impl FaultSite {
    /// Every site, in counter-array order.
    pub const ALL: [FaultSite; FAULT_SITE_COUNT] = [
        FaultSite::Scan,
        FaultSite::Node,
        FaultSite::Conflict,
        FaultSite::Model,
        FaultSite::LadderStep,
        FaultSite::WalWrite,
        FaultSite::WalFsync,
        FaultSite::SnapshotRename,
        FaultSite::NetDrop,
        FaultSite::NetTorn,
        FaultSite::NetDup,
        FaultSite::NetDelay,
        FaultSite::NetPartition,
        FaultSite::ShardHandoffTorn,
        FaultSite::ShardRingStale,
        FaultSite::ShardProxyDrop,
    ];

    /// The `--fault` spelling of this site.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Scan => "scan",
            FaultSite::Node => "node",
            FaultSite::Conflict => "conflict",
            FaultSite::Model => "model",
            FaultSite::LadderStep => "ladder_step",
            FaultSite::WalWrite => "wal_write",
            FaultSite::WalFsync => "wal_fsync",
            FaultSite::SnapshotRename => "snapshot_rename",
            FaultSite::NetDrop => "net_drop",
            FaultSite::NetTorn => "net_torn",
            FaultSite::NetDup => "net_dup",
            FaultSite::NetDelay => "net_delay",
            FaultSite::NetPartition => "net_partition",
            FaultSite::ShardHandoffTorn => "shard_handoff_torn",
            FaultSite::ShardRingStale => "shard_ring_stale",
            FaultSite::ShardProxyDrop => "shard_proxy_drop",
        }
    }

    /// The family whose policy governs this site.
    pub fn family(self) -> FaultFamily {
        match self {
            FaultSite::Scan
            | FaultSite::Node
            | FaultSite::Conflict
            | FaultSite::Model
            | FaultSite::LadderStep => FaultFamily::Compute,
            FaultSite::WalWrite | FaultSite::WalFsync | FaultSite::SnapshotRename => {
                FaultFamily::Durability
            }
            FaultSite::NetDrop
            | FaultSite::NetTorn
            | FaultSite::NetDup
            | FaultSite::NetDelay
            | FaultSite::NetPartition => FaultFamily::Net,
            FaultSite::ShardHandoffTorn | FaultSite::ShardRingStale | FaultSite::ShardProxyDrop => {
                FaultFamily::Shard
            }
        }
    }

    /// How many consecutive charges fire from the k-th on. Sticky
    /// durability sites are handled by [`Faults`] itself.
    fn window(self) -> u64 {
        match self {
            FaultSite::NetPartition => PARTITION_REFUSALS,
            _ => 1,
        }
    }
}

impl From<BudgetSite> for FaultSite {
    fn from(site: BudgetSite) -> FaultSite {
        match site {
            BudgetSite::Scan => FaultSite::Scan,
            BudgetSite::Node => FaultSite::Node,
            BudgetSite::Conflict => FaultSite::Conflict,
            BudgetSite::Model => FaultSite::Model,
            BudgetSite::LadderStep => FaultSite::LadderStep,
        }
    }
}

/// One armed fault: fire at the `at`-th charge (1-based — `at = 1`
/// fires on the very first event) of `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The site to fire at.
    pub site: FaultSite,
    /// The 1-based charge count at which to fire.
    pub at: u64,
}

impl FaultPlan {
    /// Fire at the `at`-th event charged to `site`.
    pub fn new(site: impl Into<FaultSite>, at: u64) -> FaultPlan {
        FaultPlan {
            site: site.into(),
            at,
        }
    }
}

/// Parses the `site:k` spelling, e.g. `wal_write:2` or `net_partition:5`.
impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(spec: &str) -> Result<FaultPlan, String> {
        let (name, at) = spec
            .split_once(':')
            .ok_or_else(|| format!("expected `site:k`, got `{spec}`"))?;
        let site = FaultSite::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown fault site `{name}` (expected one of: {})",
                    FaultSite::ALL.map(FaultSite::name).join(", ")
                )
            })?;
        let at = at
            .parse::<u64>()
            .ok()
            .filter(|&k| k >= 1)
            .ok_or_else(|| format!("invalid fault count `{at}` (need a positive integer)"))?;
        Ok(FaultPlan { site, at })
    }
}

/// The armed plans and their shared counters.
#[derive(Debug)]
struct Armed {
    plans: Vec<FaultPlan>,
    charges: [AtomicU64; FAULT_SITE_COUNT],
    durability_fired: AtomicBool,
}

/// The fault trigger: a set of [`FaultPlan`]s and the counters they fire
/// by. Cheap to clone — clones share the counters, so a trigger travels
/// inside a cloned server configuration or budget while every clone
/// counts against the same plans. The default trigger arms nothing and
/// never fires.
///
/// ```
/// use arbitrex_telemetry::budget::{FaultPlan, FaultSite, Faults};
/// let faults = Faults::new(["wal_write:2".parse::<FaultPlan>().unwrap()]);
/// assert!(!faults.fire(FaultSite::WalWrite));
/// assert!(faults.fire(FaultSite::WalWrite));
/// // Durability faults are sticky across the whole family.
/// assert!(faults.fire(FaultSite::WalFsync));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Faults {
    armed: Option<Arc<Armed>>,
}

impl Faults {
    /// A trigger arming every plan in `plans` (several may share a site).
    pub fn new(plans: impl IntoIterator<Item = FaultPlan>) -> Faults {
        let plans: Vec<FaultPlan> = plans.into_iter().collect();
        if plans.is_empty() {
            return Faults::default();
        }
        Faults {
            armed: Some(Arc::new(Armed {
                plans,
                charges: Default::default(),
                durability_fired: AtomicBool::new(false),
            })),
        }
    }

    /// The armed plans, in arming order.
    pub fn plans(&self) -> &[FaultPlan] {
        self.armed.as_deref().map_or(&[], |a| &a.plans)
    }

    /// Does any plan target `site`?
    pub fn arms(&self, site: FaultSite) -> bool {
        self.plans().iter().any(|p| p.site == site)
    }

    /// Charge one event at `site`; `true` when the event misfires.
    pub fn fire(&self, site: FaultSite) -> bool {
        self.charge(site, 1)
    }

    /// Charge `n` events at `site`; `true` when any of them misfires
    /// under the site's [`FaultFamily`] policy.
    pub fn charge(&self, site: FaultSite, n: u64) -> bool {
        let Some(armed) = &self.armed else {
            return false;
        };
        let durable = site.family() == FaultFamily::Durability;
        if durable && armed.durability_fired.load(Ordering::SeqCst) {
            return true;
        }
        let before = armed.charges[site as usize].fetch_add(n, Ordering::SeqCst);
        let last_firing = |p: &FaultPlan| p.at.saturating_add(site.window() - 1);
        let fired = armed
            .plans
            .iter()
            .any(|p| p.site == site && p.at <= before + n && before < last_firing(p));
        if fired && durable {
            armed.durability_fired.store(true, Ordering::SeqCst);
        }
        fired
    }
}

/// State shared by every clone of a [`Budget`].
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
        }
    }

    /// Total work units across every site.
    pub fn total(&self) -> u64 {
        self.scans + self.nodes + self.conflicts + self.models + self.ladder_steps
    }
}

/// A cooperative execution budget.
///
/// Cheap to clone — clones share the same spent counters and trip state,
/// so one `Budget` governs an entire operator application including any
/// SAT solvers it spawns. An unlimited budget
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
    faults: Faults,
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
            faults: Faults::default(),
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

    /// Arm a deterministic compute fault plan (testing): trip exactly at
    /// the plan's event count. Call once per plan; meters on an armed
    /// site check every tick. Plans on non-compute sites are never
    /// charged through a budget.
    pub fn with_fault(mut self, plan: FaultPlan) -> Budget {
        self.faults = Faults::new(self.faults.plans().iter().copied().chain([plan]));
        self
    }

    /// Override the frontier-materialization cap (see
    /// [`DEFAULT_FRONTIER_LIMIT`]).
    pub fn with_frontier_limit(mut self, limit: u64) -> Budget {
        self.frontier_limit = limit;
        self
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
        if self.faults.charge(site.into(), n) {
            return Err(self.trip(site, TripReason::Fault));
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
        let stride = if self.faults.arms(site.into()) {
            1
        } else {
            METER_STRIDE
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
        self.tick_n(1)
    }

    /// Charge `n` work units as one tick (a block of candidates ranked
    /// together): a fault plan fires on the tick whose units cover its
    /// `k`.
    #[inline]
    pub fn tick_n(&mut self, n: u64) -> Result<(), Exhausted> {
        if let Some(t) = self.tripped {
            return Err(t);
        }
        self.pending += n;
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
    fn budget_faults_arm_every_plan() {
        let b = Budget::unlimited()
            .with_fault(FaultPlan::new(BudgetSite::Node, 2))
            .with_fault(FaultPlan::new(BudgetSite::Model, 1));
        assert!(b.charge(BudgetSite::Node, 1).is_ok());
        let trip = b.charge(BudgetSite::Model, 1).unwrap_err();
        assert_eq!(
            (trip.site, trip.reason),
            (BudgetSite::Model, TripReason::Fault)
        );
    }

    #[test]
    fn fault_specs_parse_every_site_spelling() {
        for site in FaultSite::ALL {
            let plan: FaultPlan = format!("{}:7", site.name()).parse().unwrap();
            assert_eq!(plan, FaultPlan::new(site, 7));
        }
        for bad in ["node", "warp:1", "scan:0", "scan:x", "net_gremlins:1", ":3"] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad}");
        }
        for site in BudgetSite::ALL {
            assert_eq!(site.name(), FaultSite::from(site).name());
            assert_eq!(FaultSite::from(site).family(), FaultFamily::Compute);
        }
    }

    #[test]
    fn unarmed_faults_never_fire() {
        let faults = Faults::default();
        for site in FaultSite::ALL {
            assert!(!faults.fire(site));
        }
        assert!(faults.plans().is_empty());
    }

    #[test]
    fn durability_sites_are_sticky_across_the_family() {
        let faults = Faults::new([FaultPlan::new(FaultSite::WalFsync, 2)]);
        assert!(!faults.fire(FaultSite::WalWrite));
        assert!(!faults.fire(FaultSite::WalFsync));
        assert!(!faults.fire(FaultSite::SnapshotRename));
        assert!(faults.fire(FaultSite::WalFsync)); // 2nd fsync: fires
                                                   // Every later durability charge fails, whatever its site…
        assert!(faults.fire(FaultSite::WalWrite));
        assert!(faults.fire(FaultSite::SnapshotRename));
        assert!(faults.clone().fire(FaultSite::WalFsync));
        // …while other families are untouched.
        assert!(!faults.fire(FaultSite::NetDrop));
    }

    #[test]
    fn net_and_shard_faults_fire_once_at_their_site_only() {
        for (site, others) in [
            (FaultSite::NetTorn, [FaultSite::NetDrop, FaultSite::NetDup]),
            (
                FaultSite::ShardHandoffTorn,
                [FaultSite::ShardRingStale, FaultSite::ShardProxyDrop],
            ),
        ] {
            let faults = Faults::new([FaultPlan::new(site, 3)]);
            for other in others {
                assert!(!faults.fire(other));
            }
            assert!(!faults.fire(site)); // 1st
            assert!(!faults.fire(site)); // 2nd
            assert!(faults.fire(site)); // 3rd: fires
            assert!(!faults.fire(site)); // fired once, disarmed
        }
    }

    #[test]
    fn clones_count_against_the_same_trigger() {
        let original = Faults::new([FaultPlan::new(FaultSite::ShardProxyDrop, 2)]);
        let clone = original.clone();
        assert!(!clone.fire(FaultSite::ShardProxyDrop));
        assert!(original.fire(FaultSite::ShardProxyDrop));
    }

    #[test]
    fn partition_fault_refuses_a_window_then_heals() {
        let faults = Faults::new([FaultPlan::new(FaultSite::NetPartition, 2)]);
        assert!(!faults.fire(FaultSite::NetPartition)); // request 1: healthy
        assert!(faults.fire(FaultSite::NetPartition)); // request 2: fires
        for _ in 1..PARTITION_REFUSALS {
            assert!(faults.fire(FaultSite::NetPartition));
        }
        assert!(!faults.fire(FaultSite::NetPartition)); // healed
        assert!(!faults.fire(FaultSite::NetPartition));
    }

    #[test]
    fn repeated_plans_on_one_site_all_fire() {
        let faults = Faults::new([
            FaultPlan::new(FaultSite::NetDrop, 1),
            FaultPlan::new(FaultSite::NetDrop, 3),
        ]);
        let fired: Vec<bool> = (0..4).map(|_| faults.fire(FaultSite::NetDrop)).collect();
        assert_eq!(fired, [true, false, true, false]);
        assert!(faults.arms(FaultSite::NetDrop));
        assert!(!faults.arms(FaultSite::NetDup));
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
