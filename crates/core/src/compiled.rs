//! The compiled-KB tier: hot `ψ` theories compiled to ROBDDs.
//!
//! The result cache, [`OpCache`], is exact-hit-only: it
//! replays a stored answer when the *whole query* `(ψ, μ)` is
//! alpha-equivalent to an earlier one. This module adds the
//! structure-sharing tier underneath it: a `ψ` queried often enough (or
//! committed over while hot) is compiled **once** — `ψ`'s BDD plus the
//! distance level sets of [`arbitrex_bdd::distance`] — and every later
//! `arbitrate`/`fit` against it, for *any* `μ`, becomes a layered BDD
//! traversal instead of a `2^n` kernel scan.
//!
//! Keys are content-addressed: a compiled entry is identified by the
//! canonical bytes of `ψ` alone ([`arbitrex_logic::canonicalize_query`]),
//! so a committed KB *cannot* be served stale — the new `ψ` has different
//! canonical bytes and simply misses the tier. Commit-time invalidation
//! ([`CompiledTier::note_commit`]) is therefore a memory/latency
//! optimization, not a correctness mechanism: it drops the dead entry and
//! transfers hotness by eagerly compiling the successor.
//!
//! Canonicalizing a long `ψ` costs more than answering from its BDD, so
//! the tier also keeps a small hot-`ψ` memo from `ψ`'s request-space
//! encoding to its canonical key and variable map: a query against a
//! compiled theory pays for canonicalizing `ψ` once, not on every request
//! (DESIGN.md §11.1).
//!
//! Degradation is typed, never a panic: compilation past the node budget
//! marks the `ψ` too-big and its queries fall back to the budgeted
//! kernel/SAT path with a normal [`Outcome`]; a per-query `μ` that blows
//! the budget falls back for that query only and resets the per-`ψ`
//! manager to shed the debris.
//!
//! Lock order: the tier mutex and each per-`ψ` manager mutex are **leaf
//! locks** — no other lock in the workspace is ever acquired while one is
//! held, and the server calls into this module only after releasing its KB
//! entry locks (DESIGN.md §11).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::budget::{Budget, BudgetedChangeOperator, Outcome};
use crate::cache::{check_query_width, store_outcome, CacheStatus, OpCache, QueryKey};
use crate::error::CoreError;
use crate::telemetry;
use arbitrex_bdd::{
    compile, compile_mapped, Bdd, BddManager, DistanceLayers, NodeBudget, NodeBudgetExceeded,
    OdistLayers,
};
use arbitrex_logic::{canonicalize_query, encode_formula, Formula, Interp, ModelSet};

/// Which execution path produced a tiered answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Replayed from the canonicalizing result cache.
    Cache,
    /// Answered by compiled-BDD traversal.
    Bdd,
    /// Computed by the enumeration kernel (or its SAT degradation path).
    Kernel,
}

impl Backend {
    /// Stable snake_case name (used in JSON responses).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Cache => "cache",
            Backend::Bdd => "bdd",
            Backend::Kernel => "kernel",
        }
    }
}

/// How a tiered entry point answered, beyond the cache status.
#[derive(Debug, Clone, Copy)]
pub struct TierReport {
    /// The path that produced the models.
    pub backend: Backend,
    /// Wall nanoseconds spent compiling `ψ` during this call, when this
    /// call was the one that promoted it (feeds the server's
    /// `bdd_compile` latency histogram).
    pub compile_ns: Option<u64>,
}

impl TierReport {
    fn new(backend: Backend, compile_ns: Option<u64>) -> TierReport {
        TierReport {
            backend,
            compile_ns,
        }
    }
}

/// The BDD-supported operations (everything else stays on the kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BddOp {
    /// `ψ Δ μ`: minimize `odist(ψ ∨ μ, ·)` over the whole universe.
    Arbitrate,
    /// `ψ ▷ μ` with odist fitting: minimize `odist(ψ, ·)` over `Mod(μ)`.
    OdistFit,
    /// Dalal revision: minimize `min_dist(ψ, ·)` over `Mod(μ)`.
    DalalFit,
}

/// One `ψ` compiled into its own manager, with both distance-layer
/// families precomputed. The per-`ψ` manager keeps eviction trivial (drop
/// the value) and bounds cross-query interference.
struct CompiledPsi {
    m: BddManager,
    n_vars: u32,
    /// `ψ` in canonical variable space (kept for manager rebuilds).
    psi_canonical: Formula,
    /// `min_dist(ψ, I) ≤ k` layers; `None` iff `ψ` is unsatisfiable.
    dalal: Option<DistanceLayers>,
    /// `odist(ψ, I) ≤ k` level sets; `None` iff `ψ` is unsatisfiable.
    odist: Option<OdistLayers>,
    /// Node count right after compiling `ψ` and its layers — the baseline
    /// the reset heuristic compares against.
    base_nodes: usize,
    budget: NodeBudget,
}

impl CompiledPsi {
    fn build(
        psi_canonical: Formula,
        n_vars: u32,
        budget: NodeBudget,
    ) -> Result<CompiledPsi, NodeBudgetExceeded> {
        let mut m = BddManager::new();
        let psi = compile(&mut m, &psi_canonical);
        budget.check(&m)?;
        let (dalal, odist) = if psi.is_false() {
            (None, None)
        } else {
            let d = DistanceLayers::build(&mut m, psi, n_vars, budget)?;
            let o = OdistLayers::build(&mut m, psi, n_vars, budget)?;
            (Some(d), Some(o))
        };
        let base_nodes = m.node_count();
        Ok(CompiledPsi {
            m,
            n_vars,
            psi_canonical,
            dalal,
            odist,
            base_nodes,
            budget,
        })
    }

    /// Rebuild the manager from `ψ` alone, shedding every node allocated
    /// by per-query `μ` compilations. The original build fit the budget,
    /// so the deterministic rebuild does too.
    fn reset(&mut self) {
        if let Ok(fresh) = CompiledPsi::build(self.psi_canonical.clone(), self.n_vars, self.budget)
        {
            telemetry::BDD_MANAGER_RESETS.incr();
            *self = fresh;
        }
    }

    fn maybe_reset(&mut self) {
        let cap = self.base_nodes.saturating_mul(4).saturating_add(4096);
        if self.m.node_count() > cap {
            self.reset();
        }
    }

    /// Answer `op` for `mu` (request space, renamed through `map` into this
    /// `ψ`'s canonical space). Returns canonical-space model bitmasks.
    fn answer(
        &mut self,
        op: BddOp,
        mu: &Formula,
        map: &[u32],
    ) -> Result<Vec<u64>, NodeBudgetExceeded> {
        self.maybe_reset();
        let mu_bdd = compile_mapped(&mut self.m, mu, map);
        self.budget.check(&self.m)?;
        match op {
            BddOp::OdistFit => {
                // (A2): nothing can be fitted to an unsatisfiable ψ.
                let Some(layers) = self.odist.clone() else {
                    return Ok(Vec::new());
                };
                if mu_bdd.is_false() {
                    return Ok(Vec::new());
                }
                self.min_level(|k| layers.le(k), mu_bdd)
            }
            BddOp::DalalFit => {
                // Inconsistent ψ: the new information is fully trusted.
                let Some(layers) = self.dalal.clone() else {
                    return Ok(self.m.models(mu_bdd, self.n_vars));
                };
                if mu_bdd.is_false() {
                    return Ok(Vec::new());
                }
                self.min_level(|k| layers.le(k), mu_bdd)
            }
            BddOp::Arbitrate => {
                // odist over ψ ∨ μ decomposes as the pointwise max of the
                // two sides' odists, so the joint level set is the
                // conjunction of the per-side level sets. An unsatisfiable
                // side contributes nothing to the pool.
                match (self.odist.clone(), mu_bdd.is_false()) {
                    (None, true) => Ok(Vec::new()),
                    (Some(psi_layers), true) => self.min_level(|k| psi_layers.le(k), Bdd::TRUE),
                    (None, false) => {
                        let mu_layers =
                            OdistLayers::build(&mut self.m, mu_bdd, self.n_vars, self.budget)?;
                        self.min_level(|k| mu_layers.le(k), Bdd::TRUE)
                    }
                    (Some(psi_layers), false) => {
                        let mu_layers =
                            OdistLayers::build(&mut self.m, mu_bdd, self.n_vars, self.budget)?;
                        self.min_level2(&psi_layers, &mu_layers)
                    }
                }
            }
        }
    }

    /// Scan `k = 0..=n` for the smallest nonempty `le(k) ∧ within` and
    /// enumerate it; empty when every level is (the `μ = ⊥` cases).
    fn min_level(
        &mut self,
        le: impl Fn(u32) -> Bdd,
        within: Bdd,
    ) -> Result<Vec<u64>, NodeBudgetExceeded> {
        for k in 0..=self.n_vars {
            telemetry::BDD_LEVELS_SCANNED.incr();
            let lvl0 = le(k);
            let lvl = self.m.and(lvl0, within);
            self.budget.check(&self.m)?;
            if !lvl.is_false() {
                return Ok(self.m.models(lvl, self.n_vars));
            }
        }
        Ok(Vec::new())
    }

    /// Arbitration's joint scan: smallest `k` with `ψ_le(k) ∧ μ_le(k) ≠ ⊥`.
    /// Both sides are satisfiable here, so `k = n` always succeeds.
    fn min_level2(
        &mut self,
        a: &OdistLayers,
        b: &OdistLayers,
    ) -> Result<Vec<u64>, NodeBudgetExceeded> {
        for k in 0..=self.n_vars {
            telemetry::BDD_LEVELS_SCANNED.incr();
            let la = a.le(k);
            let lb = b.le(k);
            let lvl = self.m.and(la, lb);
            self.budget.check(&self.m)?;
            if !lvl.is_false() {
                return Ok(self.m.models(lvl, self.n_vars));
            }
        }
        Ok(Vec::new())
    }
}

/// Translate a canonical-space model bitmask back to request space:
/// request-space bit `i` is canonical bit `forward[i]` (the inverse of the
/// renaming `canonicalize_query` applied on the way in).
fn to_request_space(canon: u64, forward: &[u32]) -> u64 {
    let mut out = 0u64;
    for (i, &f) in forward.iter().enumerate() {
        out |= ((canon >> f) & 1) << i;
    }
    out
}

/// What `acquire` hands a query: the compiled theory, the request→canonical
/// variable map, and the compile time (ns) if this very call compiled it.
type TierHandle = (Arc<Mutex<CompiledPsi>>, Vec<u32>, Option<u64>);

/// Lifecycle of one canonical `ψ` inside the tier.
enum Slot {
    /// Seen but not yet hot; `hits` counts queries routed to the kernel.
    Counting { hits: u32, stamp: u64 },
    /// Compiled and serving. The `Arc` lets queries run outside the tier
    /// lock; the inner mutex serializes traversals per `ψ`.
    Ready {
        kb: Arc<Mutex<CompiledPsi>>,
        stamp: u64,
    },
    /// Compilation blew the node budget; don't retry until evicted.
    TooBig { stamp: u64 },
}

impl Slot {
    fn stamp(&self) -> u64 {
        match self {
            Slot::Counting { stamp, .. } | Slot::Ready { stamp, .. } | Slot::TooBig { stamp } => {
                *stamp
            }
        }
    }
}

/// Key of the hot-`ψ` memo: the declared width and `ψ`'s request-space
/// encoding. [`encode_formula`] is injective, so equal keys mean the very
/// same `ψ` at the very same width.
type MemoKey = (u32, Vec<u8>);

/// What the memo remembers about one request-space `ψ`: the canonical key
/// of its tier slot and the request→canonical variable map, i.e. exactly
/// what `canonicalize_query(&[ψ], n_vars)` would recompute.
struct MemoEntry {
    key: Vec<u8>,
    forward: Vec<u32>,
    stamp: u64,
}

struct TierInner {
    map: HashMap<Vec<u8>, Slot>,
    /// The hot-`ψ` memo; filled only for `ψ` whose slot is `Ready` and
    /// bounded by the tier's capacity.
    memo: HashMap<MemoKey, MemoEntry>,
    /// Logical clock for LRU stamps (monotone per tier operation).
    clock: u64,
}

/// What one tier lookup produced, threaded back to the tiered entry points.
enum TierAnswer {
    /// Request-space models, byte-identical to the kernel's answer.
    Served {
        models: Vec<u64>,
        compile_ns: Option<u64>,
    },
    /// Not hot / too big / budget trip — caller runs the kernel path.
    Fallback { compile_ns: Option<u64> },
}

/// The compiled-KB registry: canonical `ψ` bytes → compile state, with
/// hotness promotion, LRU eviction and commit-time invalidation.
///
/// Shared by reference across server workers; all methods take `&self`.
pub struct CompiledTier {
    hotness: u32,
    node_budget: usize,
    capacity: usize,
    inner: Mutex<TierInner>,
}

impl CompiledTier {
    /// Default number of compiled/tracked `ψ` slots kept before LRU
    /// eviction (matches the spirit of the OpCache default, far smaller
    /// because each slot owns a whole BDD manager).
    pub const DEFAULT_CAPACITY: usize = 64;
    /// Default promotion threshold: compile on the 4th query against the
    /// same canonical `ψ`.
    pub const DEFAULT_HOTNESS: u32 = 4;
    /// Default per-`ψ` node budget (2^20 BDD nodes ≈ 16 MiB of node slab).
    pub const DEFAULT_NODE_BUDGET: usize = 1 << 20;

    /// Create a tier. `hotness = 0` (or `capacity = 0`) disables the tier:
    /// every query reports [`Backend::Kernel`] and nothing is compiled.
    pub fn new(hotness: u32, node_budget: usize, capacity: usize) -> CompiledTier {
        CompiledTier {
            hotness,
            node_budget,
            capacity,
            inner: Mutex::new(TierInner {
                map: HashMap::new(),
                memo: HashMap::new(),
                clock: 0,
            }),
        }
    }

    /// A tier with the default hotness, node budget and capacity.
    pub fn with_defaults() -> CompiledTier {
        CompiledTier::new(
            Self::DEFAULT_HOTNESS,
            Self::DEFAULT_NODE_BUDGET,
            Self::DEFAULT_CAPACITY,
        )
    }

    /// Whether the tier participates in query routing at all.
    pub fn is_enabled(&self) -> bool {
        self.hotness > 0 && self.capacity > 0
    }

    /// The promotion threshold this tier was built with.
    pub fn hotness(&self) -> u32 {
        self.hotness
    }

    /// The per-`ψ` BDD node budget this tier was built with.
    pub fn node_budget(&self) -> usize {
        self.node_budget
    }

    /// Number of `ψ` currently compiled and serving (the `compiled_kbs`
    /// gauge in the server's `/metrics`).
    pub fn compiled_count(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Whether `psi` (at `n_vars`) is currently compiled — test hook.
    pub fn is_compiled(&self, psi: &Formula, n_vars: u32) -> bool {
        let cq = canonicalize_query(&[psi], n_vars);
        if cq.n_vars != n_vars {
            return false;
        }
        let key = cq.key_bytes();
        let inner = self.inner.lock().unwrap();
        matches!(inner.map.get(&key), Some(Slot::Ready { .. }))
    }

    /// Drop entries beyond capacity, oldest stamp first. Counting and
    /// TooBig slots compete with Ready slots for space, so a churn of cold
    /// `ψ` can reset a not-yet-hot counter — harmless, it just delays
    /// promotion.
    fn evict_locked(&self, inner: &mut TierInner) {
        while inner.map.len() > self.capacity {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.stamp())
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    inner.map.remove(&k);
                    telemetry::BDD_EVICTIONS.incr();
                }
                None => break,
            }
        }
    }

    /// Remember `ψ`'s canonical key and variable map, evicting the least
    /// recently used entry when the memo is at capacity.
    fn remember_locked(
        &self,
        inner: &mut TierInner,
        memo_key: MemoKey,
        key: &[u8],
        forward: &[u32],
    ) {
        if inner.memo.len() >= self.capacity && !inner.memo.contains_key(&memo_key) {
            let victim = inner
                .memo
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                inner.memo.remove(&k);
            }
        }
        let entry = MemoEntry {
            key: key.to_vec(),
            forward: forward.to_vec(),
            stamp: inner.clock,
        };
        inner.memo.insert(memo_key, entry);
    }

    /// Serve a memoized `ψ` whose slot is still `Ready`, without
    /// canonicalizing it. An entry whose slot was evicted, invalidated or
    /// never became `Ready` is dropped and the caller takes the full path.
    fn memo_hit(&self, memo_key: &MemoKey) -> Option<TierHandle> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        let TierInner { map, memo, .. } = &mut *inner;
        let entry = memo.get_mut(memo_key)?;
        match map.get_mut(&entry.key) {
            Some(Slot::Ready { kb, stamp }) => {
                *stamp = clock;
                entry.stamp = clock;
                telemetry::BDD_PSI_MEMO_HITS.incr();
                Some((kb.clone(), entry.forward.clone(), None))
            }
            _ => {
                memo.remove(memo_key);
                None
            }
        }
    }

    /// Count a query against `ψ` and, once hot, return its compiled handle
    /// (compiling it on this call if needed). `None` means: serve this
    /// query from the kernel.
    ///
    /// A `ψ` already served compiled is answered from the hot-`ψ` memo,
    /// which skips its canonicalization: `canonicalize_query` is a pure
    /// function of `(ψ, n_vars)`, so the memoized key and map are the
    /// ones it would return.
    fn acquire(&self, psi: &Formula, n_vars: u32) -> Option<TierHandle> {
        let memo_key = (n_vars, encode_formula(psi));
        if let Some(handle) = self.memo_hit(&memo_key) {
            return Some(handle);
        }
        let cq = canonicalize_query(&[psi], n_vars);
        // Wider-than-declared formulas never reach the tier; the kernel
        // path performs its own width validation.
        if cq.n_vars != n_vars {
            return None;
        }
        let key = cq.key_bytes();
        {
            let mut inner = self.inner.lock().unwrap();
            inner.clock += 1;
            let clock = inner.clock;
            match inner.map.get_mut(&key) {
                Some(Slot::Ready { kb, stamp }) => {
                    *stamp = clock;
                    let kb = kb.clone();
                    self.remember_locked(&mut inner, memo_key, &key, &cq.forward);
                    return Some((kb, cq.forward, None));
                }
                Some(Slot::TooBig { stamp }) => {
                    *stamp = clock;
                    return None;
                }
                Some(Slot::Counting { hits, stamp }) => {
                    *hits += 1;
                    *stamp = clock;
                    if *hits < self.hotness {
                        return None;
                    }
                    // fall through: this query crossed the threshold.
                }
                None => {
                    inner.map.insert(
                        key.clone(),
                        Slot::Counting {
                            hits: 1,
                            stamp: clock,
                        },
                    );
                    self.evict_locked(&mut inner);
                    if self.hotness > 1 {
                        return None;
                    }
                }
            }
        }
        self.compile_insert(key, cq, memo_key)
    }

    /// Compile `cq`'s single formula **outside** the tier lock, then
    /// publish the result and memoize `memo_key` (the request-space `ψ`
    /// that `cq` canonicalizes) against it. Losers of a compile race adopt
    /// the winner's entry and discard their own work.
    fn compile_insert(
        &self,
        key: Vec<u8>,
        cq: arbitrex_logic::CanonicalQuery,
        memo_key: MemoKey,
    ) -> Option<TierHandle> {
        let forward = cq.forward;
        let width = cq.n_vars;
        let psi_canonical = cq.formulas.into_iter().next()?;
        let started = Instant::now();
        let built = {
            let _t = telemetry::BDD_COMPILE.span();
            CompiledPsi::build(psi_canonical, width, NodeBudget::new(self.node_budget))
        };
        let elapsed = started.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        match built {
            Err(_) => {
                telemetry::BDD_BUDGET_FALLBACKS.incr();
                inner.map.insert(key, Slot::TooBig { stamp: clock });
                self.evict_locked(&mut inner);
                None
            }
            Ok(cp) => {
                if let Some(Slot::Ready { kb, stamp }) = inner.map.get_mut(&key) {
                    *stamp = clock;
                    let kb = kb.clone();
                    self.remember_locked(&mut inner, memo_key, &key, &forward);
                    return Some((kb, forward, None));
                }
                telemetry::BDD_COMPILES.incr();
                telemetry::BDD_COMPILE_NODES.add(cp.base_nodes as u64);
                let kb = Arc::new(Mutex::new(cp));
                self.remember_locked(&mut inner, memo_key, &key, &forward);
                inner.map.insert(
                    key,
                    Slot::Ready {
                        kb: kb.clone(),
                        stamp: clock,
                    },
                );
                self.evict_locked(&mut inner);
                Some((kb, forward, Some(elapsed)))
            }
        }
    }

    /// Route one supported operation through the tier.
    fn try_answer(&self, op: BddOp, psi: &Formula, mu: &Formula, n_vars: u32) -> TierAnswer {
        let Some((kb, forward, compile_ns)) = self.acquire(psi, n_vars) else {
            telemetry::BDD_FALLBACKS.incr();
            return TierAnswer::Fallback { compile_ns: None };
        };
        // μ must fit inside ψ's canonical variable space for the rename.
        if mu.max_var().is_some_and(|v| v.index() >= forward.len()) {
            telemetry::BDD_FALLBACKS.incr();
            return TierAnswer::Fallback { compile_ns };
        }
        let mut cp = kb.lock().unwrap();
        match cp.answer(op, mu, &forward) {
            Ok(canon) => {
                telemetry::BDD_SERVED.incr();
                let models = canon
                    .into_iter()
                    .map(|m| to_request_space(m, &forward))
                    .collect();
                TierAnswer::Served { models, compile_ns }
            }
            Err(_) => {
                // This μ bloated the manager past the budget: answer this
                // one query from the kernel and shed the debris so the
                // compiled ψ stays usable.
                telemetry::BDD_BUDGET_FALLBACKS.incr();
                cp.reset();
                TierAnswer::Fallback { compile_ns }
            }
        }
    }

    /// Commit-time hook: drop the compiled entry for the KB's previous
    /// `ψ` (if any) and, when that entry was hot (`Ready`), eagerly compile
    /// the successor so the first post-commit query stays on the fast
    /// path. Returns the nanoseconds spent on the eager compile, for the
    /// server's `bdd_compile` histogram.
    ///
    /// Correctness does not depend on this being called: tier keys are
    /// canonical `ψ` bytes, so a new `ψ` can never hit the old entry.
    pub fn note_commit(&self, prev: Option<&Formula>, next: &Formula, n_vars: u32) -> Option<u64> {
        if !self.is_enabled() {
            return None;
        }
        // Only a tracked previous ψ has anything to invalidate or any
        // hotness to transfer. A hot one is usually memoized.
        let prev = prev?;
        let memoized = {
            let inner = self.inner.lock().unwrap();
            inner
                .memo
                .get(&(n_vars, encode_formula(prev)))
                .map(|e| e.key.clone())
        };
        let prev_key = match memoized {
            Some(key) => key,
            None => {
                let cq = canonicalize_query(&[prev], n_vars);
                if cq.n_vars != n_vars {
                    return None;
                }
                cq.key_bytes()
            }
        };
        if !self.inner.lock().unwrap().map.contains_key(&prev_key) {
            return None;
        }
        let next_cq = canonicalize_query(&[next], n_vars);
        let next_key = (next_cq.n_vars == n_vars).then(|| next_cq.key_bytes());
        // A commit that leaves ψ canonically unchanged invalidates nothing.
        if next_key.as_ref() == Some(&prev_key) {
            return None;
        }
        let was_hot = {
            let mut inner = self.inner.lock().unwrap();
            match inner.map.remove(&prev_key) {
                Some(slot) => {
                    telemetry::BDD_INVALIDATIONS.incr();
                    matches!(slot, Slot::Ready { .. })
                }
                None => false,
            }
        };
        if !was_hot {
            return None;
        }
        let key = next_key?;
        {
            let inner = self.inner.lock().unwrap();
            if matches!(inner.map.get(&key), Some(Slot::Ready { .. })) {
                return None;
            }
        }
        match self.compile_insert(key, next_cq, (n_vars, encode_formula(next))) {
            Some((_, _, ns)) => ns,
            None => None,
        }
    }
}

fn models_outcome(models: Vec<u64>, n_vars: u32, budget: &Budget) -> Outcome {
    let set = ModelSet::new(n_vars, models.into_iter().map(Interp));
    Outcome::exact(set, budget)
}

/// Map a budgeted operator to its BDD-supported form, if any.
fn supported_op(op: &dyn BudgetedChangeOperator) -> Option<BddOp> {
    match op.name() {
        "odist-fitting" => Some(BddOp::OdistFit),
        "dalal-revision" => Some(BddOp::DalalFit),
        _ => None,
    }
}

/// Tiered arbitration: OpCache, then the compiled-BDD tier, then the
/// budgeted kernel. The cache key is identical to
/// [`cached_arbitrate`](crate::cache::cached_arbitrate)'s, so all three
/// paths share cache entries.
pub fn tiered_arbitrate(
    cache: &OpCache,
    tier: &CompiledTier,
    psi: &Formula,
    phi: &Formula,
    n_vars: u32,
    budget: &Budget,
) -> Result<(Outcome, CacheStatus, TierReport), CoreError> {
    check_query_width(n_vars)?;
    let key = QueryKey::for_cache(cache, "arbitrate", &[psi, phi], n_vars, &[]);
    if let Some(models) = key.as_ref().and_then(|k| cache.get_models(k, n_vars)) {
        return Ok((
            Outcome::exact(models, budget),
            CacheStatus::Hit,
            TierReport::new(Backend::Cache, None),
        ));
    }
    let mut compile_ns = None;
    if tier.is_enabled() {
        match tier.try_answer(BddOp::Arbitrate, psi, phi, n_vars) {
            TierAnswer::Served { models, compile_ns } => {
                let out = models_outcome(models, n_vars, budget);
                let status = store_outcome(cache, key.as_ref(), &out);
                return Ok((out, status, TierReport::new(Backend::Bdd, compile_ns)));
            }
            TierAnswer::Fallback { compile_ns: ns } => compile_ns = ns,
        }
    }
    let mp = ModelSet::of_formula(psi, n_vars);
    let mf = ModelSet::of_formula(phi, n_vars);
    let out = crate::arbitration::try_arbitrate_with_budget(&mp, &mf, budget)?;
    let status = store_outcome(cache, key.as_ref(), &out);
    Ok((out, status, TierReport::new(Backend::Kernel, compile_ns)))
}

/// Tiered operator application: OpCache, then the compiled-BDD tier for
/// supported operators (`odist-fitting`, `dalal-revision`), then the
/// budgeted operator itself. Cache keys match
/// [`cached_apply`](crate::cache::cached_apply)'s.
pub fn tiered_apply(
    cache: &OpCache,
    tier: &CompiledTier,
    op: &dyn BudgetedChangeOperator,
    psi: &Formula,
    mu: &Formula,
    n_vars: u32,
    budget: &Budget,
) -> Result<(Outcome, CacheStatus, TierReport), CoreError> {
    check_query_width(n_vars)?;
    let tag = format!("apply:{}", op.name());
    let key = QueryKey::for_cache(cache, &tag, &[psi, mu], n_vars, &[]);
    if let Some(models) = key.as_ref().and_then(|k| cache.get_models(k, n_vars)) {
        return Ok((
            Outcome::exact(models, budget),
            CacheStatus::Hit,
            TierReport::new(Backend::Cache, None),
        ));
    }
    let mut compile_ns = None;
    if tier.is_enabled() {
        if let Some(bop) = supported_op(op) {
            match tier.try_answer(bop, psi, mu, n_vars) {
                TierAnswer::Served { models, compile_ns } => {
                    let out = models_outcome(models, n_vars, budget);
                    let status = store_outcome(cache, key.as_ref(), &out);
                    return Ok((out, status, TierReport::new(Backend::Bdd, compile_ns)));
                }
                TierAnswer::Fallback { compile_ns: ns } => compile_ns = ns,
            }
        }
    }
    let mp = ModelSet::of_formula(psi, n_vars);
    let mm = ModelSet::of_formula(mu, n_vars);
    let out = op.apply_with_budget(&mp, &mm, budget);
    let status = store_outcome(cache, key.as_ref(), &out);
    Ok((out, status, TierReport::new(Backend::Kernel, compile_ns)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitting::OdistFitting;
    use crate::revision::DalalRevision;
    use arbitrex_logic::{parse, Sig};

    fn q(sig: &mut Sig, s: &str) -> Formula {
        parse(sig, s).unwrap()
    }

    /// Tier that compiles on the very first query — every test exercises
    /// the BDD path without warm-up noise.
    fn eager_tier() -> CompiledTier {
        CompiledTier::new(1, 1 << 20, 8)
    }

    fn kernel_arbitrate(psi: &Formula, phi: &Formula, n: u32) -> ModelSet {
        let b = Budget::unlimited();
        let mp = ModelSet::of_formula(psi, n);
        let mf = ModelSet::of_formula(phi, n);
        crate::arbitration::try_arbitrate_with_budget(&mp, &mf, &b)
            .unwrap()
            .models
    }

    #[test]
    fn hotness_threshold_gates_promotion() {
        let cache = OpCache::new(0); // cache off: every query reaches the tier
        let tier = CompiledTier::new(3, 1 << 20, 8);
        let mut sig = Sig::new();
        let psi = q(&mut sig, "(A & !B) | (B & C)");
        let phi = q(&mut sig, "!A & B");
        let n = sig.width();
        let b = Budget::unlimited();
        for expected in [Backend::Kernel, Backend::Kernel, Backend::Bdd, Backend::Bdd] {
            let (_, _, rep) = tiered_arbitrate(&cache, &tier, &psi, &phi, n, &b).unwrap();
            assert_eq!(rep.backend, expected);
        }
        assert_eq!(tier.compiled_count(), 1);
        assert!(tier.is_compiled(&psi, n));
    }

    #[test]
    fn bdd_arbitrate_matches_kernel_on_example_31() {
        let cache = OpCache::new(0);
        let tier = eager_tier();
        let mut sig = Sig::new();
        // Example 3.1: weather in Lund vs Malmö, third var the quarrel bit.
        let psi = q(&mut sig, "(S & !D & !Q) | (!S & D & !Q) | (S & D & Q)");
        let phi = q(&mut sig, "D & !Q");
        let n = sig.width();
        let b = Budget::unlimited();
        let (out, _, rep) = tiered_arbitrate(&cache, &tier, &psi, &phi, n, &b).unwrap();
        assert_eq!(rep.backend, Backend::Bdd);
        assert_eq!(out.models, kernel_arbitrate(&psi, &phi, n));
    }

    #[test]
    fn bdd_apply_matches_kernel_for_both_supported_ops() {
        let mut sig = Sig::new();
        let psi = q(&mut sig, "(A & B) | (!A & !B & C) | (A & !C)");
        let mu = q(&mut sig, "!B | C");
        let n = sig.width();
        let b = Budget::unlimited();
        for op in [
            &OdistFitting as &dyn BudgetedChangeOperator,
            &DalalRevision as &dyn BudgetedChangeOperator,
        ] {
            let cache = OpCache::new(0);
            let tier = eager_tier();
            let (got, _, rep) = tiered_apply(&cache, &tier, op, &psi, &mu, n, &b).unwrap();
            assert_eq!(rep.backend, Backend::Bdd, "op {}", op.name());
            let expect = op.apply_with_budget(
                &ModelSet::of_formula(&psi, n),
                &ModelSet::of_formula(&mu, n),
                &b,
            );
            assert_eq!(got.models, expect.models, "op {}", op.name());
        }
    }

    #[test]
    fn unsatisfiable_sides_match_kernel_conventions() {
        let cache = OpCache::new(0);
        let tier = eager_tier();
        let mut sig = Sig::new();
        let bot = q(&mut sig, "A & !A");
        let psi = q(&mut sig, "A | B");
        let mu = q(&mut sig, "!A");
        let n = sig.width();
        let b = Budget::unlimited();
        // fit-odist: unsat ψ fits nothing.
        let (out, _, rep) = tiered_apply(&cache, &tier, &OdistFitting, &bot, &mu, n, &b).unwrap();
        assert_eq!(rep.backend, Backend::Bdd);
        assert!(out.models.is_empty());
        // Dalal: unsat ψ trusts μ wholesale.
        let (out, _, _) = tiered_apply(&cache, &tier, &DalalRevision, &bot, &mu, n, &b).unwrap();
        assert_eq!(out.models, ModelSet::of_formula(&mu, n));
        // Arbitrate with one empty side degenerates to the other side's pool.
        let (out, _, _) = tiered_arbitrate(&cache, &tier, &bot, &mu, n, &b).unwrap();
        assert_eq!(out.models, kernel_arbitrate(&bot, &mu, n));
        let (out, _, _) = tiered_arbitrate(&cache, &tier, &psi, &bot, n, &b).unwrap();
        assert_eq!(out.models, kernel_arbitrate(&psi, &bot, n));
        // Both empty: empty result.
        let (out, _, _) = tiered_arbitrate(&cache, &tier, &bot, &bot, n, &b).unwrap();
        assert!(out.models.is_empty());
        // μ = ⊥ under a satisfiable ψ: fits select from Mod(μ) = ∅.
        let (out, _, _) = tiered_apply(&cache, &tier, &OdistFitting, &psi, &bot, n, &b).unwrap();
        assert!(out.models.is_empty());
    }

    #[test]
    fn alpha_variant_psis_share_one_compiled_entry() {
        let cache = OpCache::new(0);
        let tier = eager_tier();
        let mut sig = Sig::new();
        let psi_a = q(&mut sig, "A & !B");
        let psi_b = q(&mut sig, "B & !A"); // same canonical form, swapped roles
        let mu = q(&mut sig, "A | B");
        let n = sig.width();
        let b = Budget::unlimited();
        let (ra, _, _) = tiered_apply(&cache, &tier, &OdistFitting, &psi_a, &mu, n, &b).unwrap();
        let (rb, _, _) = tiered_apply(&cache, &tier, &OdistFitting, &psi_b, &mu, n, &b).unwrap();
        assert_eq!(tier.compiled_count(), 1);
        // Same canonical ψ, but each answer is remapped to its own request
        // space — and these two requests have different minimal fits.
        let kb = |psi: &Formula| {
            OdistFitting.apply_with_budget(
                &ModelSet::of_formula(psi, n),
                &ModelSet::of_formula(&mu, n),
                &b,
            )
        };
        assert_eq!(ra.models, kb(&psi_a).models);
        assert_eq!(rb.models, kb(&psi_b).models);
    }

    #[test]
    fn bdd_results_share_cache_entries_with_kernel_keys() {
        let cache = OpCache::new(16);
        let tier = eager_tier();
        let mut sig = Sig::new();
        let psi = q(&mut sig, "(A & B) | C");
        let phi = q(&mut sig, "!C");
        let n = sig.width();
        let b = Budget::unlimited();
        let (first, s1, rep) = tiered_arbitrate(&cache, &tier, &psi, &phi, n, &b).unwrap();
        assert_eq!(rep.backend, Backend::Bdd);
        assert_eq!(s1, CacheStatus::Miss);
        // The plain cached path must replay the BDD-computed answer.
        let (second, s2) = crate::cache::cached_arbitrate(&cache, &psi, &phi, n, &b).unwrap();
        assert_eq!(s2, CacheStatus::Hit);
        assert_eq!(first.models, second.models);
    }

    #[test]
    fn node_budget_overflow_degrades_to_kernel() {
        let cache = OpCache::new(0);
        // A 2-node budget cannot even hold ψ's root.
        let tier = CompiledTier::new(1, 2, 8);
        let mut sig = Sig::new();
        let psi = q(&mut sig, "(A & B) | (!A & C) | (B & !C)");
        let phi = q(&mut sig, "A");
        let n = sig.width();
        let b = Budget::unlimited();
        let (out, _, rep) = tiered_arbitrate(&cache, &tier, &psi, &phi, n, &b).unwrap();
        assert_eq!(rep.backend, Backend::Kernel);
        assert_eq!(out.models, kernel_arbitrate(&psi, &phi, n));
        assert_eq!(tier.compiled_count(), 0);
        // The TooBig marker suppresses recompile attempts on later queries.
        let (_, _, rep2) = tiered_arbitrate(&cache, &tier, &psi, &phi, n, &b).unwrap();
        assert_eq!(rep2.backend, Backend::Kernel);
    }

    #[test]
    fn note_commit_invalidates_and_transfers_hotness() {
        let cache = OpCache::new(0);
        let tier = eager_tier();
        let mut sig = Sig::new();
        let old_psi = q(&mut sig, "A & B");
        let new_psi = q(&mut sig, "A & !B");
        let mu = q(&mut sig, "A");
        let n = sig.width();
        let b = Budget::unlimited();
        tiered_apply(&cache, &tier, &OdistFitting, &old_psi, &mu, n, &b).unwrap();
        assert!(tier.is_compiled(&old_psi, n));
        let ns = tier.note_commit(Some(&old_psi), &new_psi, n);
        assert!(ns.is_some(), "hot entry should recompile eagerly");
        assert!(!tier.is_compiled(&old_psi, n));
        assert!(tier.is_compiled(&new_psi, n));
        // First query after the commit is served compiled and correct.
        let (out, _, rep) =
            tiered_apply(&cache, &tier, &OdistFitting, &new_psi, &mu, n, &b).unwrap();
        assert_eq!(rep.backend, Backend::Bdd);
        let expect = OdistFitting.apply_with_budget(
            &ModelSet::of_formula(&new_psi, n),
            &ModelSet::of_formula(&mu, n),
            &b,
        );
        assert_eq!(out.models, expect.models);
        // A never-compiled previous ψ transfers no hotness: the successor
        // is not compiled eagerly.
        // NB: avoid alpha-variants of new_psi ("A & !B") — e.g. "!A & B"
        // canonicalizes to the same compiled entry.
        let never_seen = q(&mut sig, "!A & !B");
        let cold_next = q(&mut sig, "A | B");
        assert!(tier.note_commit(Some(&never_seen), &cold_next, n).is_none());
        assert!(!tier.is_compiled(&cold_next, n));
    }

    #[test]
    fn lru_eviction_bounds_the_tier() {
        let cache = OpCache::new(0);
        let tier = CompiledTier::new(1, 1 << 20, 2);
        let mut sig = Sig::new();
        let mu = q(&mut sig, "A");
        let n_formulas = [
            q(&mut sig, "A & B"),
            q(&mut sig, "A | B"),
            q(&mut sig, "A & !B"),
            q(&mut sig, "!A & B"),
        ];
        let n = sig.width();
        let b = Budget::unlimited();
        for psi in &n_formulas {
            tiered_apply(&cache, &tier, &OdistFitting, psi, &mu, n, &b).unwrap();
        }
        assert!(tier.compiled_count() <= 2);
        // The most recent ψ survived; the oldest was evicted.
        assert!(tier.is_compiled(&n_formulas[3], n));
        assert!(!tier.is_compiled(&n_formulas[0], n));
    }

    fn memo_len(tier: &CompiledTier) -> usize {
        tier.inner.lock().unwrap().memo.len()
    }

    fn memo_entry(tier: &CompiledTier, psi: &Formula, n: u32) -> Option<(Vec<u8>, Vec<u32>)> {
        let inner = tier.inner.lock().unwrap();
        let e = inner.memo.get(&(n, encode_formula(psi)))?;
        Some((e.key.clone(), e.forward.clone()))
    }

    #[test]
    fn repeated_psi_is_served_through_the_memo() {
        let cache = OpCache::new(0);
        let tier = eager_tier();
        let mut sig = Sig::new();
        let psi = q(&mut sig, "(A & !B & C) | (!A & B & !C) | (A & B & C & !D)");
        let mus: Vec<Formula> = ["A", "!A & D", "B | !C", "!B & !D", "A & B & C & D"]
            .iter()
            .map(|t| q(&mut sig, t))
            .collect();
        let n = sig.width();
        let b = Budget::unlimited();
        for (round, mu) in mus.iter().enumerate() {
            for op in [
                &OdistFitting as &dyn BudgetedChangeOperator,
                &DalalRevision as &dyn BudgetedChangeOperator,
            ] {
                let (got, _, rep) = tiered_apply(&cache, &tier, op, &psi, mu, n, &b).unwrap();
                assert_eq!(rep.backend, Backend::Bdd);
                let expect = op.apply_with_budget(
                    &ModelSet::of_formula(&psi, n),
                    &ModelSet::of_formula(mu, n),
                    &b,
                );
                assert_eq!(got.models, expect.models, "op {} round {round}", op.name());
            }
            let (got, _, rep) = tiered_arbitrate(&cache, &tier, &psi, mu, n, &b).unwrap();
            assert_eq!(rep.backend, Backend::Bdd);
            assert_eq!(got.models, kernel_arbitrate(&psi, mu, n));
            // After the compiling query, every lookup is a memo hit.
            assert!(tier.memo_hit(&(n, encode_formula(&psi))).is_some());
        }
        assert_eq!(memo_len(&tier), 1);
        // The memo holds exactly what canonicalization would recompute.
        let cq = canonicalize_query(&[&psi], n);
        assert_eq!(
            memo_entry(&tier, &psi, n),
            Some((cq.key_bytes(), cq.forward))
        );
    }

    #[test]
    fn memo_never_aliases_across_widths() {
        let cache = OpCache::new(0);
        let tier = eager_tier();
        let b = Budget::unlimited();
        // The same ψ text, over a 2- and a 3-variable universe.
        let mut narrow = Sig::new();
        let psi2 = q(&mut narrow, "A & !B");
        let mu2 = q(&mut narrow, "!A");
        let mut wide = Sig::new();
        let psi3 = q(&mut wide, "A & !B");
        let mu3 = q(&mut wide, "!A & C");
        assert_eq!(encode_formula(&psi2), encode_formula(&psi3));
        for (psi, mu, n) in [(&psi2, &mu2, 2), (&psi3, &mu3, 3), (&psi2, &mu2, 2)] {
            let (got, _, rep) = tiered_apply(&cache, &tier, &OdistFitting, psi, mu, n, &b).unwrap();
            assert_eq!(rep.backend, Backend::Bdd);
            let expect = OdistFitting.apply_with_budget(
                &ModelSet::of_formula(psi, n),
                &ModelSet::of_formula(mu, n),
                &b,
            );
            assert_eq!(got.models, expect.models, "width {n}");
        }
        assert_eq!(tier.compiled_count(), 2);
        assert_eq!(memo_len(&tier), 2);
        assert_eq!(memo_entry(&tier, &psi2, 2).unwrap().1.len(), 2);
        assert_eq!(memo_entry(&tier, &psi3, 3).unwrap().1.len(), 3);
    }

    #[test]
    fn stale_memo_entries_never_serve_a_dropped_slot() {
        let mut sig = Sig::new();
        let old_psi = q(&mut sig, "A & B");
        let new_psi = q(&mut sig, "A & !B");
        let n = sig.width();
        // Invalidation by commit.
        let tier = eager_tier();
        let (old_kb, _, _) = tier.acquire(&old_psi, n).unwrap();
        assert!(tier.memo_hit(&(n, encode_formula(&old_psi))).is_some());
        assert!(tier.note_commit(Some(&old_psi), &new_psi, n).is_some());
        assert!(tier.memo_hit(&(n, encode_formula(&old_psi))).is_none());
        // The successor was memoized by its eager compile.
        assert!(tier.memo_hit(&(n, encode_formula(&new_psi))).is_some());
        let (again, _, _) = tier.acquire(&old_psi, n).unwrap();
        assert!(!Arc::ptr_eq(&old_kb, &again), "served the invalidated slot");

        // Eviction by LRU: a 2-slot tier that compiles on the 2nd query.
        let tier = CompiledTier::new(2, 1 << 20, 2);
        let psis = [
            q(&mut sig, "A & B"),
            q(&mut sig, "A | B"),
            q(&mut sig, "!A | !B"),
        ];
        for psi in &psis {
            assert!(tier.acquire(psi, n).is_none());
            assert!(tier.acquire(psi, n).is_some());
        }
        assert!(!tier.is_compiled(&psis[0], n));
        assert!(tier.memo_hit(&(n, encode_formula(&psis[0]))).is_none());
        // Back to counting: the first query after eviction is not served.
        assert!(tier.acquire(&psis[0], n).is_none());
    }

    #[test]
    fn memo_stays_within_capacity() {
        let capacity = 4;
        let tier = CompiledTier::new(1, 1 << 20, capacity);
        let mut sig = Sig::new();
        let names = ["A", "B", "C", "D"];
        // 10 × capacity distinct ψ: the full-minterm DNF of model set `set`
        // (bit `m` of `set` selects interpretation `m` of A..D).
        for set in 1..=(10 * capacity as u32) {
            let terms: Vec<String> = (0..16u32)
                .filter(|m| set >> m & 1 == 1)
                .map(|m| {
                    let lits: Vec<String> = names
                        .iter()
                        .enumerate()
                        .map(|(i, v)| {
                            if m >> i & 1 == 1 {
                                v.to_string()
                            } else {
                                format!("!{v}")
                            }
                        })
                        .collect();
                    format!("({})", lits.join(" & "))
                })
                .collect();
            let psi = q(&mut sig, &terms.join(" | "));
            for _ in 0..2 {
                assert!(tier.acquire(&psi, 4).is_some());
                assert!(memo_len(&tier) <= capacity);
                assert!(tier.compiled_count() <= capacity);
            }
        }
        assert_eq!(memo_len(&tier), capacity);
    }

    #[test]
    fn disabled_tier_routes_everything_to_the_kernel() {
        let cache = OpCache::new(0);
        let tier = CompiledTier::new(0, 1 << 20, 8);
        assert!(!tier.is_enabled());
        let mut sig = Sig::new();
        let psi = q(&mut sig, "A & B");
        let phi = q(&mut sig, "!A");
        let n = sig.width();
        let b = Budget::unlimited();
        for _ in 0..3 {
            let (_, _, rep) = tiered_arbitrate(&cache, &tier, &psi, &phi, n, &b).unwrap();
            assert_eq!(rep.backend, Backend::Kernel);
        }
        assert_eq!(tier.compiled_count(), 0);
    }

    #[test]
    fn unsupported_operators_skip_the_tier() {
        let cache = OpCache::new(0);
        let tier = eager_tier();
        let mut sig = Sig::new();
        let psi = q(&mut sig, "A & B");
        let mu = q(&mut sig, "!A");
        let n = sig.width();
        let b = Budget::unlimited();
        let op = crate::operator::budgeted_operator("winslett").unwrap();
        let (out, _, rep) = tiered_apply(&cache, &tier, op.as_ref(), &psi, &mu, n, &b).unwrap();
        assert_eq!(rep.backend, Backend::Kernel);
        assert_eq!(tier.compiled_count(), 0, "unsupported ops must not compile");
        let expect = op.apply_with_budget(
            &ModelSet::of_formula(&psi, n),
            &ModelSet::of_formula(&mu, n),
            &b,
        );
        assert_eq!(out.models, expect.models);
    }
}
