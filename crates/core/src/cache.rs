//! A sharded LRU cache for operator results, keyed on model bits.
//!
//! Every operator in this crate is a function of the model sets it is
//! handed (Theorem 3.1; syntax irrelevance, (R4)/(A4)), and each is defined
//! from the Hamming distance between interpretations, which is invariant
//! under permutations of the variable set: `dist(σI, σJ) = dist(I, J)` for
//! any bijection `σ` on variables. All selection therefore commutes with
//! renaming — `op(σΨ, σΜ) = σ·op(Ψ, Μ)` — so a query can be solved *once in
//! canonical variable space* and replayed for every variant. The
//! [`OpCache`] keys a query on its enumerated model sets under the column
//! order [`arbitrex_logic::ModelKey`] finds, stores results as
//! canonical-space interpretations, and replays a hit through the query's
//! own variable permutation. Renamed atoms, shuffled conjuncts, double
//! negations, tautological conjuncts, duplicated minterms — any rewrite
//! with the same models — all land on the same entry. The model sets are
//! the ones a miss hands the kernel, so a query enumerates them once.
//!
//! Each entry point keys exactly what its operator reads:
//!
//! * arbitration keys the one set `Mod(ψ) ∪ Mod(φ)`, since
//!   `ψ Δ φ = (ψ ∨ φ) ▷ ⊤` (Corollary 3.1) — `ψ Δ φ` and `φ Δ ψ` share an
//!   entry;
//! * a fitting, revision or update operator keys the pair
//!   `(Mod(ψ), Mod(μ))` under one shared permutation, tagged with its name;
//! * weighted arbitration keys the joined weighted support, each row
//!   carrying its weight.
//!
//! A hit therefore pays for enumerating `Mod`, which a miss pays anyway:
//! for a query with a very large model set it costs more than a key taken
//! from the formula's syntax would. A key holds every model, so a query
//! with more than [`MAX_KEY_MODELS`] of them is not cached at all
//! ([`CacheStatus::Bypass`]).
//!
//! Two soundness guards:
//!
//! * the shard map is keyed on the **full key byte string** — the permuted
//!   model sets themselves — not its 64-bit FNV hash, so a hash collision
//!   costs a shard probe, never a wrong answer;
//! * only [`Quality::Exact`] outcomes are cached. Degraded answers depend
//!   on how far a particular budget got and are not a function of the
//!   query alone.
//!
//! **Admission.** Once the cache has evicted for the first time (it is
//! full, and some queries will never be reused), a query is looked up and
//! stored only on its *second* sighting. A doorkeeper in the style of
//! TinyLFU (Einziger, Friedman, Manes, arXiv:1512.00727) records
//! [`QueryKey::hash`] of each query: a first sighting is recorded and
//! answered by the operator with no lookup and no insertion
//! ([`CacheStatus::Bypass`]); a sighting whose hash is already recorded is
//! looked up as usual. The doorkeeper is a lock-free Bloom filter of 32
//! bits per cache entry with two probes, cleared after 4 × capacity
//! recordings (TinyLFU's reset). Until the first eviction, and again after
//! [`OpCache::clear`], every query is admitted. A recorded hash only buys
//! a lookup, so a collision or a race costs at most one lookup or one
//! insertion, never an answer.
//!
//! Lookups and insertions feed the `"cache"` telemetry section
//! (`cache_hits` / `cache_misses` / `cache_bypasses` /
//! `cache_first_sightings` / `cache_insertions` / `cache_evictions`); see
//! `OBSERVABILITY.md`.
//!
//! ```
//! use arbitrex_core::cache::{cached_arbitrate, CacheStatus, OpCache};
//! use arbitrex_core::Budget;
//! use arbitrex_logic::{read_cover, ModelSet, Sig};
//!
//! let cache = OpCache::new(64);
//! let mut sig = Sig::new();
//! let psi = read_cover(&mut sig, "A & B").unwrap();
//! let phi = read_cover(&mut sig, "!A & !B").unwrap();
//! let psi = ModelSet::try_of_cover(&psi, sig.width()).unwrap();
//! let phi = ModelSet::try_of_cover(&phi, sig.width()).unwrap();
//! let b = Budget::unlimited();
//! let (first, s1) = cached_arbitrate(&cache, &psi, &phi, &b).unwrap();
//! assert_eq!(s1, CacheStatus::Miss);
//! // The same query — and any alpha-variant of it — now hits.
//! let (again, s2) = cached_arbitrate(&cache, &psi, &phi, &b).unwrap();
//! assert_eq!(s2, CacheStatus::Hit);
//! assert_eq!(first.models, again.models);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::arbitration::{UniverseFitting, WeightedUniverseFitting};
use crate::budget::{Budget, BudgetedChangeOperator, Outcome, Quality, WeightedOutcome};
use crate::error::CoreError;
use crate::fitting::OdistFitting;
use crate::telemetry;
use crate::weighted::WeightedKb;
use crate::wfitting::WdistFitting;
use arbitrex_logic::canonical::fnv1a;
use arbitrex_logic::{Interp, ModelKey, ModelSet, MAX_VARS};

/// The most models a query's key may hold, over all its sides. A key
/// stores every model, so past this a query is answered without the
/// cache: an entry stays within about 16 KiB, and the colour refinement
/// that orders a key's columns within a few milliseconds.
pub const MAX_KEY_MODELS: usize = 4096;

/// How a cached entry point answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Answered from the cache (no operator work ran).
    Hit,
    /// Computed by the operator; an exact result was stored for next time.
    Miss,
    /// The cache was not consulted (zero capacity, a query with more than
    /// [`MAX_KEY_MODELS`] models, or an evicting cache seeing the query for
    /// the first time) or the result was too degraded to store.
    Bypass,
}

impl CacheStatus {
    /// Stable snake_case name (used in JSON responses).
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
        }
    }
}

/// A canonical-space result payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedValue {
    /// Models of a classical operator application.
    Models(Vec<Interp>),
    /// Support of a weighted operator application.
    Weighted(Vec<(Interp, u64)>),
}

/// A query reduced to canonical variable space: the lookup key plus the
/// permutation needed to replay a stored answer in the request's own
/// variable order.
#[derive(Debug, Clone)]
pub struct QueryKey {
    bytes: Vec<u8>,
    hash: u64,
    forward: Vec<u32>,
}

impl QueryKey {
    /// Key the model sets `sides` of a query over `n_vars` variables under
    /// the operator tag `tag` (distinct operators must use distinct tags).
    pub fn new(tag: &str, n_vars: u32, sides: &[&ModelSet]) -> QueryKey {
        let slices: Vec<&[Interp]> = sides.iter().map(|s| s.as_slice()).collect();
        QueryKey::tagged(tag, ModelKey::new(n_vars, &slices))
    }

    /// Key a weighted query by its support, each row carrying its weight.
    pub fn weighted(tag: &str, kb: &WeightedKb) -> QueryKey {
        let support: Vec<(Interp, u64)> = kb.support().collect();
        QueryKey::tagged(tag, ModelKey::weighted(kb.n_vars(), &support))
    }

    fn tagged(tag: &str, key: ModelKey) -> QueryKey {
        let (key_bytes, forward) = key.into_parts();
        let mut bytes = Vec::with_capacity(4 + tag.len() + key_bytes.len());
        bytes.extend_from_slice(&(tag.len() as u32).to_le_bytes());
        bytes.extend_from_slice(tag.as_bytes());
        bytes.extend_from_slice(&key_bytes);
        let hash = fnv1a(&bytes);
        QueryKey {
            bytes,
            hash,
            forward,
        }
    }

    /// The key `build` makes over `models` rows in all, for a lookup in
    /// `cache`, or `None` when it would not be looked up:
    ///
    /// * a disabled cache, or a query past [`MAX_KEY_MODELS`], builds no
    ///   key; the skipped lookup counts one bypass, as [`OpCache::get`]
    ///   does;
    /// * a cache that has never evicted looks up every key;
    /// * an evicting cache looks up a key only if the doorkeeper has
    ///   recorded its hash before. A first sighting is recorded and
    ///   counted in `cache_first_sightings`, not in `cache_bypasses`.
    pub(crate) fn for_cache(
        cache: &OpCache,
        models: usize,
        build: impl FnOnce() -> QueryKey,
    ) -> Option<QueryKey> {
        if !cache.is_enabled() || models > MAX_KEY_MODELS {
            telemetry::CACHE_BYPASSES.incr();
            return None;
        }
        let key = build();
        if cache.evicting.load(Ordering::Relaxed) && !cache.doorkeeper.admit(key.hash) {
            telemetry::CACHE_FIRST_SIGHTINGS.incr();
            return None;
        }
        Some(key)
    }

    /// The 64-bit FNV-1a hash of the key bytes: the shard selector and
    /// what the admission doorkeeper records.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Map a canonical-space interpretation back into the request's
    /// variable order (bit `i` of the result is bit `forward[i]` of `c`).
    pub fn to_request_space(&self, c: Interp) -> Interp {
        let mut out = 0u64;
        for (i, &f) in self.forward.iter().enumerate() {
            out |= (c.0 >> f & 1) << i;
        }
        Interp(out)
    }

    /// Map a request-space interpretation into canonical variable order
    /// (bit `forward[i]` of the result is bit `i` of `r`).
    pub fn to_canonical_space(&self, r: Interp) -> Interp {
        let mut out = 0u64;
        for (i, &f) in self.forward.iter().enumerate() {
            out |= (r.0 >> i & 1) << f;
        }
        Interp(out)
    }
}

const NIL: usize = usize::MAX;

struct Entry {
    key: Vec<u8>,
    value: CachedValue,
    prev: usize,
    next: usize,
}

/// One shard: a slab-backed intrusive doubly-linked LRU list plus an index
/// from full key bytes to slab slots.
struct Shard {
    map: HashMap<Vec<u8>, usize>,
    slab: Vec<Entry>,
    head: usize,
    tail: usize,
    free: Vec<usize>,
}

impl Shard {
    /// An empty shard; it grows on demand up to the capacity
    /// [`Shard::insert`] enforces.
    fn new() -> Shard {
        Shard {
            map: HashMap::new(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slab[h].prev = idx,
        }
        self.head = idx;
    }

    fn get(&mut self, key: &[u8]) -> Option<CachedValue> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slab[idx].value.clone())
    }

    /// Insert or refresh, holding at most `capacity` entries; returns
    /// `true` if an entry was evicted.
    fn insert(&mut self, key: &[u8], value: CachedValue, capacity: usize) -> bool {
        if let Some(&idx) = self.map.get(key) {
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= capacity {
            let victim = self.tail;
            self.unlink(victim);
            let old_key = std::mem::take(&mut self.slab[victim].key);
            self.map.remove(&old_key);
            self.free.push(victim);
            evicted = true;
        }
        let entry = Entry {
            key: key.to_vec(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.map.insert(key.to_vec(), idx);
        self.push_front(idx);
        evicted
    }
}

/// TinyLFU's doorkeeper: a Bloom filter of key hashes, two probes per
/// hash, in `AtomicU64` words so that recording needs no lock.
/// It forgets everything after `reset_after` recordings, so a query must
/// recur within a window of about four cache capacities to be admitted.
struct Doorkeeper {
    words: Box<[AtomicU64]>,
    recorded: AtomicUsize,
    reset_after: usize,
}

impl Doorkeeper {
    /// Bits per cache entry, before rounding up to a power of two.
    const BITS_PER_ENTRY: usize = 32;
    /// Recordings per cache entry before the filter is cleared.
    const RESET_PER_ENTRY: usize = 4;
    /// Size cap (2^30 bits, 128 MiB): beyond any sane `--cache-entries`.
    const MAX_BITS: usize = 1 << 30;

    fn new(capacity: usize) -> Doorkeeper {
        let bits = capacity
            .saturating_mul(Doorkeeper::BITS_PER_ENTRY)
            .clamp(64, Doorkeeper::MAX_BITS)
            .next_power_of_two();
        Doorkeeper {
            words: (0..bits / 64).map(|_| AtomicU64::new(0)).collect(),
            recorded: AtomicUsize::new(0),
            reset_after: capacity.saturating_mul(Doorkeeper::RESET_PER_ENTRY).max(1),
        }
    }

    /// Has `hash` been recorded since the last reset? If not, record it
    /// now. Concurrent callers may both see a fresh hash or race a reset;
    /// either costs one lookup or one insertion, no answer.
    fn admit(&self, hash: u64) -> bool {
        // The key hash is FNV; a murmur3 finalizer spreads its weak low
        // bits before they pick probe positions.
        let mut h = hash;
        h = (h ^ h >> 33).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = (h ^ h >> 33).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        let mask = (self.words.len() * 64 - 1) as u64;
        let probe = |bit: u64| (&self.words[(bit >> 6) as usize], 1u64 << (bit & 63));
        let (word_a, bit_a) = probe(h & mask);
        let (word_b, bit_b) = probe(h >> 32 & mask);
        let seen = |w: &AtomicU64, b: u64| w.load(Ordering::Relaxed) & b != 0;
        if seen(word_a, bit_a) && seen(word_b, bit_b) {
            return true;
        }
        word_a.fetch_or(bit_a, Ordering::Relaxed);
        word_b.fetch_or(bit_b, Ordering::Relaxed);
        if self.recorded.fetch_add(1, Ordering::Relaxed) + 1 >= self.reset_after {
            self.clear();
        }
        false
    }

    fn clear(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
        self.recorded.store(0, Ordering::Relaxed);
    }
}

/// A sharded LRU cache of exact operator results in canonical variable
/// space. `Sync`: each shard is independently locked, so concurrent
/// workers contend only when their keys hash to the same shard.
pub struct OpCache {
    shards: Box<[Mutex<Shard>]>,
    /// Entries per shard; fixed at construction, so read without a lock.
    per_shard: usize,
    /// Has any shard evicted since construction or the last `clear()`?
    /// Engages the doorkeeper. It and the doorkeeper's words publish no
    /// other data, so every access is `Relaxed`.
    evicting: AtomicBool,
    doorkeeper: Doorkeeper,
}

impl OpCache {
    /// Default shard count for [`OpCache::new`].
    pub const DEFAULT_SHARDS: usize = 8;

    /// A cache holding at least `capacity` entries across
    /// [`OpCache::DEFAULT_SHARDS`] shards. `capacity == 0` disables the
    /// cache: every lookup reports [`CacheStatus::Bypass`].
    pub fn new(capacity: usize) -> OpCache {
        OpCache::with_shards(OpCache::DEFAULT_SHARDS, capacity)
    }

    /// A cache with an explicit shard count (rounded up to at least 1).
    /// Total capacity is `capacity` rounded up to a multiple of the shard
    /// count (saturating at `usize::MAX`), except that `capacity == 0`
    /// still disables the cache. Shards start empty and grow on demand.
    pub fn with_shards(n_shards: usize, capacity: usize) -> OpCache {
        let n_shards = n_shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(n_shards)
        };
        let shards = (0..n_shards)
            .map(|_| Mutex::new(Shard::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        OpCache {
            shards,
            per_shard,
            evicting: AtomicBool::new(false),
            doorkeeper: Doorkeeper::new(n_shards.saturating_mul(per_shard)),
        }
    }

    /// Is the cache actually storing anything?
    pub fn is_enabled(&self) -> bool {
        self.per_shard > 0
    }

    /// Total entry capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.len().saturating_mul(self.per_shard)
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (capacity is unchanged) and return to admitting
    /// every query until the next eviction.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            *shard.lock().expect("no thread panics holding a shard") = Shard::new();
        }
        self.evicting.store(false, Ordering::Relaxed);
        self.doorkeeper.clear();
    }

    fn shard_for(&self, key: &QueryKey) -> &Mutex<Shard> {
        &self.shards[(key.hash() as usize) % self.shards.len()]
    }

    /// Raw lookup. Counts a hit or miss; returns `None` without counting
    /// when the cache is disabled (the caller reports a bypass).
    pub fn get(&self, key: &QueryKey) -> Option<CachedValue> {
        if !self.is_enabled() {
            telemetry::CACHE_BYPASSES.incr();
            return None;
        }
        let found = self.shard_for(key).lock().unwrap().get(&key.bytes);
        match found {
            Some(v) => {
                telemetry::CACHE_HITS.incr();
                Some(v)
            }
            None => {
                telemetry::CACHE_MISSES.incr();
                None
            }
        }
    }

    /// Raw insertion of a canonical-space value. No-op when disabled.
    pub fn insert(&self, key: &QueryKey, value: CachedValue) {
        if !self.is_enabled() {
            return;
        }
        let evicted = self
            .shard_for(key)
            .lock()
            .unwrap()
            .insert(&key.bytes, value, self.per_shard);
        telemetry::CACHE_INSERTIONS.incr();
        if evicted {
            telemetry::CACHE_EVICTIONS.incr();
            // Load first: every request reads this flag, so do not dirty
            // its cache line on every eviction.
            if !self.evicting.load(Ordering::Relaxed) {
                self.evicting.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Look up a classical result and replay it in request variable space.
    pub fn get_models(&self, key: &QueryKey, n_vars: u32) -> Option<ModelSet> {
        match self.get(key)? {
            CachedValue::Models(canon) => Some(ModelSet::new(
                n_vars,
                canon.into_iter().map(|i| key.to_request_space(i)),
            )),
            CachedValue::Weighted(_) => None,
        }
    }

    /// Store a classical result, remapped into canonical variable space.
    pub fn insert_models(&self, key: &QueryKey, models: &ModelSet) {
        let canon: Vec<Interp> = models.iter().map(|i| key.to_canonical_space(i)).collect();
        self.insert(key, CachedValue::Models(canon));
    }

    /// Look up a weighted result and replay it in request variable space.
    pub fn get_weighted(&self, key: &QueryKey, n_vars: u32) -> Option<WeightedKb> {
        match self.get(key)? {
            CachedValue::Weighted(canon) => Some(WeightedKb::from_weights(
                n_vars,
                canon.into_iter().map(|(i, w)| (key.to_request_space(i), w)),
            )),
            CachedValue::Models(_) => None,
        }
    }

    /// Store a weighted result, remapped into canonical variable space.
    pub fn insert_weighted(&self, key: &QueryKey, kb: &WeightedKb) {
        let canon: Vec<(Interp, u64)> = kb
            .support()
            .map(|(i, w)| (key.to_canonical_space(i), w))
            .collect();
        self.insert(key, CachedValue::Weighted(canon));
    }
}

pub(crate) fn check_query_width(n_vars: u32) -> Result<(), CoreError> {
    CoreError::check_enum_limit(n_vars)?;
    debug_assert!(n_vars as usize <= MAX_VARS);
    Ok(())
}

/// Budgeted arbitration `ψ Δ φ` of `Mod(ψ)` and `Mod(φ)` through
/// `cache`: any query with the same `Mod(ψ) ∪ Mod(φ)` up to renaming
/// replays an earlier exact answer without running the kernel.
///
/// # Panics
/// Panics if the two sets have different widths.
pub fn cached_arbitrate(
    cache: &OpCache,
    psi: &ModelSet,
    phi: &ModelSet,
    budget: &Budget,
) -> Result<(Outcome, CacheStatus), CoreError> {
    let n_vars = psi.n_vars();
    check_query_width(n_vars)?;
    // `ψ Δ φ = (ψ ∨ φ) ▷ ⊤` with Δ's fitting (Corollary 3.1): the voices
    // are all the kernel reads, so they are all the key holds.
    let voices = psi.union(phi);
    let key = QueryKey::for_cache(cache, voices.len(), || {
        QueryKey::new("arbitrate", n_vars, &[&voices])
    });
    if let Some(models) = key.as_ref().and_then(|k| cache.get_models(k, n_vars)) {
        return Ok((Outcome::exact(models, budget), CacheStatus::Hit));
    }
    let out = OdistFitting.apply_universe_budgeted(&voices, budget)?;
    let status = store_outcome(cache, key.as_ref(), &out);
    Ok((out, status))
}

/// Budgeted application of a named fitting/revision/update operator to
/// `Mod(ψ)` and `Mod(μ)` through `cache`. The key is tagged with
/// `op.name()`, so distinct operators never share entries.
///
/// # Panics
/// Panics if the two sets have different widths.
pub fn cached_apply(
    cache: &OpCache,
    op: &dyn BudgetedChangeOperator,
    psi: &ModelSet,
    mu: &ModelSet,
    budget: &Budget,
) -> Result<(Outcome, CacheStatus), CoreError> {
    let n_vars = psi.n_vars();
    assert_eq!(
        n_vars,
        mu.n_vars(),
        "model sets over different signature widths"
    );
    check_query_width(n_vars)?;
    let key = QueryKey::for_cache(cache, psi.len() + mu.len(), || {
        QueryKey::new(&format!("apply:{}", op.name()), n_vars, &[psi, mu])
    });
    if let Some(models) = key.as_ref().and_then(|k| cache.get_models(k, n_vars)) {
        return Ok((Outcome::exact(models, budget), CacheStatus::Hit));
    }
    let out = op.apply_with_budget(psi, mu, budget);
    let status = store_outcome(cache, key.as_ref(), &out);
    Ok((out, status))
}

/// Budgeted weighted arbitration `ψ̃ Δ φ̃` through `cache`, each side
/// typically built by [`weighted_side`]. The key is the joined weighted
/// support, each row with its weight, so swapping the sides with their
/// weights shares an entry.
pub fn cached_warbitrate(
    cache: &OpCache,
    psi: &WeightedKb,
    phi: &WeightedKb,
    budget: &Budget,
) -> Result<(WeightedOutcome, CacheStatus), CoreError> {
    let n_vars = psi.n_vars();
    // `ψ̃ Δ φ̃ = (ψ̃ ⊔ φ̃) ▷ 𝓜̃` with wdist fitting: again the joined voices
    // are all the kernel reads.
    let voices = psi.join(phi);
    let key = QueryKey::for_cache(cache, voices.support_size(), || {
        QueryKey::weighted("warbitrate", &voices)
    });
    if let Some(kb) = key.as_ref().and_then(|k| cache.get_weighted(k, n_vars)) {
        return Ok((WeightedOutcome::exact(kb, budget), CacheStatus::Hit));
    }
    let out = WdistFitting.apply_universe_budgeted(&voices, budget)?;
    let status = if out.quality != Quality::Exact {
        telemetry::CACHE_BYPASSES.incr();
        CacheStatus::Bypass
    } else if let Some(key) = &key {
        cache.insert_weighted(key, &out.kb);
        CacheStatus::Miss
    } else {
        CacheStatus::Bypass
    };
    Ok((out, status))
}

/// `models` with every model carrying `weight` (the uniform-source
/// reading used by the service protocol).
pub fn weighted_side(models: &ModelSet, weight: u64) -> WeightedKb {
    WeightedKb::from_weights(models.n_vars(), models.iter().map(|i| (i, weight)))
}

/// Store an exact outcome under `key` (`None`: the cache is disabled).
pub(crate) fn store_outcome(cache: &OpCache, key: Option<&QueryKey>, out: &Outcome) -> CacheStatus {
    if out.quality != Quality::Exact {
        telemetry::CACHE_BYPASSES.incr();
        CacheStatus::Bypass
    } else if let Some(key) = key {
        cache.insert_models(key, &out.models);
        CacheStatus::Miss
    } else {
        CacheStatus::Bypass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitration::try_arbitrate;
    use crate::fitting::OdistFitting;
    use crate::revision::DalalRevision;
    use arbitrex_logic::{parse, Formula, Sig};

    fn q(sig: &mut Sig, s: &str) -> Formula {
        parse(sig, s).unwrap()
    }

    /// `Mod` of each formula over the width of `sig`.
    fn mods<const K: usize>(sig: &Sig, fs: [&Formula; K]) -> [ModelSet; K] {
        fs.map(|f| ModelSet::of_formula(f, sig.width()))
    }

    #[test]
    fn status_names_are_stable() {
        assert_eq!(CacheStatus::Hit.name(), "hit");
        assert_eq!(CacheStatus::Miss.name(), "miss");
        assert_eq!(CacheStatus::Bypass.name(), "bypass");
    }

    #[test]
    fn remap_roundtrips_through_canonical_space() {
        let mut sig = Sig::new();
        // Force a nontrivial canonical order.
        let psi = q(&mut sig, "C | (A & B)");
        let phi = q(&mut sig, "!C");
        let n = sig.width();
        let (mp, mf) = (ModelSet::of_formula(&psi, n), ModelSet::of_formula(&phi, n));
        let key = QueryKey::new("t", n, &[&mp, &mf]);
        for bits in 0u64..8 {
            let r = Interp(bits);
            assert_eq!(key.to_request_space(key.to_canonical_space(r)), r);
        }
    }

    #[test]
    fn hit_replays_the_exact_answer() {
        let cache = OpCache::new(16);
        let mut sig = Sig::new();
        let psi = q(&mut sig, "A & B & !C");
        let phi = q(&mut sig, "!A & !B & C");
        let [psi, phi] = mods(&sig, [&psi, &phi]);
        let b = Budget::unlimited();
        let (first, s1) = cached_arbitrate(&cache, &psi, &phi, &b).unwrap();
        assert_eq!(s1, CacheStatus::Miss);
        let (second, s2) = cached_arbitrate(&cache, &psi, &phi, &b).unwrap();
        assert_eq!(s2, CacheStatus::Hit);
        let expect = try_arbitrate(&psi, &phi).unwrap();
        assert_eq!(first.models, expect);
        assert_eq!(second.models, expect);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn alpha_variant_hits_and_remaps_correctly() {
        let cache = OpCache::new(16);
        let b = Budget::unlimited();

        // Original query over (A, B, C).
        let mut sig1 = Sig::new();
        let psi1 = q(&mut sig1, "(A & B) | C");
        let phi1 = q(&mut sig1, "!A & !C");
        let [psi1, phi1] = mods(&sig1, [&psi1, &phi1]);
        let (_, s1) = cached_arbitrate(&cache, &psi1, &phi1, &b).unwrap();
        assert_eq!(s1, CacheStatus::Miss);

        // The same query with variables introduced in a different order
        // and conjuncts shuffled: X↔A, Y↔B, Z↔C but numbered Z=0, X=1, Y=2.
        let mut sig2 = Sig::new();
        let _ = q(&mut sig2, "Z"); // intern Z first
        let psi2 = q(&mut sig2, "Z | (Y & X)");
        let phi2 = q(&mut sig2, "!Z & !X");
        let [psi2, phi2] = mods(&sig2, [&psi2, &phi2]);
        let (out2, s2) = cached_arbitrate(&cache, &psi2, &phi2, &b).unwrap();
        assert_eq!(s2, CacheStatus::Hit);

        // The replayed answer must equal a direct computation in the
        // second query's own variable space.
        let expect = try_arbitrate(&psi2, &phi2).unwrap();
        assert_eq!(out2.models, expect);
    }

    #[test]
    fn distinct_operators_do_not_share_entries() {
        let cache = OpCache::new(16);
        let mut sig = Sig::new();
        let psi = q(&mut sig, "A");
        let mu = q(&mut sig, "!A | B");
        let [psi, mu] = mods(&sig, [&psi, &mu]);
        let b = Budget::unlimited();
        let (_, s1) = cached_apply(&cache, &OdistFitting, &psi, &mu, &b).unwrap();
        assert_eq!(s1, CacheStatus::Miss);
        // Same formulas, different tag: arbitration must not hit odist's entry.
        let (_, s2) = cached_arbitrate(&cache, &psi, &mu, &b).unwrap();
        assert_eq!(s2, CacheStatus::Miss);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn degraded_outcomes_are_not_cached() {
        let cache = OpCache::new(16);
        let mut sig = Sig::new();
        // Wide disjunction: 2^11 - 1 + 1 candidate interps to scan, far
        // past one 1024-step meter batch, so a zero deadline trips.
        let names: Vec<String> = (0..11).map(|i| format!("V{i}")).collect();
        let text = names.join(" | ");
        let psi = q(&mut sig, &text);
        let phi = q(&mut sig, &text);
        let [psi, phi] = mods(&sig, [&psi, &phi]);
        let b = Budget::unlimited().with_deadline(std::time::Duration::from_millis(0));
        let (out, status) = cached_arbitrate(&cache, &psi, &phi, &b).unwrap();
        assert_ne!(out.quality, Quality::Exact);
        assert_eq!(status, CacheStatus::Bypass);
        assert!(cache.is_empty());
    }

    #[test]
    fn zero_capacity_bypasses() {
        let cache = OpCache::new(0);
        assert!(!cache.is_enabled());
        let mut sig = Sig::new();
        let psi = q(&mut sig, "A");
        let phi = q(&mut sig, "!A");
        let [psi, phi] = mods(&sig, [&psi, &phi]);
        let b = Budget::unlimited();
        let (_, s1) = cached_arbitrate(&cache, &psi, &phi, &b).unwrap();
        let (_, s2) = cached_arbitrate(&cache, &psi, &phi, &b).unwrap();
        // With no capacity nothing is stored, so the exact repeat never
        // upgrades to a hit.
        assert_eq!(s1, CacheStatus::Bypass);
        assert_eq!(s2, CacheStatus::Bypass);
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        // One shard, capacity 2, driven through the raw interface. The
        // three model sets must not be renamings of each other ("A" and
        // "B" would share a key).
        let cache = OpCache::with_shards(1, 2);
        let mut sig = Sig::new();
        let a = q(&mut sig, "A");
        let b_ = q(&mut sig, "!A");
        let c = q(&mut sig, "A & B");
        let n = sig.width();
        let key = |f: &Formula| QueryKey::new("k", n, &[&ModelSet::of_formula(f, n)]);
        let (ka, kb, kc) = (key(&a), key(&b_), key(&c));
        cache.insert(&ka, CachedValue::Models(vec![Interp(1)]));
        cache.insert(&kb, CachedValue::Models(vec![Interp(2)]));
        // Touch ka so kb becomes least recently used.
        assert!(cache.get(&ka).is_some());
        cache.insert(&kc, CachedValue::Models(vec![Interp(3)]));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&ka).is_some());
        assert!(cache.get(&kb).is_none());
        assert!(cache.get(&kc).is_some());
    }

    #[test]
    fn weighted_roundtrip_hits_with_weights_in_key() {
        let cache = OpCache::new(16);
        let mut sig = Sig::new();
        let psi = q(&mut sig, "A & B");
        let phi = q(&mut sig, "!A & !B");
        let [psi, phi] = mods(&sig, [&psi, &phi]);
        let b = Budget::unlimited();
        let side = |m: &ModelSet, w: u64| weighted_side(m, w);
        let (psi3, phi1) = (side(&psi, 3), side(&phi, 1));
        let (w1, s1) = cached_warbitrate(&cache, &psi3, &phi1, &b).unwrap();
        assert_eq!(s1, CacheStatus::Miss);
        let (w2, s2) = cached_warbitrate(&cache, &psi3, &phi1, &b).unwrap();
        assert_eq!(s2, CacheStatus::Hit);
        assert!(w1.kb.equivalent(&w2.kb));
        // Different weights form a different query.
        let (_, s3) = cached_warbitrate(&cache, &side(&psi, 1), &side(&phi, 3), &b).unwrap();
        assert_eq!(s3, CacheStatus::Miss);
    }

    #[test]
    fn queries_past_the_key_cap_bypass() {
        let cache = OpCache::new(16);
        let mut sig = Sig::new();
        // 2^13 models for ψ: past the cap, so never keyed or stored.
        let psi = q(&mut sig, "V0 | !V0");
        let names: Vec<String> = (0..13).map(|i| format!("V{i}")).collect();
        let mu = q(&mut sig, &names.join(" & "));
        let [psi, mu] = mods(&sig, [&psi, &mu]);
        let b = Budget::unlimited();
        for _ in 0..2 {
            let (out, s) = cached_apply(&cache, &DalalRevision, &psi, &mu, &b).unwrap();
            assert_eq!(s, CacheStatus::Bypass);
            assert_eq!(out.models, mu);
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_and_clear() {
        let cache = OpCache::with_shards(4, 7);
        assert_eq!(cache.capacity(), 8); // 4 shards × ceil(7/4)
        let mut sig = Sig::new();
        let a = q(&mut sig, "A");
        let k = QueryKey::new("k", 1, &[&ModelSet::of_formula(&a, sig.width())]);
        cache.insert(&k, CachedValue::Models(vec![Interp(0)]));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 8);
    }
}
