//! The fast-path selection kernel shared by every enumeration-backed
//! operator.
//!
//! Every operator in this crate has the same computational core: scan a
//! candidate pool, rank each candidate against `Mod(ψ)` by some distance
//! aggregate, and keep the candidates achieving the minimum rank. The
//! naive shape of that loop — rank every candidate from scratch, twice
//! (once to find the minimum, once to filter) — is what this module
//! replaces. Four independent layers compose:
//!
//! 1. **Single-pass selection** ([`select_min`], [`select_min_vec`]): one
//!    scan with a running minimum and a tied set; each candidate is ranked
//!    at most once, and vector ranks reuse buffers instead of allocating.
//! 2. **Bound-pruned aggregation** ([`PopProfile`] and the `*_pruned`
//!    evaluators): the popcount range of `Mod(ψ)` yields an O(1) lower
//!    bound on a candidate's max or min distance; candidates whose bound
//!    already exceeds the running minimum are rejected without touching
//!    `Mod(ψ)`, and max scans abort mid-way once they exceed it. The sum
//!    and the weighted sum need no bound: they separate per bit, so a
//!    [`VoteTally`] of `Mod(ψ)` ranks a candidate exactly in `O(n)` and
//!    names the minima over the universe in closed form — each bit's
//!    weighted-majority value, both values on an even split.
//! 3. **Block-evaluated universe scan for odist**
//!    ([`select_min_block_odist`]): arbitration's candidate pool `𝓜` is
//!    streamed in blocks of 64 candidates that differ only in their low 6
//!    bits, so a block's odist is one popcount per model of `ψ` plus a
//!    lane-wise add and max over a fixed distance table — never
//!    materialized, peak memory proportional to the answer.
//! 4. **Branch-and-bound subcube search for odist**
//!    ([`select_min_subcube_odist`]): whole subcubes of the universe are
//!    pruned against partial-distance and pairwise triangle-inequality
//!    lower bounds on the max — the layer that lets odist arbitration beat
//!    the `2^n` scan floor when `ψ` has few models.
//!
//! The universe dispatcher [`select_min_universe_odist`] makes one
//! comparison on `(n, |Mod(ψ)|)`: the search once
//! `2^n ≥ 8192·|Mod(ψ)|²`, the block scan below that. Everything runs on
//! the calling thread.
//!
//! Each algorithm has exactly one implementation, and it is metered: every
//! selection takes a [`Budget`] and returns a [`BudgetedSelect`]. Scans
//! tick [`BudgetSite::Scan`] per candidate (the block scan, 64 per block;
//! the closed form, per minimum it emits) and subcube searches tick
//! [`BudgetSite::Node`] per node, all through a batching [`Meter`]; a
//! trip leaves a typed, containment-preserving partial answer. An unlimited
//! budget runs the same code and never trips.
//!
//! The pruned evaluators obey one contract, which [`select_min`] relies on
//! for correctness: given a cap (the rank to beat), an evaluator must
//! return the **exact** rank whenever it is `≤ cap` — ties included — and
//! may return `None` only when the rank is provably `> cap`. All pruning
//! therefore uses strict comparisons.
//!
//! The naive implementations every optimized path is differentially tested
//! against live in [`naive`]; `tests/kernel_differential.rs` at the
//! workspace root checks operator-level agreement on random inputs.

use crate::budget::{Budget, BudgetSite, Exhausted, Outcome, Quality, WeightedOutcome};
use crate::error::CoreError;
use crate::telemetry;
use crate::weighted::WeightedKb;
use arbitrex_logic::{Interp, ModelSet};
use arbitrex_telemetry::budget::Meter;

// ---------------------------------------------------------------------------
// Layer 2: popcount-bucket bounds on Mod(ψ)
// ---------------------------------------------------------------------------

/// The popcount range of `Mod(ψ)`, precomputed once per operator
/// application and queried per candidate.
///
/// For any interpretations `I`, `J`: `dist(I, J) ≥ |pop(I) − pop(J)|`
/// (flipping a bit changes the popcount by exactly one). The extreme
/// popcounts of `ψ`'s models therefore bound the max and min distance
/// aggregates from below without looking at the models themselves.
#[derive(Debug, Clone)]
pub struct PopProfile {
    min_pop: u32,
    max_pop: u32,
}

impl PopProfile {
    /// Profile a non-empty model set; `None` when `psi` is empty.
    pub fn of(psi: &ModelSet) -> Option<PopProfile> {
        let pops = psi.iter().map(|j| j.count_true());
        let (min_pop, max_pop) = pops.fold((u32::MAX, 0), |(lo, hi), p| (lo.min(p), hi.max(p)));
        (!psi.is_empty()).then_some(PopProfile { min_pop, max_pop })
    }

    /// Lower bound on `odist(ψ, I) = max_J dist(I, J)`: the distance to the
    /// farther of the two extreme popcount buckets.
    #[inline]
    pub fn odist_lower_bound(&self, i: Interp) -> u32 {
        let p = i.count_true();
        let lo = self.min_pop.abs_diff(p);
        let hi = self.max_pop.abs_diff(p);
        lo.max(hi)
    }

    /// Lower bound on `min_dist(ψ, I) = min_J dist(I, J)`: zero inside the
    /// popcount range, the distance to the nearer end outside it.
    #[inline]
    pub fn min_dist_lower_bound(&self, i: Interp) -> u32 {
        let p = i.count_true();
        if p < self.min_pop {
            self.min_pop - p
        } else {
            p.saturating_sub(self.max_pop)
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 2: bound-pruned distance aggregates
// ---------------------------------------------------------------------------

/// `odist(ψ, I)` with pruning: `None` as soon as the running max (or the
/// profile lower bound) strictly exceeds `cap`.
#[inline]
pub fn odist_pruned(psi: &[Interp], prof: &PopProfile, i: Interp, cap: Option<u32>) -> Option<u32> {
    if let Some(cap) = cap {
        if prof.odist_lower_bound(i) > cap {
            telemetry::PROFILE_PRUNE_HITS.incr();
            return None;
        }
    }
    let mut max = 0u32;
    for &j in psi {
        let d = i.dist(j);
        if d > max {
            if let Some(cap) = cap {
                if d > cap {
                    return None;
                }
            }
            max = d;
        }
    }
    Some(max)
}

/// `min_dist(ψ, I)` with pruning: `None` when the profile lower bound
/// strictly exceeds `cap`; otherwise the exact minimum, stopping early
/// once the scan reaches the lower bound (it cannot improve further).
#[inline]
pub fn min_dist_pruned(
    psi: &[Interp],
    prof: &PopProfile,
    i: Interp,
    cap: Option<u32>,
) -> Option<u32> {
    let lb = prof.min_dist_lower_bound(i);
    if let Some(cap) = cap {
        if lb > cap {
            telemetry::PROFILE_PRUNE_HITS.incr();
            return None;
        }
    }
    let mut min = u32::MAX;
    for &j in psi {
        let d = i.dist(j);
        if d < min {
            min = d;
            if min == lb {
                break;
            }
        }
    }
    Some(min)
}

/// Fill `buf` with the GMax rank vector (distances to each ψ-model, sorted
/// descending) — the buffer-reusing replacement for
/// [`crate::fitting::gmax_vector`]. Returns `false` (buffer contents
/// unspecified) when the vector is provably lexicographically greater than
/// `cap`: its leading entry is the odist, so the odist bounds prune here
/// too.
#[inline]
pub fn gmax_fill_pruned(
    psi: &[Interp],
    prof: &PopProfile,
    i: Interp,
    cap: Option<&[u32]>,
    buf: &mut Vec<u32>,
) -> bool {
    let cap_head = cap.map(|c| c[0]);
    if let Some(ch) = cap_head {
        if prof.odist_lower_bound(i) > ch {
            telemetry::PROFILE_PRUNE_HITS.incr();
            return false;
        }
    }
    buf.clear();
    for &j in psi {
        let d = i.dist(j);
        if let Some(ch) = cap_head {
            // The final leading entry is ≥ d, so d > cap[0] means the
            // whole vector is strictly greater.
            if d > ch {
                return false;
            }
        }
        buf.push(d);
    }
    buf.sort_unstable_by(|a, b| b.cmp(a));
    true
}

// ---------------------------------------------------------------------------
// Selection results: incumbents, frontier, trip
// ---------------------------------------------------------------------------

/// Result of a kernel selection: the incumbents, the unexplored frontier,
/// and the trip that ended the search (if any).
///
/// Containment contract (checked in `tests/budget_containment.rs`): when
/// `trip` is `None` the result equals the exact selection. When the search
/// was interrupted, `minima ∪ frontier` is a **superset** of the exact
/// minima — cutting is sound even mid-search, because a subcube is only cut
/// when its lower bound strictly exceeds a best key that some visited (or
/// probed) candidate actually achieves. A `None` frontier means the
/// unexplored region was too large to materialize (past
/// [`Budget::frontier_limit`]) and only the incumbents survive.
#[derive(Debug, Clone)]
pub struct BudgetedSelect<K> {
    /// The best key among visited candidates (for an interrupted search, an
    /// upper bound on the true minimum).
    pub best: Option<K>,
    /// Candidates achieving `best` among those visited.
    pub minima: ModelSet,
    /// Candidates never ranked before the trip: `Some(vec![])` for an
    /// exact search, `Some(..)` when materialized within the frontier
    /// limit, `None` on frontier overflow.
    pub frontier: Option<Vec<Interp>>,
    /// The budget trip that stopped the search, if any.
    pub trip: Option<Exhausted>,
}

impl<K> BudgetedSelect<K> {
    /// A complete selection with nothing left unexplored.
    pub(crate) fn exact(best: Option<K>, minima: ModelSet) -> Self {
        BudgetedSelect {
            best,
            minima,
            frontier: Some(Vec::new()),
            trip: None,
        }
    }

    /// The [`Quality`] level this selection supports.
    pub fn quality(&self) -> Quality {
        match (&self.trip, &self.frontier) {
            (None, _) => Quality::Exact,
            (Some(_), Some(_)) => Quality::UpperBound,
            (Some(_), None) => Quality::Interrupted,
        }
    }

    /// The answer's models and quality: `minima ∪ frontier` for an upper
    /// bound, the incumbents for everything else.
    fn into_models(self) -> (ModelSet, Quality) {
        let quality = self.quality();
        let models = match (quality, self.frontier) {
            (Quality::UpperBound, Some(f)) if !f.is_empty() => {
                let n = self.minima.n_vars();
                self.minima.union(&ModelSet::new(n, f))
            }
            _ => self.minima,
        };
        (models, quality)
    }

    /// Convert into an operator [`Outcome`]: upper-bound results return
    /// `minima ∪ frontier`, everything else returns the incumbents.
    pub fn into_outcome(self, budget: &Budget) -> Outcome {
        let (models, quality) = self.into_models();
        Outcome::new(models, quality, budget)
    }

    /// Convert into a [`WeightedOutcome`], giving every returned model —
    /// minimizer and unrefuted frontier member alike — the weight `weight`
    /// assigns it, which preserves the weighted `Min` semantics on
    /// degradation.
    pub(crate) fn into_weighted_outcome(
        self,
        budget: &Budget,
        weight: impl Fn(Interp) -> u64,
    ) -> WeightedOutcome {
        let (models, quality) = self.into_models();
        let kb = WeightedKb::from_weights(models.n_vars(), models.iter().map(|i| (i, weight(i))));
        WeightedOutcome::new(kb, quality, budget)
    }
}

/// Drain the unscanned tail of a candidate pool into a frontier, bailing
/// out (`None`) as soon as it exceeds `limit`.
fn collect_frontier(rest: impl Iterator<Item = Interp>, limit: u64) -> Option<Vec<Interp>> {
    let mut out: Vec<Interp> = Vec::new();
    for i in rest {
        if out.len() as u64 >= limit {
            telemetry::FRONTIER_OVERFLOWS.incr();
            return None;
        }
        out.push(i);
    }
    telemetry::FRONTIER_MODELS.add(out.len() as u64);
    Some(out)
}

/// Materialize the interpretations of disjoint `(assigned-prefix, depth)`
/// subcubes — free bits are `order[depth..]` — unless their total count
/// exceeds `limit`.
fn expand_frontier(order: &[u32], subcubes: &[(u64, usize)], limit: u64) -> Option<Vec<Interp>> {
    let mut total = 0u64;
    for &(_, depth) in subcubes {
        let free = (order.len() - depth) as u32;
        let count = 1u64.checked_shl(free).unwrap_or(u64::MAX);
        total = total.saturating_add(count);
        if total > limit {
            telemetry::FRONTIER_OVERFLOWS.incr();
            return None;
        }
    }
    let mut out: Vec<Interp> = Vec::with_capacity(total as usize);
    for &(prefix, depth) in subcubes {
        let free_bits = &order[depth..];
        for m in 0..1u64 << free_bits.len() {
            let mut bits = prefix;
            for (idx, &b) in free_bits.iter().enumerate() {
                if m >> idx & 1 == 1 {
                    bits |= 1 << b;
                }
            }
            out.push(Interp(bits));
        }
    }
    telemetry::FRONTIER_MODELS.add(out.len() as u64);
    Some(out)
}

// ---------------------------------------------------------------------------
// Layer 1: single-pass ranked selection
// ---------------------------------------------------------------------------

/// Close a metered scan: record its telemetry and, if the meter tripped
/// on the unranked candidate `first`, drain it and the unscanned `rest`
/// into the frontier.
fn finish_scan<K>(
    n_vars: u32,
    best: Option<K>,
    tied: Vec<Interp>,
    (scanned, pruned): (u64, u64),
    tripped: Option<(Exhausted, Interp)>,
    rest: impl Iterator<Item = Interp>,
    budget: &Budget,
) -> BudgetedSelect<K> {
    telemetry::SELECTIONS.incr();
    telemetry::CANDIDATES_SCANNED.add(scanned);
    telemetry::CANDIDATES_PRUNED.add(pruned);
    telemetry::TIES_KEPT.add(tied.len() as u64);
    let (trip, frontier) = match tripped {
        None => (None, Some(Vec::new())),
        Some((t, first)) => (
            Some(t),
            collect_frontier(std::iter::once(first).chain(rest), budget.frontier_limit()),
        ),
    };
    BudgetedSelect {
        best,
        minima: ModelSet::new(n_vars, tied),
        frontier,
        trip,
    }
}

/// Single-pass `Min(candidates, ≤_rank)`: one scan with a running minimum
/// and a tied set, each candidate ranked at most once.
///
/// `eval(i, cap)` receives the current best rank as the cap and must
/// follow the pruned-evaluator contract (exact rank when `≤ cap`, `None`
/// only when `> cap`). Returns the minimum rank and the set achieving it.
///
/// Each ranked candidate ticks a [`BudgetSite::Scan`] meter; on a trip the
/// unscanned tail becomes the frontier. The meter batches its limit
/// checks (every [`METER_STRIDE`](arbitrex_telemetry::budget::METER_STRIDE)
/// candidates unless a fault is armed on the scan site), so a trip may be observed up to one stride late — the
/// extra candidates were ranked exactly, which never affects correctness,
/// only how much work the trip saves.
pub fn select_min<K, E, I>(
    n_vars: u32,
    candidates: I,
    mut eval: E,
    budget: &Budget,
) -> BudgetedSelect<K>
where
    K: Ord,
    E: FnMut(Interp, Option<&K>) -> Option<K>,
    I: IntoIterator<Item = Interp>,
{
    let mut best: Option<K> = None;
    let mut tied: Vec<Interp> = Vec::new();
    // Batched into locals so the disabled-telemetry build can eliminate the
    // bookkeeping entirely.
    let (mut scanned, mut pruned) = (0u64, 0u64);
    let mut meter = budget.meter(BudgetSite::Scan);
    let mut iter = candidates.into_iter();
    let mut tripped = None;
    for i in iter.by_ref() {
        if let Err(t) = meter.tick() {
            // `i` was never ranked: it belongs to the frontier.
            tripped = Some((t, i));
            break;
        }
        scanned += 1;
        if let Some(k) = eval(i, best.as_ref()) {
            match best.as_ref() {
                Some(b) if k > *b => {}
                Some(b) if k == *b => tied.push(i),
                _ => {
                    best = Some(k);
                    tied.clear();
                    tied.push(i);
                }
            }
        } else {
            pruned += 1;
        }
    }
    finish_scan(n_vars, best, tied, (scanned, pruned), tripped, iter, budget)
}

/// [`select_min`] for *vector* ranks, with buffer reuse: the candidate and
/// best-so-far vectors live in two swapped buffers, so ranking allocates
/// nothing once the buffers reach capacity.
///
/// `fill(i, cap, buf)` writes `i`'s rank vector into `buf` and returns
/// `true`, or returns `false` when the vector is provably `> cap`
/// (same contract as the scalar evaluators, lexicographic order).
/// Metered exactly like [`select_min`].
pub fn select_min_vec<E, I>(
    n_vars: u32,
    candidates: I,
    mut fill: E,
    budget: &Budget,
) -> BudgetedSelect<Vec<u32>>
where
    E: FnMut(Interp, Option<&[u32]>, &mut Vec<u32>) -> bool,
    I: IntoIterator<Item = Interp>,
{
    let mut best: Vec<u32> = Vec::new();
    let mut cand: Vec<u32> = Vec::new();
    let mut tied: Vec<Interp> = Vec::new();
    let (mut scanned, mut pruned) = (0u64, 0u64);
    let mut meter = budget.meter(BudgetSite::Scan);
    let mut iter = candidates.into_iter();
    let mut tripped = None;
    for i in iter.by_ref() {
        if let Err(t) = meter.tick() {
            tripped = Some((t, i));
            break;
        }
        scanned += 1;
        let cap = if tied.is_empty() {
            None
        } else {
            Some(best.as_slice())
        };
        if !fill(i, cap, &mut cand) {
            pruned += 1;
            continue;
        }
        if tied.is_empty() || cand < best {
            std::mem::swap(&mut best, &mut cand);
            tied.clear();
            tied.push(i);
        } else if cand == best {
            tied.push(i);
        }
    }
    let best = (!tied.is_empty()).then_some(best);
    finish_scan(n_vars, best, tied, (scanned, pruned), tripped, iter, budget)
}

// ---------------------------------------------------------------------------
// Layer 2: per-bit vote tallies (sum and weighted sum in closed form)
// ---------------------------------------------------------------------------

/// The per-bit vote tally of a weighted `Mod(ψ)`: for each bit `b` the
/// weight of the models with `b` set, and the total weight.
///
/// For Hamming distance the weighted sum splits per bit:
/// `Σ_J w(J)·dist(I, J) = Σ_b c_b(I_b)`, where `c_b(v)` is the weight of
/// the models whose bit `b` is not `v` — `ones_b` for `v = 0` and
/// `total − ones_b` for `v = 1`. So [`VoteTally::rank`] is exact in `O(n)`,
/// and over the whole universe the minima are the product of each bit's
/// weighted-majority value, with both values kept where the split is even
/// ([`VoteTally::universe_minima`]): Example 4.1's majority in closed form.
/// Unit weights give the unweighted sum.
///
/// Weights add up in `u128`, which no support of `u64` weights can
/// overflow.
#[derive(Debug, Clone)]
pub struct VoteTally {
    n_vars: u32,
    /// `ones[b]` = total weight of the models with bit `b` set.
    ones: Vec<u128>,
    total: u128,
}

impl VoteTally {
    /// Tally weighted models over `n_vars` bits in one `O(n·|Mod ψ|)` pass.
    pub fn of(n_vars: u32, models: impl IntoIterator<Item = (Interp, u64)>) -> VoteTally {
        let mut ones = vec![0u128; n_vars as usize];
        let mut total = 0u128;
        for (j, w) in models {
            let w = u128::from(w);
            total += w;
            let mut bits = j.0;
            while bits != 0 {
                ones[bits.trailing_zeros() as usize] += w;
                bits &= bits - 1;
            }
        }
        VoteTally {
            n_vars,
            ones,
            total,
        }
    }

    /// `Σ_J w(J)·dist(I, J)`, exactly.
    #[inline]
    pub fn rank(&self, i: Interp) -> u128 {
        let mut rank = 0u128;
        for (b, &ones) in self.ones.iter().enumerate() {
            rank += if i.0 >> b & 1 == 1 {
                self.total - ones
            } else {
                ones
            };
        }
        rank
    }

    /// `Min(𝓜, ≤_rank)` without a search: every bit takes its
    /// weighted-majority value, and both values where the split is even,
    /// so `t` even splits give `2^t` minima, all of rank
    /// `Σ_b min(ones_b, total − ones_b)`.
    ///
    /// Each emitted minimum ticks [`BudgetSite::Scan`]. On a trip the
    /// minima not yet emitted become the frontier; all of them are true
    /// minima, so the answer is an upper bound holding exactly the minima,
    /// or interrupted if they overflow [`Budget::frontier_limit`].
    ///
    /// Returns [`CoreError::EnumLimitExceeded`] past `ENUM_LIMIT`, like
    /// every universe selection.
    pub fn universe_minima(&self, budget: &Budget) -> Result<BudgetedSelect<u128>, CoreError> {
        CoreError::check_enum_limit(self.n_vars)?;
        let _span = telemetry::UNIVERSE_SEARCH.span();
        let (mut fixed, mut free, mut best) = (0u64, 0u64, 0u128);
        for (b, &ones) in self.ones.iter().enumerate() {
            // Setting bit `b` costs the weight of the models without it.
            let zeros = self.total - ones;
            match zeros.cmp(&ones) {
                std::cmp::Ordering::Less => fixed |= 1 << b,
                std::cmp::Ordering::Equal => free |= 1 << b,
                std::cmp::Ordering::Greater => {}
            }
            best += zeros.min(ones);
        }
        // The subsets of `free` in increasing order, each over `fixed`.
        let mut next = Some(0u64);
        let mut minima = std::iter::from_fn(|| {
            let s = next?;
            next = (s != free).then(|| s.wrapping_sub(free) & free);
            Some(Interp(fixed | s))
        });
        let mut meter = budget.meter(BudgetSite::Scan);
        let mut emitted: Vec<Interp> = Vec::new();
        let mut tripped = None;
        for i in minima.by_ref() {
            if let Err(t) = meter.tick() {
                tripped = Some((t, i));
                break;
            }
            emitted.push(i);
        }
        let scanned = (emitted.len() as u64, 0);
        Ok(finish_scan(
            self.n_vars,
            Some(best),
            emitted,
            scanned,
            tripped,
            minima,
            budget,
        ))
    }
}

// ---------------------------------------------------------------------------
// Layer 3: block-evaluated universe scan for odist
// ---------------------------------------------------------------------------

/// `LOW_DIST[a][c]` = `dist(a, c)` over the low 6 bits.
const LOW_DIST: [[u8; 64]; 64] = {
    let mut t = [[0u8; 64]; 64];
    let mut a = 0;
    while a < 64 {
        let mut c = 0;
        while c < 64 {
            t[a][c] = (a ^ c).count_ones() as u8;
            c += 1;
        }
        a += 1;
    }
    t
};

/// `Min(𝓜, ≤_odist)` by scanning the universe in blocks of 64 candidates
/// `hi‖c` that share their bits above the low 6. Within a block
/// `dist(J, hi‖c) = popcount(J_hi ^ hi) + LOW_DIST[J_lo][c]`: one popcount
/// per model, then a lane-wise add and max over `Mod(ψ)` on a `[u8; 64]`
/// that the compiler vectorizes. Below 6 variables the one block is
/// masked to its `2^n` lanes. The universe is streamed, never
/// materialized: peak memory is proportional to the answer.
///
/// Each block charges [`BudgetSite::Scan`] once with its lane count, so an
/// exact scan spends `2^n` scans. On a trip the tripping block and every
/// later one become the frontier whole. Ranking prunes nothing, so the
/// answer is exact whenever the budget holds.
///
/// `models` must be non-empty.
pub fn select_min_block_odist(
    n_vars: u32,
    models: &[Interp],
    budget: &Budget,
) -> BudgetedSelect<u32> {
    let lanes = 1u64 << n_vars.min(6);
    let total = 1u64 << n_vars;
    let mut best: Option<u8> = None;
    let mut tied: Vec<Interp> = Vec::new();
    let mut meter = budget.meter(BudgetSite::Scan);
    let mut tripped = None;
    let mut start = 0u64;
    while start < total {
        if let Err(t) = meter.tick_n(lanes) {
            tripped = Some((t, Interp(start)));
            break;
        }
        let hi = start >> 6;
        let mut acc = [0u8; 64];
        for j in models {
            let d_hi = ((j.0 >> 6) ^ hi).count_ones() as u8;
            for (a, &t) in acc.iter_mut().zip(&LOW_DIST[(j.0 & 63) as usize]) {
                *a = (*a).max(d_hi + t);
            }
        }
        let acc = &acc[..lanes as usize];
        let low = acc.iter().copied().min().unwrap_or(0);
        if best.is_none_or(|b| low < b) {
            best = Some(low);
            tied.clear();
        }
        if best == Some(low) {
            let at = acc.iter().enumerate().filter(|&(_, &d)| d == low);
            tied.extend(at.map(|(c, _)| Interp(start | c as u64)));
        }
        start += lanes;
    }
    let rest = (start + 1..total).map(Interp);
    let best = best.map(u32::from);
    finish_scan(n_vars, best, tied, (start, 0), tripped, rest, budget)
}

// ---------------------------------------------------------------------------
// Layer 4: branch-and-bound subcube search for odist over the universe
// ---------------------------------------------------------------------------

/// Bits where the models disagree most, first: balanced bits force the
/// partial distances up whichever value is chosen, so bounds tighten at
/// shallow depth.
fn discriminating_bit_order(n_vars: u32, models: &[Interp]) -> Vec<u32> {
    let k = models.len();
    let mut order: Vec<u32> = (0..n_vars).collect();
    order.sort_by_key(|&b| {
        let ones = models.iter().filter(|j| j.0 >> b & 1 == 1).count();
        std::cmp::Reverse(ones.min(k - ones))
    });
    order
}

/// The depth-first descent of [`select_min_subcube_odist`], with the state
/// its bound reads: the partial distances `d` and the pair sums `s`.
struct SubcubeSearch<'a> {
    models: &'a [Interp],
    pairs: &'a [(usize, usize)],
    order: &'a [u32],
    /// Partial distance to each model of ψ on the assigned bits.
    d: Vec<u32>,
    /// `s_ik` per kept pair.
    s: Vec<u32>,
    best: Option<u32>,
    tied: Vec<u64>,
    /// Nodes expanded / children cut, accumulated locally and flushed once
    /// per search.
    nodes: u64,
    cut: u64,
    /// Charges every node expansion to [`BudgetSite::Node`], batched like
    /// scan ticks.
    meter: Meter<'a>,
    /// The trip that stopped the search, if the budget gave out.
    stopped: Option<Exhausted>,
    /// Subcubes abandoned unexplored by the trip unwind, as
    /// `(assigned-prefix, depth)` pairs — free bits are `order[depth..]`.
    frontier: Vec<(u64, usize)>,
}

impl SubcubeSearch<'_> {
    /// Add (`up`) or remove (`!up`) bit `bit = v`'s contribution.
    fn shift(&mut self, bit: u32, v: u64, up: bool) {
        for (dj, m) in self.d.iter_mut().zip(self.models) {
            if (m.0 >> bit & 1) != v {
                *dj = if up { *dj + 1 } else { *dj - 1 };
            }
        }
        for (sx, &(i, k)) in self.s.iter_mut().zip(self.pairs) {
            if (self.models[i].0 >> bit & 1) != v && (self.models[k].0 >> bit & 1) != v {
                *sx = if up { *sx + 2 } else { *sx - 2 };
            }
        }
    }

    /// Lower bound on every candidate of the child subcube `bit = v`: the
    /// partial-distance max sharpened by the pair sums, computed in one
    /// pass without touching the state.
    fn child_bound(&self, bit: u32, v: u64) -> u32 {
        let mut dm = 0u32;
        for (dj, m) in self.d.iter().zip(self.models) {
            dm = dm.max(dj + ((m.0 >> bit & 1) != v) as u32);
        }
        let mut sm = 0u32;
        for (sx, &(i, k)) in self.s.iter().zip(self.pairs) {
            let both = (self.models[i].0 >> bit & 1) != v && (self.models[k].0 >> bit & 1) != v;
            sm = sm.max(sx + 2 * both as u32);
        }
        dm.max(sm.div_ceil(2))
    }

    fn descend(&mut self, depth: usize, prefix: u64) {
        if self.stopped.is_some() {
            // A budget trip is unwinding the search: every subcube reached
            // from here on is recorded unexplored instead of visited.
            self.frontier.push((prefix, depth));
            return;
        }
        self.nodes += 1;
        if let Err(t) = self.meter.tick() {
            self.stopped = Some(t);
            self.frontier.push((prefix, depth));
            return;
        }
        if depth == self.order.len() {
            let key = self.d.iter().copied().max().unwrap_or(0);
            match self.best {
                Some(b) if key > b => {}
                Some(b) if key == b => self.tied.push(prefix),
                _ => {
                    self.best = Some(key);
                    self.tied.clear();
                    self.tied.push(prefix);
                }
            }
            return;
        }
        let bit = self.order[depth];
        let bounds = [self.child_bound(bit, 0), self.child_bound(bit, 1)];
        let visit = if bounds[0] <= bounds[1] {
            [0u64, 1]
        } else {
            [1, 0]
        };
        for v in visit {
            // Re-check against the cap each time: the first child may have
            // tightened it.
            if self.best.is_some_and(|b| bounds[v as usize] > b) {
                self.cut += 1;
                continue;
            }
            self.shift(bit, v, true);
            self.descend(depth + 1, prefix | (v << bit));
            self.shift(bit, v, false);
        }
    }
}

/// Branch-and-bound `Min(𝓜, ≤_odist)` — the search that lets arbitration
/// beat the `2^n` linear-scan floor.
///
/// Rather than visiting all `2^n` candidates, the search assigns variables
/// one at a time (most-discriminating bit first) and tracks, for every
/// model `J` of ψ, the Hamming distance accumulated on the decided bits.
/// Distances only grow as bits are fixed, so their max lower-bounds every
/// candidate in the subcube. A subcube whose bound strictly exceeds the
/// best odist found so far is discarded whole — `2^free` candidates pruned
/// with `O(|ψ|)` work. Ties survive: only strictly worse subcubes are cut.
/// The two children of each node are explored better-bound-first, so a
/// near-optimal candidate is found early and the cap tightens immediately.
///
/// A second bound sharpens the first. For any candidate `J` the triangle
/// inequality gives `dist(I_i, J) + dist(I_k, J) ≥ dist(I_i, I_k)`, so the
/// odist of every candidate is at least `⌈max_{i<k} dist(I_i, I_k) / 2⌉` —
/// a bound that is already within a factor of two of the optimum *at the
/// root*, where the partial-distance bound is still zero. The search
/// maintains, per model pair, the invariant `s_ik = d_i + d_k + freediff_ik`
/// (partial distances plus the number of still-free bits where the pair
/// disagrees): assigning a bit the pair disagrees on moves one unit from
/// `freediff` to a partial distance (`s` unchanged), while mismatching both
/// members of an agreeing pair adds two. Any completion satisfies
/// `dist_i + dist_k ≥ s_ik`, so `⌈max s / 2⌉` lower-bounds the subcube and
/// only tightens with depth.
///
/// The search is seeded with `odist_probe`'s achieved upper bound. That
/// is safe, interrupted or not: only strictly worse subcubes are pruned,
/// so every candidate matching the probe's key (including the probe
/// itself) is still visited or left in the frontier.
///
/// Every node expansion ticks a [`BudgetSite::Node`] meter; on a trip the
/// recursion unwinds, recording each unvisited subcube, and the frontier is
/// their materialization.
///
/// Returns the minimum odist and all candidates achieving it.
/// `models` must be non-empty.
pub fn select_min_subcube_odist(
    n_vars: u32,
    models: &[Interp],
    budget: &Budget,
) -> BudgetedSelect<u32> {
    assert!(!models.is_empty(), "subcube search needs a non-empty psi");
    let (pairs, s) = odist_pairs(models);
    let order = discriminating_bit_order(n_vars, models);
    let mut search = SubcubeSearch {
        models,
        pairs: &pairs,
        order: &order,
        d: vec![0; models.len()],
        s,
        best: Some(odist_probe(n_vars, models)),
        tied: Vec::new(),
        nodes: 0,
        cut: 0,
        meter: budget.meter(BudgetSite::Node),
        stopped: None,
        frontier: Vec::new(),
    };
    search.descend(0, 0);
    telemetry::BNB_NODES_OPENED.add(search.nodes);
    telemetry::BNB_NODES_CUT.add(search.cut);
    telemetry::SELECTIONS.incr();
    telemetry::TIES_KEPT.add(search.tied.len() as u64);
    let frontier = match search.stopped {
        None => Some(Vec::new()),
        Some(_) => expand_frontier(&order, &search.frontier, budget.frontier_limit()),
    };
    BudgetedSelect {
        best: search.best,
        minima: ModelSet::new(n_vars, search.tied.into_iter().map(Interp)),
        frontier,
        trip: search.stopped,
    }
}

/// A cheap upper bound on the minimum odist, *achieved by some candidate*:
/// the best of the coordinate-wise majority vote, the midpoint of the
/// farthest model pair, and every model of ψ itself. Seeding the search
/// with it means pruning is fully armed before the first descent.
fn odist_probe(n_vars: u32, models: &[Interp]) -> u32 {
    let m = models.len();
    let ecc = |j: u64| {
        models
            .iter()
            .map(|i| (i.0 ^ j).count_ones())
            .max()
            .unwrap_or(0)
    };
    let mut maj = 0u64;
    for b in 0..n_vars {
        let ones = models.iter().filter(|j| j.0 >> b & 1 == 1).count();
        if ones * 2 > m {
            maj |= 1 << b;
        }
    }
    let mut best = ecc(maj);
    let mut far = (0usize, 0usize, 0u32);
    for i in 0..m {
        for k in i + 1..m {
            let dist = (models[i].0 ^ models[k].0).count_ones();
            if dist > far.2 {
                far = (i, k, dist);
            }
        }
    }
    let mut xor = models[far.0].0 ^ models[far.1].0;
    let mut mid = models[far.0].0;
    for _ in 0..far.2 / 2 {
        mid ^= 1 << xor.trailing_zeros();
        xor &= xor - 1;
    }
    best = best.min(ecc(mid));
    for j in models {
        best = best.min(ecc(j.0));
    }
    best
}

/// Model-index pairs and their root `s_ik = dist(I_i, I_k)` values.
///
/// Only the `4·m` widest pairs are kept: the bound is a max, so dropping
/// pairs is always sound (it merely weakens pruning), and the widest pairs
/// are the ones that dominate it — while the full quadratic set would make
/// every node's bound scan `O(m²)` for large unions.
fn odist_pairs(models: &[Interp]) -> (Vec<(usize, usize)>, Vec<u32>) {
    let m = models.len();
    let mut scored: Vec<(u32, (usize, usize))> = (0..m)
        .flat_map(|i| (i + 1..m).map(move |k| (i, k)))
        .map(|(i, k)| ((models[i].0 ^ models[k].0).count_ones(), (i, k)))
        .collect();
    scored.sort_by_key(|&(s, _)| std::cmp::Reverse(s));
    scored.truncate(4 * m);
    scored.into_iter().map(|(s, p)| (p, s)).unzip()
}

/// Whether the odist branch-and-bound search beats the block scan: once
/// the scan's work `2^n·m` reaches `ODIST_WORK_PER_CUBED_MODEL·m³` for
/// `m = |Mod(ψ)|` (equivalently, once `2^n ≥ ODIST_WORK_PER_CUBED_MODEL·m²`).
/// The search's cost grows with the per-model state each node updates and
/// with the nodes a spread-out `ψ` leaves unpruned, so a larger `ψ` needs
/// a wider universe before pruning pays.
fn prefers_subcube(n_vars: u32, psi_len: usize) -> bool {
    let m = psi_len as u128;
    1u128 << n_vars >= u128::from(ODIST_WORK_PER_CUBED_MODEL) * m * m
}

/// [`prefers_subcube`]'s constant: the median `2^n/m²` from which E12's
/// crossover table (`m` from 2 to 32, three runs pooled) sees the
/// pairwise-bounded search beat the block scan, rounded to a power of two.
/// In that table the search wins only for `m` from 3 to 6, from 17
/// variables up.
const ODIST_WORK_PER_CUBED_MODEL: u64 = 8192;

/// `Min(𝓜, ≤_odist)` over the whole universe: the pairwise-bounded
/// branch-and-bound search once `2^n ≥ 8192·|Mod(ψ)|²`
/// (`ODIST_WORK_PER_CUBED_MODEL`), otherwise the block scan
/// [`select_min_block_odist`]. This is the path arbitration itself takes
/// (`ψ Δ φ = Mod(ψ ∨ φ) ▷ ⊤` minimizes odist), and lex-odist reads its
/// answer from the same selection.
///
/// Returns [`CoreError::EnumLimitExceeded`] instead of selecting over more
/// than `2^ENUM_LIMIT` candidates.
pub fn select_min_universe_odist(
    n_vars: u32,
    models: &[Interp],
    budget: &Budget,
) -> Result<BudgetedSelect<u32>, CoreError> {
    CoreError::check_enum_limit(n_vars)?;
    let _span = telemetry::UNIVERSE_SEARCH.span();
    if prefers_subcube(n_vars, models.len()) {
        return Ok(select_min_subcube_odist(n_vars, models, budget));
    }
    Ok(select_min_block_odist(n_vars, models, budget))
}

// ---------------------------------------------------------------------------
// Naive oracles
// ---------------------------------------------------------------------------

pub mod naive {
    //! Specification-shaped implementations of every operator the kernel
    //! accelerates, kept as differential-testing oracles.
    //!
    //! Each function is the direct transcription of its paper definition:
    //! two-pass minimum selection over the full candidate pool, distance
    //! aggregates from [`crate::distance`], and a materialized universe
    //! for arbitration. Nothing here prunes, streams, caches, or threads —
    //! slow on purpose, and obviously correct.

    use crate::distance::{min_dist, odist, sum_dist, wdist};
    use crate::weighted::WeightedKb;
    use arbitrex_logic::{Interp, ModelSet};

    /// The pre-kernel `min_by_rank`: find the minimum rank in one pass,
    /// filter for it in a second — every rank computed twice.
    pub fn min_by_rank_two_pass<K: Ord, F: Fn(Interp) -> K>(s: &ModelSet, rank: F) -> ModelSet {
        let best = s.iter().map(&rank).min();
        match best {
            None => ModelSet::empty(s.n_vars()),
            Some(b) => ModelSet::new(s.n_vars(), s.iter().filter(|&i| rank(i) == b)),
        }
    }

    /// Oracle for [`crate::fitting::OdistFitting`].
    pub fn odist_fitting(psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        if psi.is_empty() {
            return ModelSet::empty(mu.n_vars());
        }
        min_by_rank_two_pass(mu, |i| odist(psi, i).expect("psi nonempty"))
    }

    /// Oracle for [`crate::fitting::LexOdistFitting`].
    pub fn lex_odist_fitting(psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        if psi.is_empty() {
            return ModelSet::empty(mu.n_vars());
        }
        min_by_rank_two_pass(mu, |i| (odist(psi, i).expect("psi nonempty"), i.0))
    }

    /// Oracle for [`crate::fitting::SumFitting`].
    pub fn sum_fitting(psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        if psi.is_empty() {
            return ModelSet::empty(mu.n_vars());
        }
        min_by_rank_two_pass(mu, |i| sum_dist(psi, i).expect("psi nonempty"))
    }

    /// Oracle for [`crate::fitting::GMaxFitting`]: a fresh allocated,
    /// sorted distance vector per candidate per pass.
    pub fn gmax_fitting(psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        if psi.is_empty() {
            return ModelSet::empty(mu.n_vars());
        }
        min_by_rank_two_pass(mu, |i| {
            let mut v: Vec<u32> = psi.iter().map(|j| i.dist(j)).collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        })
    }

    /// Oracle for [`crate::revision::DalalRevision`].
    pub fn dalal_revision(psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        if psi.is_empty() {
            return mu.clone();
        }
        min_by_rank_two_pass(mu, |i| min_dist(psi, i).expect("psi nonempty"))
    }

    /// Oracle for [`crate::update::WinslettUpdate`]: per-model ⊆-minimal
    /// selection with difference masks recomputed on every membership
    /// check.
    pub fn winslett_update(psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        let mut out: Vec<Interp> = Vec::new();
        for j in psi.iter() {
            let diffs: Vec<u64> = mu.iter().map(|i| i.diff_mask(j)).collect();
            let minimal: Vec<u64> = diffs
                .iter()
                .copied()
                .filter(|&m| !diffs.iter().any(|&o| o != m && o & !m == 0))
                .collect();
            out.extend(mu.iter().filter(|&i| minimal.contains(&i.diff_mask(j))));
        }
        ModelSet::new(mu.n_vars(), out)
    }

    /// Oracle for [`crate::update::ForbusUpdate`]: two passes over `μ` per
    /// model of `ψ`.
    pub fn forbus_update(psi: &ModelSet, mu: &ModelSet) -> ModelSet {
        let mut out: Vec<Interp> = Vec::new();
        for j in psi.iter() {
            if let Some(best) = mu.iter().map(|i| i.dist(j)).min() {
                out.extend(mu.iter().filter(|&i| i.dist(j) == best));
            }
        }
        ModelSet::new(mu.n_vars(), out)
    }

    /// Oracle for [`crate::wfitting::WdistFitting`].
    pub fn wdist_fitting(psi: &WeightedKb, mu: &WeightedKb) -> WeightedKb {
        if !psi.is_satisfiable() {
            return WeightedKb::unsatisfiable(mu.n_vars());
        }
        let best = mu
            .support()
            .map(|(i, _)| wdist(psi, i).expect("psi satisfiable"))
            .min();
        let best = match best {
            Some(b) => b,
            None => return WeightedKb::unsatisfiable(mu.n_vars()),
        };
        WeightedKb::from_weights(
            mu.n_vars(),
            mu.support().filter(|&(i, _)| wdist(psi, i) == Some(best)),
        )
    }

    /// Oracle for [`crate::arbitration::arbitrate`]: materialize `𝓜`, fit
    /// with the two-pass odist selection.
    pub fn arbitrate(psi: &ModelSet, phi: &ModelSet) -> ModelSet {
        odist_fitting(&psi.union(phi), &ModelSet::all(psi.n_vars()))
    }

    /// Oracle for [`crate::arbitration::warbitrate`]: materialize `𝓜̃`.
    pub fn warbitrate(psi: &WeightedKb, phi: &WeightedKb) -> WeightedKb {
        wdist_fitting(&psi.join(phi), &WeightedKb::all(psi.n_vars()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{min_dist, odist, sum_dist, wdist};
    use arbitrex_logic::all_interps;

    /// Pseudo-random model set derived from a seed, over n ≤ 6 vars.
    fn scrambled(n: u32, seed: u64) -> ModelSet {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let count = (x % (1 << n.min(4))) as usize + 1;
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
    fn pop_profile_bounds_are_sound() {
        for seed in 0..64u64 {
            let psi = scrambled(6, seed);
            let prof = PopProfile::of(&psi).unwrap();
            for bits in 0..64u64 {
                let i = Interp(bits);
                assert!(prof.odist_lower_bound(i) <= odist(&psi, i).unwrap());
                assert!(prof.min_dist_lower_bound(i) <= min_dist(&psi, i).unwrap());
            }
        }
    }

    #[test]
    fn pop_profile_of_empty_is_none() {
        assert!(PopProfile::of(&ModelSet::empty(3)).is_none());
    }

    #[test]
    fn pruned_evaluators_are_exact_at_or_below_cap() {
        for seed in 0..32u64 {
            let psi = scrambled(6, seed);
            let slice = psi.as_slice();
            let prof = PopProfile::of(&psi).unwrap();
            for bits in 0..64u64 {
                let i = Interp(bits);
                let od = odist(&psi, i).unwrap();
                let md = min_dist(&psi, i).unwrap();
                // No cap: always exact.
                assert_eq!(odist_pruned(slice, &prof, i, None), Some(od));
                assert_eq!(min_dist_pruned(slice, &prof, i, None), Some(md));
                // Cap at the exact value (a tie): still exact.
                assert_eq!(odist_pruned(slice, &prof, i, Some(od)), Some(od));
                // Cap strictly below: may be None, never a wrong value.
                if od > 0 {
                    assert!(matches!(
                        odist_pruned(slice, &prof, i, Some(od - 1)),
                        None | Some(_) if odist_pruned(slice, &prof, i, Some(od - 1)).unwrap_or(od) == od
                    ));
                }
                // min_dist returns exact values whenever it returns.
                if let Some(got) = min_dist_pruned(slice, &prof, i, Some(md)) {
                    assert_eq!(got, md);
                }
            }
        }
    }

    #[test]
    fn select_min_matches_two_pass_selection() {
        for seed in 0..64u64 {
            let s = scrambled(6, seed);
            let rank = |i: Interp| i.0.wrapping_mul(0x9E3779B9) % 7;
            let expect = naive::min_by_rank_two_pass(&s, rank);
            let sel = select_min(6, s.iter(), |i, _| Some(rank(i)), &Budget::unlimited());
            assert_eq!(sel.minima, expect);
            assert_eq!(sel.best, expect.iter().next().map(rank));
        }
    }

    #[test]
    fn select_min_of_empty_pool() {
        let sel = select_min::<u32, _, _>(
            3,
            std::iter::empty(),
            |_, _| unreachable!(),
            &Budget::unlimited(),
        );
        assert!(sel.best.is_none());
        assert!(sel.minima.is_empty());
    }

    #[test]
    fn select_min_vec_matches_allocating_selection() {
        for seed in 0..64u64 {
            let psi = scrambled(5, seed);
            let mu = scrambled(5, seed.wrapping_add(1000));
            let slice = psi.as_slice();
            let prof = PopProfile::of(&psi).unwrap();
            let expect = naive::gmax_fitting(&psi, &mu);
            let sel = select_min_vec(
                5,
                mu.iter(),
                |i, cap, buf| gmax_fill_pruned(slice, &prof, i, cap, buf),
                &Budget::unlimited(),
            );
            assert_eq!(sel.minima, expect, "seed {seed}");
            let rank = expect
                .iter()
                .next()
                .map(|i| crate::fitting::gmax_vector(&psi, i));
            assert_eq!(sel.best, rank, "seed {seed}");
        }
    }

    #[test]
    fn subcube_odist_search_matches_exhaustive_scan() {
        let unlimited = Budget::unlimited();
        for seed in 0..48u64 {
            let psi = scrambled(7, seed);
            let expect = naive::odist_fitting(&psi, &ModelSet::all(7));
            let sel = select_min_subcube_odist(7, psi.as_slice(), &unlimited);
            assert_eq!(sel.minima, expect, "seed {seed}");
            assert_eq!(
                sel.best,
                expect.iter().next().map(|i| odist(&psi, i).unwrap())
            );
        }
    }

    #[test]
    fn vote_tally_ranks_and_minima_match_the_sums() {
        let unlimited = Budget::unlimited();
        for seed in 0..48u64 {
            let psi = scrambled(7, seed);
            let kb = WeightedKb::from_weights(7, psi.iter().map(|j| (j, 1 + j.0 % 5)));
            let unit = VoteTally::of(7, psi.iter().map(|j| (j, 1)));
            let weighted = VoteTally::of(7, kb.support());
            for bits in 0..128u64 {
                let i = Interp(bits);
                assert_eq!(unit.rank(i), u128::from(sum_dist(&psi, i).unwrap()));
                assert_eq!(weighted.rank(i), wdist(&kb, i).unwrap());
            }
            let sel = unit.universe_minima(&unlimited).unwrap();
            let expect = naive::sum_fitting(&psi, &ModelSet::all(7));
            assert_eq!(sel.minima, expect, "sum, seed {seed}");
            assert_eq!(sel.best, expect.iter().next().map(|i| unit.rank(i)));
            let sel = weighted.universe_minima(&unlimited).unwrap();
            let expect = naive::wdist_fitting(&kb, &WeightedKb::all(7));
            assert_eq!(sel.minima, expect.support_set(), "wdist, seed {seed}");
        }
    }

    // --- budgeted layer -----------------------------------------------------

    use crate::budget::{FaultPlan, TripReason};

    /// `minima ∪ frontier` of an interrupted selection must contain every
    /// exact minimum; an exact selection must equal the oracle outright.
    fn assert_contains(sel: &BudgetedSelect<u32>, exact: &ModelSet, ctx: &str) {
        match sel.quality() {
            Quality::Exact => {
                assert_eq!(&sel.minima, exact, "{ctx}: exact result differs");
            }
            Quality::UpperBound => {
                let frontier = sel.frontier.as_ref().unwrap();
                let n = sel.minima.n_vars();
                let superset = sel
                    .minima
                    .union(&ModelSet::new(n, frontier.iter().copied()));
                for i in exact.iter() {
                    assert!(
                        superset.contains(i),
                        "{ctx}: true minimum {i:?} missing from upper bound"
                    );
                }
            }
            Quality::Interrupted => {}
        }
    }

    #[test]
    fn budgeted_select_min_unconstrained_is_exact() {
        for seed in 0..16u64 {
            let psi = scrambled(6, seed);
            let slice = psi.as_slice();
            let prof = PopProfile::of(&psi).unwrap();
            let budget = Budget::unlimited();
            let sel = select_min(
                6,
                all_interps(6),
                |i, cap: Option<&u32>| odist_pruned(slice, &prof, i, cap.copied()),
                &budget,
            );
            assert!(matches!(sel.quality(), Quality::Exact));
            assert_eq!(
                sel.minima,
                naive::odist_fitting(&psi, &ModelSet::all(6)),
                "seed {seed}"
            );
            // The meter flushes its partial stride when the scan ends.
            assert_eq!(budget.spent().scans, 64);

            let budget = Budget::unlimited();
            let sel = select_min_subcube_odist(6, slice, &budget);
            assert!(matches!(sel.quality(), Quality::Exact));
            assert!(budget.spent().nodes > 0, "seed {seed}");
        }
    }

    #[test]
    fn budgeted_select_min_fault_keeps_containment() {
        for seed in 0..16u64 {
            let psi = scrambled(6, seed);
            let slice = psi.as_slice();
            let prof = PopProfile::of(&psi).unwrap();
            let exact = naive::odist_fitting(&psi, &ModelSet::all(6));
            for at in [1u64, 7, 31, 60] {
                let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, at));
                let sel = select_min(
                    6,
                    all_interps(6),
                    |i, cap: Option<&u32>| odist_pruned(slice, &prof, i, cap.copied()),
                    &budget,
                );
                let trip = sel.trip.expect("fault must trip");
                assert_eq!(trip.reason, TripReason::Fault);
                assert_eq!(trip.site, BudgetSite::Scan);
                assert_contains(&sel, &exact, &format!("scan fault at {at}, seed {seed}"));
                // Ranked + frontier covers the whole universe: the fault is
                // armed on the scan site (stride 1), so exactly `at - 1`
                // candidates were ranked before the tripping tick.
                if let Some(f) = &sel.frontier {
                    assert_eq!(f.len() as u64, 64 - (at - 1));
                }
            }
        }
    }

    #[test]
    fn budgeted_select_min_frontier_overflow_degrades_to_interrupted() {
        let psi = scrambled(6, 3);
        let slice = psi.as_slice();
        let prof = PopProfile::of(&psi).unwrap();
        let budget = Budget::unlimited()
            .with_fault(FaultPlan::new(BudgetSite::Scan, 2))
            .with_frontier_limit(4);
        let sel = select_min(
            6,
            all_interps(6),
            |i, cap: Option<&u32>| odist_pruned(slice, &prof, i, cap.copied()),
            &budget,
        );
        assert!(matches!(sel.quality(), Quality::Interrupted));
        assert!(sel.frontier.is_none());
    }

    #[test]
    fn budgeted_subcube_fault_keeps_containment() {
        for seed in 0..24u64 {
            let psi = scrambled(7, seed);
            let slice = psi.as_slice();
            let exact = naive::odist_fitting(&psi, &ModelSet::all(7));
            // A fault past the search's actual node count never fires and
            // the search completes exactly — only `at = 1` is guaranteed
            // to trip (the root node always charges).
            for at in [1u64, 5, 17, 100] {
                let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Node, at));
                let sel = select_min_subcube_odist(7, slice, &budget);
                if at == 1 {
                    assert!(sel.trip.is_some(), "odist node fault at 1 must trip");
                }
                assert_contains(&sel, &exact, &format!("odist fault at {at}, seed {seed}"));
            }
        }
    }

    #[test]
    fn budgeted_subcube_step_limit_trips_typed() {
        // Node ticks reach the step limit once per meter stride, so the
        // search must outlast one stride: two antipodal models at width 12
        // tie every popcount-6 candidate, 924 leaves plus their ancestors.
        let n = 12;
        let psi = ModelSet::new(n, [Interp(0), Interp((1 << n) - 1)]);
        let slice = psi.as_slice();
        let exact = naive::odist_fitting(&psi, &ModelSet::all(n));
        let budget = Budget::unlimited().with_step_limit(3);
        let sel = select_min_subcube_odist(n, slice, &budget);
        let trip = sel.trip.expect("step limit must trip");
        assert_eq!(trip.reason, TripReason::Steps);
        assert_contains(&sel, &exact, "step limit");
    }

    #[test]
    fn budgeted_dispatchers_match_exact_when_unconstrained() {
        let psi = scrambled(6, 5);
        let slice = psi.as_slice();
        let exact = naive::odist_fitting(&psi, &ModelSet::all(6));
        let sel = select_min_universe_odist(6, slice, &Budget::unlimited()).unwrap();
        assert!(matches!(sel.quality(), Quality::Exact));
        assert_eq!(sel.minima, exact);
    }

    #[test]
    fn budgeted_universe_minima_keep_every_minimum() {
        // ψ = 𝓜 ties every bit: all 64 interpretations are minima.
        let votes = VoteTally::of(6, all_interps(6).map(|i| (i, 1)));
        let all = ModelSet::all(6);
        let sel = votes.universe_minima(&Budget::unlimited()).unwrap();
        assert!(matches!(sel.quality(), Quality::Exact));
        assert_eq!(sel.minima, all);
        for at in [1u64, 10, 64] {
            let budget = Budget::unlimited().with_fault(FaultPlan::new(BudgetSite::Scan, at));
            let sel = votes.universe_minima(&budget).unwrap();
            assert_eq!(sel.quality(), Quality::UpperBound, "fault at {at}");
            assert_eq!(sel.minima.len() as u64, at - 1);
            let (models, _) = sel.into_models();
            assert_eq!(models, all, "fault at {at}");
        }
        let budget = Budget::unlimited()
            .with_fault(FaultPlan::new(BudgetSite::Scan, 2))
            .with_frontier_limit(4);
        let sel = votes.universe_minima(&budget).unwrap();
        assert_eq!(sel.quality(), Quality::Interrupted);
        assert_eq!(sel.minima, ModelSet::new(6, [Interp(0)]));
    }

    #[test]
    fn budgeted_dispatchers_reject_wide_signatures() {
        let r = select_min_universe_odist(
            arbitrex_logic::ENUM_LIMIT + 1,
            &[Interp(0)],
            &Budget::unlimited(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn budgeted_cancel_token_stops_the_scan() {
        use crate::budget::CancelToken;
        let psi = scrambled(6, 9);
        let slice = psi.as_slice();
        let prof = PopProfile::of(&psi).unwrap();
        let token = CancelToken::new();
        token.cancel();
        // Stride-1 metering via a fault on a *different* count far away
        // isn't needed: cancellation is checked on every flush, and the
        // fault below forces stride 1 on the scan site.
        let budget = Budget::unlimited()
            .with_cancel(token)
            .with_fault(FaultPlan::new(BudgetSite::Scan, u64::MAX));
        let sel = select_min(
            6,
            all_interps(6),
            |i, cap: Option<&u32>| odist_pruned(slice, &prof, i, cap.copied()),
            &budget,
        );
        let trip = sel.trip.expect("cancelled budget must trip");
        assert_eq!(trip.reason, TripReason::Cancelled);
        assert!(budget.spent().scans < 64);
    }
}
