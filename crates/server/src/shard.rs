//! Consistent-hash sharding of named KBs across a cluster of primaries.
//!
//! PR 8 gave one KB namespace a single primary with epoch-fenced
//! replicas; this module spreads the namespace over *several* primaries.
//! A [`ShardRing`] — consistent hashing with virtual nodes and a
//! rendezvous tie-break — maps each KB name to exactly one owner. Every
//! node serves the KBs it owns locally, **proxies** reads for the rest
//! to the owner, and answers mutations for the rest with
//! `307 Temporary Redirect` plus `X-Arbitrex-Shard-Owner`, so a commit
//! always lands at (and is fenced by) its owner.
//!
//! The ring is versioned by a **ring epoch**. Every routed KB response
//! carries `X-Arbitrex-Ring-Epoch`; a client may pin the epoch it
//! routed against by sending the same header, and a mismatch is refused
//! with a typed `421 Misdirected Request` instead of a split-brain
//! commit against a stale ring. This is the membership-layer analogue
//! of the replication fencing epoch (DESIGN.md §12): the replication
//! epoch fences *who may write a store*, the ring epoch fences *which
//! store a name maps to*.
//!
//! Membership changes (`POST /v1/cluster/{join,leave}`) bump the epoch,
//! broadcast the new ring to every member (`POST /v1/cluster/sync`,
//! adopted only if it supersedes under the `(epoch, member set)` total
//! order — see [`ShardRing::superseded_by`]), and trigger **live
//! rebalancing**: each node that
//! adopted the ring pulls the digest of every migration source
//! (`GET /v1/kbs`: name, seq, name-bound content hash — the same digest
//! the PR 8 anti-entropy pass compares), fetches each KB it now owns
//! over the replication transport ([`PeerClient`]), lands it verbatim
//! with [`crate::kb::KbStore::update`] (guarded by the local seq it
//! listed, so a local commit racing the pull is never overwritten), and
//! then asks the old owner to release its copy
//! (`POST /v1/cluster/release`, guarded by the pulled seq so a commit
//! racing the handoff is never dropped).
//! Divergence discovered during the pull — both sides committed to the
//! same name under a partition — is handed to the PR 8 `Δ`-arbitration
//! reconciliation path ([`crate::replication::reconcile_with_peer`]),
//! not to last-writer-wins.
//!
//! # Deterministic faults
//!
//! The router charges the `shard_*` sites of the server's
//! [`arbitrex_core::Faults`] trigger (`serve --fault`):
//! `shard_handoff_torn` (the k-th release request is refused
//! after the data transfer, as if the handoff connection tore — both
//! copies survive and a later pass converges them), `shard_ring_stale`
//! (the k-th routed KB request is answered 421 as if the client's ring
//! were stale), `shard_proxy_drop` (the k-th proxied read is dropped
//! with 502). Like the `net_*` sites they fire once: what is under test
//! is the retry/convergence machinery, not a sticky outage.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, RwLock, TryLockError};

use arbitrex_logic::canonical::fnv1a;

use crate::json::{self, Json};
use crate::metrics;
use crate::replication::{fetch_listing, local_listing, pull_kb, ListedKb, PeerClient};
use crate::ServiceState;

/// Virtual nodes per member unless `--shard-vnodes` says otherwise.
pub const DEFAULT_VNODES: u32 = 64;
/// Placeholder for "my own bound address" in `--shard-ring`: resolved
/// to the actual listen address once the listener is bound (so tests
/// and scripts can shard a server bound to port 0).
pub const SELF_AUTO: &str = "auto";
/// Request header marking cluster-internal traffic (handoff pulls and
/// owner-side proxy legs); it bypasses ownership routing so a node can
/// always read a peer's local copy during a migration.
pub const INTERNAL_HEADER: &str = "x-arbitrex-shard-internal";
/// Attempts the rebalancer makes to pull-and-release one KB when the
/// old owner reports a seq conflict (a commit raced the handoff).
pub const HANDOFF_RETRIES: u32 = 3;

/// The ring's stable 64-bit hash: FNV-1a, then a finalizer (no
/// dependency, stable across builds — ring placement must agree between
/// separately started processes).
fn ring_hash(bytes: &[u8]) -> u64 {
    mix(fnv1a(bytes))
}

/// SplitMix64 finalizer. Raw FNV-1a diffuses too little on the short,
/// near-identical strings rings are made of (`host:port#3` vs
/// `host:port#4`), which skews vnode arcs badly; the finalizer restores
/// avalanche while staying a pure, dependency-free function.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Rendezvous score of `(name, member)`, the tie-break when two virtual
/// nodes land on the same ring point.
fn rendezvous(name: &str, member: &str) -> u64 {
    let mut bytes = Vec::with_capacity(name.len() + member.len() + 1);
    bytes.extend_from_slice(name.as_bytes());
    bytes.push(0xFF); // unambiguous separator: 0xFF never appears in a KB name
    bytes.extend_from_slice(member.as_bytes());
    ring_hash(&bytes)
}

// --- replica chains ----------------------------------------------------------

/// Separator between the members of a chain spec (`head~r1~r2`).
pub const CHAIN_SEP: char = '~';

/// One ring entry: a replica **chain** — a head that accepts writes plus
/// ordered replicas pulling its WAL (PR 8's replication). The ring hashes
/// by the chain's `anchor`, a stable identity that survives head
/// rotation: when the head dies and the first replica self-promotes, the
/// chain's vnode points do not move, so failover reassigns *roles inside
/// the chain* without migrating a single KB.
///
/// Spec grammar (what `--cluster-peers`, join bodies and sync broadcasts
/// carry): `[anchor=]head[~replica...][@repl_epoch]`. A bare `host:port`
/// is a chain of one anchored at itself — exactly PR 9's member format,
/// so old rings parse unchanged. The `@repl_epoch` suffix records the
/// chain's replication fencing epoch; a rotation bumps it in lockstep
/// with the promotion's WAL epoch, which is how the ring *composes* the
/// two epoch spaces (a member listed behind a chain epoch above its own
/// WAL epoch knows it was deposed while away).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainEntry {
    anchor: String,
    /// Head first, then replicas in promotion order.
    members: Vec<String>,
    repl_epoch: u64,
}

impl ChainEntry {
    /// Parse a chain spec. `None` for a spec with no members (empty
    /// string, bare `@3`, ...).
    pub fn parse(spec: &str) -> Option<ChainEntry> {
        let spec = spec.trim();
        let (spec, repl_epoch) = match spec.rsplit_once('@') {
            Some((rest, tail)) => match tail.parse::<u64>() {
                Ok(epoch) => (rest, epoch),
                Err(_) => (spec, 0),
            },
            None => (spec, 0),
        };
        let (anchor, roster) = match spec.split_once('=') {
            Some((anchor, rest)) if !anchor.is_empty() => (Some(anchor.to_string()), rest),
            _ => (None, spec),
        };
        let mut members: Vec<String> = Vec::new();
        for member in roster.split(CHAIN_SEP) {
            let member = member.trim();
            if !member.is_empty() && !members.iter().any(|m| m == member) {
                members.push(member.to_string());
            }
        }
        let head = members.first()?.clone();
        Some(ChainEntry {
            anchor: anchor.unwrap_or(head),
            members,
            repl_epoch,
        })
    }

    /// The canonical spec string (`parse` of it round-trips).
    pub fn spec(&self) -> String {
        let mut out = String::new();
        if self.anchor != self.members[0] {
            out.push_str(&self.anchor);
            out.push('=');
        }
        out.push_str(&self.members.join(&CHAIN_SEP.to_string()));
        if self.repl_epoch > 0 {
            out.push('@');
            out.push_str(&self.repl_epoch.to_string());
        }
        out
    }

    /// The stable hash identity the ring places this chain by.
    pub fn anchor(&self) -> &str {
        &self.anchor
    }

    /// The chain head — the only member that accepts writes.
    pub fn head(&self) -> &str {
        &self.members[0]
    }

    /// Head first, then replicas in promotion order.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// The chain's replication fencing epoch (0 until a rotation
    /// records one).
    pub fn repl_epoch(&self) -> u64 {
        self.repl_epoch
    }

    /// Is `addr` a serving member of this chain?
    pub fn contains(&self, addr: &str) -> bool {
        self.members.iter().any(|m| m == addr)
    }

    /// The designated successor: the first replica behind the head.
    pub fn successor(&self) -> Option<&str> {
        self.members.get(1).map(String::as_str)
    }
}

// --- the ring ----------------------------------------------------------------

/// A consistent-hash ring over the cluster's replica chains: each chain
/// owns `vnodes` points keyed by its stable anchor; a KB name belongs to
/// the chain owning the first point clockwise of the name's hash, with a
/// rendezvous tie-break when several points collide on one hash value.
/// Placement is a pure function of `(members, vnodes)` — two nodes
/// holding equal rings route identically, which is what the ring epoch
/// certifies. Because points derive from anchors, rotating a chain's
/// head (failover) or growing its replica tail never moves a name.
#[derive(Debug, Clone)]
pub struct ShardRing {
    epoch: u64,
    vnodes: u32,
    /// Sorted, deduplicated canonical chain specs.
    members: Vec<String>,
    /// Parsed entries, index-aligned with `members`.
    chains: Vec<ChainEntry>,
    /// `(point hash, chain index)`, sorted by hash.
    points: Vec<(u64, u32)>,
}

impl ShardRing {
    /// A ring over `members` (chain specs or bare addresses) at `epoch`.
    /// Specs are canonicalized, sorted and deduplicated so the ring is a
    /// function of the *set*; a second chain colliding on an anchor is
    /// dropped (two chains must not claim one set of points).
    pub fn new(members: impl IntoIterator<Item = String>, vnodes: u32, epoch: u64) -> ShardRing {
        let mut chains: Vec<ChainEntry> = members
            .into_iter()
            .filter_map(|spec| ChainEntry::parse(&spec))
            .collect();
        chains.sort_by_key(|a| a.spec());
        chains.dedup();
        // Absorb bare singletons into the chains that list them: a node
        // advertising just itself (`--shard-ring auto` on a replica that
        // has not parsed peers yet) while another spec lists it inside a
        // multi-member chain is the same node wearing its chain role —
        // not a second ring member claiming its own points.
        let absorbed: Vec<bool> = chains
            .iter()
            .map(|c| {
                c.members().len() == 1
                    && chains
                        .iter()
                        .any(|other| other.members().len() > 1 && other.contains(&c.members()[0]))
            })
            .collect();
        let mut keep = absorbed.iter();
        chains.retain(|_| !*keep.next().unwrap());
        let mut seen_anchors: Vec<&str> = Vec::with_capacity(chains.len());
        let mut kept: Vec<ChainEntry> = Vec::with_capacity(chains.len());
        for chain in &chains {
            if !seen_anchors.contains(&chain.anchor()) {
                seen_anchors.push(chain.anchor());
                kept.push(chain.clone());
            }
        }
        let chains = kept;
        let members: Vec<String> = chains.iter().map(ChainEntry::spec).collect();
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(chains.len() * vnodes as usize);
        for (i, chain) in chains.iter().enumerate() {
            for v in 0..vnodes {
                points.push((
                    ring_hash(format!("{}#{v}", chain.anchor()).as_bytes()),
                    i as u32,
                ));
            }
        }
        points.sort();
        ShardRing {
            epoch,
            vnodes,
            members,
            chains,
            points,
        }
    }

    /// The ring's version: bumped by every membership change, stamped on
    /// every routed request.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Virtual nodes per member.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// The member set — canonical chain specs, sorted.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// The parsed chains, index-aligned with [`ShardRing::members`].
    pub fn chains(&self) -> &[ChainEntry] {
        &self.chains
    }

    /// Every serving **address** across all chains (heads and
    /// replicas), in chain order. This — not [`ShardRing::members`],
    /// which holds chain *specs* — is what membership broadcasts and
    /// rebalance pulls must connect to.
    pub fn serving_addrs(&self) -> Vec<String> {
        self.chains
            .iter()
            .flat_map(|c| c.members().iter().cloned())
            .collect()
    }

    /// Is `addr` a serving member of any chain (head or replica)?
    pub fn contains(&self, addr: &str) -> bool {
        self.chains.iter().any(|c| c.contains(addr))
    }

    /// The chain serving `addr`, if any.
    pub fn chain_containing(&self, addr: &str) -> Option<&ChainEntry> {
        self.chains.iter().find(|c| c.contains(addr))
    }

    /// The chain owning KB `name`: successor point on the ring,
    /// rendezvous tie-break among points sharing that hash value. Empty
    /// rings own nothing (`None`).
    pub fn chain_of(&self, name: &str) -> Option<&ChainEntry> {
        if self.points.is_empty() {
            return None;
        }
        let h = ring_hash(name.as_bytes());
        let start = self
            .points
            .partition_point(|&(point, _)| point < h)
            .checked_rem(self.points.len())
            .unwrap_or(0);
        let successor = self.points[start].0;
        // Collect every point colliding on the successor hash (sorted,
        // so they are adjacent) and break the tie by rendezvous score.
        let mut best: Option<(u32, u64)> = None;
        for &(point, chain) in self.points[start..]
            .iter()
            .take_while(|&&(point, _)| point == successor)
        {
            debug_assert_eq!(point, successor);
            let score = rendezvous(name, self.chains[chain as usize].anchor());
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((chain, score));
            }
        }
        best.map(|(chain, _)| &self.chains[chain as usize])
    }

    /// The head of the chain owning KB `name` — the address a write for
    /// `name` must land on.
    pub fn owner_of(&self, name: &str) -> Option<&str> {
        self.chain_of(name).map(ChainEntry::head)
    }

    /// The stable anchor of the chain owning `name` — the identity the
    /// handoff fence compares: a name is "moving" only when its *chain*
    /// changes, not when roles rotate inside one chain.
    pub fn anchor_of(&self, name: &str) -> Option<&str> {
        self.chain_of(name).map(ChainEntry::anchor)
    }

    /// Would a broadcast ring `(members, epoch)` supersede this one?
    /// Rings are **totally ordered** by `(epoch, member set)`: a higher
    /// epoch always wins, and two rings colliding on one epoch — two
    /// originators mutated membership concurrently, each bumping its
    /// own ring to the same number — are broken by lexicographic
    /// comparison of the sorted member lists. Every node applies the
    /// same rule, so the cluster converges on one winner instead of
    /// holding divergent rings at a single epoch (split-brain routing
    /// the epoch-pin 421 could never see). The losing membership change
    /// is dropped, not merged: its originator observes the winning ring
    /// and must re-issue the change against it (DESIGN.md §13.3).
    pub fn superseded_by(&self, members: &[String], epoch: u64) -> bool {
        if epoch != self.epoch {
            return epoch > self.epoch;
        }
        // Canonicalize through the chain parser so a broadcast spelling
        // a chain differently (`a~a` dups, whitespace) compares equal.
        let mut candidate: Vec<String> = members
            .iter()
            .filter_map(|m| ChainEntry::parse(m))
            .map(|c| c.spec())
            .collect();
        candidate.sort_unstable();
        candidate.dedup();
        candidate > self.members
    }

    /// Do two rings place every name identically — same anchors, same
    /// vnodes? True across pure chain-topology changes (rotation,
    /// replica enlist/drop), which is what lets the sync path adopt them
    /// without a handoff fence or a rebalance pull.
    pub fn same_placement(&self, other: &ShardRing) -> bool {
        // Chains sort by spec, not anchor, so compare anchor *sets*.
        let mut ours: Vec<&str> = self.chains.iter().map(ChainEntry::anchor).collect();
        let mut theirs: Vec<&str> = other.chains.iter().map(ChainEntry::anchor).collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        self.vnodes == other.vnodes && ours == theirs
    }
}

// --- the router --------------------------------------------------------------

/// Where a KB request should be handled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// This node owns the KB: serve it.
    Local,
    /// The named peer owns it: proxy (reads) or redirect (writes).
    Remote(String),
}

/// One node's view of the cluster: the current ring plus its own
/// advertised address. Shared by the route handlers (placement checks)
/// and the membership endpoints (ring changes); the ring swaps whole
/// under a `RwLock` so placement reads never block each other.
pub struct ShardRouter {
    ring: RwLock<ShardRing>,
    self_addr: RwLock<String>,
    /// Serializes membership operations (`join`/`leave`/`sync`): held
    /// for the whole broadcast + rebalance, so at most one transition
    /// is ever active on this node. Without it, overlapping operations
    /// would clobber each other's [`ShardRouter::begin_transition`] and
    /// the first [`ShardRouter::end_transition`] would drop the write
    /// fence while the other rebalance was still pulling.
    membership: Mutex<()>,
    /// The *other* side of an in-flight membership transition (the
    /// candidate ring on a pulling node, the superseded ring on the
    /// originator). While set, writes for any KB whose owner differs
    /// between this ring and the current one are refused with a typed
    /// 503 — the fence that keeps a mid-handoff commit from landing on
    /// a copy the migration is about to overwrite.
    pending: RwLock<Option<ShardRing>>,
}

impl ShardRouter {
    /// A router for a node advertising `self_spec` — a bare address,
    /// [`SELF_AUTO`], or a chain spec whose head is this node (e.g.
    /// `auto~10.0.0.2:7313` declares a replica behind us) — seeded with
    /// `peers` (addresses or chain specs) at ring epoch 1.
    pub fn new(self_spec: String, peers: &[String], vnodes: u32) -> ShardRouter {
        let self_addr = ChainEntry::parse(&self_spec)
            .map(|c| c.head().to_string())
            .unwrap_or(self_spec.clone());
        let members = std::iter::once(self_spec).chain(peers.iter().cloned());
        ShardRouter {
            ring: RwLock::new(ShardRing::new(members, vnodes, 1)),
            self_addr: RwLock::new(self_addr),
            membership: Mutex::new(()),
            pending: RwLock::new(None),
        }
    }

    /// Claim this node's single membership slot, or `None` when another
    /// membership operation (join/leave/sync) is mid-flight — callers
    /// answer a typed 503 and the peer retries, rather than two
    /// transitions clobbering each other's write fence. The guard is
    /// held across the whole operation, including the rebalance pull.
    pub fn try_membership(&self) -> Option<MutexGuard<'_, ()>> {
        match self.membership.try_lock() {
            Ok(guard) => Some(guard),
            // A panicking membership handler must not wedge the slot
            // forever: the fence state it guards is reset by the next
            // begin_transition, so the poison carries no information.
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Arm the handoff write fence: until [`ShardRouter::end_transition`],
    /// [`ShardRouter::in_transition`] reports `true` for every KB whose
    /// owner differs between `other` and the current ring.
    pub fn begin_transition(&self, other: ShardRing) {
        *self.pending.write().unwrap() = Some(other);
    }

    /// Disarm the handoff write fence.
    pub fn end_transition(&self) {
        *self.pending.write().unwrap() = None;
    }

    /// Is KB `name` mid-handoff — owned by different nodes under the
    /// current ring and the pending transition ring? Writes for such
    /// KBs are fenced (503 + Retry-After) until the transition ends.
    pub fn in_transition(&self, name: &str) -> bool {
        // Lock order: pending, then ring (matches `place`'s ring-first
        // read path; `pending` is only ever taken first).
        let pending = self.pending.read().unwrap();
        let Some(other) = pending.as_ref() else {
            return false;
        };
        let ring = self.ring.read().unwrap();
        // Compare anchors, not heads: a rotation inside one chain moves
        // no data, so it must not fence anything.
        other.anchor_of(name) != ring.anchor_of(name)
    }

    /// Replace the [`SELF_AUTO`] placeholder with the actually bound
    /// address — inside chain specs too (a self chain declared as
    /// `auto~replica` becomes `addr~replica`). Called once, between
    /// bind and serve.
    pub fn resolve_self(&self, actual: &str) {
        let mut self_addr = self.self_addr.write().unwrap();
        if self_addr.as_str() != SELF_AUTO {
            return;
        }
        let mut ring = self.ring.write().unwrap();
        let resolve = |m: &str| {
            if m == SELF_AUTO {
                actual.to_string()
            } else {
                m.to_string()
            }
        };
        let members: Vec<String> = ring
            .chains
            .iter()
            .map(|chain| {
                let entry = ChainEntry {
                    anchor: resolve(chain.anchor()),
                    members: chain.members().iter().map(|m| resolve(m)).collect(),
                    repl_epoch: chain.repl_epoch(),
                };
                entry.spec()
            })
            .collect();
        *ring = ShardRing::new(members, ring.vnodes, ring.epoch);
        *self_addr = actual.to_string();
    }

    /// This node's advertised address (its identity on the ring).
    pub fn self_addr(&self) -> String {
        self.self_addr.read().unwrap().clone()
    }

    /// Current ring epoch.
    pub fn epoch(&self) -> u64 {
        self.ring.read().unwrap().epoch
    }

    /// A clone of the current ring (membership endpoints render it).
    pub fn ring(&self) -> ShardRing {
        self.ring.read().unwrap().clone()
    }

    /// Where a *write* for KB `name` belongs under the current ring:
    /// local only when this node is the owning chain's head. A node
    /// that has been removed from the ring (it processed its own
    /// `leave`) places everything remotely — it degrades to a pure
    /// redirector until re-joined.
    pub fn place(&self, name: &str) -> Placement {
        let ring = self.ring.read().unwrap();
        let self_addr = self.self_addr.read().unwrap();
        match ring.owner_of(name) {
            Some(owner) if owner == self_addr.as_str() => Placement::Local,
            Some(owner) => Placement::Remote(owner.to_string()),
            None => Placement::Local, // empty ring: serve locally
        }
    }

    /// May this node serve a *read* of KB `name` from its own store?
    /// True for every member of the owning chain — replicas hold the
    /// head's KBs through WAL replication, and the `X-Arbitrex-Min-Seq`
    /// gate turns any lag into a typed 412 instead of a stale answer.
    pub fn read_serves_locally(&self, name: &str) -> bool {
        let ring = self.ring.read().unwrap();
        let self_addr = self.self_addr.read().unwrap();
        match ring.chain_of(name) {
            Some(chain) => chain.contains(&self_addr),
            None => true, // empty ring: serve locally
        }
    }

    /// Proxy targets for a read of `name`: the owning chain's members in
    /// order (head freshest first), excluding this node. A proxied read
    /// that cannot reach the head falls down the chain — that is what
    /// keeps reads available through a failover blackout.
    pub fn read_targets(&self, name: &str) -> Vec<String> {
        let ring = self.ring.read().unwrap();
        let self_addr = self.self_addr.read().unwrap();
        match ring.chain_of(name) {
            Some(chain) => chain
                .members()
                .iter()
                .filter(|m| *m != self_addr.as_str())
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// The chain this node serves in, if any.
    pub fn self_chain(&self) -> Option<ChainEntry> {
        let ring = self.ring.read().unwrap();
        let self_addr = self.self_addr.read().unwrap();
        ring.chain_containing(&self_addr).cloned()
    }

    /// Add the chain spec `addr` to the ring, bumping the epoch. `None`
    /// when any of its members already serves in the ring (the ring is
    /// unchanged).
    pub fn add_member(&self, addr: &str) -> Option<ShardRing> {
        let mut ring = self.ring.write().unwrap();
        let entry = ChainEntry::parse(addr)?;
        if entry.members().iter().any(|m| ring.contains(m)) {
            return None;
        }
        let members = ring
            .members
            .iter()
            .cloned()
            .chain(std::iter::once(addr.to_string()));
        *ring = ShardRing::new(members, ring.vnodes, ring.epoch + 1);
        metrics::SHARD_RING_CHANGES.incr();
        Some(ring.clone())
    }

    /// Remove the node `addr` from the ring, bumping the epoch: dropped
    /// from its chain's roster, and the chain itself dissolves when it
    /// was the last member. `None` when `addr` serves nowhere.
    pub fn remove_member(&self, addr: &str) -> Option<ShardRing> {
        let mut ring = self.ring.write().unwrap();
        if !ring.contains(addr) {
            return None;
        }
        let members: Vec<String> = ring
            .chains
            .iter()
            .filter_map(|chain| {
                let roster: Vec<String> = chain
                    .members()
                    .iter()
                    .filter(|m| m.as_str() != addr)
                    .cloned()
                    .collect();
                let entry = ChainEntry {
                    anchor: chain.anchor().to_string(),
                    members: roster,
                    repl_epoch: chain.repl_epoch(),
                };
                if entry.members.is_empty() {
                    None
                } else {
                    Some(entry.spec())
                }
            })
            .collect();
        *ring = ShardRing::new(members, ring.vnodes, ring.epoch + 1);
        metrics::SHARD_RING_CHANGES.incr();
        Some(ring.clone())
    }

    /// Enlist `addr` at the tail of the chain serving `host` (an
    /// existing member, usually the head), bumping the epoch. Placement
    /// is untouched — the anchor does not change — so no rebalance
    /// follows, only the new replica's WAL pull. `None` when `host`
    /// serves nowhere or `addr` already serves somewhere.
    pub fn enlist_member(&self, host: &str, addr: &str) -> Option<ShardRing> {
        let mut ring = self.ring.write().unwrap();
        if ring.contains(addr) || addr.is_empty() {
            return None;
        }
        ring.chain_containing(host)?;
        let members: Vec<String> = ring
            .chains
            .iter()
            .map(|chain| {
                if chain.contains(host) {
                    let mut roster = chain.members().to_vec();
                    roster.push(addr.to_string());
                    ChainEntry {
                        anchor: chain.anchor().to_string(),
                        members: roster,
                        repl_epoch: chain.repl_epoch(),
                    }
                    .spec()
                } else {
                    chain.spec()
                }
            })
            .collect();
        *ring = ShardRing::new(members, ring.vnodes, ring.epoch + 1);
        metrics::SHARD_RING_CHANGES.incr();
        Some(ring.clone())
    }

    /// Rotate the chain headed by `dead_head`: drop the head, promote
    /// the first replica, and record `new_repl_epoch` (the promotion's
    /// WAL epoch) on the chain — the ring-level half of the epoch
    /// composition that fences the deposed head. Bumps the ring epoch.
    /// `None` when no chain is headed by `dead_head` or the chain has
    /// no replica to promote.
    pub fn rotate_chain(&self, dead_head: &str, new_repl_epoch: u64) -> Option<ShardRing> {
        let mut ring = self.ring.write().unwrap();
        let chain = ring.chains.iter().find(|c| c.head() == dead_head)?;
        chain.successor()?;
        let members: Vec<String> = ring
            .chains
            .iter()
            .map(|chain| {
                if chain.head() == dead_head {
                    ChainEntry {
                        anchor: chain.anchor().to_string(),
                        members: chain.members()[1..].to_vec(),
                        repl_epoch: new_repl_epoch.max(chain.repl_epoch()),
                    }
                    .spec()
                } else {
                    chain.spec()
                }
            })
            .collect();
        *ring = ShardRing::new(members, ring.vnodes, ring.epoch + 1);
        metrics::SHARD_RING_CHANGES.incr();
        metrics::FAILOVER_CHAIN_ROTATIONS.incr();
        Some(ring.clone())
    }

    /// The ring this node *would* hold after adopting a broadcast
    /// (`sync` endpoint), or `None` if the broadcast does not supersede
    /// the current ring under the `(epoch, member set)` total order
    /// ([`ShardRing::superseded_by`]). The sync handler rebalances
    /// against this candidate ring *before* calling
    /// [`ShardRouter::adopt`]: until the pull completes, the node keeps
    /// routing by its old ring, so a write redirected here bounces back
    /// to the old owner instead of landing on a copy the migration
    /// would overwrite.
    pub fn preview(&self, members: &[String], epoch: u64) -> Option<ShardRing> {
        let ring = self.ring.read().unwrap();
        if !ring.superseded_by(members, epoch) {
            return None;
        }
        Some(ShardRing::new(members.iter().cloned(), ring.vnodes, epoch))
    }

    /// Adopt a broadcast ring if it supersedes ours (`sync` endpoint)
    /// under the `(epoch, member set)` total order — higher epoch wins;
    /// an epoch collision (concurrent membership changes at two
    /// originators) is broken by the member-set tie-break so every node
    /// converges on the same ring ([`ShardRing::superseded_by`]).
    /// A ring that does not supersede is ignored, which makes sync
    /// redelivery safe.
    pub fn adopt(&self, members: &[String], epoch: u64) -> bool {
        let mut ring = self.ring.write().unwrap();
        if !ring.superseded_by(members, epoch) {
            return false;
        }
        *ring = ShardRing::new(members.iter().cloned(), ring.vnodes, epoch);
        metrics::SHARD_RING_CHANGES.incr();
        true
    }
}

// --- live rebalancing --------------------------------------------------------

/// What one rebalance pass did.
#[derive(Debug, Default, Clone, Copy)]
pub struct RebalanceSummary {
    /// Peer KB listings scanned.
    pub scanned: u64,
    /// KBs pulled to this node (now their owner).
    pub migrated: u64,
    /// Old-owner copies released after a verified pull.
    pub released: u64,
    /// Releases refused by an injected torn handoff (both copies
    /// survive; a later pass or reconcile converges them).
    pub torn: u64,
    /// Divergent KBs merged through the `Δ` reconciliation path.
    pub merged: u64,
    /// KBs or sources skipped on errors (unreachable peer, unparsable
    /// formula, exhausted handoff retries).
    pub skipped: u64,
}

impl RebalanceSummary {
    /// Render for a membership endpoint's response body.
    pub fn to_json(self) -> Json {
        json::obj([
            ("scanned", json::n(self.scanned)),
            ("migrated", json::n(self.migrated)),
            ("released", json::n(self.released)),
            ("torn", json::n(self.torn)),
            ("merged", json::n(self.merged)),
            ("skipped", json::n(self.skipped)),
        ])
    }
}

/// Ask `client`'s peer to drop its copy of `name`, guarded by the seq
/// this node pulled. `Ok(true)` released, `Ok(false)` seq conflict (a
/// commit raced the handoff — re-pull), `Err` transport trouble or an
/// injected torn handoff.
fn release_at_source(client: &mut PeerClient, name: &str, seq: u64) -> Result<bool, String> {
    let body = json::obj([("name", json::s(name)), ("seq", json::n(seq))]).to_text();
    let response = client
        .request("POST", "/v1/cluster/release", Some(&body))
        .map_err(|e| format!("release failed: {e}"))?;
    match response.status {
        200 => Ok(true),
        409 => Ok(false),
        other => Err(format!("source answered {other} for release")),
    }
}

/// Pull every KB this node now owns from `sources` (peers that may hold
/// copies under the previous ring), release their copies, and hand
/// genuine divergence to the `Δ` reconciliation path. Runs on the node
/// that *gained* ownership, synchronously inside the membership request
/// that changed the ring — when `join`/`sync` answers, the migration it
/// implies is complete (or accounted for in the summary).
pub fn rebalance(state: &ServiceState, sources: &[String]) -> RebalanceSummary {
    rebalance_onto(state, sources, &state.shards.ring())
}

/// [`rebalance`] against an explicit target ring — the sync handler
/// passes the *candidate* ring from [`ShardRouter::preview`] so the pull
/// happens while this node still routes by its old ring (writes for the
/// migrating KBs bounce between owners as 307s instead of committing
/// onto a copy the pull would overwrite).
pub fn rebalance_onto(
    state: &ServiceState,
    sources: &[String],
    ring: &ShardRing,
) -> RebalanceSummary {
    let mut summary = RebalanceSummary::default();
    let self_addr = state.shards.self_addr();
    for source in sources {
        if *source == self_addr {
            continue;
        }
        let mut client = match PeerClient::connect(source) {
            Ok(c) => c,
            Err(_) => {
                summary.skipped += 1;
                continue;
            }
        };
        let Ok(listing) = fetch_listing(&mut client) else {
            summary.skipped += 1;
            continue;
        };
        let local = local_listing(state);
        let mut reconciled_source = false;
        for kb in listing {
            summary.scanned += 1;
            if ring.owner_of(&kb.name) != Some(self_addr.as_str()) {
                continue;
            }
            if let Some(&(_, local_hash)) = local.get(&kb.name) {
                if local_hash != kb.hash {
                    // The local committed copy disagrees with the
                    // source's content. A (seq, hash) pair cannot prove
                    // either side is a strict descendant of the other —
                    // two partitioned nodes that each committed once
                    // hold *equal* seqs with different theories — so a
                    // hash mismatch is always divergence: merge with
                    // the paper's Δ, once per source (the pass covers
                    // every divergent name), never last-writer-wins.
                    if !reconciled_source {
                        reconciled_source = true;
                        match crate::replication::reconcile_with_peer(state, source) {
                            Ok(s) => summary.merged += s.merged,
                            Err(_) => summary.skipped += 1,
                        }
                    }
                    continue;
                }
            }
            match migrate_one(state, &mut client, &kb, &local) {
                Ok(outcome) => {
                    if outcome.pulled {
                        summary.migrated += 1;
                        metrics::SHARD_KBS_MIGRATED.incr();
                    }
                    if outcome.released {
                        summary.released += 1;
                    } else {
                        summary.torn += 1;
                        metrics::SHARD_HANDOFFS_TORN.incr();
                    }
                }
                Err(_) => summary.skipped += 1,
            }
        }
    }
    summary
}

struct MigrateOutcome {
    pulled: bool,
    released: bool,
}

/// Pull one KB from the source (unless the local copy already matches)
/// and release the source's copy, retrying through seq conflicts when a
/// commit races the handoff. The pull lands *before* the release, so an
/// acked commit exists on the new owner before the old owner forgets it
/// — the zero-loss edge `shard_storm.sh` hammers.
fn migrate_one(
    state: &ServiceState,
    client: &mut PeerClient,
    kb: &ListedKb,
    local: &HashMap<String, (u64, u64)>,
) -> Result<MigrateOutcome, String> {
    let mut pulled = false;
    let mut seq = kb.seq;
    // The local seq each pull expects to replace (0: absent).
    let (mut local_seq, already_current) = local
        .get(&kb.name)
        .map_or((0, false), |&(local_seq, local_hash)| {
            (local_seq, local_hash == kb.hash && local_seq >= kb.seq)
        });
    if !already_current {
        seq = pull_kb(state, client, &kb.name, local_seq)?;
        local_seq = seq;
        pulled = true;
    }
    for _ in 0..HANDOFF_RETRIES {
        match release_at_source(client, &kb.name, seq) {
            Ok(true) => {
                return Ok(MigrateOutcome {
                    pulled,
                    released: true,
                });
            }
            Ok(false) => {
                // The source committed again mid-handoff: adopt the
                // newer state and retry the release against it.
                seq = pull_kb(state, client, &kb.name, local_seq)?;
                local_seq = seq;
                pulled = true;
            }
            Err(_) => {
                // Torn handoff (injected or real): both copies survive;
                // the caller counts it and a later pass converges.
                return Ok(MigrateOutcome {
                    pulled,
                    released: false,
                });
            }
        }
    }
    Err(format!(
        "handoff of `{}` lost {HANDOFF_RETRIES} races",
        kb.name
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7313")).collect()
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("kb-{i}")).collect()
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let ring = ShardRing::new(addrs(3), 64, 1);
        let again = ShardRing::new(addrs(3).into_iter().rev(), 64, 1);
        for name in names(500) {
            let owner = ring.owner_of(&name).unwrap();
            assert!(ring.contains(owner));
            // Member order must not matter: the ring is a set function.
            assert_eq!(again.owner_of(&name).unwrap(), owner);
        }
    }

    #[test]
    fn placement_is_pinned_across_builds() {
        // Separately started processes must agree on every owner, so the
        // ring hash may never change: these owners are fixed. Each digit
        // is the owner's last address octet, for `kb-0` to `kb-31`.
        let ring = ShardRing::new(addrs(3), 64, 1);
        let owners: String = names(32)
            .iter()
            .map(|name| &ring.owner_of(name).unwrap()[7..8])
            .collect();
        assert_eq!(owners, "22002000000120121001122012110211");
    }

    #[test]
    fn virtual_nodes_spread_the_namespace() {
        let ring = ShardRing::new(addrs(3), 64, 1);
        let mut counts: HashMap<&str, usize> = HashMap::new();
        let names = names(3000);
        for name in &names {
            *counts.entry(ring.owner_of(name).unwrap()).or_default() += 1;
        }
        assert_eq!(counts.len(), 3, "every member owns a slice");
        for (&member, &count) in &counts {
            // With 64 vnodes the split stays well inside 2x of fair.
            assert!(
                count > names.len() / 6 && count < names.len() / 2 + names.len() / 10,
                "member {member} owns {count} of {}",
                names.len()
            );
        }
    }

    #[test]
    fn membership_change_moves_only_the_new_members_slice() {
        let before = ShardRing::new(addrs(2), 64, 1);
        let after = ShardRing::new(addrs(3), 64, 2);
        let newcomer = &addrs(3)[2];
        let mut moved = 0usize;
        let names = names(1000);
        for name in &names {
            let old = before.owner_of(name).unwrap();
            let new = after.owner_of(name).unwrap();
            if old != new {
                // Consistency: growth only reassigns names *to* the
                // newcomer, never shuffles names between old members.
                assert_eq!(new, newcomer, "`{name}` moved {old} -> {new}");
                moved += 1;
            }
        }
        // ~1/3 of the namespace moves; anywhere inside a generous band
        // proves the ring is consistent, not rehash-everything.
        assert!(moved > names.len() / 6 && moved < names.len() / 2);
    }

    #[test]
    fn leave_is_the_inverse_of_join() {
        let ring = ShardRing::new(addrs(3), 64, 5);
        let shrunk = ShardRing::new(addrs(2), 64, 6);
        let gone = &addrs(3)[2];
        for name in names(500) {
            let owner = ring.owner_of(&name).unwrap();
            if owner != gone {
                assert_eq!(shrunk.owner_of(&name).unwrap(), owner);
            } else {
                assert_ne!(shrunk.owner_of(&name).unwrap(), gone);
            }
        }
    }

    #[test]
    fn router_resolves_auto_and_versions_membership() {
        let router = ShardRouter::new(SELF_AUTO.to_string(), &addrs(1), 8);
        router.resolve_self("127.0.0.1:9999");
        assert_eq!(router.self_addr(), "127.0.0.1:9999");
        assert_eq!(router.epoch(), 1);
        assert!(router.ring().contains("127.0.0.1:9999"));
        assert!(!router.ring().contains(SELF_AUTO));

        let ring = router.add_member("10.0.0.9:7313").unwrap();
        assert_eq!(ring.epoch(), 2);
        assert!(router.add_member("10.0.0.9:7313").is_none(), "idempotent");
        let ring = router.remove_member("10.0.0.9:7313").unwrap();
        assert_eq!(ring.epoch(), 3);
        assert!(router.remove_member("10.0.0.9:7313").is_none());

        // Adoption: only superseding rings land. At an equal epoch the
        // member-set tie-break decides; addrs(3) sorts below the
        // current ["127.0.0.1:9999"], so it loses.
        assert!(!router.adopt(&addrs(3), 3), "equal epoch, losing set");
        assert!(router.adopt(&addrs(3), 7));
        assert_eq!(router.epoch(), 7);
        assert_eq!(router.ring().members(), &addrs(3)[..]);
    }

    #[test]
    fn equal_epoch_ring_collisions_converge_on_one_winner() {
        // Two originators mutate membership concurrently: both bump to
        // the same epoch with different member sets. The `(epoch,
        // member set)` total order must pick the same winner on every
        // node, or the cluster holds divergent rings at one epoch that
        // no 421 can detect and no anti-entropy pass heals.
        let set_a = vec!["10.0.0.0:7313".to_string(), "10.0.0.1:7313".to_string()];
        let set_b = vec!["10.0.0.0:7313".to_string(), "10.0.0.2:7313".to_string()];
        let ring_a = ShardRing::new(set_a.clone(), 8, 4);
        let ring_b = ShardRing::new(set_b.clone(), 8, 4);
        assert!(ring_a.superseded_by(&set_b, 4), "b wins the tie-break");
        assert!(
            !ring_b.superseded_by(&set_a, 4),
            "the winner keeps its ring"
        );
        assert!(
            !ring_a.superseded_by(&set_a, 4),
            "identical ring is not newer"
        );
        assert!(
            ring_b.superseded_by(&set_a, 5),
            "a higher epoch beats any set"
        );
        // Member order and duplicates in the broadcast must not change
        // the outcome: the order is over the *set*.
        let shuffled = vec![set_b[1].clone(), set_b[0].clone(), set_b[1].clone()];
        assert!(ring_a.superseded_by(&shuffled, 4));

        // Routers holding the two rings converge after cross-delivery:
        // the loser adopts, the winner ignores, both end identical.
        let r1 = ShardRouter::new(set_a[0].clone(), &set_a[1..], 8);
        let r2 = ShardRouter::new(set_b[0].clone(), &set_b[1..], 8);
        assert!(r1.adopt(&set_a, 4));
        assert!(r2.adopt(&set_b, 4));
        assert!(r1.adopt(&set_b, 4), "loser adopts the winning ring");
        assert!(!r2.adopt(&set_a, 4), "winner ignores the losing ring");
        assert_eq!(r1.ring().members(), r2.ring().members());
        assert_eq!(r1.epoch(), r2.epoch());
    }

    #[test]
    fn membership_operations_serialize_through_one_slot() {
        let router = ShardRouter::new(addrs(1)[0].clone(), &[], 8);
        let guard = router.try_membership().expect("slot initially free");
        assert!(
            router.try_membership().is_none(),
            "a second concurrent membership operation must be refused"
        );
        drop(guard);
        assert!(router.try_membership().is_some(), "slot frees on drop");
    }

    #[test]
    fn transition_fence_covers_exactly_the_moving_names() {
        let router = ShardRouter::new(addrs(1)[0].clone(), &addrs(1), 64);
        assert!(!router.in_transition("anything"), "no pending ring");

        let candidate = router.preview(&addrs(2), 2).expect("newer epoch previews");
        assert!(
            router.preview(&addrs(1), 1).is_none(),
            "the current ring must not preview"
        );
        assert!(
            router.preview(&["0.0.0.0:1".to_string()], 1).is_none(),
            "an equal epoch with a losing member set must not preview"
        );
        router.begin_transition(candidate.clone());

        let mut moving = 0;
        for name in names(300) {
            let moves = candidate.owner_of(&name) != router.ring().owner_of(&name);
            assert_eq!(router.in_transition(&name), moves, "{name}");
            moving += usize::from(moves);
        }
        assert!(moving > 0, "a grown ring must move some names");

        router.end_transition();
        assert!(!router.in_transition("anything"), "fence lowered");
    }

    #[test]
    fn removed_node_places_everything_remotely() {
        let router = ShardRouter::new("10.0.0.0:7313".to_string(), &addrs(2)[1..], 16);
        let mut members = addrs(2);
        members.remove(0);
        assert!(router.adopt(&members, 2));
        for name in names(50) {
            match router.place(&name) {
                Placement::Remote(owner) => assert_ne!(owner, "10.0.0.0:7313"),
                Placement::Local => panic!("removed node still owns `{name}`"),
            }
        }
    }

    #[test]
    fn chain_specs_parse_and_round_trip() {
        // A bare address is a chain of one anchored at itself — PR 9's
        // member format, unchanged.
        let bare = ChainEntry::parse("10.0.0.1:7313").unwrap();
        assert_eq!(bare.anchor(), "10.0.0.1:7313");
        assert_eq!(bare.head(), "10.0.0.1:7313");
        assert_eq!(bare.successor(), None);
        assert_eq!(bare.repl_epoch(), 0);
        assert_eq!(bare.spec(), "10.0.0.1:7313");

        let chain = ChainEntry::parse("a:1~b:1~c:1@3").unwrap();
        assert_eq!(chain.anchor(), "a:1", "anchor defaults to the head");
        assert_eq!(chain.head(), "a:1");
        assert_eq!(chain.successor(), Some("b:1"));
        assert_eq!(chain.members(), ["a:1", "b:1", "c:1"]);
        assert_eq!(chain.repl_epoch(), 3);
        assert_eq!(chain.spec(), "a:1~b:1~c:1@3");

        // A rotated chain keeps its original anchor, rendered only when
        // it no longer equals the head.
        let rotated = ChainEntry::parse("a:1=b:1~c:1@4").unwrap();
        assert_eq!(rotated.anchor(), "a:1");
        assert_eq!(rotated.head(), "b:1");
        assert_eq!(rotated.spec(), "a:1=b:1~c:1@4");
        assert_eq!(
            ChainEntry::parse(&rotated.spec()).unwrap(),
            rotated,
            "canonical specs round-trip"
        );

        assert!(ChainEntry::parse("").is_none());
        assert!(ChainEntry::parse("@3").is_none());
    }

    #[test]
    fn singleton_specs_absorb_into_the_chain_that_lists_them() {
        // A replica advertising just itself while a peer's spec lists it
        // inside a chain is one node, not two ring members.
        let ring = ShardRing::new(
            ["b:1".to_string(), "a:1~b:1".to_string(), "c:1".to_string()],
            16,
            1,
        );
        assert_eq!(ring.chains().len(), 2);
        assert_eq!(ring.chain_containing("b:1").unwrap().head(), "a:1");
        assert!(ring.contains("c:1"), "unrelated singletons survive");
        assert_eq!(
            ring.serving_addrs(),
            ["a:1".to_string(), "b:1".to_string(), "c:1".to_string()],
            "serving addresses flatten every chain"
        );
    }

    #[test]
    fn rotation_and_enlistment_never_move_placement() {
        let before = ShardRing::new(
            ["a:1~b:1".to_string(), "c:1".to_string(), "d:1".to_string()],
            64,
            1,
        );
        // Head a:1 dies: b:1 promotes at WAL epoch 2.
        let rotated = ShardRing::new(
            [
                "a:1=b:1@2".to_string(),
                "c:1".to_string(),
                "d:1".to_string(),
            ],
            64,
            2,
        );
        // c:1 grows a replica tail.
        let enlisted = ShardRing::new(
            [
                "a:1~b:1".to_string(),
                "c:1~e:1".to_string(),
                "d:1".to_string(),
            ],
            64,
            2,
        );
        assert!(before.same_placement(&rotated));
        assert!(before.same_placement(&enlisted));
        for name in names(300) {
            // Every name stays on its chain; only the head role moved.
            assert_eq!(
                before.anchor_of(&name).unwrap(),
                rotated.anchor_of(&name).unwrap(),
                "{name}"
            );
            let owner_before = before.owner_of(&name).unwrap();
            let owner_after = rotated.owner_of(&name).unwrap();
            if owner_before == "a:1" {
                assert_eq!(owner_after, "b:1", "{name} follows the promotion");
            } else {
                assert_eq!(owner_before, owner_after, "{name}");
            }
            assert_eq!(owner_before, enlisted.owner_of(&name).unwrap(), "{name}");
        }
    }

    #[test]
    fn router_enlists_and_rotates_chains_in_place() {
        let router = ShardRouter::new(
            "a:1".to_string(),
            &["a:1".to_string(), "c:1".to_string()],
            64,
        );
        let grown = router.enlist_member("a:1", "b:1").expect("enlists");
        assert_eq!(grown.epoch(), 2);
        assert_eq!(
            grown.chain_containing("a:1").unwrap().members(),
            ["a:1", "b:1"]
        );
        assert!(
            router.enlist_member("a:1", "b:1").is_none(),
            "an already-serving member cannot enlist again"
        );
        assert!(
            router.enlist_member("nobody:1", "d:1").is_none(),
            "the host must serve somewhere"
        );

        let rotated = router.rotate_chain("a:1", 2).expect("rotates");
        assert_eq!(rotated.epoch(), 3);
        let chain = rotated.chain_containing("b:1").unwrap().clone();
        assert_eq!(chain.head(), "b:1");
        assert_eq!(chain.anchor(), "a:1", "the anchor survives the rotation");
        assert_eq!(chain.repl_epoch(), 2);
        assert!(!rotated.contains("a:1"), "the deposed head serves nowhere");
        assert!(
            router.rotate_chain("c:1", 2).is_none(),
            "a chain of one has no successor to promote"
        );
    }

    #[test]
    fn replicas_serve_reads_locally_but_route_writes_to_their_head() {
        let router = ShardRouter::new(
            "b:1".to_string(),
            &["a:1~b:1".to_string(), "c:1".to_string()],
            64,
        );
        let ring = router.ring();
        let mut chained = 0;
        for name in names(200) {
            let owner = ring.owner_of(&name).unwrap().to_string();
            if owner == "a:1" {
                chained += 1;
                assert!(router.read_serves_locally(&name), "{name}");
                assert_eq!(router.place(&name), Placement::Remote("a:1".to_string()));
                assert_eq!(router.read_targets(&name), ["a:1".to_string()], "{name}");
            } else {
                assert!(!router.read_serves_locally(&name), "{name}");
                assert_eq!(router.place(&name), Placement::Remote(owner));
            }
        }
        assert!(chained > 0, "the chain must own some names");
    }
}
