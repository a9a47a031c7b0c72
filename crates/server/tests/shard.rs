//! Sharding integration suite: consistent-hash routing across live
//! nodes, membership change with digest-driven handoff, ring-epoch
//! fencing, replica chains with automatic head failover, and the
//! deterministic `shard_*`/`net_*` fault matrix.
//!
//! Covers the acceptance criteria of the sharded cluster: a ring member
//! proxies reads and redirects writes for KBs it does not own; a stale
//! ring pin is refused with a typed 421 instead of a split-brain
//! commit; joining a node migrates exactly the newcomer's slice (pull
//! before release, so no acked commit is ever lost); leaving drains the
//! departing node completely; an enlisted chain replica serves reads
//! and takes over its head's writes on quorum-confirmed death with
//! zero acked-commit loss; a suspected-but-alive head behind a
//! transient partition is fenced, not split-brained; and every injected
//! fault (torn handoff, stale ring, dropped proxy) degrades into a
//! typed error or a transparent retry while both copies of any
//! in-flight KB survive.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use arbitrex_core::{FaultPlan, FaultSite, Faults};
use arbitrex_server::shard::{ChainEntry, ShardRing, DEFAULT_VNODES};
use arbitrex_server::{spawn, RunningServer, ServerConfig};

mod common;
use common::{num_of, request, str_of, Client};

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn temp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "arbx-shard-{tag}-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

/// A durable ring member bound to an ephemeral port; the default
/// `--shard-ring auto` resolves the member identity to the bound address.
fn shard_server(dir: &Path, configure: impl FnOnce(&mut ServerConfig)) -> RunningServer {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 3,
        queue_depth: 64,
        timeout_ms: 0,
        state_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    };
    configure(&mut config);
    spawn(config).expect("spawn shard server")
}

fn put(server: &RunningServer, name: &str, formula: &str) -> u64 {
    let body = format!(r#"{{"action": "put", "formula": "{formula}"}}"#);
    let (status, v) = request(server, "POST", &format!("/v1/kb/{name}"), &body);
    assert_eq!(status, 200, "{v:?}");
    num_of(&v, "seq")
}

/// The two-member ring the servers will converge to after a join —
/// placement is a pure function of the member set, so the test can
/// predict ownership without asking either node.
fn two_ring(a: SocketAddr, b: SocketAddr) -> ShardRing {
    ShardRing::new([a.to_string(), b.to_string()], DEFAULT_VNODES, 0)
}

/// A KB name `owner` will own under `ring`, searched deterministically.
fn name_owned_by(ring: &ShardRing, owner: SocketAddr) -> String {
    let owner = owner.to_string();
    (0..10_000)
        .map(|i| format!("kb-{i}"))
        .find(|name| ring.owner_of(name) == Some(owner.as_str()))
        .expect("some name in 10k lands on every member")
}

/// KB names `owner` will own under `ring`, searched deterministically.
fn names_owned_by(ring: &ShardRing, owner: SocketAddr, want: usize) -> Vec<String> {
    let owner = owner.to_string();
    let found: Vec<String> = (0..10_000)
        .map(|i| format!("kb-{i}"))
        .filter(|name| ring.owner_of(name) == Some(owner.as_str()))
        .take(want)
        .collect();
    assert_eq!(found.len(), want, "not enough names land on {owner}");
    found
}

/// Poll `check` every 25ms until it returns true, up to `timeout_ms`.
fn wait_until(timeout_ms: u64, mut check: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    loop {
        if check() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Failover-speed detector settings: probe every 50ms, suspect after 2.
fn fast_detector(config: &mut ServerConfig) {
    config.probe_interval_ms = 50;
    config.suspect_after = 2;
}

/// The `/v1/replication/status` role of a node, or "" on any failure.
fn role_of(server: &RunningServer) -> String {
    let (status, v) = request(server, "GET", "/v1/replication/status", "");
    if status != 200 {
        return String::new();
    }
    str_of(&v, "role").to_string()
}

/// Are two nodes' `/v1/kbs` listings byte-identical (names, seqs,
/// content hashes) and non-empty?
fn digests_match(a: &RunningServer, b: &RunningServer) -> bool {
    let mut on_a = listing(a);
    let mut on_b = listing(b);
    on_a.sort();
    on_b.sort();
    !on_a.is_empty() && on_a == on_b
}

/// Per-node `/v1/kbs` listing as `(name, seq, hash)` triples.
fn listing(server: &RunningServer) -> Vec<(String, u64, String)> {
    let (status, v) = request(server, "GET", "/v1/kbs", "");
    assert_eq!(status, 200, "{v:?}");
    v.get("kbs")
        .and_then(|k| k.as_array())
        .expect("kbs array")
        .iter()
        .map(|kb| {
            (
                str_of(kb, "name").to_string(),
                num_of(kb, "seq"),
                str_of(kb, "hash").to_string(),
            )
        })
        .collect()
}

#[test]
fn solo_ring_serves_everything_and_lists_kbs() {
    let dir = temp_state_dir("solo");
    let node = shard_server(&dir, |_| {});
    let addr = node.addr;

    let (status, ring) = request(&node, "GET", "/v1/cluster/ring", "");
    assert_eq!(status, 200, "{ring:?}");
    assert_eq!(num_of(&ring, "epoch"), 1);
    assert_eq!(str_of(&ring, "self"), addr.to_string());
    assert_eq!(num_of(&ring, "vnodes"), DEFAULT_VNODES as u64);
    assert_eq!(
        ring.get("members")
            .and_then(|m| m.as_array())
            .unwrap()
            .len(),
        1
    );

    // A solo member owns the whole namespace: every request is local.
    let seq = put(&node, "alpha", "A & B");
    put(&node, "beta", "A | C");
    let mut listed = listing(&node);
    listed.sort();
    assert_eq!(listed.len(), 2);
    assert_eq!(listed[0].0, "alpha");
    assert_eq!(listed[0].1, seq);
    // The hash renders as 16 lowercase hex digits.
    assert_eq!(listed[0].2.len(), 16, "hash `{}`", listed[0].2);
    assert!(listed[0].2.chars().all(|c| c.is_ascii_hexdigit()));

    // KB responses on a ring member carry the ring epoch.
    let (status, head, _) =
        Client::connect_server(&node).request_full("GET", "/v1/kb/alpha", &[], "");
    assert_eq!(status, 200);
    assert_eq!(
        head.header("x-arbitrex-ring-epoch"),
        Some("1"),
        "missing ring epoch stamp in {head:?}"
    );
}

#[test]
fn reads_proxy_and_writes_redirect_to_the_owner() {
    let (dir1, dir2) = (temp_state_dir("route1"), temp_state_dir("route2"));
    let n1 = shard_server(&dir1, |_| {});
    let n2 = shard_server(&dir2, |_| {});

    let (status, joined) = request(
        &n1,
        "POST",
        "/v1/cluster/join",
        &format!(r#"{{"addr": "{}"}}"#, n2.addr),
    );
    assert_eq!(status, 200, "{joined:?}");
    assert_eq!(joined.get("joined").and_then(|j| j.as_bool()), Some(true));
    assert_eq!(num_of(&joined, "synced"), 1, "peer did not ack the sync");

    let ring = two_ring(n1.addr, n2.addr);
    let theirs = name_owned_by(&ring, n2.addr);

    // A write for the peer's KB is redirected, not committed here.
    let body = r#"{"action": "put", "formula": "A & B"}"#;
    let (status, head, v) =
        Client::connect_server(&n1).request_full("POST", &format!("/v1/kb/{theirs}"), &[], body);
    assert_eq!(status, 307, "{v:?}");
    assert_eq!(str_of(&v, "owner"), n2.addr.to_string());
    let owner = n2.addr.to_string();
    assert_eq!(head.header("x-arbitrex-shard-owner"), Some(owner.as_str()));
    let location = format!("http://{}/v1/kb/{theirs}", n2.addr);
    assert_eq!(head.header("location"), Some(location.as_str()));

    // Following the redirect commits on the owner...
    let (status, v) = request(&n2, "POST", &format!("/v1/kb/{theirs}"), body);
    assert_eq!(status, 200, "{v:?}");

    // ...and the non-owner proxies the read back transparently.
    let (status, head, v) =
        Client::connect_server(&n1).request_full("GET", &format!("/v1/kb/{theirs}"), &[], "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(str_of(&v, "name"), theirs);
    assert_eq!(head.header("x-arbitrex-shard-owner"), Some(owner.as_str()));

    // A KB this node owns is served locally, no owner header.
    let mine = name_owned_by(&ring, n1.addr);
    put(&n1, &mine, "C | D");
    let (status, head, _) =
        Client::connect_server(&n1).request_full("GET", &format!("/v1/kb/{mine}"), &[], "");
    assert_eq!(status, 200);
    assert_eq!(head.header("x-arbitrex-shard-owner"), None);
}

#[test]
fn stale_ring_pin_is_refused_with_421() {
    let dir = temp_state_dir("stale");
    let node = shard_server(&dir, |_| {});
    put(&node, "pinned", "A");

    // The current epoch passes through.
    let (status, _) = Client::connect_server(&node).request_with_headers(
        "GET",
        "/v1/kb/pinned",
        &[("X-Arbitrex-Ring-Epoch", "1")],
        "",
    );
    assert_eq!(status, 200);

    // A stale pin gets the typed refusal, carrying the live epoch.
    let (status, v) = Client::connect_server(&node).request_with_headers(
        "POST",
        "/v1/kb/pinned",
        &[("X-Arbitrex-Ring-Epoch", "7")],
        r#"{"action": "put", "formula": "B"}"#,
    );
    assert_eq!(status, 421, "{v:?}");
    assert_eq!(num_of(&v, "ring_epoch"), 1);
    assert_eq!(num_of(&v, "claimed"), 7);
    // The refused write really was refused.
    let (_, v) = request(&node, "GET", "/v1/kb/pinned", "");
    assert_eq!(num_of(&v, "seq"), 1, "stale-ring write leaked through");
}

#[test]
fn join_migrates_the_newcomers_slice_without_losing_a_commit() {
    let (dir1, dir2) = (temp_state_dir("join1"), temp_state_dir("join2"));
    let n1 = shard_server(&dir1, |_| {});

    // Seed the solo node with a spread of KBs and remember every ack.
    let mut acked: Vec<(String, u64)> = Vec::new();
    for i in 0..24 {
        let name = format!("kb-{i}");
        let seq = put(&n1, &name, if i % 2 == 0 { "A & B" } else { "A | !C" });
        acked.push((name, seq));
    }

    let n2 = shard_server(&dir2, |_| {});
    let (status, joined) = request(
        &n1,
        "POST",
        "/v1/cluster/join",
        &format!(r#"{{"addr": "{}"}}"#, n2.addr),
    );
    assert_eq!(status, 200, "{joined:?}");
    assert_eq!(num_of(&joined, "epoch"), 2);

    let ring = two_ring(n1.addr, n2.addr);
    let on_n1 = listing(&n1);
    let on_n2 = listing(&n2);

    // The newcomer pulled its slice and the old owner released it:
    // ownership on disk matches ring placement exactly.
    for (name, _, _) in &on_n1 {
        assert_eq!(
            ring.owner_of(name),
            Some(n1.addr.to_string().as_str()),
            "`{name}` still on n1 but the ring says otherwise"
        );
    }
    for (name, _, _) in &on_n2 {
        assert_eq!(
            ring.owner_of(name),
            Some(n2.addr.to_string().as_str()),
            "`{name}` on n2 but the ring says otherwise"
        );
    }
    assert!(!on_n2.is_empty(), "no KB moved to the newcomer");

    // Zero acked commits lost: every seed KB is on exactly one node, at
    // (at least) its acked seq.
    assert_eq!(on_n1.len() + on_n2.len(), acked.len());
    for (name, seq) in &acked {
        let found = on_n1
            .iter()
            .chain(&on_n2)
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("acked KB `{name}` lost in the handoff"));
        assert!(found.1 >= *seq, "`{name}` regressed below its acked seq");
    }

    // Migrated KBs answer through either node (proxy or local).
    for (name, _) in acked.iter().take(6) {
        let (status, _) = request(&n1, "GET", &format!("/v1/kb/{name}"), "");
        assert_eq!(status, 200, "`{name}` unreadable via n1 after handoff");
    }
}

#[test]
fn leave_drains_the_departing_member() {
    let (dir1, dir2) = (temp_state_dir("leave1"), temp_state_dir("leave2"));
    let n1 = shard_server(&dir1, |_| {});
    let n2 = shard_server(&dir2, |_| {});
    let (status, _) = request(
        &n1,
        "POST",
        "/v1/cluster/join",
        &format!(r#"{{"addr": "{}"}}"#, n2.addr),
    );
    assert_eq!(status, 200);

    // Commit onto both shards, following redirects to the owner.
    let ring = two_ring(n1.addr, n2.addr);
    let mut names = Vec::new();
    for i in 0..16 {
        let name = format!("kb-{i}");
        let owner = if ring.owner_of(&name) == Some(n1.addr.to_string().as_str()) {
            &n1
        } else {
            &n2
        };
        put(owner, &name, "A -> B");
        names.push(name);
    }

    let (status, left) = request(
        &n1,
        "POST",
        "/v1/cluster/leave",
        &format!(r#"{{"addr": "{}"}}"#, n2.addr),
    );
    assert_eq!(status, 200, "{left:?}");
    assert_eq!(left.get("left").and_then(|l| l.as_bool()), Some(true));

    // The survivor owns everything; the departed node drained to empty.
    let on_n1 = listing(&n1);
    let on_n2 = listing(&n2);
    assert_eq!(on_n1.len(), names.len(), "survivor is missing KBs");
    assert!(
        on_n2.is_empty(),
        "departed node still holds {:?}",
        on_n2.iter().map(|(n, _, _)| n).collect::<Vec<_>>()
    );
    // The departed node adopted the ring it is no longer part of.
    let (_, ring_view) = request(&n2, "GET", "/v1/cluster/ring", "");
    assert_eq!(
        ring_view
            .get("members")
            .and_then(|m| m.as_array())
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn torn_handoff_leaves_both_copies_alive() {
    let (dir1, dir2) = (temp_state_dir("torn1"), temp_state_dir("torn2"));
    // The source refuses its first release: the pull lands, the release
    // fails, and both copies must survive for a later pass to converge.
    let n1 = shard_server(&dir1, |c| {
        c.faults = Faults::new([FaultPlan::new(FaultSite::ShardHandoffTorn, 1)]);
    });
    for i in 0..12 {
        put(&n1, &format!("kb-{i}"), "A & !B");
    }
    let n2 = shard_server(&dir2, |_| {});
    let (status, joined) = request(
        &n1,
        "POST",
        "/v1/cluster/join",
        &format!(r#"{{"addr": "{}"}}"#, n2.addr),
    );
    assert_eq!(status, 200, "{joined:?}");
    let torn = joined
        .get("rebalance")
        .map(|r| num_of(r, "torn"))
        .unwrap_or_else(|| {
            // The newcomer's sync-side rebalance hit the fault instead;
            // either way exactly one release was refused.
            0
        });

    let on_n1 = listing(&n1);
    let on_n2 = listing(&n2);
    // One release was refused somewhere: the namespace now has exactly
    // one duplicated KB (both copies alive, identical content).
    let dup: Vec<&(String, u64, String)> = on_n1
        .iter()
        .filter(|(n, _, _)| on_n2.iter().any(|(m, _, _)| m == n))
        .collect();
    assert_eq!(
        dup.len(),
        1,
        "expected exactly one torn KB, got {dup:?} (torn counter {torn})"
    );
    let (name, seq, hash) = dup[0];
    let twin = on_n2.iter().find(|(m, _, _)| m == name).unwrap();
    assert_eq!((seq, hash), (&twin.1, &twin.2), "torn copies diverged");
    // No KB vanished: union covers all 12 seeds.
    assert_eq!(on_n1.len() + on_n2.len(), 12 + 1);
}

#[test]
fn proxy_drop_fault_is_retried_to_success() {
    let (dir1, dir2) = (temp_state_dir("drop1"), temp_state_dir("drop2"));
    let n1 = shard_server(&dir1, |c| {
        c.faults = Faults::new([FaultPlan::new(FaultSite::ShardProxyDrop, 1)]);
    });
    let n2 = shard_server(&dir2, |_| {});
    let (status, _) = request(
        &n1,
        "POST",
        "/v1/cluster/join",
        &format!(r#"{{"addr": "{}"}}"#, n2.addr),
    );
    assert_eq!(status, 200);

    let ring = two_ring(n1.addr, n2.addr);
    let theirs = name_owned_by(&ring, n2.addr);
    put(&n2, &theirs, "A <-> B");

    // The first proxied read eats the injected drop, retries with
    // jittered backoff against the owning chain, and succeeds — the
    // client never sees the transient.
    let (status, v) = request(&n1, "GET", &format!("/v1/kb/{theirs}"), "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(str_of(&v, "name"), theirs);
    // The single-shot plan disarmed on the dropped leg: still clean.
    let (status, v) = request(&n1, "GET", &format!("/v1/kb/{theirs}"), "");
    assert_eq!(status, 200, "{v:?}");
}

#[test]
fn ring_stale_fault_injects_one_421() {
    let dir = temp_state_dir("ringstale");
    let node = shard_server(&dir, |c| {
        c.faults = Faults::new([FaultPlan::new(FaultSite::ShardRingStale, 1)]);
    });
    let body = r#"{"action": "put", "formula": "A"}"#;
    let (status, v) = request(&node, "POST", "/v1/kb/alpha", body);
    assert_eq!(status, 421, "{v:?}");
    let (status, v) = request(&node, "POST", "/v1/kb/alpha", body);
    assert_eq!(status, 200, "{v:?}");
}

#[test]
fn equal_seq_divergence_merges_instead_of_overwriting() {
    // Two partitioned solo nodes each commit ONCE to the same KB name:
    // equal seqs, different theories. The post-join rebalance must hand
    // this to the Δ-arbitration reconcile — a (seq, hash) pair cannot
    // prove descent, and overwriting the new owner's acked commit with
    // the source's copy would be exactly the last-writer-wins loss the
    // design forbids (DESIGN.md §13.3).
    //
    // Disjoint variable sets make the merge visible in `n_vars`: a real
    // Δ-merge unions the signatures (3 vars), while overwriting — or
    // merging a proxied-back copy of one's own theory — cannot. The
    // renamed pair differs only in which name carries which role, so a
    // content hash blind to names would call the two copies identical.
    for (case, (ours, theirs, merged_vars)) in [("A & B", "!C", 3), ("A & !B", "B & !A", 2)]
        .into_iter()
        .enumerate()
    {
        let (dir1, dir2) = (temp_state_dir("diverge1"), temp_state_dir("diverge2"));
        let n1 = shard_server(&dir1, |_| {});
        let n2 = shard_server(&dir2, |_| {});

        // Pick the name by the ring both nodes will converge to, so the
        // divergent copies land with the *joiner* (n2) as the new owner.
        let ring = two_ring(n1.addr, n2.addr);
        let name = name_owned_by(&ring, n2.addr);
        assert_eq!(put(&n1, &name, ours), 1);
        assert_eq!(put(&n2, &name, theirs), 1);

        let (status, joined) = request(
            &n1,
            "POST",
            "/v1/cluster/join",
            &format!(r#"{{"addr": "{}"}}"#, n2.addr),
        );
        assert_eq!(status, 200, "case {case}: {joined:?}");

        // The merge commits at max(seq, seq) + 1 = 2 on the owner. A plain
        // pull-overwrite would have left the source's copy verbatim at
        // seq 1 — n2's acked commit silently gone.
        let (status, v) = request(&n2, "GET", &format!("/v1/kb/{name}"), "");
        assert_eq!(status, 200, "case {case}: {v:?}");
        assert!(
            num_of(&v, "seq") >= 2,
            "case {case}: owner still at seq {} — divergent copy was overwritten, not Δ-merged: {v:?}",
            num_of(&v, "seq")
        );
        assert_eq!(
            num_of(&v, "n_vars"),
            merged_vars,
            "case {case}: merged signature must span both sides' variables: {v:?}"
        );
        // The source keeps its (divergent, unreleased) copy: reconciliation
        // merges, it never deletes an acked commit.
        assert!(
            listing(&n1).iter().any(|(n, _, _)| n == &name),
            "case {case}: source copy of `{name}` vanished during reconciliation"
        );
    }
}

#[test]
fn owner_404_is_relayed_not_resurrected() {
    // A node holding a stale leftover copy of a KB (e.g. after a torn
    // handoff) must relay the owner's 404 once no transition is active:
    // serving the leftover would resurrect data that was legitimately
    // deleted at its owner.
    let (dir1, dir2) = (temp_state_dir("resurrect1"), temp_state_dir("resurrect2"));
    let n1 = shard_server(&dir1, |_| {});
    let n2 = shard_server(&dir2, |_| {});
    let (status, _) = request(
        &n1,
        "POST",
        "/v1/cluster/join",
        &format!(r#"{{"addr": "{}"}}"#, n2.addr),
    );
    assert_eq!(status, 200);

    let ring = two_ring(n1.addr, n2.addr);
    let name = name_owned_by(&ring, n2.addr);
    put(&n2, &name, "A | B");

    // Plant a stale copy on the non-owner via the internal bypass (the
    // same header a torn handoff's unreleased leftover sits behind).
    let body = r#"{"action": "put", "formula": "A | B"}"#;
    let (status, v) = Client::connect_server(&n1).request_with_headers(
        "POST",
        &format!("/v1/kb/{name}"),
        &[("x-arbitrex-shard-internal", "1")],
        body,
    );
    assert_eq!(status, 200, "{v:?}");

    // Delete at the owner, then read through the non-owner's proxy: the
    // 404 must come through, not the leftover copy.
    let (status, v) = request(&n2, "DELETE", &format!("/v1/kb/{name}"), "");
    assert_eq!(status, 200, "{v:?}");
    let (status, v) = request(&n1, "GET", &format!("/v1/kb/{name}"), "");
    assert_eq!(
        status, 404,
        "deleted KB `{name}` resurrected from a stale local copy: {v:?}"
    );
}

#[test]
fn enlisted_replica_serves_chain_reads_and_routes_writes_to_the_head() {
    let (dir1, dir2) = (temp_state_dir("chain1"), temp_state_dir("chain2"));
    let n1 = shard_server(&dir1, |_| {});
    let seq = put(&n1, "chained", "A & B");

    // A plain node; the operator enlists it into the head's chain.
    let n2 = shard_server(&dir2, |_| {});
    let (status, v) = request(
        &n1,
        "POST",
        "/v1/cluster/enlist",
        &format!(r#"{{"host": "{}", "addr": "{}"}}"#, n1.addr, n2.addr),
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("enlisted").and_then(|b| b.as_bool()), Some(true));
    assert_eq!(num_of(&v, "epoch"), 2);
    assert_eq!(num_of(&v, "synced"), 1, "the new tail did not ack the ring");
    assert!(
        wait_until(5_000, || {
            let (status, v) = request(&n2, "GET", "/v1/replication/status", "");
            status == 200 && num_of(&v, "visible") >= seq
        }),
        "replica never caught up with the head"
    );

    // The tail adopted the chain ring (no rebalance: placement is
    // anchored, growing a tail moves nothing)...
    let (_, ring) = request(&n2, "GET", "/v1/cluster/ring", "");
    assert_eq!(num_of(&ring, "epoch"), 2);
    let members = ring.get("members").and_then(|m| m.as_array()).unwrap();
    assert_eq!(members.len(), 1, "{ring:?}");
    assert_eq!(
        members[0].as_str().unwrap(),
        format!("{}~{}", n1.addr, n2.addr)
    );

    // ...serves chain reads locally, honoring the caller's
    // read-your-writes watermark...
    let (status, head, v) = Client::connect_server(&n2).request_full(
        "GET",
        "/v1/kb/chained",
        &[("X-Arbitrex-Min-Seq", &seq.to_string())],
        "",
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(str_of(&v, "name"), "chained");
    assert_eq!(
        head.header("x-arbitrex-shard-owner"),
        None,
        "a chain member must serve reads from its own store, got {head:?}"
    );
    // ...turns lag beyond its watermark into a typed 412, never a
    // stale answer...
    let (status, _, v) = Client::connect_server(&n2).request_full(
        "GET",
        "/v1/kb/chained",
        &[("X-Arbitrex-Min-Seq", &(seq + 5).to_string())],
        "",
    );
    assert_eq!(status, 412, "{v:?}");
    // ...and routes writes to the chain head.
    let (status, head, v) = Client::connect_server(&n2).request_full(
        "POST",
        "/v1/kb/chained",
        &[],
        r#"{"action": "put", "formula": "A & B & C"}"#,
    );
    assert_eq!(status, 307, "{v:?}");
    let location = format!("http://{}/v1/kb/chained", n1.addr);
    assert_eq!(
        head.header("location"),
        Some(location.as_str()),
        "write must redirect to the head, got {head:?}"
    );
}

#[test]
fn head_death_promotes_the_successor_and_reconciles_its_return() {
    let (dir1, dir2, dir3) = (
        temp_state_dir("fo1"),
        temp_state_dir("fo2"),
        temp_state_dir("fo3"),
    );
    let n1 = shard_server(&dir1, fast_detector);
    let n1_addr = n1.addr;
    let n3 = shard_server(&dir3, fast_detector);
    let (status, _) = request(
        &n1,
        "POST",
        "/v1/cluster/join",
        &format!(r#"{{"addr": "{}"}}"#, n3.addr),
    );
    assert_eq!(status, 200);

    let n2 = shard_server(&dir2, fast_detector);
    let (status, v) = request(
        &n1,
        "POST",
        "/v1/cluster/enlist",
        &format!(r#"{{"host": "{}", "addr": "{}"}}"#, n1_addr, n2.addr),
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "synced"), 2, "tail and voter must ack the ring");

    // Seed the chain's slice through its head and let the tail catch up.
    let ring = ShardRing::new(
        [format!("{n1_addr}~{}", n2.addr), n3.addr.to_string()],
        DEFAULT_VNODES,
        0,
    );
    let mut acked = Vec::new();
    for name in names_owned_by(&ring, n1_addr, 6) {
        let seq = put(&n1, &name, "A -> B");
        acked.push((name, seq));
    }
    assert!(
        wait_until(5_000, || {
            let (status, v) = request(&n2, "GET", "/v1/replication/status", "");
            status == 200 && num_of(&v, "visible") >= acked.len() as u64
        }),
        "tail never caught up before the failover"
    );

    // Kill the chain head outright.
    n1.stop().expect("stop head");

    // Reads stay available through the blackout: a routed read from the
    // voter walks down the chain past the dead head to the replica.
    let (name0, seq0) = acked[0].clone();
    let (status, v) = request(&n3, "GET", &format!("/v1/kb/{name0}"), "");
    assert_eq!(status, 200, "read died with the head: {v:?}");
    assert!(num_of(&v, "seq") >= seq0);

    // The successor suspects, confirms with the voter, and promotes.
    assert!(
        wait_until(10_000, || role_of(&n2) == "primary"),
        "successor never promoted"
    );
    let (_, ring_view) = request(&n2, "GET", "/v1/cluster/ring", "");
    let members = ring_view.get("members").and_then(|m| m.as_array()).unwrap();
    let chain_spec = members
        .iter()
        .filter_map(|m| m.as_str())
        .find(|m| m.contains(&n2.addr.to_string()))
        .expect("rotated chain in ring");
    assert_eq!(
        chain_spec,
        format!("{n1_addr}={}@2", n2.addr),
        "rotation must keep the anchor and record the promotion epoch"
    );

    // Zero acked-commit loss across the failover.
    for (name, seq) in &acked {
        let (status, v) = request(&n2, "GET", &format!("/v1/kb/{name}"), "");
        assert_eq!(status, 200, "acked `{name}` lost in failover: {v:?}");
        assert!(num_of(&v, "seq") >= *seq, "`{name}` regressed: {v:?}");
    }

    // The voter converges on the rotated ring and routes writes to the
    // new head.
    assert!(
        wait_until(5_000, || {
            let (_, v) = request(&n3, "GET", "/v1/cluster/ring", "");
            num_of(&v, "epoch") == 4
        }),
        "voter never adopted the rotated ring"
    );
    let (status, head, v) = Client::connect_server(&n3).request_full(
        "POST",
        &format!("/v1/kb/{name0}"),
        &[],
        r#"{"action": "put", "formula": "A -> B & C"}"#,
    );
    assert_eq!(status, 307, "{v:?}");
    let owner = n2.addr.to_string();
    assert_eq!(
        head.header("x-arbitrex-shard-owner"),
        Some(owner.as_str()),
        "write must route to the promoted head, got {head:?}"
    );
    let (status, _) = request(
        &n2,
        "POST",
        &format!("/v1/kb/{name0}"),
        r#"{"action": "put", "formula": "A -> B & C"}"#,
    );
    assert_eq!(status, 200);

    // The deposed head restarts on its old address: the new head
    // probes it back to life, Δ-reconciles what it held, re-enlists it
    // as the chain's tail, and the rejoiner demotes and resyncs.
    let n1b = shard_server(&dir1, |c| {
        fast_detector(c);
        c.addr = n1_addr.to_string();
    });
    assert!(
        wait_until(15_000, || {
            let (status, v) = request(&n1b, "GET", "/v1/replication/status", "");
            status == 200 && str_of(&v, "role") == "replica" && num_of(&v, "epoch") == 2
        }),
        "deposed head never rejoined as a demoted replica"
    );
    assert!(
        wait_until(10_000, || digests_match(&n1b, &n2)),
        "digests diverged after the revival reconcile"
    );
}

#[test]
fn transient_partition_is_fenced_not_split_brained() {
    let (dir1, dir2, dir3) = (
        temp_state_dir("veto1"),
        temp_state_dir("veto2"),
        temp_state_dir("veto3"),
    );
    // The head refuses a burst of requests mid-steady-state (the 25th
    // replication-transport charge arms the partition), then heals. By
    // the time the tail accumulates `suspect_after` failed probes, the
    // partition has spent its refusals — the voter's quorum probe
    // reaches the head and vetoes the promotion. A suspected-but-alive
    // head must end the test exactly where it started: primary.
    let n1 = shard_server(&dir1, |c| {
        c.probe_interval_ms = 50;
        c.suspect_after = 3;
        c.faults = Faults::new([FaultPlan::new(FaultSite::NetPartition, 25)]);
    });
    let n1_addr = n1.addr;
    let n3 = shard_server(&dir3, |c| {
        c.probe_interval_ms = 50;
        c.suspect_after = 3;
    });
    let (status, _) = request(
        &n1,
        "POST",
        "/v1/cluster/join",
        &format!(r#"{{"addr": "{}"}}"#, n3.addr),
    );
    assert_eq!(status, 200);
    let n2 = shard_server(&dir2, |c| {
        c.probe_interval_ms = 50;
        c.suspect_after = 3;
    });
    let (status, v) = request(
        &n1,
        "POST",
        "/v1/cluster/enlist",
        &format!(r#"{{"host": "{}", "addr": "{}"}}"#, n1_addr, n2.addr),
    );
    assert_eq!(status, 200, "{v:?}");

    let ring = ShardRing::new(
        [format!("{n1_addr}~{}", n2.addr), n3.addr.to_string()],
        DEFAULT_VNODES,
        0,
    );
    let mine = names_owned_by(&ring, n1_addr, 1).remove(0);
    let seq = put(&n1, &mine, "A & !B");

    // Ride out the partition: it fires, refuses its burst, heals.
    std::thread::sleep(Duration::from_millis(1_500));

    // Nobody deposed the live head.
    assert_eq!(role_of(&n1), "primary", "live head was deposed");
    assert_eq!(role_of(&n2), "replica", "tail split-brained to primary");
    for node in [&n1, &n2, &n3] {
        let (_, v) = request(node, "GET", "/v1/cluster/ring", "");
        assert_eq!(num_of(&v, "epoch"), 3, "ring rotated under a live head");
    }

    // The head still commits, and replication resumed after the heal.
    let seq2 = put(&n1, &mine, "A & !B & C");
    assert!(seq2 > seq);
    assert!(
        wait_until(5_000, || {
            let (status, v) = request(&n2, "GET", "/v1/replication/status", "");
            status == 200 && num_of(&v, "visible") >= seq2
        }),
        "replication never resumed after the partition healed"
    );
}

/// The head of the chain `member` serves in, as `node`'s ring lists it
/// ("" when `node`'s ring does not list `member`).
fn chain_head_on(node: &RunningServer, member: SocketAddr) -> String {
    let (_, ring) = request(node, "GET", "/v1/cluster/ring", "");
    ring.get("members")
        .and_then(|m| m.as_array())
        .unwrap()
        .iter()
        .filter_map(|m| m.as_str().and_then(ChainEntry::parse))
        .find(|chain| chain.contains(&member.to_string()))
        .map(|chain| chain.head().to_string())
        .unwrap_or_default()
}

#[test]
fn manual_promote_on_an_enlisted_tail_rotates_the_chain() {
    let (dir1, dir2, dir3) = (
        temp_state_dir("promote1"),
        temp_state_dir("promote2"),
        temp_state_dir("promote3"),
    );
    let n1 = shard_server(&dir1, fast_detector);
    let n3 = shard_server(&dir3, fast_detector);
    let (status, _) = request(
        &n1,
        "POST",
        "/v1/cluster/join",
        &format!(r#"{{"addr": "{}"}}"#, n3.addr),
    );
    assert_eq!(status, 200);
    let n2 = shard_server(&dir2, fast_detector);
    let (status, v) = request(
        &n1,
        "POST",
        "/v1/cluster/enlist",
        &format!(r#"{{"host": "{}", "addr": "{}"}}"#, n1.addr, n2.addr),
    );
    assert_eq!(status, 200, "{v:?}");

    let ring = ShardRing::new(
        [format!("{}~{}", n1.addr, n2.addr), n3.addr.to_string()],
        DEFAULT_VNODES,
        0,
    );
    let name = names_owned_by(&ring, n1.addr, 1).remove(0);
    let seq = put(&n1, &name, "A & B");
    assert!(
        wait_until(5_000, || {
            let (status, v) = request(&n2, "GET", "/v1/replication/status", "");
            status == 200 && num_of(&v, "visible") >= seq
        }),
        "tail never caught up before the promote"
    );

    // The operator promotes the live tail: a chain rotation.
    let (status, v) = request(&n2, "POST", "/v1/replication/promote", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("promoted").and_then(|p| p.as_bool()), Some(true));
    assert_eq!(num_of(&v, "epoch"), 2);
    // Promoting the head again changes nothing.
    let (status, v) = request(&n2, "POST", "/v1/replication/promote", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("promoted").and_then(|p| p.as_bool()), Some(false));
    assert_eq!(num_of(&v, "epoch"), 2);

    // Every member's ring lists the promoted node as the chain's head.
    for node in [&n1, &n2, &n3] {
        assert!(
            wait_until(5_000, || chain_head_on(node, n2.addr)
                == n2.addr.to_string()),
            "{} does not list the promoted node as head",
            node.addr
        );
    }

    // The old head demotes and follows the new one, which stays head.
    assert!(
        wait_until(10_000, || {
            let (status, v) = request(&n1, "GET", "/v1/replication/status", "");
            status == 200 && str_of(&v, "role") == "replica" && num_of(&v, "epoch") == 2
        }),
        "the old head never demoted to follow the new head"
    );
    assert_eq!(
        role_of(&n2),
        "primary",
        "the promoted node was demoted back"
    );
    assert_eq!(chain_head_on(&n1, n1.addr), n2.addr.to_string());

    // A write sent to the old head redirects to the new head...
    let body = r#"{"action": "put", "formula": "A & B & C"}"#;
    let (status, head, v) =
        Client::connect_server(&n1).request_full("POST", &format!("/v1/kb/{name}"), &[], body);
    assert_eq!(status, 307, "{v:?}");
    let location = format!("http://{}/v1/kb/{name}", n2.addr);
    assert_eq!(
        head.header("location"),
        Some(location.as_str()),
        "write must redirect to the promoted head, got {head:?}"
    );
    // ...which commits it, and the old head follows.
    let seq2 = put(&n2, &name, "A & B & C");
    assert!(seq2 > seq);
    assert!(
        wait_until(10_000, || digests_match(&n1, &n2)
            && listing(&n1)
                .iter()
                .any(|(n, s, _)| *n == name && *s == seq2)),
        "the old head never followed the new head's commit"
    );
}

#[test]
fn enlisted_tail_catches_up_without_detector_ticks() {
    let (dir1, dir2) = (temp_state_dir("nodetect1"), temp_state_dir("nodetect2"));
    let n1 = shard_server(&dir1, |c| c.probe_interval_ms = 0);
    let seq = put(&n1, "early", "A & !B");
    let (_, at_head) = request(&n1, "GET", "/v1/kb/early", "");

    let n2 = shard_server(&dir2, |c| c.probe_interval_ms = 0);
    let (status, v) = request(
        &n1,
        "POST",
        "/v1/cluster/enlist",
        &format!(r#"{{"host": "{}", "addr": "{}"}}"#, n1.addr, n2.addr),
    );
    assert_eq!(status, 200, "{v:?}");

    // Every read the tail answers is the head's commit: proxied to the
    // head until the tail has caught up, then served from its own store.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, head, v) =
            Client::connect_server(&n2).request_full("GET", "/v1/kb/early", &[], "");
        assert_eq!(
            status, 200,
            "tail answered from a store still behind: {v:?}"
        );
        assert_eq!(num_of(&v, "seq"), seq, "{v:?}");
        assert_eq!(str_of(&v, "formula"), str_of(&at_head, "formula"));
        if head.header("x-arbitrex-shard-owner").is_none() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "tail never caught up without detector ticks"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let (_, v) = request(&n2, "GET", "/v1/replication/status", "");
    assert_eq!(str_of(&v, "role"), "replica", "{v:?}");
    assert!(num_of(&v, "visible") >= 1, "{v:?}");

    // Later commits keep streaming.
    put(&n1, "late", "C");
    assert!(
        wait_until(5_000, || digests_match(&n1, &n2)),
        "the tail stopped following its head"
    );
}

#[test]
fn restarted_tail_stays_read_only_until_the_ring_lists_it() {
    let (dir1, dir2) = (temp_state_dir("restart1"), temp_state_dir("restart2"));
    let n1 = shard_server(&dir1, |c| c.probe_interval_ms = 0);
    let n2 = shard_server(&dir2, |c| c.probe_interval_ms = 0);
    let enlist = format!(r#"{{"host": "{}", "addr": "{}"}}"#, n1.addr, n2.addr);
    let (status, v) = request(&n1, "POST", "/v1/cluster/enlist", &enlist);
    assert_eq!(status, 200, "{v:?}");
    put(&n1, "before", "A & B");
    assert!(
        wait_until(5_000, || digests_match(&n1, &n2)),
        "tail never caught up before its restart"
    );

    // The tail restarts on its state dir with its original flags while
    // the head commits on.
    let n2_addr = n2.addr;
    n2.stop().unwrap();
    let seq = put(&n1, "during", "C | D");
    let n2 = shard_server(&dir2, |c| {
        c.probe_interval_ms = 0;
        c.addr = n2_addr.to_string();
    });

    // Its ring is a singleton of its own, yet it takes no write: not
    // on its own store, not through its routing.
    assert_eq!(role_of(&n2), "replica");
    let body = r#"{"action": "put", "formula": "E"}"#;
    let (status, v) = Client::connect_server(&n2).request_with_headers(
        "POST",
        "/v1/kb/during",
        &[("x-arbitrex-shard-internal", "1")],
        body,
    );
    assert_eq!(status, 503, "{v:?}");
    let (status, v) = request(&n2, "POST", "/v1/kb/fresh", body);
    assert_ne!(status, 200, "a restarted tail accepted a write: {v:?}");

    // Enlisting it again re-sends the ring: it follows its head from
    // where it stopped, and the two stores converge.
    let (status, v) = request(&n1, "POST", "/v1/cluster/enlist", &enlist);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("enlisted").and_then(|e| e.as_bool()), Some(false));
    assert_eq!(num_of(&v, "synced"), 1, "{v:?}");
    assert!(
        wait_until(5_000, || digests_match(&n1, &n2)
            && listing(&n2)
                .iter()
                .any(|(n, s, _)| n == "during" && *s == seq)),
        "restarted tail never converged with its head"
    );
    assert_eq!(chain_head_on(&n2, n2.addr), n1.addr.to_string());
    assert_eq!(role_of(&n2), "replica");
}

#[test]
fn promote_on_a_replica_that_is_not_the_successor_is_refused() {
    let (dir1, dir2, dir3) = (
        temp_state_dir("notsucc1"),
        temp_state_dir("notsucc2"),
        temp_state_dir("notsucc3"),
    );
    let n1 = shard_server(&dir1, |c| c.probe_interval_ms = 0);
    let n2 = shard_server(&dir2, |c| c.probe_interval_ms = 0);
    let n3 = shard_server(&dir3, |c| c.probe_interval_ms = 0);
    for tail in [&n2, &n3] {
        let (status, v) = request(
            &n1,
            "POST",
            "/v1/cluster/enlist",
            &format!(r#"{{"host": "{}", "addr": "{}"}}"#, n1.addr, tail.addr),
        );
        assert_eq!(status, 200, "{v:?}");
    }
    let (_, ring_before) = request(&n3, "GET", "/v1/cluster/ring", "");
    let (_, status_before) = request(&n3, "GET", "/v1/replication/status", "");
    assert_eq!(num_of(&ring_before, "epoch"), 3, "{ring_before:?}");

    // The chain's third member is not its head's successor.
    let (status, v) = request(&n3, "POST", "/v1/replication/promote", "");
    assert_eq!(status, 409, "{v:?}");
    assert!(str_of(&v, "error").contains(&n2.addr.to_string()), "{v:?}");

    // Neither the ring nor the fencing epoch moved, anywhere.
    for node in [&n1, &n2, &n3] {
        let (_, ring) = request(node, "GET", "/v1/cluster/ring", "");
        assert_eq!(ring.get("members"), ring_before.get("members"), "{ring:?}");
        assert_eq!(num_of(&ring, "epoch"), 3, "{ring:?}");
        assert_eq!(chain_head_on(node, n3.addr), n1.addr.to_string());
    }
    let (_, v) = request(&n3, "GET", "/v1/replication/status", "");
    assert_eq!(num_of(&v, "epoch"), num_of(&status_before, "epoch"));
    assert_eq!(str_of(&v, "role"), "replica");
    assert_eq!(role_of(&n1), "primary");
}

#[test]
fn shard_ring_requires_two_worker_threads() {
    // A one-thread member deadlocks membership: the sync handler blocks
    // its only worker while peers need to pull from this node. Every
    // node is a ring member, so a one-worker node still boots — but its
    // membership calls answer a typed 503 naming the flag, and booting
    // one with peers (which joins a cluster at once) is refused.
    let node = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        state_dir: Some(temp_state_dir("onethread")),
        ..ServerConfig::default()
    })
    .expect("a one-worker singleton boots");
    let body = r#"{"addr": "127.0.0.1:1", "host": "127.0.0.1:1", "epoch": 9, "members": []}"#;
    for action in ["join", "leave", "sync", "enlist"] {
        let (status, v) = request(&node, "POST", &format!("/v1/cluster/{action}"), body);
        assert_eq!(status, 503, "{action}: {v:?}");
        assert!(str_of(&v, "error").contains("--threads"), "{action}: {v:?}");
    }
    node.stop().unwrap();

    let result = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        state_dir: Some(temp_state_dir("onethread-peers")),
        cluster_peers: vec!["127.0.0.1:1".to_string()],
        ..ServerConfig::default()
    });
    match result {
        Ok(server) => {
            let _ = server.stop();
            panic!("--cluster-peers with one worker thread must be refused");
        }
        Err(err) => assert!(
            err.to_string().contains("--threads"),
            "unexpected error: {err}"
        ),
    }
}

#[test]
fn cluster_endpoints_require_sharding_and_validate_input() {
    // A plain in-memory node is a singleton ring of its own.
    let plain = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 16,
        timeout_ms: 0,
        ..ServerConfig::default()
    })
    .expect("spawn plain server");
    let (status, v) = request(&plain, "GET", "/v1/kbs", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "ring_epoch"), 1);
    let (status, v) = request(&plain, "GET", "/v1/cluster/ring", "");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(num_of(&v, "epoch"), 1);

    let dir = temp_state_dir("validate");
    let node = shard_server(&dir, |_| {});
    let (status, v) = request(&node, "POST", "/v1/cluster/join", r#"{"addr": ""}"#);
    assert_eq!(status, 400, "{v:?}");
    let (status, v) = request(&node, "POST", "/v1/cluster/join", "{}");
    assert_eq!(status, 400, "{v:?}");
    let (status, v) = request(&node, "GET", "/v1/cluster/join", "");
    assert_eq!(status, 405, "{v:?}");
    let (status, v) = request(&node, "POST", "/v1/cluster/unknown", "{}");
    assert_eq!(status, 404, "{v:?}");
    // A release for a KB this node never held is a clean no-op.
    let (status, v) = request(
        &node,
        "POST",
        "/v1/cluster/release",
        r#"{"name": "ghost", "seq": 3}"#,
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("released").and_then(|r| r.as_bool()), Some(false));
}
