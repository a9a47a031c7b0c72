//! The serving experiments' shared harness (E15–E21): one node spawner,
//! one pipelined load loop, the light query pool, a commit body, the
//! `seq` of an ack, and a nearest-rank percentile. Every request goes
//! through the server crate's own client, [`PeerClient`]: buffered
//! reads, one write per request or pipelined batch.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use arbitrex_server::json;
use arbitrex_server::replication::PeerClient;
use arbitrex_server::{spawn, RunningServer, ServerConfig};

/// `(ψ, φ)` arbitration queries, as formula text.
pub type QueryPool = Vec<(String, String)>;

/// A loopback node on its own fresh state dir.
pub struct Node {
    server: RunningServer,
    /// Its bound address, `host:port`.
    pub addr: String,
    dir: PathBuf,
}

impl Node {
    /// Spawn a durable node on 127.0.0.1: 4 workers, queue depth 256,
    /// a 4096-entry cache, no periodic snapshots, and a fresh state dir.
    /// `configure` sets the fields an experiment varies; clearing
    /// `state_dir` gives an in-memory node.
    pub fn spawn(configure: impl FnOnce(&mut ServerConfig)) -> Node {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "arbx-bench-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create state dir");
        let mut config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            queue_depth: 256,
            cache_entries: 4096,
            state_dir: Some(dir.clone()),
            snapshot_every: 0,
            ..ServerConfig::default()
        };
        configure(&mut config);
        let server = spawn(config).expect("spawn node");
        let addr = server.addr.to_string();
        Node { server, addr, dir }
    }

    /// A fresh keep-alive connection to the node.
    pub fn client(&self) -> PeerClient {
        PeerClient::connect(&self.addr).expect("connect")
    }

    /// Stop the node and remove its state dir.
    pub fn stop(self) {
        self.server.stop().expect("clean shutdown");
        let _ = std::fs::remove_dir_all(self.dir);
    }
}

/// Small-result queries: ψ is a cube with k positive literals, φ its
/// bitwise complement. Two single-model theories arbitrate to the
/// balanced compromises between the two corners — C(n, n/2)-ish
/// models, a few hundred bytes of response at widths 3..=6. Distinct
/// (width, k) pairs are distinct canonical keys.
pub fn light_pool() -> QueryPool {
    let mut out = Vec::new();
    for n in 3..=6usize {
        let vars: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
        for k in 0..n {
            let cube = |flip: bool| {
                vars.iter()
                    .enumerate()
                    .map(|(i, v)| {
                        if (i < k) != flip {
                            v.clone()
                        } else {
                            format!("!{v}")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" & ")
            };
            out.push((cube(false), cube(true)));
        }
    }
    out
}

/// Responses a [`pipelined_load`] read back.
#[derive(Debug, Default, PartialEq)]
pub struct Load {
    /// Every response read.
    pub requests: usize,
    /// Those with status 200.
    pub ok: usize,
}

/// Closed loop at a fixed pipeline depth: `clients` keep-alive
/// connections each walk `pool` `rounds` times, starting at their own
/// offset so clients stay out of phase, and write `depth` arbitrations
/// in one write before reading the `depth` responses back. `depth == 1`
/// is the serial closed loop. A client also ends after its current
/// batch once `stop` is set.
pub fn pipelined_load(
    addr: &str,
    pool: &[(String, String)],
    clients: usize,
    depth: usize,
    rounds: usize,
    stop: &AtomicBool,
) -> Load {
    let wires: Vec<Vec<u8>> = pool
        .iter()
        .map(|(psi, phi)| {
            let body = format!(r#"{{"psi": "{psi}", "phi": "{phi}"}}"#);
            PeerClient::encode("POST", "/v1/arbitrate", Some(&body), &[])
        })
        .collect();
    let per_client = rounds.saturating_mul(wires.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let wires = &wires;
                scope.spawn(move || {
                    let mut conn = PeerClient::connect(addr).expect("connect load client");
                    let offset = client * wires.len() / clients;
                    let mut load = Load::default();
                    let mut batch = Vec::with_capacity(4096);
                    while load.requests < per_client && !stop.load(Ordering::Relaxed) {
                        let n = depth.min(per_client - load.requests);
                        batch.clear();
                        for i in load.requests..load.requests + n {
                            batch.extend_from_slice(&wires[(offset + i) % wires.len()]);
                        }
                        conn.send_raw(&batch).expect("write batch");
                        for _ in 0..n {
                            let status = conn.read_response().expect("read response").status;
                            load.ok += usize::from(status == 200);
                        }
                        load.requests += n;
                    }
                    load
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client"))
            .fold(Load::default(), |sum, one| Load {
                requests: sum.requests + one.requests,
                ok: sum.ok + one.ok,
            })
    })
}

/// The `i`-th body of a commit stream: a KB `put` alternating two
/// formulas, so consecutive WAL records differ.
pub fn put_body(i: usize) -> &'static str {
    if i.is_multiple_of(2) {
        r#"{"action": "put", "formula": "A & B"}"#
    } else {
        r#"{"action": "put", "formula": "A | B"}"#
    }
}

/// The top-level `seq` of a JSON response body (a commit's ack).
pub fn seq(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    json::parse(text).ok()?.get("seq")?.as_u64()
}

/// Nearest-rank percentile of an ascending, nonempty slice: the
/// smallest sample with at least `p` percent of the samples at or
/// below it.
pub fn percentile(sorted: &[u64], p: usize) -> u64 {
    sorted[(p * sorted.len()).div_ceil(100).max(1) - 1]
}

/// The longest gap between consecutive instants, in whole milliseconds:
/// a write stream's blackout, read off its ack times.
pub fn longest_gap_ms(acks: &[Instant]) -> u64 {
    acks.windows(2)
        .map(|pair| pair[1].duration_since(pair[0]).as_millis() as u64)
        .max()
        .unwrap_or(0)
}
