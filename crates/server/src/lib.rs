//! # arbitrex-server
//!
//! A concurrent arbitration service over the operators of Revesz's
//! *Arbitration between Old and New Information* (PODS 1993): a zero-
//! dependency TCP server speaking minimal HTTP/1.1 + JSON, built from
//! three pieces:
//!
//! * **event loop + CPU worker pool** ([`server`], [`poller`]) — one
//!   readiness-driven I/O thread (raw `epoll` on Linux) multiplexes
//!   every connection, parses pipelined HTTP/1.1 requests, and hands
//!   them to `threads` CPU workers over a `queue_depth`-bounded queue;
//!   overflow answers `503` (with `Retry-After`) immediately from the
//!   I/O thread (backpressure, not buffering);
//! * **per-request deadlines** ([`routes`]) — each request builds a
//!   [`arbitrex_core::Budget`]; a slow query degrades to a typed
//!   `upper_bound`/`interrupted` response instead of stalling a worker.
//!   Every query goes straight to its operator's one budgeted entry: no
//!   result is cached, since the kernel's selection costs less than any
//!   renaming-invariant key of the query would;
//! * **named KB store** ([`kb`]) — theories arbitrated in place
//!   (`ψ ← ψ Δ μ`) with a sequence number, the service form of iterated
//!   theory change.
//!
//! Endpoints: `POST /v1/arbitrate`, `POST /v1/fit`, `POST /v1/warbitrate`,
//! `GET|POST|DELETE /v1/kb/{name}`, and `GET /metrics` (the workspace
//! telemetry snapshot plus server counters and per-endpoint latency
//! histograms). Answer bodies are written straight from the model bits by
//! [`answer::AnswerWriter`]. The protocol table is in the workspace README
//! ("Serving"); counter definitions are in `OBSERVABILITY.md`.
//!
//! ```
//! use arbitrex_server::{spawn, ServerConfig};
//! use std::io::{Read, Write};
//!
//! let server = spawn(ServerConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! let mut conn = std::net::TcpStream::connect(server.addr).unwrap();
//! let body = r#"{"psi": "A & B", "phi": "!A & !B"}"#;
//! write!(
//!     conn,
//!     "POST /v1/arbitrate HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
//!     body.len(),
//!     body
//! )
//! .unwrap();
//! let mut reply = String::new();
//! conn.read_to_string(&mut reply).unwrap();
//! assert!(reply.contains("\"quality\":\"exact\""));
//! server.stop().unwrap();
//! ```

#![warn(missing_docs)]

pub mod answer;
pub mod failover;
pub mod http;
pub mod json;
pub mod kb;
pub mod metrics;
pub mod poller;
pub mod recovery;
pub mod replication;
pub mod routes;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod wal;

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;

use arbitrex_core::Faults;
use kb::{DurabilityOptions, KbStore};
use recovery::{RecoverMode, RecoveryReport};

pub use server::{install_signal_shutdown, Server, ShutdownHandle};

/// Knobs for one server instance, mirroring the `arbx serve` flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7313`; port `0` picks a free port.
    pub addr: String,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Bounded connection-queue depth; overflow is refused with 503.
    pub queue_depth: usize,
    /// Default per-request deadline in milliseconds; 0 means none. A
    /// request's own `timeout_ms` field overrides this.
    pub timeout_ms: u64,
    /// Largest accepted request body; larger `Content-Length`s are
    /// refused with 413 before buffering.
    pub max_body_bytes: usize,
    /// State directory for the durable KB store (`wal.log` +
    /// `snapshot.bin`). `None` (the default) keeps KBs in memory only.
    pub state_dir: Option<PathBuf>,
    /// Snapshot after this many WAL records (0 disables periodic
    /// snapshots; one is still written on clean shutdown).
    pub snapshot_every: u64,
    /// What recovery does on damage beyond a torn tail.
    pub recover: RecoverMode,
    /// Deterministic fault injection (testing): the armed durability
    /// (`wal_*`, `snapshot_rename`), replication-transport (`net_*`) and
    /// shard-router (`shard_*`) plans. Clones share one trigger.
    pub faults: Faults,
    /// Idle keep-alive connections are closed after this long with no
    /// traffic and nothing in flight; `0` keeps them forever.
    pub keep_alive_timeout_ms: u64,
    /// How long the group-commit flusher may wait for more
    /// commits to join a batch before issuing the fsync. `0` flushes as
    /// soon as the flusher is free (natural batching only). This bounds
    /// the *extra* ack latency a commit can pay for batching.
    pub flush_interval_us: u64,
    /// Start the fencing epoch here instead of continuing from recovery
    /// (never below what recovery found). Mostly for tests and storm
    /// scripts.
    pub replication_epoch: Option<u64>,
    /// This node's ring identity (`host:port`, or [`shard::SELF_AUTO`],
    /// the default, to advertise the actually bound address). Every node
    /// is a ring member: with no peers it is a singleton chain headed by
    /// itself.
    pub shard_ring: String,
    /// Virtual nodes per ring member.
    pub shard_vnodes: u32,
    /// Other members seeding the initial ring, as addresses or chain
    /// specs (all nodes started with the same set agree). A spec listing
    /// this node behind a head boots it as that head's replica; later
    /// membership goes through `POST /v1/cluster/{join,leave,enlist}`.
    pub cluster_peers: Vec<String>,
    /// How often the failure detector probes its chain head, in
    /// milliseconds. `0` disables the detector (no probes, no automatic
    /// promotion) even when this node is a chain replica.
    pub probe_interval_ms: u64,
    /// Consecutive failed probes before a chain head is suspected dead
    /// and the quorum check runs.
    pub suspect_after: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7313".to_string(),
            threads: 4,
            queue_depth: 64,
            timeout_ms: 0,
            max_body_bytes: http::MAX_BODY_BYTES,
            state_dir: None,
            snapshot_every: 256,
            recover: RecoverMode::Strict,
            faults: Faults::default(),
            keep_alive_timeout_ms: 5_000,
            flush_interval_us: 0,
            replication_epoch: None,
            shard_ring: shard::SELF_AUTO.to_string(),
            shard_vnodes: shard::DEFAULT_VNODES,
            cluster_peers: Vec::new(),
            probe_interval_ms: 500,
            suspect_after: 3,
        }
    }
}

/// Everything the request handlers share: configuration, the named KB
/// store, and the ring and failover state.
pub struct ServiceState {
    /// The configuration the server was built with.
    pub config: ServerConfig,
    /// Named knowledge bases.
    pub kbs: KbStore,
    /// What recovery found, when the store is durable.
    pub recovery: Option<RecoveryReport>,
    /// The shard router: the ring every role derives from, plus this
    /// node's identity on it.
    pub shards: shard::ShardRouter,
    /// Failover bookkeeping: the supervised puller slot, deposed heads
    /// awaiting revival, and the detector stop flag.
    pub failover: failover::FailoverState,
}

impl ServiceState {
    /// Build state for `config`, recovering the state directory if one
    /// is configured. Recovery refusals (mid-log corruption in strict
    /// mode) surface here as errors — the server does not start.
    pub fn new(config: ServerConfig) -> io::Result<ServiceState> {
        let (kbs, recovery) = match &config.state_dir {
            None => (KbStore::new(), None),
            Some(dir) => {
                // The role comes from the ring once the node knows its
                // bound address (`failover::reconcile_role`); a store
                // demoted before shutdown reopens read-only.
                let (store, report) = KbStore::open_durable(DurabilityOptions {
                    dir: dir.clone(),
                    snapshot_every: config.snapshot_every,
                    recover: config.recover,
                    faults: config.faults.clone(),
                    flush_interval: std::time::Duration::from_micros(config.flush_interval_us),
                    initial_epoch: config.replication_epoch,
                })
                .map_err(|e| io::Error::other(e.to_string()))?;
                (store, Some(report))
            }
        };
        if !config.cluster_peers.is_empty() && config.threads < 2 {
            return Err(io::Error::other(
                "--cluster-peers requires at least 2 worker threads (a member answers peer \
                 pulls while its own membership handler blocks); raise --threads",
            ));
        }
        let shards = shard::ShardRouter::new(
            config.shard_ring.clone(),
            &config.cluster_peers,
            config.shard_vnodes,
        );
        Ok(ServiceState {
            config,
            kbs,
            recovery,
            shards,
            failover: failover::FailoverState::new(),
        })
    }
}

/// A server running on a background thread (tests, benches, and the CLI's
/// foreground runner all build on this).
pub struct RunningServer {
    /// The bound address (with port 0 resolved).
    pub addr: SocketAddr,
    state: std::sync::Arc<ServiceState>,
    shutdown: ShutdownHandle,
    join: JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// A handle that stops this server.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// The shared service state (config, KB store, recovery report).
    pub fn state(&self) -> std::sync::Arc<ServiceState> {
        std::sync::Arc::clone(&self.state)
    }

    /// Request shutdown and wait for the drain to finish.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.shutdown();
        match self.join.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// Bind and run `config` on a background thread.
pub fn spawn(config: ServerConfig) -> io::Result<RunningServer> {
    let server = Server::bind(config)?;
    let addr = server.local_addr()?;
    let state = server.state();
    let shutdown = server.shutdown_handle();
    let join = std::thread::Builder::new()
        .name("arbitrex-acceptor".to_string())
        .spawn(move || server.run())?;
    Ok(RunningServer {
        addr,
        state,
        shutdown,
        join,
    })
}
