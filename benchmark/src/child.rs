//! The server under test as a child process: spawn, readiness, `/proc`
//! accounting, `/metrics` scrapes, and kill.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

use arbitrex_server::json::{self, Json};
use arbitrex_server::replication::PeerClient;

/// The flags every server child runs with; every other flag keeps its
/// default. A deep queue keeps VM stalls from turning into 503s, so
/// failures measure the server rather than the host.
pub const SERVER_FLAGS: [&str; 4] = ["--addr", "127.0.0.1:0", "--queue-depth", "1024"];

/// Linux reports `/proc/<pid>/stat` CPU times in units of `USER_HZ`,
/// which is 100 on every supported architecture.
const USER_HZ: f64 = 100.0;

/// A running server child. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    /// The bound address.
    pub addr: SocketAddr,
}

impl Server {
    /// Start `<this executable> serve` with [`SERVER_FLAGS`] (plus
    /// `--state-dir`) and wait until it reports its listening address.
    pub fn spawn(state_dir: Option<&Path>) -> io::Result<Server> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("serve").args(SERVER_FLAGS);
        if let Some(dir) = state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        for line in BufReader::new(stdout).lines() {
            let line = line?;
            if let Some(rest) = line.strip_prefix("arbitrex-server listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                server.addr = addr
                    .parse()
                    .map_err(|_| io::Error::other(format!("bad listen address in `{line}`")))?;
                return Ok(server);
            }
        }
        Err(io::Error::other("server exited before listening"))
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time the child has used, in milliseconds.
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("malformed /proc/<pid>/stat"))
        };
        Ok((ticks(11)? + ticks(12)?) * 1000.0 / USER_HZ)
    }

    /// The child's peak resident set size (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc/<pid>/status"))
    }

    /// SIGKILL the child and wait for it to end.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(|_| ())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The host's CPU time as `(steal, total)` in `USER_HZ` ticks over all
/// CPUs, from the first line of `/proc/stat`. Steal is time the hypervisor
/// ran something else while this machine's virtual CPUs wanted to run.
pub fn host_cpu_ticks() -> io::Result<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    match ticks.get(7) {
        Some(&steal) => Ok((steal, ticks[..8].iter().sum())),
        None => Err(io::Error::other("malformed /proc/stat")),
    }
}

/// A parsed `GET /metrics` document.
pub struct Metrics(Json);

impl Metrics {
    /// Scrape the server's `/metrics`.
    pub fn scrape(addr: SocketAddr) -> io::Result<Metrics> {
        let reply = PeerClient::connect(&addr.to_string())?.request("GET", "/metrics", None)?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "/metrics answered {}",
                reply.status
            )));
        }
        let text = String::from_utf8(reply.body).map_err(io::Error::other)?;
        json::parse(&text).map(Metrics).map_err(io::Error::other)
    }

    /// A telemetry counter (or timer `<name>_ns`) by section and name;
    /// 0 when absent.
    pub fn counter(&self, section: &str, name: &str) -> f64 {
        self.0
            .get("telemetry")
            .and_then(|t| t.get(section))
            .and_then(|s| s.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    }

    /// A latency histogram as `{bucket lower bound ns → count}`.
    pub fn histogram(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        if let Some(Json::Obj(buckets)) = self
            .0
            .get("latency_ns")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("buckets"))
        {
            for (lo, count) in buckets {
                if let (Ok(lo), Some(count)) = (lo.parse::<u64>(), count.as_u64()) {
                    out.insert(lo, count);
                }
            }
        }
        out
    }
}

/// Counter growth between two scrapes.
pub struct Delta<'a> {
    /// The earlier scrape.
    pub before: &'a Metrics,
    /// The later scrape.
    pub after: &'a Metrics,
}

impl Delta<'_> {
    /// Growth of one counter.
    pub fn counter(&self, section: &str, name: &str) -> f64 {
        self.after.counter(section, name) - self.before.counter(section, name)
    }

    /// Bucket-wise growth of the named histograms, merged.
    pub fn histogram(&self, names: &[&str]) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for name in names {
            let before = self.before.histogram(name);
            for (lo, count) in self.after.histogram(name) {
                let grown = count.saturating_sub(before.get(&lo).copied().unwrap_or(0));
                *out.entry(lo).or_insert(0) += grown;
            }
        }
        out
    }
}
