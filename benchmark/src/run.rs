//! One workload end to end: set-up, the timed phase at the nominal rate,
//! correctness checks, and (with `--trace`) the traced layer replay.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use arbitrex_server::json::{self, obj, Json};

use crate::child::{host_cpu_ticks, Delta, Metrics, Server, SERVER_FLAGS};
use crate::loadgen::{run_phase, Outcome, Phase};
use crate::oracle::{KbLedger, QueryOracle};
use crate::stats::{histogram_quantile, median, percentile};
use crate::trace::{self, Span};
use crate::workload::{Corpus, Kind, Request, Workload};

/// Set-ups per run, of which `setup_s` is the median: at least
/// `SETUP_MIN`, then more while their total stays under `SETUP_BUDGET`, up
/// to `SETUP_MAX`. Cheap set-ups (tens of ms) vary by ±15% from one to the
/// next, so they get more repeats; slow ones stay at the minimum.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET: f64 = 2.0;
/// Timed-phase answers checked against the oracle (query workloads).
const SAMPLED_CHECKS: usize = 2000;
/// Wait for outstanding responses after the last due time.
const DRAIN: Duration = Duration::from_secs(10);
const SETUP_DRAIN: Duration = Duration::from_secs(60);
/// Requests replayed per workload by `--smoke`.
const SMOKE_REPLAY: usize = 200;

/// How to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Seed of every corpus, stream and schedule.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the traced layer replay (per-layer metrics).
    pub trace: bool,
    /// Short run: one set-up and a short replay.
    pub smoke: bool,
}

/// One measured value.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one workload produced.
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Every metric computed.
    pub metrics: Vec<Metric>,
    /// Requests scheduled in the timed phase.
    pub attempted: u64,
    /// Timed-phase failures plus every wrong answer found anywhere.
    pub failed: u64,
    /// Correctness mismatches.
    pub errors: Vec<String>,
    /// Per-phase summaries with their per-second timelines.
    pub phases: Vec<Json>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Where outputs (result, spans, state directories) go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The durable store's state directory: `kb-mixed` only.
pub fn durable_dir(w: Workload) -> Option<PathBuf> {
    (w == Workload::KbMixed).then(|| out_dir().join(format!("state-{}", w.name())))
}

/// The flags of a server child, as the CLI parses them.
pub fn server_flags(state_dir: Option<&Path>) -> Vec<String> {
    let mut flags: Vec<String> = SERVER_FLAGS.iter().map(|s| s.to_string()).collect();
    if let Some(dir) = state_dir {
        flags.push("--state-dir".to_string());
        flags.push(dir.display().to_string());
    }
    flags
}

fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run a burst with every request due at once (set-up, final reads).
fn burst(addr: SocketAddr, requests: &[Request], keep: bool) -> io::Result<Vec<Outcome>> {
    let due = vec![Duration::ZERO; requests.len()];
    let wires: Vec<Vec<u8>> = requests.iter().map(Request::wire).collect();
    let keep_body = vec![keep; requests.len()];
    let phase = Phase {
        due: &due,
        wires: &wires,
        keep_body: &keep_body,
        drain: SETUP_DRAIN,
    };
    let outcomes = run_phase(addr, &phase, |_| {})?;
    if let Some(bad) = outcomes.iter().find(|o| !o.ok()) {
        return Err(io::Error::other(format!(
            "a set-up or read-back request failed with status {}",
            bad.status
        )));
    }
    Ok(outcomes)
}

/// What a timed phase reads at its start and after each whole second.
struct Tick {
    /// `wal.snapshots_written` from `/metrics`.
    snapshots: f64,
    /// `wal.fsyncs` from `/metrics`.
    fsyncs: f64,
    /// The server child's CPU time, ms.
    cpu_ms: f64,
    /// The host's `(steal, total)` CPU time.
    host: (f64, f64),
}

impl Tick {
    fn read(server: &Server) -> io::Result<Tick> {
        let m = Metrics::scrape(server.addr)?;
        Ok(Tick {
            snapshots: m.counter("wal", "snapshots_written"),
            fsyncs: m.counter("wal", "fsyncs"),
            cpu_ms: server.cpu_ms()?,
            host: host_cpu_ticks()?,
        })
    }
}

/// Share of the host's CPU time stolen between two [`host_cpu_ticks`]
/// readings, in percent.
fn steal_pct(before: (f64, f64), after: (f64, f64)) -> f64 {
    ratio(after.0 - before.0, after.1 - before.1) * 100.0
}

/// A timed phase with its per-second ticks.
struct Timed {
    outcomes: Vec<Outcome>,
    ticks: Vec<Tick>,
    seconds: f64,
}

fn timed_phase(
    server: &Server,
    plan: &crate::workload::Plan,
    keep_body: &[bool],
    seconds: f64,
) -> io::Result<Timed> {
    let wires: Vec<Vec<u8>> = plan.requests.iter().map(Request::wire).collect();
    let mut ticks = vec![Tick::read(server)?];
    let phase = Phase {
        due: &plan.due,
        wires: &wires,
        keep_body,
        drain: DRAIN,
    };
    let outcomes = run_phase(server.addr, &phase, |_| {
        if let Ok(tick) = Tick::read(server) {
            ticks.push(tick);
        }
    })?;
    Ok(Timed {
        outcomes,
        ticks,
        seconds,
    })
}

impl Timed {
    fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    fn ok_latencies_ms(&self, filter: impl Fn(usize) -> bool) -> Vec<f64> {
        let mut lat: Vec<f64> = self
            .outcomes()
            .iter()
            .enumerate()
            .filter(|(i, o)| o.ok() && filter(*i))
            .filter_map(|(_, o)| o.latency().map(ms))
            .collect();
        lat.sort_by(f64::total_cmp);
        lat
    }

    fn failed(&self) -> u64 {
        self.outcomes().iter().filter(|o| !o.ok()).count() as u64
    }

    fn summary(&self, rate: f64) -> Json {
        let lat = self.ok_latencies_ms(|_| true);
        let num = Json::Num;
        let mut timeline = Vec::new();
        for s in 0..self.seconds.ceil() as usize {
            let window = Duration::from_secs(s as u64)..Duration::from_secs(s as u64 + 1);
            let in_second: Vec<&Outcome> = self
                .outcomes()
                .iter()
                .filter(|o| window.contains(&o.due))
                .collect();
            let mut second_lat: Vec<f64> = in_second
                .iter()
                .filter(|o| o.ok())
                .filter_map(|o| o.latency().map(ms))
                .collect();
            second_lat.sort_by(f64::total_cmp);
            let second = (self.ticks.get(s), self.ticks.get(s + 1));
            let delta = |f: fn(&Tick) -> f64| match second {
                (Some(a), Some(b)) => num(f(b) - f(a)),
                _ => Json::Null,
            };
            let steal = match second {
                (Some(a), Some(b)) => num(steal_pct(a.host, b.host)),
                _ => Json::Null,
            };
            timeline.push(obj([
                ("second", json::n(s as u64)),
                (
                    "sent",
                    json::n(in_second.iter().filter(|o| o.sent.is_some()).count() as u64),
                ),
                (
                    "ok",
                    json::n(in_second.iter().filter(|o| o.ok()).count() as u64),
                ),
                (
                    "failed",
                    json::n(in_second.iter().filter(|o| !o.ok()).count() as u64),
                ),
                (
                    "p50_ms",
                    percentile(&second_lat, 50.0).map_or(Json::Null, num),
                ),
                (
                    "p99_ms",
                    percentile(&second_lat, 99.0).map_or(Json::Null, num),
                ),
                ("wal_snapshots", delta(|t| t.snapshots)),
                ("wal_fsyncs", delta(|t| t.fsyncs)),
                ("server_cpu_ms", delta(|t| t.cpu_ms)),
                ("host_steal_pct", steal),
            ]));
        }
        obj([
            ("phase", json::s("timed")),
            ("rate", num(rate)),
            ("seconds", num(self.seconds)),
            ("scheduled", json::n(self.outcomes().len() as u64)),
            (
                "sent",
                json::n(self.outcomes().iter().filter(|o| o.sent.is_some()).count() as u64),
            ),
            (
                "ok",
                json::n(self.outcomes().iter().filter(|o| o.ok()).count() as u64),
            ),
            ("failed", json::n(self.failed())),
            ("p50_ms", percentile(&lat, 50.0).map_or(Json::Null, num)),
            ("p99_ms", percentile(&lat, 99.0).map_or(Json::Null, num)),
            ("timeline", Json::Arr(timeline)),
        ])
    }
}

/// Feed every kept, answered response of a phase to the checkers.
fn check_phase(
    requests: &[Request],
    outcomes: &[Outcome],
    keep_body: &[bool],
    queries: &mut QueryOracle,
    ledger: &mut KbLedger,
    errors: &mut Vec<String>,
) {
    for (i, o) in outcomes.iter().enumerate() {
        if !o.ok() || !keep_body[i] {
            continue;
        }
        let req = &requests[i];
        let checked = match req.kind {
            Kind::Arbitrate | Kind::Fit(_) => queries.check(req, &o.body),
            _ => ledger.record(req, &o.body),
        };
        if let Err(e) = checked {
            errors.push(e);
        }
    }
}

/// Run workload `w` end to end.
pub fn run_workload(w: Workload, opt: &Options) -> io::Result<Report> {
    std::fs::create_dir_all(out_dir())?;
    let corpus = Corpus::new(w, opt.seed);
    let setup = corpus.setup();
    let kb = w == Workload::KbMixed;
    let state_dir = durable_dir(w);
    let mut report = Report {
        workload: w,
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        phases: Vec::new(),
    };
    let mut queries = QueryOracle::default();
    let mut ledger = KbLedger::default();

    // Set-up, from spawn until warm-up ends, repeated for a steady median.
    let mut setup_s: Vec<f64> = Vec::new();
    let server = loop {
        if let Some(dir) = &state_dir {
            fresh_dir(dir)?;
        }
        let started = Instant::now();
        let server = Server::spawn(state_dir.as_deref())?;
        let outcomes = burst(server.addr, &setup, kb)?;
        setup_s.push(started.elapsed().as_secs_f64());
        let spent: f64 = setup_s.iter().sum();
        let again = !(opt.trace || opt.smoke)
            && (setup_s.len() < SETUP_MIN || (spent < SETUP_BUDGET && setup_s.len() < SETUP_MAX));
        if !again {
            let keep = vec![kb; setup.len()];
            check_phase(
                &setup,
                &outcomes,
                &keep,
                &mut queries,
                &mut ledger,
                &mut report.errors,
            );
            break server;
        }
        server.kill()?;
    };
    let addr = server.addr;

    // The timed phase at the nominal rate.
    let plan = corpus.plan(1, w.rate(), opt.seconds);
    let n = plan.requests.len();
    let stride = n.div_ceil(SAMPLED_CHECKS).max(1);
    let keep: Vec<bool> = (0..n).map(|i| kb || i % stride == 0).collect();
    let before = Metrics::scrape(addr)?;
    let cpu_before = server.cpu_ms()?;
    let host_before = host_cpu_ticks()?;
    let timed = timed_phase(&server, &plan, &keep, opt.seconds)?;
    let host_after = host_cpu_ticks()?;
    let cpu_after = server.cpu_ms()?;
    let after = Metrics::scrape(addr)?;
    check_phase(
        &plan.requests,
        timed.outcomes(),
        &keep,
        &mut queries,
        &mut ledger,
        &mut report.errors,
    );
    report.phases.push(timed.summary(w.rate()));

    let lat = timed.ok_latencies_ms(|_| true);
    let writes = timed.ok_latencies_ms(|i| plan.requests[i].is_write());
    let completed = timed.outcomes().iter().filter(|o| o.ok()).count() as f64;
    let mut lag: Vec<f64> = timed
        .outcomes()
        .iter()
        .filter_map(|o| o.sent.map(|s| ms(s.saturating_sub(o.due))))
        .collect();
    lag.sort_by(f64::total_cmp);
    report.attempted = n as u64;
    report.failed = timed.failed();
    let p50_ms = percentile(&lat, 50.0);
    if let Some(v) = median(&mut setup_s) {
        report.push("setup_s", v, "s");
    }
    if let Some(v) = p50_ms {
        report.push("p50_ms", v, "ms");
    }
    for (name, q) in [("p90_ms", 90.0), ("p99_ms", 99.0)] {
        if let Some(v) = percentile(&lat, q) {
            report.push(name, v, "ms");
        }
    }
    for (name, q) in [("write_p50_ms", 50.0), ("write_p99_ms", 99.0)] {
        if let Some(v) = percentile(&writes, q) {
            report.push(name, v, "ms");
        }
    }
    report.push(
        "cpu_ms_per_req",
        ratio(cpu_after - cpu_before, completed),
        "ms",
    );
    if let Some(v) = percentile(&lag, 99.0) {
        report.push("gen.lag_p99_ms", v, "ms");
    }
    report.push("host.steal_pct", steal_pct(host_before, host_after), "%");
    push_counter_metrics(
        &mut report,
        &Delta {
            before: &before,
            after: &after,
        },
    );

    report.push("rss_mb", server.peak_rss_mib()?, "MiB");

    // Durable KBs: replay every acknowledged commit, then kill -9, restart
    // on the same state directory, and require every acknowledged seq.
    if let Some(dir) = &state_dir {
        let reads = corpus.read_all();
        let outcomes = burst(addr, &reads, true)?;
        check_phase(
            &reads,
            &outcomes,
            &vec![true; reads.len()],
            &mut queries,
            &mut ledger,
            &mut report.errors,
        );
        server.kill()?;
        match ledger.verify() {
            Ok(finals) => {
                let started = Instant::now();
                let restarted = Server::spawn(Some(dir))?;
                report.push("recovery.restart_ms", ms(started.elapsed()), "ms");
                let outcomes = burst(restarted.addr, &reads, true)?;
                for (i, o) in outcomes.iter().enumerate() {
                    if let Err(e) = ledger.check_survived(i, &finals[i], &o.body) {
                        report.errors.push(e);
                    }
                }
                restarted.kill()?;
            }
            Err(errors) => report.errors.extend(errors),
        }
    } else {
        server.kill()?;
    }

    if opt.trace || opt.smoke {
        let len = if opt.smoke {
            SMOKE_REPLAY
        } else {
            w.replay_len()
        }
        .min(n);
        let replayed = &plan.requests[..len];
        let trace_dir = kb.then(|| out_dir().join("state-trace"));
        let flags = server_flags(trace_dir.as_deref());
        let replay = |traced| {
            if let Some(dir) = &trace_dir {
                fresh_dir(dir)?;
            }
            trace::replay(&flags, &setup, replayed, traced)
        };
        // Untraced on both sides of the traced replay, so warm-up and
        // drift do not land on one side of the overhead.
        let before = replay(false)?;
        let traced = replay(true)?;
        let after = replay(false)?;
        trace::write_spans(
            &out_dir().join(format!("trace-{}.json", w.name())),
            w.name(),
            &traced.spans,
        )?;
        push_span_metrics(&mut report, &traced.spans, p50_ms);
        let plain = (before.wall + after.wall).as_secs_f64() / 2.0;
        let overhead = (traced.wall.as_secs_f64() / plain - 1.0) * 100.0;
        report.push("trace.overhead_pct", overhead, "%");
    }

    let error_rate = ratio(
        (report.failed + report.errors.len() as u64) as f64,
        n as f64,
    );
    report.push("error_rate", error_rate, "fraction");
    report.failed += report.errors.len() as u64;
    Ok(report)
}

/// The `[C]` per-layer metrics: `/metrics` growth over the timed phase.
fn push_counter_metrics(r: &mut Report, d: &Delta) {
    let requests = d.counter("server", "requests");
    let c = |section, name| d.counter(section, name);
    r.push("server.queue_full_503", c("server", "rejected"), "count");
    r.push(
        "event_loop.wakeups_per_req",
        ratio(c("event_loop", "wakeups"), requests),
        "ratio",
    );
    r.push(
        "event_loop.pipelined_share",
        ratio(c("event_loop", "pipelined_requests"), requests),
        "fraction",
    );
    let handler = d.histogram(&["arbitrate", "fit", "kb"]);
    if let Some(ns) = histogram_quantile(&handler, 0.99) {
        r.push("routes.handler_p99_ms", ns / 1e6, "ms");
    }
    let (hits, misses) = (c("cache", "cache_hits"), c("cache", "cache_misses"));
    r.push("cache.hit_ratio", ratio(hits, hits + misses), "fraction");
    r.push(
        "cache.evictions_per_req",
        ratio(c("cache", "cache_evictions"), requests),
        "ratio",
    );
    // Hits per insertion; the denominator is floored at one so a phase
    // that only hits (query-hot) still reads as a number.
    r.push(
        "cache.useful_insert_ratio",
        hits / c("cache", "cache_insertions").max(1.0),
        "ratio",
    );
    let (served, compiles) = (c("bdd", "bdd_served"), c("bdd", "bdd_compiles"));
    r.push("compiled.served_share", ratio(served, requests), "fraction");
    r.push("compiled.compiles", compiles, "count");
    if compiles > 0.0 {
        r.push(
            "compiled.compile_ms",
            c("bdd", "bdd_compile_ns") / compiles / 1e6,
            "ms",
        );
    }
    r.push(
        "compiled.useful_compile_ratio",
        served / compiles.max(1.0),
        "ratio",
    );
    let selections = c("kernel", "selections");
    r.push("kernel.selections", selections, "count");
    r.push(
        "kernel.candidates_per_selection",
        ratio(c("kernel", "candidates_scanned"), selections),
        "ratio",
    );
    r.push(
        "kernel.bnb_cut_ratio",
        ratio(
            c("kernel", "bnb_nodes_cut"),
            c("kernel", "bnb_nodes_opened"),
        ),
        "ratio",
    );
    r.push(
        "group_commit.commits_per_fsync",
        ratio(c("group_commit", "commits"), c("group_commit", "fsyncs")),
        "ratio",
    );
    r.push(
        "wal.bytes_per_commit",
        ratio(c("wal", "bytes_appended"), c("wal", "records_appended")),
        "bytes",
    );
    r.push("wal.snapshots", c("wal", "snapshots_written"), "count");
    for (name, histogram) in [
        ("wal.fsync_p99_ms", "wal_fsync"),
        ("group_commit.flush_wait_p99_ms", "flush_wait"),
    ] {
        if let Some(ns) = histogram_quantile(&d.histogram(&[histogram]), 0.99) {
            r.push(name, ns / 1e6, "ms");
        }
    }
}

/// The `[T]` per-layer metrics: median span durations of the replay.
fn push_span_metrics(r: &mut Report, spans: &[Span], e2e_p50_ms: Option<f64>) {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    // Per request, the in-process time without the sibling spans that
    // repeat work done inside dispatch.
    let mut in_process: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans {
        if matches!(s.name, "http.parse" | "routes.dispatch" | "http.encode") {
            *in_process.entry(s.request).or_default() += s.micros();
        }
        by_name
            .entry(s.name.to_string())
            .or_default()
            .push(s.micros());
        if s.name == "routes.dispatch" {
            by_name
                .entry(format!("routes.dispatch.{}", s.label))
                .or_default()
                .push(s.micros());
        }
    }
    let mut p50 = |name: &str| by_name.get_mut(name).and_then(|v| median(v));
    for (metric, span) in [
        ("http.parse_us", "http.parse"),
        ("json.parse_us", "json.parse"),
        ("logic.parse_us", "logic.parse"),
        ("canonical.key_us", "canonical.key"),
        ("routes.dispatch_us", "routes.dispatch"),
        ("http.encode_us", "http.encode"),
        ("routes.dispatch_us.cache", "routes.dispatch.cache"),
        ("routes.dispatch_us.bdd", "routes.dispatch.bdd"),
        ("routes.dispatch_us.kernel", "routes.dispatch.kernel"),
        ("routes.dispatch_us.kb_read", "routes.dispatch.kb_read"),
        ("routes.dispatch_us.kb_write", "routes.dispatch.kb_write"),
    ] {
        if let Some(v) = p50(span) {
            r.push(metric, v, "us");
        }
    }
    let mut in_process: Vec<f64> = in_process.into_values().collect();
    if let (Some(e2e), Some(request)) = (e2e_p50_ms, median(&mut in_process)) {
        r.push("server.unattributed_us", e2e * 1000.0 - request, "us");
    }
}
