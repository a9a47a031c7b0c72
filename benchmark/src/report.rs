//! Output: the `name workload value unit` lines, `out/result.json` with
//! run metadata, and the closing one-line JSON summary whose metrics are
//! the ones `BENCHMARK.json` lists.

use std::io;
use std::path::Path;

use arbitrex_server::json::{self, obj, Json};

use crate::loadgen::CONNECTIONS;
use crate::run::{durable_dir, out_dir, server_flags, Options, Report};

/// The repository's benchmark definition.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`
/// (`end_to_end` or `per_layer`).
pub fn listed_metrics(key: &str) -> Vec<(String, String)> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let unit = m.get("unit")?.as_str()?.to_string();
            Some((name, unit))
        })
        .collect()
}

/// Print every metric of `report` as `name workload value unit`.
pub fn print_lines(report: &Report) {
    for m in &report.metrics {
        println!(
            "{} {} {} {}",
            m.name,
            report.workload.name(),
            m.value,
            m.unit
        );
    }
    for e in report.errors.iter().take(20) {
        eprintln!("mismatch {}: {e}", report.workload.name());
    }
}

/// The closing JSON line. A single workload reports the metrics
/// `BENCHMARK.json` lists for the mode (`per_layer` with `--trace 1`,
/// `end_to_end` otherwise); several workloads report every metric as
/// `workload/name`. A listed metric that was not measured, or was measured
/// in another unit, makes the run incorrect.
pub fn summary(reports: &[Report], opt: &Options) -> (Json, bool) {
    let mut correct = reports.iter().all(|r| r.errors.is_empty());
    let mut metrics = Vec::new();
    let value = |v: f64, unit: &str| obj([("value", Json::Num(v)), ("unit", json::s(unit))]);
    if let [report] = reports {
        let key = if opt.trace { "per_layer" } else { "end_to_end" };
        for (name, unit) in listed_metrics(key) {
            match report.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => metrics.push((name, value(m.value, m.unit))),
                found => {
                    eprintln!("metric {name} [{unit}] not measured as listed: {found:?}");
                    correct = false;
                }
            }
        }
    } else {
        for r in reports {
            for m in &r.metrics {
                metrics.push((
                    format!("{}/{}", r.workload.name(), m.name),
                    value(m.value, m.unit),
                ));
            }
        }
    }
    let line = obj([
        ("correct", Json::Bool(correct)),
        (
            "attempted",
            json::n(reports.iter().map(|r| r.attempted).sum()),
        ),
        ("failed", json::n(reports.iter().map(|r| r.failed).sum())),
        ("metrics", Json::Obj(metrics)),
    ]);
    (line, correct)
}

/// Write `out/result.json`: run metadata, then each workload's metrics,
/// mismatches and per-phase timelines.
pub fn write_result(reports: &[Report], opt: &Options) -> io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let features: Vec<Json> = [
        ("telemetry", cfg!(feature = "telemetry")),
        ("parallel", cfg!(feature = "parallel")),
    ]
    .into_iter()
    .filter(|(_, on)| *on)
    .map(|(f, _)| json::s(f))
    .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let meta = obj([
        (
            "git_rev",
            json::s(git_rev(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))),
        ),
        ("nproc", json::n(nproc)),
        ("rustc", json::s(rustc_version())),
        ("features", Json::Arr(features)),
        (
            "profile",
            json::s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", json::n(opt.seed)),
        ("seconds", Json::Num(opt.seconds)),
        ("trace", Json::Bool(opt.trace)),
        ("smoke", Json::Bool(opt.smoke)),
        ("state_dir_filesystem", json::s(filesystem_of(&dir))),
        (
            "generator",
            json::s(format!(
                "open loop, Poisson arrivals, {CONNECTIONS} threads x 1 pipelined keep-alive connection"
            )),
        ),
    ]);
    let workloads: Vec<Json> = reports
        .iter()
        .map(|r| {
            let metrics = r
                .metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        obj([("value", Json::Num(m.value)), ("unit", json::s(m.unit))]),
                    )
                })
                .collect();
            obj([
                ("workload", json::s(r.workload.name())),
                (
                    "server_flags",
                    Json::Arr(
                        server_flags(durable_dir(r.workload).as_deref())
                            .into_iter()
                            .map(json::s)
                            .collect(),
                    ),
                ),
                ("rate", Json::Num(r.workload.rate())),
                ("attempted", json::n(r.attempted)),
                ("failed", json::n(r.failed)),
                (
                    "mismatches",
                    Json::Arr(r.errors.iter().take(100).cloned().map(json::s).collect()),
                ),
                ("metrics", Json::Obj(metrics)),
                ("phases", Json::Arr(r.phases.clone())),
            ])
        })
        .collect();
    let doc = obj([("meta", meta), ("workloads", Json::Arr(workloads))]);
    std::fs::write(dir.join("result.json"), doc.to_text() + "\n")
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark's own checkout may have no repository at all.
fn git_rev(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The type of the filesystem holding `dir`, from `/proc/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let (_, point, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
