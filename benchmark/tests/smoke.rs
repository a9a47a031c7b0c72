//! A `--smoke` run drives the real server through every workload and
//! prints every metric `BENCHMARK.json` lists.

use std::collections::HashSet;
use std::process::Command;

use arbitrex_benchmark::report::listed_metrics;
use arbitrex_benchmark::workload::Workload;

#[test]
fn smoke_run_prints_every_listed_metric_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_arbitrex-benchmark"))
        .args(["run", "--smoke", "--seed", "1"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let printed: HashSet<(&str, &str)> = stdout
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            Some((fields.next()?, fields.next()?))
        })
        .collect();
    for key in ["end_to_end", "per_layer"] {
        let listed = listed_metrics(key);
        assert!(!listed.is_empty(), "BENCHMARK.json lists no {key} metrics");
        for (name, _) in listed {
            for w in Workload::ALL {
                assert!(
                    printed.contains(&(name.as_str(), w.name())),
                    "{name} not printed for {}",
                    w.name()
                );
            }
        }
    }
    let summary = stdout.lines().last().unwrap();
    assert!(summary.starts_with("{\"correct\":true"), "{summary}");
}
