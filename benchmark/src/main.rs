//! `arbitrex-benchmark run [--workload NAME] [--seed N] [--seconds S]
//! [--trace 0|1] [--smoke]` — drive the shipped server with seeded open-loop
//! traffic, check every sampled answer, print each metric as
//! `name workload value unit`, write `out/result.json`, and end with a
//! one-line JSON summary. Exits non-zero when any check fails.
//!
//! The hidden `serve` subcommand is the server under test: it forwards to
//! `arbitrex_cli::cmd_serve`, so the benchmark spawns its own executable.

use std::process::exit;

use arbitrex_benchmark::report::{print_lines, summary, write_result};
use arbitrex_benchmark::run::{run_workload, Options};
use arbitrex_benchmark::workload::Workload;

const USAGE: &str = "usage: arbitrex-benchmark run [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => match arbitrex_cli::cmd_serve(&args[1..]) {
            Ok(out) => print!("{out}"),
            Err(e) => {
                eprintln!("error ({}): {e}", e.kind.name());
                exit(e.kind.exit_code());
            }
        },
        Some("run") => exit(run(&args[1..])),
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

fn run(args: &[String]) -> i32 {
    let mut opt = Options {
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(Workload::parse(&name).unwrap_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    eprintln!(
                        "unknown workload `{name}` (expected one of {})",
                        names.join(", ")
                    );
                    exit(2)
                }));
            }
            "--seed" => opt.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opt.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                opt.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => {
                opt.smoke = true;
                opt.seconds = 2.0;
            }
            _ => usage(),
        }
    }
    let workloads = workload.map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let mut reports = Vec::new();
    for w in workloads {
        match run_workload(w, &opt) {
            Ok(report) => {
                print_lines(&report);
                reports.push(report);
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                return 1;
            }
        }
    }
    if let Err(e) = write_result(&reports, &opt) {
        eprintln!("cannot write result.json: {e}");
        return 1;
    }
    let (line, correct) = summary(&reports, &opt);
    println!("{}", line.to_text());
    if correct {
        0
    } else {
        1
    }
}
