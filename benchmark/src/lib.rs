//! The arbitrex serving benchmark: seeded open-loop traffic against the
//! shipped server, end-to-end and per-layer metrics, naive-oracle answer
//! checks, and a traced in-process layer replay. See `README.md`.

pub mod child;
pub mod loadgen;
pub mod oracle;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
