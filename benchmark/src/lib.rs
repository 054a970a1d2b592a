//! # gsls-benchmark — the repo's end-to-end benchmark
//!
//! Four closed-loop workloads over the public API of the `gsls-*`
//! crates, an independent correctness oracle, and an outside-in layer
//! trace. See `benchmark/README.md` for the workloads, the metrics and
//! how to read the output; `BENCHMARK.json` at the repository root
//! names the same workloads and metrics for the PR driver.
//!
//! Nothing in the engine is changed or instrumented for this: every
//! number is taken by timing calls into public functions, or by reading
//! counters the engine already keeps.

pub mod cli;
pub mod cold;
pub mod compare;
pub mod embed;
pub mod fixture;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod ops;
pub mod oracle;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use fixture::RunConfig;
use report::Report;

/// Runs one workload once. `None` for an unknown workload name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<Report> {
    Some(match name {
        "serve_mixed" => serve::run(cfg, true),
        "serve_read" => serve::run(cfg, false),
        "embed_commit" => embed::run(cfg),
        "cold_build" => cold::run(cfg),
        _ => return None,
    })
}
