//! The TQSim benchmark as a library: workloads, the outside-in tracing
//! wrapper, order statistics and the metric catalogue. The
//! `tqsim-perfbench` binary drives it; see `perfbench/README.md`.

pub mod batch;
pub mod host;
pub mod report;
pub mod service_mix;
pub mod stats;
pub mod trace;

/// The workloads the binary runs. `BENCHMARK.json` lists the last three;
/// `narrow_reuse` is run by hand (see `perfbench/README.md`).
pub const WORKLOADS: [&str; 4] = [
    "narrow_reuse",
    "wide_reuse",
    "service_mix",
    "shard_exchange",
];
