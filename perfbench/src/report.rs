//! The metric catalogue and the result line.
//!
//! Every workload prints every metric: an untraced run the end-to-end
//! metrics, a traced run the per-layer metrics. A per-layer metric a
//! workload does not exercise reads 0 (for example `shard.*` on a
//! single-node workload); an end-to-end metric is never 0.

use crate::stats::median;
use crate::trace::{Kind, Ledger};
use std::collections::BTreeMap;
use std::time::Instant;

/// Fewest and most set-ups one run times: the most are reached only while
/// the set-ups together take less than `SETUP_BUDGET` seconds.
const SETUP_REPEATS: (usize, usize) = (3, 25);
const SETUP_BUDGET: f64 = 1.0;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("tqsim_shots_per_s", "outcomes/s"),
    ("mc_shots_per_s", "outcomes/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p95_ms", "ms"),
    ("goodput_jobs_per_s", "jobs/s"),
    ("peak_rss_mib", "MiB"),
];

/// Ledger kinds reported with `ns`, `calls` and `ns_per_amp`.
const KERNELS: [Kind; 8] = [
    Kind::Mat2,
    Kind::Mat4,
    Kind::Mat8,
    Kind::Mat16,
    Kind::Mat32,
    Kind::DiagRun,
    Kind::Gate,
    Kind::Copy,
];

/// Service stages of `tqsim_job_stage_ns`.
pub const STAGES: [&str; 4] = ["queue_wait", "compile", "execute", "stream"];

/// Per-layer metrics: name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    for (name, unit) in [
        ("core.plan_ns", "ns"),
        ("core.exec_ns", "ns"),
        ("core.replay_self_ns", "ns"),
        ("core.tree_depth", "count"),
        ("core.tree_leaves", "count"),
        ("core.gates", "count"),
        ("core.amp_passes", "count"),
        ("core.reuse_speedup", "ratio"),
        ("noise.compile_ns", "ns"),
        ("noise.branch_ns", "ns"),
        ("noise.branch_calls", "count"),
    ] {
        add(name, unit);
    }
    for kind in KERNELS {
        add(&format!("statevec.{}.ns", kind.name()), "ns");
        add(&format!("statevec.{}.calls", kind.name()), "count");
        add(&format!("statevec.{}.ns_per_amp", kind.name()), "ns");
    }
    for (name, unit) in [
        ("statevec.copy_bytes", "bytes"),
        ("statevec.sample.ns", "ns"),
        ("statevec.alloc.ns", "ns"),
        ("statevec.sync.ns", "ns"),
        ("statevec.pool.allocations", "count"),
        ("statevec.pool.high_water_bytes", "bytes"),
        ("amp_pool.tasks", "count"),
        ("amp_pool.busy_ns", "ns"),
        ("amp_pool.utilization", "ratio"),
        ("engine.busy_ns", "ns"),
        ("engine.idle_ns", "ns"),
        ("engine.steals", "count"),
    ] {
        add(name, unit);
    }
    for stage in STAGES {
        add(&format!("service.{stage}.p50_ns"), "ns");
        add(&format!("service.{stage}.p90_ns"), "ns");
    }
    for (name, unit) in [
        ("service.cache_hit_rate", "ratio"),
        ("service.wire_overhead_ns", "ns"),
        ("service.rejected", "count"),
        ("service.retried", "count"),
        ("loadgen.lateness_ms", "ms"),
        ("shard.exchanges", "count"),
        ("shard.bytes_exchanged", "bytes"),
        ("shard.exchange_wall_ns", "ns"),
        ("shard.exchange_share", "ratio"),
        ("shard.mat4.ns", "ns"),
        ("shard.copy.ns", "ns"),
        ("shard.sample.ns", "ns"),
        ("shard.other.ns", "ns"),
        ("trace.overhead_ratio", "ratio"),
        ("host.ref_before_ns_per_amp", "ns"),
        ("host.ref_after_ns_per_amp", "ns"),
        ("bench.failed_frac", "ratio"),
    ] {
        add(name, unit);
    }
    m
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Where a ledger's backend calls are attributed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// In-process state vectors (`statevec.*`).
    Statevec,
    /// Calls into shard worker processes, as the coordinator sees them
    /// (`shard.*`).
    Shard,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    e2e: BTreeMap<&'static str, (f64, usize)>,
    layer: BTreeMap<String, f64>,
    attempted: u64,
    failures: Vec<String>,
    notes: Vec<String>,
    child_processes: usize,
}

impl Report {
    /// Record one attempted operation and its check result.
    pub fn attempt(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failures.push(f);
        }
    }

    /// A free-form line for the human-readable part of the output.
    pub fn note(&mut self, line: &str) {
        self.notes.push(line.to_string());
    }

    /// Record an end-to-end metric measured over `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`END_TO_END`].
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.e2e.insert(name, (value, samples));
    }

    /// Set up `SETUP_REPEATS` times, or for about `SETUP_BUDGET` when
    /// set-up is short, tearing each one down with `stop` before the next;
    /// report the median as `setup_s` and return the last set-up. A
    /// millisecond set-up timed a few times would be mostly noise.
    pub fn measure_setup<T>(&mut self, mut start: impl FnMut() -> T, mut stop: impl FnMut(T)) -> T {
        let mut secs: Vec<f64> = Vec::new();
        let mut current = None;
        while secs.len() < SETUP_REPEATS.0
            || (secs.len() < SETUP_REPEATS.1 && secs.iter().sum::<f64>() < SETUP_BUDGET)
        {
            if let Some(previous) = current.take() {
                stop(previous);
            }
            let t0 = Instant::now();
            current = Some(start());
            secs.push(t0.elapsed().as_secs_f64());
        }
        self.note(&format!("set-ups (s): {secs:.4?}"));
        self.e2e(
            "setup_s",
            median(&secs).expect("at least one set-up"),
            secs.len(),
        );
        current.expect("at least one set-up")
    }

    /// Record a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`per_layer`].
    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            per_layer().iter().any(|(n, _)| n == name),
            "unknown metric {name}"
        );
        self.layer.insert(name.to_string(), value);
    }

    /// Record a ledger's rows, divided by `calls` tree runs.
    pub fn ledger(&mut self, layer: Layer, ledger: &Ledger, calls: f64) {
        let ns = |k: Kind| ledger.row(k).ns as f64 / calls;
        match layer {
            Layer::Statevec => {
                for kind in KERNELS {
                    let row = ledger.row(kind);
                    let stem = format!("statevec.{}", kind.name());
                    self.layer(&format!("{stem}.ns"), row.ns as f64 / calls);
                    self.layer(&format!("{stem}.calls"), row.calls as f64 / calls);
                    if row.amps > 0 {
                        self.layer(
                            &format!("{stem}.ns_per_amp"),
                            row.ns as f64 / row.amps as f64,
                        );
                    }
                }
                // A copy reads the parent and writes the child: two
                // 16-byte complex amplitudes per amplitude copied. The
                // figure is computed from sizes, not measured.
                let copy = ledger.row(Kind::Copy);
                self.layer("statevec.copy_bytes", 32.0 * copy.amps as f64 / calls);
                self.layer("statevec.sample.ns", ns(Kind::Sample));
                self.layer("statevec.alloc.ns", ns(Kind::Alloc));
                self.layer("statevec.sync.ns", ns(Kind::Sync));
            }
            Layer::Shard => {
                self.layer("shard.mat4.ns", ns(Kind::Mat4));
                self.layer("shard.copy.ns", ns(Kind::Copy));
                self.layer("shard.sample.ns", ns(Kind::Sample));
                let other: f64 = Kind::ALL
                    .iter()
                    .filter(|k| !matches!(k, Kind::Mat4 | Kind::Copy | Kind::Sample | Kind::Noise))
                    .map(|&k| ns(k))
                    .sum();
                self.layer("shard.other.ns", other);
            }
        }
    }

    /// The run spawned `n` child processes of similar size whose peak
    /// memory counts toward `peak_rss_mib` (they must have exited).
    pub fn add_child_processes(&mut self, n: usize) {
        self.child_processes += n;
    }

    /// Print the human-readable lines and, last, the one-line JSON result.
    /// Returns whether every check passed.
    pub fn print(mut self, trace: bool) -> bool {
        let rss = crate::host::peak_rss_mib(self.child_processes);
        if !trace {
            self.e2e("peak_rss_mib", rss, 1);
        }
        let failed = self.failures.len() as u64;
        let attempted = self.attempted.max(1);
        self.layer
            .insert("bench.failed_frac".into(), failed as f64 / attempted as f64);
        for line in &self.notes {
            println!("# {line}");
        }
        for f in &self.failures {
            println!("# CHECK FAILED: {f}");
        }
        let mut fields = Vec::new();
        let mut correct = self.failures.is_empty();
        if trace {
            for (name, unit) in per_layer() {
                let value = self.layer.get(&name).copied().unwrap_or(0.0);
                println!("{name} = {value} {unit}");
                fields.push(metric_json(&name, value, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                let Some(&(value, samples)) = self.e2e.get(name) else {
                    println!("# CHECK FAILED: {name} was not measured");
                    correct = false;
                    continue;
                };
                println!("{name} = {value} {unit} (n={samples})");
                if !(value.is_finite() && value > 0.0) {
                    println!("# CHECK FAILED: {name} = {value} is not a positive number");
                    correct = false;
                    continue;
                }
                fields.push(metric_json(name, value, unit));
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        );
        correct
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "bad metric name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("statevec.mat4.ns_per_amp"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("with space"));
        assert!(!valid_name("p95{ms}"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let spec = tqsim_json::parse(spec).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layer);
    }

    #[test]
    fn result_json_values_keep_all_digits() {
        for value in [0.123_456_789_012_345_67, 1234.5678e-9, 3.0] {
            let line = metric_json("x", value, "s");
            let parsed = tqsim_json::parse(&format!("{{{line}}}")).unwrap();
            let back = parsed
                .get("x")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64());
            assert_eq!(back, Some(value), "{line}");
        }
    }
}
