//! The batch workloads: reuse-tree runs against Monte-Carlo (MC) runs of
//! the same circuits, on one node (`narrow_reuse`, `wide_reuse`) or
//! through the engine over two shard worker processes (`shard_exchange`).
//!
//! A run alternates, per circuit, one reuse-tree call and one MC call
//! until the measuring window closes. The traced run instead alternates a
//! traced tree call, its untraced twin (same seed) and an MC call, so it
//! can check bit-identity and report the tracing overhead.

use crate::report::{Layer, Report};
use crate::stats::{geomean, median, percentile, tail_percentile, SplitMix64};
use crate::trace::{Kind, Ledger, Traced};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tqsim::{
    metrics, run_tree_nodes, Counts, ExecOptions, OpCounts, Strategy, TreeExecutor, TreeStructure,
};
use tqsim_circuit::{generators, Circuit};
use tqsim_cluster::ClusterObs;
use tqsim_engine::{Engine, EngineConfig, JobPlan, JobSpec, PlannedJob};
use tqsim_noise::NoiseModel;
use tqsim_shard::ShardBackend;
use tqsim_statevec::{PooledBackend, SingleNode};

/// A batch call that takes longer than this counts as missing the
/// workload's latency limit.
const BATCH_LATENCY_LIMIT: Duration = Duration::from_secs(60);

/// Largest gap allowed between the normalized fidelities of the tree and
/// MC histograms (the bound `tests/integration_accuracy.rs` uses).
const FIDELITY_GAP: f64 = 0.08;

/// Shard workers the `shard_exchange` workload spawns.
const SHARD_WORKERS: usize = 2;

/// One circuit of a batch workload.
pub struct Case {
    name: &'static str,
    circuit: Circuit,
    shots: u64,
    tree: Strategy,
    /// Exact normalized-fidelity reference, for narrow circuits only.
    ideal: Option<Vec<f64>>,
}

/// Which batch workload, and so which circuits and executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Batch {
    /// QFT-12 and QAOA-12 under DCP, serial `Tqsim::run`.
    Narrow,
    /// QAOA-20 on a fixed tree, serial `Tqsim::run`.
    Wide,
    /// QAOA-16 on a fixed tree, engine over shard worker processes.
    Shard,
}

/// QAOA angles drawn from the workload seed (the graph stays fixed, so
/// every seed costs the same gate work).
fn qaoa(n: u16, edges: usize, rng: &mut SplitMix64) -> Circuit {
    let beta = 0.2 + 0.6 * rng.next_f64();
    let gamma = 0.2 + 0.6 * rng.next_f64();
    generators::qaoa_random(n, edges, 0xC0FFEE + u64::from(n), beta, gamma).0
}

fn cases(batch: Batch, rng: &mut SplitMix64) -> Vec<Case> {
    let dcp = Strategy::default_dcp();
    match batch {
        Batch::Narrow => {
            let qft = generators::qft(12);
            let qaoa = qaoa(12, 24, rng);
            vec![
                Case {
                    name: "qft12",
                    ideal: Some(metrics::ideal_distribution(&qft)),
                    circuit: qft,
                    shots: 2000,
                    tree: dcp.clone(),
                },
                Case {
                    name: "qaoa12",
                    ideal: Some(metrics::ideal_distribution(&qaoa)),
                    circuit: qaoa,
                    shots: 2000,
                    tree: dcp,
                },
            ]
        }
        Batch::Wide => vec![Case {
            name: "qaoa20",
            circuit: qaoa(20, 20, rng),
            shots: 8,
            tree: Strategy::Custom {
                arities: vec![2, 2, 2],
            },
            ideal: None,
        }],
        Batch::Shard => vec![Case {
            name: "qaoa16",
            circuit: qaoa(16, 24, rng),
            shots: 16,
            tree: Strategy::Custom {
                arities: vec![2, 2, 2, 2],
            },
            ideal: None,
        }],
    }
}

/// The executor a batch workload drives.
enum Runner {
    Serial,
    Shard {
        backend: ShardBackend,
        engine: Engine<ShardBackend>,
    },
}

impl Runner {
    fn new(batch: Batch) -> Runner {
        match batch {
            Batch::Narrow | Batch::Wide => Runner::Serial,
            Batch::Shard => {
                let backend =
                    ShardBackend::spawn(SHARD_WORKERS).expect("spawning shard workers on loopback");
                let engine = Engine::with_backend(engine_config(), backend.clone());
                Runner::Shard { backend, engine }
            }
        }
    }

    /// One full untraced call: plan + compile + execute.
    fn run(&self, case: &Case, strategy: &Strategy, seed: u64) -> Outcome {
        let noise = NoiseModel::sycamore();
        let t0 = Instant::now();
        let result = match self {
            Runner::Serial => tqsim::Tqsim::new(&case.circuit)
                .noise(noise)
                .shots(case.shots)
                .strategy(strategy.clone())
                .seed(seed)
                .run()
                .expect("batch circuits plan"),
            Runner::Shard { engine, .. } => engine
                .submit(vec![JobSpec::new(&case.circuit)
                    .noise(noise)
                    .shots(case.shots)
                    .strategy(strategy.clone())
                    .seed(seed)])
                .run()
                .expect("batch circuits plan")
                .jobs
                .remove(0),
        };
        Outcome {
            secs: t0.elapsed().as_secs_f64(),
            counts: result.counts,
            ops: result.ops,
            tree: result.tree,
        }
    }
}

/// One engine worker: the shard cluster serves one verb at a time, and a
/// single worker keeps the traced call times nested inside the execute
/// time they are compared with.
fn engine_config() -> EngineConfig {
    EngineConfig::default().parallelism(1)
}

struct Outcome {
    secs: f64,
    counts: Counts,
    ops: OpCounts,
    tree: TreeStructure,
}

/// Per-(case, strategy) call log.
#[derive(Default)]
struct Log {
    secs: Vec<f64>,
    /// Outcomes of one call (the tree shape is checked to stay fixed).
    outcomes: u64,
    counts: Option<Counts>,
    first: Option<(u64, Counts, OpCounts)>,
    shape: Option<String>,
}

impl Log {
    /// Outcomes per second of the median (nearest-rank) call time. The
    /// host slows some calls by up to 60% for seconds at a time; a mean
    /// over a run's few calls would move with those episodes, and the
    /// median of per-call rates would take the slower middle call.
    fn rate(&self) -> f64 {
        self.outcomes as f64 / median(&self.secs).expect("at least one call")
    }
}

/// Output checks shared by every batch call; returns a failure message.
fn check_call(case: &Case, log: &mut Log, seed: u64, out: &Outcome) -> Option<String> {
    let expected = out.tree.outcomes();
    if out.counts.total() != expected || out.ops.samples != expected {
        return Some(format!(
            "{}: {} outcomes for tree {} (expected {expected})",
            case.name,
            out.counts.total(),
            out.tree
        ));
    }
    if expected < case.shots {
        return Some(format!("{}: tree {} short of shots", case.name, out.tree));
    }
    let shape = out.tree.to_string();
    match &log.shape {
        Some(s) if *s != shape => {
            return Some(format!("{}: tree shape changed {s} -> {shape}", case.name))
        }
        _ => log.shape = Some(shape),
    }
    log.secs.push(out.secs);
    log.outcomes = expected;
    match &mut log.counts {
        Some(c) => c.merge(&out.counts),
        None => log.counts = Some(out.counts.clone()),
    }
    if log.first.is_none() {
        log.first = Some((seed, out.counts.clone(), out.ops));
    }
    None
}

/// Set the workload up: inputs, executor, and one warm-up call per
/// circuit and strategy.
fn setup(batch: Batch, seed: u64) -> (Vec<Case>, Runner) {
    let mut rng = SplitMix64::new(seed);
    let cases = cases(batch, &mut rng);
    let runner = Runner::new(batch);
    for case in &cases {
        let warm = Case {
            name: case.name,
            circuit: case.circuit.clone(),
            shots: 1,
            tree: case.tree.clone(),
            ideal: None,
        };
        runner.run(&warm, &Strategy::Baseline, 0);
    }
    (cases, runner)
}

/// Run a batch workload for `seconds` and fill `report`.
pub fn run(batch: Batch, seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    let (cases, runner) = report.measure_setup(|| setup(batch, seed), drop);

    if trace {
        run_traced(batch, &cases, &runner, seed, seconds, report);
    } else {
        run_untraced(&cases, &runner, seed, seconds, report);
    }
    if let Runner::Shard { engine, backend } = runner {
        drop(engine);
        drop(backend);
        report.add_child_processes(SHARD_WORKERS);
    }
}

fn call_seeds(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ 0x5EED_CA11)
}

fn run_untraced(cases: &[Case], runner: &Runner, seed: u64, seconds: u64, report: &mut Report) {
    let mut seeds = call_seeds(seed);
    let mut trees: Vec<Log> = cases.iter().map(|_| Log::default()).collect();
    let mut mcs: Vec<Log> = cases.iter().map(|_| Log::default()).collect();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    // One tree call and one MC call per circuit, round robin, until the
    // window closes (every circuit gets at least one pair).
    'window: loop {
        for (i, case) in cases.iter().enumerate() {
            if Instant::now() >= deadline && trees.iter().all(|l| !l.secs.is_empty()) {
                break 'window;
            }
            for (strategy, log) in [
                (&case.tree, &mut trees[i]),
                (&Strategy::Baseline, &mut mcs[i]),
            ] {
                let s = seeds.next_u64() >> 11;
                let out = runner.run(case, strategy, s);
                report.attempt(check_call(case, log, s, &out));
            }
        }
    }
    finish_checks(cases, runner, &trees, &mcs, report);

    let per_case = |f: &dyn Fn(&Log) -> f64, logs: &[Log]| {
        geomean(&logs.iter().map(f).collect::<Vec<_>>()).unwrap()
    };
    let n_tree: usize = trees.iter().map(|l| l.secs.len()).sum();
    let n_mc: usize = mcs.iter().map(|l| l.secs.len()).sum();
    report.e2e("tqsim_shots_per_s", per_case(&Log::rate, &trees), n_tree);
    report.e2e("mc_shots_per_s", per_case(&Log::rate, &mcs), n_mc);
    let p50 = |l: &Log| median(&l.secs).unwrap() * 1e3;
    // A run holds a handful of calls per circuit: report the highest
    // percentile up to p95 that still has ten calls beyond it. Below 21
    // calls that is the median, so the "p95" here shows no tail; the note
    // below prints the percentile used.
    let p95 = |l: &Log| percentile(&l.secs, tail_percentile(l.secs.len())).unwrap() * 1e3;
    report.e2e("job_latency_p50_ms", per_case(&p50, &trees), n_tree);
    report.e2e("job_latency_p95_ms", per_case(&p95, &trees), n_tree);
    // Calls within the limit, per second at the median call time.
    let goodput = |l: &Log| {
        let limit = BATCH_LATENCY_LIMIT.as_secs_f64();
        let ok = l.secs.iter().filter(|&&s| s <= limit).count() as f64;
        ok / l.secs.len() as f64 / median(&l.secs).expect("at least one call")
    };
    report.e2e("goodput_jobs_per_s", per_case(&goodput, &trees), n_tree);
    for ((case, tree), mc) in cases.iter().zip(&trees).zip(&mcs) {
        report.note(&format!(
            "{}: tree {} ({} calls, job_latency_p95_ms is their p{}); tree secs {:.3?}; mc secs {:.3?}",
            case.name,
            tree.shape.as_deref().unwrap_or("?"),
            tree.secs.len(),
            tail_percentile(tree.secs.len()),
            tree.secs,
            mc.secs
        ));
    }
}

/// Checks after the measuring window: same-seed reruns are bit-identical,
/// tree and MC fidelities agree, and shard runs equal single-node runs.
fn finish_checks(cases: &[Case], runner: &Runner, trees: &[Log], mcs: &[Log], report: &mut Report) {
    for (i, case) in cases.iter().enumerate() {
        let (seed, counts, ops) = trees[i].first.clone().expect("at least one call");
        let again = runner.run(case, &case.tree, seed);
        report.attempt(
            (again.counts != counts || again.ops != ops)
                .then(|| format!("{}: same-seed rerun differs", case.name)),
        );
        if let Runner::Shard { .. } = runner {
            let single = Engine::new(engine_config());
            let local = single
                .submit(vec![JobSpec::new(&case.circuit)
                    .noise(NoiseModel::sycamore())
                    .shots(case.shots)
                    .strategy(case.tree.clone())
                    .seed(seed)])
                .run()
                .expect("plans")
                .jobs
                .remove(0);
            report.attempt(
                (local.counts != counts)
                    .then(|| format!("{}: shard counts differ from single-node", case.name)),
            );
        }
        if let Some(ideal) = &case.ideal {
            // Equal numbers of calls on both sides, so both histograms
            // carry the same finite-sample bias.
            let (tree, mc) = (&trees[i], &mcs[i]);
            let f = |c: &Counts| metrics::normalized_fidelity(ideal, &c.to_distribution());
            let (ft, fm) = (
                f(tree.counts.as_ref().unwrap()),
                f(mc.counts.as_ref().unwrap()),
            );
            report.note(&format!(
                "{}: normalized fidelity tree {ft:.4} mc {fm:.4}",
                case.name
            ));
            report.attempt(((ft - fm).abs() > FIDELITY_GAP).then(|| {
                format!(
                    "{}: fidelity gap {:.3} > {FIDELITY_GAP}",
                    case.name,
                    (ft - fm).abs()
                )
            }));
        }
    }
}

/// Totals of the traced tree calls.
#[derive(Default)]
struct TraceTotals {
    calls: u64,
    plan_ns: u64,
    compile_ns: u64,
    exec_ns: u64,
    traced_secs: f64,
    untraced_secs: f64,
    depth: u64,
    leaves: u64,
    gates: u64,
    amp_passes: u64,
    pool_allocations: u64,
    high_water_bytes: u64,
    amp_tasks: u64,
    amp_busy_ns: u64,
    amp_capacity_ns: f64,
}

impl TraceTotals {
    fn add(&mut self, exec_ns: u64, tree: &TreeStructure, ops: &OpCounts) {
        self.exec_ns += exec_ns;
        self.calls += 1;
        self.depth += tree.arities().len() as u64;
        self.leaves += tree.outcomes();
        self.gates += ops.total_gates();
        self.amp_passes += ops.amp_passes;
    }
}

/// One traced serial tree call: `Strategy::plan` and `TreeExecutor::new`
/// timed directly, then the walk `TreeExecutor::run` performs, with every
/// backend call timed into `ledger`.
fn traced_call(case: &Case, seed: u64, ledger: &Arc<Ledger>, totals: &mut TraceTotals) -> Outcome {
    let noise = NoiseModel::sycamore();
    let t_call = Instant::now();
    let t0 = Instant::now();
    let partition = case
        .tree
        .plan(&case.circuit, &noise, case.shots)
        .expect("batch circuits plan");
    totals.plan_ns += t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let exec = TreeExecutor::new(&case.circuit, &noise, partition.clone()).expect("plan binds");
    totals.compile_ns += t0.elapsed().as_nanos() as u64;
    // `TreeExecutor` keeps its subcircuits private; materialising them
    // again is not timed.
    let subcircuits = partition.subcircuits(&case.circuit);
    let tree = partition.tree;
    let k = tree.arities().len();
    let n = case.circuit.n_qubits();
    let backend = Traced::new(SingleNode, Arc::clone(ledger));
    let amp_before = rayon::pool_stats();
    // As `TreeExecutor::run_with_options`: k + 1 states, one reset.
    let t0 = Instant::now();
    let mut counts = Counts::new(n);
    let mut ops = OpCounts::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut states: Vec<_> = (0..=k).map(|_| backend.allocate(n)).collect();
    ops.state_resets += 1;
    run_tree_nodes(
        &backend,
        &subcircuits,
        exec.compiled_plans(),
        &tree,
        &noise,
        &mut states,
        &mut counts,
        &mut ops,
        &mut rng,
        ExecOptions::default(),
    );
    let exec_ns = t0.elapsed().as_nanos() as u64;
    let amp_after = rayon::pool_stats();
    totals.amp_tasks += amp_after.tasks - amp_before.tasks;
    totals.amp_busy_ns += amp_after.busy_ns - amp_before.busy_ns;
    totals.amp_capacity_ns += exec_ns as f64 * amp_after.threads as f64;
    totals.pool_allocations += (k + 1) as u64;
    totals.high_water_bytes += ((k + 1) * backend.state_bytes(&states[0])) as u64;
    totals.add(exec_ns, &tree, &ops);
    Outcome {
        secs: t_call.elapsed().as_secs_f64(),
        counts,
        ops,
        tree,
    }
}

/// The engine-side traced call for `shard_exchange`: plan and compile are
/// timed directly as on one node; execution runs a `JobPlan` on an engine
/// over the traced shard backend.
fn traced_engine_call(
    engine: &Engine<Traced<ShardBackend>>,
    case: &Case,
    seed: u64,
    totals: &mut TraceTotals,
) -> Outcome {
    let noise = NoiseModel::sycamore();
    let t_call = Instant::now();
    let t0 = Instant::now();
    let partition = case
        .tree
        .plan(&case.circuit, &noise, case.shots)
        .expect("batch circuits plan");
    totals.plan_ns += t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let exec = TreeExecutor::new(&case.circuit, &noise, partition.clone()).expect("plan binds");
    totals.compile_ns += t0.elapsed().as_nanos() as u64;
    let planned_secs = t_call.elapsed().as_secs_f64();
    drop(exec);
    // The engine needs its own owned plan; building it is not timed.
    let plan = JobPlan::plan(&case.circuit, &noise, case.shots, &case.tree).expect("plans");
    let job = PlannedJob::new(Arc::new(plan)).seed(seed);
    let t0 = Instant::now();
    let result = engine.run_planned(&job);
    let exec_ns = t0.elapsed().as_nanos() as u64;
    totals.add(exec_ns, &result.tree, &result.ops);
    Outcome {
        secs: planned_secs + exec_ns as f64 * 1e-9,
        counts: result.counts,
        ops: result.ops,
        tree: result.tree,
    }
}

fn run_traced(
    batch: Batch,
    cases: &[Case],
    runner: &Runner,
    seed: u64,
    seconds: u64,
    report: &mut Report,
) {
    let ledger = Ledger::new();
    let registry = tqsim_obs::Registry::new();
    let cluster_obs = ClusterObs::register(&registry);
    let traced_engine = match runner {
        Runner::Shard { backend, .. } => Some(Engine::with_backend(
            engine_config().observe(Arc::clone(&registry), "bench"),
            Traced::new(
                backend.clone().observed(Arc::clone(&cluster_obs)),
                Arc::clone(&ledger),
            ),
        )),
        Runner::Serial => None,
    };
    let mut seeds = call_seeds(seed);
    let mut totals = TraceTotals::default();
    let mut tree_logs: Vec<Log> = cases.iter().map(|_| Log::default()).collect();
    let mut mc_logs: Vec<Log> = cases.iter().map(|_| Log::default()).collect();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while totals.calls == 0 || Instant::now() < deadline {
        for (i, case) in cases.iter().enumerate() {
            let s = seeds.next_u64() >> 11;
            let traced = match &traced_engine {
                Some(engine) => traced_engine_call(engine, case, s, &mut totals),
                None => traced_call(case, s, &ledger, &mut totals),
            };
            let plain = runner.run(case, &case.tree, s);
            totals.traced_secs += traced.secs;
            totals.untraced_secs += plain.secs;
            report.attempt(check_call(case, &mut tree_logs[i], s, &plain));
            report.attempt(
                (traced.counts != plain.counts || traced.ops != plain.ops)
                    .then(|| format!("{}: traced run differs from untraced (seed {s})", case.name)),
            );
            let s = seeds.next_u64() >> 11;
            let mc = runner.run(case, &Strategy::Baseline, s);
            report.attempt(check_call(case, &mut mc_logs[i], s, &mc));
        }
    }
    let calls = totals.calls as f64;
    let per_call = |v: f64| v / calls;
    let ledger_ns = ledger.total_ns();
    // Every timed backend call nests inside an execute interval, so the
    // unattributed rest can never be negative.
    report.attempt((ledger_ns > totals.exec_ns).then(|| {
        format!(
            "timed backend calls ({ledger_ns} ns) exceed execute time ({} ns)",
            totals.exec_ns
        )
    }));
    let self_ns = totals.exec_ns.saturating_sub(ledger_ns);
    report.layer("core.plan_ns", per_call(totals.plan_ns as f64));
    report.layer("noise.compile_ns", per_call(totals.compile_ns as f64));
    report.layer("core.exec_ns", per_call(totals.exec_ns as f64));
    report.layer("core.replay_self_ns", per_call(self_ns as f64));
    report.layer("core.tree_depth", per_call(totals.depth as f64));
    report.layer("core.tree_leaves", per_call(totals.leaves as f64));
    report.layer("core.gates", per_call(totals.gates as f64));
    report.layer("core.amp_passes", per_call(totals.amp_passes as f64));
    let speedups: Vec<f64> = tree_logs
        .iter()
        .zip(&mc_logs)
        .map(|(t, m)| t.rate() / m.rate())
        .collect();
    report.layer("core.reuse_speedup", geomean(&speedups).unwrap());
    report.layer(
        "trace.overhead_ratio",
        totals.traced_secs / totals.untraced_secs,
    );

    let noise = ledger.row(Kind::Noise);
    report.layer("noise.branch_ns", per_call(noise.ns as f64));
    report.layer("noise.branch_calls", per_call(noise.calls as f64));

    let layer = if batch == Batch::Shard {
        Layer::Shard
    } else {
        Layer::Statevec
    };
    report.ledger(layer, &ledger, calls);
    if batch != Batch::Shard {
        report.layer(
            "statevec.pool.allocations",
            per_call(totals.pool_allocations as f64),
        );
        report.layer(
            "statevec.pool.high_water_bytes",
            per_call(totals.high_water_bytes as f64),
        );
        report.layer("amp_pool.tasks", per_call(totals.amp_tasks as f64));
        report.layer("amp_pool.busy_ns", per_call(totals.amp_busy_ns as f64));
        if totals.amp_capacity_ns > 0.0 {
            report.layer(
                "amp_pool.utilization",
                totals.amp_busy_ns as f64 / totals.amp_capacity_ns,
            );
        }
    }
    if let Some(engine) = traced_engine {
        let pool = engine.pool_stats();
        report.layer("statevec.pool.allocations", pool.allocations as f64);
        report.layer(
            "statevec.pool.high_water_bytes",
            pool.high_water_bytes as f64,
        );
        drop(engine);
        let snap = registry.snapshot();
        let sum = |name: &str| -> f64 {
            snap.counters
                .iter()
                .filter(|m| m.name == name)
                .map(|m| m.value as f64)
                .sum()
        };
        report.layer(
            "engine.busy_ns",
            per_call(sum("tqsim_engine_busy_ns_total")),
        );
        report.layer(
            "engine.idle_ns",
            per_call(sum("tqsim_engine_idle_ns_total")),
        );
        report.layer("engine.steals", per_call(sum("tqsim_engine_steals_total")));
        let exchange_ns = sum("tqsim_cluster_exchange_measured_ns_total");
        report.layer(
            "shard.exchanges",
            per_call(sum("tqsim_cluster_exchanges_total")),
        );
        report.layer(
            "shard.bytes_exchanged",
            per_call(sum("tqsim_cluster_bytes_exchanged_total")),
        );
        report.layer("shard.exchange_wall_ns", per_call(exchange_ns));
        report.layer("shard.exchange_share", exchange_ns / totals.exec_ns as f64);
    }
    let mut shapes = BTreeMap::new();
    for (case, log) in cases.iter().zip(&tree_logs) {
        shapes.insert(case.name, log.shape.clone().unwrap_or_default());
    }
    report.note(&format!(
        "traced tree calls: {}, shapes {shapes:?}",
        totals.calls
    ));
}
