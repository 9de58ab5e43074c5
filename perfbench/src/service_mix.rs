//! `service_mix`: the service behind its TCP front-end on loopback, driven
//! by an open-loop generator from this process.
//!
//! Jobs arrive on a fixed-rate schedule with a seeded job order, whether or
//! not earlier jobs have finished. One connection submits each job at its
//! scheduled time; a second collects results in submission order. A job's
//! latency runs from its scheduled send time to the moment its `result`
//! reply is read, so a stalled generator or a slow earlier job shows up
//! in later jobs' latencies rather than vanishing.

use crate::report::{Report, STAGES};
use crate::stats::{median, percentile, percentile_supported, tail_percentile, SplitMix64};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tqsim::Strategy;
use tqsim_circuit::{generators, Circuit};
use tqsim_engine::{Engine, EngineConfig, FusionConfig, JobSpec};
use tqsim_json::{num_u64, obj, str_val, Value};
use tqsim_noise::NoiseModel;
use tqsim_service::wire::{circuit_to_json, serve, ServerHandle};
use tqsim_service::{Service, ServiceConfig};

/// Offered load in jobs per second: about 40% of the ~38 jobs/s the
/// service completes with this mix on a 2-CPU host. Queueing shows, but a
/// host running 30% slower for a while does not push the service near
/// saturation, where latency would swing with the host's speed.
const RATE_PER_S: f64 = 15.0;

/// A job slower than this misses the latency limit.
const LATENCY_LIMIT_MS: f64 = 250.0;

/// Seed of the warm-up jobs.
const WARM_UP_SEED: u64 = 0xAA;

/// Jobs re-run in-process to check the service's `Counts`.
const CHECKED_JOBS: usize = 12;

/// One generated job.
#[derive(Clone)]
struct Job {
    circuit: Arc<Circuit>,
    shots: u64,
    seed: u64,
    baseline: bool,
    wide_fusion: bool,
}

impl Job {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("op", str_val("submit")),
            ("client", str_val("loadgen")),
            ("shots", num_u64(self.shots)),
            ("seed", num_u64(self.seed)),
            ("noise", str_val("sycamore")),
            (
                "strategy",
                str_val(if self.baseline { "baseline" } else { "dcp" }),
            ),
            ("circuit", circuit_to_json(&self.circuit)),
        ];
        if self.wide_fusion {
            fields.push(("fusion_qubits", num_u64(4)));
            fields.push(("fusion_boundary", Value::Bool(true)));
        }
        obj(fields)
    }

    fn fusion(&self) -> FusionConfig {
        if self.wide_fusion {
            FusionConfig {
                max_fuse_qubits: 4,
                boundary: true,
            }
        } else {
            FusionConfig::default()
        }
    }
}

/// The job stream and its arrival times (seconds after the window opens),
/// both a pure function of the seed.
///
/// Arrivals come at the fixed rate [`RATE_PER_S`], one every
/// `1 / RATE_PER_S` seconds: random arrival clumps would make the latency
/// tail depend on how a seed happens to bunch its jobs, so the queueing
/// seen here comes from the jobs' own sizes. The job mix is balanced
/// rather than drawn:
/// job `i` takes combination `i mod 144` of cache hit or miss × fixed
/// circuit × shots × strategy × wide fusion (one in four), and the seed
/// shuffles the order and draws the angles and simulation seeds. Every
/// seed therefore offers the same number of jobs of each kind, so the
/// latency tail does not move with how many of the heaviest jobs a seed
/// happens to draw.
fn schedule(seed: u64, seconds: f64) -> Vec<(f64, Job)> {
    let mut rng = SplitMix64::new(seed);
    let fixed: Vec<Arc<Circuit>> = vec![
        Arc::new(generators::qft(10)),
        Arc::new(generators::bv(10)),
        Arc::new(generators::qaoa_random(10, 20, 0xC0FFEE, 0.4, 0.7).0),
    ];
    let n = (RATE_PER_S * seconds).round() as usize;
    let times = (0..n).map(|i| i as f64 / RATE_PER_S);
    let mut kinds: Vec<usize> = (0..n).map(|i| i % 144).collect();
    for i in (1..n).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    times
        .zip(kinds)
        .map(|(t, kind)| {
            let (hit, rest) = (kind % 2 == 0, kind / 2);
            let (circuit, rest) = (rest % 3, rest / 3);
            let (shots, rest) = (64 << (rest % 3), rest / 3);
            let (baseline, wide_fusion) = (rest % 2 == 0, rest / 2 == 0);
            let circuit = if hit {
                Arc::clone(&fixed[circuit])
            } else {
                let beta = 0.2 + 0.6 * rng.next_f64();
                let gamma = 0.2 + 0.6 * rng.next_f64();
                Arc::new(generators::qaoa_random(10, 20, 0xC0FFEE, beta, gamma).0)
            };
            let job = Job {
                circuit,
                shots,
                seed: rng.next_u64() >> 12,
                baseline,
                wide_fusion,
            };
            (t, job)
        })
        .collect()
}

/// A line-oriented JSON connection to the service.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(handle: &ServerHandle) -> Conn {
        let stream = TcpStream::connect(handle.addr()).expect("connect to the service");
        stream.set_nodelay(true).expect("nodelay");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn call(&mut self, request: &Value) -> Value {
        let mut line = request.to_json();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .expect("write request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        tqsim_json::parse(&reply).expect("reply is JSON")
    }
}

fn job_request(op: &str, id: u64) -> Value {
    obj(vec![("op", str_val(op)), ("job", num_u64(id))])
}

/// A live service with its front-end and two client connections.
struct Stack {
    service: Arc<Service>,
    handle: ServerHandle,
    /// Lent to the submitter thread while the window is open.
    submit: Option<Conn>,
    collect: Conn,
}

impl Stack {
    fn start() -> Stack {
        let service = Service::start(ServiceConfig::default());
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
        let mut submit = Conn::open(&handle);
        let mut collect = Conn::open(&handle);
        // Warm-up: the same four jobs whatever the workload seed, so
        // set-up time does not depend on it.
        for (_, job) in schedule(WARM_UP_SEED, 1.0).into_iter().take(4) {
            let ack = submit.call(&job.to_json());
            let id = ack
                .get("job")
                .and_then(Value::as_u64)
                .expect("warm-up admitted");
            collect.call(&job_request("result", id));
        }
        Stack {
            service,
            handle,
            submit: Some(submit),
            collect,
        }
    }

    fn stop(self) {
        drop(self.submit);
        drop(self.collect);
        self.handle.stop();
        self.service.shutdown();
    }

    fn metrics(&mut self) -> Value {
        self.collect.call(&obj(vec![("op", str_val("metrics"))]))
    }
}

/// What became of one job.
struct Done {
    job: Job,
    scheduled: Duration,
    sent: Duration,
    done: Duration,
    ok: bool,
    counts: Option<Vec<(u64, u64)>>,
}

/// Run `service_mix` for `seconds` and fill `report`.
pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report) {
    let mut stack = report.measure_setup(Stack::start, Stack::stop);
    let jobs = schedule(seed, seconds as f64);
    let before = stack.metrics();

    let (tx, rx) = mpsc::channel::<(usize, Option<u64>, Duration, Duration)>();
    let start = Instant::now();
    let submitter = {
        let mut conn = stack.submit.take().expect("submit connection");
        let jobs: Vec<(f64, Value)> = jobs.iter().map(|(t, j)| (*t, j.to_json())).collect();
        std::thread::spawn(move || {
            for (i, (t, request)) in jobs.iter().enumerate() {
                let due = Duration::from_secs_f64(*t);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed();
                let ack = conn.call(request);
                let id = ack.get("job").and_then(Value::as_u64);
                if tx.send((i, id, due, sent)).is_err() {
                    break;
                }
            }
            conn
        })
    };
    let mut done = Vec::with_capacity(jobs.len());
    for (i, id, scheduled, sent) in rx {
        let job = jobs[i].1.clone();
        let Some(id) = id else {
            // Refused at admission: counts as missing the limit.
            done.push(Done {
                job,
                scheduled,
                sent,
                done: start.elapsed(),
                ok: false,
                counts: None,
            });
            continue;
        };
        let reply = stack.collect.call(&job_request("result", id));
        let finished = start.elapsed();
        let ok = reply.get("ok").and_then(Value::as_bool) == Some(true)
            && reply
                .get("total")
                .and_then(Value::as_u64)
                .is_some_and(|t| t >= job.shots);
        let counts = reply.get("counts").and_then(Value::as_arr).map(|pairs| {
            pairs
                .iter()
                .filter_map(|p| {
                    let p = p.as_arr()?;
                    Some((p.first()?.as_u64()?, p.get(1)?.as_u64()?))
                })
                .collect()
        });
        done.push(Done {
            job,
            scheduled,
            sent,
            done: finished,
            ok,
            counts,
        });
    }
    let window = start.elapsed().as_secs_f64().max(seconds as f64);
    stack.submit = Some(submitter.join().expect("submitter thread"));
    let after = stack.metrics();

    summarize(&done, window, report);
    check_counts(&done, report);
    if trace {
        layers(&done, &before, &after, report);
    }
    Stack::stop(stack);
}

fn summarize(done: &[Done], window: f64, report: &mut Report) {
    for d in done {
        report.attempt((!d.ok).then(|| "a service job failed or was refused".to_string()));
    }
    // Failed or refused jobs count as missing any limit: they take the
    // whole window as their latency.
    let latencies: Vec<f64> = done
        .iter()
        .map(|d| {
            if d.ok {
                (d.done - d.scheduled).as_secs_f64() * 1e3
            } else {
                window * 1e3
            }
        })
        .collect();
    let n = latencies.len();
    if !percentile_supported(n, 95.0) {
        report.attempt(Some(format!("only {n} jobs ran; p95 needs 200")));
    }
    report.e2e("job_latency_p50_ms", median(&latencies).unwrap_or(0.0), n);
    report.e2e(
        "job_latency_p95_ms",
        percentile(&latencies, tail_percentile(n)).unwrap_or(0.0),
        n,
    );
    let good = latencies.iter().filter(|&&l| l <= LATENCY_LIMIT_MS).count();
    report.e2e("goodput_jobs_per_s", good as f64 / window, n);
    // Median over jobs of shots per second of the job's latency.
    let rate = |baseline: bool| {
        let rates: Vec<f64> = done
            .iter()
            .filter(|d| d.ok && d.job.baseline == baseline)
            .map(|d| d.job.shots as f64 / (d.done - d.scheduled).as_secs_f64())
            .collect();
        (median(&rates).unwrap_or(0.0), rates.len())
    };
    let (tree, n_tree) = rate(false);
    let (mc, n_mc) = rate(true);
    report.e2e("tqsim_shots_per_s", tree, n_tree);
    report.e2e("mc_shots_per_s", mc, n_mc);
    report.note(&format!(
        "{n} jobs in {window:.2} s at {RATE_PER_S} jobs/s offered; {good} within {LATENCY_LIMIT_MS} ms"
    ));
}

/// Re-run a spread sample of jobs on an in-process engine: the service
/// must return exactly the same histogram for the same spec and seed.
fn check_counts(done: &[Done], report: &mut Report) {
    let engine = Engine::new(EngineConfig::default().parallelism(1));
    let step = (done.len() / CHECKED_JOBS).max(1);
    for d in done.iter().step_by(step).filter(|d| d.ok) {
        let job = &d.job;
        let strategy = if job.baseline {
            Strategy::Baseline
        } else {
            Strategy::default_dcp()
        };
        let local = engine
            .submit(vec![JobSpec::new(&job.circuit)
                .noise(NoiseModel::sycamore())
                .shots(job.shots)
                .strategy(strategy)
                .seed(job.seed)
                .fusion_window(job.fusion())])
            .run()
            .expect("service jobs plan")
            .jobs
            .remove(0);
        let mut expected: Vec<(u64, u64)> = local.counts.iter().collect();
        expected.sort_unstable();
        report.attempt((d.counts.as_ref() != Some(&expected)).then(|| {
            format!(
                "service counts differ from an in-process run (seed {})",
                job.seed
            )
        }));
    }
}

/// Summed counter values by name from a `metrics` reply.
fn counters(reply: &Value) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for list in ["counters", "gauges"] {
        for m in reply.get(list).and_then(Value::as_arr).unwrap_or(&[]) {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("");
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let key = match m
                .get("labels")
                .and_then(|l| l.get("kind"))
                .and_then(Value::as_str)
            {
                Some(kind) => format!("{name}.{kind}"),
                None => name.to_string(),
            };
            *out.entry(key).or_insert(0.0) += value;
        }
    }
    out
}

fn stage(reply: &Value, stage: &str) -> Option<Value> {
    reply
        .get("histograms")?
        .as_arr()?
        .iter()
        .find(|h| {
            h.get("name").and_then(Value::as_str) == Some("tqsim_job_stage_ns")
                && h.get("labels")
                    .and_then(|l| l.get("stage"))
                    .and_then(Value::as_str)
                    == Some(stage)
        })
        .cloned()
}

/// Per-layer metrics from the service's own `metrics` verb, read before
/// and after the window (histograms include the warm-up jobs).
fn layers(done: &[Done], before: &Value, after: &Value, report: &mut Report) {
    let (b, a) = (counters(before), counters(after));
    let delta =
        |name: &str| a.get(name).copied().unwrap_or(0.0) - b.get(name).copied().unwrap_or(0.0);
    let jobs = done.len().max(1) as f64;
    for s in STAGES {
        let h = stage(after, s);
        let q = |key: &str| {
            h.as_ref()
                .and_then(|h| h.get(key))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        report.layer(&format!("service.{s}.p50_ns"), q("p50_ns"));
        report.layer(&format!("service.{s}.p90_ns"), q("p90_ns"));
    }
    let (hits, misses) = (
        delta("tqsim_plan_cache_hits_total"),
        delta("tqsim_plan_cache_misses_total"),
    );
    if hits + misses > 0.0 {
        report.layer("service.cache_hit_rate", hits / (hits + misses));
    }
    let e2e_mean = |reply: &Value| {
        let h = stage(reply, "e2e");
        let get = |k: &str| {
            h.as_ref()
                .and_then(|h| h.get(k))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        (get("sum_ns"), get("count"))
    };
    let ((s0, c0), (s1, c1)) = (e2e_mean(before), e2e_mean(after));
    let ok: Vec<&Done> = done.iter().filter(|d| d.ok).collect();
    if c1 > c0 && !ok.is_empty() {
        let client_ns: f64 = ok
            .iter()
            .map(|d| (d.done - d.sent).as_secs_f64() * 1e9)
            .sum::<f64>()
            / ok.len() as f64;
        report.layer(
            "service.wire_overhead_ns",
            client_ns - (s1 - s0) / (c1 - c0),
        );
    }
    report.layer("service.rejected", delta("tqsim_jobs_rejected_total"));
    report.layer("service.retried", delta("tqsim_jobs_retried_total"));
    let lateness: Vec<f64> = done
        .iter()
        .map(|d| d.sent.saturating_sub(d.scheduled).as_secs_f64() * 1e3)
        .collect();
    report.layer(
        "loadgen.lateness_ms",
        percentile(&lateness, 95.0).unwrap_or(0.0),
    );
    report.layer("engine.busy_ns", delta("tqsim_engine_busy_ns_total") / jobs);
    report.layer("engine.idle_ns", delta("tqsim_engine_idle_ns_total") / jobs);
    report.layer("engine.steals", delta("tqsim_engine_steals_total") / jobs);
    let gates = ["gates_1q", "gates_2q", "gates_3q"]
        .iter()
        .map(|k| delta(&format!("tqsim_ops_total.{k}")))
        .sum::<f64>();
    report.layer("core.gates", gates / jobs);
    report.layer(
        "core.amp_passes",
        delta("tqsim_ops_total.amp_passes") / jobs,
    );
    report.layer(
        "statevec.pool.allocations",
        delta("tqsim_state_pool_allocations_total"),
    );
    report.layer(
        "statevec.pool.high_water_bytes",
        a.get("tqsim_state_pool_high_water_bytes")
            .copied()
            .unwrap_or(0.0),
    );
    report.layer("amp_pool.tasks", delta("tqsim_amp_pool_tasks") / jobs);
    report.layer("amp_pool.busy_ns", delta("tqsim_amp_pool_busy_ns") / jobs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_reproducible_from_the_seed() {
        let key = |s: &[(f64, Job)]| -> Vec<(u64, u64, u64, bool, bool)> {
            s.iter()
                .map(|(t, j)| (t.to_bits(), j.shots, j.seed, j.baseline, j.wide_fusion))
                .collect()
        };
        let a = schedule(9, 5.0);
        let b = schedule(9, 5.0);
        assert_eq!(key(&a), key(&b));
        for ((_, x), (_, y)) in a.iter().zip(&b) {
            assert_eq!(*x.circuit, *y.circuit);
        }
        assert_ne!(key(&a), key(&schedule(10, 5.0)));
    }

    #[test]
    fn schedule_is_open_loop_at_the_fixed_rate() {
        let s = schedule(3, 50.0);
        assert_eq!(s.len() as f64, RATE_PER_S * 50.0);
        assert!(s.iter().all(|(t, _)| (0.0..50.0).contains(t)));
        assert!(s
            .windows(2)
            .all(|w| ((w[1].0 - w[0].0) * RATE_PER_S - 1.0).abs() < 1e-9));
    }

    #[test]
    fn job_mix_is_the_same_for_every_seed() {
        let mix = |seed| {
            let mut kinds: Vec<(usize, u64, bool, bool)> = schedule(seed, 30.0)
                .into_iter()
                .map(|(_, j)| (j.circuit.len(), j.shots, j.baseline, j.wide_fusion))
                .collect();
            kinds.sort();
            kinds
        };
        assert_eq!(mix(1), mix(2));
        let s = schedule(1, 48.0); // 720 jobs: five of each combination
        let n = s.len() as f64;
        let share = |f: &dyn Fn(&Job) -> bool| s.iter().filter(|(_, j)| f(j)).count() as f64 / n;
        assert_eq!(share(&|j| j.wide_fusion), 0.25);
        assert_eq!(share(&|j| j.baseline), 0.5);
        assert_eq!(share(&|j| j.shots == 256), 1.0 / 3.0);
    }
}
