//! TQSim benchmark: end-to-end metrics from untraced runs, per-layer
//! metrics from a traced run, output checks on every run.
//!
//! ```text
//! tqsim-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root (`perfbench/run.py` builds it first).
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The exit
//! code is non-zero when an output check fails. See `perfbench/README.md`
//! for the workloads and what each metric means.

use std::process::ExitCode;
use std::time::Duration;
use tqsim_perfbench::batch::{self, Batch};
use tqsim_perfbench::report::Report;
use tqsim_perfbench::{host, service_mix, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tqsim-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set = host::guarded_env_set();
    if !set.is_empty() {
        eprintln!("tqsim-perfbench: refusing to run with {set:?} set: each changes the program under test");
        return ExitCode::from(2);
    }
    println!(
        "# host: {} CPUs, {}; sources {}",
        host::nproc(),
        host::cpu_model(),
        host::source_digest()
    );
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    host::spin_up_cpus(Duration::from_secs(1));
    let ref_before = host::reference_ns_per_amp();
    let mut report = Report::default();
    match args.workload.as_str() {
        "narrow_reuse" => batch::run(
            Batch::Narrow,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "wide_reuse" => batch::run(
            Batch::Wide,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "shard_exchange" => batch::run(
            Batch::Shard,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "service_mix" => service_mix::run(args.seed, args.seconds, args.trace, &mut report),
        _ => unreachable!("validated in parse_args"),
    }
    let ref_after = host::reference_ns_per_amp();
    report.note(&format!(
        "reference kernel (mat2 at 2^12): {ref_before:.3} ns/amp before, {ref_after:.3} after"
    ));
    if args.trace {
        report.layer("host.ref_before_ns_per_amp", ref_before);
        report.layer("host.ref_after_ns_per_amp", ref_after);
    }
    if report.print(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
