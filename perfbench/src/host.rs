//! The host record (CPU, worker count, source digest), the environment
//! guard, the reference-kernel speed probe and peak-memory readout.

use crate::stats::median;
use std::time::{Duration, Instant};
use tqsim_circuit::GateKind;
use tqsim_statevec::{kernels, StateVector};

/// Variables that change the program under test; a run refuses to start
/// while any of them is set. `TQSIM_SHARD_WORKER_BIN` would swap in another
/// shard worker than the one built next to the benchmark.
pub const GUARDED_ENV: [&str; 7] = [
    "TQSIM_FUSE_QUBITS",
    "TQSIM_AMP_THREADS",
    "TQSIM_PAR_MIN_LEN",
    "TQSIM_COPY_COST",
    "TQSIM_FAILPOINTS",
    "TQSIM_FULL",
    "TQSIM_SHARD_WORKER_BIN",
];

/// The guarded variables that are set, if any.
pub fn guarded_env_set() -> Vec<&'static str> {
    GUARDED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// CPU brand string from `cpuid`, where the instruction exists.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    #[allow(unused_unsafe)] // `__cpuid` is safe to call on newer toolchains
    {
        use std::arch::x86_64::__cpuid;
        // SAFETY: `cpuid` is available on every x86_64 CPU; leaves above
        // the reported maximum are not queried.
        let max = unsafe { __cpuid(0x8000_0000) }.eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                // SAFETY: as above, the leaf is within the reported range.
                let r = unsafe { __cpuid(leaf) };
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            return String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string();
        }
    }
    std::env::consts::ARCH.to_string()
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// FNV-1a digest of the program's sources under the current directory
/// (the repository root): stands in for the commit, which a plain
/// checkout does not carry.
pub fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "shims", "src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.push("Cargo.toml".into());
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x} ({} files)", files.len())
}

/// Keep every CPU busy for `d`. A virtual CPU that has been idle runs the
/// first second or so of work at about half speed (service set-up read
/// 0.22–0.28 s after a few idle seconds, 0.11–0.13 s after this spin), so
/// each run starts from a busy host rather than from whatever the host
/// did before it.
pub fn spin_up_cpus(d: Duration) {
    let start = Instant::now();
    let spinners: Vec<_> = (0..nproc())
        .map(|_| {
            std::thread::spawn(move || {
                let mut x = 1u64;
                while start.elapsed() < d {
                    for _ in 0..1000 {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    }
                }
                std::hint::black_box(x);
            })
        })
        .collect();
    for s in spinners {
        s.join().expect("spinner thread");
    }
}

/// Time the reference kernel, `kernels::apply_mat2` on a 2^12-amplitude
/// state, in ns per amplitude (median of 15 batches). A diagnostic of
/// host speed only: runs on a drifting host show it.
pub fn reference_ns_per_amp() -> f64 {
    const N: u16 = 12;
    const REPS: usize = 200;
    let mut sv = StateVector::zero(N);
    let m = GateKind::H.matrix1().expect("H is a 1-qubit gate");
    let batches: Vec<f64> = (0..15)
        .map(|b| {
            let t0 = Instant::now();
            for r in 0..REPS {
                kernels::apply_mat2(sv.amplitudes_mut(), (b + r) % N as usize, &m);
            }
            std::hint::black_box(sv.amplitudes());
            t0.elapsed().as_nanos() as f64 / (REPS as f64 * f64::from(1u32 << N))
        })
        .collect();
    median(&batches).expect("15 batches")
}

#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn maxrss_kib(who: i32) -> f64 {
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable struct with the layout of the C
    // `struct rusage` on 64-bit Linux.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc == 0 {
        usage.maxrss_kib as f64
    } else {
        0.0
    }
}

/// Peak resident memory of this process plus `children` exited child
/// processes, in MiB. The kernel keeps only the largest child's peak, so
/// each child is counted at that size.
pub fn peak_rss_mib(children: usize) -> f64 {
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    let own = maxrss_kib(RUSAGE_SELF);
    let child = if children > 0 {
        maxrss_kib(RUSAGE_CHILDREN) * children as f64
    } else {
        0.0
    };
    (own + child) / 1024.0
}
