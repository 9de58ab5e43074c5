//! Golden cluster counters: the deterministic `ClusterCounters` of a fixed
//! noisy QFT-8 and QAOA-8 replay (plus a fused parent→child copy and a
//! fused tail sample) at 2 and 4 nodes, eager and batched, pinned as
//! literals for **both** transports.
//!
//! Both backends run one distributed core, so comparing them with each
//! other (`shard_identity`) cannot catch a regression in that core. These
//! literals were recorded from the two hand-maintained backends that
//! preceded the shared core; any change to the exchange schedule, the
//! gate classification, the compute-pass charging or the order of the
//! modeled-time additions shows up here as a literal mismatch.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tqsim_circuit::generators;
use tqsim_circuit::math::c64;
use tqsim_circuit::{Circuit, Gate, GateKind};
use tqsim_cluster::{ClusterBackend, ClusterCounters, InterconnectModel};
use tqsim_noise::NoiseModel;
use tqsim_shard::ShardBackend;
use tqsim_statevec::{DiagRun, FusedOp, FusionConfig, OpCounts, PooledBackend, QuantumState};

/// `(local, global, exchanges, bytes, amp_ops, state_copies, sim bits)`.
type Golden = (u64, u64, u64, u64, u64, u64, u64);

fn circuits() -> [(&'static str, Circuit); 2] {
    [
        ("qft8", generators::qft(8)),
        ("qaoa8", generators::qaoa_random(8, 12, 3, 0.4, 0.7).0),
    ]
}

/// Head window for the fused copy: node-local at 2 and 4 nodes.
fn head() -> Vec<FusedOp> {
    let mut run = DiagRun::new();
    run.push1(7, GateKind::S.diag1().unwrap());
    vec![
        FusedOp::Unitary1 {
            q: 0,
            m: GateKind::Sx.matrix1().unwrap(),
            src: None,
        },
        FusedOp::FusedDiag(run),
    ]
}

/// Tail window for the fused sample: node-local at 2 and 4 nodes.
fn tail() -> Vec<FusedOp> {
    vec![FusedOp::Unitary2 {
        q_hi: 2,
        q_lo: 1,
        m: GateKind::FSim(0.3, 0.2).matrix2().unwrap(),
        src: None,
    }]
}

fn golden(c: &ClusterCounters) -> Golden {
    (
        c.local_gates,
        c.global_gates,
        c.exchanges,
        c.bytes_exchanged,
        c.amp_ops,
        c.state_copies,
        c.simulated_seconds.to_bits(),
    )
}

/// Replay `circuit` under the full fig16 noise stack on a fresh state
/// (noise syncs the layout at every site, so eager and batched agree
/// here), then replay it once more noise-free (where batching defers
/// swaps), then copy it into a child with the head window and sample the
/// child through the tail window. Returns (parent, child) counters.
fn drive<B: PooledBackend>(
    backend: &B,
    circuit: &Circuit,
    counters: impl Fn(&B::State) -> ClusterCounters,
) -> (Golden, Golden) {
    let noise = tqsim_noise::fig16_models().pop().unwrap();
    let fusion = FusionConfig {
        max_fuse_qubits: 3,
        boundary: false,
    };
    let compiled = noise.compile_with(circuit, fusion);
    let mut rng = StdRng::seed_from_u64(11);
    let mut ops = OpCounts::new();
    let mut parent = backend.allocate(circuit.n_qubits());
    compiled.replay(&mut parent, &mut ops, |gate, ctx| {
        noise.apply_after_gate_deferred(gate, ctx, &mut rng)
    });
    NoiseModel::ideal()
        .compile_with(circuit, fusion)
        .replay_ideal(&mut parent, &mut ops);
    // A global-qubit gate and noise-surface ops outside the plan.
    parent.apply_gate(&Gate::new(GateKind::H, &[7]));
    parent.apply_diag1(6, c64(0.9, 0.0), c64(0.0, 0.4));
    parent.apply_antidiag1(7, c64(0.0, 0.5), c64(0.3, 0.0));
    parent.renormalize();
    parent.sync_layout();
    let mut child = backend.allocate(circuit.n_qubits());
    backend.copy_into_apply(&mut child, &parent, &head());
    let us: Vec<f64> = (0..16).map(|i| (i as f64 + 0.5) / 16.0).collect();
    child.sample_fused(&tail(), &us);
    (golden(&counters(&parent)), golden(&counters(&child)))
}

/// `(circuit, nodes, batched) → (parent, child)`, recorded once.
const GOLDEN: &[(&str, usize, bool, Golden, Golden)] = &[
    (
        "qft8",
        2,
        false,
        (156, 22, 45, 94208, 467968, 0, 4566224065250330293),
        (3, 0, 0, 0, 1024, 1, 4508435330648954517),
    ),
    (
        "qft8",
        2,
        true,
        (156, 22, 43, 90112, 467968, 0, 4566204862927619325),
        (3, 0, 0, 0, 1024, 1, 4508435330648954517),
    ),
    (
        "qft8",
        4,
        false,
        (140, 38, 87, 180224, 467968, 0, 4570300115097997973),
        (3, 0, 0, 0, 1024, 1, 4503931731021584021),
    ),
    (
        "qft8",
        4,
        true,
        (140, 38, 87, 180224, 467968, 0, 4570300115097997973),
        (3, 0, 0, 0, 1024, 1, 4503931731021584021),
    ),
    (
        "qaoa8",
        2,
        false,
        (47, 20, 41, 86016, 173312, 0, 4559953161287452751),
        (3, 0, 0, 0, 1024, 1, 4508435330648954517),
    ),
    (
        "qaoa8",
        2,
        true,
        (47, 20, 33, 69632, 173312, 0, 4559799542705764999),
        (3, 0, 0, 0, 1024, 1, 4508435330648954517),
    ),
    (
        "qaoa8",
        4,
        false,
        (41, 26, 65, 135168, 173312, 0, 4563980973637236976),
        (3, 0, 0, 0, 1024, 1, 4503931731021584021),
    ),
    (
        "qaoa8",
        4,
        true,
        (41, 26, 61, 126976, 173312, 0, 4563943324570452296),
        (3, 0, 0, 0, 1024, 1, 4503931731021584021),
    ),
];

fn check<B: PooledBackend>(
    label: &str,
    make: impl Fn(usize, bool) -> B,
    counters: impl Fn(&B::State) -> ClusterCounters + Copy,
) {
    for (name, circuit) in circuits() {
        for nodes in [2usize, 4] {
            for batched in [false, true] {
                let got = drive(&make(nodes, batched), &circuit, counters);
                let want = GOLDEN
                    .iter()
                    .find(|g| g.0 == name && g.1 == nodes && g.2 == batched)
                    .map(|g| (g.3, g.4));
                assert_eq!(
                    Some(got),
                    want,
                    "{label}: {name} on {nodes} nodes, batched={batched}"
                );
            }
        }
    }
}

#[test]
fn in_process_counters_match_the_recorded_literals() {
    let model = InterconnectModel::commodity_cluster();
    check(
        "in-process",
        |nodes, batched| ClusterBackend::new(nodes, model).exchange_batching(batched),
        |s| s.counters,
    );
}

#[test]
fn multi_process_counters_match_the_recorded_literals() {
    let pools: Vec<ShardBackend> = [2usize, 4]
        .iter()
        .map(|&n| ShardBackend::spawn(n).expect("spawn workers"))
        .collect();
    check(
        "multi-process",
        |nodes, batched| {
            pools[nodes.trailing_zeros() as usize - 1]
                .clone()
                .exchange_batching(batched)
        },
        |s| s.counters,
    );
}
