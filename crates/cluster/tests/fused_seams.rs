//! The in-process backend's cross-boundary fused seams against the
//! op-by-op sequence they replace: `copy_into_apply` against `copy_into`
//! then `apply_window`, and `sample_fused` against `apply_window` then
//! `sample_many` — amplitudes, samples and deterministic counters, at 2
//! and 4 nodes, eager and batched, for a node-local window (which rides
//! the copy / the sampling walk) and a window touching a node-selecting
//! qubit (which falls back to the op-by-op sequence).

use tqsim_circuit::generators;
use tqsim_circuit::GateKind;
use tqsim_cluster::{ClusterBackend, DistributedStateVector, InterconnectModel};
use tqsim_statevec::{
    apply_window, DiagRun, FusedOp, PooledBackend, QuantumState, SingleNode, StateVector,
};

const N: u16 = 8;

/// `(name, window)`: one window below the node boundary at 2 and 4 nodes
/// (qubits 0..=5 are local at 4 nodes), one straddling it.
fn windows() -> [(&'static str, Vec<FusedOp>); 2] {
    let mut run = DiagRun::new();
    run.push1(7, GateKind::T.diag1().unwrap());
    run.push2(6, 1, GateKind::Cz.diag2().unwrap());
    let local = vec![
        FusedOp::Unitary1 {
            q: 0,
            m: GateKind::Sx.matrix1().unwrap(),
            src: None,
        },
        FusedOp::Unitary2 {
            q_hi: 4,
            q_lo: 2,
            m: GateKind::FSim(0.4, 0.9).matrix2().unwrap(),
            src: None,
        },
        FusedOp::FusedDiag(run),
    ];
    let global = vec![
        FusedOp::Unitary2 {
            q_hi: 7,
            q_lo: 0,
            m: GateKind::FSim(1.1, 0.3).matrix2().unwrap(),
            src: None,
        },
        FusedOp::Unitary1 {
            q: 3,
            m: GateKind::H.matrix1().unwrap(),
            src: None,
        },
    ];
    [("local", local), ("global", global)]
}

fn parent(backend: &ClusterBackend) -> DistributedStateVector {
    let mut state = backend.allocate(N);
    for gate in &generators::qft(N) {
        state.apply_gate(gate);
    }
    state.sync_layout();
    state
}

fn draws() -> Vec<f64> {
    (0..40)
        .map(|i| ((i * 37) % 40) as f64 / 40.0 + 0.0031)
        .collect()
}

#[test]
fn fused_seams_match_the_op_by_op_sequence() {
    let model = InterconnectModel::commodity_cluster();
    for nodes in [2usize, 4] {
        for batched in [false, true] {
            let backend = ClusterBackend::new(nodes, model).exchange_batching(batched);
            let parent = parent(&backend);
            for (name, window) in windows() {
                let case = format!("{name} window, {nodes} nodes, batched={batched}");

                // Fused copy vs copy-then-apply.
                let mut fused = backend.allocate(N);
                backend.copy_into_apply(&mut fused, &parent, &window);
                let mut eager = backend.allocate(N);
                backend.copy_into(&mut eager, &parent);
                apply_window(&mut eager, &window);
                fused.sync_layout();
                eager.sync_layout();
                assert_eq!(
                    fused.gather().amplitudes(),
                    eager.gather().amplitudes(),
                    "{case}"
                );
                assert_eq!(fused.counters, eager.counters, "{case}");
                assert_eq!(fused.counters.state_copies, 1, "{case}");

                // The single-node fused copy lands on the same amplitudes.
                let mut single = StateVector::zero(N);
                SingleNode.copy_into_apply(&mut single, &parent.gather(), &window);
                assert_eq!(fused.gather().amplitudes(), single.amplitudes(), "{case}");

                // Fused sampling vs apply-then-sample.
                let us = draws();
                let got = fused.sample_fused(&window, &us);
                apply_window(&mut eager, &window);
                eager.sync_layout();
                assert_eq!(got, eager.sample_many(&us), "{case}");
                assert_eq!(got, single.sample_fused(&window, &us), "{case}");
                assert_eq!(
                    fused.gather().amplitudes(),
                    eager.gather().amplitudes(),
                    "{case}"
                );
                assert_eq!(fused.counters, eager.counters, "{case}");
                if name == "global" {
                    assert!(fused.counters.exchanges > 0, "{case}: must communicate");
                }
            }
        }
    }
}

/// A fused walk that resolves every draw on the first node still leaves
/// the tail applied on the nodes it never visited.
#[test]
fn early_exit_fused_walk_finishes_the_state_on_every_node() {
    let model = InterconnectModel::commodity_cluster();
    let backend = ClusterBackend::new(4, model);
    let (_, window) = windows().into_iter().next().unwrap();
    let mut fused = parent(&backend);
    let mut eager = parent(&backend);
    let got = fused.sample_fused(&window, &[0.0, 1e-9]);
    apply_window(&mut eager, &window);
    assert_eq!(got, eager.sample_many(&[0.0, 1e-9]));
    assert_eq!(fused.gather().amplitudes(), eager.gather().amplitudes());
    assert_eq!(fused.counters, eager.counters);
}
