//! The tracing wrapper must not change what the program computes: traced
//! `Counts` and `OpCounts` equal untraced ones for the same seed, on one
//! node and over shard worker processes, with eager and with
//! cross-boundary fusion (the paths that use the wrapper's forwarded
//! `copy_into_apply` and `sample_fused`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tqsim::{run_tree_nodes, Counts, ExecOptions, OpCounts, Strategy, TreeExecutor};
use tqsim_circuit::generators;
use tqsim_engine::{Engine, EngineConfig, FusionConfig, JobPlan, PlannedJob};
use tqsim_noise::NoiseModel;
use tqsim_perfbench::trace::{Kind, Ledger, Traced};
use tqsim_shard::ShardBackend;
use tqsim_statevec::{PooledBackend, SingleNode};

fn windows() -> [FusionConfig; 2] {
    [
        FusionConfig {
            max_fuse_qubits: 2,
            boundary: false,
        },
        FusionConfig {
            max_fuse_qubits: 4,
            boundary: true,
        },
    ]
}

#[test]
fn traced_serial_walk_matches_tree_executor() {
    let noise = NoiseModel::sycamore();
    for circuit in [
        generators::qft(8),
        generators::qaoa_random(8, 12, 3, 0.4, 0.7).0,
    ] {
        for fusion in windows() {
            let partition = Strategy::Custom {
                arities: vec![6, 3, 2],
            }
            .plan(&circuit, &noise, 36)
            .unwrap();
            let exec =
                TreeExecutor::with_fusion_config(&circuit, &noise, partition.clone(), fusion)
                    .unwrap();
            for seed in [1u64, 77] {
                let plain = exec.run(seed);
                let ledger = Ledger::new();
                let backend = Traced::new(SingleNode, Arc::clone(&ledger));
                let n = circuit.n_qubits();
                let k = partition.tree.arities().len();
                let mut states: Vec<_> = (0..=k).map(|_| backend.allocate(n)).collect();
                let mut counts = Counts::new(n);
                let mut ops = OpCounts::new();
                ops.state_resets += 1;
                run_tree_nodes(
                    &backend,
                    &partition.subcircuits(&circuit),
                    exec.compiled_plans(),
                    &partition.tree,
                    &noise,
                    &mut states,
                    &mut counts,
                    &mut ops,
                    &mut StdRng::seed_from_u64(seed),
                    ExecOptions::default(),
                );
                assert_eq!(counts, plain.counts, "{fusion:?} seed {seed}");
                assert_eq!(ops, plain.ops, "{fusion:?} seed {seed}");
                assert_eq!(ledger.row(Kind::Copy).calls, ops.state_copies);
                assert!(ledger.row(Kind::Sample).calls > 0);
            }
        }
    }
}

#[test]
fn traced_shard_engine_matches_untraced() {
    std::env::set_var(
        "TQSIM_SHARD_WORKER_BIN",
        env!("CARGO_BIN_EXE_tqsim-shard-worker"),
    );
    let backend = ShardBackend::spawn(2).expect("spawn shard workers");
    let ledger = Ledger::new();
    let plain = Engine::with_backend(EngineConfig::default().parallelism(1), backend.clone());
    let traced = Engine::with_backend(
        EngineConfig::default().parallelism(1),
        Traced::new(backend, Arc::clone(&ledger)),
    );
    let noise = NoiseModel::sycamore();
    let circuit = generators::qaoa_random(8, 12, 5, 0.3, 0.9).0;
    for fusion in windows() {
        let plan = JobPlan::plan_with(
            &circuit,
            &noise,
            8,
            &Strategy::Custom {
                arities: vec![2, 2, 2],
            },
            fusion,
        )
        .unwrap();
        let job = PlannedJob::new(Arc::new(plan)).seed(11);
        let a = plain.run_planned(&job);
        let b = traced.run_planned(&job);
        assert_eq!(a.counts, b.counts, "{fusion:?}");
        assert_eq!(a.ops, b.ops, "{fusion:?}");
    }
    assert!(ledger.row(Kind::Copy).calls > 0);
    assert!(ledger.total_ns() > 0);
}
