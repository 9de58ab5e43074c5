//! # tqsim-cluster
//!
//! qHiPSTER-style distributed state-vector substrate — the multi-node
//! evaluation platform of the TQSim reproduction (paper §5.3, Fig. 13).
//!
//! The full amplitude array is sliced across nodes; gates on global qubits
//! perform the pairwise half-slice exchanges a real cluster would, with
//! every byte counted and priced by an [`InterconnectModel`]. Results are
//! validated bit-exactly against the single-node engine, and an analytic
//! estimator extrapolates the Fig. 13 strong/weak-scaling curves to widths
//! this environment cannot execute.
//!
//! One distributed core serves every transport:
//!
//! * [`Distributed`] — the distributed state over a [`Transport`]. It owns
//!   the [`LayoutTracker`] (eager and batched exchange schedules), the
//!   [`ClusterCounters`] and [`ClusterObs`] accounting, the interconnect
//!   pricing and the rank-ordered reductions, and holds the only
//!   distributed `QuantumState` implementation;
//! * [`DistributedBackend`] — the matching `PooledBackend` descriptor;
//! * [`slices`] — the per-slice arithmetic every transport runs on its
//!   slices, so transports agree bit for bit by construction;
//! * [`transport`] — the verb set the core drives, and [`InProcess`], the
//!   transport that keeps every slice in this process (one thread per
//!   node). [`DistributedStateVector`] and [`ClusterBackend`] name it.
//!
//! The `tqsim-shard` crate adds the multi-process transport (one worker
//! process per node over loopback TCP) behind the same core.
//!
//! ```
//! use tqsim_cluster::{DistributedStateVector, InterconnectModel};
//! use tqsim_statevec::QuantumState;
//! use tqsim_circuit::generators;
//!
//! let circuit = generators::qft(6);
//! let model = InterconnectModel::commodity_cluster();
//! let mut dsv = DistributedStateVector::zero(6, 4, model)?;
//! for gate in &circuit {
//!     dsv.apply_gate(gate);
//! }
//! assert!((dsv.norm_sqr() - 1.0).abs() < 1e-9);
//! assert!(dsv.counters.exchanges > 0); // QFT touches global qubits
//! # Ok::<(), tqsim_cluster::ClusterError>(())
//! ```

#![warn(missing_docs)]

pub mod distributed;
pub mod layout;
pub mod model;
pub mod runner;
pub mod slices;
pub mod transport;

pub use distributed::{
    check_layout, ClusterBackend, ClusterError, ClusterObs, Distributed, DistributedBackend,
    DistributedStateVector,
};
pub use layout::{DensePlan, LayoutTracker};
pub use model::{ClusterCounters, InterconnectModel};
pub use runner::{
    estimate_shot_seconds, estimate_tree_seconds, run_distributed, run_distributed_with_options,
    DistRunResult,
};
pub use transport::{InProcess, Link, LinkMut, Spawn, Transport};
