//! # tqsim-shard
//!
//! Real multi-**process** cluster execution: the state vector sliced
//! across shard worker processes on loopback TCP, bit-identical to the
//! in-process distributed backend.
//!
//! `tqsim-cluster` owns one distributed core, [`tqsim_cluster::Distributed`]:
//! layout remaps, exchange batching, counters, interconnect pricing and
//! the rank-ordered reductions, over a small transport verb set. This
//! crate is the second transport behind that core — one OS process per
//! node instead of one thread, a real wire instead of shared memory —
//! and adds no decision of its own. The pieces:
//!
//! * [`state`] — [`ShardSlices`], the transport: one control message per
//!   worker per verb, under one acquisition of the cluster link per
//!   multi-rank verb or chained reduction; plus the
//!   [`ShardedStateVector`] and [`ShardBackend`] names for the core over
//!   it;
//! * [`worker`] — the worker process runtime: owns its node's slices,
//!   dispatches each verb into the shared `tqsim_cluster::slices`
//!   functions, and exchanges dswap halves peer-to-peer over a
//!   lazily-dialed worker mesh;
//! * [`proto`] — the wire protocol: line-delimited JSON control verbs
//!   (the `tqsim-service` codec idiom, via `tqsim-json`) plus
//!   length-prefixed binary amplitude frames;
//! * [`cluster`] — process lifecycle: spawn/handshake/shutdown, the
//!   single-mutex coordinator transport, and the `kill_worker` chaos hook.
//!
//! The worker verbs are: `apply` (a fused window on the worker's slice at
//! its rank's base), `dswap` and `antidiag_g` (the pairwise exchanges),
//! `antidiag` and `scale`, the chain links `psum`/`msum`/`pick`/`walk`/
//! `fwalk`, the lifecycle verbs `alloc`/`reset`/`free`/`copy`/`capply`,
//! and `fetch`.
//!
//! Transport failures — a worker process dying mid-job, or an injected
//! `shard.transport` failpoint — panic on the coordinator thread driving
//! the job; the engine's per-task panic isolation contains the blast
//! radius to that job and the service's retry/degradation ladder recovers.

#![warn(missing_docs)]

pub mod cluster;
pub mod proto;
pub mod state;
pub mod worker;

pub use cluster::{ClusterLink, ShardCluster};
pub use state::{ShardBackend, ShardLink, ShardSlices, ShardedStateVector};
