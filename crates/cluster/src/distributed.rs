//! The distributed state vector: qHiPSTER-style node slices over any
//! [`Transport`].
//!
//! The full `2^n` amplitude array is split across `2^g` nodes; node `i`
//! holds the contiguous slice of global indices `i·2^{n−g} .. (i+1)·2^{n−g}`,
//! i.e. the **top `g` qubits select the node**. Gates on local (low) qubits
//! run on every node at once; gates touching a global qubit are handled
//! the way real distributed simulators do it — a *distributed swap* brings
//! the global qubit down to a scratch local qubit (one pairwise half-slice
//! exchange), the gate runs locally, and the swap is undone (eagerly, or
//! lazily under exchange batching). Every exchange is counted and priced
//! by the [`InterconnectModel`].
//!
//! [`Distributed`] owns every decision — the [`LayoutTracker`], the
//! counters, the pricing and the rank-ordered floating-point folds — and
//! holds the only distributed [`QuantumState`] and [`PooledBackend`]
//! implementations. The transport only moves and updates slices, through
//! the shared [`crate::slices`] functions, so the in-process and the
//! multi-process backends agree bit for bit by construction.

use crate::layout::{DensePlan, LayoutTracker};
use crate::model::{ClusterCounters, InterconnectModel};
use crate::slices::Cursor;
use crate::transport::{InProcess, Link, LinkMut, Spawn, Transport};
use std::fmt;
use std::io;
use std::sync::Arc;
use std::time::Instant;
use tqsim_circuit::math::{Mat16, Mat2, Mat32, Mat4, Mat8, C64};
use tqsim_circuit::Gate;
use tqsim_obs::{Counter, Registry};
use tqsim_statevec::{
    apply_window, window_span, DiagRun, FusedOp, PooledBackend, QuantumState, StateVector,
};

/// Error constructing a distributed state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// Node count must be a power of two ≥ 1.
    BadNodeCount(usize),
    /// Each node must keep at least 2^3 amplitudes so three-qubit gates can
    /// be remapped locally.
    TooFewLocalQubits {
        /// Requested register width.
        n_qubits: u16,
        /// Requested node count.
        n_nodes: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::BadNodeCount(n) => {
                write!(f, "node count {n} is not a power of two >= 1")
            }
            ClusterError::TooFewLocalQubits { n_qubits, n_nodes } => write!(
                f,
                "{n_qubits} qubits over {n_nodes} nodes leaves fewer than 3 local qubits"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Live observability counters for distributed execution, shared by every
/// state an observed [`DistributedBackend`] allocates. Unlike the
/// per-state [`ClusterCounters`] (which travel with each state and merge
/// into run results), these are global monotonic totals held in a
/// [`tqsim_obs::Registry`] — a monitoring view across all runs.
#[derive(Debug)]
pub struct ClusterObs {
    /// Pairwise half-slice exchange rounds (distributed swaps and
    /// cross-node antidiagonal combines).
    pub exchanges: Arc<Counter>,
    /// Modeled bytes moved over the interconnect.
    pub bytes_exchanged: Arc<Counter>,
    /// Gates applied without communication (all qubits node-local).
    pub local_gates: Arc<Counter>,
    /// Gates that needed a global→local remap (distributed swaps each way).
    pub remapped_gates: Arc<Counter>,
    /// Parent→child intermediate-state copies (node-local memcpys).
    pub state_copies: Arc<Counter>,
    /// **Measured** nanoseconds spent in exchange rounds (wall-clock).
    pub exchange_measured_ns: Arc<Counter>,
    /// **Modeled** nanoseconds the interconnect model prices the same
    /// exchange rounds at — exposed next to the measured total so
    /// model-vs-measured drift is one division away in the exposition.
    pub exchange_simulated_ns: Arc<Counter>,
}

impl ClusterObs {
    /// Register the cluster counter set in `registry`. Metric names are
    /// fixed (`tqsim_cluster_*_total`), so registering twice against the
    /// same registry yields handles to the same underlying counters.
    pub fn register(registry: &Registry) -> Arc<Self> {
        Arc::new(ClusterObs {
            exchanges: registry.counter("tqsim_cluster_exchanges_total", &[]),
            bytes_exchanged: registry.counter("tqsim_cluster_bytes_exchanged_total", &[]),
            local_gates: registry.counter("tqsim_cluster_local_gates_total", &[]),
            remapped_gates: registry.counter("tqsim_cluster_remapped_gates_total", &[]),
            state_copies: registry.counter("tqsim_cluster_state_copies_total", &[]),
            exchange_measured_ns: registry.counter("tqsim_cluster_exchange_measured_ns_total", &[]),
            exchange_simulated_ns: registry
                .counter("tqsim_cluster_exchange_simulated_ns_total", &[]),
        })
    }

    /// Record one exchange round: count, bytes, and measured vs modeled
    /// time (both in nanoseconds, saturating at u64).
    pub fn note_exchange(&self, bytes: u64, measured_s: f64, simulated_s: f64) {
        self.exchanges.inc();
        self.bytes_exchanged.add(bytes);
        self.exchange_measured_ns.add((measured_s * 1e9) as u64);
        self.exchange_simulated_ns.add((simulated_s * 1e9) as u64);
    }
}

/// The single source of truth for the slicing invariant: `n_nodes` must
/// be a power of two ≥ 1 and at least 3 qubits must stay node-local.
/// Every constructor, [`DistributedBackend::validate`] and the runner's
/// pre-checks delegate here, so the rule cannot drift.
pub fn check_layout(n_qubits: u16, n_nodes: usize) -> Result<(), ClusterError> {
    if n_nodes == 0 || !n_nodes.is_power_of_two() {
        return Err(ClusterError::BadNodeCount(n_nodes));
    }
    if n_qubits < n_nodes.trailing_zeros() as u16 + 3 {
        return Err(ClusterError::TooFewLocalQubits { n_qubits, n_nodes });
    }
    Ok(())
}

/// The `plan.boundary` failpoint of the cross-boundary fused seams — the
/// same site the single-node seams and `apply_window` hit, so chaos suites
/// exercise every backend with one name.
fn boundary_failpoint() {
    if tqsim_faults::any_armed() {
        if let Err(e) = tqsim_faults::trigger("plan.boundary") {
            std::panic::panic_any(e);
        }
    }
}

/// Panic on an injected fault at `site`: the state API has no error
/// channel, and the engine's per-task `catch_unwind` contains the panic
/// to the running job.
fn failpoint(site: &str) {
    if let Err(fault) = tqsim_faults::trigger(site) {
        panic!("{fault}");
    }
}

/// A pure state distributed over `2^g` nodes of a [`Transport`].
pub struct Distributed<T: Transport> {
    transport: T,
    n_qubits: u16,
    local_n: u16,
    n_nodes: usize,
    model: InterconnectModel,
    /// Operation counters, including modeled cluster time.
    pub counters: ClusterCounters,
    obs: Option<Arc<ClusterObs>>,
    /// Exchange batching: defer dswap undos across runs of compatible ops
    /// (qsim-style global gate scheduling). Off by default — eager mode is
    /// the counted baseline every existing estimator test is pinned to.
    batching: bool,
    layout: LayoutTracker,
}

/// The in-process distributed state: node slices in this process, node
/// work on one thread per node.
pub type DistributedStateVector = Distributed<InProcess>;

impl Distributed<InProcess> {
    /// `|0…0⟩` over `n_nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] unless `n_nodes` is a power of two and at
    /// least 3 qubits remain node-local.
    pub fn zero(
        n_qubits: u16,
        n_nodes: usize,
        model: InterconnectModel,
    ) -> Result<Self, ClusterError> {
        Self::on(&n_nodes, n_qubits, model)
    }
}

impl<T: Spawn> Distributed<T> {
    /// `|0…0⟩` across the nodes of a launched `group`.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] unless the group size is a power of two with at
    /// least 3 qubits node-local.
    ///
    /// # Panics
    ///
    /// On transport faults.
    pub fn zero(
        group: T::Group,
        n_qubits: u16,
        model: InterconnectModel,
    ) -> Result<Self, ClusterError> {
        Self::on(&group, n_qubits, model)
    }
}

impl<T: Transport> Distributed<T> {
    /// `|0…0⟩` over the nodes of `group`.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] unless the node count is a power of two and at
    /// least 3 qubits remain node-local.
    pub fn on(
        group: &T::Group,
        n_qubits: u16,
        model: InterconnectModel,
    ) -> Result<Self, ClusterError> {
        let n_nodes = T::group_nodes(group);
        check_layout(n_qubits, n_nodes)?;
        let local_n = n_qubits - n_nodes.trailing_zeros() as u16;
        Ok(Distributed {
            transport: T::alloc(group, 1usize << local_n),
            n_qubits,
            local_n,
            n_nodes,
            model,
            counters: ClusterCounters::default(),
            obs: None,
            batching: false,
            layout: LayoutTracker::new(n_qubits, local_n),
        })
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Mirror this state's communication and gate activity into `obs` (in
    /// addition to the per-state [`ClusterCounters`], which always run).
    pub fn observe(&mut self, obs: Arc<ClusterObs>) {
        self.obs = Some(obs);
    }

    /// Enable/disable exchange batching (deferred dswap undos). The final
    /// amplitudes and `Counts` are bit-identical either way — only the
    /// exchange schedule (and therefore the exchange counters) changes.
    ///
    /// # Panics
    ///
    /// Panics if swaps are currently deferred (call
    /// [`QuantumState::sync_layout`] first).
    pub fn set_exchange_batching(&mut self, on: bool) {
        assert!(
            self.layout.is_canonical(),
            "cannot toggle batching with deferred swaps active"
        );
        self.batching = on;
    }

    /// Whether exchange batching is enabled.
    pub fn exchange_batching(&self) -> bool {
        self.batching
    }

    /// Amplitudes held per node.
    pub fn slice_len(&self) -> usize {
        1usize << self.local_n
    }

    /// Total amplitude bytes across the node group (`2^n · 16`).
    pub fn bytes(&self) -> usize {
        self.slice_len() * self.n_nodes * std::mem::size_of::<C64>()
    }

    /// Gather the full state onto "one node" (for verification / sampling
    /// at small scale).
    ///
    /// # Panics
    ///
    /// On transport faults.
    pub fn gather(&self) -> StateVector {
        debug_assert!(self.layout.is_canonical(), "gather on deferred layout");
        let mut amps = Vec::with_capacity(1usize << self.n_qubits);
        let mut link = self.transport.link();
        for rank in 0..self.n_nodes {
            link.fetch(rank, &mut amps);
        }
        StateVector::from_amplitudes(amps)
    }

    /// Squared 2-norm: per-node partial sums folded in node order.
    pub fn norm_sqr(&self) -> f64 {
        norm(&mut self.transport.link(), self.n_nodes)
    }

    /// Reset to `|0…0⟩` (counted as one compute pass; counters otherwise
    /// retained).
    pub fn reset_zero(&mut self) {
        // The amplitudes are overwritten wholesale: deferred swaps are
        // forgotten, not undone.
        self.layout.reset();
        self.transport.link_mut().reset();
        self.charge_compute_pass();
    }

    /// Overwrite with `src`'s amplitudes (node-local memcpy on every node;
    /// this is TQSim's intermediate-state copy).
    ///
    /// # Panics
    ///
    /// Panics if layouts differ, on transport faults, or on an injected
    /// `cluster.state_copy` fault.
    pub fn copy_from(&mut self, src: &Self) {
        self.copy_apply(src, &[]);
    }

    /// Overwrite with `src`'s amplitudes **and** apply the child plan's
    /// head window in the same node visit (cross-boundary fusion).
    /// Counter-for-counter identical to [`Distributed::copy_from`]
    /// followed by applying the window op by op.
    ///
    /// Falls back to exactly that sequence when the window touches a
    /// node-selecting qubit (dswaps cannot ride a copy).
    ///
    /// # Panics
    ///
    /// Panics if layouts differ, on transport faults, or on injected
    /// `cluster.state_copy` / `plan.boundary` faults.
    pub fn copy_from_apply(&mut self, src: &Self, head: &[FusedOp]) {
        if head.is_empty() || !self.window_is_local(head) {
            self.copy_from(src);
            if !head.is_empty() {
                // `apply_window` hits the plan.boundary failpoint itself, so
                // both paths trigger it exactly once per fused copy.
                apply_window(self, head);
            }
            return;
        }
        boundary_failpoint();
        self.copy_apply(src, head);
        self.charge_window(head);
    }

    /// The copy both seams share: `state_copy` failpoint, slice copy with
    /// `head` riding along, one state copy and one compute pass.
    fn copy_apply(&mut self, src: &Self, head: &[FusedOp]) {
        assert_eq!(self.n_qubits, src.n_qubits, "width mismatch");
        assert_eq!(self.n_nodes, src.n_nodes, "node-count mismatch");
        failpoint("cluster.state_copy");
        // Sources are always post-replay states in canonical layout; the
        // destination's own deferred swaps (if any) are overwritten.
        debug_assert!(src.layout.is_canonical(), "copy from non-canonical state");
        self.layout.reset();
        self.transport.copy_apply(&src.transport, head);
        self.counters.state_copies += 1;
        if let Some(obs) = &self.obs {
            obs.state_copies.inc();
        }
        self.charge_compute_pass();
    }

    /// Sample one outcome given a uniform draw, walking the cumulative
    /// distribution amplitude by amplitude in global index order — the
    /// **same accumulation order** as [`StateVector::sample_with`], so a
    /// draw lands on the identical basis state on every backend
    /// (floating-point addition is non-associative; a per-node pre-summed
    /// walk would diverge on edge draws).
    pub fn sample_with(&self, u: f64) -> u64 {
        debug_assert!(self.layout.is_canonical(), "sampling on deferred layout");
        let mut link = self.transport.link();
        let mut acc = 0.0f64;
        for rank in 0..self.n_nodes {
            match link.pick(rank, u, acc) {
                Ok(hit) => return hit,
                Err(sum) => acc = sum,
            }
        }
        // Over-range draw on a slightly sub-normalised state: last basis
        // state, exactly like the single-node walk.
        (1u64 << self.n_qubits) - 1
    }

    /// Sample one outcome per uniform draw in `us`, walking the cumulative
    /// distribution **once**, chained rank to rank.
    ///
    /// Mirrors [`StateVector::sample_many`] draw for draw — the draws are
    /// sorted internally, `out[i]` is the outcome for `us[i]` in original
    /// order, and the CDF is accumulated in global index order with the
    /// same addition sequence, so oversampled leaves stay bit-identical
    /// across backends.
    pub fn sample_many(&self, us: &[f64]) -> Vec<u64> {
        debug_assert!(self.layout.is_canonical(), "sampling on deferred layout");
        if us.is_empty() {
            return Vec::new();
        }
        let total = 1u64 << self.n_qubits;
        let mut link = self.transport.link();
        sorted_walk(us, self.n_nodes, |rank, pending, at| {
            link.walk(rank, pending, at, total)
        })
        .0
    }

    /// Whether a fused window can run node-local at canonical positions:
    /// every dense op (and passthrough gate) must sit below the node
    /// boundary — diagonal runs read node bits and never disqualify.
    fn window_is_local(&self, window: &[FusedOp]) -> bool {
        window_span(window).is_none_or(|s| s < self.local_n)
    }

    /// Charge a window that rode a copy or a sampling walk exactly as
    /// applying it op by op would have.
    fn charge_window(&mut self, window: &[FusedOp]) {
        for _ in window {
            self.note_local_gate();
            self.charge_compute_pass();
        }
    }

    /// Count one communication-free gate (per-state and, when observed,
    /// the registry total).
    fn note_local_gate(&mut self) {
        self.counters.local_gates += 1;
        if let Some(obs) = &self.obs {
            obs.local_gates.inc();
        }
    }

    /// Count one gate that needed a global→local remap.
    fn note_remapped_gate(&mut self) {
        self.counters.global_gates += 1;
        if let Some(obs) = &self.obs {
            obs.remapped_gates.inc();
        }
    }

    fn charge_compute_pass(&mut self) {
        let slice_len = self.slice_len() as u64;
        self.counters.amp_ops += slice_len * self.n_nodes as u64;
        self.counters.simulated_seconds += self.model.compute_time(slice_len);
    }

    /// Apply one op on every node and charge the compute pass.
    fn apply_everywhere(&mut self, op: FusedOp) {
        self.transport.link_mut().apply(std::slice::from_ref(&op));
        self.charge_compute_pass();
    }

    /// Count and price one exchange round, timed from `start`, in which
    /// every node sends `bytes_per_node`.
    fn note_exchange(&mut self, bytes_per_node: u64, start: Instant) {
        let measured = start.elapsed().as_secs_f64();
        let simulated = self.model.exchange_time(bytes_per_node);
        let total_bytes = bytes_per_node * self.n_nodes as u64;
        self.counters.exchanges += 1;
        self.counters.bytes_exchanged += total_bytes;
        self.counters.simulated_seconds += simulated;
        self.counters.measured_exchange_seconds += measured;
        if let Some(obs) = &self.obs {
            obs.note_exchange(total_bytes, measured, simulated);
        }
    }

    /// Distributed swap of global bit `gb` (0-based within the top `g`)
    /// with local qubit `lq`: pairwise half-slice exchange.
    fn dswap(&mut self, gb: u16, lq: u16) {
        debug_assert!(gb < self.n_qubits - self.local_n && lq < self.local_n);
        // Failpoint modelling an interconnect fault (dropped exchange,
        // slow link via the delay action).
        failpoint("cluster.exchange");
        let start = Instant::now();
        self.transport.link_mut().dswap(gb, lq);
        self.note_exchange((self.slice_len() / 2 * 16) as u64, start);
    }

    /// Apply a dense op on logical operands `qs`: the [`LayoutTracker`]
    /// decides which dswaps to run, `op` builds the op at the physical
    /// positions it returns, and eager mode (batching off) undoes the
    /// swaps straight away. Both modes issue the same individual dswaps
    /// in the same order — batching only elides swap-back/swap-down pairs
    /// between compatible ops — and the kernels' per-amplitude arithmetic
    /// is position-independent, so the amplitudes are bit-identical.
    fn apply_dense(&mut self, qs: &[u16], op: impl FnOnce(&[u16]) -> FusedOp) {
        assert!(qs.iter().all(|&q| q < self.n_qubits), "qubit out of range");
        assert!(
            qs.len() <= usize::from(self.local_n),
            "{k}-qubit fusion clusters need >= {k} node-local qubits \
             (n_qubits >= log2(nodes) + {k}); lower max_fuse_qubits",
            k = qs.len()
        );
        let logically_local = qs.iter().all(|&q| q < self.local_n);
        let phys = match self.layout.decide_dense(qs) {
            DensePlan::InPlace { phys } => phys,
            DensePlan::FlushThenLocal { undo } => {
                for &(gb, dst) in &undo {
                    self.dswap(gb, dst);
                }
                qs.to_vec()
            }
            DensePlan::FlushThenRemap { undo, swaps, phys } => {
                for &(gb, dst) in undo.iter().chain(swaps.iter()) {
                    self.dswap(gb, dst);
                }
                phys
            }
        };
        self.apply_everywhere(op(&phys));
        if logically_local {
            self.note_local_gate();
        } else {
            self.note_remapped_gate();
        }
        if !self.batching {
            self.flush_layout();
        }
    }

    /// Undo deferred swaps so the amplitude layout is canonical again.
    fn flush_layout(&mut self) {
        if !self.layout.is_canonical() {
            for (gb, dst) in self.layout.decide_sync() {
                self.dswap(gb, dst);
            }
        }
    }
}

/// `Σ |ψ|²`: per-rank partial sums folded in rank order.
fn norm(link: &mut impl Link, n_nodes: usize) -> f64 {
    (0..n_nodes).map(|rank| link.psum(rank)).sum()
}

/// The sorted-CDF walk shared by batched and fused sampling: sort the
/// draws, hand each rank in turn the still-unresolved ones and the cursor
/// the previous rank left (via `step`), and stop once every draw is
/// resolved. Returns the outcomes in the caller's draw order and the
/// number of ranks visited.
fn sorted_walk(
    us: &[f64],
    n_nodes: usize,
    mut step: impl FnMut(usize, &[f64], Option<Cursor>) -> (Vec<u64>, Cursor),
) -> (Vec<u64>, usize) {
    let mut order: Vec<usize> = (0..us.len()).collect();
    order.sort_by(|&i, &j| us[i].total_cmp(&us[j]));
    let sorted: Vec<f64> = order.iter().map(|&slot| us[slot]).collect();
    let mut out = vec![0u64; us.len()];
    let mut done = 0usize;
    let mut at = None;
    let mut visited = 0;
    while done < us.len() && visited < n_nodes {
        let (outcomes, cursor) = step(visited, &sorted[done..], at);
        for outcome in outcomes {
            out[order[done]] = outcome;
            done += 1;
        }
        at = Some(cursor);
        visited += 1;
    }
    debug_assert_eq!(done, us.len(), "walk chain under-consumed draws");
    (out, visited)
}

impl<T: Transport> QuantumState for Distributed<T> {
    fn n_qubits(&self) -> u16 {
        self.n_qubits
    }

    fn apply_gate(&mut self, gate: &Gate) {
        let kind = *gate.kind();
        self.apply_dense(gate.qubits(), |ps| {
            FusedOp::Passthrough(Gate::new(kind, ps))
        });
    }

    fn apply_mat2(&mut self, q: u16, m: &Mat2) {
        self.apply_dense(&[q], |ps| FusedOp::Unitary1 {
            q: ps[0],
            m: *m,
            src: None,
        });
    }

    fn apply_mat4(&mut self, q_hi: u16, q_lo: u16, m: &Mat4) {
        self.apply_dense(&[q_hi, q_lo], |ps| FusedOp::Unitary2 {
            q_hi: ps[0],
            q_lo: ps[1],
            m: *m,
            src: None,
        });
    }

    fn apply_mat8(&mut self, q2: u16, q1: u16, q0: u16, m: &Mat8) {
        self.apply_dense(&[q2, q1, q0], |ps| FusedOp::Unitary3 {
            q2: ps[0],
            q1: ps[1],
            q0: ps[2],
            m: Box::new(*m),
        });
    }

    fn apply_mat16(&mut self, qs: [u16; 4], m: &Mat16) {
        self.apply_dense(&qs, |ps| FusedOp::Unitary4 {
            qs: [ps[0], ps[1], ps[2], ps[3]],
            m: Box::new(m.clone()),
        });
    }

    fn apply_mat32(&mut self, qs: [u16; 5], m: &Mat32) {
        self.apply_dense(&qs, |ps| FusedOp::Unitary5 {
            qs: [ps[0], ps[1], ps[2], ps[3], ps[4]],
            m: Box::new(m.clone()),
        });
    }

    fn apply_diag_run(&mut self, run: &DiagRun) {
        // Diagonals never move amplitudes: each node sweeps its slice with
        // the slice's global base index — no communication even when the
        // run touches node-selecting (global) qubits. Under batching the
        // sweep reads qubit positions against the *canonical* index, so a
        // run touching any displaced qubit must flush first; runs on
        // undisturbed qubits apply through deferred swaps for free.
        if !(self
            .layout
            .is_identity_on(run.terms1().iter().map(|(q, _)| q))
            && self
                .layout
                .is_identity_on(run.terms2().iter().flat_map(|(a, b, _)| [a, b])))
        {
            self.flush_layout();
        }
        self.apply_everywhere(FusedOp::FusedDiag(run.clone()));
        self.note_local_gate();
    }

    fn marginal_one(&self, q: u16) -> f64 {
        assert!(q < self.n_qubits, "qubit out of range");
        debug_assert!(self.layout.is_canonical(), "marginal on deferred layout");
        let mut link = self.transport.link();
        if q >= self.local_n {
            // Node-selecting bit: whole-slice sums of the selected nodes,
            // folded in node order.
            let mask = 1usize << (q - self.local_n);
            (0..self.n_nodes)
                .filter(|rank| rank & mask != 0)
                .map(|rank| link.psum(rank))
                .sum()
        } else {
            // Local bit: one flat accumulator chained through the nodes in
            // order — the single-node one-pass sum, distributed.
            (0..self.n_nodes).fold(0.0, |acc, rank| link.msum(rank, q, acc))
        }
    }

    fn apply_diag1(&mut self, q: u16, d0: C64, d1: C64) {
        assert!(q < self.n_qubits, "qubit out of range");
        self.flush_layout();
        // A one-term run runs the specialised diagonal kernel on a local
        // qubit and scales whole slices on a node-selecting one.
        let mut run = DiagRun::new();
        run.push1(q, [d0, d1]);
        self.apply_everywhere(FusedOp::FusedDiag(run));
    }

    fn apply_antidiag1(&mut self, q: u16, a01: C64, a10: C64) {
        assert!(q < self.n_qubits, "qubit out of range");
        self.flush_layout();
        if q >= self.local_n {
            // The cross-node combine is an exchange round too: same
            // failpoint and accounting as a dswap, no compute pass.
            failpoint("cluster.exchange");
            let start = Instant::now();
            self.transport
                .link_mut()
                .antidiag_global(q - self.local_n, a01, a10);
            self.note_exchange((self.slice_len() * 16) as u64, start);
        } else {
            self.transport.link_mut().antidiag(q, a01, a10);
            self.charge_compute_pass();
        }
    }

    fn renormalize(&mut self) {
        self.flush_layout();
        {
            // One acquisition for the reduction and the scale it decides.
            let mut link = self.transport.link_mut();
            let n = norm(&mut link, self.n_nodes);
            assert!(n > 1e-300, "cannot normalise a zero state");
            link.scale(1.0 / n.sqrt());
        }
        self.charge_compute_pass();
        self.counters.simulated_seconds += self.model.allreduce_time(self.n_nodes);
    }

    fn norm_sqr(&self) -> f64 {
        Distributed::norm_sqr(self)
    }

    fn sample_with(&self, u: f64) -> u64 {
        Distributed::sample_with(self, u)
    }

    fn sample_many(&self, us: &[f64]) -> Vec<u64> {
        Distributed::sample_many(self, us)
    }

    /// Fused tail-window sampling: one chained walk in which each visited
    /// node applies the window to its slice and then walks the sorted CDF
    /// over it, so the tail never costs a separate pass. Nodes the walk
    /// never reaches apply the window afterwards, so the state still
    /// materialises identically everywhere.
    fn sample_fused(&mut self, window: &[FusedOp], us: &[f64]) -> Vec<u64> {
        if window.is_empty() {
            return self.sample_many(us);
        }
        if us.is_empty() || !self.layout.is_canonical() || !self.window_is_local(window) {
            // `apply_window` hits the plan.boundary failpoint itself, so
            // both paths trigger it exactly once per fused sample. A
            // boundary-straddling op may leave swaps deferred under
            // batching; the walk needs the canonical layout.
            apply_window(self, window);
            self.flush_layout();
            return self.sample_many(us);
        }
        boundary_failpoint();
        self.charge_window(window);
        let total = 1u64 << self.n_qubits;
        let mut link = self.transport.link_mut();
        let (out, visited) = sorted_walk(us, self.n_nodes, |rank, pending, at| {
            link.fwalk(rank, window, pending, at, total)
        });
        for rank in visited..self.n_nodes {
            link.apply_rank(rank, window);
        }
        out
    }

    fn sync_layout(&mut self) {
        self.flush_layout();
    }
}

impl<T: Transport> fmt::Debug for Distributed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Distributed[{} qubits over {} nodes]",
            self.n_qubits, self.n_nodes
        )
    }
}

/// The distributed execution backend: a node-group descriptor (the
/// transport's group and the interconnect model) implementing
/// [`PooledBackend`] with [`Distributed`] states, so
/// `tqsim_statevec::StatePool`, the `tqsim-engine` pooled tree executor
/// and `tqsim`'s serial tree walk all run on the cluster unchanged.
/// Parent→child state copies stay node-local slice copies, carrying the
/// child's head window when it is node-local — intermediate states never
/// round-trip through a dense global vector.
///
/// Construction does not validate a register width (the backend is
/// width-agnostic until a state is allocated); call
/// [`DistributedBackend::validate`] — or check
/// [`DistributedBackend::supports`] — before pooling states of a given
/// width.
pub struct DistributedBackend<T: Transport> {
    group: T::Group,
    model: InterconnectModel,
    obs: Option<Arc<ClusterObs>>,
    batching: bool,
}

/// The in-process cluster backend (simulated nodes, one thread each).
pub type ClusterBackend = DistributedBackend<InProcess>;

impl<T: Transport> Clone for DistributedBackend<T> {
    fn clone(&self) -> Self {
        DistributedBackend {
            group: self.group.clone(),
            model: self.model,
            obs: self.obs.clone(),
            batching: self.batching,
        }
    }
}

/// Backends compare by topology (node count, interconnect model, batching
/// mode); whether one is observed does not change what it computes, and
/// two live worker groups of the same size compute the same thing.
impl<T: Transport> PartialEq for DistributedBackend<T> {
    fn eq(&self, other: &Self) -> bool {
        self.n_nodes() == other.n_nodes()
            && self.model == other.model
            && self.batching == other.batching
    }
}

impl<T: Transport> fmt::Debug for DistributedBackend<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistributedBackend")
            .field("n_nodes", &self.n_nodes())
            .field("model", &self.model)
            .field("batching", &self.batching)
            .finish()
    }
}

impl DistributedBackend<InProcess> {
    /// A backend slicing every state across `n_nodes` simulated nodes,
    /// pricing communication with `model`.
    ///
    /// # Panics
    ///
    /// Panics unless `n_nodes` is a power of two ≥ 1 (width-dependent
    /// validation is deferred to [`DistributedBackend::validate`]).
    pub fn new(n_nodes: usize, model: InterconnectModel) -> Self {
        assert!(
            n_nodes >= 1 && n_nodes.is_power_of_two(),
            "node count {n_nodes} is not a power of two >= 1"
        );
        Self::on(n_nodes, model)
    }
}

impl<T: Spawn> DistributedBackend<T> {
    /// Launch an `n_nodes` node group and wrap it as a backend pricing
    /// communication with the commodity-cluster model (use
    /// [`DistributedBackend::on`] with [`Spawn::spawn`] for another model).
    ///
    /// # Errors
    ///
    /// Launch/handshake IO failures.
    pub fn spawn(n_nodes: usize) -> io::Result<Self> {
        Ok(Self::on(
            T::spawn(n_nodes)?,
            InterconnectModel::commodity_cluster(),
        ))
    }

    /// The live node group, shared with every clone of this backend (for
    /// health checks and chaos tests).
    pub fn cluster(&self) -> &T::Group {
        &self.group
    }
}

impl<T: Transport> DistributedBackend<T> {
    /// A backend allocating every state on `group`.
    pub fn on(group: T::Group, model: InterconnectModel) -> Self {
        DistributedBackend {
            group,
            model,
            obs: None,
            batching: false,
        }
    }

    /// Mirror every allocated state's communication and gate activity into
    /// `obs` (see [`ClusterObs::register`]).
    #[must_use]
    pub fn observed(mut self, obs: Arc<ClusterObs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Enable exchange batching (deferred dswap undos, see
    /// [`Distributed::set_exchange_batching`]) on every state this backend
    /// allocates.
    #[must_use]
    pub fn exchange_batching(mut self, on: bool) -> Self {
        self.batching = on;
        self
    }

    /// Number of nodes states are sliced across.
    pub fn n_nodes(&self) -> usize {
        T::group_nodes(&self.group)
    }

    /// The interconnect model communication is priced with.
    pub fn model(&self) -> InterconnectModel {
        self.model
    }

    /// Check that `n_qubits`-wide states can be sliced across this node
    /// group (≥ 3 qubits must stay node-local).
    ///
    /// # Errors
    ///
    /// The same conditions as [`Distributed::on`].
    pub fn validate(&self, n_qubits: u16) -> Result<(), ClusterError> {
        check_layout(n_qubits, self.n_nodes())
    }

    /// Whether `n_qubits`-wide states fit this node group (the infallible
    /// form of [`DistributedBackend::validate`], for placement policies).
    pub fn supports(&self, n_qubits: u16) -> bool {
        self.validate(n_qubits).is_ok()
    }

    /// Whether `n_qubits`-wide states fit this node group with at least
    /// `window` qubits node-local, so every dense op of a plan fused into
    /// `window`-qubit clusters runs on one node.
    pub fn supports_window(&self, n_qubits: u16, window: usize) -> bool {
        let global = self.n_nodes().trailing_zeros() as usize;
        self.supports(n_qubits) && usize::from(n_qubits) >= global + window
    }
}

impl<T: Transport> PooledBackend for DistributedBackend<T> {
    type State = Distributed<T>;

    fn supports(&self, n_qubits: u16) -> bool {
        DistributedBackend::supports(self, n_qubits)
    }

    fn allocate(&self, n_qubits: u16) -> Distributed<T> {
        let mut state = Distributed::on(&self.group, n_qubits, self.model).unwrap_or_else(|err| {
            panic!("executors must gate on PooledBackend::supports before allocating: {err}")
        });
        if let Some(obs) = &self.obs {
            state.observe(Arc::clone(obs));
        }
        state.set_exchange_batching(self.batching);
        state
    }

    fn reset_zero(&self, state: &mut Distributed<T>) {
        state.reset_zero();
    }

    fn copy_into(&self, dst: &mut Distributed<T>, src: &Distributed<T>) {
        dst.copy_from(src);
    }

    fn copy_into_apply(&self, dst: &mut Distributed<T>, src: &Distributed<T>, head: &[FusedOp]) {
        dst.copy_from_apply(src, head);
    }

    fn state_bytes(&self, state: &Distributed<T>) -> usize {
        state.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::generators;
    use tqsim_circuit::math::c64;
    use tqsim_circuit::{Circuit, GateKind};

    fn assert_states_match(dsv: &DistributedStateVector, sv: &StateVector) {
        let gathered = dsv.gather();
        for (i, (a, b)) in gathered
            .amplitudes()
            .iter()
            .zip(sv.amplitudes())
            .enumerate()
        {
            assert!((a - b).norm() < 1e-10, "amplitude {i}: {a} vs {b}");
        }
    }

    #[test]
    fn construction_validation() {
        let m = InterconnectModel::commodity_cluster();
        assert!(DistributedStateVector::zero(8, 3, m).is_err());
        assert!(
            DistributedStateVector::zero(4, 4, m).is_err(),
            "only 2 local qubits"
        );
        assert!(DistributedStateVector::zero(8, 4, m).is_ok());
    }

    #[test]
    fn local_gates_match_single_node() {
        let m = InterconnectModel::commodity_cluster();
        let mut c = Circuit::new(8);
        c.h(0).cx(0, 1).t(2).cx(1, 2).ry(0.7, 3).ccx(0, 1, 2);
        let mut sv = StateVector::zero(8);
        sv.apply_circuit(&c);
        let mut dsv = DistributedStateVector::zero(8, 4, m).unwrap();
        for g in &c {
            dsv.apply_gate(g);
        }
        assert_states_match(&dsv, &sv);
        assert_eq!(dsv.counters.global_gates, 0);
        assert_eq!(
            dsv.counters.exchanges, 0,
            "all-local circuit must not communicate"
        );
    }

    #[test]
    fn global_gates_match_single_node() {
        let m = InterconnectModel::commodity_cluster();
        // Gates deliberately touching the top (global) qubits.
        let mut c = Circuit::new(8);
        c.h(7)
            .cx(7, 0)
            .h(6)
            .cx(6, 7)
            .ccx(7, 6, 5)
            .swap(5, 7)
            .rz(0.3, 6);
        let mut sv = StateVector::zero(8);
        sv.apply_circuit(&c);
        let mut dsv = DistributedStateVector::zero(8, 8, m).unwrap();
        for g in &c {
            dsv.apply_gate(g);
        }
        assert_states_match(&dsv, &sv);
        assert!(dsv.counters.global_gates > 0);
        assert!(dsv.counters.exchanges > 0);
        assert!(dsv.counters.bytes_exchanged > 0);
    }

    /// An observed backend mirrors every per-state counter movement into
    /// the shared registry totals, and observation never changes the math.
    #[test]
    fn observed_backend_mirrors_state_counters() {
        let m = InterconnectModel::commodity_cluster();
        let registry = Registry::new();
        let obs = ClusterObs::register(&registry);
        let backend = ClusterBackend::new(4, m).observed(Arc::clone(&obs));
        let circuit = generators::qft(8);

        let mut observed = backend.allocate(8);
        let mut plain = DistributedStateVector::zero(8, 4, m).unwrap();
        for g in &circuit {
            observed.apply_gate(g);
            plain.apply_gate(g);
        }
        let mut scratch = backend.allocate(8);
        scratch.copy_from(&observed);
        assert_states_match(&scratch, &plain.gather());

        assert_eq!(obs.local_gates.get(), observed.counters.local_gates);
        assert_eq!(obs.remapped_gates.get(), observed.counters.global_gates);
        assert_eq!(obs.exchanges.get(), observed.counters.exchanges);
        assert_eq!(obs.bytes_exchanged.get(), observed.counters.bytes_exchanged);
        assert_eq!(obs.state_copies.get(), 1, "one copy_from above");
        assert!(obs.exchanges.get() > 0, "QFT(8) on 4 nodes communicates");
        // Observation is a mirror, not a behaviour change.
        assert_eq!(observed.counters, plain.counters);
    }

    #[test]
    fn full_benchmarks_match_single_node() {
        let m = InterconnectModel::commodity_cluster();
        for circuit in [
            generators::qft(7),
            generators::bv(7),
            generators::qsc(7, 40, 3),
        ] {
            let mut sv = StateVector::zero(7);
            sv.apply_circuit(&circuit);
            for nodes in [1usize, 2, 4, 8] {
                if let Ok(mut dsv) = DistributedStateVector::zero(7, nodes, m) {
                    for g in &circuit {
                        dsv.apply_gate(g);
                    }
                    assert_states_match(&dsv, &sv);
                }
            }
        }
    }

    #[test]
    fn marginal_and_diag_on_global_qubit() {
        let m = InterconnectModel::commodity_cluster();
        let mut dsv = DistributedStateVector::zero(6, 4, m).unwrap();
        // Put qubit 5 (global) into |+>.
        dsv.apply_gate(&Gate::new(GateKind::H, &[5]));
        assert!((QuantumState::marginal_one(&dsv, 5) - 0.5).abs() < 1e-12);
        // Project onto |1> via anti/diag Kraus mechanics.
        dsv.apply_diag1(5, c64(0.0, 0.0), c64(1.0, 0.0));
        dsv.renormalize();
        assert!((QuantumState::marginal_one(&dsv, 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn antidiag_on_global_qubit_matches_single_node() {
        let m = InterconnectModel::commodity_cluster();
        let mut c = Circuit::new(6);
        c.h(5).ry(0.9, 4).cx(5, 0);
        let mut sv = StateVector::zero(6);
        sv.apply_circuit(&c);
        let mut dsv = DistributedStateVector::zero(6, 8, m).unwrap();
        for g in &c {
            dsv.apply_gate(g);
        }
        sv.apply_antidiag1(5, c64(0.5, 0.0), c64(0.25, 0.0));
        dsv.apply_antidiag1(5, c64(0.5, 0.0), c64(0.25, 0.0));
        assert_states_match(&dsv, &sv);
    }

    #[test]
    fn sampling_matches_gathered_state() {
        let m = InterconnectModel::commodity_cluster();
        let c = generators::qft(6);
        let mut dsv = DistributedStateVector::zero(6, 4, m).unwrap();
        for g in &c {
            dsv.apply_gate(g);
        }
        let gathered = dsv.gather();
        for u in [0.01, 0.25, 0.5, 0.75, 0.99] {
            assert_eq!(dsv.sample_with(u), gathered.sample_with(u), "u={u}");
        }
    }

    #[test]
    fn sample_many_matches_sample_with_and_single_node() {
        let m = InterconnectModel::commodity_cluster();
        let c = generators::qft(6);
        let mut dsv = DistributedStateVector::zero(6, 4, m).unwrap();
        for g in &c {
            dsv.apply_gate(g);
        }
        let us = [0.93, 0.02, 0.5, 0.500001, 0.02, 0.999_999_9, 0.0];
        let batch = dsv.sample_many(&us);
        for (u, got) in us.iter().zip(&batch) {
            assert_eq!(*got, dsv.sample_with(*u), "u={u}");
        }
        // Draw-for-draw identical to the single-node batched walk.
        assert_eq!(batch, dsv.gather().sample_many(&us));
        assert!(dsv.sample_many(&[]).is_empty());
    }

    #[test]
    fn fused_ops_match_remapped_gate_dispatch() {
        use tqsim_circuit::math::Mat2;
        let m = InterconnectModel::commodity_cluster();
        let mut prep = Circuit::new(6);
        prep.h(0).cx(0, 3).ry(0.7, 5).cz(1, 4);
        let mat2 = GateKind::H.matrix1().unwrap();
        let mat4 = GateKind::Cx.matrix2().unwrap();
        let folded2 = mat2.mul(&Mat2::identity());
        let mut sv = StateVector::zero(6);
        sv.apply_circuit(&prep);
        let mut dsv = DistributedStateVector::zero(6, 4, m).unwrap();
        for g in &prep {
            dsv.apply_gate(g);
        }
        // Local and global Mat2 / Mat4, including a cross-boundary pair.
        for q in [1u16, 5] {
            QuantumState::apply_mat2(&mut sv, q, &folded2);
            QuantumState::apply_mat2(&mut dsv, q, &folded2);
        }
        for (hi, lo) in [(0u16, 1u16), (4, 0), (5, 4)] {
            QuantumState::apply_mat4(&mut sv, hi, lo, &mat4);
            QuantumState::apply_mat4(&mut dsv, hi, lo, &mat4);
        }
        assert_states_match(&dsv, &sv);
        assert!(dsv.counters.exchanges > 0, "global mat ops must remap");
    }

    #[test]
    fn diag_runs_never_communicate() {
        let m = InterconnectModel::commodity_cluster();
        let mut prep = Circuit::new(6);
        prep.h(0).h(5).cx(0, 4);
        let mut sv = StateVector::zero(6);
        sv.apply_circuit(&prep);
        let mut dsv = DistributedStateVector::zero(6, 4, m).unwrap();
        for g in &prep {
            dsv.apply_gate(g);
        }
        let before = dsv.counters.exchanges;
        // A run over local and global qubits, incl. a cross-boundary pair.
        let mut run = tqsim_statevec::DiagRun::new();
        run.push1(1, GateKind::T.diag1().unwrap());
        run.push1(5, GateKind::S.diag1().unwrap());
        run.push2(4, 0, GateKind::Cz.diag2().unwrap());
        QuantumState::apply_diag_run(&mut sv, &run);
        QuantumState::apply_diag_run(&mut dsv, &run);
        assert_states_match(&dsv, &sv);
        assert_eq!(
            dsv.counters.exchanges, before,
            "diagonal sweeps must stay node-local"
        );
    }

    #[test]
    fn copy_from_counts_copies() {
        let m = InterconnectModel::commodity_cluster();
        let mut a = DistributedStateVector::zero(6, 2, m).unwrap();
        a.apply_gate(&Gate::new(GateKind::H, &[0]));
        let mut b = DistributedStateVector::zero(6, 2, m).unwrap();
        b.copy_from(&a);
        assert_eq!(b.counters.state_copies, 1);
        assert_states_match(&b, &a.gather());
    }

    /// Exchange batching elides swap-back/swap-down pairs but performs the
    /// same per-gate arithmetic at the same physical positions, so the
    /// final amplitudes are **bit**-identical to the eager run — and the
    /// boundary-straddling ladder pays far fewer exchanges.
    #[test]
    fn batched_execution_is_bit_identical_with_fewer_exchanges() {
        let m = InterconnectModel::commodity_cluster();
        let mut c = Circuit::new(8);
        // Three rounds of a ladder sharing global qubit 7, each round ended
        // by a conflicting access to the scratch position (local qubit 5).
        for _ in 0..3 {
            for lq in 0..4u16 {
                c.cx(7, lq);
            }
            c.h(5);
        }
        let mut eager = DistributedStateVector::zero(8, 4, m).unwrap();
        let mut batched = DistributedStateVector::zero(8, 4, m).unwrap();
        batched.set_exchange_batching(true);
        for g in &c {
            eager.apply_gate(g);
            batched.apply_gate(g);
        }
        QuantumState::sync_layout(&mut batched);
        let (a, b) = (eager.gather(), batched.gather());
        assert_eq!(a.amplitudes(), b.amplitudes(), "batching changed the math");
        assert!(
            batched.counters.exchanges * 2 <= eager.counters.exchanges,
            "batching saved too little: {} vs {} exchanges",
            batched.counters.exchanges,
            eager.counters.exchanges
        );
        // Layout is canonical again, so per-gate totals agree.
        assert_eq!(
            eager.counters.local_gates + eager.counters.global_gates,
            batched.counters.local_gates + batched.counters.global_gates
        );
    }

    /// Diagonal sweeps on qubits untouched by the deferred permutation
    /// apply in place; a sweep on a displaced qubit forces the flush.
    #[test]
    fn batched_diag_runs_flush_only_on_conflict() {
        let m = InterconnectModel::commodity_cluster();
        let mut dsv = DistributedStateVector::zero(8, 4, m).unwrap();
        dsv.set_exchange_batching(true);
        dsv.apply_gate(&Gate::new(GateKind::H, &[7]));
        dsv.apply_gate(&Gate::new(GateKind::Cx, &[7, 0])); // defers q7 ↔ 5
        let after_remap = dsv.counters.exchanges;
        let mut run = tqsim_statevec::DiagRun::new();
        run.push1(1, GateKind::T.diag1().unwrap());
        QuantumState::apply_diag_run(&mut dsv, &run);
        assert_eq!(dsv.counters.exchanges, after_remap, "q1 is undisplaced");
        let mut conflict = tqsim_statevec::DiagRun::new();
        conflict.push1(7, GateKind::S.diag1().unwrap());
        QuantumState::apply_diag_run(&mut dsv, &conflict);
        assert!(dsv.counters.exchanges > after_remap, "q7 is displaced");
        // The flush restored canonical layout: queries are now safe.
        assert!((dsv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    /// The replay path (`CompiledCircuit` + noise) syncs the layout at every
    /// flush point, so batched and eager replays agree bit for bit even
    /// with state-dependent noise sampling in between.
    #[test]
    fn batched_backend_matches_eager_under_compiled_replay() {
        use rand::SeedableRng;
        use tqsim_statevec::OpCounts;
        let m = InterconnectModel::commodity_cluster();
        let circuit = generators::qsc(8, 30, 7);
        let noise = tqsim_noise::fig16_models().pop().unwrap();
        let compiled = noise.compile(&circuit);
        let eager_backend = ClusterBackend::new(4, m);
        let batched_backend = ClusterBackend::new(4, m).exchange_batching(true);
        let mut eager = eager_backend.allocate(8);
        let mut batched = batched_backend.allocate(8);
        assert!(batched.exchange_batching() && !eager.exchange_batching());
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(11);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(11);
        let mut ops_a = OpCounts::new();
        let mut ops_b = OpCounts::new();
        compiled.replay(&mut eager, &mut ops_a, |gate, ctx| {
            noise.apply_after_gate_deferred(gate, ctx, &mut rng_a)
        });
        compiled.replay(&mut batched, &mut ops_b, |gate, ctx| {
            noise.apply_after_gate_deferred(gate, ctx, &mut rng_b)
        });
        assert_eq!(ops_a.noise_ops, ops_b.noise_ops);
        let (a, b) = (eager.gather(), batched.gather());
        assert_eq!(a.amplitudes(), b.amplitudes());
        assert!(batched.counters.exchanges <= eager.counters.exchanges);
    }

    #[test]
    fn noise_channels_work_on_distributed_state() {
        use rand::SeedableRng;
        let m = InterconnectModel::commodity_cluster();
        let noise = tqsim_noise::fig16_models().pop().unwrap(); // ALL
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut dsv = DistributedStateVector::zero(6, 4, m).unwrap();
        let c = generators::qft(6);
        for g in &c {
            dsv.apply_gate(g);
            noise.apply_after_gate(&mut dsv, g, &mut rng);
        }
        assert!((dsv.norm_sqr() - 1.0).abs() < 1e-9);
    }
}
