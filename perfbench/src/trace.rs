//! Outside-in tracing: a [`PooledBackend`]/[`QuantumState`] wrapper that
//! times every call the executors make into a backend, without touching
//! the program under test.
//!
//! Every trait method is forwarded to the wrapped backend, the defaulted
//! ones included (`supports`, `copy_into_apply`, `sample_many`,
//! `sample_fused`, `sync_layout`). A wrapper that left a default in place
//! would silently swap a backend's fused override for the trait's
//! unfused fallback and so measure a different program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tqsim_circuit::math::{Mat16, Mat2, Mat32, Mat4, Mat8, C64};
use tqsim_circuit::{Gate, GateKind};
use tqsim_statevec::{DiagRun, FusedOp, PooledBackend, QuantumState};

/// What a timed backend call did, one ledger row each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Dense 1-qubit kernel.
    Mat2,
    /// Dense 2-qubit kernel.
    Mat4,
    /// Dense 3-qubit cluster.
    Mat8,
    /// Dense 4-qubit cluster.
    Mat16,
    /// Dense 5-qubit cluster.
    Mat32,
    /// Coalesced diagonal run.
    DiagRun,
    /// A circuit gate dispatched through the backend's gate path.
    Gate,
    /// Noise work on the state: Pauli branches dispatched as gates,
    /// (anti-)diagonal Kraus branches, marginals, norms, renormalisation.
    Noise,
    /// Parent→child copy (with or without a fused head window).
    Copy,
    /// Leaf sampling (with or without a fused tail window).
    Sample,
    /// State allocation and reset.
    Alloc,
    /// Layout restoration on distributed backends.
    Sync,
}

impl Kind {
    /// Every kind, in ledger order.
    pub const ALL: [Kind; 12] = [
        Kind::Mat2,
        Kind::Mat4,
        Kind::Mat8,
        Kind::Mat16,
        Kind::Mat32,
        Kind::DiagRun,
        Kind::Gate,
        Kind::Noise,
        Kind::Copy,
        Kind::Sample,
        Kind::Alloc,
        Kind::Sync,
    ];

    /// Metric-name stem of this kind.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Mat2 => "mat2",
            Kind::Mat4 => "mat4",
            Kind::Mat8 => "mat8",
            Kind::Mat16 => "mat16",
            Kind::Mat32 => "mat32",
            Kind::DiagRun => "diag_run",
            Kind::Gate => "gate",
            Kind::Noise => "noise",
            Kind::Copy => "copy",
            Kind::Sample => "sample",
            Kind::Alloc => "alloc",
            Kind::Sync => "sync",
        }
    }
}

/// Totals of one ledger row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Row {
    /// Wall-clock nanoseconds inside the calls.
    pub ns: u64,
    /// Number of calls.
    pub calls: u64,
    /// Amplitudes the calls swept (`2^n` per call).
    pub amps: u64,
}

#[derive(Default)]
struct AtomicRow {
    ns: AtomicU64,
    calls: AtomicU64,
    amps: AtomicU64,
}

/// Per-kind call totals, shared by a traced backend and all its states.
#[derive(Default)]
pub struct Ledger {
    rows: [AtomicRow; Kind::ALL.len()],
}

impl Ledger {
    /// A fresh, shareable ledger.
    pub fn new() -> Arc<Ledger> {
        Arc::new(Ledger::default())
    }

    fn record(&self, kind: Kind, t0: Instant, n_qubits: u16) {
        let row = &self.rows[kind as usize];
        row.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        row.calls.fetch_add(1, Ordering::Relaxed);
        row.amps.fetch_add(1u64 << n_qubits, Ordering::Relaxed);
    }

    /// Current totals of `kind`.
    pub fn row(&self, kind: Kind) -> Row {
        let row = &self.rows[kind as usize];
        Row {
            ns: row.ns.load(Ordering::Relaxed),
            calls: row.calls.load(Ordering::Relaxed),
            amps: row.amps.load(Ordering::Relaxed),
        }
    }

    /// Nanoseconds summed over every kind.
    pub fn total_ns(&self) -> u64 {
        Kind::ALL.iter().map(|&k| self.row(k).ns).sum()
    }
}

/// Time `body` as one `kind` call on an `n_qubits`-wide state.
fn timed<T>(ledger: &Ledger, kind: Kind, n_qubits: u16, body: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = body();
    ledger.record(kind, t0, n_qubits);
    out
}

/// Pauli gates are what depolarizing noise branches dispatch; every other
/// gate reaching `apply_gate` is a circuit gate left unfused by the plan.
fn gate_kind(gate: &Gate) -> Kind {
    match gate.kind() {
        GateKind::X | GateKind::Y | GateKind::Z if gate.arity() == 1 => Kind::Noise,
        _ => Kind::Gate,
    }
}

/// A backend whose every call is timed into a [`Ledger`].
#[derive(Clone)]
pub struct Traced<B> {
    inner: B,
    ledger: Arc<Ledger>,
}

impl<B> Traced<B> {
    /// Wrap `inner`, recording into `ledger`.
    pub fn new(inner: B, ledger: Arc<Ledger>) -> Self {
        Traced { inner, ledger }
    }
}

/// A state allocated by a [`Traced`] backend.
pub struct TracedState<S> {
    inner: S,
    ledger: Arc<Ledger>,
}

impl<B: PooledBackend> PooledBackend for Traced<B> {
    type State = TracedState<B::State>;

    fn supports(&self, n_qubits: u16) -> bool {
        self.inner.supports(n_qubits)
    }

    fn allocate(&self, n_qubits: u16) -> Self::State {
        let inner = timed(&self.ledger, Kind::Alloc, n_qubits, || {
            self.inner.allocate(n_qubits)
        });
        TracedState {
            inner,
            ledger: Arc::clone(&self.ledger),
        }
    }

    fn reset_zero(&self, state: &mut Self::State) {
        let n = state.inner.n_qubits();
        timed(&self.ledger, Kind::Alloc, n, || {
            self.inner.reset_zero(&mut state.inner)
        });
    }

    fn copy_into(&self, dst: &mut Self::State, src: &Self::State) {
        let n = src.inner.n_qubits();
        timed(&self.ledger, Kind::Copy, n, || {
            self.inner.copy_into(&mut dst.inner, &src.inner)
        });
    }

    fn copy_into_apply(&self, dst: &mut Self::State, src: &Self::State, head: &[FusedOp]) {
        let n = src.inner.n_qubits();
        timed(&self.ledger, Kind::Copy, n, || {
            self.inner.copy_into_apply(&mut dst.inner, &src.inner, head)
        });
    }

    fn state_bytes(&self, state: &Self::State) -> usize {
        self.inner.state_bytes(&state.inner)
    }
}

impl<S: QuantumState> QuantumState for TracedState<S> {
    fn n_qubits(&self) -> u16 {
        self.inner.n_qubits()
    }

    fn apply_gate(&mut self, gate: &Gate) {
        let n = self.inner.n_qubits();
        timed(&self.ledger, gate_kind(gate), n, || {
            self.inner.apply_gate(gate)
        });
    }

    fn apply_mat2(&mut self, q: u16, m: &Mat2) {
        let n = self.inner.n_qubits();
        timed(&self.ledger, Kind::Mat2, n, || self.inner.apply_mat2(q, m));
    }

    fn apply_mat4(&mut self, q_hi: u16, q_lo: u16, m: &Mat4) {
        let n = self.inner.n_qubits();
        timed(&self.ledger, Kind::Mat4, n, || {
            self.inner.apply_mat4(q_hi, q_lo, m)
        });
    }

    fn apply_mat8(&mut self, q2: u16, q1: u16, q0: u16, m: &Mat8) {
        let n = self.inner.n_qubits();
        timed(&self.ledger, Kind::Mat8, n, || {
            self.inner.apply_mat8(q2, q1, q0, m)
        });
    }

    fn apply_mat16(&mut self, qs: [u16; 4], m: &Mat16) {
        let n = self.inner.n_qubits();
        timed(&self.ledger, Kind::Mat16, n, || {
            self.inner.apply_mat16(qs, m)
        });
    }

    fn apply_mat32(&mut self, qs: [u16; 5], m: &Mat32) {
        let n = self.inner.n_qubits();
        timed(&self.ledger, Kind::Mat32, n, || {
            self.inner.apply_mat32(qs, m)
        });
    }

    fn apply_diag_run(&mut self, run: &DiagRun) {
        let n = self.inner.n_qubits();
        timed(&self.ledger, Kind::DiagRun, n, || {
            self.inner.apply_diag_run(run)
        });
    }

    fn marginal_one(&self, q: u16) -> f64 {
        timed(&self.ledger, Kind::Noise, self.inner.n_qubits(), || {
            self.inner.marginal_one(q)
        })
    }

    fn apply_diag1(&mut self, q: u16, d0: C64, d1: C64) {
        let n = self.inner.n_qubits();
        timed(&self.ledger, Kind::Noise, n, || {
            self.inner.apply_diag1(q, d0, d1)
        });
    }

    fn apply_antidiag1(&mut self, q: u16, a01: C64, a10: C64) {
        let n = self.inner.n_qubits();
        timed(&self.ledger, Kind::Noise, n, || {
            self.inner.apply_antidiag1(q, a01, a10)
        });
    }

    fn norm_sqr(&self) -> f64 {
        timed(&self.ledger, Kind::Noise, self.inner.n_qubits(), || {
            self.inner.norm_sqr()
        })
    }

    fn renormalize(&mut self) {
        let n = self.inner.n_qubits();
        timed(&self.ledger, Kind::Noise, n, || self.inner.renormalize());
    }

    fn sample_with(&self, u: f64) -> u64 {
        timed(&self.ledger, Kind::Sample, self.inner.n_qubits(), || {
            self.inner.sample_with(u)
        })
    }

    fn sample_many(&self, us: &[f64]) -> Vec<u64> {
        timed(&self.ledger, Kind::Sample, self.inner.n_qubits(), || {
            self.inner.sample_many(us)
        })
    }

    fn sample_fused(&mut self, window: &[FusedOp], us: &[f64]) -> Vec<u64> {
        let n = self.inner.n_qubits();
        timed(&self.ledger, Kind::Sample, n, || {
            self.inner.sample_fused(window, us)
        })
    }

    fn sync_layout(&mut self) {
        let n = self.inner.n_qubits();
        timed(&self.ledger, Kind::Sync, n, || self.inner.sync_layout());
    }
}
