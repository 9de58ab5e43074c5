//! The transport seam under [`crate::Distributed`], and the in-process
//! transport.
//!
//! A transport owns the node slices of one state and runs a small verb
//! set on them; [`crate::Distributed`] owns every decision (layout,
//! counters, pricing, rank-ordered folds) and drives those verbs. The
//! verbs are:
//!
//! * per-rank reads, chained by the core into reductions: `psum`,
//!   `msum`, `pick`, `walk` ([`Link`]);
//! * multi-rank writes: apply a fused window on every rank, `dswap`, the
//!   cross-node antidiagonal combine, `scale`, `reset`, and the fused
//!   sampling link `fwalk` ([`LinkMut`]);
//! * lifecycle: alloc, copy(+apply), free ([`Transport`]), and `fetch`.
//!
//! A [`Link`] is *one acquisition* of every rank: the multi-process
//! transport holds its cluster lock for the lifetime of a link, so a
//! chained reduction, or a reduction followed by the write it decides
//! (renormalisation), reaches every worker as one uninterrupted sequence.
//!
//! Both transports run the same [`crate::slices`] functions on their
//! slices, which is what keeps them bit-identical.

use crate::slices::{self, Cursor};
use std::io;
use tqsim_circuit::math::C64;
use tqsim_statevec::FusedOp;

/// Below this per-node slice length, node work runs on the calling thread —
/// the semantics are identical and thread-spawn overhead would dominate.
const THREAD_MIN_SLICE: usize = 1 << 12;

/// Per-rank reads over one acquisition of a node group.
pub trait Link {
    /// `Σ |a|²` over rank `rank`'s slice ([`slices::psum`]).
    fn psum(&mut self, rank: usize) -> f64;
    /// Continue a local-qubit marginal over rank `rank` ([`slices::msum`]).
    fn msum(&mut self, rank: usize, q: u16, acc: f64) -> f64;
    /// Continue a single-draw CDF walk over rank `rank` ([`slices::pick`]).
    fn pick(&mut self, rank: usize, u: f64, acc: f64) -> Result<u64, f64>;
    /// Continue a sorted-CDF walk over rank `rank` ([`slices::walk`]).
    fn walk(
        &mut self,
        rank: usize,
        us: &[f64],
        at: Option<Cursor>,
        total: u64,
    ) -> (Vec<u64>, Cursor);
    /// Append rank `rank`'s amplitudes to `out`.
    fn fetch(&mut self, rank: usize, out: &mut Vec<C64>);
}

/// Multi-rank writes over one acquisition of a node group. Verbs without a
/// rank act on every rank.
pub trait LinkMut: Link {
    /// Overwrite every slice with its share of `|0…0⟩`.
    fn reset(&mut self);
    /// Apply a fused window on every rank at that rank's base
    /// ([`slices::apply`]).
    fn apply(&mut self, window: &[FusedOp]);
    /// Apply a fused window on one rank.
    fn apply_rank(&mut self, rank: usize, window: &[FusedOp]);
    /// The node-local antidiagonal `[[0, a01], [a10, 0]]` on local qubit
    /// `q`, on every rank.
    fn antidiag(&mut self, q: u16, a01: C64, a10: C64);
    /// Multiply every amplitude by `s` ([`slices::scale`]).
    fn scale(&mut self, s: f64);
    /// Distributed swap of node-selecting bit `gb` with local qubit `lq`:
    /// each rank pair trades halves ([`slices::half`]).
    fn dswap(&mut self, gb: u16, lq: u16);
    /// Cross-node antidiagonal on node-selecting bit `gb`: each rank pair
    /// trades whole slices, then the lower rank multiplies by `a01` and
    /// the higher by `a10` ([`slices::times`]).
    fn antidiag_global(&mut self, gb: u16, a01: C64, a10: C64);
    /// Fused sampling link: apply `window` to rank `rank`, then continue
    /// the sorted-CDF walk over it.
    fn fwalk(
        &mut self,
        rank: usize,
        window: &[FusedOp],
        us: &[f64],
        at: Option<Cursor>,
        total: u64,
    ) -> (Vec<u64>, Cursor) {
        self.apply_rank(rank, window);
        self.walk(rank, us, at, total)
    }
}

/// The slices of one distributed state and the verbs that move them.
pub trait Transport: Send + Sync + Sized + 'static {
    /// What states are allocated on: a node count for the in-process
    /// transport, a live worker group for the multi-process one.
    type Group: Clone + Send + Sync + 'static;
    /// Read access to every rank.
    type Link<'a>: Link
    where
        Self: 'a;
    /// Read-write access to every rank.
    type LinkMut<'a>: LinkMut
    where
        Self: 'a;

    /// Number of nodes in `group`.
    fn group_nodes(group: &Self::Group) -> usize;
    /// Allocate `|0…0⟩` as `slice_len`-amplitude slices on `group`.
    fn alloc(group: &Self::Group, slice_len: usize) -> Self;
    /// Acquire every rank for reading.
    fn link(&self) -> Self::Link<'_>;
    /// Acquire every rank for writing.
    fn link_mut(&mut self) -> Self::LinkMut<'_>;
    /// Overwrite every slice with `src`'s, then apply `window` on every
    /// rank ([`slices::copy_apply`]). Slices never leave their node.
    fn copy_apply(&mut self, src: &Self, window: &[FusedOp]);
}

/// A transport whose node group is launched on its own and shared by every
/// state allocated on it (worker processes).
pub trait Spawn: Transport {
    /// Launch an `n_nodes`-node group.
    ///
    /// # Errors
    ///
    /// Launch or handshake failures.
    fn spawn(n_nodes: usize) -> io::Result<Self::Group>;
}

/// The in-process transport: every node slice lives in this process, and
/// node-local work runs one thread per node.
pub struct InProcess {
    pub(crate) slices: Vec<Vec<C64>>,
}

/// Every node slice of an [`InProcess`] state, borrowed for one operation.
pub struct Nodes<S>(S);

/// Run `op` on every item, one scoped thread each when `threaded`.
fn each<I, F>(threaded: bool, items: I, op: F)
where
    I: IntoIterator,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    if threaded {
        std::thread::scope(|scope| {
            for item in items {
                let op = &op;
                scope.spawn(move || op(item));
            }
        });
    } else {
        items.into_iter().for_each(op);
    }
}

impl Nodes<&mut [Vec<C64>]> {
    fn threaded(&self) -> bool {
        self.0[0].len() >= THREAD_MIN_SLICE
    }

    /// Every rank with its slice.
    fn each_rank(&mut self, op: impl Fn((usize, &mut Vec<C64>)) + Sync) {
        let threaded = self.threaded();
        each(threaded, self.0.iter_mut().enumerate(), op);
    }

    /// Every (lower, higher) rank pair that differs in node bit `gb`.
    fn each_pair(&mut self, gb: u16, op: impl Fn((&mut Vec<C64>, &mut Vec<C64>)) + Sync) {
        let threaded = self.threaded();
        let step = 1usize << gb;
        let pairs = self.0.chunks_mut(2 * step).flat_map(|group| {
            let (lo, hi) = group.split_at_mut(step);
            lo.iter_mut().zip(hi.iter_mut())
        });
        each(threaded, pairs, op);
    }
}

impl<S: AsRef<[Vec<C64>]>> Link for Nodes<S> {
    fn psum(&mut self, rank: usize) -> f64 {
        slices::psum(&self.0.as_ref()[rank])
    }

    fn msum(&mut self, rank: usize, q: u16, acc: f64) -> f64 {
        slices::msum(&self.0.as_ref()[rank], q, acc)
    }

    fn pick(&mut self, rank: usize, u: f64, acc: f64) -> Result<u64, f64> {
        slices::pick(&self.0.as_ref()[rank], rank, u, acc)
    }

    fn walk(
        &mut self,
        rank: usize,
        us: &[f64],
        at: Option<Cursor>,
        total: u64,
    ) -> (Vec<u64>, Cursor) {
        slices::walk(&self.0.as_ref()[rank], rank, us, at, total)
    }

    fn fetch(&mut self, rank: usize, out: &mut Vec<C64>) {
        out.extend_from_slice(&self.0.as_ref()[rank]);
    }
}

impl LinkMut for Nodes<&mut [Vec<C64>]> {
    fn reset(&mut self) {
        for (rank, slice) in self.0.iter_mut().enumerate() {
            slices::reset(slice, rank);
        }
    }

    fn apply(&mut self, window: &[FusedOp]) {
        self.each_rank(|(rank, slice)| slices::apply(slice, rank, window));
    }

    fn apply_rank(&mut self, rank: usize, window: &[FusedOp]) {
        slices::apply(&mut self.0[rank], rank, window);
    }

    fn antidiag(&mut self, q: u16, a01: C64, a10: C64) {
        self.each_rank(|(_, slice)| slices::antidiag(slice, q, a01, a10));
    }

    fn scale(&mut self, s: f64) {
        self.each_rank(|(_, slice)| slices::scale(slice, s));
    }

    fn dswap(&mut self, gb: u16, lq: u16) {
        self.each_pair(gb, |(lo, hi)| slices::exchange_halves(lo, hi, lq));
    }

    fn antidiag_global(&mut self, gb: u16, a01: C64, a10: C64) {
        self.each_pair(gb, |(lo, hi)| {
            std::mem::swap(lo, hi);
            slices::times(lo, a01);
            slices::times(hi, a10);
        });
    }
}

impl Transport for InProcess {
    type Group = usize;
    type Link<'a> = Nodes<&'a [Vec<C64>]>;
    type LinkMut<'a> = Nodes<&'a mut [Vec<C64>]>;

    fn group_nodes(n_nodes: &usize) -> usize {
        *n_nodes
    }

    fn alloc(n_nodes: &usize, slice_len: usize) -> Self {
        InProcess {
            slices: (0..*n_nodes)
                .map(|rank| slices::zero(slice_len, rank))
                .collect(),
        }
    }

    fn link(&self) -> Self::Link<'_> {
        Nodes(&self.slices)
    }

    fn link_mut(&mut self) -> Self::LinkMut<'_> {
        Nodes(&mut self.slices)
    }

    fn copy_apply(&mut self, src: &Self, window: &[FusedOp]) {
        let threaded = self.slices[0].len() >= THREAD_MIN_SLICE;
        let pairs = self.slices.iter_mut().zip(&src.slices).enumerate();
        each(threaded, pairs, |(rank, (dst, src))| {
            slices::copy_apply(dst, src, rank, window);
        });
    }
}
