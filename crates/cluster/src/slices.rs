//! The per-slice arithmetic of a distributed state vector.
//!
//! Node `rank` of a `2^g`-node group holds the contiguous amplitudes
//! `rank·len .. (rank+1)·len` of the full vector. Every transport applies
//! these functions to its slices: the in-process transport calls them on a
//! `Vec` of slices, and a `tqsim-shard` worker calls them on the slice it
//! owns. Whatever arithmetic touches an amplitude, and in which order, is
//! therefore written once, so the transports agree bit for bit by
//! construction. The rank-ordered folds that combine per-rank results
//! live in [`crate::Distributed`].

use tqsim_circuit::math::{c64, C64};
use tqsim_statevec::{apply_window_amps, kernels, FusedOp};

/// Rank `rank`'s share of `|0…0⟩`: all zero except amplitude 0 on rank 0.
pub fn zero(len: usize, rank: usize) -> Vec<C64> {
    let mut slice = vec![c64(0.0, 0.0); len];
    if rank == 0 {
        slice[0] = c64(1.0, 0.0);
    }
    slice
}

/// Overwrite `slice` with rank `rank`'s share of `|0…0⟩`.
pub fn reset(slice: &mut [C64], rank: usize) {
    slice.fill(c64(0.0, 0.0));
    if rank == 0 {
        slice[0] = c64(1.0, 0.0);
    }
}

/// Apply a fused window to rank `rank`'s slice. Dense ops must act on
/// node-local qubits; diagonal runs may touch node-selecting qubits, whose
/// bits they read from the rank.
pub fn apply(slice: &mut [C64], rank: usize, window: &[FusedOp]) {
    let base = rank * slice.len();
    apply_window_amps(slice, base, window);
}

/// Overwrite `dst` with `src`, then apply `window` (see [`apply`]): the
/// parent→child copy, carrying the child's head window when it has one.
pub fn copy_apply(dst: &mut [C64], src: &[C64], rank: usize, window: &[FusedOp]) {
    dst.copy_from_slice(src);
    if !window.is_empty() {
        apply(dst, rank, window);
    }
}

/// Multiply every amplitude by the real factor `s` (renormalisation).
pub fn scale(slice: &mut [C64], s: f64) {
    for a in slice.iter_mut() {
        *a *= s;
    }
}

/// The antidiagonal `[[0, a01], [a10, 0]]` on local qubit `q`.
pub fn antidiag(slice: &mut [C64], q: u16, a01: C64, a10: C64) {
    kernels::apply_antidiag1(slice, usize::from(q), a01, a10);
}

/// Multiply every amplitude by `d`, as `d · a`: the second half of a
/// cross-node antidiagonal combine, applied to the partner's amplitudes
/// once they have arrived.
pub fn times(slice: &mut [C64], d: C64) {
    for a in slice.iter_mut() {
        *a = d * *a;
    }
}

/// The amplitudes a distributed swap of local qubit `lq` trades, as runs
/// in index order: the `lq`-bit=1 half on the lower rank of a pair
/// (`upper`), the `lq`-bit=0 half on the higher rank.
pub fn half(slice: &mut [C64], lq: u16, upper: bool) -> impl Iterator<Item = &mut [C64]> {
    let run = 1usize << lq;
    slice.chunks_mut(2 * run).map(move |pair| {
        if upper {
            &mut pair[run..]
        } else {
            &mut pair[..run]
        }
    })
}

/// One distributed swap between the slices of a lower rank `lo` and a
/// higher rank `hi` held in the same address space.
pub fn exchange_halves(lo: &mut [C64], hi: &mut [C64], lq: u16) {
    for (a, b) in half(lo, lq, true).zip(half(hi, lq, false)) {
        a.swap_with_slice(b);
    }
}

/// `Σ |a|²` over the slice, accumulated in index order.
pub fn psum(slice: &[C64]) -> f64 {
    slice.iter().map(|a| a.norm_sqr()).sum()
}

/// Continue a marginal sum for local qubit `q`: add `|a|²` of every
/// amplitude whose `q` bit is set, in index order, onto `acc`.
pub fn msum(slice: &[C64], q: u16, mut acc: f64) -> f64 {
    let mask = 1usize << q;
    for (i, a) in slice.iter().enumerate() {
        if i & mask != 0 {
            acc += a.norm_sqr();
        }
    }
    acc
}

/// Continue a single-draw CDF walk over rank `rank`'s slice: `Ok` with
/// the global index where `u` falls, or `Err` with the running sum to
/// hand to the next rank.
pub fn pick(slice: &[C64], rank: usize, u: f64, mut acc: f64) -> Result<u64, f64> {
    let base = (rank * slice.len()) as u64;
    for (i, a) in slice.iter().enumerate() {
        acc += a.norm_sqr();
        if u < acc {
            return Ok(base + i as u64);
        }
    }
    Err(acc)
}

/// Where a sorted-CDF walk stands between ranks: the last global index
/// visited and the cumulative probability up to and including it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cursor {
    /// Last global index visited.
    pub idx: u64,
    /// Cumulative `|a|²` through `idx`.
    pub acc: f64,
}

/// Continue a batched sorted-CDF walk over rank `rank`'s slice. `us` are
/// the still-unresolved draws in ascending order; `at` is `None` on the
/// first rank. Returns the outcomes of the leading draws that land in
/// this slice (an over-range draw lands on index `total − 1`) and the
/// cursor to hand to the next rank.
pub fn walk(
    slice: &[C64],
    rank: usize,
    us: &[f64],
    at: Option<Cursor>,
    total: u64,
) -> (Vec<u64>, Cursor) {
    let base = (rank * slice.len()) as u64;
    let end = base + slice.len() as u64;
    let Cursor { mut idx, mut acc } = at.unwrap_or(Cursor {
        idx: 0,
        acc: slice[0].norm_sqr(),
    });
    let mut out = Vec::new();
    for &u in us {
        while u >= acc && idx + 1 < total && idx + 1 < end {
            idx += 1;
            acc += slice[(idx - base) as usize].norm_sqr();
        }
        if u < acc || idx + 1 >= total {
            out.push(idx);
        } else {
            break;
        }
    }
    (out, Cursor { idx, acc })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(len: usize, offset: usize) -> Vec<C64> {
        (0..len)
            .map(|i| c64(((i + offset) as f64 + 1.0).sqrt() / 10.0, 0.0))
            .collect()
    }

    #[test]
    fn exchange_halves_trades_the_bit_set_half_of_the_lower_rank() {
        let (mut lo, mut hi) = (ramp(8, 0), ramp(8, 8));
        let (lo0, hi0) = (lo.clone(), hi.clone());
        exchange_halves(&mut lo, &mut hi, 1);
        // Bit 1 set in lo (indices 2,3,6,7) ↔ bit 1 clear in hi (0,1,4,5).
        assert_eq!(
            [lo[2], lo[3], lo[6], lo[7]],
            [hi0[0], hi0[1], hi0[4], hi0[5]]
        );
        assert_eq!(
            [hi[0], hi[1], hi[4], hi[5]],
            [lo0[2], lo0[3], lo0[6], lo0[7]]
        );
        assert_eq!(
            [lo[0], lo[1], hi[2], hi[3]],
            [lo0[0], lo0[1], hi0[2], hi0[3]]
        );
    }

    #[test]
    fn chained_walks_match_one_walk_over_the_whole_vector() {
        let whole = ramp(16, 0);
        let us = [0.0, 0.3, 0.3, 1.2, 5.0, 100.0];
        let (all, _) = walk(&whole, 0, &us, None, 16);
        let mut out = Vec::new();
        let mut at = None;
        for (rank, slice) in whole.chunks(4).enumerate() {
            let (got, cursor) = walk(slice, rank, &us[out.len()..], at, 16);
            out.extend(got);
            at = Some(cursor);
        }
        assert_eq!(out, all);
        assert_eq!(*all.last().unwrap(), 15, "over-range draws land last");
    }

    #[test]
    fn chained_picks_and_marginals_match_single_slice_sums() {
        let whole = ramp(16, 0);
        let mut acc = 0.0;
        let mut hit = None;
        for (rank, slice) in whole.chunks(4).enumerate() {
            match pick(slice, rank, 2.0, acc) {
                Ok(i) => {
                    hit = Some(i);
                    break;
                }
                Err(a) => acc = a,
            }
        }
        assert_eq!(hit, pick(&whole, 0, 2.0, 0.0).ok());
        let chained = whole.chunks(4).fold(0.0, |acc, s| msum(s, 1, acc));
        assert_eq!(chained.to_bits(), msum(&whole, 1, 0.0).to_bits());
    }
}
