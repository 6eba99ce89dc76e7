//! Scoped-thread parallel driver for the dense kernels.
//!
//! Every kernel visits a set of stored amplitude indices given as a
//! [`Cube`]: the indices whose bits under a mask equal fixed values. The
//! mask holds the bits the state's support fixes (see
//! [`StateVector`](crate::StateVector)) together with the gate's own
//! wires and controls; the dense sweep is the cube that fixes only the
//! gate's bits. A cube is walked in ascending order by a masked
//! increment, so a call costs what it visits, whatever the width of the
//! state.
//!
//! A single-qubit gate on target `t` touches amplitude pairs that live
//! entirely inside aligned blocks of `2^(t+1)` amplitudes, so the blocks a
//! cube selects can be handed to independent threads with no
//! synchronisation. The same holds for every kernel in this crate
//! (controlled gates, swaps, fused gates, the frame settle, diagonal
//! oracles), so they all funnel through one driver, [`for_each_block`]. Whether it
//! spawns workers depends on the amplitudes a call visits, not on the
//! length of the vector.
//!
//! ```
//! use qutes_sim::parallel::Cube;
//!
//! // The indices below 16 with bit 1 clear and bit 3 set, ascending.
//! let cube = Cube { fixed: 0b1010, value: 0b1000 };
//! assert_eq!(cube.indices(16).collect::<Vec<_>>(), [8, 9, 12, 13]);
//! assert_eq!(cube.count(16), 4);
//! assert_eq!(cube.first_from(10), 12);
//! ```

use crate::complex::Complex64;
use qutes_supervisor::{Interrupt, StopReason};
use std::sync::OnceLock;

/// Amplitudes a call must visit before its kernel runs on several
/// threads. 2^14 amplitudes (~14 qubits, 256 KiB) is where thread spawn
/// overhead stops dominating on typical hardware; E7 in `EXPERIMENTS.md`
/// measures the crossover. It also decides, from the vector length, how
/// the reductions split their sums ([`sum_reduce`]).
pub const PAR_THRESHOLD: usize = 1 << 14;

/// Number of worker threads used for parallel kernels (cached).
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16)
    })
}

/// The indices `i` with `i & fixed == value`: an affine sub-cube of the
/// index space. `value` has no bit outside `fixed`, and a cube used on a
/// vector of `len` amplitudes fixes no bit at or above `len`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cube {
    /// The bits every index of the cube agrees on.
    pub fixed: usize,
    /// Their values.
    pub value: usize,
}

impl Cube {
    /// Every index: the cube of the dense sweep.
    pub const ALL: Cube = Cube { fixed: 0, value: 0 };

    /// How many of its indices lie below `len` (a power of two).
    #[inline]
    pub fn count(self, len: usize) -> usize {
        1 << ((len - 1) & !self.fixed).count_ones()
    }

    /// The next index of the cube after `i`, which must be in it: the
    /// carry of `+ 1` runs through the fixed bits, which are then
    /// restored. At or above `len` after the last index below `len`.
    #[inline]
    pub fn next(self, i: usize) -> usize {
        (((i | self.fixed) + 1) & !self.fixed) | self.value
    }

    /// The smallest index of the cube at or above `x`.
    pub fn first_from(self, x: usize) -> usize {
        let diff = (x & self.fixed) ^ self.value;
        if diff == 0 {
            return x;
        }
        // The highest fixed bit `x` gets wrong, and every bit below it.
        let top = 1usize << diff.ilog2();
        let low = top | (top - 1);
        if self.value & top != 0 {
            // `x` has a 0 where the cube needs a 1: raise that bit and
            // take the least indices below it.
            (x & !low & !self.fixed) | self.value
        } else {
            // `x` has a 1 where the cube needs a 0: carry into the first
            // free bit above it.
            (((x | self.fixed | low) + 1) & !self.fixed) | self.value
        }
    }

    /// The index of rank `k` in the cube (below `len`, ascending): the
    /// bits of `k` deposited into the free bit positions.
    fn nth(self, k: usize, len: usize) -> usize {
        let mut free = (len - 1) & !self.fixed;
        let (mut i, mut k) = (self.value, k);
        while free != 0 && k != 0 {
            if k & 1 == 1 {
                i |= free & free.wrapping_neg();
            }
            free &= free - 1;
            k >>= 1;
        }
        i
    }

    /// The cube restricted to the bits below `block` (a power of two):
    /// the offsets a kernel visits inside each block [`for_each_block`] hands it.
    #[inline]
    pub fn within(self, block: usize) -> Cube {
        Cube {
            fixed: self.fixed & (block - 1),
            value: self.value & (block - 1),
        }
    }

    /// Its indices below `len`, ascending.
    pub fn indices(self, len: usize) -> impl Iterator<Item = usize> {
        std::iter::successors(Some(self.value), move |&i| Some(self.next(i)))
            .take_while(move |&i| i < len)
    }
}

/// Runs `f(chunk, offset)` over the aligned blocks of `block`
/// amplitudes that hold an index of `anchors` (`None`: no index), where
/// `chunk` is a run of such blocks, every one of them selected, starting
/// at index `offset`. `f` walks its chunk's blocks in contiguous,
/// aligned tiles (`chunks_exact_mut(block)`), with the per-block mask
/// arithmetic hoisted out of its loops, and visits the anchors inside
/// each block (`anchors.within(block)`) and their partners, which lie in
/// the same block: `per_anchor` amplitudes each, counted as
/// `kernel.amps_visited`.
///
/// The chunks are the aligned runs of selected blocks, enumerated, not
/// tested, so a call on a wide state with few anchors visits few blocks;
/// with no anchor bit at or above `block` (the dense sweep) the whole
/// vector is one chunk. The call runs on the calling thread unless
/// `parallel` is set and it visits at least [`PAR_THRESHOLD`]
/// amplitudes; the chunks are then cut into at least four pieces per
/// worker and each worker takes a contiguous run of them. `f` must only
/// touch its own blocks, so the result does not depend on the split.
///
/// With an armed `intr`, chunks are cut to at most [`CHECK_STRIDE`]
/// amplitudes (or one block) and a cooperative deadline check runs
/// before each, and at least once. On `Err` the amplitude vector may be
/// partially updated: an interrupted state is abandoned by every caller,
/// never observed.
pub fn for_each_block<F>(
    amps: &mut [Complex64],
    anchors: Option<Cube>,
    block: usize,
    per_anchor: usize,
    parallel: bool,
    intr: Option<&Interrupt>,
    f: F,
) -> Result<(), StopReason>
where
    F: Fn(&mut [Complex64], usize) + Sync,
{
    let len = amps.len();
    debug_assert!(block.is_power_of_two() && block <= len);
    let intr = intr.filter(|i| i.is_armed());
    let Some(anchors) = anchors else {
        qutes_obs::counter_add("kernel.amps_visited", 0);
        qutes_obs::counter_add("kernel.dispatch.serial", 1);
        return intr.map_or(Ok(()), Interrupt::check);
    };
    let visits = anchors.count(len) * per_anchor;
    qutes_obs::counter_add("kernel.amps_visited", visits as u64);
    // The anchor bits at or above `block` select the blocks; the lowest
    // of them bounds the aligned runs of selected blocks.
    let hi = Cube {
        fixed: anchors.fixed & !(block - 1),
        value: anchors.value & !(block - 1),
    };
    let mut chunk = (hi.fixed | len) & (hi.fixed | len).wrapping_neg();
    let nt = num_threads();
    let workers = parallel && visits >= PAR_THRESHOLD && nt > 1;
    if workers {
        let quarter = hi.count(len) / (4 * nt);
        chunk = chunk.min(1 << quarter.max(1).ilog2()).max(block);
    }
    if intr.is_some() {
        chunk = chunk.min(CHECK_STRIDE.max(block));
    }
    // The chunks' offsets, as a cube.
    let chunks = Cube {
        fixed: hi.fixed | (chunk - 1),
        value: hi.value,
    };
    let count = chunks.count(len);
    // `f` on `n` chunks from offset `start`, which `run` begins at.
    let walk = |run: &mut [Complex64], start: usize, n: usize| {
        let mut o = start;
        for _ in 0..n {
            if let Some(intr) = intr {
                intr.check()?;
                qutes_obs::counter_add("stage.kernel.checkpoints", 1);
            }
            let at = o - start;
            f(&mut run[at..at + chunk], o);
            o = chunks.next(o);
        }
        Ok(())
    };
    if !workers || count <= 1 {
        qutes_obs::counter_add("kernel.dispatch.serial", 1);
        return walk(&mut amps[chunks.value..], chunks.value, count);
    }
    qutes_obs::counter_add("kernel.dispatch.parallel", 1);
    let per_thread = count.div_ceil(nt);
    std::thread::scope(|s| {
        let mut rest = amps;
        let mut at = 0usize;
        let walk = &walk;
        for first in (0..count).step_by(per_thread) {
            let last = (first + per_thread).min(count);
            let start = chunks.nth(first, len);
            let end = if last == count {
                len
            } else {
                chunks.nth(last, len)
            };
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(start - at);
            let (mine, tail) = tail.split_at_mut(end - start);
            rest = tail;
            at = end;
            // Workers bail early once the shared handle trips; the
            // joining thread reports the reason below.
            s.spawn(move || {
                let _ = walk(mine, start, last - first);
            });
        }
    });
    // Cancellation and deadlines are monotonic, so a worker that bailed
    // is always reflected here.
    intr.map_or(Ok(()), Interrupt::check)
}

/// Amplitudes processed between deadline checks when an [`Interrupt`]
/// is armed. 2^16 amplitudes (1 MiB) keeps the check amortised far
/// below 1% of kernel time while still bounding response latency to a
/// fraction of a millisecond per check at any qubit count.
pub const CHECK_STRIDE: usize = 1 << 16;

/// Sums `g(i)` over the indices of `cube` (`None`: no index) below
/// `len`, counted as `kernel.amps_visited`.
///
/// The indices `0..len` are split into one chunk per worker when
/// `parallel` is set, `len` is at least [`PAR_THRESHOLD`] and the host
/// has several threads, else into one chunk. Each chunk is summed from
/// `0.0` in index order and the chunk sums are added in order. The split
/// depends only on the vector length and the thread count, and an index
/// outside the cube would only add `g(i) == 0.0`, so the result is the
/// same as summing every index. Workers are spawned only when the cube
/// holds at least [`PAR_THRESHOLD`] indices; otherwise the calling
/// thread sums the chunks one after another.
pub fn sum_reduce<G>(len: usize, cube: Option<Cube>, parallel: bool, g: G) -> f64
where
    G: Fn(usize) -> f64 + Sync,
{
    let visits = cube.map_or(0, |c| c.count(len));
    qutes_obs::counter_add("kernel.amps_visited", visits as u64);
    let chunk_sum = |lo: usize, hi: usize| {
        let mut acc = 0.0;
        if let Some(cube) = cube {
            let mut i = cube.first_from(lo);
            while i < hi {
                acc += g(i);
                i = cube.next(i);
            }
        }
        acc
    };
    let nt = num_threads();
    if !parallel || len < PAR_THRESHOLD || nt <= 1 {
        return chunk_sum(0, len);
    }
    let per_thread = len.div_ceil(nt);
    let mut partials = vec![0.0f64; len.div_ceil(per_thread)];
    if visits < PAR_THRESHOLD {
        for (ci, slot) in partials.iter_mut().enumerate() {
            *slot = chunk_sum(ci * per_thread, ((ci + 1) * per_thread).min(len));
        }
    } else {
        std::thread::scope(|s| {
            let chunk_sum = &chunk_sum;
            for (ci, slot) in partials.iter_mut().enumerate() {
                s.spawn(move || {
                    *slot = chunk_sum(ci * per_thread, ((ci + 1) * per_thread).min(len));
                });
            }
        });
    }
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    /// Every cube over a few bits.
    fn cubes(bits: u32) -> impl Iterator<Item = Cube> {
        let len = 1usize << bits;
        (0..len).flat_map(move |fixed| {
            (0..len)
                .filter(move |v| v & !fixed == 0)
                .map(move |value| Cube { fixed, value })
        })
    }

    #[test]
    fn cube_walks_match_a_filter() {
        let len = 1 << 5;
        for cube in cubes(5) {
            let want: Vec<usize> = (0..len).filter(|i| i & cube.fixed == cube.value).collect();
            assert_eq!(cube.indices(len).collect::<Vec<_>>(), want, "{cube:?}");
            assert_eq!(cube.count(len), want.len());
            for (k, &i) in want.iter().enumerate() {
                assert_eq!(cube.nth(k, len), i, "{cube:?} rank {k}");
            }
            for x in 0..len {
                let first = want.iter().copied().find(|&i| i >= x).unwrap_or(len);
                assert_eq!(cube.first_from(x).min(len), first, "{cube:?} from {x}");
            }
        }
    }

    /// Writes each amplitude's index into it, chunk by chunk.
    fn write_index(chunk: &mut [Complex64], off: usize) {
        for (i, a) in chunk.iter_mut().enumerate() {
            *a = c64((off + i) as f64, 1.0);
        }
    }

    #[test]
    fn for_each_block_serial_covers_all() {
        let mut amps = vec![c64(0.0, 0.0); 8];
        for_each_block(&mut amps, Some(Cube::ALL), 2, 1, false, None, write_index).unwrap();
        for (i, a) in amps.iter().enumerate() {
            assert_eq!(*a, c64(i as f64, 1.0));
        }
    }

    #[test]
    fn for_each_block_parallel_matches_serial() {
        let n = PAR_THRESHOLD * 2;
        let mut a = vec![c64(0.0, 0.0); n];
        let mut b = vec![c64(0.0, 0.0); n];
        for_each_block(&mut a, Some(Cube::ALL), 4, 1, false, None, write_index).unwrap();
        for_each_block(&mut b, Some(Cube::ALL), 4, 1, true, None, write_index).unwrap();
        assert_eq!(a, b);
    }

    /// Exactly the blocks holding an anchor are handed over, serially,
    /// in parallel and cut for deadline checks.
    #[test]
    fn for_each_block_visits_exactly_the_selected_blocks() {
        let len = PAR_THRESHOLD * 4;
        for (anchors, block) in [
            (Cube::ALL, 4),
            (
                Cube {
                    fixed: 1 << 15,
                    value: 1 << 15,
                },
                2,
            ),
            (
                Cube {
                    fixed: 0b1_0000_0000_0101,
                    value: 0b100,
                },
                16,
            ),
            (
                Cube {
                    fixed: (len - 1) & !0b1000_0110,
                    value: 0,
                },
                1,
            ),
        ] {
            let hi = !(block - 1);
            let want = |i: usize| i & anchors.fixed & hi == anchors.value & hi;
            let far = Interrupt::with_deadline(std::time::Duration::from_secs(600));
            for (parallel, intr) in [(false, None), (true, None), (false, Some(&far))] {
                let mut amps = vec![c64(0.0, 0.0); len];
                for_each_block(
                    &mut amps,
                    Some(anchors),
                    block,
                    1,
                    parallel,
                    intr,
                    write_index,
                )
                .unwrap();
                for (i, a) in amps.iter().enumerate() {
                    let got = if want(i) {
                        c64(i as f64, 1.0)
                    } else {
                        c64(0.0, 0.0)
                    };
                    assert_eq!(*a, got, "{anchors:?} block {block} index {i}");
                }
            }
        }
    }

    #[test]
    fn interruptible_unarmed_matches_legacy() {
        let n = PAR_THRESHOLD * 2;
        let mut a = vec![c64(0.0, 0.0); n];
        let mut b = vec![c64(0.0, 0.0); n];
        for_each_block(&mut a, Some(Cube::ALL), 4, 1, true, None, write_index).unwrap();
        let intr = Interrupt::new();
        for_each_block(
            &mut b,
            Some(Cube::ALL),
            4,
            1,
            true,
            Some(&intr),
            write_index,
        )
        .expect("unarmed never interrupts");
        assert_eq!(a, b);
    }

    #[test]
    fn interruptible_armed_matches_legacy() {
        let n = PAR_THRESHOLD * 2;
        let mut a = vec![c64(0.0, 0.0); n];
        let mut b = vec![c64(0.0, 0.0); n];
        let mut c = vec![c64(0.0, 0.0); n];
        for_each_block(&mut a, Some(Cube::ALL), 4, 1, false, None, write_index).unwrap();
        // A generous armed deadline must not change results, serial or
        // parallel.
        let intr = Interrupt::with_deadline(std::time::Duration::from_secs(600));
        for_each_block(
            &mut b,
            Some(Cube::ALL),
            4,
            1,
            false,
            Some(&intr),
            write_index,
        )
        .expect("deadline far away");
        for_each_block(
            &mut c,
            Some(Cube::ALL),
            4,
            1,
            true,
            Some(&intr),
            write_index,
        )
        .expect("deadline far away");
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn interruptible_cancel_stops_work() {
        let n = PAR_THRESHOLD * 2;
        let mut amps = vec![c64(0.0, 0.0); n];
        let intr = Interrupt::new();
        intr.cancel();
        // Also a call with nothing to visit.
        for anchors in [Some(Cube::ALL), None] {
            let err = for_each_block(&mut amps, anchors, 4, 1, false, Some(&intr), |_, _| {})
                .expect_err("cancelled handle must interrupt");
            assert_eq!(err, StopReason::Cancelled);
        }
    }

    #[test]
    fn sum_reduce_matches_serial() {
        let n = PAR_THRESHOLD * 2;
        let amps: Vec<_> = (0..n).map(|i| c64((i % 13) as f64, 0.0)).collect();
        let serial = sum_reduce(n, Some(Cube::ALL), false, |i| amps[i].re);
        let parallel = sum_reduce(n, Some(Cube::ALL), true, |i| amps[i].re);
        assert!((serial - parallel).abs() < 1e-6 * serial.max(1.0));
    }

    #[test]
    fn sum_reduce_uses_index() {
        let s = sum_reduce(8, Some(Cube::ALL), false, |i| i as f64);
        assert_eq!(s, 28.0);
    }

    /// Summing a cube gives, bit for bit, the full sum of a term that is
    /// zero outside it, with and without the parallel split.
    #[test]
    fn sum_reduce_skips_only_zeros() {
        let len = PAR_THRESHOLD * 2;
        let cube = Cube {
            fixed: 0b110,
            value: 0b100,
        };
        let term = |i: usize| {
            if i & 0b110 == 0b100 {
                ((i % 13) as f64).sqrt()
            } else {
                0.0
            }
        };
        for parallel in [false, true] {
            let full = sum_reduce(len, Some(Cube::ALL), parallel, term);
            let cut = sum_reduce(len, Some(cube), parallel, term);
            assert_eq!(full.to_bits(), cut.to_bits());
        }
        assert_eq!(
            sum_reduce(8, None, true, |_| 1.0).to_bits(),
            0.0f64.to_bits()
        );
    }
}
