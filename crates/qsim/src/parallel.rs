//! Scoped-thread parallel driver for gate kernels.
//!
//! A single-qubit gate on target `t` touches amplitude pairs that live
//! entirely inside aligned blocks of `2^(t+1)` amplitudes, so the amplitude
//! vector can be split at block boundaries and each piece processed by an
//! independent thread with no synchronisation. The same property holds for
//! every kernel in this crate (controlled gates, swaps, diagonal oracles),
//! so they all funnel through [`for_each_block`].
//!
//! ```
//! use qutes_sim::complex::c64;
//! use qutes_sim::parallel::for_each_block;
//!
//! // Double every amplitude, processing aligned blocks of 2.
//! let mut amps = vec![c64(1.0, 0.0); 4];
//! for_each_block(&mut amps, 2, false, |chunk, _offset| {
//!     for a in chunk {
//!         *a = *a + *a;
//!     }
//! });
//! assert!(amps.iter().all(|a| a.re == 2.0));
//! ```

use crate::complex::Complex64;
use qutes_supervisor::{Interrupt, StopReason};
use std::sync::OnceLock;

/// Amplitude-vector length below which kernels always run serially.
/// 2^14 amplitudes (~14 qubits, 256 KiB) is where thread spawn overhead
/// stops dominating on typical hardware; E7 in `EXPERIMENTS.md` measures
/// the crossover.
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

/// Runs `f(chunk, global_offset)` over `amps` split into block-aligned
/// chunks. `block` must be a power of two that divides `amps.len()` (the
/// statevector guarantees this). When `parallel` is false or the vector is
/// small, the kernel runs on the calling thread.
pub fn for_each_block<F>(amps: &mut [Complex64], block: usize, parallel: bool, f: F)
where
    F: Fn(&mut [Complex64], usize) + Sync,
{
    debug_assert!(block.is_power_of_two());
    debug_assert_eq!(amps.len() % block, 0, "block must divide amplitude count");
    let len = amps.len();
    let nt = num_threads();
    if !parallel || len < PAR_THRESHOLD || nt <= 1 || len <= block {
        qutes_obs::counter_add("kernel.dispatch.serial", 1);
        f(amps, 0);
        return;
    }
    qutes_obs::counter_add("kernel.dispatch.parallel", 1);
    let blocks = len / block;
    let per_thread = blocks.div_ceil(nt) * block;
    std::thread::scope(|s| {
        let mut rest = amps;
        let mut offset = 0usize;
        let f = &f;
        while !rest.is_empty() {
            let take = per_thread.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let o = offset;
            s.spawn(move || f(head, o));
            offset += take;
            rest = tail;
        }
    });
}

/// Splits a kernel chunk into its aligned blocks, yielding
/// `(chunk_relative_base, block_slice)` pairs.
///
/// This is the cache-blocked traversal skeleton shared by the gate
/// kernels: every chunk handed out by [`for_each_block`] /
/// [`for_each_block_interruptible`] is a whole number of `block`-sized,
/// `block`-aligned tiles, so kernels iterate tiles and hoist their
/// per-block bit-mask arithmetic (control tests, wire strides) out of
/// the per-amplitude loops. The compiler sees fixed-length
/// `chunks_exact_mut` slices, which also unlocks bounds-check
/// elimination in the inner loops.
#[inline]
pub fn blocks_mut(
    chunk: &mut [Complex64],
    block: usize,
) -> impl Iterator<Item = (usize, &mut [Complex64])> {
    debug_assert_eq!(chunk.len() % block, 0, "chunk is a whole number of blocks");
    chunk
        .chunks_exact_mut(block)
        .enumerate()
        .map(move |(i, tile)| (i * block, tile))
}

/// Amplitudes processed between deadline checks when an [`Interrupt`]
/// is armed. 2^16 amplitudes (1 MiB) keeps the check amortised far
/// below 1% of kernel time while still bounding response latency to a
/// fraction of a millisecond per check at any qubit count.
pub const CHECK_STRIDE: usize = 1 << 16;

/// Interrupt-aware variant of [`for_each_block`]. With an unarmed
/// handle this is *exactly* the legacy path (one `is_armed` load of
/// overhead); when armed, the amplitude vector is processed in
/// [`CHECK_STRIDE`]-sized slices with a cooperative deadline check
/// between slices.
///
/// On `Err` the amplitude vector may be partially updated: an
/// interrupted state is abandoned by every caller, never observed.
pub fn for_each_block_interruptible<F>(
    amps: &mut [Complex64],
    block: usize,
    parallel: bool,
    intr: &Interrupt,
    f: F,
) -> Result<(), StopReason>
where
    F: Fn(&mut [Complex64], usize) + Sync,
{
    if !intr.is_armed() {
        for_each_block(amps, block, parallel, f);
        return Ok(());
    }
    debug_assert!(block.is_power_of_two());
    debug_assert_eq!(amps.len() % block, 0, "block must divide amplitude count");
    // Both powers of two, so the larger is a multiple of the smaller and
    // every slice below is a whole number of blocks.
    let stride = block.max(CHECK_STRIDE);
    let len = amps.len();
    let nt = num_threads();
    if !parallel || len < PAR_THRESHOLD || nt <= 1 || len <= block {
        qutes_obs::counter_add("kernel.dispatch.serial", 1);
        let mut offset = 0usize;
        for slice in amps.chunks_mut(stride) {
            intr.check()?;
            qutes_obs::counter_add("stage.kernel.checkpoints", 1);
            f(slice, offset);
            offset += slice.len();
        }
        return Ok(());
    }
    qutes_obs::counter_add("kernel.dispatch.parallel", 1);
    let blocks = len / block;
    let per_thread = blocks.div_ceil(nt) * block;
    std::thread::scope(|s| {
        let mut rest = amps;
        let mut offset = 0usize;
        let f = &f;
        while !rest.is_empty() {
            let take = per_thread.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let o = offset;
            s.spawn(move || {
                let mut local = 0usize;
                for slice in head.chunks_mut(stride) {
                    // Workers bail early once the shared handle trips;
                    // the joining thread reports the reason below.
                    if intr.check().is_err() {
                        return;
                    }
                    qutes_obs::counter_add("stage.kernel.checkpoints", 1);
                    f(slice, o + local);
                    local += slice.len();
                }
            });
            offset += take;
            rest = tail;
        }
    });
    // Cancellation and deadlines are monotonic, so a worker that bailed
    // is always reflected here.
    intr.check()
}

/// Parallel sum of `g(amp, index)` over the amplitude vector. Used for
/// probability and expectation reductions.
pub fn sum_reduce<G>(amps: &[Complex64], parallel: bool, g: G) -> f64
where
    G: Fn(Complex64, usize) -> f64 + Sync,
{
    sum_chunks(amps, parallel, |chunk, base| {
        chunk.iter().enumerate().map(|(i, &a)| g(a, base + i)).sum()
    })
}

/// Sums `g(chunk, base)` over the amplitude vector split into one chunk
/// per worker (the whole vector when serial), `base` being the chunk's
/// first index. The split depends only on the vector length and the
/// thread count, so a `g` that sums its chunk in index order gives the
/// same result at every call. Chunk boundaries are not block-aligned.
pub(crate) fn sum_chunks<G>(amps: &[Complex64], parallel: bool, g: G) -> f64
where
    G: Fn(&[Complex64], usize) -> f64 + Sync,
{
    let len = amps.len();
    let nt = num_threads();
    if !parallel || len < PAR_THRESHOLD || nt <= 1 {
        return g(amps, 0);
    }
    let per_thread = len.div_ceil(nt);
    let mut partials = vec![0.0f64; len.div_ceil(per_thread)];
    std::thread::scope(|s| {
        let g = &g;
        for (slot, (ci, chunk)) in partials.iter_mut().zip(amps.chunks(per_thread).enumerate()) {
            s.spawn(move || *slot = g(chunk, ci * per_thread));
        }
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn for_each_block_serial_covers_all() {
        let mut amps = vec![c64(1.0, 0.0); 8];
        for_each_block(&mut amps, 2, false, |chunk, off| {
            for (i, a) in chunk.iter_mut().enumerate() {
                *a = c64((off + i) as f64, 0.0);
            }
        });
        for (i, a) in amps.iter().enumerate() {
            assert_eq!(a.re, i as f64);
        }
    }

    #[test]
    fn for_each_block_parallel_matches_serial() {
        let n = PAR_THRESHOLD * 2;
        let mut a = vec![c64(0.0, 0.0); n];
        let mut b = vec![c64(0.0, 0.0); n];
        let kernel = |chunk: &mut [Complex64], off: usize| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = c64(((off + i) % 97) as f64, 0.0);
            }
        };
        for_each_block(&mut a, 4, false, kernel);
        for_each_block(&mut b, 4, true, kernel);
        assert_eq!(a, b);
    }

    #[test]
    fn interruptible_unarmed_matches_legacy() {
        let n = PAR_THRESHOLD * 2;
        let mut a = vec![c64(0.0, 0.0); n];
        let mut b = vec![c64(0.0, 0.0); n];
        let kernel = |chunk: &mut [Complex64], off: usize| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = c64(((off + i) % 89) as f64, 0.0);
            }
        };
        for_each_block(&mut a, 4, true, kernel);
        let intr = Interrupt::new();
        for_each_block_interruptible(&mut b, 4, true, &intr, kernel)
            .expect("unarmed never interrupts");
        assert_eq!(a, b);
    }

    #[test]
    fn interruptible_armed_matches_legacy() {
        let n = PAR_THRESHOLD * 2;
        let mut a = vec![c64(0.0, 0.0); n];
        let mut b = vec![c64(0.0, 0.0); n];
        let mut c = vec![c64(0.0, 0.0); n];
        let kernel = |chunk: &mut [Complex64], off: usize| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = c64(((off + i) % 89) as f64, 0.0);
            }
        };
        for_each_block(&mut a, 4, false, kernel);
        // A generous armed deadline must not change results, serial or
        // parallel.
        let intr = Interrupt::with_deadline(std::time::Duration::from_secs(600));
        for_each_block_interruptible(&mut b, 4, false, &intr, kernel).expect("deadline far away");
        for_each_block_interruptible(&mut c, 4, true, &intr, kernel).expect("deadline far away");
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn interruptible_cancel_stops_work() {
        let n = PAR_THRESHOLD * 2;
        let mut amps = vec![c64(0.0, 0.0); n];
        let intr = Interrupt::new();
        intr.cancel();
        let err = for_each_block_interruptible(&mut amps, 4, false, &intr, |_, _| {})
            .expect_err("cancelled handle must interrupt");
        assert_eq!(err, StopReason::Cancelled);
    }

    #[test]
    fn sum_reduce_matches_serial() {
        let n = PAR_THRESHOLD * 2;
        let amps: Vec<_> = (0..n).map(|i| c64((i % 13) as f64, 0.0)).collect();
        let serial = sum_reduce(&amps, false, |a, _| a.re);
        let parallel = sum_reduce(&amps, true, |a, _| a.re);
        assert!((serial - parallel).abs() < 1e-6 * serial.max(1.0));
    }

    #[test]
    fn sum_reduce_uses_index() {
        let amps = vec![c64(1.0, 0.0); 8];
        let s = sum_reduce(&amps, false, |_, i| i as f64);
        assert_eq!(s, 28.0);
    }
}
