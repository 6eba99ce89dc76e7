//! Dense statevector representation and gate-application kernels.
//!
//! Qubit `0` is the **least significant bit** of the basis-state index
//! (little-endian, matching Qiskit's convention so that circuits built by
//! the Qutes compiler behave identically to the paper's substrate).
//!
//! ```
//! use qutes_sim::{gates, StateVector};
//!
//! // Prepare a Bell pair and check its marginals.
//! let mut sv = StateVector::new(2).unwrap();
//! sv.apply_single(&gates::h(), 0).unwrap();
//! sv.apply_controlled(&gates::x(), &[0], 1).unwrap();
//! assert!((sv.probability_one(0).unwrap() - 0.5).abs() < 1e-12);
//! assert!((sv.probability_one(1).unwrap() - 0.5).abs() < 1e-12);
//! ```

use crate::complex::{c64, Complex64};
use crate::error::{SimError, SimResult};
use crate::gates::{Matrix2, Matrix4, Matrix8};
use crate::parallel::{self, Cube};
use qutes_supervisor::Interrupt;
use std::cell::RefCell;

/// Hard cap on dense simulation size: 2^28 amplitudes = 4 GiB of state.
pub const MAX_QUBITS: usize = 28;

/// Most bytes of freed amplitude storage one thread keeps for reuse.
/// It equals the live replay states a noisy walk may hold when its run
/// sets no memory budget (`NOISY_REPLAY_BYTES` in `qutes-qcirc`'s
/// grouped replay), so every state a walk frees comes back to the next.
/// A buffer that does not fit in what is left is freed.
pub const SPARE_BYTES: usize = 32 << 20;

/// Smallest buffer kept as a spare: 128 KiB (2^13 amplitudes), glibc's
/// default `M_MMAP_THRESHOLD`. A smaller buffer lives in the heap,
/// whose pages stay mapped once touched, so keeping it would save no
/// page fault and only hold memory other allocations could reuse (kept,
/// `grover_shots`' 10-qubit states raised its peak RSS by 0.8% on the
/// 2-vCPU reference VM).
const SPARE_MIN_BYTES: usize = 128 << 10;

/// The freed amplitude buffers of one thread, empty and kept for reuse,
/// so a request after the first takes its states from storage that is
/// already mapped instead of faulting fresh pages in.
struct Spares {
    bufs: Vec<Vec<Complex64>>,
    /// Bytes of capacity in `bufs`, at most [`SPARE_BYTES`].
    bytes: usize,
}

thread_local! {
    static SPARES: RefCell<Spares> = const {
        RefCell::new(Spares {
            bufs: Vec::new(),
            bytes: 0,
        })
    };
}

fn capacity_bytes(buf: &Vec<Complex64>) -> usize {
    buf.capacity() * std::mem::size_of::<Complex64>()
}

/// Takes this thread's smallest spare buffer holding at least `len`
/// amplitudes, empty, if there is one.
fn take_spare(len: usize) -> Option<Vec<Complex64>> {
    SPARES
        .try_with(|spares| {
            let mut spares = spares.borrow_mut();
            let (k, _) = (spares.bufs.iter().enumerate())
                .filter(|(_, b)| b.capacity() >= len)
                .min_by_key(|(_, b)| b.capacity())?;
            let buf = spares.bufs.swap_remove(k);
            spares.bytes -= capacity_bytes(&buf);
            Some(buf)
        })
        .ok()
        .flatten()
}

/// Keeps `buf` as one of this thread's spares when it holds at least
/// [`SPARE_MIN_BYTES`] and the set has room for it within
/// [`SPARE_BYTES`]; frees it otherwise.
fn give_back(mut buf: Vec<Complex64>) {
    let bytes = capacity_bytes(&buf);
    if bytes < SPARE_MIN_BYTES {
        return;
    }
    buf.clear();
    // During thread teardown the set may be gone; `buf` is then freed.
    let _ = SPARES.try_with(move |spares| {
        let mut spares = spares.borrow_mut();
        if spares.bytes + bytes <= SPARE_BYTES {
            spares.bytes += bytes;
            spares.bufs.push(buf);
        }
    });
}

/// Bytes of spare storage this thread holds.
#[cfg(test)]
pub(crate) fn spare_bytes() -> usize {
    SPARES.with(|spares| spares.borrow().bytes)
}

/// Grows `amps` to `len` amplitudes, the new ones zero. Past its
/// capacity, the amplitudes move into the smallest spare that fits and
/// the old buffer is given back; with no such spare the reservation is
/// pre-flighted with `try_reserve_exact`, so an allocator refusal
/// surfaces as [`SimError::AllocationFailed`] instead of an OOM abort.
fn extend_amps(amps: &mut Vec<Complex64>, len: usize) -> SimResult<()> {
    let bytes = len.saturating_mul(std::mem::size_of::<Complex64>());
    // The failpoint models refusal of a *statevector-sized* allocation,
    // whether a spare would serve it or not; the trivial
    // single-amplitude vector (the 0-qubit seed state every handler
    // starts from) is exempt so chaos injection cannot fault
    // infrastructure that allocates nothing of consequence.
    if len > 1 {
        qutes_supervisor::failpoint("sim.alloc")
            .map_err(|_| SimError::AllocationFailed { bytes })?;
    }
    if len > amps.capacity() {
        if let Some(mut spare) = take_spare(len) {
            spare.extend_from_slice(amps);
            give_back(std::mem::replace(amps, spare));
        } else {
            amps.try_reserve_exact(len - amps.len())
                .map_err(|_| SimError::AllocationFailed { bytes })?;
        }
    }
    amps.resize(len, Complex64::ZERO);
    Ok(())
}

/// Allocates a zeroed amplitude vector ([`extend_amps`] from empty).
fn alloc_amps(len: usize) -> SimResult<Vec<Complex64>> {
    let mut amps = Vec::new();
    extend_amps(&mut amps, len)?;
    Ok(amps)
}

/// A pure quantum state over `n` qubits stored as `2^n` complex amplitudes.
///
/// Uncontrolled X gates are not applied to the amplitudes: they toggle a
/// bit of a pending X mask, the *frame*. The state is `X^flip` applied to
/// the stored amplitudes, so the amplitude of basis state `i` is stored
/// at `i ^ flip`. The gate kernels read and write through the frame
/// exactly; anything that sums or rewrites amplitudes in index order
/// first settles it ([`Self::settle`]) in one swap pass.
///
/// The state keeps an affine *support* in stored-index coordinates: the
/// mask `free` of the bits its amplitudes may vary in and the values
/// `base` of all other bits. Every stored amplitude whose index `i` has
/// `i & !free != base` is zero, so each kernel visits only the indices
/// the support and the gate's own wires and controls admit; a dense
/// state is the case `free` = every bit. The support is an
/// over-approximation kept by cheap rules: a new or grown qubit is
/// fixed at 0; a diagonal gate keeps the support; a gate whose controls
/// are fixed acts as a no-op or as the uncontrolled gate; an
/// anti-diagonal gate on a fixed target with fixed controls toggles the
/// target's `base` bit, and any other gate frees its target (a swap,
/// its two wires, unless both are fixed and its controls too, when it
/// exchanges their `base` bits; a fused gate, all its wires); a collapse
/// fixes its qubit; settling the frame toggles the flipped fixed bits of
/// `base`. A kernel computes every amplitude it visits exactly as a
/// dense sweep does, and a skipped amplitude is zero, so every nonzero
/// amplitude and every sum equals the dense result bit for bit; only the
/// sign of a zero may differ.
///
/// The amplitudes live in storage recycled per thread: a new state, a
/// clone or a growth past capacity takes a spare buffer of this thread
/// when one fits, and a dropped state gives its buffer back when it is
/// large enough to keep ([`SPARE_BYTES`] bounds what a thread holds).
#[derive(Debug)]
pub struct StateVector {
    n: usize,
    amps: Vec<Complex64>,
    /// The pending X mask: bit `q` set when qubit `q` is flipped.
    flip: usize,
    /// The stored-index bits the nonzero amplitudes may vary in.
    free: usize,
    /// The stored-index bits outside `free` of every nonzero amplitude
    /// (no bit of `free` set).
    base: usize,
    parallel: bool,
    /// Cooperative cancellation handle checked (amortised) inside the
    /// strided kernels. Unarmed by default: a single relaxed load.
    interrupt: Interrupt,
}

impl Clone for StateVector {
    /// Copies the amplitudes into a spare buffer of this thread when one
    /// fits.
    fn clone(&self) -> Self {
        let len = self.amps.len();
        let mut amps = take_spare(len).unwrap_or_else(|| Vec::with_capacity(len));
        amps.extend_from_slice(&self.amps);
        StateVector {
            n: self.n,
            amps,
            flip: self.flip,
            free: self.free,
            base: self.base,
            parallel: self.parallel,
            interrupt: self.interrupt.clone(),
        }
    }
}

impl Drop for StateVector {
    /// Gives the amplitude buffer back to this thread's spares.
    fn drop(&mut self) {
        give_back(std::mem::take(&mut self.amps));
    }
}

impl StateVector {
    /// Creates the all-zeros basis state `|0...0>` on `n` qubits.
    pub fn new(n: usize) -> SimResult<Self> {
        if n > MAX_QUBITS {
            return Err(SimError::TooManyQubits(n));
        }
        let mut amps = alloc_amps(1usize << n)?;
        amps[0] = Complex64::ONE;
        Ok(StateVector {
            n,
            amps,
            flip: 0,
            free: 0,
            base: 0,
            parallel: true,
            interrupt: Interrupt::new(),
        })
    }

    /// Creates the computational basis state `|index>` on `n` qubits.
    pub fn from_basis_state(n: usize, index: usize) -> SimResult<Self> {
        let mut sv = Self::new(n)?;
        if index >= sv.amps.len() {
            return Err(SimError::InvalidState(format!(
                "basis index {index} out of range for {n} qubits"
            )));
        }
        sv.amps[0] = Complex64::ZERO;
        sv.amps[index] = Complex64::ONE;
        sv.base = index;
        Ok(sv)
    }

    /// Builds a state from explicit amplitudes. The length must be a power
    /// of two and the vector must be normalised to within `1e-6`. The
    /// support is the least one holding every nonzero amplitude.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> SimResult<Self> {
        if amps.is_empty() || !amps.len().is_power_of_two() {
            return Err(SimError::InvalidState(format!(
                "amplitude count {} is not a power of two",
                amps.len()
            )));
        }
        let n = amps.len().trailing_zeros() as usize;
        if n > MAX_QUBITS {
            return Err(SimError::TooManyQubits(n));
        }
        // The bits every nonzero index has set, and those any has set.
        let (mut all, mut any) = (usize::MAX, 0);
        let norm: f64 = (amps.iter().enumerate())
            .map(|(i, a)| {
                if *a != Complex64::ZERO {
                    all &= i;
                    any |= i;
                }
                a.norm_sqr()
            })
            .sum();
        if (norm - 1.0).abs() > 1e-6 {
            return Err(SimError::InvalidState(format!(
                "state norm^2 is {norm}, expected 1"
            )));
        }
        Ok(StateVector {
            n,
            amps,
            flip: 0,
            free: any & !all,
            base: all,
            parallel: true,
            interrupt: Interrupt::new(),
        })
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of amplitudes (`2^n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.amps.len()
    }

    /// Always false: a statevector has at least one amplitude.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Read-only view of the amplitudes, in basis-index order. Settles
    /// the frame first, hence `&mut`.
    pub fn amplitudes(&mut self) -> &[Complex64] {
        self.settle();
        &self.amps
    }

    /// The amplitude of basis state `index`.
    #[inline]
    pub fn amplitude(&self, index: usize) -> Complex64 {
        self.amps[index ^ self.flip]
    }

    /// The amplitudes in basis-index order, read through the frame.
    fn frame_amps(&self) -> impl Iterator<Item = Complex64> + '_ {
        (0..self.amps.len()).map(move |i| self.amps[i ^ self.flip])
    }

    /// The stored indices that may hold a nonzero amplitude.
    #[inline]
    fn support(&self) -> Cube {
        Cube {
            fixed: !self.free & (self.amps.len() - 1),
            value: self.base,
        }
    }

    /// The basis indices that may hold a nonzero amplitude: the support
    /// read through the frame.
    fn basis_support(&self) -> Cube {
        let sup = self.support();
        Cube {
            fixed: sup.fixed,
            value: sup.value ^ (self.flip & sup.fixed),
        }
    }

    /// Lets the amplitudes vary in the stored bits `bits`.
    fn free_bits(&mut self, bits: usize) {
        self.free |= bits;
        self.base &= !bits;
    }

    /// Asserts the support's invariant: every stored amplitude outside
    /// it is zero.
    #[cfg(test)]
    pub(crate) fn check_support(&self) {
        let sup = self.support();
        assert_eq!(self.free & self.base, 0, "free and base overlap");
        assert!(self.base < self.amps.len() && self.free < self.amps.len());
        for (i, a) in self.amps.iter().enumerate() {
            assert!(
                i & sup.fixed == sup.value || *a == Complex64::ZERO,
                "amplitude {i} is {a:?} outside the support {sup:?}"
            );
        }
    }

    /// Widens the support to every bit: the dense state the support
    /// tests compare against.
    #[cfg(test)]
    pub(crate) fn widen_support(&mut self) {
        self.free_bits(self.amps.len() - 1);
    }

    /// Applies the pending X frame to the stored amplitudes, so that the
    /// amplitude of basis state `i` is stored at `i`: one pass swapping
    /// each support index `i` with `i ^ flip`, timed as `kernel.settle`.
    /// The flipped bits the support fixes toggle in `base`. A no-op when
    /// no qubit is flipped.
    pub fn settle(&mut self) {
        let flip = std::mem::take(&mut self.flip);
        if flip == 0 {
            return;
        }
        let t0 = qutes_obs::maybe_now();
        // Each pair lies in one aligned block of twice the highest
        // flipped bit. When the frame flips only free bits, the support
        // maps onto itself and each pair is visited from its index in
        // the lower half; otherwise the support maps onto indices outside
        // it and each pair is visited from its index in the support.
        let sup = self.support();
        let half = 1usize << flip.ilog2();
        let block = half << 1;
        let moved = flip & sup.fixed;
        let anchors = if moved == 0 {
            Cube {
                fixed: sup.fixed | half,
                value: sup.value,
            }
        } else {
            sup
        };
        let lo = anchors.within(block);
        let low = flip & (half - 1);
        // The sweep cannot fail without an interrupt handle.
        let _ = parallel::for_each_block(
            &mut self.amps,
            Some(anchors),
            block,
            2,
            self.parallel,
            None,
            |chunk, _| {
                for tile in chunk.chunks_exact_mut(block) {
                    if lo.fixed == half {
                        let (zeros, ones) = tile.split_at_mut(half);
                        for (k, a) in zeros.iter_mut().enumerate() {
                            std::mem::swap(a, &mut ones[k ^ low]);
                        }
                    } else {
                        let mut k = lo.value;
                        while k < block {
                            tile.swap(k, k ^ flip);
                            k = lo.next(k);
                        }
                    }
                }
            },
        );
        self.base ^= moved;
        if let Some(t0) = t0 {
            qutes_obs::record_duration("kernel.settle", t0.elapsed());
        }
    }

    /// Appends `extra` qubits in `|0>` as the new highest bits, growing
    /// the amplitude vector in place while its capacity allows, else
    /// into a spare or a reallocation (timed as `kernel.grow`). The new
    /// qubits hold no flip, so the frame carries over unchanged.
    pub fn grow(&mut self, extra: usize) -> SimResult<()> {
        let n = self.n + extra;
        if n > MAX_QUBITS {
            return Err(SimError::TooManyQubits(n));
        }
        if extra == 0 {
            return Ok(());
        }
        let t0 = qutes_obs::maybe_now();
        extend_amps(&mut self.amps, 1usize << n)?;
        self.n = n;
        if let Some(t0) = t0 {
            qutes_obs::record_duration("kernel.grow", t0.elapsed());
        }
        Ok(())
    }

    /// Enables or disables multi-threaded kernels (used by the E7/E8
    /// ablation benchmarks; on by default, and only engaged for states
    /// above [`parallel::PAR_THRESHOLD`] amplitudes).
    pub fn set_parallel(&mut self, on: bool) {
        self.parallel = on;
    }

    /// Whether parallel kernels are enabled.
    pub fn parallel_enabled(&self) -> bool {
        self.parallel
    }

    /// Installs a shared [`Interrupt`] handle; the strided kernels then
    /// perform an amortised deadline/cancel check every
    /// [`parallel::CHECK_STRIDE`] amplitudes and return
    /// [`SimError::Interrupted`] once it trips.
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.interrupt = interrupt;
    }

    /// The interrupt handle driving kernel checkpoints.
    pub fn interrupt(&self) -> &Interrupt {
        &self.interrupt
    }

    fn check_qubit(&self, q: usize) -> SimResult<()> {
        if q >= self.n {
            Err(SimError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.n,
            })
        } else {
            Ok(())
        }
    }

    /// Fails with the first qubit of `head` followed by `tail` that is
    /// listed again later, without building the joined list.
    fn check_distinct(head: &[usize], tail: &[usize]) -> SimResult<()> {
        let listed = || head.iter().chain(tail);
        for (k, &a) in listed().enumerate() {
            if listed().skip(k + 1).any(|&b| b == a) {
                return Err(SimError::DuplicateQubit(a));
            }
        }
        Ok(())
    }

    /// Applies a single-qubit unitary to `target`.
    pub fn apply_single(&mut self, m: &Matrix2, target: usize) -> SimResult<()> {
        self.apply_controlled(m, &[], target)
    }

    /// Applies a single-qubit unitary to `target`, conditioned on every
    /// qubit in `controls` being `|1>`. An empty control list is an
    /// unconditional application.
    ///
    /// The matrix's exact entries pick what each amplitude pair gets,
    /// once per call: an anti-diagonal matrix swaps the pair (X), with
    /// phases when an entry is not 1 (Y); a diagonal one scales only the
    /// sides whose entry is not 1 (Z, S, T, phase); any other matrix
    /// takes the 2×2 product, on real scalars when every entry is real.
    /// The products skipped only ever add exact zeros, so the amplitudes
    /// equal the full product's under `==`.
    ///
    /// The sweep visits only the pairs in the support. A control the
    /// support fixes makes the call a no-op when it is `|0>` and drops
    /// out when it is `|1>`, and a diagonal matrix whose entry for a
    /// fixed target's value is 1 is a no-op. An X left uncontrolled only
    /// toggles the target's frame bit. Every other matrix sweeps through
    /// the frame, computing each amplitude exactly as it would on the
    /// settled state.
    pub fn apply_controlled(
        &mut self,
        m: &Matrix2,
        controls: &[usize],
        target: usize,
    ) -> SimResult<()> {
        self.check_qubit(target)?;
        for &c in controls {
            self.check_qubit(c)?;
        }
        Self::check_distinct(controls, &[target])?;
        let t0 = qutes_obs::maybe_now();

        let (zero, one) = (Complex64::ZERO, Complex64::ONE);
        let [[m00, m01], [m10, m11]] = m.m;
        let anti = m00 == zero && m11 == zero;
        let diag = m01 == zero && m10 == zero;
        let tbit = 1usize << target;
        // The stored value each control needs: 1, or 0 where flipped.
        let ctrl = controls.iter().fold(0usize, |m, &c| m | 1 << c);
        let need = ctrl & !self.flip;
        let live = (self.base ^ need) & ctrl & !self.free == 0;
        let ctrl = ctrl & self.free;
        let fixed_target = self.free & tbit == 0;
        // The basis value of a fixed target picks the one diagonal entry
        // its amplitudes meet.
        let entry = if (self.base ^ self.flip) & tbit == 0 {
            m00
        } else {
            m11
        };
        let anchors = if !live || (diag && fixed_target && entry == one) {
            None
        } else if anti && m01 == one && m10 == one && ctrl == 0 {
            self.flip ^= tbit;
            if let Some(t0) = t0.filter(|_| !controls.is_empty()) {
                qutes_obs::record_duration("kernel.controlled", t0.elapsed());
            }
            return Ok(());
        } else {
            if anti && fixed_target && ctrl == 0 {
                self.base ^= tbit;
            } else if !diag {
                self.free_bits(tbit);
            }
            let sup = self.support();
            Some(Cube {
                fixed: sup.fixed | tbit | ctrl,
                value: (sup.value & !tbit) | (need & ctrl),
            })
        };
        if anti {
            if m01 == one && m10 == one {
                self.sweep_pairs(anchors, target, std::mem::swap)?;
            } else {
                self.sweep_pairs(anchors, target, move |a, b| {
                    let x = *a;
                    *a = m01 * *b;
                    *b = m10 * x;
                })?;
            }
        } else if diag {
            match (m00 == one, m11 == one) {
                (true, true) => self.sweep_pairs(anchors, target, move |_, _| {})?,
                (true, false) if m11.im == 0.0 => {
                    self.sweep_pairs(anchors, target, move |_, b| *b = b.scale(m11.re))?
                }
                (true, false) => self.sweep_pairs(anchors, target, move |_, b| *b = m11 * *b)?,
                (false, true) => self.sweep_pairs(anchors, target, move |a, _| *a = m00 * *a)?,
                (false, false) => self.sweep_pairs(anchors, target, move |a, b| {
                    *a = m00 * *a;
                    *b = m11 * *b;
                })?,
            }
        } else if m.m.iter().flatten().all(|e| e.im == 0.0) {
            // Entirely real matrices (H, RY, and their fused products)
            // take 6 flops per amplitude instead of 14, which matters
            // because the single-core sweep is compute-bound.
            let (r00, r01, r10, r11) = (m00.re, m01.re, m10.re, m11.re);
            self.sweep_pairs(anchors, target, move |a, b| {
                let (x, y) = (*a, *b);
                *a = c64(r00 * x.re + r01 * y.re, r00 * x.im + r01 * y.im);
                *b = c64(r10 * x.re + r11 * y.re, r10 * x.im + r11 * y.im);
            })?;
        } else {
            self.sweep_pairs(anchors, target, move |a, b| {
                let (x, y) = (*a, *b);
                *a = m00 * x + m01 * y;
                *b = m10 * x + m11 * y;
            })?;
        }
        if let Some(t0) = t0 {
            let name = if controls.is_empty() {
                "kernel.1q"
            } else {
                "kernel.controlled"
            };
            qutes_obs::record_duration(name, t0.elapsed());
        }
        Ok(())
    }

    /// The one single-target sweep: calls `op(a, b)` on the amplitudes
    /// `a`, `b` of basis states `(i, i | 1 << target)` for every stored
    /// anchor `i` in `anchors` (`None`: none), which all have the
    /// target bit clear.
    ///
    /// It reads through the frame: when the target is flipped, `i` is
    /// stored in the upper half of its stored pair, so `op` gets the pair
    /// swapped back and each amplitude is computed exactly as on the
    /// settled state (the same as sweeping the matrix conjugated by X).
    fn sweep_pairs<F>(&mut self, anchors: Option<Cube>, target: usize, op: F) -> SimResult<()>
    where
        F: Fn(&mut Complex64, &mut Complex64) + Sync,
    {
        if self.flip >> target & 1 == 1 {
            self.sweep_stored(anchors, target, move |a, b| op(b, a))
        } else {
            self.sweep_stored(anchors, target, op)
        }
    }

    /// Calls `op(a, b)` on every stored amplitude pair
    /// `(i, i | 1 << target)` with `i` in `anchors`.
    ///
    /// The anchor bits above the target select whole blocks, which the
    /// driver enumerates; those below it are enumerated by a masked
    /// increment, so no loop tests a mask per amplitude. Blocks of up to
    /// 16 amplitudes (targets 0 to 3) walk fixed-size tiles
    /// ([`sweep_tiles`]) instead of splitting each block into short
    /// halves.
    fn sweep_stored<F>(&mut self, anchors: Option<Cube>, target: usize, op: F) -> SimResult<()>
    where
        F: Fn(&mut Complex64, &mut Complex64) + Sync,
    {
        let half = 1usize << target;
        let block = half << 1;
        let lo = anchors.map_or(Cube::ALL, |a| a.within(half));
        parallel::for_each_block(
            &mut self.amps,
            anchors,
            block,
            2,
            self.parallel,
            Some(&self.interrupt),
            |chunk, _| match block {
                2 => sweep_tiles::<2, _>(chunk, lo, &op),
                4 => sweep_tiles::<4, _>(chunk, lo, &op),
                8 => sweep_tiles::<8, _>(chunk, lo, &op),
                16 => sweep_tiles::<16, _>(chunk, lo, &op),
                _ => {
                    for tile in chunk.chunks_exact_mut(block) {
                        let (zeros, ones) = tile.split_at_mut(half);
                        if lo.fixed == 0 {
                            for (a, b) in zeros.iter_mut().zip(ones.iter_mut()) {
                                op(a, b);
                            }
                        } else {
                            let mut k = lo.value;
                            while k < half {
                                op(&mut zeros[k], &mut ones[k]);
                                k = lo.next(k);
                            }
                        }
                    }
                }
            },
        )
        .map_err(SimError::Interrupted)
    }

    /// Swaps qubits `a` and `b` (the SWAP gate).
    pub fn apply_swap(&mut self, a: usize, b: usize) -> SimResult<()> {
        self.apply_controlled_swap(&[], a, b)
    }

    /// Controlled swap (Fredkin with arbitrarily many controls). Settles
    /// the frame first. Controls the support fixes make the call a no-op
    /// or drop out; two fixed wires holding different values exchange
    /// their `base` bits when no control is free; otherwise both wires
    /// are freed.
    pub fn apply_controlled_swap(
        &mut self,
        controls: &[usize],
        a: usize,
        b: usize,
    ) -> SimResult<()> {
        self.check_qubit(a)?;
        self.check_qubit(b)?;
        for &c in controls {
            self.check_qubit(c)?;
        }
        Self::check_distinct(controls, &[a, b])?;
        self.settle();
        let t0 = qutes_obs::maybe_now();

        let ctrl = controls.iter().fold(0usize, |m, &c| m | 1 << c);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let lo_bit = 1usize << lo;
        let hi_bit = 1usize << hi;
        let wires = lo_bit | hi_bit;
        let sup = self.support();
        let live = (sup.value ^ ctrl) & ctrl & sup.fixed == 0;
        let ctrl = ctrl & !sup.fixed;
        let fixed_wires = wires & sup.fixed == wires;
        let same = (sup.value & lo_bit != 0) == (sup.value & hi_bit != 0);
        // Pairs (i, j) with i having lo=1,hi=0 and j = i ^ lo_bit ^ hi_bit
        // both live in the aligned block of size 2^(hi+1); the sweep
        // visits each from its `i`.
        let anchors = if !live || (fixed_wires && same) {
            None
        } else {
            if fixed_wires && ctrl == 0 {
                self.base ^= wires;
            } else {
                self.free_bits(wires);
            }
            Some(Cube {
                fixed: sup.fixed | wires | ctrl,
                value: (sup.value & !wires) | lo_bit | ctrl,
            })
        };
        let block = hi_bit << 1;
        let inner = anchors.map_or(Cube::ALL, |c| c.within(block));
        parallel::for_each_block(
            &mut self.amps,
            anchors,
            block,
            2,
            self.parallel,
            Some(&self.interrupt),
            |chunk, _| {
                for tile in chunk.chunks_exact_mut(block) {
                    let (low, high) = tile.split_at_mut(hi_bit);
                    let mut k = inner.value;
                    while k < hi_bit {
                        std::mem::swap(&mut low[k], &mut high[k - lo_bit]);
                        k = inner.next(k);
                    }
                }
            },
        )
        .map_err(SimError::Interrupted)?;
        if let Some(t0) = t0 {
            let name = if controls.is_empty() {
                "kernel.swap"
            } else {
                "kernel.cswap"
            };
            qutes_obs::record_duration(name, t0.elapsed());
        }
        Ok(())
    }

    /// Applies an arbitrary two-qubit unitary given as a 4x4 row-major
    /// matrix over basis ordering `|q1 q0>` (q0 = least significant).
    /// Primarily used by tests and decomposition cross-checks; the
    /// optimizer's fused gates go through [`Self::apply_two_fused`].
    pub fn apply_two(&mut self, m: &[[Complex64; 4]; 4], q0: usize, q1: usize) -> SimResult<()> {
        self.apply4(m, q0, q1, "kernel.2q_matrix")
    }

    /// Applies a fused two-qubit unitary (a [`Matrix4`] built by the
    /// level-2 optimizer) over basis ordering `|q1 q0>`.
    pub fn apply_two_fused(&mut self, m: &Matrix4, q0: usize, q1: usize) -> SimResult<()> {
        self.apply4(&m.m, q0, q1, "kernel.2q_fused")
    }

    /// Shared cache-blocked 4x4 kernel: a masked increment over the
    /// anchors (both wire bits clear) in each aligned block, no
    /// per-amplitude bit tests. Both wires join the support's free bits.
    /// It reads through the frame: matrix row `r` gathers from the stored
    /// offset of `r` with the wires' frame bits flipped, and the sums keep
    /// their order.
    fn apply4(
        &mut self,
        m: &[[Complex64; 4]; 4],
        q0: usize,
        q1: usize,
        timer: &'static str,
    ) -> SimResult<()> {
        self.check_qubit(q0)?;
        self.check_qubit(q1)?;
        Self::check_distinct(&[q0, q1], &[])?;
        let t0 = qutes_obs::maybe_now();
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        let block = b0.max(b1) << 1;
        self.free_bits(b0 | b1);
        let sup = self.support();
        let anchors = Cube {
            fixed: sup.fixed | b0 | b1,
            value: sup.value,
        };
        let inner = anchors.within(block);
        let fr = self.wire_flips(&[q0, q1]);
        let offs: [usize; 4] = std::array::from_fn(|r| {
            let r = r ^ fr;
            (r & 1) * b0 + ((r >> 1) & 1) * b1
        });
        let m = *m;
        // Real fused products (H/X/RY runs around CX) use the scalar fast
        // path — the sweep is compute-bound on a single core.
        let real = m.iter().flatten().all(|e| e.im == 0.0);
        let mut mr = [[0.0f64; 4]; 4];
        for (rr, row) in mr.iter_mut().zip(m.iter()) {
            for (e, c) in rr.iter_mut().zip(row.iter()) {
                *e = c.re;
            }
        }

        parallel::for_each_block(
            &mut self.amps,
            Some(anchors),
            block,
            4,
            self.parallel,
            Some(&self.interrupt),
            |chunk, _| {
                for tile in chunk.chunks_exact_mut(block) {
                    let mut i = inner.value;
                    while i < block {
                        let v = offs.map(|o| tile[i + o]);
                        if real {
                            for (r, row) in mr.iter().enumerate() {
                                let acc = c64(
                                    row[0] * v[0].re
                                        + row[1] * v[1].re
                                        + row[2] * v[2].re
                                        + row[3] * v[3].re,
                                    row[0] * v[0].im
                                        + row[1] * v[1].im
                                        + row[2] * v[2].im
                                        + row[3] * v[3].im,
                                );
                                tile[i + offs[r]] = acc;
                            }
                        } else {
                            for (r, row) in m.iter().enumerate() {
                                let acc =
                                    row[0] * v[0] + row[1] * v[1] + row[2] * v[2] + row[3] * v[3];
                                tile[i + offs[r]] = acc;
                            }
                        }
                        i = inner.next(i);
                    }
                }
            },
        )
        .map_err(SimError::Interrupted)?;
        if let Some(t0) = t0 {
            qutes_obs::record_duration(timer, t0.elapsed());
        }
        Ok(())
    }

    /// The frame bits of `wires` as a matrix index: bit `k` is the frame
    /// bit of `wires[k]`.
    fn wire_flips(&self, wires: &[usize]) -> usize {
        wires
            .iter()
            .enumerate()
            .fold(0, |acc, (k, &q)| acc | (self.flip >> q & 1) << k)
    }

    /// Applies a fused three-qubit unitary (a [`Matrix8`] built by the
    /// level-2 optimizer) over basis ordering `|q2 q1 q0>` (q0 = least
    /// significant bit of the matrix index).
    pub fn apply_three(&mut self, m: &Matrix8, q0: usize, q1: usize, q2: usize) -> SimResult<()> {
        self.check_qubit(q0)?;
        self.check_qubit(q1)?;
        self.check_qubit(q2)?;
        Self::check_distinct(&[q0, q1, q2], &[])?;
        let t0 = qutes_obs::maybe_now();
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        let b2 = 1usize << q2;
        let block = b0.max(b1).max(b2) << 1;
        self.free_bits(b0 | b1 | b2);
        let sup = self.support();
        let anchors = Cube {
            fixed: sup.fixed | b0 | b1 | b2,
            value: sup.value,
        };
        let inner = anchors.within(block);
        // Gather offset of matrix row/column r relative to the base index,
        // read through the frame as in `apply4`.
        let fr = self.wire_flips(&[q0, q1, q2]);
        let offs: [usize; 8] = std::array::from_fn(|r| {
            let r = r ^ fr;
            (r & 1) * b0 + ((r >> 1) & 1) * b1 + ((r >> 2) & 1) * b2
        });
        let m = m.clone();
        // Real fused products take the scalar fast path (half the flops;
        // the sweep is compute-bound on a single core).
        let real = m.m.iter().flatten().all(|e| e.im == 0.0);
        let mut mr = [[0.0f64; 8]; 8];
        for (rr, row) in mr.iter_mut().zip(m.m.iter()) {
            for (e, c) in rr.iter_mut().zip(row.iter()) {
                *e = c.re;
            }
        }

        parallel::for_each_block(
            &mut self.amps,
            Some(anchors),
            block,
            8,
            self.parallel,
            Some(&self.interrupt),
            |chunk, _| {
                for tile in chunk.chunks_exact_mut(block) {
                    // The anchors (all three wire bits clear) by a masked
                    // increment, with no per-index tests.
                    let mut i = inner.value;
                    while i < block {
                        let mut v = [Complex64::ZERO; 8];
                        for (x, &o) in v.iter_mut().zip(offs.iter()) {
                            *x = tile[i + o];
                        }
                        if real {
                            for (row, &o) in mr.iter().zip(offs.iter()) {
                                let mut re = 0.0;
                                let mut im = 0.0;
                                for (coef, x) in row.iter().zip(v.iter()) {
                                    re += coef * x.re;
                                    im += coef * x.im;
                                }
                                tile[i + o] = c64(re, im);
                            }
                        } else {
                            for (row, &o) in m.m.iter().zip(offs.iter()) {
                                let mut acc = Complex64::ZERO;
                                for (coef, x) in row.iter().zip(v.iter()) {
                                    acc += *coef * *x;
                                }
                                tile[i + o] = acc;
                            }
                        }
                        i = inner.next(i);
                    }
                }
            },
        )
        .map_err(SimError::Interrupted)?;
        if let Some(t0) = t0 {
            qutes_obs::record_duration("kernel.3q_fused", t0.elapsed());
        }
        Ok(())
    }

    /// Multiplies every amplitude whose basis index satisfies `pred` by -1.
    ///
    /// This is the *simulator-level phase oracle* used to cross-check the
    /// gate-level Grover oracles (DESIGN.md §6). `pred` receives the full
    /// basis index (the stored index read through the frame). Only the
    /// support is visited.
    pub fn apply_phase_flip_where<F>(&mut self, pred: F)
    where
        F: Fn(usize) -> bool + Sync,
    {
        let t0 = qutes_obs::maybe_now();
        let flip = self.flip;
        self.map_support(|a, i| {
            if pred(i ^ flip) {
                *a = -*a;
            }
        });
        if let Some(t0) = t0 {
            qutes_obs::record_duration("kernel.phase_oracle", t0.elapsed());
        }
    }

    /// Multiplies the whole state by `e^{i theta}` (unobservable global
    /// phase; kept for exactness of composed-circuit tests).
    pub fn apply_global_phase(&mut self, theta: f64) {
        let p = Complex64::cis(theta);
        self.map_support(|a, _| *a *= p);
    }

    /// Calls `f(amplitude, stored_index)` on every amplitude of the
    /// support.
    fn map_support<F>(&mut self, f: F)
    where
        F: Fn(&mut Complex64, usize) + Sync,
    {
        let sup = self.support();
        // The sweep cannot fail without an interrupt handle.
        let _ = parallel::for_each_block(
            &mut self.amps,
            Some(sup),
            1,
            1,
            self.parallel,
            None,
            |chunk, offset| {
                for (i, a) in chunk.iter_mut().enumerate() {
                    f(a, offset + i);
                }
            },
        );
    }

    /// Squared norm of the state (should always be ~1), summed in
    /// basis-index order through the frame over the support.
    pub fn norm_sqr(&self) -> f64 {
        let flip = self.flip;
        parallel::sum_reduce(
            self.amps.len(),
            Some(self.basis_support()),
            self.parallel,
            |i| self.amps[i ^ flip].norm_sqr(),
        )
    }

    /// Rescales the state to unit norm. Returns an error if the norm is
    /// numerically zero (which indicates a logic error upstream, e.g.
    /// conditioning on an impossible measurement outcome).
    pub fn renormalize(&mut self) -> SimResult<()> {
        let n = self.norm_sqr();
        if n <= 1e-300 {
            return Err(SimError::InvalidState(
                "cannot renormalise a zero state".into(),
            ));
        }
        let s = 1.0 / n.sqrt();
        self.map_support(|a, _| *a = a.scale(s));
        Ok(())
    }

    /// Probability that measuring `qubit` yields `1`: the squared norms
    /// of the support's indices with the qubit's bit set, summed in index
    /// order within each chunk of the split [`parallel::sum_reduce`] makes
    /// by vector length. The other indices would only add exact zeros,
    /// so they are not visited. It settles the frame first, hence `&mut`.
    pub fn probability_one(&mut self, qubit: usize) -> SimResult<f64> {
        self.check_qubit(qubit)?;
        self.settle();
        let t0 = qutes_obs::maybe_now();
        let bit = 1usize << qubit;
        let sup = self.support();
        let ones = (sup.value & bit != 0 || sup.fixed & bit == 0).then_some(Cube {
            fixed: sup.fixed | bit,
            value: sup.value | bit,
        });
        let p1 = parallel::sum_reduce(self.amps.len(), ones, self.parallel, |i| {
            self.amps[i].norm_sqr()
        });
        if let Some(t0) = t0 {
            qutes_obs::record_duration("kernel.measure", t0.elapsed());
        }
        Ok(p1)
    }

    /// Probability of observing `outcome` (bit `k` of `outcome` is the
    /// result for `qubits[k]`) when measuring `qubits` jointly.
    pub fn probability_of_outcome(&self, qubits: &[usize], outcome: usize) -> SimResult<f64> {
        for &q in qubits {
            self.check_qubit(q)?;
        }
        Self::check_distinct(qubits, &[])?;
        let flip = self.flip;
        Ok(parallel::sum_reduce(
            self.amps.len(),
            Some(self.basis_support()),
            self.parallel,
            |i| {
                let a = self.amps[i ^ flip];
                let mut obs = 0usize;
                for (k, &q) in qubits.iter().enumerate() {
                    obs |= ((i >> q) & 1) << k;
                }
                if obs == outcome {
                    a.norm_sqr()
                } else {
                    0.0
                }
            },
        ))
    }

    /// Full probability distribution over all `2^n` basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.frame_amps().map(|a| a.norm_sqr()).collect()
    }

    /// Marginal distribution over a subset of qubits, as a dense vector of
    /// length `2^qubits.len()` (bit `k` of the index = `qubits[k]`). The
    /// nonzero weights of the support are added in basis-index order.
    pub fn marginal_probabilities(&self, qubits: &[usize]) -> SimResult<Vec<f64>> {
        for &q in qubits {
            self.check_qubit(q)?;
        }
        Self::check_distinct(qubits, &[])?;
        let mut out = vec![0.0f64; 1usize << qubits.len()];
        for i in self.basis_support().indices(self.amps.len()) {
            let p = self.amps[i ^ self.flip].norm_sqr();
            if p > 0.0 {
                let mut obs = 0usize;
                for (k, &q) in qubits.iter().enumerate() {
                    obs |= ((i >> q) & 1) << k;
                }
                out[obs] += p;
            }
        }
        Ok(out)
    }

    /// `<self|other>`.
    pub fn inner_product(&self, other: &StateVector) -> SimResult<Complex64> {
        if self.n != other.n {
            return Err(SimError::InvalidState(format!(
                "inner product of {}-qubit and {}-qubit states",
                self.n, other.n
            )));
        }
        Ok(self
            .frame_amps()
            .zip(other.frame_amps())
            .map(|(a, b)| a.conj() * b)
            .sum())
    }

    /// Fidelity `|<self|other>|^2`.
    pub fn fidelity(&self, other: &StateVector) -> SimResult<f64> {
        Ok(self.inner_product(other)?.norm_sqr())
    }

    /// Expectation value of Pauli-Z on `qubit`: `P(0) - P(1)`.
    pub fn expectation_z(&mut self, qubit: usize) -> SimResult<f64> {
        let p1 = self.probability_one(qubit)?;
        Ok(1.0 - 2.0 * p1)
    }

    /// Tensor product `other ⊗ self`: `other`'s qubits become the high
    /// bits. Used to build composite test fixtures. The product of the
    /// stored amplitudes carries both frames and both supports.
    pub fn tensor(&self, other: &StateVector) -> SimResult<StateVector> {
        let n = self.n + other.n;
        if n > MAX_QUBITS {
            return Err(SimError::TooManyQubits(n));
        }
        let mut amps = alloc_amps(1usize << n)?;
        for j in other.support().indices(other.amps.len()) {
            let b = other.amps[j];
            if b == Complex64::ZERO {
                continue;
            }
            for i in self.support().indices(self.amps.len()) {
                amps[(j << self.n) | i] = self.amps[i] * b;
            }
        }
        Ok(StateVector {
            n,
            amps,
            flip: self.flip | other.flip << self.n,
            free: self.free | other.free << self.n,
            base: self.base | other.base << self.n,
            parallel: self.parallel,
            interrupt: self.interrupt.clone(),
        })
    }

    /// Collapses the state so `qubit` reads `value`, renormalising.
    /// Returns the probability the outcome had before collapse.
    pub fn collapse_qubit(&mut self, qubit: usize, value: bool) -> SimResult<f64> {
        let p1 = self.probability_one(qubit)?;
        self.collapse_given(qubit, value, p1)
    }

    /// [`Self::collapse_qubit`] for a caller that already holds `p1`, the
    /// [`Self::probability_one`] of `qubit` in the current state: one
    /// sweep over the support zeroes the dropped half and scales the kept
    /// half, after settling the frame; the support then fixes `qubit` at
    /// `value`. Returns the probability the outcome had before collapse.
    pub fn collapse_given(&mut self, qubit: usize, value: bool, p1: f64) -> SimResult<f64> {
        self.check_qubit(qubit)?;
        self.settle();
        let p = if value { p1 } else { 1.0 - p1 };
        if p <= 1e-12 {
            return Err(SimError::InvalidState(format!(
                "collapse of qubit {qubit} to {} has probability ~0",
                value as u8
            )));
        }
        let t0 = qutes_obs::maybe_now();
        let s = 1.0 / p.sqrt();
        let half = 1usize << qubit;
        let sup = self.support();
        let anchors = Some(Cube {
            fixed: sup.fixed | half,
            value: sup.value & !half,
        });
        self.free &= !half;
        self.base = (self.base & !half) | usize::from(value) << qubit;
        // Short halves take the pair sweep's fixed-size tiles, where a
        // `fill` call per half would dominate. Long halves the support
        // spans are zeroed and then scaled as two sequential streams,
        // about twice as fast as the pair sweep's interleaved writes
        // 2^qubit amplitudes apart.
        if half < 8 || sup.fixed & (half - 1) != 0 {
            if value {
                self.sweep_pairs(anchors, qubit, move |a, b| {
                    *a = Complex64::ZERO;
                    *b = b.scale(s);
                })?;
            } else {
                self.sweep_pairs(anchors, qubit, move |a, b| {
                    *a = a.scale(s);
                    *b = Complex64::ZERO;
                })?;
            }
        } else {
            parallel::for_each_block(
                &mut self.amps,
                anchors,
                half << 1,
                2,
                self.parallel,
                Some(&self.interrupt),
                |chunk, _| {
                    for tile in chunk.chunks_exact_mut(half << 1) {
                        let (zeros, ones) = tile.split_at_mut(half);
                        let (dropped, kept) = if value { (zeros, ones) } else { (ones, zeros) };
                        dropped.fill(Complex64::ZERO);
                        for a in kept {
                            *a = a.scale(s);
                        }
                    }
                },
            )
            .map_err(SimError::Interrupted)?;
        }
        if let Some(t0) = t0 {
            qutes_obs::record_duration("kernel.measure", t0.elapsed());
        }
        Ok(p)
    }

    /// Resets `qubit` to `|0>` by measuring-and-flipping. Non-unitary.
    /// The supplied `p1` sampling decision is made by the caller (see
    /// `measure::measure_and_reset`); this method performs a deterministic
    /// reset assuming the qubit has already been collapsed: the X only
    /// toggles the qubit's frame bit.
    pub fn flip_if_one(&mut self, qubit: usize) -> SimResult<()> {
        // After collapse to |1>, applying X returns the qubit to |0>.
        self.check_qubit(qubit)?;
        self.flip ^= 1 << qubit;
        Ok(())
    }

    /// Returns a formatted dump of non-negligible amplitudes, for debugging
    /// and for the CLI's `--dump-state` flag.
    pub fn dump(&self, threshold: f64) -> String {
        let mut out = String::new();
        for (i, a) in self.frame_amps().enumerate() {
            if a.norm_sqr() > threshold {
                out.push_str(&format!(
                    "|{:0width$b}> : {} (p={:.6})\n",
                    i,
                    a,
                    a.norm_sqr(),
                    width = self.n
                ));
            }
        }
        out
    }
}

/// [`StateVector::sweep_stored`] on blocks of `B` amplitudes: `op` on the
/// pairs of each block of `chunk` whose offset is in `lo`. The block size
/// is a constant, so the pair loop unrolls.
fn sweep_tiles<const B: usize, F>(chunk: &mut [Complex64], lo: Cube, op: &F)
where
    F: Fn(&mut Complex64, &mut Complex64),
{
    let (tiles, _) = chunk.as_chunks_mut::<B>();
    for tile in tiles {
        let (zeros, ones) = tile.split_at_mut(B / 2);
        for (k, (a, b)) in zeros.iter_mut().zip(ones).enumerate() {
            if k & lo.fixed == lo.value {
                op(a, b);
            }
        }
    }
}

/// Builds the uniform superposition `H^{⊗n}|0>` directly (a frequently
/// needed fixture; cheaper than applying `n` Hadamards).
pub fn uniform_superposition(n: usize) -> SimResult<StateVector> {
    if n > MAX_QUBITS {
        return Err(SimError::TooManyQubits(n));
    }
    let len = 1usize << n;
    let mut amps = alloc_amps(len)?;
    amps.fill(c64(1.0 / (len as f64).sqrt(), 0.0));
    StateVector::from_amplitudes(amps)
}

#[cfg(test)]
mod support_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    const EPS: f64 = 1e-10;

    #[test]
    fn new_state_is_all_zeros() {
        let sv = StateVector::new(3).unwrap();
        assert_eq!(sv.num_qubits(), 3);
        assert_eq!(sv.len(), 8);
        assert!(sv.amplitude(0).approx_eq(Complex64::ONE, EPS));
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn too_many_qubits_rejected() {
        assert!(matches!(
            StateVector::new(MAX_QUBITS + 1),
            Err(SimError::TooManyQubits(_))
        ));
    }

    #[test]
    fn from_amplitudes_validates() {
        assert!(StateVector::from_amplitudes(vec![]).is_err());
        assert!(StateVector::from_amplitudes(vec![Complex64::ONE; 3]).is_err());
        assert!(StateVector::from_amplitudes(vec![Complex64::ONE; 2]).is_err()); // norm 2
        let ok = StateVector::from_amplitudes(vec![Complex64::ONE, Complex64::ZERO]);
        assert!(ok.is_ok());
    }

    #[test]
    fn x_flips_basis_state() {
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_single(&gates::x(), 0).unwrap();
        assert!(sv.amplitude(0b01).approx_eq(Complex64::ONE, EPS));
        sv.apply_single(&gates::x(), 1).unwrap();
        assert!(sv.amplitude(0b11).approx_eq(Complex64::ONE, EPS));
    }

    #[test]
    fn hadamard_makes_uniform() {
        let mut sv = StateVector::new(1).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        let a = 1.0 / 2f64.sqrt();
        assert!(sv.amplitude(0).approx_eq(c64(a, 0.0), EPS));
        assert!(sv.amplitude(1).approx_eq(c64(a, 0.0), EPS));
    }

    #[test]
    fn uniform_superposition_matches_hadamards() {
        let mut sv = StateVector::new(4).unwrap();
        for q in 0..4 {
            sv.apply_single(&gates::h(), q).unwrap();
        }
        let direct = uniform_superposition(4).unwrap();
        assert!((sv.fidelity(&direct).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn cnot_entangles_bell_pair() {
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        sv.apply_controlled(&gates::x(), &[0], 1).unwrap();
        let a = 1.0 / 2f64.sqrt();
        assert!(sv.amplitude(0b00).approx_eq(c64(a, 0.0), EPS));
        assert!(sv.amplitude(0b11).approx_eq(c64(a, 0.0), EPS));
        assert!(sv.amplitude(0b01).approx_eq(Complex64::ZERO, EPS));
        assert!(sv.amplitude(0b10).approx_eq(Complex64::ZERO, EPS));
    }

    #[test]
    fn toffoli_truth_table() {
        // CCX flips target only when both controls are 1.
        for c0 in 0..2usize {
            for c1 in 0..2usize {
                let idx = c0 | (c1 << 1);
                let mut sv = StateVector::from_basis_state(3, idx).unwrap();
                sv.apply_controlled(&gates::x(), &[0, 1], 2).unwrap();
                let expect = if c0 == 1 && c1 == 1 { idx | 0b100 } else { idx };
                assert!(
                    sv.amplitude(expect).approx_eq(Complex64::ONE, EPS),
                    "controls {c0}{c1}"
                );
            }
        }
    }

    #[test]
    fn control_equal_target_rejected() {
        let mut sv = StateVector::new(2).unwrap();
        assert!(matches!(
            sv.apply_controlled(&gates::x(), &[1], 1),
            Err(SimError::DuplicateQubit(1))
        ));
    }

    #[test]
    fn duplicate_reports_the_first_qubit_listed_again() {
        let mut sv = StateVector::new(4).unwrap();
        let dup = |r: SimResult<()>| match r {
            Err(SimError::DuplicateQubit(q)) => Some(q),
            _ => None,
        };
        assert_eq!(
            dup(sv.apply_controlled(&gates::x(), &[3, 1, 3], 1)),
            Some(3)
        );
        assert_eq!(dup(sv.apply_controlled(&gates::x(), &[0, 2], 2)), Some(2));
        assert_eq!(dup(sv.apply_controlled_swap(&[2, 0], 1, 2)), Some(2));
        assert_eq!(dup(sv.apply_controlled_swap(&[0], 1, 1)), Some(1));
        assert_eq!(dup(sv.apply_three(&Matrix8::identity(), 1, 2, 1)), Some(1));
        assert_eq!(dup(sv.apply_controlled(&gates::x(), &[0, 2], 1)), None);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut sv = StateVector::new(2).unwrap();
        assert!(sv.apply_single(&gates::x(), 2).is_err());
        assert!(sv.apply_swap(0, 5).is_err());
        assert!(sv.probability_one(9).is_err());
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut sv = StateVector::from_basis_state(3, 0b001).unwrap();
        sv.apply_swap(0, 2).unwrap();
        assert!(sv.amplitude(0b100).approx_eq(Complex64::ONE, EPS));
        // swap is its own inverse
        sv.apply_swap(0, 2).unwrap();
        assert!(sv.amplitude(0b001).approx_eq(Complex64::ONE, EPS));
    }

    #[test]
    fn swap_matches_three_cnots() {
        let mut a = StateVector::new(2).unwrap();
        a.apply_single(&gates::h(), 0).unwrap();
        a.apply_single(&gates::t(), 0).unwrap();
        let mut b = a.clone();
        a.apply_swap(0, 1).unwrap();
        b.apply_controlled(&gates::x(), &[0], 1).unwrap();
        b.apply_controlled(&gates::x(), &[1], 0).unwrap();
        b.apply_controlled(&gates::x(), &[0], 1).unwrap();
        assert!((a.fidelity(&b).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn fredkin_swaps_only_when_control_set() {
        let mut sv = StateVector::from_basis_state(3, 0b010).unwrap();
        sv.apply_controlled_swap(&[0], 1, 2).unwrap(); // control qubit 0 is 0
        assert!(sv.amplitude(0b010).approx_eq(Complex64::ONE, EPS));
        let mut sv = StateVector::from_basis_state(3, 0b011).unwrap();
        sv.apply_controlled_swap(&[0], 1, 2).unwrap(); // control is 1
        assert!(sv.amplitude(0b101).approx_eq(Complex64::ONE, EPS));
    }

    #[test]
    fn phase_flip_oracle_flips_sign() {
        let mut sv = uniform_superposition(3).unwrap();
        sv.apply_phase_flip_where(|i| i == 0b101);
        let a = 1.0 / 8f64.sqrt();
        assert!(sv.amplitude(0b101).approx_eq(c64(-a, 0.0), EPS));
        assert!(sv.amplitude(0b100).approx_eq(c64(a, 0.0), EPS));
    }

    #[test]
    fn probability_and_expectation() {
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        assert!((sv.probability_one(0).unwrap() - 0.5).abs() < EPS);
        assert!((sv.probability_one(1).unwrap()).abs() < EPS);
        assert!(sv.expectation_z(0).unwrap().abs() < EPS);
        assert!((sv.expectation_z(1).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn marginal_probabilities_sum_to_one() {
        let mut sv = StateVector::new(3).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        sv.apply_controlled(&gates::x(), &[0], 2).unwrap();
        let m = sv.marginal_probabilities(&[0, 2]).unwrap();
        assert_eq!(m.len(), 4);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < EPS);
        // Perfect correlation: only 00 and 11 outcomes.
        assert!((m[0b00] - 0.5).abs() < EPS);
        assert!((m[0b11] - 0.5).abs() < EPS);
        assert!(m[0b01].abs() < EPS);
    }

    #[test]
    fn joint_outcome_probability() {
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        sv.apply_controlled(&gates::x(), &[0], 1).unwrap();
        let p = sv.probability_of_outcome(&[0, 1], 0b11).unwrap();
        assert!((p - 0.5).abs() < EPS);
        let p = sv.probability_of_outcome(&[0, 1], 0b01).unwrap();
        assert!(p.abs() < EPS);
    }

    #[test]
    fn collapse_renormalizes() {
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        sv.apply_controlled(&gates::x(), &[0], 1).unwrap();
        let p = sv.collapse_qubit(0, true).unwrap();
        assert!((p - 0.5).abs() < EPS);
        assert!(sv.amplitude(0b11).approx_eq(Complex64::ONE, EPS));
        assert!((sv.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn collapse_to_impossible_outcome_errors() {
        let mut sv = StateVector::new(1).unwrap();
        assert!(sv.collapse_qubit(0, true).is_err());
    }

    #[test]
    fn inner_product_orthogonal_states() {
        let a = StateVector::from_basis_state(2, 0).unwrap();
        let b = StateVector::from_basis_state(2, 3).unwrap();
        assert!(a.inner_product(&b).unwrap().norm() < EPS);
        assert!((a.inner_product(&a).unwrap().re - 1.0).abs() < EPS);
        let c = StateVector::new(3).unwrap();
        assert!(a.inner_product(&c).is_err());
    }

    #[test]
    fn tensor_product_layout() {
        // |1> ⊗ |0> with self=|0> (low bits), other=|1> (high bits)
        let lo = StateVector::from_basis_state(1, 0).unwrap();
        let hi = StateVector::from_basis_state(1, 1).unwrap();
        let t = lo.tensor(&hi).unwrap();
        assert_eq!(t.num_qubits(), 2);
        assert!(t.amplitude(0b10).approx_eq(Complex64::ONE, EPS));
    }

    #[test]
    fn apply_two_matches_cnot() {
        // CNOT control=q0 target=q1 as a 4x4 over |q1 q0>.
        let o = Complex64::ONE;
        let zz = Complex64::ZERO;
        let cnot = [
            [o, zz, zz, zz],
            [zz, zz, zz, o],
            [zz, zz, o, zz],
            [zz, o, zz, zz],
        ];
        let mut a = StateVector::new(2).unwrap();
        a.apply_single(&gates::h(), 0).unwrap();
        let mut b = a.clone();
        a.apply_two(&cnot, 0, 1).unwrap();
        b.apply_controlled(&gates::x(), &[0], 1).unwrap();
        assert!((a.fidelity(&b).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn apply_two_fused_matches_apply_two() {
        let o = Complex64::ONE;
        let zz = Complex64::ZERO;
        let cnot = [
            [o, zz, zz, zz],
            [zz, zz, zz, o],
            [zz, zz, o, zz],
            [zz, o, zz, zz],
        ];
        for (q0, q1) in [(0usize, 1usize), (1, 0), (0, 3), (3, 1)] {
            let mut a = StateVector::new(4).unwrap();
            for q in 0..4 {
                a.apply_single(&gates::h(), q).unwrap();
                a.apply_single(&gates::t(), q).unwrap();
            }
            let mut b = a.clone();
            a.apply_two(&cnot, q0, q1).unwrap();
            b.apply_two_fused(&Matrix4::new(cnot), q0, q1).unwrap();
            assert!((a.fidelity(&b).unwrap() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn apply_three_identity_is_noop() {
        let mut sv = StateVector::new(5).unwrap();
        for q in 0..5 {
            sv.apply_single(&gates::h(), q).unwrap();
        }
        let before = sv.clone();
        sv.apply_three(&Matrix8::identity(), 4, 1, 2).unwrap();
        assert!((sv.fidelity(&before).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn apply_three_matches_gate_sequence() {
        // Build the 8x8 for CCX(c0=wire0, c1=wire1, t=wire2) and check it
        // against the native controlled kernel on scrambled wire orders.
        let mut ccx = Matrix8::identity();
        ccx.m[0b011][0b011] = Complex64::ZERO;
        ccx.m[0b111][0b111] = Complex64::ZERO;
        ccx.m[0b011][0b111] = Complex64::ONE;
        ccx.m[0b111][0b011] = Complex64::ONE;
        for (q0, q1, q2) in [(0usize, 1usize, 2usize), (2, 0, 4), (3, 2, 1)] {
            let mut a = StateVector::new(5).unwrap();
            for q in 0..5 {
                a.apply_single(&gates::h(), q).unwrap();
                a.apply_single(&gates::t(), q).unwrap();
            }
            let mut b = a.clone();
            a.apply_three(&ccx, q0, q1, q2).unwrap();
            b.apply_controlled(&gates::x(), &[q0, q1], q2).unwrap();
            assert!(
                (a.fidelity(&b).unwrap() - 1.0).abs() < EPS,
                "wires ({q0},{q1},{q2})"
            );
        }
    }

    #[test]
    fn many_controls_above_and_below_target() {
        // Exercises both the per-block high-mask skip and the low-bit
        // insertion enumeration against a brute-force reference.
        let n = 6;
        let controls = [0usize, 2, 5];
        let target = 3;
        let mut sv = StateVector::new(n).unwrap();
        for q in 0..n {
            sv.apply_single(&gates::h(), q).unwrap();
            sv.apply_single(&gates::t(), q).unwrap();
        }
        let reference = {
            let mut amps = sv.amplitudes().to_vec();
            let cm: usize = controls.iter().map(|&c| 1usize << c).sum();
            let tb = 1usize << target;
            let [[m00, m01], [m10, m11]] = gates::h().m;
            for i in 0..amps.len() {
                if i & tb == 0 && i & cm == cm {
                    let a = amps[i];
                    let b = amps[i | tb];
                    amps[i] = m00 * a + m01 * b;
                    amps[i | tb] = m10 * a + m11 * b;
                }
            }
            StateVector::from_amplitudes(amps).unwrap()
        };
        sv.apply_controlled(&gates::h(), &controls, target).unwrap();
        assert!((sv.fidelity(&reference).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn controlled_swap_with_interleaved_controls() {
        // Controls both below, between, and above the swapped pair.
        let n = 6;
        for idx in 0..(1usize << n) {
            let mut sv = StateVector::from_basis_state(n, idx).unwrap();
            sv.apply_controlled_swap(&[0, 3, 5], 1, 4).unwrap();
            let expect = if idx & 0b101001 == 0b101001 {
                let b1 = (idx >> 1) & 1;
                let b4 = (idx >> 4) & 1;
                (idx & !0b10010) | (b1 << 4) | (b4 << 1)
            } else {
                idx
            };
            assert!(
                sv.amplitude(expect).approx_eq(Complex64::ONE, EPS),
                "idx {idx:06b}"
            );
        }
    }

    #[test]
    fn global_phase_is_unobservable() {
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        let probs = sv.probabilities();
        sv.apply_global_phase(1.234);
        assert_eq!(sv.probabilities(), probs);
    }

    #[test]
    fn parallel_matches_serial_on_large_state() {
        let n = 15; // 32768 amplitudes > PAR_THRESHOLD
        let mut par = StateVector::new(n).unwrap();
        let mut ser = StateVector::new(n).unwrap();
        ser.set_parallel(false);
        for q in 0..n {
            par.apply_single(&gates::h(), q).unwrap();
            ser.apply_single(&gates::h(), q).unwrap();
        }
        for q in 0..n - 1 {
            par.apply_controlled(&gates::x(), &[q], q + 1).unwrap();
            ser.apply_controlled(&gates::x(), &[q], q + 1).unwrap();
        }
        par.apply_swap(0, n - 1).unwrap();
        ser.apply_swap(0, n - 1).unwrap();
        assert!((par.fidelity(&ser).unwrap() - 1.0).abs() < 1e-9);
        assert!((par.probability_one(3).unwrap() - ser.probability_one(3).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn cancelled_interrupt_stops_kernels() {
        let mut sv = StateVector::new(3).unwrap();
        let intr = Interrupt::new();
        sv.set_interrupt(intr.clone());
        sv.apply_single(&gates::h(), 0).unwrap(); // unarmed: runs fine
        intr.cancel();
        let err = sv.apply_single(&gates::h(), 1).unwrap_err();
        assert!(matches!(
            err,
            SimError::Interrupted(qutes_supervisor::StopReason::Cancelled)
        ));
        let err = sv.apply_controlled_swap(&[0], 1, 2).unwrap_err();
        assert!(matches!(err, SimError::Interrupted(_)));
    }

    #[test]
    fn expired_deadline_stops_large_kernel() {
        let mut sv = StateVector::new(15).unwrap();
        sv.set_interrupt(Interrupt::with_deadline(std::time::Duration::ZERO));
        let err = sv.apply_single(&gates::h(), 0).unwrap_err();
        assert!(matches!(err, SimError::Interrupted(_)));
    }

    #[test]
    fn armed_but_distant_deadline_is_transparent() {
        let mut sv = StateVector::new(10).unwrap();
        sv.set_interrupt(Interrupt::with_deadline(std::time::Duration::from_secs(
            600,
        )));
        sv.apply_single(&gates::h(), 0).unwrap();
        sv.apply_controlled(&gates::x(), &[0], 1).unwrap();
        assert!((sv.probability_one(1).unwrap() - 0.5).abs() < EPS);
    }

    #[test]
    fn tensor_propagates_interrupt() {
        let mut lo = StateVector::new(1).unwrap();
        let intr = Interrupt::new();
        lo.set_interrupt(intr.clone());
        let hi = StateVector::new(1).unwrap();
        let mut t = lo.tensor(&hi).unwrap();
        intr.cancel();
        assert!(t.apply_single(&gates::h(), 0).is_err());
    }

    #[test]
    fn spares_stay_within_their_cap() {
        // On a thread of its own, whose set starts empty.
        std::thread::spawn(|| {
            let mib = 16 << 16;
            // 40 states of 1 MiB dropped together: the cap keeps 32.
            let states: Vec<_> = (0..40).map(|_| StateVector::new(16).unwrap()).collect();
            assert_eq!(spare_bytes(), 0);
            drop(states);
            assert_eq!(spare_bytes(), SPARE_BYTES);
            let sv = StateVector::new(16).unwrap();
            assert_eq!(spare_bytes(), SPARE_BYTES - mib);
            drop(sv);
            assert_eq!(spare_bytes(), SPARE_BYTES);
            // Every constructor, clone, growth and drop keeps the set
            // within the cap.
            let mut rng = 0x2545_f491_4f6c_dd1du64;
            let mut next = |bound: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng as usize % bound
            };
            let mut live: Vec<StateVector> = Vec::new();
            for _ in 0..300 {
                match next(5) {
                    0 => live.push(StateVector::new(next(18)).unwrap()),
                    1 => {
                        if let Some(sv) = live.get(next(live.len().max(1))) {
                            live.push(sv.clone());
                        }
                    }
                    2 => {
                        let k = next(live.len().max(1));
                        if let Some(sv) = live.get_mut(k) {
                            let extra = next(18usize.saturating_sub(sv.num_qubits()).max(1));
                            sv.grow(extra).unwrap();
                        }
                    }
                    3 => {
                        if let (Some(a), Some(b)) = (live.first(), live.last()) {
                            if a.num_qubits() + b.num_qubits() <= 17 {
                                let t = a.tensor(b).unwrap();
                                live.push(t);
                            }
                        }
                    }
                    _ => {}
                }
                // At most six live states of at most 2 MiB each.
                if (live.len() > 6 || next(5) == 0) && !live.is_empty() {
                    live.swap_remove(next(live.len()));
                }
                assert!(spare_bytes() <= SPARE_BYTES);
            }
            drop(live);
            assert!(spare_bytes() <= SPARE_BYTES);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn dump_lists_support() {
        let mut sv = StateVector::new(2).unwrap();
        sv.apply_single(&gates::h(), 0).unwrap();
        let d = sv.dump(1e-9);
        assert!(d.contains("|00>"));
        assert!(d.contains("|01>"));
        assert!(!d.contains("|10>"));
    }
}
