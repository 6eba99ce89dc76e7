//! Stabilizer (CHP) tableau simulator for Clifford-only circuits.
//!
//! Dense statevectors cost `O(2^n)` memory, capping simulation at
//! [`MAX_QUBITS`](crate::MAX_QUBITS) qubits. Circuits built purely from
//! Clifford gates (H, S, S†, X, Y, Z, CX, CY, CZ, SWAP) plus measurement
//! and reset admit an exponentially cheaper representation: the
//! Aaronson–Gottesman tableau ("Improved simulation of stabilizer
//! circuits", Phys. Rev. A 70, 052328), which tracks the state's
//! stabilizer group in `O(n²)` bits and applies gates in `O(n)` time.
//! That lifts the practical qubit ceiling from ~28 to
//! [`TABLEAU_MAX_QUBITS`] for Clifford programs such as Bell/GHZ
//! preparation, teleportation, and error-correction encodings.
//!
//! The tableau stores `2n` Pauli rows over the X/Z bit matrices — rows
//! `0..n` are destabilizers, rows `n..2n` stabilizers — plus one scratch
//! row for deterministic-measurement phase accumulation. Rows are
//! bit-packed into `u64` words so gates are word-parallel column
//! operations and `rowsum` phase arithmetic reduces to popcounts.
//!
//! ```
//! use qutes_sim::tableau::Tableau;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 100-qubit GHZ chain: far beyond any dense statevector.
//! let mut t = Tableau::new(100).unwrap();
//! t.h(0).unwrap();
//! for q in 0..99 {
//!     t.cx(q, q + 1).unwrap();
//! }
//! let mut rng = StdRng::seed_from_u64(7);
//! let a = t.measure(0, &mut rng).unwrap();
//! // Every later qubit is now determined by the first outcome.
//! for q in 1..100 {
//!     assert_eq!(t.measure(q, &mut rng).unwrap(), a);
//! }
//! ```

use crate::error::{SimError, SimResult};
use crate::measure::SAMPLE_CHECK_STRIDE;
use qutes_supervisor::Interrupt;
use rand::Rng;
use std::collections::HashMap;

/// Hard cap on tableau width. The tableau needs roughly `4n²/8` bytes
/// (two `2n×n` bit matrices); at 4096 qubits that is ~8 MiB, and gate
/// cost `O(n)` stays far below statevector kernels. Raising this is a
/// memory-budget question, not an algorithmic one.
pub const TABLEAU_MAX_QUBITS: usize = 4096;

const WORD_BITS: usize = 64;

/// Highest sampling rank whose coin vectors are tallied in a dense
/// `2^rank` array (512 KiB at the cap); above it the sampler keys each
/// shot into a hash map. See [`Tableau::sample`].
const TALLY_MAX_RANK: u32 = 16;

/// Aaronson–Gottesman stabilizer tableau over `n` qubits.
///
/// Cloning is cheap (`O(n²/8)` bytes). The shot sampler clones **once**
/// per call — not once per shot — to run a symbolic measurement cascade
/// whose random signs are left free; see [`Tableau::sample`].
#[derive(Clone, Debug)]
pub struct Tableau {
    /// Qubit count.
    n: usize,
    /// Words per row: `ceil(n / 64)`.
    words: usize,
    /// X bit matrix, `(2n + 1) × words`, row-major. Row `2n` is scratch.
    x: Vec<u64>,
    /// Z bit matrix, same shape as `x`.
    z: Vec<u64>,
    /// Phase bit per row (`(-1)^r` sign of the Pauli).
    r: Vec<u8>,
    /// Cooperative-cancellation handle checked by the shot sampler.
    interrupt: Interrupt,
}

impl Tableau {
    /// Builds the `|0…0⟩` tableau: destabilizer `i` is `X_i`, stabilizer
    /// `i` is `Z_i`, all phases `+1`.
    pub fn new(num_qubits: usize) -> SimResult<Self> {
        if num_qubits > TABLEAU_MAX_QUBITS {
            return Err(SimError::TooManyQubits(num_qubits));
        }
        let words = num_qubits.div_ceil(WORD_BITS);
        let rows = 2 * num_qubits + 1;
        let cells = rows * words;
        let mut x = Vec::new();
        let mut z = Vec::new();
        x.try_reserve_exact(cells)
            .and_then(|()| z.try_reserve_exact(cells))
            .map_err(|_| SimError::AllocationFailed {
                bytes: 2 * cells * 8,
            })?;
        x.resize(cells, 0);
        z.resize(cells, 0);
        let mut t = Tableau {
            n: num_qubits,
            words,
            x,
            z,
            r: vec![0; rows],
            interrupt: Interrupt::new(),
        };
        for q in 0..num_qubits {
            t.set_x(q, q, true);
            t.set_z(num_qubits + q, q, true);
        }
        Ok(t)
    }

    /// Number of qubits tracked.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Approximate heap footprint in bytes (both bit matrices + phases).
    pub fn memory_bytes(&self) -> usize {
        2 * self.x.len() * 8 + self.r.len()
    }

    /// Bytes a `num_qubits`-wide tableau would need, without building it.
    pub fn required_bytes(num_qubits: usize) -> usize {
        let words = num_qubits.div_ceil(WORD_BITS);
        let rows = 2 * num_qubits + 1;
        2 * rows * words * 8 + rows
    }

    /// Installs the interrupt handle checked by [`Tableau::sample`]
    /// between shots.
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.interrupt = interrupt;
    }

    /// The interrupt handle driving sampling checkpoints.
    pub fn interrupt(&self) -> &Interrupt {
        &self.interrupt
    }

    /// True when `self` and `other` describe the same Clifford *action*.
    ///
    /// A fresh tableau run through a gate sequence does not just hold a
    /// state: because [`Tableau::new`] seeds destabilizer `i` with `X_i`
    /// and stabilizer `i` with `Z_i`, the rows after the run record the
    /// conjugation `U P U†` of every generator `P ∈ {X_0..X_{n-1},
    /// Z_0..Z_{n-1}}` — i.e. the full action of the Clifford unitary `U`
    /// on the Pauli group, signs included. Two Clifford circuits are
    /// therefore equal up to global phase **iff** replaying each from a
    /// fresh tableau yields identical X/Z bit matrices and phase bits
    /// over all `2n` rows. This is the symbolic entry point the static
    /// translation-validation pass (`qutes-analysis::verify`) uses: no
    /// amplitudes, `O(n²)` bits, exact.
    ///
    /// The comparison excludes the scratch row (row `2n`), which only
    /// holds transient `rowsum` state from deterministic measurements.
    pub fn action_eq(&self, other: &Tableau) -> bool {
        if self.n != other.n {
            return false;
        }
        let cells = 2 * self.n * self.words;
        self.x[..cells] == other.x[..cells]
            && self.z[..cells] == other.z[..cells]
            && self.r[..2 * self.n] == other.r[..2 * self.n]
    }

    /// True when this tableau still encodes the identity action: every
    /// destabilizer `i` is exactly `X_i`, every stabilizer `i` exactly
    /// `Z_i`, and all phases are `+1` — the state [`Tableau::new`]
    /// starts from. Replaying a circuit and asking `is_identity_action`
    /// is the `O(n²)` symbolic check that the circuit is the identity up
    /// to global phase.
    pub fn is_identity_action(&self) -> bool {
        match Tableau::new(self.n) {
            Ok(fresh) => self.action_eq(&fresh),
            Err(_) => false,
        }
    }

    #[inline]
    fn cell(&self, row: usize, qubit: usize) -> (usize, u64) {
        (
            row * self.words + qubit / WORD_BITS,
            1u64 << (qubit % WORD_BITS),
        )
    }

    #[inline]
    fn x_bit(&self, row: usize, qubit: usize) -> bool {
        let (idx, mask) = self.cell(row, qubit);
        self.x[idx] & mask != 0
    }

    #[inline]
    fn set_x(&mut self, row: usize, qubit: usize, v: bool) {
        let (idx, mask) = self.cell(row, qubit);
        if v {
            self.x[idx] |= mask;
        } else {
            self.x[idx] &= !mask;
        }
    }

    #[inline]
    fn set_z(&mut self, row: usize, qubit: usize, v: bool) {
        let (idx, mask) = self.cell(row, qubit);
        if v {
            self.z[idx] |= mask;
        } else {
            self.z[idx] &= !mask;
        }
    }

    fn check_qubit(&self, qubit: usize) -> SimResult<()> {
        if qubit >= self.n {
            return Err(SimError::QubitOutOfRange {
                qubit,
                num_qubits: self.n,
            });
        }
        Ok(())
    }

    /// Hadamard on `qubit`: swaps the X/Z columns, phase `r ^= x·z`.
    pub fn h(&mut self, qubit: usize) -> SimResult<()> {
        self.check_qubit(qubit)?;
        let (off, mask) = self.cell(0, qubit);
        let stride = self.words;
        for row in 0..2 * self.n {
            let idx = off + row * stride;
            let xb = self.x[idx] & mask;
            let zb = self.z[idx] & mask;
            if xb != 0 && zb != 0 {
                self.r[row] ^= 1;
            }
            self.x[idx] = (self.x[idx] & !mask) | zb;
            self.z[idx] = (self.z[idx] & !mask) | xb;
        }
        Ok(())
    }

    /// Phase gate S on `qubit`: `z ^= x`, phase `r ^= x·z`.
    pub fn s(&mut self, qubit: usize) -> SimResult<()> {
        self.check_qubit(qubit)?;
        let (off, mask) = self.cell(0, qubit);
        let stride = self.words;
        for row in 0..2 * self.n {
            let idx = off + row * stride;
            let xb = self.x[idx] & mask;
            if xb != 0 && self.z[idx] & mask != 0 {
                self.r[row] ^= 1;
            }
            self.z[idx] ^= xb;
        }
        Ok(())
    }

    /// Inverse phase gate S† (`S³`).
    pub fn sdg(&mut self, qubit: usize) -> SimResult<()> {
        self.s(qubit)?;
        self.s(qubit)?;
        self.s(qubit)
    }

    /// Pauli X on `qubit`: phase `r ^= z`.
    pub fn x(&mut self, qubit: usize) -> SimResult<()> {
        self.check_qubit(qubit)?;
        let (off, mask) = self.cell(0, qubit);
        let stride = self.words;
        for row in 0..2 * self.n {
            if self.z[off + row * stride] & mask != 0 {
                self.r[row] ^= 1;
            }
        }
        Ok(())
    }

    /// Pauli Y on `qubit`: phase `r ^= x ⊕ z`.
    pub fn y(&mut self, qubit: usize) -> SimResult<()> {
        self.check_qubit(qubit)?;
        let (off, mask) = self.cell(0, qubit);
        let stride = self.words;
        for row in 0..2 * self.n {
            let idx = off + row * stride;
            if (self.x[idx] ^ self.z[idx]) & mask != 0 {
                self.r[row] ^= 1;
            }
        }
        Ok(())
    }

    /// Pauli Z on `qubit`: phase `r ^= x`.
    pub fn z(&mut self, qubit: usize) -> SimResult<()> {
        self.check_qubit(qubit)?;
        let (off, mask) = self.cell(0, qubit);
        let stride = self.words;
        for row in 0..2 * self.n {
            if self.x[off + row * stride] & mask != 0 {
                self.r[row] ^= 1;
            }
        }
        Ok(())
    }

    /// CNOT with `control` and `target`:
    /// `r ^= x_c·z_t·(x_t ⊕ z_c ⊕ 1)`, `x_t ^= x_c`, `z_c ^= z_t`.
    pub fn cx(&mut self, control: usize, target: usize) -> SimResult<()> {
        self.check_qubit(control)?;
        self.check_qubit(target)?;
        if control == target {
            return Err(SimError::DuplicateQubit(control));
        }
        let (coff, cmask) = self.cell(0, control);
        let (toff, tmask) = self.cell(0, target);
        let stride = self.words;
        for row in 0..2 * self.n {
            let ci = coff + row * stride;
            let ti = toff + row * stride;
            let xc = self.x[ci] & cmask != 0;
            let zc = self.z[ci] & cmask != 0;
            let xt = self.x[ti] & tmask != 0;
            let zt = self.z[ti] & tmask != 0;
            if xc && zt && (xt == zc) {
                self.r[row] ^= 1;
            }
            if xc {
                self.x[ti] ^= tmask;
            }
            if zt {
                self.z[ci] ^= cmask;
            }
        }
        Ok(())
    }

    /// Controlled-Z, via `H(t)·CX(c,t)·H(t)`.
    pub fn cz(&mut self, control: usize, target: usize) -> SimResult<()> {
        self.h(target)?;
        self.cx(control, target)?;
        self.h(target)
    }

    /// Controlled-Y, via `S(t)·CX(c,t)·S†(t)` (applied right-to-left).
    pub fn cy(&mut self, control: usize, target: usize) -> SimResult<()> {
        self.sdg(target)?;
        self.cx(control, target)?;
        self.s(target)
    }

    /// SWAP, as three alternating CNOTs.
    pub fn swap(&mut self, a: usize, b: usize) -> SimResult<()> {
        self.cx(a, b)?;
        self.cx(b, a)?;
        self.cx(a, b)
    }

    /// Left-multiplies Pauli row `src` into row `dst` (`dst := src · dst`),
    /// accumulating the `i`-power phase word-parallel via popcounts.
    fn rowsum(&mut self, dst: usize, src: usize) {
        let d = dst * self.words;
        let s = src * self.words;
        // Phase exponent of i: starts at 2(r_dst + r_src), accumulates the
        // per-qubit g(x1,z1,x2,z2) contributions; the product of two
        // commuting-group rows always lands on 0 or 2 (sign ±1).
        let mut acc: i64 = 2 * (i64::from(self.r[dst]) + i64::from(self.r[src]));
        for w in 0..self.words {
            let x1 = self.x[s + w];
            let z1 = self.z[s + w];
            let x2 = self.x[d + w];
            let z2 = self.z[d + w];
            // g = +1 cases: Z·X(+i·Y→ +1), X·XZ, XZ·Z ; g = −1 mirrors.
            let pos = (!x1 & z1 & x2 & !z2) | (x1 & !z1 & x2 & z2) | (x1 & z1 & !x2 & z2);
            let neg = (!x1 & z1 & x2 & z2) | (x1 & !z1 & !x2 & z2) | (x1 & z1 & x2 & !z2);
            acc += i64::from(pos.count_ones()) - i64::from(neg.count_ones());
            self.x[d + w] = x1 ^ x2;
            self.z[d + w] = z1 ^ z2;
        }
        // For stabilizer and scratch rows the exponent is always 0 or 2
        // (sign ±1). Destabilizer rows can land on an odd exponent when
        // summed with an anticommuting stabilizer during measurement;
        // their phase bits are never read, so the truncation is harmless.
        self.r[dst] = u8::from(acc.rem_euclid(4) >= 2);
    }

    /// Copies row `src` over row `dst` (bits and phase).
    fn row_copy(&mut self, dst: usize, src: usize) {
        let d = dst * self.words;
        let s = src * self.words;
        for w in 0..self.words {
            self.x[d + w] = self.x[s + w];
            self.z[d + w] = self.z[s + w];
        }
        self.r[dst] = self.r[src];
    }

    /// Zeroes row `row`.
    fn row_clear(&mut self, row: usize) {
        let d = row * self.words;
        for w in 0..self.words {
            self.x[d + w] = 0;
            self.z[d + w] = 0;
        }
        self.r[row] = 0;
    }

    /// Index of a stabilizer row with an X bit on `qubit`, if any. Its
    /// presence means `Z_qubit` anticommutes with the stabilizer group,
    /// i.e. the measurement outcome is random.
    fn anticommuting_stabilizer(&self, qubit: usize) -> Option<usize> {
        (self.n..2 * self.n).find(|&row| self.x_bit(row, qubit))
    }

    /// Phase of the deterministic `Z_qubit` expectation, or `None` when
    /// the outcome is random. Uses the scratch row (index `2n`) for the
    /// destabilizer rowsum, so `&mut self`, but the state is unchanged.
    fn deterministic_outcome(&mut self, qubit: usize) -> Option<bool> {
        if self.anticommuting_stabilizer(qubit).is_some() {
            return None;
        }
        let scratch = 2 * self.n;
        self.row_clear(scratch);
        for i in 0..self.n {
            if self.x_bit(i, qubit) {
                self.rowsum(scratch, i + self.n);
            }
        }
        Some(self.r[scratch] == 1)
    }

    /// Measures `qubit` in the computational basis, collapsing the state.
    ///
    /// Random case (some stabilizer anticommutes with `Z_qubit`): every
    /// other row carrying an X bit on `qubit` is multiplied by that
    /// stabilizer, the stabilizer is demoted to a destabilizer, and
    /// `±Z_qubit` with a fair random sign takes its place. Deterministic
    /// case: the outcome phase is accumulated on the scratch row.
    pub fn measure<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> SimResult<bool> {
        self.measure_with(qubit, || rng.random_bool(0.5))
    }

    /// The outcome of measuring `qubit` when the stabilizer group
    /// determines it, or `None` when it is a fair coin. The state is
    /// unchanged. Together with [`Self::measure_forced`] this splits
    /// [`Self::measure`] into "draw the outcome" and "collapse to it",
    /// so a caller can draw for many shots and collapse once per
    /// distinct outcome.
    pub fn determined_outcome(&mut self, qubit: usize) -> SimResult<Option<bool>> {
        self.check_qubit(qubit)?;
        Ok(self.deterministic_outcome(qubit))
    }

    /// [`Self::measure`] with the fair coin forced to `outcome`: the
    /// resulting tableau is bit-identical to a [`Self::measure`] whose
    /// RNG drew `outcome`. A determined outcome ignores `outcome`, leaves
    /// the state untouched and is returned as is.
    pub fn measure_forced(&mut self, qubit: usize, outcome: bool) -> SimResult<bool> {
        self.measure_with(qubit, || outcome)
    }

    /// Shared body of [`Self::measure`] and [`Self::measure_forced`]:
    /// `coin` is called only when the outcome is random.
    fn measure_with(&mut self, qubit: usize, coin: impl FnOnce() -> bool) -> SimResult<bool> {
        self.check_qubit(qubit)?;
        if let Some(p) = self.anticommuting_stabilizer(qubit) {
            for row in 0..2 * self.n {
                if row != p && self.x_bit(row, qubit) {
                    self.rowsum(row, p);
                }
            }
            self.row_copy(p - self.n, p);
            self.row_clear(p);
            self.set_z(p, qubit, true);
            let outcome = coin();
            self.r[p] = u8::from(outcome);
            Ok(outcome)
        } else {
            // Outcome already determined by the stabilizer group; the
            // state is untouched.
            #[allow(clippy::unwrap_used)] // just checked: no anticommuting row
            Ok(self.deterministic_outcome(qubit).unwrap())
        }
    }

    /// Measures `qubit` and flips it back to `|0⟩` if the outcome was 1.
    /// Mirrors the statevector `measure_and_reset` semantics; returns the
    /// pre-reset outcome.
    pub fn reset<R: Rng + ?Sized>(&mut self, qubit: usize, rng: &mut R) -> SimResult<bool> {
        let outcome = self.measure(qubit, rng)?;
        if outcome {
            self.x(qubit)?;
        }
        Ok(outcome)
    }

    /// Probability of measuring `|1⟩` on `qubit`. Stabilizer states only
    /// ever yield 0, ½, or 1, and the value is exact. Non-mutating in
    /// effect (the scratch row is working storage).
    pub fn probability_one(&mut self, qubit: usize) -> SimResult<f64> {
        Ok(match self.determined_outcome(qubit)? {
            None => 0.5,
            Some(true) => 1.0,
            Some(false) => 0.0,
        })
    }

    /// Appends `extra` fresh `|0⟩` qubits at the top indices, preserving
    /// the existing state — the tableau analogue of tensoring with
    /// `|0…0⟩`.
    pub fn grow(&mut self, extra: usize) -> SimResult<()> {
        if extra == 0 {
            return Ok(());
        }
        let new_n = self.n + extra;
        let mut grown = Tableau::new(new_n)?;
        grown.interrupt = self.interrupt.clone();
        // Old columns occupy the same bit positions, so rows copy
        // word-for-word; fresh qubits keep their identity rows from `new`.
        for i in 0..self.n {
            for w in 0..self.words {
                grown.x[i * grown.words + w] = self.x[i * self.words + w];
                grown.z[i * grown.words + w] = self.z[i * self.words + w];
                grown.x[(new_n + i) * grown.words + w] = self.x[(self.n + i) * self.words + w];
                grown.z[(new_n + i) * grown.words + w] = self.z[(self.n + i) * self.words + w];
            }
            grown.r[i] = self.r[i];
            grown.r[new_n + i] = self.r[self.n + i];
        }
        *self = grown;
        Ok(())
    }

    /// Draws `shots` joint samples of `qubits` without collapsing `self`.
    /// Bit `k` of each returned key is the outcome of `qubits[k]`,
    /// matching [`measure::sample_counts`](crate::measure::sample_counts).
    ///
    /// This is a **ranked-stabilizer** sampler: instead of cloning the
    /// tableau and measuring destructively once per shot, it clones once
    /// and replays the measurement cascade *symbolically*, leaving every
    /// random sign as a free GF(2) variable. The key invariant making
    /// this sound is that the structural part of a measurement (which
    /// stabilizer anticommutes, which rows get `rowsum`med, which row is
    /// demoted) depends only on the X/Z bit matrices — never on the
    /// phase bits — while `rowsum`'s sign update is affine in the phases
    /// (`r_dst ← r_dst ⊕ r_src ⊕ g(x,z)`). So after Gaussian-eliminating
    /// the cascade once, the outcome of measured qubit `k` is
    /// `c_k ⊕ ⟨mask_k, b⟩` for a constant bit `c_k`, a dependence mask
    /// over the `rank ≤ |qubits|` fresh random bits, and the per-shot
    /// coin vector `b`.
    ///
    /// Cost: one O(n²) clone and cascade per call. Then, for
    /// `rank ≤ 16`, each shot costs only its `rank` coin draws and one
    /// increment of a dense `2^rank` tally of coin vectors; the affine
    /// map to a key runs once per *distinct* coin vector afterwards.
    /// Above rank 16 the tally would cost more to allocate and scan
    /// than typical shot counts, so each shot maps its coins to a key
    /// (one popcount-parity per measured qubit) and bumps a hash map
    /// instead. Coins are drawn in exactly the same order as destructive
    /// measurement, so histograms are bit-for-bit identical to the
    /// clone-per-shot sampler.
    ///
    /// The interrupt is checked once up front and then every
    /// [`SAMPLE_CHECK_STRIDE`] shots.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        qubits: &[usize],
        shots: usize,
        rng: &mut R,
    ) -> SimResult<HashMap<usize, usize>> {
        for &q in qubits {
            self.check_qubit(q)?;
        }
        // Joint outcomes are histogram keys: more qubits than key bits
        // cannot be represented (the dense engine shares this ceiling —
        // it tops out far below 64 qubits anyway). This also bounds the
        // symbolic rank below 64, so a u64 dependence mask suffices.
        if qubits.len() >= usize::BITS as usize {
            return Err(SimError::InvalidState(format!(
                "cannot histogram {} qubits jointly (keys are {}-bit); \
                 measure collapsing registers instead",
                qubits.len(),
                usize::BITS
            )));
        }
        let outcomes = self.ranked_outcomes(qubits);
        self.interrupt.check().map_err(SimError::Interrupted)?;
        let mut ck = 0u64;
        let mut counts = HashMap::new();
        if outcomes.rank <= TALLY_MAX_RANK {
            let mut tally = vec![0usize; 1 << outcomes.rank];
            for _ in 0..shots {
                self.interrupt
                    .checkpoint(&mut ck, SAMPLE_CHECK_STRIDE)
                    .map_err(SimError::Interrupted)?;
                tally[outcomes.draw(rng) as usize] += 1;
            }
            for (coins, &n) in tally.iter().enumerate() {
                if n > 0 {
                    *counts.entry(outcomes.key_of(coins as u64)).or_insert(0) += n;
                }
            }
        } else {
            for _ in 0..shots {
                self.interrupt
                    .checkpoint(&mut ck, SAMPLE_CHECK_STRIDE)
                    .map_err(SimError::Interrupted)?;
                let key = outcomes.key_of(outcomes.draw(rng));
                *counts.entry(key).or_insert(0) += 1;
            }
        }
        Ok(counts)
    }

    /// Runs the measurement cascade for `qubits` once, symbolically:
    /// returns each qubit's outcome as an affine form `(const, mask)`
    /// over the fresh random bits introduced by random measurements.
    fn ranked_outcomes(&self, qubits: &[usize]) -> RankedOutcomes {
        let mut t = self.clone();
        // Per-row dependence mask on the random bits drawn so far. Phase
        // updates are XORs, so masks compose by XOR alongside `rowsum`.
        let mut sym = vec![0u64; 2 * t.n + 1];
        let mut forms = Vec::with_capacity(qubits.len());
        let mut rank = 0u32;
        for &q in qubits {
            if let Some(p) = t.anticommuting_stabilizer(q) {
                for row in 0..2 * t.n {
                    if row != p && t.x_bit(row, q) {
                        t.rowsum(row, p);
                        sym[row] ^= sym[p];
                    }
                }
                t.row_copy(p - t.n, p);
                sym[p - t.n] = sym[p];
                t.row_clear(p);
                t.set_z(p, q, true);
                // Fresh ±Z stabilizer whose sign IS the new random bit.
                let mask = 1u64 << rank;
                sym[p] = mask;
                forms.push((0u8, mask));
                rank += 1;
            } else {
                let scratch = 2 * t.n;
                t.row_clear(scratch);
                sym[scratch] = 0;
                for i in 0..t.n {
                    if t.x_bit(i, q) {
                        t.rowsum(scratch, i + t.n);
                        sym[scratch] ^= sym[i + t.n];
                    }
                }
                forms.push((t.r[scratch], sym[scratch]));
            }
        }
        RankedOutcomes { forms, rank }
    }
}

/// Output of the symbolic measurement cascade: one affine form per
/// measured qubit over `rank` free random bits.
struct RankedOutcomes {
    /// `(constant, dependence mask)` per measured qubit, in input order.
    forms: Vec<(u8, u64)>,
    /// Number of random (coin-flip) measurements in the cascade.
    rank: u32,
}

impl RankedOutcomes {
    /// Draws one shot's coin vector: bit `b` is the b-th random
    /// measurement in `qubits` order, the same draw order as destructive
    /// measurement. Packed without a branch on the coin.
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut coins = 0u64;
        for b in 0..self.rank {
            coins |= u64::from(rng.random_bool(0.5)) << b;
        }
        coins
    }

    /// Maps a coin vector through the affine forms to its joint outcome.
    fn key_of(&self, coins: u64) -> usize {
        let mut key = 0usize;
        for (k, &(c, mask)) in self.forms.iter().enumerate() {
            let bit = u64::from(c) ^ (u64::from((mask & coins).count_ones()) & 1);
            key |= (bit as usize) << k;
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gates, StateVector};
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fresh_tableau_measures_all_zero() {
        let mut t = Tableau::new(5).unwrap();
        let mut r = rng();
        for q in 0..5 {
            assert!(!t.measure(q, &mut r).unwrap());
        }
    }

    #[test]
    fn x_flips_deterministically() {
        let mut t = Tableau::new(3).unwrap();
        t.x(1).unwrap();
        let mut r = rng();
        assert!(!t.measure(0, &mut r).unwrap());
        assert!(t.measure(1, &mut r).unwrap());
        assert!(!t.measure(2, &mut r).unwrap());
    }

    #[test]
    fn bell_pair_outcomes_are_correlated() {
        let mut r = rng();
        for seed in 0..32u64 {
            let mut t = Tableau::new(2).unwrap();
            t.h(0).unwrap();
            t.cx(0, 1).unwrap();
            let mut shot_rng = StdRng::seed_from_u64(seed);
            let a = t.measure(0, &mut shot_rng).unwrap();
            let b = t.measure(1, &mut shot_rng).unwrap();
            assert_eq!(a, b);
            let _ = r.next_u64();
        }
    }

    #[test]
    fn hzh_equals_x() {
        let mut t = Tableau::new(1).unwrap();
        t.h(0).unwrap();
        t.z(0).unwrap();
        t.h(0).unwrap();
        assert_eq!(t.probability_one(0).unwrap(), 1.0);
    }

    #[test]
    fn s_squared_equals_z_and_sdg_inverts() {
        // |+> with S·S applied is |->; H maps it to |1>.
        let mut t = Tableau::new(1).unwrap();
        t.h(0).unwrap();
        t.s(0).unwrap();
        t.s(0).unwrap();
        t.h(0).unwrap();
        assert_eq!(t.probability_one(0).unwrap(), 1.0);
        // S then S† is identity.
        let mut t = Tableau::new(1).unwrap();
        t.h(0).unwrap();
        t.s(0).unwrap();
        t.sdg(0).unwrap();
        t.h(0).unwrap();
        assert_eq!(t.probability_one(0).unwrap(), 0.0);
    }

    #[test]
    fn y_on_zero_gives_one() {
        let mut t = Tableau::new(1).unwrap();
        t.y(0).unwrap();
        assert_eq!(t.probability_one(0).unwrap(), 1.0);
    }

    #[test]
    fn swap_moves_excitation() {
        let mut t = Tableau::new(2).unwrap();
        t.x(0).unwrap();
        t.swap(0, 1).unwrap();
        assert_eq!(t.probability_one(0).unwrap(), 0.0);
        assert_eq!(t.probability_one(1).unwrap(), 1.0);
    }

    #[test]
    fn cz_and_cy_match_statevector_probabilities() {
        // |+>|+> then CZ then H(1) is the Bell-like circuit where qubit 1
        // marginal is 1/2; cross-check every marginal against the dense
        // engine on a few fixed circuits.
        for gate in ["cz", "cy"] {
            let mut t = Tableau::new(2).unwrap();
            let mut sv = StateVector::new(2).unwrap();
            t.h(0).unwrap();
            sv.apply_single(&gates::h(), 0).unwrap();
            t.x(1).unwrap();
            sv.apply_single(&gates::x(), 1).unwrap();
            match gate {
                "cz" => {
                    t.cz(0, 1).unwrap();
                    sv.apply_controlled(&gates::z(), &[0], 1).unwrap();
                }
                _ => {
                    t.cy(0, 1).unwrap();
                    sv.apply_controlled(&gates::y(), &[0], 1).unwrap();
                }
            }
            t.h(0).unwrap();
            sv.apply_single(&gates::h(), 0).unwrap();
            for q in 0..2 {
                let dense = sv.probability_one(q).unwrap();
                let tab = t.probability_one(q).unwrap();
                assert!(
                    (dense - tab).abs() < 1e-9,
                    "{gate}: qubit {q} dense={dense} tableau={tab}"
                );
            }
        }
    }

    #[test]
    fn ghz_hundred_qubits_is_fully_correlated() {
        let mut t = Tableau::new(100).unwrap();
        t.h(0).unwrap();
        for q in 0..99 {
            t.cx(q, q + 1).unwrap();
        }
        // Every qubit marginal is 1/2 before measurement…
        assert_eq!(t.probability_one(50).unwrap(), 0.5);
        // …and all outcomes agree within a shot.
        let mut r = rng();
        let first = t.measure(0, &mut r).unwrap();
        for q in 1..100 {
            assert_eq!(t.measure(q, &mut r).unwrap(), first);
        }
    }

    #[test]
    fn measurement_is_repeatable() {
        let mut t = Tableau::new(2).unwrap();
        t.h(0).unwrap();
        t.cx(0, 1).unwrap();
        let mut r = rng();
        let first = t.measure(0, &mut r).unwrap();
        for _ in 0..8 {
            assert_eq!(t.measure(0, &mut r).unwrap(), first);
        }
    }

    #[test]
    fn forced_measurement_matches_the_drawn_one() {
        let mut r = rng();
        for _ in 0..16 {
            let mut t = Tableau::new(3).unwrap();
            t.h(0).unwrap();
            t.cx(0, 1).unwrap();
            t.s(1).unwrap();
            t.h(2).unwrap();
            t.cz(2, 0).unwrap();
            let mut forced = t.clone();
            assert_eq!(t.determined_outcome(0).unwrap(), None);
            let drawn = t.measure(0, &mut r).unwrap();
            assert_eq!(forced.measure_forced(0, drawn).unwrap(), drawn);
            assert_eq!((&t.x, &t.z, &t.r), (&forced.x, &forced.z, &forced.r));
            // Once determined, the forced coin is ignored.
            assert_eq!(t.determined_outcome(0).unwrap(), Some(drawn));
            assert_eq!(forced.measure_forced(0, !drawn).unwrap(), drawn);
        }
    }

    #[test]
    fn reset_forces_zero() {
        let mut t = Tableau::new(1).unwrap();
        let mut r = rng();
        t.h(0).unwrap();
        t.reset(0, &mut r).unwrap();
        assert_eq!(t.probability_one(0).unwrap(), 0.0);
    }

    #[test]
    fn grow_preserves_state_and_adds_zeros() {
        let mut t = Tableau::new(2).unwrap();
        t.h(0).unwrap();
        t.cx(0, 1).unwrap();
        t.x(1).unwrap();
        t.grow(3).unwrap();
        assert_eq!(t.num_qubits(), 5);
        // New qubits are |0>.
        for q in 2..5 {
            assert_eq!(t.probability_one(q).unwrap(), 0.0);
        }
        // Old entanglement survives: outcomes anti-correlated (X on 1).
        let mut r = rng();
        let a = t.measure(0, &mut r).unwrap();
        let b = t.measure(1, &mut r).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn sample_does_not_collapse_and_matches_support() {
        let mut t = Tableau::new(2).unwrap();
        t.h(0).unwrap();
        t.cx(0, 1).unwrap();
        let mut r = rng();
        let counts = t.sample(&[0, 1], 500, &mut r).unwrap();
        // Bell support is {00, 11}.
        assert!(counts.keys().all(|&k| k == 0b00 || k == 0b11));
        let zeros = *counts.get(&0b00).unwrap_or(&0);
        let ones = *counts.get(&0b11).unwrap_or(&0);
        assert_eq!(zeros + ones, 500);
        assert!(zeros > 150 && ones > 150, "{zeros} vs {ones}");
        // Sampling left the tableau un-collapsed.
        assert_eq!(t.probability_one(0).unwrap(), 0.5);
    }

    /// Clone-per-shot reference sampler (the pre-ranked implementation):
    /// the ranked sampler must reproduce its histograms bit-for-bit,
    /// including RNG stream consumption.
    fn reference_sample(
        t: &Tableau,
        qubits: &[usize],
        shots: usize,
        rng: &mut StdRng,
    ) -> HashMap<usize, usize> {
        let mut counts = HashMap::new();
        for _ in 0..shots {
            let mut c = t.clone();
            let mut key = 0usize;
            for (k, &q) in qubits.iter().enumerate() {
                if c.measure(q, rng).unwrap() {
                    key |= 1 << k;
                }
            }
            *counts.entry(key).or_insert(0) += 1;
        }
        counts
    }

    /// Seeded Fisher–Yates shuffle.
    fn shuffle(v: &mut [usize], gen: &mut StdRng) {
        for i in (1..v.len()).rev() {
            v.swap(i, gen.random_range(0..=i));
        }
    }

    /// Asserts that the ranked sampler reproduces the clone-per-shot
    /// reference on `qubits` at `seed`.
    fn assert_matches_reference(t: &Tableau, qubits: &[usize], shots: usize, seed: u64) {
        let reference = reference_sample(t, qubits, shots, &mut StdRng::seed_from_u64(seed));
        let ranked = t
            .sample(qubits, shots, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        assert_eq!(ranked, reference, "seed {seed}, qubits {qubits:?} diverged");
    }

    #[test]
    fn ranked_sampler_matches_clone_per_shot_bit_for_bit() {
        for seed in 0..16u64 {
            let mut gen = StdRng::seed_from_u64(0x5A5A + seed);
            let n = 2 + (gen.next_u64() % 5) as usize;
            let mut t = Tableau::new(n).unwrap();
            for _ in 0..40 {
                let q = (gen.next_u64() % n as u64) as usize;
                match gen.next_u64() % 6 {
                    0 => t.h(q).unwrap(),
                    1 => t.s(q).unwrap(),
                    2 => t.x(q).unwrap(),
                    3 => t.z(q).unwrap(),
                    _ => {
                        let p = (q + 1) % n;
                        t.cx(q, p).unwrap();
                    }
                }
            }
            let all: Vec<usize> = (0..n).collect();
            assert_matches_reference(&t, &all, 300, seed);
            // A subset of the qubits, measured in shuffled order.
            let mut subset = all;
            shuffle(&mut subset, &mut gen);
            subset.truncate(1 + (gen.next_u64() % n as u64) as usize);
            assert_matches_reference(&t, &subset, 300, seed);
        }
        // Both sides of the tally cut-over (`TALLY_MAX_RANK` = 16): H
        // on the first `rank` qubits, spread by CNOTs over the rest, all measured in
        // shuffled order.
        for (n, rank) in [(18, 15), (20, 16), (21, 17), (24, 20)] {
            let mut gen = StdRng::seed_from_u64(rank as u64);
            let mut t = Tableau::new(n).unwrap();
            for q in 0..rank {
                t.h(q).unwrap();
            }
            for q in 0..rank {
                t.s(q).unwrap();
                t.cx(q, rank + q % (n - rank)).unwrap();
            }
            for q in 1..rank {
                t.cx(q - 1, q).unwrap();
            }
            t.x(n - 1).unwrap();
            let mut order: Vec<usize> = (0..n).collect();
            shuffle(&mut order, &mut gen);
            assert_eq!(t.ranked_outcomes(&order).rank, rank as u32);
            assert_matches_reference(&t, &order, 300, rank as u64);
        }
    }

    #[test]
    fn ranked_sampler_handles_wide_ghz_cheaply() {
        // 100-qubit GHZ: rank 1 over 100 measured qubits (key guard
        // limits joint histograms to < 64 qubits, so sample the ends
        // plus the middle). 100k shots must be a tight loop, not 100k
        // tableau clones.
        let mut t = Tableau::new(100).unwrap();
        t.h(0).unwrap();
        for q in 0..99 {
            t.cx(q, q + 1).unwrap();
        }
        let mut r = rng();
        let counts = t.sample(&[0, 50, 99], 100_000, &mut r).unwrap();
        let zeros = *counts.get(&0b000).unwrap_or(&0);
        let ones = *counts.get(&0b111).unwrap_or(&0);
        assert_eq!(zeros + ones, 100_000, "GHZ support is {{000, 111}}");
        assert!(zeros > 45_000 && ones > 45_000, "{zeros} vs {ones}");
    }

    #[test]
    fn out_of_range_and_duplicate_are_typed_errors() {
        let mut t = Tableau::new(2).unwrap();
        assert!(matches!(
            t.h(7),
            Err(SimError::QubitOutOfRange { qubit: 7, .. })
        ));
        assert!(matches!(t.cx(1, 1), Err(SimError::DuplicateQubit(1))));
        assert!(matches!(
            Tableau::new(TABLEAU_MAX_QUBITS + 1),
            Err(SimError::TooManyQubits(_))
        ));
    }

    #[test]
    fn interrupt_cancels_sampling() {
        use qutes_supervisor::StopReason;
        let mut t = Tableau::new(2).unwrap();
        t.h(0).unwrap();
        let intr = Interrupt::new();
        intr.cancel();
        t.set_interrupt(intr);
        let mut r = rng();
        let err = t.sample(&[0, 1], 10, &mut r).unwrap_err();
        assert_eq!(err, SimError::Interrupted(StopReason::Cancelled));
    }

    #[test]
    fn deadline_stops_long_sampling_promptly() {
        use qutes_supervisor::StopReason;
        use std::time::{Duration, Instant};
        let mut t = Tableau::new(2).unwrap();
        t.h(0).unwrap();
        t.set_interrupt(Interrupt::with_deadline(Duration::from_millis(1)));
        let start = Instant::now();
        let err = t.sample(&[0, 1], 1_000_000_000, &mut rng()).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Interrupted(StopReason::DeadlineExceeded { .. })
            ),
            "{err:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    /// Random-Clifford equivalence: apply an identical random gate
    /// sequence to a tableau and a dense statevector, then require every
    /// single-qubit marginal to agree exactly (stabilizer marginals are
    /// 0, ½, or 1) and sampled joint outcomes to lie in the dense
    /// support.
    #[test]
    fn random_clifford_circuits_match_statevector() {
        for seed in 0..24u64 {
            let mut gen = StdRng::seed_from_u64(0x00C1_1FF0 + seed);
            let n = 2 + (gen.next_u64() % 4) as usize;
            let mut t = Tableau::new(n).unwrap();
            let mut sv = StateVector::new(n).unwrap();
            for _ in 0..30 {
                let q = (gen.next_u64() % n as u64) as usize;
                match gen.next_u64() % 9 {
                    0 => {
                        t.h(q).unwrap();
                        sv.apply_single(&gates::h(), q).unwrap();
                    }
                    1 => {
                        t.s(q).unwrap();
                        sv.apply_single(&gates::s(), q).unwrap();
                    }
                    2 => {
                        t.sdg(q).unwrap();
                        sv.apply_single(&gates::sdg(), q).unwrap();
                    }
                    3 => {
                        t.x(q).unwrap();
                        sv.apply_single(&gates::x(), q).unwrap();
                    }
                    4 => {
                        t.y(q).unwrap();
                        sv.apply_single(&gates::y(), q).unwrap();
                    }
                    5 => {
                        t.z(q).unwrap();
                        sv.apply_single(&gates::z(), q).unwrap();
                    }
                    _ => {
                        let mut p = (gen.next_u64() % n as u64) as usize;
                        if p == q {
                            p = (p + 1) % n;
                        }
                        match gen.next_u64() % 3 {
                            0 => {
                                t.cx(q, p).unwrap();
                                sv.apply_controlled(&gates::x(), &[q], p).unwrap();
                            }
                            1 => {
                                t.cz(q, p).unwrap();
                                sv.apply_controlled(&gates::z(), &[q], p).unwrap();
                            }
                            _ => {
                                t.swap(q, p).unwrap();
                                sv.apply_swap(q, p).unwrap();
                            }
                        }
                    }
                }
            }
            for q in 0..n {
                let dense = sv.probability_one(q).unwrap();
                let tab = t.probability_one(q).unwrap();
                assert!(
                    (dense - tab).abs() < 1e-9,
                    "seed {seed}: qubit {q} dense={dense} tableau={tab}"
                );
            }
            // Joint samples must land inside the dense support.
            let all: Vec<usize> = (0..n).collect();
            let mut r = StdRng::seed_from_u64(seed);
            let counts = t.sample(&all, 200, &mut r).unwrap();
            let marginal = sv.marginal_probabilities(&all).unwrap();
            for (&key, &c) in &counts {
                assert!(c > 0);
                assert!(
                    marginal[key] > 1e-9,
                    "seed {seed}: tableau sampled {key:#b} outside dense support"
                );
            }
        }
    }

    /// Mid-circuit measurement equivalence: measuring inside a random
    /// Clifford circuit must leave both engines with matching marginals
    /// when they observe the same outcomes. Drives the tableau's
    /// collapse path (rowsum + demotion) rather than only end-state
    /// sampling.
    #[test]
    fn mid_circuit_collapse_matches_statevector() {
        for seed in 0..16u64 {
            let mut gen = StdRng::seed_from_u64(0xBEEF + seed);
            let n = 3;
            let mut t = Tableau::new(n).unwrap();
            let mut sv = StateVector::new(n).unwrap();
            for step in 0..20 {
                let q = (gen.next_u64() % n as u64) as usize;
                match gen.next_u64() % 4 {
                    0 => {
                        t.h(q).unwrap();
                        sv.apply_single(&gates::h(), q).unwrap();
                    }
                    1 => {
                        let p = (q + 1) % n;
                        t.cx(q, p).unwrap();
                        sv.apply_controlled(&gates::x(), &[q], p).unwrap();
                    }
                    2 => {
                        t.s(q).unwrap();
                        sv.apply_single(&gates::s(), q).unwrap();
                    }
                    _ if step > 4 => {
                        // Measure on the tableau, then force the dense
                        // state onto the same branch.
                        let mut mr = StdRng::seed_from_u64(seed * 100 + step);
                        let outcome = t.measure(q, &mut mr).unwrap();
                        let p1 = sv.probability_one(q).unwrap();
                        let feasible = if outcome { p1 > 1e-9 } else { p1 < 1.0 - 1e-9 };
                        assert!(feasible, "tableau branch impossible in dense state");
                        sv.collapse_qubit(q, outcome).unwrap();
                    }
                    _ => {}
                }
            }
            for q in 0..n {
                let dense = sv.probability_one(q).unwrap();
                let tab = t.probability_one(q).unwrap();
                assert!(
                    (dense - tab).abs() < 1e-9,
                    "seed {seed}: qubit {q} dense={dense} tableau={tab}"
                );
            }
        }
    }

    #[test]
    fn action_eq_distinguishes_clifford_circuits() {
        // HZH = X: the two replays must agree row for row.
        let mut a = Tableau::new(2).unwrap();
        a.h(0).unwrap();
        a.z(0).unwrap();
        a.h(0).unwrap();
        let mut b = Tableau::new(2).unwrap();
        b.x(0).unwrap();
        assert!(a.action_eq(&b));

        // X vs Y differ only in conjugation signs — caught by the r bits.
        let mut x = Tableau::new(1).unwrap();
        x.x(0).unwrap();
        let mut y = Tableau::new(1).unwrap();
        y.y(0).unwrap();
        assert!(!x.action_eq(&y));

        // Width mismatch is never equal.
        assert!(!Tableau::new(1)
            .unwrap()
            .action_eq(&Tableau::new(2).unwrap()));
    }

    #[test]
    fn identity_action_after_inverse_pair() {
        let mut t = Tableau::new(3).unwrap();
        assert!(t.is_identity_action());
        t.h(0).unwrap();
        t.cx(0, 1).unwrap();
        assert!(!t.is_identity_action());
        t.cx(0, 1).unwrap();
        t.h(0).unwrap();
        assert!(t.is_identity_action());
    }

    #[test]
    fn action_eq_sees_phase_of_swapped_wires() {
        // SWAP(0,1) vs CX·CX·CX implement the same permutation.
        let mut s = Tableau::new(2).unwrap();
        s.swap(0, 1).unwrap();
        let mut c = Tableau::new(2).unwrap();
        c.cx(0, 1).unwrap();
        c.cx(1, 0).unwrap();
        c.cx(0, 1).unwrap();
        assert!(s.action_eq(&c));
    }
}
