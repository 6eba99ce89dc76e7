//! Golden seeded histograms of noise-free batched replay.
//!
//! Each case builds a circuit whose measurements are all terminal, so
//! [`run_shots_cfg`] simulates it once and samples every shot from the
//! final state: through `Tableau::sample` on the stabilizer engine and
//! through `measure::sample_counts` on the dense one. The cases span the
//! ranked sampler's low-rank and high-rank paths (a 60-qubit GHZ at
//! rank 1, Clifford circuits at rank 16 and 20) and 3- and 10-qubit
//! non-Clifford states on the statevector. Measured qubits are mapped to
//! clbits in a shuffled order, so the key re-scatter is covered too.
//! Any change to how sampling draws from the RNG shows up as a diff.
//!
//! Each line pins the number of distinct outcomes, an FNV-1a digest of
//! the whole sorted histogram, and its most frequent entries.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! QUTES_UPDATE_GOLDEN=1 cargo test -p qutes-qcirc --test sampling_goldens
//! ```

// Circuit-builder helpers sit outside `#[test]` fns, where clippy's
// `allow-unwrap-in-tests` does not reach.
#![allow(clippy::unwrap_used)]

use qutes_qcirc::{run_shots_cfg, BackendChoice, ExecutionConfig, QuantumCircuit};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Entries of each histogram printed verbatim (the digest covers all).
const TOP: usize = 6;

/// Measures every qubit, qubit `q` into clbit `(q * stride) % n`, with
/// `stride` coprime to `n` so the map is a permutation.
fn measure_permuted(c: &mut QuantumCircuit, n: usize, stride: usize) {
    for q in 0..n {
        c.measure(q, (q * stride) % n).unwrap();
    }
}

/// `n`-qubit GHZ state: rank 1 however many qubits are measured.
fn ghz(n: usize) -> QuantumCircuit {
    let mut c = QuantumCircuit::with_qubits_and_clbits(n, n);
    c.h(0).unwrap();
    for q in 0..n - 1 {
        c.cx(q, q + 1).unwrap();
    }
    measure_permuted(&mut c, n, 7);
    c
}

/// Clifford circuit on `n` qubits whose outcome distribution has exactly
/// `rank` free bits: H on the first `rank` qubits spread by CNOTs onto
/// the rest, with phase gates and an X so forms carry constants.
fn clifford_rank(n: usize, rank: usize) -> QuantumCircuit {
    let mut c = QuantumCircuit::with_qubits_and_clbits(n, n);
    for q in 0..rank {
        c.h(q).unwrap();
    }
    for q in 0..rank {
        c.s(q).unwrap();
        c.cx(q, rank + q % (n - rank)).unwrap();
    }
    for q in 1..rank {
        c.cx(q - 1, q).unwrap();
    }
    c.x(n - 1).unwrap().z(0).unwrap();
    measure_permuted(&mut c, n, 7);
    c
}

/// Non-Clifford state on `n` qubits: distinct rotations, a CNOT ladder
/// and T gates, so the marginal is uneven and dense.
fn rotated(n: usize) -> QuantumCircuit {
    let mut c = QuantumCircuit::with_qubits_and_clbits(n, n);
    for q in 0..n {
        c.ry(0.3 + 0.41 * q as f64, q).unwrap();
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1).unwrap();
        c.t(q + 1).unwrap();
    }
    c.h(0).unwrap();
    measure_permuted(&mut c, n, if n.is_multiple_of(3) { 2 } else { 3 });
    c
}

/// One case: a name, a circuit, a forced engine and a shot count.
struct Case {
    name: &'static str,
    circuit: QuantumCircuit,
    backend: BackendChoice,
    shots: usize,
}

fn cases() -> Vec<Case> {
    let case = |name, circuit, backend, shots| Case {
        name,
        circuit,
        backend,
        shots,
    };
    vec![
        case("ghz60_tableau", ghz(60), BackendChoice::Tableau, 100_000),
        case(
            "rank16_tableau",
            clifford_rank(20, 16),
            BackendChoice::Tableau,
            4096,
        ),
        case(
            "rank20_tableau",
            clifford_rank(24, 20),
            BackendChoice::Tableau,
            4096,
        ),
        case("sv3", rotated(3), BackendChoice::Statevector, 4096),
        case("sv10", rotated(10), BackendChoice::Statevector, 4096),
    ]
}

/// FNV-1a over the sorted `(key, count)` pairs.
fn digest(pairs: &[(usize, usize)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(k, n) in pairs {
        let bytes = (k as u64).to_le_bytes().into_iter();
        for b in bytes.chain((n as u64).to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Runs `case` at `seed` with no optimizer pass and renders the
/// histogram as one line.
fn render(case: &Case, seed: u64) -> String {
    let cfg = ExecutionConfig::default()
        .with_shots(case.shots)
        .with_seed(seed)
        .with_opt_level(0)
        .with_backend(case.backend);
    let counts = run_shots_cfg(&case.circuit, &cfg).unwrap();
    let sorted = counts.sorted();
    assert_eq!(
        sorted.iter().map(|&(_, n)| n).sum::<usize>(),
        case.shots,
        "{}: every shot lands in the histogram",
        case.name
    );
    let mut line = format!(
        "{} seed={seed}: distinct={} fnv={:016x} top:",
        case.name,
        sorted.len(),
        digest(&sorted)
    );
    for &(key, n) in sorted.iter().take(TOP) {
        write!(line, " {}x{n}", counts.key_to_bitstring(key)).unwrap();
    }
    line
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/sampling_goldens.txt")
}

#[test]
fn batched_sampling_histograms_match_the_goldens() {
    let mut rendered = String::new();
    for case in cases() {
        for seed in [0u64, 1, 7] {
            rendered.push_str(&render(&case, seed));
            rendered.push('\n');
        }
    }
    if std::env::var_os("QUTES_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path()).unwrap();
    for (want, got) in golden.lines().zip(rendered.lines()) {
        assert_eq!(got, want, "sampled histogram moved");
    }
    assert_eq!(
        golden.lines().count(),
        rendered.lines().count(),
        "golden line count differs; rerun with QUTES_UPDATE_GOLDEN=1 if intended"
    );
}
