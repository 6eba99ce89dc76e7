//! Golden outputs of the circuit optimizer on the circuits real programs
//! build.
//!
//! Each case runs a program through `run_source` with `shots: 0` (the
//! live run alone, which never optimizes) and hands the circuit it built
//! to `optimize_with_trace` at levels 1, 2 and 3. The programs are every
//! shipped example, the four `"pattern" in text` searches of the
//! benchmark's `wide_search` workload and its noisy quint adder, each at
//! seeds 0-15.
//!
//! Each line pins the `OptimizationReport`, the number of pass
//! boundaries, and an FNV-1a digest of the `{:?}` rendering of the
//! output gates and of every `PassBoundary`. `{:?}` prints an `f64` so
//! that it parses back to the same bits (`-0.0` included), so the digest
//! is bit-exact: any rewrite of the optimizer that changes one gate, one
//! matrix entry, or where a pass boundary falls shows up as a diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! QUTES_UPDATE_GOLDEN=1 cargo test --test optimizer_golden
//! ```

use qutes::qcirc::{optimize_with_trace, QuantumCircuit};
use qutes::sim::NoiseModel;
use qutes::{run_source, Interrupt, RunConfig};
use std::path::{Path, PathBuf};

/// The `wide_search` texts, each with the slot its 4-bit pattern is cut
/// from.
const WIDE_SEARCH: [(&str, usize); 4] = [
    ("00011010101", 1),
    ("00111001010", 3),
    ("11000001101", 5),
    ("00001110101", 7),
];

/// One program: a name, its source, and the live-run configuration
/// (its seed is replaced per case).
struct Program {
    name: String,
    source: String,
    config: RunConfig,
}

fn programs() -> Vec<Program> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "qut"))
        .collect();
    paths.sort();
    let mut out: Vec<Program> = paths
        .iter()
        .map(|p| Program {
            name: p.file_stem().unwrap().to_string_lossy().into_owned(),
            source: std::fs::read_to_string(p).unwrap(),
            config: RunConfig::default(),
        })
        .collect();
    for (k, (text, at)) in WIDE_SEARCH.into_iter().enumerate() {
        let pattern = &text[at..at + 4];
        out.push(Program {
            name: format!("wide_search_{k}"),
            source: format!(
                "qustring text = \"{text}\"q;\n\
                 if (\"{pattern}\" in text) {{\n    print \"found\";\n}} else {{\n    print \"missing\";\n}}\n"
            ),
            config: RunConfig::default(),
        });
    }
    out.push(Program {
        name: "noisy_arith".to_string(),
        source: "quint a = [0, 2, 7]q;\nquint b = [1, 3]q;\nquint s = a + b;\nprint s;\n"
            .to_string(),
        config: RunConfig {
            noise: Some(NoiseModel::depolarizing(0.002)),
            ..RunConfig::default()
        },
    });
    out
}

/// FNV-1a-64 over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The circuit `program` builds at `seed`. The live run never reads the
/// optimization level (only shot replay does), so one circuit serves
/// every level.
fn live_circuit(program: &Program, seed: u64) -> QuantumCircuit {
    let cfg = RunConfig {
        seed,
        shots: 0,
        ..program.config.clone()
    };
    run_source(&program.source, &cfg)
        .unwrap_or_else(|e| panic!("{}: {}", program.name, e.render(&program.source)))
        .circuit
}

/// Optimizes `circuit` at `level` and renders the outcome as one line.
fn render(name: &str, seed: u64, level: u8, circuit: &QuantumCircuit) -> String {
    let (out, report, trace) = optimize_with_trace(circuit, level, &Interrupt::new())
        .unwrap_or_else(|e| panic!("{name} seed={seed} -O{level}: {e}"));
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, format!("{:?}", out.ops()).as_bytes());
    for b in &trace {
        h = fnv1a(h, format!("{b:?}").as_bytes());
    }
    format!(
        "{name} seed={seed} -O{level}: {report:?} boundaries={} fnv={h:016x}",
        trace.len()
    )
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/optimized_circuits.txt")
}

#[test]
fn optimized_circuits_match_the_goldens() {
    let mut rendered = String::new();
    for program in programs() {
        for seed in 0..16u64 {
            let circuit = live_circuit(&program, seed);
            for level in 1..=3u8 {
                rendered.push_str(&render(&program.name, seed, level, &circuit));
                rendered.push('\n');
            }
        }
    }
    if std::env::var_os("QUTES_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
        std::fs::write(golden_path(), &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path()).unwrap();
    for (want, got) in golden.lines().zip(rendered.lines()) {
        assert_eq!(got, want, "optimizer output moved");
    }
    assert_eq!(
        golden.lines().count(),
        rendered.lines().count(),
        "golden line count differs; rerun with QUTES_UPDATE_GOLDEN=1 if intended"
    );
}
