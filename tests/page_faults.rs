//! Page-fault regression guard for recycled state storage. Each thread
//! keeps the amplitude buffers of the states it drops and reuses them,
//! so once a request has run, the same request again maps no new
//! memory. Without the reuse, a noisy 14-qubit request takes about 140
//! minor page faults, as the allocator returns the freed states between
//! requests and the next one faults them in again.
//!
//! The count is read from `/proc/self/stat`, which covers the whole
//! process; the file holds one test so that no other test runs beside
//! it.

#![cfg(target_os = "linux")]

use qutes::sim::NoiseModel;
use qutes::{run_source, RunConfig};

/// `a + b` over superposed quints (14 qubits) under depolarizing noise.
const NOISY_ARITH: &str = "quint a = [0, 2, 7]q;\nquint b = [1, 3]q;\nquint s = a + b;\nprint s;\n";

/// Minor page faults of this process so far: field 10 of
/// `/proc/self/stat`, counted after the parenthesised command name.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 2..];
    after_comm
        .split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .expect("minflt field")
}

#[test]
fn repeated_noisy_requests_take_no_page_faults() {
    const RUNS: u64 = 50;
    let config = |seed| RunConfig {
        seed,
        noise: Some(NoiseModel::depolarizing(0.002)),
        shots: 8,
        shot_threads: 1,
        ..RunConfig::default()
    };
    let run = |seed| {
        let out = run_source(NOISY_ARITH, &config(seed)).expect("noisy_arith runs");
        assert!(out.counts.is_some());
    };
    // The warm-up covers every seed the measured runs use, so their
    // largest live set of states has been held once already.
    for seed in 0..RUNS {
        run(seed);
    }
    let before = minor_faults();
    for seed in 0..RUNS {
        run(seed);
    }
    let faults = minor_faults() - before;
    assert!(
        faults < RUNS,
        "{faults} minor page faults over {RUNS} runs, expected under 1 per run"
    );
}
