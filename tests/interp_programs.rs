//! The interpreter microbenchmarks under `tests/interp_programs/`:
//! their outputs are pinned so a later timing of them measures a run
//! that still computes the right answer.

use qutes::{run_source, RunConfig};
use std::path::Path;

fn output(name: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/interp_programs")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    run_source(&src, &RunConfig::default())
        .unwrap_or_else(|e| panic!("run failed:\n{}", e.render(&src)))
        .output
}

#[test]
fn recursive_fib_20() {
    assert_eq!(output("fib20.qut"), ["6765"]);
}

#[test]
fn hundred_thousand_iteration_loop() {
    assert_eq!(output("loop100k.qut"), ["4999950000"]);
}
