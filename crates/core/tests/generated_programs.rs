//! Golden outputs of generated classical programs: the seeded generator
//! in `common/generator.rs` writes small Qutes programs with functions,
//! recursion, globals read from function bodies, by-reference
//! parameters, `foreach` writes through the loop variable, shadowing in
//! nested blocks, early returns from loops, division by zero, and runs
//! that trip `max_steps` or `max_call_depth`. The golden holds each
//! program's outcome: the printed lines, or the rendered error (the
//! checker's diagnostics for a program it rejects). One golden file
//! covers a range of seeds.
//!
//! Regenerate after an intentional output change with:
//!
//! ```text
//! QUTES_UPDATE_GOLDEN=1 cargo test -p qutes-core --test generated_programs
//! ```

// Helpers outside `#[test]` fns fail loudly on an unexpected outcome.
#![allow(clippy::expect_used, clippy::panic)]

#[path = "common/generator.rs"]
mod generator;

use generator::generate;
use qutes_core::{run_source, RunConfig};
use std::fmt::Write as _;
use std::path::Path;

/// Seeds per golden file, and the number of files.
const SEEDS_PER_FILE: u64 = 100;
const FILES: u64 = 2;

fn outcome(source: &str) -> String {
    let cfg = RunConfig {
        max_steps: 4_000,
        max_call_depth: 24,
        ..RunConfig::default()
    };
    match run_source(source, &cfg) {
        Ok(out) => {
            let mut s = String::from("ok\n");
            for line in out.output {
                let _ = writeln!(s, "  {line}");
            }
            s
        }
        Err(e) => {
            let mut s = String::from("error\n");
            for line in e.render(source).lines() {
                let _ = writeln!(s, "  {line}");
            }
            s
        }
    }
}

fn render(seeds: std::ops::Range<u64>) -> String {
    let mut golden = String::new();
    for seed in seeds {
        let _ = writeln!(golden, "== seed {seed}");
        let _ = write!(golden, "checked: {}", outcome(&generate(seed)));
    }
    golden
}

#[test]
fn generated_programs_match_golden() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let update = std::env::var_os("QUTES_UPDATE_GOLDEN").is_some();
    for file in 0..FILES {
        let lo = file * SEEDS_PER_FILE;
        let hi = lo + SEEDS_PER_FILE;
        let actual = render(lo..hi);
        let path = dir.join(format!("generated_{lo:03}_{:03}.txt", hi - 1));
        if update {
            std::fs::create_dir_all(&dir).expect("golden dir");
            std::fs::write(&path, &actual).expect("golden file writes");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with QUTES_UPDATE_GOLDEN=1",
                path.display()
            )
        });
        if actual != expected {
            // Name the first seed that differs, with its program.
            let first = actual
                .split("== seed ")
                .zip(expected.split("== seed "))
                .find(|(a, e)| a != e)
                .map(|(a, e)| (a.to_string(), e.to_string()));
            if let Some((a, e)) = first {
                let seed: u64 = a
                    .split_whitespace()
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(lo);
                panic!(
                    "golden mismatch in {}\nprogram:\n{}\nactual:\n{a}\nexpected:\n{e}\n\
                     rerun with QUTES_UPDATE_GOLDEN=1 if intended",
                    path.display(),
                    generate(seed)
                );
            }
            panic!("golden mismatch in {}", path.display());
        }
    }
}

/// The generator reaches every construct the golden is meant to pin.
#[test]
fn generator_covers_its_constructs() {
    let all: String = (0..FILES * SEEDS_PER_FILE).map(generate).collect();
    for needle in [
        "foreach", "while (", "return", "int[] ", "{\n", "/ (", "late", "% ",
    ] {
        assert!(all.contains(needle), "no generated program has {needle:?}");
    }
    let golden: String = (0..FILES * SEEDS_PER_FILE)
        .map(|s| outcome(&generate(s)))
        .collect();
    for needle in [
        "division by zero",
        "execution exceeded",
        "recursion exceeded",
        "use of undeclared variable",
        "already declared",
    ] {
        assert!(golden.contains(needle), "no generated run hit {needle:?}");
    }
}
