//! End-to-end CLI tests: drive the built `qutes` binary on real files
//! and check stdout/stderr/exit codes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn qutes(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qutes"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_program(name: &str, src: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qutes-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, src).unwrap();
    path
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn run_prints_program_output() {
    let p = write_program("add.qut", "quint a = 5q; quint b = 3q; print a + b;");
    let out = qutes(&["run", p.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out).trim(), "8");
}

#[test]
fn run_is_seed_reproducible() {
    let p = write_program("super.qut", "quint n = [0, 1, 2, 3]q; print n;");
    let a = stdout(&qutes(&["run", p.to_str().unwrap(), "--seed", "9"]));
    let b = stdout(&qutes(&["run", p.to_str().unwrap(), "--seed", "9"]));
    assert_eq!(a, b);
}

#[test]
fn run_stats_go_to_stderr() {
    let p = write_program("stats.qut", "qubit q = |+>; print q;");
    let out = qutes(&["run", p.to_str().unwrap(), "--stats"]);
    assert!(out.status.success());
    // H + measure is Clifford-only: `auto` resolves to the tableau.
    assert!(
        stderr(&out).contains("[stats] backend=tableau qubits=1"),
        "{}",
        stderr(&out)
    );
    let out = qutes(&[
        "run",
        p.to_str().unwrap(),
        "--stats",
        "--backend",
        "statevector",
    ]);
    assert!(out.status.success());
    assert!(
        stderr(&out).contains("[stats] backend=statevector qubits=1"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn run_draw_renders_circuit() {
    let p = write_program(
        "bell.qut",
        "qubit a = |0>; qubit b = |0>; hadamard a; cnot a, b;",
    );
    let out = qutes(&["run", p.to_str().unwrap(), "--draw"]);
    let text = stdout(&out);
    assert!(text.contains("q0: "), "{text}");
    assert!(text.contains('H'));
    assert!(text.contains('X'));
}

#[test]
fn run_reports_errors_with_context() {
    let p = write_program("bad.qut", "int x = 1;\nhadamard x;");
    let out = qutes(&["run", p.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("quantum operand"), "{err}");
    assert!(err.contains("hadamard x;"), "{err}");
}

#[test]
fn check_passes_and_fails() {
    let good = write_program("good.qut", "print 1 + 1;");
    let out = qutes(&["check", good.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(stdout(&out).trim(), "ok");

    let bad = write_program("badtype.qut", "int x = \"nope\";");
    let out = qutes(&["check", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot initialise"));
}

#[test]
fn fmt_canonicalises() {
    let messy = write_program("messy.qut", "int   x=1;   print    x ;");
    let out = qutes(&["fmt", messy.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), "int x = 1;\nprint x;\n");
}

#[test]
fn qasm_emits_openqasm2_and_3() {
    let p = write_program("q.qut", "qubit a = |+>; print a;");
    let out = qutes(&["qasm", p.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("OPENQASM 2.0;"));
    let out = qutes(&["qasm", p.to_str().unwrap(), "--v3"]);
    assert!(stdout(&out).contains("OPENQASM 3.0;"));
}

#[test]
fn qasm_writes_output_file() {
    let p = write_program("qo.qut", "qubit a = |1>; print a;");
    let target = std::env::temp_dir().join("qutes-cli-tests/out.qasm");
    let _ = std::fs::remove_file(&target);
    let out = qutes(&["qasm", p.to_str().unwrap(), "-o", target.to_str().unwrap()]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&target).unwrap();
    assert!(text.contains("OPENQASM 2.0;"));
}

#[test]
fn bad_usage_exits_2() {
    let out = qutes(&[]);
    assert_eq!(out.status.code(), Some(2));
    let out = qutes(&["run"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("missing input file"));
    let p = write_program("u.qut", "print 1;");
    let out = qutes(&["run", p.to_str().unwrap(), "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let out = qutes(&["frobnicate", p.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn run_trace_prints_span_tree() {
    let p = write_program(
        "trace.qut",
        "qubit a = |0>; qubit b = |0>; hadamard a; cnot a, b; print a;",
    );
    // Pinned to the statevector: the tableau path (which this Clifford
    // program would auto-select) intentionally skips `stage.optimize`.
    let out = qutes(&[
        "run",
        p.to_str().unwrap(),
        "--trace",
        "--shots",
        "4",
        "--backend",
        "statevector",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("-- trace --"), "{err}");
    assert!(err.contains("stage.parse"), "{err}");
    assert!(err.contains("stage.op_pass"), "{err}");
    assert!(err.contains("stage.optimize"), "{err}");
    assert!(err.contains("stage.simulate"), "{err}");
}

#[test]
fn run_profile_prints_hot_path_table() {
    let p = write_program(
        "profile.qut",
        "qubit a = |0>; qubit b = |0>; hadamard a; cnot a, b; print a;",
    );
    // Pinned to the statevector: `kernel.1q` is a dense-engine counter.
    let out = qutes(&[
        "run",
        p.to_str().unwrap(),
        "--profile",
        "--backend",
        "statevector",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("-- profile --"), "{err}");
    assert!(err.contains("-- counters --"), "{err}");
    assert!(err.contains("gate.h"), "{err}");
    assert!(err.contains("kernel.1q"), "{err}");
}

#[test]
fn run_stats_json_writes_snapshot() {
    let p = write_program("statsjson.qut", "qubit a = |+>; print a;");
    let target = std::env::temp_dir().join("qutes-cli-tests/stats.json");
    let _ = std::fs::remove_file(&target);
    let out = qutes(&[
        "run",
        p.to_str().unwrap(),
        "--stats-json",
        target.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    // Observability output must not pollute stdout or stderr.
    assert!(!stderr(&out).contains("-- trace --"));
    let text = std::fs::read_to_string(&target).unwrap();
    assert!(text.contains("\"version\": 1"), "{text}");
    assert!(text.contains("\"timers\""), "{text}");
    assert!(text.contains("\"counters\""), "{text}");
    assert!(text.contains("\"spans\""), "{text}");
    assert!(text.contains("gate.h"), "{text}");
    assert_eq!(
        text.matches('{').count(),
        text.matches('}').count(),
        "balanced JSON braces: {text}"
    );
}

#[test]
fn run_stats_json_dash_goes_to_stdout() {
    let p = write_program("statsjson2.qut", "print 1;");
    let out = qutes(&["run", p.to_str().unwrap(), "--stats-json", "-"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.lines().next().unwrap().trim() == "1", "{text}");
    assert!(text.contains("\"version\": 1"), "{text}");
}

#[test]
fn missing_file_reports_cleanly() {
    let out = qutes(&["run", "/nonexistent/path.qut"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn max_steps_flag_guards_loops() {
    let p = write_program("loop.qut", "while (true) { }");
    let out = qutes(&["run", p.to_str().unwrap(), "--max-steps", "100"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("exceeded 100 steps"));
}

// ---- the lint subcommand and run --lint -----------------------------------

#[test]
fn lint_reports_findings_and_resources() {
    let p = write_program("lint_unused.qut", "int unused = 1;\nprint 2;\n");
    let out = qutes(&["lint", p.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "warnings alone must not fail the lint"
    );
    let text = stdout(&out);
    assert!(text.contains("warning[QL101]"), "{text}");
    assert!(text.contains("unused variable 'unused' at 1:1"), "{text}");
    assert!(text.contains("resources:"), "{text}");
}

#[test]
fn lint_clean_program_prints_only_resources() {
    let p = write_program("lint_clean.qut", "qubit q = |+>; print q;");
    let out = qutes(&["lint", p.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("resources: 1 qubit"), "{text}");
}

#[test]
fn lint_deny_warnings_fails_the_exit_code() {
    let p = write_program("lint_deny.qut", "int unused = 1;\nprint 2;\n");
    let out = qutes(&["lint", p.to_str().unwrap(), "--deny-warnings"]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("error[QL101]"), "{}", stdout(&out));
}

#[test]
fn lint_allow_silences_a_lint() {
    let p = write_program("lint_allow.qut", "int unused = 1;\nprint 2;\n");
    let out = qutes(&[
        "lint",
        p.to_str().unwrap(),
        "--deny-warnings",
        "-A",
        "QL101",
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(!stdout(&out).contains("QL101"));
}

#[test]
fn lint_json_emits_machine_readable_report() {
    let p = write_program("lint_json.qut", "int unused = 1;\nprint 2;\n");
    let out = qutes(&["lint", p.to_str().unwrap(), "--lint-json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("\"id\": \"QL101\""), "{text}");
    assert!(text.contains("\"line\": 1, \"col\": 1"), "{text}");
    assert!(text.contains("\"resources\""), "{text}");
    assert_eq!(
        text.matches('{').count(),
        text.matches('}').count(),
        "balanced JSON braces: {text}"
    );
}

#[test]
fn lint_rejects_unknown_lint_ids() {
    let p = write_program("lint_badid.qut", "print 1;");
    let out = qutes(&["lint", p.to_str().unwrap(), "-A", "QL999"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown lint 'QL999'"), "{err}");
    assert!(
        err.contains("QL001"),
        "the error must list known ids: {err}"
    );
}

#[test]
fn lint_reports_parse_errors_on_stderr() {
    let p = write_program("lint_parse.qut", "qubit q = ;");
    let out = qutes(&["lint", p.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error"), "{}", stderr(&out));
}

#[test]
fn run_lint_deny_warnings_refuses_execution() {
    let p = write_program("run_lint.qut", "int unused = 1;\nprint 2;\n");
    let out = qutes(&["run", p.to_str().unwrap(), "--lint", "--deny-warnings"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("refusing to run"), "{}", stderr(&out));
    assert!(
        !stdout(&out).contains('2'),
        "the program must not have executed: {}",
        stdout(&out)
    );
}

#[test]
fn run_lint_warnings_do_not_block_execution() {
    let p = write_program("run_lint_warn.qut", "int unused = 1;\nprint 2;\n");
    let out = qutes(&["run", p.to_str().unwrap(), "--lint"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out).trim(), "2");
    assert!(stderr(&out).contains("QL101"), "{}", stderr(&out));
}

#[test]
fn run_without_lint_flag_is_unchanged() {
    let p = write_program("run_nolint.qut", "int unused = 1;\nprint 2;\n");
    let out = qutes(&["run", p.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(stdout(&out).trim(), "2");
    assert!(!stderr(&out).contains("QL101"));
}

#[test]
fn closed_stdout_pipe_exits_quietly() {
    // The reader is gone before the command writes anything, as with
    // `qutes qasm prog.qut | head -0`: every write hits a broken pipe.
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs");
    for args in [["qasm", "ghz_100.qut"], ["run", "fib.qut"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_qutes"))
            .arg(args[0])
            .arg(examples.join(args[1]))
            .stdout(writer)
            .output()
            .expect("binary runs");
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: {err}");
        assert!(out.status.success(), "{args:?}: {:?}", out.status);
    }
}
