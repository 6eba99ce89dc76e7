//! Fault-injection suite (requires `--features chaos`): arm each named
//! failpoint in the pipeline and prove the supervisor contains the
//! fault as a typed error — panics never cross the API, delays trip
//! deadlines, allocation refusals surface typed and (optionally)
//! trigger one degraded retry.
//!
//! The failpoint registry is process-global, so every test serialises
//! on one mutex and resets the registry on entry.

#![cfg(feature = "chaos")]

use qutes::supervisor::chaos::{arm, arm_once, reset, Fault};
use qutes::{run_source, DegradePolicy, QutesError, RunConfig, StopReason};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    reset();
    qutes_obs::reset();
    qutes_obs::set_enabled(true);
    guard
}

fn counter(snap: &qutes_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| **n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

const SIMPLE: &str = "qubit q = 0q; print q;";

#[test]
fn injected_panic_in_parse_path_is_contained() {
    let _g = serialize();
    arm_once("frontend.parse", Fault::Panic);
    let err = run_source(SIMPLE, &RunConfig::default()).unwrap_err();
    match err {
        QutesError::Internal { stage, message } => {
            assert!(!stage.is_empty());
            assert!(message.contains("frontend.parse"), "{message}");
        }
        other => panic!("expected Internal, got: {other}"),
    }
    let snap = qutes_obs::snapshot();
    assert!(counter(&snap, "supervisor.panics_contained") >= 1);
    assert!(counter(&snap, "chaos.injected") >= 1);
    reset();
}

#[test]
fn injected_panic_in_run_is_contained() {
    let _g = serialize();
    arm_once("core.run", Fault::Panic);
    let err = run_source(SIMPLE, &RunConfig::default()).unwrap_err();
    assert!(
        matches!(err, QutesError::Internal { .. }),
        "expected Internal, got: {err}"
    );
    reset();
}

#[test]
fn injected_panic_in_qasm_import_is_typed() {
    let _g = serialize();
    arm_once("qasm.import", Fault::Panic);
    let err = qutes::qasm::from_qasm2("qreg q[1]; h q[0];").unwrap_err();
    match err {
        qutes::qasm::QasmError::Internal { stage, .. } => {
            assert_eq!(stage, "qasm.import");
        }
        other => panic!("expected Internal, got: {other}"),
    }
    let snap = qutes_obs::snapshot();
    assert!(counter(&snap, "supervisor.panics_contained") >= 1);
    reset();
}

#[test]
fn injected_delay_trips_the_deadline() {
    let _g = serialize();
    arm("frontend.parse", Fault::Delay(80));
    let cfg = RunConfig {
        time_budget: Some(Duration::from_millis(20)),
        ..RunConfig::default()
    };
    // Enough statements that the parser reaches a stride-16 checkpoint
    // after the injected delay.
    let src = "int a = 1;\n".repeat(40) + "print 1;";
    let err = run_source(&src, &cfg).unwrap_err();
    assert!(
        matches!(
            err,
            QutesError::Interrupted(StopReason::DeadlineExceeded { .. })
        ),
        "expected DeadlineExceeded, got: {err}"
    );
    let snap = qutes_obs::snapshot();
    assert!(counter(&snap, "supervisor.deadline_trips") >= 1);
    reset();
}

#[test]
fn injected_delay_in_optimizer_trips_mid_replay() {
    let _g = serialize();
    arm("qcirc.optimize.pass", Fault::Delay(80));
    let cfg = RunConfig {
        shots: 16,
        time_budget: Some(Duration::from_millis(25)),
        // The armed site lives in the optimizer, which only the dense
        // engine runs — auto-dispatch would route this Clifford-only
        // replay onto the tableau and never hit it.
        backend: qutes::qcirc::BackendChoice::Statevector,
        ..RunConfig::default()
    };
    // The circuit needs gates for the optimizer fixpoint to iterate
    // (and hit the armed site); a measure-only circuit skips it.
    let err = run_source("qubit q = |+>; hadamard q; print q;", &cfg).unwrap_err();
    assert!(
        matches!(err, QutesError::Interrupted(_)),
        "expected Interrupted, got: {err}"
    );
    reset();
}

#[test]
fn allocation_refusal_is_typed_not_abort() {
    let _g = serialize();
    arm("sim.alloc", Fault::DenyAlloc);
    let err = run_source("quint a = [1, 2]q; print a;", &RunConfig::default()).unwrap_err();
    assert!(err.is_transient(), "expected transient refusal, got: {err}");
    reset();
}

#[test]
fn allocation_refusal_fires_when_a_spare_fits() {
    use qutes::sim::{SimError, SimResult, StateVector};
    let _g = serialize();
    // A dropped 14-qubit state leaves this thread a spare that would
    // serve every request below; the failpoint refuses them anyway,
    // with the bytes the request asked for.
    drop(StateVector::new(14).unwrap());
    let mut seed = StateVector::new(0).unwrap();
    let (a, b) = (StateVector::new(2).unwrap(), StateVector::new(3).unwrap());
    arm("sim.alloc", Fault::DenyAlloc);
    let refused = |r: SimResult<()>, want: usize| match r {
        Err(SimError::AllocationFailed { bytes }) => assert_eq!(bytes, want),
        other => panic!("expected a refusal of {want} bytes, got {other:?}"),
    };
    refused(StateVector::new(14).map(drop), 16 << 14);
    refused(StateVector::from_basis_state(4, 3).map(drop), 16 << 4);
    refused(seed.grow(3), 16 << 3);
    refused(a.tensor(&b).map(drop), 16 << 5);
    reset();
    StateVector::new(14).unwrap();
    seed.grow(3).unwrap();
    assert_eq!(a.tensor(&b).unwrap().num_qubits(), 5);
}

#[test]
fn shot_loop_refusal_is_typed() {
    let _g = serialize();
    arm("qcirc.execute.shot", Fault::DenyAlloc);
    let cfg = RunConfig {
        shots: 8,
        // Noise forces grouped replay, whose shot loop is the armed
        // site; the noiseless fast path samples one simulation and never
        // enters it.
        noise: Some(qutes::sim::NoiseModel::depolarizing(0.01)),
        ..RunConfig::default()
    };
    let err = run_source(SIMPLE, &cfg).unwrap_err();
    assert!(err.is_transient(), "expected transient refusal, got: {err}");
    reset();
}

#[test]
fn transient_failure_auto_retries_once_and_succeeds() {
    let _g = serialize();
    // Fault fires exactly once: the first attempt fails transiently,
    // the (single) retry runs clean at reduced settings.
    arm_once("core.run", Fault::DenyAlloc);
    let cfg = RunConfig {
        shots: 8,
        degrade: DegradePolicy {
            allow_partial: true,
            auto_retry: true,
        },
        ..RunConfig::default()
    };
    let out = run_source(SIMPLE, &cfg).expect("retry succeeds");
    assert_eq!(out.output.len(), 1);
    let snap = qutes_obs::snapshot();
    assert_eq!(counter(&snap, "supervisor.retries"), 1);
    reset();
}

#[test]
fn persistent_transient_failure_fails_after_one_retry() {
    let _g = serialize();
    arm("core.run", Fault::DenyAlloc); // every hit, including the retry
    let cfg = RunConfig {
        degrade: DegradePolicy {
            allow_partial: true,
            auto_retry: true,
        },
        ..RunConfig::default()
    };
    let err = run_source(SIMPLE, &cfg).unwrap_err();
    assert!(err.is_transient(), "{err}");
    let snap = qutes_obs::snapshot();
    assert_eq!(counter(&snap, "supervisor.retries"), 1);
    reset();
}

#[test]
fn shot_pool_worker_panic_is_contained_without_poisoning_siblings() {
    let _g = serialize();
    // One worker trips the pool failpoint and panics; its siblings run
    // their chunks to completion, the payload is re-raised only after
    // the join, and the facade's contain() boundary renders it as a
    // typed internal error — never an abort.
    arm_once("qcirc.execute.shot_pool", Fault::Panic);
    let cfg = RunConfig {
        shots: 64,
        shot_threads: 4,
        // Noise forces the grouped worker-pool path.
        noise: Some(qutes::sim::NoiseModel::depolarizing(0.01)),
        ..RunConfig::default()
    };
    let err = run_source(SIMPLE, &cfg).unwrap_err();
    assert!(
        matches!(err, QutesError::Internal { .. }),
        "expected Internal, got: {err}"
    );
    let snap = qutes_obs::snapshot();
    assert!(counter(&snap, "supervisor.panics_contained") >= 1);
    assert!(counter(&snap, "chaos.injected") >= 1);
    // The fault was confined to one run: the same program executes
    // cleanly afterwards on the very same pool configuration.
    let out = run_source(SIMPLE, &cfg).expect("pool recovers after contained panic");
    assert_eq!(out.counts.expect("histogram").shots(), 64);
    reset();
}

#[test]
fn shot_pool_allocation_refusal_is_typed() {
    let _g = serialize();
    arm_once("qcirc.execute.shot_pool", Fault::DenyAlloc);
    let cfg = RunConfig {
        shots: 32,
        shot_threads: 2,
        noise: Some(qutes::sim::NoiseModel::depolarizing(0.01)),
        ..RunConfig::default()
    };
    let err = run_source(SIMPLE, &cfg).unwrap_err();
    assert!(err.is_transient(), "expected transient refusal, got: {err}");
    reset();
}

#[test]
fn tripped_interrupt_suppresses_retry() {
    let _g = serialize();
    arm("core.run", Fault::DenyAlloc);
    let intr = qutes::Interrupt::new();
    intr.cancel();
    let cfg = RunConfig {
        interrupt: Some(intr),
        degrade: DegradePolicy {
            allow_partial: true,
            auto_retry: true,
        },
        ..RunConfig::default()
    };
    // The run fails (cancelled or refused) and no retry happens.
    let _ = run_source(SIMPLE, &cfg).unwrap_err();
    let snap = qutes_obs::snapshot();
    assert_eq!(counter(&snap, "supervisor.retries"), 0);
    reset();
}
