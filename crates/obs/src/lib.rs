//! # qutes-obs
//!
//! Zero-cost-when-disabled observability for the Qutes stack: a
//! lightweight span/timer/counter API with a process-global collector,
//! no external dependencies.
//!
//! Every other crate in the workspace records into this one:
//!
//! * **spans** — nested wall-time intervals for pipeline stages
//!   (`stage.lex`, `stage.parse`, `stage.typecheck`, `stage.analyze`,
//!   `stage.op_pass`, `stage.optimize`,
//!   `stage.transpile`, `stage.simulate`),
//! * **timers** — aggregated durations for hot kernels
//!   (`kernel.1q`, `kernel.controlled`, `kernel.swap`, …) — every span
//!   also folds into a timer of the same name,
//! * **counters** — monotonically increasing tallies
//!   (`gate.h`, `kernel.fused_unitary`, `kernel.dispatch.parallel`,
//!   `opt.cancelled`, `noise.faults.bit_flip`, `sim.shots`, …).
//!
//! The naming conventions and the JSON schema of [`Snapshot::to_json`]
//! are documented in `docs/observability.md`.
//!
//! ## Cost model
//!
//! Collection is gated by a single process-global [`AtomicBool`]. While
//! disabled (the default) every recording call is one relaxed atomic
//! load and an immediate return — no locks, no clocks, no allocation —
//! so instrumented hot paths run at full speed. When enabled, records
//! go through a global mutex; this is intended for profiling runs, not
//! steady-state production traffic. Threads that record counters in a
//! tight loop (the shot-pool workers) open a [`counter_batch`] scope:
//! deltas then accumulate in a thread-local buffer and fold into the
//! store in one locked flush per span close or batch exit (counted
//! under `obs.flush.batched`), so parallel workers do not serialize on
//! the collector mutex.
//!
//! ## Example
//!
//! ```
//! qutes_obs::reset();
//! qutes_obs::set_enabled(true);
//! {
//!     let _outer = qutes_obs::span("stage.parse");
//!     qutes_obs::counter_add("gate.h", 3);
//! } // span records on drop
//! qutes_obs::set_enabled(false);
//!
//! let snap = qutes_obs::snapshot();
//! assert_eq!(snap.counters["gate.h"], 3);
//! assert_eq!(snap.timers["stage.parse"].count, 1);
//! assert!(snap.to_json().contains("\"stage.parse\""));
//! ```
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod collector;
mod render;

pub use collector::{
    counter_add, counter_batch, is_enabled, maybe_now, record_duration, reset, set_enabled,
    snapshot, span, CounterBatch, Snapshot, SpanGuard, SpanRecord, TimerStat, MAX_SPANS,
};
pub use render::fmt_ns;
