//! Scoped worker pool fanning independent Monte-Carlo shots across
//! threads.
//!
//! The replay path in [`mod@crate::execute`] that does not batch (the
//! outcome-grouped replay, noisy or not, on either engine) is
//! embarrassingly parallel: every shot is a pure function of
//! `(circuit, base_seed, shot_index)` because each shot draws from its
//! own counter-derived RNG stream
//! ([`qutes_sim::rng_stream::shot_rng`]). The pool exploits exactly
//! that: shots are split into one contiguous chunk per worker (static
//! split, no work stealing — recorded as `shots.parallel.steal_none`),
//! each worker folds its chunk into a private histogram through a
//! whole-chunk runner, and the per-worker maps merge at join. Addition
//! is commutative, so the merged histogram is **bit-for-bit identical
//! at any thread count**, including the serial (1-worker) path, which
//! runs inline on the calling thread with the very same per-shot
//! derivation.
//!
//! Supervision is threaded through, not around, the pool:
//!
//! * every worker observes the shared [`qutes_supervisor::Interrupt`]'s
//!   armed flag via the check before each shot (or each grouped
//!   branch), so a deadline or cancellation stops all chunks promptly;
//! * a hard error is reported for the lowest failing shot whatever the
//!   schedule: workers share that index (`FirstFailure`) and skip
//!   only shots past it, since only an earlier shot can still change
//!   the reported error;
//! * a mid-run stop yields a well-defined partial result:
//!   `completed` is the exact number of shots that finished across all
//!   chunks and the histogram contains precisely those shots;
//! * gate budgets stay per-shot (every shot's path is metered from a
//!   fresh budget), so parallelism cannot change budget semantics;
//! * a panicking worker is confined: siblings run their chunks to
//!   completion, per-worker obs buffers still flush, and the payload is
//!   re-raised on the calling thread only after the join — where the
//!   facade's `contain` boundary turns it into a typed
//!   `QutesError::Internal` instead of a poisoned process.
//!
//! Workers open a `qutes-obs` counter batch, so per-gate counters
//! accumulate thread-locally and fold into the global collector once
//! per worker instead of serializing every gate on the collector mutex.

use crate::error::{CircError, CircResult};
use qutes_supervisor::{failpoint, StopReason};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Ceiling on auto-sized pools, mirroring the statevector kernels'
/// thread cap: beyond this, merge overhead and memory-bandwidth
/// saturation outweigh extra workers for shot replay.
pub const MAX_AUTO_WORKERS: usize = 16;

/// Resolves a requested `--shot-threads` value to an actual worker
/// count for `shots` shots: `0` means auto
/// ([`std::thread::available_parallelism`] capped at
/// [`MAX_AUTO_WORKERS`]); explicit requests are honoured as-is. Never
/// more workers than shots, never fewer than one.
pub fn resolve_workers(requested: usize, shots: usize) -> usize {
    let chosen = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_AUTO_WORKERS)
    } else {
        requested
    };
    chosen.clamp(1, shots.max(1))
}

/// Merged result of a pool run that did not hit a hard error.
#[derive(Debug)]
pub(crate) struct PoolOutcome {
    /// Histogram over every completed shot, merged across workers.
    pub map: HashMap<usize, usize>,
    /// Exact number of shots that finished; equals the histogram's
    /// total weight.
    pub completed: usize,
    /// `Some` when at least one worker stopped on an interrupt before
    /// finishing its chunk (earliest worker's reason).
    pub stop: Option<StopReason>,
}

/// What one worker brings back from its chunk.
#[derive(Default)]
pub(crate) struct ChunkResult {
    /// Histogram over the chunk's completed shots.
    pub map: HashMap<usize, usize>,
    /// Shots of the chunk that finished; equals `map`'s total weight.
    pub completed: usize,
    /// Hard (non-interrupt) error, tagged with its shot index so the
    /// merge can report the earliest-failing shot like the serial loop.
    pub error: Option<(usize, CircError)>,
    /// Why the chunk stopped early on an interrupt, if it did.
    pub stop: Option<StopReason>,
}

/// The lowest shot index known to have failed with a hard error, shared
/// by every worker of a pool run.
pub(crate) struct FirstFailure(AtomicUsize);

impl FirstFailure {
    fn new() -> Self {
        FirstFailure(AtomicUsize::new(usize::MAX))
    }

    /// Notes that `shot` failed.
    pub fn record(&self, shot: usize) {
        self.0.fetch_min(shot, Ordering::Relaxed);
    }

    /// Whether `shot` lies past a failed shot, so running it can no
    /// longer change the run's error.
    pub fn passed(&self, shot: usize) -> bool {
        shot > self.0.load(Ordering::Relaxed)
    }
}

/// Fans shots `[0, shots)` across `workers` threads in contiguous
/// chunks and merges the per-worker histograms. `run_chunk(lo, hi,
/// failed)` executes shots `[lo, hi)` in any internal order (grouped
/// replay walks them together) under this contract: every shot
/// a pure function of its index (seed its RNG from the shot index!),
/// `completed` equal to the histogram weight, the lowest failing shot's
/// error, which it notes in `failed`, and no shot run past a failure
/// noted there. It is responsible for its own interrupt checks.
/// `denied_bytes` sizes the typed allocation error a chaos `DenyAlloc`
/// fault at the `qcirc.execute.shot_pool` failpoint reports.
///
/// A hard error from any shot fails the whole run with the lowest
/// failing shot's error, identical to the serial loop whenever the
/// erroring shot is deterministic. A worker panic is re-raised on the
/// calling thread **after** every sibling has finished.
pub(crate) fn run_pool_chunked<F>(
    shots: usize,
    workers: usize,
    denied_bytes: usize,
    run_chunk: F,
) -> CircResult<PoolOutcome>
where
    F: Fn(usize, usize, &FirstFailure) -> ChunkResult + Sync,
{
    let failed = FirstFailure::new();
    let worker_body = |lo: usize, hi: usize| -> ChunkResult {
        if failpoint("qcirc.execute.shot_pool").is_err() {
            failed.record(lo);
            return ChunkResult {
                error: Some((
                    lo,
                    CircError::Sim(qutes_sim::SimError::AllocationFailed {
                        bytes: denied_bytes,
                    }),
                )),
                ..ChunkResult::default()
            };
        }
        run_chunk(lo, hi, &failed)
    };

    let results: Vec<Result<ChunkResult, Box<dyn std::any::Any + Send>>> = if workers <= 1 {
        // Serial path: same closure, same derivation, no thread spawn.
        vec![catch_unwind(AssertUnwindSafe(|| worker_body(0, shots)))]
    } else {
        qutes_obs::counter_add("shots.parallel.workers", workers as u64);
        qutes_obs::counter_add("shots.parallel.steal_none", 1);
        let per = shots.div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let lo = (w * per).min(shots);
                    let hi = (lo + per).min(shots);
                    let body = &worker_body;
                    scope.spawn(move || {
                        // Flushes buffered counters at worker exit even
                        // when the body panics (guard drops after the
                        // catch), so no telemetry is lost to a fault.
                        let _batch = qutes_obs::counter_batch();
                        catch_unwind(AssertUnwindSafe(|| body(lo, hi)))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(worker_result) => worker_result,
                    Err(payload) => Err(payload),
                })
                .collect()
        })
    };

    // All workers have joined: siblings of a faulty worker finished
    // their chunks. Only now re-raise the first panic payload toward
    // the facade's containment boundary.
    let mut chunks = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(c) => chunks.push(c),
            Err(payload) => resume_unwind(payload),
        }
    }

    let mut merged = PoolOutcome {
        map: HashMap::new(),
        completed: 0,
        stop: None,
    };
    let mut first_error: Option<(usize, CircError)> = None;
    for c in chunks {
        for (k, v) in c.map {
            *merged.map.entry(k).or_insert(0) += v;
        }
        merged.completed += c.completed;
        if let Some((s, e)) = c.error {
            if first_error.as_ref().is_none_or(|(fs, _)| s < *fs) {
                first_error = Some((s, e));
            }
        }
        if merged.stop.is_none() {
            merged.stop = c.stop;
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qutes_supervisor::{Interrupt, StopReason};

    /// The per-shot chunk loop: runs `[lo, hi)` through `run_shot` in
    /// order, stopping on an interrupt, on a hard error (noted in
    /// `failed`), or at a shot past a failure.
    fn run_chunk<F>(lo: usize, hi: usize, run_shot: &F, failed: &FirstFailure) -> ChunkResult
    where
        F: Fn(usize) -> CircResult<usize>,
    {
        let mut out = ChunkResult::default();
        for s in lo..hi {
            if failed.passed(s) {
                break;
            }
            match run_shot(s) {
                Ok(key) => {
                    *out.map.entry(key).or_insert(0) += 1;
                    out.completed += 1;
                }
                Err(CircError::Interrupted(reason)) => {
                    out.stop = Some(reason);
                    break;
                }
                Err(e) => {
                    failed.record(s);
                    out.error = Some((s, e));
                    break;
                }
            }
        }
        out
    }

    /// The pool driven one shot at a time, through [`run_chunk`].
    fn run_pool<F>(shots: usize, workers: usize, run_shot: F) -> CircResult<PoolOutcome>
    where
        F: Fn(usize) -> CircResult<usize> + Sync,
    {
        run_pool_chunked(shots, workers, 0, |lo, hi, failed| {
            run_chunk(lo, hi, &run_shot, failed)
        })
    }

    #[test]
    fn resolve_workers_honours_explicit_and_clamps() {
        assert_eq!(resolve_workers(4, 1024), 4);
        assert_eq!(resolve_workers(7, 3), 3);
        assert_eq!(resolve_workers(1, 1024), 1);
        assert_eq!(resolve_workers(0, 0), 1);
        let auto = resolve_workers(0, 1 << 20);
        assert!((1..=MAX_AUTO_WORKERS).contains(&auto));
    }

    #[test]
    fn merged_histogram_is_thread_count_invariant() {
        let run = |s: usize| -> CircResult<usize> { Ok(s % 5) };
        let serial = run_pool(1000, 1, run).unwrap();
        for workers in [2, 3, 7] {
            let par = run_pool(1000, workers, run).unwrap();
            assert_eq!(par.map, serial.map, "{workers} workers diverged");
            assert_eq!(par.completed, 1000);
            assert!(par.stop.is_none());
        }
    }

    #[test]
    fn hard_error_reports_earliest_shot_and_aborts_siblings() {
        // Four workers own [0, 250), [250, 500), [500, 750) and
        // [750, 1000); shots 100 and 700 fail. Each order is forced: the
        // worker that fails second starts only once the other failure is
        // on record.
        for first in [700, 100] {
            let executed = AtomicUsize::new(0);
            let run = |s: usize| -> CircResult<usize> {
                executed.fetch_add(1, Ordering::Relaxed);
                if s == 100 || s == 700 {
                    Err(CircError::BudgetExhausted { limit: s as u64 })
                } else {
                    Ok(0)
                }
            };
            let second_lo = if first == 700 { 0 } else { 500 };
            let err = run_pool_chunked(1000, 4, 0, |lo, hi, failed| {
                if lo == second_lo {
                    while !failed.passed(first + 1) {
                        std::thread::yield_now();
                    }
                }
                run_chunk(lo, hi, &run, failed)
            })
            .unwrap_err();
            match err {
                // Shot 700 failing first must not stop the worker that
                // owns shot 100: only shots past a failure are skipped.
                CircError::BudgetExhausted { limit } => assert_eq!(limit, 100, "{first} first"),
                other => panic!("unexpected error {other:?}"),
            }
            let executed = executed.load(Ordering::Relaxed);
            assert!(executed <= 1000);
            if first == 100 {
                // The worker owning shot 700 starts past the failure and
                // runs nothing.
                assert!(executed < 750, "{executed} shots ran");
            }
        }
    }

    #[test]
    fn interrupt_yields_partial_outcome_with_exact_count() {
        let intr = Interrupt::new();
        let stop_at = 40;
        let intr_ref = &intr;
        let run = move |s: usize| -> CircResult<usize> {
            intr_ref.check().map_err(CircError::Interrupted)?;
            if s == stop_at {
                intr_ref.cancel();
                return Err(CircError::Interrupted(StopReason::Cancelled));
            }
            Ok(1)
        };
        let out = run_pool(64, 2, run).unwrap();
        assert_eq!(out.stop, Some(StopReason::Cancelled));
        // Histogram weight must equal the completed count exactly.
        assert_eq!(out.map.values().sum::<usize>(), out.completed);
        assert!(out.completed < 64);
    }

    #[test]
    fn worker_panic_is_reraised_after_siblings_finish() {
        let finished = AtomicUsize::new(0);
        let run = |s: usize| -> CircResult<usize> {
            if s == 0 {
                panic!("injected worker fault");
            }
            finished.fetch_add(1, Ordering::Relaxed);
            Ok(0)
        };
        let caught = catch_unwind(AssertUnwindSafe(|| run_pool(8, 4, run)));
        assert!(caught.is_err(), "panic must propagate to the caller");
        // Shots 2..8 belong to the three sibling workers; every one of
        // them completed despite worker 0's fault.
        assert_eq!(finished.load(Ordering::Relaxed), 6);
    }
}
