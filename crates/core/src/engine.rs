//! Zone-parallel solve engine and the workspace's one worker pool.
//!
//! Zone Partition (Algorithm 2) produces interference-independent
//! zones, which makes the lower tier embarrassingly parallel: each zone
//! is solved against a private [`InterferenceLedger`] restricted to its
//! own subscribers, and the per-zone answers are reassembled in zone
//! index order. [`run_zones`] does that for both SAMC and the ILPQC
//! path of [`crate::sag::run_sag_with`] and for churn repair.
//!
//! Every thread the workspace starts comes from one [`WorkQueue`]: the
//! zone workers here, the batched sweep's lanes (`sag_sim::batch`) and
//! the portfolio race's two arms ([`crate::solver`]). The queue
//! captures the caller's worker context once — span context, live
//! recorder stack, effective ledger mode and effective LP backend — and
//! enters it on every thread it starts, so no call site copies
//! thread-local state by hand. A queue call made from inside a queue
//! item runs inline on that item's thread, so nested sweeps × zones
//! never hold more workers than the outermost call asked for.
//!
//! # Determinism contract
//!
//! `threads = 1` and `threads = N` produce byte-identical results as
//! long as no zone errors:
//!
//! * the partition itself never depends on the thread count;
//! * each zone solve is a pure function of its zone scenario (workers
//!   run in the caller's worker context, so not even debug switches can
//!   diverge);
//! * the merge consumes zone results **in zone index order**, so the
//!   relay numbering, the assignment remap and the merged ledger's
//!   floating-point accumulators replay the sequential build exactly.
//!
//! When a shared budget is exhausted mid-run the *outcome* (which zone
//! trips first) depends on scheduling, so error runs are only
//! deterministic at `threads = 1`.
//!
//! Worker panics are caught at the engine boundary and surfaced as
//! [`SagError::WorkerPanic`] — a poisoned zone never hangs the merge.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use sag_geom::Point;
use sag_radio::ledger::InterferenceLedger;

use crate::coverage::{
    flush_ledger_stats, ledger_mode, push_ledger_mode_override, snr_violations_ledger,
    CoverageSolution,
};
use crate::error::{SagError, SagResult};
use crate::model::Scenario;
use crate::sliding::rs_sliding_movement;
use crate::zone::Zone;

thread_local! {
    /// Chaos switch: when set, every zone solve started from this
    /// thread (or a worker it spawns) panics instead of solving.
    static INJECT_PANIC: Cell<bool> = const { Cell::new(false) };
    /// Set on the threads a [`WorkQueue`] starts: a queue call made
    /// there runs inline instead of starting more threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Arms (or disarms) the chaos fault that makes zone workers panic.
///
/// Scoped to the calling thread — pipelines started from other threads
/// are unaffected — but propagated to the worker threads those
/// pipelines spawn, so the fault exercises the real panic boundary.
/// Test-only in spirit; it exists so the chaos suite can verify that a
/// dying worker surfaces [`SagError::WorkerPanic`] instead of hanging
/// or poisoning the run.
pub fn inject_zone_worker_panic(armed: bool) {
    INJECT_PANIC.with(|f| f.set(armed));
}

/// `SAG_THREADS`, parsed once per process: `None` when unset or
/// unparsable. Callers apply their own unset default (the pipeline
/// solves on one thread, sweeps on `min(hardware threads, 8)`).
pub fn env_threads() -> Option<usize> {
    static THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("SAG_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
    })
}

/// Resolves the `threads` knob: `0` means "all hardware threads".
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// The one worker pool: runs `task(i)` for every item `i` in `0..n` on
/// up to `threads` workers, claimed by atomic index `chunk` items at a
/// time, while the calling thread waits.
///
/// Every worker enters the caller's worker context, captured once: span
/// context, live recorder stack, effective ledger mode and effective LP
/// backend. Buffered recorders (the run's [`sag_obs::Collector`]) are
/// never written from racing workers: each item records into a private
/// collector, folded into them in item order after the join, which
/// reproduces the sequential event order.
///
/// Items run inline on the calling thread, in index order, with no
/// context capture and no per-item collector, when `threads <= 1`, when
/// there is at most one item, or when the caller is itself a queue
/// worker — so nested calls never multiply the thread count.
#[derive(Debug, Clone, Copy)]
pub struct WorkQueue {
    threads: usize,
    chunk: usize,
}

impl WorkQueue {
    /// A queue of up to `threads` workers claiming `chunk` items per
    /// fetch (at least 1).
    pub fn new(threads: usize, chunk: usize) -> Self {
        WorkQueue {
            threads,
            chunk: chunk.max(1),
        }
    }

    /// Runs items until one returns a value for which `stop` holds; no
    /// item is claimed after that, but items already running finish.
    /// Slot `i` of the result is `None` when item `i` never ran; every
    /// item below the first stopping one ran, because claims go in
    /// index order. A panicking task panics the caller after the join,
    /// so call sites that must survive one catch it inside the task.
    #[allow(clippy::disallowed_methods)] // the workspace's one thread-spawning site
    pub fn run<T, F, S>(&self, n: usize, task: F, stop: S) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        S: Fn(&T) -> bool + Sync,
    {
        let threads = self.threads.min(n);
        if threads <= 1 || IN_WORKER.with(Cell::get) {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let v = task(i);
                let halt = stop(&v);
                out.push(Some(v));
                if halt {
                    break;
                }
            }
            out.resize_with(n, || None);
            return out;
        }

        // The worker context, captured once and entered on every thread
        // started below (which ends with the scope, so `IN_WORKER` needs
        // no reset).
        let span = sag_obs::span_context();
        let (buffered, live): (Vec<_>, Vec<_>) = sag_obs::local_stack()
            .into_iter()
            .partition(|r| r.buffered());
        let (mode, lp) = (ledger_mode(), sag_lp::backend::backend());
        let collectors: Vec<Arc<sag_obs::Collector>> = if buffered.is_empty() {
            Vec::new()
        } else {
            (0..n).map(|_| Default::default()).collect()
        };
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let halted = AtomicBool::new(false);
        let work = || {
            while !halted.load(Ordering::Relaxed) {
                let start = next.fetch_add(self.chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + self.chunk).min(n);
                for (i, slot) in (start..).zip(&slots[start..end]) {
                    let v = match collectors.get(i) {
                        Some(c) => sag_obs::with_local(c.clone(), || task(i)),
                        None => task(i),
                    };
                    if stop(&v) {
                        halted.store(true, Ordering::Relaxed);
                    }
                    *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let _mode = push_ledger_mode_override(Some(mode));
                    let _lp = sag_lp::push_backend_override(Some(lp));
                    sag_obs::with_span_context(span, || sag_obs::with_local_stack(&live, work));
                });
            }
        });

        // Items a stop kept from running fold in as empty summaries.
        for collector in &collectors {
            let summary = collector.summary();
            for recorder in &buffered {
                recorder.absorb(&summary);
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }
}

/// Solves `n_zones` zone jobs with up to `threads` workers (`0` = all
/// hardware threads) on the [`WorkQueue`] and returns the results in
/// zone index order.
///
/// The first error **by zone index** wins and later zones are
/// abandoned cooperatively (in-flight zones still finish). Panics in
/// `solve` become [`SagError::WorkerPanic`] at any thread count.
pub(crate) fn run_zones<T, F>(
    stage: &'static str,
    n_zones: usize,
    threads: usize,
    solve: F,
) -> SagResult<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> SagResult<T> + Sync,
{
    let inject = INJECT_PANIC.with(|f| f.get());
    let solve_caught = |zone: usize| -> SagResult<T> {
        catch_unwind(AssertUnwindSafe(|| {
            let _zone_span = sag_obs::span_zone("zone_solve", zone as u64);
            assert!(!inject, "injected zone-worker panic (zone {zone})");
            solve(zone)
        }))
        .unwrap_or(Err(SagError::WorkerPanic { stage, zone }))
    };
    let slots =
        WorkQueue::new(resolve_threads(threads), 1).run(n_zones, solve_caught, Result::is_err);
    let mut out = Vec::with_capacity(n_zones);
    for (zone, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            // Unreachable without a preceding error (claims are
            // ordered and panics are caught); fail closed anyway.
            None => return Err(SagError::WorkerPanic { stage, zone }),
        }
    }
    Ok(out)
}

/// One zone's contribution to the merged lower-tier answer: the
/// zone-local coverage plus the worker's private zone ledger (relays at
/// unit power, drift-free by construction of
/// [`InterferenceLedger::split`]).
pub(crate) struct ZoneOutcome {
    /// Zone-local placement (relay indices local to the zone).
    pub solution: CoverageSolution,
    /// Private ledger over the zone's subscribers with the zone's
    /// relays applied.
    pub ledger: InterferenceLedger,
}

/// Builds a worker's [`ZoneOutcome`]: split the relay-free base ledger
/// down to the zone's subscribers and apply the zone's relays.
pub(crate) fn zone_outcome(
    base: &InterferenceLedger,
    zone: &Zone,
    solution: CoverageSolution,
) -> ZoneOutcome {
    let mut ledger = base.split(zone);
    for &relay in &solution.relays {
        ledger.add_relay(relay, 1.0);
    }
    ZoneOutcome { solution, ledger }
}

/// Reassembles per-zone outcomes into one global [`CoverageSolution`],
/// strictly in zone index order.
///
/// Relays are concatenated zone by zone, assignments remapped through
/// each zone's subscriber indices, and the zone ledgers merged into a
/// clone of the relay-free base — which replays, add for add, the
/// sequential global build, so the merged accumulators are bit-identical
/// to `threads = 1`. Zones are interference-independent only up to
/// `N_max`; the merged placement is re-checked and one global repair
/// round clears any residual inter-zone violations.
pub(crate) fn merge_zone_outcomes(
    scenario: &Scenario,
    zones: &[Zone],
    outcomes: Vec<ZoneOutcome>,
    base: &InterferenceLedger,
    stage: &str,
) -> SagResult<CoverageSolution> {
    debug_assert_eq!(zones.len(), outcomes.len());
    let mut all_relays: Vec<Point> = Vec::new();
    let mut global_assignment = vec![usize::MAX; scenario.n_subscribers()];
    let mut merged = base.clone();
    for (zone, outcome) in zones.iter().zip(&outcomes) {
        let offset = all_relays.len();
        all_relays.extend(outcome.solution.relays.iter().copied());
        for (local_j, &global_j) in zone.iter().enumerate() {
            global_assignment[global_j] = offset + outcome.solution.assignment[local_j];
        }
        merged.merge_from(&outcome.ledger);
    }
    debug_assert!(global_assignment.iter().all(|&a| a != usize::MAX));

    let violations = snr_violations_ledger(scenario, &merged, &global_assignment);
    // Residual inter-zone violations the merged check surfaced (the
    // global repair round clears them or fails the solve).
    sag_obs::gauge("coverage.snr_violations", violations.len() as f64);
    flush_ledger_stats(&merged);
    if violations.is_empty() {
        return Ok(CoverageSolution {
            relays: all_relays,
            assignment: global_assignment,
        });
    }
    rs_sliding_movement(scenario, all_relays, global_assignment)
        .ok_or_else(|| SagError::Infeasible(format!("{stage}: global SNR repair failed")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree_on_results_and_order() {
        let square = |z: usize| -> SagResult<usize> { Ok(z * z) };
        let seq = run_zones("samc", 9, 1, square).unwrap();
        let par = run_zones("samc", 9, 4, square).unwrap();
        assert_eq!(seq, (0..9).map(|z| z * z).collect::<Vec<_>>());
        assert_eq!(seq, par);
    }

    #[test]
    fn first_error_by_zone_index_wins() {
        let solve = |z: usize| -> SagResult<usize> {
            if z >= 3 {
                Err(SagError::Infeasible(format!("zone {z}")))
            } else {
                Ok(z)
            }
        };
        for threads in [1, 4] {
            let err = run_zones("samc", 8, threads, solve).unwrap_err();
            assert_eq!(
                err,
                SagError::Infeasible("zone 3".into()),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn worker_panic_is_caught_as_a_typed_error() {
        let solve = |z: usize| -> SagResult<usize> {
            if z == 2 {
                panic!("boom");
            }
            Ok(z)
        };
        for threads in [1, 4] {
            let err = run_zones("ilpqc", 5, threads, solve).unwrap_err();
            assert_eq!(
                err,
                SagError::WorkerPanic {
                    stage: "ilpqc",
                    zone: 2
                },
                "threads {threads}"
            );
        }
    }

    #[test]
    fn injected_panic_arms_and_disarms_per_thread() {
        inject_zone_worker_panic(true);
        let err = run_zones("samc", 3, 2, Ok).unwrap_err();
        assert!(matches!(err, SagError::WorkerPanic { stage: "samc", .. }));
        inject_zone_worker_panic(false);
        assert!(run_zones("samc", 3, 2, Ok).is_ok());
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn workers_inherit_the_observability_stack() {
        use std::sync::Arc;
        let collector = Arc::new(sag_obs::Collector::default());
        sag_obs::with_local(collector.clone(), || {
            run_zones("samc", 6, 3, |z| {
                sag_obs::counter("engine.test_zone", 1);
                Ok(z)
            })
            .unwrap();
        });
        let metrics = collector.summary();
        assert_eq!(metrics.counter("engine.test_zone"), 6);
    }

    #[test]
    fn workers_run_in_the_callers_ledger_mode_and_lp_backend() {
        use sag_lp::LpBackend;
        use sag_radio::ledger::LedgerMode;
        let _lp = sag_lp::push_backend_override(Some(LpBackend::Dense));
        let _mode = push_ledger_mode_override(Some(LedgerMode::Oracle));
        let seen = run_zones("samc", 6, 3, |_| {
            Ok((sag_lp::backend::backend(), ledger_mode()))
        })
        .unwrap();
        assert_eq!(seen, vec![(LpBackend::Dense, LedgerMode::Oracle); 6]);
    }

    #[test]
    fn nested_queue_calls_run_inline_on_the_worker() {
        let current = || std::thread::current().id();
        let caller = current();
        let never = |_: &_| false;
        let nested = WorkQueue::new(2, 1).run(
            4,
            |_| (current(), WorkQueue::new(2, 1).run(3, |_| current(), never)),
            |_| false,
        );
        for (outer, inner) in nested.into_iter().flatten() {
            assert_ne!(outer, caller, "top-level items run on queue workers");
            assert_eq!(inner, vec![Some(outer); 3], "a nested call started threads");
        }
    }

    #[test]
    fn stop_abandons_unclaimed_items_at_any_chunk() {
        for (threads, chunk) in [(1, 1), (2, 1), (2, 4)] {
            let out = WorkQueue::new(threads, chunk).run(64, |i| i, |&i| i == 0);
            assert_eq!(out[0], Some(0), "threads {threads} chunk {chunk}");
            if threads == 1 {
                assert!(out[1..].iter().all(Option::is_none));
            }
        }
    }
}
