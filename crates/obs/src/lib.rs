//! `sag-obs` — zero-dependency structured observability.
//!
//! The workspace is hermetic (no registry crates), so the usual
//! `tracing`/`metrics` stack is off the table; this crate is the
//! in-tree substitute. It provides five layers:
//!
//! 1. **Spans** — [`span`] returns an RAII guard that times a named,
//!    hierarchical region on the monotonic clock and reports
//!    enter/exit events to every active [`Recorder`]. Every span
//!    carries a process-unique id and its parent's id ([`SpanMeta`]);
//!    fan-out stages propagate the linkage across threads with
//!    [`span_context`]/[`with_span_context`], so a trace reassembles
//!    into one tree at any thread count.
//! 2. **Metrics** — [`counter`], [`gauge`] and [`observe`] record
//!    named counters, gauges and bucketed histogram samples; [`timer`]
//!    records wall-clock time spent below span granularity. The
//!    [`Collector`] recorder aggregates them into a [`StageMetrics`]
//!    summary (what `SagReport::metrics` carries).
//! 3. **Sink** — [`JsonlSink`] renders every event as one JSON line
//!    (see `DESIGN.md` "Observability" for the schema). It is
//!    installed process-wide from the environment via
//!    [`init_from_env`]: `SAG_OBS_JSON=<path>` writes to a file,
//!    `SAG_OBS=1` writes to stderr.
//! 4. **Flight recorder** — the [`ring`] module keeps a bounded
//!    per-thread ring of recent events (armed by `SAG_OBS_RING=<n>`
//!    or [`ring::configure`]), capturing history even when no
//!    recorder is installed.
//! 5. **Forensics** — [`post_mortem`] renders a structured dump frame
//!    (failure class + span stack + ring timeline + budget spend) and
//!    fans it out through [`Recorder::post_mortem`]; typed failure
//!    boundaries across the workspace call it exactly once per
//!    failure.
//!
//! # Cost model
//!
//! Recorders come in two scopes: **global** (process-wide, installed
//! with [`install`]) and **thread-local** (active only inside a
//! [`with_local`] closure, so parallel sweeps do not cross-mix
//! events). When neither is active and the flight recorder is
//! disarmed, every instrumentation call short-circuits on two relaxed
//! atomic loads plus one thread-local flag read — no allocation, no
//! clock read, no dispatch. Hot solver loops additionally aggregate
//! their counts in plain locals and flush once per solve, so the
//! per-iteration cost is zero even with recording enabled.
//!
//! Recorder implementations must never call back into this crate's
//! recording entry points (the dispatch loop is not re-entrant for
//! mutation) and must never panic; failures are dropped, not raised.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod forensics;
pub mod json;
mod metrics;
mod recorder;
pub mod ring;
mod sink;
mod span;

pub use forensics::{last_dump, Dump, PostMortem};
pub use metrics::{bucket_floor, Collector, HistSummary, SpanStat, StageMetrics};
pub use recorder::{
    enabled, install, local_stack, span_context, with_local, with_local_stack, with_span_context,
    Recorder, RecorderGuard, SpanContext, SpanMeta,
};
pub use sink::JsonlSink;
pub use span::{span, span_zone, Span};

use std::sync::Arc;

/// Is any event capture active — a recorder (global or thread-local)
/// or the flight-recorder ring?
#[inline]
pub fn armed() -> bool {
    enabled() || ring::active()
}

/// Adds `delta` to the named counter on every active recorder.
///
/// No-op (two relaxed atomic loads) when nothing captures events or
/// `delta == 0`.
pub fn counter(name: &'static str, delta: u64) {
    if delta == 0 {
        return;
    }
    let dispatch = enabled();
    if !dispatch && !ring::active() {
        return;
    }
    let stage = recorder::current_stage();
    ring::record_metric(ring::RingKind::Counter, name, stage, delta);
    if dispatch {
        recorder::for_each(|r| r.counter(name, delta, stage));
    }
}

/// Sets the named gauge to `value` on every active recorder.
pub fn gauge(name: &'static str, value: f64) {
    let dispatch = enabled();
    if !dispatch && !ring::active() {
        return;
    }
    let stage = recorder::current_stage();
    ring::record_metric(ring::RingKind::Gauge, name, stage, value.to_bits());
    if dispatch {
        recorder::for_each(|r| r.gauge(name, value, stage));
    }
}

/// Records one histogram observation of `value` under `name`.
pub fn observe(name: &'static str, value: u64) {
    let dispatch = enabled();
    if !dispatch && !ring::active() {
        return;
    }
    let stage = recorder::current_stage();
    ring::record_metric(ring::RingKind::Observe, name, stage, value);
    if dispatch {
        recorder::for_each(|r| r.observe(name, value, stage));
    }
}

/// Adds `ns` nanoseconds of wall-clock time to the named timer on
/// every active recorder.
///
/// Timers measure time inside a stage at finer grain than a span,
/// without the per-region span events: a hot loop sums its clock
/// readings in locals and flushes once. Like span durations, and
/// unlike counters, their values vary from run to run. They reach
/// recorders only; the flight recorder ring keeps no timers.
pub fn timer(name: &'static str, ns: u64) {
    if ns == 0 || !enabled() {
        return;
    }
    let stage = recorder::current_stage();
    recorder::for_each(|r| r.timer(name, ns, stage));
}

/// Renders a post-mortem frame for `dump` and dispatches it to every
/// active recorder (see [`forensics`]).
pub fn post_mortem(dump: &Dump<'_>) {
    forensics::post_mortem(dump);
}

/// A process-wide JSONL sink installed from the environment.
///
/// Keep it alive for the duration of the run; dropping it uninstalls
/// the sink. [`ObsSession::sink`] exposes the sink for a final
/// `dropped_events` report.
pub struct ObsSession {
    /// The installed sink (shared so callers can read drop counts).
    pub sink: Arc<JsonlSink>,
    _guard: RecorderGuard,
}

/// Installs a [`JsonlSink`] if the environment asks for one, and arms
/// the flight recorder if `SAG_OBS_RING` is set.
///
/// `SAG_OBS_JSON=<path>` selects a file sink (the path is truncated);
/// otherwise `SAG_OBS=1` selects a stderr sink. Returns `None` when
/// neither variable is set (the ring, which works without a sink, may
/// still have been armed). A file that cannot be created is reported
/// on stderr and treated as "not configured" — observability must
/// never take the pipeline down.
pub fn init_from_env() -> Option<ObsSession> {
    ring::init_env();
    let sink = match std::env::var("SAG_OBS_JSON") {
        Ok(path) if !path.is_empty() => match JsonlSink::create(&path) {
            Ok(sink) => sink,
            Err(e) => {
                eprintln!("sag-obs: cannot open {path}: {e}; events will not be recorded");
                return None;
            }
        },
        _ => match std::env::var("SAG_OBS") {
            Ok(v) if v == "1" => JsonlSink::stderr(),
            _ => return None,
        },
    };
    let guard = install(sink.clone());
    Some(ObsSession {
        sink,
        _guard: guard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_path_is_inert() {
        // No recorder active: nothing panics, nothing records.
        counter("t.counter", 3);
        gauge("t.gauge", 1.5);
        observe("t.hist", 7);
        timer("t.timer", 11);
        let s = span("t.span");
        drop(s);
    }

    #[test]
    fn local_collector_sees_everything() {
        let c = Arc::new(Collector::default());
        with_local(c.clone(), || {
            let _outer = span("outer");
            counter("work", 2);
            counter("work", 3);
            gauge("level", 4.5);
            observe("size", 9);
            timer("wall_ns", 40);
            timer("wall_ns", 2);
            let _inner = span("inner");
        });
        let m = c.summary();
        assert_eq!(m.counter("work"), 5);
        assert_eq!(m.timer_ns("wall_ns"), 42);
        assert_eq!(m.counter("wall_ns"), 0, "timers are not counters");
        assert_eq!(m.gauge("level"), Some(4.5));
        let span_names: Vec<_> = m.spans.iter().map(|s| s.name).collect();
        assert!(span_names.contains(&"outer") && span_names.contains(&"inner"));
        let h = m.histogram("size").expect("histogram recorded");
        assert_eq!((h.count, h.sum, h.max), (1, 9, 9));
    }

    #[test]
    fn with_local_scopes_recording() {
        let c = Arc::new(Collector::default());
        with_local(c.clone(), || counter("in", 1));
        counter("out", 1); // after the scope: not recorded
        let m = c.summary();
        assert_eq!(m.counter("in"), 1);
        assert_eq!(m.counter("out"), 0);
    }

    #[test]
    fn with_local_pops_on_panic() {
        let c = Arc::new(Collector::default());
        let r = std::panic::catch_unwind(|| {
            with_local(c.clone(), || {
                counter("before.panic", 1);
                panic!("boom");
            })
        });
        assert!(r.is_err());
        counter("after.panic", 1); // recorder must be popped by now
        let m = c.summary();
        assert_eq!(m.counter("before.panic"), 1);
        assert_eq!(
            m.counter("after.panic"),
            0,
            "local recorder leaked after panic"
        );
    }

    #[test]
    fn counters_carry_enclosing_stage() {
        let c = Arc::new(Collector::default());
        with_local(c.clone(), || {
            let _s = span("stage_a");
            counter("ops", 1);
        });
        let m = c.summary();
        assert_eq!(m.counters, vec![("ops", Some("stage_a"), 1)]);
    }

    #[test]
    fn span_durations_are_nonnegative_and_counted() {
        let c = Arc::new(Collector::default());
        with_local(c.clone(), || {
            for _ in 0..3 {
                let _s = span("loop");
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        let m = c.summary();
        let s = m.span("loop").expect("span recorded");
        assert_eq!(s.count, 3);
        assert!(s.total >= Duration::from_micros(150));
    }
}
