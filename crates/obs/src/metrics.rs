//! Aggregating recorder ([`Collector`]) and its exported summary
//! ([`StageMetrics`]).

use std::fmt;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::recorder::{Recorder, SpanMeta};

/// How many raw histogram samples a collector retains (in arrival
/// order) alongside the bucket counts. Beyond the cap only the
/// aggregates keep growing; pipeline histograms (zone sizes) are far
/// below it.
const MAX_RETAINED_SAMPLES: usize = 4096;

/// Aggregate of one span name: how often it ran and for how long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name.
    pub name: &'static str,
    /// Number of completed executions.
    pub count: u64,
    /// Total wall time across executions.
    pub total: Duration,
}

/// Summary of one histogram: exact aggregates plus sparse sub-octave
/// bucketed counts. Values below 16 get exact buckets (index =
/// value); above that every power-of-two octave splits into 4
/// sub-buckets, so bucket width stays ≤ 25% of the value everywhere —
/// fine enough to resolve the 100–500µs band of the churn
/// repair-latency gate in nanoseconds. [`bucket_floor`] maps an index
/// back to its inclusive lower bound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// `(bucket, count)` pairs for non-empty buckets, ascending.
    pub buckets: Vec<(u32, u64)>,
    /// Raw samples in arrival order, capped at an internal limit.
    pub samples: Vec<u64>,
}

/// The sub-octave bucket index of `v` (see [`HistSummary`]).
fn bucket_of(v: u64) -> u32 {
    if v < 16 {
        return v as u32;
    }
    let b = 63 - v.leading_zeros(); // octave: 2^b <= v, b in 4..=63
    let sub = ((v >> (b - 2)) & 0x3) as u32; // quarter within the octave
    16 + (b - 4) * 4 + sub
}

/// Inclusive lower bound of bucket `idx` — the inverse of the bucket
/// index function, exposed so histogram renderers (and the trace
/// analyzer) can print real value edges.
pub fn bucket_floor(idx: u32) -> u64 {
    if idx < 16 {
        return u64::from(idx);
    }
    let b = 4 + (idx - 16) / 4;
    let sub = u64::from((idx - 16) % 4);
    (1u64 << b) + (sub << (b - 2))
}

/// Everything a [`Collector`] gathered, in first-seen order.
///
/// Counters, gauges and histograms are keyed by `(name, stage)` where
/// `stage` is the innermost span open when the value was recorded, so
/// the rendered table can attribute work to pipeline stages. The
/// lookup helpers aggregate across stages.
#[derive(Debug, Clone, Default)]
pub struct StageMetrics {
    /// Completed spans.
    pub spans: Vec<SpanStat>,
    /// `(name, stage, value)` counters.
    pub counters: Vec<(&'static str, Option<&'static str>, u64)>,
    /// `(name, stage, last value)` gauges.
    pub gauges: Vec<(&'static str, Option<&'static str>, f64)>,
    /// `(name, stage, summary)` histograms.
    pub histograms: Vec<(&'static str, Option<&'static str>, HistSummary)>,
    /// `(name, stage, nanoseconds)` wall-clock timers.
    pub timers: Vec<(&'static str, Option<&'static str>, u64)>,
}

impl StageMetrics {
    /// Total of the counter `name` across all stages (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        sum_named(&self.counters, name)
    }

    /// Total of the timer `name` across all stages, in nanoseconds (0
    /// if absent).
    pub fn timer_ns(&self, name: &str) -> u64 {
        sum_named(&self.timers, name)
    }

    /// Last value of the gauge `name` (any stage), if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .rev()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
    }

    /// Aggregate stats of the span `name`, if it ran.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The histogram `name` (first matching stage), if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistSummary> {
        self.histograms
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, h)| h)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.timers.is_empty()
    }

    /// Folds `other` into `self` (summing counters/histograms/span
    /// stats, keeping `other`'s gauges as the latest value) — used to
    /// aggregate per-run metrics across a sweep.
    pub fn merge(&mut self, other: &StageMetrics) {
        for s in &other.spans {
            match self.spans.iter_mut().find(|m| m.name == s.name) {
                Some(m) => {
                    m.count += s.count;
                    m.total += s.total;
                }
                None => self.spans.push(s.clone()),
            }
        }
        for &(name, stage, v) in &other.counters {
            add_named(&mut self.counters, name, stage, v);
        }
        for &(name, stage, v) in &other.timers {
            add_named(&mut self.timers, name, stage, v);
        }
        for &(name, stage, v) in &other.gauges {
            match self
                .gauges
                .iter_mut()
                .find(|(n, s, _)| *n == name && *s == stage)
            {
                Some((_, _, latest)) => *latest = v,
                None => self.gauges.push((name, stage, v)),
            }
        }
        for &(name, stage, ref h) in &other.histograms {
            match self
                .histograms
                .iter_mut()
                .find(|(n, s, _)| *n == name && *s == stage)
            {
                Some((_, _, mine)) => {
                    mine.count += h.count;
                    mine.sum += h.sum;
                    mine.max = mine.max.max(h.max);
                    for &(b, c) in &h.buckets {
                        match mine.buckets.iter_mut().find(|(mb, _)| *mb == b) {
                            Some((_, mc)) => *mc += c,
                            None => mine.buckets.push((b, c)),
                        }
                    }
                    mine.buckets.sort_unstable_by_key(|&(b, _)| b);
                    let room = MAX_RETAINED_SAMPLES.saturating_sub(mine.samples.len());
                    mine.samples.extend(h.samples.iter().copied().take(room));
                }
                None => self.histograms.push((name, stage, h.clone())),
            }
        }
    }
}

/// Renders the per-stage time/work table: one row per span in
/// first-seen (execution) order, with the counters, gauges and
/// histograms attributed to that stage indented beneath it, and
/// un-attributed metrics in a trailing group.
impl fmt::Display for StageMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<18} {:>6} {:>12}", "stage", "calls", "time")?;
        for s in &self.spans {
            writeln!(f, "{:<18} {:>6} {:>12}", s.name, s.count, fmt_dur(s.total))?;
            self.fmt_stage_items(f, Some(s.name))?;
        }
        let orphan = StageMetrics {
            spans: Vec::new(),
            counters: self
                .counters
                .iter()
                .filter(|(_, s, _)| s.is_none_or(|s| self.span(s).is_none()))
                .copied()
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(_, s, _)| s.is_none_or(|s| self.span(s).is_none()))
                .copied()
                .collect(),
            histograms: Vec::new(),
            timers: self
                .timers
                .iter()
                .filter(|(_, s, _)| s.is_none_or(|s| self.span(s).is_none()))
                .copied()
                .collect(),
        };
        if !orphan.counters.is_empty() || !orphan.gauges.is_empty() || !orphan.timers.is_empty() {
            writeln!(f, "{:<18}", "(other)")?;
            for &(name, _, v) in &orphan.counters {
                writeln!(f, "  {name:<28} {v:>12}")?;
            }
            for &(name, _, v) in &orphan.gauges {
                writeln!(f, "  {name:<28} {v:>12.4}")?;
            }
            for &(name, _, ns) in &orphan.timers {
                writeln!(f, "  {name:<28} {:>12}", fmt_dur(Duration::from_nanos(ns)))?;
            }
        }
        Ok(())
    }
}

impl StageMetrics {
    /// Writes the metrics attributed to `stage`, indented.
    fn fmt_stage_items(&self, f: &mut fmt::Formatter<'_>, stage: Option<&str>) -> fmt::Result {
        for &(name, s, v) in &self.counters {
            if s == stage {
                writeln!(f, "  {name:<28} {v:>12}")?;
            }
        }
        for &(name, s, v) in &self.gauges {
            if s == stage {
                writeln!(f, "  {name:<28} {v:>12.4}")?;
            }
        }
        for &(name, s, ref h) in &self.histograms {
            if s == stage {
                writeln!(
                    f,
                    "  {:<28} {:>12} (n={}, max={})",
                    name, h.sum, h.count, h.max
                )?;
            }
        }
        for &(name, s, ns) in &self.timers {
            if s == stage {
                writeln!(f, "  {name:<28} {:>12}", fmt_dur(Duration::from_nanos(ns)))?;
            }
        }
        Ok(())
    }
}

/// Sum of the `(name, stage, value)` entries named `name`.
fn sum_named(entries: &[(&'static str, Option<&'static str>, u64)], name: &str) -> u64 {
    entries
        .iter()
        .filter(|(n, _, _)| *n == name)
        .map(|(_, _, v)| v)
        .sum()
}

/// Adds `v` to the `(name, stage)` entry, appending it when new.
fn add_named(
    entries: &mut Vec<(&'static str, Option<&'static str>, u64)>,
    name: &'static str,
    stage: Option<&'static str>,
    v: u64,
) {
    match entries
        .iter_mut()
        .find(|(n, s, _)| *n == name && *s == stage)
    {
        Some((_, _, total)) => *total += v,
        None => entries.push((name, stage, v)),
    }
}

/// Compact duration rendering for the stage table.
fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Thread-safe aggregating [`Recorder`].
///
/// Install one per pipeline run (thread-locally via
/// [`crate::with_local`]) or process-wide; [`Collector::summary`]
/// snapshots everything gathered so far as a [`StageMetrics`].
#[derive(Debug, Default)]
pub struct Collector {
    inner: Mutex<StageMetrics>,
}

impl Collector {
    /// Snapshot of everything recorded so far.
    pub fn summary(&self) -> StageMetrics {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl Recorder for Collector {
    fn span_exit(&self, span: &SpanMeta, dur: Duration) {
        let name = span.name;
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.spans.iter_mut().find(|s| s.name == name) {
            Some(s) => {
                s.count += 1;
                s.total += dur;
            }
            None => inner.spans.push(SpanStat {
                name,
                count: 1,
                total: dur,
            }),
        }
    }

    /// A collector is an aggregate — zone-worker events must be
    /// buffered per zone and folded in zone-index order so the result
    /// is identical at any thread count (gauges are last-write-wins,
    /// and vector ordering is first-seen).
    fn buffered(&self) -> bool {
        true
    }

    fn absorb(&self, metrics: &StageMetrics) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .merge(metrics);
    }

    fn counter(&self, name: &'static str, delta: u64, stage: Option<&'static str>) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        add_named(&mut inner.counters, name, stage, delta);
    }

    fn timer(&self, name: &'static str, ns: u64, stage: Option<&'static str>) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        add_named(&mut inner.timers, name, stage, ns);
    }

    fn gauge(&self, name: &'static str, value: f64, stage: Option<&'static str>) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner
            .gauges
            .iter_mut()
            .find(|(n, s, _)| *n == name && *s == stage)
        {
            Some((_, _, v)) => *v = value,
            None => inner.gauges.push((name, stage, value)),
        }
    }

    fn observe(&self, name: &'static str, value: u64, stage: Option<&'static str>) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let hist = match inner
            .histograms
            .iter_mut()
            .find(|(n, s, _)| *n == name && *s == stage)
        {
            Some((_, _, h)) => h,
            None => {
                inner.histograms.push((name, stage, HistSummary::default()));
                let last = inner.histograms.len() - 1;
                &mut inner.histograms[last].2
            }
        };
        hist.count += 1;
        hist.sum += value;
        hist.max = hist.max.max(value);
        let b = bucket_of(value);
        match hist.buckets.iter_mut().find(|(hb, _)| *hb == b) {
            Some((_, c)) => *c += 1,
            None => {
                hist.buckets.push((b, 1));
                hist.buckets.sort_unstable_by_key(|&(b, _)| b);
            }
        }
        if hist.samples.len() < MAX_RETAINED_SAMPLES {
            hist.samples.push(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_pinned() {
        // Exact buckets below 16.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 3);
        assert_eq!(bucket_of(15), 15);
        // Four sub-buckets per octave from 16 up.
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(19), 16);
        assert_eq!(bucket_of(20), 17);
        assert_eq!(bucket_of(24), 18);
        assert_eq!(bucket_of(28), 19);
        assert_eq!(bucket_of(31), 19);
        assert_eq!(bucket_of(32), 20);
        assert_eq!(bucket_of(u64::MAX), 255);
        // The sub-microsecond band the churn p99<=500us gate reads
        // (values in ns): the 100us and 500us marks land in distinct
        // buckets with ~13-25% wide edges, not one coarse octave.
        assert_eq!(bucket_of(100_000), 66);
        assert_eq!(bucket_floor(66), 98_304);
        assert_eq!(bucket_of(500_000), 75);
        assert_eq!(bucket_floor(75), 458_752);
        assert_eq!(bucket_floor(76), 524_288);
    }

    #[test]
    fn bucket_floor_inverts_bucket_of() {
        for idx in 0..=255u32 {
            let floor = bucket_floor(idx);
            assert_eq!(bucket_of(floor), idx, "floor of bucket {idx}");
            if floor > 0 {
                assert!(
                    bucket_of(floor - 1) < idx,
                    "bucket {idx} floor {floor} is not the edge"
                );
            }
        }
        // Monotone over a dense range.
        let mut last = 0;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn observe_tracks_aggregates_buckets_and_samples() {
        let c = Collector::default();
        for v in [1u64, 2, 3, 100] {
            Recorder::observe(&c, "h", v, None);
        }
        let m = c.summary();
        let h = m.histogram("h").expect("recorded");
        assert_eq!((h.count, h.sum, h.max), (4, 106, 100));
        assert_eq!(h.samples, vec![1, 2, 3, 100]);
        // Small values get exact buckets; 100 lands in [96, 112).
        assert_eq!(h.buckets, vec![(1, 1), (2, 1), (3, 1), (26, 1)]);
    }

    #[test]
    fn merge_sums_counters_and_spans() {
        let mut a = StageMetrics::default();
        a.counters.push(("x", None, 2));
        a.spans.push(SpanStat {
            name: "s",
            count: 1,
            total: Duration::from_millis(5),
        });
        let mut b = StageMetrics::default();
        b.counters.push(("x", None, 3));
        b.counters.push(("y", Some("s"), 1));
        b.spans.push(SpanStat {
            name: "s",
            count: 2,
            total: Duration::from_millis(7),
        });
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        let s = a.span("s").expect("merged");
        assert_eq!(s.count, 3);
        assert_eq!(s.total, Duration::from_millis(12));
    }

    #[test]
    fn display_renders_stage_table() {
        let mut m = StageMetrics::default();
        m.spans.push(SpanStat {
            name: "samc",
            count: 1,
            total: Duration::from_micros(1500),
        });
        m.counters.push(("ledger.delta_ops", Some("samc"), 42));
        m.counters.push(("loose.counter", None, 7));
        let s = format!("{m}");
        assert!(s.contains("samc"));
        assert!(s.contains("ledger.delta_ops"));
        assert!(s.contains("42"));
        assert!(s.contains("(other)"));
        assert!(s.contains("1.5ms") || s.contains("1.50ms"));
    }
}
