//! The metric catalogue, the statistics behind it, and the result
//! line the benchmark prints.

use std::fmt::Write as _;

use crate::ops::Outcome;

/// A metric's name, unit and direction, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit of its value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`: which way is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by every timed run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("latency_ms_p50", "ms", "lower"),
    m("latency_ms_p90", "ms", "lower"),
    m("relays_mean", "relays", "lower"),
    m("power_mean", "W", "lower"),
    m("feasible_frac", "ratio", "higher"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
/// Seconds and counts are totals over one pass of the workload.
pub const PER_LAYER: &[MetricDef] = &[
    m("zone.partition_s", "s", "lower"),
    m("zone.count", "count", "higher"),
    m("hitting.instance_s", "s", "lower"),
    m("hitting.candidates", "count", "lower"),
    m("hitting.search_s", "s", "lower"),
    m("hitting.points", "count", "lower"),
    m("escape.s", "s", "lower"),
    m("sliding.s", "s", "lower"),
    m("sliding.trials", "count", "lower"),
    m("sliding.accepted_moves", "count", "higher"),
    m("sliding.accept_ratio", "ratio", "higher"),
    m("samc.s", "s", "lower"),
    m("samc.residual_s", "s", "lower"),
    m("iac.candidates_s", "s", "lower"),
    m("iac.candidates", "count", "lower"),
    m("ilpqc.solve_s", "s", "lower"),
    m("ilpqc.nodes", "count", "lower"),
    m("ilpqc.lp_prunes", "count", "higher"),
    m("lp.sparse_solves", "count", "lower"),
    m("lp.sparse_refactors", "count", "lower"),
    m("lp.sparse_pivots", "count", "lower"),
    m("ilp.nodes", "count", "lower"),
    m("ilp.warm_starts", "count", "higher"),
    m("ilp.cold_starts", "count", "lower"),
    m("lp.refactors_per_solve", "ratio", "lower"),
    m("ilp.warm_ratio", "ratio", "higher"),
    m("pro.s", "s", "lower"),
    m("mbmc.s", "s", "lower"),
    m("ucpo.s", "s", "lower"),
    m("ledger.delta_ops", "count", "lower"),
    m("ledger.rebuilds", "count", "lower"),
    m("ledger.cancel_refreshes", "count", "lower"),
    m("churn.repair_s", "s", "lower"),
    m("churn.audit_s", "s", "lower"),
    m("churn.rung_exact", "count", "higher"),
    m("churn.rung_greedy", "count", "lower"),
    m("churn.rung_deferred", "count", "lower"),
    m("churn.global_repairs", "count", "lower"),
    m("churn.event_p99_ms", "ms", "lower"),
    m("trace.e2e_s", "s", "lower"),
    m("trace.unaccounted_s", "s", "lower"),
    m("trace.overhead_ratio", "ratio", "lower"),
];

/// The work counters `sag-obs` emits that the traced pass reads as-is.
pub const OBS_COUNTERS: &[&str] = &[
    "sliding.trials",
    "sliding.accepted_moves",
    "ilpqc.nodes",
    "ilpqc.lp_prunes",
    "lp.sparse_solves",
    "lp.sparse_refactors",
    "lp.sparse_pivots",
    "ilp.nodes",
    "ilp.warm_starts",
    "ilp.cold_starts",
    "ledger.delta_ops",
    "ledger.rebuilds",
    "ledger.cancel_refreshes",
];

/// The outcome of one benchmark run, as printed on its last line.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Every operation passed its check and every pass-level check held.
    pub correct: bool,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that errored (other than infeasible), panicked, or
    /// returned an answer that failed its check.
    pub failed: u64,
    /// Operations answered `SagError::Infeasible`.
    pub infeasible: u64,
    /// Digest of the first pass's per-operation outcomes.
    pub digest: u64,
    /// Whole passes over the workload's inputs.
    pub passes: usize,
    /// Metric values, by name, in catalogue order.
    pub metrics: Vec<(MetricDef, f64)>,
}

impl RunResult {
    /// Counts one attempted operation by its outcome.
    pub fn count(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Solved { .. } => {}
            Outcome::Infeasible => self.infeasible += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    /// The value of metric `name`, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, v)| v)
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (def, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Fills `catalogue` from `value`, in catalogue order. A value that is
/// not finite is reported as 0 and makes the run incorrect.
pub fn collect(catalogue: &[MetricDef], result: &mut RunResult, value: impl Fn(&str) -> f64) {
    for &def in catalogue {
        let v = value(def.name);
        if !v.is_finite() {
            result.correct = false;
        }
        result
            .metrics
            .push((def, if v.is_finite() { v } else { 0.0 }));
    }
}

/// Nearest-rank percentile (`p` in percent) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean; NaN for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `num / den`, or 0 when `den` is 0 (a ratio of work that never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
