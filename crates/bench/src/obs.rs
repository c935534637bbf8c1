//! `obs` arm: observability overhead (`BENCH_obs.json`), and the
//! `check-jsonl` validator for `SAG_OBS_JSON` captures.
//!
//! Four variants of the same full-pipeline solve are timed:
//!
//! * **baseline** — the stages composed by hand with no recorder
//!   anywhere (validate → SAMC → PRO → MBMC → UCPO), the closest thing
//!   to an uninstrumented build the instrumented binary can offer;
//! * **disabled** — [`run_sag_with`] with `collect_metrics: false`, the
//!   production disabled path (every span/counter call short-circuits
//!   on the `enabled()` check);
//! * **collected** — the default [`run_sag`], which installs a
//!   thread-local [`sag_obs::Collector`] for the run (informational);
//! * **ring** — the disabled path with the flight recorder armed
//!   (`SAG_OBS_RING`-style), measuring what the always-on crash
//!   timeline costs (informational).
//!
//! All variants are checked for identical deployments before any
//! timing — instrumentation must never change results. The gate is
//! the disabled path's median per-round overhead over the baseline.

use sag_core::mbmc::mbmc;
use sag_core::model::Scenario;
use sag_core::pro::pro_with_budget;
use sag_core::sag::{run_sag, run_sag_with, SagPipelineConfig, SagReport};
use sag_core::samc::{samc_with_budget, SamcConfig};
use sag_core::ucpo::ucpo;
use sag_lp::Budget;
use sag_obs::json::{field_str, field_u64};

use crate::{bench_scenario, interleave, wall, Artefact, Gate};

const SUBSCRIBERS: usize = 18;
const FIELD: f64 = 500.0;
const SEED: u64 = 4242;
/// Pipeline solves per timing sample.
const INNER_ITERS: u32 = 8;
/// Interleaved baseline/disabled/collected measurement rounds.
const ROUNDS: usize = 25;
/// A ≤2% ceiling is below the noise of timing the variants back to
/// back; the interleaved median ratio resolves it.
const MAX_OVERHEAD: f64 = 1.02;

/// Stage spans every full-pipeline run must emit.
const REQUIRED_STAGES: &[&str] = &["samc", "zone_partition", "pro", "mbmc", "ucpo"];

/// The hand-composed pipeline: the same stage sequence as
/// `run_sag_with`, minus any collector plumbing. Returns the total
/// power and relay count so parity against the real pipeline is
/// checkable.
fn baseline_pipeline(scenario: &Scenario) -> (f64, usize) {
    scenario.validate().expect("bench scenario is valid");
    let budget = Budget::unlimited();
    let coverage = samc_with_budget(scenario, SamcConfig::default(), &budget)
        .expect("bench scenario is coverable");
    let lower = pro_with_budget(scenario, &coverage, &budget).expect("PRO succeeds");
    let plan = mbmc(scenario, &coverage).expect("bench scenario is connectable");
    let upper = ucpo(scenario, &coverage, &plan);
    (
        lower.total() + upper.total(),
        coverage.n_relays() + plan.n_relays(),
    )
}

fn disabled_pipeline(scenario: &Scenario) -> SagReport {
    run_sag_with(
        scenario,
        SagPipelineConfig {
            collect_metrics: false,
            ..Default::default()
        },
    )
    .expect("pipeline succeeds")
}

fn parity_check(scenario: &Scenario) {
    let (base_power, base_relays) = baseline_pipeline(scenario);
    let disabled = disabled_pipeline(scenario);
    let collected = run_sag(scenario).expect("pipeline succeeds");
    for (label, report) in [("disabled", &disabled), ("collected", &collected)] {
        let power = report.power_summary().total;
        let relays = report.n_coverage_relays() + report.n_connectivity_relays();
        assert!(
            (power - base_power).abs() < 1e-12 && relays == base_relays,
            "{label} path diverged from baseline: power {power} vs {base_power}, \
             relays {relays} vs {base_relays}"
        );
    }
    assert!(
        disabled.metrics.is_empty(),
        "collect_metrics: false must leave the report metrics empty"
    );
    assert!(
        !collected.metrics.is_empty(),
        "the default pipeline must collect stage metrics"
    );
    for stage in REQUIRED_STAGES {
        assert!(
            collected.metrics.span(stage).is_some(),
            "collected run is missing the '{stage}' span"
        );
    }
}

pub(crate) fn run() -> Artefact {
    let scenario = bench_scenario(FIELD, SUBSCRIBERS, SEED);

    // Parity gate before any timing: instrumentation that changes the
    // deployment would make the overhead number meaningless.
    parity_check(&scenario);

    // Disabled path with the flight recorder armed: what the crash
    // timeline costs when somebody sets SAG_OBS_RING. The ring is
    // re-disarmed after every solve so the other variants keep
    // measuring the truly-off path.
    let ring_pipeline = || {
        sag_obs::ring::configure(256);
        let report = disabled_pipeline(&scenario);
        sag_obs::ring::configure(0);
        report
    };
    let t = interleave(
        ROUNDS,
        INNER_ITERS,
        &mut [
            &mut wall(|| baseline_pipeline(&scenario)),
            &mut wall(|| disabled_pipeline(&scenario)),
            &mut wall(|| run_sag(&scenario).expect("pipeline succeeds")),
            &mut wall(ring_pipeline),
        ],
    );
    // Each variant's median per-round time over the baseline's (the
    // reciprocal of its speedup; the round count is odd, so this is
    // exactly the median of the per-round overheads).
    let overhead = |i: usize| 1.0 / t[i].speedup;
    Artefact::new("obs_overhead")
        .field("subscribers", SUBSCRIBERS)
        .field("baseline_min_ns", t[0].min_ns)
        .field("disabled_min_ns", t[1].min_ns)
        .field("collected_min_ns", t[2].min_ns)
        .field("ring_min_ns", t[3].min_ns)
        .field("overhead_disabled", format!("{:.4}", overhead(1)))
        .field("overhead_collected", format!("{:.4}", overhead(2)))
        .field("overhead_ring", format!("{:.4}", overhead(3)))
        .gate(Gate::at_most(
            "overhead_disabled",
            overhead(1),
            MAX_OVERHEAD,
        ))
}

/// Checks a `SAG_OBS_JSON` capture: every line parses as JSON, a
/// `run_start` header and a `run_end` trailer frame the run, the
/// trailer carries the `dropped_events` and `ring_overflow` loss
/// accounting, span enters and exits balance, every pipeline stage has
/// a span, and the solver work counters (`lp.*`, `ledger.*`) are
/// present.
///
/// # Errors
/// The first violated condition, with its 1-based line number where
/// it has one.
pub fn check_jsonl(text: &str) -> Result<String, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    let n = lines.len();
    if n < 3 {
        return Err(format!("{n} line(s); expected header, events, trailer"));
    }
    let mut enters = 0usize;
    let mut exits = 0usize;
    let mut stages_seen: Vec<&str> = Vec::new();
    let mut lp_counters = 0usize;
    let mut ledger_counters = 0usize;
    for (i, line) in lines.iter().enumerate() {
        let at = i + 1;
        sag_obs::json::validate(line).map_err(|e| format!("line {at}: invalid JSON ({e})"))?;
        let kind = field_str(line, "kind");
        if (kind == Some("run_start")) != (i == 0) {
            return Err(format!("line {at}: run_start belongs on line 1 only"));
        }
        if (kind == Some("run_end")) != (at == n) {
            return Err(format!("line {at}: run_end belongs on the last line only"));
        }
        match kind {
            Some("run_end") => {
                for key in ["dropped_events", "ring_overflow"] {
                    if field_u64(line, key).is_none() {
                        return Err(format!("line {at}: run_end trailer lacks {key}"));
                    }
                }
            }
            Some("span_enter") => {
                enters += 1;
                if let Some(name) = field_str(line, "name") {
                    if !stages_seen.contains(&name) {
                        stages_seen.push(name);
                    }
                }
            }
            Some("span_exit") => {
                exits += 1;
                if !line.contains("\"dur_ns\":") {
                    return Err(format!("line {at}: span_exit without dur_ns"));
                }
            }
            Some("counter") => match field_str(line, "name") {
                Some(name) if name.starts_with("lp.") => lp_counters += 1,
                Some(name) if name.starts_with("ledger.") => ledger_counters += 1,
                _ => {}
            },
            _ => {}
        }
    }
    if enters != exits {
        return Err(format!("{enters} span enters but {exits} exits"));
    }
    for stage in REQUIRED_STAGES {
        if !stages_seen.contains(stage) {
            return Err(format!("no '{stage}' span (saw {stages_seen:?})"));
        }
    }
    if lp_counters == 0 {
        return Err("no lp.* solver counters".into());
    }
    if ledger_counters == 0 {
        return Err("no ledger.* counters".into());
    }
    Ok(format!(
        "{n} lines, {enters} spans, stages {stages_seen:?}, \
         {lp_counters} lp.* and {ledger_counters} ledger.* counter events"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest capture `check_jsonl` accepts: header, one span per
    /// required stage, one `lp.*` and one `ledger.*` counter, trailer.
    fn minimal_capture() -> Vec<String> {
        let mut lines =
            vec![r#"{"kind":"run_start","run":"1-2","pid":1,"wall_unix_ns":2}"#.to_string()];
        for stage in REQUIRED_STAGES {
            lines.push(format!(
                r#"{{"kind":"span_enter","name":"{stage}","t_ns":1}}"#
            ));
            lines.push(format!(
                r#"{{"kind":"span_exit","name":"{stage}","t_ns":2,"dur_ns":1}}"#
            ));
        }
        lines.push(r#"{"kind":"counter","name":"lp.sparse_solves","value":3}"#.to_string());
        lines.push(r#"{"kind":"counter","name":"ledger.delta_ops","value":4}"#.to_string());
        lines.push(r#"{"kind":"run_end","dropped_events":0,"ring_overflow":0}"#.to_string());
        lines
    }

    #[test]
    fn check_jsonl_accepts_a_minimal_capture() {
        let summary = check_jsonl(&minimal_capture().join("\n")).expect("minimal capture is valid");
        assert!(summary.contains("5 spans"), "{summary}");
    }

    #[test]
    fn check_jsonl_rejects_a_capture_without_its_trailer() {
        let mut lines = minimal_capture();
        lines.pop();
        let err = check_jsonl(&lines.join("\n")).expect_err("no run_end trailer");
        assert!(err.contains("run_end"), "{err}");
    }
}
