//! The traced pass: per-layer metrics, timed from outside.
//!
//! One pass over the workload's inputs. Each operation runs three
//! times on the same input:
//!
//! 1. untraced, as the timed pass runs it;
//! 2. traced, with a `sag-obs` collector, which gives the traced
//!    end-to-end time and the work counters the library emits;
//! 3. replayed layer by layer, calling each layer's public function on
//!    the same input under a collector of its own, so each layer pays
//!    the same tracing cost as in step 2.
//!
//! The replayed seconds, plus `samc.residual_s` (SAMC time no public
//! function reaches: the engine merge, the global repair, the strategy
//! retries), must account for the traced end-to-end time within
//! [`ACCOUNTING_TOLERANCE`]. What they leave over is reported as
//! `trace.unaccounted_s`, never dropped.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sag_core::candidates::iac_candidates;
use sag_core::churn::{ChurnEngine, RepairRung};
use sag_core::coverage::CoverageSolution;
use sag_core::escape::coverage_link_escape;
use sag_core::mbmc::mbmc;
use sag_core::pro::pro_with_budget;
use sag_core::samc::{samc_with_budget_threads, SamcConfig};
use sag_core::sliding::rs_sliding_movement;
use sag_core::ucpo::ucpo;
use sag_core::zone::{observed_zone_partition, zone_scenario};
use sag_core::{Budget, Scenario, SolverBuilder};
use sag_geom::Point;
use sag_hitting::local_search::local_search_hitting_set;
use sag_hitting::DiskInstance;
use sag_obs::{Collector, StageMetrics};

use crate::inputs::{batch_inputs, churn_stream, churn_streams, ChurnStream, Scale, Workload};
use crate::metrics::{self, percentile, ratio, RunResult, OBS_COUNTERS, PER_LAYER};
use crate::ops::{self, churn_config, Outcome, DEFAULT_AUDIT_EVERY};

/// Largest share of the traced end-to-end time the replayed layers may
/// leave unaccounted (or overcount) before the run is marked incorrect.
pub const ACCOUNTING_TOLERANCE: f64 = 0.10;

/// Per-layer totals, by metric name.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }

    /// Times `f` into `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = black_box(f());
        self.add(name, started.elapsed().as_secs_f64());
        out
    }

    fn counters(&mut self, m: &StageMetrics) {
        for &name in OBS_COUNTERS {
            self.add(name, m.counter(name) as f64);
        }
    }
}

/// Runs `f` under a fresh collector and returns what it recorded.
fn collected<T>(f: impl FnOnce() -> T) -> (T, StageMetrics) {
    let collector = Arc::new(Collector::default());
    let out = sag_obs::with_local(collector.clone(), f);
    (out, collector.summary())
}

/// Runs the traced pass of `w` and returns its per-layer metrics.
pub fn run(w: Workload, seed: u64, scale: Scale) -> RunResult {
    let mut layers = Layers::default();
    let mut result = RunResult::default();
    let mut outcomes = Vec::new();
    if w.is_batch() {
        for sc in batch_inputs(w, seed, scale) {
            outcomes.push(trace_solve(w, &sc, &mut layers));
        }
    } else {
        let mut untraced_ms = Vec::new();
        for s in 0..churn_streams(scale) {
            let stream = churn_stream(seed, s, scale);
            outcomes.extend(trace_stream(&stream, &mut layers, &mut untraced_ms));
        }
        layers.add("churn.event_p99_ms", percentile(&untraced_ms, 99.0));
    }
    for &outcome in &outcomes {
        result.count(outcome);
    }
    result.passes = 1;
    result.digest = ops::digest(&outcomes);

    if w.is_batch() && w != Workload::IlpqcIac {
        let steps = layers.sum(&[
            "zone.partition_s",
            "hitting.instance_s",
            "hitting.search_s",
            "escape.s",
            "sliding.s",
        ]);
        layers.add("samc.residual_s", layers.get("samc.s") - steps);
    }
    let lower_tier = if w == Workload::IlpqcIac {
        layers.sum(&["zone.partition_s", "iac.candidates_s", "ilpqc.solve_s"])
    } else {
        layers.get("samc.s")
    };
    let tail = [
        "pro.s",
        "mbmc.s",
        "ucpo.s",
        "churn.repair_s",
        "churn.audit_s",
    ];
    let accounted = lower_tier + layers.sum(&tail);
    let e2e = layers.get("trace.e2e_s");
    let unaccounted = e2e - accounted;
    layers.add("trace.unaccounted_s", unaccounted);
    layers.add(
        "trace.overhead_ratio",
        ratio(e2e, layers.get("trace.untraced_e2e_s")),
    );
    layers.add(
        "sliding.accept_ratio",
        ratio(
            layers.get("sliding.accepted_moves"),
            layers.get("sliding.trials"),
        ),
    );
    layers.add(
        "lp.refactors_per_solve",
        ratio(
            layers.get("lp.sparse_refactors"),
            layers.get("lp.sparse_solves"),
        ),
    );
    let starts = layers.get("ilp.warm_starts") + layers.get("ilp.cold_starts");
    layers.add(
        "ilp.warm_ratio",
        ratio(layers.get("ilp.warm_starts"), starts),
    );

    result.correct = result.failed == 0
        && result.attempted > 0
        && unaccounted.abs() <= ACCOUNTING_TOLERANCE * e2e;
    metrics::collect(PER_LAYER, &mut result, |name| layers.get(name));
    result
}

/// One batch operation: untraced, traced, then replayed layer by layer.
fn trace_solve(w: Workload, sc: &Scenario, layers: &mut Layers) -> Outcome {
    let plain = ops::pipeline_config(w, false);
    let traced = ops::pipeline_config(w, true);
    let _ = layers.time("trace.untraced_e2e_s", || ops::solve(sc, &plain));
    let answer = layers.time("trace.e2e_s", || ops::solve(sc, &traced));
    let outcome = match &answer {
        Ok(report) => {
            layers.counters(&report.metrics);
            ops::check_report(sc, report)
        }
        Err(outcome) => *outcome,
    };
    let coverage = answer.ok().map(|r| r.coverage);
    let replay_ok = collected(|| {
        if w == Workload::IlpqcIac {
            replay_ilpqc(sc, layers);
        } else {
            let replayed = replay_samc(sc, layers);
            // The replay must reproduce the pipeline's own placement.
            if replayed != coverage {
                return false;
            }
        }
        if let Some(cov) = &coverage {
            replay_tail(sc, cov, layers);
        }
        true
    })
    .0;
    if replay_ok {
        outcome
    } else {
        Outcome::Failed
    }
}

/// SAMC as one call, then its steps one by one on every zone. Returns
/// the placement of the whole call.
fn replay_samc(sc: &Scenario, layers: &mut Layers) -> Option<CoverageSolution> {
    let budget = Budget::unlimited();
    let placement = layers
        .time("samc.s", || {
            samc_with_budget_threads(sc, SamcConfig::default(), &budget, 1)
        })
        .ok();
    let zones = layers.time("zone.partition_s", || observed_zone_partition(sc));
    layers.add("zone.count", zones.len() as f64);
    for zone in &zones {
        let (zsc, _) = layers.time("zone.partition_s", || zone_scenario(sc, zone));
        let instance = layers.time("hitting.instance_s", || {
            DiskInstance::new(zsc.feasible_circles())
        });
        layers.add("hitting.candidates", instance.candidates().len() as f64);
        let points = layers.time("hitting.search_s", || local_search_hitting_set(&instance));
        layers.add("hitting.points", points.len() as f64);
        let escape = layers.time("escape.s", || coverage_link_escape(&zsc, &points));
        // Keep the points the escape uses, as SAMC does before sliding.
        let mut remap = vec![usize::MAX; points.len()];
        let mut relays: Vec<Point> = Vec::new();
        for (p, served) in escape.served.iter().enumerate() {
            if !served.is_empty() {
                remap[p] = relays.len();
                relays.push(points[p]);
            }
        }
        let assignment: Option<Vec<usize>> = escape
            .assignment
            .iter()
            .map(|a| a.map(|p| remap[p]))
            .collect();
        if let Some(assignment) = assignment {
            layers.time("sliding.s", || {
                rs_sliding_movement(&zsc, relays, assignment)
            });
        }
    }
    placement
}

/// The ILPQC lower tier's public steps on every zone.
fn replay_ilpqc(sc: &Scenario, layers: &mut Layers) {
    let shared = Budget::unlimited().with_shared_node_pool();
    let builder = SolverBuilder::adaptive().strict_exact();
    let zones = layers.time("zone.partition_s", || observed_zone_partition(sc));
    layers.add("zone.count", zones.len() as f64);
    for zone in &zones {
        let (zsc, _) = layers.time("zone.partition_s", || zone_scenario(sc, zone));
        let cands = layers.time("iac.candidates_s", || iac_candidates(&zsc));
        layers.add("iac.candidates", cands.len() as f64);
        let _ = layers.time("ilpqc.solve_s", || {
            builder.solve_zone(&zsc, &cands, &shared)
        });
    }
}

/// PRO, MBMC and UCPO on the pipeline's placement.
fn replay_tail(sc: &Scenario, cov: &CoverageSolution, layers: &mut Layers) {
    let _ = layers.time("pro.s", || pro_with_budget(sc, cov, &Budget::unlimited()));
    if let Ok(plan) = layers.time("mbmc.s", || mbmc(sc, cov)) {
        layers.time("ucpo.s", || ucpo(sc, cov, &plan));
    }
}

/// One churn stream, three times: untraced; traced with the default
/// per-event audit; and with audits off, where each event's repair and
/// a separate `ChurnEngine::audit` on the same state are timed apart.
/// Returns the traced run's per-event outcomes.
fn trace_stream(
    stream: &ChurnStream,
    layers: &mut Layers,
    untraced_ms: &mut Vec<f64>,
) -> Vec<Outcome> {
    let budget = Budget::unlimited();
    let n = stream.events.len();
    let build = |audit_every| ChurnEngine::new(&stream.scenario, churn_config(audit_every));
    let (Ok(mut plain), Ok(mut traced), Ok(mut split)) = (
        build(DEFAULT_AUDIT_EVERY),
        build(DEFAULT_AUDIT_EVERY),
        build(0),
    ) else {
        return vec![Outcome::Failed; n];
    };

    for &event in &stream.events {
        let started = Instant::now();
        let _ = black_box(ops::guarded(|| plain.apply_event(event, &budget)));
        let took = started.elapsed().as_secs_f64();
        layers.add("trace.untraced_e2e_s", took);
        untraced_ms.push(took * 1e3);
    }

    let mut outcomes = Vec::with_capacity(n);
    let mut metrics = StageMetrics::default();
    for (e, &event) in stream.events.iter().enumerate() {
        let (applied, m) = layers.time("trace.e2e_s", || {
            collected(|| ops::guarded(|| traced.apply_event(event, &budget)))
        });
        metrics.merge(&m);
        outcomes.push(ops::churn_outcome(&traced, applied, e, n));
    }
    layers.counters(&metrics);
    let report = traced.report();
    layers.add(
        "churn.rung_exact",
        report.rung_count(RepairRung::Exact) as f64,
    );
    layers.add(
        "churn.rung_greedy",
        report.rung_count(RepairRung::Greedy) as f64,
    );
    layers.add(
        "churn.rung_deferred",
        report.rung_count(RepairRung::Deferred) as f64,
    );
    layers.add("churn.global_repairs", report.global_repairs as f64);

    let mut split_ok = true;
    for &event in &stream.events {
        let ((), _) = collected(|| {
            let applied = layers.time("churn.repair_s", || {
                ops::guarded(|| split.apply_event(event, &budget))
            });
            let audited = layers.time("churn.audit_s", || split.audit());
            split_ok &= applied.is_ok() && audited.is_ok();
        });
    }
    // The audit-free replay must end in the same placement.
    if !split_ok || split.solution() != traced.solution() {
        if let Some(last) = outcomes.last_mut() {
            *last = Outcome::Failed;
        }
    }
    outcomes
}
