//! The timed pass: end-to-end metrics with tracing off.
//!
//! A single caller issues operations in a closed loop: the next one
//! starts only after the previous one returned. The loop repeats whole
//! passes over the workload's inputs until `seconds` have elapsed. The
//! first pass checks every answer and fixes the digest; later passes
//! must reproduce the first pass's outcomes exactly.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sag_core::churn::ChurnEngine;
use sag_core::Budget;

use crate::inputs::{batch_inputs, churn_stream, churn_streams, Scale, Workload};
use crate::metrics::{self, mean, percentile, RunResult, END_TO_END};
use crate::ops::{self, churn_config, Outcome, DEFAULT_AUDIT_EVERY};

/// Times the batch set-up (input generation) this many times and
/// reports the median; churn sets up once per stream.
const BATCH_SETUP_REPEATS: usize = 9;

/// Tallies of a timed run.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    busy: Duration,
    setup_s: Vec<f64>,
    relays: Vec<f64>,
    power: Vec<f64>,
    first_pass: Vec<Outcome>,
    result: RunResult,
}

impl Tally {
    /// Records one operation: its time, and its outcome against the
    /// first pass's outcome for the same operation.
    fn op(&mut self, index: usize, took: Duration, outcome: Outcome) {
        self.busy += took;
        self.latencies_ms.push(took.as_secs_f64() * 1e3);
        let outcome = if self.result.passes == 0 {
            self.first_pass.push(outcome);
            outcome
        } else if self.first_pass[index] == outcome {
            outcome
        } else {
            Outcome::Failed
        };
        self.result.count(outcome);
    }

    fn finish(mut self) -> RunResult {
        let r = &self.result;
        let solved = (r.attempted - r.failed - r.infeasible) as f64;
        let feasible_frac = solved / r.attempted as f64;
        let ops_per_s = r.attempted as f64 / self.busy.as_secs_f64();
        let rss = metrics::peak_rss_mb().unwrap_or(f64::NAN);
        let values = |name: &str| match name {
            "setup_s" => percentile(&self.setup_s, 50.0),
            "ops_per_s" => ops_per_s,
            "latency_ms_p50" => percentile(&self.latencies_ms, 50.0),
            "latency_ms_p90" => percentile(&self.latencies_ms, 90.0),
            "relays_mean" => mean(&self.relays),
            "power_mean" => mean(&self.power),
            "feasible_frac" => feasible_frac,
            "peak_rss_mb" => rss,
            other => unreachable!("no end-to-end metric {other}"),
        };
        let mut result = std::mem::take(&mut self.result);
        result.correct = result.failed == 0 && result.attempted > 0;
        result.digest = ops::digest(&self.first_pass);
        metrics::collect(END_TO_END, &mut result, values);
        result
    }
}

/// Runs the timed pass of `w` and returns its end-to-end metrics.
pub fn run(w: Workload, seed: u64, seconds: f64, scale: Scale) -> RunResult {
    let seconds = Duration::from_secs_f64(seconds);
    if w.is_batch() {
        run_batch(w, seed, seconds, scale)
    } else {
        run_churn(seed, seconds, scale)
    }
}

fn run_batch(w: Workload, seed: u64, seconds: Duration, scale: Scale) -> RunResult {
    let mut t = Tally::default();
    let mut scenarios = Vec::new();
    for _ in 0..BATCH_SETUP_REPEATS {
        let started = Instant::now();
        scenarios = black_box(batch_inputs(w, seed, scale));
        t.setup_s.push(started.elapsed().as_secs_f64());
    }
    let config = ops::pipeline_config(w, false);
    // One untimed solve, so lazily initialised state is in place.
    let _ = ops::solve(&scenarios[0], &config);
    let started = Instant::now();
    loop {
        for (i, sc) in scenarios.iter().enumerate() {
            let op_started = Instant::now();
            let answer = ops::solve(black_box(sc), &config);
            let took = op_started.elapsed();
            let outcome = match &answer {
                Ok(report) if t.result.passes == 0 => {
                    let checked = ops::check_report(sc, report);
                    if let Outcome::Solved { relays, .. } = checked {
                        t.relays.push(relays as f64);
                        t.power.push(report.power_summary().total);
                    }
                    checked
                }
                Ok(report) => ops::summarize(report),
                Err(outcome) => *outcome,
            };
            t.op(i, took, outcome);
        }
        t.result.passes += 1;
        if started.elapsed() >= seconds {
            break;
        }
    }
    t.finish()
}

fn run_churn(seed: u64, seconds: Duration, scale: Scale) -> RunResult {
    let mut t = Tally::default();
    let budget = Budget::unlimited();
    let started = Instant::now();
    loop {
        let mut index = 0;
        for s in 0..churn_streams(scale) {
            let setup_started = Instant::now();
            let stream = churn_stream(seed, s, scale);
            let engine = ChurnEngine::new(&stream.scenario, churn_config(DEFAULT_AUDIT_EVERY));
            t.setup_s.push(setup_started.elapsed().as_secs_f64());
            let Ok(mut engine) = engine else {
                for _ in &stream.events {
                    t.op(index, Duration::ZERO, Outcome::Failed);
                    index += 1;
                }
                continue;
            };
            let n = stream.events.len();
            for (e, &event) in stream.events.iter().enumerate() {
                let op_started = Instant::now();
                let applied = ops::guarded(|| engine.apply_event(black_box(event), &budget));
                let took = op_started.elapsed();
                let outcome = ops::churn_outcome(&engine, applied, e, n);
                if let (0, true, Outcome::Solved { relays, power_bits }) =
                    (t.result.passes, ops::is_churn_checkpoint(e, n), outcome)
                {
                    t.relays.push(relays as f64);
                    t.power.push(f64::from_bits(power_bits));
                }
                t.op(index, took, outcome);
                index += 1;
            }
        }
        t.result.passes += 1;
        if started.elapsed() >= seconds {
            break;
        }
    }
    t.finish()
}
