//! `backends` arm: adaptive solver selection vs an all-exact lower
//! tier (`BENCH_backends.json`).
//!
//! The probe is the clustered multi-zone shape per-zone selection
//! exists for: a 4×4 grid of tight subscriber clusters, each its own
//! interference zone. Every cluster is dense enough that its candidate
//! set clears [`sag_core::SelectionPolicy`]'s `lp_round_max_cands`
//! threshold, so the adaptive builder routes the zone to the LP-free
//! local-search backend (greedy start, swap/drop improvement) while
//! the all-exact arm pays full branch-and-bound on every zone. Two
//! arms are timed interleaved over the same pipeline run:
//!
//! * **exact** — `SolverBuilder::fixed(ExactIlp)`: warm-started B&B in
//!   all sixteen zones, the pre-selection answer;
//! * **adaptive** — `SolverBuilder::adaptive()`: per-zone choice by
//!   candidate count and budget.
//!
//! Each sample is the run's own lower-tier spend: the polynomial tail
//! (PRO, MBMC, UCPO) is identical in both arms and would only dilute
//! the ratio the gate is about.
//!
//! Before any timing both arms must pass the independent report audit
//! — a fast heuristic that drops a subscriber is worthless — and the
//! adaptive arm must demonstrably route at least one zone away from
//! the exact backend (otherwise the ratio measures nothing). The
//! speedup gate needs headroom above timer noise to mean anything:
//! when the exact arm lands below the timing floor the gate is
//! recorded as skipped.

use sag_core::model::Scenario;
use sag_core::sag::{run_sag_with, LowerSolver, SagPipelineConfig, SagReport};
use sag_core::validate::validate_report;
use sag_core::zone::zone_partition;
use sag_core::{SolverBackend, SolverBuilder};

use crate::{cluster_probe, grid_centres, interleave, Artefact, Gate};

const CLUSTERS: usize = 16;
const SUBS_PER_CLUSTER: usize = 16;
/// Interleaved exact/adaptive measurement rounds, one run per sample.
const ROUNDS: usize = 7;
/// Below this per-run exact time the speedup ratio is timer noise.
const TIMING_FLOOR_NS: u128 = 200_000;
const MIN_SPEEDUP: f64 = 1.5;

/// The churn probe's cluster grid, densified: sixteen subscribers per
/// cluster so each zone's IAC candidate set (subscriber positions plus
/// pairwise circle intersections) lands well above the adaptive
/// policy's `lp_round_max_cands` threshold.
pub(crate) fn probe() -> Scenario {
    let centres = grid_centres(&[-450.0, -150.0, 150.0, 450.0]);
    cluster_probe(1200.0, &centres, SUBS_PER_CLUSTER, 18.0, 550.0)
}

fn solve(sc: &Scenario, solver: SolverBuilder) -> SagReport {
    run_sag_with(
        sc,
        SagPipelineConfig {
            lower_solver: LowerSolver::IlpqcWithGreedyFallback,
            solver,
            ..Default::default()
        },
    )
    .expect("probe scenario is solvable")
}

/// How many zones each backend answered, in `SolverBackend::ALL` order.
fn backend_mix(report: &SagReport) -> [usize; 4] {
    let mut mix = [0usize; 4];
    for rec in &report.zone_solvers {
        mix[rec.backend.rank()] += 1;
    }
    mix
}

pub(crate) fn run() -> Artefact {
    let sc = probe();
    let zones = zone_partition(&sc).len();
    assert_eq!(
        zones, CLUSTERS,
        "probe must fragment into one zone per cluster"
    );

    // Contract before stopwatch: both arms answer, both answers pass
    // the independent audit — equal feasibility, different work.
    let exact_report = solve(&sc, SolverBuilder::fixed(SolverBackend::ExactIlp));
    let audit = validate_report(&sc, &exact_report);
    assert!(audit.is_clean(), "exact arm failed the audit:\n{audit}");
    let adaptive_report = solve(&sc, SolverBuilder::adaptive());
    let audit = validate_report(&sc, &adaptive_report);
    assert!(audit.is_clean(), "adaptive arm failed the audit:\n{audit}");

    let mix = backend_mix(&adaptive_report);
    assert_eq!(
        mix.iter().sum::<usize>(),
        zones,
        "every zone must record its backend"
    );
    assert!(
        zones - mix[0] > 0,
        "adaptive routed no zone away from the exact backend; \
         the probe no longer exercises selection"
    );

    let lower_tier_ns = |solver: SolverBuilder| solve(&sc, solver).budget_spent.elapsed.as_nanos();
    let t = interleave(
        ROUNDS,
        1,
        &mut [
            &mut || lower_tier_ns(SolverBuilder::fixed(SolverBackend::ExactIlp)),
            &mut || lower_tier_ns(SolverBuilder::adaptive()),
        ],
    );
    let (exact_ns, speedup) = (t[0].min_ns, t[1].speedup);

    Artefact::new("solver_backends")
        .field("subscribers", CLUSTERS * SUBS_PER_CLUSTER)
        .field("zones", zones)
        .field("exact_min_ns", exact_ns)
        .field("adaptive_min_ns", t[1].min_ns)
        .field("speedup_median", format!("{speedup:.4}"))
        .field("adaptive_exact_zones", mix[0])
        .field("adaptive_lp_round_zones", mix[1])
        .field("adaptive_local_search_zones", mix[2])
        .field("adaptive_greedy_zones", mix[3])
        .field("exact_coverage_relays", exact_report.n_coverage_relays())
        .field(
            "adaptive_coverage_relays",
            adaptive_report.n_coverage_relays(),
        )
        .gate(
            Gate::at_least("speedup_median", speedup, MIN_SPEEDUP)
                .skip_unless(exact_ns >= TIMING_FLOOR_NS, || {
                    format!("exact arm {exact_ns} ns below the {TIMING_FLOOR_NS} ns timing floor")
                }),
        )
}
