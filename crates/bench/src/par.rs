//! `par` arm: the zone-parallel engine (`BENCH_par.json`).
//!
//! Times the lower-tier solve (where the zone engine lives) on a
//! clustered multi-zone probe at `threads = 1` versus `threads = 4`
//! and gates on the median per-round speedup. The full pipeline is
//! timed as well, informationally: its tail stages (PRO → MBMC → UCPO)
//! are sequential by design, so Amdahl caps the end-to-end speedup
//! well below the lower tier's.
//!
//! Before any timing the two thread counts must produce byte-identical
//! deployments — a parallel engine that bought its speedup with
//! nondeterminism would be worthless.
//!
//! The speedup gate is only enforceable on hardware that can actually
//! run the workers concurrently: when the host exposes fewer hardware
//! threads than the benchmark requests, the gate is recorded as
//! skipped (the parity check still runs).

use sag_core::model::Scenario;
use sag_core::sag::{run_sag_with, SagPipelineConfig, SagReport};
use sag_core::samc::{samc_with_budget_threads, SamcConfig};
use sag_core::zone::zone_partition;
use sag_lp::Budget;

use crate::{cluster_probe, grid_centres, hardware_threads, interleave, wall, Artefact, Gate};

const CLUSTERS: usize = 8;
const SUBS_PER_CLUSTER: usize = 9;
/// Workers in the parallel arm.
const THREADS: usize = 4;
/// Solves per timing sample.
const INNER_ITERS: u32 = 4;
/// Interleaved sequential/parallel measurement rounds.
const ROUNDS: usize = 15;
const MIN_SPEEDUP: f64 = 2.0;

/// Eight tight clusters on a 3×3 grid with the centre left empty,
/// spread across an 800 m field (intra-cluster `d_eff ≤ 5`,
/// inter-cluster `d_eff ≥ 200`), so Zone Partition yields eight
/// equal-weight zones — the shape the zone-parallel engine exists for.
pub(crate) fn probe() -> Scenario {
    let mut centres = grid_centres(&[-300.0, 0.0, 300.0]);
    centres.retain(|&c| c != (0.0, 0.0));
    cluster_probe(800.0, &centres, SUBS_PER_CLUSTER, 20.0, 350.0)
}

fn solve_pipeline(scenario: &Scenario, threads: usize) -> SagReport {
    run_sag_with(
        scenario,
        SagPipelineConfig {
            threads,
            collect_metrics: false,
            ..Default::default()
        },
    )
    .expect("probe scenario is solvable")
}

/// Everything in a report that must be identical across thread counts.
fn fingerprint(report: &SagReport) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        report.coverage,
        report.lower_power,
        report.plan,
        report.upper_power,
        report.solver(),
    )
}

pub(crate) fn run() -> Artefact {
    let scenario = probe();
    let zones = zone_partition(&scenario).len();
    assert_eq!(
        zones, CLUSTERS,
        "probe must partition into exactly one zone per cluster"
    );

    // Determinism gate before any timing: the parallel engine must
    // reproduce the sequential deployment bit for bit.
    assert_eq!(
        fingerprint(&solve_pipeline(&scenario, 1)),
        fingerprint(&solve_pipeline(&scenario, THREADS)),
        "threads=1 and threads={THREADS} deployments diverged on the probe"
    );

    let budget = Budget::unlimited();
    let lower_tier = |threads| {
        samc_with_budget_threads(&scenario, SamcConfig::default(), &budget, threads)
            .expect("probe is coverable")
    };
    let lower = interleave(
        ROUNDS,
        INNER_ITERS,
        &mut [
            &mut wall(|| lower_tier(1)),
            &mut wall(|| lower_tier(THREADS)),
        ],
    );
    let pipeline = interleave(
        ROUNDS,
        INNER_ITERS,
        &mut [
            &mut wall(|| solve_pipeline(&scenario, 1)),
            &mut wall(|| solve_pipeline(&scenario, THREADS)),
        ],
    );

    // With fewer hardware threads than workers the wall-clock speedup
    // is capped by the hardware, not the engine (at 1 core it cannot
    // exceed 1.0); the gate needs real concurrency to mean anything.
    let hardware_threads = hardware_threads();
    let speedup = lower[1].speedup;
    Artefact::new("zone_parallel")
        .field("subscribers", CLUSTERS * SUBS_PER_CLUSTER)
        .field("zones", zones)
        .field("threads", THREADS)
        .field("lower_tier_sequential_min_ns", lower[0].min_ns)
        .field("lower_tier_parallel_min_ns", lower[1].min_ns)
        .field("lower_tier_speedup_median", format!("{speedup:.4}"))
        .field(
            "pipeline_speedup_median",
            format!("{:.4}", pipeline[1].speedup),
        )
        .gate(
            Gate::at_least("lower_tier_speedup_median", speedup, MIN_SPEEDUP)
                .skip_unless(hardware_threads >= THREADS, || {
                    format!("{hardware_threads} hardware thread(s) for {THREADS} workers")
                }),
        )
}
