//! Extension experiment (not in the paper): old-vs-new SNR engines.
//!
//! PR 3 moved every SNR consumer from scratch recomputation onto the
//! incremental [`sag_radio::InterferenceLedger`]. This sweep measures
//! both engines on the same workload — a relay-move probe loop, the
//! access pattern of SAMC's sliding stage — across subscriber counts,
//! and reports wall-clock per sweep plus the resulting speedup. The
//! brute column scales as `O(probes · S · R)`, the ledger column as
//! `O(probes · S)`, so the ratio widens with relay density.

use std::time::Instant;

use sag_core::coverage::{interference_ledger, snr_violations_brute, snr_violations_ledger};
use sag_core::model::Scenario;
use sag_geom::Point;

use crate::gen::ScenarioSpec;
use crate::runner::{sweep_multi, SweepConfig};
use crate::table::Table;

const PROBES: usize = 16;

/// Relay layout + nearest assignment + deterministic move probes for a
/// scenario (mirrors `bench snr`, scaled down for the sweep).
struct ProbeWorkload {
    relays: Vec<Point>,
    assignment: Vec<usize>,
    /// `(relay, dx, dy)` displacement probes, applied then undone.
    probes: Vec<(usize, f64, f64)>,
}

fn probe_workload(sc: &Scenario) -> ProbeWorkload {
    let relays: Vec<Point> = sc
        .subscribers
        .iter()
        .step_by(2)
        .map(|s| Point::new(s.position.x + 6.0, s.position.y + 4.5))
        .collect();
    let assignment: Vec<usize> = sc
        .subscribers
        .iter()
        .map(|s| {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (r, p) in relays.iter().enumerate() {
                let d = s.position.distance(*p);
                if d < best_d {
                    best_d = d;
                    best = r;
                }
            }
            best
        })
        .collect();
    let probes: Vec<(usize, f64, f64)> = (0..PROBES)
        .map(|k| {
            let r = (k * 7) % relays.len();
            let angle = k as f64 * 0.61;
            (r, 15.0 * angle.cos(), 15.0 * angle.sin())
        })
        .collect();
    ProbeWorkload {
        relays,
        assignment,
        probes,
    }
}

/// Milliseconds for one probe sweep via scratch recomputation.
fn brute_ms(
    sc: &Scenario,
    relays: &[Point],
    assignment: &[usize],
    probes: &[(usize, f64, f64)],
) -> f64 {
    let mut relays = relays.to_vec();
    let start = Instant::now();
    let mut total = 0usize;
    for &(r, dx, dy) in probes {
        let orig = relays[r];
        relays[r] = Point::new(orig.x + dx, orig.y + dy);
        total += snr_violations_brute(sc, &relays, assignment).len();
        relays[r] = orig;
    }
    std::hint::black_box(total);
    start.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds for the same sweep as incremental ledger deltas.
fn ledger_ms(
    sc: &Scenario,
    relays: &[Point],
    assignment: &[usize],
    probes: &[(usize, f64, f64)],
) -> f64 {
    let mut ledger = interference_ledger(sc, relays);
    let start = Instant::now();
    let mut total = 0usize;
    for &(r, dx, dy) in probes {
        let orig = ledger.position(r);
        ledger.move_relay(r, Point::new(orig.x + dx, orig.y + dy));
        total += snr_violations_ledger(sc, &ledger, assignment).len();
        ledger.move_relay(r, orig);
    }
    std::hint::black_box(total);
    start.elapsed().as_secs_f64() * 1e3
}

/// Sweeps the probe workload over subscriber counts on the 800-field and
/// reports brute ms, ledger ms, and their ratio.
pub fn ledger(config: SweepConfig) -> Table {
    let sizes: Vec<f64> = vec![25.0, 50.0, 100.0];
    let series = sweep_multi(&sizes, 3, config, |size, seed| {
        let sc = ScenarioSpec {
            field_size: 800.0,
            n_subscribers: size as usize,
            snr_db: -15.0,
            ..Default::default()
        }
        .build(seed);
        let w = probe_workload(&sc);
        let b = brute_ms(&sc, &w.relays, &w.assignment, &w.probes);
        let l = ledger_ms(&sc, &w.relays, &w.assignment, &w.probes);
        vec![Some(b), Some(l), Some(b / l.max(1e-9))]
    });
    let mut t = Table::new(
        "Extension: SNR engine, brute vs incremental ledger — 800x800, move probes",
        "n_subscribers",
        sizes,
    );
    let mut it = series.into_iter();
    t.push_series("brute_ms", it.next().expect("3 series"));
    t.push_series("ledger_ms", it.next().expect("3 series"));
    t.push_series("speedup", it.next().expect("3 series"));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_and_ledger_is_not_slower_at_scale() {
        let cfg = SweepConfig {
            runs: 2,
            base_seed: 23,
            threads: 2,
        };
        let t = ledger(cfg);
        assert_eq!(t.series.len(), 3);
        // Every cell measured (no failed runs).
        for s in &t.series {
            for c in &s.cells {
                assert!(c.mean.is_some(), "{} has an empty cell", s.name);
            }
        }
        // At 100 subscribers the ledger must win clearly. Wall-clock
        // under test-mode contention is noisy, so the gate here is a
        // loose sanity floor — the release-mode CI gate (`bench snr`)
        // enforces the real 5x bar.
        let last = t.xs.len() - 1;
        let speedup = t.series[2].cells[last].mean.expect("measured");
        assert!(speedup > 1.0, "ledger slower than brute: {speedup:.2}x");
    }

    #[test]
    fn both_engines_count_the_same_violations() {
        let sc = ScenarioSpec {
            field_size: 500.0,
            n_subscribers: 24,
            snr_db: -15.0,
            ..Default::default()
        }
        .build(9);
        let ProbeWorkload {
            mut relays,
            assignment,
            probes,
        } = probe_workload(&sc);
        let mut ledger = interference_ledger(&sc, &relays);
        for &(r, dx, dy) in &probes {
            let orig = relays[r];
            relays[r] = Point::new(orig.x + dx, orig.y + dy);
            ledger.move_relay(r, relays[r]);
            assert_eq!(
                snr_violations_brute(&sc, &relays, &assignment),
                snr_violations_ledger(&sc, &ledger, &assignment),
                "violation sets diverge at probe r={r}"
            );
            relays[r] = orig;
            ledger.move_relay(r, orig);
        }
    }
}
