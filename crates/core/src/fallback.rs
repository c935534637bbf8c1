//! The lower tier's cover substrate and its greedy rung.
//!
//! Every candidate-set backend in [`crate::solver`] builds the same
//! [`CoverInstance`] with [`eligibility`] (subscribers' feasible circles
//! over the candidates) and solves it with the `sag-hitting` stack —
//! the one greedy cover and the one Mustafa–Ray local search the
//! workspace has; SAMC Step 4, sleep scheduling and k-coverage run the
//! same functions. This module adds the SNR-aware finishing shared by
//! every backend: the nearest-eligible assignment ([`nearest_assignment`],
//! also used by the exact ILPQC search and the sleep scheduler) and a
//! bounded repair loop that inserts closer eligible candidates for
//! violated subscribers — the same repair move the exact search
//! branches on, applied greedily ([`repair_and_prune`]).
//!
//! [`greedy_cover`] is the ladder's last rung: when the exact
//! [`crate::ilpqc`] search exhausts its [`sag_lp::Budget`] before finding
//! any incumbent, the pipeline degrades to the greedy cover plus repair
//! instead of failing. The result is feasible whenever the repair loop
//! converges, but carries no optimality certificate;
//! [`crate::sag::SagReport::solver`] records which backend answered so
//! downstream consumers can tell the difference.

use sag_geom::Point;
use sag_hitting::{greedy, CoverInstance};

use crate::coverage::{snr_violations, CoverageSolution};
use crate::error::{SagError, SagResult};
use crate::model::Scenario;

/// The cover instance of `scenario` over `candidates`: elements are the
/// subscribers' feasible circles, so `eligible(j)` lists the candidates
/// (ascending) within subscriber `j`'s feasible distance. The shared
/// first step of every candidate-set backend, so they cannot disagree
/// on coverage.
///
/// # Errors
/// [`SagError::Infeasible`] when some subscriber has no eligible
/// candidate at all; `stage` names the solver for the error payload.
pub(crate) fn eligibility(
    scenario: &Scenario,
    candidates: &[Point],
    stage: &str,
) -> SagResult<CoverInstance> {
    let cover = CoverInstance::new(&scenario.feasible_circles(), candidates);
    if (0..cover.n_elements()).any(|j| cover.eligible(j).is_empty()) {
        return Err(SagError::Infeasible(format!(
            "{stage}: a subscriber has no candidate within distance"
        )));
    }
    Ok(cover)
}

/// SNR repair + prune over a distance-complete selection (sorted
/// candidate indices): while some subscriber is violated, add the
/// closest not-yet-selected eligible candidate strictly closer than its
/// current server — the same repair move the exact search branches on,
/// applied greedily — then drop selected candidates that serve nobody.
/// Bounded by the candidate pool size.
///
/// # Errors
/// [`SagError::Infeasible`] when the repair loop exhausts the candidate
/// pool without clearing every SNR violation, or the selection does not
/// cover every subscriber.
pub(crate) fn repair_and_prune(
    scenario: &Scenario,
    candidates: &[Point],
    cover: &CoverInstance,
    mut selected: Vec<usize>,
    stage: &str,
) -> SagResult<CoverageSolution> {
    loop {
        let assignment =
            nearest_assignment(scenario, candidates, cover, &selected).ok_or_else(|| {
                SagError::Infeasible(format!(
                    "{stage}: selection does not cover every subscriber"
                ))
            })?;
        let relays: Vec<Point> = selected.iter().map(|&c| candidates[c]).collect();
        let violated = snr_violations(scenario, &relays, &assignment);
        let Some(&j) = violated.first() else {
            return Ok(prune_unused(candidates, &selected, assignment));
        };
        let spos = scenario.subscribers[j].position;
        let cur_d = candidates[selected[assignment[j]]].distance(spos);
        let repair = cover
            .eligible(j)
            .iter()
            .copied()
            .filter(|&c| {
                selected.binary_search(&c).is_err() && candidates[c].distance(spos) < cur_d - 1e-9
            })
            .min_by(|&a, &b| {
                sag_geom::float::total_cmp(
                    &candidates[a].distance(spos),
                    &candidates[b].distance(spos),
                )
            });
        let Some(c) = repair else {
            return Err(SagError::Infeasible(format!(
                "{stage}: SNR repair exhausted the candidate pool"
            )));
        };
        let pos = match selected.binary_search(&c) {
            Ok(p) | Err(p) => p,
        };
        selected.insert(pos, c);
    }
}

/// Greedy set cover + SNR repair over `candidates`.
///
/// Performs no LP solves, so it terminates quickly even when the budget
/// that stopped the exact solver has already expired — it is the last
/// rung of the degradation ladder and deliberately ignores deadlines.
///
/// Under the zone-parallel lower tier ([`crate::engine`]) this runs
/// once per *zone* that exhausted its share of the budget, over that
/// zone's candidates — zones where the exact search finished keep
/// their optimal answer.
///
/// # Errors
/// [`SagError::Infeasible`] when some subscriber has no eligible
/// candidate, or the repair loop exhausts the candidate pool without
/// clearing every SNR violation.
pub fn greedy_cover(scenario: &Scenario, candidates: &[Point]) -> SagResult<CoverageSolution> {
    let _stage = sag_obs::span("greedy_fallback");
    let cover = eligibility(scenario, candidates, "fallback")?;
    let mut selected =
        greedy::greedy_cover(&cover, &vec![1; cover.n_elements()]).map_err(|_| {
            SagError::Infeasible(
                "fallback: greedy cover stalled before covering every subscriber".into(),
            )
        })?;
    selected.sort_unstable();
    repair_and_prune(scenario, candidates, &cover, selected, "fallback")
}

/// Nearest-eligible assignment: for each subscriber (element of
/// `cover`), the position in `selected` (sorted candidate indices) of
/// its closest selected eligible candidate; `None` when some subscriber
/// has no selected eligible candidate. With all relays at `Pmax` this is
/// the SNR-optimal assignment, because the total received power is
/// assignment-independent.
pub(crate) fn nearest_assignment(
    scenario: &Scenario,
    candidates: &[Point],
    cover: &CoverInstance,
    selected: &[usize],
) -> Option<Vec<usize>> {
    let mut out = Vec::with_capacity(cover.n_elements());
    for j in 0..cover.n_elements() {
        let spos = scenario.subscribers[j].position;
        let best = cover
            .eligible(j)
            .iter()
            .filter_map(|c| selected.binary_search(c).ok())
            .min_by(|&a, &b| {
                sag_geom::float::total_cmp(
                    &candidates[selected[a]].distance(spos),
                    &candidates[selected[b]].distance(spos),
                )
            })?;
        out.push(best);
    }
    Some(out)
}

/// Drops selected candidates that serve nobody and remaps the
/// assignment onto the compacted relay list.
fn prune_unused(
    candidates: &[Point],
    selected: &[usize],
    assignment: Vec<usize>,
) -> CoverageSolution {
    let mut used = vec![false; selected.len()];
    for &a in &assignment {
        used[a] = true;
    }
    // SNR repair may have left earlier, farther servers idle; keeping
    // them would only add interference. Pruning can only improve SNR.
    let mut remap = vec![usize::MAX; selected.len()];
    let mut relays = Vec::new();
    for (i, &c) in selected.iter().enumerate() {
        if used[i] {
            remap[i] = relays.len();
            relays.push(candidates[c]);
        }
    }
    let assignment = assignment.into_iter().map(|a| remap[a]).collect();
    CoverageSolution { relays, assignment }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::iac_candidates;
    use crate::coverage::is_feasible;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use sag_geom::Rect;
    use sag_radio::{units::Db, LinkBudget};

    fn scenario(subs: Vec<(f64, f64, f64)>, beta_db: f64) -> Scenario {
        Scenario::new(
            Rect::centered_square(500.0),
            subs.into_iter()
                .map(|(x, y, d)| Subscriber::new(Point::new(x, y), d))
                .collect(),
            vec![BaseStation::new(Point::new(200.0, 200.0))],
            NetworkParams::new(
                LinkBudget::builder()
                    .snr_threshold(Db::new(beta_db))
                    .build(),
                1e-9,
            ),
        )
        .unwrap()
    }

    #[test]
    fn covers_single_subscriber() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let sol = greedy_cover(&sc, &[Point::new(10.0, 0.0)]).unwrap();
        assert_eq!(sol.n_relays(), 1);
        assert!(is_feasible(&sc, &sol));
    }

    #[test]
    fn prefers_shared_candidate() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (40.0, 0.0, 30.0)], -15.0);
        let cands = vec![
            Point::new(20.0, 0.0), // covers both
            Point::new(0.0, 0.0),
            Point::new(40.0, 0.0),
        ];
        let sol = greedy_cover(&sc, &cands).unwrap();
        assert_eq!(sol.n_relays(), 1);
        assert!(sol.relays[0].approx_eq(Point::new(20.0, 0.0)));
    }

    #[test]
    fn greedy_ties_go_to_the_lowest_candidate_index() {
        // One subscriber, two equally useful candidates: the lower
        // index wins.
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let cands = [Point::new(10.0, 0.0), Point::new(-10.0, 0.0)];
        let sol = greedy_cover(&sc, &cands).unwrap();
        assert_eq!(sol.relays, vec![cands[0]]);
    }

    #[test]
    fn infeasible_when_no_candidate_in_range() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        assert!(matches!(
            greedy_cover(&sc, &[Point::new(100.0, 0.0)]),
            Err(SagError::Infeasible(_))
        ));
        assert!(matches!(
            greedy_cover(&sc, &[]),
            Err(SagError::Infeasible(_))
        ));
    }

    #[test]
    fn iac_candidates_feasible_end_to_end() {
        let sc = scenario(
            vec![
                (0.0, 0.0, 35.0),
                (40.0, 0.0, 35.0),
                (150.0, 10.0, 30.0),
                (180.0, -10.0, 30.0),
            ],
            -15.0,
        );
        let cands = iac_candidates(&sc);
        let sol = greedy_cover(&sc, &cands).unwrap();
        assert!(is_feasible(&sc, &sol));
    }

    #[test]
    fn snr_repair_produces_feasible_cover_under_strict_beta() {
        let sc = scenario(vec![(0.0, 0.0, 32.0), (60.0, 0.0, 32.0)], 5.0);
        let cands = vec![
            Point::new(5.0, 0.0),
            Point::new(55.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(60.0, 0.0),
            Point::new(30.0, 0.0),
        ];
        let sol = greedy_cover(&sc, &cands).unwrap();
        assert!(is_feasible(&sc, &sol));
    }

    #[test]
    fn eligibility_stage_names_the_caller() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        match eligibility(&sc, &[Point::new(500.0, 0.0)], "lp_round") {
            Err(SagError::Infeasible(msg)) => assert!(msg.starts_with("lp_round:")),
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }
}
