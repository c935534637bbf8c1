//! Relay sleep scheduling under time-varying demand.
//!
//! **Extension beyond the paper.** The paper minimises transmit power for
//! an always-on subscriber population; the natural next step for a
//! *green* deployment is to exploit demand variation: in a time slot
//! where some subscribers are idle, their relays can sleep — and awake
//! relays can absorb the remaining active subscribers when distance and
//! SNR allow, letting even more relays sleep.
//!
//! [`schedule_slot`] computes, for one slot's active set, a minimal-ish
//! awake relay subset (the shared `sag-hitting` greedy cover over the
//! *already placed* relays — no repositioning at runtime) with a
//! feasible reassignment, and
//! [`energy_over_horizon`] integrates PRO-style powers over a slot
//! sequence.

use sag_geom::{Circle, Point};
use sag_hitting::{greedy::greedy_cover, CoverInstance};

use crate::coverage::{snr_violations, CoverageSolution};
use crate::error::{SagError, SagResult};
use crate::fallback::nearest_assignment;
use crate::model::Scenario;
use crate::pro::{pro, PowerAllocation};

/// One slot's awake set and per-subscriber assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotPlan {
    /// Indices (into the placement's relay list) of relays kept awake.
    pub awake: Vec<usize>,
    /// For each *active* subscriber (in the order given to
    /// [`schedule_slot`]), the serving relay index.
    pub assignment: Vec<usize>,
    /// Total transmit power of the awake relays for this slot.
    pub power: f64,
}

/// Computes a sleep schedule for one slot.
///
/// `active` lists the subscriber indices with traffic this slot. Sleeping
/// relays transmit nothing (and so add no interference); the awake set is
/// chosen greedily (fewest relays covering all active subscribers by
/// distance), then verified against the SNR threshold and powered by PRO
/// on the reduced sub-problem.
///
/// # Errors
/// [`SagError::Infeasible`] when no awake subset of the placed relays can
/// serve the active set (cannot happen if `active` ⊆ the placement's
/// subscribers and the placement was feasible — the full awake set always
/// works — so this signals an inconsistent input).
///
/// # Panics
/// Panics if `active` contains an out-of-range subscriber index.
pub fn schedule_slot(
    scenario: &Scenario,
    placement: &CoverageSolution,
    active: &[usize],
) -> SagResult<SlotPlan> {
    for &j in active {
        assert!(
            j < scenario.n_subscribers(),
            "active subscriber {j} out of range"
        );
    }
    if active.is_empty() {
        return Ok(SlotPlan {
            awake: Vec::new(),
            assignment: Vec::new(),
            power: 0.0,
        });
    }

    // Greedy cover of the active set by placed relays (distance only),
    // then fall back to waking more relays while SNR fails.
    let circles: Vec<Circle> = active
        .iter()
        .map(|&j| scenario.subscribers[j].feasible_circle())
        .collect();
    let cover = CoverInstance::new(&circles, &placement.relays);
    if (0..cover.n_elements()).any(|i| cover.eligible(i).is_empty()) {
        return Err(SagError::Infeasible(
            "sleep: an active subscriber is out of range of every placed relay".into(),
        ));
    }

    // Candidate awake sets in increasing size: greedy cover first, then
    // progressively add the original servers until feasible.
    let mut awake = greedy_cover(&cover, &vec![1; active.len()]).map_err(|_| {
        SagError::Infeasible("sleep: greedy cover stalled on the placed relays".into())
    })?;
    awake.sort_unstable();
    loop {
        match try_slot(scenario, placement, active, &cover, &awake) {
            Some(plan) => return Ok(plan),
            None => {
                // Wake the paper-assigned server of the worst subscriber
                // still violated; terminates because the full original
                // awake set reproduces the feasible placement.
                let mut grew = false;
                for &j in active {
                    let orig = placement.assignment[j];
                    if !awake.contains(&orig) {
                        awake.push(orig);
                        awake.sort_unstable();
                        grew = true;
                        break;
                    }
                }
                if !grew {
                    return Err(SagError::Infeasible(
                        "sleep: even the full original awake set fails (inconsistent input)".into(),
                    ));
                }
            }
        }
    }
}

/// Attempts one awake set: nearest-awake assignment, SNR check on the
/// reduced network, PRO powers. Returns `None` when SNR fails.
fn try_slot(
    scenario: &Scenario,
    placement: &CoverageSolution,
    active: &[usize],
    cover: &CoverInstance,
    awake: &[usize],
) -> Option<SlotPlan> {
    // Build the reduced scenario: only active subscribers; only awake
    // relays transmit.
    let sub_scenario = Scenario {
        field: scenario.field,
        subscribers: active.iter().map(|&j| scenario.subscribers[j]).collect(),
        base_stations: scenario.base_stations.clone(),
        params: scenario.params,
    };
    let awake_pos: Vec<Point> = awake.iter().map(|&r| placement.relays[r]).collect();
    let assignment = nearest_assignment(&sub_scenario, &placement.relays, cover, awake)?;
    if !snr_violations(&sub_scenario, &awake_pos, &assignment).is_empty() {
        return None;
    }
    let reduced = CoverageSolution {
        relays: awake_pos,
        assignment: assignment.clone(),
    };
    let powers: PowerAllocation = pro(&sub_scenario, &reduced);
    Some(SlotPlan {
        awake: awake.to_vec(),
        assignment,
        power: powers.total(),
    })
}

/// Integrates slot powers over a horizon of active sets; returns
/// `(per-slot plans, total energy)` with one energy unit = power × slot.
///
/// # Errors
/// Propagates the first infeasible slot.
pub fn energy_over_horizon(
    scenario: &Scenario,
    placement: &CoverageSolution,
    slots: &[Vec<usize>],
) -> SagResult<(Vec<SlotPlan>, f64)> {
    let mut plans = Vec::with_capacity(slots.len());
    let mut energy = 0.0;
    for active in slots {
        let plan = schedule_slot(scenario, placement, active)?;
        energy += plan.power;
        plans.push(plan);
    }
    Ok((plans, energy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use crate::samc::samc;
    use sag_geom::Rect;

    fn scenario() -> Scenario {
        Scenario::new(
            Rect::centered_square(500.0),
            vec![
                Subscriber::new(Point::new(0.0, 0.0), 35.0),
                Subscriber::new(Point::new(30.0, 5.0), 35.0),
                Subscriber::new(Point::new(180.0, -60.0), 30.0),
                Subscriber::new(Point::new(-160.0, 120.0), 38.0),
            ],
            vec![BaseStation::new(Point::new(220.0, 220.0))],
            NetworkParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn empty_slot_sleeps_everything() {
        let sc = scenario();
        let placement = samc(&sc).unwrap();
        let plan = schedule_slot(&sc, &placement, &[]).unwrap();
        assert!(plan.awake.is_empty());
        assert_eq!(plan.power, 0.0);
    }

    #[test]
    fn full_slot_keeps_service() {
        let sc = scenario();
        let placement = samc(&sc).unwrap();
        let all: Vec<usize> = (0..sc.n_subscribers()).collect();
        let plan = schedule_slot(&sc, &placement, &all).unwrap();
        assert!(!plan.awake.is_empty());
        assert_eq!(plan.assignment.len(), all.len());
        // Every active subscriber served within distance.
        for (i, &j) in all.iter().enumerate() {
            let r = plan.awake[plan.assignment[i]];
            let d = placement.relays[r].distance(sc.subscribers[j].position);
            assert!(d <= sc.subscribers[j].distance_req + 1e-9);
        }
    }

    #[test]
    fn partial_slot_sleeps_unneeded_relays() {
        let sc = scenario();
        let placement = samc(&sc).unwrap();
        // Only the far-flung subscriber 2 is active: a single relay
        // suffices, everything else sleeps.
        let plan = schedule_slot(&sc, &placement, &[2]).unwrap();
        assert_eq!(plan.awake.len(), 1);
        assert!(plan.power <= sc.params.link.pmax());
    }

    #[test]
    fn slot_power_never_exceeds_full_pro_power() {
        let sc = scenario();
        let placement = samc(&sc).unwrap();
        let full = pro(&sc, &placement).total();
        let all: Vec<usize> = (0..sc.n_subscribers()).collect();
        let plan = schedule_slot(&sc, &placement, &all).unwrap();
        // Serving everyone with possibly fewer relays can shift power
        // around, but sleeping none of them reproduces PRO exactly —
        // the scheduler must never do worse than a small factor of it.
        assert!(
            plan.power <= full * 1.5 + 1e-9,
            "slot {} vs PRO {full}",
            plan.power
        );
    }

    #[test]
    fn horizon_energy_tracks_activity() {
        let sc = scenario();
        let placement = samc(&sc).unwrap();
        let busy: Vec<usize> = (0..sc.n_subscribers()).collect();
        let quiet: Vec<usize> = vec![0];
        let (plans, energy) =
            energy_over_horizon(&sc, &placement, &[busy.clone(), quiet.clone(), vec![]]).unwrap();
        assert_eq!(plans.len(), 3);
        assert!(plans[0].power >= plans[1].power);
        assert_eq!(plans[2].power, 0.0);
        assert!((energy - (plans[0].power + plans[1].power)).abs() < 1e-12);
    }

    #[test]
    fn greedy_wake_ties_go_to_the_lowest_relay_index() {
        // Two placed relays serve the one active subscriber equally
        // well: the lower index stays awake.
        let sc = scenario();
        let placement = CoverageSolution {
            relays: vec![Point::new(10.0, 0.0), Point::new(-10.0, 0.0)],
            assignment: vec![0, 0, 0, 0],
        };
        let plan = schedule_slot(&sc, &placement, &[0]).unwrap();
        assert_eq!(plan.awake, vec![0]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_active_panics() {
        let sc = scenario();
        let placement = samc(&sc).unwrap();
        let _ = schedule_slot(&sc, &placement, &[99]);
    }
}
