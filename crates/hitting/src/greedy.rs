//! Greedy set cover with demands (ln n approximation): the workspace's
//! one greedy cover, shared by SAMC Step 4, the lower-tier fallback,
//! the local-search start, sleep scheduling and k-coverage.

use crate::instance::{CoverError, CoverInstance, DiskInstance};
use sag_geom::Point;

/// Greedy hitting set: the disk-family form of [`greedy_cover`] with
/// demand 1 per disk.
///
/// Always returns a valid hitting set (every disk contains its own centre,
/// which is among the candidates).
///
/// # Example
/// ```
/// use sag_geom::{Circle, Point};
/// use sag_hitting::{greedy::greedy_hitting_set, DiskInstance};
/// let inst = DiskInstance::new(vec![Circle::new(Point::ORIGIN, 1.0)]);
/// assert_eq!(greedy_hitting_set(&inst).len(), 1);
/// ```
pub fn greedy_hitting_set(inst: &DiskInstance) -> Vec<Point> {
    inst.points_of(&greedy_hitting_set_indices(inst))
}

/// As [`greedy_hitting_set`] but returns candidate indices.
pub(crate) fn greedy_hitting_set_indices(inst: &DiskInstance) -> Vec<usize> {
    greedy_cover(inst.cover(), &vec![1; inst.len()])
        .expect("every disk centre is a candidate, so progress is always possible")
}

/// Greedy set multicover: element `e` must be covered by `demand[e]`
/// distinct candidates. Each round takes the unused candidate covering
/// the most elements with unmet demand; ties go to the lowest candidate
/// index. Returns the chosen candidate indices in pick order.
///
/// # Errors
/// [`CoverError::Stalled`] when no unused candidate covers an element
/// whose demand is still unmet.
///
/// # Panics
/// Panics if `demand.len()` differs from the instance's element count.
pub fn greedy_cover(inst: &CoverInstance, demand: &[usize]) -> Result<Vec<usize>, CoverError> {
    let _span = sag_obs::span("hitting_set");
    greedy(inst, demand)
}

/// [`greedy_cover`] without the span, for callers that already hold one.
pub(crate) fn greedy(inst: &CoverInstance, demand: &[usize]) -> Result<Vec<usize>, CoverError> {
    assert_eq!(demand.len(), inst.n_elements(), "one demand per element");
    let mut residual = demand.to_vec();
    let mut unmet = residual.iter().filter(|&&d| d > 0).count();
    // gain[c] = elements candidate c covers whose demand is still unmet.
    let mut gain: Vec<usize> = (0..inst.n_candidates())
        .map(|c| inst.covers(c).iter().filter(|&&e| residual[e] > 0).count())
        .collect();
    let mut taken = vec![false; inst.n_candidates()];
    let mut chosen = Vec::new();
    while unmet > 0 {
        let mut best: Option<usize> = None;
        for c in 0..gain.len() {
            if !taken[c] && gain[c] > 0 && best.is_none_or(|b| gain[c] > gain[b]) {
                best = Some(c);
            }
        }
        let Some(c) = best else {
            let element = residual.iter().position(|&d| d > 0).unwrap_or_default();
            return Err(CoverError::Stalled { element });
        };
        taken[c] = true;
        chosen.push(c);
        for &e in inst.covers(c) {
            if residual[e] == 0 {
                continue;
            }
            residual[e] -= 1;
            if residual[e] == 0 {
                unmet -= 1;
                for &o in inst.eligible(e) {
                    gain[o] -= 1;
                }
            }
        }
    }
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_geom::Circle;
    use sag_testkit::prelude::*;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    fn single_disk_single_point() {
        let inst = DiskInstance::new(vec![c(3.0, 4.0, 1.0)]);
        let hs = greedy_hitting_set(&inst);
        assert_eq!(hs.len(), 1);
        assert!(inst.is_hitting_set(&hs));
    }

    #[test]
    fn overlapping_cluster_one_point() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(1.0, 0.0, 2.0), c(0.5, 0.5, 2.0)]);
        let hs = greedy_hitting_set(&inst);
        assert_eq!(hs.len(), 1);
        assert!(inst.is_hitting_set(&hs));
    }

    #[test]
    fn two_separated_clusters() {
        let inst = DiskInstance::new(vec![
            c(0.0, 0.0, 2.0),
            c(1.0, 0.0, 2.0),
            c(100.0, 0.0, 2.0),
            c(101.0, 0.0, 2.0),
        ]);
        let hs = greedy_hitting_set(&inst);
        assert_eq!(hs.len(), 2);
        assert!(inst.is_hitting_set(&hs));
    }

    #[test]
    fn disjoint_disks_need_one_each() {
        let disks: Vec<Circle> = (0..5).map(|i| c(i as f64 * 10.0, 0.0, 1.0)).collect();
        let inst = DiskInstance::new(disks);
        let hs = greedy_hitting_set(&inst);
        assert_eq!(hs.len(), 5);
    }

    #[test]
    fn deterministic() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(3.0, 0.0, 2.0), c(6.0, 0.0, 2.0)]);
        let a = greedy_hitting_set_indices(&inst);
        let b = greedy_hitting_set_indices(&inst);
        assert_eq!(a, b);
    }

    #[test]
    fn ties_go_to_the_lowest_candidate_index() {
        // Both candidates cover the one element: the lower index wins.
        let disk = c(0.0, 0.0, 5.0);
        let inst = CoverInstance::new(&[disk], &[Point::new(1.0, 0.0), Point::new(-1.0, 0.0)]);
        assert_eq!(greedy_cover(&inst, &[1]), Ok(vec![0]));
    }

    #[test]
    fn demand_beyond_the_candidates_stalls() {
        let inst = CoverInstance::new(&[c(0.0, 0.0, 5.0), c(50.0, 0.0, 5.0)], &[Point::ORIGIN]);
        assert_eq!(
            greedy_cover(&inst, &[1, 1]),
            Err(CoverError::Stalled { element: 1 })
        );
        assert_eq!(
            greedy_cover(&inst, &[2, 0]),
            Err(CoverError::Stalled { element: 0 })
        );
        assert_eq!(greedy_cover(&inst, &[0, 0]), Ok(Vec::new()));
    }

    prop! {
        fn prop_always_valid(seed in 0u64..400, n in 1usize..25) {
            let mut rng = Rng::seed_from_u64(seed);
            let disks: Vec<Circle> = (0..n)
                .map(|_| c(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0),
                           rng.gen_range(5.0..30.0)))
                .collect();
            let inst = DiskInstance::new(disks);
            let hs = greedy_hitting_set(&inst);
            prop_assert!(inst.is_hitting_set(&hs));
            prop_assert!(hs.len() <= n);
        }
    }
}
