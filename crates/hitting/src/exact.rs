//! Exact minimum hitting set by branch and bound.
//!
//! Branches on the not-yet-hit disk with the fewest hitting candidates
//! (fail-first); prunes with the greedy incumbent and a simple
//! disjoint-disk lower bound. Practical up to a few dozen disks, which
//! covers every zone size the paper's scenarios produce.

use crate::greedy::greedy_hitting_set_indices;
use crate::instance::DiskInstance;
use sag_geom::Point;

/// Exact minimum hitting set (points).
///
/// # Example
/// ```
/// use sag_geom::{Circle, Point};
/// use sag_hitting::{exact::exact_hitting_set, DiskInstance};
/// let inst = DiskInstance::new(vec![
///     Circle::new(Point::new(0.0, 0.0), 2.0),
///     Circle::new(Point::new(1.0, 0.0), 2.0),
/// ]);
/// assert_eq!(exact_hitting_set(&inst).len(), 1);
/// ```
pub fn exact_hitting_set(inst: &DiskInstance) -> Vec<Point> {
    exact_hitting_set_indices(inst)
        .into_iter()
        .map(|c| inst.candidates()[c])
        .collect()
}

/// As [`exact_hitting_set`] but returns candidate indices.
pub fn exact_hitting_set_indices(inst: &DiskInstance) -> Vec<usize> {
    let n_disks = inst.len();
    // Candidates worth considering (dominated ones can be dropped safely).
    let cands = inst.non_dominated_candidates();
    // For each disk, the candidates (positions in `cands`) that hit it.
    let mut hitters: Vec<Vec<usize>> = vec![Vec::new(); n_disks];
    for (ci, &c) in cands.iter().enumerate() {
        for &d in inst.cover().covers(c) {
            hitters[d].push(ci);
        }
    }
    debug_assert!(
        hitters.iter().all(|h| !h.is_empty()),
        "every disk's own centre hits it, so hitters cannot be empty"
    );

    // Incumbent from greedy.
    let greedy = greedy_hitting_set_indices(inst);
    let mut best_len = greedy.len();
    let mut best: Vec<usize> = greedy;

    // Lower bound: size of a greedily built family of disks with pairwise
    // disjoint hitter sets.
    let disjoint_lower_bound = |unhit: &[usize], used: usize| -> usize {
        let mut blocked = vec![false; cands.len()];
        let mut lb = 0usize;
        for &d in unhit {
            if hitters[d].iter().all(|&c| !blocked[c]) {
                lb += 1;
                for &c in &hitters[d] {
                    blocked[c] = true;
                }
            }
        }
        used + lb
    };

    #[allow(clippy::too_many_arguments)] // recursion state is explicit on purpose
    fn search(
        hit_count: &mut Vec<u32>,
        chosen: &mut Vec<usize>,
        cands: &[usize],
        hitters: &[Vec<usize>],
        cand_pos_hit: &dyn Fn(usize) -> Vec<usize>,
        best_len: &mut usize,
        best: &mut Vec<usize>,
        lb: &dyn Fn(&[usize], usize) -> usize,
    ) {
        let unhit: Vec<usize> = (0..hit_count.len())
            .filter(|&d| hit_count[d] == 0)
            .collect();
        if unhit.is_empty() {
            if chosen.len() < *best_len {
                *best_len = chosen.len();
                *best = chosen.iter().map(|&ci| cands[ci]).collect();
            }
            return;
        }
        if chosen.len() + 1 >= *best_len {
            return; // even one more point cannot beat the incumbent
        }
        if lb(&unhit, chosen.len()) >= *best_len {
            return;
        }
        // Fail-first: branch on the unhit disk with fewest hitters.
        let &d = unhit
            .iter()
            .min_by_key(|&&d| hitters[d].len())
            .expect("unhit is non-empty");
        for &ci in &hitters[d] {
            chosen.push(ci);
            let touched = cand_pos_hit(ci);
            for &t in &touched {
                hit_count[t] += 1;
            }
            search(
                hit_count,
                chosen,
                cands,
                hitters,
                cand_pos_hit,
                best_len,
                best,
                lb,
            );
            for &t in &touched {
                hit_count[t] -= 1;
            }
            chosen.pop();
        }
    }

    let cand_pos_hit = |ci: usize| -> Vec<usize> { inst.cover().covers(cands[ci]).to_vec() };
    let mut hit_count = vec![0u32; n_disks];
    let mut chosen = Vec::new();
    search(
        &mut hit_count,
        &mut chosen,
        &cands,
        &hitters,
        &cand_pos_hit,
        &mut best_len,
        &mut best,
        &disjoint_lower_bound,
    );
    best
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
    fn cluster_needs_one() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(1.0, 0.0, 2.0), c(0.0, 1.0, 2.0)]);
        let hs = exact_hitting_set(&inst);
        assert_eq!(hs.len(), 1);
        assert!(inst.is_hitting_set(&hs));
    }

    #[test]
    fn chain_structure() {
        // Disks in a chain where consecutive pairs overlap: optimal hits
        // every other "joint": 3 disks r=1 at 0, 1.8, 3.6 — disk pairs
        // (0,1) and (1,2) overlap, triple doesn't: 2 points? Actually the
        // middle disk overlaps both; one point can hit at most 2 disks
        // (no common triple area), so optimum = 2.
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 1.0), c(1.8, 0.0, 1.0), c(3.6, 0.0, 1.0)]);
        let hs = exact_hitting_set(&inst);
        assert_eq!(hs.len(), 2);
        assert!(inst.is_hitting_set(&hs));
    }

    #[test]
    fn exact_beats_or_ties_greedy() {
        // Classic greedy trap: a large "hub" candidate lures greedy while
        // the optimum uses two spread points. Even if greedy matches,
        // exact must not be worse.
        let inst = DiskInstance::new(vec![
            c(0.0, 0.0, 3.0),
            c(4.0, 0.0, 3.0),
            c(8.0, 0.0, 3.0),
            c(12.0, 0.0, 3.0),
        ]);
        let g = crate::greedy::greedy_hitting_set(&inst);
        let e = exact_hitting_set(&inst);
        assert!(e.len() <= g.len());
        assert!(inst.is_hitting_set(&e));
        assert_eq!(e.len(), 2);
    }

    prop! {
        #[cases(40)]
        fn prop_exact_valid_and_minimal_vs_greedy(seed in 0u64..200, n in 1usize..12) {
            let mut rng = Rng::seed_from_u64(seed);
            let disks: Vec<Circle> = (0..n)
                .map(|_| c(rng.gen_range(-40.0..40.0), rng.gen_range(-40.0..40.0),
                           rng.gen_range(4.0..20.0)))
                .collect();
            let inst = DiskInstance::new(disks);
            let e = exact_hitting_set(&inst);
            prop_assert!(inst.is_hitting_set(&e));
            let g = crate::greedy::greedy_hitting_set(&inst);
            prop_assert!(e.len() <= g.len());
        }

        #[ignore] // exhaustive cross-check, slower; run with --ignored
        #[cases(40)]
        fn prop_exact_matches_brute_force(seed in 0u64..50, n in 1usize..7) {
            let mut rng = Rng::seed_from_u64(seed);
            let disks: Vec<Circle> = (0..n)
                .map(|_| c(rng.gen_range(-20.0..20.0), rng.gen_range(-20.0..20.0),
                           rng.gen_range(3.0..15.0)))
                .collect();
            let inst = DiskInstance::new(disks);
            let e = exact_hitting_set_indices(&inst);
            // Brute force over candidate subsets up to |e| − 1: none may hit all.
            let cands = inst.non_dominated_candidates();
            let k = e.len();
            prop_assume!(cands.len() <= 18);
            let mut found_smaller = false;
            let m = cands.len();
            for mask in 0u32..(1 << m) {
                if (mask.count_ones() as usize) < k {
                    let subset: Vec<usize> = (0..m)
                        .filter(|&i| mask & (1 << i) != 0)
                        .map(|i| cands[i])
                        .collect();
                    if inst.cover().is_cover(&subset) {
                        found_smaller = true;
                        break;
                    }
                }
            }
            prop_assert!(!found_smaller, "exact solver missed a smaller hitting set");
        }
    }
}
