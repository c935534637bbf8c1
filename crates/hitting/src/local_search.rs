//! Mustafa–Ray-style local search for geometric hitting set.
//!
//! Mustafa & Ray (SCG'09) proved that `b`-swap local search on hitting
//! sets of pseudo-disks is a PTAS: for swap size `b = O(1/ε²)` the local
//! optimum is within `(1+ε)` of the minimum. The paper's SAMC adopts that
//! PTAS for Step 4. This implementation starts from the greedy solution
//! and applies swaps of size up to `b` (replace `k ≤ b` chosen points by
//! `k − 1` candidates) until no swap improves — the canonical form of the
//! algorithm. It runs on any [`CoverInstance`], so the lower tier's
//! local-search backend uses the same search as SAMC.

use crate::greedy::greedy;
use crate::instance::{CoverError, CoverInstance, DiskInstance};
use sag_geom::Point;

/// Maximum swap size `b` (remove up to `b`, insert up to `b − 1`). The
/// PTAS guarantee improves with `b`; runtime grows as `n^{O(b)}`, and
/// `b = 3` is the practical sweet spot.
const SWAP_SIZE: usize = 3;

/// Cap on improvement rounds (a safety valve: every round strictly
/// shrinks the solution, so the search terminates on its own).
const MAX_ROUNDS: usize = 64;

/// Local-search hitting set over a disk family.
///
/// # Example
/// ```
/// use sag_geom::{Circle, Point};
/// use sag_hitting::{local_search::local_search_hitting_set, DiskInstance};
/// let inst = DiskInstance::new(vec![
///     Circle::new(Point::new(0.0, 0.0), 2.0),
///     Circle::new(Point::new(1.0, 0.0), 2.0),
/// ]);
/// let hs = local_search_hitting_set(&inst);
/// assert!(inst.is_hitting_set(&hs));
/// ```
pub fn local_search_hitting_set(inst: &DiskInstance) -> Vec<Point> {
    let chosen = local_search_cover(inst.cover(), || false)
        .expect("every disk centre is a candidate and nothing interrupts");
    inst.points_of(&chosen)
}

/// Local search over a cover instance (demand 1 per element): the
/// greedy cover, then improving `b`-swaps until none applies.
/// `interrupted` is polled before every improvement round. Returns the
/// chosen candidate indices.
///
/// # Errors
/// [`CoverError::Stalled`] when some element has no candidate;
/// [`CoverError::Interrupted`] when `interrupted` returns `true`.
pub fn local_search_cover(
    inst: &CoverInstance,
    mut interrupted: impl FnMut() -> bool,
) -> Result<Vec<usize>, CoverError> {
    let _span = sag_obs::span("hitting_set");
    let mut current = greedy(inst, &vec![1; inst.n_elements()])?;
    for _ in 0..MAX_ROUNDS {
        if interrupted() {
            return Err(CoverError::Interrupted);
        }
        match improve_once(inst, &current) {
            Some(next) => current = next,
            None => break,
        }
    }
    Ok(current)
}

/// Tries one improving swap: remove `k` chosen points and re-cover the
/// elements they exclusively hit with `k − 1` candidates. Returns the
/// improved solution, or `None` at a local optimum.
fn improve_once(inst: &CoverInstance, current: &[usize]) -> Option<Vec<usize>> {
    let without = |removal: &[usize]| -> Vec<usize> {
        current
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (!removal.contains(&i)).then_some(c))
            .collect()
    };
    // Fast path: try dropping a single redundant point (k = 1 swap).
    for skip in 0..current.len() {
        let rest = without(&[skip]);
        if inst.is_cover(&rest) {
            return Some(rest);
        }
    }
    // k-swaps for k = 2..=b: remove k, add k−1.
    for k in 2..=SWAP_SIZE.min(current.len()) {
        for removal in combinations(current.len(), k) {
            let rest = without(&removal);
            // Elements uncovered after removal.
            let mut hit = vec![false; inst.n_elements()];
            for &c in &rest {
                for &e in inst.covers(c) {
                    hit[e] = true;
                }
            }
            let unhit: Vec<usize> = (0..inst.n_elements()).filter(|&e| !hit[e]).collect();
            if unhit.is_empty() {
                return Some(rest); // removal alone suffices (stronger than a swap)
            }
            // Candidates that help at all.
            let helpful: Vec<usize> = (0..inst.n_candidates())
                .filter(|&c| inst.covers(c).iter().any(|e| unhit.contains(e)))
                .collect();
            if let Some(adds) = cover_with_at_most(inst, &unhit, &helpful, k - 1) {
                let mut next = rest;
                next.extend(adds);
                debug_assert!(inst.is_cover(&next));
                return Some(next);
            }
        }
    }
    None
}

/// Exhaustively searches for ≤ `limit` candidates covering all `unhit`
/// elements (tiny instances: `limit ≤ b − 1 ≤ 2` in practice).
fn cover_with_at_most(
    inst: &CoverInstance,
    unhit: &[usize],
    helpful: &[usize],
    limit: usize,
) -> Option<Vec<usize>> {
    if unhit.is_empty() {
        return Some(Vec::new());
    }
    if limit == 0 {
        return None;
    }
    // Branch on the first unhit element.
    let d = unhit[0];
    for &c in helpful {
        let covers = inst.covers(c);
        if covers.binary_search(&d).is_ok() {
            let rest: Vec<usize> = unhit
                .iter()
                .copied()
                .filter(|u| covers.binary_search(u).is_err())
                .collect();
            if let Some(mut tail) = cover_with_at_most(inst, &rest, helpful, limit - 1) {
                tail.push(c);
                return Some(tail);
            }
        }
    }
    None
}

/// All k-element index combinations of `0..n` (small `k` only).
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    rec(0, n, k, &mut cur, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_hitting_set;
    use crate::greedy::greedy_hitting_set;
    use sag_geom::Circle;
    use sag_testkit::prelude::*;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    fn combinations_counts() {
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(3, 3).len(), 1);
        assert_eq!(combinations(3, 0).len(), 1);
    }

    #[test]
    fn local_search_valid_and_no_worse_than_greedy() {
        let disks: Vec<Circle> = vec![
            c(0.0, 0.0, 3.0),
            c(4.0, 0.0, 3.0),
            c(8.0, 0.0, 3.0),
            c(12.0, 0.0, 3.0),
            c(2.0, 4.0, 3.0),
        ];
        let inst = DiskInstance::new(disks);
        let g = greedy_hitting_set(&inst);
        let l = local_search_hitting_set(&inst);
        assert!(inst.is_hitting_set(&l));
        assert!(l.len() <= g.len());
    }

    #[test]
    fn interrupt_stops_the_search() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 1.0)]);
        assert_eq!(
            local_search_cover(inst.cover(), || true),
            Err(CoverError::Interrupted)
        );
    }

    #[test]
    fn single_disk() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 1.0)]);
        assert_eq!(local_search_hitting_set(&inst).len(), 1);
    }

    #[test]
    fn redundant_point_dropped() {
        // Greedy may pick a point for a cluster then another point that
        // retroactively covers it; the k=1 drop should clean up. Build a
        // case where local search definitely equals the optimum 1.
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 5.0), c(1.0, 0.0, 5.0), c(0.5, 1.0, 5.0)]);
        assert_eq!(local_search_hitting_set(&inst).len(), 1);
    }

    prop! {
        #[cases(30)]
        fn prop_local_between_exact_and_greedy(seed in 0u64..150, n in 1usize..10) {
            let mut rng = Rng::seed_from_u64(seed);
            let disks: Vec<Circle> = (0..n)
                .map(|_| c(rng.gen_range(-40.0..40.0), rng.gen_range(-40.0..40.0),
                           rng.gen_range(4.0..18.0)))
                .collect();
            let inst = DiskInstance::new(disks);
            let e = exact_hitting_set(&inst);
            let l = local_search_hitting_set(&inst);
            let g = greedy_hitting_set(&inst);
            prop_assert!(inst.is_hitting_set(&l));
            prop_assert!(e.len() <= l.len());
            prop_assert!(l.len() <= g.len());
        }
    }
}
