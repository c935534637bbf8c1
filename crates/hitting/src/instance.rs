//! Cover instances: the one finite set-cover structure every greedy and
//! local-search cover in the workspace runs on, plus the disk-family
//! candidate generator of SAMC Step 4.

use sag_geom::{Circle, Point};

/// A finite set-cover instance held as CSR (compressed sparse row)
/// arrays in both directions: candidate → covered elements and
/// element → eligible candidates. Both directions list indices in
/// ascending order, and each is the exact transpose of the other.
///
/// Elements are closed disks (a subscriber's feasible circle, a disk to
/// hit); candidates are points; candidate `c` covers element `e` when
/// `circles[e].contains(candidates[c])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverInstance {
    /// `covers[cover_start[c]..cover_start[c + 1]]`: elements candidate
    /// `c` covers.
    cover_start: Vec<usize>,
    covers: Vec<usize>,
    /// `eligible[elig_start[e]..elig_start[e + 1]]`: candidates covering
    /// element `e`.
    elig_start: Vec<usize>,
    eligible: Vec<usize>,
}

impl CoverInstance {
    /// Builds the instance of `circles` (elements) over `candidates`
    /// with the [`Circle::contains`] predicate.
    pub fn new(circles: &[Circle], candidates: &[Point]) -> Self {
        let mut elig_start = Vec::with_capacity(circles.len() + 1);
        let mut eligible = Vec::new();
        elig_start.push(0);
        for circle in circles {
            eligible.extend((0..candidates.len()).filter(|&c| circle.contains(candidates[c])));
            elig_start.push(eligible.len());
        }
        // Transpose by counting sort: prefix sums leave each candidate's
        // row end in `cover_start[c]`; filling elements in descending
        // order walks it back to the row start and keeps rows ascending.
        let mut cover_start = vec![0usize; candidates.len() + 1];
        for &c in &eligible {
            cover_start[c] += 1;
        }
        for c in 1..cover_start.len() {
            cover_start[c] += cover_start[c - 1];
        }
        let mut covers = vec![0usize; eligible.len()];
        for e in (0..circles.len()).rev() {
            for &c in &eligible[elig_start[e]..elig_start[e + 1]] {
                cover_start[c] -= 1;
                covers[cover_start[c]] = e;
            }
        }
        CoverInstance {
            cover_start,
            covers,
            elig_start,
            eligible,
        }
    }

    /// Number of elements.
    pub fn n_elements(&self) -> usize {
        self.elig_start.len() - 1
    }

    /// Number of candidates.
    pub fn n_candidates(&self) -> usize {
        self.cover_start.len() - 1
    }

    /// Elements covered by candidate `c` (ascending).
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    pub fn covers(&self, c: usize) -> &[usize] {
        &self.covers[self.cover_start[c]..self.cover_start[c + 1]]
    }

    /// Candidates covering element `e` (ascending).
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    pub fn eligible(&self, e: usize) -> &[usize] {
        &self.eligible[self.elig_start[e]..self.elig_start[e + 1]]
    }

    /// Returns `true` if the chosen candidate indices cover every
    /// element at least once.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn is_cover(&self, chosen: &[usize]) -> bool {
        let mut hit = vec![false; self.n_elements()];
        for &c in chosen {
            for &e in self.covers(c) {
                hit[e] = true;
            }
        }
        hit.iter().all(|&h| h)
    }
}

/// Why a cover search returned no cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverError {
    /// No unused candidate covers `element`, whose demand is still
    /// unmet.
    Stalled {
        /// The lowest-index element left with unmet demand.
        element: usize,
    },
    /// The caller's interrupt fired between local-search rounds.
    Interrupted,
}

/// A geometric hitting-set instance: a family of closed disks to be hit.
///
/// The constructor is a candidate generator: every disk centre plus
/// every pairwise boundary intersection point, deduplicated, feeding a
/// [`CoverInstance`]. Any optimal hitting set can be normalised onto
/// these candidates (slide each chosen point until it is pinned by two
/// disk boundaries, or centre it in its only disk), so searching the
/// candidates loses nothing.
#[derive(Debug, Clone)]
pub struct DiskInstance {
    disks: Vec<Circle>,
    candidates: Vec<Point>,
    cover: CoverInstance,
}

impl DiskInstance {
    /// Builds an instance and its candidate structure.
    ///
    /// # Panics
    /// Panics if `disks` is empty (a hitting set of nothing is trivially
    /// empty and callers should not ask).
    pub fn new(disks: Vec<Circle>) -> Self {
        assert!(!disks.is_empty(), "instance must contain at least one disk");
        let mut candidates: Vec<Point> = disks.iter().map(|d| d.center).collect();
        for (i, a) in disks.iter().enumerate() {
            for b in disks.iter().skip(i + 1) {
                candidates.extend(a.intersection_points(b));
            }
        }
        // Deduplicate near-coincident candidates to keep the search small
        // (expected-linear grid hashing; candidate counts grow as n²).
        let candidates = sag_geom::point::dedup_points_grid(candidates, 1e-9);
        let cover = CoverInstance::new(&disks, &candidates);
        DiskInstance {
            disks,
            candidates,
            cover,
        }
    }

    /// The candidate points.
    pub fn candidates(&self) -> &[Point] {
        &self.candidates
    }

    /// The cover structure: disks are its elements, candidate points
    /// its candidates.
    pub fn cover(&self) -> &CoverInstance {
        &self.cover
    }

    /// Number of disks.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Instances are never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if the given points hit every disk.
    pub fn is_hitting_set(&self, points: &[Point]) -> bool {
        self.disks
            .iter()
            .all(|d| points.iter().any(|&p| d.contains(p)))
    }

    /// Materialises candidate indices into points.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn points_of(&self, chosen: &[usize]) -> Vec<Point> {
        chosen.iter().map(|&c| self.candidates[c]).collect()
    }

    /// Removes dominated candidates: candidate `a` is dominated by `b`
    /// when `hit(a) ⊆ hit(b)` and `a ≠ b`. Returns the surviving
    /// candidate indices (useful to shrink exact searches).
    pub fn non_dominated_candidates(&self) -> Vec<usize> {
        let n = self.candidates.len();
        let subset = |a: &[usize], b: &[usize]| a.iter().all(|x| b.binary_search(x).is_ok());
        (0..n)
            .filter(|&a| {
                let hit_a = self.cover.covers(a);
                !(0..n).any(|b| {
                    let hit_b = self.cover.covers(b);
                    b != a && subset(hit_a, hit_b) && (hit_a != hit_b || b < a)
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    fn candidates_include_centres_and_crossings() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(2.0, 0.0, 2.0)]);
        // 2 centres + 2 crossing points.
        assert_eq!(inst.candidates().len(), 4);
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn hit_structure() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(2.0, 0.0, 2.0)]);
        // Centre of disk 0 hits both? distance 2 from (2,0) → on boundary → contained.
        let idx_center0 = inst
            .candidates()
            .iter()
            .position(|p| p.approx_eq(Point::new(0.0, 0.0)))
            .unwrap();
        let hits = inst.cover().covers(idx_center0);
        assert!(hits.contains(&0) && hits.contains(&1));
    }

    #[test]
    fn hitting_set_predicates() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 1.0), c(10.0, 0.0, 1.0)]);
        assert!(!inst.is_hitting_set(&[Point::new(0.0, 0.0)]));
        assert!(inst.is_hitting_set(&[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]));
    }

    #[test]
    fn indices_hit_all_matches_points() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(1.0, 0.0, 2.0)]);
        for set in [vec![0], vec![1], vec![0, 1]] {
            assert_eq!(
                inst.cover().is_cover(&set),
                inst.is_hitting_set(&inst.points_of(&set))
            );
        }
    }

    #[test]
    fn dedup_candidates() {
        // Coincident circles produce coincident centres → dedup to one.
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 1.0), c(0.0, 0.0, 2.0)]);
        let centres = inst
            .candidates()
            .iter()
            .filter(|p| p.approx_eq(Point::ORIGIN))
            .count();
        assert_eq!(centres, 1);
    }

    #[test]
    fn non_dominated_pruning() {
        // Candidate hitting both disks dominates ones hitting a single disk.
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(2.0, 0.0, 2.0)]);
        let nd = inst.non_dominated_candidates();
        assert!(!nd.is_empty());
        // Every surviving candidate hits both disks (since such exist here).
        for &cand in &nd {
            assert_eq!(inst.cover().covers(cand).len(), 2);
        }
    }

    #[test]
    #[should_panic]
    fn empty_instance_panics() {
        DiskInstance::new(Vec::new());
    }

    prop! {
        /// Both CSR directions are exact, ascending transposes of
        /// `Circle::contains` over every (element, candidate) pair.
        fn prop_csr_directions_transpose_contains(seed in 0u64..1000, n in 0usize..12, m in 0usize..30) {
            let mut rng = Rng::seed_from_u64(seed);
            let circles: Vec<Circle> = (0..n)
                .map(|_| c(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0),
                           rng.gen_range(1.0..40.0)))
                .collect();
            // Candidates include the centres, so boundary-exact and
            // shared points are exercised alongside random ones.
            let mut points: Vec<Point> = circles.iter().map(|d| d.center).collect();
            points.extend((0..m).map(|_| Point::new(rng.gen_range(-60.0..60.0),
                                                    rng.gen_range(-60.0..60.0))));
            let inst = CoverInstance::new(&circles, &points);
            prop_assert_eq!(inst.n_elements(), circles.len());
            prop_assert_eq!(inst.n_candidates(), points.len());
            for (e, circle) in circles.iter().enumerate() {
                let want: Vec<usize> =
                    (0..points.len()).filter(|&p| circle.contains(points[p])).collect();
                prop_assert_eq!(inst.eligible(e), &want[..]);
            }
            for (p, &point) in points.iter().enumerate() {
                let want: Vec<usize> =
                    (0..circles.len()).filter(|&e| circles[e].contains(point)).collect();
                prop_assert_eq!(inst.covers(p), &want[..]);
            }
        }
    }
}
