//! # sag-hitting — the workspace's set-cover stack
//!
//! Every lower-tier path in this workspace solves the same problem:
//! cover a set of elements (subscribers' feasible circles, disks to
//! hit) with the fewest points from a finite candidate set. This crate
//! holds the one implementation of each heuristic for it:
//!
//! * [`CoverInstance`] — the instance, as CSR arrays in both directions
//!   (candidate → covered elements, element → eligible candidates),
//!   built from `(circles, candidate points)` with
//!   [`sag_geom::Circle::contains`];
//! * [`greedy::greedy_cover`] — greedy set multicover with a demand per
//!   element (ln n approximation; ties go to the lowest candidate
//!   index; a stall is a typed [`CoverError`], never a panic);
//! * [`local_search::local_search_cover`] — greedy start plus
//!   Mustafa–Ray `b`-swap local search (the paper's (1+ε) PTAS family
//!   for Step 4 of SAMC; ε shrinks as the swap size grows);
//! * [`exact::exact_hitting_set`] — branch-and-bound optimum for small
//!   disk families (SAMC's last retry on small zones).
//!
//! SAMC Step 4, the lower tier's greedy and local-search backends, the
//! ILPQC eligibility lists, sleep scheduling and k-coverage all build a
//! [`CoverInstance`] and run these functions. The shared entry points
//! open a `hitting_set` span, so traces attribute their time under
//! whichever stage called them.
//!
//! [`DiskInstance`] generates SAMC's candidates: any hitting set of a
//! disk family can be moved onto disk centres and pairwise
//! circle-intersection points without losing feasibility, so those
//! finitely many candidates suffice.
//!
//! # Example
//!
//! ```
//! use sag_geom::{Circle, Point};
//! use sag_hitting::{greedy::greedy_hitting_set, instance::DiskInstance};
//!
//! let disks = vec![
//!     Circle::new(Point::new(0.0, 0.0), 2.0),
//!     Circle::new(Point::new(1.0, 0.0), 2.0),
//!     Circle::new(Point::new(10.0, 0.0), 2.0),
//! ];
//! let inst = DiskInstance::new(disks);
//! let hs = greedy_hitting_set(&inst);
//! assert!(inst.is_hitting_set(&hs));
//! assert_eq!(hs.len(), 2); // two clusters
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exact;
pub mod greedy;
pub mod instance;
pub mod local_search;

pub use instance::{CoverError, CoverInstance, DiskInstance};
