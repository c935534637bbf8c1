//! `lp` arm: the dense-vs-sparse LP core (`BENCH_lp.json`).
//!
//! Two probes, both parity-checked before any timing:
//!
//! 1. **Cover LP, dense vs sparse.** A 96-zone block-structured
//!    set-cover relaxation (the exact row shape `ilpqc` feeds the LP
//!    layer) solved through [`LpProblem::solve`] under each
//!    [`LpBackend`]. The dense tableau touches `O(m·width)` per pivot;
//!    the revised simplex touches the nonzeros. Gated on the median
//!    per-round speedup.
//! 2. **Branch-and-bound, warm vs cold.** A chain of odd-cycle
//!    (triangle) covers whose LP relaxation is fractional at every
//!    node, so the search must branch; warm starts re-solve each child
//!    from its parent's basis via the dual simplex, cold starts solve
//!    every node from scratch. Gated on node *throughput* (nodes/s), so
//!    a warm run that explored a different tree still compares fairly.

use sag_lp::{push_backend_override, IlpProblem, LpBackend, LpProblem, Relation};

use crate::{interleave, wall, Artefact, Gate};

/// Zones in the cover probe (past the large end of the paper's sweeps:
/// the dense tableau's advantage shrinks as the block count grows, so
/// the gate probe sits where the asymptotics, not constants, decide).
const ZONES: usize = 96;
const ROWS_PER_ZONE: usize = 6;
const CANDS_PER_ZONE: usize = 8;
/// Triangles in the branch-and-bound probe.
const TRIANGLES: usize = 12;
/// Interleaved measurement rounds per probe, one solve per sample.
const ROUNDS: usize = 9;
const MIN_SPEEDUP: f64 = 3.0;
const MIN_WARM_SPEEDUP: f64 = 1.5;

/// Deterministic splitmix64 stream (no RNG dependency).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Block-structured set-cover relaxation: each zone contributes
/// `CANDS_PER_ZONE` candidate columns and `ROWS_PER_ZONE` coverage rows
/// over 2–4 of its own candidates — the sparsity pattern `ilpqc`'s
/// coverage assembly produces, scaled up. Costs carry a deterministic
/// jitter so the optimum is unique and pivot paths are stable.
fn cover_probe(zones: usize) -> LpProblem {
    let n = zones * CANDS_PER_ZONE;
    let mut lp = LpProblem::minimize(n);
    let mut state = 0x5AB0_BE4C_u64;
    for j in 0..n {
        lp.set_objective_coeff(j, 1.0 + (next(&mut state) % 97) as f64 / 400.0);
        lp.set_bounds(j, 0.0, 1.0);
    }
    for z in 0..zones {
        let base = z * CANDS_PER_ZONE;
        for _ in 0..ROWS_PER_ZONE {
            let k = 2 + (next(&mut state) % 3) as usize;
            let mut cols: Vec<usize> = Vec::with_capacity(k);
            while cols.len() < k {
                let c = base + (next(&mut state) % CANDS_PER_ZONE as u64) as usize;
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            let coeffs: Vec<(usize, f64)> = cols.into_iter().map(|c| (c, 1.0)).collect();
            lp.add_constraint(&coeffs, Relation::Ge, 1.0);
        }
    }
    lp
}

/// Odd-cycle cover ILP: each triangle `{a,b},{b,c},{a,c}` relaxes to
/// `x = (½,½,½)` (objective ~1.5), forcing a branch per triangle.
fn triangle_ilp(warm: bool) -> IlpProblem {
    let n = 3 * TRIANGLES;
    let mut lp = LpProblem::minimize(n);
    for t in 0..TRIANGLES {
        let b = 3 * t;
        for k in 0..3 {
            lp.set_objective_coeff(b + k, 1.0 + ((3 * t + k) % 7) as f64 / 100.0);
        }
        lp.add_constraint(&[(b, 1.0), (b + 1, 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(&[(b + 1, 1.0), (b + 2, 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(&[(b, 1.0), (b + 2, 1.0)], Relation::Ge, 1.0);
    }
    let mut ilp = IlpProblem::new(lp);
    for v in 0..n {
        ilp.set_binary(v);
    }
    ilp.set_warm_start(warm);
    ilp
}

pub(crate) fn run() -> Artefact {
    // ---- Probe 1: cover LP, dense vs sparse -------------------------
    let lp = cover_probe(ZONES);
    let solve = |backend| {
        let _g = push_backend_override(Some(backend));
        lp.solve().expect("cover probe is feasible")
    };

    // Parity gate before any timing: a fast wrong answer is worthless.
    let sparse_sol = solve(LpBackend::Sparse);
    let dense_sol = solve(LpBackend::Dense);
    let mut parity =
        (sparse_sol.objective - dense_sol.objective).abs() / (1.0 + dense_sol.objective.abs());
    assert!(
        parity <= 1e-6,
        "dense/sparse objective parity broken before timing: \
         sparse {} vs dense {}",
        sparse_sol.objective,
        dense_sol.objective
    );

    let cover = interleave(
        ROUNDS,
        1,
        &mut [
            &mut wall(|| solve(LpBackend::Dense)),
            &mut wall(|| solve(LpBackend::Sparse)),
        ],
    );
    let speedup = cover[1].speedup;

    // ---- Probe 2: branch-and-bound, warm vs cold --------------------
    let cold_ilp = triangle_ilp(false);
    let warm_ilp = triangle_ilp(true);
    let cold_ref = cold_ilp.solve().expect("triangle probe is feasible");
    let warm_ref = warm_ilp.solve().expect("triangle probe is feasible");
    let bb_parity =
        (cold_ref.objective - warm_ref.objective).abs() / (1.0 + cold_ref.objective.abs());
    assert!(
        bb_parity <= 1e-9,
        "warm/cold incumbent parity broken before timing: \
         cold {} vs warm {}",
        cold_ref.objective,
        warm_ref.objective
    );
    parity = parity.max(bb_parity);

    let mut cold_nodes = 0usize;
    let mut warm_nodes = 0usize;
    let bb = interleave(
        ROUNDS,
        1,
        &mut [
            &mut wall(|| cold_nodes = cold_ilp.solve().expect("cold solve").nodes),
            &mut wall(|| warm_nodes = warm_ilp.solve().expect("warm solve").nodes),
        ],
    );
    let cold_nodes_per_s = cold_nodes as f64 / (bb[0].median_ns.max(1) as f64 / 1e9);
    let warm_nodes_per_s = warm_nodes as f64 / (bb[1].median_ns.max(1) as f64 / 1e9);
    let warm_speedup = warm_nodes_per_s / cold_nodes_per_s;

    Artefact::new("lp_core")
        .field("zones", ZONES)
        .field("rows", lp.num_constraints())
        .field("cols", lp.num_vars())
        .field("dense_median_ns", cover[0].median_ns)
        .field("sparse_median_ns", cover[1].median_ns)
        .field("speedup", format!("{speedup:.3}"))
        .field("bb_triangles", TRIANGLES)
        .field("cold_nodes_per_s", format!("{cold_nodes_per_s:.1}"))
        .field("warm_nodes_per_s", format!("{warm_nodes_per_s:.1}"))
        .field("warm_speedup", format!("{warm_speedup:.3}"))
        .field("parity_max_rel_err", format!("{parity:.3e}"))
        .gate(Gate::at_least("speedup", speedup, MIN_SPEEDUP))
        .gate(Gate::at_least(
            "warm_speedup",
            warm_speedup,
            MIN_WARM_SPEEDUP,
        ))
}
