//! Differential LP test rig: the sparse revised simplex must agree with
//! the dense tableau oracle on every instance either can express, the
//! warm-started branch-and-bound must reach the same incumbents as cold
//! re-solves, the refactorization cadence must not change reported
//! objectives by a single bit, a warm re-solve that carries its
//! parent's lowering and basis factorization must match a fresh
//! factorization bit for bit (and never carry them into a foreign
//! problem), and `CscMatrix` construction must map arbitrary garbage
//! to a canonical matrix or a typed error — never a panic.
//!
//! Scale the soak with `SAG_PROP_CASES` (CI runs 150).

use sag_core::candidates::iac_candidates;
use std::sync::Arc;

use sag_lp::revised::{solve_sparse_from_basis, solve_sparse_with_period};
use sag_lp::{
    push_backend_override, Budget, CscMatrix, IlpProblem, LpBackend, LpError, LpProblem,
    LpSolution, Relation, SparseStandardForm, SIMPLEX_TOL,
};
use sag_sim::gen::ScenarioSpec;
use sag_testkit::prelude::*;

/// Objective agreement tolerance between the two backends: they follow
/// different pivot paths, so exact equality is too strict, but both
/// claim [`SIMPLEX_TOL`]-accurate optima — a small multiple of it is
/// the honest bound.
const PARITY_TOL: f64 = 1e3 * SIMPLEX_TOL;

/// A seeded random LP with box-bounded variables (so it is never
/// unbounded): mixed Le/Ge/Eq rows, mixed-sign coefficients and rhs.
fn random_lp(rng: &mut Rng) -> LpProblem {
    let n = rng.gen_range(2usize..8);
    let m = rng.gen_range(1usize..9);
    let mut lp = LpProblem::minimize(n);
    let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..5.0f64)).collect();
    lp.set_objective(&obj);
    for v in 0..n {
        lp.set_bounds(v, 0.0, rng.gen_range(1.0..20.0f64));
    }
    for _ in 0..m {
        let mut vars: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut vars);
        vars.truncate(rng.gen_range(1usize..=n.min(4)));
        let coeffs: Vec<(usize, f64)> = vars
            .into_iter()
            .map(|v| (v, rng.gen_range(-4.0..4.0f64)))
            .collect();
        let rel = match rng.gen_range(0usize..3) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        lp.add_constraint(&coeffs, rel, rng.gen_range(-5.0..15.0f64));
    }
    lp
}

/// A seeded random LP that is feasible by construction: box-bounded
/// variables, mixed Le/Ge/Eq rows with mixed-sign coefficients whose
/// right-hand sides admit a random point of the box. The first
/// coefficient of the first row is multiplied by `first_coeff_scale`
/// after the right-hand side is set, which changes the matrix (and may
/// cost the point its feasibility) but not the lowered shape.
fn feasible_lp(rng: &mut Rng, first_coeff_scale: f64) -> LpProblem {
    let n = rng.gen_range(2usize..8);
    let m = rng.gen_range(1usize..9);
    let mut lp = LpProblem::minimize(n);
    let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..5.0f64)).collect();
    lp.set_objective(&obj);
    let x0: Vec<f64> = (0..n)
        .map(|v| {
            let hi = rng.gen_range(1.0..20.0f64);
            lp.set_bounds(v, 0.0, hi);
            rng.gen_range(0.0..hi)
        })
        .collect();
    for i in 0..m {
        let mut vars: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut vars);
        vars.truncate(rng.gen_range(1usize..=n.min(4)));
        let mut coeffs: Vec<(usize, f64)> = vars
            .into_iter()
            .map(|v| (v, rng.gen_range(-4.0..4.0f64)))
            .collect();
        let lhs: f64 = coeffs.iter().map(|&(v, c)| c * x0[v]).sum();
        let (rel, rhs) = match rng.gen_range(0usize..3) {
            0 => (Relation::Le, lhs + rng.gen_range(0.0..3.0f64)),
            1 => (Relation::Ge, lhs - rng.gen_range(0.0..3.0f64)),
            _ => (Relation::Eq, lhs),
        };
        if i == 0 {
            coeffs[0].1 *= first_coeff_scale;
        }
        lp.add_constraint(&coeffs, rel, rhs);
    }
    lp
}

/// One branch-and-bound-style bound change: a random variable's lower
/// or upper bound moves to a random point of its current (finite) box.
/// Returns the variable and its previous bounds, to backtrack with.
fn tighten(lp: &mut LpProblem, rng: &mut Rng) -> (usize, f64, f64) {
    let v = rng.gen_range(0..lp.num_vars());
    let (lo, hi) = (lp.lower_bound(v), lp.upper_bound(v));
    let cut = rng.gen_range(lo..=hi);
    if rng.gen_bool(0.5) {
        lp.set_bounds(v, cut, hi);
    } else {
        lp.set_bounds(v, lo, cut);
    }
    (v, lo, hi)
}

/// Asserts two solutions are identical to the bit.
fn assert_bit_identical(a: &LpSolution, b: &LpSolution, what: &str) {
    prop_assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "{what}: objective {} vs {}",
        a.objective,
        b.objective
    );
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&a.x), bits(&b.x), "{what}: x {:?} vs {:?}", a.x, b.x);
}

/// Runs `f` under a fresh metrics collector and returns its result with
/// the value of counter `name`.
fn counting<T>(name: &str, f: impl FnOnce() -> T) -> (T, u64) {
    let collector = Arc::new(sag_obs::Collector::default());
    let out = sag_obs::with_local(collector.clone(), f);
    (out, collector.summary().counter(name))
}

/// Solves `lp` under both backends and asserts status + objective
/// parity.
fn assert_backend_parity(lp: &LpProblem, what: &str) {
    let sparse = {
        let _g = push_backend_override(Some(LpBackend::Sparse));
        lp.solve()
    };
    let dense = {
        let _g = push_backend_override(Some(LpBackend::Dense));
        lp.solve()
    };
    match (sparse, dense) {
        (Ok(s), Ok(d)) => {
            let scale = 1.0 + d.objective.abs();
            prop_assert!(
                (s.objective - d.objective).abs() <= PARITY_TOL * scale,
                "{what}: sparse {} vs dense {}",
                s.objective,
                d.objective
            );
        }
        (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
        (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
        (s, d) => prop_assert!(
            false,
            "{what}: status disagreement sparse={s:?} dense={d:?}"
        ),
    }
}

prop! {
    /// Random LPs: both backends report the same status, and the same
    /// objective when optimal.
    #[cases(64)]
    fn sparse_matches_dense_on_random_lps(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let lp = random_lp(&mut rng);
        assert_backend_parity(&lp, "random LP");
    }

    /// Carried factors are invisible: along random bound-tightening
    /// chains, a warm re-solve that reuses its parent's lowering and
    /// terminal factorization returns bit for bit what
    /// `solve_sparse_from_basis` returns from the same basis through a
    /// fresh factorization, and the same status as a cold solve. An
    /// infeasible child backtracks, as branch and bound would, and the
    /// next one re-solves from the same parent.
    #[cases(48)]
    fn carried_factors_match_fresh_refactor(seed in 0u64..1_000_000) {
        let _sparse = push_backend_override(Some(LpBackend::Sparse));
        let mut rng = Rng::seed_from_u64(seed);
        let mut lp = feasible_lp(&mut rng, 1.0);
        let (warm_steps, reuses) = counting("lp.factor_reuses", || {
            let Some(mut handle) = lp.solve_with_warm_start(None).ok().and_then(|o| o.warm)
            else {
                return 0;
            };
            let mut warm_steps = 0u64;
            for step in 0..8 {
                let (v, lo, hi) = tighten(&mut lp, &mut rng);
                let carried = lp.solve_with_warm_start(Some(&handle));
                let fresh = solve_sparse_from_basis(
                    &lp.sparse_standard_form(),
                    handle.basis(),
                    &Budget::unlimited(),
                );
                let cold = lp.solve_with_warm_start(None);
                let what = format!("step {step}");
                match (&carried, fresh) {
                    (Ok(c), Ok(f)) => {
                        prop_assert!(c.warm_used, "{what}: usable seed not used");
                        warm_steps += 1;
                        // The referee reports the lowered variables:
                        // shift back by the lower bounds as the LP
                        // layer does.
                        let x: Vec<f64> = (0..lp.num_vars())
                            .map(|v| f.x[v] + lp.lower_bound(v))
                            .collect();
                        let objective =
                            lp.objective().iter().zip(&x).map(|(c, v)| c * v).sum();
                        assert_bit_identical(&c.solution, &LpSolution { objective, x }, &what);
                    }
                    // An unusable seed falls back to exactly the cold
                    // solve.
                    (_, Err(LpError::Numerical(_))) => match (&carried, &cold) {
                        (Ok(c), Ok(k)) => {
                            prop_assert!(!c.warm_used, "{what}: unusable seed used");
                            assert_bit_identical(&c.solution, &k.solution, &what);
                        }
                        (Err(c), Err(k)) => prop_assert_eq!(c, k),
                        other => prop_assert!(false, "{what}: fallback {other:?}"),
                    },
                    (Err(c), Err(f)) => prop_assert_eq!(c, &f, "{}", what),
                    (c, f) => prop_assert!(false, "{what}: carried {c:?} vs fresh {f:?}"),
                }
                match (&carried, &cold) {
                    (Ok(c), Ok(k)) => {
                        let scale = 1.0 + k.solution.objective.abs();
                        prop_assert!(
                            (c.solution.objective - k.solution.objective).abs()
                                <= PARITY_TOL * scale,
                            "{what}: carried {} vs cold {}",
                            c.solution.objective,
                            k.solution.objective
                        );
                    }
                    (Err(c), Err(k)) => prop_assert_eq!(c, k, "{}", what),
                    other => prop_assert!(false, "{what}: status carried vs cold {other:?}"),
                }
                match carried.ok().and_then(|o| o.warm) {
                    Some(next) => handle = next,
                    None => {
                        lp.set_bounds(v, lo, hi);
                    }
                }
            }
            warm_steps
        });
        prop_assert!(
            warm_steps == 0 || reuses > 0,
            "{warm_steps} warm re-solves and not one adopted its carried factors"
        );
    }

    /// A warm handle from a problem whose lowering has the same shape —
    /// same variables, rows and bound pattern — but that is another
    /// problem is never reused: not its basis, lowering or factors. The
    /// answer is bit-identical to a cold solve. The other problem is
    /// rebuilt alike (equal but not shared rows), rebuilt with one
    /// coefficient changed, or cloned (shared rows) with one objective
    /// coefficient changed.
    #[cases(48)]
    fn foreign_warm_handle_is_never_reused(seed in 0u64..1_000_000) {
        let _sparse = push_backend_override(Some(LpBackend::Sparse));
        let mut rng = Rng::seed_from_u64(seed);
        let donor = feasible_lp(&mut rng, 1.0);
        let Some(handle) = donor.solve_with_warm_start(None).ok().and_then(|o| o.warm) else {
            return;
        };
        let variant = seed % 3;
        let mut lp = match variant {
            0 => feasible_lp(&mut Rng::seed_from_u64(seed), 1.0),
            1 => feasible_lp(&mut Rng::seed_from_u64(seed), 1.5),
            _ => {
                let mut lp = donor.clone();
                lp.set_objective_coeff(0, lp.objective()[0] + 1.0);
                lp
            }
        };
        tighten(&mut lp, &mut rng);
        let (foreign, reuses) =
            counting("lp.factor_reuses", || lp.solve_with_warm_start(Some(&handle)));
        let cold = lp.solve_with_warm_start(None);
        prop_assert_eq!(reuses, 0, "variant {variant}: foreign factors adopted");
        match (foreign, cold) {
            (Ok(f), Ok(c)) => {
                prop_assert!(!f.warm_used, "variant {variant}: foreign basis used");
                assert_bit_identical(&f.solution, &c.solution, "foreign handle");
            }
            (Err(f), Err(c)) => prop_assert_eq!(f, c),
            other => prop_assert!(false, "variant {variant}: foreign vs cold {other:?}"),
        }
    }

    /// Real ILPQC set-cover relaxations: the exact coverage-row LP the
    /// branch-and-bound uses for its lower bounds, built from generated
    /// scenarios, must agree across backends.
    #[cases(24)]
    fn cover_lp_parity_on_ilpqc_instances(seed in 0u64..100_000, n_subs in 3usize..10) {
        let sc = ScenarioSpec {
            field_size: 400.0,
            n_subscribers: n_subs,
            snr_db: -15.0,
            ..Default::default()
        }
        .build(seed);
        let cands = iac_candidates(&sc);
        prop_assume!(!cands.is_empty());
        let mut lp = LpProblem::minimize(cands.len());
        lp.set_objective(&vec![1.0; cands.len()]);
        for v in 0..cands.len() {
            lp.set_bounds(v, 0.0, 1.0);
        }
        let mut coverable = true;
        for sub in &sc.subscribers {
            let circle = sub.feasible_circle();
            let coeffs: Vec<(usize, f64)> = (0..cands.len())
                .filter(|&c| circle.contains(cands[c]))
                .map(|c| (c, 1.0))
                .collect();
            if coeffs.is_empty() {
                coverable = false;
                break;
            }
            lp.add_constraint(&coeffs, Relation::Ge, 1.0);
        }
        prop_assume!(coverable);
        assert_backend_parity(&lp, "cover LP");
    }

    /// Warm-started branch-and-bound reaches exactly the incumbent a
    /// cold-started search proves optimal: warm starts are a speedup,
    /// never a different answer.
    #[cases(32)]
    fn warm_bb_matches_cold_incumbent(seed in 0u64..1_000_000) {
        let build = |warm: bool| {
            let mut rng = Rng::seed_from_u64(seed);
            let n = rng.gen_range(4usize..9);
            let mut lp = LpProblem::minimize(n);
            let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..4.0f64)).collect();
            lp.set_objective(&obj);
            let m = rng.gen_range(2usize..7);
            for _ in 0..m {
                let mut vars: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut vars);
                vars.truncate(rng.gen_range(2usize..=n.min(4)));
                let coeffs: Vec<(usize, f64)> =
                    vars.into_iter().map(|v| (v, 1.0)).collect();
                lp.add_constraint(&coeffs, Relation::Ge, 1.0);
            }
            let mut ilp = IlpProblem::new(lp);
            for v in 0..n {
                ilp.set_binary(v);
            }
            ilp.set_warm_start(warm);
            ilp.solve()
        };
        let cold = build(false).expect("cover ILPs are always feasible");
        let warm = build(true).expect("cover ILPs are always feasible");
        prop_assert!(
            (cold.objective - warm.objective).abs() <= PARITY_TOL * (1.0 + cold.objective.abs()),
            "cold {} vs warm {}",
            cold.objective,
            warm.objective
        );
    }

    /// Refactorization cadence is invisible: periods 1, 8 and 64 must
    /// report bit-identical objectives, because extraction always goes
    /// through a fresh factorization of the final basis.
    #[cases(32)]
    fn refactor_cadence_is_bit_stable(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let m = rng.gen_range(2usize..7);
        let n = m + rng.gen_range(1usize..8);
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for j in 0..n {
            for i in 0..m {
                if rng.gen_bool(0.5) {
                    triplets.push((i, j, rng.gen_range(-2.0..2.0f64)));
                }
            }
        }
        let a = CscMatrix::from_triplets(m, n, &triplets).expect("in-range triplets");
        // b = A·x0 for a nonnegative x0 keeps the instance feasible;
        // nonnegative costs keep it bounded.
        let x0: Vec<f64> = (0..n)
            .map(|_| if rng.gen_bool(0.5) { rng.gen_range(0.0..3.0f64) } else { 0.0 })
            .collect();
        let mut b = vec![0.0; m];
        for (j, &xj) in x0.iter().enumerate() {
            if xj != 0.0 {
                a.axpy_col(j, xj, &mut b);
            }
        }
        let c: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..4.0f64)).collect();
        let sf = SparseStandardForm { a, b, c };
        let budget = Budget::unlimited();
        let r1 = solve_sparse_with_period(&sf, &budget, 1);
        let r8 = solve_sparse_with_period(&sf, &budget, 8);
        let r64 = solve_sparse_with_period(&sf, &budget, 64);
        match (r1, r8, r64) {
            (Ok(s1), Ok(s8), Ok(s64)) => {
                prop_assert_eq!(
                    s1.objective.to_bits(),
                    s8.objective.to_bits(),
                    "period 1 {} vs 8 {}",
                    s1.objective,
                    s8.objective
                );
                prop_assert_eq!(
                    s8.objective.to_bits(),
                    s64.objective.to_bits(),
                    "period 8 {} vs 64 {}",
                    s8.objective,
                    s64.objective
                );
            }
            (Err(_), Err(_), Err(_)) => {} // consistently unsolvable
            other => prop_assert!(false, "cadence changed the status: {other:?}"),
        }
    }

    /// `CscMatrix::from_triplets` under garbage: out-of-range indices,
    /// duplicates, out-of-order rows, empty columns and byte-flipped
    /// values yield a canonical matrix or a typed [`sag_lp::SparseError`]
    /// — never a panic, never a non-canonical matrix.
    #[cases(96)]
    fn csc_from_triplets_never_panics(seed in 0u64..1_000_000, n_trip in 0usize..40) {
        let mut rng = Rng::seed_from_u64(seed);
        let nrows = rng.gen_range(0usize..6);
        let ncols = rng.gen_range(0usize..6);
        let triplets: Vec<(usize, usize, f64)> = (0..n_trip)
            .map(|_| {
                let r = rng.gen_range(0usize..8); // may exceed nrows
                let c = rng.gen_range(0usize..8); // may exceed ncols
                let mut v = rng.gen_range(-3.0..3.0f64);
                if rng.gen_bool(0.25) {
                    // Byte-flip: may turn the value into ±∞, NaN, a
                    // subnormal, or just a slightly different float.
                    v = f64::from_bits(v.to_bits() ^ (1u64 << rng.gen_range(0u32..64)));
                }
                (r, c, v)
            })
            .collect();
        match CscMatrix::from_triplets(nrows, ncols, &triplets) {
            Ok(mat) => {
                prop_assert_eq!(mat.nrows(), nrows);
                prop_assert_eq!(mat.ncols(), ncols);
                prop_assert!(mat.nnz() <= triplets.len());
                for j in 0..ncols {
                    let (rows, vals) = mat.col(j);
                    prop_assert!(
                        rows.windows(2).all(|w| w[0] < w[1]),
                        "column {j} rows not strictly increasing: {rows:?}"
                    );
                    prop_assert!(
                        vals.iter().all(|v| v.is_finite() && *v != 0.0),
                        "column {j} kept a zero or non-finite value: {vals:?}"
                    );
                }
            }
            Err(e) => {
                // Typed rejection; the Display impl must name the defect.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}
