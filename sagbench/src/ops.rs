//! One operation of each kind, run through the library's public entry
//! points, with the output checks every operation must pass.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sag_core::churn::{ChurnConfig, ChurnEngine};
use sag_core::coverage::is_feasible;
use sag_core::pro::pro;
use sag_core::samc::SamcConfig;
use sag_core::validate::validate_report;
use sag_core::{Budget, LowerSolver, SagError, SagPipelineConfig, SagReport, Scenario};
use sag_core::{SagResult, SolverBuilder};

use crate::inputs::Workload;

/// The pipeline configuration of a batch workload, set field by field
/// so that no library default read from the environment takes part.
pub fn pipeline_config(w: Workload, collect_metrics: bool) -> SagPipelineConfig {
    SagPipelineConfig {
        samc: SamcConfig::default(),
        lower_solver: if w == Workload::IlpqcIac {
            LowerSolver::IlpqcStrict
        } else {
            LowerSolver::Samc
        },
        solver: SolverBuilder::adaptive(),
        budget: Budget::unlimited(),
        collect_metrics,
        threads: 1,
        snr_oracle: Some(false),
    }
}

/// The churn engine configuration: the library default (per-event
/// audit included) with the solver front set explicitly.
pub fn churn_config(audit_every: u64) -> ChurnConfig {
    ChurnConfig {
        samc: SamcConfig::default(),
        threads: 1,
        max_backlog: 8,
        audit_every,
        solver: SolverBuilder::adaptive(),
    }
}

/// The audit cadence of [`ChurnConfig::default`]: after every event.
pub const DEFAULT_AUDIT_EVERY: u64 = 1;

/// What one operation produced, as the digest and the tallies see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer passed its check.
    Solved {
        /// Coverage relays of the answer.
        relays: usize,
        /// Bits of the answer's total power (0 for churn events between
        /// checkpoints, which have no power figure of their own).
        power_bits: u64,
    },
    /// Answered `SagError::Infeasible`.
    Infeasible,
    /// Any other error, a panic, or an answer that failed its check.
    Failed,
}

/// Runs `f`, turning a panic into [`Outcome::Failed`]'s error form.
pub fn guarded<T>(f: impl FnOnce() -> SagResult<T>) -> Result<T, Outcome> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(SagError::Infeasible(_))) => Err(Outcome::Infeasible),
        Ok(Err(_)) | Err(_) => Err(Outcome::Failed),
    }
}

/// One batch solve through `run_sag_with`.
pub fn solve(sc: &Scenario, config: &SagPipelineConfig) -> Result<SagReport, Outcome> {
    guarded(|| sag_core::run_sag_with(sc, config.clone()))
}

/// Checks a batch answer: an audit-clean report and a feasible
/// placement.
pub fn check_report(sc: &Scenario, report: &SagReport) -> Outcome {
    if validate_report(sc, report).is_clean() && is_feasible(sc, &report.coverage) {
        summarize(report)
    } else {
        Outcome::Failed
    }
}

/// The outcome of a batch answer without the check, for repeat passes
/// that compare against the checked first pass.
pub fn summarize(report: &SagReport) -> Outcome {
    Outcome::Solved {
        relays: report.n_coverage_relays(),
        power_bits: report.power_summary().total.to_bits(),
    }
}

/// Events between output checks of a churn stream; its last event is
/// always checked too.
pub const CHURN_CHECK_EVERY: usize = 250;

/// Whether event `index` of a stream of `n` is followed by a check.
pub fn is_churn_checkpoint(index: usize, n: usize) -> bool {
    (index + 1).is_multiple_of(CHURN_CHECK_EVERY) || index + 1 == n
}

/// The outcome of churn event `index` of `n`, given how applying it
/// went. At a checkpoint the live state must have nothing deferred, an
/// audit-clean ledger and a feasible placement, whose relay count and
/// PRO lower-tier power enter the outcome; elsewhere the outcome is the
/// live relay count.
pub fn churn_outcome(
    engine: &ChurnEngine,
    applied: Result<(), Outcome>,
    index: usize,
    n: usize,
) -> Outcome {
    if let Err(outcome) = applied {
        return outcome;
    }
    if !is_churn_checkpoint(index, n) {
        return Outcome::Solved {
            relays: engine.n_relays(),
            power_bits: 0,
        };
    }
    let checked = (|| {
        if engine.backlog() > 0 {
            return None;
        }
        engine.audit().ok()?;
        let sc = engine.scenario()?;
        let sol = engine.solution()?;
        is_feasible(&sc, &sol).then(|| (sol.n_relays(), pro(&sc, &sol).total()))
    })();
    match checked {
        Some((relays, power)) => Outcome::Solved {
            relays,
            power_bits: power.to_bits(),
        },
        None => Outcome::Failed,
    }
}

/// FNV-1a digest of a pass's outcomes, in order.
pub fn digest(outcomes: &[Outcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in outcomes {
        match *o {
            Outcome::Solved { relays, power_bits } => {
                eat(1);
                eat(relays as u64);
                eat(power_bits);
            }
            Outcome::Infeasible => eat(2),
            Outcome::Failed => eat(3),
        }
    }
    h
}
