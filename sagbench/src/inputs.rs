//! The workloads and their seeded inputs.
//!
//! Every workload is one fixed *pass* of operations, generated from the
//! seed alone: a list of scenarios for the batch workloads, a few churn
//! streams for `churn_zoned`. The timed run repeats passes until its
//! time is up, so quality figures and output digests depend on the
//! seed only, never on how fast the host is.
//!
//! All scenarios of a batch pass have the same subscriber count, and
//! only their geometry varies with the seed. Solve time grows steeply
//! with the count (and, for exact ILPQC, exponentially): over a mix of
//! counts every latency percentile lands where the time climbs fastest,
//! and moves by tens of percent from one seed to the next.

use sag_core::churn::ChurnEvent;
use sag_core::model::Scenario;
use sag_sim::experiments::churn::{churn_trace, ChurnTraceSpec};
use sag_sim::gen::ScenarioSpec;
use sag_testkit::rng::splitmix64;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SAMC on a field fragmented into about 250 zones: zone partition,
    /// sliding, the engine merge, PRO and MBMC carry the time.
    SamcZoned,
    /// Exact ILPQC over IAC candidates on the Fig. 7(a) grid: drives the
    /// `sag-lp` branch and bound; no SAMC code runs.
    IlpqcIac,
    /// Streaming repair of a zoned field under a balanced churn trace.
    ChurnZoned,
}

/// Input size: the benchmark's own, or a miniature for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// A few small operations per workload, for tests.
    Mini,
}

/// One churn stream: the initial field and the events applied to it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnStream {
    /// The scenario the engine is built from.
    pub scenario: Scenario,
    /// The event trace, in application order.
    pub events: Vec<ChurnEvent>,
}

/// Shape of a batch workload: scenario family plus stratified sizes.
struct BatchShape {
    field: f64,
    nmax: f64,
    /// Subscribers per scenario.
    users: usize,
    /// Scenarios in one pass.
    ops: usize,
}

/// Shape of the churn workload.
struct ChurnShape {
    field: f64,
    subscribers: usize,
    events: usize,
    streams: usize,
    /// Live subscriber count at which arrivals balance departures.
    live: f64,
}

/// Mean Poisson arrivals per trace tick on `churn_zoned`.
const CHURN_ARRIVALS_PER_TICK: f64 = 2.0;

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SamcZoned,
        Workload::IlpqcIac,
        Workload::ChurnZoned,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SamcZoned => "samc_zoned",
            Workload::IlpqcIac => "ilpqc_iac",
            Workload::ChurnZoned => "churn_zoned",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether operations are whole pipeline solves (else churn events).
    pub fn is_batch(self) -> bool {
        self != Workload::ChurnZoned
    }

    fn batch_shape(self, scale: Scale) -> BatchShape {
        let full = scale == Scale::Full;
        match self {
            Workload::SamcZoned => BatchShape {
                field: 2000.0,
                nmax: 1e-4,
                users: if full { 500 } else { 50 },
                ops: if full { 210 } else { 3 },
            },
            Workload::IlpqcIac => BatchShape {
                field: 300.0,
                nmax: 1e-9,
                users: if full { 25 } else { 8 },
                ops: if full { 520 } else { 2 },
            },
            Workload::ChurnZoned => unreachable!("churn_zoned is not a batch workload"),
        }
    }

    fn churn_shape(scale: Scale) -> ChurnShape {
        match scale {
            Scale::Full => ChurnShape {
                field: 1500.0,
                subscribers: 300,
                events: 1000,
                streams: 4,
                live: 275.0,
            },
            Scale::Mini => ChurnShape {
                field: 400.0,
                subscribers: 30,
                events: 60,
                streams: 1,
                live: 27.5,
            },
        }
    }
}

/// The scenarios of one pass of a batch workload.
///
/// # Panics
/// Panics when called for `churn_zoned`.
pub fn batch_inputs(w: Workload, seed: u64, scale: Scale) -> Vec<Scenario> {
    let shape = w.batch_shape(scale);
    let mut state = seed;
    (0..shape.ops)
        .map(|_| {
            ScenarioSpec {
                field_size: shape.field,
                n_subscribers: shape.users,
                n_base_stations: 4,
                snr_db: -15.0,
                nmax: shape.nmax,
                ..Default::default()
            }
            .build(splitmix64(&mut state))
        })
        .collect()
}

/// Number of churn streams in one pass.
pub fn churn_streams(scale: Scale) -> usize {
    Workload::churn_shape(scale).streams
}

/// Stream `index` of one `churn_zoned` pass: a fresh zoned field and a
/// trace whose arrivals balance departures near the shape's live count.
pub fn churn_stream(seed: u64, index: usize, scale: Scale) -> ChurnStream {
    let shape = Workload::churn_shape(scale);
    let mut state = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let scenario = ScenarioSpec {
        field_size: shape.field,
        n_subscribers: shape.subscribers,
        n_base_stations: 4,
        snr_db: -15.0,
        nmax: 1e-4,
        ..Default::default()
    }
    .build(splitmix64(&mut state));
    let spec = ChurnTraceSpec {
        n_events: shape.events,
        arrival_rate: CHURN_ARRIVALS_PER_TICK,
        depart_prob: CHURN_ARRIVALS_PER_TICK / shape.live,
        move_prob: 0.02,
        ..Default::default()
    };
    let events = churn_trace(&scenario, &spec, splitmix64(&mut state));
    ChurnStream { scenario, events }
}
