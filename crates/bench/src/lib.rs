//! The gated benchmark suite behind the `bench` binary: seven `ARMS`
//! that each time one probe, and the pieces they share — one
//! interleaved timing loop (`interleave`), one gate type ([`Gate`]),
//! one JSON artefact writer ([`Artefact`]) and one clustered-probe
//! builder (`cluster_probe`).

use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;

use sag_core::model::{BaseStation, NetworkParams, Scenario, Subscriber};
use sag_geom::{Point, Rect};
use sag_radio::{units::Db, LinkBudget};
use sag_sim::gen::{BsLayout, ScenarioSpec};

mod backends;
mod churn;
mod lp;
mod obs;
mod par;
mod snr;
mod sweep;

pub use obs::check_jsonl;

/// One benchmark arm: its command-line name (also the `<arm>` of its
/// `BENCH_<arm>.json`) and the probe that runs its contract checks and
/// timing and returns the artefact with its gates evaluated.
pub type Arm = (&'static str, fn() -> Artefact);

/// Every arm, in the order a bare `bench` runs them.
pub(crate) const ARMS: [Arm; 7] = [
    ("snr", snr::run),
    ("obs", obs::run),
    ("par", par::run),
    ("lp", lp::run),
    ("churn", churn::run),
    ("backends", backends::run),
    ("sweep", sweep::run),
];

/// Command-line synopsis printed on a usage error.
pub const USAGE: &str = "usage: bench [ARM...] | bench check-jsonl FILE\n\
                         arms: snr obs par lp churn backends sweep (default: all)";

/// What one `bench` invocation does.
#[derive(Debug)]
pub enum Command {
    /// Run these arms in order.
    Run(Vec<Arm>),
    /// Validate the `SAG_OBS_JSON` capture at this path.
    CheckJsonl(String),
}

/// Parses `bench`'s arguments (program name excluded).
///
/// # Errors
/// A message naming the first argument that is neither an arm nor a
/// well-formed `check-jsonl FILE`.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    match args {
        [] => Ok(Command::Run(ARMS.to_vec())),
        [cmd, path] if cmd == "check-jsonl" => Ok(Command::CheckJsonl(path.clone())),
        [cmd, ..] if cmd == "check-jsonl" => Err("check-jsonl takes exactly one FILE".into()),
        names => names
            .iter()
            .map(|name| {
                ARMS.iter()
                    .find(|(arm, _)| arm == name)
                    .copied()
                    .ok_or_else(|| format!("unknown arm '{name}'"))
            })
            .collect::<Result<_, _>>()
            .map(Command::Run),
    }
}

/// Hardware threads visible to this process (1 when the query fails).
/// Every artefact records this so a gate skipped on a small runner is
/// distinguishable from one skipped by a bug.
pub(crate) fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A canonical benchmark scenario on the given field with `users`
/// subscribers (paper defaults: −15 dB, 4 BSs).
pub(crate) fn bench_scenario(field: f64, users: usize, seed: u64) -> Scenario {
    ScenarioSpec {
        field_size: field,
        n_subscribers: users,
        n_base_stations: 4,
        snr_db: -15.0,
        bs_layout: BsLayout::Uniform,
        ..Default::default()
    }
    .build(seed)
}

/// The multi-zone probe shape: tight sunflower clusters of
/// `per_cluster` subscribers within `radius` of each centre, two base
/// stations at `(-bs_corner, bs_corner)` and `(bs_corner, -bs_corner)`,
/// and an ignorable-noise level whose `d_max` (10) links subscribers
/// within a cluster but never across clusters. Zone Partition therefore
/// yields one zone per centre. Deterministic, no RNG.
pub(crate) fn cluster_probe(
    field: f64,
    centres: &[(f64, f64)],
    per_cluster: usize,
    radius: f64,
    bs_corner: f64,
) -> Scenario {
    let golden = 2.399_963_229_728_653_f64; // radians
    let mut subs = Vec::with_capacity(centres.len() * per_cluster);
    for (ci, &(cx, cy)) in centres.iter().enumerate() {
        for k in 0..per_cluster {
            let ang = (ci * per_cluster + k) as f64 * golden;
            let r = radius * ((k as f64 + 0.5) / per_cluster as f64).sqrt();
            subs.push(Subscriber::new(
                Point::new(cx + r * ang.cos(), cy + r * ang.sin()),
                35.0 + 5.0 * ((k as f64 * 0.37).fract()),
            ));
        }
    }
    Scenario::new(
        Rect::centered_square(field),
        subs,
        vec![
            BaseStation::new(Point::new(-bs_corner, bs_corner)),
            BaseStation::new(Point::new(bs_corner, -bs_corner)),
        ],
        NetworkParams::new(
            LinkBudget::builder().snr_threshold(Db::new(-15.0)).build(),
            1e-3, // d_max = 10
        ),
    )
    .expect("probe geometry is valid")
}

/// Cluster centres on the square grid `axis × axis`, row by row.
pub(crate) fn grid_centres(axis: &[f64]) -> Vec<(f64, f64)> {
    axis.iter()
        .flat_map(|&y| axis.iter().map(move |&x| (x, y)))
        .collect()
}

/// One closure's result from [`interleave`], per inner iteration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timing {
    /// Fastest measured round.
    pub(crate) min_ns: u128,
    /// Median measured round.
    pub(crate) median_ns: u128,
    /// Median over rounds of closure 0's time divided by this
    /// closure's time in the same round (1.0 for closure 0).
    pub(crate) speedup: f64,
}

/// The one timing loop. Each closure runs one iteration of its work
/// and returns the nanoseconds it took ([`wall`] times a closure by the
/// wall clock; a closure may instead report a share of its own work).
///
/// One warm-up round runs first and is discarded. Then `rounds` rounds
/// each run every closure `inner` times, in order. Adjacent samples in
/// one round share the same noise phase (clock ramp, scheduler
/// interference), so the per-round ratio is far more stable than any
/// absolute time, and its median discards outlier rounds.
pub(crate) fn interleave(
    rounds: usize,
    inner: u32,
    closures: &mut [&mut dyn FnMut() -> u128],
) -> Vec<Timing> {
    assert!(
        rounds >= 1 && inner >= 1,
        "need at least one measured sample"
    );
    let sample =
        |f: &mut dyn FnMut() -> u128| (0..inner).map(|_| f()).sum::<u128>() / inner as u128;
    for f in closures.iter_mut() {
        sample(*f);
    }
    let mut samples = vec![Vec::with_capacity(rounds); closures.len()];
    for _ in 0..rounds {
        for (f, s) in closures.iter_mut().zip(&mut samples) {
            s.push(sample(*f));
        }
    }
    samples
        .iter()
        .map(|s| {
            let mut ratios: Vec<f64> = samples[0]
                .iter()
                .zip(s)
                .map(|(&base, &t)| base as f64 / t.max(1) as f64)
                .collect();
            ratios.sort_by(f64::total_cmp);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            Timing {
                min_ns: sorted[0],
                median_ns: sorted[sorted.len() / 2],
                speedup: ratios[ratios.len() / 2],
            }
        })
        .collect()
}

/// Adapts `f` to [`interleave`], timing each call by the wall clock.
/// The result goes through [`black_box`] so the work is never
/// optimised away.
pub(crate) fn wall<T>(mut f: impl FnMut() -> T) -> impl FnMut() -> u128 {
    move || {
        let start = Instant::now();
        black_box(f());
        start.elapsed().as_nanos()
    }
}

/// Which side of its bound a gated value must stay on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Better {
    /// The value must be at least the bound (a floor).
    Higher,
    /// The value must be at most the bound (a ceiling).
    Lower,
}

/// One gated measurement: a value, the bound it must meet, and an
/// optional reason the gate is skipped on this host.
#[derive(Debug)]
pub struct Gate {
    /// The artefact field the gate reads.
    pub metric: &'static str,
    /// The measured value.
    pub value: f64,
    /// The floor or ceiling.
    pub bound: f64,
    better: Better,
    skip: Option<String>,
}

impl Gate {
    /// A gate requiring `value >= floor`.
    pub(crate) fn at_least(metric: &'static str, value: f64, floor: f64) -> Self {
        Gate {
            metric,
            value,
            bound: floor,
            better: Better::Higher,
            skip: None,
        }
    }

    /// A gate requiring `value <= ceiling`.
    pub(crate) fn at_most(metric: &'static str, value: f64, ceiling: f64) -> Self {
        Gate {
            better: Better::Lower,
            ..Gate::at_least(metric, value, ceiling)
        }
    }

    /// Records the gate as skipped for `reason` unless `enforce` holds.
    /// A skipped gate never fails; the artefact still carries its value
    /// and bound.
    pub(crate) fn skip_unless(mut self, enforce: bool, reason: impl FnOnce() -> String) -> Self {
        if !enforce {
            self.skip = Some(reason());
        }
        self
    }

    /// Whether the gate is enforced and its value misses the bound (a
    /// NaN value misses every bound).
    pub fn failed(&self) -> bool {
        let met = match self.better {
            Better::Higher => self.value >= self.bound,
            Better::Lower => self.value <= self.bound,
        };
        self.skip.is_none() && !met
    }

    /// `pass`, `fail` or `skipped (<reason>)`.
    pub fn status(&self) -> String {
        match &self.skip {
            Some(reason) => format!("skipped ({reason})"),
            None if self.failed() => "fail".to_string(),
            None => "pass".to_string(),
        }
    }
}

/// One `BENCH_<arm>.json` artefact: the common header, the arm's
/// measurement fields in insertion order, and its gates.
#[derive(Debug)]
pub struct Artefact {
    fields: Vec<(&'static str, String)>,
    /// The arm's gates, in insertion order.
    pub gates: Vec<Gate>,
}

impl Artefact {
    /// An artefact for `benchmark` with the common header: the
    /// benchmark name, the hardware thread count, and the solver
    /// backend configuration (`solver_selection` is `env` when
    /// `SAG_SOLVER` overrides the default), so a number produced under
    /// an override is never mistaken for a default-configuration one.
    pub(crate) fn new(benchmark: &str) -> Self {
        let choice = sag_core::SolverBuilder::default().choice;
        let selection = if sag_core::SolverBuilder::choice_from_env() {
            "env"
        } else {
            "default"
        };
        Artefact {
            fields: Vec::new(),
            gates: Vec::new(),
        }
        .text("benchmark", benchmark)
        .field("hardware_threads", hardware_threads())
        .text("solver_backend", choice.label())
        .text("solver_selection", selection)
    }

    /// Appends a measurement field whose `Display` form is a JSON
    /// number.
    pub(crate) fn field(mut self, key: &'static str, value: impl Display) -> Self {
        self.fields.push((key, value.to_string()));
        self
    }

    fn text(mut self, key: &'static str, value: &str) -> Self {
        let mut quoted = String::new();
        sag_obs::json::escape_into(&mut quoted, value);
        self.fields.push((key, quoted));
        self
    }

    /// Appends a gate.
    pub(crate) fn gate(mut self, gate: Gate) -> Self {
        self.gates.push(gate);
        self
    }

    /// The artefact as pretty-printed JSON, `gates` last.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (key, value) in &self.fields {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        }
        out.push_str("  \"gates\": [");
        for (i, g) in self.gates.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str(&format!("{{\"metric\": \"{}\", \"value\": ", g.metric));
            sag_obs::json::number_into(&mut out, g.value);
            out.push_str(", \"bound\": ");
            sag_obs::json::number_into(&mut out, g.bound);
            let better = match g.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            out.push_str(&format!(", \"better\": \"{better}\", \"status\": "));
            sag_obs::json::escape_into(&mut out, &g.status());
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the artefact to `path` after checking it is valid JSON.
    ///
    /// # Errors
    /// `InvalidData` if a field did not render as JSON, or the write's
    /// own error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let body = self.to_json();
        sag_obs::json::validate(&body)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn arm_names(cmd: Command) -> Vec<&'static str> {
        match cmd {
            Command::Run(arms) => arms.iter().map(|(name, _)| *name).collect(),
            Command::CheckJsonl(path) => panic!("expected arms, got check-jsonl {path}"),
        }
    }

    #[test]
    fn builders_are_deterministic() {
        assert_eq!(bench_scenario(500.0, 10, 1), bench_scenario(500.0, 10, 1));
    }

    #[test]
    fn hardware_threads_is_positive() {
        assert!(hardware_threads() >= 1);
    }

    /// FNV-1a over every subscriber's position and coverage distance.
    fn subscriber_digest(sc: &Scenario) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for s in &sc.subscribers {
            for v in [s.position.x, s.position.y, s.distance_req] {
                for byte in v.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn cluster_probes_match_their_pinned_geometry() {
        // Zone count, subscriber count and subscriber digest of each
        // arm's probe, pinned when the three arms each carried their
        // own copy of the builder.
        for (sc, zones, subscribers, digest) in [
            (par::probe(), 8, 72, 0x7193_4c72_123d_0806),
            (churn::probe(), 16, 144, 0xa788_a61f_0cba_318b),
            (backends::probe(), 16, 256, 0x6132_1b0e_6e51_2586),
        ] {
            let zone_count = sag_core::zone::zone_partition(&sc).len();
            assert_eq!(zone_count, zones, "{subscribers}-subscriber probe");
            assert_eq!(sc.subscribers.len(), subscribers);
            assert_eq!(
                subscriber_digest(&sc),
                digest,
                "{subscribers}-subscriber probe"
            );
        }
    }

    #[test]
    fn interleave_reports_min_median_and_ratio_without_warm_up() {
        // Self-timed fakes: each call pops the next scripted duration.
        // The first `inner` (= 2) values of each script are the warm-up
        // round and must not reach any statistic.
        let script = |values: &'static [u128]| {
            let mut it = values.iter().copied();
            move || it.next().expect("script long enough")
        };
        let mut base = script(&[1, 1, 10, 30, 60, 60, 20, 20]);
        let mut fast = script(&[1_000, 1_000, 5, 5, 10, 10, 10, 30]);
        let t = interleave(3, 2, &mut [&mut base, &mut fast]);
        let stats = |t: Timing| (t.min_ns, t.median_ns, t.speedup);
        // Per-round means: base 20, 60, 20; fast 5, 10, 20.
        assert_eq!(stats(t[0]), (20, 20, 1.0));
        // Per-round ratios 4, 6, 1 → median 4.
        assert_eq!(stats(t[1]), (5, 10, 4.0));
    }

    #[test]
    fn gate_resolution() {
        for (gate, status) in [
            (Gate::at_least("speedup", 6.0, 5.0), "pass"),
            (Gate::at_least("speedup", 5.0, 5.0), "pass"),
            (Gate::at_least("speedup", 4.9, 5.0), "fail"),
            (Gate::at_least("speedup", f64::NAN, 5.0), "fail"),
            (Gate::at_most("overhead", 1.01, 1.02), "pass"),
            (Gate::at_most("overhead", 1.03, 1.02), "fail"),
        ] {
            assert_eq!(gate.status(), status, "{gate:?}");
            assert_eq!(gate.failed(), status == "fail", "{gate:?}");
        }
        for gate in [
            Gate::at_least("speedup", 1.1, 2.0),
            Gate::at_most("p99_repair_ns", 9e5, 5e5),
        ] {
            let skipped = gate.skip_unless(false, || "2 hardware thread(s) for 4 workers".into());
            assert_eq!(
                skipped.status(),
                "skipped (2 hardware thread(s) for 4 workers)"
            );
            assert!(!skipped.failed());
        }
        let kept = Gate::at_least("speedup", 1.1, 2.0).skip_unless(true, || unreachable!());
        assert!(kept.failed());
    }

    #[test]
    fn artefact_is_valid_json_listing_every_bound() {
        let art = Artefact::new("unit_probe")
            .field("zones", 16)
            .field("speedup", format!("{:.3}", 6.8451))
            .field("parity_max_rel_err", format!("{:.3e}", 5.798e-13))
            .gate(Gate::at_least("speedup", 6.8451, 5.0))
            .gate(
                Gate::at_most("p99_repair_ns", 275_400.0, 500_000.0)
                    .skip_unless(false, || "timer".into()),
            );
        let json = art.to_json();
        sag_obs::json::validate(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        for needle in [
            "\"benchmark\": \"unit_probe\"",
            "\"hardware_threads\": ",
            "\"solver_backend\": \"",
            "\"solver_selection\": \"",
            "\"speedup\": 6.845",
            "{\"metric\": \"speedup\", \"value\": 6.8451, \"bound\": 5.0, \"better\": \"higher\", \"status\": \"pass\"}",
            "{\"metric\": \"p99_repair_ns\", \"value\": 275400.0, \"bound\": 500000.0, \"better\": \"lower\", \"status\": \"skipped (timer)\"}",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        let empty = Artefact::new("no_gates").to_json();
        sag_obs::json::validate(&empty).unwrap_or_else(|e| panic!("{e}: {empty}"));
        // A field that does not render as JSON is refused before any write.
        let err = Artefact::new("bad")
            .field("speedup", f64::NAN)
            .write("never-written.json")
            .expect_err("NaN is not JSON");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn args_select_arms_and_reject_unknown_names() {
        let all: Vec<&str> = ARMS.iter().map(|(name, _)| *name).collect();
        assert_eq!(arm_names(parse_args(&[]).expect("no args")), all);
        assert_eq!(
            arm_names(parse_args(&args(&["lp", "snr"])).expect("two arms")),
            ["lp", "snr"]
        );
        let err = parse_args(&args(&["snr", "bench_snr"])).expect_err("unknown arm");
        assert!(err.contains("bench_snr"), "{err}");
        assert!(parse_args(&args(&["--min-speedup", "5"])).is_err());
        match parse_args(&args(&["check-jsonl", "capture.jsonl"])) {
            Ok(Command::CheckJsonl(path)) => assert_eq!(path, "capture.jsonl"),
            other => panic!("expected check-jsonl, got {other:?}"),
        }
        assert!(parse_args(&args(&["check-jsonl"])).is_err());
        assert!(parse_args(&args(&["check-jsonl", "a", "b"])).is_err());
    }
}
