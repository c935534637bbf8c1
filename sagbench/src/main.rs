//! `sagbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary with every metric's unit and direction, then, as
//! its last line, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Exits 2 on a usage error or when an
//! environment variable that changes what the library does is set.

use std::process::ExitCode;

use sagbench::inputs::{Scale, Workload};
use sagbench::metrics::RunResult;
use sagbench::{timed, traced};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: sagbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Library crates read `SAG_*` variables process-wide (solver choice,
/// LP and SNR oracles, thread counts, sweep and tracing knobs); any of
/// them would silently change what is measured.
fn stray_environment() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SAG_"))
        .collect();
    names.sort();
    names
}

fn print_summary(args: &Args, r: &RunResult) {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "sagbench workload={} seed={} trace={} hardware_threads={threads}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "passes={} attempted={} failed={} infeasible={} digest={:016x} correct={}",
        r.passes, r.attempted, r.failed, r.infeasible, r.digest, r.correct
    );
    for (def, v) in &r.metrics {
        println!(
            "  {:<24} {v:>16.6} {:<6} ({} is better)",
            def.name, def.unit, def.better
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sagbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let stray = stray_environment();
    if !stray.is_empty() {
        eprintln!(
            "sagbench: refusing to run with {} set: the library reads these \
             process-wide and they would change what is measured; unset them",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    let result = if args.trace {
        traced::run(args.workload, args.seed, Scale::Full)
    } else {
        timed::run(args.workload, args.seed, args.seconds, Scale::Full)
    };
    print_summary(&args, &result);
    println!("{}", result.json_line());
    ExitCode::SUCCESS
}
