//! `bench`: the gated benchmark suite.
//!
//! `bench` runs every arm, `bench <arm>...` a subset (arms: `snr`,
//! `obs`, `par`, `lp`, `churn`, `backends`, `sweep`), and
//! `bench check-jsonl FILE` validates a `SAG_OBS_JSON` capture. Each
//! arm writes `BENCH_<arm>.json` in the working directory. Every
//! requested arm runs and writes its artefact before the process exits
//! non-zero, naming every failed gate. Usage errors exit 2.

use std::process::ExitCode;

use sag_bench::{check_jsonl, parse_args, Arm, Command, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(msg) => {
            eprintln!("bench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::CheckJsonl(path)) => {
            let checked = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read: {e}"))
                .and_then(|text| check_jsonl(&text));
            match checked {
                Ok(summary) => {
                    println!("checked {path}: {summary}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("bench check-jsonl {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Ok(Command::Run(arms)) => run_arms(&arms),
    }
}

fn run_arms(arms: &[Arm]) -> ExitCode {
    let mut failed = Vec::new();
    for (name, run) in arms {
        println!("==> bench {name}");
        let artefact = run();
        let path = format!("BENCH_{name}.json");
        artefact
            .write(&path)
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        print!("{}", artefact.to_json());
        println!("wrote {path}");
        for gate in &artefact.gates {
            if gate.failed() {
                let (metric, value, bound) = (gate.metric, gate.value, gate.bound);
                failed.push(format!(
                    "{name}: {metric} = {value:.4} misses its bound {bound}"
                ));
            }
        }
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("{} gate(s) failed:", failed.len());
    for f in &failed {
        eprintln!("  {f}");
    }
    ExitCode::FAILURE
}
