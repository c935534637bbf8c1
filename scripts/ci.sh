#!/usr/bin/env bash
# Canonical tier-1 CI entry point.
#
# Everything here runs fully offline: the workspace has no registry
# dependencies (see DESIGN.md, "Hermetic builds"), so a clean checkout
# with only the Rust toolchain passes this script with zero network
# access.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo build --release --offline --workspace
run cargo test -q --offline

# Chaos soak: re-run the fault-injection property suite at an elevated
# case count. Failures print a SAG_PROP_SEED replay line.
echo "==> SAG_PROP_CASES=150 cargo test -p sag-integration --test chaos_pipeline -q --offline"
SAG_PROP_CASES=150 cargo test -p sag-integration --test chaos_pipeline -q --offline

# Ledger parity soak: the incremental-vs-brute SNR contract at an
# elevated case count (tentpole invariant of the interference ledger).
echo "==> SAG_PROP_CASES=150 cargo test -p sag-integration --test ledger_parity -q --offline"
SAG_PROP_CASES=150 cargo test -p sag-integration --test ledger_parity -q --offline

# LP parity soak: the sparse revised simplex against the dense tableau
# oracle (differential rig), warm-vs-cold B&B incumbents, refactor
# cadence bit-stability, carried-factor parity (warm re-solves that
# reuse the parent's lowering and basis factors match a fresh
# refactorization bit for bit; foreign handles are never reused), and
# CscMatrix construction fuzz.
echo "==> SAG_PROP_CASES=150 cargo test -p sag-integration --test lp_parity -q --offline"
SAG_PROP_CASES=150 cargo test -p sag-integration --test lp_parity -q --offline

# Churn soak: arbitrary seeded event streams must end in a typed error
# or an audit-clean, feasible, bounded-degradation placement; includes
# the starved-budget, worker-panic and ledger-desync chaos arms.
echo "==> SAG_PROP_CASES=150 cargo test -p sag-integration --test churn_pipeline -q --offline"
SAG_PROP_CASES=150 cargo test -p sag-integration --test churn_pipeline -q --offline

# Solver-backend matrix: the integration suite must stay green when
# SAG_SOLVER forces every zone onto a heuristic backend. Tests that
# assert exact-path behaviour pin their builder explicitly, so the
# override only reaches code that must be backend-agnostic. The
# local_search arm exercises the shared sag-hitting Mustafa–Ray search.
for solver in greedy lp_round local_search; do
    echo "==> SAG_SOLVER=${solver} cargo test -p sag-integration -q --offline"
    SAG_SOLVER=${solver} cargo test -p sag-integration -q --offline
done

# Sweep smoke under the heuristic backend override: a real figure sweep
# (the cache-heavy Fig. 3(e) shape) driven end to end through the
# batched engine with SAG_SOLVER=greedy, proving the engine and the
# backend override compose outside the test harness.
echo "==> SAG_SOLVER=greedy cargo run --release --offline -p sag-sim --bin repro -- fig3e --runs 1"
SAG_SOLVER=greedy cargo run --release --offline -p sag-sim --bin repro -- fig3e --runs 1 > /dev/null

# Gated benchmarks: one binary, seven arms, each asserting its parity
# or contract checks before timing and writing BENCH_<arm>.json with a
# `gates` array. Failed gates fail the run only after every arm has
# written its artefact. Floors and ceilings (constants in crates/bench):
#   snr       ledger vs brute SNR probe speedup             >= 5x
#   obs       disabled-instrumentation overhead             <= 1.02
#   par       lower-tier speedup at 4 workers               >= 2x
#             (skipped below 4 hardware threads; parity still enforced)
#   lp        sparse vs dense cover LP speedup              >= 3x
#             warm vs cold B&B node throughput              >= 1.5x
#   churn     dirty-zone repair vs scratch SAMC speedup     >= 5x
#             p99 per-event repair latency                  <= 500 us
#   backends  adaptive vs all-exact lower-tier speedup      >= 1.5x
#   sweep     batched vs per-cell sweep speedup             >= 4x
# churn, backends and sweep skip their gates (recorded as
# "skipped (<reason>)") only below a timing floor the timer cannot
# resolve.
run cargo run --release --offline -p sag-bench --bin bench

# Churn chaos smoke: a short seeded trace through every chaos arm
# (burst, boundary hop, worker panic, ledger desync); every arm must
# score a full pass on the typed-error-or-audit-clean contract.
echo "==> cargo run --release --offline -p sag-sim --bin repro -- churn_chaos --fast"
churn_chaos_out=$(cargo run --release --offline -p sag-sim --bin repro -- churn_chaos --fast)
echo "${churn_chaos_out}"
echo "${churn_chaos_out}" | awk '$1 ~ /^[0-9]+$/ && $2 != "1.00" {
    print "churn chaos arm " $1 " broke the contract (pass=" $2 ")"; bad = 1
} END { exit bad }'

# Forensics chaos arm: every typed failure class (worker panic, ledger
# desync, budget exhaustion, portfolio loser panic/hang, churn
# deferral) must emit exactly one parseable post-mortem dump frame,
# and the analyzer must reconstruct each capture into a single span
# tree at 1, 2 and 4 threads. Run in release — the same optimized
# shape a production crash capture would have (the suite arms the
# flight recorder itself).
echo "==> cargo test --release -p sag-integration --test forensics_pipeline -q --offline"
cargo test --release -p sag-integration --test forensics_pipeline -q --offline

# JSONL sink smoke: a real repro run with SAG_OBS_JSON set must emit a
# capture in which every line parses, every stage has a span, the
# run_end trailer carries the dropped_events/ring_overflow loss
# accounting, and the solver work counters are present. The same
# capture must then feed the trace analyzer end to end.
echo "==> SAG_OBS_JSON=obs_smoke.jsonl cargo run --release --offline -p sag-sim --bin repro -- fig7a --runs 1"
SAG_OBS_JSON=obs_smoke.jsonl SAG_OBS_RING=256 cargo run --release --offline -p sag-sim --bin repro -- fig7a --runs 1 > /dev/null
run cargo run --release --offline -p sag-bench --bin bench -- check-jsonl obs_smoke.jsonl
run cargo run --release --offline -p sag-sim --bin repro -- trace obs_smoke.jsonl
rm -f obs_smoke.jsonl

echo "==> tier-1 CI green"
