//! End-to-end benchmark of the SAG relay pipeline.
//!
//! Three workloads ([`inputs::Workload`]) drive the library through its
//! public entry points only: `run_sag_with` for batch solves and
//! `ChurnEngine::apply_event` for streaming repair. A timed pass
//! ([`timed`]) gives the end-to-end metrics with tracing off; a
//! separate traced pass ([`traced`]) gives per-layer metrics by timing
//! each layer's public function from outside and reading the work
//! counters `sag-obs` emits. Every answer is checked before it counts.
//! See `README.md` next to this crate for the workloads and metrics.

#![warn(rust_2018_idioms)]

pub mod inputs;
pub mod metrics;
pub mod ops;
pub mod timed;
pub mod traced;
