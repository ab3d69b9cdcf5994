#![warn(missing_docs)]

//! Benchmark harness regenerating **every table and figure** of the ISCA
//! 2002 ULMT paper.
//!
//! `cargo run --release -p ulmt-bench --bin inspect -- figures [id…]`
//! prints the tables, figures and ablation report named by `id`
//! (`table1`–`table5`, `fig5`–`fig11`, `ablation`; all of them without
//! an id) from one shared [`Runner`], so each (app, scheme) pair is
//! simulated once. The logic lives here so it is unit-testable at small
//! scale.
//!
//! The machine/workload scale is selected with the `ULMT_SCALE`
//! environment variable:
//!
//! * `small` — 32 KB L2, 1/16-scale workloads (seconds; CI),
//! * `mid` — 128 KB L2, 1/4-scale workloads (default),
//! * `paper` — the full Table 3 machine and paper-calibrated workloads.
//!
//! All profiles scale the caches and footprints together, so the
//! footprint-to-cache ratios (and therefore the miss behavior) match the
//! full-size system.

pub mod ablation;
pub mod figures;
pub mod io;
pub mod paper;
pub mod profile;
pub mod runner;
pub mod tables;

pub use io::{write_trace_chrome, write_trace_jsonl};
pub use profile::Profile;
pub use runner::Runner;
