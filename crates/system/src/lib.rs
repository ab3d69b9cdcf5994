#![warn(missing_docs)]

//! Full-system simulator: the PC architecture of Figure 3 with a memory
//! processor running a ULMT.
//!
//! This crate wires every substrate together into the cycle-level model
//! the paper evaluates:
//!
//! * the main processor (trace-driven, bounded run-ahead) with its L1/L2
//!   hierarchy and optional `Conven4` stream prefetcher;
//! * the front-side bus and the dual-channel DRAM with demand-first
//!   arbitration;
//! * the three queues of Figure 3 — queue 1 (demand to memory), queue 2
//!   (miss observations to the ULMT) and queue 3 (ULMT prefetches to
//!   memory) — including the cross-queue squashing rules and the Filter
//!   module;
//! * the memory processor executing any `ulmt_core::AlgorithmSpec` in the
//!   North Bridge or in the DRAM chip, in Verbose or Non-Verbose mode;
//! * push-prefetch delivery into the L2 with the paper's accept/steal/drop
//!   rules and the full Figure 9 effectiveness bookkeeping.
//!
//! The entry point is [`Experiment`]: configure, run, inspect a
//! [`RunResult`].
//!
//! # Example
//!
//! ```
//! use ulmt_system::{Experiment, PrefetchScheme, SystemConfig};
//! use ulmt_workloads::{App, WorkloadSpec};
//!
//! let spec = WorkloadSpec::new(App::Mcf).scale(1.0 / 16.0).iterations(3);
//! let nopref = Experiment::new(SystemConfig::small(), spec.clone())
//!     .scheme(PrefetchScheme::NoPref)
//!     .run();
//! let repl = Experiment::new(SystemConfig::small(), spec)
//!     .scheme(PrefetchScheme::Repl)
//!     .run();
//! assert!(repl.exec_cycles < nopref.exec_cycles);
//! ```

pub mod config;
pub mod experiment;
pub mod miss_stream;
pub mod multiprog;
pub mod report;
pub mod result;
pub mod runner;
pub mod scheme;
pub mod sim;
pub mod validate;

pub use config::{PathLatencies, QueueDepths, SystemConfig};
pub use experiment::Experiment;
pub use miss_stream::{l2_miss_stream, l2_miss_stream_with};
pub use multiprog::{MultiprogExperiment, TablePolicy};
pub use result::{PrefetchEffect, RunResult};
pub use runner::{parallel_map, parallel_map_with, worker_count};
pub use scheme::PrefetchScheme;
pub use sim::SystemSim;
pub use validate::{validate_trace, Mismatch, TraceAudit, TraceValidationError};
