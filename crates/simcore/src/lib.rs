#![warn(missing_docs)]

//! Deterministic event-driven simulation kernel for the ULMT simulator.
//!
//! This crate provides the timing substrate shared by every other crate in
//! the workspace:
//!
//! * [`Cycle`] — the global time unit (1.6 GHz main-processor cycles, as in
//!   Table 3 of the paper: *"All cycles are 1.6 GHz cycles"*).
//! * [`Addr`] — a physical byte address with line/page arithmetic helpers.
//! * [`EventQueue`] — a deterministic time-ordered event queue with FIFO
//!   tie-breaking, the heart of the discrete-event engine.
//! * [`Server`] — a first-come-first-served resource used to model occupancy
//!   of buses, DRAM channels and the memory processor.
//! * [`stats`] — counters, histograms and utilization trackers used to
//!   produce every figure of the evaluation.
//! * [`trace`] — a cycle-stamped, bounded ring-buffer event tracer with
//!   JSONL / Chrome `trace_event` export, used to audit every aggregate
//!   counter against the event stream that produced it.
//!
//! # Example
//!
//! ```
//! use ulmt_simcore::{EventQueue, Addr};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(10, "b");
//! q.push(5, "a");
//! q.push(10, "c"); // same time as "b": FIFO order is preserved
//! assert_eq!(q.pop(), Some((5, "a")));
//! assert_eq!(q.pop(), Some((10, "b")));
//! assert_eq!(q.pop(), Some((10, "c")));
//!
//! let a = Addr::new(0x1234);
//! assert_eq!(a.line(64).to_byte_addr().raw(), 0x1200);
//! ```

pub mod addr;
pub mod config;
pub mod event;
pub mod hash;
pub mod rng;
pub mod server;
pub mod stats;
pub mod trace;

pub use addr::{Addr, LineAddr, PageAddr};
pub use config::ConfigError;
pub use event::EventQueue;
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use rng::Pcg32;
pub use server::{Server, ServerState};
pub use trace::{SharedTracer, TraceBuffer, TraceConfig, TraceEvent};

/// Global simulation time, measured in 1.6 GHz main-processor cycles.
///
/// The paper expresses every latency in main-processor cycles (Table 3),
/// including those of the 800 MHz memory processor, so a plain alias keeps
/// the arithmetic friction-free while staying faithful to the source.
pub type Cycle = u64;
