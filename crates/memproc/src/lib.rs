#![warn(missing_docs)]

//! The memory processor that executes the User-Level Memory Thread.
//!
//! Table 3 of the paper: a 2-issue, 800 MHz general-purpose core with a
//! 32 KB private L1, placed either in the North Bridge (memory controller)
//! chip or inside a DRAM chip. The core has no floating point — none of
//! the ULMT algorithms need it.
//!
//! [`MemProcessor`] steps its algorithm
//! ([`UlmtAlgorithm::step`](ulmt_core::algorithm::UlmtAlgorithm::step))
//! into one reused [`StepResult`](ulmt_core::cost::StepResult) per
//! observed miss and turns the recorded machine-independent
//! [`Cost`](ulmt_core::cost::Cost) of each phase into **cycles**:
//!
//! * instructions retire at the 2-issue 800 MHz rate (≈ 1 main-processor
//!   cycle per instruction at best);
//! * every table access is replayed against the memory processor's private
//!   cache; misses fetch the line from DRAM through a caller-supplied
//!   [`TableMemory`], whose latency depends on where the core sits
//!   (21/56-cycle round trips inside the DRAM chip vs. 65/100 in the
//!   North Bridge — Figure 8's `Repl` vs `ReplMC`).
//!
//! The result is the response time and occupancy time of Figure 2, the
//! two quantities Figure 10 reports per algorithm.

pub mod processor;

pub use processor::{
    FixedLatencyMemory, MemProcConfig, MemProcLocation, MemProcessor, TableMemory, UlmtStats,
    UlmtStep,
};
