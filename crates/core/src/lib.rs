#![warn(missing_docs)]

//! # ULMT correlation prefetching — the paper's contribution
//!
//! This crate implements everything Section 3 of *"Using a User-Level
//! Memory Thread for Correlation Prefetching"* (ISCA 2002) describes:
//!
//! * the three pair-based correlation algorithms of Figure 4 — [`Base`]
//!   (the conventional Joseph & Grunwald organization), [`Chain`]
//!   (multi-level walking of the conventional table) and [`Replicated`]
//!   (the paper's new table that stores *true-MRU* successors for every
//!   level and keeps `NumLevels` row pointers for search-free learning);
//! * software **sequential** prefetching ([`SeqUlmt`], the paper's Seq1 and
//!   Seq4) built on the shared [`stream::StreamDetector`];
//! * the [`Filter`] module — the FIFO list that drops recently-issued
//!   prefetch addresses (Section 3.2);
//! * the [`UlmtAlgorithm`] trait, whose one [`step`] reports a miss's
//!   prefetches, table touches and *Prefetching step* / *Learning step*
//!   costs into a [`StepSink`]; the [`StepResult`] ([`Cost`]) it records
//!   is what the memory-processor model turns into response and
//!   occupancy times (Figure 2 and Figure 10);
//! * customization support (Section 3.3.3): combination ([`Combined`],
//!   e.g. `Seq1+Repl`), per-application parameters, [`adaptive`] on-the-fly
//!   algorithm selection, and a [`profiling`] thread;
//! * operating-system hooks (Section 3.4): page re-mapping
//!   ([`UlmtAlgorithm::remap_page`]) and dynamic table resizing;
//! * the prediction scorer used by Figure 5 ([`predict::PredictionScorer`]).
//!
//! [`Base`]: table::Base
//! [`Chain`]: table::Chain
//! [`Replicated`]: table::Replicated
//! [`SeqUlmt`]: seq::SeqUlmt
//! [`Filter`]: filter::Filter
//! [`Combined`]: algorithm::Combined
//! [`step`]: UlmtAlgorithm::step
//! [`StepSink`]: algorithm::StepSink
//!
//! # Example: far-ahead prefetching with the Replicated table
//!
//! ```
//! use ulmt_core::table::{Replicated, TableParams};
//! use ulmt_core::algorithm::UlmtAlgorithm;
//! use ulmt_simcore::LineAddr;
//!
//! let mut repl = Replicated::new(TableParams::repl_default(1024));
//! let line = |n| LineAddr::new(n);
//!
//! // Train on a repeating miss sequence a,b,c, a,b,c ...
//! for _ in 0..3 {
//!     for n in [10, 20, 30] {
//!         repl.process_miss(line(n));
//!     }
//! }
//! // A miss on `a` now prefetches both `b` (level 1) and `c` (level 2)
//! // from a single row access.
//! let step = repl.process_miss(line(10));
//! assert!(step.prefetches.contains(&line(20)));
//! assert!(step.prefetches.contains(&line(30)));
//! ```

pub mod adaptive;
pub mod algorithm;
pub mod cost;
pub mod filter;
pub mod multi;
pub mod predict;
pub mod profiling;
pub mod properties;
pub mod seq;
pub mod spec;
pub mod stream;
pub mod table;

pub use algorithm::{Combined, UlmtAlgorithm};
pub use cost::{Cost, StepResult};
pub use filter::Filter;
pub use spec::AlgorithmSpec;
pub use table::{Base, Chain, Replicated, TableParams};
