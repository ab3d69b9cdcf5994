#![warn(missing_docs)]

//! # ULMT — User-Level Memory Thread correlation prefetching
//!
//! Facade crate re-exporting the whole workspace: a full reproduction of
//! *"Using a User-Level Memory Thread for Correlation Prefetching"*
//! (Solihin, Lee, Torrellas — ISCA 2002) in Rust.
//!
//! The workspace is organized as one crate per subsystem:
//!
//! * [`simcore`] — deterministic event-driven simulation kernel.
//! * [`cache`] — set-associative caches with MSHRs and push-prefetch rules.
//! * [`dram`] — DRAM banks/channels and front-side bus with priority
//!   arbitration between demand and prefetch traffic.
//! * [`core`] — **the paper's contribution**: the Base / Chain / Replicated
//!   correlation tables, sequential ULMT algorithms, the prefetch Filter and
//!   the customization API.
//! * [`cpu`] — trace-driven main-processor model and the conventional
//!   processor-side stream prefetcher (`Conven4`).
//! * [`memproc`] — the memory processor that executes the ULMT, with its
//!   private cache and instruction-cost model.
//! * [`workloads`] — synthetic generators reproducing the miss-stream
//!   character of the paper's nine applications.
//! * [`system`] — the full-system simulator and the experiment runners that
//!   regenerate every table and figure of the evaluation.
//! * [`service`] — a sharded, multi-tenant **online** prefetch service over
//!   the same correlation tables, with bounded ingestion queues, snapshots
//!   and deterministic sharding.
//!
//! Most programs only need [`prelude`]:
//!
//! # Quickstart
//!
//! ```
//! use ulmt::prelude::*;
//!
//! // Run a small Mcf-like pointer-chasing workload with and without the
//! // Replicated ULMT prefetcher and compare execution times.
//! let spec = WorkloadSpec::new(App::Mcf).scale(1.0 / 16.0).iterations(3);
//! let base = Experiment::new(SystemConfig::small(), spec.clone())
//!     .scheme(PrefetchScheme::NoPref)
//!     .run();
//! let repl = Experiment::new(SystemConfig::small(), spec)
//!     .scheme(PrefetchScheme::Repl)
//!     .run();
//! assert!(repl.exec_cycles < base.exec_cycles);
//! ```
//!
//! And the same tables as an online service:
//!
//! ```
//! use ulmt::prelude::*;
//!
//! let service = PrefetchService::start(ServiceConfig::default());
//! let mut session = service.open(1, TenantSpec::repl(1024)).unwrap();
//! let spec = WorkloadSpec::new(App::Mcf).scale(1.0 / 32.0).iterations(2);
//! let misses: Vec<_> = ulmt::system::l2_miss_stream_with(&SystemConfig::small(), &spec).collect();
//! let reply = session.submit(misses).unwrap().wait().unwrap();
//! assert!(reply.observed > 0);
//! service.shutdown();
//! ```

pub use ulmt_cache as cache;
pub use ulmt_core as core;
pub use ulmt_cpu as cpu;
pub use ulmt_dram as dram;
pub use ulmt_memproc as memproc;
pub use ulmt_service as service;
pub use ulmt_simcore as simcore;
pub use ulmt_system as system;
pub use ulmt_workloads as workloads;

pub mod prelude {
    //! The types most programs need, in one `use`.
    //!
    //! Batch experiments: [`Experiment`], [`PrefetchScheme`],
    //! [`SystemConfig`], [`WorkloadSpec`], [`App`], [`RunResult`], plus the
    //! tracing knob ([`TraceConfig`]).
    //!
    //! Online serving: [`PrefetchService`], [`ServiceConfig`], [`Session`],
    //! [`TenantSpec`], [`TrySubmit`], plus the network front-end
    //! ([`NetServer`], [`NetClient`], [`NetConfig`]) and the metrics plane
    //! ([`MetricsReport`], [`ShardMetrics`]).

    pub use ulmt_service::{
        MetricsReport, NetClient, NetConfig, NetServer, NetSubmit, PrefetchService, ServiceConfig,
        ServiceError, Session, ShardMetrics, TableKind, TenantSpec, TrySubmit,
    };
    pub use ulmt_simcore::{LineAddr, TraceConfig};
    pub use ulmt_system::{
        Experiment, MultiprogExperiment, PrefetchScheme, RunResult, SystemConfig,
    };
    pub use ulmt_workloads::{App, WorkloadSpec};
}
