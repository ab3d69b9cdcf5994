//! Multiprogrammed execution (Section 3.4).
//!
//! The paper's design: "associate a different ULMT, with its own table,
//! to each application. This eliminates interference in the tables. In
//! addition, it enables the customization of each ULMT to its own
//! application." This module runs several applications time-sliced on one
//! machine and compares the two table policies the paper contrasts:
//!
//! * [`TablePolicy::Shared`] — one ULMT/table observes everything ("a
//!   poor approach ... the table is likely to suffer a lot of
//!   interference");
//! * [`TablePolicy::PerApplication`] — one ULMT per application, routed
//!   by physical region.

use ulmt_core::multi::RegionRoutedUlmt;
use ulmt_core::AlgorithmSpec;
use ulmt_memproc::{MemProcConfig, MemProcessor};
use ulmt_workloads::multiprog::{MultiprogWorkload, REGION_LINES};
use ulmt_workloads::WorkloadSpec;

use crate::config::SystemConfig;
use crate::result::RunResult;
use crate::sim::SystemSim;

/// How correlation state is organized across applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TablePolicy {
    /// A single table observes every application's misses.
    Shared,
    /// One table per application, selected by physical region.
    PerApplication,
}

/// A multiprogrammed experiment: `apps` time-sliced with a quantum of
/// `epoch_refs` references, prefetched by Replicated ULMTs under the
/// chosen table policy.
#[derive(Debug, Clone)]
pub struct MultiprogExperiment {
    config: SystemConfig,
    apps: Vec<WorkloadSpec>,
    epoch_refs: usize,
    policy: TablePolicy,
}

impl MultiprogExperiment {
    /// Creates an experiment over `apps`.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    pub fn new(config: SystemConfig, apps: Vec<WorkloadSpec>) -> Self {
        assert!(!apps.is_empty(), "need at least one application");
        MultiprogExperiment {
            config,
            apps,
            epoch_refs: 2000,
            policy: TablePolicy::PerApplication,
        }
    }

    /// Sets the scheduler quantum in references.
    pub fn quantum(mut self, epoch_refs: usize) -> Self {
        self.epoch_refs = epoch_refs;
        self
    }

    /// Sets the table policy.
    pub fn policy(mut self, policy: TablePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs this mix under both table policies — [`TablePolicy::Shared`]
    /// and [`TablePolicy::PerApplication`] — as two independent
    /// simulations fanned across the [`crate::runner`] worker pool, and
    /// returns `(shared, per_application)`. The builder's own `policy`
    /// setting is ignored: both are run.
    ///
    /// This is the Section 3.4 comparison as a single call; on a
    /// multi-core host the two runs overlap, halving the wall time.
    pub fn compare(self) -> (RunResult, RunResult) {
        let experiments: Vec<MultiprogExperiment> =
            [TablePolicy::Shared, TablePolicy::PerApplication]
                .into_iter()
                .map(|p| self.clone().policy(p))
                .collect();
        let mut results = crate::runner::parallel_map(experiments, MultiprogExperiment::run);
        let per_app = results.pop().expect("per-application result");
        let shared = results.pop().expect("shared result");
        (shared, per_app)
    }

    /// Runs the multiprogrammed mix to completion.
    pub fn run(self) -> RunResult {
        let trace = MultiprogWorkload::new(&self.apps, self.epoch_refs);
        let alg: Box<dyn ulmt_core::UlmtAlgorithm> = match self.policy {
            TablePolicy::Shared => {
                // One table sized for the union of footprints.
                let total: u64 = self.apps.iter().map(|a| a.footprint_lines()).sum();
                AlgorithmSpec::repl((total as usize).next_power_of_two().max(1024)).build()
            }
            TablePolicy::PerApplication => Box::new(RegionRoutedUlmt::new(
                self.apps
                    .iter()
                    .map(|a| {
                        let rows = (a.footprint_lines() as usize).next_power_of_two().max(1024);
                        AlgorithmSpec::repl(rows).build()
                    })
                    .collect(),
                REGION_LINES,
            )),
        };
        let memproc = MemProcessor::new(
            MemProcConfig {
                ..self.config.memproc
            },
            alg,
        );
        let label = match self.policy {
            TablePolicy::Shared => "Multiprog(shared)",
            TablePolicy::PerApplication => "Multiprog(per-app)",
        };
        let apps = self
            .apps
            .iter()
            .map(|a| a.app.name())
            .collect::<Vec<_>>()
            .join("+");
        let footprint: u64 = self.apps.iter().map(|a| a.footprint_lines()).sum();
        SystemSim::try_from_parts_hinted(
            self.config,
            Box::new(trace),
            false,
            Some(memproc),
            false,
            label.to_string(),
            apps,
            footprint,
        )
        .unwrap_or_else(|e| panic!("invalid SystemConfig: {e}"))
        .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulmt_workloads::App;

    fn mix() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::new(App::Mcf).scale(1.0 / 16.0).iterations(3),
            WorkloadSpec::new(App::Gap).scale(1.0 / 16.0).iterations(3),
        ]
    }

    #[test]
    fn per_app_tables_beat_shared_table() {
        // Section 3.4's claim: a shared table suffers interference. With a
        // short quantum the two miss streams interleave at the table and
        // corrupt each other's successor lists; per-application tables do
        // not.
        let (shared, per_app) = MultiprogExperiment::new(SystemConfig::small(), mix())
            .quantum(200)
            .compare();
        assert_eq!(shared.scheme, "Multiprog(shared)");
        assert_eq!(per_app.scheme, "Multiprog(per-app)");
        assert!(
            per_app.exec_cycles <= shared.exec_cycles,
            "per-app {} vs shared {}",
            per_app.exec_cycles,
            shared.exec_cycles
        );
        assert!(per_app.prefetch.hits + per_app.prefetch.delayed_hits > 0);
    }

    #[test]
    fn multiprog_accounts_all_references() {
        let refs: usize = mix().iter().map(|a| a.build().count()).sum();
        let r = MultiprogExperiment::new(SystemConfig::small(), mix())
            .quantum(500)
            .run();
        assert_eq!(r.refs as usize, refs);
        assert!(r.exec_cycles > 0);
    }

    #[test]
    fn single_app_multiprog_matches_regular_run_shape() {
        let spec = WorkloadSpec::new(App::Mcf).scale(1.0 / 16.0).iterations(3);
        let solo = crate::Experiment::new(SystemConfig::small(), spec.clone())
            .scheme(crate::PrefetchScheme::Repl)
            .run();
        let mp = MultiprogExperiment::new(SystemConfig::small(), vec![spec]).run();
        // Same workload, same algorithm: within a few percent (the
        // multiprog table is sized slightly differently).
        let ratio = mp.exec_cycles as f64 / solo.exec_cycles as f64;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }
}
