//! One-stop experiment runner.

use ulmt_simcore::{ConfigError, SharedTracer, TraceConfig};
use ulmt_workloads::WorkloadSpec;

use crate::config::SystemConfig;
use crate::result::RunResult;
use crate::scheme::PrefetchScheme;
use crate::sim::SystemSim;

/// Builder for a single simulation run.
///
/// # Example
///
/// ```
/// use ulmt_system::{Experiment, PrefetchScheme, SystemConfig};
/// use ulmt_workloads::{App, WorkloadSpec};
///
/// let result = Experiment::new(
///     SystemConfig::default(),
///     WorkloadSpec::new(App::Tree).scale(1.0 / 16.0),
/// )
/// .scheme(PrefetchScheme::Conven4Repl)
/// .run();
/// assert_eq!(result.scheme, "Conven4+Repl");
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    config: SystemConfig,
    workload: WorkloadSpec,
    scheme: PrefetchScheme,
    trace: Option<TraceConfig>,
}

impl Experiment {
    /// Creates an experiment with the default scheme (`NoPref`).
    pub fn new(config: SystemConfig, workload: WorkloadSpec) -> Self {
        Experiment {
            config,
            workload,
            scheme: PrefetchScheme::NoPref,
            trace: None,
        }
    }

    /// Selects the prefetching scheme.
    pub fn scheme(mut self, scheme: PrefetchScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Overrides the system configuration.
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Enables cycle-stamped event tracing; the result then carries the
    /// trace in [`RunResult::trace`](crate::RunResult::trace). The
    /// `ULMT_TRACE` environment variable provides a process-wide default
    /// (see [`TraceConfig::from_env`]).
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// The workload this experiment runs.
    pub fn workload(&self) -> &WorkloadSpec {
        &self.workload
    }

    /// Runs the simulation to completion.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; use
    /// [`Experiment::run_guarded`] to receive it as a [`ConfigError`].
    pub fn run(self) -> RunResult {
        self.run_guarded()
            .unwrap_or_else(|e| panic!("invalid SystemConfig: {e}"))
    }

    /// Runs the simulation, returning an invalid configuration as a typed
    /// [`ConfigError`] instead of panicking.
    pub fn run_guarded(self) -> Result<RunResult, ConfigError> {
        let mut sim = SystemSim::try_new(self.config, &self.workload, self.scheme)?;
        if let Some(cfg) = self.trace.or_else(TraceConfig::from_env) {
            sim.set_tracer(SharedTracer::new(cfg));
        }
        Ok(sim.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulmt_workloads::App;

    #[test]
    fn guarded_run_reports_invalid_config() {
        let mut bad = SystemConfig::small();
        bad.queues.observation = 0;
        let err = Experiment::new(bad, WorkloadSpec::new(App::Tree).scale(1.0 / 16.0))
            .run_guarded()
            .unwrap_err();
        assert!(err.to_string().contains("observation"), "{err}");
    }

    #[test]
    fn builder_roundtrip() {
        let e = Experiment::new(
            SystemConfig::default(),
            WorkloadSpec::new(App::Gap).scale(1.0 / 128.0).iterations(2),
        )
        .scheme(PrefetchScheme::Base);
        assert_eq!(e.workload().app, App::Gap);
        let r = e.run();
        assert_eq!(r.scheme, "Base");
        assert_eq!(r.app, "Gap");
    }
}
