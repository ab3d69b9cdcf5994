//! One-stop experiment runner.

use ulmt_simcore::{CancelToken, Cycle, FaultConfig, FaultPlan, SharedTracer, TraceConfig};
use ulmt_workloads::WorkloadSpec;

use crate::config::SystemConfig;
use crate::error::RunError;
use crate::result::{RunResult, TwinDelta};
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
    faults: Option<FaultConfig>,
    twin: bool,
    cycle_budget: Option<Cycle>,
    cancel: Option<CancelToken>,
    trace: Option<TraceConfig>,
}

impl Experiment {
    /// Creates an experiment with the default scheme (`NoPref`).
    pub fn new(config: SystemConfig, workload: WorkloadSpec) -> Self {
        Experiment {
            config,
            workload,
            scheme: PrefetchScheme::NoPref,
            faults: None,
            twin: true,
            cycle_budget: None,
            cancel: None,
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

    /// Enables deterministic fault injection with the given configuration.
    ///
    /// Unless [`Experiment::twin`] is disabled, the run is followed by a
    /// fault-free twin of the same experiment and the result's
    /// [`FaultReport`](crate::result::FaultReport) carries the degradation
    /// deltas against it.
    pub fn faults(mut self, cfg: FaultConfig) -> Self {
        self.faults = Some(cfg);
        self
    }

    /// Controls whether a faulted run also executes its fault-free twin to
    /// fill [`TwinDelta`] (default `true`; no effect without faults).
    pub fn twin(mut self, twin: bool) -> Self {
        self.twin = twin;
        self
    }

    /// Installs a cycle-budget watchdog: [`Experiment::run_guarded`]
    /// returns an error once simulated time exceeds `budget` cycles.
    /// `ULMT_CYCLE_BUDGET` provides a process-wide default.
    pub fn cycle_budget(mut self, budget: Cycle) -> Self {
        self.cycle_budget = Some(budget);
        self
    }

    /// Installs a cooperative cancellation token checked in the
    /// simulation main loop.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enables cycle-stamped event tracing; the result then carries the
    /// trace in [`RunResult::trace`](crate::RunResult::trace). The
    /// `ULMT_TRACE` environment variable provides a process-wide default
    /// (see [`TraceConfig::from_env`]). A faulted run's fault-free twin
    /// is never traced: its only job is to fill
    /// [`TwinDelta`], and tracing it would double the trace memory.
    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// The workload this experiment runs.
    pub fn workload(&self) -> &WorkloadSpec {
        &self.workload
    }

    /// `(application, scheme)` labels, for per-job reporting.
    pub fn labels(&self) -> (String, String) {
        (
            self.workload.app.name().to_string(),
            self.scheme.label().to_string(),
        )
    }

    /// Runs the simulation to completion.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration or a fired watchdog; use
    /// [`Experiment::run_guarded`] to receive those as a [`RunError`].
    pub fn run(self) -> RunResult {
        self.run_guarded().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation, returning configuration and watchdog failures
    /// as typed errors instead of panicking. This is the entry point the
    /// resilient sweep harness uses.
    pub fn run_guarded(self) -> Result<RunResult, RunError> {
        let budget = self.cycle_budget.or_else(env_cycle_budget);
        let build = |faults: Option<FaultConfig>| -> Result<SystemSim, RunError> {
            let mut sim = SystemSim::try_new(self.config, &self.workload, self.scheme)?;
            if let Some(cfg) = faults {
                sim.set_faults(FaultPlan::new(cfg));
            }
            if let Some(b) = budget {
                sim.set_cycle_budget(b);
            }
            if let Some(token) = &self.cancel {
                sim.set_cancel_token(token.clone());
            }
            Ok(sim)
        };
        let mut primary = build(self.faults)?;
        if let Some(cfg) = self.trace.or_else(TraceConfig::from_env) {
            primary.set_tracer(SharedTracer::new(cfg));
        }
        let mut result = primary.run_guarded()?;
        if self.faults.is_some() && self.twin {
            // The fault-free twin shares budget and token: a degenerate
            // configuration cannot hide behind its own twin run. If the
            // twin aborts, the faulted result simply carries no deltas.
            if let Ok(base) = build(None)?.run_guarded() {
                let delta = TwinDelta {
                    base_exec_cycles: base.exec_cycles,
                    slowdown: result.exec_cycles as f64 / base.exec_cycles.max(1) as f64,
                    base_coverage_events: base.prefetch.hits + base.prefetch.delayed_hits,
                    coverage_events_delta: (result.prefetch.hits + result.prefetch.delayed_hits)
                        as i64
                        - (base.prefetch.hits + base.prefetch.delayed_hits) as i64,
                    l2_miss_delta: result.l2_misses as i64 - base.l2_misses as i64,
                };
                if let Some(report) = result.fault.as_mut() {
                    report.twin = Some(delta);
                }
            }
        }
        Ok(result)
    }
}

/// Process-wide default cycle budget: `ULMT_CYCLE_BUDGET` as a positive
/// integer, else none.
fn env_cycle_budget() -> Option<Cycle> {
    let raw = std::env::var("ULMT_CYCLE_BUDGET").ok()?;
    match raw.trim().parse::<Cycle>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
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
    fn guarded_run_enforces_cycle_budget() {
        let spec = WorkloadSpec::new(App::Tree).scale(1.0 / 16.0).iterations(2);
        let err = Experiment::new(SystemConfig::small(), spec)
            .cycle_budget(50)
            .run_guarded()
            .unwrap_err();
        assert!(err.to_string().contains("cycle budget"), "{err}");
    }

    #[test]
    fn faulted_run_carries_twin_delta() {
        let spec = WorkloadSpec::new(App::Mcf).scale(1.0 / 16.0).iterations(2);
        let r = Experiment::new(SystemConfig::small(), spec)
            .scheme(PrefetchScheme::Repl)
            .faults(ulmt_simcore::FaultConfig::stress(5))
            .run();
        let report = r.fault.expect("fault report present");
        assert!(report.injected.total() > 0);
        assert!(report.fully_absorbed(), "{report:?}");
        let twin = report.twin.expect("twin delta present");
        assert!(twin.base_exec_cycles > 0);
        assert!(
            twin.slowdown > 0.5 && twin.slowdown < 4.0,
            "slowdown {}",
            twin.slowdown
        );
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
