//! Acceptance test for the resilient sweep harness.
//!
//! The contract: a sweep containing a panicking job and an
//! over-cycle-budget job still returns a `SweepResult` in which every
//! *other* job is bit-identical (by fingerprint) to a fault-free serial
//! run, with the failed jobs itemized — one bad experiment must never
//! poison a `run_experiments` sweep.

use ulmt_simcore::FaultConfig;
use ulmt_system::runner::run_experiments_with;
use ulmt_system::{Experiment, PrefetchScheme, SystemConfig};
use ulmt_workloads::{App, WorkloadSpec};

fn spec(app: App) -> WorkloadSpec {
    WorkloadSpec::new(app).scale(1.0 / 16.0).iterations(2)
}

fn healthy_experiments() -> Vec<Experiment> {
    [App::Mcf, App::Gap, App::Tree]
        .into_iter()
        .flat_map(|app| {
            [PrefetchScheme::NoPref, PrefetchScheme::Repl]
                .into_iter()
                .map(move |s| Experiment::new(SystemConfig::small(), spec(app)).scheme(s))
        })
        .collect()
}

#[test]
fn sweep_survives_panicking_and_runaway_jobs() {
    // The reference: a fault-free serial sweep of the healthy jobs.
    let reference = run_experiments_with(healthy_experiments(), 1);
    assert!(reference.failed.is_empty());
    let reference_prints: Vec<u64> = reference.results.iter().map(|r| r.fingerprint()).collect();

    // The hostile sweep: the same healthy jobs with two saboteurs
    // spliced in — a poison-pill job that panics mid-simulation, and a
    // job whose cycle budget guarantees watchdog cancellation.
    let mut experiments = healthy_experiments();
    let poison = FaultConfig {
        panic_after_observations: Some(5),
        ..FaultConfig::disabled(1)
    };
    experiments.insert(
        2,
        Experiment::new(SystemConfig::small(), spec(App::Mcf))
            .scheme(PrefetchScheme::Repl)
            .faults(poison)
            .twin(false),
    );
    experiments.insert(
        5,
        Experiment::new(SystemConfig::small(), spec(App::Tree))
            .scheme(PrefetchScheme::Repl)
            .cycle_budget(10),
    );

    let sweep = run_experiments_with(experiments, 4);

    // Both saboteurs are itemized with their labels and causes...
    assert_eq!(sweep.failed.len(), 2, "{:?}", sweep.failed);
    assert_eq!(sweep.completed(), reference.results.len());
    assert_eq!(sweep.total_jobs(), reference.results.len() + 2);
    let panic_failure = sweep
        .failed
        .iter()
        .find(|f| f.index == 2)
        .expect("poison job");
    assert!(
        panic_failure.error.contains("panicked") && panic_failure.error.contains("poison pill"),
        "{panic_failure:?}"
    );
    let budget_failure = sweep
        .failed
        .iter()
        .find(|f| f.index == 5)
        .expect("runaway job");
    assert!(
        budget_failure.error.contains("cycle budget"),
        "{budget_failure:?}"
    );
    assert_eq!(budget_failure.app, "Tree");
    assert_eq!(budget_failure.scheme, "Repl");

    // ...and every healthy job is bit-identical to the fault-free serial
    // reference, in order.
    let survivors: Vec<u64> = sweep.results.iter().map(|r| r.fingerprint()).collect();
    assert_eq!(
        survivors, reference_prints,
        "surviving jobs diverged from the fault-free serial sweep"
    );

    // The human-readable report mentions the failures.
    let report = sweep.throughput_report();
    assert!(report.contains("FAILED"), "{report}");
    assert!(report.contains("6/8 runs completed"), "{report}");
}

#[test]
fn invalid_config_fails_without_retry_and_without_poisoning_the_sweep() {
    let mut bad = SystemConfig::small();
    bad.queues.observation = 0;
    let experiments = vec![
        Experiment::new(bad, spec(App::Tree)).scheme(PrefetchScheme::Repl),
        Experiment::new(SystemConfig::small(), spec(App::Tree)).scheme(PrefetchScheme::Repl),
    ];
    let sweep = run_experiments_with(experiments, 2);
    assert_eq!(sweep.completed(), 1);
    assert_eq!(sweep.failed.len(), 1);
    assert!(
        sweep.failed[0].error.contains("observation"),
        "{:?}",
        sweep.failed[0]
    );
}
