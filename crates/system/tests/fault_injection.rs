//! Determinism and no-panic guarantees of the fault-injection subsystem.
//!
//! Two pillars, both acceptance criteria of the fault model:
//!
//! 1. **Determinism** — the same experiment with the same fault seed
//!    produces bit-identical results and equal `FaultReport`s, run
//!    back-to-back or across processes.
//! 2. **Graceful absorption** — no fault configuration, however
//!    pathological, can panic the simulator; every injected fault is
//!    absorbed by an existing degradation path.

use ulmt_simcore::{FaultConfig, Pcg32};
use ulmt_system::{Experiment, PrefetchScheme, SystemConfig};
use ulmt_workloads::{App, WorkloadSpec};

fn spec(app: App) -> WorkloadSpec {
    WorkloadSpec::new(app).scale(1.0 / 16.0).iterations(2)
}

#[test]
fn fixed_seed_gives_identical_fault_reports_back_to_back() {
    let run = || {
        Experiment::new(SystemConfig::small(), spec(App::Mcf))
            .scheme(PrefetchScheme::Repl)
            .faults(FaultConfig::stress(42))
            .run()
    };
    let a = run();
    let b = run();
    let (fa, fb) = (a.fault.clone().unwrap(), b.fault.clone().unwrap());
    assert_eq!(fa, fb, "fault reports diverged across identical seeds");
    assert!(fa.injected.total() > 0, "stress config injected nothing");
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "results diverged across identical seeds"
    );
}

#[test]
fn different_fault_seeds_give_different_schedules() {
    let run = |seed| {
        Experiment::new(SystemConfig::small(), spec(App::Mcf))
            .scheme(PrefetchScheme::Repl)
            .faults(FaultConfig::stress(seed))
            .run()
    };
    let a = run(1);
    let b = run(2);
    let (fa, fb) = (a.fault.unwrap(), b.fault.unwrap());
    // Counts could coincide by chance for some seed pair, but these two
    // are checked-in constants: if they ever collide, pick another pair.
    assert_ne!(
        fa.injected, fb.injected,
        "seeds 1 and 2 produced identical schedules"
    );
}

#[test]
fn every_injected_fault_is_absorbed() {
    for seed in 0..4 {
        for scheme in [PrefetchScheme::Repl, PrefetchScheme::Conven4Repl] {
            let r = Experiment::new(SystemConfig::small(), spec(App::Tree))
                .scheme(scheme)
                .faults(FaultConfig::stress(seed))
                .run();
            let report = r.fault.unwrap();
            assert!(
                report.fully_absorbed(),
                "seed {seed} {scheme:?}: {} injected but only {} absorbed",
                report.injected.total(),
                report.absorbed
            );
        }
    }
}

/// Randomized-config stress: drive the simulator with fault
/// configurations drawn from a seeded RNG — including out-of-range
/// probabilities and extreme magnitudes, which `FaultPlan` must sanitize
/// — and assert that no configuration panics the simulator.
#[test]
fn no_fault_configuration_panics_the_simulator() {
    let mut rng = Pcg32::seed_from_u64(0xFAB7_0001);
    let mut prob = |scale: f64| rng_f64(&mut rng) * scale;
    for trial in 0..12 {
        let cfg = FaultConfig {
            seed: trial,
            // Deliberately allow probabilities above 1.0: sanitization
            // must clamp them rather than let the schedule misbehave.
            drop_observation: prob(1.5),
            duplicate_observation: prob(1.5),
            delay_observation: prob(1.5),
            max_observation_delay: 1 + (trial * 977) % 5000,
            memproc_stall: prob(1.5),
            max_memproc_stall: 1 + (trial * 313) % 2000,
            dram_busy: prob(1.5),
            max_dram_busy: 1 + (trial * 131) % 1000,
            queue_reduction_after: if trial % 2 == 0 {
                Some(trial * 50)
            } else {
                None
            },
        };
        let app = [App::Mcf, App::Tree, App::Gap][(trial % 3) as usize];
        let r = Experiment::new(SystemConfig::small(), spec(app))
            .scheme(PrefetchScheme::Repl)
            .faults(cfg)
            .run();
        assert!(r.exec_cycles > 0, "trial {trial} produced an empty run");
        let report = r.fault.unwrap();
        assert!(report.fully_absorbed(), "trial {trial}: {report:?}");
    }
}

/// Faults under the *pathological* depth-1 queue configuration: the
/// combination of mid-run queue reduction and already-minimal queues must
/// still complete.
#[test]
fn faults_on_depth_one_queues_complete() {
    let mut cfg = SystemConfig::small();
    cfg.queues.demand = 1;
    cfg.queues.observation = 1;
    cfg.queues.prefetch = 1;
    let r = Experiment::new(cfg, spec(App::Mcf))
        .scheme(PrefetchScheme::Repl)
        .faults(FaultConfig::stress(9))
        .run();
    assert!(r.exec_cycles > 0);
    assert!(r.fault.unwrap().fully_absorbed());
}

fn rng_f64(rng: &mut Pcg32) -> f64 {
    // 32 random bits into [0, 1).
    rng.next_u32() as f64 / (u32::MAX as f64 + 1.0)
}
