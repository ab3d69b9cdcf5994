//! Ablation studies of the design choices DESIGN.md calls out:
//! `NumLevels` depth, `NumSucc` width, Filter size, observation-queue
//! depth, L2 MSHR count, and Verbose vs Non-Verbose mode.

use ulmt_core::table::TableParams;
use ulmt_core::AlgorithmSpec;
use ulmt_memproc::MemProcessor;
use ulmt_system::{Experiment, PrefetchScheme, SystemConfig, SystemSim};
use ulmt_workloads::{App, WorkloadSpec};

use crate::runner::Runner;

/// Speedup over NoPref of `app` run with an explicit ULMT algorithm
/// (bypassing the scheme presets) at the profile's own config.
fn speedup_with_alg(
    runner: &mut Runner,
    app: App,
    alg: AlgorithmSpec,
    verbose: bool,
    conven4: bool,
) -> f64 {
    let base = runner.run(app, PrefetchScheme::NoPref).exec_cycles;
    let profile = runner.profile();
    let memproc = MemProcessor::new(profile.config.memproc, alg.build());
    SystemSim::from_parts(
        profile.config,
        Box::new(profile.workload(app).build()),
        conven4,
        Some(memproc),
        verbose,
        alg.label(),
        app.name().to_string(),
    )
    .run()
    .speedup_vs(base)
}

/// Speedup of `scheme` over NoPref, both at a changed `config`.
fn speedup_with_config(config: SystemConfig, spec: &WorkloadSpec, scheme: PrefetchScheme) -> f64 {
    let base = Experiment::new(config, spec.clone()).run().exec_cycles;
    Experiment::new(config, spec.clone())
        .scheme(scheme)
        .run()
        .speedup_vs(base)
}

/// The ablation report. Each line starts with its newline, so the text
/// ends without one, like the rest of the output it is printed with.
pub fn ablation(runner: &mut Runner) -> String {
    let profile = runner.profile().clone();
    let mut out = format!("Ablation studies (profile: {})\n", profile.name);
    let rows_for = |app: App| {
        (profile.workload(app).footprint_lines() as usize)
            .next_power_of_two()
            .max(1024)
    };

    out.push_str("\nNumLevels sweep (Replicated, MST) — the Table 5 deeper-levels customization:");
    for levels in [1usize, 2, 3, 4, 6] {
        let alg = AlgorithmSpec::Repl(TableParams {
            num_levels: levels,
            ..TableParams::repl_default(rows_for(App::Mst))
        });
        let s = speedup_with_alg(runner, App::Mst, alg, false, false);
        out.push_str(&format!("\n  NumLevels={levels}: speedup {s:.2}"));
    }

    out.push_str("\n\nNumSucc sweep (Replicated, Parser — noisy successors):");
    for succ in [1usize, 2, 4] {
        let alg = AlgorithmSpec::Repl(TableParams {
            num_succ: succ,
            ..TableParams::repl_default(rows_for(App::Parser))
        });
        let s = speedup_with_alg(runner, App::Parser, alg, false, false);
        out.push_str(&format!("\n  NumSucc={succ}: speedup {s:.2}"));
    }

    out.push_str("\n\nVerbose vs Non-Verbose mode (Conven4 + Repl, CG):");
    for verbose in [false, true] {
        let alg = AlgorithmSpec::repl(rows_for(App::Cg));
        let s = speedup_with_alg(runner, App::Cg, alg, verbose, true);
        out.push_str(&format!("\n  verbose={verbose}: speedup {s:.2}"));
    }

    let (equake, cg) = (profile.workload(App::Equake), profile.workload(App::Cg));
    out.push_str("\n\nFilter size sweep (Repl, Equake):");
    for entries in [1usize, 8, 32, 128] {
        let config = SystemConfig {
            filter_entries: entries,
            ..profile.config
        };
        let s = speedup_with_config(config, &equake, PrefetchScheme::Repl);
        out.push_str(&format!("\n  filter={entries:>4}: speedup {s:.2}"));
    }

    out.push_str("\n\nObservation queue (queue 2) depth sweep (Repl, CG — fast misses):");
    for depth in [1usize, 4, 16, 64] {
        let mut config = profile.config;
        config.queues.observation = depth;
        let s = speedup_with_config(config, &cg, PrefetchScheme::Repl);
        out.push_str(&format!("\n  depth={depth:>3}: speedup {s:.2}"));
    }

    out.push_str("\n\nL2 MSHR sweep (Conven4+Repl, Equake — prefetch-heavy):");
    for mshrs in [2usize, 4, 8, 16] {
        let mut config = profile.config;
        config.l2.mshrs = mshrs;
        let s = speedup_with_config(config, &equake, PrefetchScheme::Conven4Repl);
        out.push_str(&format!("\n  mshrs={mshrs:>3}: speedup {s:.2}"));
    }
    out
}
