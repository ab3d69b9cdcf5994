//! Ablation studies of the design choices DESIGN.md calls out:
//! `NumLevels` depth, `NumSucc` width, Filter size, observation-queue
//! depth, L2 MSHR count, and Verbose vs Non-Verbose mode.

use std::cell::Cell;

use ulmt_core::table::TableParams;
use ulmt_core::AlgorithmSpec;
use ulmt_memproc::MemProcessor;
use ulmt_system::{Experiment, PrefetchScheme, SystemConfig, SystemSim};
use ulmt_workloads::App;

use crate::runner::Runner;

/// One speedup over NoPref that the report prints, computed on the
/// worker pool.
type Job<'a> = Box<dyn FnOnce() -> f64 + Send + 'a>;

/// The ablation report. Each line starts with its newline, so the text
/// ends without one, like the rest of the output it is printed with.
///
/// The NoPref baselines at the profile's own config come from `runner`;
/// every other simulation fans out across the `ulmt_system::runner`
/// worker pool.
pub fn ablation(runner: &mut Runner) -> String {
    let profile = &runner.profile().clone();
    let rows_for = |app: App| {
        (profile.workload(app).footprint_lines() as usize)
            .next_power_of_two()
            .max(1024)
    };
    let repl = |app: App, edit: &dyn Fn(&mut TableParams)| {
        let mut params = TableParams::repl_default(rows_for(app));
        edit(&mut params);
        AlgorithmSpec::Repl(params)
    };
    let simulations = Cell::new(0);
    runner.warm_grid(&[App::Mst, App::Parser, App::Cg], &[PrefetchScheme::NoPref]);
    // `app` run with an explicit ULMT algorithm (bypassing the scheme
    // presets) at the profile's own config.
    let mut alg = |app: App, spec: AlgorithmSpec, verbose: bool, conven4: bool| -> Job {
        simulations.set(simulations.get() + 1);
        let base = runner.run(app, PrefetchScheme::NoPref).exec_cycles;
        Box::new(move || {
            let memproc = MemProcessor::new(profile.config.memproc, spec.build());
            SystemSim::try_from_parts_hinted(
                profile.config,
                Box::new(profile.workload(app).build()),
                conven4,
                Some(memproc),
                verbose,
                spec.label(),
                app.name().to_string(),
                0,
            )
            .expect("the profile's config is valid")
            .run()
            .speedup_vs(base)
        })
    };
    // `scheme` on `app`, and NoPref, at the profile's config changed by
    // `edit`.
    let at = |edit: &dyn Fn(&mut SystemConfig), app: App, scheme: PrefetchScheme| -> Job {
        simulations.set(simulations.get() + 2);
        let mut config = profile.config;
        edit(&mut config);
        Box::new(move || {
            let spec = profile.workload(app);
            let base = Experiment::new(config, spec.clone()).run().exec_cycles;
            Experiment::new(config, spec)
                .scheme(scheme)
                .run()
                .speedup_vs(base)
        })
    };

    let sections: Vec<(&str, Vec<(String, Job)>)> = vec![
        (
            "NumLevels sweep (Replicated, MST) — the Table 5 deeper-levels customization:",
            [1usize, 2, 3, 4, 6]
                .map(|n| {
                    let spec = repl(App::Mst, &|p| p.num_levels = n);
                    (format!("NumLevels={n}"), alg(App::Mst, spec, false, false))
                })
                .into(),
        ),
        (
            "NumSucc sweep (Replicated, Parser — noisy successors):",
            [1usize, 2, 4]
                .map(|n| {
                    let spec = repl(App::Parser, &|p| p.num_succ = n);
                    (format!("NumSucc={n}"), alg(App::Parser, spec, false, false))
                })
                .into(),
        ),
        (
            "Verbose vs Non-Verbose mode (Conven4 + Repl, CG):",
            [false, true]
                .map(|v| {
                    let spec = AlgorithmSpec::repl(rows_for(App::Cg));
                    (format!("verbose={v}"), alg(App::Cg, spec, v, true))
                })
                .into(),
        ),
        (
            "Filter size sweep (Repl, Equake):",
            [1usize, 8, 32, 128]
                .map(|n| {
                    let point = at(&|c| c.filter_entries = n, App::Equake, PrefetchScheme::Repl);
                    (format!("filter={n:>4}"), point)
                })
                .into(),
        ),
        (
            "Observation queue (queue 2) depth sweep (Repl, CG — fast misses):",
            [1usize, 4, 16, 64]
                .map(|n| {
                    let point = at(&|c| c.queues.observation = n, App::Cg, PrefetchScheme::Repl);
                    (format!("depth={n:>3}"), point)
                })
                .into(),
        ),
        (
            "L2 MSHR sweep (Conven4+Repl, Equake — prefetch-heavy):",
            [2usize, 4, 8, 16]
                .map(|n| {
                    let scheme = PrefetchScheme::Conven4Repl;
                    (
                        format!("mshrs={n:>3}"),
                        at(&|c| c.l2.mshrs = n, App::Equake, scheme),
                    )
                })
                .into(),
        ),
    ];

    let mut jobs = Vec::new();
    let layout: Vec<(&str, Vec<String>)> = sections
        .into_iter()
        .map(|(title, lines)| {
            let labels = lines.into_iter().map(|(label, job)| {
                jobs.push(job);
                label
            });
            (title, labels.collect())
        })
        .collect();
    eprintln!(
        "  running {} simulations on {} workers ...",
        simulations.get(),
        ulmt_system::worker_count().min(simulations.get())
    );
    let mut speedups = ulmt_system::parallel_map(jobs, |job| job()).into_iter();
    let mut out = format!("Ablation studies (profile: {})\n", profile.name);
    for (i, (title, labels)) in layout.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { "\n\n" });
        out.push_str(title);
        for label in labels {
            let s = speedups.next().expect("one speedup per line");
            out.push_str(&format!("\n  {label}: speedup {s:.2}"));
        }
    }
    out
}
