//! Diagnostic runner: one application under every scheme, with the full
//! counter set on one line per run — the quickest way to see *why* a
//! scheme behaves as it does.
//!
//! ```text
//! cargo run --release -p ulmt-bench --bin inspect -- [app]
//! ULMT_SCALE=paper cargo run --release -p ulmt-bench --bin inspect -- mcf
//! ```
//!
//! The `trace` leg runs one traced experiment, cross-validates every
//! aggregate counter against the event stream, and exports the trace for
//! Perfetto:
//!
//! ```text
//! cargo run --release -p ulmt-bench --bin inspect -- trace [app] [out_dir]
//! ULMT_SCALE=small cargo run --release -p ulmt-bench --bin inspect -- trace mcf
//! ```
//!
//! The `figures` leg regenerates the paper: the tables, figures and
//! ablation report named by id (`table1`–`table5`, `fig5`–`fig11`,
//! `ablation`), or all of them in EXPERIMENTS.md order without an id:
//!
//! ```text
//! cargo run --release -p ulmt-bench --bin inspect -- figures [id...]
//! ULMT_SCALE=small cargo run --release -p ulmt-bench --bin inspect -- figures fig7
//! ```

use ulmt_bench::{paper, write_trace_chrome, write_trace_jsonl, Profile, Runner};
use ulmt_simcore::TraceConfig;
use ulmt_system::{validate_trace, Experiment, PrefetchScheme};
use ulmt_workloads::App;

fn parse_app(name: &str) -> Option<App> {
    App::ALL
        .iter()
        .copied()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

/// Runs one traced experiment, proves the counters against the trace,
/// and writes both export formats. Exits non-zero on any disagreement,
/// so CI can use this as the trace-validation gate.
fn trace_leg(args: &[String]) {
    let app = args.first().and_then(|n| parse_app(n)).unwrap_or(App::Mcf);
    let out_dir = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "target/traces".to_string());
    let profile = Profile::from_env();
    println!("trace: {} / Repl at {} scale", app, profile.name);
    // `ULMT_TRACE=<n>` raises the ring capacity for big workloads whose
    // event stream outgrows the default (truncation fails validation).
    let r = Experiment::new(profile.config, profile.workload(app))
        .scheme(PrefetchScheme::Repl)
        .trace(TraceConfig::from_env().unwrap_or_default())
        .run();
    match validate_trace(&r) {
        Ok(audit) => println!(
            "validated: {} events agree with the counters ({} checks)",
            audit.events, audit.checks
        ),
        Err(e) => {
            eprintln!("trace validation FAILED: {e}");
            std::process::exit(1);
        }
    }
    let trace = r.trace.as_ref().expect("traced run carries a trace");
    std::fs::create_dir_all(&out_dir).expect("create trace output dir");
    let stem = format!("{}/{}_repl", out_dir, app.name().to_lowercase());
    let jsonl = format!("{stem}.trace.jsonl");
    let chrome = format!("{stem}.trace.json");
    write_trace_jsonl(&jsonl, trace).expect("write jsonl trace");
    write_trace_chrome(&chrome, trace).expect("write chrome trace");
    println!("wrote {jsonl}");
    println!("wrote {chrome} (load in https://ui.perfetto.dev)");
}

/// Prints the selected artifacts from one shared runner. Exits non-zero
/// on an unknown id or a failed write.
fn figures_leg(ids: &[String]) {
    let artifacts = paper::select(ids).unwrap_or_else(|e| {
        eprintln!("figures: {e}");
        std::process::exit(2);
    });
    let mut runner = Runner::new(Profile::from_env());
    if let Err(e) = paper::print(&artifacts, &mut runner, &mut std::io::stdout().lock()) {
        eprintln!("figures: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace") => return trace_leg(&args[1..]),
        Some("figures") => return figures_leg(&args[1..]),
        _ => {}
    }
    let app = args.first().and_then(|n| parse_app(n)).unwrap_or(App::Mcf);
    let profile = Profile::from_env();
    let spec = profile.workload(app);
    println!(
        "inspect: {} at {} scale ({} L2 lines footprint)\n",
        app,
        profile.name,
        spec.footprint_lines()
    );
    let mut baseline = None;
    for scheme in PrefetchScheme::FIGURE7 {
        let r = Experiment::new(profile.config, spec.clone())
            .scheme(scheme)
            .run();
        let base = *baseline.get_or_insert(r.exec_cycles);
        println!("[speedup {:.2}]", r.speedup_vs(base));
        print!("{}", r.summary());
        println!();
    }
}
