//! The repository's benchmark: one command that runs a workload, checks
//! its outputs, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-mcf --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of every workload's
//! layers with `--trace 1`, in both cases exactly the names
//! `BENCHMARK.json` lists. The process exits non-zero when a correctness
//! gate fails. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod host;
mod report;
mod sim;
mod span;
mod stats;
mod svc;

use std::path::PathBuf;
use std::time::Duration;

use report::Report;
use span::Spans;

const USAGE: &str =
    "usage: ulmt-perfbench --workload <sim-mcf|svc-inproc-large> --seed <n> --seconds <s> --trace <0|1>";

/// The workloads this benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SimMcf,
    SvcInprocLarge,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "sim-mcf" => Some(Workload::SimMcf),
            "svc-inproc-large" => Some(Workload::SvcInprocLarge),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SimMcf => "sim-mcf",
            Workload::SvcInprocLarge => "svc-inproc-large",
        }
    }

    /// The other workload, whose layers a traced run measures too.
    fn other(self) -> Self {
        match self {
            Workload::SimMcf => Workload::SvcInprocLarge,
            Workload::SvcInprocLarge => Workload::SimMcf,
        }
    }

    fn run(self, opts: &Opts, report: &mut Report, spans: &mut Spans) {
        match self {
            Workload::SimMcf => sim::run(opts, report, spans),
            Workload::SvcInprocLarge => svc::run_inproc(opts, report, spans),
        }
    }
}

/// Command-line options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the timed section runs.
    pub measure: Duration,
    /// `true` for the traced run that reports per-layer metrics.
    pub trace: bool,
}

impl Opts {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            measure: Duration::from_secs_f64(seconds.unwrap_or(30.0)),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Where result files and traced spans are written: `perfbench/out`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The manifest naming every metric: `BENCHMARK.json` beside this package.
fn manifest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn main() {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Before any thread starts: nothing in the environment may change
    // what gets measured.
    let pinned = host::pin_environment();
    let host = host::Host::detect(pinned);
    println!("host {}", host.json());

    let mut report = Report::default();
    let mut spans = Spans::new(false);
    opts.workload.run(&opts, &mut report, &mut spans);
    // A traced result carries every layer of the benchmark: after this
    // workload's own rounds, the other workload runs its minimum number
    // of rounds for the layers only it reaches. Its end-to-end figures
    // are dropped.
    let mut side_spans = Spans::new(false);
    let other = opts.workload.other();
    if opts.trace {
        let side_opts = Opts {
            workload: other,
            measure: Duration::ZERO,
            ..opts
        };
        let mut side = Report::default();
        other.run(&side_opts, &mut side, &mut side_spans);
        report.absorb(side);
        report.count("trace.spans", (spans.len() + side_spans.len()) as u64);
    }
    report.count("ops.attempted", report.attempted);
    report.count("ops.failed", report.failed);
    match std::fs::read_to_string(manifest_path()) {
        Ok(manifest) => report.check_manifest(&manifest, opts.trace),
        Err(e) => report.violation(format!("cannot read BENCHMARK.json: {e}")),
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    if opts.trace {
        for (path, spans) in [
            (format!("{stem}.spans.jsonl"), &spans),
            (format!("{stem}.{}.spans.jsonl", other.name()), &side_spans),
        ] {
            let path = out_dir().join(path);
            if let Err(e) = spans.write_jsonl(&path) {
                eprintln!("warning: cannot write spans to {}: {e}", path.display());
            }
        }
    }
    report.print_lines();
    let result = format!(
        "{{\"workload\": {}, \"seed\": {}, \"host\": {}, \"violations\": [{}], \"end_to_end\": {}, \"per_layer\": {}}}\n",
        report::json_string(opts.workload.name()),
        opts.seed,
        host.json(),
        report
            .violations
            .iter()
            .map(|v| report::json_string(v))
            .collect::<Vec<_>>()
            .join(", "),
        report.json(false),
        report.json(true),
    );
    let path = out_dir().join(format!("{stem}.json"));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, result))
    {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    println!("{}", report.json(opts.trace));
    if !report.correct() {
        std::process::exit(1);
    }
}
