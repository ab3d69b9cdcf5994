//! `sim-mcf`: the Figure 7 pair NoPref and Conven4+Repl on Mcf at the
//! `mid` profile, run serially through `Experiment::run`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ulmt_bench::profile::Profile;
use ulmt_core::table::{Base, Replicated, TableParams};
use ulmt_core::UlmtAlgorithm;
use ulmt_memproc::{MemProcConfig, MemProcessor};
use ulmt_simcore::LineAddr;
use ulmt_system::{l2_miss_stream_with, Experiment, PrefetchScheme, RunResult, SystemSim};
use ulmt_workloads::{App, WorkloadSpec};

use crate::host::{self, report_peak_rss, CpuTicks, RssGrowth};
use crate::report::Report;
use crate::span::Spans;
use crate::stats::{median, slow_latency, slow_rate, Ratio};
use crate::Opts;

/// The two schemes of a round: the control and the paper's best generic
/// scheme.
const SCHEMES: [(PrefetchScheme, &str); 2] = [
    (PrefetchScheme::NoPref, "nopref"),
    (PrefetchScheme::Conven4Repl, "c4repl"),
];

/// Fingerprints of the pair at `--seed 0` (the workload generator's
/// default seed), recorded from the repository at the commit that added
/// this benchmark. A change that moves any simulated statistic moves
/// these.
const RECORDED: [u64; 2] = [0xd707_bdea_aa16_f153, 0x5732_d201_3bfe_1740];

/// Set-up repetitions before the warm-up round and after each timed
/// round; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds run even when `--seconds` is shorter: enough for
/// `rss.growth_mb`.
const MIN_ROUNDS: usize = host::RSS_MIN_ROUNDS;
/// Repetitions of each per-layer kernel measurement.
const LAYER_REPS: usize = 3;

/// The workload at bench seed `seed`: `--seed 0` is the generator's
/// default seed, every other seed offsets it.
fn workload(profile: &Profile, seed: u64) -> WorkloadSpec {
    let spec = profile.workload(App::Mcf);
    let default_seed = spec.seed;
    spec.seed(default_seed.wrapping_add(seed))
}

/// Correlation-table rows the simulator gives a workload (a power of two
/// covering its footprint, at least 1024), so the offline kernels below
/// probe tables of the simulated size. The simulator keeps its sizing
/// rule private; [`check_table_rows`] proves this copy agrees with it.
fn table_rows(spec: &WorkloadSpec) -> usize {
    (spec.footprint_lines() as usize)
        .next_power_of_two()
        .max(1024)
}

/// Rebuilds the Conven4+Repl machine from its public parts with a
/// [`table_rows`]-sized table and checks that it simulates exactly what
/// `Experiment::run` did: a different table size changes what the table
/// learns and so the fingerprint.
fn check_table_rows(report: &mut Report, profile: &Profile, spec: &WorkloadSpec, want: &RunResult) {
    let scheme = PrefetchScheme::Conven4Repl;
    let setup = scheme.setup(spec.app, table_rows(spec));
    let memproc = setup.ulmt.as_ref().map(|algorithm| {
        let cfg = MemProcConfig {
            location: setup.location,
            ..profile.config.memproc
        };
        MemProcessor::new(cfg, algorithm.build())
    });
    let sim = SystemSim::try_from_parts_hinted(
        profile.config,
        Box::new(spec.build()),
        setup.conven4,
        memproc,
        setup.verbose,
        scheme.label().to_string(),
        spec.app.name().to_string(),
        spec.footprint_lines(),
    );
    match sim {
        Ok(sim) => {
            let got = sim.run().fingerprint();
            report.check(got == want.fingerprint(), || {
                format!(
                    "c4repl with {} table rows: fingerprint {got:016x} != simulated {:016x}; \
                     table_rows no longer matches the simulator's sizing",
                    table_rows(spec),
                    want.fingerprint()
                )
            });
        }
        Err(e) => report.violation(format!("c4repl rebuilt from parts: {e}")),
    }
}

/// One round: both schemes, each result with the host time its
/// `Experiment::run` call took.
struct Round {
    results: Vec<(RunResult, Duration)>,
    traced: bool,
    /// Share of vCPU time the host stole while the round ran.
    steal: f64,
}

impl Round {
    fn refs(&self) -> u64 {
        self.results.iter().map(|(r, _)| r.refs).sum()
    }

    fn wall(&self) -> Duration {
        self.results.iter().map(|(_, t)| *t).sum()
    }

    fn refs_per_s(&self) -> f64 {
        self.refs() as f64 / self.wall().as_secs_f64()
    }
}

fn run_round(
    profile: &Profile,
    spec: &WorkloadSpec,
    id: u64,
    spans: &mut Spans,
    report: &mut Report,
) -> Option<Round> {
    let traced = spans.enabled();
    let ticks = CpuTicks::now();
    spans.enter("sim.round", id);
    let mut results = Vec::with_capacity(SCHEMES.len());
    for (scheme, label) in SCHEMES {
        let experiment = Experiment::new(profile.config, spec.clone()).scheme(scheme);
        report.attempted += 1;
        let name = if label == "nopref" {
            "system.experiment.run.nopref"
        } else {
            "system.experiment.run.c4repl"
        };
        let start = Instant::now();
        let outcome = spans.scope(name, id, || experiment.run_guarded());
        let wall = start.elapsed();
        match outcome {
            Ok(r) => results.push((r, wall)),
            Err(e) => {
                report.failed += 1;
                report.violation(format!("{label} run failed: {e}"));
            }
        }
    }
    spans.exit();
    let steal = ticks.map_or(0.0, CpuTicks::steal_share_since);
    (results.len() == SCHEMES.len()).then_some(Round {
        results,
        traced,
        steal,
    })
}

/// The exact identities every result must satisfy.
fn check_identities(report: &mut Report, label: &str, r: &RunResult) {
    let p = &r.prefetch;
    report.check(
        p.issued
            == p.delayed_hits
                + p.accepted
                + p.redundant
                + p.dropped_other
                + p.squashed_at_nb
                + p.inflight_at_end,
        || format!("{label}: issued prefetches do not partition: {p:?}"),
    );
    report.check(
        p.accepted == p.hits + p.replaced + p.untouched_at_end,
        || format!("{label}: accepted pushes do not partition: {p:?}"),
    );
    report.check(r.breakdown.total() == r.exec_cycles, || {
        format!(
            "{label}: stall breakdown {} != exec_cycles {}",
            r.breakdown.total(),
            r.exec_cycles
        )
    });
}

pub fn run(opts: &Opts, report: &mut Report, spans: &mut Spans) {
    let profile = Profile::mid();
    let spec = workload(&profile, opts.seed);

    // Set-up: generate the input (the generator's core pattern) and
    // construct both simulated machines. It is repeated between the timed
    // rounds too, so its median sees the same host as the rounds do.
    let mut setups = Vec::new();
    let mut set_up = |report: &mut Report| -> Option<()> {
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let spec = workload(&profile, opts.seed);
            black_box(spec.build());
            for (scheme, label) in SCHEMES {
                if let Err(e) = SystemSim::try_new(profile.config, &spec, scheme) {
                    report.violation(format!("{label}: machine construction failed: {e}"));
                    return None;
                }
            }
            setups.push(start.elapsed().as_secs_f64());
        }
        Some(())
    };
    if set_up(report).is_none() {
        return;
    }

    // One untimed warm-up round, then the timed rounds. A traced run
    // alternates traced and untraced rounds so host drift hits both
    // alike; end-to-end numbers come only from the untraced ones.
    let Some(warmup) = run_round(&profile, &spec, 0, spans, report) else {
        return;
    };
    report_peak_rss(report);
    let mut rss = RssGrowth::default();
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < opts.measure {
        spans.set_enabled(opts.trace && rounds.len() % 2 == 1);
        let id = rounds.len() as u64 + 1;
        let Some(round) = run_round(&profile, &spec, id, spans, report) else {
            return;
        };
        rounds.push(round);
        rss.after_round(report, rounds.len());
        if set_up(report).is_none() {
            return;
        }
    }
    spans.set_enabled(false);
    report.e2e("setup_s", median(&setups), "s");

    let first = &warmup;
    for (i, (r, _)) in first.results.iter().enumerate() {
        check_identities(report, SCHEMES[i].1, r);
    }
    for round in &rounds {
        for (i, ((a, _), (b, _))) in first.results.iter().zip(&round.results).enumerate() {
            report.check(a.fingerprint() == b.fingerprint(), || {
                format!(
                    "{}: fingerprint {:016x} drifted to {:016x} between rounds",
                    SCHEMES[i].1,
                    a.fingerprint(),
                    b.fingerprint()
                )
            });
        }
    }
    // The recorded fingerprints: checked on the timed rounds at seed 0,
    // otherwise on one extra untimed round at seed 0.
    let golden = if opts.seed == 0 {
        None
    } else {
        run_round(&profile, &workload(&profile, 0), u64::MAX, spans, report)
    };
    let golden = golden.as_ref().unwrap_or(first);
    for (i, (r, _)) in golden.results.iter().enumerate() {
        report.check(r.fingerprint() == RECORDED[i], || {
            format!(
                "{}: fingerprint {:016x} at seed 0 != recorded {:016x}",
                SCHEMES[i].1,
                r.fingerprint(),
                RECORDED[i]
            )
        });
    }

    let (untraced, traced) = host::split(&rounds, |r| r.traced);
    let rates: Vec<f64> = untraced.iter().map(|r| r.refs_per_s()).collect();
    let round_ms: Vec<f64> = untraced
        .iter()
        .map(|r| r.wall().as_secs_f64() * 1e3)
        .collect();
    let (np, c4) = (&first.results[0].0, &first.results[1].0);
    // The user's wait for one Figure 7 pair; every round simulates the
    // same references, so this is the slow-rate round's time.
    report.e2e("latency_ms", slow_latency(&round_ms), "ms");
    report.layer("sim.refs_per_s", slow_rate(&rates), "1/s");
    report.layer(
        "sim.speedup",
        np.exec_cycles as f64 / c4.exec_cycles as f64,
        "ratio",
    );
    println!(
        "info  sim-mcf: {} rounds ({} measured), {} refs per round, seed {}; refs/s per round: {:.0?}",
        rounds.len(),
        untraced.len(),
        first.refs(),
        opts.seed,
        rates
    );

    if opts.trace {
        layer_metrics(report, spans, &profile, &spec, &rounds, &untraced, &traced);
    }
}

/// Per-layer metrics of the traced run: host time per layer from the
/// rounds and from each layer's public kernel on its own, the exact
/// simulated statistics, and the tracing overhead.
fn layer_metrics(
    report: &mut Report,
    spans: &mut Spans,
    profile: &Profile,
    spec: &WorkloadSpec,
    rounds: &[Round],
    untraced: &[&Round],
    traced: &[&Round],
) {
    host::report_steal(report, &rounds.iter().map(|r| r.steal).collect::<Vec<_>>());
    let ns_per_ref = |rs: &[&Round], i: usize| {
        median(
            &rs.iter()
                .map(|r| {
                    let (res, t) = &r.results[i];
                    t.as_nanos() as f64 / res.refs as f64
                })
                .collect::<Vec<_>>(),
        )
    };
    let np_ns = ns_per_ref(untraced, 0);
    let c4_ns = ns_per_ref(untraced, 1);
    report.layer("system.ns_per_ref.nopref", np_ns, "ns");
    report.layer("system.ns_per_ref.c4repl", c4_ns, "ns");
    report.layer("system.ulmt_ns_per_ref", c4_ns - np_ns, "ns");
    let wall = |rs: &[&Round]| {
        median(
            &rs.iter()
                .map(|r| r.wall().as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    report.layer(
        "trace.overhead_ratio",
        wall(traced) / wall(untraced),
        "ratio",
    );
    report.count("trace.rounds", traced.len() as u64);

    // Each layer's public kernel on its own, traced.
    spans.set_enabled(true);
    let mut gen_ns = Vec::new();
    let mut replay_ns = Vec::new();
    let mut refs = 0u64;
    for rep in 0..LAYER_REPS as u64 {
        let t = Instant::now();
        refs = spans.scope("workloads.build", rep, || {
            black_box(spec.build()).count() as u64
        });
        gen_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        spans.scope("system.l2_miss_stream", rep, || {
            black_box(l2_miss_stream_with(&profile.config, spec).count())
        });
        replay_ns.push(t.elapsed().as_nanos() as f64);
    }
    let gen = median(&gen_ns) / refs as f64;
    report.layer("workloads.gen_ns_per_ref", gen, "ns");
    report.layer(
        "cache.replay_ns_per_ref",
        median(&replay_ns) / refs as f64 - gen,
        "ns",
    );
    let misses: Vec<LineAddr> = l2_miss_stream_with(&profile.config, spec).collect();
    let rows = table_rows(spec);
    check_table_rows(report, profile, spec, &rounds[0].results[1].0);
    let mut kernel = |name: &'static str, mut table: Box<dyn UlmtAlgorithm>, rep: u64| {
        let t = Instant::now();
        let prefetches = spans.scope(name, rep, || {
            misses
                .iter()
                .map(|&m| table.process_miss(m).prefetches.len())
                .sum::<usize>()
        });
        black_box(prefetches);
        t.elapsed().as_nanos() as f64 / misses.len() as f64
    };
    let base: Vec<f64> = (0..LAYER_REPS as u64)
        .map(|rep| {
            kernel(
                "core.process_miss.base",
                Box::new(Base::new(TableParams::base_default(rows))),
                rep,
            )
        })
        .collect();
    let repl: Vec<f64> = (0..LAYER_REPS as u64)
        .map(|rep| {
            kernel(
                "core.process_miss.repl",
                Box::new(Replicated::new(TableParams::repl_default(rows))),
                rep,
            )
        })
        .collect();
    spans.set_enabled(false);
    report.layer("core.miss_ns.base", median(&base), "ns");
    report.layer("core.miss_ns.repl", median(&repl), "ns");
    report.count("core.misses", misses.len() as u64);
    report.count("core.table_rows", rows as u64);

    for (name, t) in spans.self_times() {
        report.layer(
            &format!("self_ms.{name}"),
            t.self_ns as f64 / t.count as f64 / 1e6,
            "ms",
        );
    }

    // Simulated, exact: one cause per cycle, prefetch effectiveness with
    // its bases, memory-processor and memory-system load.
    let (np, c4) = (&rounds[0].results[0].0, &rounds[0].results[1].0);
    report.count("sim.refs", np.refs);
    for (r, label) in [(np, "nopref"), (c4, "c4repl")] {
        let total = r.exec_cycles as f64;
        report.count(&format!("sim.exec_cycles.{label}"), r.exec_cycles);
        report.layer(
            &format!("cpu.busy_frac.{label}"),
            r.breakdown.busy as f64 / total,
            "frac",
        );
        report.layer(
            &format!("cpu.upto_l2_frac.{label}"),
            r.breakdown.upto_l2 as f64 / total,
            "frac",
        );
        report.layer(
            &format!("cpu.beyond_l2_frac.{label}"),
            r.breakdown.beyond_l2 as f64 / total,
            "frac",
        );
        report.count(&format!("l2.misses.{label}"), r.l2_misses);
        report.layer(
            &format!("fsb.utilization.{label}"),
            r.fsb_utilization,
            "frac",
        );
        report.layer(
            &format!("dram.row_hit_ratio.{label}"),
            r.dram_row_hit_ratio,
            "frac",
        );
    }
    let useful = c4.prefetch.hits + c4.prefetch.delayed_hits;
    report.count("prefetch.issued", c4.prefetch.issued);
    report.ratio(
        "prefetch.accuracy",
        Ratio {
            part: useful,
            base: c4.prefetch.issued,
        },
    );
    report.ratio(
        "prefetch.coverage",
        Ratio {
            part: useful,
            base: np.l2_misses,
        },
    );
    if let Some(u) = &c4.ulmt {
        report.layer("memproc.occupancy_cycles", u.occupancy.mean(), "cycles");
        report.layer("memproc.response_cycles", u.response.mean(), "cycles");
    }
    report.count("queue2.dropped", c4.observations_dropped);
    report.count("queue3.overflow", c4.prefetch_q_overflow);
}
