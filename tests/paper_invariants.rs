//! Invariants lifted directly from the paper's text, checked end-to-end.

use ulmt::core::predict::PredictionScorer;
use ulmt::core::AlgorithmSpec;
use ulmt::system::{l2_miss_stream_with, Experiment, PrefetchScheme, SystemConfig};
use ulmt::workloads::{App, WorkloadSpec};

fn spec(app: App) -> WorkloadSpec {
    WorkloadSpec::new(app).scale(1.0 / 16.0).iterations(4)
}

#[test]
fn dependent_misses_dominate_the_200_280_bin() {
    // Figure 6: "The most significant bin is [200,280) ... since the
    // round-trip latency to memory is 208-243 cycles, dependent misses
    // are likely to fall in this bin."
    for app in [App::Mcf, App::Mst] {
        let r = Experiment::new(SystemConfig::small(), spec(app))
            .scheme(PrefetchScheme::NoPref)
            .run();
        let fr = r.inter_miss.fractions();
        assert!(fr[2] > 0.4, "{app}: [200,280) fraction {fr:?}");
    }
}

#[test]
fn ulmt_occupancy_stays_under_200_cycles() {
    // "the figure shows that, in all the algorithms, the occupancy time
    // is less than 200 cycles. Consequently, the ULMT is fast enough to
    // process most of the L2 misses."
    for scheme in [
        PrefetchScheme::Base,
        PrefetchScheme::Chain,
        PrefetchScheme::Repl,
    ] {
        let r = Experiment::new(SystemConfig::small(), spec(App::Mcf))
            .scheme(scheme)
            .run();
        let u = r.ulmt.expect("ULMT ran");
        assert!(
            u.occupancy.mean() < 200.0,
            "{scheme}: occupancy {}",
            u.occupancy.mean()
        );
    }
}

#[test]
fn repl_has_the_lowest_response_time() {
    // Figure 10: "Repl has the lowest response time".
    let response = |scheme| {
        let r = Experiment::new(SystemConfig::small(), spec(App::Gap))
            .scheme(scheme)
            .run();
        r.ulmt.expect("ULMT ran").response.mean()
    };
    let chain = response(PrefetchScheme::Chain);
    let repl = response(PrefetchScheme::Repl);
    assert!(repl < chain, "repl {repl} vs chain {chain}");
    // And the North Bridge location roughly doubles it.
    let repl_mc = response(PrefetchScheme::ReplMc);
    assert!(repl_mc > repl * 1.2, "mc {repl_mc} vs dram {repl}");
}

#[test]
fn repl_prediction_beats_chain_at_deep_levels() {
    // Figure 5: "Repl almost always outperforms Chain by a wide margin"
    // at levels 2 and 3.
    let config = SystemConfig::small();
    let wl = spec(App::Gap).iterations(8);
    let misses: Vec<_> = l2_miss_stream_with(&config, &wl).collect();
    let rows = (4 * wl.footprint_lines() as usize).next_power_of_two();
    let accuracy = |spec: AlgorithmSpec| {
        let mut alg = spec.build();
        let mut scorer = PredictionScorer::new(3);
        for &m in &misses {
            scorer.observe(alg.as_mut(), m);
        }
        (scorer.accuracy(2), scorer.accuracy(3))
    };
    let (chain2, chain3) = accuracy(AlgorithmSpec::chain(rows));
    let (repl2, repl3) = accuracy(AlgorithmSpec::repl(rows));
    assert!(repl2 >= chain2, "level2 repl {repl2} chain {chain2}");
    assert!(repl3 >= chain3, "level3 repl {repl3} chain {chain3}");
}

#[test]
fn beyond_l2_is_the_main_nopref_component() {
    // "On average, BeyondL2 is the most significant component of the
    // execution time under NoPref" (44% in the paper).
    let mut beyond = 0.0;
    for app in App::ALL {
        let wl = WorkloadSpec::new(app).scale(1.0 / 32.0).iterations(2);
        let r = Experiment::new(SystemConfig::small(), wl)
            .scheme(PrefetchScheme::NoPref)
            .run();
        beyond += r.breakdown.fraction_beyond_l2();
    }
    let avg = beyond / App::ALL.len() as f64;
    assert!(avg > 0.4, "average BeyondL2 fraction {avg}");
}

#[test]
fn memory_side_prefetching_adds_only_one_way_traffic() {
    // Figure 11's explanation: pushes add one-way (reply) traffic, so the
    // utilization increase stays moderate.
    let base = Experiment::new(SystemConfig::small(), spec(App::Mcf))
        .scheme(PrefetchScheme::NoPref)
        .run();
    let repl = Experiment::new(SystemConfig::small(), spec(App::Mcf))
        .scheme(PrefetchScheme::Repl)
        .run();
    assert!(repl.fsb_utilization > base.fsb_utilization);
    assert!(
        repl.fsb_utilization < 3.0 * base.fsb_utilization,
        "prefetching should not explode bus utilization: {} vs {}",
        repl.fsb_utilization,
        base.fsb_utilization
    );
}

#[test]
fn issued_prefetches_account_exactly_under_every_scheme() {
    // The queue-3 admission stages and push outcomes partition `issued`
    // exactly: nothing a ULMT requests is ever lost by the accounting,
    // whichever Figure 7 scheme produced it.
    for scheme in PrefetchScheme::FIGURE7 {
        let r = Experiment::new(SystemConfig::small(), spec(App::Mcf))
            .scheme(scheme)
            .run();
        let p = &r.prefetch;
        assert_eq!(
            p.issued,
            p.delayed_hits
                + p.accepted
                + p.redundant
                + p.dropped_other
                + p.squashed_at_nb
                + p.inflight_at_end,
            "{scheme}: {p:?}"
        );
        assert_eq!(
            p.accepted,
            p.hits + p.replaced + p.untouched_at_end,
            "{scheme}: {p:?}"
        );
    }
}

/// Runs Mcf under Repl with and without the tracer on a machine with the
/// given queue depths, checks that `validate_trace` re-derives every
/// aggregate from the trace bit-exactly and that tracing does not perturb
/// the simulation, and returns the traced run.
fn traced_run_rederives(queues: Option<ulmt::system::QueueDepths>) -> ulmt::system::RunResult {
    use ulmt::simcore::TraceConfig;
    use ulmt::system::validate_trace;
    let experiment = |traced: bool| {
        let mut cfg = SystemConfig::small();
        if let Some(q) = queues {
            cfg.queues = q;
        }
        let mut e = Experiment::new(cfg, spec(App::Mcf)).scheme(PrefetchScheme::Repl);
        if traced {
            e = e.trace(TraceConfig::default());
        }
        e.run()
    };
    let traced = experiment(true);
    let audit = validate_trace(&traced).unwrap_or_else(|e| {
        panic!("queues={queues:?}: {e}");
    });
    assert!(audit.events > 0);
    let untraced = experiment(false);
    assert_eq!(
        traced.fingerprint(),
        untraced.fingerprint(),
        "tracing changed the simulation (queues={queues:?})"
    );
    traced
}

#[test]
fn trace_rederives_every_counter_bit_exactly() {
    // The cycle-stamped event trace is a second, independent account of
    // the run; `validate_trace` re-derives the aggregates from it and
    // demands bit-identity, and the tracer itself must not perturb the
    // simulation.
    traced_run_rederives(None);
}

#[test]
fn depth_one_queues_complete_and_rederive_exactly() {
    // The pathological machine whose three queues hold a single entry
    // each: the run must complete, queue 2's drop-oldest and queue 3's
    // overflow paths must fire, and the trace must still re-derive every
    // counter bit-exactly.
    use ulmt::simcore::trace::TraceEvent;
    use ulmt::system::QueueDepths;
    let traced = traced_run_rederives(Some(QueueDepths {
        demand: 1,
        observation: 1,
        prefetch: 1,
    }));
    assert!(traced.exec_cycles > 0);
    let trace = traced.trace.as_ref().expect("traced run carries a trace");
    let drops = trace.count(|e| matches!(e, TraceEvent::ObsDrop { .. }));
    let overflows = trace.count(|e| matches!(e, TraceEvent::Q3Overflow { .. }));
    assert!(drops > 0, "depth-1 queue 2 never dropped an observation");
    assert!(overflows > 0, "depth-1 queue 3 never overflowed");
}

#[test]
fn sparse_and_tree_have_the_smallest_speedups() {
    // Section 5.2 / Figure 9: "Sparse and Tree, the applications with the
    // smallest speedups" (cache conflicts + inaccurate prefetches).
    let speedup = |app: App| {
        let wl = WorkloadSpec::new(app).scale(1.0 / 16.0).iterations(3);
        let base = Experiment::new(SystemConfig::small(), wl.clone())
            .scheme(PrefetchScheme::NoPref)
            .run();
        let repl = Experiment::new(SystemConfig::small(), wl)
            .scheme(PrefetchScheme::Repl)
            .run();
        repl.speedup_vs(base.exec_cycles)
    };
    let tree = speedup(App::Tree);
    let mcf = speedup(App::Mcf);
    let mst = speedup(App::Mst);
    assert!(tree < mcf, "tree {tree} vs mcf {mcf}");
    assert!(tree < mst, "tree {tree} vs mst {mst}");
}
