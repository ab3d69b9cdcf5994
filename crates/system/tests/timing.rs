//! Cycle-exact timing tests: hand-crafted traces through the full event
//! loop, checked against Table 3's contention-free latencies.

use ulmt_simcore::Addr;
use ulmt_system::{PrefetchScheme, SystemConfig, SystemSim};
use ulmt_workloads::{TraceRecord, WorkloadSpec};

fn run_trace(records: Vec<TraceRecord>) -> ulmt_system::RunResult {
    SystemSim::try_from_parts_hinted(
        SystemConfig::default(),
        Box::new(records.into_iter()),
        false,
        None,
        false,
        "NoPref".to_string(),
        "micro".to_string(),
        0,
    )
    .expect("valid config")
    .run()
}

/// Two L2 lines in the same DRAM bank and row (channel-interleaved lines
/// 0 and 32 share bank 0 row 0 of channel 0).
const LINE_A: u64 = 0;
const LINE_B: u64 = 32;

#[test]
fn cold_miss_costs_the_row_miss_round_trip() {
    // Table 3: RT memory latency 243 cycles (row miss).
    let r = run_trace(vec![TraceRecord::load(Addr::new(LINE_A * 64), 0)]);
    assert_eq!(r.exec_cycles, 243);
    assert_eq!(r.l2_misses, 1);
}

#[test]
fn open_row_miss_costs_208() {
    // A second dependent miss to the same DRAM row: 243 (cold) + 208
    // (row hit). Dependence forces full serialization.
    let r = run_trace(vec![
        TraceRecord::load(Addr::new(LINE_A * 64), 0),
        TraceRecord::dependent_load(Addr::new(LINE_B * 64), 0),
    ]);
    assert_eq!(r.exec_cycles, 243 + 208);
}

#[test]
fn l1_hit_is_free_l2_hit_costs_only_on_dependence() {
    // Third access re-touches line A: it now hits the L1 (filled by the
    // first miss), so the chain is 243 + 208 + l1_hit(3).
    let r = run_trace(vec![
        TraceRecord::load(Addr::new(LINE_A * 64), 0),
        TraceRecord::dependent_load(Addr::new(LINE_B * 64), 0),
        TraceRecord::dependent_load(Addr::new(LINE_A * 64), 0),
    ]);
    assert_eq!(r.exec_cycles, 243 + 208 + 3);
}

#[test]
fn l2_hit_round_trip_is_19() {
    // Touch the *other half* of line A: its 32-B L1 line is cold but the
    // 64-B L2 line is present -> 19-cycle L2 hit.
    let r = run_trace(vec![
        TraceRecord::load(Addr::new(LINE_A * 64), 0),
        TraceRecord::dependent_load(Addr::new(LINE_A * 64 + 32), 0),
    ]);
    assert_eq!(r.exec_cycles, 243 + 19);
}

#[test]
fn independent_misses_overlap() {
    // Eight independent misses spread over both channels overlap up to
    // the pending-load limit: total far below 8 serial round trips
    // (bounded by channel bandwidth: 4 transfers x 64 cycles per channel).
    let records: Vec<_> = (0..8u64)
        .map(|i| TraceRecord::load(Addr::new(i * 1041 * 64), 0))
        .collect();
    let r = run_trace(records);
    assert!(r.exec_cycles < 243 + 4 * 64 + 60, "exec {}", r.exec_cycles);
    assert_eq!(r.l2_misses, 8);
}

#[test]
fn dependent_misses_serialize() {
    let records: Vec<_> = (0..8u64)
        .map(|i| TraceRecord::dependent_load(Addr::new(i * 64 * 1024), 0))
        .collect();
    let r = run_trace(records);
    assert!(r.exec_cycles > 8 * 200, "exec {}", r.exec_cycles);
}

#[test]
fn busy_time_matches_issue_width() {
    // 600 instructions at 6-issue = 100 busy cycles before the (single)
    // miss.
    let r = run_trace(vec![TraceRecord::load(Addr::new(0), 600)]);
    assert_eq!(r.breakdown.busy, 100);
    assert_eq!(r.exec_cycles, 100 + 243);
}

#[test]
fn store_misses_do_not_block_retirement_chain() {
    // A store miss followed by an independent load on the other DRAM
    // channel: both overlap fully.
    let r = run_trace(vec![
        TraceRecord::store(Addr::new(0), 0),
        TraceRecord::load(Addr::new(1041 * 64), 0),
    ]);
    assert!(r.exec_cycles < 300, "exec {}", r.exec_cycles);
}

#[test]
fn writeback_traffic_reaches_the_bus() {
    // Fill the tiny L2 of the small machine with dirty lines, then evict
    // them: write-back traffic must appear on the FSB.
    let mut records = Vec::new();
    for i in 0..2048u64 {
        records.push(TraceRecord::store(Addr::new(i * 64), 4));
    }
    let r = SystemSim::try_from_parts_hinted(
        SystemConfig::small(),
        Box::new(records.into_iter()),
        false,
        None,
        false,
        "NoPref".to_string(),
        "wb".to_string(),
        0,
    )
    .expect("valid config")
    .run();
    assert!(r.exec_cycles > 0);
    // Dirty evictions happened (the 32 KB L2 holds 512 lines).
    assert!(r.l2_misses == 2048);
}

#[test]
fn queue2_overflow_drops_observations() {
    // A burst of independent misses arrives faster than the ULMT's
    // occupancy; with a 1-deep observation queue some must be dropped.
    let mut cfg = SystemConfig::small();
    cfg.queues.observation = 1;
    let spec = WorkloadSpec::new(ulmt_workloads::App::Cg)
        .scale(1.0 / 16.0)
        .iterations(2);
    let r = SystemSim::new(cfg, &spec, PrefetchScheme::Repl).run();
    assert!(r.observations_dropped > 0);
}

#[test]
fn verbose_mode_feeds_prefetch_requests_to_the_ulmt() {
    // Compare ULMT observation counts with Conven4 on, Verbose vs
    // Non-Verbose, on a sequential workload: Verbose must see more.
    let spec = WorkloadSpec::new(ulmt_workloads::App::Cg)
        .scale(1.0 / 16.0)
        .iterations(2);
    let steps = |verbose: bool| {
        let memproc = ulmt_memproc::MemProcessor::new(
            ulmt_memproc::MemProcConfig::default(),
            ulmt_core::AlgorithmSpec::repl(16 * 1024).build(),
        );
        let r = SystemSim::try_from_parts_hinted(
            SystemConfig::small(),
            Box::new(spec.build()),
            true,
            Some(memproc),
            verbose,
            "x".to_string(),
            "CG".to_string(),
            0,
        )
        .expect("valid config")
        .run();
        r.ulmt.expect("ULMT ran").steps
    };
    let non_verbose = steps(false);
    let verbose = steps(true);
    assert!(
        verbose > 2 * non_verbose.max(1),
        "verbose {verbose} vs non-verbose {non_verbose}"
    );
}
