//! Record/replay: a captured trace driven through the simulator must
//! reproduce the generator-driven run exactly.

use ulmt::system::{Experiment, PrefetchScheme, SystemConfig, SystemSim};
use ulmt::workloads::codec;
use ulmt::workloads::{App, WorkloadSpec};

#[test]
fn replayed_trace_reproduces_the_run_bit_for_bit() {
    let spec = WorkloadSpec::new(App::Gap).scale(1.0 / 32.0).iterations(2);

    // Reference: the generator-driven run.
    let reference = Experiment::new(SystemConfig::small(), spec.clone())
        .scheme(PrefetchScheme::NoPref)
        .run();

    // Capture, serialize, deserialize, replay.
    let bytes = codec::encode(spec.build()).expect("generator addresses are aligned");
    let replayed = codec::decode(&bytes).expect("roundtrip");
    let result = SystemSim::try_from_parts_hinted(
        SystemConfig::small(),
        Box::new(replayed.into_iter()),
        false,
        None,
        false,
        "NoPref".to_string(),
        "Gap-replay".to_string(),
        0,
    )
    .expect("valid config")
    .run();

    assert_eq!(result.exec_cycles, reference.exec_cycles);
    assert_eq!(result.l2_misses, reference.l2_misses);
    assert_eq!(result.refs, reference.refs);
    assert_eq!(result.breakdown, reference.breakdown);
    assert_eq!(result.inter_miss.counts(), reference.inter_miss.counts());
}

#[test]
fn trace_files_are_compact() {
    let spec = WorkloadSpec::new(App::Tree).scale(1.0 / 16.0).iterations(2);
    let n = spec.build().count();
    let bytes = codec::encode(spec.build()).expect("aligned");
    assert_eq!(bytes.len(), n * codec::RECORD_BYTES);
    // 12 bytes per reference: a million-reference trace is 12 MB.
    assert_eq!(codec::RECORD_BYTES, 12);
}
