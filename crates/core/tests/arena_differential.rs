//! Differential property tests: the flat-arena table layout against the
//! preserved pre-arena reference layout (`support::reference`).
//!
//! Seeded random miss streams — interleaved with `remap_page` and
//! `resize` operations — are replayed through both implementations of
//! Base, Chain and Replicated. Every observable output must be
//! **bit-identical**: per-miss `StepResult`s (prefetch sequence, phase
//! instruction counts, table touches), batch-kernel outputs, table
//! stats, predictions, snapshots, snapshot byte encodings and
//! fingerprints. This is the proof obligation of the arena rewrite: a
//! pure layout change with zero observable drift.

mod support;

use support::reference::{RefBase, RefChain, RefReplicated};
use ulmt_core::algorithm::{StepSink, Touches, UlmtAlgorithm};
use ulmt_core::cost::StepResult;
use ulmt_core::table::{
    Base, Chain, CorrelationTable, Kind, Replicated, TableParams, TableSnapshot, TableStats,
};
use ulmt_simcore::{Addr, LineAddr, PageAddr, Pcg32};

/// A synthetic miss stream with enough temporal correlation to exercise
/// hits, MRU rotations, replacements and multi-page remaps: a random
/// walk over a small pool of "hot" lines plus occasional cold lines.
fn miss_stream(seed: u64, len: usize, pages: u64) -> Vec<LineAddr> {
    let lpp = PageAddr::lines_per_page();
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len);
    // Hot pool: a few recurring chains within the first `pages` pages.
    let pool: Vec<u64> = (0..32).map(|_| rng.gen_range_u64(0..pages * lpp)).collect();
    let mut cursor = 0usize;
    for _ in 0..len {
        let n = if rng.gen_bool(0.75) {
            // Walk the pool with small steps so successors repeat.
            cursor = (cursor + rng.gen_range_usize(1..4)) % pool.len();
            pool[cursor]
        } else {
            rng.gen_range_u64(0..pages * lpp)
        };
        out.push(LineAddr::new(n));
    }
    out
}

/// One operation of the interleaved replay schedule.
enum Op {
    Misses(Vec<LineAddr>),
    Remap(PageAddr, PageAddr),
    Resize(usize),
}

/// A seeded schedule of miss bursts punctuated by remaps and resizes.
fn schedule(seed: u64, with_resize: bool) -> Vec<Op> {
    let mut rng = Pcg32::seed_from_u64(seed ^ 0xD1FF);
    let pages = 8u64;
    let mut ops = Vec::new();
    for burst in 0..6 {
        ops.push(Op::Misses(miss_stream(
            seed.wrapping_add(burst),
            400,
            pages,
        )));
        match burst % 3 {
            0 => {
                let old = rng.gen_range_u64(0..pages);
                let new = pages + rng.gen_range_u64(0..pages);
                ops.push(Op::Remap(PageAddr::new(old), PageAddr::new(new)));
            }
            1 if with_resize => {
                let rows = if rng.gen_bool(0.5) { 64 } else { 256 };
                ops.push(Op::Resize(rows));
            }
            _ => {}
        }
    }
    ops
}

/// Drives an arena-layout algorithm and its reference twin through the
/// same schedule, asserting bit-identical observables at every step.
/// The closures adapt over the differing concrete types.
#[allow(clippy::too_many_arguments)]
fn assert_differential<A, R>(
    mut arena: A,
    mut reference: R,
    seed: u64,
    with_resize: bool,
    resize_arena: impl Fn(&mut A, usize),
    resize_ref: impl Fn(&mut R, usize),
    snap_arena: impl Fn(&A) -> TableSnapshot,
    snap_ref: impl Fn(&R) -> TableSnapshot,
) where
    A: UlmtAlgorithm,
    R: UlmtAlgorithm,
{
    for (i, op) in schedule(seed, with_resize).into_iter().enumerate() {
        match op {
            Op::Misses(misses) => {
                for (j, &miss) in misses.iter().enumerate() {
                    let a = arena.process_miss(miss);
                    let r = reference.process_miss(miss);
                    assert_eq!(a, r, "step mismatch at op {i} miss {j} (seed {seed})");
                }
            }
            Op::Remap(old, new) => {
                arena.remap_page(old, new);
                reference.remap_page(old, new);
            }
            Op::Resize(rows) => {
                resize_arena(&mut arena, rows);
                resize_ref(&mut reference, rows);
            }
        }
        // After every operation the learned state must agree exactly.
        let sa = snap_arena(&arena);
        let sr = snap_ref(&reference);
        assert_eq!(sa, sr, "snapshot mismatch after op {i} (seed {seed})");
        assert_eq!(sa.to_bytes(), sr.to_bytes(), "codec bytes after op {i}");
        assert_eq!(sa.fingerprint(), sr.fingerprint(), "fingerprint op {i}");
    }
    // Final spot-check: predictions agree on a fresh probe set.
    for n in 0..64u64 {
        assert_eq!(
            arena.predict(LineAddr::new(n), 3),
            reference.predict(LineAddr::new(n), 3),
            "prediction mismatch at {n} (seed {seed})"
        );
    }
    assert_eq!(arena.table_size_bytes(), reference.table_size_bytes());
}

fn params(num_levels: usize, assoc: usize) -> TableParams {
    TableParams {
        num_rows: 128,
        assoc,
        num_succ: 2,
        num_levels,
    }
}

#[test]
fn base_matches_reference_with_remap_and_resize() {
    for seed in [1u64, 7, 42] {
        assert_differential(
            Base::new(params(1, 4)),
            RefBase::new(params(1, 4)),
            seed,
            true,
            |a, rows| a.resize(rows),
            |r, rows| r.resize(rows),
            |a| a.snapshot(),
            |r| r.snapshot(),
        );
    }
}

#[test]
fn chain_matches_reference_with_remap() {
    // Chain has no resize entry point; remap + bursts only.
    for seed in [3u64, 11, 99] {
        assert_differential(
            Chain::new(params(3, 2)),
            RefChain::new(params(3, 2)),
            seed,
            false,
            |_, _| unreachable!("chain schedule has no resize"),
            |_, _| unreachable!("chain schedule has no resize"),
            |a| a.snapshot(),
            |r| r.snapshot(),
        );
    }
}

#[test]
fn chain_matches_reference_with_remap_and_resize() {
    for seed in [4u64, 12, 98] {
        assert_differential(
            Chain::new(params(3, 2)),
            RefChain::new(params(3, 2)),
            seed,
            true,
            |a, rows| a.resize(rows),
            |r, rows| r.resize(rows),
            |a| a.snapshot(),
            |r| r.snapshot(),
        );
    }
}

#[test]
fn replicated_matches_reference_with_remap_and_resize() {
    for seed in [5u64, 23, 77] {
        assert_differential(
            Replicated::new(params(3, 2)),
            RefReplicated::new(params(3, 2)),
            seed,
            true,
            |a, rows| a.resize(rows),
            |r, rows| r.resize(rows),
            |a| a.snapshot(),
            |r| r.snapshot(),
        );
    }
}

#[test]
fn table_stats_track_reference_exactly() {
    // Lookups/hits/insertions/replacements must count identically —
    // Table 2's sizing rule depends on them.
    let seed = 1234u64;
    let misses = miss_stream(seed, 3000, 4);
    let mut arena = Replicated::new(params(3, 2));
    let mut reference = RefReplicated::new(params(3, 2));
    for &m in &misses {
        arena.process_miss(m);
        reference.process_miss(m);
    }
    assert_eq!(arena.table_stats(), reference.table_stats());
    assert_eq!(arena.occupancy(), reference.occupancy());
}

/// What a run over a miss stream shows: its steps summed into one
/// `StepResult` (prefetches and table touches in order, instruction
/// totals) and the table's end state.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    steps: StepResult,
    stats: TableStats,
    occupancy: usize,
    fingerprint: u64,
}

/// How a batch sink takes table touches: the kernel's three arms.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arm {
    /// A `StepResult`, filled with static dispatch.
    Recorded,
    /// Through the sink's touch calls.
    Reported,
    /// Not at all: the kernel compiles touches away.
    Ignored,
}

/// Sums steps into a `StepResult`, taking table touches through its
/// touch calls (`Reported`) or not at all (`Ignored`).
struct Summed {
    steps: StepResult,
    arm: Arm,
}

impl StepSink for Summed {
    fn begin(&mut self, miss: LineAddr) {
        self.steps.begin(miss);
    }

    fn prefetch(&mut self, addr: LineAddr) {
        self.steps.prefetch(addr);
    }

    fn read(&mut self, addr: Addr, bytes: u64) {
        self.steps.read(addr, bytes);
    }

    fn write(&mut self, addr: Addr, bytes: u64) {
        self.steps.write(addr, bytes);
    }

    fn touches(&mut self) -> Touches<'_> {
        if self.arm == Arm::Reported {
            Touches::Reported
        } else {
            Touches::Ignored
        }
    }

    fn end(&mut self, prefetch_insns: u64, learn_insns: u64) {
        self.steps.end(prefetch_insns, learn_insns);
    }
}

/// The reference layout's per-miss path over `misses`; `end` reads the
/// table's stats, occupancy and fingerprint.
fn per_miss<R: UlmtAlgorithm>(
    mut alg: R,
    misses: &[LineAddr],
    end: impl Fn(&R) -> (TableStats, usize, u64),
) -> Outcome {
    let mut steps = StepResult::new();
    for &m in misses {
        alg.step(m, &mut steps);
    }
    let (stats, occupancy, fingerprint) = end(&alg);
    Outcome {
        steps,
        stats,
        occupancy,
        fingerprint,
    }
}

/// The arena's batch kernel over `misses` in chunks of `chunk`, into a
/// sink of the given arm.
fn batched<K: Kind>(
    mut table: CorrelationTable<K>,
    misses: &[LineAddr],
    chunk: usize,
    arm: Arm,
) -> Outcome {
    let mut sink = Summed {
        steps: StepResult::new(),
        arm,
    };
    for batch in misses.chunks(chunk) {
        if arm == Arm::Recorded {
            table.process_misses(batch, &mut sink.steps);
        } else {
            table.process_misses(batch, &mut sink);
        }
    }
    Outcome {
        steps: sink.steps,
        stats: *table.table_stats(),
        occupancy: table.occupancy(),
        fingerprint: table.table_fingerprint(),
    }
}

/// Runs `table` through every chunk size and every arm and compares each
/// run with the per-miss oracle `expected`. The chunk sizes straddle
/// the batch kernel's prefetch distance, so a hint that reads past a
/// batch, or that moves a counter or an LRU stamp, fails.
fn assert_batches_match<K: Kind>(
    table: CorrelationTable<K>,
    misses: &[LineAddr],
    expected: &Outcome,
    label: &str,
) {
    assert!(expected.stats.replacements > 0, "{label}: must evict");
    assert!(
        !expected.steps.prefetches.is_empty(),
        "{label}: must prefetch"
    );
    let mut untouched = expected.clone();
    untouched.steps.prefetch_cost.table_touches.clear();
    untouched.steps.learn_cost.table_touches.clear();
    for chunk in [1, 2, 3, 4, 5, 8, 9, 97, 256] {
        for arm in [Arm::Recorded, Arm::Reported, Arm::Ignored] {
            let want = if arm == Arm::Ignored {
                &untouched
            } else {
                expected
            };
            let got = batched(table.clone(), misses, chunk, arm);
            assert!(got == *want, "{label}: chunk {chunk}, {arm:?} sink");
        }
    }
}

#[test]
fn batch_kernel_matches_reference_per_miss_path() {
    // The batch kernel, with its prefetch hints, must produce the same
    // prefetch stream, instruction totals, table touches and end state
    // as the reference layout's per-miss path, for every way a sink
    // takes touches and across all three algorithms.
    let misses = miss_stream(55, 2000, 8);
    let base = per_miss(RefBase::new(params(1, 4)), &misses, |r| {
        (*r.table_stats(), r.occupancy(), r.snapshot().fingerprint())
    });
    assert_batches_match(Base::new(params(1, 4)), &misses, &base, "base");
    let chain = per_miss(RefChain::new(params(3, 2)), &misses, |r| {
        (*r.table_stats(), r.occupancy(), r.snapshot().fingerprint())
    });
    assert_batches_match(Chain::new(params(3, 2)), &misses, &chain, "chain");
    let repl = per_miss(RefReplicated::new(params(3, 2)), &misses, |r| {
        (*r.table_stats(), r.occupancy(), r.snapshot().fingerprint())
    });
    assert_batches_match(Replicated::new(params(3, 2)), &misses, &repl, "repl");
}
