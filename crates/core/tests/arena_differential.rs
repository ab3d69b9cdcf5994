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
use ulmt_core::algorithm::{StepSink, UlmtAlgorithm};
use ulmt_core::table::{Base, Chain, Replicated, TableParams, TableSnapshot};
use ulmt_simcore::{LineAddr, PageAddr, Pcg32};

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

#[test]
fn batch_kernel_matches_reference_per_miss_path() {
    // The batch fast path (no touch recording, hoisted probe costs) must
    // produce the same prefetch stream and instruction totals as the
    // reference layout's per-miss path — across all three algorithms.
    let misses = miss_stream(55, 2000, 8);

    fn run_ref<R: UlmtAlgorithm>(mut alg: R, misses: &[LineAddr]) -> (Vec<LineAddr>, u64, u64) {
        let (mut prefetches, mut p, mut l) = (Vec::new(), 0u64, 0u64);
        for &m in misses {
            let step = alg.process_miss(m);
            prefetches.extend(step.prefetches.iter().copied());
            p += step.prefetch_cost.insns;
            l += step.learn_cost.insns;
        }
        (prefetches, p, l)
    }

    fn run_batch<A: UlmtAlgorithm>(mut alg: A, misses: &[LineAddr]) -> (Vec<LineAddr>, u64, u64) {
        /// Sums a batch and wants no table touches, so the tables run
        /// their touch-free kernel.
        #[derive(Default)]
        struct Totals(Vec<LineAddr>, u64, u64);

        impl StepSink for Totals {
            fn begin(&mut self, _miss: LineAddr) {}

            fn prefetch(&mut self, addr: LineAddr) {
                self.0.push(addr);
            }

            fn end(&mut self, prefetch_insns: u64, learn_insns: u64) {
                self.1 += prefetch_insns;
                self.2 += learn_insns;
            }
        }

        let mut sink = Totals::default();
        // Uneven chunks so batch boundaries can't hide state carryover.
        for chunk in misses.chunks(97) {
            alg.process_misses(chunk, &mut sink);
        }
        (sink.0, sink.1, sink.2)
    }

    assert_eq!(
        run_batch(Base::new(params(1, 4)), &misses),
        run_ref(RefBase::new(params(1, 4)), &misses),
        "base"
    );
    assert_eq!(
        run_batch(Chain::new(params(3, 2)), &misses),
        run_ref(RefChain::new(params(3, 2)), &misses),
        "chain"
    );
    assert_eq!(
        run_batch(Replicated::new(params(3, 2)), &misses),
        run_ref(RefReplicated::new(params(3, 2)), &misses),
        "repl"
    );
}
