//! What each combinator keeps of its parts' steps, pinned against twins
//! of the parts stepped on their own: which prefetches survive, which
//! instruction costs and table touches are charged and in what order, and
//! that every algorithm frames each miss with exactly one `begin`/`end`
//! pair on the batch path.

use std::mem::discriminant;

use ulmt_core::adaptive::{AdaptiveMode, AdaptiveUlmt};
use ulmt_core::algorithm::{Combined, SeqElseCorr, StepSink, UlmtAlgorithm};
use ulmt_core::cost::StepResult;
use ulmt_core::multi::RegionRoutedUlmt;
use ulmt_core::seq::SeqUlmt;
use ulmt_core::table::{Base, Replicated, TableParams};
use ulmt_core::AlgorithmSpec;
use ulmt_simcore::LineAddr;

fn line(n: u64) -> LineAddr {
    LineAddr::new(n)
}

/// `b` run right after `a` on the same miss: prefetches appended, each
/// phase's instructions summed and its table touches concatenated.
fn then(mut a: StepResult, b: StepResult) -> StepResult {
    a.prefetches.extend(b.prefetches);
    a.prefetch_cost.insns += b.prefetch_cost.insns;
    a.prefetch_cost
        .table_touches
        .extend(b.prefetch_cost.table_touches);
    a.learn_cost.insns += b.learn_cost.insns;
    a.learn_cost
        .table_touches
        .extend(b.learn_cost.table_touches);
    a
}

/// A recurring irregular chain interleaved with a recurring sequential
/// run: the tables learn both, and the run is long enough for a stream
/// detector to lock on.
fn mixed_stream(rounds: u64) -> Vec<LineAddr> {
    let mut out = Vec::new();
    for _ in 0..rounds {
        out.extend([100u64, 5000, 321, 9000, 77].map(line));
        out.extend((20_000..20_010).map(line));
    }
    out
}

fn repl_params() -> TableParams {
    TableParams::repl_default(1024)
}

fn base_params() -> TableParams {
    TableParams::base_default(512)
}

#[test]
fn combined_dedupes_across_parts_and_charges_reads_then_writes() {
    let mut combo = Combined::new(vec![
        Box::new(SeqUlmt::seq4()),
        Box::new(Replicated::new(repl_params())),
        Box::new(Base::new(base_params())),
    ]);
    let mut seq = SeqUlmt::seq4();
    let mut repl = Replicated::new(repl_params());
    let mut base = Base::new(base_params());
    let mut dropped = 0;
    for m in mixed_stream(6) {
        let got = combo.process_miss(m);
        let mut want = then(
            then(seq.process_miss(m), repl.process_miss(m)),
            base.process_miss(m),
        );
        let all = want.prefetches.len();
        let mut seen = Vec::new();
        want.prefetches.retain(|&p| {
            let first = !seen.contains(&p);
            if first {
                seen.push(p);
            }
            first
        });
        dropped += all - want.prefetches.len();
        assert!(got.prefetch_cost.table_touches.iter().all(|t| !t.is_write));
        assert!(got.learn_cost.table_touches.iter().all(|t| t.is_write));
        assert_eq!(got, want, "miss {m:?}");
    }
    assert!(dropped > 0, "the stream must make the parts agree");
}

#[test]
fn seq_else_corr_drops_table_prefetches_when_seq_fired_and_keeps_costs() {
    let mut hybrid = SeqElseCorr::new(SeqUlmt::seq1(), Box::new(Replicated::new(repl_params())));
    let mut seq = SeqUlmt::seq1();
    let mut repl = Replicated::new(repl_params());
    let (mut suppressed, mut passed) = (0, 0);
    for m in mixed_stream(6) {
        let got = hybrid.process_miss(m);
        let s = seq.process_miss(m);
        let mut r = repl.process_miss(m);
        if !s.prefetches.is_empty() {
            suppressed += usize::from(!r.prefetches.is_empty());
            r.prefetches.clear();
        } else {
            passed += usize::from(!r.prefetches.is_empty());
        }
        assert_eq!(got, then(s, r), "miss {m:?}");
    }
    assert!(suppressed > 0, "Seq must fire while the table predicts");
    assert!(passed > 0, "the table must prefetch when Seq is silent");
}

#[test]
fn adaptive_seq_only_charges_only_repls_learning_step() {
    let mut adaptive = AdaptiveUlmt::new(repl_params());
    let mut seq = SeqUlmt::seq4();
    let mut repl = Replicated::new(repl_params());
    // Three sequential sweeps (SeqOnly; Repl hits from the second sweep
    // on), an irregular stretch (ReplOnly), then three-line runs between
    // jumps (Both).
    let mut stream: Vec<LineAddr> = (0..3).flat_map(|_| (0..300).map(line)).collect();
    stream.extend((0..600u64).map(|i| line((i * 7919 + 3) % 65_536)));
    for i in 0..150u64 {
        stream.extend([i * 1000, i * 1000 + 1, i * 1000 + 2].map(line));
        stream.push(line((i * 104_729 + 7) % 65_536));
    }
    let mut seen_modes = Vec::new();
    let mut dropped_repl_prefetches = 0;
    for m in stream {
        let got = adaptive.process_miss(m);
        let mode = adaptive.mode();
        if !seen_modes.contains(&mode) {
            seen_modes.push(mode);
        }
        let want = match mode {
            AdaptiveMode::ReplOnly => repl.process_miss(m),
            AdaptiveMode::Both => then(seq.process_miss(m), repl.process_miss(m)),
            AdaptiveMode::SeqOnly => {
                let mut s = seq.process_miss(m);
                let r = repl.process_miss(m);
                assert!(!r.prefetch_cost.table_touches.is_empty());
                dropped_repl_prefetches += r.prefetches.len();
                s.learn_cost.insns += r.learn_cost.insns;
                s.learn_cost
                    .table_touches
                    .extend(r.learn_cost.table_touches);
                s
            }
        };
        assert_eq!(got, want, "miss {m:?} in {mode:?}");
    }
    assert_eq!(seen_modes.len(), 3, "{seen_modes:?}");
    assert!(dropped_repl_prefetches > 0);
}

const REGION: u64 = 1 << 16;

fn router() -> RegionRoutedUlmt {
    RegionRoutedUlmt::new(
        vec![
            AlgorithmSpec::repl(1024).build(),
            AlgorithmSpec::seq1_repl(1024).build(),
        ],
        REGION,
    )
}

#[test]
fn region_router_steps_the_owner_and_an_unrouted_miss_costs_nothing() {
    let mut r = router();
    let mut owners = [
        AlgorithmSpec::repl(1024).build(),
        AlgorithmSpec::seq1_repl(1024).build(),
    ];
    for m in mixed_stream(4) {
        for region in 0..2 {
            let m = line(m.raw() + region * REGION);
            assert_eq!(r.process_miss(m), owners[region as usize].process_miss(m));
        }
        assert_eq!(
            r.process_miss(line(m.raw() + 5 * REGION)),
            StepResult::new()
        );
    }
    assert_eq!(r.unrouted(), 4 * 15);

    let mut frames = Frames::default();
    r.process_misses(&[line(7 * REGION)], &mut frames);
    assert_eq!(
        frames.events,
        vec![Ev::Begin(line(7 * REGION)), Ev::End(0, 0)]
    );
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Begin(LineAddr),
    Prefetch(LineAddr),
    End(u64, u64),
}

/// Records the batch kernel's calls in order.
#[derive(Default)]
struct Frames {
    events: Vec<Ev>,
}

impl StepSink for Frames {
    fn begin(&mut self, miss: LineAddr) {
        self.events.push(Ev::Begin(miss));
    }

    fn prefetch(&mut self, addr: LineAddr) {
        self.events.push(Ev::Prefetch(addr));
    }

    fn end(&mut self, prefetch_insns: u64, learn_insns: u64) {
        self.events.push(Ev::End(prefetch_insns, learn_insns));
    }
}

/// One spec per `AlgorithmSpec` variant.
fn every_variant() -> Vec<AlgorithmSpec> {
    let specs = vec![
        AlgorithmSpec::Null,
        AlgorithmSpec::seq1(),
        AlgorithmSpec::base(256),
        AlgorithmSpec::chain(256),
        AlgorithmSpec::repl(256),
        AlgorithmSpec::Combined(vec![AlgorithmSpec::seq4(), AlgorithmSpec::repl(256)]),
        AlgorithmSpec::seq1_repl(256),
        AlgorithmSpec::Adaptive(TableParams::repl_default(256)),
    ];
    // A new variant fails to compile here until it is listed above.
    for spec in &specs {
        match spec {
            AlgorithmSpec::Null
            | AlgorithmSpec::Seq { .. }
            | AlgorithmSpec::Base(_)
            | AlgorithmSpec::Chain(_)
            | AlgorithmSpec::Repl(_)
            | AlgorithmSpec::Combined(_)
            | AlgorithmSpec::SeqElse { .. }
            | AlgorithmSpec::Adaptive(_) => {}
        }
    }
    let mut kinds: Vec<_> = specs.iter().map(discriminant).collect();
    kinds.dedup();
    assert_eq!(kinds.len(), specs.len(), "one spec per variant");
    specs
}

/// Drives `batch` through `alg.process_misses` in uneven chunks and
/// checks that every miss is one `begin`, its prefetches and one `end`,
/// carrying exactly what `twin.process_miss` reports for it.
fn assert_one_frame_per_miss(
    label: &str,
    mut alg: Box<dyn UlmtAlgorithm>,
    mut twin: Box<dyn UlmtAlgorithm>,
    batch: &[LineAddr],
) {
    let mut frames = Frames::default();
    for chunk in batch.chunks(7) {
        alg.process_misses(chunk, &mut frames);
    }
    let mut want = Vec::new();
    for &m in batch {
        let step = twin.process_miss(m);
        want.push(Ev::Begin(m));
        want.extend(step.prefetches.iter().map(|&p| Ev::Prefetch(p)));
        want.push(Ev::End(step.prefetch_cost.insns, step.learn_cost.insns));
    }
    let begins = frames
        .events
        .iter()
        .filter(|e| matches!(e, Ev::Begin(_)))
        .count();
    let ends = frames
        .events
        .iter()
        .filter(|e| matches!(e, Ev::End(..)))
        .count();
    assert_eq!((begins, ends), (batch.len(), batch.len()), "{label}");
    assert_eq!(frames.events, want, "{label}");
}

#[test]
fn every_algorithm_frames_each_miss_with_one_begin_and_one_end() {
    let mut batch = mixed_stream(5);
    batch.extend((0..600u64).map(|n| line(n % 300)));
    for spec in every_variant() {
        assert_one_frame_per_miss(&spec.label(), spec.build(), spec.build(), &batch);
    }
    let routed: Vec<LineAddr> = batch
        .iter()
        .enumerate()
        .map(|(i, m)| line(m.raw() + (i as u64 % 3) * REGION))
        .collect();
    assert_one_frame_per_miss("router", Box::new(router()), Box::new(router()), &routed);
}
