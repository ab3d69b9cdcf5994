//! Customizability: write your own ULMT algorithm.
//!
//! The paper's key flexibility claim (Section 3.3.3) is that "the
//! prefetching algorithm executed by the ULMT can be customized by the
//! programmer on an application basis". This example implements a custom
//! *stride-and-correlate* algorithm directly against the public
//! [`UlmtAlgorithm`] trait, runs it on a memory processor, and compares it
//! to the stock algorithms — exactly what a user of this library would do
//! for their own workload.
//!
//! An algorithm implements one method, `step`, which reports a miss's
//! prefetches, table touches and instruction costs into a [`StepSink`].
//! This one wraps a stock Replicated table and, when a stride is locked,
//! steps the table through a small sink of its own that swaps the
//! table's prefetches for the stride run.
//!
//! ```text
//! cargo run --release --example custom_algorithm
//! ```

use ulmt::core::algorithm::{insn_cost, StepSink, Touches, UlmtAlgorithm};
use ulmt::core::table::{Replicated, TableParams};
use ulmt::memproc::{FixedLatencyMemory, MemProcConfig, MemProcLocation, MemProcessor};
use ulmt::simcore::{Addr, LineAddr};

/// A user-written ULMT: detects *arbitrary-stride* runs (the stock `Seq`
/// only handles ±1) and falls back to a Replicated table for everything
/// else.
struct StrideAndCorrelate {
    last: Option<LineAddr>,
    stride: i64,
    confidence: u32,
    depth: i64,
    table: Replicated,
}

impl StrideAndCorrelate {
    fn new(num_rows: usize, depth: i64) -> Self {
        StrideAndCorrelate {
            last: None,
            stride: 0,
            confidence: 0,
            depth,
            table: Replicated::new(TableParams::repl_default(num_rows)),
        }
    }
}

impl UlmtAlgorithm for StrideAndCorrelate {
    fn name(&self) -> String {
        "stride+repl".to_string()
    }

    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink) {
        // Stride detection: two consecutive equal deltas lock a stride.
        let mut locked = false;
        if let Some(last) = self.last {
            let delta = miss.delta(last);
            if delta != 0 && delta == self.stride {
                self.confidence = (self.confidence + 1).min(4);
            } else {
                self.stride = delta;
                self.confidence = 0;
            }
            locked = self.confidence >= 2;
        }
        self.last = Some(miss);

        // The correlation half always learns; it only prefetches when the
        // stride detector has no lock (same shape as the CG
        // customization).
        if locked {
            let mut run = StrideRun {
                sink,
                stride: self.stride,
                depth: self.depth,
            };
            self.table.step(miss, &mut run);
        } else {
            self.table.step(miss, sink);
        }
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = self.table.predict(miss, levels);
        if self.confidence >= 2 {
            for (k, level) in out.iter_mut().enumerate() {
                level.push(miss.offset((k as i64 + 1) * self.stride));
            }
        }
        out
    }
}

/// The table's step with its prefetches swapped for a stride run: the
/// table's touches and learning pass through to `sink`, and the
/// run's addresses are charged to the Prefetching step.
struct StrideRun<'a> {
    sink: &'a mut dyn StepSink,
    stride: i64,
    depth: i64,
}

impl StepSink for StrideRun<'_> {
    fn begin(&mut self, miss: LineAddr) {
        self.sink.begin(miss);
        for k in 1..=self.depth {
            self.sink.prefetch(miss.offset(k * self.stride));
        }
    }

    fn prefetch(&mut self, _addr: LineAddr) {}

    fn read(&mut self, addr: Addr, bytes: u64) {
        self.sink.read(addr, bytes);
    }

    fn write(&mut self, addr: Addr, bytes: u64) {
        self.sink.write(addr, bytes);
    }

    fn touches(&mut self) -> Touches<'_> {
        match self.sink.touches() {
            Touches::Ignored => Touches::Ignored,
            _ => Touches::Reported,
        }
    }

    fn end(&mut self, prefetch_insns: u64, learn_insns: u64) {
        let run_insns = insn_cost::PER_PREFETCH * self.depth as u64;
        self.sink.end(prefetch_insns + run_insns, learn_insns);
    }
}

/// Feeds a miss sequence through a memory processor and reports how many
/// of the *next* misses were covered by the prefetches it generated.
fn evaluate(name: &str, alg: Box<dyn UlmtAlgorithm>, misses: &[LineAddr]) {
    let mut mp = MemProcessor::new(MemProcConfig::default(), alg);
    let mut mem = FixedLatencyMemory::new(MemProcLocation::InDram);
    let mut outstanding: Vec<LineAddr> = Vec::new();
    let mut covered = 0u64;
    for &m in misses {
        if let Some(pos) = outstanding.iter().position(|&p| p == m) {
            outstanding.remove(pos);
            covered += 1;
        }
        let now = mp.busy_until();
        let step = mp.process(m, now, &mut mem);
        outstanding.extend(step.prefetches);
        if outstanding.len() > 64 {
            let excess = outstanding.len() - 64;
            outstanding.drain(..excess);
        }
    }
    let stats = mp.stats();
    println!(
        "  {:<14} coverage {:>5.1}%   response {:>5.1}c   occupancy {:>6.1}c",
        name,
        100.0 * covered as f64 / misses.len() as f64,
        stats.response.mean(),
        stats.occupancy.mean()
    );
}

fn main() {
    // A miss stream that alternates strided bursts (stride 3 — invisible
    // to ±1 stream detectors) with a repeating pointer chase.
    let mut misses = Vec::new();
    for round in 0..40u64 {
        for i in 0..32 {
            misses.push(LineAddr::new(100_000 + round * 96 + i * 3)); // stride-3 burst
        }
        for i in 0..32u64 {
            misses.push(LineAddr::new((i * 7919 + 13) % 4096)); // fixed chase
        }
    }

    println!("Custom ULMT algorithm vs stock algorithms");
    println!("(miss stream: stride-3 bursts + repeating pointer chase)\n");
    evaluate(
        "seq4 (stock)",
        ulmt::core::AlgorithmSpec::seq4().build(),
        &misses,
    );
    evaluate(
        "repl (stock)",
        ulmt::core::AlgorithmSpec::repl(16 * 1024).build(),
        &misses,
    );
    evaluate(
        "stride+repl",
        Box::new(StrideAndCorrelate::new(16 * 1024, 6)),
        &misses,
    );

    println!("\nThe custom algorithm covers the stride-3 bursts the stock");
    println!("sequential prefetcher cannot see, while keeping the Replicated");
    println!("table for the irregular part — no hardware change required.");
}
