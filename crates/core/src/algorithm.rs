//! The [`UlmtAlgorithm`] trait and algorithm combinators.

use ulmt_simcore::{LineAddr, PageAddr};

use crate::cost::StepResult;

/// Instruction-cost constants for the hand-optimized ULMT code.
///
/// The paper's ULMTs were written in C and "hand-optimized ... for minimal
/// response and occupancy time" by unrolling loops and hardwiring
/// parameters. These constants describe that optimized code in
/// instructions; the memory-processor model converts them into cycles.
pub mod insn_cost {
    /// Dequeue the observed miss and dispatch into the algorithm.
    pub const STEP_OVERHEAD: u64 = 8;
    /// Compare one table tag during an associative search.
    pub const PROBE_PER_WAY: u64 = 3;
    /// Compute and issue one prefetch address.
    pub const PER_PREFETCH: u64 = 3;
    /// Fixed learning-step overhead (pointer bookkeeping).
    pub const LEARN_OVERHEAD: u64 = 4;
    /// Insert one successor into an MRU list.
    pub const PER_INSERT: u64 = 4;
    /// Allocate/initialize a table row.
    pub const PER_ALLOC: u64 = 5;
    /// Per-stream work of the software sequential detector.
    pub const PER_STREAM_CHECK: u64 = 2;
}

/// Receiver of the per-step outputs of a batch kernel
/// ([`UlmtAlgorithm::process_misses`]).
///
/// For each observed miss the kernel calls [`StepSink::begin`], then
/// [`StepSink::prefetch`] once per generated prefetch address (in issue
/// order), then [`StepSink::end`] with the step's instruction costs. The
/// sink owns whatever aggregation the caller needs (virtual clocks,
/// utilization servers, prefetch buffers), so the kernel itself never
/// allocates per step — this is what makes batched ingestion
/// allocation-free in `ulmt-service`.
pub trait StepSink {
    /// A new observed miss is about to be processed.
    fn begin(&mut self, miss: LineAddr);

    /// One prefetch address generated for the current miss, in issue
    /// order (duplicates already suppressed, exactly like the
    /// [`StepResult::prefetches`] of the per-miss path).
    fn prefetch(&mut self, addr: LineAddr);

    /// The current miss is done; `prefetch_insns` and `learn_insns` are
    /// the instruction costs of its two phases — always equal to the
    /// `prefetch_cost.insns` / `learn_cost.insns` the per-miss path would
    /// have reported.
    fn end(&mut self, prefetch_insns: u64, learn_insns: u64);
}

/// A [`StepSink`] that aggregates everything into plain vectors/counters.
/// Convenient for tests and benchmarks.
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    /// All prefetches, in issue order across the whole batch.
    pub prefetches: Vec<LineAddr>,
    /// Number of misses processed.
    pub steps: u64,
    /// Sum of prefetch-phase instructions.
    pub prefetch_insns: u64,
    /// Sum of learning-phase instructions.
    pub learn_insns: u64,
}

impl CollectSink {
    /// Total instructions across both phases.
    pub fn total_insns(&self) -> u64 {
        self.prefetch_insns + self.learn_insns
    }
}

impl StepSink for CollectSink {
    fn begin(&mut self, _miss: LineAddr) {
        self.steps += 1;
    }

    fn prefetch(&mut self, addr: LineAddr) {
        self.prefetches.push(addr);
    }

    fn end(&mut self, prefetch_insns: u64, learn_insns: u64) {
        self.prefetch_insns += prefetch_insns;
        self.learn_insns += learn_insns;
    }
}

/// A prefetching algorithm runnable as a User-Level Memory Thread.
///
/// The ULMT sits in the infinite loop of Figure 2: *wait → Prefetching
/// step → Learning step → wait*. [`UlmtAlgorithm::process_miss`] performs
/// both steps for one observed miss and reports the generated prefetch
/// addresses together with the per-step costs.
pub trait UlmtAlgorithm {
    /// Short name used in reports (e.g. `"repl"`).
    fn name(&self) -> String;

    /// Handles one observed L2 miss (or, in Verbose mode, an observed
    /// processor-side prefetch request): generates prefetches and learns.
    fn process_miss(&mut self, miss: LineAddr) -> StepResult;

    /// Batch kernel: processes every miss of `batch` in order, streaming
    /// the outputs into `sink` instead of materializing one
    /// [`StepResult`] per miss.
    ///
    /// The default implementation forwards to
    /// [`UlmtAlgorithm::process_miss`]. The correlation tables run their
    /// one step kernel here too, with table-touch recording compiled out
    /// and no per-step allocation, so both entry points perform the same
    /// state transitions and report the same instruction counts. Table
    /// touches are a memory-processor modeling concern; batched service
    /// ingestion only consumes instruction costs, which is what makes
    /// the skip sound.
    fn process_misses(&mut self, batch: &[LineAddr], sink: &mut dyn StepSink) {
        for &miss in batch {
            sink.begin(miss);
            let step = self.process_miss(miss);
            for &p in &step.prefetches {
                sink.prefetch(p);
            }
            sink.end(step.prefetch_cost.insns, step.learn_cost.insns);
        }
    }

    /// Pure per-level successor predictions for `miss`, used by the
    /// prediction experiment of Figure 5. `out[k]` holds the predicted
    /// level-`k+1` successors. Must not mutate state.
    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>>;

    /// Informs the algorithm that page `old` was re-mapped to `new`
    /// (Section 3.4). Algorithms without address state ignore this.
    fn remap_page(&mut self, _old: PageAddr, _new: PageAddr) {}

    /// Size of the algorithm's in-memory state (the correlation table) in
    /// bytes. Zero for table-less algorithms.
    fn table_size_bytes(&self) -> u64 {
        0
    }
}

/// Runs several algorithms back-to-back on every observed miss, merging
/// their prefetches and costs.
///
/// This is the paper's customization vehicle: the CG customization runs
/// `Seq1+Repl` ("the ULMT is extended with a single-stream sequential
/// prefetch algorithm before executing Repl", Section 5.2), and Figure 5
/// evaluates `Seq4+Base` / `Seq4+Repl` prediction by union.
///
/// # Example
///
/// ```
/// use ulmt_core::algorithm::{Combined, UlmtAlgorithm};
/// use ulmt_core::seq::SeqUlmt;
/// use ulmt_core::table::{Replicated, TableParams};
///
/// let combo = Combined::new(vec![
///     Box::new(SeqUlmt::seq1()),
///     Box::new(Replicated::new(TableParams::repl_default(1024))),
/// ]);
/// assert_eq!(combo.name(), "seq1+repl");
/// ```
pub struct Combined {
    parts: Vec<Box<dyn UlmtAlgorithm>>,
}

impl Combined {
    /// Combines `parts`, run in order (put the cheap, low-response
    /// algorithm first, as the paper does with Seq1).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn new(parts: Vec<Box<dyn UlmtAlgorithm>>) -> Self {
        assert!(!parts.is_empty(), "Combined needs at least one algorithm");
        Combined { parts }
    }

    /// The component algorithms.
    pub fn parts(&self) -> &[Box<dyn UlmtAlgorithm>] {
        &self.parts
    }
}

impl std::fmt::Debug for Combined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Combined")
            .field("name", &self.name())
            .finish()
    }
}

impl UlmtAlgorithm for Combined {
    fn name(&self) -> String {
        self.parts
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join("+")
    }

    fn process_miss(&mut self, miss: LineAddr) -> StepResult {
        let mut step = StepResult::new();
        for part in &mut self.parts {
            step.merge(part.process_miss(miss));
        }
        // De-duplicate prefetches while keeping first-issue order; the
        // hardware Filter would drop the duplicates anyway, but dropping
        // them here avoids charging the queue for them twice.
        let mut seen = Vec::with_capacity(step.prefetches.len());
        step.prefetches.retain(|&p| {
            if seen.contains(&p) {
                false
            } else {
                seen.push(p);
                true
            }
        });
        step
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = vec![Vec::new(); levels];
        for part in &self.parts {
            for (level, mut preds) in part.predict(miss, levels).into_iter().enumerate() {
                let merged = &mut out[level];
                preds.retain(|p| !merged.contains(p));
                merged.extend(preds);
            }
        }
        out
    }

    fn remap_page(&mut self, old: PageAddr, new: PageAddr) {
        for part in &mut self.parts {
            part.remap_page(old, new);
        }
    }

    fn table_size_bytes(&self) -> u64 {
        self.parts.iter().map(|p| p.table_size_bytes()).sum()
    }
}

/// Sequential-first hybrid: run a cheap sequential detector first and,
/// only when it does *not* recognize the observation as part of a stream,
/// let the correlation algorithm generate prefetches. The correlation
/// table learns every observation either way.
///
/// This is the CG customization of Section 5.2: in Verbose mode the
/// processor-side prefetcher "unscrambles" the miss sequence into chunks
/// of same-stream requests, `Seq1` locks onto each chunk and prefetches
/// ahead very efficiently, and the Replicated table covers the
/// non-sequential transitions — without flooding queue 3 with redundant
/// correlation prefetches for sequential lines.
pub struct SeqElseCorr {
    seq: crate::seq::SeqUlmt,
    corr: Box<dyn UlmtAlgorithm>,
}

impl SeqElseCorr {
    /// Combines a sequential detector with a correlation algorithm.
    pub fn new(seq: crate::seq::SeqUlmt, corr: Box<dyn UlmtAlgorithm>) -> Self {
        SeqElseCorr { seq, corr }
    }
}

impl std::fmt::Debug for SeqElseCorr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqElseCorr")
            .field("name", &self.name())
            .finish()
    }
}

impl UlmtAlgorithm for SeqElseCorr {
    fn name(&self) -> String {
        format!("{}+{}", self.seq.name(), self.corr.name())
    }

    fn process_miss(&mut self, miss: LineAddr) -> StepResult {
        let mut step = self.seq.process_miss(miss);
        let sequential = !step.prefetches.is_empty();
        let mut corr_step = self.corr.process_miss(miss);
        if sequential {
            // The stream prefetcher covered it; the table only learns.
            corr_step.prefetches.clear();
        }
        step.merge(corr_step);
        step
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = self.seq.predict(miss, levels);
        for (level, mut preds) in self.corr.predict(miss, levels).into_iter().enumerate() {
            let merged = &mut out[level];
            preds.retain(|p| !merged.contains(p));
            merged.extend(preds);
        }
        out
    }

    fn remap_page(&mut self, old: PageAddr, new: PageAddr) {
        self.corr.remap_page(old, new);
    }

    fn table_size_bytes(&self) -> u64 {
        self.corr.table_size_bytes()
    }
}

/// An algorithm that never prefetches. Useful as a control and for tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullAlgorithm;

impl UlmtAlgorithm for NullAlgorithm {
    fn name(&self) -> String {
        "null".to_string()
    }

    fn process_miss(&mut self, _miss: LineAddr) -> StepResult {
        let mut step = StepResult::new();
        step.prefetch_cost.add_insns(insn_cost::STEP_OVERHEAD);
        step
    }

    fn predict(&self, _miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        vec![Vec::new(); levels]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_algorithm_never_prefetches() {
        let mut n = NullAlgorithm;
        let step = n.process_miss(LineAddr::new(1));
        assert!(step.prefetches.is_empty());
        assert_eq!(step.prefetch_cost.insns, insn_cost::STEP_OVERHEAD);
        assert_eq!(n.predict(LineAddr::new(1), 3).len(), 3);
        assert_eq!(n.name(), "null");
    }

    #[test]
    #[should_panic(expected = "at least one algorithm")]
    fn combined_rejects_empty() {
        let _ = Combined::new(Vec::new());
    }
}
