//! The [`UlmtAlgorithm`] trait and algorithm combinators.

use ulmt_simcore::{Addr, LineAddr, PageAddr};

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

/// Receiver of one ULMT step's effects.
///
/// [`UlmtAlgorithm::step`] frames each observed miss with one
/// [`StepSink::begin`] and one [`StepSink::end`], which carries the
/// instruction costs of the step's two phases. In between it reports
/// every prefetch address (in issue order, duplicates suppressed), every
/// table read of the Prefetching step and every table write of the
/// Learning step (each in access order); only the order within each of
/// these three streams is part of the contract.
pub trait StepSink {
    /// A new observed miss is about to be processed.
    fn begin(&mut self, miss: LineAddr);

    /// One prefetch address generated for the current miss.
    fn prefetch(&mut self, addr: LineAddr);

    /// The Prefetching step read `bytes` bytes of the table at `addr`.
    fn read(&mut self, _addr: Addr, _bytes: u64) {}

    /// The Learning step wrote `bytes` bytes of the table at `addr`.
    fn write(&mut self, _addr: Addr, _bytes: u64) {}

    /// How this sink takes table touches; by default it ignores them. The
    /// answer must not change within a batch: a batch step asks once.
    fn touches(&mut self) -> Touches<'_> {
        Touches::Ignored
    }

    /// The current miss is done; `prefetch_insns` and `learn_insns` are
    /// the instruction costs of its Prefetching and Learning steps.
    fn end(&mut self, prefetch_insns: u64, learn_insns: u64);
}

/// How a [`StepSink`] takes table touches, and so how a correlation table
/// runs its step kernel into it.
#[derive(Debug)]
pub enum Touches<'a> {
    /// Not at all: the kernel compiles touch reporting out.
    Ignored,
    /// Through [`StepSink::read`] and [`StepSink::write`].
    Reported,
    /// Into this record, which the kernel fills with static dispatch.
    Recorded(&'a mut StepResult),
}

/// A prefetching algorithm runnable as a User-Level Memory Thread.
///
/// The ULMT sits in the infinite loop of Figure 2: *wait → Prefetching
/// step → Learning step → wait*. [`UlmtAlgorithm::step`] is one trip
/// around that loop and the only method that processes a miss;
/// [`UlmtAlgorithm::process_miss`] and [`UlmtAlgorithm::process_misses`]
/// are built on it.
pub trait UlmtAlgorithm {
    /// Short name used in reports (e.g. `"repl"`).
    fn name(&self) -> String;

    /// Handles one observed L2 miss (or, in Verbose mode, an observed
    /// processor-side prefetch request): generates prefetches and learns,
    /// reporting both into `sink` as one `begin` … `end` frame (see
    /// [`StepSink`]).
    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink);

    /// [`UlmtAlgorithm::step`] into a fresh [`StepResult`].
    fn process_miss(&mut self, miss: LineAddr) -> StepResult {
        let mut step = StepResult::new();
        self.step(miss, &mut step);
        step
    }

    /// [`UlmtAlgorithm::step`] for every miss of `batch`, in order. An
    /// algorithm may override it only to hoist per-batch work out of the
    /// loop (the correlation tables ask [`StepSink::touches`] once per
    /// batch); the effects must be those of stepping each miss.
    fn process_misses(&mut self, batch: &[LineAddr], sink: &mut dyn StepSink) {
        for &miss in batch {
            self.step(miss, sink);
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

/// What a combinator keeps of one part's step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Keep {
    /// The whole step.
    All,
    /// Its costs but not its prefetches: the part learns and pays, but
    /// another part already covered the miss.
    Costs,
    /// Its Learning step only: the part learns off the critical path.
    Learning,
}

/// The sink a combinator hands its parts: their prefetches and touches
/// pass straight through to the caller's sink, filtered by `keep`, and
/// their own `begin`/`end` fold into the combinator's one frame.
pub(crate) struct PartSink<'a> {
    out: &'a mut dyn StepSink,
    /// What to keep of the part stepped next.
    pub(crate) keep: Keep,
    /// Prefetches issued in this step, if a repeat is to be dropped.
    issued: Option<Vec<LineAddr>>,
    /// Prefetches passed through so far.
    pub(crate) prefetches: usize,
    prefetch_insns: u64,
    learn_insns: u64,
}

impl<'a> PartSink<'a> {
    /// Opens the combinator's step for `miss` in `out`; with `dedupe`, a
    /// prefetch already issued in the step is dropped.
    pub(crate) fn open(miss: LineAddr, out: &'a mut dyn StepSink, dedupe: bool) -> Self {
        out.begin(miss);
        PartSink {
            out,
            keep: Keep::All,
            issued: dedupe.then(Vec::new),
            prefetches: 0,
            prefetch_insns: 0,
            learn_insns: 0,
        }
    }

    /// Closes the step with the kept instruction costs of every part.
    pub(crate) fn close(self) {
        self.out.end(self.prefetch_insns, self.learn_insns);
    }
}

impl StepSink for PartSink<'_> {
    fn begin(&mut self, _miss: LineAddr) {}

    fn prefetch(&mut self, addr: LineAddr) {
        if self.keep != Keep::All {
            return;
        }
        if let Some(issued) = &mut self.issued {
            if issued.contains(&addr) {
                return;
            }
            issued.push(addr);
        }
        self.prefetches += 1;
        self.out.prefetch(addr);
    }

    fn read(&mut self, addr: Addr, bytes: u64) {
        if self.keep != Keep::Learning {
            self.out.read(addr, bytes);
        }
    }

    fn write(&mut self, addr: Addr, bytes: u64) {
        self.out.write(addr, bytes);
    }

    fn touches(&mut self) -> Touches<'_> {
        match self.out.touches() {
            Touches::Ignored => Touches::Ignored,
            _ => Touches::Reported,
        }
    }

    fn end(&mut self, prefetch_insns: u64, learn_insns: u64) {
        if self.keep != Keep::Learning {
            self.prefetch_insns += prefetch_insns;
        }
        self.learn_insns += learn_insns;
    }
}

/// Adds each level of `preds` to the same level of `out`, skipping
/// addresses `out` already predicts at that level.
pub(crate) fn union_predictions(out: &mut [Vec<LineAddr>], preds: Vec<Vec<LineAddr>>) {
    for (merged, mut preds) in out.iter_mut().zip(preds) {
        preds.retain(|p| !merged.contains(p));
        merged.extend(preds);
    }
}

/// Runs several algorithms back-to-back on every observed miss, as one
/// step: their prefetches in order with repeats dropped, and their costs
/// summed.
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

    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink) {
        // Repeats are dropped while keeping first-issue order; the
        // hardware Filter would drop them anyway, but dropping them here
        // avoids charging the queue for them twice.
        let mut step = PartSink::open(miss, sink, true);
        for part in &mut self.parts {
            part.step(miss, &mut step);
        }
        step.close();
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = vec![Vec::new(); levels];
        for part in &self.parts {
            union_predictions(&mut out, part.predict(miss, levels));
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

    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink) {
        let mut step = PartSink::open(miss, sink, false);
        self.seq.step(miss, &mut step);
        if step.prefetches > 0 {
            // The stream prefetcher covered it; the table only learns.
            step.keep = Keep::Costs;
        }
        self.corr.step(miss, &mut step);
        step.close();
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = self.seq.predict(miss, levels);
        union_predictions(&mut out, self.corr.predict(miss, levels));
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

    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink) {
        sink.begin(miss);
        sink.end(insn_cost::STEP_OVERHEAD, 0);
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
