//! Software sequential prefetching as a ULMT (`Seq1`, `Seq4` in Table 4).
//!
//! "The sequential prefetching supported in hardware by the main processor
//! ... can also be implemented in software by a ULMT. ... In this case,
//! the prefetcher in memory observes L2 misses rather than L1."
//! (Section 4). The resulting algorithm has a very low response time for
//! sequential miss patterns, which is why the CG customization runs it
//! *before* Replicated.

use ulmt_simcore::LineAddr;

use crate::algorithm::{insn_cost, StepSink, UlmtAlgorithm};
use crate::stream::StreamDetector;

/// A sequential ULMT with `NumSeq` stream registers.
///
/// # Example
///
/// ```
/// use ulmt_core::seq::SeqUlmt;
/// use ulmt_core::algorithm::UlmtAlgorithm;
/// use ulmt_simcore::LineAddr;
///
/// let mut seq = SeqUlmt::seq4();
/// seq.process_miss(LineAddr::new(7));
/// seq.process_miss(LineAddr::new(8));
/// let step = seq.process_miss(LineAddr::new(9));
/// assert_eq!(step.prefetches.first(), Some(&LineAddr::new(10)));
/// ```
#[derive(Debug, Clone)]
pub struct SeqUlmt {
    detector: StreamDetector,
}

impl SeqUlmt {
    /// Creates a sequential ULMT with `num_seq` registers prefetching
    /// `num_pref` lines ahead.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(num_seq: usize, num_pref: usize) -> Self {
        SeqUlmt {
            detector: StreamDetector::new(num_seq, num_pref),
        }
    }

    /// Like [`SeqUlmt::new`], with the issue window starting `offset`
    /// lines beyond the observed address (used by the Verbose-mode CG
    /// customization to extend the processor prefetcher's lookahead).
    pub fn with_lookahead_offset(num_seq: usize, num_pref: usize, offset: usize) -> Self {
        SeqUlmt {
            detector: StreamDetector::new(num_seq, num_pref).with_lookahead_offset(offset),
        }
    }

    /// The paper's `Seq1`: one stream, `NumPref = 6` (Table 4).
    pub fn seq1() -> Self {
        Self::new(1, 6)
    }

    /// The paper's `Seq4`: four streams, `NumPref = 6` (Table 4).
    pub fn seq4() -> Self {
        Self::new(4, 6)
    }

    /// The underlying detector (for statistics).
    pub fn detector(&self) -> &StreamDetector {
        &self.detector
    }
}

impl UlmtAlgorithm for SeqUlmt {
    fn name(&self) -> String {
        format!("seq{}", self.detector.num_seq())
    }

    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink) {
        sink.begin(miss);
        let prefetches = self.detector.observe(miss);
        for &p in &prefetches {
            sink.prefetch(p);
        }
        // All state fits in registers / a few cache lines: the cost is
        // purely computational and small.
        let prefetch_insns = insn_cost::STEP_OVERHEAD
            + insn_cost::PER_STREAM_CHECK * self.detector.num_seq() as u64
            + insn_cost::PER_PREFETCH * prefetches.len() as u64;
        sink.end(prefetch_insns, insn_cost::LEARN_OVERHEAD);
    }

    fn predict(&self, _miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        self.detector.predict(levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn names_follow_table4() {
        assert_eq!(SeqUlmt::seq1().name(), "seq1");
        assert_eq!(SeqUlmt::seq4().name(), "seq4");
    }

    #[test]
    fn irregular_stream_generates_nothing() {
        let mut seq = SeqUlmt::seq4();
        for n in [3u64, 999, 17, 40_000] {
            let step = seq.process_miss(line(n));
            assert!(step.prefetches.is_empty());
            // But the observation still costs instructions (occupancy).
            assert!(step.total_insns() > 0);
        }
    }

    #[test]
    fn sequential_run_prefetches_numpref_ahead() {
        let mut seq = SeqUlmt::seq1();
        seq.process_miss(line(0));
        seq.process_miss(line(1));
        let step = seq.process_miss(line(2));
        assert_eq!(step.prefetches.len(), 6);
        assert_eq!(step.prefetches[0], line(3));
        assert_eq!(step.prefetches[5], line(8));
    }

    #[test]
    fn response_cost_is_small() {
        // Sequential detection must be far cheaper than a table search:
        // this is why customized CG runs Seq1 before Repl.
        let mut seq = SeqUlmt::seq1();
        let step = seq.process_miss(line(0));
        assert!(step.prefetch_cost.insns < 16);
        assert!(step.prefetch_cost.table_touches.is_empty());
    }

    #[test]
    fn seq1_tracks_single_stream_only() {
        let mut seq = SeqUlmt::seq1();
        // Interleave two streams; with one register the detector thrashes.
        for i in 0..6u64 {
            seq.process_miss(line(i));
            seq.process_miss(line(1000 + i));
        }
        assert_eq!(seq.detector().active_streams(), 1);
    }
}
