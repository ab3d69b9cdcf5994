//! Miss-predictability scoring (Figure 5).
//!
//! "We run each ULMT algorithm simply observing all L2 cache miss
//! addresses without performing prefetching. We record the fraction of L2
//! cache misses that are correctly predicted. ... Given a miss, the Level
//! 1 chart shows the predictability of the immediate successor, while
//! Level 2 shows the predictability of the next successor, and Level 3 the
//! successor after that one." (Section 5.1)
//!
//! Mechanically: after observing miss *i*, the algorithm predicts the
//! level-1..L successors of *i*; miss *i+k* is *correctly predicted at
//! level k* if it appears in the level-k set predicted at miss *i*.

use std::collections::VecDeque;

use ulmt_simcore::LineAddr;

use crate::algorithm::{StepSink, UlmtAlgorithm};

/// A sink that drops a step's prefetches and costs and, by the default
/// [`StepSink::touches`], ignores its table touches: learning through it
/// skips the touch recording prediction-only scoring has no use for.
struct LearnOnly;

impl StepSink for LearnOnly {
    fn begin(&mut self, _miss: LineAddr) {}

    fn prefetch(&mut self, _addr: LineAddr) {}

    fn end(&mut self, _prefetch_insns: u64, _learn_insns: u64) {}
}

/// Scores per-level prediction accuracy of a [`UlmtAlgorithm`] over a miss
/// stream.
///
/// # Example
///
/// ```
/// use ulmt_core::predict::PredictionScorer;
/// use ulmt_core::table::{Base, TableParams};
/// use ulmt_simcore::LineAddr;
///
/// let mut base = Base::new(TableParams::base_default(1024));
/// let mut scorer = PredictionScorer::new(1);
/// // A perfectly repeating sequence becomes fully predictable after the
/// // first iteration.
/// for _ in 0..4 {
///     for n in [1u64, 2, 3, 4] {
///         scorer.observe(&mut base, LineAddr::new(n));
///     }
/// }
/// assert!(scorer.accuracy(1) > 0.6);
/// ```
#[derive(Debug)]
pub struct PredictionScorer {
    levels: usize,
    /// `history[j]` = predictions emitted `j+1` misses ago;
    /// `history[j][k]` = the level-`k+1` prediction set of that miss.
    history: VecDeque<Vec<Vec<LineAddr>>>,
    correct: Vec<u64>,
    total: u64,
}

impl PredictionScorer {
    /// Creates a scorer for levels `1..=levels`.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero.
    pub fn new(levels: usize) -> Self {
        assert!(levels > 0, "need at least one level");
        PredictionScorer {
            levels,
            history: VecDeque::with_capacity(levels),
            correct: vec![0; levels],
            total: 0,
        }
    }

    /// Observes one miss: scores it against outstanding predictions, then
    /// lets the algorithm learn it and records its new predictions.
    pub fn observe(&mut self, alg: &mut dyn UlmtAlgorithm, miss: LineAddr) {
        self.total += 1;
        for (j, past) in self.history.iter().enumerate() {
            // `past` was predicted j+1 misses ago, so `miss` is its
            // level-(j+1) successor.
            if past[j].contains(&miss) {
                self.correct[j] += 1;
            }
        }
        // Learn (ignore any generated prefetches: prediction-only mode).
        alg.step(miss, &mut LearnOnly);
        let preds = alg.predict(miss, self.levels);
        self.history.push_front(preds);
        self.history.truncate(self.levels);
    }

    /// Fraction of misses correctly predicted at `level` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero or greater than the configured depth.
    pub fn accuracy(&self, level: usize) -> f64 {
        assert!(level >= 1 && level <= self.levels, "level out of range");
        if self.total == 0 {
            0.0
        } else {
            self.correct[level - 1] as f64 / self.total as f64
        }
    }

    /// Total misses observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Correct predictions at `level` (1-based).
    pub fn correct(&self, level: usize) -> u64 {
        self.correct[level - 1]
    }

    /// Number of levels scored.
    pub fn levels(&self) -> usize {
        self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqUlmt;
    use crate::table::{Chain, Replicated, TableParams};

    fn run<A: UlmtAlgorithm>(
        alg: &mut A,
        levels: usize,
        seq: &[u64],
        reps: usize,
    ) -> PredictionScorer {
        let mut scorer = PredictionScorer::new(levels);
        for _ in 0..reps {
            for &n in seq {
                scorer.observe(alg, LineAddr::new(n));
            }
        }
        scorer
    }

    #[test]
    fn repl_predicts_three_levels_of_repeating_sequence() {
        let mut repl = Replicated::new(TableParams::repl_default(1024));
        let seq: Vec<u64> = (0..16).map(|i| i * 97 + 5).collect();
        let scorer = run(&mut repl, 3, &seq, 8);
        assert!(scorer.accuracy(1) > 0.8, "l1 {}", scorer.accuracy(1));
        assert!(scorer.accuracy(2) > 0.8, "l2 {}", scorer.accuracy(2));
        assert!(scorer.accuracy(3) > 0.8, "l3 {}", scorer.accuracy(3));
    }

    #[test]
    fn seq_predicts_sequential_but_not_irregular() {
        let mut seq4 = SeqUlmt::seq4();
        let sequential: Vec<u64> = (0..64).collect();
        let s = run(&mut seq4, 1, &sequential, 1);
        assert!(s.accuracy(1) > 0.9, "seq {}", s.accuracy(1));

        let mut seq4 = SeqUlmt::seq4();
        let irregular: Vec<u64> = (0..64).map(|i| (i * 7919 + 13) % 100_000).collect();
        let s = run(&mut seq4, 1, &irregular, 4);
        assert!(s.accuracy(1) < 0.1, "irr {}", s.accuracy(1));
    }

    #[test]
    fn chain_level2_weaker_than_repl_on_alternating_paths() {
        // The paper's a,b,c / b,e,b,f example: Chain's level-2 prediction
        // follows the MRU path through b and misses c.
        let pattern: Vec<u64> = vec![1, 2, 3, 90, 91, 2, 4, 2, 5, 92, 93];
        let params = TableParams {
            num_rows: 1024,
            assoc: 4,
            num_succ: 4,
            num_levels: 3,
        };
        let mut chain = Chain::new(params);
        let chain_score = run(&mut chain, 2, &pattern, 10);
        let mut repl = Replicated::new(params);
        let repl_score = run(&mut repl, 2, &pattern, 10);
        assert!(
            repl_score.accuracy(2) >= chain_score.accuracy(2),
            "repl {} vs chain {}",
            repl_score.accuracy(2),
            chain_score.accuracy(2)
        );
    }

    #[test]
    fn empty_scorer_reports_zero() {
        let s = PredictionScorer::new(2);
        assert_eq!(s.accuracy(1), 0.0);
        assert_eq!(s.total(), 0);
    }

    #[test]
    #[should_panic(expected = "level out of range")]
    fn accuracy_rejects_bad_level() {
        PredictionScorer::new(2).accuracy(3);
    }
}
