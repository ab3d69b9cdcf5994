//! Adaptive on-the-fly algorithm selection (Section 3.3.3).
//!
//! "Another approach is to adaptively decide the algorithm on-the-fly, as
//! the application executes." This ULMT monitors how sequential the recent
//! miss stream is and steers between a pure sequential prefetcher (cheap,
//! low response time) and the Replicated correlation prefetcher:
//!
//! * mostly-sequential window → run Seq only (Repl keeps learning but does
//!   not search on the critical path);
//! * mostly-irregular window → run Repl only;
//! * mixed → run both.

use ulmt_simcore::{LineAddr, PageAddr};

use crate::algorithm::{union_predictions, Keep, PartSink, StepSink, UlmtAlgorithm};
use crate::seq::SeqUlmt;
use crate::table::{Replicated, TableParams};

/// Operating mode chosen by the adaptive controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveMode {
    /// Run only the sequential prefetcher.
    SeqOnly,
    /// Run only the Replicated correlation prefetcher.
    ReplOnly,
    /// Run both (sequential first, as in the CG customization).
    Both,
}

/// Misses per decision window.
const WINDOW: u64 = 256;
/// Above this sequential fraction the window is "mostly sequential".
const HI: f64 = 0.75;
/// Below this sequential fraction the window is "mostly irregular".
const LO: f64 = 0.25;

/// A ULMT that re-decides its algorithm every decision window (256
/// misses).
///
/// # Example
///
/// ```
/// use ulmt_core::adaptive::{AdaptiveUlmt, AdaptiveMode};
/// use ulmt_core::algorithm::UlmtAlgorithm;
/// use ulmt_core::table::TableParams;
/// use ulmt_simcore::LineAddr;
///
/// let mut a = AdaptiveUlmt::new(TableParams::repl_default(1024));
/// // A long sequential run drives the controller into SeqOnly mode.
/// for n in 0..2048u64 {
///     a.process_miss(LineAddr::new(n));
/// }
/// assert_eq!(a.mode(), AdaptiveMode::SeqOnly);
/// ```
#[derive(Debug)]
pub struct AdaptiveUlmt {
    seq: SeqUlmt,
    repl: Replicated,
    mode: AdaptiveMode,
    last_miss: Option<LineAddr>,
    window_misses: u64,
    window_sequential: u64,
    mode_switches: u64,
}

impl AdaptiveUlmt {
    /// Creates an adaptive ULMT whose correlation half uses `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid.
    pub fn new(params: TableParams) -> Self {
        AdaptiveUlmt {
            seq: SeqUlmt::seq4(),
            repl: Replicated::new(params),
            mode: AdaptiveMode::Both,
            last_miss: None,
            window_misses: 0,
            window_sequential: 0,
            mode_switches: 0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> AdaptiveMode {
        self.mode
    }

    /// Number of mode changes so far.
    pub fn mode_switches(&self) -> u64 {
        self.mode_switches
    }

    fn update_window(&mut self, miss: LineAddr) {
        if let Some(last) = self.last_miss {
            if miss.delta(last).abs() == 1 {
                self.window_sequential += 1;
            }
        }
        self.last_miss = Some(miss);
        self.window_misses += 1;
        if self.window_misses >= WINDOW {
            let fraction = self.window_sequential as f64 / self.window_misses as f64;
            let new_mode = if fraction >= HI {
                AdaptiveMode::SeqOnly
            } else if fraction <= LO {
                AdaptiveMode::ReplOnly
            } else {
                AdaptiveMode::Both
            };
            if new_mode != self.mode {
                self.mode = new_mode;
                self.mode_switches += 1;
            }
            self.window_misses = 0;
            self.window_sequential = 0;
        }
    }
}

impl UlmtAlgorithm for AdaptiveUlmt {
    fn name(&self) -> String {
        "adaptive".to_string()
    }

    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink) {
        self.update_window(miss);
        if self.mode == AdaptiveMode::ReplOnly {
            return self.repl.step(miss, sink);
        }
        let mut step = PartSink::open(miss, sink, false);
        self.seq.step(miss, &mut step);
        if self.mode == AdaptiveMode::SeqOnly {
            // Repl keeps learning off the critical path: charge its
            // learning step but discard its prefetching step.
            step.keep = Keep::Learning;
        }
        self.repl.step(miss, &mut step);
        step.close();
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = self.seq.predict(miss, levels);
        union_predictions(&mut out, self.repl.predict(miss, levels));
        out
    }

    fn remap_page(&mut self, old: PageAddr, new: PageAddr) {
        self.repl.remap_page(old, new);
    }

    fn table_size_bytes(&self) -> u64 {
        self.repl.table_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn irregular_stream_selects_repl_only() {
        let mut a = AdaptiveUlmt::new(TableParams::repl_default(1024));
        for i in 0..(WINDOW * 2) {
            a.process_miss(line((i * 7919 + 3) % 65_536));
        }
        assert_eq!(a.mode(), AdaptiveMode::ReplOnly);
    }

    #[test]
    fn mixed_stream_selects_both() {
        let mut a = AdaptiveUlmt::new(TableParams::repl_default(1024));
        for i in 0..(WINDOW / 2) {
            // A run of three sequential lines then one irregular jump:
            // half of the deltas are ±1.
            let b = i * 1000;
            a.process_miss(line(b));
            a.process_miss(line(b + 1));
            a.process_miss(line(b + 2));
            a.process_miss(line((i * 104_729 + 7) % 65_536));
        }
        assert_eq!(a.mode(), AdaptiveMode::Both);
    }

    #[test]
    fn mode_switch_counter() {
        let mut a = AdaptiveUlmt::new(TableParams::repl_default(1024));
        for n in 0..WINDOW {
            a.process_miss(line(n));
        }
        assert_eq!(a.mode(), AdaptiveMode::SeqOnly);
        for i in 0..WINDOW {
            a.process_miss(line((i * 7919 + 3) % 65_536));
        }
        assert_eq!(a.mode(), AdaptiveMode::ReplOnly);
        assert_eq!(a.mode_switches(), 2);
    }

    #[test]
    fn repl_learns_even_in_seq_mode() {
        let mut a = AdaptiveUlmt::new(TableParams::repl_default(1024));
        // Drive into SeqOnly.
        for n in 0..WINDOW {
            a.process_miss(line(n));
        }
        assert_eq!(a.mode(), AdaptiveMode::SeqOnly);
        // Repl still learned the tail of the sequence.
        let preds = a.repl.predict(line(WINDOW - 2), 1);
        assert!(preds[0].contains(&line(WINDOW - 1)));
    }
}
