//! Profiling as a ULMT (Section 3.3.3).
//!
//! "Finally, the ULMT can also be used for profiling purposes. It can
//! monitor the misses of an application and infer higher-level information
//! such as cache performance, application access patterns, or page
//! conflicts."
//!
//! [`ProfilingUlmt`] never prefetches; it accumulates:
//!
//! * per-page miss counts and a hot-page ranking,
//! * an L2-set pressure histogram from which conflict-heavy sets are
//!   inferred (the paper's future-work customization for Sparse and Tree),
//! * the sequential fraction of the miss stream (guides algorithm choice).

use std::collections::HashMap;

use ulmt_simcore::{LineAddr, PageAddr};

use crate::algorithm::{insn_cost, StepSink, UlmtAlgorithm};

/// Number of L2 sets assumed when attributing misses to sets (Table 3:
/// 512 KB, 4-way, 64 B lines → 2048 sets).
const L2_SETS: usize = 2048;

/// A non-prefetching ULMT that builds an application miss profile.
///
/// # Example
///
/// ```
/// use ulmt_core::profiling::ProfilingUlmt;
/// use ulmt_core::algorithm::UlmtAlgorithm;
/// use ulmt_simcore::LineAddr;
///
/// let mut prof = ProfilingUlmt::new();
/// for n in [1u64, 2, 3, 1000] {
///     prof.process_miss(LineAddr::new(n));
/// }
/// assert_eq!(prof.total_misses(), 4);
/// // Lines 1,2,3 share page 0: it is the hottest page.
/// assert_eq!(prof.hot_pages(1)[0].1, 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProfilingUlmt {
    page_misses: HashMap<PageAddr, u64>,
    set_misses: Vec<u64>,
    total: u64,
    sequential: u64,
    last: Option<LineAddr>,
}

impl ProfilingUlmt {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        ProfilingUlmt {
            page_misses: HashMap::new(),
            set_misses: vec![0; L2_SETS],
            total: 0,
            sequential: 0,
            last: None,
        }
    }

    /// Total misses observed.
    pub fn total_misses(&self) -> u64 {
        self.total
    }

    /// The `n` pages with the most misses, hottest first.
    pub fn hot_pages(&self, n: usize) -> Vec<(PageAddr, u64)> {
        let mut pages: Vec<_> = self.page_misses.iter().map(|(&p, &c)| (p, c)).collect();
        pages.sort_by_key(|&(p, c)| (std::cmp::Reverse(c), p));
        pages.truncate(n);
        pages
    }

    /// Fraction of misses whose line is adjacent (±1) to the previous
    /// miss — a cheap sequentiality estimate.
    pub fn sequential_fraction(&self) -> f64 {
        if self.total <= 1 {
            0.0
        } else {
            self.sequential as f64 / (self.total - 1) as f64
        }
    }

    /// L2 sets whose miss count exceeds `factor` times the mean — likely
    /// conflict hot spots (the paper's planned customization for cache
    /// conflict detection and elimination).
    pub fn conflict_sets(&self, factor: f64) -> Vec<(usize, u64)> {
        let mean = self.total as f64 / L2_SETS as f64;
        let mut sets: Vec<_> = self
            .set_misses
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c as f64 > factor * mean && c > 1)
            .map(|(i, &c)| (i, c))
            .collect();
        sets.sort_by_key(|&(i, c)| (std::cmp::Reverse(c), i));
        sets
    }

    /// Number of distinct pages that missed.
    pub fn distinct_pages(&self) -> usize {
        self.page_misses.len()
    }
}

impl UlmtAlgorithm for ProfilingUlmt {
    fn name(&self) -> String {
        "profile".to_string()
    }

    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink) {
        sink.begin(miss);
        self.total += 1;
        *self.page_misses.entry(miss.page()).or_insert(0) += 1;
        self.set_misses[(miss.raw() as usize) & (L2_SETS - 1)] += 1;
        if let Some(last) = self.last {
            if miss.delta(last).abs() == 1 {
                self.sequential += 1;
            }
        }
        self.last = Some(miss);

        // Profiling is all learning: histogram updates off the critical
        // path, no prefetches generated.
        sink.end(0, insn_cost::STEP_OVERHEAD + 2 * insn_cost::PER_INSERT);
    }

    fn predict(&self, _miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        vec![Vec::new(); levels]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn counts_pages_and_ranks() {
        let mut p = ProfilingUlmt::new();
        let lpp = PageAddr::lines_per_page();
        for _ in 0..5 {
            p.process_miss(line(lpp * 3));
        }
        for _ in 0..2 {
            p.process_miss(line(lpp * 8));
        }
        let hot = p.hot_pages(2);
        assert_eq!(hot[0], (PageAddr::new(3), 5));
        assert_eq!(hot[1], (PageAddr::new(8), 2));
        assert_eq!(p.distinct_pages(), 2);
    }

    #[test]
    fn sequential_fraction_detects_streams() {
        let mut p = ProfilingUlmt::new();
        for n in 0..100u64 {
            p.process_miss(line(n));
        }
        assert!(p.sequential_fraction() > 0.95);

        let mut q = ProfilingUlmt::new();
        for n in 0..100u64 {
            q.process_miss(line((n * 7919) % 65_536));
        }
        assert!(q.sequential_fraction() < 0.05);
    }

    #[test]
    fn conflict_sets_flag_hot_sets() {
        let mut p = ProfilingUlmt::new();
        // Hammer a single set with many distinct lines.
        for i in 0..200u64 {
            p.process_miss(line(5 + i * L2_SETS as u64));
        }
        // And scatter a few misses elsewhere.
        for n in 0..50u64 {
            p.process_miss(line(n));
        }
        let conflicts = p.conflict_sets(10.0);
        assert!(!conflicts.is_empty());
        assert_eq!(conflicts[0].0, 5);
        // Exactly the 200 hammered misses plus the one scattered miss that
        // also maps to set 5 (line 5 itself).
        assert_eq!(conflicts[0].1, 201);
    }

    #[test]
    fn never_prefetches() {
        let mut p = ProfilingUlmt::new();
        for n in 0..10u64 {
            let step = p.process_miss(line(n));
            assert!(step.prefetches.is_empty());
            assert_eq!(step.prefetch_cost.insns, 0);
            assert!(step.learn_cost.insns > 0);
        }
    }
}
