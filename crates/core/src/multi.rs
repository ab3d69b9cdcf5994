//! Per-application ULMTs in a multiprogrammed environment (Section 3.4).
//!
//! "It is a poor approach to have all the applications share a single
//! table: the table is likely to suffer a lot of interference. A better
//! approach is to associate a different ULMT, with its own table, to each
//! application."
//!
//! [`RegionRoutedUlmt`] models exactly that: each application lives in a
//! disjoint physical region, and every observed miss is routed to that
//! application's own algorithm instance. (In a real system the scheduler
//! switches the ULMT with the application; routing by physical region is
//! the simulator's equivalent, since regions identify applications.)

use ulmt_simcore::{LineAddr, PageAddr};

use crate::algorithm::{StepSink, UlmtAlgorithm};

/// Routes observations to per-application algorithms by address region.
pub struct RegionRoutedUlmt {
    region_lines: u64,
    threads: Vec<Box<dyn UlmtAlgorithm>>,
    /// Observations routed per region (statistics).
    routed: Vec<u64>,
    /// Observations falling outside every region.
    unrouted: u64,
}

impl RegionRoutedUlmt {
    /// Creates a router over `threads`, one per application, with regions
    /// of `region_lines` L2 lines each.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is empty or `region_lines` is zero.
    pub fn new(threads: Vec<Box<dyn UlmtAlgorithm>>, region_lines: u64) -> Self {
        assert!(!threads.is_empty(), "need at least one ULMT");
        assert!(region_lines > 0, "region size must be positive");
        let n = threads.len();
        RegionRoutedUlmt {
            region_lines,
            threads,
            routed: vec![0; n],
            unrouted: 0,
        }
    }

    /// Region (application) index of a miss line.
    pub fn region_of(&self, line: LineAddr) -> usize {
        (line.raw() / self.region_lines) as usize
    }

    /// Observations routed to application `i`.
    pub fn routed(&self, i: usize) -> u64 {
        self.routed[i]
    }

    /// Observations that did not belong to any application.
    pub fn unrouted(&self) -> u64 {
        self.unrouted
    }
}

impl std::fmt::Debug for RegionRoutedUlmt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionRoutedUlmt")
            .field("threads", &self.threads.len())
            .field("region_lines", &self.region_lines)
            .finish()
    }
}

impl UlmtAlgorithm for RegionRoutedUlmt {
    fn name(&self) -> String {
        format!("per-app({})", self.threads.len())
    }

    /// Steps the owning application's algorithm; a miss outside every
    /// region is a step that costs nothing.
    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink) {
        let region = self.region_of(miss);
        if region < self.threads.len() {
            self.routed[region] += 1;
            self.threads[region].step(miss, sink);
        } else {
            self.unrouted += 1;
            sink.begin(miss);
            sink.end(0, 0);
        }
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let region = self.region_of(miss);
        if region < self.threads.len() {
            self.threads[region].predict(miss, levels)
        } else {
            vec![Vec::new(); levels]
        }
    }

    fn remap_page(&mut self, old: PageAddr, new: PageAddr) {
        let region = self.region_of(old.first_line());
        if region < self.threads.len() {
            self.threads[region].remap_page(old, new);
        }
    }

    fn table_size_bytes(&self) -> u64 {
        self.threads.iter().map(|t| t.table_size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlgorithmSpec;

    const REGION: u64 = 1 << 20;

    fn router() -> RegionRoutedUlmt {
        RegionRoutedUlmt::new(
            vec![
                AlgorithmSpec::repl(1024).build(),
                AlgorithmSpec::repl(1024).build(),
            ],
            REGION,
        )
    }

    #[test]
    fn routes_by_region() {
        let mut r = router();
        r.process_miss(LineAddr::new(5));
        r.process_miss(LineAddr::new(REGION + 5));
        r.process_miss(LineAddr::new(REGION + 6));
        assert_eq!(r.routed(0), 1);
        assert_eq!(r.routed(1), 2);
        assert_eq!(r.unrouted(), 0);
        assert_eq!(r.name(), "per-app(2)");
    }

    #[test]
    fn isolation_between_tables() {
        let mut r = router();
        // App 0: 1 -> 2. App 1 (same in-region lines!): 1 -> 9.
        for _ in 0..2 {
            r.process_miss(LineAddr::new(1));
            r.process_miss(LineAddr::new(2));
        }
        for _ in 0..2 {
            r.process_miss(LineAddr::new(REGION + 1));
            r.process_miss(LineAddr::new(REGION + 9));
        }
        let p0 = r.predict(LineAddr::new(1), 1);
        let p1 = r.predict(LineAddr::new(REGION + 1), 1);
        assert!(p0[0].contains(&LineAddr::new(2)));
        assert!(!p0[0].contains(&LineAddr::new(9)));
        assert!(p1[0].contains(&LineAddr::new(REGION + 9)));
    }

    #[test]
    fn out_of_range_region_is_counted() {
        let mut r = router();
        let step = r.process_miss(LineAddr::new(10 * REGION));
        assert!(step.prefetches.is_empty());
        assert_eq!(r.unrouted(), 1);
    }

    #[test]
    fn aggregate_table_size() {
        let r = router();
        assert_eq!(r.table_size_bytes(), 2 * 1024 * 28);
    }
}
