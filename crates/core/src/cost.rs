//! Cost accounting for ULMT steps.
//!
//! The paper splits the handling of one observed miss into a *Prefetching
//! step* (look up the table, generate prefetch addresses — its duration is
//! the **response time**) followed by a *Learning step* (update the table;
//! prefetching + learning together define the **occupancy time**), see
//! Figure 2. Each algorithm reports what it did in machine-independent
//! units — instructions executed and table bytes touched — and the memory
//! processor model ([`ulmt-memproc`](../../memproc)) converts those into
//! cycles using its clock ratio and its private cache.

use ulmt_simcore::{Addr, LineAddr};

use crate::algorithm::{StepSink, Touches};

/// Work performed during one step (prefetching or learning).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cost {
    /// Instructions executed by the memory processor (branches, compares,
    /// pointer arithmetic). The ULMTs were "hand-optimized ... unrolling
    /// loops and hardwiring all algorithm parameters" in the paper; the
    /// constants used by the algorithms reflect that optimized code.
    pub insns: u64,
    /// Byte ranges of the software correlation table touched by the step,
    /// in access order. The memory processor replays them against its
    /// private cache to charge hit/miss latencies.
    pub table_touches: Vec<TableTouch>,
}

/// One access to the in-memory correlation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableTouch {
    /// First byte touched.
    pub addr: Addr,
    /// Number of bytes touched (a tag probe touches 4 bytes; a full row
    /// read touches the row size).
    pub bytes: u64,
    /// Whether the access writes (dirties the memory processor's cache).
    pub is_write: bool,
}

impl Cost {
    /// Adds `n` executed instructions.
    #[inline]
    pub fn add_insns(&mut self, n: u64) {
        self.insns += n;
    }

    /// Records a read of `bytes` bytes at `addr`.
    #[inline]
    pub fn read(&mut self, addr: Addr, bytes: u64) {
        self.table_touches.push(TableTouch {
            addr,
            bytes,
            is_write: false,
        });
    }

    /// Records a write of `bytes` bytes at `addr`.
    #[inline]
    pub fn write(&mut self, addr: Addr, bytes: u64) {
        self.table_touches.push(TableTouch {
            addr,
            bytes,
            is_write: true,
        });
    }
}

/// Everything an algorithm did for one observed miss.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepResult {
    /// Prefetch addresses generated, in issue order (most critical first —
    /// the MRU level-1 successor leads).
    pub prefetches: Vec<LineAddr>,
    /// Cost of the Prefetching step (defines the response time).
    pub prefetch_cost: Cost,
    /// Cost of the Learning step (response + learning = occupancy).
    pub learn_cost: Cost,
}

impl StepResult {
    /// An empty step (no prefetches, no cost).
    pub fn new() -> Self {
        StepResult::default()
    }

    /// Total instructions across both steps.
    pub fn total_insns(&self) -> u64 {
        self.prefetch_cost.insns + self.learn_cost.insns
    }

    /// Empties the step, keeping its buffers for the next one.
    pub fn clear(&mut self) {
        self.prefetches.clear();
        for cost in [&mut self.prefetch_cost, &mut self.learn_cost] {
            cost.insns = 0;
            cost.table_touches.clear();
        }
    }
}

/// Records everything: a read is a Prefetching-step touch and a write a
/// Learning-step touch. Steps accumulate, so a `StepResult` stepped over
/// a batch holds the batch's prefetches, touches and instruction sums.
impl StepSink for StepResult {
    fn begin(&mut self, _miss: LineAddr) {}

    #[inline]
    fn prefetch(&mut self, addr: LineAddr) {
        self.prefetches.push(addr);
    }

    #[inline]
    fn read(&mut self, addr: Addr, bytes: u64) {
        self.prefetch_cost.read(addr, bytes);
    }

    #[inline]
    fn write(&mut self, addr: Addr, bytes: u64) {
        self.learn_cost.write(addr, bytes);
    }

    fn touches(&mut self) -> Touches<'_> {
        Touches::Recorded(self)
    }

    #[inline]
    fn end(&mut self, prefetch_insns: u64, learn_insns: u64) {
        self.prefetch_cost.add_insns(prefetch_insns);
        self.learn_cost.add_insns(learn_insns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_accumulates() {
        let mut c = Cost::default();
        c.add_insns(10);
        c.read(Addr::new(100), 20);
        c.write(Addr::new(200), 4);
        assert_eq!(c.insns, 10);
        assert_eq!(c.table_touches[0].bytes + c.table_touches[1].bytes, 24);
        assert_eq!(c.table_touches.len(), 2);
        assert!(c.table_touches[1].is_write);
    }

    #[test]
    fn merge_preserves_order() {
        // Two steps into one StepResult: each phase keeps access order.
        let mut s = StepResult::new();
        s.read(Addr::new(1), 4);
        s.end(0, 0);
        s.read(Addr::new(2), 4);
        s.write(Addr::new(3), 8);
        s.end(0, 5);
        assert_eq!(s.learn_cost.insns, 5);
        let reads: Vec<_> = s
            .prefetch_cost
            .table_touches
            .iter()
            .map(|t| t.addr)
            .collect();
        assert_eq!(reads, vec![Addr::new(1), Addr::new(2)]);
        assert!(s.prefetch_cost.table_touches.iter().all(|t| !t.is_write));
        assert!(s.learn_cost.table_touches[0].is_write);
    }

    #[test]
    fn step_merge_combines_phases() {
        let mut s = StepResult::new();
        for (addr, prefetch, learn) in [(1, 3, 0), (2, 4, 7)] {
            s.begin(LineAddr::new(9));
            s.prefetch(LineAddr::new(addr));
            s.end(prefetch, learn);
        }
        assert_eq!(s.prefetches, vec![LineAddr::new(1), LineAddr::new(2)]);
        assert_eq!(s.prefetch_cost.insns, 7);
        assert_eq!(s.total_insns(), 14);
        s.clear();
        assert_eq!(s, StepResult::new());
    }
}
