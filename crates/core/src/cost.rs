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

use ulmt_simcore::Addr;

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
    /// An empty cost.
    pub fn new() -> Self {
        Cost::default()
    }

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

    /// Merges `other` into `self`, preserving access order.
    pub fn merge(&mut self, other: Cost) {
        self.insns += other.insns;
        self.table_touches.extend(other.table_touches);
    }

    /// Total bytes touched.
    pub fn bytes_touched(&self) -> u64 {
        self.table_touches.iter().map(|t| t.bytes).sum()
    }
}

/// Everything an algorithm did for one observed miss.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepResult {
    /// Prefetch addresses generated, in issue order (most critical first —
    /// the MRU level-1 successor leads).
    pub prefetches: Vec<ulmt_simcore::LineAddr>,
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

    /// Merges another step performed immediately after this one (used by
    /// [`Combined`](crate::algorithm::Combined) algorithms): prefetches are
    /// appended and costs accumulate into the matching phases.
    pub fn merge(&mut self, other: StepResult) {
        self.prefetches.extend(other.prefetches);
        self.prefetch_cost.merge(other.prefetch_cost);
        self.learn_cost.merge(other.learn_cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulmt_simcore::LineAddr;

    #[test]
    fn cost_accumulates() {
        let mut c = Cost::new();
        c.add_insns(10);
        c.read(Addr::new(100), 20);
        c.write(Addr::new(200), 4);
        assert_eq!(c.insns, 10);
        assert_eq!(c.bytes_touched(), 24);
        assert_eq!(c.table_touches.len(), 2);
        assert!(c.table_touches[1].is_write);
    }

    #[test]
    fn merge_preserves_order() {
        let mut a = Cost::new();
        a.read(Addr::new(1), 4);
        let mut b = Cost::new();
        b.add_insns(5);
        b.write(Addr::new(2), 8);
        a.merge(b);
        assert_eq!(a.insns, 5);
        assert_eq!(a.table_touches[0].addr, Addr::new(1));
        assert_eq!(a.table_touches[1].addr, Addr::new(2));
    }

    #[test]
    fn step_merge_combines_phases() {
        let mut s = StepResult::new();
        s.prefetches.push(LineAddr::new(1));
        s.prefetch_cost.add_insns(3);
        let mut t = StepResult::new();
        t.prefetches.push(LineAddr::new(2));
        t.prefetch_cost.add_insns(4);
        t.learn_cost.add_insns(7);
        s.merge(t);
        assert_eq!(s.prefetches, vec![LineAddr::new(1), LineAddr::new(2)]);
        assert_eq!(s.prefetch_cost.insns, 7);
        assert_eq!(s.total_insns(), 14);
    }
}
