//! The Base correlation algorithm (Figure 4-(a)).
//!
//! This is the conventional pair-based organization of Joseph & Grunwald:
//! each row stores the tag of a miss address and `NumSucc` immediate
//! successors in MRU order. On a miss, the algorithm prefetches all the
//! successors of the corresponding row; it then learns by inserting the
//! miss as the MRU immediate successor of the *previous* miss (reached
//! through a retained row pointer, no search needed).

use ulmt_simcore::LineAddr;

use crate::algorithm::insn_cost;

use super::correlation::{BaseKind, CorrelationTable, KernelSink, Kind};
use super::storage::RowPtr;

/// The conventional one-level correlation prefetcher.
///
/// # Example
///
/// ```
/// use ulmt_core::table::{Base, TableParams};
/// use ulmt_core::algorithm::UlmtAlgorithm;
/// use ulmt_simcore::LineAddr;
///
/// let mut base = Base::new(TableParams::base_default(1024));
/// for _ in 0..2 {
///     for n in [1u64, 2, 3] {
///         base.process_miss(LineAddr::new(n));
///     }
/// }
/// // Base prefetches only immediate successors: miss on 1 predicts 2.
/// let step = base.process_miss(LineAddr::new(1));
/// assert_eq!(step.prefetches, vec![LineAddr::new(2)]);
/// ```
pub type Base = CorrelationTable<BaseKind>;

impl<K: Kind> CorrelationTable<K> {
    /// Base's Prefetching step: look up `miss` and emit all its stored
    /// successors, MRU first.
    #[inline]
    pub(super) fn base_prefetch<S: KernelSink + ?Sized>(
        &mut self,
        miss: LineAddr,
        insns: &mut u64,
        sink: &mut S,
    ) -> Option<RowPtr> {
        let ptr = self.search(miss, insns, sink)?;
        let row = self
            .rows
            .get(ptr)
            .expect("fresh pointer from lookup is valid");
        for &succ in row.level(0) {
            sink.prefetch(succ);
            *insns += insn_cost::PER_PREFETCH;
        }
        Some(ptr)
    }

    pub(super) fn base_predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = vec![Vec::new(); levels];
        if levels == 0 {
            return out;
        }
        if let Some(row) = self.rows.peek(miss) {
            out[0] = row.level(0).to_vec();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::UlmtAlgorithm;
    use crate::table::TableParams;
    use ulmt_simcore::PageAddr;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn small() -> Base {
        Base::new(TableParams {
            num_rows: 256,
            assoc: 4,
            num_succ: 4,
            num_levels: 1,
        })
    }

    /// Replays the miss sequence of Figure 4: a, b, c, a, d, c.
    fn figure4_sequence(alg: &mut Base) {
        for n in [10u64, 20, 30, 10, 40, 30] {
            alg.process_miss(line(n));
        }
    }

    #[test]
    fn figure4a_state_and_prefetch() {
        let mut base = small();
        figure4_sequence(&mut base);
        // Row a holds {d, b} in MRU order (Figure 4-(a)(ii)).
        let preds = base.predict(line(10), 1);
        assert_eq!(preds[0], vec![line(40), line(20)]);
        // On a miss on a, Base prefetches d and b (Figure 4-(a)(iii)).
        let step = base.process_miss(line(10));
        assert_eq!(step.prefetches, vec![line(40), line(20)]);
    }

    #[test]
    fn first_miss_prefetches_nothing() {
        let mut base = small();
        let step = base.process_miss(line(1));
        assert!(step.prefetches.is_empty());
        // But the step still charged the search.
        assert!(step.prefetch_cost.insns > 0);
        assert!(!step.prefetch_cost.table_touches.is_empty());
    }

    #[test]
    fn successor_lists_are_lru_capped() {
        let mut base = Base::new(TableParams {
            num_rows: 256,
            assoc: 4,
            num_succ: 2,
            num_levels: 1,
        });
        // a followed by b, c, d at different times: only 2 most recent kept.
        for n in [1u64, 2, 1, 3, 1, 4] {
            base.process_miss(line(n));
        }
        let preds = base.predict(line(1), 1);
        assert_eq!(preds[0], vec![line(4), line(3)]);
    }

    #[test]
    fn learning_costs_are_charged_to_learn_phase() {
        let mut base = small();
        base.process_miss(line(1));
        let step = base.process_miss(line(2));
        // Learning writes the last row (successor insert) and the new row.
        let writes = step
            .learn_cost
            .table_touches
            .iter()
            .filter(|t| t.is_write)
            .count();
        assert_eq!(writes, 2);
        // Prefetch phase never writes.
        assert!(step.prefetch_cost.table_touches.iter().all(|t| !t.is_write));
    }

    #[test]
    fn predict_is_pure() {
        let mut base = small();
        figure4_sequence(&mut base);
        let before = base.table_stats().lookups;
        let _ = base.predict(line(10), 1);
        assert_eq!(base.table_stats().lookups, before);
    }

    #[test]
    fn remap_moves_learned_correlations() {
        let mut base = small();
        let lpp = PageAddr::lines_per_page();
        let a = line(lpp * 4);
        let b = line(lpp * 4 + 1);
        for _ in 0..2 {
            base.process_miss(a);
            base.process_miss(b);
        }
        base.remap_page(PageAddr::new(4), PageAddr::new(9));
        let a_new = line(lpp * 9);
        let b_new = line(lpp * 9 + 1);
        let preds = base.predict(a_new, 1);
        assert!(preds[0].contains(&b_new), "preds {:?}", preds[0]);
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let mut base = small();
        for n in [10u64, 20, 30, 10, 40, 30, 20, 10, 50] {
            base.process_miss(line(n));
        }
        let snap = base.snapshot();
        let restored = Base::from_snapshot(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.table_fingerprint(), base.table_fingerprint());
        assert_eq!(restored.predict(line(10), 1), base.predict(line(10), 1));
        // And through the byte codec too.
        let snap2 = super::super::TableSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(snap2.fingerprint(), snap.fingerprint());
    }

    #[test]
    fn restored_table_continues_bit_identically() {
        let mut live = small();
        for n in [10u64, 20, 30, 10, 40, 30, 20] {
            live.process_miss(line(n));
        }
        // The restored table must not just fingerprint equal — it must
        // *evolve* identically, which requires the learning pointer to
        // survive the snapshot (the next miss links to the last row).
        let mut warm = Base::from_snapshot(&live.snapshot()).unwrap();
        for n in [10u64, 50, 20, 60, 10, 50] {
            let a = live.process_miss(line(n));
            let b = warm.process_miss(line(n));
            assert_eq!(a.prefetches, b.prefetches, "diverged at miss {n}");
            assert_eq!(a.total_insns(), b.total_insns(), "cost diverged at {n}");
        }
        assert_eq!(warm.table_fingerprint(), live.table_fingerprint());
    }

    #[test]
    fn snapshot_rejects_wrong_kind() {
        let chain = crate::table::Chain::new(TableParams::chain_default(64));
        assert!(Base::from_snapshot(&chain.snapshot()).is_err());
    }

    #[test]
    fn resize_shrinks_table() {
        let mut base = small();
        for n in 0..200u64 {
            base.process_miss(line(n));
        }
        base.resize(64);
        assert_eq!(base.params().num_rows, 64);
        assert!(base.table_size_bytes() < 256 * 20);
        // Still functional after resize.
        base.process_miss(line(1));
        base.process_miss(line(2));
        base.process_miss(line(1));
        let step = base.process_miss(line(2));
        assert!(step.prefetches.is_empty() || !step.prefetches.is_empty());
    }
}
