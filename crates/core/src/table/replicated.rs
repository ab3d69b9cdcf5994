//! The Replicated correlation algorithm (Figure 4-(c)) — the paper's new
//! table organization.
//!
//! Each row stores the miss tag plus `NumLevels` *levels* of successors,
//! each level an independent `NumSucc`-entry MRU list. The algorithm keeps
//! `NumLevels` pointers to the rows of the last few misses; learning
//! inserts the new miss at the correct level of each pointed-to row
//! *without any associative search*, and prefetching needs a **single**
//! row access to emit true-MRU successors for every level.
//!
//! This resolves both problems of [`Chain`](super::Chain): prefetches are
//! accurate (true MRU per level, whatever path produced them) and the
//! response time is low (one search, one row, often one cache line).

use ulmt_simcore::LineAddr;

use crate::algorithm::insn_cost;

use super::correlation::{emit_once, CorrelationTable, KernelSink, Kind, ReplKind};
use super::storage::RowPtr;

/// The Replicated multi-level correlation prefetcher.
///
/// # Example
///
/// ```
/// use ulmt_core::table::{Replicated, TableParams};
/// use ulmt_core::algorithm::UlmtAlgorithm;
/// use ulmt_simcore::LineAddr;
///
/// let mut repl = Replicated::new(TableParams::repl_default(1024));
/// for _ in 0..2 {
///     for n in [1u64, 2, 3] {
///         repl.process_miss(LineAddr::new(n));
///     }
/// }
/// // One row access yields both levels: 2 (level 1) and 3 (level 2).
/// let preds = repl.predict(LineAddr::new(1), 2);
/// assert_eq!(preds[0], vec![LineAddr::new(2)]);
/// assert_eq!(preds[1], vec![LineAddr::new(3)]);
/// ```
pub type Replicated = CorrelationTable<ReplKind>;

impl<K: Kind> CorrelationTable<K> {
    /// Replicated's Prefetching step: a single associative search and a
    /// single row read emit every level's true-MRU successors. Learning
    /// then inserts the miss at level i of the (i+1)-last miss's row
    /// through the retained pointers — "these multiple learning updates
    /// are inexpensive ... the rows to be updated are most likely still
    /// in the cache" (Section 3.3.2).
    #[inline]
    pub(super) fn repl_prefetch<S: KernelSink + ?Sized>(
        &mut self,
        miss: LineAddr,
        insns: &mut u64,
        sink: &mut S,
    ) -> Option<RowPtr> {
        self.seen.clear();
        let ptr = self.search(miss, insns, sink)?;
        let row = self
            .rows
            .get(ptr)
            .expect("fresh pointer from lookup is valid");
        for level in 0..row.levels() {
            for &succ in row.level(level) {
                emit_once(&mut self.seen, sink, succ);
                *insns += insn_cost::PER_PREFETCH;
            }
        }
        Some(ptr)
    }

    pub(super) fn repl_predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = vec![Vec::new(); levels];
        if let Some(row) = self.rows.peek(miss) {
            for (level, slot) in out.iter_mut().enumerate().take(row.levels()) {
                *slot = row.level(level).to_vec();
            }
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

    fn small() -> Replicated {
        Replicated::new(TableParams {
            num_rows: 256,
            assoc: 2,
            num_succ: 2,
            num_levels: 2,
        })
    }

    #[test]
    fn figure4c_prefetches_all_levels_from_one_row() {
        let mut repl = small();
        // Miss sequence of Figure 4: a, b, c, a, d, c.
        for n in [10u64, 20, 30, 10, 40, 30] {
            repl.process_miss(line(n));
        }
        // Figure 4-(c)(iii): on miss a, prefetch d, b (level 1) and c
        // (level 2) — all from row a.
        let step = repl.process_miss(line(10));
        assert_eq!(step.prefetches, vec![line(40), line(20), line(30)]);
        // Exactly one row was read in the prefetch phase (plus tag probes).
        let row_reads = step
            .prefetch_cost
            .table_touches
            .iter()
            .filter(|t| t.bytes > 4)
            .count();
        assert_eq!(row_reads, 1);
    }

    #[test]
    fn true_mru_beats_chain_on_alternating_paths() {
        // The paper's example: a,b,c ... b,e,b,f ... a,b,c. Replicated
        // keeps c as a true level-2 successor of a even though b's own MRU
        // successors moved on.
        let mut repl = small();
        let (a, b, c, e, f) = (1u64, 2, 3, 4, 5);
        for n in [a, b, c, a, b, c, b, e, b, f, b, e, b, f] {
            repl.process_miss(line(n));
        }
        let preds = repl.predict(line(a), 2);
        assert!(preds[0].contains(&line(b)));
        assert!(preds[1].contains(&line(c)), "level-2 {:?}", preds[1]);
    }

    #[test]
    fn learning_uses_pointers_not_searches() {
        let mut repl = small();
        repl.process_miss(line(1));
        repl.process_miss(line(2));
        let lookups_before = repl.table_stats().lookups;
        // Miss on a known line: prefetch phase does 1 lookup; learning
        // should add none beyond the (hitting) prefetch lookup.
        repl.process_miss(line(1));
        let lookups = repl.table_stats().lookups - lookups_before;
        assert_eq!(lookups, 1);
    }

    #[test]
    fn pointer_staleness_is_tolerated() {
        // 1 set x 2 ways: allocating a third row invalidates the oldest
        // pointer; learning must skip it without panicking.
        let mut repl = Replicated::new(TableParams {
            num_rows: 2,
            assoc: 2,
            num_succ: 2,
            num_levels: 2,
        });
        repl.process_miss(line(1));
        repl.process_miss(line(2));
        repl.process_miss(line(3)); // replaces row 1, pointers partly stale
        repl.process_miss(line(4));
        assert!(repl.table_stats().replacements > 0);
    }

    #[test]
    fn deeper_levels_with_numlevels4() {
        // The MST/Mcf customization (Table 5): NumLevels = 4.
        let mut repl = Replicated::new(TableParams {
            num_rows: 256,
            assoc: 2,
            num_succ: 2,
            num_levels: 4,
        });
        for _ in 0..3 {
            for n in [1u64, 2, 3, 4, 5] {
                repl.process_miss(line(n));
            }
        }
        let preds = repl.predict(line(1), 4);
        assert_eq!(preds[0], vec![line(2)]);
        assert_eq!(preds[1], vec![line(3)]);
        assert_eq!(preds[2], vec![line(4)]);
        assert_eq!(preds[3], vec![line(5)]);
    }

    #[test]
    fn self_successor_allowed() {
        let mut repl = small();
        for _ in 0..4 {
            repl.process_miss(line(9));
        }
        let preds = repl.predict(line(9), 1);
        assert_eq!(preds[0], vec![line(9)]);
    }

    #[test]
    fn remap_rewrites_levels() {
        let mut repl = small();
        let lpp = PageAddr::lines_per_page();
        let seq = [lpp * 2, lpp * 2 + 1, lpp * 2 + 2];
        for _ in 0..2 {
            for &n in &seq {
                repl.process_miss(line(n));
            }
        }
        repl.remap_page(PageAddr::new(2), PageAddr::new(5));
        let preds = repl.predict(line(lpp * 5), 2);
        assert_eq!(preds[0], vec![line(lpp * 5 + 1)]);
        assert_eq!(preds[1], vec![line(lpp * 5 + 2)]);
    }

    #[test]
    fn resize_clears_pointers_but_keeps_rows() {
        let mut repl = small();
        for n in 0..100u64 {
            repl.process_miss(line(n));
        }
        repl.resize(64);
        assert_eq!(repl.params().num_rows, 64);
        // Learning continues from scratch pointers without panic.
        repl.process_miss(line(1));
        repl.process_miss(line(2));
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let mut repl = small();
        for n in [10u64, 20, 30, 10, 40, 30, 20, 10, 50, 40] {
            repl.process_miss(line(n));
        }
        let snap = repl.snapshot();
        let restored = Replicated::from_snapshot(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.table_fingerprint(), repl.table_fingerprint());
        assert_eq!(restored.predict(line(10), 2), repl.predict(line(10), 2));
        // The restored table continues exactly like the live one: the
        // snapshot's learning context re-arms the level pointers, so the
        // very next misses learn into the same rows at the same levels.
        let mut warm = restored;
        for n in [20u64, 30, 10, 60, 40, 20] {
            let a = repl.process_miss(line(n));
            let b = warm.process_miss(line(n));
            assert_eq!(a.prefetches, b.prefetches, "diverged at miss {n}");
            assert_eq!(a.total_insns(), b.total_insns(), "cost diverged at {n}");
        }
        assert_eq!(warm.table_fingerprint(), repl.table_fingerprint());
    }

    #[test]
    fn space_requirement_scales_with_levels() {
        let l3 = Replicated::new(TableParams::repl_default(1024));
        let l4 = Replicated::new(TableParams {
            num_levels: 4,
            ..TableParams::repl_default(1024)
        });
        assert!(l4.table_size_bytes() > l3.table_size_bytes());
        assert_eq!(l3.table_size_bytes(), 1024 * 28);
    }
}
