//! The Chain correlation algorithm (Figure 4-(b)).
//!
//! Chain uses the *conventional* table organization (same rows as
//! [`Base`](super::Base)) but, when prefetching, walks `NumLevels` rows
//! along the MRU path: after prefetching the immediate successors of the
//! missed line, it takes the MRU successor, looks *its* row up, prefetches
//! those successors, and repeats.
//!
//! The paper identifies its two weaknesses, both reproduced here
//! faithfully: the walked successors are not the *true* MRU successors of
//! each level (only those along the MRU path), and every level costs an
//! extra associative search — hence Chain's high response time in
//! Figure 10.

use ulmt_simcore::LineAddr;

use crate::algorithm::{insn_cost, StepSink};

use super::correlation::{emit_once, ChainKind, CorrelationTable, Kind};
use super::storage::RowPtr;

/// Multi-level correlation prefetching over the conventional table.
///
/// # Example
///
/// ```
/// use ulmt_core::table::{Chain, TableParams};
/// use ulmt_core::algorithm::UlmtAlgorithm;
/// use ulmt_simcore::LineAddr;
///
/// let mut chain = Chain::new(TableParams::chain_default(1024));
/// for _ in 0..2 {
///     for n in [1u64, 2, 3] {
///         chain.process_miss(LineAddr::new(n));
///     }
/// }
/// // Miss on 1: level 1 gives 2; following the MRU link gives 3.
/// let step = chain.process_miss(LineAddr::new(1));
/// assert!(step.prefetches.starts_with(&[LineAddr::new(2), LineAddr::new(3)]));
/// ```
pub type Chain = CorrelationTable<ChainKind>;

impl<K: Kind> CorrelationTable<K> {
    /// Chain's Prefetching step: `NumLevels` row accesses along the MRU
    /// path, each a full associative search — this is what makes Chain's
    /// response slow. Returns the row of `miss` itself, if it has one.
    #[inline]
    pub(super) fn chain_prefetch<S: StepSink + ?Sized>(
        &mut self,
        miss: LineAddr,
        insns: &mut u64,
        sink: &mut S,
    ) -> Option<RowPtr> {
        self.seen.clear();
        let mut cur = miss;
        let mut found_first = None;
        for level in 0..self.params.num_levels {
            let Some(ptr) = self.search(cur, insns, sink) else {
                break;
            };
            if level == 0 {
                found_first = Some(ptr);
            }
            let row = self
                .rows
                .get(ptr)
                .expect("fresh pointer from lookup is valid");
            for &succ in row.level(0) {
                emit_once(&mut self.seen, sink, succ);
                *insns += insn_cost::PER_PREFETCH;
            }
            match row.mru(0) {
                Some(next) => cur = next,
                None => break,
            }
        }
        found_first
    }

    pub(super) fn chain_predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = vec![Vec::new(); levels];
        let mut cur = miss;
        for level in out.iter_mut() {
            let Some(row) = self.rows.peek(cur) else {
                break;
            };
            *level = row.level(0).to_vec();
            match row.mru(0) {
                Some(next) => cur = next,
                None => break,
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

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn small() -> Chain {
        Chain::new(TableParams {
            num_rows: 256,
            assoc: 2,
            num_succ: 2,
            num_levels: 2,
        })
    }

    #[test]
    fn figure4b_prefetch_follows_mru_path() {
        let mut chain = small();
        // Miss sequence of Figure 4: a, b, c, a, d, c (a=10, b=20, c=30, d=40).
        for n in [10u64, 20, 30, 10, 40, 30] {
            chain.process_miss(line(n));
        }
        // On miss a: prefetch row a = {d, b}; follow MRU link d; row d =
        // {c}; prefetch c (Figure 4-(b)(iii)).
        let step = chain.process_miss(line(10));
        assert_eq!(step.prefetches, vec![line(40), line(20), line(30)]);
    }

    #[test]
    fn chain_misses_off_path_successors() {
        // Sequence alternating a,b,c and b,e,b,f (the paper's example of
        // Chain's inaccuracy): on miss a, Chain prefetches b then follows
        // b's row — it does NOT prefetch c if b's MRU successors changed.
        let mut chain = small();
        let (a, b, c, e, f) = (1u64, 2, 3, 4, 5);
        let seq: Vec<u64> = [a, b, c, a, b, c, b, e, b, f, b, e, b, f].to_vec();
        for n in seq {
            chain.process_miss(line(n));
        }
        let step = chain.process_miss(line(a));
        assert!(step.prefetches.contains(&line(b)));
        // c is not among the prefetches: the MRU path from b leads to e/f.
        assert!(
            !step.prefetches.contains(&line(c)),
            "prefetches {:?}",
            step.prefetches
        );
    }

    #[test]
    fn response_cost_grows_with_levels() {
        let shallow = Chain::new(TableParams {
            num_rows: 256,
            assoc: 2,
            num_succ: 2,
            num_levels: 1,
        });
        let deep = Chain::new(TableParams {
            num_rows: 256,
            assoc: 2,
            num_succ: 2,
            num_levels: 3,
        });
        let train = |mut c: Chain| {
            for _ in 0..3 {
                for n in 1..=4u64 {
                    c.process_miss(line(n));
                }
            }
            c.process_miss(line(1)).prefetch_cost
        };
        let cost_shallow = train(shallow);
        let cost_deep = train(deep);
        assert!(cost_deep.insns > cost_shallow.insns);
        assert!(cost_deep.table_touches.len() > cost_shallow.table_touches.len());
    }

    #[test]
    fn predict_walks_levels() {
        let mut chain = small();
        for _ in 0..2 {
            for n in [1u64, 2, 3] {
                chain.process_miss(line(n));
            }
        }
        let preds = chain.predict(line(1), 2);
        assert_eq!(preds[0], vec![line(2)]);
        assert_eq!(preds[1], vec![line(3)]);
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let mut chain = small();
        for n in [1u64, 2, 3, 1, 4, 3, 2, 1] {
            chain.process_miss(line(n));
        }
        let snap = chain.snapshot();
        let restored = Chain::from_snapshot(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.table_fingerprint(), chain.table_fingerprint());
        assert_eq!(restored.predict(line(1), 2), chain.predict(line(1), 2));
        // And the restored table continues learning exactly like the
        // live one — the snapshot re-armed the learning pointer.
        let mut warm = restored;
        for n in [1u64, 5, 2, 6, 1] {
            let a = chain.process_miss(line(n));
            let b = warm.process_miss(line(n));
            assert_eq!(a.prefetches, b.prefetches, "diverged at miss {n}");
        }
        assert_eq!(warm.table_fingerprint(), chain.table_fingerprint());
    }

    #[test]
    fn no_prefetch_without_training() {
        let mut chain = small();
        let step = chain.process_miss(line(7));
        assert!(step.prefetches.is_empty());
    }
}
