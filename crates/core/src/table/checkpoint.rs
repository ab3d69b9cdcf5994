//! Slot-exact, in-place checkpoints of a correlation table.
//!
//! A [`TableCheckpoint`] is a copy of a table's live slots, kept in flat
//! buffers that are updated in place: a `slot → position` index plus one
//! record per slot (slot, tag, LRU stamp, generation, level lengths and
//! successors), and the table's LRU clock, [`TableStats`] and retained
//! learning pointers.
//!
//! [`CorrelationTable::checkpoint_into`] drains the table's dirty slots
//! (see the [`RowTable`](super::RowTable) docs) into the copy, so the
//! cost of bringing a checkpoint up to date follows the rows changed
//! since the last one, not the table size. The invariant is *copy +
//! dirty slots == live table*. A resize, a page remap or a snapshot
//! restore breaks it, and the next capture then copies every slot.
//!
//! [`CorrelationTable::restore_checkpoint`] writes the records straight
//! back to their slots, with no sort and no re-insertion: the restored
//! table is slot for slot the captured one, and the copy is again *copy
//! + no dirty slots*, so the invariant holds after recovery too.
//!
//! The portable format remains [`TableSnapshot`](super::TableSnapshot)
//! (`ULMTSNAP`); a checkpoint is an in-memory recovery structure, not a
//! wire or file format.

use std::mem::size_of;

use ulmt_simcore::LineAddr;

use super::correlation::{CorrelationTable, Kind};
use super::snapshot::SnapshotError;
use super::storage::{RowPtr, TableStats};
use super::{TableKind, TableParams};

/// One captured slot. Successors and level lengths live in the
/// checkpoint's flat buffers at the record's position.
#[derive(Debug, Clone, Copy)]
pub(super) struct SlotRecord {
    pub(super) slot: u32,
    pub(super) valid: bool,
    pub(super) tag: LineAddr,
    pub(super) lru: u64,
    pub(super) gen: u64,
}

/// A slot-exact copy of a [`CorrelationTable`]'s live slots, updated in
/// place (see the module docs).
///
/// # Example
///
/// ```
/// use ulmt_core::algorithm::UlmtAlgorithm;
/// use ulmt_core::table::{CorrelationTable, TableKind, TableParams};
/// use ulmt_simcore::LineAddr;
///
/// let mut live = CorrelationTable::with_kind(TableKind::Repl, TableParams::repl_default(1024));
/// live.process_misses(&[1, 2, 3].map(LineAddr::new), &mut ulmt_core::cost::StepResult::new());
/// let mut cp = live.checkpoint();
/// live.process_miss(LineAddr::new(1));
/// live.checkpoint_into(&mut cp); // copies the two slots that changed
///
/// let mut rebuilt = CorrelationTable::with_kind(TableKind::Repl, TableParams::repl_default(1024));
/// rebuilt.restore_checkpoint(&cp).unwrap();
/// assert_eq!(rebuilt.snapshot(), live.snapshot());
/// ```
#[derive(Debug, Clone)]
pub struct TableCheckpoint {
    pub(super) kind: TableKind,
    pub(super) params: TableParams,
    /// Equals the captured table's sync token while this copy plus the
    /// table's dirty slots equals the table; 0 while an update is under
    /// way.
    pub(super) token: u64,
    /// `index[slot]` = position of the slot's record, or `NO_RECORD`.
    pub(super) index: Vec<u32>,
    pub(super) records: Vec<SlotRecord>,
    /// `levels` length bytes per record.
    pub(super) lens: Vec<u8>,
    /// `levels * num_succ` successors per record (dead tails included).
    pub(super) succ: Vec<LineAddr>,
    pub(super) live: usize,
    pub(super) lru_clock: u64,
    pub(super) stats: TableStats,
    /// The learning pointers, a pointer to a since-replaced row stored as
    /// [`RowPtr::dangling`] (it can never resolve again either way).
    pub(super) pointers: Vec<RowPtr>,
}

impl TableCheckpoint {
    /// Bytes of captured state: the slot index, the records and the
    /// learning pointers.
    pub fn bytes(&self) -> u64 {
        (self.index.len() * size_of::<u32>()
            + self.records.len() * size_of::<SlotRecord>()
            + self.lens.len()
            + self.succ.len() * size_of::<LineAddr>()
            + self.pointers.len() * size_of::<RowPtr>()) as u64
    }
}

impl<K: Kind> CorrelationTable<K> {
    /// A new checkpoint holding every live slot of this table, which is
    /// synced with it from here on (see
    /// [`CorrelationTable::checkpoint_into`]).
    pub fn checkpoint(&mut self) -> TableCheckpoint {
        let mut cp = TableCheckpoint {
            kind: self.kind(),
            params: self.params,
            token: 0,
            index: Vec::new(),
            records: Vec::new(),
            lens: Vec::new(),
            succ: Vec::new(),
            live: 0,
            lru_clock: 0,
            stats: TableStats::default(),
            pointers: Vec::new(),
        };
        self.checkpoint_into(&mut cp);
        cp
    }

    /// Brings `cp` up to date with this table in place. When `cp` was
    /// last captured from (or restored into) this table, and nothing
    /// since moved slots wholesale, only the slots changed in between are
    /// copied; otherwise every live slot is. Clears the dirty slots.
    pub fn checkpoint_into(&mut self, cp: &mut TableCheckpoint) {
        cp.kind = self.kind();
        cp.params = self.params;
        self.rows.capture_slots(cp);
        let rows = &self.rows;
        cp.pointers.clear();
        cp.pointers.extend(self.pointers.iter().map(|&ptr| {
            if rows.get(ptr).is_some() {
                ptr
            } else {
                RowPtr::dangling()
            }
        }));
    }

    /// Makes this table slot for slot the one `cp` was captured from,
    /// learning pointers and counters included, so it continues exactly
    /// as that table would. A checkpoint of another algorithm or
    /// geometry is rejected and the table left untouched.
    pub fn restore_checkpoint(&mut self, cp: &TableCheckpoint) -> Result<(), SnapshotError> {
        if cp.kind != self.kind() {
            return Err(SnapshotError::KindMismatch {
                expected: self.kind(),
                found: cp.kind,
            });
        }
        if cp.params != self.params {
            return Err(SnapshotError::ParamsMismatch {
                expected: self.params,
                found: cp.params,
            });
        }
        self.rows.restore_slots(cp);
        self.pointers.clear();
        self.pointers.extend_from_slice(&cp.pointers);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{StepSink, UlmtAlgorithm};
    use crate::table::{Base, Chain};
    use ulmt_simcore::{PageAddr, Pcg32};

    /// Collects every prefetch, in order.
    #[derive(Default)]
    struct Prefetches(Vec<LineAddr>);

    impl StepSink for Prefetches {
        fn begin(&mut self, _miss: LineAddr) {}

        fn prefetch(&mut self, addr: LineAddr) {
            self.0.push(addr);
        }

        fn end(&mut self, _prefetch_insns: u64, _learn_insns: u64) {}
    }

    /// A stream over `lines` distinct lines, clustered in a few pages so
    /// that remaps find rows to move: a hot pool revisited in order
    /// (hits, successor churn) mixed with cold lines (allocations and,
    /// with more lines than rows, replacements).
    fn stream(rng: &mut Pcg32, len: usize, lines: u64) -> Vec<LineAddr> {
        let pool: Vec<u64> = (0..48).map(|_| rng.gen_range_u64(0..lines)).collect();
        let mut cursor = 0;
        (0..len)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    cursor = (cursor + rng.gen_range_usize(1..3)) % pool.len();
                    LineAddr::new(pool[cursor])
                } else {
                    LineAddr::new(rng.gen_range_u64(0..lines))
                }
            })
            .collect()
    }

    fn prefetches<K: Kind>(table: &mut CorrelationTable<K>, misses: &[LineAddr]) -> Vec<LineAddr> {
        let mut sink = Prefetches::default();
        table.process_misses(misses, &mut sink);
        sink.0
    }

    /// Restores `cp` into a fresh table shaped like `live` and checks the
    /// result is `live`: slot for slot, by snapshot bytes and
    /// fingerprint, and by the prefetches both issue over `probe`.
    fn assert_restores<K: Kind>(
        live: &CorrelationTable<K>,
        cp: &TableCheckpoint,
        probe: &[LineAddr],
        label: &str,
    ) {
        let mut rebuilt = CorrelationTable::with_kind(live.kind, live.params);
        rebuilt.restore_checkpoint(cp).expect("same shape");
        assert!(rebuilt.rows.same_slots(&live.rows), "{label}: slots");
        let canonical: Vec<RowPtr> = live
            .pointers
            .iter()
            .map(|&p| live.rows.get(p).map_or(RowPtr::dangling(), |_| p))
            .collect();
        assert_eq!(rebuilt.pointers, canonical, "{label}: pointers");
        assert_eq!(
            rebuilt.snapshot().to_bytes(),
            live.snapshot().to_bytes(),
            "{label}: snapshot bytes"
        );
        assert_eq!(
            rebuilt.table_fingerprint(),
            live.table_fingerprint(),
            "{label}: fingerprint"
        );
        let mut twin = live.clone();
        assert!(rebuilt.rows_synced_with(cp), "{label}: synced by restore");
        assert_eq!(
            prefetches(&mut rebuilt, probe),
            prefetches(&mut twin, probe),
            "{label}: prefetches after restore"
        );
        assert!(rebuilt.rows.same_slots(&twin.rows), "{label}: continues");
        // The next checkpoint after a recovery copies only what changed
        // since the restore, and restores to the table again.
        let mut next = cp.clone();
        rebuilt.checkpoint_into(&mut next);
        let mut again = CorrelationTable::with_kind(live.kind, live.params);
        again.restore_checkpoint(&next).expect("same shape");
        assert!(again.rows.same_slots(&rebuilt.rows), "{label}: recapture");
    }

    /// Random streams that force replacements, with resizes, page remaps
    /// and checkpoints at random points: after every capture, restoring
    /// the copy gives back the live table exactly.
    fn property<K: Kind>(kind: K, params: TableParams, seed: u64) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut live = CorrelationTable::with_kind(kind, params);
        let mut cp = live.checkpoint();
        let lines = 4 * params.num_rows as u64;
        let (mut captures, mut incremental, mut replaced) = (0, 0, false);
        for round in 0..60 {
            let len = rng.gen_range_usize(1..200);
            let misses = stream(&mut rng, len, lines);
            prefetches(&mut live, &misses);
            match rng.gen_range_u64(0..10) {
                0 => {
                    let rows = [params.num_rows / 2, params.num_rows, params.num_rows * 2]
                        [rng.gen_range_usize(0..3)];
                    live.resize(rows);
                }
                1 => {
                    let pages = lines.div_ceil(PageAddr::lines_per_page());
                    let old = PageAddr::new(rng.gen_range_u64(0..pages));
                    let new = PageAddr::new(rng.gen_range_u64(0..pages));
                    live.remap_page(old, new);
                }
                _ => {}
            }
            replaced |= live.table_stats().replacements > 0;
            if rng.gen_bool(0.5) {
                let synced = live.rows_synced_with(&cp);
                live.checkpoint_into(&mut cp);
                captures += 1;
                incremental += usize::from(synced);
                let probe = stream(&mut rng, 64, lines);
                assert_restores(&live, &cp, &probe, &format!("seed {seed} round {round}"));
            }
        }
        assert!(replaced, "seed {seed}: the streams must force replacements");
        assert!(
            captures > 10 && incremental > 5,
            "seed {seed}: {captures}/{incremental}"
        );
    }

    /// Bytes the copy's buffers have reserved.
    fn capacity_bytes(cp: &TableCheckpoint) -> usize {
        cp.index.capacity() * size_of::<u32>()
            + cp.records.capacity() * size_of::<SlotRecord>()
            + cp.lens.capacity()
            + cp.succ.capacity() * size_of::<LineAddr>()
            + cp.pointers.capacity() * size_of::<RowPtr>()
    }

    impl<K: Kind> CorrelationTable<K> {
        /// Whether the next capture into `cp` copies only dirty slots.
        fn rows_synced_with(&self, cp: &TableCheckpoint) -> bool {
            cp.token != 0 && self.rows.synced_token() == cp.token
        }
    }

    #[test]
    fn restore_from_the_copy_is_the_live_table() {
        let small = |num_levels| TableParams {
            num_rows: 64,
            assoc: 2,
            num_succ: 2,
            num_levels,
        };
        for seed in 0..6 {
            property(TableKind::Repl, small(3), seed);
            property(TableKind::Chain, small(3), 100 + seed);
            property(TableKind::Base, TableParams::base_default(64), 200 + seed);
        }
    }

    #[test]
    fn capture_copies_only_the_dirty_slots() {
        let mut live = Base::new(TableParams::base_default(1024));
        let mut rng = Pcg32::seed_from_u64(7);
        prefetches(&mut live, &stream(&mut rng, 2000, 4096));
        let mut cp = live.checkpoint();
        assert_eq!(cp.records.len(), live.occupancy());
        // One hit on an existing row, inserted into the previous miss's
        // row: both are dirty, and nothing else is.
        let row = live.snapshot().rows[0].tag;
        let before = cp.clone();
        prefetches(&mut live, &[LineAddr::new(row)]);
        live.checkpoint_into(&mut cp);
        let changed = (0..cp.records.len())
            .filter(|&i| {
                let (a, b) = (&before.records[i], &cp.records[i]);
                (a.tag, a.lru, a.gen) != (b.tag, b.lru, b.gen)
                    || before.succ[4 * i..4 * i + 4] != cp.succ[4 * i..4 * i + 4]
            })
            .count();
        assert_eq!(cp.records.len(), before.records.len());
        assert!((1..=2).contains(&changed), "{changed} records changed");
    }

    #[test]
    fn capture_copies_dirty_sets_of_every_size() {
        // Dirty sets around the capture's prefetch distances (8 and 16
        // slots ahead), and one of thousands of slots: each capture must
        // restore to the live table, and copy exactly the dirty slots.
        let params = TableParams::base_default(4096);
        let mut live = Base::new(params);
        // Two of every set's four ways live, so a fresh tag fills an
        // empty way and appends a record.
        for n in 0..2048 {
            live.rows.find_or_alloc(LineAddr::new(n));
        }
        let mut cp = live.checkpoint();
        let (mut hit, mut fresh) = (0u64, 1 << 20);
        let mut rng = Pcg32::seed_from_u64(3);
        for size in [0, 1, 7, 8, 16, 17, 5000] {
            let before = cp.clone();
            let appended = if size < 1000 {
                // Half hits on live rows (an LRU bump each), half fresh
                // rows in distinct sets with a free way.
                for _ in 0..size / 2 {
                    live.rows.lookup(LineAddr::new(hit));
                    hit += 1;
                }
                for _ in size / 2..size {
                    live.rows.find_or_alloc(LineAddr::new(fresh));
                    fresh += 1;
                }
                size - size / 2
            } else {
                prefetches(&mut live, &stream(&mut rng, size, 1 << 16));
                live.occupancy() - before.records.len()
            };
            live.checkpoint_into(&mut cp);
            assert_eq!(cp.records.len(), before.records.len() + appended);
            let changed = before
                .records
                .iter()
                .zip(&cp.records)
                .filter(|(a, b)| (a.tag, a.lru, a.gen) != (b.tag, b.lru, b.gen))
                .count();
            if size < 1000 {
                assert_eq!(changed, size / 2, "{size} dirty slots");
            } else {
                assert!(changed + appended > 1000, "{changed} + {appended} copied");
            }
            let mut rebuilt = Base::new(params);
            rebuilt.restore_checkpoint(&cp).expect("same shape");
            assert!(rebuilt.rows.same_slots(&live.rows), "{size}: slots");
            assert_eq!(rebuilt.snapshot(), live.snapshot(), "{size}: snapshot");
            // With no step in between, a second capture copies nothing: a
            // record scribbled over in the copy stays scribbled.
            let mut again = cp.clone();
            for r in &mut again.records {
                r.lru = u64::MAX;
            }
            live.checkpoint_into(&mut again);
            assert!(again.records.iter().all(|r| r.lru == u64::MAX), "{size}");
            for (r, kept) in again.records.iter_mut().zip(&cp.records) {
                r.lru = kept.lru;
            }
            cp = again;
        }
    }

    #[test]
    fn steady_state_capture_grows_no_buffer() {
        let mut live = Base::new(TableParams::base_default(1024));
        let warm: Vec<LineAddr> = (0..512).map(|n| LineAddr::new(n * 3 % 700)).collect();
        prefetches(&mut live, &warm);
        let mut cp = live.checkpoint();
        let (reserved, rows) = (capacity_bytes(&cp), cp.records.len());
        // Revisiting the same lines adds no live slot: the second capture
        // updates records in place.
        prefetches(&mut live, &warm);
        live.checkpoint_into(&mut cp);
        assert_eq!(cp.records.len(), rows);
        assert_eq!(capacity_bytes(&cp), reserved);
        // A full recapture (a same-size resize rebuilds the arena) reuses
        // the buffers too.
        live.resize(1024);
        live.checkpoint_into(&mut cp);
        assert_eq!(cp.records.len(), rows);
        assert_eq!(capacity_bytes(&cp), reserved);
    }

    #[test]
    fn restore_rejects_other_kinds_and_geometries_untouched() {
        let mut repl = CorrelationTable::with_kind(TableKind::Repl, TableParams::repl_default(64));
        prefetches(&mut repl, &[1, 2, 3].map(LineAddr::new));
        let before = repl.snapshot();
        let mut chain = Chain::new(TableParams::chain_default(64));
        assert!(matches!(
            repl.restore_checkpoint(&chain.checkpoint()),
            Err(SnapshotError::KindMismatch { .. })
        ));
        let mut bigger =
            CorrelationTable::with_kind(TableKind::Repl, TableParams::repl_default(128));
        assert!(matches!(
            repl.restore_checkpoint(&bigger.checkpoint()),
            Err(SnapshotError::ParamsMismatch { .. })
        ));
        assert_eq!(repl.snapshot(), before);
    }

    #[test]
    fn a_stale_copy_does_not_survive_a_snapshot_restore() {
        // Capture, then replace the table wholesale from a snapshot: the
        // next capture must copy every slot, not just the dirty ones.
        let params = TableParams::repl_default(256);
        let mut live = CorrelationTable::with_kind(TableKind::Repl, params);
        prefetches(&mut live, &(0..300).map(LineAddr::new).collect::<Vec<_>>());
        let mut cp = live.checkpoint();
        let mut other = CorrelationTable::with_kind(TableKind::Repl, params);
        prefetches(
            &mut other,
            &(1000..1100).map(LineAddr::new).collect::<Vec<_>>(),
        );
        live.restore(&other.snapshot()).unwrap();
        prefetches(&mut live, &[LineAddr::new(5)]);
        live.checkpoint_into(&mut cp);
        assert_restores(&live, &cp, &[1000, 1001, 5].map(LineAddr::new), "restore");
    }
}
