//! Undo-log checkpoints of a correlation table.
//!
//! [`CorrelationTable::commit`] marks the point a table can return to,
//! and [`CorrelationTable::rollback`] returns to it exactly: slot for
//! slot, with the same LRU clock, counters and learning pointers, so the
//! table continues as it would have from the commit. In between, the
//! table itself keeps what a rollback needs (see the [`RowTable`] docs):
//! the pre-image of each slot written since the commit, logged before
//! the write, or the whole table a resize or a snapshot restore replaced.
//! A commit copies no slot, and a table that is never committed logs
//! nothing.
//!
//! Because every write is logged before it lands, a rollback also undoes
//! a step cut short by a panic: the prefetch service keeps a shard's
//! tables through a worker panic and rolls them back to the last
//! checkpoint. The log lives in the table's memory, so it is no file or
//! wire format; that remains [`TableSnapshot`](super::TableSnapshot)
//! (`ULMTSNAP`).
//!
//! [`RowTable`]: super::RowTable

use super::correlation::{CorrelationTable, Kind};

impl<K: Kind> CorrelationTable<K> {
    /// Commits the table as it is now (see the module docs): a later
    /// [`CorrelationTable::rollback`] returns to this point. Costs the
    /// slots logged since the previous commit, not the table size.
    ///
    /// # Example
    ///
    /// ```
    /// use ulmt_core::algorithm::UlmtAlgorithm;
    /// use ulmt_core::table::{CorrelationTable, TableKind, TableParams};
    /// use ulmt_simcore::LineAddr;
    ///
    /// let mut table = CorrelationTable::with_kind(TableKind::Repl, TableParams::repl_default(1024));
    /// table.process_misses(&[1, 2, 3].map(LineAddr::new), &mut ulmt_core::cost::StepResult::new());
    /// table.commit();
    /// let committed = table.table_fingerprint();
    /// table.process_miss(LineAddr::new(1)); // logs the slots it writes
    /// assert_ne!(table.table_fingerprint(), committed);
    /// assert!(table.rollback().is_some());
    /// assert_eq!(table.table_fingerprint(), committed);
    /// ```
    pub fn commit(&mut self) {
        self.rows.commit(&self.pointers);
    }

    /// Returns the table exactly to its last commit, learning pointers,
    /// counters and geometry included; it stays committed there. Returns
    /// the bytes rolled back (the logged pre-images, or the table a
    /// resize or a restore replaced), or `None`, leaving the table
    /// untouched, if it was never committed.
    pub fn rollback(&mut self) -> Option<u64> {
        let bytes = self.rows.rollback(&mut self.pointers)?;
        self.params.num_rows = self.rows.num_rows();
        Some(bytes)
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::algorithm::{StepSink, Touches, UlmtAlgorithm};
    use crate::table::{Base, TableKind, TableParams};
    use ulmt_simcore::{Addr, LineAddr, PageAddr, Pcg32};

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

    /// Panics at its `at`-th callback. It takes table touches, so the
    /// callbacks fall between the writes of a step: a row's LRU bump,
    /// each learning insertion and the allocation of the miss's row.
    struct PanicAt {
        at: usize,
        calls: usize,
    }

    impl PanicAt {
        fn tick(&mut self) {
            self.calls += 1;
            if self.calls == self.at {
                panic!("seeded panic at callback {}", self.at);
            }
        }
    }

    impl StepSink for PanicAt {
        fn begin(&mut self, _miss: LineAddr) {
            self.tick();
        }

        fn prefetch(&mut self, _addr: LineAddr) {
            self.tick();
        }

        fn read(&mut self, _addr: Addr, _bytes: u64) {
            self.tick();
        }

        fn write(&mut self, _addr: Addr, _bytes: u64) {
            self.tick();
        }

        fn touches(&mut self) -> Touches<'_> {
            Touches::Reported
        }

        fn end(&mut self, _prefetch_insns: u64, _learn_insns: u64) {
            self.tick();
        }
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

    /// Checks that `t` is `committed`: slot for slot, by pointers,
    /// geometry, counters and fingerprint, and by the prefetches both
    /// issue over `probe`; then that a second rollback after the probe
    /// returns to it again.
    fn assert_is<K: Kind>(
        t: &CorrelationTable<K>,
        committed: &CorrelationTable<K>,
        probe: &[LineAddr],
        label: &str,
    ) {
        assert!(t.rows.same_slots(&committed.rows), "{label}: slots");
        assert_eq!(t.pointers, committed.pointers, "{label}: pointers");
        assert_eq!(t.params, committed.params, "{label}: params");
        assert_eq!(t.table_stats(), committed.table_stats(), "{label}: stats");
        assert_eq!(
            t.table_fingerprint(),
            committed.table_fingerprint(),
            "{label}: fingerprint"
        );
        let (mut a, mut b) = (t.clone(), committed.clone());
        assert_eq!(
            prefetches(&mut a, probe),
            prefetches(&mut b, probe),
            "{label}: prefetches"
        );
        assert!(a.rows.same_slots(&b.rows), "{label}: continues");
        a.rollback().expect("still committed");
        assert!(a.rows.same_slots(&committed.rows), "{label}: again");
        assert_eq!(a.pointers, committed.pointers, "{label}: pointers again");
    }

    /// Checks that `t`'s log holds exactly its set dirty bits, each slot
    /// once, and returns the log's length.
    fn list_is_bits<K: Kind>(t: &CorrelationTable<K>, label: &str) -> usize {
        let mut listed = t.rows.logged_slots();
        listed.sort_unstable();
        let len = listed.len();
        listed.dedup();
        assert_eq!(listed.len(), len, "{label}: a slot logged twice");
        let bits: Vec<u32> = t
            .rows
            .dirty_words()
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                (0..64)
                    .filter(move |b| word >> b & 1 == 1)
                    .map(move |b| (w * 64 + b) as u32)
            })
            .collect();
        assert_eq!(listed, bits, "{label}: log against dirty bits");
        len
    }

    /// Random streams that force replacements, committed every 1 to 4
    /// batches; inside an interval, resizes, page remaps, snapshot
    /// restores and a sink that panics in the middle of a step. Every
    /// rollback gives back the table of the last commit exactly.
    fn property<K: Kind>(kind: K, params: TableParams, seed: u64) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut live = CorrelationTable::with_kind(kind, params);
        let lines = 4 * params.num_rows as u64;
        // A donor whose snapshots the restores load.
        let mut donor = CorrelationTable::with_kind(kind, params);
        prefetches(&mut donor, &stream(&mut rng, 300, lines));
        live.commit();
        let mut committed = live.clone();
        let (mut rollbacks, mut panics, mut rebuilt, mut remaps) = (0, 0, 0, 0);
        let mut replaced = false;
        for round in 0..80 {
            let label = format!("seed {seed} round {round}");
            let mut panicked = false;
            for _ in 0..rng.gen_range_usize(1..5) {
                let len = rng.gen_range_usize(1..200);
                let misses = stream(&mut rng, len, lines);
                match rng.gen_range_u64(0..12) {
                    0 => {
                        let rows = [params.num_rows / 2, params.num_rows, params.num_rows * 2]
                            [rng.gen_range_usize(0..3)];
                        live.resize(rows);
                        rebuilt += 1;
                    }
                    1 => {
                        let pages = lines.div_ceil(PageAddr::lines_per_page());
                        let old = PageAddr::new(rng.gen_range_u64(0..pages));
                        let new = PageAddr::new(rng.gen_range_u64(0..pages));
                        live.remap_page(old, new);
                        remaps += 1;
                    }
                    2 if live.params == donor.params => {
                        live.restore(&donor.snapshot()).expect("same shape");
                        rebuilt += 1;
                    }
                    3 => {
                        let mut sink = PanicAt {
                            at: rng.gen_range_usize(1..8 * len),
                            calls: 0,
                        };
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            live.process_misses(&misses, &mut sink)
                        }));
                        if run.is_err() {
                            panicked = true;
                            panics += 1;
                            break;
                        }
                    }
                    _ => {
                        prefetches(&mut live, &misses);
                    }
                }
                list_is_bits(&live, &label);
            }
            replaced |= live.table_stats().replacements > 0;
            // A step cut short leaves a torn table: roll it back.
            if panicked || rng.gen_bool(0.5) {
                live.rollback().expect("committed");
                rollbacks += 1;
                assert_eq!(list_is_bits(&live, &label), 0, "{label}: rollback empties");
                let probe = stream(&mut rng, 64, lines);
                assert_is(&live, &committed, &probe, &label);
            } else {
                live.commit();
                assert_eq!(list_is_bits(&live, &label), 0, "{label}: commit empties");
                committed = live.clone();
            }
        }
        assert!(replaced, "seed {seed}: the streams must force replacements");
        assert!(
            rollbacks > 20 && panics > 3 && rebuilt > 5 && remaps > 3,
            "seed {seed}: {rollbacks}/{panics}/{rebuilt}/{remaps}"
        );
    }

    #[test]
    fn rollback_is_the_table_at_the_last_commit() {
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
    fn dirty_list_is_exactly_the_dirty_bits() {
        let small = TableParams {
            num_rows: 64,
            assoc: 2,
            num_succ: 2,
            num_levels: 3,
        };
        let cases = [
            (TableKind::Base, TableParams::base_default(64)),
            (TableKind::Chain, small),
            (TableKind::Repl, small),
        ];
        for (seed, (kind, params)) in cases.into_iter().enumerate() {
            let mut rng = Pcg32::seed_from_u64(40 + seed as u64);
            let mut live = CorrelationTable::with_kind(kind, params);
            // Never committed, it gets every step `live` gets except the
            // commits and rollbacks.
            let mut never = live.clone();
            live.commit();
            let lines = 4 * params.num_rows as u64;
            let (mut longest, mut commits, mut rollbacks) = (0, 0, 0);
            for round in 0..300 {
                let label = format!("{} round {round}", kind.name());
                let line = LineAddr::new(rng.gen_range_u64(0..lines));
                match rng.gen_range_u64(0..14) {
                    0..=3 => {
                        let len = rng.gen_range_usize(1..64);
                        let misses = stream(&mut rng, len, lines);
                        prefetches(&mut live, &misses);
                        prefetches(&mut never, &misses);
                    }
                    4 => {
                        live.rows.lookup(line);
                        never.rows.lookup(line);
                    }
                    5 => {
                        let succ = LineAddr::new(rng.gen_range_u64(0..lines));
                        for t in [&mut live, &mut never] {
                            let (ptr, _) = t.rows.find_or_alloc(line);
                            t.rows.insert_mru(ptr, 0, succ);
                        }
                    }
                    6 => {
                        let rows = [params.num_rows / 2, params.num_rows, params.num_rows * 2]
                            [rng.gen_range_usize(0..3)];
                        live.resize(rows);
                        never.resize(rows);
                        assert_eq!(list_is_bits(&live, &label), 0, "{label}: held whole");
                    }
                    7 => {
                        let pages = lines.div_ceil(PageAddr::lines_per_page());
                        let old = PageAddr::new(rng.gen_range_u64(0..pages));
                        let new = PageAddr::new(rng.gen_range_u64(0..pages));
                        live.remap_page(old, new);
                        never.remap_page(old, new);
                    }
                    8 => {
                        // A rollback of a resize sets the two apart.
                        for t in [&mut live, &mut never] {
                            let snap = t.snapshot();
                            t.restore(&snap).expect("same shape");
                        }
                        assert_eq!(list_is_bits(&live, &label), 0, "{label}: held whole");
                    }
                    9 => {
                        live.rollback().expect("committed");
                        rollbacks += 1;
                        assert_eq!(list_is_bits(&live, &label), 0, "{label}: rollback empties");
                    }
                    _ => {
                        live.commit();
                        commits += 1;
                        assert_eq!(list_is_bits(&live, &label), 0, "{label}: commit empties");
                        assert!(!live.rows.holds_whole(), "{label}: commit drops");
                    }
                }
                longest = longest.max(list_is_bits(&live, &label));
                assert_eq!(list_is_bits(&never, &label), 0, "{label}: never committed");
                assert!(never.rows.dirty_words().iter().all(|&w| w == 0), "{label}");
            }
            assert_eq!(
                never.rollback(),
                None,
                "{}: nothing to roll back",
                kind.name()
            );
            assert!(
                commits > 20 && rollbacks > 5 && longest > 10,
                "{}: {commits}/{rollbacks}/{longest}",
                kind.name()
            );
        }
    }

    #[test]
    fn capture_copies_only_the_dirty_slots() {
        // A commit logs nothing; one hit on an existing row, learned into
        // the previous miss's row, logs those two slots and nothing else.
        let mut live = Base::new(TableParams::base_default(1024));
        let mut rng = Pcg32::seed_from_u64(7);
        prefetches(&mut live, &stream(&mut rng, 2000, 4096));
        live.commit();
        assert!(live.rows.logged_slots().is_empty());
        let committed = live.clone();
        let row = live.snapshot().rows[0].tag;
        prefetches(&mut live, &[LineAddr::new(row)]);
        let logged = live.rows.logged_slots().len();
        assert!((1..=2).contains(&logged), "{logged} slots logged");
        let bytes = live.rollback().expect("committed");
        assert!(bytes > 0 && bytes < 256, "{bytes} bytes rolled back");
        assert_is(&live, &committed, &[LineAddr::new(row)], "one hit");
    }

    #[test]
    fn capture_copies_dirty_sets_of_every_size() {
        // Intervals that write from none to thousands of slots: each logs
        // exactly the distinct slots it writes, and rolls back to the
        // commit.
        let params = TableParams::base_default(4096);
        let mut live = Base::new(params);
        // Two of every set's four ways live, so a fresh tag fills an
        // empty way.
        for n in 0..2048 {
            live.rows.find_or_alloc(LineAddr::new(n));
        }
        live.commit();
        let (mut hit, mut fresh) = (0u64, 1 << 20);
        let mut rng = Pcg32::seed_from_u64(3);
        for size in [0, 1, 7, 8, 16, 17, 5000] {
            let committed = live.clone();
            let interval = |live: &mut Base, hit: &mut u64, fresh: &mut u64, rng: &mut Pcg32| {
                if size < 1000 {
                    // Half hits on live rows (an LRU bump each), half
                    // fresh rows in distinct sets with a free way.
                    for _ in 0..size / 2 {
                        live.rows.lookup(LineAddr::new(*hit));
                        *hit += 1;
                    }
                    for _ in size / 2..size {
                        live.rows.find_or_alloc(LineAddr::new(*fresh));
                        *fresh += 1;
                    }
                } else {
                    prefetches(live, &stream(rng, size, 1 << 16));
                }
            };
            let (h, f, r) = (hit, fresh, rng.clone());
            interval(&mut live, &mut hit, &mut fresh, &mut rng);
            let logged = live.rows.logged_slots().len();
            if size < 1000 {
                assert_eq!(logged, size, "{size} slots written");
            } else {
                assert!(logged > 1000, "{logged} slots logged");
            }
            live.rollback().expect("committed");
            assert_is(&live, &committed, &[], &format!("{size} slots"));
            // The same interval again, committed this time.
            (hit, fresh, rng) = (h, f, r);
            interval(&mut live, &mut hit, &mut fresh, &mut rng);
            live.commit();
        }
    }

    #[test]
    fn steady_state_capture_grows_no_buffer() {
        let mut live = Base::new(TableParams::base_default(1024));
        let warm: Vec<LineAddr> = (0..512).map(|n| LineAddr::new(n * 3 % 700)).collect();
        prefetches(&mut live, &warm);
        live.commit();
        prefetches(&mut live, &warm);
        live.commit();
        let reserved = live.rows.log_capacity();
        assert!(reserved > 0);
        // Revisiting the same lines logs the same slots: the buffers are
        // reused, not grown, across commits and rollbacks.
        for round in 0..4 {
            prefetches(&mut live, &warm);
            if round % 2 == 0 {
                live.commit();
            } else {
                live.rollback().expect("committed");
            }
            assert_eq!(live.rows.log_capacity(), reserved, "round {round}");
        }
        // A same-size resize holds the replaced table whole and carries
        // the log's buffers over to the rebuilt one.
        live.resize(1024);
        assert!(live.rows.holds_whole());
        live.commit();
        assert!(!live.rows.holds_whole());
        assert_eq!(live.rows.log_capacity(), reserved);
    }

    #[test]
    fn a_stale_copy_does_not_survive_a_snapshot_restore() {
        // A restore inside an interval keeps the replaced table whole: a
        // rollback returns it, nothing of the restored one left. After a
        // commit the replaced table is gone, and a rollback returns to
        // the restored table plus what it learned before that commit.
        let params = TableParams::repl_default(256);
        let mut live = CorrelationTable::with_kind(TableKind::Repl, params);
        prefetches(&mut live, &(0..300).map(LineAddr::new).collect::<Vec<_>>());
        live.commit();
        let committed = live.clone();
        let mut other = CorrelationTable::with_kind(TableKind::Repl, params);
        prefetches(
            &mut other,
            &(1000..1100).map(LineAddr::new).collect::<Vec<_>>(),
        );
        let probe = [1000, 1001, 5].map(LineAddr::new);
        live.restore(&other.snapshot()).unwrap();
        prefetches(&mut live, &[LineAddr::new(5)]);
        assert!(live.rollback().expect("committed") > 0);
        assert_is(&live, &committed, &probe, "replaced whole");

        live.restore(&other.snapshot()).unwrap();
        prefetches(&mut live, &[LineAddr::new(5)]);
        live.commit();
        let restored = live.clone();
        prefetches(&mut live, &(6..40).map(LineAddr::new).collect::<Vec<_>>());
        live.rollback().expect("committed");
        assert_is(&live, &restored, &probe, "restored, then committed");
        assert_ne!(live.table_fingerprint(), committed.table_fingerprint());
    }
}
