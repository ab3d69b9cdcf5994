//! The one table shell every correlation algorithm runs in, and the step
//! kernel that drives it.
//!
//! A [`CorrelationTable`] owns the row arena, the retained learning
//! pointers and a reusable de-duplication scratch. What differs between
//! Base, Chain and Replicated is only the Prefetching step (one function
//! each, in the algorithm's module) and the shape of a learning write;
//! the Learning step itself, the snapshot/restore shell and the
//! [`UlmtAlgorithm`] plumbing live here once.
//!
//! Each table therefore has exactly one step kernel, behind
//! [`UlmtAlgorithm::step`]. How the sink takes table touches
//! ([`Touches`]) picks how it runs: statically into the
//! [`StepResult`](crate::cost::StepResult) the memory-processor model
//! replays, through the sink's touch calls, or, for a sink that ignores
//! touches such as the prefetch service's, with touch reporting compiled
//! away. The sink makes that choice, once per call: a batch through
//! [`UlmtAlgorithm::process_misses`] asks it once, not once per miss, and
//! a single step is a batch of one. The paths cannot drift apart.
//!
//! A batch runs through the kernel as a software pipeline, the paper's
//! own remedy applied to the host: while miss `i` steps, the set of miss
//! `i + HINT_AHEAD`, rows included, is already on its way into the cache
//! (see the storage module's prefetch hints). Hints change no state, so
//! a batch steps exactly as its misses one by one.

use std::fmt;

use ulmt_simcore::{LineAddr, PageAddr};

use crate::algorithm::{insn_cost, StepSink, Touches, UlmtAlgorithm};

use super::snapshot::{RowSnapshot, SnapshotError, TableSnapshot};
use super::storage::{RowPtr, RowTable, TableStats};
use super::{TableKind, TableParams};

/// Which algorithm a [`CorrelationTable`] runs. The zero-sized
/// [`BaseKind`], [`ChainKind`] and [`ReplKind`] fix it at compile time
/// (the [`Base`](super::Base), [`Chain`](super::Chain) and
/// [`Replicated`](super::Replicated) tables); a [`TableKind`] value picks
/// it at run time, as the prefetch service does per tenant.
pub trait Kind: Copy + fmt::Debug {
    /// The algorithm this marker runs.
    fn kind(self) -> TableKind;

    /// The marker that runs `kind`, or a
    /// [`SnapshotError::KindMismatch`] if this marker runs another
    /// algorithm.
    fn select(kind: TableKind) -> Result<Self, SnapshotError>;
}

impl Kind for TableKind {
    fn kind(self) -> TableKind {
        self
    }

    fn select(kind: TableKind) -> Result<Self, SnapshotError> {
        Ok(kind)
    }
}

/// Compile-time marker for [`TableKind::Base`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaseKind;

/// Compile-time marker for [`TableKind::Chain`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainKind;

/// Compile-time marker for [`TableKind::Repl`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplKind;

fn fixed<K>(marker: K, expected: TableKind, found: TableKind) -> Result<K, SnapshotError> {
    if found == expected {
        Ok(marker)
    } else {
        Err(SnapshotError::KindMismatch { expected, found })
    }
}

impl Kind for BaseKind {
    fn kind(self) -> TableKind {
        TableKind::Base
    }

    fn select(kind: TableKind) -> Result<Self, SnapshotError> {
        fixed(BaseKind, TableKind::Base, kind)
    }
}

impl Kind for ChainKind {
    fn kind(self) -> TableKind {
        TableKind::Chain
    }

    fn select(kind: TableKind) -> Result<Self, SnapshotError> {
        fixed(ChainKind, TableKind::Chain, kind)
    }
}

impl Kind for ReplKind {
    fn kind(self) -> TableKind {
        TableKind::Repl
    }

    fn select(kind: TableKind) -> Result<Self, SnapshotError> {
        fixed(ReplKind, TableKind::Repl, kind)
    }
}

/// How many misses ahead of the one it steps a batch hints a set: far
/// enough for the lines to arrive, near enough for them to stay.
const HINT_AHEAD: usize = 8;

/// A sink seen without its touch methods: a kernel run through it has
/// its table-touch calls compiled away.
struct NoTouch<'a>(&'a mut dyn StepSink);

impl StepSink for NoTouch<'_> {
    #[inline]
    fn begin(&mut self, miss: LineAddr) {
        self.0.begin(miss);
    }

    #[inline]
    fn prefetch(&mut self, addr: LineAddr) {
        self.0.prefetch(addr);
    }

    #[inline]
    fn end(&mut self, prefetch_insns: u64, learn_insns: u64) {
        self.0.end(prefetch_insns, learn_insns);
    }
}

/// A correlation table running the algorithm `K` selects (Figure 4).
///
/// Usually named through [`Base`](super::Base), [`Chain`](super::Chain)
/// or [`Replicated`](super::Replicated); `CorrelationTable` alone picks
/// the algorithm at run time from a [`TableKind`].
///
/// # Example
///
/// ```
/// use ulmt_core::algorithm::UlmtAlgorithm;
/// use ulmt_core::table::{CorrelationTable, TableKind, TableParams};
/// use ulmt_simcore::LineAddr;
///
/// let mut table = CorrelationTable::with_kind(TableKind::Repl, TableParams::repl_default(1024));
/// for n in [1u64, 2, 3, 1] {
///     table.process_miss(LineAddr::new(n));
/// }
/// assert_eq!(table.name(), "repl");
/// assert_eq!(table.occupancy(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct CorrelationTable<K: Kind = TableKind> {
    pub(super) kind: K,
    pub(super) params: TableParams,
    pub(super) rows: RowTable,
    /// Rows of the last, second-last, ... misses, most recent first: one
    /// for Base and Chain, `NumLevels` for Replicated. The i-th pointer
    /// learns at level i.
    pub(super) pointers: Vec<RowPtr>,
    /// Per-step de-duplication scratch, reused across steps.
    pub(super) seen: Vec<LineAddr>,
}

impl<K: Kind + Default> CorrelationTable<K> {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid for the algorithm (see
    /// [`TableKind::validate`]).
    pub fn new(params: TableParams) -> Self {
        Self::with_kind(K::default(), params)
    }
}

impl<K: Kind> CorrelationTable<K> {
    /// Creates an empty table running `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid for the algorithm (see
    /// [`TableKind::validate`]).
    pub fn with_kind(kind: K, params: TableParams) -> Self {
        if let Err(e) = kind.kind().validate(&params) {
            panic!("{e}");
        }
        // Base and Chain rows hold one successor level; Replicated rows
        // hold all NumLevels inline.
        let (row_bytes, levels) = match kind.kind() {
            TableKind::Repl => (params.repl_row_bytes(), params.num_levels),
            TableKind::Base | TableKind::Chain => (params.flat_row_bytes(), 1),
        };
        CorrelationTable {
            kind,
            params,
            rows: RowTable::new(&params, row_bytes, levels),
            pointers: Vec::with_capacity(levels + 1),
            seen: Vec::new(),
        }
    }

    /// The algorithm this table runs.
    pub fn kind(&self) -> TableKind {
        self.kind.kind()
    }

    /// Table parameters.
    pub fn params(&self) -> &TableParams {
        &self.params
    }

    /// Table behavior counters.
    pub fn table_stats(&self) -> &TableStats {
        self.rows.stats()
    }

    /// Number of valid (learned) rows.
    pub fn occupancy(&self) -> usize {
        self.rows.occupancy()
    }

    /// Shrinks or grows the table (Section 3.4 dynamic sizing). Live rows
    /// are kept in recency order; the learning pointers are dropped.
    pub fn resize(&mut self, num_rows: usize) {
        let new_params = TableParams {
            num_rows,
            ..self.params
        };
        self.rows.resize(&new_params);
        self.params = new_params;
        self.pointers.clear();
    }

    /// Captures the learned rows and the retained learning pointers as a
    /// portable [`TableSnapshot`]; only the behavior counters are
    /// transient. Pointers to since-evicted rows are kept as tombstones
    /// because the pointer *position* selects the level it learns at.
    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            kind: self.kind(),
            params: self.params,
            rows: self
                .rows
                .live_rows_lru()
                .into_iter()
                .map(|(tag, row)| RowSnapshot {
                    tag: tag.raw(),
                    levels: (0..row.levels())
                        .map(|level| row.level(level).iter().map(|s| s.raw()).collect())
                        .collect(),
                })
                .collect(),
            learn_ctx: self
                .pointers
                .iter()
                .map(|&ptr| self.rows.tag_of(ptr).map(LineAddr::raw))
                .collect(),
        }
    }

    /// Rebuilds a table from a snapshot taken by
    /// [`CorrelationTable::snapshot`]. The result fingerprints
    /// identically to the captured table and, because the learning
    /// pointers are re-armed from the snapshot's context, continues
    /// learning identically too.
    pub fn from_snapshot(snap: &TableSnapshot) -> Result<Self, SnapshotError> {
        let kind = K::select(snap.kind)?;
        snap.kind
            .validate(&snap.params)
            .map_err(SnapshotError::InvalidParams)?;
        let mut table = Self::with_kind(kind, snap.params);
        let levels = table.rows.levels();
        for row in &snap.rows {
            let (ptr, _) = table.rows.find_or_alloc(LineAddr::new(row.tag));
            for (level, succs) in row.levels.iter().enumerate().take(levels) {
                for &succ in succs.iter().rev() {
                    table.rows.insert_mru(ptr, level, LineAddr::new(succ));
                }
            }
        }
        let rows = &table.rows;
        table.pointers.extend(
            snap.learn_ctx
                .iter()
                .take(levels)
                .map(|&entry| rows.ctx_ptr(entry)),
        );
        Ok(table)
    }

    /// Replaces the learned state with `snap`'s, keeping this table's
    /// algorithm and geometry. A snapshot of another algorithm or another
    /// geometry is rejected before anything is allocated, and the table
    /// is left untouched.
    pub fn restore(&mut self, snap: &TableSnapshot) -> Result<(), SnapshotError> {
        snap.expect_kind(self.kind())?;
        if snap.params != self.params {
            return Err(SnapshotError::ParamsMismatch {
                expected: self.params,
                found: snap.params,
            });
        }
        *self = Self::from_snapshot(snap)?;
        Ok(())
    }

    /// Fingerprint of the learned contents (see
    /// [`TableSnapshot::fingerprint`]).
    pub fn table_fingerprint(&self) -> u64 {
        self.snapshot().fingerprint()
    }

    /// The step kernel: one trip around the ULMT loop of Figure 2 for
    /// `miss` — the algorithm's Prefetching step, then the Learning step.
    #[inline]
    fn kernel<S: StepSink + ?Sized>(&mut self, miss: LineAddr, sink: &mut S) {
        sink.begin(miss);
        let mut prefetch_insns = insn_cost::STEP_OVERHEAD;
        let found = match self.kind() {
            TableKind::Base => self.base_prefetch(miss, &mut prefetch_insns, sink),
            TableKind::Chain => self.chain_prefetch(miss, &mut prefetch_insns, sink),
            TableKind::Repl => self.repl_prefetch(miss, &mut prefetch_insns, sink),
        };
        let learn_insns = self.learn(miss, found, sink);
        sink.end(prefetch_insns, learn_insns);
    }

    /// Runs the step kernel over `misses` as `sink` takes table touches,
    /// asked once: statically into its record, through its touch calls,
    /// or through `NoTouch`.
    fn run(&mut self, misses: &[LineAddr], sink: &mut dyn StepSink) {
        match sink.touches() {
            Touches::Recorded(step) => self.pipeline(misses, step),
            Touches::Reported => self.pipeline(misses, sink),
            Touches::Ignored => self.pipeline(misses, &mut NoTouch(sink)),
        }
    }

    /// Steps `misses` in order, hinting the set of the miss
    /// [`HINT_AHEAD`] steps ahead. A batch of one hints nothing.
    #[inline]
    fn pipeline<S: StepSink + ?Sized>(&mut self, misses: &[LineAddr], sink: &mut S) {
        for (i, &miss) in misses.iter().enumerate() {
            if let Some(&ahead) = misses.get(i + HINT_AHEAD) {
                self.rows.prefetch_set(ahead);
            }
            self.kernel(miss, sink);
        }
    }

    /// One associative search for `line`: a 4-byte tag probe per way,
    /// then a read of the matching row.
    #[inline]
    pub(super) fn search<S: StepSink + ?Sized>(
        &mut self,
        line: LineAddr,
        insns: &mut u64,
        sink: &mut S,
    ) -> Option<RowPtr> {
        *insns += self.rows.assoc() as u64 * insn_cost::PROBE_PER_WAY;
        for addr in self.rows.probe_addrs(line) {
            sink.read(addr, 4);
        }
        let ptr = self.rows.lookup(line)?;
        sink.read(self.rows.row_addr(ptr), self.rows.row_bytes());
        Some(ptr)
    }

    /// Learning step, shared by all three algorithms: insert the miss at
    /// level i of the row of the (i+1)-last miss through the retained
    /// pointers — no searches — then find or allocate the miss's own row
    /// (`found` when the Prefetching step already looked it up) and
    /// retain it. Returns the step's instruction count.
    #[inline]
    fn learn<S: StepSink + ?Sized>(
        &mut self,
        miss: LineAddr,
        found: Option<RowPtr>,
        sink: &mut S,
    ) -> u64 {
        let mut insns = insn_cost::LEARN_OVERHEAD;
        let repl = self.kind() == TableKind::Repl;
        for (level, &ptr) in self.pointers.iter().enumerate() {
            if self.rows.insert_mru(ptr, level, miss) {
                let addr = self.rows.row_addr(ptr);
                if repl {
                    // A Replicated insert rewrites one level of the row.
                    let level_bytes = 4 * self.params.num_succ as u64;
                    sink.write(
                        addr.offset((4 + level as u64 * level_bytes) as i64),
                        level_bytes,
                    );
                } else {
                    sink.write(addr, self.rows.row_bytes());
                }
                insns += insn_cost::PER_INSERT;
            }
        }
        let ptr = match found {
            Some(ptr) => ptr,
            None => {
                let (ptr, _) = self.rows.find_or_alloc(miss);
                sink.write(self.rows.row_addr(ptr), 4); // write the tag
                insns += insn_cost::PER_ALLOC;
                ptr
            }
        };
        self.pointers.insert(0, ptr);
        self.pointers.truncate(self.rows.levels());
        insns
    }
}

/// Emits `succ` unless this step already emitted it.
#[inline]
pub(super) fn emit_once<S: StepSink + ?Sized>(
    seen: &mut Vec<LineAddr>,
    sink: &mut S,
    succ: LineAddr,
) {
    if !seen.contains(&succ) {
        seen.push(succ);
        sink.prefetch(succ);
    }
}

impl<K: Kind> UlmtAlgorithm for CorrelationTable<K> {
    fn name(&self) -> String {
        self.kind().name().to_string()
    }

    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink) {
        self.run(std::slice::from_ref(&miss), sink);
    }

    /// Asks `sink` how it takes touches once for the whole batch, not
    /// once per miss.
    fn process_misses(&mut self, batch: &[LineAddr], sink: &mut dyn StepSink) {
        self.run(batch, sink);
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        match self.kind() {
            TableKind::Base => self.base_predict(miss, levels),
            TableKind::Chain => self.chain_predict(miss, levels),
            TableKind::Repl => self.repl_predict(miss, levels),
        }
    }

    fn remap_page(&mut self, old: PageAddr, new: PageAddr) {
        self.rows.remap_page(old, new);
    }

    fn table_size_bytes(&self) -> u64 {
        self.rows.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Base, Chain, Replicated};
    use ulmt_simcore::Pcg32;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    /// Records every step separately, so per-step costs can be compared.
    #[derive(Default)]
    struct StepLog {
        steps: Vec<(Vec<LineAddr>, u64, u64)>,
    }

    impl StepSink for StepLog {
        fn begin(&mut self, _miss: LineAddr) {
            self.steps.push((Vec::new(), 0, 0));
        }

        fn prefetch(&mut self, addr: LineAddr) {
            self.steps.last_mut().unwrap().0.push(addr);
        }

        fn end(&mut self, prefetch_insns: u64, learn_insns: u64) {
            let step = self.steps.last_mut().unwrap();
            step.1 = prefetch_insns;
            step.2 = learn_insns;
        }
    }

    fn params(num_levels: usize) -> TableParams {
        TableParams {
            num_rows: 256,
            assoc: 2,
            num_succ: 2,
            num_levels,
        }
    }

    /// A seeded random walk over a hot pool of lines (hits, MRU churn)
    /// mixed with cold lines (allocations, set conflicts, evictions).
    fn seeded_stream(seed: u64, len: usize, lines: u64) -> Vec<LineAddr> {
        let mut rng = Pcg32::seed_from_u64(seed);
        let pool: Vec<u64> = (0..64).map(|_| rng.gen_range_u64(0..lines)).collect();
        let mut cursor = 0usize;
        (0..len)
            .map(|_| {
                if rng.gen_bool(0.75) {
                    cursor = (cursor + rng.gen_range_usize(1..4)) % pool.len();
                    line(pool[cursor])
                } else {
                    line(rng.gen_range_u64(0..lines))
                }
            })
            .collect()
    }

    /// Drives one table through `process_miss` and a twin through
    /// `process_misses` (with a resize halfway), then compares every
    /// step's prefetches and phase instruction counts, the table stats
    /// and the fingerprint. After each half the stats must agree and
    /// both tables' snapshots must survive the byte codec with their
    /// fingerprints. Runs a short hand-written stream and a seeded one
    /// long enough to evict.
    fn assert_paths_agree<K: Kind>(table: CorrelationTable<K>, label: &str) {
        let short: Vec<LineAddr> = [1u64, 2, 3, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1, 2, 3, 514, 2, 258]
            .iter()
            .map(|&n| line(n))
            .collect();
        let long = seeded_stream(0x7AB1E5, 4000, 2048);
        for (seq, must_evict) in [(short, false), (long, true)] {
            let mut slow = table.clone();
            let mut fast = table.clone();
            let mut expected = Vec::new();
            let mut log = StepLog::default();
            let mut replacements = 0;
            let (first, second) = seq.split_at(seq.len() / 2);
            for (half, rows) in [(first, 64), (second, 128)] {
                for &m in half {
                    let step = slow.process_miss(m);
                    expected.push((
                        step.prefetches,
                        step.prefetch_cost.insns,
                        step.learn_cost.insns,
                    ));
                }
                fast.process_misses(half, &mut log);
                assert_eq!(fast.table_stats(), slow.table_stats(), "{label}: stats");
                // The batch's prefetch hints move no slot, stamp or
                // dirty bit.
                assert!(fast.rows.same_slots(&slow.rows), "{label}: slots");
                assert_eq!(
                    fast.rows.dirty_words(),
                    slow.rows.dirty_words(),
                    "{label}: dirty bits"
                );
                replacements += slow.table_stats().replacements;
                for t in [&slow, &fast] {
                    let bytes = t.snapshot().to_bytes();
                    let back = TableSnapshot::from_bytes(&bytes).expect("codec round trip");
                    assert_eq!(back.fingerprint(), t.table_fingerprint(), "{label}: codec");
                }
                slow.resize(rows);
                fast.resize(rows);
            }
            let len = seq.len();
            assert_eq!(log.steps, expected, "{label}/{len}: per-step outputs");
            assert!(
                expected.iter().any(|(p, _, _)| !p.is_empty()),
                "{label}/{len}: stream must exercise prefetching"
            );
            assert_eq!(
                fast.table_fingerprint(),
                slow.table_fingerprint(),
                "{label}/{len}"
            );
            assert!(!must_evict || replacements > 0, "{label}/{len}: must evict");
        }
    }

    #[test]
    fn batch_kernel_matches_per_miss_path() {
        assert_paths_agree(Base::new(TableParams::base_default(256)), "base");
        assert_paths_agree(Chain::new(params(2)), "chain");
        assert_paths_agree(Replicated::new(params(2)), "repl");
        for kind in [TableKind::Base, TableKind::Chain, TableKind::Repl] {
            let p = if kind == TableKind::Base {
                params(1)
            } else {
                params(3)
            };
            assert_paths_agree(CorrelationTable::with_kind(kind, p), kind.name());
        }
    }

    #[test]
    fn run_time_kind_matches_the_fixed_table() {
        let seq: Vec<LineAddr> = (0..200u64).map(|n| line(n * 7 % 61)).collect();
        let mut fixed = Chain::new(params(3));
        let mut dynamic = CorrelationTable::with_kind(TableKind::Chain, params(3));
        for &m in &seq {
            assert_eq!(fixed.process_miss(m), dynamic.process_miss(m));
        }
        assert_eq!(fixed.snapshot(), dynamic.snapshot());
        assert_eq!(dynamic.name(), "chain");
    }

    #[test]
    fn restore_rejects_other_kinds_and_geometries_untouched() {
        let mut table = CorrelationTable::with_kind(TableKind::Repl, params(3));
        for n in [1u64, 2, 3, 1] {
            table.process_miss(line(n));
        }
        let before = table.table_fingerprint();
        let chain = Chain::new(params(3)).snapshot();
        assert!(matches!(
            table.restore(&chain),
            Err(SnapshotError::KindMismatch { .. })
        ));
        let bigger = Replicated::new(TableParams {
            num_rows: 512,
            ..params(3)
        })
        .snapshot();
        assert_eq!(
            table.restore(&bigger),
            Err(SnapshotError::ParamsMismatch {
                expected: params(3),
                found: bigger.params,
            })
        );
        assert_eq!(table.table_fingerprint(), before);
        // A matching snapshot restores.
        let mut other = Replicated::new(params(3));
        other.process_miss(line(9));
        table.restore(&other.snapshot()).unwrap();
        assert_eq!(table.table_fingerprint(), other.table_fingerprint());
    }

    #[test]
    fn from_snapshot_enforces_the_marker_and_base_levels() {
        let repl = Replicated::new(params(3)).snapshot();
        assert!(matches!(
            Base::from_snapshot(&repl),
            Err(SnapshotError::KindMismatch {
                expected: TableKind::Base,
                found: TableKind::Repl,
            })
        ));
        let mut deep_base = Base::new(params(1)).snapshot();
        deep_base.params.num_levels = 2;
        assert!(matches!(
            Base::from_snapshot(&deep_base),
            Err(SnapshotError::InvalidParams(_))
        ));
        assert!(CorrelationTable::<TableKind>::from_snapshot(&repl).is_ok());
    }

    #[test]
    #[should_panic(expected = "exactly one level")]
    fn base_rejects_multiple_levels() {
        let _ = Base::new(params(3));
    }
}
