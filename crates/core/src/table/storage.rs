//! Set-associative row storage shared by the correlation algorithms.
//!
//! # Flat-arena layout
//!
//! The table is stored as a struct-of-arrays over one contiguous
//! allocation per field: `tags`, `valid`, `gens` and `lrus` are parallel
//! vectors indexed by slot, and every successor list lives **inline** in
//! a single flat `Vec<LineAddr>` arena — slot `i`'s successors occupy
//! `i * levels * num_succ ..` with level `l` at offset `l * num_succ`,
//! and per-level lengths in a parallel `lens` byte vector. No slot owns a
//! heap allocation: a set probe walks one contiguous run of tags, row
//! replacement just zeroes the length bytes (no `template.clone()`), and
//! the learning hot path rotates a fixed-capacity slice in place.
//!
//! The arena is purely a host-performance change: every operation
//! performs the same logical state transitions (and the same
//! [`TableStats`] counts, LRU stamp sequence and snapshot bytes) as the
//! historical layout of one owned MRU list per row and level. That
//! layout, list type included, survives only as a differential-testing
//! oracle in the crate's integration tests (`tests/support/reference.rs`).
//!
//! # Dirty slots
//!
//! While a table is synced with a [`TableCheckpoint`], it records which
//! slots changed since the last capture: a lookup hit's LRU bump, an
//! allocation's victim and a successful MRU insertion each append their
//! slot to a dirty-slot list, and a per-slot bit keeps the list free of
//! duplicates. The Learning step writes only the rows behind its
//! retained pointers plus the miss's own row (Section 3.3.2), so the
//! dirty set of a checkpoint interval is bounded by the observations in
//! it, not by `NumRows`, and so is the cost of bringing a checkpoint up
//! to date: the capture walks the list, never the bitset. Operations
//! that move slots wholesale ([`RowTable::resize`],
//! [`RowTable::remap_page`], and a snapshot restore, which builds a new
//! table) unsync the table instead, forcing the next capture to copy
//! every slot. An unsynced table tracks nothing, since that full capture
//! would ignore what it tracked: a table that is never captured, like
//! every table of the simulator, pays one predictable branch per write.
//!
//! # Prefetch hints
//!
//! At service table sizes every set probe, row read and checkpoint copy
//! is likely a host cache miss on a random slot. [`prefetch`] asks the
//! CPU to start loading a line early; [`RowTable::prefetch_set`] lets the
//! batch kernel hint the sets of misses a few steps ahead, and the
//! incremental capture hints the checkpoint index entries and records it
//! will write next. A hint reads nothing the program sees and writes
//! nothing: no counter, LRU stamp or dirty bit moves, so a hinted run is
//! bit for bit an unhinted one.

use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

use ulmt_simcore::{Addr, LineAddr, PageAddr};

use super::checkpoint::{SlotRecord, TableCheckpoint};
use super::TableParams;

/// [`TableCheckpoint`] index entry of a slot without a record. Slot
/// indices fit a `u32` with room to spare: [`MAX_ARENA_BYTES`] bounds a
/// table to fewer than 2^25 rows.
///
/// [`MAX_ARENA_BYTES`]: super::MAX_ARENA_BYTES
pub(super) const NO_RECORD: u32 = u32::MAX;

/// Asks the CPU to start loading the cache line that holds `r`, so a
/// later access finds it there; on targets other than x86_64 it does
/// nothing. A hint never changes program state.
#[inline(always)]
fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is only a hint: it never faults, not even on an
    // unmapped address, and the pointer comes from a live reference.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// Hints every cache line of `run`: one element per 64 bytes from its
/// start, then its last element, whose line the stride can skip.
#[inline(always)]
fn prefetch_run<T>(run: &[T]) {
    for x in run.iter().step_by((64 / size_of::<T>()).max(1)) {
        prefetch(x);
    }
    if let Some(last) = run.last() {
        prefetch(last);
    }
}

/// Slots the incremental capture hints a slot's checkpoint index entry
/// ahead of the copy.
const CAPTURE_INDEX_AHEAD: usize = 16;

/// Slots the incremental capture hints its destination record ahead of
/// the copy (its index entry was hinted at [`CAPTURE_INDEX_AHEAD`]).
const CAPTURE_RECORD_AHEAD: usize = 8;

/// A sync token no table or checkpoint has used yet (never 0, which
/// means "not synced").
fn fresh_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Rewrites every line of `old` page in `items` to the corresponding
/// line of `new` (page re-mapping, Section 3.4).
fn remap_lines(items: &mut [LineAddr], old: PageAddr, new: PageAddr) {
    for item in items {
        if item.page() == old {
            let offset = item.raw() - old.first_line().raw();
            *item = LineAddr::new(new.first_line().raw() + offset);
        }
    }
}

/// Inserts `x` as the MRU successor of an inline arena level: `items`
/// is the level's fixed-capacity region, `len` its current length.
/// Returns the new length.
///
/// Within a row, "successors are listed in MRU order" and "entries in a
/// row replace each other with a LRU policy" (Section 2.2): a present
/// `x` moves to the front, a new one is pushed there, evicting the LRU
/// entry when the level is full, and a zero-capacity level stores
/// nothing. This is the hottest operation of every Learning step (one
/// call per NumSucc slot per level), so it rotates only the prefix that
/// actually moves instead of a `remove` + `insert` pair.
#[inline]
fn slice_insert_mru(items: &mut [LineAddr], len: usize, x: LineAddr) -> usize {
    let cap = items.len();
    if let Some(pos) = items[..len].iter().position(|&i| i == x) {
        items[..=pos].rotate_right(1);
        len
    } else if len < cap {
        // Append at the end of the live prefix, then rotate it to the
        // front — same result as the owned list's push + rotate.
        items[len] = x;
        items[..=len].rotate_right(1);
        len + 1
    } else if cap > 0 {
        items[..len].rotate_right(1);
        items[0] = x;
        len
    } else {
        0
    }
}

/// A validated pointer to a table row.
///
/// The Replicated algorithm "keeps NumLevels pointers to the table ...
/// used for efficient table access" (Section 3.3.2): learning through a
/// `RowPtr` needs no associative search. Pointers are invalidated
/// automatically when the row is re-allocated to a different miss address
/// (generation check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowPtr {
    slot: usize,
    gen: u64,
}

impl RowPtr {
    /// A pointer that never resolves: generation `u64::MAX` is never
    /// reached by a live slot, so [`RowTable::get`] and
    /// [`RowTable::insert_mru`] treat it exactly like a pointer whose
    /// row was re-allocated. Snapshot restore uses it to reproduce
    /// tombstoned learning-context entries position-for-position.
    pub fn dangling() -> Self {
        RowPtr {
            slot: 0,
            gen: u64::MAX,
        }
    }
}

/// How [`RowTable::find_or_alloc`] obtained the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// The row already existed.
    Existing,
    /// An invalid slot was filled.
    Fresh,
    /// A valid row for a different miss was replaced. Table 2 sizes
    /// `NumRows` so that fewer than 5% of insertions take this path.
    Replaced,
}

/// Counters for table behavior (used to size Table 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Associative lookups performed.
    pub lookups: u64,
    /// Lookups that found the row.
    pub hits: u64,
    /// Row allocations (insertions of new miss addresses).
    pub insertions: u64,
    /// Insertions that replaced a valid row.
    pub replacements: u64,
}

impl TableStats {
    /// Fraction of insertions that replaced an existing entry — the
    /// criterion used by Table 2 ("less than 5% of the insertions replace
    /// an existing entry").
    pub fn replacement_ratio(&self) -> f64 {
        if self.insertions == 0 {
            0.0
        } else {
            self.replacements as f64 / self.insertions as f64
        }
    }
}

/// A borrowed view of one valid row's successor levels, resolved into
/// the flat arena. Obtained from [`RowTable::get`], [`RowTable::peek`]
/// or [`RowTable::live_rows_lru`].
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    /// The row's successor region of the arena (`levels * num_succ`
    /// entries, including dead tails).
    region: &'a [LineAddr],
    /// The row's `levels` length bytes.
    lens: &'a [u8],
    num_succ: usize,
}

impl<'a> RowRef<'a> {
    /// Number of stored successor levels.
    #[inline]
    pub fn levels(&self) -> usize {
        self.lens.len()
    }

    /// Level `level`'s successors in MRU-to-LRU order.
    #[inline]
    pub fn level(&self, level: usize) -> &'a [LineAddr] {
        let start = level * self.num_succ;
        &self.region[start..start + self.lens[level] as usize]
    }

    /// The MRU successor of `level`, if any.
    #[inline]
    pub fn mru(&self, level: usize) -> Option<LineAddr> {
        self.level(level).first().copied()
    }
}

/// Set-associative storage of correlation rows in a flat arena (see the
/// module docs for the memory layout).
///
/// Rows live at synthetic main-memory addresses (`base_addr +
/// slot * row_bytes`) so the memory-processor model can replay table
/// accesses against its private cache.
#[derive(Debug, Clone)]
pub struct RowTable {
    num_sets: usize,
    assoc: usize,
    num_succ: usize,
    /// Successor levels stored per row: 1 for the conventional
    /// organization (Base/Chain), `NumLevels` for Replicated.
    levels: usize,
    row_bytes: u64,
    base_addr: Addr,
    tags: Vec<LineAddr>,
    valid: Vec<bool>,
    gens: Vec<u64>,
    lrus: Vec<u64>,
    /// `lens[slot * levels + level]` = live length of that level's list.
    lens: Vec<u8>,
    /// The successor arena; slot stride is `levels * num_succ`.
    succ: Vec<LineAddr>,
    /// Live-row counter, maintained on alloc/invalidate/resize so
    /// [`RowTable::occupancy`] is O(1).
    live: usize,
    lru_clock: u64,
    stats: TableStats,
    /// One bit per slot: listed in `dirty_slots` (module docs).
    dirty: Vec<u64>,
    /// Token of the [`TableCheckpoint`] this table was last captured
    /// into or restored from; 0 when no copy plus the dirty slots equals
    /// the table.
    synced: u64,
    /// The slots changed since the last capture, in the order they first
    /// changed: exactly the set bits of `dirty`. Empty after a capture;
    /// its capacity is reused.
    dirty_slots: Vec<u32>,
}

/// Default base address of the table in the memory processor's address
/// space. Arbitrary, but distinct from application data.
pub(crate) const TABLE_BASE: u64 = 0x4000_0000;

impl RowTable {
    /// Creates an empty table from `params`, with `row_bytes` bytes per
    /// row (the algorithms pass their organization's row size) and
    /// `levels` inline successor levels per row (1 for the conventional
    /// organization, `NumLevels` for Replicated).
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid, `levels` is zero, or `num_succ`
    /// exceeds the arena's 255-entry per-level length encoding.
    pub fn new(params: &TableParams, row_bytes: u64, levels: usize) -> Self {
        params.validate().unwrap_or_else(|e| panic!("{e}"));
        assert!(levels > 0, "a row stores at least one successor level");
        assert!(
            params.num_succ <= u8::MAX as usize,
            "NumSucc must fit the arena's u8 level lengths"
        );
        let rows = params.num_rows;
        RowTable {
            num_sets: params.num_sets(),
            assoc: params.assoc,
            num_succ: params.num_succ,
            levels,
            row_bytes,
            base_addr: Addr::new(TABLE_BASE),
            tags: vec![LineAddr::new(0); rows],
            valid: vec![false; rows],
            gens: vec![0; rows],
            lrus: vec![0; rows],
            lens: vec![0; rows * levels],
            succ: vec![LineAddr::new(0); rows * levels * params.num_succ],
            live: 0,
            lru_clock: 0,
            stats: TableStats::default(),
            dirty: vec![0; rows.div_ceil(64)],
            synced: 0,
            dirty_slots: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.tags.len()
    }

    /// Associativity.
    #[inline]
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Successor levels stored per row.
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Successor capacity per level (`NumSucc`).
    pub fn num_succ(&self) -> usize {
        self.num_succ
    }

    /// Behavior counters.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Total size of the table in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.tags.len() as u64 * self.row_bytes
    }

    /// Memory address of the row behind `ptr`.
    #[inline]
    pub fn row_addr(&self, ptr: RowPtr) -> Addr {
        self.base_addr
            .offset((ptr.slot as u64 * self.row_bytes) as i64)
    }

    /// Bytes per row.
    #[inline]
    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Memory addresses of every way in `line`'s set, in probe order (the
    /// associative search touches each tag).
    #[inline]
    pub fn probe_addrs(&self, line: LineAddr) -> impl Iterator<Item = Addr> + '_ {
        let start = self.set_of(line) * self.assoc;
        let row_bytes = self.row_bytes;
        let base = self.base_addr;
        (start..start + self.assoc).map(move |slot| base.offset((slot as u64 * row_bytes) as i64))
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.num_sets - 1)
    }

    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let start = self.set_of(line) * self.assoc;
        start..start + self.assoc
    }

    /// Slot stride in the successor arena.
    #[inline]
    fn stride(&self) -> usize {
        self.levels * self.num_succ
    }

    /// Lists `slot` as changed since the last capture, once; does
    /// nothing while the table is unsynced (module docs).
    #[inline]
    fn mark_dirty(&mut self, slot: usize) {
        if self.synced == 0 {
            return;
        }
        let (word, bit) = (&mut self.dirty[slot / 64], 1 << (slot % 64));
        if *word & bit == 0 {
            *word |= bit;
            self.dirty_slots.push(slot as u32);
        }
    }

    #[inline]
    fn row_ref(&self, slot: usize) -> RowRef<'_> {
        let start = slot * self.stride();
        RowRef {
            region: &self.succ[start..start + self.stride()],
            lens: &self.lens[slot * self.levels..(slot + 1) * self.levels],
            num_succ: self.num_succ,
        }
    }

    /// Associative lookup. Bumps the row's LRU stamp on a hit.
    ///
    /// The probe touches one contiguous run of `assoc` tags — with the
    /// struct-of-arrays layout that is a single cache line for any
    /// realistic associativity, where the old array-of-structs layout
    /// striped the tags across whole rows.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> Option<RowPtr> {
        self.stats.lookups += 1;
        self.lru_clock += 1;
        let clock = self.lru_clock;
        for i in self.set_range(line) {
            if self.valid[i] && self.tags[i] == line {
                self.lrus[i] = clock;
                self.mark_dirty(i);
                self.stats.hits += 1;
                return Some(RowPtr {
                    slot: i,
                    gen: self.gens[i],
                });
            }
        }
        None
    }

    /// Hints every line a step on `line` reads or writes in its set: the
    /// runs of `valid`, `tags`, `lrus` and `gens` a lookup or an
    /// allocation scans, the level lengths, the dirty word, and the
    /// successor region of every way, so the row that hits, or the one
    /// allocated, is on its way whichever it is. Reads nothing the
    /// program sees and changes nothing.
    #[inline]
    pub(super) fn prefetch_set(&self, line: LineAddr) {
        let set = self.set_range(line);
        let (levels, stride) = (self.levels, self.stride());
        prefetch_run(&self.valid[set.clone()]);
        prefetch_run(&self.tags[set.clone()]);
        prefetch_run(&self.lrus[set.clone()]);
        prefetch_run(&self.gens[set.clone()]);
        prefetch_run(&self.lens[set.start * levels..set.end * levels]);
        prefetch_run(&self.succ[set.start * stride..set.end * stride]);
        prefetch(&self.dirty[set.start / 64]);
    }

    /// Non-mutating lookup (used by the Figure 5 prediction scorer).
    pub fn peek(&self, line: LineAddr) -> Option<RowRef<'_>> {
        self.set_range(line)
            .find(|&i| self.valid[i] && self.tags[i] == line)
            .map(|i| self.row_ref(i))
    }

    /// Non-mutating lookup returning a pointer: no stats, no LRU bump.
    pub fn peek_ptr(&self, line: LineAddr) -> Option<RowPtr> {
        self.set_range(line)
            .find(|&i| self.valid[i] && self.tags[i] == line)
            .map(|i| RowPtr {
                slot: i,
                gen: self.gens[i],
            })
    }

    /// Resolves one snapshot learning-context entry back into a pointer:
    /// the live row for `tag` when it exists, otherwise a dangling
    /// pointer — the behavioral twin of the stale pointer the snapshot
    /// tombstoned.
    pub fn ctx_ptr(&self, entry: Option<u64>) -> RowPtr {
        entry
            .and_then(|tag| self.peek_ptr(LineAddr::new(tag)))
            .unwrap_or_else(RowPtr::dangling)
    }

    /// Finds the row for `line`, allocating (and possibly replacing the
    /// set's LRU row) if absent.
    #[inline]
    pub fn find_or_alloc(&mut self, line: LineAddr) -> (RowPtr, AllocKind) {
        if let Some(ptr) = self.lookup(line) {
            return (ptr, AllocKind::Existing);
        }
        self.stats.insertions += 1;
        let victim = self
            .set_range(line)
            .min_by_key(|&i| (self.valid[i], self.lrus[i]))
            .expect("associativity is positive");
        let kind = if self.valid[victim] {
            AllocKind::Replaced
        } else {
            self.live += 1;
            AllocKind::Fresh
        };
        if kind == AllocKind::Replaced {
            self.stats.replacements += 1;
        }
        self.lru_clock += 1;
        self.tags[victim] = line;
        self.valid[victim] = true;
        self.gens[victim] += 1;
        self.lrus[victim] = self.lru_clock;
        self.mark_dirty(victim);
        // Re-initializing the row is zeroing its length bytes — the old
        // layout's `template.clone()` heap allocation is gone.
        self.lens[victim * self.levels..(victim + 1) * self.levels].fill(0);
        (
            RowPtr {
                slot: victim,
                gen: self.gens[victim],
            },
            kind,
        )
    }

    #[inline]
    fn ptr_live(&self, ptr: RowPtr) -> bool {
        self.valid[ptr.slot] && self.gens[ptr.slot] == ptr.gen
    }

    /// Dereferences `ptr` if it is still valid (same generation).
    #[inline]
    pub fn get(&self, ptr: RowPtr) -> Option<RowRef<'_>> {
        self.ptr_live(ptr).then(|| self.row_ref(ptr.slot))
    }

    /// Inserts `x` as the MRU successor of `ptr`'s row at `level` and
    /// marks the slot dirty. Returns `false` (and does nothing) if the
    /// pointer is stale.
    ///
    /// The rotation happens directly on the row's inline arena slice.
    #[inline]
    pub fn insert_mru(&mut self, ptr: RowPtr, level: usize, x: LineAddr) -> bool {
        if !self.ptr_live(ptr) {
            return false;
        }
        let start = ptr.slot * self.stride() + level * self.num_succ;
        let len_at = ptr.slot * self.levels + level;
        let len = self.lens[len_at] as usize;
        self.lens[len_at] =
            slice_insert_mru(&mut self.succ[start..start + self.num_succ], len, x) as u8;
        self.mark_dirty(ptr.slot);
        true
    }

    /// Tag of the row behind `ptr`, if still valid.
    pub fn tag_of(&self, ptr: RowPtr) -> Option<LineAddr> {
        self.ptr_live(ptr).then(|| self.tags[ptr.slot])
    }

    /// Number of valid rows. O(1): a live counter maintained on
    /// alloc/invalidate/resize (the service polls this per stats
    /// request, so the old full-table scan was a hot path).
    pub fn occupancy(&self) -> usize {
        self.live
    }

    /// Re-maps all rows of page `old` to page `new` (Section 3.4): each
    /// row tagged with a line of `old` is relocated to the set of the
    /// corresponding line of `new`, and every in-row successor level is
    /// re-mapped too.
    ///
    /// Rows whose target set is full replace that set's LRU row, exactly
    /// like a fresh insertion. Returns the number of rows relocated.
    pub fn remap_page(&mut self, old: PageAddr, new: PageAddr) -> usize {
        // The lookups and allocations below would list every slot they
        // write, so the dirty slots alone could cover a remap; unsyncing
        // keeps a remap, which moves rows between sets, from depending
        // on that, and stops the tracking until the full recapture.
        self.synced = 0;
        let mut moved = 0;
        let stride = self.stride();
        // One scratch row reused across the whole page walk — the only
        // allocation in the operation, vs. a template clone per row.
        let mut row = vec![LineAddr::new(0); stride];
        let mut lens = vec![0u8; self.levels];
        for offset in 0..PageAddr::lines_per_page() {
            let old_line = LineAddr::new(old.first_line().raw() + offset);
            let Some(src) = self.lookup(old_line) else {
                continue;
            };
            let slot = src.slot;
            row.copy_from_slice(&self.succ[slot * stride..(slot + 1) * stride]);
            lens.copy_from_slice(&self.lens[slot * self.levels..(slot + 1) * self.levels]);
            self.valid[slot] = false;
            self.gens[slot] += 1;
            self.live -= 1;
            for level in 0..self.levels {
                let start = level * self.num_succ;
                remap_lines(&mut row[start..start + lens[level] as usize], old, new);
            }
            let new_line = LineAddr::new(new.first_line().raw() + offset);
            let (dst, _) = self.find_or_alloc(new_line);
            let d = dst.slot;
            self.succ[d * stride..(d + 1) * stride].copy_from_slice(&row);
            self.lens[d * self.levels..(d + 1) * self.levels].copy_from_slice(&lens);
            moved += 1;
        }
        moved
    }

    /// Slot indices of the valid rows in LRU-to-MRU order — the canonical
    /// replay order shared by [`RowTable::resize`] and the snapshot
    /// machinery.
    fn live_slots_lru(&self) -> Vec<usize> {
        let mut live: Vec<usize> = (0..self.tags.len()).filter(|&i| self.valid[i]).collect();
        live.sort_by_key(|&i| self.lrus[i]);
        live
    }

    /// Valid rows as `(tag, row)` views in LRU-to-MRU order — the same
    /// canonical order [`RowTable::resize`] replays, so re-inserting them
    /// into an empty table of the same geometry reproduces this table's
    /// contents exactly. Used by the snapshot machinery.
    pub fn live_rows_lru(&self) -> Vec<(LineAddr, RowRef<'_>)> {
        self.live_slots_lru()
            .into_iter()
            .map(|i| (self.tags[i], self.row_ref(i)))
            .collect()
    }

    /// Dynamically resizes the table to `new_params` (Section 3.4: "if an
    /// application does not use the space, its table shrinks"). Valid rows
    /// are re-inserted in LRU-to-MRU order so the most recent correlations
    /// survive a shrink.
    ///
    /// Only the slot *indices* are sorted; each surviving row's successor
    /// region is copied exactly once, old arena to new (the historical
    /// implementation cloned every row into a scratch vector and then
    /// again into the new table).
    pub fn resize(&mut self, new_params: &TableParams) {
        new_params.validate().unwrap_or_else(|e| panic!("{e}"));
        let order = self.live_slots_lru();
        let old = std::mem::replace(
            self,
            RowTable::new(
                &TableParams {
                    num_succ: self.num_succ,
                    ..*new_params
                },
                self.row_bytes,
                self.levels,
            ),
        );
        let stride = old.stride();
        for src in order {
            let (ptr, _) = self.find_or_alloc(old.tags[src]);
            let d = ptr.slot;
            self.succ[d * stride..(d + 1) * stride]
                .copy_from_slice(&old.succ[src * stride..(src + 1) * stride]);
            self.lens[d * old.levels..(d + 1) * old.levels]
                .copy_from_slice(&old.lens[src * old.levels..(src + 1) * old.levels]);
        }
    }

    /// Whether `slot` differs from a freshly built table's: valid, or
    /// invalidated by [`RowTable::remap_page`] with its LRU stamp (which
    /// still steers victim choice) left behind. Only these slots need a
    /// checkpoint record.
    #[inline]
    fn stamped(&self, slot: usize) -> bool {
        self.valid[slot] || self.lrus[slot] != 0
    }

    /// Brings `cp`'s slot records up to date and empties the dirty
    /// slots. When `cp` plus the dirty slots equals this table (the sync
    /// tokens match), only the listed slots are copied, so capturing a
    /// clean table costs O(1); otherwise every stamped slot is. Either
    /// way `cp` and this table share a fresh token afterwards. The
    /// scalars (LRU clock, live count, stats) are copied whole.
    pub(super) fn capture_slots(&mut self, cp: &mut TableCheckpoint) {
        let incremental = self.synced != 0 && self.synced == cp.token;
        // Until the update completes, `cp` matches no table.
        cp.token = 0;
        if incremental {
            // The list names the slots copied next, so the loop hints
            // their destination lines ahead of the copy. The source lines
            // need no hint: the batch that dirtied a slot just touched
            // them.
            let slots = std::mem::take(&mut self.dirty_slots);
            for (i, &slot) in slots.iter().enumerate() {
                if let Some(&ahead) = slots.get(i + CAPTURE_INDEX_AHEAD) {
                    prefetch(&cp.index[ahead as usize]);
                }
                if let Some(&ahead) = slots.get(i + CAPTURE_RECORD_AHEAD) {
                    self.prefetch_record(cp, ahead as usize);
                }
                let slot = slot as usize;
                // Only rebuilding the arena (a resize or a restore)
                // un-stamps a slot, and it empties the list.
                debug_assert!(self.stamped(slot));
                // Every bit of the word is listed, so clearing the word
                // clears only listed bits.
                self.dirty[slot / 64] = 0;
                self.put_record(cp, slot);
            }
            self.dirty_slots = slots;
            self.dirty_slots.clear();
        } else {
            cp.records.clear();
            cp.lens.clear();
            cp.succ.clear();
            cp.index.clear();
            cp.index.resize(self.num_rows(), NO_RECORD);
            for slot in 0..self.num_rows() {
                if self.stamped(slot) {
                    self.put_record(cp, slot);
                }
            }
            self.dirty.fill(0);
            self.dirty_slots.clear();
        }
        cp.live = self.live;
        cp.lru_clock = self.lru_clock;
        cp.stats = self.stats;
        let token = fresh_token();
        cp.token = token;
        self.synced = token;
    }

    /// Hints the lines of `slot`'s record in `cp`, if it has one (a new
    /// record is appended where the copy is already writing).
    #[inline]
    fn prefetch_record(&self, cp: &TableCheckpoint, slot: usize) {
        let pos = cp.index[slot];
        if pos != NO_RECORD {
            let (pos, levels, stride) = (pos as usize, self.levels, self.stride());
            prefetch(&cp.records[pos]);
            prefetch_run(&cp.lens[pos * levels..(pos + 1) * levels]);
            prefetch_run(&cp.succ[pos * stride..(pos + 1) * stride]);
        }
    }

    /// Writes `slot` into its record in `cp`, appending one if it has
    /// none yet.
    fn put_record(&self, cp: &mut TableCheckpoint, slot: usize) {
        let record = SlotRecord {
            slot: slot as u32,
            valid: self.valid[slot],
            tag: self.tags[slot],
            lru: self.lrus[slot],
            gen: self.gens[slot],
        };
        let (levels, stride) = (self.levels, self.stride());
        let lens = &self.lens[slot * levels..(slot + 1) * levels];
        let succ = &self.succ[slot * stride..(slot + 1) * stride];
        match cp.index[slot] {
            NO_RECORD => {
                cp.index[slot] = cp.records.len() as u32;
                cp.records.push(record);
                cp.lens.extend_from_slice(lens);
                cp.succ.extend_from_slice(succ);
            }
            pos => {
                let pos = pos as usize;
                cp.records[pos] = record;
                cp.lens[pos * levels..(pos + 1) * levels].copy_from_slice(lens);
                cp.succ[pos * stride..(pos + 1) * stride].copy_from_slice(succ);
            }
        }
    }

    /// Makes this table slot-for-slot the one `cp` was captured from: no
    /// sort and no re-insertion, every record written straight back to
    /// its slot and every other slot reset to a fresh table's. `cp` must
    /// hold this table's geometry. The table is then synced with `cp`,
    /// so the next capture into it copies only what changes from here.
    pub(super) fn restore_slots(&mut self, cp: &TableCheckpoint) {
        self.tags.fill(LineAddr::new(0));
        self.valid.fill(false);
        self.gens.fill(0);
        self.lrus.fill(0);
        self.lens.fill(0);
        self.succ.fill(LineAddr::new(0));
        self.dirty.fill(0);
        self.dirty_slots.clear();
        let (levels, stride) = (self.levels, self.stride());
        for (pos, r) in cp.records.iter().enumerate() {
            let slot = r.slot as usize;
            self.tags[slot] = r.tag;
            self.valid[slot] = r.valid;
            self.gens[slot] = r.gen;
            self.lrus[slot] = r.lru;
            self.lens[slot * levels..(slot + 1) * levels]
                .copy_from_slice(&cp.lens[pos * levels..(pos + 1) * levels]);
            self.succ[slot * stride..(slot + 1) * stride]
                .copy_from_slice(&cp.succ[pos * stride..(pos + 1) * stride]);
        }
        self.live = cp.live;
        self.lru_clock = cp.lru_clock;
        self.stats = cp.stats;
        self.synced = cp.token;
    }

    /// The token of the checkpoint this table is synced with (0: none).
    #[cfg(test)]
    pub(super) fn synced_token(&self) -> u64 {
        self.synced
    }

    /// The dirty bitset, one bit per slot.
    #[cfg(test)]
    pub(super) fn dirty_words(&self) -> &[u64] {
        &self.dirty
    }

    /// The dirty-slot list, in the order the slots first changed.
    #[cfg(test)]
    pub(super) fn dirty_list(&self) -> &[u32] {
        &self.dirty_slots
    }

    /// Whether `other` holds exactly this table's slots, clock, counters
    /// and geometry (dirty tracking aside).
    #[cfg(test)]
    pub(super) fn same_slots(&self, other: &RowTable) -> bool {
        self.num_sets == other.num_sets
            && self.assoc == other.assoc
            && self.num_succ == other.num_succ
            && self.levels == other.levels
            && self.row_bytes == other.row_bytes
            && self.base_addr == other.base_addr
            && self.tags == other.tags
            && self.valid == other.valid
            && self.gens == other.gens
            && self.lrus == other.lrus
            && self.lens == other.lens
            && self.succ == other.succ
            && self.live == other.live
            && self.lru_clock == other.lru_clock
            && self.stats == other.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(rows: usize, assoc: usize) -> TableParams {
        TableParams {
            num_rows: rows,
            assoc,
            num_succ: 2,
            num_levels: 1,
        }
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    /// `insert_mru` through a fresh pointer; panics if the row vanished.
    fn push_succ(t: &mut RowTable, ptr: RowPtr, x: LineAddr) {
        assert!(t.insert_mru(ptr, 0, x), "pointer unexpectedly stale");
    }

    /// One inline successor level, driven through the arena's own
    /// `slice_insert_mru`.
    struct Level {
        items: Vec<LineAddr>,
        len: usize,
    }

    impl Level {
        fn new(cap: usize) -> Self {
            Level {
                items: vec![line(0); cap],
                len: 0,
            }
        }

        fn insert_mru(&mut self, x: LineAddr) {
            self.len = slice_insert_mru(&mut self.items, self.len, x);
        }

        fn as_slice(&self) -> &[LineAddr] {
            &self.items[..self.len]
        }
    }

    #[test]
    fn mru_list_dedupes_and_evicts() {
        let mut l = Level::new(3);
        for n in [1, 2, 3, 2] {
            l.insert_mru(line(n));
        }
        assert_eq!(l.as_slice(), &[line(2), line(3), line(1)]);
        l.insert_mru(line(4));
        assert_eq!(l.as_slice(), &[line(4), line(2), line(3)]);
    }

    #[test]
    fn mru_list_duplicate_reinsertion_at_every_position() {
        // Re-inserting the entry at position `pos` must move exactly it to
        // the front and leave the relative order of everything else alone.
        let cap = 5;
        for pos in 0..cap {
            let mut l = Level::new(cap);
            // Build [5, 4, 3, 2, 1] (5 is MRU).
            for n in 1..=cap as u64 {
                l.insert_mru(line(n));
            }
            let before = l.as_slice().to_vec();
            let target = before[pos];
            l.insert_mru(target);
            let mut expected = vec![target];
            expected.extend(before.iter().copied().filter(|&i| i != target));
            assert_eq!(l.as_slice(), &expected[..], "re-insert at position {pos}");
        }
    }

    #[test]
    fn mru_list_capacity_one() {
        let mut l = Level::new(1);
        l.insert_mru(line(1));
        assert_eq!(l.as_slice(), &[line(1)]);
        l.insert_mru(line(1)); // duplicate: no change, no growth
        assert_eq!(l.as_slice(), &[line(1)]);
        l.insert_mru(line(2)); // replaces the only entry
        assert_eq!(l.as_slice(), &[line(2)]);
    }

    #[test]
    fn mru_list_capacity_zero_stores_nothing() {
        let mut l = Level::new(0);
        l.insert_mru(line(1));
        l.insert_mru(line(1));
        l.insert_mru(line(2));
        assert!(l.as_slice().is_empty());
    }

    #[test]
    fn mru_list_eviction_is_strict_lru() {
        let mut l = Level::new(3);
        for n in [1, 2, 3] {
            l.insert_mru(line(n));
        }
        // Touch 1 so the LRU entry becomes 2.
        l.insert_mru(line(1));
        l.insert_mru(line(4)); // must evict 2, not 3
        assert_eq!(l.as_slice(), &[line(4), line(1), line(3)]);
        l.insert_mru(line(5)); // must evict 3
        assert_eq!(l.as_slice(), &[line(5), line(4), line(1)]);
    }

    #[test]
    fn slice_insert_matches_owned_list() {
        // The arena's in-place rotation must match the plain owned-list
        // specification (drop any copy of `x`, put `x` in front, keep the
        // first `cap`) on arbitrary streams, for every capacity.
        for cap in 0..=4usize {
            let mut owned: Vec<LineAddr> = Vec::new();
            let mut l = Level::new(cap);
            let mut x: u64 = 0x9e3779b9;
            for _ in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let n = line((x >> 33) % 7);
                owned.retain(|&i| i != n);
                owned.insert(0, n);
                owned.truncate(cap);
                l.insert_mru(n);
                assert_eq!(l.as_slice(), &owned[..], "cap {cap}");
            }
        }
    }

    #[test]
    fn mru_list_remap() {
        let mut l = Level::new(4);
        let lines_per_page = PageAddr::lines_per_page();
        l.insert_mru(line(lines_per_page * 3 + 5)); // page 3
        l.insert_mru(line(lines_per_page * 9 + 1)); // page 9
        remap_lines(&mut l.items[..l.len], PageAddr::new(3), PageAddr::new(7));
        assert_eq!(
            l.as_slice(),
            &[line(lines_per_page * 9 + 1), line(lines_per_page * 7 + 5)]
        );
    }

    #[test]
    fn alloc_lookup_roundtrip() {
        let mut t = RowTable::new(&params(8, 2), 12, 1);
        let (ptr, kind) = t.find_or_alloc(line(5));
        assert_eq!(kind, AllocKind::Fresh);
        push_succ(&mut t, ptr, line(6));
        let found = t.lookup(line(5)).unwrap();
        assert_eq!(t.get(found).unwrap().mru(0), Some(line(6)));
        assert_eq!(t.tag_of(found), Some(line(5)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn replacement_invalidates_pointers() {
        // 1 set x 2 ways: third distinct tag replaces the LRU row.
        let mut t = RowTable::new(&params(2, 2), 12, 1);
        let (p1, _) = t.find_or_alloc(line(1));
        let (_p2, _) = t.find_or_alloc(line(2));
        let (_, kind) = t.find_or_alloc(line(3));
        assert_eq!(kind, AllocKind::Replaced);
        // line(1) was LRU; its pointer is now stale.
        assert!(t.get(p1).is_none());
        assert!(!t.insert_mru(p1, 0, line(9)));
        assert_eq!(t.stats().replacements, 1);
        assert!(t.stats().replacement_ratio() > 0.3);
        // Replacement swaps one valid row for another.
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn lru_within_set_guides_replacement() {
        let mut t = RowTable::new(&params(2, 2), 12, 1);
        t.find_or_alloc(line(1));
        t.find_or_alloc(line(2));
        t.lookup(line(1)); // touch 1, so 2 becomes LRU
        t.find_or_alloc(line(3));
        assert!(t.lookup(line(1)).is_some());
        assert!(t.lookup(line(2)).is_none());
    }

    #[test]
    fn replacement_clears_stale_successors() {
        // A replaced slot must not leak the previous row's successors.
        let mut t = RowTable::new(&params(2, 2), 12, 1);
        let (p1, _) = t.find_or_alloc(line(1));
        push_succ(&mut t, p1, line(7));
        push_succ(&mut t, p1, line(8));
        t.find_or_alloc(line(2));
        let (p3, kind) = t.find_or_alloc(line(3)); // replaces row 1
        assert_eq!(kind, AllocKind::Replaced);
        assert!(t.get(p3).unwrap().level(0).is_empty());
    }

    #[test]
    fn probe_addrs_cover_the_set() {
        let t = RowTable::new(&params(8, 2), 12, 1);
        let addrs: Vec<_> = t.probe_addrs(line(1)).collect();
        assert_eq!(addrs.len(), 2);
        // Set 1 of 4 -> slots 2 and 3.
        assert_eq!(addrs[0], Addr::new(TABLE_BASE + 2 * 12));
        assert_eq!(addrs[1], Addr::new(TABLE_BASE + 3 * 12));
    }

    #[test]
    fn remap_page_relocates_rows_and_successors() {
        let mut t = RowTable::new(&params(1024, 2), 12, 1);
        let lpp = PageAddr::lines_per_page();
        let old_line = line(lpp * 2 + 10);
        let (ptr, _) = t.find_or_alloc(old_line);
        push_succ(&mut t, ptr, line(lpp * 2 + 11)); // successor in the same page
        push_succ(&mut t, ptr, line(5)); // successor elsewhere
        let moved = t.remap_page(PageAddr::new(2), PageAddr::new(6));
        assert_eq!(moved, 1);
        assert!(t.lookup(old_line).is_none());
        let new_line = line(lpp * 6 + 10);
        let got = t.lookup(new_line).unwrap();
        let row = t.get(got).unwrap();
        assert!(row.level(0).contains(&line(lpp * 6 + 11)));
        assert!(row.level(0).contains(&line(5)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn resize_preserves_recent_rows() {
        let mut t = RowTable::new(&params(64, 2), 12, 1);
        for n in 0..64 {
            t.find_or_alloc(line(n));
        }
        assert_eq!(t.occupancy(), 64);
        t.resize(&params(16, 2));
        assert_eq!(t.num_rows(), 16);
        assert!(t.occupancy() <= 16);
        // The most recently inserted rows survive.
        assert!(t.peek(line(63)).is_some());
    }

    #[test]
    fn resize_moves_successors() {
        let mut t = RowTable::new(&params(64, 2), 12, 1);
        let (ptr, _) = t.find_or_alloc(line(3));
        push_succ(&mut t, ptr, line(4));
        push_succ(&mut t, ptr, line(5));
        t.resize(&params(16, 2));
        let row = t.peek(line(3)).expect("row survives a shrink to 16");
        assert_eq!(row.level(0), &[line(5), line(4)]);
    }

    #[test]
    fn multi_level_rows_are_independent() {
        let p = TableParams {
            num_rows: 8,
            assoc: 2,
            num_succ: 2,
            num_levels: 3,
        };
        let mut t = RowTable::new(&p, 28, 3);
        let (ptr, _) = t.find_or_alloc(line(1));
        assert!(t.insert_mru(ptr, 0, line(10)));
        assert!(t.insert_mru(ptr, 1, line(20)));
        assert!(t.insert_mru(ptr, 2, line(30)));
        assert!(t.insert_mru(ptr, 2, line(31)));
        let row = t.get(ptr).unwrap();
        assert_eq!(row.level(0), &[line(10)]);
        assert_eq!(row.level(1), &[line(20)]);
        assert_eq!(row.level(2), &[line(31), line(30)]);
        assert_eq!(row.levels(), 3);
    }

    #[test]
    fn occupancy_counter_tracks_scan() {
        // Random alloc/remap/resize churn: the O(1) counter must always
        // equal a full validity scan (recomputed via live_rows_lru).
        let mut t = RowTable::new(&params(16, 2), 12, 1);
        let mut x: u64 = 1;
        for step in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            match x % 16 {
                0..=11 => {
                    t.find_or_alloc(line((x >> 16) % 64));
                }
                12 | 13 => {
                    let lpp = PageAddr::lines_per_page();
                    t.remap_page(
                        PageAddr::new((x >> 16) % 4),
                        PageAddr::new(4 + (x >> 24) % 4),
                    );
                    let _ = lpp;
                }
                _ => {
                    let rows = if x % 32 < 16 { 16 } else { 32 };
                    t.resize(&params(rows, 2));
                }
            }
            assert_eq!(t.occupancy(), t.live_rows_lru().len(), "step {step}");
        }
    }

    #[test]
    fn size_bytes() {
        let t = RowTable::new(&params(1024, 2), 28, 1);
        assert_eq!(t.size_bytes(), 1024 * 28);
    }
}
