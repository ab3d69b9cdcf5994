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
//! # Undo log
//!
//! The service keeps every table recoverable without a second copy of
//! it. Once a table is committed ([`RowTable::commit`]), the first write
//! to a slot in each checkpoint interval first saves that slot's old
//! value, its pre-image, to a small log: tag, valid flag, generation,
//! LRU stamp, level lengths and successors. A lookup hit's LRU bump, an
//! allocation's victim and an MRU insertion each log before they write,
//! and a per-slot dirty bit keeps each slot to one entry per interval.
//! The Learning step writes only the rows behind its retained pointers
//! plus the miss's own row (Section 3.3.2), so the log of an interval is
//! bounded by the observations in it, not by `NumRows`, and it is
//! written while the slot's lines are in cache for the write anyway.
//!
//! A commit saves the scalars (LRU clock, live count, [`TableStats`] and
//! the owner's learning pointers), clears the listed dirty bits and
//! truncates the log; it copies no slot. [`RowTable::rollback`] writes
//! the pre-images back and restores the scalars, which is exactly the
//! table at the last commit, even after a panic in the middle of a step.
//! A page remap logs every slot it writes, through the lookups and
//! allocations it is made of. The operations that rebuild the arena, a
//! resize and a snapshot restore, keep the table they replaced, whole,
//! until the next commit instead, and log nothing while they hold it. A
//! table that is never committed, like every table of the simulator,
//! logs nothing and pays one predictable branch per write.
//!
//! # Prefetch hints
//!
//! At service table sizes every set probe and row read is likely a host
//! cache miss on a random slot. [`prefetch`] asks the CPU to start
//! loading a line early; [`RowTable::prefetch_set`] lets the batch kernel
//! hint the sets of misses a few steps ahead. A hint reads nothing the
//! program sees and writes nothing: no counter, LRU stamp, dirty bit or
//! log entry moves, so a hinted run is bit for bit an unhinted one.

use std::mem::{size_of, size_of_val};

use ulmt_simcore::{Addr, LineAddr, PageAddr};

use super::TableParams;

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
    /// One bit per slot: logged since the last commit (module docs).
    dirty: Vec<u64>,
    /// What a rollback returns to; `None` until the first commit.
    undo: Option<Box<UndoLog>>,
}

/// Words of an [`UndoLog`] entry ahead of its level lengths: the slot
/// index with the valid flag, the tag, the LRU stamp and the generation.
const HEAD_WORDS: usize = 4;

/// Packs up to eight level lengths into one log word, first level in
/// the low byte.
#[inline]
fn pack_lens(lens: &[u8]) -> u64 {
    lens.iter()
        .rev()
        .fold(0, |word, &len| word << 8 | u64::from(len))
}

/// The state of a table at its last commit (module docs): the scalars,
/// plus either the pre-image of every slot written since, or the whole
/// table a rebuilt arena replaced.
#[derive(Debug, Clone, Default)]
struct UndoLog {
    live: usize,
    lru_clock: u64,
    stats: TableStats,
    /// The owner's learning pointers at the commit.
    pointers: Vec<RowPtr>,
    /// The table at the commit, when a resize or a restore has rebuilt
    /// the arena since; nothing is logged while it is held.
    whole: Option<RowTable>,
    /// One fixed-size entry per logged slot ([`RowTable::entry_words`]),
    /// in the order the slots were first written: exactly the set bits
    /// of the table's `dirty`. An entry is [`HEAD_WORDS`] words, then
    /// the level lengths eight to a word, then every successor of the
    /// slot (dead tails included).
    entries: Vec<u64>,
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
            undo: None,
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

    /// Words of one [`UndoLog`] entry at this table's geometry.
    fn entry_words(&self) -> usize {
        HEAD_WORDS + self.levels.div_ceil(8) + self.stride()
    }

    /// Saves `slot`'s pre-image on its first write since the commit;
    /// called *before* the write. Does nothing on a table that was never
    /// committed or that holds a replaced table whole (module docs).
    #[inline]
    fn log(&mut self, slot: usize) {
        let Some(log) = self.undo.as_deref_mut() else {
            return;
        };
        let (word, bit) = (&mut self.dirty[slot / 64], 1 << (slot % 64));
        if *word & bit != 0 || log.whole.is_some() {
            return;
        }
        *word |= bit;
        let (levels, stride) = (self.levels, self.levels * self.num_succ);
        let entry = &mut log.entries;
        entry.extend_from_slice(&[
            slot as u64 | u64::from(self.valid[slot]) << 32,
            self.tags[slot].raw(),
            self.lrus[slot],
            self.gens[slot],
        ]);
        entry.extend(
            self.lens[slot * levels..(slot + 1) * levels]
                .chunks(8)
                .map(pack_lens),
        );
        entry.extend(
            self.succ[slot * stride..(slot + 1) * stride]
                .iter()
                .map(|s| s.raw()),
        );
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
                self.log(i);
                self.lrus[i] = clock;
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
        self.log(victim);
        self.tags[victim] = line;
        self.valid[victim] = true;
        self.gens[victim] += 1;
        self.lrus[victim] = self.lru_clock;
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

    /// Inserts `x` as the MRU successor of `ptr`'s row at `level`, after
    /// logging the slot. Returns `false` (and does nothing) if the
    /// pointer is stale.
    ///
    /// The rotation happens directly on the row's inline arena slice.
    #[inline]
    pub fn insert_mru(&mut self, ptr: RowPtr, level: usize, x: LineAddr) -> bool {
        if !self.ptr_live(ptr) {
            return false;
        }
        self.log(ptr.slot);
        let start = ptr.slot * self.stride() + level * self.num_succ;
        let len_at = ptr.slot * self.levels + level;
        let len = self.lens[len_at] as usize;
        self.lens[len_at] =
            slice_insert_mru(&mut self.succ[start..start + self.num_succ], len, x) as u8;
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
        // Every slot written below was logged first: the source row by
        // its lookup hit, the destination by `find_or_alloc`.
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
    /// again into the new table). A committed table keeps the table it
    /// replaced, whole, until the next commit (module docs).
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
        self.keep_whole(old);
    }

    /// Commits the table as it is now: a later [`RowTable::rollback`]
    /// returns to it, and to `pointers`, which the owner hands back
    /// then. Saves the scalars, clears the listed dirty bits, truncates
    /// the log and drops a replaced table; copies no slot. From here on
    /// every first write to a slot logs its pre-image.
    pub(super) fn commit(&mut self, pointers: &[RowPtr]) {
        let words = self.entry_words();
        let log = self.undo.get_or_insert_with(Box::default);
        for entry in log.entries.chunks_exact(words) {
            // Every set bit is listed, so clearing the whole word clears
            // only listed bits.
            self.dirty[entry[0] as u32 as usize / 64] = 0;
        }
        log.entries.clear();
        log.whole = None;
        log.live = self.live;
        log.lru_clock = self.lru_clock;
        log.stats = self.stats;
        log.pointers.clear();
        log.pointers.extend_from_slice(pointers);
    }

    /// Returns the table to its last commit, exactly, and `pointers` to
    /// the ones committed with it; the table stays committed there.
    /// Returns the bytes rolled back (the logged pre-images, or the
    /// replaced table), or `None`, touching nothing, if the table was
    /// never committed.
    pub(super) fn rollback(&mut self, pointers: &mut Vec<RowPtr>) -> Option<u64> {
        let mut log = self.undo.take()?;
        let bytes = match log.whole.take() {
            Some(whole) => {
                *self = whole;
                self.arena_bytes()
            }
            None => self.undo_slots(&mut log),
        };
        pointers.clear();
        pointers.extend_from_slice(&log.pointers);
        self.undo = Some(log);
        Some(bytes)
    }

    /// Writes `log`'s pre-images back to their slots, clears their dirty
    /// bits, restores the committed scalars and empties the log. Returns
    /// the bytes of pre-images written back.
    fn undo_slots(&mut self, log: &mut UndoLog) -> u64 {
        let (levels, stride, words) = (self.levels, self.stride(), self.entry_words());
        for entry in log.entries.chunks_exact(words) {
            let slot = entry[0] as u32 as usize;
            self.valid[slot] = entry[0] >> 32 != 0;
            self.tags[slot] = LineAddr::new(entry[1]);
            self.lrus[slot] = entry[2];
            self.gens[slot] = entry[3];
            let (lens, succ) = entry[HEAD_WORDS..].split_at(levels.div_ceil(8));
            let row_lens = self.lens[slot * levels..(slot + 1) * levels].chunks_mut(8);
            for (run, &word) in row_lens.zip(lens) {
                for (i, len) in run.iter_mut().enumerate() {
                    *len = (word >> (8 * i)) as u8;
                }
            }
            let row = &mut self.succ[slot * stride..(slot + 1) * stride];
            for (dst, &raw) in row.iter_mut().zip(succ) {
                *dst = LineAddr::new(raw);
            }
            self.dirty[slot / 64] = 0;
        }
        self.live = log.live;
        self.lru_clock = log.lru_clock;
        self.stats = log.stats;
        let bytes = size_of_val(&log.entries[..]) as u64;
        log.entries.clear();
        bytes
    }

    /// Takes over `old`'s commit after a resize or a restore rebuilt the
    /// arena into this table: `old`, rolled back to that commit, is kept
    /// whole until the next one (the first replacement's, if `old` held
    /// one already). Does nothing if `old` was never committed.
    pub(super) fn keep_whole(&mut self, mut old: RowTable) {
        let Some(mut log) = old.undo.take() else {
            return;
        };
        if log.whole.is_none() {
            old.undo_slots(&mut log);
            log.whole = Some(old);
        }
        self.undo = Some(log);
    }

    /// Host bytes of the table's slot arrays and dirty bits.
    fn arena_bytes(&self) -> u64 {
        (size_of_val(&self.tags[..])
            + size_of_val(&self.valid[..])
            + size_of_val(&self.gens[..])
            + size_of_val(&self.lrus[..])
            + self.lens.len()
            + size_of_val(&self.succ[..])
            + size_of_val(&self.dirty[..])) as u64
    }

    /// The dirty bitset, one bit per slot.
    #[cfg(test)]
    pub(super) fn dirty_words(&self) -> &[u64] {
        &self.dirty
    }

    /// The logged slots, in the order they were first written (empty on
    /// a table that was never committed).
    #[cfg(test)]
    pub(super) fn logged_slots(&self) -> Vec<u32> {
        self.undo.as_ref().map_or_else(Vec::new, |log| {
            let words = self.entry_words();
            log.entries
                .chunks_exact(words)
                .map(|e| e[0] as u32)
                .collect()
        })
    }

    /// Whether the table holds a replaced table whole.
    #[cfg(test)]
    pub(super) fn holds_whole(&self) -> bool {
        self.undo.as_ref().is_some_and(|log| log.whole.is_some())
    }

    /// Bytes the log's buffers have reserved.
    #[cfg(test)]
    pub(super) fn log_capacity(&self) -> usize {
        self.undo
            .as_ref()
            .map_or(0, |log| log.entries.capacity() * size_of::<u64>())
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
