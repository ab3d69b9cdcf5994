//! The pre-arena table layout, kept as a differential oracle.
//!
//! This module preserves the historical storage organization — one
//! heap-allocated [`RefSuccList`] per slot (Replicated: a
//! `Vec<RefSuccList>` per slot), a `template.clone()` on every row
//! allocation — together with
//! the Base/Chain/Replicated algorithms written out separately on top of
//! it. The differential property tests (`arena_differential.rs`) replay
//! seeded miss streams through it and through the production tables and
//! assert bit-identical prefetches, costs, stats, snapshots and
//! fingerprints. It uses only the crate's public API.

use std::collections::VecDeque;

use ulmt_simcore::{Addr, LineAddr, PageAddr};

use ulmt_core::algorithm::{insn_cost, StepSink, UlmtAlgorithm};
use ulmt_core::cost::StepResult;
use ulmt_core::table::{AllocKind, RowSnapshot, TableKind, TableParams, TableSnapshot, TableStats};

/// Base address of the table in the memory processor's address space;
/// the production `RowTable` places its rows at the same address, which
/// the compared table touches pin.
const TABLE_BASE: u64 = 0x4000_0000;

/// Replays a recorded step into `sink` as one `begin` … `end` frame.
fn replay(step: StepResult, miss: LineAddr, sink: &mut dyn StepSink) {
    sink.begin(miss);
    for &p in &step.prefetches {
        sink.prefetch(p);
    }
    let touches = step.prefetch_cost.table_touches.iter();
    for t in touches.chain(&step.learn_cost.table_touches) {
        if t.is_write {
            sink.write(t.addr, t.bytes);
        } else {
            sink.read(t.addr, t.bytes);
        }
    }
    sink.end(step.prefetch_cost.insns, step.learn_cost.insns);
}

/// The historical owned successor list: at most `cap` addresses in MRU
/// order. "Successors are listed in MRU order" and "entries in a row
/// replace each other with a LRU policy" (Section 2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefSuccList {
    items: Vec<LineAddr>,
    cap: usize,
}

impl RefSuccList {
    pub fn new(cap: usize) -> Self {
        RefSuccList {
            items: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Inserts `x` as the MRU entry, de-duplicating and evicting the LRU
    /// entry if the list is full. A zero-capacity list stores nothing.
    pub fn insert_mru(&mut self, x: LineAddr) {
        if let Some(pos) = self.items.iter().position(|&i| i == x) {
            self.items[..=pos].rotate_right(1);
        } else if self.items.len() < self.cap {
            self.items.push(x);
            self.items.rotate_right(1);
        } else if self.cap > 0 {
            self.items.rotate_right(1);
            self.items[0] = x;
        }
    }

    pub fn mru(&self) -> Option<LineAddr> {
        self.items.first().copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.items.iter().copied()
    }

    /// Rewrites entries falling in `old` page to the corresponding line in
    /// `new` (page re-mapping, Section 3.4).
    pub fn remap_page(&mut self, old: PageAddr, new: PageAddr) {
        for item in &mut self.items {
            if item.page() == old {
                let offset = item.raw() - old.first_line().raw();
                *item = LineAddr::new(new.first_line().raw() + offset);
            }
        }
    }
}

/// A validated pointer into a [`RefRowTable`] (same contract as the
/// arena's `RowPtr`, private to the reference layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefRowPtr {
    slot: usize,
    gen: u64,
}

#[derive(Debug, Clone)]
struct Slot<R> {
    tag: LineAddr,
    valid: bool,
    gen: u64,
    lru: u64,
    row: R,
}

/// The historical array-of-structs row table, generic over the row type.
#[derive(Debug, Clone)]
pub struct RefRowTable<R> {
    num_sets: usize,
    assoc: usize,
    row_bytes: u64,
    base_addr: Addr,
    slots: Vec<Slot<R>>,
    template: R,
    lru_clock: u64,
    stats: TableStats,
}

impl<R: Clone> RefRowTable<R> {
    pub fn new(params: &TableParams, row_bytes: u64, template: R) -> Self {
        if let Err(e) = params.validate() {
            panic!("{e}");
        }
        RefRowTable {
            num_sets: params.num_sets(),
            assoc: params.assoc,
            row_bytes,
            base_addr: Addr::new(TABLE_BASE),
            slots: vec![
                Slot {
                    tag: LineAddr::new(0),
                    valid: false,
                    gen: 0,
                    lru: 0,
                    row: template.clone()
                };
                params.num_rows
            ],
            template,
            lru_clock: 0,
            stats: TableStats::default(),
        }
    }

    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    pub fn size_bytes(&self) -> u64 {
        self.slots.len() as u64 * self.row_bytes
    }

    pub fn row_addr(&self, ptr: RefRowPtr) -> Addr {
        self.base_addr
            .offset((ptr.slot as u64 * self.row_bytes) as i64)
    }

    pub fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    pub fn probe_addrs(&self, line: LineAddr) -> impl Iterator<Item = Addr> + '_ {
        let start = self.set_of(line) * self.assoc;
        let row_bytes = self.row_bytes;
        let base = self.base_addr;
        (start..start + self.assoc).map(move |slot| base.offset((slot as u64 * row_bytes) as i64))
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.num_sets - 1)
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let start = self.set_of(line) * self.assoc;
        start..start + self.assoc
    }

    pub fn lookup(&mut self, line: LineAddr) -> Option<RefRowPtr> {
        self.stats.lookups += 1;
        self.lru_clock += 1;
        let clock = self.lru_clock;
        for i in self.set_range(line) {
            let slot = &mut self.slots[i];
            if slot.valid && slot.tag == line {
                slot.lru = clock;
                self.stats.hits += 1;
                return Some(RefRowPtr {
                    slot: i,
                    gen: slot.gen,
                });
            }
        }
        None
    }

    pub fn peek(&self, line: LineAddr) -> Option<&R> {
        self.set_range(line)
            .find(|&i| self.slots[i].valid && self.slots[i].tag == line)
            .map(|i| &self.slots[i].row)
    }

    pub fn find_or_alloc(&mut self, line: LineAddr) -> (RefRowPtr, AllocKind) {
        if let Some(ptr) = self.lookup(line) {
            return (ptr, AllocKind::Existing);
        }
        self.stats.insertions += 1;
        let victim = self
            .set_range(line)
            .min_by_key(|&i| (self.slots[i].valid, self.slots[i].lru))
            .expect("associativity is positive");
        let kind = if self.slots[victim].valid {
            AllocKind::Replaced
        } else {
            AllocKind::Fresh
        };
        if kind == AllocKind::Replaced {
            self.stats.replacements += 1;
        }
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let slot = &mut self.slots[victim];
        slot.tag = line;
        slot.valid = true;
        slot.gen += 1;
        slot.lru = clock;
        // The allocation path the arena removed: a heap clone per row.
        slot.row = self.template.clone();
        (
            RefRowPtr {
                slot: victim,
                gen: slot.gen,
            },
            kind,
        )
    }

    pub fn get(&self, ptr: RefRowPtr) -> Option<&R> {
        let slot = &self.slots[ptr.slot];
        (slot.valid && slot.gen == ptr.gen).then_some(&slot.row)
    }

    /// Tag of the row behind `ptr`, if still valid (same contract as the
    /// arena's `tag_of`; snapshots capture the learning context with it).
    pub fn tag_of(&self, ptr: RefRowPtr) -> Option<LineAddr> {
        let slot = &self.slots[ptr.slot];
        (slot.valid && slot.gen == ptr.gen).then_some(slot.tag)
    }

    pub fn get_mut(&mut self, ptr: RefRowPtr) -> Option<&mut R> {
        let slot = &mut self.slots[ptr.slot];
        (slot.valid && slot.gen == ptr.gen).then_some(&mut slot.row)
    }

    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.valid).count()
    }

    pub fn remap_page<F>(&mut self, old: PageAddr, new: PageAddr, mut rewrite: F) -> usize
    where
        F: FnMut(&mut R, PageAddr, PageAddr),
    {
        let mut moved = 0;
        for offset in 0..PageAddr::lines_per_page() {
            let old_line = LineAddr::new(old.first_line().raw() + offset);
            let Some(src) = self.lookup(old_line) else {
                continue;
            };
            let template = self.template.clone();
            let mut row = std::mem::replace(
                self.get_mut(src)
                    .expect("fresh pointer from lookup is valid"),
                template,
            );
            self.slots[src.slot].valid = false;
            self.slots[src.slot].gen += 1;
            rewrite(&mut row, old, new);
            let new_line = LineAddr::new(new.first_line().raw() + offset);
            let (dst, _) = self.find_or_alloc(new_line);
            *self
                .get_mut(dst)
                .expect("fresh pointer from alloc is valid") = row;
            moved += 1;
        }
        moved
    }

    pub fn live_rows_lru(&self) -> Vec<(LineAddr, &R)> {
        // The double-buffering the arena's resize fix removed: every live
        // row is collected (here by reference, in resize by clone), sorted
        // as whole tuples, then copied again into the destination.
        let mut live: Vec<(u64, LineAddr, &R)> = self
            .slots
            .iter()
            .filter(|s| s.valid)
            .map(|s| (s.lru, s.tag, &s.row))
            .collect();
        live.sort_by_key(|(lru, _, _)| *lru);
        live.into_iter().map(|(_, tag, row)| (tag, row)).collect()
    }

    pub fn resize(&mut self, new_params: &TableParams) {
        if let Err(e) = new_params.validate() {
            panic!("{e}");
        }
        let mut live: Vec<(u64, LineAddr, R)> = self
            .slots
            .iter()
            .filter(|s| s.valid)
            .map(|s| (s.lru, s.tag, s.row.clone()))
            .collect();
        live.sort_by_key(|(lru, _, _)| *lru);
        let row_bytes = self.row_bytes;
        *self = RefRowTable::new(new_params, row_bytes, self.template.clone());
        for (_, tag, row) in live {
            let (ptr, _) = self.find_or_alloc(tag);
            *self
                .get_mut(ptr)
                .expect("fresh pointer from alloc is valid") = row;
        }
    }
}

/// The historical Base algorithm on the historical layout.
#[derive(Debug, Clone)]
pub struct RefBase {
    params: TableParams,
    table: RefRowTable<RefSuccList>,
    last: Option<RefRowPtr>,
}

impl RefBase {
    pub fn new(params: TableParams) -> Self {
        if let Err(e) = params.validate() {
            panic!("{e}");
        }
        assert_eq!(params.num_levels, 1);
        let row_bytes = params.flat_row_bytes();
        RefBase {
            table: RefRowTable::new(&params, row_bytes, RefSuccList::new(params.num_succ)),
            params,
            last: None,
        }
    }

    pub fn resize(&mut self, num_rows: usize) {
        let new_params = TableParams {
            num_rows,
            ..self.params
        };
        self.table.resize(&new_params);
        self.params = new_params;
        self.last = None;
    }

    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            kind: TableKind::Base,
            params: self.params,
            rows: self
                .table
                .live_rows_lru()
                .into_iter()
                .map(|(tag, row)| RowSnapshot {
                    tag: tag.raw(),
                    levels: vec![row.iter().map(|s| s.raw()).collect()],
                })
                .collect(),
            learn_ctx: self
                .last
                .iter()
                .map(|&ptr| self.table.tag_of(ptr).map(LineAddr::raw))
                .collect(),
        }
    }

    /// One step, recorded into a fresh [`StepResult`].
    fn record(&mut self, miss: LineAddr) -> StepResult {
        let mut step = StepResult::new();
        step.prefetch_cost.add_insns(insn_cost::STEP_OVERHEAD);
        for addr in self.table.probe_addrs(miss) {
            step.prefetch_cost.read(addr, 4);
            step.prefetch_cost.add_insns(insn_cost::PROBE_PER_WAY);
        }
        let found = self.table.lookup(miss);
        if let Some(ptr) = found {
            step.prefetch_cost
                .read(self.table.row_addr(ptr), self.table.row_bytes());
            let row = self
                .table
                .get(ptr)
                .expect("fresh pointer from lookup is valid");
            for succ in row.iter() {
                step.prefetches.push(succ);
                step.prefetch_cost.add_insns(insn_cost::PER_PREFETCH);
            }
        }
        step.learn_cost.add_insns(insn_cost::LEARN_OVERHEAD);
        if let Some(last) = self.last {
            if let Some(row) = self.table.get_mut(last) {
                row.insert_mru(miss);
                let addr = self.table.row_addr(last);
                step.learn_cost.write(addr, self.table.row_bytes());
                step.learn_cost.add_insns(insn_cost::PER_INSERT);
            }
        }
        let ptr = match found {
            Some(ptr) => ptr,
            None => {
                let (ptr, _) = self.table.find_or_alloc(miss);
                step.learn_cost.write(self.table.row_addr(ptr), 4);
                step.learn_cost.add_insns(insn_cost::PER_ALLOC);
                ptr
            }
        };
        self.last = Some(ptr);
        step
    }
}

impl UlmtAlgorithm for RefBase {
    fn name(&self) -> String {
        "ref-base".to_string()
    }

    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink) {
        replay(self.record(miss), miss, sink);
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = vec![Vec::new(); levels];
        if levels == 0 {
            return out;
        }
        if let Some(row) = self.table.peek(miss) {
            out[0] = row.iter().collect();
        }
        out
    }

    fn remap_page(&mut self, old: PageAddr, new: PageAddr) {
        self.table
            .remap_page(old, new, |row, o, n| row.remap_page(o, n));
    }

    fn table_size_bytes(&self) -> u64 {
        self.table.size_bytes()
    }
}

/// The historical Chain algorithm on the historical layout.
#[derive(Debug, Clone)]
pub struct RefChain {
    params: TableParams,
    table: RefRowTable<RefSuccList>,
    last: Option<RefRowPtr>,
}

impl RefChain {
    pub fn new(params: TableParams) -> Self {
        if let Err(e) = params.validate() {
            panic!("{e}");
        }
        let row_bytes = params.flat_row_bytes();
        RefChain {
            table: RefRowTable::new(&params, row_bytes, RefSuccList::new(params.num_succ)),
            params,
            last: None,
        }
    }

    pub fn resize(&mut self, num_rows: usize) {
        let new_params = TableParams {
            num_rows,
            ..self.params
        };
        self.table.resize(&new_params);
        self.params = new_params;
        self.last = None;
    }

    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            kind: TableKind::Chain,
            params: self.params,
            rows: self
                .table
                .live_rows_lru()
                .into_iter()
                .map(|(tag, row)| RowSnapshot {
                    tag: tag.raw(),
                    levels: vec![row.iter().map(|s| s.raw()).collect()],
                })
                .collect(),
            learn_ctx: self
                .last
                .iter()
                .map(|&ptr| self.table.tag_of(ptr).map(LineAddr::raw))
                .collect(),
        }
    }

    /// One step, recorded into a fresh [`StepResult`].
    fn record(&mut self, miss: LineAddr) -> StepResult {
        let mut step = StepResult::new();
        step.prefetch_cost.add_insns(insn_cost::STEP_OVERHEAD);
        let mut cur = miss;
        let mut found_first: Option<RefRowPtr> = None;
        for level in 0..self.params.num_levels {
            for addr in self.table.probe_addrs(cur) {
                step.prefetch_cost.read(addr, 4);
                step.prefetch_cost.add_insns(insn_cost::PROBE_PER_WAY);
            }
            let Some(ptr) = self.table.lookup(cur) else {
                break;
            };
            if level == 0 {
                found_first = Some(ptr);
            }
            step.prefetch_cost
                .read(self.table.row_addr(ptr), self.table.row_bytes());
            let row = self
                .table
                .get(ptr)
                .expect("fresh pointer from lookup is valid");
            let mru = row.mru();
            for succ in row.iter() {
                if !step.prefetches.contains(&succ) {
                    step.prefetches.push(succ);
                }
                step.prefetch_cost.add_insns(insn_cost::PER_PREFETCH);
            }
            match mru {
                Some(next) => cur = next,
                None => break,
            }
        }
        step.learn_cost.add_insns(insn_cost::LEARN_OVERHEAD);
        if let Some(last) = self.last {
            if let Some(row) = self.table.get_mut(last) {
                row.insert_mru(miss);
                let addr = self.table.row_addr(last);
                step.learn_cost.write(addr, self.table.row_bytes());
                step.learn_cost.add_insns(insn_cost::PER_INSERT);
            }
        }
        let ptr = match found_first {
            Some(ptr) => ptr,
            None => {
                let (ptr, _) = self.table.find_or_alloc(miss);
                step.learn_cost.write(self.table.row_addr(ptr), 4);
                step.learn_cost.add_insns(insn_cost::PER_ALLOC);
                ptr
            }
        };
        self.last = Some(ptr);
        step
    }
}

impl UlmtAlgorithm for RefChain {
    fn name(&self) -> String {
        "ref-chain".to_string()
    }

    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink) {
        replay(self.record(miss), miss, sink);
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = vec![Vec::new(); levels];
        let mut cur = miss;
        for level in out.iter_mut() {
            let Some(row) = self.table.peek(cur) else {
                break;
            };
            *level = row.iter().collect();
            match row.mru() {
                Some(next) => cur = next,
                None => break,
            }
        }
        out
    }

    fn remap_page(&mut self, old: PageAddr, new: PageAddr) {
        self.table
            .remap_page(old, new, |row, o, n| row.remap_page(o, n));
    }

    fn table_size_bytes(&self) -> u64 {
        self.table.size_bytes()
    }
}

/// One historical Replicated row: `NumLevels` heap-allocated MRU lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefReplRow {
    levels: Vec<RefSuccList>,
}

impl RefReplRow {
    fn new(num_levels: usize, num_succ: usize) -> Self {
        RefReplRow {
            levels: (0..num_levels)
                .map(|_| RefSuccList::new(num_succ))
                .collect(),
        }
    }
}

/// The historical Replicated algorithm on the historical layout.
#[derive(Debug, Clone)]
pub struct RefReplicated {
    params: TableParams,
    table: RefRowTable<RefReplRow>,
    pointers: VecDeque<RefRowPtr>,
}

impl RefReplicated {
    pub fn new(params: TableParams) -> Self {
        if let Err(e) = params.validate() {
            panic!("{e}");
        }
        let row_bytes = params.repl_row_bytes();
        RefReplicated {
            table: RefRowTable::new(
                &params,
                row_bytes,
                RefReplRow::new(params.num_levels, params.num_succ),
            ),
            pointers: VecDeque::with_capacity(params.num_levels),
            params,
        }
    }

    pub fn table_stats(&self) -> &TableStats {
        self.table.stats()
    }

    pub fn occupancy(&self) -> usize {
        self.table.occupancy()
    }

    pub fn resize(&mut self, num_rows: usize) {
        let new_params = TableParams {
            num_rows,
            ..self.params
        };
        self.table.resize(&new_params);
        self.params = new_params;
        self.pointers.clear();
    }

    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            kind: TableKind::Repl,
            params: self.params,
            rows: self
                .table
                .live_rows_lru()
                .into_iter()
                .map(|(tag, row)| RowSnapshot {
                    tag: tag.raw(),
                    levels: row
                        .levels
                        .iter()
                        .map(|level| level.iter().map(|s| s.raw()).collect())
                        .collect(),
                })
                .collect(),
            learn_ctx: self
                .pointers
                .iter()
                .map(|&ptr| self.table.tag_of(ptr).map(LineAddr::raw))
                .collect(),
        }
    }

    /// One step, recorded into a fresh [`StepResult`].
    fn record(&mut self, miss: LineAddr) -> StepResult {
        let mut step = StepResult::new();
        step.prefetch_cost.add_insns(insn_cost::STEP_OVERHEAD);
        for addr in self.table.probe_addrs(miss) {
            step.prefetch_cost.read(addr, 4);
            step.prefetch_cost.add_insns(insn_cost::PROBE_PER_WAY);
        }
        let found = self.table.lookup(miss);
        if let Some(ptr) = found {
            step.prefetch_cost
                .read(self.table.row_addr(ptr), self.table.row_bytes());
            let row = self
                .table
                .get(ptr)
                .expect("fresh pointer from lookup is valid");
            for level in &row.levels {
                for succ in level.iter() {
                    if !step.prefetches.contains(&succ) {
                        step.prefetches.push(succ);
                    }
                    step.prefetch_cost.add_insns(insn_cost::PER_PREFETCH);
                }
            }
        }
        step.learn_cost.add_insns(insn_cost::LEARN_OVERHEAD);
        for (i, &ptr) in self.pointers.iter().enumerate() {
            let addr = self.table.row_addr(ptr);
            if let Some(row) = self.table.get_mut(ptr) {
                row.levels[i].insert_mru(miss);
                let level_bytes = 4 * self.params.num_succ as u64;
                step.learn_cost.write(
                    addr.offset((4 + i as u64 * level_bytes) as i64),
                    level_bytes,
                );
                step.learn_cost.add_insns(insn_cost::PER_INSERT);
            }
        }
        let ptr = match found {
            Some(ptr) => ptr,
            None => {
                let (ptr, _) = self.table.find_or_alloc(miss);
                step.learn_cost.write(self.table.row_addr(ptr), 4);
                step.learn_cost.add_insns(insn_cost::PER_ALLOC);
                ptr
            }
        };
        self.pointers.push_front(ptr);
        self.pointers.truncate(self.params.num_levels);
        step
    }
}

impl UlmtAlgorithm for RefReplicated {
    fn name(&self) -> String {
        "ref-repl".to_string()
    }

    fn step(&mut self, miss: LineAddr, sink: &mut dyn StepSink) {
        replay(self.record(miss), miss, sink);
    }

    fn predict(&self, miss: LineAddr, levels: usize) -> Vec<Vec<LineAddr>> {
        let mut out = vec![Vec::new(); levels];
        if let Some(row) = self.table.peek(miss) {
            for (level, list) in row.levels.iter().take(levels).enumerate() {
                out[level] = list.iter().collect();
            }
        }
        out
    }

    fn remap_page(&mut self, old: PageAddr, new: PageAddr) {
        self.table.remap_page(old, new, |row, o, n| {
            for level in &mut row.levels {
                level.remap_page(o, n);
            }
        });
    }

    fn table_size_bytes(&self) -> u64 {
        self.table.size_bytes()
    }
}
