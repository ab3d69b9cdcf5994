//! Property test: the cache against a brute-force reference model.
//!
//! The reference model is an obviously-correct per-set LRU list with the
//! same accept/steal/drop semantics, dirty bits, prefetched bits and
//! write-back queue. Any divergence in outcomes, counters, write-backs or
//! contents is a bug in the optimized implementation.

use std::collections::VecDeque;

use ulmt_cache::{
    AccessOutcome, Cache, CacheConfig, CacheStats, MshrFile, PrefetchOrigin, PushOutcome,
};
use ulmt_simcore::rng::Pcg32;
use ulmt_simcore::LineAddr;

/// One resident or reserved line of the reference model.
#[derive(Debug, Clone, Copy)]
struct RefLine {
    line: u64,
    pending: bool,
    dirty: bool,
    prefetched: Option<PrefetchOrigin>,
}

/// One in-flight fill of the reference model.
#[derive(Debug, Clone, Copy)]
struct RefMshr {
    line: u64,
    demand_waiting: bool,
    prefetch_initiated: bool,
}

/// An access outcome without its register number, which the model does
/// not assign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Hit(Option<PrefetchOrigin>),
    Merged {
        prefetch_initiated: bool,
    },
    Miss {
        evicted_dirty: Option<LineAddr>,
        evicted_prefetch: Option<(LineAddr, PrefetchOrigin)>,
    },
    Blocked,
}

fn seen(outcome: AccessOutcome) -> Seen {
    match outcome {
        AccessOutcome::Hit {
            first_touch_of_prefetch,
        } => Seen::Hit(first_touch_of_prefetch),
        AccessOutcome::MissMerged {
            prefetch_initiated, ..
        } => Seen::Merged { prefetch_initiated },
        AccessOutcome::Miss {
            evicted_dirty,
            evicted_prefetch,
            ..
        } => Seen::Miss {
            evicted_dirty,
            evicted_prefetch,
        },
        AccessOutcome::Blocked => Seen::Blocked,
    }
}

/// Brute-force model: per set, an MRU-ordered list of lines, the
/// in-flight fills in a plain list and the write-back queue as a deque.
#[derive(Debug, Clone)]
struct RefModel {
    sets: Vec<Vec<RefLine>>,
    assoc: usize,
    mshrs: Vec<RefMshr>,
    mshr_capacity: usize,
    wb: VecDeque<u64>,
    wb_capacity: usize,
    stats: CacheStats,
}

impl RefModel {
    fn new(cfg: &CacheConfig) -> Self {
        RefModel {
            sets: vec![Vec::new(); cfg.num_sets()],
            assoc: cfg.assoc,
            mshrs: Vec::new(),
            mshr_capacity: cfg.mshrs,
            wb: VecDeque::new(),
            wb_capacity: cfg.wb_capacity,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets.len() - 1)
    }

    fn position(&self, line: u64, pending: bool) -> Option<usize> {
        self.sets[self.set_of(line)]
            .iter()
            .position(|w| w.line == line && w.pending == pending)
    }

    /// Moves the way at `pos` of `line`'s set to the MRU end and returns it.
    fn touch(&mut self, line: u64, pos: usize) -> &mut RefLine {
        let set = self.set_of(line);
        let way = self.sets[set].remove(pos);
        self.sets[set].insert(0, way);
        &mut self.sets[set][0]
    }

    /// A hit on the valid `line`: MRU, dirty on a write, and for a demand
    /// access the first touch of a prefetched line.
    fn hit(&mut self, line: u64, is_write: bool, demand: bool) -> Option<PrefetchOrigin> {
        let pos = self.position(line, false).expect("a hit is valid");
        let way = self.touch(line, pos);
        way.dirty |= is_write;
        if !demand {
            return None;
        }
        let first_touch = way.prefetched.take();
        self.stats.demand_hits += 1;
        match first_touch {
            Some(PrefetchOrigin::Push) => self.stats.prefetch_first_touches += 1,
            Some(PrefetchOrigin::CpuSide) => self.stats.cpu_prefetch_first_touches += 1,
            None => {}
        }
        first_touch
    }

    /// Makes room in `line`'s set. Returns `None` if the set is full of
    /// pending lines, else the evicted LRU line's dirty and prefetched
    /// reports.
    #[allow(clippy::type_complexity)]
    fn make_room(
        &mut self,
        line: u64,
    ) -> Option<(Option<LineAddr>, Option<(LineAddr, PrefetchOrigin)>)> {
        let set = self.set_of(line);
        if self.sets[set].len() < self.assoc {
            return Some((None, None));
        }
        let pos = self.sets[set].iter().rposition(|w| !w.pending)?;
        let victim = self.sets[set].remove(pos);
        let addr = LineAddr::new(victim.line);
        match victim.prefetched {
            Some(PrefetchOrigin::Push) => self.stats.prefetch_replaced_untouched += 1,
            Some(PrefetchOrigin::CpuSide) => self.stats.cpu_prefetch_replaced_untouched += 1,
            None => {}
        }
        if victim.dirty {
            self.stats.writebacks += 1;
            if self.wb.len() < self.wb_capacity {
                self.wb.push_back(victim.line);
            }
        }
        Some((
            victim.dirty.then_some(addr),
            victim.prefetched.map(|origin| (addr, origin)),
        ))
    }

    fn insert(&mut self, way: RefLine) {
        let set = self.set_of(way.line);
        self.sets[set].insert(0, way);
    }

    /// Mirrors `Cache::access` (`demand`) and `Cache::access_prefetch`.
    fn access(&mut self, line: u64, is_write: bool, demand: bool) -> Seen {
        if demand {
            self.stats.demand_accesses += 1;
        }
        if self.position(line, false).is_some() {
            return Seen::Hit(self.hit(line, is_write, demand));
        }
        if let Some(m) = self.mshrs.iter_mut().find(|m| m.line == line) {
            let prefetch_initiated = m.prefetch_initiated;
            if demand {
                m.demand_waiting = true;
                self.stats.demand_merged += 1;
            }
            if is_write {
                let pos = self.position(line, true).expect("an MSHR reserves a way");
                let set = self.set_of(line);
                self.sets[set][pos].dirty = true;
            }
            return Seen::Merged { prefetch_initiated };
        }
        if self.mshrs.len() == self.mshr_capacity {
            self.stats.blocked += 1;
            return Seen::Blocked;
        }
        let Some((evicted_dirty, evicted_prefetch)) = self.make_room(line) else {
            self.stats.blocked += 1;
            return Seen::Blocked;
        };
        self.mshrs.push(RefMshr {
            line,
            demand_waiting: demand,
            prefetch_initiated: !demand,
        });
        self.insert(RefLine {
            line,
            pending: true,
            dirty: is_write,
            prefetched: None,
        });
        if demand {
            self.stats.demand_misses += 1;
        }
        Seen::Miss {
            evicted_dirty,
            evicted_prefetch,
        }
    }

    /// Mirrors `Cache::access_install`.
    fn access_install(&mut self, line: u64, is_write: bool) -> bool {
        assert!(self.mshrs.is_empty());
        self.stats.demand_accesses += 1;
        if self.position(line, false).is_some() {
            self.hit(line, is_write, true);
            return true;
        }
        self.make_room(line).expect("nothing is pending");
        self.insert(RefLine {
            line,
            pending: false,
            dirty: is_write,
            prefetched: None,
        });
        self.stats.demand_misses += 1;
        false
    }

    /// Turns the pending `line` valid and MRU with the given prefetched
    /// bit, releasing its MSHR; returns the MSHR.
    fn complete(
        &mut self,
        line: u64,
        prefetched: impl Fn(&RefMshr) -> Option<PrefetchOrigin>,
    ) -> Option<RefMshr> {
        let i = self.mshrs.iter().position(|m| m.line == line)?;
        let m = self.mshrs.remove(i);
        let pos = self.position(line, true).expect("an MSHR reserves a way");
        let way = self.touch(line, pos);
        way.pending = false;
        way.prefetched = prefetched(&m);
        Some(m)
    }

    /// Mirrors `Cache::fill`.
    fn fill(&mut self, line: u64, install_as_prefetched: bool) -> bool {
        self.complete(line, |m| {
            if install_as_prefetched {
                Some(PrefetchOrigin::Push)
            } else if m.prefetch_initiated && !m.demand_waiting {
                Some(PrefetchOrigin::CpuSide)
            } else {
                None
            }
        })
        .is_some_and(|m| m.demand_waiting)
    }

    /// Mirrors `Cache::push`.
    fn push(&mut self, line: u64) -> PushOutcome {
        let steal = |m: &RefMshr| {
            (!m.demand_waiting && m.prefetch_initiated).then_some(PrefetchOrigin::Push)
        };
        if let Some(m) = self.complete(line, steal) {
            self.stats.pushes_stole_mshr += 1;
            return PushOutcome::StoleMshr {
                demand_was_waiting: m.demand_waiting,
                installed_as_prefetch: steal(&m).is_some(),
            };
        }
        if self.position(line, false).is_some() {
            self.stats.pushes_dropped_present += 1;
            return PushOutcome::DroppedPresent;
        }
        if self.wb.contains(&line) {
            self.stats.pushes_dropped_writeback += 1;
            return PushOutcome::DroppedWriteback;
        }
        if self.mshrs.len() == self.mshr_capacity {
            self.stats.pushes_dropped_no_mshr += 1;
            return PushOutcome::DroppedNoMshr;
        }
        let Some((evicted_dirty, evicted_prefetch)) = self.make_room(line) else {
            self.stats.pushes_dropped_set_pending += 1;
            return PushOutcome::DroppedSetPending;
        };
        self.insert(RefLine {
            line,
            pending: false,
            dirty: false,
            prefetched: Some(PrefetchOrigin::Push),
        });
        self.stats.pushes_accepted += 1;
        PushOutcome::Accepted {
            evicted_dirty,
            evicted_prefetch,
        }
    }

    fn contains(&self, line: u64) -> bool {
        self.position(line, false).is_some()
    }

    fn prefetched_lines_of(&self, origin: PrefetchOrigin) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|w| !w.pending && w.prefetched == Some(origin))
            .count()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64),
    Write(u64),
    Prefetch(u64),
    /// Completes the fill of the given in-flight line, or of the oldest
    /// one, or of nothing, as a push with a different tag.
    Fill(u64),
    Push(u64),
    /// `access_install` once nothing is in flight, else a fill of the
    /// oldest in-flight line.
    Install(u64, bool),
    /// Drains one line of the write-back queue.
    Drain,
}

/// A seeded op over `lines` line numbers. A `burst` stream issues no
/// `access_install` and sends half its lines to set 0, so misses pile up
/// there faster than fills complete them and the set goes wholly pending.
fn random_op(rng: &mut Pcg32, lines: u64, num_sets: u64, burst: bool) -> Op {
    let mut line = rng.gen_range_u64(0..lines);
    if burst && rng.gen_range_u32(0..2) == 0 {
        line -= line % num_sets;
    }
    match rng.gen_range_u32(0..16) {
        0..=2 => Op::Read(line),
        3..=4 => Op::Write(line),
        5 => Op::Prefetch(line),
        6..=7 => Op::Fill(line),
        8..=9 => Op::Push(line),
        10..=13 if burst => Op::Read(line),
        10..=13 => Op::Install(line, rng.gen_range_u32(0..3) == 0),
        _ => Op::Drain,
    }
}

/// Every observable of the cache equals the model's after each step:
/// outcomes, every `CacheStats` counter, the write-back queue's contents
/// in order, contents, and the prefetched lines of each origin. The
/// streams mix reads, writes, processor-side prefetches, fills (plain
/// and as pushed lines), pushes, `access_install` and write-back drains
/// over a line space three times the cache, at associativity 1 to 8.
#[test]
fn cache_matches_reference_model() {
    let mut rng = Pcg32::seed_from_u64(0xcac4e);
    for assoc in [1usize, 2, 4, 8] {
        let cfg = CacheConfig {
            size_bytes: 4 * assoc as u64 * 64, // 4 sets
            assoc,
            line_size: 64,
            // One more than a set's ways, so a set can be wholly pending
            // while an MSHR is free.
            mshrs: assoc + 1,
            wb_capacity: 4,
        };
        let lines = 3 * cfg.num_lines() as u64;
        // Counters that only some streams reach, summed over the runs.
        let mut covered = [0u64; 10];
        for run in 0..48 {
            let mut cache = Cache::new(cfg);
            let mut model = RefModel::new(&cfg);
            for step in 0..rng.gen_range_usize(1..1500) {
                let op = random_op(&mut rng, lines, cfg.num_sets() as u64, run % 4 == 3);
                let at = format!("assoc {assoc}, run {run}, step {step}, {op:?}");
                match op {
                    Op::Read(l) | Op::Write(l) => {
                        let write = matches!(op, Op::Write(_));
                        let got = seen(cache.access(LineAddr::new(l), write));
                        assert_eq!(got, model.access(l, write, true), "{at}");
                    }
                    Op::Prefetch(l) => {
                        let got = seen(cache.access_prefetch(LineAddr::new(l)));
                        assert_eq!(got, model.access(l, false, false), "{at}");
                    }
                    Op::Fill(l) => {
                        let l = match rng.gen_range_u32(0..4) {
                            0 => l,
                            _ => model.mshrs.first().map_or(l, |m| m.line),
                        };
                        let as_pushed = rng.gen_range_u32(0..4) == 0;
                        let got = cache.fill(LineAddr::new(l), as_pushed);
                        assert_eq!(got, model.fill(l, as_pushed), "{at}");
                    }
                    Op::Push(l) => {
                        assert_eq!(cache.push(LineAddr::new(l)), model.push(l), "{at}");
                    }
                    Op::Install(l, write) => match model.mshrs.first() {
                        Some(m) => {
                            let l = m.line;
                            let got = cache.fill(LineAddr::new(l), false);
                            assert_eq!(got, model.fill(l, false), "{at}");
                        }
                        None => {
                            let got = cache.access_install(LineAddr::new(l), write);
                            assert_eq!(got, model.access_install(l, write), "{at}");
                        }
                    },
                    Op::Drain => {
                        let got = cache.writeback_queue_mut().pop();
                        assert_eq!(got.map(LineAddr::raw), model.wb.pop_front(), "{at}");
                    }
                }
                assert_eq!(
                    format!("{:?}", cache.stats()),
                    format!("{:?}", model.stats),
                    "{at}"
                );
                assert_eq!(cache.writeback_queue().len(), model.wb.len(), "{at}");
                for &l in &model.wb {
                    assert!(cache.writeback_queue().contains(LineAddr::new(l)), "{at}");
                }
                assert_eq!(cache.mshrs().in_use(), model.mshrs.len(), "{at}");
                for origin in [PrefetchOrigin::Push, PrefetchOrigin::CpuSide] {
                    assert_eq!(
                        cache.prefetched_lines_of(origin),
                        model.prefetched_lines_of(origin),
                        "{at}, {origin:?}"
                    );
                }
            }
            for l in 0..lines {
                assert_eq!(
                    cache.contains(LineAddr::new(l)),
                    model.contains(l),
                    "assoc {assoc}, run {run}: final contents differ at line {l}"
                );
            }
            let s = model.stats;
            for (total, n) in covered.iter_mut().zip([
                s.writebacks,
                s.demand_merged,
                s.blocked,
                s.prefetch_first_touches,
                s.cpu_prefetch_first_touches,
                s.prefetch_replaced_untouched,
                s.cpu_prefetch_replaced_untouched,
                s.pushes_stole_mshr,
                s.pushes_dropped_writeback,
                s.pushes_dropped_set_pending,
            ]) {
                *total += n;
            }
            // The write-back queue drains in the model's order.
            while let Some(l) = model.wb.pop_front() {
                assert_eq!(cache.writeback_queue_mut().pop(), Some(LineAddr::new(l)));
            }
            assert!(cache.writeback_queue().is_empty());
        }
        assert!(covered.iter().all(|&n| n > 0), "assoc {assoc}: {covered:?}");
    }
}

/// `access_install` leaves a cache exactly as `access` followed at once
/// by `fill` does: same hit/miss sequence, dirty victims, counters and
/// prefetched lines, on seeded read/write streams with pushes mixed in
/// (so first touches and untouched evictions of pushed lines occur).
#[test]
fn access_install_matches_access_then_fill() {
    let mut rng = Pcg32::seed_from_u64(0x1a57a11);
    for assoc in [1usize, 2, 4, 8] {
        let cfg = CacheConfig {
            size_bytes: 512,
            assoc,
            line_size: 32,
            mshrs: 1,
            wb_capacity: 4,
        };
        let mut fast = Cache::new(cfg);
        let mut reference = Cache::new(cfg);
        for step in 0..20_000 {
            let line = LineAddr::new(rng.gen_range_u64(0..48));
            if rng.gen_range_u32(0..8) == 0 {
                assert_eq!(fast.push(line), reference.push(line), "step {step}");
            } else {
                let is_write = rng.gen_range_u32(0..4) == 0;
                let hit = fast.access_install(line, is_write);
                let expected = match reference.access(line, is_write) {
                    AccessOutcome::Hit { .. } => true,
                    AccessOutcome::Miss { .. } => {
                        assert!(reference.fill(line, false));
                        false
                    }
                    other => panic!("step {step}: {other:?} with no fill in flight"),
                };
                assert_eq!(hit, expected, "assoc {assoc}, step {step}, {line}");
            }
            let mut victims = Vec::new();
            while let Some(victim) = reference.writeback_queue_mut().pop() {
                victims.push(victim);
            }
            for &victim in &victims {
                assert_eq!(fast.writeback_queue_mut().pop(), Some(victim));
            }
            assert!(fast.writeback_queue().is_empty(), "step {step}");
            assert_eq!(fast.prefetched_lines(), reference.prefetched_lines());
        }
        assert_eq!(
            format!("{:?}", fast.stats()),
            format!("{:?}", reference.stats())
        );
        assert!(fast.stats().demand_misses > 0 && fast.stats().prefetch_first_touches > 0);
        for l in 0..48 {
            let l = LineAddr::new(l);
            assert_eq!(fast.contains(l), reference.contains(l), "{l}");
        }
    }
}

/// `MshrFile`'s `find`, `has_free` and `in_use` agree with a naive
/// register array after seeded allocate/release sequences.
#[test]
fn mshr_file_matches_naive_registers() {
    let mut rng = Pcg32::seed_from_u64(0x3541);
    for capacity in [1usize, 2, 4, 16] {
        let mut file = MshrFile::new(capacity);
        // (line, demand_waiting, prefetch_initiated) per register.
        let mut naive: Vec<Option<(u64, bool, bool)>> = vec![None; capacity];
        for step in 0..10_000 {
            let line = rng.gen_range_u64(0..capacity as u64 * 2 + 2);
            let held = naive
                .iter()
                .position(|r| r.is_some_and(|(l, _, _)| l == line));
            match (held, rng.gen_range_u32(0..3)) {
                (Some(reg), 0) => {
                    file.release(file.find(LineAddr::new(line)).expect("held"));
                    naive[reg] = None;
                }
                (Some(reg), 1) => {
                    file.mark_demand(file.find(LineAddr::new(line)).expect("held"));
                    naive[reg].as_mut().expect("held").1 = true;
                }
                (None, _) => {
                    let (demand, prefetch) = (rng.gen_range_u32(0..2) == 0, step % 3 == 0);
                    let id = file.allocate(LineAddr::new(line), demand, prefetch);
                    match naive.iter().position(Option::is_none) {
                        Some(free) => {
                            assert!(id.is_some(), "step {step}: a register is free");
                            naive[free] = Some((line, demand, prefetch));
                        }
                        None => assert!(id.is_none(), "step {step}: the file is full"),
                    }
                }
                _ => {}
            }
            let in_use = naive.iter().filter(|r| r.is_some()).count();
            assert_eq!(file.in_use(), in_use, "step {step}");
            assert_eq!(file.has_free(), in_use < capacity, "step {step}");
            for l in 0..capacity as u64 * 2 + 2 {
                let want = naive.iter().flatten().find(|&&(nl, _, _)| nl == l);
                match (file.find(LineAddr::new(l)), want) {
                    (None, None) => {}
                    (Some(id), Some(&(nl, demand, prefetch))) => {
                        assert_eq!(file.line(id), LineAddr::new(nl));
                        assert_eq!(file.demand_waiting(id), demand);
                        assert_eq!(file.prefetch_initiated(id), prefetch);
                    }
                    (got, want) => panic!("step {step}, line {l}: {got:?} vs {want:?}"),
                }
            }
        }
    }
}
