//! Property test: the cache against a brute-force reference model.
//!
//! The reference model is an obviously-correct per-set LRU list with the
//! same accept/steal/drop semantics. Any divergence in hit/miss outcomes
//! or final contents is a bug in the optimized implementation.

use ulmt_cache::{AccessOutcome, Cache, CacheConfig, MshrFile, PushOutcome};
use ulmt_simcore::rng::Pcg32;
use ulmt_simcore::LineAddr;

/// Brute-force model: per set, a MRU-ordered list of (line, pending).
#[derive(Debug, Clone)]
struct RefModel {
    sets: Vec<Vec<(u64, bool)>>, // (line, pending)
    assoc: usize,
    mshrs_free: usize,
}

impl RefModel {
    fn new(cfg: &CacheConfig) -> Self {
        RefModel {
            sets: vec![Vec::new(); cfg.num_sets()],
            assoc: cfg.assoc,
            mshrs_free: cfg.mshrs,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets.len() - 1)
    }

    /// Mirrors `Cache::access` for a demand read. Returns "hit", "merge",
    /// "miss" or "blocked".
    fn access(&mut self, line: u64) -> &'static str {
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&(l, p)| l == line && !p) {
            let way = ways.remove(pos);
            ways.insert(0, way); // MRU
            return "hit";
        }
        if ways.iter().any(|&(l, p)| l == line && p) {
            return "merge";
        }
        if self.mshrs_free == 0 {
            return "blocked";
        }
        // Victim: LRU among non-pending.
        let victim = ways.iter().rposition(|&(_, p)| !p);
        if ways.len() >= self.assoc {
            match victim {
                Some(pos) => {
                    ways.remove(pos);
                }
                None => return "blocked", // set fully pending
            }
        }
        ways.insert(0, (line, true));
        self.mshrs_free -= 1;
        "miss"
    }

    fn fill(&mut self, line: u64) {
        let set = self.set_of(line);
        if let Some(pos) = self.sets[set].iter().position(|&(l, p)| l == line && p) {
            self.sets[set][pos].1 = false;
            let way = self.sets[set].remove(pos);
            self.sets[set].insert(0, way);
            self.mshrs_free += 1;
        }
    }

    /// Mirrors `Cache::push`.
    fn push(&mut self, line: u64) -> &'static str {
        let set = self.set_of(line);
        if self.sets[set].iter().any(|&(l, p)| l == line && p) {
            self.fill(line);
            return "stole";
        }
        if self.sets[set].iter().any(|&(l, p)| l == line && !p) {
            return "present";
        }
        if self.mshrs_free == 0 {
            return "no_mshr";
        }
        let ways = &mut self.sets[set];
        if ways.len() >= self.assoc {
            match ways.iter().rposition(|&(_, p)| !p) {
                Some(pos) => {
                    ways.remove(pos);
                }
                None => return "set_pending",
            }
        }
        self.sets[set].insert(0, (line, false));
        "accepted"
    }

    fn contains(&self, line: u64) -> bool {
        let set = self.set_of(line);
        self.sets[set].iter().any(|&(l, p)| l == line && !p)
    }
}

fn outcome_name(o: &AccessOutcome) -> &'static str {
    match o {
        AccessOutcome::Hit { .. } => "hit",
        AccessOutcome::MissMerged { .. } => "merge",
        AccessOutcome::Miss { .. } => "miss",
        AccessOutcome::Blocked => "blocked",
    }
}

fn push_name(o: &PushOutcome) -> &'static str {
    match o {
        PushOutcome::StoleMshr { .. } => "stole",
        PushOutcome::Accepted { .. } => "accepted",
        PushOutcome::DroppedPresent => "present",
        PushOutcome::DroppedWriteback => "writeback",
        PushOutcome::DroppedNoMshr => "no_mshr",
        PushOutcome::DroppedSetPending => "set_pending",
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    Fill(u64),
    Push(u64),
}

fn random_ops(rng: &mut Pcg32) -> Vec<Op> {
    let len = rng.gen_range_usize(1..500);
    (0..len)
        .map(|_| {
            let line = rng.gen_range_u64(0..96);
            match rng.gen_range_u32(0..3) {
                0 => Op::Access(line),
                1 => Op::Fill(line),
                _ => Op::Push(line),
            }
        })
        .collect()
}

#[test]
fn cache_matches_reference_model() {
    let mut rng = Pcg32::seed_from_u64(0xcac4e);
    for _ in 0..128 {
        let ops = random_ops(&mut rng);
        let cfg = CacheConfig {
            size_bytes: 2048, // 16 sets x 2 ways
            assoc: 2,
            line_size: 64,
            mshrs: 4,
            wb_capacity: 8,
        };
        let mut cache = Cache::new(cfg);
        let mut model = RefModel::new(&cfg);
        for op in ops {
            match op {
                Op::Access(l) => {
                    let got = outcome_name(&cache.access(LineAddr::new(l), false));
                    let want = model.access(l);
                    assert_eq!(got, want, "access {}", l);
                }
                Op::Fill(l) => {
                    cache.fill(LineAddr::new(l), false);
                    model.fill(l);
                }
                Op::Push(l) => {
                    let got = push_name(&cache.push(LineAddr::new(l)));
                    let want = model.push(l);
                    assert_eq!(got, want, "push {}", l);
                }
            }
        }
        // Final contents agree.
        for l in 0..96 {
            assert_eq!(
                cache.contains(LineAddr::new(l)),
                model.contains(l),
                "final contents differ at line {}",
                l
            );
        }
    }
}

/// `access_install` leaves a cache exactly as `access` followed at once
/// by `fill` does: same hit/miss sequence, dirty victims, counters and
/// prefetched lines, on seeded read/write streams with pushes mixed in
/// (so first touches and untouched evictions of pushed lines occur).
#[test]
fn access_install_matches_access_then_fill() {
    let mut rng = Pcg32::seed_from_u64(0x1a57a11);
    for assoc in [1usize, 2, 4] {
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
