//! The set-associative cache model.
//!
//! State transitions only — timing lives in the system simulator. A way is
//! invalid, valid, or pending (reserved by an MSHR for an in-flight fill,
//! the paper's "transaction-pending state").
//!
//! The ways are stored as three flat arrays: tags, stamps and flags. The
//! stamp word carries the state as well as the LRU order: 0 is invalid,
//! `u64::MAX` is pending, and any other value is the `lru_clock` reading
//! of the way's last touch. A lookup is then one scan of a set's tags,
//! each checked against its stamp, and the replacement victim is the first
//! minimum stamp, or none if that minimum is `u64::MAX`. The flags byte
//! holds the dirty bit and the prefetched bit with its origin, so a hit on
//! or an eviction of an unflagged line does no accounting.

use ulmt_simcore::LineAddr;

use crate::config::CacheConfig;
use crate::mshr::{MshrFile, MshrId};
use crate::writeback::WriteBackQueue;

/// Who installed a prefetched line (Figure 9 only counts memory-side
/// pushes; processor-side prefetch fills are tracked separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOrigin {
    /// A memory-side prefetched line pushed by the ULMT.
    Push,
    /// A fill initiated by the processor-side prefetcher.
    CpuSide,
}

/// Result of a demand or processor-prefetch access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit {
        /// `Some(origin)` if this was the first demand touch of a line
        /// installed by a prefetch — a fully-eliminated miss (`Hits` in
        /// Figure 9 when the origin is [`PrefetchOrigin::Push`]).
        first_touch_of_prefetch: Option<PrefetchOrigin>,
    },
    /// The line is already being fetched; this access merged into the
    /// existing MSHR.
    MissMerged {
        /// Register the access merged into.
        mshr: MshrId,
        /// `true` if the in-flight fill was initiated by a prefetch, making
        /// this demand access a *delayed hit* (Figure 9).
        prefetch_initiated: bool,
    },
    /// A true miss: an MSHR was allocated and a victim way reserved.
    Miss {
        /// Newly allocated register; the caller sends the request to the
        /// next level and calls [`Cache::fill`] when data returns.
        mshr: MshrId,
        /// Dirty victim that was enqueued for write-back, if any.
        evicted_dirty: Option<LineAddr>,
        /// `Some((victim, origin))` if the victim was a never-touched
        /// prefetched line (`Replaced` in Figure 9 when the origin is
        /// [`PrefetchOrigin::Push`]).
        evicted_prefetch: Option<(LineAddr, PrefetchOrigin)>,
    },
    /// The access cannot proceed: no free MSHR, or every way in the set is
    /// transaction-pending. The caller must retry later.
    Blocked,
}

/// Result of a memory-side push (a prefetched line arriving unrequested).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// A pending demand request for the same line existed; the push stole
    /// its MSHR and completed the fill, as if it were the reply.
    StoleMshr {
        /// `true` if a demand access was waiting (it is now satisfied).
        demand_was_waiting: bool,
        /// `true` if the line was installed with the prefetched bit set:
        /// the stolen MSHR belonged to a processor-side prefetch and no
        /// demand had merged in, so the push's line now sits untouched in
        /// the cache like an accepted push.
        installed_as_prefetch: bool,
    },
    /// The line was installed with its prefetched bit set.
    Accepted {
        /// Dirty victim that was enqueued for write-back, if any.
        evicted_dirty: Option<LineAddr>,
        /// `Some((victim, origin))` if the victim was a never-touched
        /// prefetched line.
        evicted_prefetch: Option<(LineAddr, PrefetchOrigin)>,
    },
    /// Dropped: the cache already holds the line.
    DroppedPresent,
    /// Dropped: the write-back queue holds a (newer) copy of the line.
    DroppedWriteback,
    /// Dropped: all MSHRs are busy.
    DroppedNoMshr,
    /// Dropped: every line in the target set is transaction-pending.
    DroppedSetPending,
}

/// Aggregate counters exposed for the evaluation figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Demand accesses (loads/stores from the processor).
    pub demand_accesses: u64,
    /// Demand accesses that hit.
    pub demand_hits: u64,
    /// Demand accesses that missed (true misses, excluding merges).
    pub demand_misses: u64,
    /// Demand accesses that merged into an in-flight fill.
    pub demand_merged: u64,
    /// Accesses rejected for lack of MSHRs / evictable ways.
    pub blocked: u64,
    /// First demand touches of pushed-prefetched lines (`Hits`, Figure 9).
    pub prefetch_first_touches: u64,
    /// First demand touches of processor-side prefetched lines.
    pub cpu_prefetch_first_touches: u64,
    /// Pushed-prefetched lines evicted without ever being referenced
    /// (`Replaced`, Figure 9).
    pub prefetch_replaced_untouched: u64,
    /// Processor-side prefetched lines evicted untouched.
    pub cpu_prefetch_replaced_untouched: u64,
    /// Pushes that stole a pending MSHR.
    pub pushes_stole_mshr: u64,
    /// Pushes installed as new prefetched lines.
    pub pushes_accepted: u64,
    /// Pushes dropped because the line was present (`Redundant`, Figure 9).
    pub pushes_dropped_present: u64,
    /// Pushes dropped because the write-back queue held the line.
    pub pushes_dropped_writeback: u64,
    /// Pushes dropped for lack of a free MSHR.
    pub pushes_dropped_no_mshr: u64,
    /// Pushes dropped because the whole set was transaction-pending.
    pub pushes_dropped_set_pending: u64,
    /// Dirty evictions (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total pushes dropped, for any reason.
    pub fn pushes_dropped(&self) -> u64 {
        self.pushes_dropped_present
            + self.pushes_dropped_writeback
            + self.pushes_dropped_no_mshr
            + self.pushes_dropped_set_pending
    }

    /// Demand miss ratio (misses + merges over accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            (self.demand_misses + self.demand_merged) as f64 / self.demand_accesses as f64
        }
    }
}

/// Stamp of a way that holds nothing.
const INVALID: u64 = 0;
/// Stamp of a way reserved by an MSHR, its data in flight.
const PENDING: u64 = u64::MAX;

/// Flag bit: the line is dirty.
const DIRTY: u8 = 1;
/// Flag bit: the line was pushed by the ULMT and not yet demanded.
const PUSHED: u8 = 2;
/// Flag bit: the line was fetched by the processor-side prefetcher and
/// not yet demanded.
const CPU_PREFETCHED: u8 = 4;
/// Either prefetched bit.
const PREFETCHED: u8 = PUSHED | CPU_PREFETCHED;

/// `true` for the stamp of a valid way: neither [`INVALID`] nor
/// [`PENDING`].
#[inline]
fn is_valid(stamp: u64) -> bool {
    stamp.wrapping_sub(1) < PENDING - 1
}

/// The prefetched bit of `origin`.
fn prefetch_bit(origin: PrefetchOrigin) -> u8 {
    match origin {
        PrefetchOrigin::Push => PUSHED,
        PrefetchOrigin::CpuSide => CPU_PREFETCHED,
    }
}

/// The origin named by a way's prefetched bits, if any.
fn prefetch_origin(flags: u8) -> Option<PrefetchOrigin> {
    if flags & PUSHED != 0 {
        Some(PrefetchOrigin::Push)
    } else if flags & CPU_PREFETCHED != 0 {
        Some(PrefetchOrigin::CpuSide)
    } else {
        None
    }
}

/// A set-associative, write-back cache with MSHRs, a write-back queue, LRU
/// replacement and push-prefetch support.
///
/// The ways live in three flat arrays, `num_sets * assoc` long and
/// row-major by set; the [module documentation](self) gives the stamp
/// encoding.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Line address held by each way (meaningless while invalid).
    tags: Vec<u64>,
    /// State and LRU stamp of each way.
    stamps: Vec<u64>,
    /// [`DIRTY`] and at most one prefetched bit per way.
    flags: Vec<u8>,
    /// `num_sets - 1`: a line's set is its low bits.
    set_mask: usize,
    mshrs: MshrFile,
    wb: WriteBackQueue,
    stats: CacheStats,
    lru_clock: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let lines = cfg.num_lines();
        Cache {
            tags: vec![0; lines],
            stamps: vec![INVALID; lines],
            flags: vec![0; lines],
            set_mask: cfg.num_sets() - 1,
            mshrs: MshrFile::new(cfg.mshrs),
            wb: WriteBackQueue::new(cfg.wb_capacity),
            cfg,
            stats: CacheStats::default(),
            lru_clock: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The write-back queue (drained by the memory system).
    pub fn writeback_queue_mut(&mut self) -> &mut WriteBackQueue {
        &mut self.wb
    }

    /// Shared view of the write-back queue.
    pub fn writeback_queue(&self) -> &WriteBackQueue {
        &self.wb
    }

    /// The MSHR file.
    pub fn mshrs(&self) -> &MshrFile {
        &self.mshrs
    }

    /// Returns `true` if the cache currently holds `line` in valid state.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find_valid(line).is_some()
    }

    /// Demand access (load or store) to `line`.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessOutcome {
        self.stats.demand_accesses += 1;
        self.access_inner(
            line, is_write, /*demand=*/ true, /*prefetch=*/ false,
        )
    }

    /// Access initiated by a processor-side prefetcher. Does not count as a
    /// demand access; on a miss, the resulting fill is marked
    /// prefetch-initiated so that a later demand merge counts as a delayed
    /// hit.
    pub fn access_prefetch(&mut self, line: LineAddr) -> AccessOutcome {
        self.access_inner(line, false, /*demand=*/ false, /*prefetch=*/ true)
    }

    fn access_inner(
        &mut self,
        line: LineAddr,
        is_write: bool,
        demand: bool,
        prefetch: bool,
    ) -> AccessOutcome {
        self.lru_clock += 1;
        if let Some(idx) = self.find_valid(line) {
            return AccessOutcome::Hit {
                first_touch_of_prefetch: self.hit(idx, is_write, demand),
            };
        }

        if let Some(mshr) = self.mshrs.find(line) {
            let prefetch_initiated = self.mshrs.prefetch_initiated(mshr);
            if demand {
                self.mshrs.mark_demand(mshr);
                self.stats.demand_merged += 1;
            }
            if is_write {
                if let Some(idx) = self.find_pending(line) {
                    self.flags[idx] |= DIRTY;
                }
            }
            return AccessOutcome::MissMerged {
                mshr,
                prefetch_initiated,
            };
        }

        if !self.mshrs.has_free() {
            self.stats.blocked += 1;
            return AccessOutcome::Blocked;
        }
        let Some(victim) = self.pick_victim(line) else {
            self.stats.blocked += 1;
            return AccessOutcome::Blocked;
        };

        let (evicted_dirty, evicted_prefetch) = self.evict(victim);
        let mshr = self
            .mshrs
            .allocate(line, demand, prefetch)
            .expect("free MSHR checked above");
        // A write miss dirties the line as soon as the fill lands.
        self.install(victim, line, PENDING, if is_write { DIRTY } else { 0 });
        if demand {
            self.stats.demand_misses += 1;
        }
        AccessOutcome::Miss {
            mshr,
            evicted_dirty,
            evicted_prefetch,
        }
    }

    /// Demand access for a cache that waits out every miss (the in-order
    /// memory processor's, and the state-only miss-stream extractor's): a
    /// miss installs the line at once, leaving the cache as
    /// [`Cache::access`] then [`Cache::fill`] would, without an MSHR.
    /// Returns `true` on a hit.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a fill is in flight.
    pub fn access_install(&mut self, line: LineAddr, is_write: bool) -> bool {
        debug_assert_eq!(self.mshrs.in_use(), 0, "a fill is in flight");
        self.stats.demand_accesses += 1;
        self.lru_clock += 1;
        if let Some(idx) = self.find_valid(line) {
            self.hit(idx, is_write, /*demand=*/ true);
            return true;
        }
        let victim = self
            .pick_victim(line)
            .expect("no fill in flight, so no way is pending");
        self.evict(victim);
        let clock = self.lru_clock;
        self.install(victim, line, clock, if is_write { DIRTY } else { 0 });
        self.stats.demand_misses += 1;
        false
    }

    /// Records a hit on the valid way at `idx`; returns the origin of a
    /// prefetched line's first demand touch.
    #[inline]
    fn hit(&mut self, idx: usize, is_write: bool, demand: bool) -> Option<PrefetchOrigin> {
        self.stamps[idx] = self.lru_clock;
        let flags = self.flags[idx] | if is_write { DIRTY } else { 0 };
        self.flags[idx] = flags;
        if !demand {
            return None;
        }
        self.stats.demand_hits += 1;
        if flags & PREFETCHED == 0 {
            return None;
        }
        self.flags[idx] = flags & !PREFETCHED;
        let origin = prefetch_origin(flags);
        match origin {
            Some(PrefetchOrigin::Push) => self.stats.prefetch_first_touches += 1,
            Some(PrefetchOrigin::CpuSide) => self.stats.cpu_prefetch_first_touches += 1,
            None => {}
        }
        origin
    }

    /// Completes the in-flight fill of `line`. Returns `true` if a demand
    /// access was waiting on the fill.
    ///
    /// Fills for lines whose MSHR disappeared (e.g. a push stole it) are
    /// ignored and return `false`.
    pub fn fill(&mut self, line: LineAddr, install_as_prefetched: bool) -> bool {
        let Some(mshr) = self.mshrs.find(line) else {
            return false; // push already satisfied this fill
        };
        let demand_waiting = self.mshrs.demand_waiting(mshr);
        let prefetch_initiated = self.mshrs.prefetch_initiated(mshr);
        self.mshrs.release(mshr);
        // A line fetched purely by a prefetch (no demand merged in yet)
        // carries the prefetched bit so a later eviction without a touch
        // counts as Replaced.
        let prefetched = if install_as_prefetched {
            PUSHED
        } else if prefetch_initiated && !demand_waiting {
            CPU_PREFETCHED
        } else {
            0
        };
        self.complete_pending(line, prefetched);
        demand_waiting
    }

    /// Delivers a memory-side prefetched line (push), applying the paper's
    /// accept/steal/drop rules in order.
    pub fn push(&mut self, line: LineAddr) -> PushOutcome {
        // Rule: a pending request with the same address steals the MSHR and
        // the push acts as the reply.
        if let Some(mshr) = self.mshrs.find(line) {
            let demand_was_waiting = self.mshrs.demand_waiting(mshr);
            let prefetch_initiated = self.mshrs.prefetch_initiated(mshr);
            self.mshrs.release(mshr);
            let installed_as_prefetch = !demand_was_waiting && prefetch_initiated;
            self.complete_pending(line, if installed_as_prefetch { PUSHED } else { 0 });
            self.stats.pushes_stole_mshr += 1;
            return PushOutcome::StoleMshr {
                demand_was_waiting,
                installed_as_prefetch,
            };
        }
        if self.find_valid(line).is_some() {
            self.stats.pushes_dropped_present += 1;
            return PushOutcome::DroppedPresent;
        }
        if self.wb.contains(line) {
            self.stats.pushes_dropped_writeback += 1;
            return PushOutcome::DroppedWriteback;
        }
        if !self.mshrs.has_free() {
            self.stats.pushes_dropped_no_mshr += 1;
            return PushOutcome::DroppedNoMshr;
        }
        let Some(victim) = self.pick_victim(line) else {
            self.stats.pushes_dropped_set_pending += 1;
            return PushOutcome::DroppedSetPending;
        };
        let (evicted_dirty, evicted_prefetch) = self.evict(victim);
        self.lru_clock += 1;
        let clock = self.lru_clock;
        self.install(victim, line, clock, PUSHED);
        self.stats.pushes_accepted += 1;
        PushOutcome::Accepted {
            evicted_dirty,
            evicted_prefetch,
        }
    }

    /// Number of valid lines currently carrying the prefetched bit.
    pub fn prefetched_lines(&self) -> usize {
        self.count_valid_flagged(PREFETCHED)
    }

    /// Number of valid lines carrying the prefetched bit of one origin —
    /// e.g. pushed lines still resident and untouched at end of run, the
    /// residual term of the push-accounting identity.
    pub fn prefetched_lines_of(&self, origin: PrefetchOrigin) -> usize {
        self.count_valid_flagged(prefetch_bit(origin))
    }

    fn count_valid_flagged(&self, mask: u8) -> usize {
        self.stamps
            .iter()
            .zip(&self.flags)
            .filter(|&(&stamp, &flags)| is_valid(stamp) && flags & mask != 0)
            .count()
    }

    /// The first way of `line`'s set.
    #[inline]
    fn set_start(&self, line: LineAddr) -> usize {
        ((line.raw() as usize) & self.set_mask) * self.cfg.assoc
    }

    /// The first way of `line`'s set whose tag is `line` and whose stamp
    /// passes `state`.
    #[inline]
    fn find(&self, line: LineAddr, state: impl Fn(u64) -> bool) -> Option<usize> {
        let start = self.set_start(line);
        let end = start + self.cfg.assoc;
        let tags = &self.tags[start..end];
        let stamps = &self.stamps[start..end];
        tags.iter()
            .zip(stamps)
            .position(|(&tag, &stamp)| tag == line.raw() && state(stamp))
            .map(|i| start + i)
    }

    #[inline]
    fn find_valid(&self, line: LineAddr) -> Option<usize> {
        self.find(line, is_valid)
    }

    fn find_pending(&self, line: LineAddr) -> Option<usize> {
        self.find(line, |stamp| stamp == PENDING)
    }

    /// Picks the victim among the non-pending ways of the target set: the
    /// first minimum stamp, unless that minimum is [`PENDING`]. That is
    /// the first invalid way, else the least recently used valid one (the
    /// first of equals).
    #[inline]
    fn pick_victim(&self, line: LineAddr) -> Option<usize> {
        let start = self.set_start(line);
        let stamps = &self.stamps[start..start + self.cfg.assoc];
        let mut best = 0;
        for (i, &stamp) in stamps.iter().enumerate().skip(1) {
            if stamp < stamps[best] {
                best = i;
            }
        }
        (stamps[best] != PENDING).then_some(start + best)
    }

    /// Overwrites the way at `idx` with `line`.
    #[inline]
    fn install(&mut self, idx: usize, line: LineAddr, stamp: u64, flags: u8) {
        self.tags[idx] = line.raw();
        self.stamps[idx] = stamp;
        self.flags[idx] = flags;
    }

    /// Turns `line`'s pending way valid and most recently used, keeping
    /// its dirty bit and setting the `prefetched` bit (if any).
    fn complete_pending(&mut self, line: LineAddr, prefetched: u8) {
        let idx = self
            .find_pending(line)
            .expect("MSHR existed, so a pending way must be reserved");
        self.lru_clock += 1;
        self.stamps[idx] = self.lru_clock;
        self.flags[idx] = (self.flags[idx] & DIRTY) | prefetched;
    }

    /// Evicts the victim way at `idx` (invalid or valid, never pending),
    /// enqueueing a write-back if dirty. Returns the evicted dirty line
    /// (if any) and a never-touched prefetched victim with its origin (if
    /// any).
    #[inline]
    fn evict(&mut self, idx: usize) -> (Option<LineAddr>, Option<(LineAddr, PrefetchOrigin)>) {
        debug_assert_ne!(self.stamps[idx], PENDING, "a pending way is never a victim");
        // An invalid way has no flags: it was never written.
        let flags = self.flags[idx];
        if flags == 0 {
            return (None, None);
        }
        let line = LineAddr::new(self.tags[idx]);
        let origin = prefetch_origin(flags);
        match origin {
            Some(PrefetchOrigin::Push) => self.stats.prefetch_replaced_untouched += 1,
            Some(PrefetchOrigin::CpuSide) => self.stats.cpu_prefetch_replaced_untouched += 1,
            None => {}
        }
        let dirty = if flags & DIRTY != 0 {
            self.stats.writebacks += 1;
            self.wb.enqueue(line);
            Some(line)
        } else {
            None
        };
        (dirty, origin.map(|origin| (line, origin)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64 B lines = 256 B, 2 MSHRs.
        Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            line_size: 64,
            mshrs: 2,
            wb_capacity: 4,
        })
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(matches!(
            c.access(line(0), false),
            AccessOutcome::Miss { .. }
        ));
        assert!(c.fill(line(0), false));
        assert!(matches!(
            c.access(line(0), false),
            AccessOutcome::Hit {
                first_touch_of_prefetch: None
            }
        ));
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn merge_into_inflight_fill() {
        let mut c = tiny();
        let AccessOutcome::Miss { mshr, .. } = c.access(line(0), false) else {
            panic!("expected miss");
        };
        let out = c.access(line(0), false);
        assert_eq!(
            out,
            AccessOutcome::MissMerged {
                mshr,
                prefetch_initiated: false
            }
        );
        assert_eq!(c.stats().demand_merged, 1);
    }

    #[test]
    fn blocked_when_mshrs_exhausted() {
        let mut c = tiny();
        assert!(matches!(
            c.access(line(0), false),
            AccessOutcome::Miss { .. }
        ));
        assert!(matches!(
            c.access(line(1), false),
            AccessOutcome::Miss { .. }
        ));
        assert_eq!(c.access(line(4), false), AccessOutcome::Blocked);
        assert_eq!(c.stats().blocked, 1);
    }

    #[test]
    fn blocked_when_set_fully_pending() {
        // 4 MSHRs but only 2 ways per set: two pending fills to set 0 block
        // a third access to the same set.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            line_size: 64,
            mshrs: 4,
            wb_capacity: 4,
        });
        assert!(matches!(
            c.access(line(0), false),
            AccessOutcome::Miss { .. }
        ));
        assert!(matches!(
            c.access(line(2), false),
            AccessOutcome::Miss { .. }
        ));
        assert_eq!(c.access(line(4), false), AccessOutcome::Blocked);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds even lines. Fill lines 0 and 2, touch 0, then miss 4:
        // victim must be 2.
        for l in [0, 2] {
            c.access(line(l), false);
            c.fill(line(l), false);
        }
        c.access(line(0), false);
        c.access(line(4), false);
        c.fill(line(4), false);
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(2)));
        assert!(c.contains(line(4)));
    }

    #[test]
    fn dirty_eviction_enqueues_writeback() {
        let mut c = tiny();
        c.access(line(0), true);
        c.fill(line(0), false);
        c.access(line(2), false);
        c.fill(line(2), false);
        let out = c.access(line(4), false);
        match out {
            AccessOutcome::Miss { evicted_dirty, .. } => {
                assert_eq!(evicted_dirty, Some(line(0)));
            }
            other => panic!("expected miss, got {other:?}"),
        }
        assert!(c.writeback_queue().contains(line(0)));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn push_accepts_and_first_touch_counts() {
        let mut c = tiny();
        assert!(matches!(c.push(line(0)), PushOutcome::Accepted { .. }));
        assert_eq!(c.prefetched_lines(), 1);
        let out = c.access(line(0), false);
        assert_eq!(
            out,
            AccessOutcome::Hit {
                first_touch_of_prefetch: Some(PrefetchOrigin::Push)
            }
        );
        assert_eq!(c.stats().prefetch_first_touches, 1);
        // Second touch is an ordinary hit.
        assert_eq!(
            c.access(line(0), false),
            AccessOutcome::Hit {
                first_touch_of_prefetch: None
            }
        );
        assert_eq!(c.stats().prefetch_first_touches, 1);
    }

    #[test]
    fn push_steals_pending_mshr() {
        let mut c = tiny();
        assert!(matches!(
            c.access(line(0), false),
            AccessOutcome::Miss { .. }
        ));
        let out = c.push(line(0));
        assert_eq!(
            out,
            PushOutcome::StoleMshr {
                demand_was_waiting: true,
                installed_as_prefetch: false
            }
        );
        assert!(c.contains(line(0)));
        // The original reply arrives later and is ignored.
        assert!(!c.fill(line(0), false));
        assert!(c.mshrs().has_free());
    }

    #[test]
    fn push_drop_rules() {
        let mut c = tiny();
        // Present.
        c.access(line(0), false);
        c.fill(line(0), false);
        assert_eq!(c.push(line(0)), PushOutcome::DroppedPresent);

        // Write-back queue holds the line.
        c.access(line(0), true); // dirty it
        c.access(line(2), false);
        c.fill(line(2), false);
        c.access(line(4), false); // evicts dirty line 0
        assert_eq!(c.push(line(0)), PushOutcome::DroppedWriteback);

        // No MSHR free: line 4's fill is outstanding; start another.
        c.access(line(1), false);
        assert_eq!(c.push(line(3)), PushOutcome::DroppedNoMshr);
        assert_eq!(c.stats().pushes_dropped(), 3);
    }

    #[test]
    fn push_dropped_when_set_pending() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            line_size: 64,
            mshrs: 4,
            wb_capacity: 4,
        });
        c.access(line(0), false);
        c.access(line(2), false);
        assert_eq!(c.push(line(4)), PushOutcome::DroppedSetPending);
    }

    #[test]
    fn replaced_untouched_prefetch_counts() {
        let mut c = tiny();
        assert!(matches!(c.push(line(0)), PushOutcome::Accepted { .. }));
        assert!(matches!(c.push(line(2)), PushOutcome::Accepted { .. }));
        // Demand misses evict both prefetched lines without touching them.
        c.access(line(4), false);
        c.fill(line(4), false);
        c.access(line(6), false);
        c.fill(line(6), false);
        assert_eq!(c.stats().prefetch_replaced_untouched, 2);
    }

    #[test]
    fn processor_prefetch_then_demand_is_delayed_hit() {
        let mut c = tiny();
        assert!(matches!(
            c.access_prefetch(line(0)),
            AccessOutcome::Miss { .. }
        ));
        let out = c.access(line(0), false);
        assert!(matches!(
            out,
            AccessOutcome::MissMerged {
                prefetch_initiated: true,
                ..
            }
        ));
        // Fill completes; demand was waiting.
        assert!(c.fill(line(0), false));
        // Line is not marked prefetched: the demand already claimed it.
        assert_eq!(
            c.access(line(0), false),
            AccessOutcome::Hit {
                first_touch_of_prefetch: None
            }
        );
    }

    #[test]
    fn push_stealing_cpu_prefetch_mshr_installs_as_prefetch() {
        // A push that steals the MSHR of a processor-side prefetch (no
        // demand merged in) leaves an untouched prefetched line behind —
        // it must be reported so the push accounting can count it as an
        // accepted push rather than losing it.
        let mut c = tiny();
        assert!(matches!(
            c.access_prefetch(line(0)),
            AccessOutcome::Miss { .. }
        ));
        assert_eq!(
            c.push(line(0)),
            PushOutcome::StoleMshr {
                demand_was_waiting: false,
                installed_as_prefetch: true
            }
        );
        assert_eq!(c.prefetched_lines_of(PrefetchOrigin::Push), 1);
        assert_eq!(c.prefetched_lines_of(PrefetchOrigin::CpuSide), 0);
    }

    #[test]
    fn eviction_reports_untouched_prefetch_victims() {
        let mut c = tiny();
        assert!(matches!(c.push(line(0)), PushOutcome::Accepted { .. }));
        assert!(matches!(c.push(line(2)), PushOutcome::Accepted { .. }));
        // A demand miss evicting a pushed line reports the victim origin.
        match c.access(line(4), false) {
            AccessOutcome::Miss {
                evicted_prefetch, ..
            } => assert_eq!(evicted_prefetch, Some((line(0), PrefetchOrigin::Push))),
            other => panic!("expected miss, got {other:?}"),
        }
        c.fill(line(4), false);
        // A push evicting a pushed line reports it too.
        match c.push(line(6)) {
            PushOutcome::Accepted {
                evicted_prefetch, ..
            } => assert_eq!(evicted_prefetch, Some((line(2), PrefetchOrigin::Push))),
            other => panic!("expected accept, got {other:?}"),
        }
    }

    #[test]
    fn prefetch_initiated_fill_without_demand_sets_bit() {
        let mut c = tiny();
        assert!(matches!(
            c.access_prefetch(line(0)),
            AccessOutcome::Miss { .. }
        ));
        assert!(!c.fill(line(0), false));
        assert_eq!(c.prefetched_lines(), 1);
        // A processor-side prefetch fill carries the CpuSide origin.
        assert_eq!(
            c.access(line(0), false),
            AccessOutcome::Hit {
                first_touch_of_prefetch: Some(PrefetchOrigin::CpuSide)
            }
        );
        assert_eq!(c.stats().cpu_prefetch_first_touches, 1);
        assert_eq!(c.stats().prefetch_first_touches, 0);
    }
}
