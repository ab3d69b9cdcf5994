//! Multi-stream sequential (stride ±1) detection.
//!
//! Shared by the software sequential ULMTs (`Seq1`, `Seq4`) and by the
//! hardware processor-side prefetcher (`Conven4`), which the paper models
//! identically: "When the third miss in a sequence is observed, the
//! prefetcher recognizes a stream. Then, it prefetches the next `NumPref`
//! lines in the stream ... it stores the stride and the next address
//! expected in the stream in a special register. If the processor later
//! misses on the address in the register, the prefetcher prefetches the
//! next `NumPref` lines ... and updates the register. The prefetcher
//! contains `NumSeq` such registers." (Section 4)

use std::collections::VecDeque;

use ulmt_simcore::hash::fx_map_with_capacity;
use ulmt_simcore::{FxHashMap, LineAddr};

/// One stream register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stream {
    /// Next line address expected to miss.
    next: LineAddr,
    /// Stride in lines: +1 or −1.
    stride: i64,
    /// Furthest line already prefetched, so continuing a stream only
    /// issues the *new* lines at the leading edge instead of re-issuing
    /// the whole window.
    frontier: LineAddr,
    /// LRU stamp for register replacement.
    lru: u64,
}

/// A `NumSeq`-register stream detector with ±1-line stride recognition.
///
/// # Example
///
/// ```
/// use ulmt_core::stream::StreamDetector;
/// use ulmt_simcore::LineAddr;
///
/// let mut d = StreamDetector::new(4, 6);
/// assert!(d.observe(LineAddr::new(10)).is_empty());
/// assert!(d.observe(LineAddr::new(11)).is_empty());
/// // Third miss in sequence: the stream is recognized and the next 6
/// // lines are prefetched.
/// let prefetches = d.observe(LineAddr::new(12));
/// assert_eq!(prefetches.first(), Some(&LineAddr::new(13)));
/// assert_eq!(prefetches.len(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct StreamDetector {
    num_seq: usize,
    num_pref: usize,
    /// Issue window starts `offset` lines beyond the observed miss. A
    /// memory-side detector observing *processor-side prefetch requests*
    /// (Verbose mode) uses this to extend the lookahead past the window
    /// the processor prefetcher already covers.
    offset: i64,
    streams: Vec<Stream>,
    /// The last [`RECENT_WINDOW`] miss lines, oldest first, for stream
    /// recognition.
    recent: VecDeque<LineAddr>,
    /// How often each line occurs in `recent`, so a membership test costs
    /// one lookup instead of a scan of the window.
    in_recent: FxHashMap<LineAddr, u32>,
    lru_clock: u64,
    /// Streams recognized so far (statistics).
    recognized: u64,
}

/// How many recent misses are remembered for stream recognition.
const RECENT_WINDOW: usize = 64;

impl StreamDetector {
    /// Creates a detector with `num_seq` stream registers, prefetching
    /// `num_pref` lines ahead.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(num_seq: usize, num_pref: usize) -> Self {
        assert!(
            num_seq > 0 && num_pref > 0,
            "NumSeq and NumPref must be positive"
        );
        StreamDetector {
            num_seq,
            num_pref,
            offset: 0,
            streams: Vec::with_capacity(num_seq),
            recent: VecDeque::with_capacity(RECENT_WINDOW + 1),
            in_recent: fx_map_with_capacity(RECENT_WINDOW + 1),
            lru_clock: 0,
            recognized: 0,
        }
    }

    /// Starts the issue window `offset` lines beyond the observed miss
    /// (see the `offset` field).
    pub fn with_lookahead_offset(mut self, offset: usize) -> Self {
        self.offset = offset as i64;
        self
    }

    /// Number of stream registers (`NumSeq`).
    pub fn num_seq(&self) -> usize {
        self.num_seq
    }

    /// Prefetch depth (`NumPref`).
    pub fn num_pref(&self) -> usize {
        self.num_pref
    }

    /// Streams recognized since creation.
    pub fn streams_recognized(&self) -> u64 {
        self.recognized
    }

    /// Number of currently active stream registers.
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// Observes one miss and returns the lines to prefetch (empty most of
    /// the time).
    pub fn observe(&mut self, miss: LineAddr) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.observe_with(miss, |line| out.push(line));
        out
    }

    /// [`StreamDetector::observe`] without the `Vec`: hands each line to
    /// prefetch to `emit`, in issue order.
    pub fn observe_with(&mut self, miss: LineAddr, mut emit: impl FnMut(LineAddr)) {
        self.lru_clock += 1;
        let clock = self.lru_clock;

        // 1. Does the miss continue a tracked stream? Accept a match
        //    anywhere in the prefetched window: the processor may next miss
        //    a few lines ahead when prefetched lines were evicted.
        let window = self.num_pref as i64;
        if let Some(stream) = self.streams.iter_mut().find(|s| {
            let d = miss.delta(s.next) * s.stride.signum();
            (0..window).contains(&d)
        }) {
            stream.next = miss.offset(stream.stride);
            stream.lru = clock;
            // Issue only the lines beyond the current frontier.
            let target = miss.offset((self.offset + self.num_pref as i64) * stream.stride);
            let mut cur = stream.frontier.offset(stream.stride);
            // If the stream jumped past the frontier, restart from next.
            if cur.delta(stream.next) * stream.stride.signum() < 0 {
                cur = stream.next;
            }
            while cur.delta(target) * stream.stride.signum() <= 0 {
                emit(cur);
                cur = cur.offset(stream.stride);
            }
            stream.frontier = target;
            return;
        }

        // 2. Third miss in a ±1 sequence recognizes a new stream.
        let seen = |delta: i64| self.in_recent.contains_key(&miss.offset(delta));
        let up = seen(-1) && seen(-2);
        let down = seen(1) && seen(2);
        self.recent.push_back(miss);
        *self.in_recent.entry(miss).or_insert(0) += 1;
        if self.recent.len() > RECENT_WINDOW {
            let oldest = self.recent.pop_front().expect("window is non-empty");
            let count = self.in_recent.get_mut(&oldest).expect("counted on entry");
            *count -= 1;
            if *count == 0 {
                self.in_recent.remove(&oldest);
            }
        }
        if up || down {
            let stride: i64 = if up { 1 } else { -1 };
            let frontier = miss.offset((self.offset + self.num_pref as i64) * stride);
            let stream = Stream {
                next: miss.offset(stride),
                stride,
                frontier,
                lru: clock,
            };
            if self.streams.len() < self.num_seq {
                self.streams.push(stream);
            } else {
                let victim = self
                    .streams
                    .iter_mut()
                    .min_by_key(|s| s.lru)
                    .expect("register file is non-empty");
                *victim = stream;
            }
            self.recognized += 1;
            for i in 0..self.num_pref as i64 {
                emit(stream.next.offset((self.offset + i) * stride));
            }
        }
    }

    /// Per-level predictions for Figure 5: level `k` (1-based) predicts
    /// `next + (k−1) · stride` for every active stream.
    pub fn predict(&self, levels: usize) -> Vec<Vec<LineAddr>> {
        (0..levels as i64)
            .map(|k| {
                self.streams
                    .iter()
                    .map(|s| s.next.offset(k * s.stride))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn recognizes_ascending_stream_on_third_miss() {
        let mut d = StreamDetector::new(1, 4);
        assert!(d.observe(line(100)).is_empty());
        assert!(d.observe(line(101)).is_empty());
        let p = d.observe(line(102));
        assert_eq!(p, vec![line(103), line(104), line(105), line(106)]);
        assert_eq!(d.streams_recognized(), 1);
    }

    #[test]
    fn recognizes_descending_stream() {
        let mut d = StreamDetector::new(1, 2);
        d.observe(line(100));
        d.observe(line(99));
        let p = d.observe(line(98));
        assert_eq!(p, vec![line(97), line(96)]);
    }

    #[test]
    fn register_match_continues_stream() {
        let mut d = StreamDetector::new(1, 4);
        d.observe(line(10));
        d.observe(line(11));
        // Recognition prefetches the full window [13..16].
        let p = d.observe(line(12));
        assert_eq!(p, vec![line(13), line(14), line(15), line(16)]);
        // Continuing the stream issues only the NEW line at the edge.
        let p = d.observe(line(13));
        assert_eq!(p, vec![line(17)]);
        // A miss further ahead within the window advances the frontier to
        // cover the skipped distance.
        let p = d.observe(line(16));
        assert_eq!(p, vec![line(18), line(19), line(20)]);
    }

    #[test]
    fn lru_register_replacement() {
        let mut d = StreamDetector::new(1, 2);
        // Stream A.
        d.observe(line(10));
        d.observe(line(11));
        assert!(!d.observe(line(12)).is_empty());
        // Stream B replaces A (only one register).
        d.observe(line(1000));
        d.observe(line(1001));
        assert!(!d.observe(line(1002)).is_empty());
        assert_eq!(d.active_streams(), 1);
        assert_eq!(d.streams_recognized(), 2);
        // A's register is gone: a miss at 13 is a *fresh* recognition via
        // the recent-miss window, not a register continuation.
        assert!(!d.observe(line(13)).is_empty());
        assert_eq!(d.streams_recognized(), 3);
    }

    #[test]
    fn four_concurrent_streams() {
        let mut d = StreamDetector::new(4, 6);
        let bases = [0u64, 1000, 2000, 3000];
        // Interleaved misses from 4 streams.
        for step in 0..3u64 {
            for &b in &bases {
                d.observe(line(b + step));
            }
        }
        assert_eq!(d.active_streams(), 4);
        // All four streams now predict.
        let preds = d.predict(1);
        assert_eq!(preds[0].len(), 4);
    }

    #[test]
    fn random_misses_never_recognize() {
        let mut d = StreamDetector::new(4, 6);
        for n in [5u64, 900, 17, 3000, 42, 777] {
            assert!(d.observe(line(n)).is_empty());
        }
        assert_eq!(d.streams_recognized(), 0);
    }

    /// A line counts toward recognition for exactly the next
    /// `RECENT_WINDOW` misses, and a line seen twice stays until its
    /// later copy ages out.
    #[test]
    fn recent_window_ages_out_oldest_copy_first() {
        let recognizes = |prefix: &[u64], unrelated: u64| {
            let mut d = StreamDetector::new(4, 2);
            for &n in prefix {
                d.observe(line(n));
            }
            for i in 0..unrelated {
                assert!(d.observe(line(1_000 + i * 1_000)).is_empty());
            }
            !d.observe(line(12)).is_empty()
        };
        let fill = RECENT_WINDOW as u64 - 2;
        assert!(recognizes(&[10, 11], fill));
        assert!(!recognizes(&[10, 11], fill + 1));
        assert!(recognizes(&[10, 10, 11], fill));
        assert!(!recognizes(&[10, 10, 11], fill + 1));
    }

    #[test]
    fn predict_levels() {
        let mut d = StreamDetector::new(1, 4);
        d.observe(line(10));
        d.observe(line(11));
        d.observe(line(12));
        let preds = d.predict(3);
        assert_eq!(preds[0], vec![line(13)]);
        assert_eq!(preds[1], vec![line(14)]);
        assert_eq!(preds[2], vec![line(15)]);
    }
}
