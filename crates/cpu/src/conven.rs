//! The conventional processor-side prefetcher (`Conven4`, Table 4).
//!
//! "The main processor optionally includes a hardware prefetcher that can
//! prefetch multiple streams of stride 1 or −1 into the L1 cache. The
//! prefetcher monitors L1 cache misses" (Section 4). It shares the stream
//! recognition machinery with the software `Seq` ULMTs
//! ([`ulmt_core::stream::StreamDetector`]) but operates at L1-line (32 B)
//! granularity and injects its prefetches into the L1.

use ulmt_core::stream::StreamDetector;
use ulmt_simcore::{Addr, LineAddr};

/// L1 line size in bytes (Table 3).
pub const L1_LINE: u64 = 32;

/// The processor-side multi-stream sequential prefetcher.
///
/// # Example
///
/// ```
/// use ulmt_cpu::Conven4;
/// use ulmt_simcore::Addr;
///
/// let mut pf = Conven4::new(4, 6);
/// assert!(pf.observe_l1_miss(Addr::new(0)).is_empty());
/// assert!(pf.observe_l1_miss(Addr::new(32)).is_empty());
/// // Third sequential L1 miss: prefetch the next 6 L1 lines.
/// let lines = pf.observe_l1_miss(Addr::new(64));
/// assert_eq!(lines.len(), 6);
/// assert_eq!(lines[0].byte_addr(32), Addr::new(96));
/// ```
#[derive(Debug, Clone)]
pub struct Conven4 {
    detector: StreamDetector,
    issued: u64,
}

impl Conven4 {
    /// Creates a prefetcher with `num_seq` stream registers prefetching
    /// `num_pref` L1 lines per hit. Table 4's `Conven4` is `(4, 6)`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(num_seq: usize, num_pref: usize) -> Self {
        Conven4 {
            detector: StreamDetector::new(num_seq, num_pref),
            issued: 0,
        }
    }

    /// Table 4's default configuration (`NumSeq = 4`, `NumPref = 6`).
    pub fn table4_default() -> Self {
        Self::new(4, 6)
    }

    /// Observes an L1 miss (byte address) and returns L1-line addresses to
    /// prefetch into the L1 cache.
    pub fn observe_l1_miss(&mut self, addr: Addr) -> Vec<LineAddr> {
        let mut lines = Vec::new();
        self.observe_l1_miss_with(addr, |line| lines.push(line));
        lines
    }

    /// [`Conven4::observe_l1_miss`] without the `Vec`: hands each L1-line
    /// address to prefetch to `emit`, in order.
    pub fn observe_l1_miss_with(&mut self, addr: Addr, mut emit: impl FnMut(LineAddr)) {
        let issued = &mut self.issued;
        self.detector.observe_with(addr.line(L1_LINE), |line| {
            *issued += 1;
            emit(line);
        });
    }

    /// Total prefetch requests issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Streams recognized so far.
    pub fn streams_recognized(&self) -> u64 {
        self.detector.streams_recognized()
    }

    /// Currently tracked streams.
    pub fn active_streams(&self) -> usize {
        self.detector.active_streams()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_streams_then_thrash_on_fifth() {
        let mut pf = Conven4::table4_default();
        // Establish 4 streams.
        for step in 0..3u64 {
            for s in 0..4u64 {
                pf.observe_l1_miss(Addr::new(s * 100_000 + step * L1_LINE));
            }
        }
        assert_eq!(pf.active_streams(), 4);
        // A fifth stream evicts the LRU register — this is what overwhelms
        // Conven4 on CG's many concurrent streams (Section 5.2).
        for step in 0..3u64 {
            pf.observe_l1_miss(Addr::new(900_000 + step * L1_LINE));
        }
        assert_eq!(pf.active_streams(), 4);
        assert_eq!(pf.streams_recognized(), 5);
    }

    #[test]
    fn descending_streams_supported() {
        let mut pf = Conven4::table4_default();
        pf.observe_l1_miss(Addr::new(10 * L1_LINE));
        pf.observe_l1_miss(Addr::new(9 * L1_LINE));
        let lines = pf.observe_l1_miss(Addr::new(8 * L1_LINE));
        assert_eq!(lines[0], Addr::new(7 * L1_LINE).line(L1_LINE));
    }

    #[test]
    fn issued_counter() {
        let mut pf = Conven4::table4_default();
        for n in 0..5u64 {
            pf.observe_l1_miss(Addr::new(n * L1_LINE));
        }
        // Recognition at the 3rd miss prefetches the window (6), then the
        // 4th and 5th misses each advance the frontier by one line.
        assert_eq!(pf.issued(), 8);
    }

    #[test]
    fn irregular_misses_issue_nothing() {
        let mut pf = Conven4::table4_default();
        for n in [0u64, 10_000, 555_000, 77_000] {
            assert!(pf.observe_l1_miss(Addr::new(n)).is_empty());
        }
        assert_eq!(pf.issued(), 0);
    }
}
