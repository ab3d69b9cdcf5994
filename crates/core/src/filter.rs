//! The Filter module (Section 3.2, Figure 3).
//!
//! "The Filter module drops prefetch requests directed to any address that
//! has recently been issued another prefetch request. The module is a
//! fixed-sized FIFO list that records the addresses of all the
//! recently-issued requests. Before a request is issued to queue 3, the
//! hardware checks the Filter list. If it finds its address, the request
//! is dropped and the list is left unmodified. Otherwise, the address is
//! added to the tail of the list."

use ulmt_simcore::LineAddr;

/// Fixed-size FIFO filter of recently-issued prefetch addresses.
///
/// Table 3 gives the default size: 32 entries.
///
/// # Example
///
/// ```
/// use ulmt_core::Filter;
/// use ulmt_simcore::LineAddr;
///
/// let mut f = Filter::new(32);
/// assert!(f.admit(LineAddr::new(7)));  // first time: pass
/// assert!(!f.admit(LineAddr::new(7))); // recently issued: dropped
/// ```
#[derive(Debug, Clone)]
pub struct Filter {
    /// The FIFO list as a ring, scanned flat: once it is full,
    /// `entries[next]` is the oldest address and the next one replaced.
    entries: Vec<LineAddr>,
    next: usize,
    capacity: usize,
    admitted: u64,
    dropped: u64,
}

impl Filter {
    /// Default capacity from Table 3.
    pub const DEFAULT_CAPACITY: usize = 32;

    /// Creates a filter remembering the last `capacity` issued addresses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "filter capacity must be positive");
        Filter {
            entries: Vec::with_capacity(capacity),
            next: 0,
            capacity,
            admitted: 0,
            dropped: 0,
        }
    }

    /// Checks a prefetch request: returns `true` if it should be issued
    /// (and records it), `false` if it must be dropped (list unmodified).
    pub fn admit(&mut self, line: LineAddr) -> bool {
        if self.entries.contains(&line) {
            self.dropped += 1;
            return false;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(line);
        } else {
            self.entries[self.next] = line;
            self.next += 1;
            if self.next == self.capacity {
                self.next = 0;
            }
        }
        self.admitted += 1;
        true
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of remembered addresses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the filter remembers nothing yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity of the FIFO list.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Default for Filter {
    fn default() -> Self {
        Filter::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn duplicate_within_window_dropped() {
        let mut f = Filter::new(4);
        assert!(f.admit(line(1)));
        assert!(f.admit(line(2)));
        assert!(!f.admit(line(1)));
        assert_eq!(f.admitted(), 2);
        assert_eq!(f.dropped(), 1);
    }

    #[test]
    fn old_entries_age_out() {
        let mut f = Filter::new(2);
        assert!(f.admit(line(1)));
        assert!(f.admit(line(2)));
        assert!(f.admit(line(3))); // evicts 1
        assert!(f.admit(line(1))); // 1 aged out: admitted again
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn drop_leaves_list_unmodified() {
        let mut f = Filter::new(2);
        f.admit(line(1));
        f.admit(line(2));
        // Dropping 1 must NOT refresh its position; admitting 3 then
        // still evicts 1 (FIFO, not LRU).
        assert!(!f.admit(line(1)));
        assert!(f.admit(line(3)));
        assert!(f.admit(line(1)));
    }

    #[test]
    fn default_capacity_is_table3s() {
        assert_eq!(Filter::default().capacity(), 32);
    }

    /// The spec as originally implemented: a linear scan over the FIFO.
    struct ScanFilter {
        entries: VecDeque<LineAddr>,
        capacity: usize,
    }

    impl ScanFilter {
        fn admit(&mut self, line: LineAddr) -> bool {
            if self.entries.contains(&line) {
                return false;
            }
            if self.entries.len() >= self.capacity {
                self.entries.pop_front();
            }
            self.entries.push_back(line);
            true
        }
    }

    #[test]
    fn ring_is_equivalent_to_fifo_scan() {
        // Drive both implementations with the same clustered random
        // stream (small line space forces heavy reuse, aging, and
        // drop-then-age-then-readmit interleavings) and require identical
        // decisions at every step.
        let mut rng = ulmt_simcore::Pcg32::seed_from_u64(0xF117E5);
        for capacity in [1usize, 2, 7, 32] {
            let mut fast = Filter::new(capacity);
            let mut reference = ScanFilter {
                entries: VecDeque::new(),
                capacity,
            };
            for step in 0..20_000u64 {
                let l = line(rng.next_u64() % (capacity as u64 * 3 + 1));
                assert_eq!(
                    fast.admit(l),
                    reference.admit(l),
                    "capacity {capacity}, step {step}, line {l}"
                );
            }
            assert_eq!(fast.len(), reference.entries.len());
            assert_eq!(fast.admitted() + fast.dropped(), 20_000);
        }
    }
}
