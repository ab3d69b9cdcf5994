//! Run-ahead miss window.
//!
//! Models the two resources that bound how far a dynamic superscalar can
//! slide past outstanding misses: the pending-load capacity (Table 3: 8)
//! and the reorder buffer (`rob_insns`). When either is exhausted the
//! processor stalls until the *oldest* outstanding miss completes — the
//! classic behavior that makes L2 misses "usually the hardest to hide
//! with out-of-order execution".

use ulmt_simcore::LineAddr;

/// One outstanding (missing) load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    id: u64,
    insn_idx: u64,
    /// The line the load waits for.
    line: LineAddr,
}

/// Why the processor cannot continue past the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowVerdict {
    /// The next reference may issue.
    Proceed,
    /// All pending-load slots are busy; wait for the oldest miss (`id`).
    StallFull {
        /// Identifier of the miss the processor must wait for.
        id: u64,
        /// The line that miss waits for.
        line: LineAddr,
    },
    /// The next instruction is further than the ROB allows from the oldest
    /// outstanding miss; wait for it.
    StallRob {
        /// Identifier of the miss the processor must wait for.
        id: u64,
        /// The line that miss waits for.
        line: LineAddr,
    },
}

/// Bookkeeping of outstanding misses with run-ahead limits.
///
/// # Example
///
/// ```
/// use ulmt_cpu::{MissWindow, WindowVerdict};
/// use ulmt_simcore::LineAddr;
///
/// let mut w = MissWindow::new(2, 128);
/// w.issue(1, 0, LineAddr::new(7));
/// w.issue(2, 10, LineAddr::new(9));
/// // Both slots busy: the CPU must wait for miss 1 and its line.
/// assert_eq!(
///     w.check(20),
///     WindowVerdict::StallFull { id: 1, line: LineAddr::new(7) }
/// );
/// w.complete(1);
/// assert_eq!(w.check(20), WindowVerdict::Proceed);
/// ```
#[derive(Debug, Clone)]
pub struct MissWindow {
    max_pending: usize,
    rob_insns: u64,
    pending: Vec<Pending>,
}

impl MissWindow {
    /// Creates a window with `max_pending` load slots and a `rob_insns`
    /// instruction run-ahead limit.
    ///
    /// # Panics
    ///
    /// Panics if either limit is zero.
    pub fn new(max_pending: usize, rob_insns: u64) -> Self {
        assert!(
            max_pending > 0 && rob_insns > 0,
            "window limits must be positive"
        );
        MissWindow {
            max_pending,
            rob_insns,
            pending: Vec::with_capacity(max_pending),
        }
    }

    /// Records a newly issued miss `id` at instruction index `insn_idx`,
    /// waiting for `line`.
    ///
    /// # Panics
    ///
    /// Panics if the window is already full — callers must consult
    /// [`MissWindow::check`] first — and, in debug builds, if `id` is
    /// already present.
    pub fn issue(&mut self, id: u64, insn_idx: u64, line: LineAddr) {
        assert!(
            self.pending.len() < self.max_pending,
            "issuing past a full window"
        );
        debug_assert!(
            self.pending.iter().all(|p| p.id != id),
            "duplicate outstanding miss id {id}"
        );
        self.pending.push(Pending { id, insn_idx, line });
    }

    /// Marks miss `id` complete. Unknown ids are ignored (the fill may
    /// race with a push that already satisfied it).
    pub fn complete(&mut self, id: u64) {
        self.pending.retain(|p| p.id != id);
    }

    /// May the CPU, about to execute instruction `insn_count`, issue a new
    /// reference?
    pub fn check(&self, insn_count: u64) -> WindowVerdict {
        let Some(oldest) = self.pending.iter().min_by_key(|p| p.insn_idx) else {
            return WindowVerdict::Proceed;
        };
        let (id, line) = (oldest.id, oldest.line);
        if self.pending.len() >= self.max_pending {
            return WindowVerdict::StallFull { id, line };
        }
        if insn_count.saturating_sub(oldest.insn_idx) > self.rob_insns {
            return WindowVerdict::StallRob { id, line };
        }
        WindowVerdict::Proceed
    }

    /// Number of outstanding misses.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` if nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Identifier of the oldest outstanding miss.
    pub fn oldest(&self) -> Option<u64> {
        self.pending.iter().min_by_key(|p| p.insn_idx).map(|p| p.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn empty_window_proceeds() {
        let w = MissWindow::new(8, 128);
        assert_eq!(w.check(1_000_000), WindowVerdict::Proceed);
        assert!(w.is_empty());
        assert_eq!(w.oldest(), None);
    }

    #[test]
    fn rob_limit_stalls_on_oldest() {
        let mut w = MissWindow::new(8, 128);
        w.issue(7, 100, line(70));
        w.issue(8, 150, line(80));
        assert_eq!(w.check(200), WindowVerdict::Proceed);
        assert_eq!(
            w.check(229),
            WindowVerdict::StallRob {
                id: 7,
                line: line(70)
            }
        );
        w.complete(7);
        // Now the oldest is id 8 at 150: 229 - 150 < 128.
        assert_eq!(w.check(229), WindowVerdict::Proceed);
    }

    #[test]
    fn capacity_limit_stalls() {
        let mut w = MissWindow::new(2, 1_000_000);
        w.issue(1, 0, line(10));
        w.issue(2, 1, line(20));
        assert_eq!(
            w.check(2),
            WindowVerdict::StallFull {
                id: 1,
                line: line(10)
            }
        );
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn complete_unknown_id_is_noop() {
        let mut w = MissWindow::new(2, 10);
        w.issue(1, 0, line(1));
        w.complete(42);
        assert_eq!(w.len(), 1);
    }

    #[test]
    #[should_panic(expected = "full window")]
    fn issue_past_capacity_panics() {
        let mut w = MissWindow::new(1, 10);
        w.issue(1, 0, line(1));
        w.issue(2, 1, line(2));
    }

    // The duplicate check is a debug assertion.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "duplicate outstanding")]
    fn duplicate_id_panics() {
        let mut w = MissWindow::new(4, 10);
        w.issue(1, 0, line(1));
        w.issue(1, 5, line(1));
    }
}
