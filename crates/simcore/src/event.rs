//! Deterministic time-ordered event queue.
//!
//! A discrete-event simulator is only reproducible if events scheduled for
//! the same cycle are dispatched in a well-defined order. [`EventQueue`]
//! guarantees FIFO order among same-cycle events: a new event goes after
//! every pending event of the same or an earlier cycle.

use crate::Cycle;

/// A time-ordered queue of events with deterministic FIFO tie-breaking.
///
/// Events pushed for the same cycle are popped in push order. This makes
/// whole-system simulations bit-reproducible across runs, which the test
/// suite and the experiment harness rely on.
///
/// The queue is a vector sorted latest first, built for the handful of
/// events a simulated machine keeps pending (on average one to seven, at
/// most a few dozen): a pop takes the last entry, and a push scans from
/// the front past the few later events and shifts the earlier ones.
///
/// # Example
///
/// ```
/// use ulmt_simcore::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(3, 'c');
/// q.push(1, 'a');
/// q.push(3, 'd');
/// assert_eq!(q.peek_time(), Some(1));
/// assert_eq!(q.pop(), Some((1, 'a')));
/// assert_eq!(q.pop(), Some((3, 'c')));
/// assert_eq!(q.pop(), Some((3, 'd')));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Pending events, latest first; the next event is the last entry,
    /// so equal times sit in reverse push order.
    events: Vec<(Cycle, E)>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { events: Vec::new() }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: Cycle, event: E) {
        let at = self
            .events
            .iter()
            .position(|&(t, _)| t <= time)
            .unwrap_or(self.events.len());
        self.events.insert(at, (time, event));
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.events.pop()
    }

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.events.last().map(|&(t, _)| t)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        for (t, e) in [(30u64, 3u32), (10, 1), (20, 2)] {
            q.push(t, e);
        }
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(7, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_remains_ordered() {
        let mut q = EventQueue::new();
        q.push(5, "a");
        q.push(1, "b");
        assert_eq!(q.pop(), Some((1, "b")));
        q.push(2, "c");
        q.push(5, "d");
        assert_eq!(q.pop(), Some((2, "c")));
        assert_eq!(q.pop(), Some((5, "a")));
        assert_eq!(q.pop(), Some((5, "d")));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, ());
        q.push(2, ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
