//! A shared shutdown flag.
//!
//! A [`CancelToken`] is a cheap, cloneable flag. The prefetch service
//! ([`PrefetchService::cancel_token`](crate::PrefetchService::cancel_token))
//! uses it as its shutdown signal: once cancelled, shards acknowledge
//! further batches without learning, so clients can drain and the
//! service can stop promptly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag.
///
/// Clones observe the same underlying flag; once cancelled, a token stays
/// cancelled forever.
///
/// # Example
///
/// ```
/// use ulmt_service::CancelToken;
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Returns `true` once [`CancelToken::cancel`] has been called on any
    /// clone of this token.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled() && !c.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled() && c.is_cancelled());
        c.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn visible_across_threads() {
        let t = CancelToken::new();
        let c = t.clone();
        std::thread::spawn(move || c.cancel())
            .join()
            .expect("no panic");
        assert!(t.is_cancelled());
    }
}
