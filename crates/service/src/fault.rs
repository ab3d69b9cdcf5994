//! The targeted kill: the one chaos fault the shard workers know.
//!
//! The kill is evaluated once per accepted batch, before the batch is
//! processed or acknowledged, so a killed shard never acks the
//! triggering batch — which is what lets clients treat a lost reply as
//! "safe to resubmit".

use std::sync::atomic::{AtomicU64, Ordering};

/// "Kill shard `shard` at its `batch`-th accepted batch", so recovery
/// tests can place a crash at an exact point in the stream. Its
/// once-only budget lives in the shard slot's [`ServiceFaultState`], so
/// a restarted worker cannot re-fire the kill and crash-loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceFaultConfig {
    shard: u32,
    batch: u64,
}

impl ServiceFaultConfig {
    /// Kill `shard` at its `batch`-th accepted batch (1-based).
    pub fn kill(shard: u32, batch: u64) -> Self {
        ServiceFaultConfig { shard, batch }
    }

    /// Whether `shard` dies on the batch with absolute sequence number
    /// `seq` (the next batch it would accept, which the supervisor
    /// restores across crashes). Spends `state`'s budget when it fires,
    /// so the kill fires at most once per shard slot.
    pub fn fires(&self, shard: u32, seq: u64, state: &ServiceFaultState) -> bool {
        self.shard == shard && seq >= self.batch && state.try_fire()
    }
}

/// The shared once-only budget of the targeted kill. One instance lives
/// per shard *slot* (not per worker epoch), so it survives restarts: a
/// kill that already fired stays fired for every later epoch.
#[derive(Debug, Default)]
pub struct ServiceFaultState {
    kills: AtomicU64,
}

impl ServiceFaultState {
    /// A fresh budget: nothing has fired yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Kills fired so far (0 or 1).
    pub fn kills_fired(&self) -> u64 {
        self.kills.load(Ordering::SeqCst)
    }

    fn try_fire(&self) -> bool {
        self.kills
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targeted_kill_fires_once_across_epochs() {
        let kill = ServiceFaultConfig::kill(1, 5);
        let state = ServiceFaultState::new();
        // Epoch 0 reaches batch 5 and dies.
        for seq in 1..=4 {
            assert!(!kill.fires(1, seq, &state));
        }
        assert!(kill.fires(1, 5, &state));
        assert_eq!(state.kills_fired(), 1);
        // Epoch 1 resumes at the same stream position against the same
        // slot budget: it is spent, so the resubmitted batch does not
        // crash-loop the shard.
        for seq in 5..=20 {
            assert!(!kill.fires(1, seq, &state));
        }
        assert_eq!(state.kills_fired(), 1);
        // Other shards never fire it.
        let other = ServiceFaultState::new();
        for seq in 1..=20 {
            assert!(!kill.fires(0, seq, &other));
        }
        assert_eq!(other.kills_fired(), 0);
    }
}
