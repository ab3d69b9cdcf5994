//! The targeted kill: the one chaos fault the shard workers know.
//!
//! The kill is evaluated once per accepted batch, before the batch is
//! processed or acknowledged, so a killed shard never acks the
//! triggering batch — which is what lets clients treat a lost reply as
//! "safe to resubmit".

use std::sync::atomic::{AtomicBool, Ordering};

/// "Kill shard `shard` at its `batch`-th accepted batch", so recovery
/// tests can place a crash at an exact point in the stream. It fires at
/// most once per shard: its budget is a flag on the shard's slot, which
/// outlives every worker epoch, so a restarted worker cannot re-fire the
/// kill and crash-loop.
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
    /// restores across crashes). Sets the slot's `fired` flag when it
    /// fires, and never fires once the flag is set.
    pub(crate) fn fires(&self, shard: u32, seq: u64, fired: &AtomicBool) -> bool {
        self.shard == shard && seq >= self.batch && !fired.swap(true, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use crate::supervisor::ShardSlot;

    #[test]
    fn targeted_kill_fires_once_across_epochs() {
        let cfg = ServiceConfig::default();
        let kill = ServiceFaultConfig::kill(1, 5);
        let slot = ShardSlot::new(1, &cfg);
        // Epoch 0 reaches batch 5 and dies.
        for seq in 1..=4 {
            assert!(!kill.fires(1, seq, &slot.kill_fired));
        }
        assert!(kill.fires(1, 5, &slot.kill_fired));
        assert!(slot.kill_fired.load(Ordering::SeqCst));
        // Epoch 1 resumes at the same stream position against the same
        // slot flag: it is set, so the resubmitted batch does not
        // crash-loop the shard.
        for seq in 5..=20 {
            assert!(!kill.fires(1, seq, &slot.kill_fired));
        }
        assert!(slot.kill_fired.load(Ordering::SeqCst));
        // Other shards never fire it.
        let other = ShardSlot::new(0, &cfg);
        for seq in 1..=20 {
            assert!(!kill.fires(0, seq, &other.kill_fired));
        }
        assert!(!other.kill_fired.load(Ordering::SeqCst));
    }
}
