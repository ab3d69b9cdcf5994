//! Deterministic chaos injection for the shard workers.
//!
//! Faults are evaluated once per accepted batch, before the batch is
//! processed or acknowledged, so a killed shard never acks the
//! triggering batch — which is what lets clients treat a lost reply as
//! "safe to resubmit". The schedule is a pure function of a seed.

use std::sync::atomic::{AtomicU64, Ordering};

use ulmt_simcore::{Cycle, Pcg32};

/// A fault injected into a shard worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFault {
    /// The shard worker dies by panic (caught by the supervisor).
    KillShard,
    /// The shard consumes this batch slowly: the given extra virtual
    /// cycles are added to its clock before processing.
    SlowConsumer(Cycle),
}

/// Parameters of the service-level chaos schedule.
///
/// Kill is a **one-shot, targeted** fault ("kill shard S at its N-th
/// accepted batch") so chaos tests can place a crash at an exact, seeded
/// point in the stream; its once-only budget lives in the shared
/// [`ServiceFaultState`] so a restarted worker cannot re-fire the same
/// fault and crash-loop. Slow-consumer is probabilistic per batch, drawn
/// from a [`Pcg32`] stream seeded by `(seed, shard, epoch)` — fully
/// deterministic for a deterministic restart sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceFaultConfig {
    /// Seed of the per-shard fault streams.
    pub seed: u64,
    /// Kill this shard... (None = never kill).
    pub kill_shard: Option<u32>,
    /// ...when it accepts its batch with this 1-based index.
    pub kill_at_batch: u64,
    /// Per-batch probability of a slow-consumer stall, in `[0, 1]`.
    pub slow_consumer: f64,
    /// Maximum slow-consumer stall, in virtual cycles.
    pub max_slow_cycles: Cycle,
}

impl ServiceFaultConfig {
    /// A schedule that injects nothing.
    pub fn disabled(seed: u64) -> Self {
        ServiceFaultConfig {
            seed,
            kill_shard: None,
            kill_at_batch: 1,
            slow_consumer: 0.0,
            max_slow_cycles: 64,
        }
    }

    /// Kill `shard` at its `batch`-th accepted batch (1-based).
    pub fn kill(mut self, shard: u32, batch: u64) -> Self {
        self.kill_shard = Some(shard);
        self.kill_at_batch = batch.max(1);
        self
    }

    /// Enable probabilistic slow-consumer stalls.
    pub fn slow(mut self, probability: f64, max_cycles: Cycle) -> Self {
        self.slow_consumer = probability;
        self.max_slow_cycles = max_cycles.max(1);
        self
    }

    fn sanitized(mut self) -> Self {
        self.slow_consumer = if self.slow_consumer.is_finite() {
            self.slow_consumer.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self
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

/// The per-worker-epoch view of a [`ServiceFaultConfig`] schedule.
///
/// `on_batch` takes the shard's **absolute** accepted-batch sequence
/// number (which the supervisor restores across crashes), so the targeted
/// kill keys on a stable stream position rather than a per-epoch count.
#[derive(Debug)]
pub struct ServiceFaultPlan {
    cfg: ServiceFaultConfig,
    shard: u32,
    rng: Pcg32,
}

impl ServiceFaultPlan {
    /// A plan for one worker epoch of one shard.
    pub fn new(cfg: ServiceFaultConfig, shard: u32, epoch: u64) -> Self {
        let cfg = cfg.sanitized();
        let stream_seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((shard as u64) << 32 | epoch);
        ServiceFaultPlan {
            cfg,
            shard,
            rng: Pcg32::seed_from_u64(stream_seed),
        }
    }

    /// Decides the fate of the batch with absolute sequence number `seq`
    /// (1-based; the next batch this shard would accept). The targeted
    /// kill consults the shared `state` budget so it fires at most once
    /// per shard across all epochs.
    pub fn on_batch(&mut self, seq: u64, state: &ServiceFaultState) -> Option<ServiceFault> {
        if self.cfg.kill_shard == Some(self.shard)
            && seq >= self.cfg.kill_at_batch
            && state.try_fire()
        {
            return Some(ServiceFault::KillShard);
        }
        if self.cfg.slow_consumer > 0.0 && self.rng.gen_bool(self.cfg.slow_consumer) {
            let max = self.cfg.max_slow_cycles.max(1);
            return Some(ServiceFault::SlowConsumer(
                self.rng.gen_range_u64(1..max + 1),
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targeted_kill_fires_once_across_epochs() {
        let cfg = ServiceFaultConfig::disabled(3).kill(1, 5);
        let state = ServiceFaultState::new();
        // Epoch 0 reaches batch 5 and dies.
        let mut plan = ServiceFaultPlan::new(cfg, 1, 0);
        for seq in 1..=4 {
            assert_eq!(plan.on_batch(seq, &state), None);
        }
        assert_eq!(plan.on_batch(5, &state), Some(ServiceFault::KillShard));
        assert_eq!(state.kills_fired(), 1);
        // Epoch 1 resumes at the same stream position: the budget is
        // spent, so the resubmitted batch does not crash-loop the shard.
        let mut plan = ServiceFaultPlan::new(cfg, 1, 1);
        for seq in 5..=20 {
            assert_eq!(plan.on_batch(seq, &state), None);
        }
        assert_eq!(state.kills_fired(), 1);
        // Other shards never fire it.
        let mut other = ServiceFaultPlan::new(cfg, 0, 0);
        assert_eq!(other.on_batch(5, &ServiceFaultState::new()), None);
    }

    #[test]
    fn slow_consumer_is_seed_deterministic_and_bounded() {
        let cfg = ServiceFaultConfig::disabled(11).slow(0.5, 16);
        let state = ServiceFaultState::new();
        let mut a = ServiceFaultPlan::new(cfg, 2, 0);
        let mut b = ServiceFaultPlan::new(cfg, 2, 0);
        let mut stalls = 0u64;
        for seq in 1..=400 {
            let fa = a.on_batch(seq, &state);
            assert_eq!(fa, b.on_batch(seq, &state));
            if let Some(ServiceFault::SlowConsumer(c)) = fa {
                assert!((1..=16).contains(&c));
                stalls += 1;
            }
        }
        assert!(stalls > 0, "p=0.5 over 400 batches must stall sometimes");
        // A different epoch draws a different (still deterministic) stream.
        let mut c = ServiceFaultPlan::new(cfg, 2, 1);
        let diverged = (1..=400).any(|seq| c.on_batch(seq, &state) != b.on_batch(seq, &state));
        assert!(diverged, "epochs should not replay the same slow stream");
    }

    #[test]
    fn pathological_service_probabilities_are_sanitized() {
        let cfg = ServiceFaultConfig::disabled(0).slow(f64::NAN, 0);
        let mut plan = ServiceFaultPlan::new(cfg, 0, 0);
        let state = ServiceFaultState::new();
        for seq in 1..=100 {
            assert_eq!(plan.on_batch(seq, &state), None);
        }
    }
}
