//! Deterministic fault injection for the simulated system.
//!
//! The paper's design is defined by how it behaves under pressure: queue 2
//! drops observations on overflow, queue 3 prefetches are squashed by
//! matching demand requests, and the Filter suppresses redundant traffic.
//! This module generates *adverse* conditions on demand so those paths can
//! be exercised deliberately instead of waiting for a workload to produce
//! them.
//!
//! A [`FaultPlan`] is seeded with a [`Pcg32`] stream and consulted at a
//! fixed set of hook points inside the system simulator (observation
//! arrival, memory-processor dispatch, DRAM channel dispatch). Because the
//! simulator itself is deterministic, the sequence of hook calls — and
//! therefore the sequence of injected faults — is a pure function of the
//! seed and the workload: two runs with the same seed inject *exactly* the
//! same faults at the same points.
//!
//! Faults never bypass the simulator's normal mechanisms. A dropped
//! observation goes through the same accounting as a queue-2 overflow; a
//! duplicated observation competes for queue-2 space like any other; a
//! delayed observation re-enters the normal delivery path later; stalls
//! and DRAM busy spikes only add latency that downstream components
//! already tolerate. Graceful degradation, not special cases.
//!
//! # Example
//!
//! ```
//! use ulmt_simcore::fault::{FaultConfig, FaultPlan, ObservationFault};
//!
//! let mut a = FaultPlan::new(FaultConfig::stress(42));
//! let mut b = FaultPlan::new(FaultConfig::stress(42));
//! for _ in 0..100 {
//!     assert_eq!(a.on_observation(), b.on_observation()); // same seed, same faults
//! }
//! assert_eq!(a.counts(), b.counts());
//! ```

use crate::rng::Pcg32;
use crate::Cycle;

/// What happens to one observation entering queue 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObservationFault {
    /// The observation is lost (routed through the queue-2 drop path).
    Drop,
    /// The observation is delivered twice (duplicate traffic; the second
    /// copy competes for queue-2 space like any other).
    Duplicate,
    /// The observation is delivered after the given extra delay.
    Delay(Cycle),
}

/// Fault-injection parameters: per-hook probabilities and magnitudes.
///
/// All probabilities are in `[0, 1]`; a disabled fault has probability 0.
/// The default configuration injects nothing — use the builder methods or
/// [`FaultConfig::stress`] to enable faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Probability an observation is dropped.
    pub drop_observation: f64,
    /// Probability an observation is duplicated.
    pub duplicate_observation: f64,
    /// Probability an observation is delayed.
    pub delay_observation: f64,
    /// Maximum extra delay for a delayed observation, in cycles.
    pub max_observation_delay: Cycle,
    /// Probability the memory processor stalls before taking an
    /// observation.
    pub memproc_stall: f64,
    /// Maximum memory-processor stall, in cycles.
    pub max_memproc_stall: Cycle,
    /// Probability a DRAM transaction hits a transient bank-busy spike.
    pub dram_busy: f64,
    /// Maximum extra bank-busy latency, in cycles.
    pub max_dram_busy: Cycle,
    /// After this many observation hooks, queue depths are halved once
    /// (clamped to 1) — a forced mid-run capacity loss.
    pub queue_reduction_after: Option<u64>,
}

impl FaultConfig {
    /// A configuration that injects nothing (all probabilities zero).
    pub fn disabled(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_observation: 0.0,
            duplicate_observation: 0.0,
            delay_observation: 0.0,
            max_observation_delay: 200,
            memproc_stall: 0.0,
            max_memproc_stall: 400,
            dram_busy: 0.0,
            max_dram_busy: 100,
            queue_reduction_after: None,
        }
    }

    /// A moderately adversarial preset: every fault class enabled at
    /// rates high enough to exercise each path on small workloads while
    /// keeping the slowdown bounded.
    pub fn stress(seed: u64) -> Self {
        FaultConfig {
            drop_observation: 0.05,
            duplicate_observation: 0.05,
            delay_observation: 0.10,
            memproc_stall: 0.05,
            dram_busy: 0.10,
            queue_reduction_after: Some(200),
            ..Self::disabled(seed)
        }
    }

    /// Reads `ULMT_FAULT_SEED` from the environment: when set to an
    /// integer, returns [`FaultConfig::stress`] with that seed; `None`
    /// when unset or unparseable.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("ULMT_FAULT_SEED").ok()?;
        raw.trim().parse::<u64>().ok().map(Self::stress)
    }

    /// Clamps every probability into `[0, 1]` so arbitrary (e.g.
    /// randomized-test) parameters can never panic the plan.
    fn sanitized(mut self) -> Self {
        let clamp = |p: f64| {
            if p.is_finite() {
                p.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        self.drop_observation = clamp(self.drop_observation);
        self.duplicate_observation = clamp(self.duplicate_observation);
        self.delay_observation = clamp(self.delay_observation);
        self.memproc_stall = clamp(self.memproc_stall);
        self.dram_busy = clamp(self.dram_busy);
        self
    }
}

/// How many faults of each class a [`FaultPlan`] injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FaultCounts {
    /// Observations dropped.
    pub dropped_observations: u64,
    /// Observations duplicated.
    pub duplicated_observations: u64,
    /// Observations delayed.
    pub delayed_observations: u64,
    /// Total extra delay injected into observations, in cycles.
    pub observation_delay_cycles: u64,
    /// Memory-processor stalls injected.
    pub memproc_stalls: u64,
    /// Total memory-processor stall cycles injected.
    pub memproc_stall_cycles: u64,
    /// Transient DRAM bank-busy spikes injected.
    pub dram_busy_events: u64,
    /// Total extra DRAM latency injected, in cycles.
    pub dram_busy_cycles: u64,
    /// Forced queue-depth reductions applied (0 or 1).
    pub queue_reductions: u64,
}

impl FaultCounts {
    /// Total number of discrete fault events injected.
    pub fn total(&self) -> u64 {
        self.dropped_observations
            + self.duplicated_observations
            + self.delayed_observations
            + self.memproc_stalls
            + self.dram_busy_events
            + self.queue_reductions
    }
}

/// A deterministic stream of fault decisions.
///
/// Hook methods are called by the simulator at fixed points; each draws
/// from the seeded [`Pcg32`] stream, so with the simulator's own
/// determinism the whole fault schedule is reproducible from the seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: Pcg32,
    observation_hooks: u64,
    reduction_pending: bool,
    counts: FaultCounts,
}

impl FaultPlan {
    /// Creates a plan from `cfg` (probabilities are clamped into `[0,1]`).
    pub fn new(cfg: FaultConfig) -> Self {
        let cfg = cfg.sanitized();
        FaultPlan {
            rng: Pcg32::seed_from_u64(cfg.seed),
            observation_hooks: 0,
            reduction_pending: cfg.queue_reduction_after.is_some(),
            counts: FaultCounts::default(),
            cfg,
        }
    }

    /// The configuration the plan was built from (after sanitization).
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Injected-fault counters so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Observation hook: decides the fate of one queue-2 observation.
    pub fn on_observation(&mut self) -> Option<ObservationFault> {
        self.observation_hooks += 1;
        // One draw decides the class via cumulative probability, so the
        // three observation faults are mutually exclusive per observation.
        let roll = self.rng.gen_f64();
        let drop_p = self.cfg.drop_observation;
        let dup_p = drop_p + self.cfg.duplicate_observation;
        let delay_p = dup_p + self.cfg.delay_observation;
        if roll < drop_p {
            self.counts.dropped_observations += 1;
            Some(ObservationFault::Drop)
        } else if roll < dup_p {
            self.counts.duplicated_observations += 1;
            Some(ObservationFault::Duplicate)
        } else if roll < delay_p {
            let max = self.cfg.max_observation_delay.max(1);
            let d = self.rng.gen_range_u64(1..max + 1);
            self.counts.delayed_observations += 1;
            self.counts.observation_delay_cycles += d;
            Some(ObservationFault::Delay(d))
        } else {
            None
        }
    }

    /// Memory-processor hook: extra cycles the processor stalls before
    /// taking the next observation (0 = no fault).
    pub fn memproc_stall(&mut self) -> Cycle {
        if self.cfg.memproc_stall > 0.0 && self.rng.gen_bool(self.cfg.memproc_stall) {
            let max = self.cfg.max_memproc_stall.max(1);
            let s = self.rng.gen_range_u64(1..max + 1);
            self.counts.memproc_stalls += 1;
            self.counts.memproc_stall_cycles += s;
            s
        } else {
            0
        }
    }

    /// DRAM dispatch hook: extra transient bank-busy latency for one
    /// transaction (0 = no fault).
    pub fn dram_busy(&mut self) -> Cycle {
        if self.cfg.dram_busy > 0.0 && self.rng.gen_bool(self.cfg.dram_busy) {
            let max = self.cfg.max_dram_busy.max(1);
            let b = self.rng.gen_range_u64(1..max + 1);
            self.counts.dram_busy_events += 1;
            self.counts.dram_busy_cycles += b;
            b
        } else {
            0
        }
    }

    /// Returns `true` exactly once, when the configured number of
    /// observation hooks has passed: the simulator then halves its queue
    /// depths (clamped to 1).
    pub fn take_queue_reduction(&mut self) -> bool {
        match self.cfg.queue_reduction_after {
            Some(after) if self.reduction_pending && self.observation_hooks >= after => {
                self.reduction_pending = false;
                self.counts.queue_reductions += 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::new(FaultConfig::stress(7));
        let mut b = FaultPlan::new(FaultConfig::stress(7));
        for _ in 0..500 {
            assert_eq!(a.on_observation(), b.on_observation());
            assert_eq!(a.memproc_stall(), b.memproc_stall());
            assert_eq!(a.dram_busy(), b.dram_busy());
            assert_eq!(a.take_queue_reduction(), b.take_queue_reduction());
        }
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().total() > 0, "stress preset injected nothing");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::new(FaultConfig::stress(1));
        let mut b = FaultPlan::new(FaultConfig::stress(2));
        let fa: Vec<_> = (0..200).map(|_| a.on_observation()).collect();
        let fb: Vec<_> = (0..200).map(|_| b.on_observation()).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        let mut p = FaultPlan::new(FaultConfig::disabled(9));
        for _ in 0..1000 {
            assert_eq!(p.on_observation(), None);
            assert_eq!(p.memproc_stall(), 0);
            assert_eq!(p.dram_busy(), 0);
            assert!(!p.take_queue_reduction());
        }
        assert_eq!(p.counts().total(), 0);
    }

    #[test]
    fn queue_reduction_fires_exactly_once() {
        let cfg = FaultConfig {
            queue_reduction_after: Some(3),
            ..FaultConfig::disabled(0)
        };
        let mut p = FaultPlan::new(cfg);
        let mut fired = 0;
        for _ in 0..10 {
            p.on_observation();
            if p.take_queue_reduction() {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
        assert_eq!(p.counts().queue_reductions, 1);
    }

    #[test]
    fn pathological_probabilities_are_sanitized() {
        let cfg = FaultConfig {
            drop_observation: 17.0,
            duplicate_observation: -3.0,
            delay_observation: f64::NAN,
            memproc_stall: f64::INFINITY,
            max_observation_delay: 0,
            max_memproc_stall: 0,
            max_dram_busy: 0,
            ..FaultConfig::disabled(3)
        };
        let mut p = FaultPlan::new(cfg);
        // Never panics, and drop probability saturated at 1.
        for _ in 0..100 {
            assert_eq!(p.on_observation(), Some(ObservationFault::Drop));
            let _ = p.memproc_stall();
            let _ = p.dram_busy();
        }
    }

    #[test]
    fn delay_magnitudes_respect_bounds() {
        let cfg = FaultConfig {
            delay_observation: 1.0,
            max_observation_delay: 8,
            ..FaultConfig::disabled(11)
        };
        let mut p = FaultPlan::new(cfg);
        for _ in 0..200 {
            match p.on_observation() {
                Some(ObservationFault::Delay(d)) => assert!((1..=8).contains(&d)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }
}
