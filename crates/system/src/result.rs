//! Results of one simulated run.

use std::hash::{Hash, Hasher};

use ulmt_cpu::StallBreakdown;
use ulmt_memproc::UlmtStats;
use ulmt_simcore::stats::BinnedHistogram;
use ulmt_simcore::{Cycle, FxHasher, TraceBuffer};

/// Figure 9 bookkeeping: what happened to L2 misses and pushed prefetches.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchEffect {
    /// Pushed lines later touched by a demand access — fully eliminated
    /// misses.
    pub hits: u64,
    /// Demand misses satisfied by an in-flight prefetch (the push stole
    /// the MSHR) — partially eliminated misses.
    pub delayed_hits: u64,
    /// L2 misses that paid (close to) the full latency.
    pub non_pref_misses: u64,
    /// Pushed lines evicted before any demand touch.
    pub replaced: u64,
    /// Pushes dropped on arrival because the L2 already had the line.
    pub redundant: u64,
    /// Pushes dropped for other reasons (write-back queue, MSHRs, pending
    /// set).
    pub dropped_other: u64,
    /// Prefetch requests that actually entered queue 3 and became
    /// bus-bound. Requests squashed before the queue (Filter, pending
    /// demand, duplicate, overflow) are counted in the `squashed_*` and
    /// overflow counters instead, never here.
    pub issued: u64,
    /// ULMT prefetch requests dropped by the Filter module before
    /// queue 3.
    pub squashed_filter: u64,
    /// ULMT prefetch requests squashed before queue 3 because a demand
    /// request for the line was already queued or in flight.
    pub squashed_demand: u64,
    /// ULMT prefetch requests squashed before queue 3 because the line
    /// was already queued there.
    pub squashed_duplicate: u64,
    /// Queued prefetches removed from queue 3 by a matching demand miss
    /// arriving at the North Bridge (Section 3.2 cross-queue squashing).
    pub squashed_at_nb: u64,
    /// Pushes that installed a line with the prefetched bit set (accepted
    /// pushes plus MSHR steals that left a prefetched line behind). Every
    /// accepted push ends as a hit, a replacement, or an untouched
    /// resident line: `accepted == hits + replaced + untouched_at_end`.
    pub accepted: u64,
    /// Issued prefetches still in queue 3 or between the memory
    /// controller and the L2 when the run drained.
    pub inflight_at_end: u64,
    /// Pushed lines still resident with the prefetched bit set (never
    /// demanded) when the run drained.
    pub untouched_at_end: u64,
}

impl PrefetchEffect {
    /// Coverage: fraction of the original misses fully or partially
    /// eliminated, relative to `original_misses` (a NoPref run's count).
    pub fn coverage(&self, original_misses: u64) -> f64 {
        if original_misses == 0 {
            0.0
        } else {
            (self.hits + self.delayed_hits) as f64 / original_misses as f64
        }
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme label (e.g. `"Conven4+Repl"`).
    pub scheme: String,
    /// Application name.
    pub app: String,
    /// Total execution time in cycles.
    pub exec_cycles: Cycle,
    /// Busy / UptoL2 / BeyondL2 split (Figure 7).
    pub breakdown: StallBreakdown,
    /// Demand L2 misses that reached memory.
    pub l2_misses: u64,
    /// Demand references issued by the CPU.
    pub refs: u64,
    /// Histogram of cycles between consecutive L2 misses arriving at
    /// memory (Figure 6).
    pub inter_miss: BinnedHistogram,
    /// Figure 9 categories.
    pub prefetch: PrefetchEffect,
    /// ULMT execution statistics, if a ULMT ran (Figure 10).
    pub ulmt: Option<UlmtStats>,
    /// Overall FSB utilization (Figure 11).
    pub fsb_utilization: f64,
    /// FSB utilization attributable to memory-side prefetch pushes.
    pub fsb_prefetch_utilization: f64,
    /// DRAM row-buffer hit ratio.
    pub dram_row_hit_ratio: f64,
    /// Prefetch requests dropped by the Filter module.
    pub filter_dropped: u64,
    /// Observations dropped because queue 2 was full.
    pub observations_dropped: u64,
    /// Demand-queue (queue 1) arrivals that found the queue at or beyond
    /// its configured depth.
    pub demand_q_overflow: u64,
    /// ULMT prefetches (queue 3) dropped because the queue was full.
    pub prefetch_q_overflow: u64,
    /// The cycle-stamped event trace, when tracing was enabled (via
    /// [`Experiment::trace`](crate::Experiment::trace) or the
    /// `ULMT_TRACE` environment variable). Excluded from
    /// [`RunResult::fingerprint`]: the trace *describes* the run, and
    /// `ulmt_system::validate` proves it consistent with the aggregate
    /// counters, which the fingerprint does cover.
    pub trace: Option<TraceBuffer>,
    /// Wall-clock time the host spent simulating this run, in
    /// nanoseconds. Purely a harness measurement: it is excluded from
    /// [`RunResult::fingerprint`] so that timing jitter never makes two
    /// otherwise identical runs compare unequal.
    pub wall_nanos: u64,
}

impl RunResult {
    /// Speedup of this run relative to a reference execution time.
    pub fn speedup_vs(&self, reference_cycles: Cycle) -> f64 {
        if self.exec_cycles == 0 {
            0.0
        } else {
            reference_cycles as f64 / self.exec_cycles as f64
        }
    }

    /// Simulation throughput: simulated cycles per wall-clock second.
    pub fn cycles_per_wall_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.exec_cycles as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// A 64-bit digest of every *deterministic* field of the result —
    /// everything except [`RunResult::wall_nanos`] and
    /// [`RunResult::trace`] (the trace is validated against the counters
    /// separately; hashing it here would only duplicate them and make
    /// traced and untraced runs of the same experiment compare unequal).
    /// Two runs of the same
    /// experiment produce equal fingerprints regardless of host load or
    /// how many harness workers were active; the parallel-vs-serial
    /// equivalence tests and the sweep smoke binary compare these.
    ///
    /// Floats are hashed via their exact bit patterns, so this is
    /// bit-identity, not approximate equality.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        let f = |h: &mut FxHasher, x: f64| x.to_bits().hash(h);
        self.scheme.hash(&mut h);
        self.app.hash(&mut h);
        self.exec_cycles.hash(&mut h);
        self.breakdown.busy.hash(&mut h);
        self.breakdown.upto_l2.hash(&mut h);
        self.breakdown.beyond_l2.hash(&mut h);
        self.l2_misses.hash(&mut h);
        self.refs.hash(&mut h);
        self.inter_miss.edges().hash(&mut h);
        self.inter_miss.counts().hash(&mut h);
        self.prefetch.hits.hash(&mut h);
        self.prefetch.delayed_hits.hash(&mut h);
        self.prefetch.non_pref_misses.hash(&mut h);
        self.prefetch.replaced.hash(&mut h);
        self.prefetch.redundant.hash(&mut h);
        self.prefetch.dropped_other.hash(&mut h);
        self.prefetch.issued.hash(&mut h);
        self.prefetch.squashed_filter.hash(&mut h);
        self.prefetch.squashed_demand.hash(&mut h);
        self.prefetch.squashed_duplicate.hash(&mut h);
        self.prefetch.squashed_at_nb.hash(&mut h);
        self.prefetch.accepted.hash(&mut h);
        self.prefetch.inflight_at_end.hash(&mut h);
        self.prefetch.untouched_at_end.hash(&mut h);
        self.ulmt.is_some().hash(&mut h);
        if let Some(u) = &self.ulmt {
            f(&mut h, u.response.mean());
            u.response.count().hash(&mut h);
            f(&mut h, u.occupancy.mean());
            u.occupancy.count().hash(&mut h);
            u.busy_cycles.hash(&mut h);
            u.mem_cycles.hash(&mut h);
            u.insns.hash(&mut h);
            u.steps.hash(&mut h);
            u.dropped_observations.hash(&mut h);
        }
        f(&mut h, self.fsb_utilization);
        f(&mut h, self.fsb_prefetch_utilization);
        f(&mut h, self.dram_row_hit_ratio);
        self.filter_dropped.hash(&mut h);
        self.observations_dropped.hash(&mut h);
        self.demand_q_overflow.hash(&mut h);
        self.prefetch_q_overflow.hash(&mut h);
        // A constant that keeps fingerprints equal to those recorded
        // earlier (perfbench's included), whose runs all hashed `false` here.
        false.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_math() {
        let e = PrefetchEffect {
            hits: 30,
            delayed_hits: 20,
            ..Default::default()
        };
        assert!((e.coverage(100) - 0.5).abs() < 1e-12);
        assert_eq!(e.coverage(0), 0.0);
    }

    #[test]
    fn fingerprint_ignores_wall_time_but_sees_everything_else() {
        let run = || {
            crate::Experiment::new(
                crate::SystemConfig::small(),
                ulmt_workloads::WorkloadSpec::new(ulmt_workloads::App::Tree)
                    .scale(1.0 / 16.0)
                    .iterations(2),
            )
            .scheme(crate::PrefetchScheme::Repl)
            .run()
        };
        let a = run();
        let mut b = run();
        b.wall_nanos = a.wall_nanos.wrapping_add(123_456);
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.exec_cycles += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.fsb_utilization += 1e-12;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
