//! Trace/counter cross-validation.
//!
//! A [`RunResult`] carries two independent descriptions of the same run:
//! the aggregate counters ([`PrefetchEffect`](crate::PrefetchEffect),
//! queue overflow counts, ULMT means, bus utilization) accumulated inline
//! by the simulator, and — when tracing is enabled — the cycle-stamped
//! event stream in [`RunResult::trace`]. The counters are what every
//! figure of the paper is plotted from; the trace is the evidence.
//!
//! [`validate_trace`] re-derives every re-derivable counter from the
//! event stream alone and asserts **bit-identical** equality with the
//! inline aggregates (floats are compared by bit pattern, and the ULMT
//! response/occupancy means are replayed sample-by-sample in event order
//! so even their rounding history matches). A disagreement means one of
//! the two accounting paths is wrong, and the error says which counter
//! and both values.
//!
//! # Example
//!
//! ```
//! use ulmt_simcore::TraceConfig;
//! use ulmt_system::{validate_trace, Experiment, PrefetchScheme, SystemConfig};
//! use ulmt_workloads::{App, WorkloadSpec};
//!
//! let r = Experiment::new(
//!     SystemConfig::small(),
//!     WorkloadSpec::new(App::Mcf).scale(1.0 / 32.0).iterations(2),
//! )
//! .scheme(PrefetchScheme::Repl)
//! .trace(TraceConfig::default())
//! .run();
//! let audit = validate_trace(&r).expect("trace agrees with counters");
//! assert!(audit.events > 0);
//! ```

use std::fmt;

use ulmt_simcore::stats::Mean;
use ulmt_simcore::trace::{BusClass, PushRejectReason};
use ulmt_simcore::{Cycle, TraceEvent};

use crate::result::RunResult;

/// One counter the trace and the inline aggregates disagree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Which counter disagrees (e.g. `"prefetch.issued"`).
    pub field: &'static str,
    /// The value re-derived from the event stream.
    pub from_trace: String,
    /// The value the simulator accumulated inline.
    pub from_counters: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: trace says {}, counters say {}",
            self.field, self.from_trace, self.from_counters
        )
    }
}

/// Why a trace could not be proven consistent with the counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceValidationError {
    /// The run was not traced ([`RunResult::trace`] is `None`).
    NoTrace,
    /// The ring buffer wrapped: events were lost, so no exact
    /// re-derivation is possible. Re-run with a larger
    /// [`TraceConfig`](ulmt_simcore::TraceConfig) capacity.
    Truncated {
        /// How many events were overwritten.
        overwritten: u64,
    },
    /// The trace and the counters disagree on at least one value.
    Mismatch(Vec<Mismatch>),
}

impl fmt::Display for TraceValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceValidationError::NoTrace => {
                write!(
                    f,
                    "run has no trace (enable with Experiment::trace or ULMT_TRACE=1)"
                )
            }
            TraceValidationError::Truncated { overwritten } => write!(
                f,
                "trace ring overwrote {overwritten} events; increase the trace capacity"
            ),
            TraceValidationError::Mismatch(list) => {
                write!(f, "{} counter(s) disagree with the trace:", list.len())?;
                for m in list {
                    write!(f, "\n  {m}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for TraceValidationError {}

/// What a successful validation covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceAudit {
    /// Events scanned.
    pub events: usize,
    /// Individual counter equalities checked (all held).
    pub checks: usize,
}

/// Everything the single pass over the event stream accumulates.
#[derive(Default)]
struct Tally {
    refs: u64,
    l2_miss: u64,
    l2_fill_demand_waiting: u64,
    obs_enqueue: u64,
    obs_drop: u64,
    obs_squash_removed: u64,
    ulmt_steps: u64,
    response: Mean,
    occupancy: Mean,
    filter_drop: u64,
    q3_enqueue: u64,
    q3_squash_demand: u64,
    q3_squash_duplicate: u64,
    q3_squash_by_demand: u64,
    q3_overflow: u64,
    push_accept: u64,
    stole_demand_waiting: u64,
    stole_installed: u64,
    stole_neither: u64,
    push_reject_present: u64,
    push_reject_other: u64,
    push_first_touch: u64,
    push_replaced: u64,
    demand_overflow: u64,
    dram_accesses: u64,
    dram_row_hits: u64,
    fsb_busy_total: Cycle,
    fsb_busy_prefetch: Cycle,
    run_end: Option<(u32, u32, u32)>,
    run_ends: u64,
}

impl Tally {
    fn scan(events: impl Iterator<Item = TraceEvent>) -> Self {
        let mut t = Tally::default();
        for ev in events {
            match ev {
                TraceEvent::Ref { .. } => t.refs += 1,
                TraceEvent::L2Miss { .. } => t.l2_miss += 1,
                TraceEvent::L2Fill { demand_waiting, .. } => {
                    if demand_waiting {
                        t.l2_fill_demand_waiting += 1;
                    }
                }
                TraceEvent::ObsEnqueue { .. } => t.obs_enqueue += 1,
                TraceEvent::ObsDrop { .. } => t.obs_drop += 1,
                TraceEvent::ObsSquash { removed, .. } => t.obs_squash_removed += u64::from(removed),
                TraceEvent::UlmtStep {
                    response,
                    occupancy,
                    ..
                } => {
                    t.ulmt_steps += 1;
                    // Replayed exactly as the memory processor sampled
                    // them, in the same order: the resulting mean is
                    // bit-identical, not approximately equal.
                    t.response.add(response as f64);
                    t.occupancy.add(occupancy as f64);
                }
                TraceEvent::FilterAdmit { .. } => {}
                TraceEvent::FilterDrop { .. } => t.filter_drop += 1,
                TraceEvent::Q3Enqueue { .. } => t.q3_enqueue += 1,
                TraceEvent::Q3SquashDemand { .. } => t.q3_squash_demand += 1,
                TraceEvent::Q3SquashDuplicate { .. } => t.q3_squash_duplicate += 1,
                TraceEvent::Q3SquashByDemand { .. } => t.q3_squash_by_demand += 1,
                TraceEvent::Q3Overflow { .. } => t.q3_overflow += 1,
                TraceEvent::PushDispatch { .. } => {}
                TraceEvent::PushAccept { .. } => t.push_accept += 1,
                TraceEvent::PushStoleMshr {
                    demand_waiting,
                    installed_prefetched,
                    ..
                } => match (demand_waiting, installed_prefetched) {
                    (true, _) => t.stole_demand_waiting += 1,
                    (false, true) => t.stole_installed += 1,
                    (false, false) => t.stole_neither += 1,
                },
                TraceEvent::PushReject { reason, .. } => {
                    if reason == PushRejectReason::Present {
                        t.push_reject_present += 1;
                    } else {
                        t.push_reject_other += 1;
                    }
                }
                TraceEvent::PushFirstTouch { .. } => t.push_first_touch += 1,
                TraceEvent::PushReplaced { .. } => t.push_replaced += 1,
                TraceEvent::DemandOverflow { .. } => t.demand_overflow += 1,
                TraceEvent::DramAccess { row_hit, .. } => {
                    t.dram_accesses += 1;
                    if row_hit {
                        t.dram_row_hits += 1;
                    }
                }
                TraceEvent::FsbTransfer { class, busy } => {
                    t.fsb_busy_total += busy;
                    if class == BusClass::Prefetch {
                        t.fsb_busy_prefetch += busy;
                    }
                }
                TraceEvent::RunEnd {
                    queue2,
                    queue3,
                    pushes_in_flight,
                } => {
                    t.run_ends += 1;
                    t.run_end = Some((queue2, queue3, pushes_in_flight));
                }
            }
        }
        t
    }
}

/// Collects counter comparisons, remembering every disagreement.
struct Checker {
    checks: usize,
    mismatches: Vec<Mismatch>,
}

impl Checker {
    fn new() -> Self {
        Checker {
            checks: 0,
            mismatches: Vec::new(),
        }
    }

    fn eq_u64(&mut self, field: &'static str, from_trace: u64, from_counters: u64) {
        self.checks += 1;
        if from_trace != from_counters {
            self.mismatches.push(Mismatch {
                field,
                from_trace: from_trace.to_string(),
                from_counters: from_counters.to_string(),
            });
        }
    }

    /// Bit-pattern equality: `-0.0 != 0.0` and `NaN == NaN` by design —
    /// this is an identity check, not a numeric tolerance.
    fn eq_f64(&mut self, field: &'static str, from_trace: f64, from_counters: f64) {
        self.checks += 1;
        if from_trace.to_bits() != from_counters.to_bits() {
            self.mismatches.push(Mismatch {
                field,
                from_trace: format!("{from_trace:?} ({:#018x})", from_trace.to_bits()),
                from_counters: format!("{from_counters:?} ({:#018x})", from_counters.to_bits()),
            });
        }
    }
}

/// Re-derives every re-derivable [`RunResult`] counter from the event
/// trace and checks bit-identical agreement with the inline aggregates.
///
/// On success, returns how much was checked. Fails with
/// [`TraceValidationError::NoTrace`] if the run was not traced, with
/// [`TraceValidationError::Truncated`] if the ring wrapped (lost events
/// make exact re-derivation impossible), and with
/// [`TraceValidationError::Mismatch`] listing every disagreeing counter
/// otherwise.
pub fn validate_trace(result: &RunResult) -> Result<TraceAudit, TraceValidationError> {
    let buf = result.trace.as_ref().ok_or(TraceValidationError::NoTrace)?;
    if buf.overwritten() > 0 {
        return Err(TraceValidationError::Truncated {
            overwritten: buf.overwritten(),
        });
    }
    let t = Tally::scan(buf.iter().map(|e| e.event));
    let mut c = Checker::new();

    // The end-of-run snapshot is emitted exactly once, by `finish`.
    c.eq_u64("run_end events", t.run_ends, 1);
    let (q2_end, q3_end, pushes_end) = t.run_end.unwrap_or((0, 0, 0));

    // Headline counts.
    c.eq_u64("refs", t.refs, result.refs);
    c.eq_u64("l2_misses", t.l2_miss, result.l2_misses);
    c.eq_u64(
        "demand_q_overflow",
        t.demand_overflow,
        result.demand_q_overflow,
    );
    c.eq_u64(
        "prefetch_q_overflow",
        t.q3_overflow,
        result.prefetch_q_overflow,
    );
    c.eq_u64("filter_dropped", t.filter_drop, result.filter_dropped);
    c.eq_u64(
        "observations_dropped",
        t.obs_drop,
        result.observations_dropped,
    );

    // Figure 9 bookkeeping. A stolen MSHR always belonged to either a
    // waiting demand access or a processor-side prefetch; anything else
    // would leak a push out of the accounting.
    c.eq_u64("push_stole_mshr (untracked)", t.stole_neither, 0);
    let p = &result.prefetch;
    c.eq_u64("prefetch.issued", t.q3_enqueue, p.issued);
    c.eq_u64("prefetch.hits", t.push_first_touch, p.hits);
    c.eq_u64(
        "prefetch.delayed_hits",
        t.stole_demand_waiting,
        p.delayed_hits,
    );
    c.eq_u64(
        "prefetch.non_pref_misses",
        t.l2_fill_demand_waiting,
        p.non_pref_misses,
    );
    c.eq_u64(
        "prefetch.accepted",
        t.push_accept + t.stole_installed,
        p.accepted,
    );
    c.eq_u64("prefetch.replaced", t.push_replaced, p.replaced);
    c.eq_u64("prefetch.redundant", t.push_reject_present, p.redundant);
    c.eq_u64(
        "prefetch.dropped_other",
        t.push_reject_other,
        p.dropped_other,
    );
    c.eq_u64("prefetch.squashed_filter", t.filter_drop, p.squashed_filter);
    c.eq_u64(
        "prefetch.squashed_demand",
        t.q3_squash_demand,
        p.squashed_demand,
    );
    c.eq_u64(
        "prefetch.squashed_duplicate",
        t.q3_squash_duplicate,
        p.squashed_duplicate,
    );
    c.eq_u64(
        "prefetch.squashed_at_nb",
        t.q3_squash_by_demand,
        p.squashed_at_nb,
    );
    c.eq_u64(
        "prefetch.inflight_at_end",
        u64::from(q3_end) + u64::from(pushes_end),
        p.inflight_at_end,
    );
    // `accepted == hits + replaced + untouched_at_end`, so the trace pins
    // down the lines still resident-and-untouched at drain time too.
    c.eq_u64(
        "prefetch.untouched_at_end",
        (t.push_accept + t.stole_installed).saturating_sub(t.push_first_touch + t.push_replaced),
        p.untouched_at_end,
    );
    // Queue-3 conservation, from the trace alone: everything that entered
    // queue 3 either arrived at the L2 (as a steal, accept, or reject),
    // was squashed by a demand miss at the North Bridge, or never
    // resolved.
    c.eq_u64(
        "queue3 conservation",
        t.q3_enqueue,
        t.stole_demand_waiting
            + t.stole_installed
            + t.push_accept
            + t.push_reject_present
            + t.push_reject_other
            + t.q3_squash_by_demand
            + u64::from(q3_end)
            + u64::from(pushes_end),
    );
    // Queue-2 conservation: every enqueued observation was processed,
    // dropped by overflow, squashed by an issued prefetch, or left in the
    // queue.
    c.eq_u64(
        "queue2 conservation",
        t.obs_enqueue,
        t.ulmt_steps + t.obs_drop + t.obs_squash_removed + u64::from(q2_end),
    );

    // ULMT execution statistics, replayed sample-by-sample.
    match &result.ulmt {
        Some(u) => {
            c.eq_u64("ulmt.steps", t.ulmt_steps, u.steps);
            c.eq_u64(
                "ulmt.dropped_observations",
                t.obs_drop,
                u.dropped_observations,
            );
            c.eq_u64(
                "ulmt.response.count",
                t.response.count(),
                u.response.count(),
            );
            c.eq_f64("ulmt.response.mean", t.response.mean(), u.response.mean());
            c.eq_u64(
                "ulmt.occupancy.count",
                t.occupancy.count(),
                u.occupancy.count(),
            );
            c.eq_f64(
                "ulmt.occupancy.mean",
                t.occupancy.mean(),
                u.occupancy.mean(),
            );
        }
        None => {
            c.eq_u64("ulmt.steps (no ULMT)", t.ulmt_steps, 0);
            c.eq_u64("obs_enqueue (no ULMT)", t.obs_enqueue, 0);
        }
    }

    // Bus and DRAM, recomputed with the same formulas the simulator uses.
    let elapsed = result.exec_cycles.max(1);
    c.eq_f64(
        "fsb_utilization",
        t.fsb_busy_total as f64 / elapsed as f64,
        result.fsb_utilization,
    );
    c.eq_f64(
        "fsb_prefetch_utilization",
        t.fsb_busy_prefetch as f64 / elapsed as f64,
        result.fsb_prefetch_utilization,
    );
    let row_hit_ratio = if t.dram_accesses == 0 {
        0.0
    } else {
        t.dram_row_hits as f64 / t.dram_accesses as f64
    };
    c.eq_f64(
        "dram_row_hit_ratio",
        row_hit_ratio,
        result.dram_row_hit_ratio,
    );

    if c.mismatches.is_empty() {
        Ok(TraceAudit {
            events: buf.len(),
            checks: c.checks,
        })
    } else {
        Err(TraceValidationError::Mismatch(c.mismatches))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, PrefetchScheme, SystemConfig};
    use ulmt_simcore::TraceConfig;
    use ulmt_workloads::{App, WorkloadSpec};

    fn traced(scheme: PrefetchScheme) -> RunResult {
        Experiment::new(
            SystemConfig::small(),
            WorkloadSpec::new(App::Mcf).scale(1.0 / 32.0).iterations(2),
        )
        .scheme(scheme)
        .trace(TraceConfig::default())
        .run()
    }

    #[test]
    fn untraced_run_reports_no_trace() {
        let r = Experiment::new(
            SystemConfig::small(),
            WorkloadSpec::new(App::Tree).scale(1.0 / 16.0),
        )
        .run();
        assert_eq!(validate_trace(&r), Err(TraceValidationError::NoTrace));
    }

    #[test]
    fn truncated_trace_is_rejected() {
        let mut r = traced(PrefetchScheme::Repl);
        let full = r.trace.as_ref().unwrap().len();
        assert!(full > 8, "trace too small to truncate meaningfully");
        let mut small = ulmt_simcore::TraceBuffer::new(TraceConfig::with_capacity(8));
        for e in r.trace.as_ref().unwrap().iter() {
            small.record(e.at, e.event);
        }
        r.trace = Some(small);
        match validate_trace(&r) {
            Err(TraceValidationError::Truncated { overwritten }) => {
                assert_eq!(overwritten, full as u64 - 8);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn validator_catches_a_cooked_counter() {
        let mut r = traced(PrefetchScheme::Repl);
        r.prefetch.issued += 1;
        let err = validate_trace(&r).unwrap_err();
        let TraceValidationError::Mismatch(list) = &err else {
            panic!("expected Mismatch, got {err:?}");
        };
        assert!(list.iter().any(|m| m.field == "prefetch.issued"), "{err}");
        // The queue-3 conservation identity is internal to the trace, so
        // cooking only the counter must not trip it.
        assert!(
            list.iter().all(|m| m.field != "queue3 conservation"),
            "{err}"
        );
    }

    #[test]
    fn nopref_trace_validates() {
        let audit = validate_trace(&traced(PrefetchScheme::NoPref)).expect("consistent");
        assert!(audit.events > 0);
        assert!(audit.checks >= 29);
    }
}
