//! Cycle-stamped structured event tracing.
//!
//! Every per-event statistic of the evaluation — the Figure 9 prefetch
//! categories, queue pressure, ULMT response/occupancy, bus and DRAM
//! behavior — is an aggregate counter bumped inline somewhere in the
//! system simulator. This module records the *events themselves*, so
//! those aggregates can be independently re-derived and cross-checked
//! (see `ulmt_system::validate`), and so a run can be inspected on a
//! timeline (JSONL, or Chrome `trace_event` JSON for Perfetto).
//!
//! The design is a bounded ring buffer behind a cheap shared handle:
//!
//! * [`TraceEvent`] — a small `Copy` enum, one variant per event class;
//! * [`TraceBuffer`] — the cycle-stamped ring buffer with overwrite
//!   accounting and the machine-readable exporters;
//! * [`SharedTracer`] — a clonable `Rc<RefCell<TraceBuffer>>` handle the
//!   system simulator distributes to the FSB and memory-processor models
//!   so every component stamps into one ordered stream.
//!
//! Tracing is off by default. Components hold an `Option<SharedTracer>`
//! that is `None` unless installed, so the disabled cost is one branch
//! per hook — nothing is formatted, allocated, or stored.
//!
//! # Example
//!
//! ```
//! use ulmt_simcore::trace::{SharedTracer, TraceConfig, TraceEvent};
//! use ulmt_simcore::LineAddr;
//!
//! let tracer = SharedTracer::new(TraceConfig::with_capacity(128));
//! tracer.record(10, TraceEvent::Q3Enqueue { line: LineAddr::new(7) });
//! tracer.record(12, TraceEvent::Q3Overflow { line: LineAddr::new(8) });
//! let buf = tracer.take();
//! assert_eq!(buf.len(), 2);
//! assert_eq!(buf.count(|e| matches!(e, TraceEvent::Q3Enqueue { .. })), 1);
//! assert!(buf.to_jsonl().contains("\"ev\":\"q3_enqueue\""));
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::{Addr, Cycle, LineAddr};

/// Why the L2 rejected a pushed line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushRejectReason {
    /// The cache already held the line (`Redundant` in Figure 9).
    Present,
    /// The write-back queue held a newer copy of the line.
    Writeback,
    /// No MSHR was free to stage the fill.
    NoMshr,
    /// Every way of the target set was transaction-pending.
    SetPending,
}

impl PushRejectReason {
    /// Stable lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            PushRejectReason::Present => "present",
            PushRejectReason::Writeback => "writeback",
            PushRejectReason::NoMshr => "no_mshr",
            PushRejectReason::SetPending => "set_pending",
        }
    }
}

/// FSB traffic class as seen by the tracer (mirrors `ulmt_dram`'s
/// `TrafficClass` without the crate dependency, which would be circular).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusClass {
    /// Demand miss requests and replies.
    Demand,
    /// Memory-side prefetch pushes.
    Prefetch,
    /// Dirty-line write-backs.
    WriteBack,
}

impl BusClass {
    /// Stable lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            BusClass::Demand => "demand",
            BusClass::Prefetch => "prefetch",
            BusClass::WriteBack => "writeback",
        }
    }
}

/// One traced event. All variants are `Copy` and carry only what the
/// cross-validator and timeline views need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// The CPU picked up one workload reference.
    Ref {
        /// Byte address referenced.
        addr: Addr,
        /// `true` for a store.
        is_write: bool,
    },
    /// A demand access missed the L2 and a memory request was sent.
    L2Miss {
        /// Missing line.
        line: LineAddr,
    },
    /// A demand/processor-prefetch reply filled the L2.
    L2Fill {
        /// Filled line.
        line: LineAddr,
        /// `true` if a demand access was waiting on the fill (a miss that
        /// paid full latency — `NonPrefMisses` in Figure 9).
        demand_waiting: bool,
    },
    /// An observation entered queue 2 (or went straight to the idle ULMT).
    ObsEnqueue {
        /// Observed miss line.
        line: LineAddr,
    },
    /// An observation was dropped: queue 2 was full, so its oldest entry
    /// made room for a newer one.
    ObsDrop {
        /// Dropped line.
        line: LineAddr,
    },
    /// Queued observations were squashed because a prefetch for the same
    /// line was just issued (Section 3.2 cross-queue squashing).
    ObsSquash {
        /// Squashed line.
        line: LineAddr,
        /// How many queue-2 entries matched and were removed.
        removed: u32,
    },
    /// The ULMT processed one observation.
    UlmtStep {
        /// Observed miss line.
        line: LineAddr,
        /// Response time (cycles until the prefetch addresses were ready).
        response: Cycle,
        /// Occupancy time (cycles until the Learning step finished).
        occupancy: Cycle,
    },
    /// The Filter admitted a prefetch request.
    FilterAdmit {
        /// Admitted line.
        line: LineAddr,
    },
    /// The Filter dropped a recently-issued prefetch request.
    FilterDrop {
        /// Dropped line.
        line: LineAddr,
    },
    /// A prefetch entered queue 3 — from here on it is bus-bound.
    Q3Enqueue {
        /// Enqueued line.
        line: LineAddr,
    },
    /// A prefetch was squashed before queue 3: a demand request for the
    /// line was already queued or in flight.
    Q3SquashDemand {
        /// Squashed line.
        line: LineAddr,
    },
    /// A prefetch was squashed before queue 3: the line was already
    /// queued there.
    Q3SquashDuplicate {
        /// Squashed line.
        line: LineAddr,
    },
    /// A queued prefetch was removed from queue 3 by a matching demand
    /// miss arriving at the North Bridge.
    Q3SquashByDemand {
        /// Squashed line.
        line: LineAddr,
    },
    /// A prefetch was dropped because queue 3 was full.
    Q3Overflow {
        /// Dropped line.
        line: LineAddr,
    },
    /// A queued prefetch won arbitration and started its DRAM access.
    PushDispatch {
        /// Dispatched line.
        line: LineAddr,
        /// DRAM channel serving it.
        channel: u32,
    },
    /// A pushed line arrived at the L2 and was installed as prefetched.
    PushAccept {
        /// Installed line.
        line: LineAddr,
    },
    /// A pushed line arrived at the L2 and stole a pending MSHR.
    PushStoleMshr {
        /// The line.
        line: LineAddr,
        /// `true` if a demand access was waiting (`DelayedHit`, Figure 9).
        demand_waiting: bool,
        /// `true` if the line was installed with the prefetched bit set
        /// (the stolen MSHR belonged to a processor-side prefetch).
        installed_prefetched: bool,
    },
    /// A pushed line arrived at the L2 and was rejected.
    PushReject {
        /// The line.
        line: LineAddr,
        /// Why it was rejected.
        reason: PushRejectReason,
    },
    /// First demand touch of a pushed line (`Hit`, Figure 9).
    PushFirstTouch {
        /// The line.
        line: LineAddr,
    },
    /// A pushed line was evicted before any demand touch (`Replaced`).
    PushReplaced {
        /// The evicted line.
        line: LineAddr,
    },
    /// A demand request found queue 1 at or beyond its configured depth.
    DemandOverflow {
        /// The line whose arrival observed the overflow.
        line: LineAddr,
    },
    /// One DRAM core access.
    DramAccess {
        /// Accessed line.
        line: LineAddr,
        /// Channel serving it.
        channel: u32,
        /// `true` if the open row buffer was hit.
        row_hit: bool,
    },
    /// The FSB was occupied for one request or data phase.
    FsbTransfer {
        /// Traffic class occupying the bus.
        class: BusClass,
        /// Bus-busy cycles of the phase.
        busy: Cycle,
    },
    /// End-of-run snapshot of state that never resolved: what is still
    /// sitting in queues or on the bus when the simulation drains.
    RunEnd {
        /// Observations left in queue 2.
        queue2: u32,
        /// Prefetches left in queue 3.
        queue3: u32,
        /// Pushes dispatched to DRAM whose L2 arrival never happened.
        pushes_in_flight: u32,
    },
}

impl TraceEvent {
    /// Stable snake_case event name used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Ref { .. } => "ref",
            TraceEvent::L2Miss { .. } => "l2_miss",
            TraceEvent::L2Fill { .. } => "l2_fill",
            TraceEvent::ObsEnqueue { .. } => "obs_enqueue",
            TraceEvent::ObsDrop { .. } => "obs_drop",
            TraceEvent::ObsSquash { .. } => "obs_squash",
            TraceEvent::UlmtStep { .. } => "ulmt_step",
            TraceEvent::FilterAdmit { .. } => "filter_admit",
            TraceEvent::FilterDrop { .. } => "filter_drop",
            TraceEvent::Q3Enqueue { .. } => "q3_enqueue",
            TraceEvent::Q3SquashDemand { .. } => "q3_squash_demand",
            TraceEvent::Q3SquashDuplicate { .. } => "q3_squash_duplicate",
            TraceEvent::Q3SquashByDemand { .. } => "q3_squash_by_demand",
            TraceEvent::Q3Overflow { .. } => "q3_overflow",
            TraceEvent::PushDispatch { .. } => "push_dispatch",
            TraceEvent::PushAccept { .. } => "push_accept",
            TraceEvent::PushStoleMshr { .. } => "push_stole_mshr",
            TraceEvent::PushReject { .. } => "push_reject",
            TraceEvent::PushFirstTouch { .. } => "push_first_touch",
            TraceEvent::PushReplaced { .. } => "push_replaced",
            TraceEvent::DemandOverflow { .. } => "demand_overflow",
            TraceEvent::DramAccess { .. } => "dram_access",
            TraceEvent::FsbTransfer { .. } => "fsb_transfer",
            TraceEvent::RunEnd { .. } => "run_end",
        }
    }

    /// Perfetto lane (`tid`) grouping related events on one timeline row.
    fn lane(&self) -> u32 {
        match self {
            TraceEvent::Ref { .. }
            | TraceEvent::L2Miss { .. }
            | TraceEvent::L2Fill { .. }
            | TraceEvent::PushAccept { .. }
            | TraceEvent::PushStoleMshr { .. }
            | TraceEvent::PushReject { .. }
            | TraceEvent::PushFirstTouch { .. }
            | TraceEvent::PushReplaced { .. }
            | TraceEvent::RunEnd { .. } => 0,
            TraceEvent::ObsEnqueue { .. }
            | TraceEvent::ObsDrop { .. }
            | TraceEvent::ObsSquash { .. }
            | TraceEvent::UlmtStep { .. } => 1,
            TraceEvent::FilterAdmit { .. }
            | TraceEvent::FilterDrop { .. }
            | TraceEvent::Q3Enqueue { .. }
            | TraceEvent::Q3SquashDemand { .. }
            | TraceEvent::Q3SquashDuplicate { .. }
            | TraceEvent::Q3SquashByDemand { .. }
            | TraceEvent::Q3Overflow { .. } => 2,
            TraceEvent::PushDispatch { .. }
            | TraceEvent::DemandOverflow { .. }
            | TraceEvent::DramAccess { .. }
            | TraceEvent::FsbTransfer { .. } => 3,
        }
    }

    /// Appends the event's payload as JSON object fields (no braces, no
    /// leading comma) onto `out`.
    fn write_json_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        match *self {
            TraceEvent::Ref { addr, is_write } => {
                let _ = write!(out, "\"addr\":{},\"write\":{is_write}", addr.raw());
            }
            TraceEvent::L2Miss { line }
            | TraceEvent::ObsEnqueue { line }
            | TraceEvent::ObsDrop { line }
            | TraceEvent::FilterAdmit { line }
            | TraceEvent::FilterDrop { line }
            | TraceEvent::Q3Enqueue { line }
            | TraceEvent::Q3SquashDemand { line }
            | TraceEvent::Q3SquashDuplicate { line }
            | TraceEvent::Q3SquashByDemand { line }
            | TraceEvent::Q3Overflow { line }
            | TraceEvent::PushAccept { line }
            | TraceEvent::PushFirstTouch { line }
            | TraceEvent::PushReplaced { line }
            | TraceEvent::DemandOverflow { line } => {
                let _ = write!(out, "\"line\":{}", line.raw());
            }
            TraceEvent::L2Fill {
                line,
                demand_waiting,
            } => {
                let _ = write!(out, "\"line\":{},\"demand\":{demand_waiting}", line.raw());
            }
            TraceEvent::ObsSquash { line, removed } => {
                let _ = write!(out, "\"line\":{},\"removed\":{removed}", line.raw());
            }
            TraceEvent::UlmtStep {
                line,
                response,
                occupancy,
            } => {
                let _ = write!(
                    out,
                    "\"line\":{},\"response\":{response},\"occupancy\":{occupancy}",
                    line.raw()
                );
            }
            TraceEvent::PushDispatch { line, channel } => {
                let _ = write!(out, "\"line\":{},\"channel\":{channel}", line.raw());
            }
            TraceEvent::PushStoleMshr {
                line,
                demand_waiting,
                installed_prefetched,
            } => {
                let _ = write!(
                    out,
                    "\"line\":{},\"demand\":{demand_waiting},\"installed\":{installed_prefetched}",
                    line.raw()
                );
            }
            TraceEvent::PushReject { line, reason } => {
                let _ = write!(
                    out,
                    "\"line\":{},\"reason\":\"{}\"",
                    line.raw(),
                    reason.label()
                );
            }
            TraceEvent::DramAccess {
                line,
                channel,
                row_hit,
            } => {
                let _ = write!(
                    out,
                    "\"line\":{},\"channel\":{channel},\"row_hit\":{row_hit}",
                    line.raw()
                );
            }
            TraceEvent::FsbTransfer { class, busy } => {
                let _ = write!(out, "\"class\":\"{}\",\"busy\":{busy}", class.label());
            }
            TraceEvent::RunEnd {
                queue2,
                queue3,
                pushes_in_flight,
            } => {
                let _ = write!(
                    out,
                    "\"queue2\":{queue2},\"queue3\":{queue3},\"pushes_in_flight\":{pushes_in_flight}"
                );
            }
        }
    }
}

/// A [`TraceEvent`] plus the cycle it happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedEvent {
    /// Simulated cycle of the event.
    pub at: Cycle,
    /// The event.
    pub event: TraceEvent,
}

/// Tracer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events. Once full, the oldest events are
    /// overwritten (and counted, so consumers can detect truncation).
    pub capacity: usize,
}

impl TraceConfig {
    /// Default ring capacity: 1 Mi events (~40 MB), enough for every
    /// small/mid-profile run to trace without truncation.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A configuration with an explicit ring capacity (clamped to ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig {
            capacity: capacity.max(1),
        }
    }

    /// Reads the `ULMT_TRACE` environment variable: unset, empty, or `0`
    /// disables tracing (`None`); `1`/`on` enables it at the default
    /// capacity; any other integer sets the ring capacity in events.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("ULMT_TRACE").ok()?;
        let raw = raw.trim();
        match raw {
            "" | "0" | "off" => None,
            "1" | "on" => Some(Self::default()),
            other => other
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 1)
                .map(Self::with_capacity),
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

/// Cycle-stamped bounded ring buffer of traced events.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: VecDeque<TracedEvent>,
    capacity: usize,
    overwritten: u64,
    total: u64,
}

impl TraceBuffer {
    /// Creates an empty buffer with the configured ring capacity.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceBuffer {
            // Lazily grown: huge default capacities should not allocate
            // 40 MB for a run that emits a thousand events.
            events: VecDeque::new(),
            capacity: cfg.capacity.max(1),
            overwritten: 0,
            total: 0,
        }
    }

    /// Appends one event, overwriting the oldest once the ring is full.
    pub fn record(&mut self, at: Cycle, event: TraceEvent) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.overwritten += 1;
        }
        self.events.push_back(TracedEvent { at, event });
        self.total += 1;
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing has been recorded (or everything was drained).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events lost to ring overwrite. A consumer that needs the *complete*
    /// stream (e.g. the trace/counter cross-validator) must check this is
    /// zero.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Total events ever recorded (held + overwritten).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterates the held events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TracedEvent> {
        self.events.iter()
    }

    /// Counts held events matching `pred`.
    pub fn count(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> u64 {
        self.events.iter().filter(|e| pred(&e.event)).count() as u64
    }

    /// Renders the buffer as JSON Lines: one `{"at":..,"ev":"..",..}`
    /// object per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.events.len() * 48);
        for e in &self.events {
            let _ = write!(out, "{{\"at\":{},\"ev\":\"{}\"", e.at, e.event.name());
            let mut fields = String::new();
            e.event.write_json_fields(&mut fields);
            if !fields.is_empty() {
                out.push(',');
                out.push_str(&fields);
            }
            out.push_str("}\n");
        }
        out
    }

    /// Renders the buffer in Chrome `trace_event` JSON (the format
    /// Perfetto and `chrome://tracing` load). Each event becomes a
    /// thread-scoped instant event whose `ts` is the simulated cycle
    /// (displayed as microseconds); related event classes share a lane.
    pub fn to_chrome_trace(&self) -> String {
        use std::fmt::Write as _;
        let lanes = [
            (0, "cpu / L2"),
            (1, "queue2 / ULMT"),
            (2, "filter / queue3"),
            (3, "NB / DRAM / FSB"),
        ];
        let mut out = String::with_capacity(self.events.len() * 96 + 512);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (tid, name) in lanes {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        for e in &self.events {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{}",
                e.event.name(),
                e.event.lane(),
                e.at
            );
            let mut fields = String::new();
            e.event.write_json_fields(&mut fields);
            if fields.is_empty() {
                out.push('}');
            } else {
                let _ = write!(out, ",\"args\":{{{fields}}}}}");
            }
        }
        out.push_str("]}\n");
        out
    }
}

/// A clonable handle to one shared [`TraceBuffer`].
///
/// The system simulator installs clones of one handle into the FSB and
/// memory-processor models so every component writes into a single
/// time-ordered stream. Cloning is an `Rc` bump; recording is a
/// `RefCell` borrow. The handle is deliberately *not* `Send`: a tracer
/// belongs to exactly one single-threaded simulation.
#[derive(Debug, Clone)]
pub struct SharedTracer(Rc<RefCell<TraceBuffer>>);

impl SharedTracer {
    /// Creates a tracer with an empty buffer.
    pub fn new(cfg: TraceConfig) -> Self {
        SharedTracer(Rc::new(RefCell::new(TraceBuffer::new(cfg))))
    }

    /// Records one event.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from within [`SharedTracer::with`].
    pub fn record(&self, at: Cycle, event: TraceEvent) {
        self.0.borrow_mut().record(at, event);
    }

    /// Runs `f` with a shared view of the buffer.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly while recording.
    pub fn with<R>(&self, f: impl FnOnce(&TraceBuffer) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Takes the buffer out of the handle, leaving an empty one (with the
    /// same capacity) behind for any remaining clones.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly while recording.
    pub fn take(&self) -> TraceBuffer {
        let mut buf = self.0.borrow_mut();
        let capacity = buf.capacity;
        std::mem::replace(
            &mut *buf,
            TraceBuffer::new(TraceConfig::with_capacity(capacity)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let mut buf = TraceBuffer::new(TraceConfig::with_capacity(3));
        for i in 0..5u64 {
            buf.record(i, TraceEvent::Q3Enqueue { line: line(i) });
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.overwritten(), 2);
        assert_eq!(buf.total(), 5);
        let first = buf.iter().next().expect("non-empty");
        assert_eq!(first.at, 2, "oldest two events were overwritten");
    }

    #[test]
    fn jsonl_one_line_per_event_with_fields() {
        let mut buf = TraceBuffer::new(TraceConfig::default());
        buf.record(
            7,
            TraceEvent::UlmtStep {
                line: line(3),
                response: 40,
                occupancy: 120,
            },
        );
        buf.record(
            9,
            TraceEvent::PushReject {
                line: line(4),
                reason: PushRejectReason::Present,
            },
        );
        let text = buf.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"at\":7,\"ev\":\"ulmt_step\",\"line\":3,\"response\":40,\"occupancy\":120}"
        );
        assert_eq!(
            lines[1],
            "{\"at\":9,\"ev\":\"push_reject\",\"line\":4,\"reason\":\"present\"}"
        );
    }

    #[test]
    fn chrome_trace_contains_lanes_and_events() {
        let mut buf = TraceBuffer::new(TraceConfig::default());
        buf.record(5, TraceEvent::FilterDrop { line: line(1) });
        buf.record(
            6,
            TraceEvent::FsbTransfer {
                class: BusClass::Prefetch,
                busy: 33,
            },
        );
        let text = buf.to_chrome_trace();
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"name\":\"filter_drop\""));
        assert!(text.contains("\"ts\":5"));
        assert!(text.contains("\"tid\":3,\"ts\":6,\"args\":{\"class\":\"prefetch\",\"busy\":33}"));
        // Balanced braces/brackets — a cheap well-formedness check that
        // catches missed separators without a JSON parser.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn shared_tracer_take_leaves_empty_buffer() {
        let tracer = SharedTracer::new(TraceConfig::with_capacity(16));
        let second = tracer.clone();
        second.record(
            1,
            TraceEvent::Ref {
                addr: Addr::new(64),
                is_write: false,
            },
        );
        let buf = tracer.take();
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.capacity(), 16);
        assert!(second.with(|b| b.is_empty()));
        assert_eq!(second.with(|b| b.capacity()), 16);
    }

    #[test]
    fn config_from_env_parsing() {
        // Uses the raw parsing logic indirectly: from_env reads the real
        // environment, so only exercise the unset path here (the knob
        // itself is covered end-to-end by the system crate's tests).
        std::env::remove_var("ULMT_TRACE");
        assert!(TraceConfig::from_env().is_none());
    }

    #[test]
    fn every_event_serializes_under_its_name() {
        let all = [
            TraceEvent::Ref {
                addr: Addr::new(128),
                is_write: true,
            },
            TraceEvent::L2Miss { line: line(1) },
            TraceEvent::L2Fill {
                line: line(1),
                demand_waiting: true,
            },
            TraceEvent::ObsEnqueue { line: line(1) },
            TraceEvent::ObsDrop { line: line(1) },
            TraceEvent::ObsSquash {
                line: line(1),
                removed: 2,
            },
            TraceEvent::UlmtStep {
                line: line(1),
                response: 1,
                occupancy: 2,
            },
            TraceEvent::FilterAdmit { line: line(1) },
            TraceEvent::FilterDrop { line: line(1) },
            TraceEvent::Q3Enqueue { line: line(1) },
            TraceEvent::Q3SquashDemand { line: line(1) },
            TraceEvent::Q3SquashDuplicate { line: line(1) },
            TraceEvent::Q3SquashByDemand { line: line(1) },
            TraceEvent::Q3Overflow { line: line(1) },
            TraceEvent::PushDispatch {
                line: line(1),
                channel: 1,
            },
            TraceEvent::PushAccept { line: line(1) },
            TraceEvent::PushStoleMshr {
                line: line(1),
                demand_waiting: false,
                installed_prefetched: true,
            },
            TraceEvent::PushReject {
                line: line(1),
                reason: PushRejectReason::NoMshr,
            },
            TraceEvent::PushFirstTouch { line: line(1) },
            TraceEvent::PushReplaced { line: line(1) },
            TraceEvent::DemandOverflow { line: line(1) },
            TraceEvent::DramAccess {
                line: line(1),
                channel: 0,
                row_hit: true,
            },
            TraceEvent::FsbTransfer {
                class: BusClass::WriteBack,
                busy: 4,
            },
            TraceEvent::RunEnd {
                queue2: 1,
                queue3: 2,
                pushes_in_flight: 3,
            },
        ];
        let mut buf = TraceBuffer::new(TraceConfig::default());
        for (i, ev) in all.iter().enumerate() {
            buf.record(i as Cycle, *ev);
        }
        let text = buf.to_jsonl();
        for ev in &all {
            assert!(
                text.contains(&format!("\"ev\":\"{}\"", ev.name())),
                "missing {} in jsonl",
                ev.name()
            );
        }
        assert_eq!(text.lines().count(), all.len());
    }
}
