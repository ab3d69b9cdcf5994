//! The event-driven full-system simulator.
//!
//! One [`SystemSim`] owns every component of Figure 3 and advances them
//! through a deterministic event queue. The main processor is the driver:
//! it consumes the workload trace, runs ahead through its miss window, and
//! blocks when the window or a dependence stalls it; memory replies and
//! ULMT pushes wake it back up.

use std::collections::VecDeque;
use std::time::Instant;

use ulmt_cache::{AccessOutcome, Cache, PrefetchOrigin, PushOutcome};
use ulmt_core::Filter;
use ulmt_cpu::conven::L1_LINE;
use ulmt_cpu::{Conven4, MissWindow, ServiceLevel, StallBreakdown, WindowVerdict};
use ulmt_dram::{Dram, Fsb, TrafficClass};
use ulmt_memproc::{FixedLatencyMemory, MemProcConfig, MemProcessor};
use ulmt_simcore::hash::{fx_map_with_capacity, fx_set_with_capacity};
use ulmt_simcore::stats::BinnedHistogram;
use ulmt_simcore::trace::{FaultKind, PushRejectReason};
use ulmt_simcore::{
    CancelToken, Cycle, EventQueue, FaultPlan, FxHashMap, FxHashSet, LineAddr, ObservationFault,
    SharedTracer, TraceEvent,
};
use ulmt_workloads::{TraceRecord, WorkloadSpec};

use crate::config::SystemConfig;
use crate::error::{AbortReason, ConfigError, SimAbort};
use crate::result::{FaultReport, PrefetchEffect, RunResult};
use crate::scheme::PrefetchScheme;

/// How many events the guarded main loop lets pass between polls of the
/// (atomic) cancellation token. Budget checks are per-event; only the
/// cross-thread flag is amortized.
pub const CANCEL_POLL_EVENTS: u32 = 256;

/// Who a memory transaction belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    /// A demand L2 miss (queue 1).
    Demand,
    /// A processor-side prefetch that missed the L2.
    CpuPrefetch,
    /// A ULMT prefetch (queue 3), delivered to the L2 as a push.
    UlmtPush,
}

#[derive(Debug)]
enum Event {
    /// The CPU may continue executing.
    CpuResume,
    /// A request arrived at the North Bridge.
    RequestAtNb { line: LineAddr, kind: ReqKind },
    /// A DRAM transaction produced its data at the memory controller.
    DramDone {
        line: LineAddr,
        kind: ReqKind,
        channel: usize,
    },
    /// Data arrived at the L2 cache (demand reply or push).
    ReplyAtL2 { line: LineAddr, kind: ReqKind },
    /// The ULMT's Prefetching step produced addresses.
    UlmtPrefetches { lines: Vec<LineAddr> },
    /// The ULMT finished its Learning step and can take the next
    /// observation.
    UlmtFree,
    /// A fault-delayed observation finally reaches queue 2.
    DelayedObservation { line: LineAddr },
    /// A DRAM channel finished its transfer slot and can start the next
    /// transaction (bank access latency overlaps with earlier transfers).
    ChannelFree { channel: usize },
}

/// What the CPU is blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockOn {
    /// A specific line's fill.
    Line(LineAddr),
    /// Any fill (used while draining at the end, or when the L2 is
    /// MSHR-blocked).
    AnyFill,
}

/// Completion state of the previous trace reference (for dependences).
#[derive(Debug, Clone, Copy)]
enum LastRef {
    None,
    Done { at: Cycle, level: ServiceLevel },
    Outstanding { line: LineAddr },
}

#[derive(Debug, Default)]
struct OutstandingLine {
    /// Miss-window ids of demand accesses waiting on this line.
    ids: Vec<u64>,
    /// L1 lines to fill when the data arrives.
    l1_fills: Vec<LineAddr>,
}

/// The full simulated machine, ready to run one workload.
pub struct SystemSim {
    cfg: SystemConfig,
    workload: Box<dyn Iterator<Item = TraceRecord>>,

    events: EventQueue<Event>,

    // --- main processor ---
    cpu_cursor: Cycle,
    insn_count: u64,
    window: MissWindow,
    breakdown: StallBreakdown,
    next_id: u64,
    id_to_line: FxHashMap<u64, LineAddr>,
    pending_record: Option<TraceRecord>,
    pending_busy_done: bool,
    blocked: Option<BlockOn>,
    block_start: Cycle,
    last_ref: LastRef,
    conven4: Option<Conven4>,
    /// `conven4`'s prefetches for the current L1 miss; reused, so a
    /// prefetching miss allocates nothing.
    cpu_prefetches: Vec<LineAddr>,
    l1: Cache,
    l2: Cache,
    outstanding: FxHashMap<LineAddr, OutstandingLine>,

    // --- memory system ---
    fsb: Fsb,
    dram: Dram,
    demand_q: VecDeque<(LineAddr, ReqKind)>,
    prefetch_q: VecDeque<LineAddr>,
    /// O(1) membership shadow of `prefetch_q` (which never holds
    /// duplicates: insertions are dup-checked, removals clear the set).
    prefetch_q_set: FxHashSet<LineAddr>,
    /// Pushes dispatched to a DRAM channel whose L2 arrival has not
    /// happened yet.
    pushes_on_bus: u64,
    channel_busy: Vec<bool>,
    inflight_dram: FxHashMap<LineAddr, ReqKind>,
    /// Push replies between the memory controller and the L2; a matching
    /// demand request is dropped and satisfied by the push stealing its
    /// MSHR.
    inflight_push_replies: FxHashSet<LineAddr>,

    // --- ULMT ---
    memproc: Option<MemProcessor>,
    table_mem: FixedLatencyMemory,
    obs_q: VecDeque<LineAddr>,
    filter: Filter,
    verbose: bool,

    // --- robustness machinery ---
    /// Deterministic fault injection, consulted at the observation,
    /// memory-processor and DRAM-dispatch hooks.
    faults: Option<FaultPlan>,
    /// Injected fault events that were routed through an existing
    /// graceful-degradation path.
    faults_absorbed: u64,
    /// Cooperative cancellation, polled in the main loop.
    cancel: Option<CancelToken>,
    /// Watchdog: abort once simulated time exceeds this many cycles.
    cycle_budget: Option<Cycle>,
    /// Cycle-stamped event tracer; `None` (the default) keeps every
    /// emission site down to one untaken branch.
    tracer: Option<SharedTracer>,

    // --- statistics ---
    refs: u64,
    l2_miss_requests: u64,
    inter_miss: BinnedHistogram,
    last_miss_at_nb: Option<Cycle>,
    effect: PrefetchEffect,
    demand_q_overflow: u64,
    prefetch_q_overflow: u64,

    finished_trace: bool,
    done: bool,
    end_time: Cycle,
    scheme_label: String,
    app_label: String,
}

impl std::fmt::Debug for SystemSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemSim")
            .field("scheme", &self.scheme_label)
            .field("app", &self.app_label)
            .field("cpu_cursor", &self.cpu_cursor)
            .field("refs", &self.refs)
            .finish()
    }
}

impl SystemSim {
    /// Builds a simulator for `workload` under `scheme`.
    ///
    /// The correlation table is sized from the workload's footprint by the
    /// Table 2 rule (smallest power of two comfortably above the distinct
    /// miss lines), scaled with the workload.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails
    /// [`SystemConfig::validate`]; use [`SystemSim::try_new`] for a
    /// recoverable error.
    pub fn new(cfg: SystemConfig, workload: &WorkloadSpec, scheme: PrefetchScheme) -> Self {
        Self::try_new(cfg, workload, scheme).unwrap_or_else(|e| panic!("invalid SystemConfig: {e}"))
    }

    /// [`SystemSim::new`] returning a typed [`ConfigError`] instead of
    /// panicking on an invalid configuration.
    pub fn try_new(
        cfg: SystemConfig,
        workload: &WorkloadSpec,
        scheme: PrefetchScheme,
    ) -> Result<Self, ConfigError> {
        let num_rows = table_rows_for(workload);
        let setup = scheme.setup(workload.app, num_rows);
        let memproc = setup.ulmt.as_ref().map(|spec| {
            let mp_cfg = MemProcConfig {
                location: setup.location,
                ..cfg.memproc
            };
            MemProcessor::new(mp_cfg, spec.build())
        });
        Self::try_from_parts_hinted(
            cfg,
            Box::new(workload.build()),
            setup.conven4,
            memproc,
            setup.verbose,
            scheme.label().to_string(),
            workload.app.name().to_string(),
            workload.footprint_lines(),
        )
    }

    /// Builds a simulator from explicit parts: any workload trace, any
    /// (optional) memory processor. This is the hook for multiprogrammed
    /// runs and hand-rolled customizations that the [`PrefetchScheme`]
    /// presets do not cover. `footprint_hint` (distinct lines the trace
    /// is expected to touch, 0 for unknown) pre-sizes the event queue and
    /// the hot-path address maps so the steady state allocates nothing.
    /// An invalid configuration is a typed [`ConfigError`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_from_parts_hinted(
        cfg: SystemConfig,
        workload: Box<dyn Iterator<Item = TraceRecord>>,
        conven4: bool,
        memproc: Option<MemProcessor>,
        verbose: bool,
        scheme_label: String,
        app_label: String,
        footprint_hint: u64,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let location = memproc
            .as_ref()
            .map(|mp| mp.config().location)
            .unwrap_or_default();
        let table_mem = FixedLatencyMemory::new(location);
        // The maps only ever hold in-flight state, so their steady-state
        // sizes are bounded by the machine, not the footprint: the miss
        // window caps demand ids, the L2 MSHRs cap outstanding lines, and
        // the NB queues cap memory transactions. The event queue scales
        // with concurrent activity; larger footprints sustain more of it,
        // so let the hint raise its initial capacity (bounded — this is an
        // optimization, never a multi-MB up-front allocation).
        let inflight_cap = cfg.queues.demand + cfg.queues.prefetch + cfg.dram.channels;
        let event_cap = 1024usize.max((footprint_hint as usize / 4).min(1 << 14));
        Ok(SystemSim {
            workload,
            events: EventQueue::with_capacity(event_cap),
            cpu_cursor: 0,
            insn_count: 0,
            window: MissWindow::new(cfg.cpu.max_pending_loads, cfg.cpu.rob_insns),
            breakdown: StallBreakdown::new(),
            next_id: 0,
            id_to_line: fx_map_with_capacity(cfg.cpu.max_pending_loads),
            pending_record: None,
            pending_busy_done: false,
            blocked: None,
            block_start: 0,
            last_ref: LastRef::None,
            conven4: conven4.then(Conven4::table4_default),
            cpu_prefetches: Vec::new(),
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            outstanding: fx_map_with_capacity(cfg.l2.mshrs),
            fsb: Fsb::new(cfg.fsb),
            dram: Dram::new(cfg.dram),
            demand_q: VecDeque::with_capacity(cfg.queues.demand),
            prefetch_q: VecDeque::with_capacity(cfg.queues.prefetch),
            prefetch_q_set: fx_set_with_capacity(cfg.queues.prefetch),
            pushes_on_bus: 0,
            channel_busy: vec![false; cfg.dram.channels],
            inflight_dram: fx_map_with_capacity(inflight_cap),
            inflight_push_replies: fx_set_with_capacity(cfg.queues.prefetch),
            memproc,
            table_mem,
            obs_q: VecDeque::with_capacity(cfg.queues.observation),
            filter: Filter::new(cfg.filter_entries),
            verbose,
            faults: None,
            faults_absorbed: 0,
            cancel: None,
            cycle_budget: None,
            tracer: None,
            refs: 0,
            l2_miss_requests: 0,
            inter_miss: BinnedHistogram::inter_miss(),
            last_miss_at_nb: None,
            effect: PrefetchEffect::default(),
            demand_q_overflow: 0,
            prefetch_q_overflow: 0,
            finished_trace: false,
            done: false,
            end_time: 0,
            scheme_label,
            app_label,
            cfg,
        })
    }

    /// Installs a deterministic fault-injection plan. Every fault the plan
    /// produces is routed through an existing overflow/drop/squash path,
    /// and the run's [`RunResult`] carries a [`FaultReport`].
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Installs a cooperative cancellation token, polled between events in
    /// the main loop. A guarded run stops with
    /// [`AbortReason::Cancelled`] shortly after the token fires.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Installs a cycle-budget watchdog: a guarded run stops with
    /// [`AbortReason::CycleBudgetExceeded`] once simulated time passes
    /// `budget` cycles.
    pub fn set_cycle_budget(&mut self, budget: Cycle) {
        self.cycle_budget = Some(budget);
    }

    /// Installs a cycle-stamped event tracer. Clones of the handle are
    /// propagated into the FSB and memory-processor models so every
    /// component stamps into one time-ordered stream; the resulting
    /// [`RunResult`] then carries the recorded
    /// [`TraceBuffer`](ulmt_simcore::TraceBuffer)
    /// (see [`RunResult::trace`](crate::RunResult)).
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.fsb.set_tracer(tracer.clone());
        if let Some(mp) = self.memproc.as_mut() {
            mp.set_tracer(tracer.clone());
        }
        self.tracer = Some(tracer);
    }

    /// Records one trace event, if tracing is enabled.
    #[inline]
    fn emit(&self, at: Cycle, event: TraceEvent) {
        if let Some(tracer) = &self.tracer {
            tracer.record(at, event);
        }
    }

    /// Runs the simulation to completion and returns the measurements.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks (an internal invariant
    /// violation), or if a watchdog installed via
    /// [`SystemSim::set_cancel_token`] / [`SystemSim::set_cycle_budget`]
    /// fires — use [`SystemSim::run_guarded`] to observe those as values.
    pub fn run(self) -> RunResult {
        self.run_guarded().unwrap_or_else(|a| panic!("{a}"))
    }

    /// Runs the simulation to completion, stopping cooperatively if the
    /// cancellation token fires or the cycle budget is exceeded.
    ///
    /// The watchdog checks are cooperative and sit in the main event loop:
    /// the cycle budget is compared against every event timestamp (a
    /// runaway simulation is caught within one event), while the atomic
    /// cancellation flag is polled every [`CANCEL_POLL_EVENTS`] events to
    /// keep it off the hot path.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks (an internal invariant
    /// violation).
    pub fn run_guarded(mut self) -> Result<RunResult, SimAbort> {
        let wall_start = Instant::now();
        self.events.push(0, Event::CpuResume);
        let mut since_cancel_poll: u32 = 0;
        while let Some((t, ev)) = self.events.pop() {
            if let Some(budget) = self.cycle_budget {
                if t > budget {
                    return Err(SimAbort {
                        reason: AbortReason::CycleBudgetExceeded { budget },
                        at_cycle: t,
                    });
                }
            }
            if let Some(token) = &self.cancel {
                since_cancel_poll += 1;
                if since_cancel_poll >= CANCEL_POLL_EVENTS {
                    since_cancel_poll = 0;
                    if token.is_cancelled() {
                        return Err(SimAbort {
                            reason: AbortReason::Cancelled,
                            at_cycle: t,
                        });
                    }
                }
            }
            self.handle(t, ev);
            if self.done {
                break;
            }
        }
        assert!(
            self.done,
            "simulation deadlocked: blocked={:?} window={} outstanding={} demand_q={}",
            self.blocked,
            self.window.len(),
            self.outstanding.len(),
            self.demand_q.len()
        );
        Ok(self.finish(wall_start.elapsed().as_nanos() as u64))
    }

    fn handle(&mut self, t: Cycle, ev: Event) {
        match ev {
            Event::CpuResume => {
                if self.blocked.is_none() && !self.done {
                    self.cpu_step(t);
                }
            }
            Event::RequestAtNb { line, kind } => self.request_at_nb(line, kind, t),
            Event::DramDone {
                line,
                kind,
                channel,
            } => self.dram_done(line, kind, channel, t),
            Event::ReplyAtL2 { line, kind } => self.reply_at_l2(line, kind, t),
            Event::UlmtPrefetches { lines } => self.enqueue_prefetches(lines, t),
            Event::UlmtFree => self.ulmt_next(t),
            Event::DelayedObservation { line } => self.deliver_observation(line, t),
            Event::ChannelFree { channel } => {
                self.channel_busy[channel] = false;
                self.dispatch_channels(t);
            }
        }
    }

    // ------------------------------------------------------------------
    // Main processor
    // ------------------------------------------------------------------

    fn cpu_step(&mut self, now: Cycle) {
        debug_assert!(self.blocked.is_none());
        let mut t = self.cpu_cursor.max(now);
        loop {
            let Some(rec) = self.pending_record.take().or_else(|| {
                self.pending_busy_done = false;
                self.workload.next()
            }) else {
                self.finished_trace = true;
                if self.window.is_empty() {
                    // Retire the final reference before stopping the clock.
                    if let LastRef::Done { at, level } = self.last_ref {
                        if at > t {
                            self.breakdown.add_stall(level, at - t);
                            t = at;
                        }
                    }
                    self.cpu_cursor = t;
                    self.done = true;
                    self.end_time = t;
                } else {
                    // Drain the remaining in-flight loads.
                    self.cpu_cursor = t;
                    self.block(BlockOn::AnyFill, t);
                }
                return;
            };

            // 1. Miss-window limits.
            match self.window.check(self.insn_count) {
                WindowVerdict::Proceed => {}
                WindowVerdict::StallFull { id } | WindowVerdict::StallRob { id } => {
                    let line = self.id_to_line[&id];
                    self.pending_record = Some(rec);
                    self.cpu_cursor = t;
                    self.block(BlockOn::Line(line), t);
                    return;
                }
            }

            // 2. Dependence on the previous reference.
            if rec.dependent {
                match self.last_ref {
                    LastRef::Done { at, level } if at > t => {
                        self.breakdown.add_stall(level, at - t);
                        t = at;
                    }
                    LastRef::Outstanding { line } => {
                        self.pending_record = Some(rec);
                        self.cpu_cursor = t;
                        self.block(BlockOn::Line(line), t);
                        return;
                    }
                    _ => {}
                }
            }

            // 3. Computation before the reference.
            if !self.pending_busy_done {
                let busy = self.cfg.cpu.busy_cycles(rec.gap_insns as u64);
                t += busy;
                self.breakdown.add_busy(busy);
                self.insn_count += rec.gap_insns as u64 + 1;
                self.pending_busy_done = true;
            }

            // 4. The access itself.
            match self.issue_access(&rec, t) {
                IssueOutcome::Continue => {
                    self.pending_busy_done = false;
                    self.refs += 1;
                    // Only retired references count: an L2Blocked retry of
                    // the same record must not emit twice.
                    self.emit(
                        t,
                        TraceEvent::Ref {
                            addr: rec.addr,
                            is_write: rec.is_write,
                        },
                    );
                }
                IssueOutcome::L2Blocked => {
                    // Wait for any MSHR to free up.
                    self.pending_record = Some(rec);
                    self.cpu_cursor = t;
                    self.block(BlockOn::AnyFill, t);
                    return;
                }
            }
        }
    }

    fn block(&mut self, on: BlockOn, t: Cycle) {
        self.blocked = Some(on);
        self.block_start = t;
    }

    /// Wakes the CPU at `t` because `line`'s data arrived (or `None` for a
    /// generic fill when blocked on `AnyFill`).
    fn maybe_wake_cpu(&mut self, line: LineAddr, t: Cycle) {
        let wake = match self.blocked {
            Some(BlockOn::Line(l)) => l == line,
            Some(BlockOn::AnyFill) => true,
            None => false,
        };
        if wake {
            let stall = t.saturating_sub(self.block_start.max(self.cpu_cursor));
            // Data always comes from beyond the L2 here: blocked waits end
            // with a memory fill.
            self.breakdown.add_stall(ServiceLevel::Memory, stall);
            self.cpu_cursor = self.cpu_cursor.max(t);
            self.blocked = None;
            self.events.push(t, Event::CpuResume);
        }
    }

    fn issue_access(&mut self, rec: &TraceRecord, t: Cycle) -> IssueOutcome {
        let l1_line = rec.addr.line(L1_LINE);
        let l2_line = rec.addr.line(LineAddr::L2_LINE);

        let (l1_missed, l1_allocated) = match self.l1.access(l1_line, rec.is_write) {
            AccessOutcome::Hit { .. } => {
                self.last_ref = LastRef::Done {
                    at: t + self.cfg.cpu.l1_hit,
                    level: ServiceLevel::L1,
                };
                (false, false)
            }
            AccessOutcome::Miss { .. } => (true, true),
            AccessOutcome::MissMerged { .. } => (true, false),
            AccessOutcome::Blocked => (true, false), // bypass the L1
        };
        if !l1_missed {
            return IssueOutcome::Continue;
        }

        // The processor-side prefetcher watches the L1 miss stream.
        if let Some(conven4) = &mut self.conven4 {
            let mut lines = std::mem::take(&mut self.cpu_prefetches);
            conven4.observe_l1_miss_with(rec.addr, |line| lines.push(line));
            for &line in &lines {
                self.issue_cpu_prefetch(line, t);
            }
            lines.clear();
            self.cpu_prefetches = lines;
        }

        match self.l2.access(l2_line, rec.is_write) {
            AccessOutcome::Hit {
                first_touch_of_prefetch,
            } => {
                if first_touch_of_prefetch == Some(PrefetchOrigin::Push) {
                    self.effect.hits += 1;
                    self.emit(t, TraceEvent::PushFirstTouch { line: l2_line });
                }
                self.last_ref = LastRef::Done {
                    at: t + self.cfg.cpu.l2_hit,
                    level: ServiceLevel::L2,
                };
                if l1_allocated {
                    self.l1.fill(l1_line, false);
                }
                IssueOutcome::Continue
            }
            AccessOutcome::MissMerged { .. } => {
                let id = self.new_window_id(l2_line);
                let out = self.outstanding.entry(l2_line).or_default();
                out.ids.push(id);
                if l1_allocated {
                    out.l1_fills.push(l1_line);
                }
                self.last_ref = LastRef::Outstanding { line: l2_line };
                IssueOutcome::Continue
            }
            AccessOutcome::Miss {
                evicted_dirty,
                evicted_prefetch,
                ..
            } => {
                self.push_replaced(evicted_prefetch, t);
                self.send_writeback(evicted_dirty, t);
                let id = self.new_window_id(l2_line);
                let out = self.outstanding.entry(l2_line).or_default();
                out.ids.push(id);
                if l1_allocated {
                    out.l1_fills.push(l1_line);
                }
                self.last_ref = LastRef::Outstanding { line: l2_line };
                self.l2_miss_requests += 1;
                self.emit(t, TraceEvent::L2Miss { line: l2_line });
                self.send_request(l2_line, ReqKind::Demand, t);
                IssueOutcome::Continue
            }
            AccessOutcome::Blocked => IssueOutcome::L2Blocked,
        }
    }

    fn new_window_id(&mut self, line: LineAddr) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.window.issue(id, self.insn_count);
        self.id_to_line.insert(id, line);
        id
    }

    /// Issues one processor-side prefetch (to the L1, possibly walking
    /// down to memory). Never blocks the CPU.
    fn issue_cpu_prefetch(&mut self, l1_line: LineAddr, t: Cycle) {
        let l1_allocated = match self.l1.access_prefetch(l1_line) {
            AccessOutcome::Hit { .. } | AccessOutcome::Blocked => return,
            AccessOutcome::Miss { .. } => true,
            AccessOutcome::MissMerged { .. } => false,
        };
        let l2_line = l1_line.byte_addr(L1_LINE).line(LineAddr::L2_LINE);
        match self.l2.access_prefetch(l2_line) {
            AccessOutcome::Hit { .. } => {
                if l1_allocated {
                    self.l1.fill(l1_line, true);
                }
            }
            AccessOutcome::MissMerged { .. } => {
                if l1_allocated {
                    self.outstanding
                        .entry(l2_line)
                        .or_default()
                        .l1_fills
                        .push(l1_line);
                }
            }
            AccessOutcome::Miss {
                evicted_dirty,
                evicted_prefetch,
                ..
            } => {
                self.push_replaced(evicted_prefetch, t);
                self.send_writeback(evicted_dirty, t);
                if l1_allocated {
                    self.outstanding
                        .entry(l2_line)
                        .or_default()
                        .l1_fills
                        .push(l1_line);
                }
                self.send_request(l2_line, ReqKind::CpuPrefetch, t);
            }
            AccessOutcome::Blocked => {
                // No resources: the prefetch is simply dropped; release the
                // L1 reservation by filling it immediately as a prefetch.
                if l1_allocated {
                    self.l1.fill(l1_line, true);
                }
            }
        }
    }

    /// Sends a miss/prefetch request towards the North Bridge over the
    /// FSB.
    fn send_request(&mut self, line: LineAddr, kind: ReqKind, t: Cycle) {
        let class = match kind {
            ReqKind::Demand => TrafficClass::Demand,
            ReqKind::CpuPrefetch | ReqKind::UlmtPush => TrafficClass::Prefetch,
        };
        let on_bus = self
            .fsb
            .transfer_request(t + self.cfg.path.l2_lookup, class);
        self.events.push(
            on_bus + self.cfg.path.fsb_propagate,
            Event::RequestAtNb { line, kind },
        );
    }

    /// Records the eviction of a never-touched *pushed* line (`Replaced`
    /// in Figure 9). Processor-side prefetch victims have their own cache
    /// counters and are not part of the push accounting.
    fn push_replaced(&self, evicted: Option<(LineAddr, PrefetchOrigin)>, t: Cycle) {
        if let Some((victim, PrefetchOrigin::Push)) = evicted {
            self.emit(t, TraceEvent::PushReplaced { line: victim });
        }
    }

    /// Models a dirty-line write-back: occupies the FSB, no DRAM
    /// transaction (the paper ignores write-backs beyond their bandwidth).
    fn send_writeback(&mut self, evicted: Option<LineAddr>, t: Cycle) {
        if let Some(line) = evicted {
            self.fsb.transfer_data(t, TrafficClass::WriteBack);
            self.l2.writeback_queue_mut().remove(line);
        }
    }

    // ------------------------------------------------------------------
    // North Bridge / memory controller
    // ------------------------------------------------------------------

    fn request_at_nb(&mut self, line: LineAddr, kind: ReqKind, t: Cycle) {
        if kind == ReqKind::Demand {
            if let Some(last) = self.last_miss_at_nb {
                self.inter_miss.record(t - last);
            }
            self.last_miss_at_nb = Some(t);
        }

        // Cross-queue squashing (Section 3.2): a miss matching a queued
        // ULMT prefetch removes the prefetch; a miss matching an in-flight
        // prefetch rides its reply.
        if self.prefetch_q_set.remove(&line) {
            let pos = self
                .prefetch_q
                .iter()
                .position(|&p| p == line)
                .expect("set shadows the queue");
            self.prefetch_q.remove(pos);
            self.effect.squashed_at_nb += 1;
            self.emit(t, TraceEvent::Q3SquashByDemand { line });
        }
        if self.inflight_dram.get(&line) == Some(&ReqKind::UlmtPush)
            || self.inflight_push_replies.contains(&line)
        {
            // "If a memory-prefetched line matches a miss request from the
            // main processor, the former is considered to be the reply of
            // the latter" — the push will steal the L2 MSHR.
            self.observe(line, kind, t);
            return;
        }

        if self.demand_q.len() >= self.cfg.queues.demand {
            self.demand_q_overflow += 1;
            self.emit(t, TraceEvent::DemandOverflow { line });
        }
        self.demand_q.push_back((line, kind));
        self.observe(line, kind, t);
        self.dispatch_channels(t);
    }

    /// Queue 2: offer an observation to the ULMT, consulting the fault
    /// plan first. Every fault routes through an existing graceful path:
    /// drops use the queue-2 drop accounting, duplicates compete for
    /// queue-2 space, delays re-enter this path later via an event.
    fn observe(&mut self, line: LineAddr, kind: ReqKind, t: Cycle) {
        let observable = match kind {
            ReqKind::Demand => true,
            ReqKind::CpuPrefetch => self.verbose,
            ReqKind::UlmtPush => false,
        };
        if !observable || self.memproc.is_none() {
            return;
        }
        let mut duplicate = false;
        if let Some(plan) = self.faults.as_mut() {
            let fault = plan.on_observation();
            if plan.take_queue_reduction() {
                self.cfg.queues.demand = (self.cfg.queues.demand / 2).max(1);
                self.cfg.queues.observation = (self.cfg.queues.observation / 2).max(1);
                self.cfg.queues.prefetch = (self.cfg.queues.prefetch / 2).max(1);
                // Excess queued observations are dropped through the
                // normal overflow path as new ones arrive; nothing is
                // truncated behind the accounting's back.
                self.faults_absorbed += 1;
                self.emit(
                    t,
                    TraceEvent::FaultInjected {
                        kind: FaultKind::QueueReduction,
                        magnitude: 0,
                    },
                );
            }
            match fault {
                Some(ObservationFault::Drop) => {
                    self.memproc
                        .as_mut()
                        .expect("checked above")
                        .record_dropped_observation();
                    self.faults_absorbed += 1;
                    self.emit(
                        t,
                        TraceEvent::FaultInjected {
                            kind: FaultKind::DropObservation,
                            magnitude: 0,
                        },
                    );
                    self.emit(t, TraceEvent::ObsDrop { line });
                    return;
                }
                Some(ObservationFault::Duplicate) => duplicate = true,
                Some(ObservationFault::Delay(d)) => {
                    // Absorbed at scheduling: the observation rejoins the
                    // normal delivery path via the event queue (and is
                    // simply discarded if the run drains first).
                    self.events.push(t + d, Event::DelayedObservation { line });
                    self.faults_absorbed += 1;
                    self.emit(
                        t,
                        TraceEvent::FaultInjected {
                            kind: FaultKind::DelayObservation,
                            magnitude: d,
                        },
                    );
                    return;
                }
                None => {}
            }
        }
        self.deliver_observation(line, t);
        if duplicate {
            self.faults_absorbed += 1;
            self.emit(
                t,
                TraceEvent::FaultInjected {
                    kind: FaultKind::DuplicateObservation,
                    magnitude: 0,
                },
            );
            self.deliver_observation(line, t);
        }
    }

    /// The fault-free tail of [`SystemSim::observe`]: hand `line` to the
    /// ULMT now if it is idle, queue it if there is room, otherwise drop
    /// the *oldest* queued observation to make room (the newest
    /// observation is the most likely to still be timely — Section 3.2's
    /// queue 2 behaves as a sliding window over the miss stream).
    fn deliver_observation(&mut self, line: LineAddr, t: Cycle) {
        self.emit(t, TraceEvent::ObsEnqueue { line });
        let idle = self.memproc.as_ref().expect("caller checked").is_idle_at(t);
        if idle && self.obs_q.is_empty() {
            self.ulmt_process(line, t);
            return;
        }
        // `while`, not `if`: a forced mid-run queue-depth reduction can
        // leave the queue over the new depth, and each arrival then drains
        // it back down through the normal drop accounting.
        while self.obs_q.len() >= self.cfg.queues.observation {
            let dropped = self.obs_q.pop_front().expect("len checked above");
            self.emit(t, TraceEvent::ObsDrop { line: dropped });
            self.memproc
                .as_mut()
                .expect("caller checked")
                .record_dropped_observation();
        }
        self.obs_q.push_back(line);
    }

    fn dispatch_channels(&mut self, t: Cycle) {
        for c in 0..self.channel_busy.len() {
            if self.channel_busy[c] {
                continue;
            }
            // Demand (queue 1) has priority over prefetches (queue 3).
            let pick = self
                .demand_q
                .iter()
                .position(|&(l, _)| self.dram.channel_of(l) == c)
                .map(|pos| {
                    let (l, k) = self.demand_q.remove(pos).expect("position is valid");
                    (l, k)
                })
                .or_else(|| {
                    self.prefetch_q
                        .iter()
                        .position(|&l| self.dram.channel_of(l) == c)
                        .map(|pos| {
                            let l = self.prefetch_q.remove(pos).expect("position is valid");
                            self.prefetch_q_set.remove(&l);
                            (l, ReqKind::UlmtPush)
                        })
                });
            let Some((line, kind)) = pick else { continue };
            self.channel_busy[c] = true;
            if kind == ReqKind::UlmtPush {
                self.pushes_on_bus += 1;
                self.emit(
                    t,
                    TraceEvent::PushDispatch {
                        line,
                        channel: c as u32,
                    },
                );
            }
            let access = self.dram.access(line);
            self.emit(
                t,
                TraceEvent::DramAccess {
                    line,
                    channel: c as u32,
                    row_hit: access.row_hit,
                },
            );
            // Fault hook: a transient bank-busy spike adds core-access
            // latency to this one transaction; the reply path is latency-
            // tolerant, so the spike is absorbed as an ordinary slow access.
            let busy_spike = match self.faults.as_mut() {
                Some(plan) => {
                    let b = plan.dram_busy();
                    if b > 0 {
                        self.faults_absorbed += 1;
                    }
                    b
                }
                None => 0,
            };
            if busy_spike > 0 {
                self.emit(
                    t,
                    TraceEvent::FaultInjected {
                        kind: FaultKind::DramBusy,
                        magnitude: busy_spike,
                    },
                );
            }
            let injection = if kind == ReqKind::UlmtPush {
                self.memproc
                    .as_ref()
                    .map(|mp| mp.config().location.prefetch_injection_delay())
                    .unwrap_or(0)
            } else {
                0
            };
            let data_at_controller = t
                + injection
                + busy_spike
                + self.cfg.path.nb_to_dram
                + access.latency
                + self.cfg.dram.t_transfer;
            self.inflight_dram.insert(line, kind);
            // The channel's issue rate is bounded by its transfer time;
            // the bank access pipelines underneath earlier transfers.
            self.events.push(
                t + self.cfg.dram.t_transfer,
                Event::ChannelFree { channel: c },
            );
            self.events.push(
                data_at_controller,
                Event::DramDone {
                    line,
                    kind,
                    channel: c,
                },
            );
        }
    }

    fn dram_done(&mut self, line: LineAddr, kind: ReqKind, channel: usize, t: Cycle) {
        let _ = channel; // freed earlier by ChannelFree
        self.inflight_dram.remove(&line);
        if kind == ReqKind::UlmtPush {
            self.inflight_push_replies.insert(line);
        }
        let class = match kind {
            ReqKind::Demand => TrafficClass::Demand,
            ReqKind::CpuPrefetch | ReqKind::UlmtPush => TrafficClass::Prefetch,
        };
        let on_bus = self.fsb.transfer_data(t + self.cfg.path.nb_to_dram, class);
        self.events.push(
            on_bus + self.cfg.path.fsb_propagate + self.cfg.path.deliver,
            Event::ReplyAtL2 { line, kind },
        );
    }

    // ------------------------------------------------------------------
    // L2 arrival
    // ------------------------------------------------------------------

    fn reply_at_l2(&mut self, line: LineAddr, kind: ReqKind, t: Cycle) {
        match kind {
            ReqKind::Demand | ReqKind::CpuPrefetch => {
                let demand_waiting = self.l2.fill(line, false);
                self.emit(
                    t,
                    TraceEvent::L2Fill {
                        line,
                        demand_waiting,
                    },
                );
                if demand_waiting {
                    self.effect.non_pref_misses += 1;
                }
                self.complete_line(line, t);
            }
            ReqKind::UlmtPush => {
                self.inflight_push_replies.remove(&line);
                self.pushes_on_bus -= 1;
                match self.l2.push(line) {
                    PushOutcome::StoleMshr {
                        demand_was_waiting,
                        installed_as_prefetch,
                    } => {
                        self.emit(
                            t,
                            TraceEvent::PushStoleMshr {
                                line,
                                demand_waiting: demand_was_waiting,
                                installed_prefetched: installed_as_prefetch,
                            },
                        );
                        if demand_was_waiting {
                            self.effect.delayed_hits += 1;
                        }
                        if installed_as_prefetch {
                            // The stolen MSHR belonged to a processor-side
                            // prefetch: the pushed line now sits untouched
                            // in the L2 exactly like an accepted push.
                            self.effect.accepted += 1;
                        }
                        self.complete_line(line, t);
                    }
                    PushOutcome::Accepted {
                        evicted_dirty,
                        evicted_prefetch,
                    } => {
                        self.emit(t, TraceEvent::PushAccept { line });
                        self.effect.accepted += 1;
                        self.push_replaced(evicted_prefetch, t);
                        self.send_writeback(evicted_dirty, t);
                    }
                    outcome @ (PushOutcome::DroppedPresent
                    | PushOutcome::DroppedWriteback
                    | PushOutcome::DroppedNoMshr
                    | PushOutcome::DroppedSetPending) => {
                        let reason = match outcome {
                            PushOutcome::DroppedPresent => PushRejectReason::Present,
                            PushOutcome::DroppedWriteback => PushRejectReason::Writeback,
                            PushOutcome::DroppedNoMshr => PushRejectReason::NoMshr,
                            _ => PushRejectReason::SetPending,
                        };
                        self.emit(t, TraceEvent::PushReject { line, reason });
                    }
                }
            }
        }
    }

    /// Completes every access waiting on `line`: retires window entries,
    /// fills the L1, updates the dependence tracker and wakes the CPU.
    fn complete_line(&mut self, line: LineAddr, t: Cycle) {
        if let Some(out) = self.outstanding.remove(&line) {
            for id in out.ids {
                self.window.complete(id);
                self.id_to_line.remove(&id);
            }
            for l1_line in out.l1_fills {
                self.l1.fill(l1_line, false);
            }
        }
        if let LastRef::Outstanding { line: l } = self.last_ref {
            if l == line {
                self.last_ref = LastRef::Done {
                    at: t,
                    level: ServiceLevel::Memory,
                };
            }
        }
        self.maybe_wake_cpu(line, t);
        if self.finished_trace && self.blocked.is_none() && self.window.is_empty() && !self.done {
            self.done = true;
            self.end_time = self.cpu_cursor.max(t);
        }
    }

    // ------------------------------------------------------------------
    // ULMT
    // ------------------------------------------------------------------

    fn ulmt_process(&mut self, miss: LineAddr, t: Cycle) {
        // Fault hook: a transient stall (e.g. the memory processor's OS
        // thread being descheduled) delays the Prefetching step; the
        // existing occupancy accounting absorbs it as ordinary busy time.
        let stall = match self.faults.as_mut() {
            Some(plan) => {
                let s = plan.memproc_stall();
                if s > 0 {
                    self.faults_absorbed += 1;
                }
                s
            }
            None => 0,
        };
        if stall > 0 {
            self.emit(
                t,
                TraceEvent::FaultInjected {
                    kind: FaultKind::MemprocStall,
                    magnitude: stall,
                },
            );
        }
        let Some(mp) = self.memproc.as_mut() else {
            return;
        };
        let start = t.max(mp.busy_until()) + stall;
        let step = mp.process(miss, start, &mut self.table_mem);
        if !step.prefetches.is_empty() {
            self.events.push(
                step.response_done,
                Event::UlmtPrefetches {
                    lines: step.prefetches,
                },
            );
        }
        self.events.push(step.occupancy_done, Event::UlmtFree);
    }

    fn ulmt_next(&mut self, t: Cycle) {
        let idle = self.memproc.as_ref().is_some_and(|mp| mp.is_idle_at(t));
        if idle {
            if let Some(miss) = self.obs_q.pop_front() {
                self.ulmt_process(miss, t);
            }
        }
    }

    /// Queue 3 insertion with Filter and cross-queue squashing.
    ///
    /// Only requests that survive every admission stage — Filter, pending
    /// demand, duplicate, queue depth — enter queue 3 and count as
    /// `issued`; each squash stage has its own counter, so the stages
    /// partition the ULMT's raw request stream exactly.
    fn enqueue_prefetches(&mut self, lines: Vec<LineAddr>, t: Cycle) {
        for line in lines {
            if !self.filter.admit(line) {
                self.effect.squashed_filter += 1;
                self.emit(t, TraceEvent::FilterDrop { line });
                continue;
            }
            self.emit(t, TraceEvent::FilterAdmit { line });
            // A demand request for the same line is already on its way to
            // (or in) DRAM: the prefetch is redundant. Also drop *every*
            // matching observation to save ULMT occupancy (Section 3.2) —
            // duplicates arise from fault injection and from CpuPrefetch
            // observation under verbose schemes.
            let demand_pending = self.demand_q.iter().any(|&(l, _)| l == line)
                || self.inflight_dram.contains_key(&line);
            if demand_pending {
                let before = self.obs_q.len();
                self.obs_q.retain(|&o| o != line);
                let removed = (before - self.obs_q.len()) as u32;
                if removed > 0 {
                    self.emit(t, TraceEvent::ObsSquash { line, removed });
                }
                self.effect.squashed_demand += 1;
                self.emit(t, TraceEvent::Q3SquashDemand { line });
                continue;
            }
            if self.prefetch_q_set.contains(&line) {
                self.effect.squashed_duplicate += 1;
                self.emit(t, TraceEvent::Q3SquashDuplicate { line });
                continue;
            }
            if self.prefetch_q.len() >= self.cfg.queues.prefetch {
                self.prefetch_q_overflow += 1;
                self.emit(t, TraceEvent::Q3Overflow { line });
                continue;
            }
            self.effect.issued += 1;
            self.prefetch_q.push_back(line);
            self.prefetch_q_set.insert(line);
            self.emit(t, TraceEvent::Q3Enqueue { line });
        }
        self.dispatch_channels(t);
    }

    // ------------------------------------------------------------------
    // Results
    // ------------------------------------------------------------------

    fn finish(self, wall_nanos: u64) -> RunResult {
        let l2_stats = *self.l2.stats();
        let elapsed = self.end_time.max(1);
        let observations_dropped = self.memproc_stats_dropped();
        let fault = self.faults.as_ref().map(|plan| FaultReport {
            seed: plan.config().seed,
            injected: plan.counts(),
            absorbed: self.faults_absorbed,
            twin: None, // filled by Experiment when a twin run is requested
        });
        self.emit(
            self.end_time,
            TraceEvent::RunEnd {
                queue2: self.obs_q.len() as u32,
                queue3: self.prefetch_q.len() as u32,
                pushes_in_flight: self.pushes_on_bus as u32,
            },
        );
        let trace = self.tracer.as_ref().map(|tracer| tracer.take());
        RunResult {
            scheme: self.scheme_label,
            app: self.app_label,
            exec_cycles: self.end_time,
            breakdown: self.breakdown,
            l2_misses: self.l2_miss_requests,
            refs: self.refs,
            inter_miss: self.inter_miss,
            prefetch: PrefetchEffect {
                replaced: l2_stats.prefetch_replaced_untouched,
                redundant: l2_stats.pushes_dropped_present,
                dropped_other: l2_stats.pushes_dropped() - l2_stats.pushes_dropped_present,
                inflight_at_end: self.prefetch_q.len() as u64 + self.pushes_on_bus,
                untouched_at_end: self.l2.prefetched_lines_of(PrefetchOrigin::Push) as u64,
                ..self.effect
            },
            ulmt: self.memproc.map(|mp| mp.stats().clone()),
            fsb_utilization: self.fsb.utilization(elapsed),
            fsb_prefetch_utilization: self.fsb.utilization_of(TrafficClass::Prefetch, elapsed),
            dram_row_hit_ratio: self.dram.stats().row_hit_ratio(),
            filter_dropped: self.filter.dropped(),
            observations_dropped,
            demand_q_overflow: self.demand_q_overflow,
            prefetch_q_overflow: self.prefetch_q_overflow,
            fault,
            trace,
            wall_nanos,
        }
    }

    fn memproc_stats_dropped(&self) -> u64 {
        self.memproc
            .as_ref()
            .map(|mp| mp.stats().dropped_observations)
            .unwrap_or(0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueOutcome {
    Continue,
    L2Blocked,
}

/// Table 2's sizing rule: the smallest power of two comfortably above the
/// workload's distinct miss lines (contiguous footprints spread uniformly
/// over the trivially-hashed sets, so `NumRows ≥ footprint` suffices).
fn table_rows_for(workload: &WorkloadSpec) -> usize {
    let footprint = workload.footprint_lines() as usize;
    footprint.next_power_of_two().max(1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulmt_workloads::App;

    fn run(app: App, scheme: PrefetchScheme) -> RunResult {
        // A scaled-down machine with proportionally scaled workloads: the
        // footprint still exceeds the 32 KB L2, preserving miss behavior.
        let spec = WorkloadSpec::new(app).scale(1.0 / 16.0).iterations(3);
        SystemSim::new(SystemConfig::small(), &spec, scheme).run()
    }

    #[test]
    fn nopref_run_completes_and_accounts_time() {
        let r = run(App::Mcf, PrefetchScheme::NoPref);
        assert!(r.exec_cycles > 0);
        assert!(r.refs > 0);
        assert!(r.l2_misses > 0);
        // Accounting closes: busy + stalls = execution time (within the
        // final drain).
        let total = r.breakdown.total();
        assert!(
            (total as f64 - r.exec_cycles as f64).abs() / (r.exec_cycles as f64) < 0.05,
            "accounted {total} vs exec {}",
            r.exec_cycles
        );
        // A pointer-chasing app is dominated by BeyondL2 stall.
        assert!(r.breakdown.fraction_beyond_l2() > 0.4, "{:?}", r.breakdown);
    }

    #[test]
    fn repl_speeds_up_pointer_chasing() {
        let base = run(App::Mcf, PrefetchScheme::NoPref);
        let repl = run(App::Mcf, PrefetchScheme::Repl);
        let speedup = repl.speedup_vs(base.exec_cycles);
        assert!(speedup > 1.05, "speedup {speedup}");
        assert!(repl.prefetch.hits + repl.prefetch.delayed_hits > 0);
    }

    #[test]
    fn conven4_speeds_up_sequential_cg() {
        let base = run(App::Cg, PrefetchScheme::NoPref);
        let conv = run(App::Cg, PrefetchScheme::Conven4);
        assert!(conv.speedup_vs(base.exec_cycles) > 1.05);
        // But Conven4 does nothing for Mcf (no sequential patterns).
        let mcf_base = run(App::Mcf, PrefetchScheme::NoPref);
        let mcf_conv = run(App::Mcf, PrefetchScheme::Conven4);
        let s = mcf_conv.speedup_vs(mcf_base.exec_cycles);
        assert!(s < 1.05, "Conven4 on Mcf should be neutral, got {s}");
    }

    #[test]
    fn dependent_misses_fall_in_the_200_280_bin() {
        let r = run(App::Mcf, PrefetchScheme::NoPref);
        let fractions = r.inter_miss.fractions();
        // Bin 2 is [200,280): dependent misses arrive roughly one round
        // trip apart.
        assert!(fractions[2] > 0.5, "fractions {fractions:?}");
    }

    #[test]
    fn ulmt_stats_present_only_with_ulmt() {
        let nopref = run(App::Tree, PrefetchScheme::NoPref);
        assert!(nopref.ulmt.is_none());
        let repl = run(App::Tree, PrefetchScheme::Repl);
        let ulmt = repl.ulmt.expect("ULMT ran");
        assert!(ulmt.steps > 0);
        assert!(ulmt.occupancy.mean() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(App::Gap, PrefetchScheme::Conven4Repl);
        let b = run(App::Gap, PrefetchScheme::Conven4Repl);
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.l2_misses, b.l2_misses);
        assert_eq!(a.prefetch.hits, b.prefetch.hits);
    }

    #[test]
    fn fsb_utilization_grows_with_prefetching() {
        let base = run(App::Gap, PrefetchScheme::NoPref);
        let repl = run(App::Gap, PrefetchScheme::Repl);
        assert!(repl.fsb_utilization >= base.fsb_utilization);
        assert!(repl.fsb_prefetch_utilization > 0.0);
        assert_eq!(base.fsb_prefetch_utilization, 0.0);
    }

    fn run_with_queues(depths: crate::config::QueueDepths) -> RunResult {
        let mut cfg = SystemConfig::small();
        cfg.queues = depths;
        let spec = WorkloadSpec::new(App::Mcf).scale(1.0 / 16.0).iterations(3);
        SystemSim::new(cfg, &spec, PrefetchScheme::Repl).run()
    }

    /// Queue 2 drops the *oldest* observation on overflow (the paper's
    /// sliding-window semantics): a cramped queue must therefore still
    /// observe — and prefetch from — the *recent* part of the miss
    /// stream, not just its prefix.
    #[test]
    fn observation_queue_drops_oldest_on_overflow() {
        use crate::config::QueueDepths;
        let tight = run_with_queues(QueueDepths {
            demand: 16,
            observation: 2,
            prefetch: 16,
        });
        assert!(
            tight.observations_dropped > 0,
            "depth-2 queue never overflowed"
        );
        // Drop-oldest keeps the window current: the ULMT still learns
        // correlations and produces useful prefetches under pressure.
        assert!(
            tight.prefetch.hits + tight.prefetch.delayed_hits > 0,
            "drop-oldest should preserve recent observations: {:?}",
            tight.prefetch
        );
    }

    /// Overflow counters move consistently with queue pressure: shrinking
    /// a queue never reduces its overflow count.
    #[test]
    fn overflow_counters_monotone_in_queue_pressure() {
        use crate::config::QueueDepths;
        let roomy = run_with_queues(QueueDepths::default());
        let tight = run_with_queues(QueueDepths {
            demand: 16,
            observation: 2,
            prefetch: 2,
        });
        assert!(
            tight.observations_dropped >= roomy.observations_dropped,
            "tight {} < roomy {}",
            tight.observations_dropped,
            roomy.observations_dropped
        );
        assert!(
            tight.prefetch_q_overflow >= roomy.prefetch_q_overflow,
            "tight {} < roomy {}",
            tight.prefetch_q_overflow,
            roomy.prefetch_q_overflow
        );
    }

    fn white_box_sim(cfg: SystemConfig) -> SystemSim {
        let spec = WorkloadSpec::new(App::Mcf).scale(1.0 / 16.0).iterations(1);
        SystemSim::new(cfg, &spec, PrefetchScheme::Repl)
    }

    /// Regression for the cross-queue squashing bug: a prefetch matching a
    /// pending demand must remove *every* matching queue-2 observation,
    /// not just the first (duplicates arise from fault injection and from
    /// CpuPrefetch observation under verbose schemes).
    #[test]
    fn prefetch_squashes_all_matching_observations() {
        let mut sim = white_box_sim(SystemConfig::small());
        let dup = LineAddr::new(42);
        sim.obs_q
            .extend([dup, LineAddr::new(7), dup, dup, LineAddr::new(9)]);
        sim.inflight_dram.insert(dup, ReqKind::Demand);
        sim.enqueue_prefetches(vec![dup], 100);
        assert!(
            sim.obs_q.iter().all(|&o| o != dup),
            "stale duplicate observations left behind: {:?}",
            sim.obs_q
        );
        assert_eq!(sim.obs_q.len(), 2);
        assert_eq!(sim.effect.squashed_demand, 1);
        assert_eq!(sim.effect.issued, 0, "a squashed prefetch is not issued");
    }

    /// Regression for the `issued` accounting bug: requests squashed by
    /// the Filter, a pending demand, a duplicate, or queue-3 overflow
    /// must land in their own counters, and `issued` must count exactly
    /// the requests that entered queue 3.
    #[test]
    fn issued_counts_only_bus_bound_prefetches() {
        let mut cfg = SystemConfig::small();
        cfg.queues.prefetch = 2;
        let mut sim = white_box_sim(cfg);
        // Freeze dispatch so queue 3 actually fills up.
        for busy in sim.channel_busy.iter_mut() {
            *busy = true;
        }
        sim.inflight_dram.insert(LineAddr::new(30), ReqKind::Demand);
        sim.enqueue_prefetches(
            vec![
                LineAddr::new(10), // enqueued
                LineAddr::new(10), // Filter drop
                LineAddr::new(20), // enqueued
                LineAddr::new(30), // demand squash
                LineAddr::new(40), // overflow: queue 3 is full
            ],
            0,
        );
        assert_eq!(sim.effect.issued, 2);
        assert_eq!(sim.effect.squashed_filter, 1);
        assert_eq!(sim.effect.squashed_demand, 1);
        assert_eq!(sim.effect.squashed_duplicate, 0);
        assert_eq!(sim.prefetch_q_overflow, 1);
        // A second round: the queued lines are now duplicates.
        sim.filter = Filter::new(sim.cfg.filter_entries); // forget round 1
        sim.enqueue_prefetches(vec![LineAddr::new(10), LineAddr::new(20)], 1);
        assert_eq!(sim.effect.squashed_duplicate, 2);
        assert_eq!(sim.effect.issued, 2, "duplicates must not count as issued");
    }

    /// The hash-set shadow of queue 3 tracks the queue exactly through
    /// enqueues, NB squashes, and channel dispatches.
    #[test]
    fn prefetch_queue_set_stays_in_sync() {
        let mut sim = white_box_sim(SystemConfig::small());
        for busy in sim.channel_busy.iter_mut() {
            *busy = true;
        }
        let lines: Vec<LineAddr> = (0..6).map(|n| LineAddr::new(n * 3)).collect();
        sim.enqueue_prefetches(lines.clone(), 0);
        assert_eq!(sim.prefetch_q.len(), lines.len());
        // An NB demand match removes the entry from both structures.
        sim.request_at_nb(lines[2], ReqKind::Demand, 5);
        assert_eq!(sim.effect.squashed_at_nb, 1);
        assert!(!sim.prefetch_q.contains(&lines[2]));
        // Unfreeze one channel and let it dispatch.
        sim.channel_busy[0] = false;
        sim.dispatch_channels(10);
        assert_eq!(sim.prefetch_q_set.len(), sim.prefetch_q.len());
        for l in &sim.prefetch_q {
            assert!(sim.prefetch_q_set.contains(l), "set lost {l}");
        }
    }

    /// End-to-end accounting identity on a real run: every issued
    /// (queue-3) prefetch is accounted for exactly once.
    #[test]
    fn issued_prefetches_partition_exactly() {
        let r = run(App::Mcf, PrefetchScheme::Repl);
        let p = &r.prefetch;
        assert!(p.issued > 0);
        assert_eq!(
            p.issued,
            p.delayed_hits
                + p.accepted
                + p.redundant
                + p.dropped_other
                + p.squashed_at_nb
                + p.inflight_at_end,
            "issued does not partition: {p:?}"
        );
        assert_eq!(
            p.accepted,
            p.hits + p.replaced + p.untouched_at_end,
            "accepted pushes do not partition: {p:?}"
        );
    }

    /// The pathological all-depth-1 configuration is legal and must
    /// complete (slowly, lossily) rather than wedge or panic.
    #[test]
    fn depth_one_queues_complete_without_panic() {
        use crate::config::QueueDepths;
        let r = run_with_queues(QueueDepths {
            demand: 1,
            observation: 1,
            prefetch: 1,
        });
        assert!(r.exec_cycles > 0);
        assert!(r.refs > 0);
        // Every scheme in the Figure 7 set survives the same squeeze.
        for scheme in PrefetchScheme::FIGURE7 {
            let mut cfg = SystemConfig::small();
            cfg.queues = QueueDepths {
                demand: 1,
                observation: 1,
                prefetch: 1,
            };
            let spec = WorkloadSpec::new(App::Tree).scale(1.0 / 16.0).iterations(2);
            let r = SystemSim::new(cfg, &spec, scheme).run();
            assert!(r.exec_cycles > 0, "{scheme:?} wedged");
        }
    }
}
