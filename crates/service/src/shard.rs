//! The shard worker: one thread owning the tables of every tenant
//! hashed to it.
//!
//! A shard's data plane is its [`Ingress`](crate::ingress::Ingress):
//! per-tenant bounded queues drained by a weighted deficit-round-robin
//! scheduler. Because a tenant's whole observation stream flows through
//! exactly one per-tenant FIFO queue and each observation touches only
//! that tenant's table, the table a tenant ends up with depends solely
//! on its own stream — never on how many shards the service runs, which other
//! tenants share the shard, or how the scheduler interleaves them.
//! That is the service's determinism argument, and the fingerprint
//! checks in the tests hold it to account.
//!
//! Control messages ([`ShardMsg`]) share that inbox: the worker takes
//! them ahead of any batch. Each captures, when it is pushed, the
//! per-tenant *barriers* of the tenants it follows — the count of batches
//! enqueued for each so far — and the worker drains those tenants' queues
//! to the barriers before running it, so an operation sees everything
//! submitted before it (snapshot, stats, drain, shutdown).
//!
//! Since the supervision layer (see [`crate::supervisor`]) the worker is
//! also *recoverable*: every accepted batch is journaled before it is
//! acknowledged, the whole shard state (tables, counters, virtual clock)
//! is checkpointed every `checkpoint_every` accepted batches (in place,
//! copying only the table slots changed since the last checkpoint), and a
//! replacement worker can be rebuilt from checkpoint + journal replay
//! through the same `process_misses` batch kernel — bit-identical to a
//! worker that never died whenever the journal window covers the gap.
//! Queued ingress batches die with their worker epoch; their clients
//! observe a dropped reply channel and resubmit (at-least-once), which
//! is also why the piggybacked rejected/shed counters are *cumulative*:
//! the shard merges them idempotently, so a retry can never double-count
//! and a crash can never lose them.

use std::collections::hash_map::Entry;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ulmt_core::algorithm::{StepSink, UlmtAlgorithm};
use ulmt_core::table::{CorrelationTable, SnapshotError, TableSnapshot};
use ulmt_simcore::{
    CancelToken, Cycle, FxHashMap, LineAddr, Server, ServiceFault, ServiceFaultPlan, TraceBuffer,
    TraceEvent,
};

use crate::config::{ServiceConfig, TenantSpec};
use crate::ingress::{Control, Drained, Follows, Ingress, IngressBatch, Work};
use crate::journal::{JournalCoverage, ObservationJournal};
use crate::metrics::{MetricsRegistry, ShardMetrics};
use crate::service::{BatchReply, ServiceError, ShardStats, TenantStats};
use crate::supervisor::{
    lock, RecoveryOutcome, RecoveryReport, ShardCheckpoint, ShardSlot, ShardState, TenantCheckpoint,
};

/// Receives the per-step effects of one batch straight from the table's
/// batch kernel. The cadence is exactly the old per-miss loop: advance
/// shard time by `obs_cycles` when a step begins, collect each prefetch
/// as it is emitted, and occupy the shard's server for the step's
/// instruction cost when it ends — 1 cycle/insn, like the memory
/// processor, giving the utilization figure. Journal replay during
/// recovery drives the *same* sink, which is why a clean recovery also
/// reproduces the virtual clock and utilization bit-identically.
struct IngestSink<'a> {
    now: &'a mut Cycle,
    obs_cycles: Cycle,
    server: &'a mut Server,
    prefetches: &'a mut Vec<LineAddr>,
}

impl StepSink for IngestSink<'_> {
    fn begin(&mut self, _miss: LineAddr) {
        *self.now += self.obs_cycles;
    }

    fn prefetch(&mut self, addr: LineAddr) {
        self.prefetches.push(addr);
    }

    fn end(&mut self, prefetch_insns: u64, learn_insns: u64) {
        self.server.serve(*self.now, prefetch_insns + learn_insns);
    }
}

/// One tenant's state on its shard: its table runs the algorithm the
/// tenant registered, picked at run time.
struct TenantState {
    table: CorrelationTable,
    stats: TenantStats,
}

impl TenantState {
    fn new(tenant: u32, spec: &TenantSpec) -> Self {
        TenantState {
            table: CorrelationTable::with_kind(spec.kind, spec.params),
            stats: TenantStats {
                tenant,
                ..TenantStats::default()
            },
        }
    }
}

/// Control messages a shard worker processes. They ride the shard's
/// [`Ingress`] ahead of the observation batches; one that must follow
/// earlier batches says which in [`ShardMsg::follows`], and the ingress
/// captures those tenants' barriers when the message is pushed.
pub(crate) enum ShardMsg {
    /// Register a tenant (fails if it already exists on the shard).
    /// Registers the tenant's ingress queue before acking, so an acked
    /// open can immediately submit.
    Open {
        tenant: u32,
        spec: TenantSpec,
        reply: Sender<Result<(), ServiceError>>,
    },
    /// Capture a tenant's learned table.
    Snapshot {
        tenant: u32,
        reply: Sender<Result<TableSnapshot, ServiceError>>,
    },
    /// Replace a tenant's table with a previously captured snapshot
    /// (warm start).
    Restore {
        tenant: u32,
        snap: Box<TableSnapshot>,
        reply: Sender<Result<(), ServiceError>>,
    },
    /// Fingerprint of a tenant's learned table.
    Fingerprint {
        tenant: u32,
        reply: Sender<Result<u64, ServiceError>>,
    },
    /// A tenant's counters.
    TenantStats {
        tenant: u32,
        reply: Sender<Result<TenantStats, ServiceError>>,
    },
    /// The shard's aggregate counters (point-in-time; pair with
    /// [`ShardMsg::Drain`] for an all-submitted view).
    ShardStats { reply: Sender<ShardStats> },
    /// The shard's metrics snapshot (`None` when metrics are disabled).
    /// Point-in-time like [`ShardMsg::ShardStats`]: the worker runs it
    /// between batches, so the snapshot is a prefix of the shard's
    /// ingestion stream.
    Metrics { reply: Sender<Option<ShardMetrics>> },
    /// Barrier: replying proves every batch enqueued before this call
    /// and every earlier control message was processed.
    Drain { reply: Sender<()> },
    /// Block until the held sender is dropped. Used by
    /// [`PrefetchService::pause_shard`](crate::PrefetchService::pause_shard)
    /// to fill the ingestion queues deterministically in tests.
    Pause(Receiver<()>),
    /// Process every batch enqueued before shutdown began, reject
    /// everything after with a typed error, then exit.
    Shutdown,
}

impl ShardMsg {
    /// The queued batches the message must follow: a tenant operation
    /// sees everything submitted for its tenant before it, a drain or
    /// shutdown everything submitted for any tenant.
    pub(crate) fn follows(&self) -> Follows {
        match self {
            ShardMsg::Snapshot { tenant, .. }
            | ShardMsg::Restore { tenant, .. }
            | ShardMsg::Fingerprint { tenant, .. }
            | ShardMsg::TenantStats { tenant, .. } => Follows::Tenant(*tenant),
            ShardMsg::Drain { .. } | ShardMsg::Shutdown => Follows::Everything,
            ShardMsg::Open { .. }
            | ShardMsg::ShardStats { .. }
            | ShardMsg::Metrics { .. }
            | ShardMsg::Pause(_) => Follows::Nothing,
        }
    }
}

/// What a shard worker hands back when it exits.
#[derive(Debug)]
pub struct ShardReport {
    /// Final aggregate counters.
    pub stats: ShardStats,
    /// The shard's trace buffer, if tracing was enabled. A restarted
    /// shard's buffer starts empty at the restart (the buffer dies with
    /// the worker thread; only table state and counters are recovered).
    pub trace: Option<TraceBuffer>,
    /// Worker epoch that produced this report (0 = never restarted).
    pub epoch: u64,
    /// Every recovery this shard went through, oldest first. Attached by
    /// the supervisor at shutdown.
    pub recoveries: Vec<RecoveryReport>,
}

/// How a worker epoch ended.
pub(crate) enum ShardExit {
    /// Graceful shutdown after draining the queue.
    Finished(Box<ShardReport>),
    /// The supervisor fenced this epoch (wedge recovery); a replacement
    /// owns the shard now.
    Abandoned,
    /// The worker panicked; the panic was caught by the spawn wrapper.
    Panicked,
}

/// Everything a (re)spawned worker needs besides its receiving queue.
pub(crate) struct WorkerCtx {
    pub shard: u32,
    pub epoch: u64,
    pub cfg: ServiceConfig,
    pub cancel: CancelToken,
    pub slot: Arc<ShardSlot>,
    pub ingress: Arc<Ingress>,
}

/// Prebuilt shard state a replacement worker resumes from; `None` means
/// a fresh, empty shard (epoch 0).
pub(crate) struct ShardInit {
    tenants: FxHashMap<u32, TenantState>,
    stats: ShardStats,
    now: Cycle,
    server: Server,
}

impl ShardInit {
    /// The rebuilt virtual clock — the watermark a replacement worker's
    /// wedge detector starts from.
    pub fn now(&self) -> Cycle {
        self.now
    }
}

/// What [`rebuild_shard`] could reconstruct, for the recovery report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RebuildSummary {
    pub coverage: JournalCoverage,
    /// The last checkpoint update was cut short, so recovery started
    /// without one.
    pub interrupted: bool,
    pub checkpoint_seq: u64,
    pub resumed_seq: u64,
    pub checkpoint_bytes: u64,
    pub tenants_restored: u32,
}

impl RebuildSummary {
    /// Clean when the journal covered the whole gap past a checkpoint
    /// that was complete (or never taken); lossy otherwise.
    pub fn outcome(&self) -> RecoveryOutcome {
        let replayed_batches = self.coverage.replayable;
        if self.coverage.dropped_batches == 0 && !self.interrupted {
            RecoveryOutcome::Clean { replayed_batches }
        } else {
            RecoveryOutcome::Lossy {
                replayed_batches,
                dropped_batches: self.coverage.dropped_batches,
            }
        }
    }
}

/// Rebuilds a shard's in-memory state from its last checkpoint plus a
/// replay of the journaled batches past it, through the same
/// [`IngestSink`] cadence as live ingestion. The checkpoint's table
/// copies are written back slot for slot, so clean recovery (journal
/// covers the whole gap) reproduces tables, per-tenant stats, the
/// virtual clock and the utilization server bit-identically. An
/// incomplete checkpoint counts as none.
pub(crate) fn rebuild_shard(
    shard: u32,
    cfg: &ServiceConfig,
    specs: &[(u32, TenantSpec)],
    checkpoint: Option<&ShardCheckpoint>,
    journal: &ObservationJournal,
) -> Result<(ShardInit, RebuildSummary), SnapshotError> {
    let mut tenants: FxHashMap<u32, TenantState> = FxHashMap::default();
    for &(tenant, ref spec) in specs {
        tenants
            .entry(tenant)
            .or_insert_with(|| TenantState::new(tenant, spec));
    }
    let mut stats = ShardStats {
        shard,
        ..ShardStats::default()
    };
    let mut now: Cycle = 0;
    let mut server = Server::new();
    let mut checkpoint_seq = 0;
    let mut checkpoint_bytes = 0;
    let interrupted = checkpoint.is_some_and(|cp| !cp.complete);
    if let Some(cp) = checkpoint.filter(|cp| cp.complete) {
        checkpoint_seq = cp.seq;
        stats = cp.stats;
        now = cp.now;
        server = Server::from_state(cp.server);
        for tc in &cp.tenants {
            if let Some(state) = tenants.get_mut(&tc.tenant) {
                state.table.restore_checkpoint(&tc.table)?;
                state.stats = tc.stats;
            }
            checkpoint_bytes += tc.table.bytes();
        }
    }

    let (entries, coverage) = journal.replay_from(checkpoint_seq);
    let mut prefetches: Vec<LineAddr> = Vec::new();
    for entry in &entries {
        // A journaled batch was accepted for a registered tenant; a
        // missing entry here would mean the spec registry lost a tenant
        // the journal still references — skip rather than poison
        // recovery, the session will surface UnknownTenant loudly.
        let Some(state) = tenants.get_mut(&entry.tenant) else {
            continue;
        };
        apply_piggyback(
            &mut state.stats,
            &mut stats,
            entry.rejected_cum,
            entry.shed_cum,
        );
        prefetches.clear();
        let observed = entry.obs.len() as u64;
        {
            let mut sink = IngestSink {
                now: &mut now,
                obs_cycles: cfg.obs_cycles,
                server: &mut server,
                prefetches: &mut prefetches,
            };
            state.table.process_misses(&entry.obs, &mut sink);
        }
        note_accepted(
            &mut state.stats,
            &mut stats,
            observed,
            prefetches.len() as u64,
        );
    }

    let summary = RebuildSummary {
        coverage,
        interrupted,
        checkpoint_seq,
        resumed_seq: journal.last_acked(),
        checkpoint_bytes,
        tenants_restored: tenants.len() as u32,
    };
    Ok((
        ShardInit {
            tenants,
            stats,
            now,
            server,
        },
        summary,
    ))
}

/// Merges a batch's piggybacked *cumulative* rejected/shed counters into
/// the stats, returning the applied deltas. `saturating_sub` makes the
/// merge idempotent: a resubmitted batch (at-least-once delivery after a
/// crash) or a journal-replayed one carries the same cumulative values,
/// so applying it again adds zero — the fix for the old delta scheme,
/// which lost counts when a worker died between enqueue and ack, and
/// would have double-counted them had the client re-carried its deltas.
fn apply_piggyback(
    tenant: &mut TenantStats,
    shard: &mut ShardStats,
    rejected_cum: u64,
    shed_cum: u64,
) -> (u64, u64) {
    let dr = rejected_cum.saturating_sub(tenant.rejected);
    let ds = shed_cum.saturating_sub(tenant.shed);
    tenant.rejected += dr;
    shard.rejected += dr;
    tenant.shed += ds;
    shard.shed += ds;
    (dr, ds)
}

fn note_accepted(tenant: &mut TenantStats, shard: &mut ShardStats, observed: u64, prefetches: u64) {
    tenant.batches += 1;
    tenant.observed += observed;
    tenant.prefetches += prefetches;
    shard.batches += 1;
    shard.observed += observed;
    shard.prefetches += prefetches;
}

/// How processing one ingress batch ended.
enum BatchOutcome {
    /// Processed (or acked without learning); keep going.
    Done,
    /// A chaos wedge fired: stop consuming and park until fenced.
    Wedge,
}

/// The worker's whole mutable state, so the control handlers and the
/// batch processor can share it without threading a dozen parameters.
struct WorkerLoop<'a> {
    shard: u32,
    epoch: u64,
    cfg: &'a ServiceConfig,
    cancel: &'a CancelToken,
    slot: &'a ShardSlot,
    ingress: &'a Ingress,
    st: ShardInit,
    trace: Option<TraceBuffer>,
    metrics: Option<MetricsRegistry>,
    fault_plan: Option<ServiceFaultPlan>,
    since_checkpoint: u64,
}

impl WorkerLoop<'_> {
    /// Processes one batch end-to-end: chaos hooks, piggyback merge,
    /// batch kernel, journal-before-ack, periodic checkpoint.
    ///
    /// # Panics
    ///
    /// Panics when a chaos kill fault fires (caught by the spawn
    /// wrapper; that is the fault's delivery mechanism).
    fn process_one(&mut self, batch: IngressBatch) -> BatchOutcome {
        let IngressBatch {
            tenant,
            mut obs,
            rejected_cum,
            shed_cum,
            reply,
            enqueued_at,
            ..
        } = batch;
        // Queue wait is measured at dequeue, before any processing. With
        // metrics off both `metrics` and `enqueued_at` are `None` (the
        // same config bit switches the stamp), so the disabled hot path
        // costs exactly one untaken branch and zero clock reads.
        let queue_wait_nanos = if self.metrics.is_some() {
            enqueued_at.map(|t| t.elapsed().as_nanos() as u64)
        } else {
            None
        };
        let Some(state) = self.st.tenants.get_mut(&tenant) else {
            // Defensive: the ingress only admits registered tenants, so
            // this means the registries diverged. Surface it loudly.
            obs.clear();
            let _ = reply.send(BatchReply::rejected(
                ServiceError::UnknownTenant(tenant),
                obs,
            ));
            self.slot.health.note_processed(self.st.now);
            return BatchOutcome::Done;
        };
        if self.cancel.is_cancelled() {
            // Graceful wind-down: acknowledge without learning so
            // clients draining their pipelines don't hang.
            obs.clear();
            let _ = reply.send(BatchReply::cancelled(obs));
            self.slot.health.note_processed(self.st.now);
            return BatchOutcome::Done;
        }
        // Chaos hook: evaluated before the batch is journaled or
        // acknowledged, so a killed/wedged shard never acks the
        // triggering batch and the client can safely resubmit it.
        if let Some(plan) = &mut self.fault_plan {
            let seq_next = lock(&self.slot.journal).next_seq();
            match plan.on_batch(seq_next, &self.slot.fault_state) {
                Some(ServiceFault::KillShard) => {
                    panic!("chaos: kill-shard fault at batch seq {seq_next}");
                }
                Some(ServiceFault::WedgeShard) => return BatchOutcome::Wedge,
                Some(ServiceFault::SlowConsumer(extra)) => self.st.now += extra,
                None => {}
            }
        }
        let (dr, _ds) =
            apply_piggyback(&mut state.stats, &mut self.st.stats, rejected_cum, shed_cum);
        if dr > 0 {
            if let Some(t) = &mut self.trace {
                t.record(
                    self.st.now,
                    TraceEvent::ShardReject {
                        shard: self.shard,
                        tenant,
                        count: dr.min(u32::MAX as u64) as u32,
                    },
                );
            }
        }
        if let Some(t) = &mut self.trace {
            t.record(
                self.st.now,
                TraceEvent::ShardBatch {
                    shard: self.shard,
                    tenant,
                    len: obs.len() as u32,
                },
            );
        }
        let mut prefetches = Vec::new();
        let observed = obs.len() as u64;
        let ingest_t0 = self.metrics.as_ref().map(|_| Instant::now());
        {
            let mut sink = IngestSink {
                now: &mut self.st.now,
                obs_cycles: self.cfg.obs_cycles,
                server: &mut self.st.server,
                prefetches: &mut prefetches,
            };
            state.table.process_misses(&obs, &mut sink);
        }
        note_accepted(
            &mut state.stats,
            &mut self.st.stats,
            observed,
            prefetches.len() as u64,
        );
        if let Some(m) = &mut self.metrics {
            let ingest_nanos = ingest_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            m.note_batch(
                observed,
                prefetches.len() as u64,
                queue_wait_nanos,
                ingest_nanos,
            );
        }
        // Journal the acked batch *before* replying: once the client
        // sees the ack, the batch is recoverable (within the journal
        // window) — the exactly-once half of the recovery contract.
        lock(&self.slot.journal).push(tenant, rejected_cum, shed_cum, &obs);
        self.since_checkpoint += 1;
        // Hand the (cleared) batch buffer back so the client can refill
        // it: steady-state ingestion allocates nothing.
        obs.clear();
        let _ = reply.send(BatchReply::accepted(observed, prefetches, obs));
        if self.since_checkpoint >= self.cfg.supervision.checkpoint_every {
            self.checkpoint();
        }
        self.slot.health.note_processed(self.st.now);
        BatchOutcome::Done
    }

    /// Chaos-wedge park: stop consuming and stop heartbeating, but stay
    /// alive until the supervisor fences this epoch. Service shutdown
    /// also releases the park, so joining a wedged shard can't deadlock.
    fn park_until_fenced(&self) -> ShardExit {
        while !self.slot.is_abandoned(self.epoch) && !self.slot.is_closing() {
            std::thread::park_timeout(Duration::from_millis(1));
        }
        ShardExit::Abandoned
    }

    /// Handles one control message, after draining each tenant it
    /// follows to the barrier it captured. `Some(exit)` ends the worker.
    fn handle_control(&mut self, control: Control) -> Option<ShardExit> {
        for (tenant, barrier) in control.barriers {
            while let Some(batch) = self.ingress.pop_before(tenant, barrier) {
                if let BatchOutcome::Wedge = self.process_one(batch) {
                    return Some(self.park_until_fenced());
                }
            }
        }
        match control.msg {
            ShardMsg::Open {
                tenant,
                spec,
                reply,
            } => {
                let result = match self.st.tenants.entry(tenant) {
                    Entry::Occupied(_) => Err(ServiceError::TenantExists(tenant)),
                    Entry::Vacant(vacant) => match spec.validate() {
                        Ok(()) => {
                            vacant.insert(TenantState::new(tenant, &spec));
                            // Queue registered before the ack, so an
                            // acked open can immediately submit.
                            self.ingress.register(tenant, spec.weight, spec.queue_depth);
                            Ok(())
                        }
                        Err(e) => Err(ServiceError::InvalidSpec(e)),
                    },
                };
                let _ = reply.send(result);
            }
            ShardMsg::Snapshot { tenant, reply } => {
                let _ = reply.send(self.tenant(tenant).map(|s| s.table.snapshot()));
            }
            ShardMsg::Restore {
                tenant,
                snap,
                reply,
            } => {
                let result = match self.st.tenants.get_mut(&tenant) {
                    None => Err(ServiceError::UnknownTenant(tenant)),
                    Some(state) => state.table.restore(&snap).map_err(ServiceError::Snapshot),
                };
                let restored = result.is_ok();
                let _ = reply.send(result);
                if restored {
                    // A warm start is control-plane state the journal
                    // never sees; checkpoint immediately so a crash can
                    // never silently roll the tenant back past it.
                    self.checkpoint();
                }
            }
            ShardMsg::Fingerprint { tenant, reply } => {
                let _ = reply.send(self.tenant(tenant).map(|s| s.table.table_fingerprint()));
            }
            ShardMsg::TenantStats { tenant, reply } => {
                let _ = reply.send(self.tenant(tenant).map(|s| {
                    let mut stats = s.stats;
                    stats.live_rows = s.table.occupancy() as u64;
                    stats.table_bytes = s.table.table_size_bytes();
                    stats
                }));
            }
            ShardMsg::ShardStats { reply } => {
                let _ = reply.send(finalize(&self.st));
            }
            ShardMsg::Metrics { reply } => {
                let _ = reply.send(self.snapshot_metrics());
            }
            ShardMsg::Drain { reply } => {
                let _ = reply.send(());
            }
            ShardMsg::Pause(gate) => {
                // Blocks until the PauseGuard is dropped (recv returns
                // Err on hangup, which is the expected resume signal).
                // The paused flag tells the supervisor this stall is
                // deliberate, not a wedge.
                self.slot.health.paused.store(true, Ordering::SeqCst);
                let _ = gate.recv();
                self.slot.health.paused.store(false, Ordering::SeqCst);
            }
            ShardMsg::Shutdown => {
                // Shutdown/drain contract: every batch enqueued before
                // shutdown began (the barriers, drained above) is
                // processed; everything queued behind it is rejected
                // with a typed error instead of being silently dropped.
                // We close the ingress ourselves so the late arrivals
                // come back to answer; the slot's take_down then finds
                // it already closed. Marking the slot closed routes later
                // submissions to TrySubmit::Closed, and tells the wedge
                // detector this worker is gone on purpose.
                let late = self.ingress.close();
                self.slot.take_down(ShardState::Closed);
                self.refuse_late(late);
                return Some(self.finish());
            }
        }
        self.slot.health.note_processed(self.st.now);
        None
    }

    /// A registered tenant's state, or the typed error for an unknown
    /// one.
    fn tenant(&self, tenant: u32) -> Result<&TenantState, ServiceError> {
        self.st
            .tenants
            .get(&tenant)
            .ok_or(ServiceError::UnknownTenant(tenant))
    }

    /// Answers what was still queued when shutdown closed the ingress
    /// with a typed error instead of a dropped reply channel. Stats,
    /// metrics and drains still answer truthfully.
    fn refuse_late(&self, late: Drained) {
        for b in late.batches {
            let mut obs = b.obs;
            obs.clear();
            let _ = b
                .reply
                .send(BatchReply::rejected(ServiceError::ShuttingDown, obs));
        }
        for msg in late.control {
            match msg {
                ShardMsg::Open { reply, .. } | ShardMsg::Restore { reply, .. } => {
                    let _ = reply.send(Err(ServiceError::ShuttingDown));
                }
                ShardMsg::Snapshot { reply, .. } => {
                    let _ = reply.send(Err(ServiceError::ShuttingDown));
                }
                ShardMsg::Fingerprint { reply, .. } => {
                    let _ = reply.send(Err(ServiceError::ShuttingDown));
                }
                ShardMsg::TenantStats { reply, .. } => {
                    let _ = reply.send(Err(ServiceError::ShuttingDown));
                }
                ShardMsg::ShardStats { reply } => {
                    let _ = reply.send(finalize(&self.st));
                }
                ShardMsg::Metrics { reply } => {
                    let _ = reply.send(self.snapshot_metrics());
                }
                ShardMsg::Drain { reply } => {
                    let _ = reply.send(());
                }
                ShardMsg::Pause(_) | ShardMsg::Shutdown => {}
            }
        }
    }

    /// The worker's final report.
    fn finish(&mut self) -> ShardExit {
        ShardExit::Finished(Box::new(ShardReport {
            stats: finalize(&self.st),
            trace: self.trace.take(),
            epoch: self.epoch,
            recoveries: Vec::new(),
        }))
    }

    /// Brings the slot's checkpoint up to date with the shard, timed
    /// into the metrics registry when metrics are on.
    fn checkpoint(&mut self) {
        let t0 = self.metrics.as_ref().map(|_| Instant::now());
        take_checkpoint(self.slot, self.epoch, &mut self.st);
        self.since_checkpoint = 0;
        if let (Some(m), Some(t0)) = (&mut self.metrics, t0) {
            m.note_checkpoint(t0.elapsed().as_nanos() as u64);
        }
    }

    /// The registry's public snapshot, stamped on both clock domains.
    /// `None` when metrics are disabled.
    fn snapshot_metrics(&self) -> Option<ShardMetrics> {
        self.metrics
            .as_ref()
            .map(|m| m.snapshot(self.shard, self.epoch, &finalize(&self.st), self.st.now))
    }
}

/// The worker entry point the spawn wrapper calls inside `catch_unwind`.
/// Runs until [`ShardMsg::Shutdown`], until its ingress is closed, or
/// until the supervisor fences this epoch.
pub(crate) fn run_worker(ctx: &WorkerCtx, init: Option<ShardInit>) -> ShardExit {
    let WorkerCtx {
        shard,
        epoch,
        cfg,
        cancel,
        slot,
        ingress,
    } = ctx;
    let (shard, epoch) = (*shard, *epoch);
    slot.health.note_started(epoch);
    let st = init.unwrap_or_else(|| ShardInit {
        tenants: FxHashMap::default(),
        stats: ShardStats {
            shard,
            ..ShardStats::default()
        },
        now: 0,
        server: Server::new(),
    });
    // Counters resume from the rebuilt totals so `metrics == stats`
    // holds across restarts; histograms restart with the epoch.
    let metrics = cfg.metrics.then(|| MetricsRegistry::resumed(&st.stats));
    let mut w = WorkerLoop {
        shard,
        epoch,
        cfg,
        cancel,
        slot,
        ingress,
        st,
        trace: cfg.trace.map(TraceBuffer::new),
        metrics,
        fault_plan: cfg.fault.map(|fc| ServiceFaultPlan::new(fc, shard, epoch)),
        since_checkpoint: 0,
    };
    // The inbox wait is bounded by the supervision tick so fence checks
    // keep their cadence.
    let poll = Duration::from_millis(cfg.supervision.tick_ms.max(1));
    loop {
        if slot.is_abandoned(epoch) {
            return ShardExit::Abandoned;
        }
        match w.ingress.next(poll) {
            Work::Control(control) => {
                if let Some(exit) = w.handle_control(control) {
                    return exit;
                }
            }
            Work::Batch(batch) => {
                if let BatchOutcome::Wedge = w.process_one(batch) {
                    return w.park_until_fenced();
                }
            }
            Work::Idle => {}
            Work::Closed => return w.finish(),
        }
    }
}

/// Brings the slot's checkpoint up to the shard's current state, in
/// place: each tenant's table copy takes only the slots changed since
/// the last checkpoint. A worker whose epoch has been fenced leaves the
/// checkpoint alone, since its replacement was (or is being) rebuilt
/// from it. The update is bracketed by the checkpoint's `complete` flag,
/// so one cut short is never restored.
fn take_checkpoint(slot: &ShardSlot, epoch: u64, st: &mut ShardInit) {
    let seq = lock(&slot.journal).last_acked();
    let mut cell = lock(&slot.checkpoint);
    if slot.is_abandoned(epoch) {
        return;
    }
    let cp = cell.get_or_insert_with(|| ShardCheckpoint {
        complete: false,
        seq: 0,
        now: 0,
        server: Server::new().state(),
        stats: ShardStats::default(),
        tenants: Vec::new(),
    });
    cp.complete = false;
    for state in st.tenants.values_mut() {
        let tenant = state.stats.tenant;
        // Kept sorted by tenant ID, so the contents do not depend on
        // hash map iteration order.
        match cp.tenants.binary_search_by_key(&tenant, |t| t.tenant) {
            Ok(i) => {
                let tc = &mut cp.tenants[i];
                state.table.checkpoint_into(&mut tc.table);
                tc.stats = state.stats;
            }
            Err(i) => cp.tenants.insert(
                i,
                TenantCheckpoint {
                    tenant,
                    table: state.table.checkpoint(),
                    stats: state.stats,
                },
            ),
        }
    }
    cp.seq = seq;
    cp.now = st.now;
    cp.server = st.server.state();
    cp.stats = st.stats;
    cp.complete = true;
}

/// Fills in the derived fields of the running counters.
fn finalize(st: &ShardInit) -> ShardStats {
    let mut out = st.stats;
    out.tenants = st.tenants.len() as u32;
    out.busy_cycles = st.server.busy_cycles();
    out.elapsed_cycles = st.now.max(st.server.next_free());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(ns: std::ops::Range<u64>) -> Vec<LineAddr> {
        ns.map(LineAddr::new).collect()
    }

    /// A table of `spec` that learned `obs`.
    fn learned(spec: &TenantSpec, obs: &[LineAddr]) -> CorrelationTable {
        let mut table = CorrelationTable::with_kind(spec.kind, spec.params);
        table.process_misses(obs, &mut ulmt_core::cost::StepResult::new());
        table
    }

    #[test]
    fn an_interrupted_checkpoint_is_never_restored() {
        let cfg = ServiceConfig::default();
        let spec = TenantSpec::repl(64);
        let specs = [(1, spec)];
        let obs = lines(0..40);
        let mut journal = ObservationJournal::new(16);
        journal.push(1, 0, 0, &obs);
        // A checkpoint at seq 1 whose copy differs from what the journal
        // replays, so the test can tell which one recovery used.
        let mut checkpoint = Some(ShardCheckpoint {
            complete: false,
            seq: 1,
            now: 0,
            server: Server::new().state(),
            stats: ShardStats::default(),
            tenants: vec![TenantCheckpoint {
                tenant: 1,
                table: learned(&spec, &lines(100..140)).checkpoint(),
                stats: TenantStats::default(),
            }],
        });
        let fingerprint = |init: &ShardInit| init.tenants[&1].table.table_fingerprint();

        let (init, summary) =
            rebuild_shard(0, &cfg, &specs, checkpoint.as_ref(), &journal).unwrap();
        assert!(summary.interrupted);
        assert_eq!((summary.checkpoint_seq, summary.checkpoint_bytes), (0, 0));
        assert_eq!(fingerprint(&init), learned(&spec, &obs).table_fingerprint());
        assert_eq!(
            summary.outcome(),
            RecoveryOutcome::Lossy {
                replayed_batches: 1,
                dropped_batches: 0,
            },
            "starting over loses whatever the checkpoint held beyond the journal"
        );

        checkpoint.as_mut().unwrap().complete = true;
        let (init, summary) =
            rebuild_shard(0, &cfg, &specs, checkpoint.as_ref(), &journal).unwrap();
        assert!(!summary.interrupted);
        assert_eq!(summary.checkpoint_seq, 1);
        assert!(summary.checkpoint_bytes > 0);
        assert_eq!(
            fingerprint(&init),
            learned(&spec, &lines(100..140)).table_fingerprint()
        );
        assert_eq!(
            summary.outcome(),
            RecoveryOutcome::Clean {
                replayed_batches: 0
            }
        );
    }
}
