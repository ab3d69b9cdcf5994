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
//! acknowledged, and the whole shard state (tables, counters, virtual
//! clock) is checkpointed after every `checkpoint_every` accepted batches
//! (by default after each one, right after its ack). A checkpoint is a
//! commit: each table already logged the pre-image of every slot it
//! wrote since the last one, so the commit saves only scalars and copies
//! no slot. The state itself, a [`ShardInit`], outlives a worker panic,
//! and a replacement worker resumes from it rolled back to the last
//! checkpoint plus a journal replay through the same ingest step live
//! batches take ([`ShardInit::ingest`]) — bit-identical to a worker that
//! never died whenever the journal window covers the gap.
//! Queued ingress batches die with their worker epoch; their clients
//! observe a dropped reply channel and resubmit (at-least-once), which
//! is also why the piggybacked rejected/shed counters are *cumulative*:
//! the shard merges them idempotently, so a retry can never double-count
//! and a crash can never lose them.

use std::collections::hash_map::Entry;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use ulmt_core::algorithm::{StepSink, UlmtAlgorithm};
use ulmt_core::table::{CorrelationTable, TableSnapshot};
use ulmt_simcore::{Cycle, FxHashMap, LineAddr, Server};

use crate::config::{ServiceConfig, TenantSpec};
use crate::ingress::{Control, Drained, Follows, Ingress, IngressBatch, Work};
use crate::journal::{JournalCoverage, ObservationJournal};
use crate::metrics::{MetricsRegistry, ShardMetrics};
use crate::service::{BatchReply, ServiceError, ShardStats, TenantStats};
use crate::supervisor::{
    lock, RecoveryOutcome, RecoveryReport, ShardCheckpoint, ShardSlot, ShardState,
};

/// Receives the per-step effects of one batch straight from the table's
/// batch kernel. The cadence is exactly the old per-miss loop: advance
/// shard time by `obs_cycles` when a step begins, collect each prefetch
/// as it is emitted, and occupy the shard's server for the step's
/// instruction cost when it ends — 1 cycle/insn, like the memory
/// processor, giving the utilization figure. Journal replay during
/// recovery takes the *same* ingest step, which is why a clean recovery
/// also reproduces the virtual clock and utilization bit-identically.
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
    /// `stats` at the last checkpoint, which committed `table`.
    committed: TenantStats,
    /// Prefetches of the tenant's last accepted batch: the capacity the
    /// next batch's reply buffer starts with.
    reply_hint: usize,
}

impl TenantState {
    fn new(tenant: u32, spec: &TenantSpec) -> Self {
        let stats = TenantStats {
            tenant,
            ..TenantStats::default()
        };
        TenantState {
            table: CorrelationTable::with_kind(spec.kind, spec.params),
            stats,
            committed: stats,
            reply_hint: 0,
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
    /// The worker panicked; the panic was caught by the spawn wrapper,
    /// which hands back the shard's state as the panic left it.
    Panicked(Box<ShardInit>),
}

/// Everything a (re)spawned worker needs besides its receiving queue.
pub(crate) struct WorkerCtx {
    pub shard: u32,
    pub epoch: u64,
    pub cfg: ServiceConfig,
    pub slot: Arc<ShardSlot>,
    pub ingress: Arc<Ingress>,
}

/// A shard's in-memory state: its tenants' tables and counters, and its
/// virtual clock (`obs_cycles` per observation) with the utilization
/// server. The spawn wrapper owns it, so it survives a worker panic, and
/// a replacement worker resumes from it once [`rebuild_shard`] has
/// rolled it back.
pub(crate) struct ShardInit {
    tenants: FxHashMap<u32, TenantState>,
    stats: ShardStats,
    now: Cycle,
    obs_cycles: Cycle,
    server: Server,
}

impl ShardInit {
    /// A shard with no tenants, at virtual time 0.
    pub(crate) fn empty(shard: u32, obs_cycles: Cycle) -> Self {
        ShardInit {
            tenants: FxHashMap::default(),
            stats: ShardStats {
                shard,
                ..ShardStats::default()
            },
            now: 0,
            obs_cycles,
            server: Server::new(),
        }
    }

    /// The one ingest step, shared by live ingestion and journal replay:
    /// merge the batch's piggybacked counters, run the batch kernel into
    /// `prefetches` (cleared first), count the batch as accepted. A
    /// tenant the shard does not hold learns nothing. The counters are
    /// *cumulative*, so `saturating_sub` makes the merge idempotent: a
    /// resubmitted or replayed batch carries the same values and adds
    /// zero, and a worker that dies between enqueue and ack loses none.
    fn ingest(
        &mut self,
        tenant: u32,
        rejected_cum: u64,
        shed_cum: u64,
        obs: &[LineAddr],
        prefetches: &mut Vec<LineAddr>,
    ) {
        let Some(state) = self.tenants.get_mut(&tenant) else {
            return;
        };
        let dr = rejected_cum.saturating_sub(state.stats.rejected);
        let ds = shed_cum.saturating_sub(state.stats.shed);
        state.stats.rejected += dr;
        self.stats.rejected += dr;
        state.stats.shed += ds;
        self.stats.shed += ds;
        prefetches.clear();
        let mut sink = IngestSink {
            now: &mut self.now,
            obs_cycles: self.obs_cycles,
            server: &mut self.server,
            prefetches,
        };
        state.table.process_misses(obs, &mut sink);
        let (observed, emitted) = (obs.len() as u64, prefetches.len() as u64);
        state.reply_hint = prefetches.len();
        state.stats.batches += 1;
        state.stats.observed += observed;
        state.stats.prefetches += emitted;
        self.stats.batches += 1;
        self.stats.observed += observed;
        self.stats.prefetches += emitted;
    }
}

/// What [`rebuild_shard`] could reconstruct, for the recovery report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RebuildSummary {
    pub coverage: JournalCoverage,
    /// The last checkpoint update was cut short, or the dead worker's
    /// state was lost, so recovery started without a checkpoint.
    pub interrupted: bool,
    pub checkpoint_seq: u64,
    pub resumed_seq: u64,
    /// Bytes of pre-images (and replaced tables) the rollback wrote back.
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

/// Rebuilds a shard's in-memory state from the state `dead` its
/// panicked worker left, rolled back to the last checkpoint, plus a
/// replay of the journaled batches past it through the same
/// [`ShardInit::ingest`] step as live ingestion. Each table writes its
/// logged pre-images back, and the counters, virtual clock and
/// utilization server return to their checkpointed values, so a clean
/// recovery (journal covers the whole gap) is bit-identical to a worker
/// that never died. A tenant opened after the checkpoint starts empty. An
/// incomplete checkpoint counts as none, and so does a complete one
/// without the dead worker's state: recovery then starts from empty
/// tables.
pub(crate) fn rebuild_shard(
    shard: u32,
    cfg: &ServiceConfig,
    specs: &[(u32, TenantSpec)],
    checkpoint: Option<&ShardCheckpoint>,
    journal: &ObservationJournal,
    dead: Option<ShardInit>,
) -> (ShardInit, RebuildSummary) {
    let mut st = ShardInit::empty(shard, cfg.obs_cycles);
    let base = checkpoint.filter(|cp| cp.complete).zip(dead);
    let interrupted = checkpoint.is_some() && base.is_none();
    let (mut checkpoint_seq, mut checkpoint_bytes) = (0, 0);
    let mut survivors = FxHashMap::default();
    if let Some((cp, dead)) = base {
        checkpoint_seq = cp.seq;
        st.stats = cp.stats;
        st.now = cp.now;
        st.server = Server::from_state(cp.server);
        survivors = dead.tenants;
    }
    for &(tenant, ref spec) in specs {
        let state = survivors
            .remove(&tenant)
            .and_then(|mut state| {
                checkpoint_bytes += state.table.rollback()?;
                state.stats = state.committed;
                Some(state)
            })
            .unwrap_or_else(|| TenantState::new(tenant, spec));
        st.tenants.insert(tenant, state);
    }

    // A journaled batch was accepted for a registered tenant; one the
    // spec registry lost is skipped by `ingest` rather than poisoning
    // recovery, and the session surfaces UnknownTenant loudly.
    let (entries, coverage) = journal.replay_from(checkpoint_seq);
    let mut out = Vec::new(); // a replayed batch's prefetches go nowhere
    for e in &entries {
        st.ingest(e.tenant, e.rejected_cum, e.shed_cum, &e.obs, &mut out);
    }

    let summary = RebuildSummary {
        coverage,
        interrupted,
        checkpoint_seq,
        resumed_seq: journal.last_acked(),
        checkpoint_bytes,
        tenants_restored: st.tenants.len() as u32,
    };
    (st, summary)
}

/// The worker's whole mutable state, so the control handlers and the
/// batch processor can share it without threading a dozen parameters.
struct WorkerLoop<'a> {
    shard: u32,
    epoch: u64,
    cfg: &'a ServiceConfig,
    slot: &'a ShardSlot,
    ingress: &'a Ingress,
    st: &'a mut ShardInit,
    metrics: Option<MetricsRegistry>,
    since_checkpoint: u64,
}

impl WorkerLoop<'_> {
    /// Processes one batch end-to-end: chaos kill, the ingest step,
    /// journal-before-ack, then the checkpoint when one is due (after
    /// every batch by default), with the seq the journal assigned.
    ///
    /// # Panics
    ///
    /// Panics when the targeted kill fires (caught by the spawn
    /// wrapper; that is the fault's delivery mechanism).
    fn process_one(&mut self, batch: IngressBatch) {
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
        if !self.st.tenants.contains_key(&tenant) {
            // Defensive: the ingress only admits registered tenants, so
            // this means the registries diverged. Surface it loudly.
            obs.clear();
            let _ = reply.send(BatchReply::rejected(
                ServiceError::UnknownTenant(tenant),
                obs,
            ));
            return;
        }
        if self.slot.cancelled.load(Ordering::Acquire) {
            // The service was dropped: acknowledge without learning so
            // clients draining their pipelines don't hang.
            obs.clear();
            let _ = reply.send(BatchReply::cancelled(obs));
            return;
        }
        // Chaos kill: evaluated before the batch is journaled or
        // acknowledged, so a killed shard never acks the triggering
        // batch and the client can safely resubmit it.
        if let Some(kill) = &self.cfg.fault {
            let seq_next = lock(&self.slot.journal).next_seq();
            if kill.fires(self.shard, seq_next, &self.slot.kill_fired) {
                panic!("chaos: kill-shard fault at batch seq {seq_next}");
            }
        }
        // Sized from the tenant's last batch, so the reply rarely grows.
        let mut prefetches = Vec::with_capacity(self.st.tenants[&tenant].reply_hint);
        let observed = obs.len() as u64;
        let ingest_t0 = self.metrics.as_ref().map(|_| Instant::now());
        self.st
            .ingest(tenant, rejected_cum, shed_cum, &obs, &mut prefetches);
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
        let seq = lock(&self.slot.journal).push(tenant, rejected_cum, shed_cum, &obs);
        self.since_checkpoint += 1;
        // Hand the (cleared) batch buffer back so the client can refill
        // it; a full journal window reuses its evicted entry's buffer the
        // same way. `prefetches` goes to the client.
        obs.clear();
        let _ = reply.send(BatchReply::accepted(observed, prefetches, obs));
        if self.since_checkpoint >= self.cfg.supervision.checkpoint_every {
            self.checkpoint(seq);
        }
    }

    /// Handles one control message, after draining each tenant it
    /// follows to the barrier it captured. `Some(exit)` ends the worker.
    fn handle_control(&mut self, control: Control) -> Option<ShardExit> {
        for (tenant, barrier) in control.barriers {
            while let Some(batch) = self.ingress.pop_before(tenant, barrier) {
                self.process_one(batch);
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
                    let seq = lock(&self.slot.journal).last_acked();
                    self.checkpoint(seq);
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
                let _ = reply.send(finalize(self.st));
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
                let _ = gate.recv();
            }
            ShardMsg::Shutdown => {
                // Shutdown/drain contract: every batch enqueued before
                // shutdown began (the barriers, drained above) is
                // processed; everything queued behind it is rejected
                // with a typed error instead of being silently dropped.
                // We close the ingress ourselves so the late arrivals
                // come back to answer; the slot's take_down then finds
                // it already closed. Marking the slot closed routes later
                // submissions to TrySubmit::Closed.
                let late = self.ingress.close();
                self.slot.take_down(ShardState::Closed);
                self.refuse_late(late);
                return Some(self.finish());
            }
        }
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
                    let _ = reply.send(finalize(self.st));
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
            stats: finalize(self.st),
            epoch: self.epoch,
            recoveries: Vec::new(),
        }))
    }

    /// Brings the slot's checkpoint up to date with the shard as of
    /// journal seq `seq` (the last acked batch), timed into the metrics
    /// registry when metrics are on.
    fn checkpoint(&mut self, seq: u64) {
        let t0 = self.metrics.as_ref().map(|_| Instant::now());
        take_checkpoint(self.slot, self.st, seq);
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
            .map(|m| m.snapshot(self.shard, self.epoch, &finalize(self.st), self.st.now))
    }
}

/// The worker entry point the spawn wrapper calls inside `catch_unwind`,
/// on the shard state `st` the wrapper owns. Runs until
/// [`ShardMsg::Shutdown`] or until its ingress is closed.
pub(crate) fn run_worker(ctx: &WorkerCtx, st: &mut ShardInit) -> ShardExit {
    let WorkerCtx {
        shard,
        epoch,
        cfg,
        slot,
        ingress,
    } = ctx;
    let (shard, epoch) = (*shard, *epoch);
    // Counters resume from the rebuilt totals so `metrics == stats`
    // holds across restarts; histograms restart with the epoch.
    let metrics = cfg.metrics.then(|| MetricsRegistry::resumed(&st.stats));
    let mut w = WorkerLoop {
        shard,
        epoch,
        cfg,
        slot,
        ingress,
        st,
        metrics,
        since_checkpoint: 0,
    };
    loop {
        match w.ingress.next() {
            Work::Control(control) => {
                if let Some(exit) = w.handle_control(control) {
                    return exit;
                }
            }
            Work::Batch(batch) => w.process_one(batch),
            Work::Closed => return w.finish(),
        }
    }
}

/// Checkpoints the shard's current state, the one after journal seq
/// `seq`: commits every tenant's table (clearing what it logged since the
/// last checkpoint, copying no slot) and saves the counters, clock and
/// seq. A tenant no batch touched costs O(1). The commit is bracketed by
/// the checkpoint's `complete` flag, so one cut short is never restored.
fn take_checkpoint(slot: &ShardSlot, st: &mut ShardInit, seq: u64) {
    let mut cell = lock(&slot.checkpoint);
    let cp = cell.get_or_insert_with(|| ShardCheckpoint {
        complete: false,
        seq: 0,
        now: 0,
        server: Server::new().state(),
        stats: ShardStats::default(),
    });
    cp.complete = false;
    for state in st.tenants.values_mut() {
        state.table.commit();
        state.committed = state.stats;
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
        // The state a worker left: its table committed at seq 1 with
        // what differs from what the journal replays, so the test can
        // tell which one recovery used, then written past the commit.
        let dead = || {
            let mut st = ShardInit::empty(0, cfg.obs_cycles);
            let mut state = TenantState::new(1, &spec);
            state.table = learned(&spec, &lines(100..140));
            state.table.commit();
            state
                .table
                .process_misses(&lines(200..230), &mut ulmt_core::cost::StepResult::new());
            state.stats.observed = 30;
            st.tenants.insert(1, state);
            Some(st)
        };
        let mut checkpoint = Some(ShardCheckpoint {
            complete: false,
            seq: 1,
            now: 0,
            server: Server::new().state(),
            stats: ShardStats::default(),
        });
        let fingerprint = |init: &ShardInit| init.tenants[&1].table.table_fingerprint();

        let (init, summary) = rebuild_shard(0, &cfg, &specs, checkpoint.as_ref(), &journal, dead());
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
        let (init, summary) = rebuild_shard(0, &cfg, &specs, checkpoint.as_ref(), &journal, dead());
        assert!(!summary.interrupted);
        assert_eq!(summary.checkpoint_seq, 1);
        assert!(summary.checkpoint_bytes > 0);
        assert_eq!(
            fingerprint(&init),
            learned(&spec, &lines(100..140)).table_fingerprint()
        );
        assert_eq!(init.tenants[&1].stats.observed, 0, "stats rolled back");
        assert_eq!(
            summary.outcome(),
            RecoveryOutcome::Clean {
                replayed_batches: 0
            }
        );
    }
}
