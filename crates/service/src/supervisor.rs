//! Shard supervision: panic capture, journaled crash recovery, and
//! degraded-mode routing state.
//!
//! Every shard owns a [`ShardSlot`] — the part of the shard that
//! *survives* its worker thread: the link sessions resolve the live
//! epoch's [`Ingress`] through, the shard's state and epoch, the
//! observation journal and periodic checkpoint recovery rebuilds from,
//! and two flags that must outlive a restart: the service's cancellation
//! and the targeted kill's once-only budget.
//!
//! The one worker failure supervision handles is a **panic**: the
//! worker's spawn wrapper catches the unwind
//! ([`std::panic::catch_unwind`]) and sends
//! [`SupervisorMsg::Panicked`]. The supervisor thread blocks on those
//! messages, with no tick; by the time one arrives the worker has
//! finished unwinding, so the supervisor joins its thread outright. It
//! never replaces a live worker: a worker that hangs without panicking
//! stays in place, and its tenants see full queues and timed-out
//! control calls.
//!
//! The checkpoint is one [`ShardCheckpoint`] per slot. After every
//! `checkpoint_every` accepted batches (by default after each one) the
//! worker commits each tenant's table and saves the shard's counters,
//! virtual clock and journal seq. A commit copies no slot: between
//! commits a table logs the pre-image of each slot before its first
//! write (`ulmt_core::table::checkpoint`), so a tenant the batch did not
//! touch costs O(1). An update marks the checkpoint incomplete before it
//! commits anything and complete when done, so one cut short by a panic
//! is never restored: recovery treats it as absent, starts from empty
//! tables and reports the recovery lossy.
//!
//! The shard's state itself, tables and logs included, is owned by the
//! worker's spawn wrapper outside `catch_unwind`, so it outlives the
//! panic and comes back in [`ShardExit::Panicked`]. Recovery rolls each
//! table back to the last checkpoint, replays the journal through the
//! live batch kernel ([`crate::shard::rebuild_shard`]), bumps the worker
//! **epoch**, and publishes a fresh link. Sessions re-resolve on
//! demand; while the slot is down they shed (acknowledge-without-learn)
//! or wait, per [`SupervisionConfig::shed_when_down`]. The whole story
//! is written up in `DESIGN.md` §14.
//!
//! [`SupervisionConfig::shed_when_down`]: crate::SupervisionConfig::shed_when_down

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ulmt_simcore::{Cycle, ServerState};

use crate::config::{ServiceConfig, TenantSpec};
use crate::ingress::Ingress;
use crate::journal::ObservationJournal;
use crate::service::{ServiceError, ShardStats};
use crate::shard::{
    rebuild_shard, run_worker, ShardExit, ShardInit, ShardMsg, ShardReport, WorkerCtx,
};

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Shard state must stay reachable after a worker dies mid-anything —
/// poisoning is exactly the situation supervision exists for.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Externally visible availability of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Worker alive and consuming.
    Up,
    /// Worker dead; the supervisor is (or will be) rebuilding it.
    /// Sessions shed or wait, per policy.
    Down,
    /// The restart budget is exhausted; the shard stays down for the
    /// service's lifetime.
    Failed,
    /// The service has shut down.
    Closed,
}

const STATE_UP: u8 = 0;
const STATE_DOWN: u8 = 1;
const STATE_FAILED: u8 = 2;
const STATE_CLOSED: u8 = 3;

impl ShardState {
    fn to_u8(self) -> u8 {
        match self {
            ShardState::Up => STATE_UP,
            ShardState::Down => STATE_DOWN,
            ShardState::Failed => STATE_FAILED,
            ShardState::Closed => STATE_CLOSED,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            STATE_DOWN => ShardState::Down,
            STATE_FAILED => ShardState::Failed,
            STATE_CLOSED => ShardState::Closed,
            _ => ShardState::Up,
        }
    }
}

/// The inbox sessions currently resolve to, plus the epoch that owns it.
pub(crate) struct ShardLink {
    /// The live epoch's [`Ingress`]; `None` while the shard is down,
    /// failed, or closed.
    pub ingress: Option<Arc<Ingress>>,
    /// Worker epoch the ingress belongs to (bumped on every restart).
    pub epoch: u64,
}

/// The shard's availability and live worker epoch, readable without a
/// lock.
#[derive(Debug, Default)]
pub(crate) struct ShardHealth {
    state: AtomicU8,
    epoch: AtomicU64,
}

impl ShardHealth {
    pub fn state(&self) -> ShardState {
        ShardState::from_u8(self.state.load(Ordering::SeqCst))
    }

    pub fn set_state(&self, s: ShardState) {
        self.state.store(s.to_u8(), Ordering::SeqCst);
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

/// The scalars of a shard at its last checkpoint, an accepted-batch
/// boundary. The tables themselves were committed there and roll back
/// to it (module docs).
#[derive(Debug)]
pub(crate) struct ShardCheckpoint {
    /// `false` while an update is under way. An update cut short (its
    /// worker panicked mid-way) leaves tables committed at two
    /// boundaries, which recovery must never restore: it treats the
    /// checkpoint as absent.
    pub complete: bool,
    /// Last acked batch seq included in this checkpoint.
    pub seq: u64,
    /// The shard's virtual clock at the boundary.
    pub now: Cycle,
    /// The utilization server's state at the boundary.
    pub server: ServerState,
    /// Aggregate counters at the boundary.
    pub stats: ShardStats,
}

/// The crash-surviving half of a shard. Sessions, the service front end,
/// the worker thread and the supervisor all share one `Arc<ShardSlot>`.
pub(crate) struct ShardSlot {
    pub shard: u32,
    pub link: RwLock<ShardLink>,
    pub health: ShardHealth,
    /// Registered tenants, in open order — the specs recovery recreates
    /// tables from.
    pub specs: Mutex<Vec<(u32, TenantSpec)>>,
    pub journal: Mutex<ObservationJournal>,
    pub checkpoint: Mutex<Option<ShardCheckpoint>>,
    /// Set when the service is dropped without `shutdown`: every later
    /// batch is acknowledged without learning, by any epoch.
    pub cancelled: AtomicBool,
    /// Set when the targeted kill fires, so it fires once per slot and a
    /// restarted worker cannot crash-loop on it.
    pub kill_fired: AtomicBool,
    pub recoveries: Mutex<Vec<RecoveryReport>>,
}

impl std::fmt::Debug for ShardSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSlot")
            .field("shard", &self.shard)
            .field("state", &self.health.state())
            .field("epoch", &self.health.epoch())
            .finish_non_exhaustive()
    }
}

impl ShardSlot {
    pub fn new(shard: u32, cfg: &ServiceConfig) -> Self {
        ShardSlot {
            shard,
            link: RwLock::new(ShardLink {
                ingress: None,
                epoch: 0,
            }),
            health: ShardHealth::default(),
            specs: Mutex::new(Vec::new()),
            journal: Mutex::new(ObservationJournal::new(cfg.supervision.journal_window)),
            checkpoint: Mutex::new(None),
            cancelled: AtomicBool::new(false),
            kill_fired: AtomicBool::new(false),
            recoveries: Mutex::new(Vec::new()),
        }
    }

    /// Current ingress + epoch + state, read under the link lock.
    pub fn resolve(&self) -> (Option<Arc<Ingress>>, u64, ShardState) {
        let link = self.link.read().unwrap_or_else(|e| e.into_inner());
        (link.ingress.clone(), link.epoch, self.health.state())
    }

    /// Pushes a control message onto the live epoch's ingress. A down or
    /// failed shard is [`ServiceError::ShardDown`] and a closed one
    /// [`ServiceError::Closed`], instead of queueing into the void; a
    /// push that races a restart goes to the replacement epoch.
    pub fn control(&self, mut msg: ShardMsg) -> Result<(), ServiceError> {
        loop {
            let (ingress, epoch, state) = self.resolve();
            match (state, ingress) {
                (ShardState::Up, Some(ingress)) => match ingress.push_control(msg) {
                    Ok(()) => return Ok(()),
                    // Closed under us. Still the same live epoch: its
                    // worker is shutting down (or died this instant and
                    // the supervisor has not reacted yet).
                    Err(back) => {
                        if self.health.state() == ShardState::Up && self.health.epoch() == epoch {
                            return Err(ServiceError::Closed);
                        }
                        msg = back;
                    }
                },
                (ShardState::Closed, _) => return Err(ServiceError::Closed),
                _ => return Err(ServiceError::ShardDown(self.shard)),
            }
        }
    }

    fn publish(&self, ingress: Arc<Ingress>, epoch: u64) {
        {
            let mut link = self.link.write().unwrap_or_else(|e| e.into_inner());
            *link = ShardLink {
                ingress: Some(ingress),
                epoch,
            };
        }
        self.health.epoch.store(epoch, Ordering::SeqCst);
        self.health.set_state(ShardState::Up);
    }

    pub(crate) fn take_down(&self, state: ShardState) {
        self.health.set_state(state);
        let ingress = self
            .link
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .ingress
            .take();
        // Close the dead epoch's ingress and *drop* whatever was still
        // queued, batches and control messages alike: the reply channels
        // die with them, clients see `Closed` (or `ShardDown`) and
        // resubmit against the next epoch. (On the graceful path the
        // worker already closed it and answered the stragglers with a
        // typed error, so this drains nothing.)
        if let Some(ingress) = ingress {
            drop(ingress.close());
        }
    }
}

/// How much of the shard's acked history a recovery reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Checkpoint + journal covered every acked batch: the rebuilt shard
    /// is bit-identical to one that never died.
    Clean {
        /// Journaled batches replayed on top of the checkpoint.
        replayed_batches: u64,
    },
    /// Acked batches older than the journal window were lost, or the
    /// last checkpoint update was cut short and recovery started from
    /// empty tables (losing any warm start, which the journal never
    /// sees). Tables are best-effort (checkpoint plus the surviving
    /// suffix); the counters below keep the accounting identity exact.
    Lossy {
        /// Journaled batches replayed on top of the checkpoint.
        replayed_batches: u64,
        /// Acked batches that could not be replayed — the exact gap
        /// between the checkpoint and the oldest surviving journal entry.
        dropped_batches: u64,
    },
}

/// One shard restart after a worker panic, as recorded by the
/// supervisor.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The shard that was rebuilt.
    pub shard: u32,
    /// The epoch of the replacement worker.
    pub epoch: u64,
    /// Clean or lossy, with exact replay/drop counts.
    pub outcome: RecoveryOutcome,
    /// Tenants recreated on the replacement worker.
    pub tenants_restored: u32,
    /// Observations replayed from the journal.
    pub replayed_obs: u64,
    /// Seq of the checkpoint recovery started from (0 = none).
    pub checkpoint_seq: u64,
    /// Last acked seq the rebuilt shard resumed after.
    pub resumed_seq: u64,
    /// Bytes the rollback to the checkpoint wrote back: every tenant's
    /// logged slot pre-images, plus any table a resize or a snapshot
    /// restore replaced since. 0 when recovery started without a
    /// checkpoint.
    pub checkpoint_bytes: u64,
    /// Wall-clock nanoseconds from taking the dead epoch down to
    /// publishing the replacement link.
    pub latency_nanos: u64,
}

impl RecoveryReport {
    /// `true` for a bit-identical recovery.
    pub fn is_clean(&self) -> bool {
        matches!(self.outcome, RecoveryOutcome::Clean { .. })
    }

    /// Acked batches the recovery could not replay (0 when clean).
    pub fn dropped_batches(&self) -> u64 {
        match self.outcome {
            RecoveryOutcome::Clean { .. } => 0,
            RecoveryOutcome::Lossy {
                dropped_batches, ..
            } => dropped_batches,
        }
    }
}

/// Messages the supervisor thread reacts to.
pub(crate) enum SupervisorMsg {
    /// A shard's worker died by panic (sent by its spawn wrapper once
    /// the unwind is over).
    Panicked { shard: u32 },
    /// Stop supervising. With a reply channel: graceful shutdown — drain
    /// every worker, join them, and report. Without: the service was
    /// dropped; close the links and exit.
    Stop {
        reply: Option<Sender<Vec<ShardReport>>>,
    },
}

/// The front end's handle on the supervisor thread.
pub(crate) struct SupervisorHandle {
    pub tx: Sender<SupervisorMsg>,
    pub thread: Option<JoinHandle<()>>,
}

struct Worker {
    handle: Option<JoinHandle<ShardExit>>,
    epoch: u64,
}

/// Spawns one worker epoch for `slot` and returns its freshly built
/// ingress (with every registered tenant's queue pre-created from the
/// spec registry, so recovered tenants can submit the moment the link
/// publishes) and the thread handle.
fn spawn_worker(
    slot: &Arc<ShardSlot>,
    cfg: ServiceConfig,
    epoch: u64,
    events: Sender<SupervisorMsg>,
    init: ShardInit,
) -> (Arc<Ingress>, JoinHandle<ShardExit>) {
    let ingress = Arc::new(Ingress::with_stamp(
        cfg.quantum_obs,
        cfg.queue_depth,
        cfg.metrics,
    ));
    for (tenant, spec) in lock(&slot.specs).iter() {
        ingress.register(*tenant, spec.weight, spec.queue_depth);
    }
    let slot = Arc::clone(slot);
    let shard = slot.shard;
    let worker_ingress = Arc::clone(&ingress);
    let handle = std::thread::Builder::new()
        .name(format!("ulmt-shard-{shard}.{epoch}"))
        .spawn(move || {
            let ctx = WorkerCtx {
                shard,
                epoch,
                cfg,
                slot,
                ingress: worker_ingress,
            };
            // Owned out here, the state outlives a panic in the worker.
            let mut init = init;
            match catch_unwind(AssertUnwindSafe(|| run_worker(&ctx, &mut init))) {
                Ok(exit) => exit,
                Err(_) => {
                    let _ = events.send(SupervisorMsg::Panicked { shard });
                    ShardExit::Panicked(Box::new(init))
                }
            }
        })
        .expect("spawning a shard worker thread");
    (ingress, handle)
}

/// Everything the supervisor thread owns.
struct Supervisor {
    cfg: ServiceConfig,
    slots: Vec<Arc<ShardSlot>>,
    workers: Vec<Worker>,
    events_tx: Sender<SupervisorMsg>,
    restarts: Vec<u32>,
}

impl Supervisor {
    fn run(mut self, rx: Receiver<SupervisorMsg>) {
        while let Ok(msg) = rx.recv() {
            match msg {
                SupervisorMsg::Panicked { shard } => self.restart(shard as usize),
                SupervisorMsg::Stop { reply } => return self.stop(reply),
            }
        }
    }

    /// Takes the panicked epoch of `shard` down, joins its thread,
    /// rolls the state it hands back to the last checkpoint and replays
    /// the journal past it, spawns a replacement
    /// epoch, and publishes the new link. Exhausting the restart budget
    /// parks the shard in [`ShardState::Failed`] instead.
    fn restart(&mut self, shard: usize) {
        let t0 = Instant::now();
        let slot = Arc::clone(&self.slots[shard]);
        let old_epoch = self.workers[shard].epoch;
        slot.take_down(ShardState::Down);
        // The spawn wrapper reports a panic after the unwind, so the
        // thread is already on its way out, with the shard's state.
        let dead = match self.workers[shard].handle.take().map(JoinHandle::join) {
            Some(Ok(ShardExit::Panicked(init))) => Some(*init),
            _ => None,
        };
        if self.restarts[shard] >= self.cfg.supervision.max_restarts {
            slot.take_down(ShardState::Failed);
            return;
        }
        self.restarts[shard] += 1;
        let backoff = self
            .cfg
            .supervision
            .backoff_base_ms
            .saturating_mul(1u64 << (self.restarts[shard] - 1).min(16))
            .min(self.cfg.supervision.backoff_max_ms);
        if backoff > 0 {
            std::thread::sleep(Duration::from_millis(backoff));
        }

        let specs = lock(&slot.specs).clone();
        let (init, summary) = {
            let checkpoint = lock(&slot.checkpoint);
            let journal = lock(&slot.journal);
            rebuild_shard(
                slot.shard,
                &self.cfg,
                &specs,
                checkpoint.as_ref(),
                &journal,
                dead,
            )
        };
        let epoch = old_epoch + 1;
        let (ingress, handle) = spawn_worker(&slot, self.cfg, epoch, self.events_tx.clone(), init);
        self.workers[shard] = Worker {
            handle: Some(handle),
            epoch,
        };
        slot.publish(ingress, epoch);

        let outcome = summary.outcome();
        lock(&slot.recoveries).push(RecoveryReport {
            shard: slot.shard,
            epoch,
            outcome,
            tenants_restored: summary.tenants_restored,
            replayed_obs: summary.coverage.replayable_obs,
            checkpoint_seq: summary.checkpoint_seq,
            resumed_seq: summary.resumed_seq,
            checkpoint_bytes: summary.checkpoint_bytes,
            latency_nanos: t0.elapsed().as_nanos() as u64,
        });
    }

    /// Graceful (with `reply`) or silent (service dropped) shutdown.
    fn stop(mut self, reply: Option<Sender<Vec<ShardReport>>>) {
        // Ask every live worker to drain and exit: everything enqueued
        // before shutdown began gets processed, everything behind it gets
        // a typed rejection instead of a silent drop. (A silent stop
        // closes the ingresses right below, which drops the queue and
        // ends the workers whether or not they saw the message.)
        for slot in &self.slots {
            let _ = slot.control(ShardMsg::Shutdown);
        }
        let mut reports = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.iter().enumerate() {
            let joined = match self.workers[i].handle.take() {
                Some(h) if reply.is_some() => h.join().ok(),
                // Silent stop: don't block on workers; each exits once
                // the take_down below closes its ingress.
                Some(_) | None => None,
            };
            let mut report = match joined {
                Some(ShardExit::Finished(r)) => *r,
                _ => ShardReport {
                    stats: lock(&slot.checkpoint)
                        .as_ref()
                        .filter(|cp| cp.complete)
                        .map(|cp| cp.stats)
                        .unwrap_or(ShardStats {
                            shard: slot.shard,
                            ..ShardStats::default()
                        }),
                    epoch: self.workers[i].epoch,
                    recoveries: Vec::new(),
                },
            };
            report.recoveries = std::mem::take(&mut *lock(&slot.recoveries));
            reports.push(report);
            slot.take_down(ShardState::Closed);
        }
        if let Some(reply) = reply {
            let _ = reply.send(reports);
        }
    }
}

/// Spawns the initial worker epoch for every slot plus the supervisor
/// thread that owns them from here on.
pub(crate) fn start_supervisor(cfg: ServiceConfig, slots: Vec<Arc<ShardSlot>>) -> SupervisorHandle {
    let (events_tx, events_rx) = channel();
    let mut workers = Vec::with_capacity(slots.len());
    for slot in &slots {
        let init = ShardInit::empty(slot.shard, cfg.obs_cycles);
        let (ingress, handle) = spawn_worker(slot, cfg, 0, events_tx.clone(), init);
        slot.publish(ingress, 0);
        workers.push(Worker {
            handle: Some(handle),
            epoch: 0,
        });
    }
    let n = slots.len();
    let supervisor = Supervisor {
        cfg,
        slots,
        workers,
        events_tx: events_tx.clone(),
        restarts: vec![0; n],
    };
    let thread = std::thread::Builder::new()
        .name("ulmt-supervisor".to_string())
        .spawn(move || supervisor.run(events_rx))
        .expect("spawning the supervisor thread");
    SupervisorHandle {
        tx: events_tx,
        thread: Some(thread),
    }
}
