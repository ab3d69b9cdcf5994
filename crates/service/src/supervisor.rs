//! Shard supervision: death detection, journaled crash recovery, and
//! degraded-mode routing state.
//!
//! Every shard owns a [`ShardSlot`] — the part of the shard that
//! *survives* its worker thread: the link sessions resolve their sender
//! through, the health watermarks the supervisor watches, the
//! observation journal and periodic checkpoint recovery rebuilds from,
//! and the once-only chaos budgets. The supervisor thread watches for
//! two failure classes:
//!
//! * **panic** — the worker's spawn wrapper catches the unwind
//!   ([`std::panic::catch_unwind`]) and reports it immediately;
//! * **wedge** — the worker stops consuming its queue without dying.
//!   Detected by heartbeat watermarks: messages enqueued vs processed
//!   plus the shard's virtual `obs_cycles` clock, sampled every
//!   supervision tick; a shard that is behind and makes no progress for
//!   `wedge_ticks` consecutive ticks is declared wedged and fenced.
//!
//! The checkpoint is one [`ShardCheckpoint`] per slot, updated in place:
//! every `checkpoint_every` accepted batches the worker copies into each
//! tenant's [`TableCheckpoint`] only the table slots that changed since
//! the previous checkpoint (a table's dirty bitset tracks them), plus the
//! shard's counters, virtual clock and journal seq. A worker whose
//! epoch has been fenced leaves the checkpoint alone. An update marks
//! the checkpoint incomplete before it touches anything and complete
//! when done, so one cut short by a panic is never restored: recovery
//! treats it as absent and reports the recovery lossy.
//!
//! Recovery writes the last checkpoint's slots straight back into fresh
//! tables, slot for slot, replays the journal through
//! the live batch kernel ([`crate::shard::rebuild_shard`]), bumps the
//! worker **epoch**, and publishes a fresh link. Sessions re-resolve on
//! demand; while the slot is down they shed (acknowledge-without-learn)
//! or wait, per [`SupervisionConfig::shed_when_down`]. The whole story
//! is written up in `DESIGN.md` §14.
//!
//! [`SupervisionConfig::shed_when_down`]: crate::SupervisionConfig::shed_when_down

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ulmt_core::table::TableCheckpoint;
use ulmt_simcore::{CancelToken, Cycle, ServerState, ServiceFaultState};

use crate::config::{ServiceConfig, TenantSpec};
use crate::ingress::Ingress;
use crate::journal::ObservationJournal;
use crate::service::{ShardStats, TenantStats};
use crate::shard::{rebuild_shard, run_worker, ShardExit, ShardMsg, ShardReport, WorkerCtx};

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
    /// Worker dead or fenced; the supervisor is (or will be) rebuilding
    /// it. Sessions shed or wait, per policy.
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

/// The sender sessions currently resolve to, plus the epoch that owns it.
pub(crate) struct ShardLink {
    /// `None` while the shard is down, failed, or closed.
    pub tx: Option<SyncSender<ShardMsg>>,
    /// The epoch's data-plane ingress (per-tenant queues + scheduler).
    /// `None` exactly when `tx` is.
    pub ingress: Option<Arc<Ingress>>,
    /// Worker epoch the sender belongs to (bumped on every restart).
    pub epoch: u64,
}

/// Lock-free health watermarks published by the worker and its clients.
#[derive(Debug, Default)]
pub(crate) struct ShardHealth {
    state: AtomicU8,
    epoch: AtomicU64,
    /// Messages successfully enqueued onto the current epoch's queue.
    enqueued: AtomicU64,
    /// Messages the current epoch's worker finished handling.
    processed: AtomicU64,
    /// The shard's virtual `obs_cycles` clock after the last handled
    /// message — the heartbeat watermark of the wedge detector.
    watermark: AtomicU64,
    /// Set while the worker sits in a deliberate test-only pause, so the
    /// wedge detector does not fence it.
    pub paused: AtomicBool,
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

    pub fn note_enqueued(&self) {
        self.enqueued.fetch_add(1, Ordering::SeqCst);
    }

    pub fn note_processed(&self, now: Cycle) {
        self.watermark.store(now, Ordering::SeqCst);
        self.processed.fetch_add(1, Ordering::SeqCst);
    }

    fn flow(&self) -> (u64, u64, u64) {
        (
            self.enqueued.load(Ordering::SeqCst),
            self.processed.load(Ordering::SeqCst),
            self.watermark.load(Ordering::SeqCst),
        )
    }

    fn reset_flow(&self, watermark: Cycle) {
        self.enqueued.store(0, Ordering::SeqCst);
        self.processed.store(0, Ordering::SeqCst);
        self.watermark.store(watermark, Ordering::SeqCst);
    }
}

/// One tenant's contribution to a checkpoint.
#[derive(Debug)]
pub(crate) struct TenantCheckpoint {
    pub tenant: u32,
    /// Slot-exact copy of the tenant's table, updated in place.
    pub table: TableCheckpoint,
    pub stats: TenantStats,
}

/// A capture of a shard at an accepted-batch boundary, updated in place
/// by each checkpoint.
#[derive(Debug)]
pub(crate) struct ShardCheckpoint {
    /// `false` while an update is under way. An update cut short (its
    /// worker panicked mid-way) leaves a mix of two boundaries, which
    /// recovery must never restore: it treats the checkpoint as absent.
    pub complete: bool,
    /// Last acked batch seq included in this checkpoint.
    pub seq: u64,
    /// The shard's virtual clock at the boundary.
    pub now: Cycle,
    /// The utilization server's state at the boundary.
    pub server: ServerState,
    /// Aggregate counters at the boundary.
    pub stats: ShardStats,
    /// Every tenant's table and counters, sorted by tenant ID.
    pub tenants: Vec<TenantCheckpoint>,
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
    /// Once-only chaos budgets (survive restarts by design).
    pub fault_state: ServiceFaultState,
    pub recoveries: Mutex<Vec<RecoveryReport>>,
    /// Epoch fencing: a worker whose epoch is below this value has been
    /// replaced and must exit without touching anything else.
    abandoned_below: AtomicU64,
    /// Set once the service is stopping, so even a chaos-wedged worker
    /// (parked, not consuming) lets go and the shutdown join cannot
    /// deadlock.
    closing: AtomicBool,
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
                tx: None,
                ingress: None,
                epoch: 0,
            }),
            health: ShardHealth::default(),
            specs: Mutex::new(Vec::new()),
            journal: Mutex::new(ObservationJournal::new(cfg.supervision.journal_window)),
            checkpoint: Mutex::new(None),
            fault_state: ServiceFaultState::new(),
            recoveries: Mutex::new(Vec::new()),
            abandoned_below: AtomicU64::new(0),
            closing: AtomicBool::new(false),
        }
    }

    /// Current sender + ingress + epoch + state, read under the link
    /// lock.
    #[allow(clippy::type_complexity)]
    pub fn resolve(
        &self,
    ) -> (
        Option<SyncSender<ShardMsg>>,
        Option<Arc<Ingress>>,
        u64,
        ShardState,
    ) {
        let link = self.link.read().unwrap_or_else(|e| e.into_inner());
        (
            link.tx.clone(),
            link.ingress.clone(),
            link.epoch,
            self.health.state(),
        )
    }

    /// `true` if the worker running `epoch` has been fenced.
    pub fn is_abandoned(&self, epoch: u64) -> bool {
        self.abandoned_below.load(Ordering::SeqCst) > epoch
    }

    /// `true` once service shutdown has begun.
    pub fn is_closing(&self) -> bool {
        self.closing.load(Ordering::SeqCst)
    }

    fn fence_below(&self, epoch: u64) {
        self.abandoned_below.fetch_max(epoch, Ordering::SeqCst);
    }

    fn publish(
        &self,
        tx: SyncSender<ShardMsg>,
        ingress: Arc<Ingress>,
        epoch: u64,
        watermark: Cycle,
    ) {
        self.health.reset_flow(watermark);
        {
            let mut link = self.link.write().unwrap_or_else(|e| e.into_inner());
            *link = ShardLink {
                tx: Some(tx),
                ingress: Some(ingress),
                epoch,
            };
        }
        self.health.epoch.store(epoch, Ordering::SeqCst);
        self.health.set_state(ShardState::Up);
    }

    pub(crate) fn take_down(&self, state: ShardState) {
        self.health.set_state(state);
        let ingress = {
            let mut link = self.link.write().unwrap_or_else(|e| e.into_inner());
            link.tx = None;
            link.ingress.take()
        };
        // Close the dead epoch's ingress and *drop* whatever was still
        // queued: the reply channels die with the batches, clients see
        // `Closed` and resubmit against the next epoch. (On the graceful
        // path the worker already closed it and answered the stragglers
        // with a typed error, so this drains nothing.)
        if let Some(ingress) = ingress {
            drop(ingress.close());
        }
    }
}

/// Why a shard was restarted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryCause {
    /// The worker thread panicked.
    Panic,
    /// The worker stopped consuming without dying and was fenced.
    Wedge,
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

/// One shard restart, as recorded by the supervisor.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The shard that was rebuilt.
    pub shard: u32,
    /// The epoch of the replacement worker.
    pub epoch: u64,
    /// What killed the previous epoch.
    pub cause: RecoveryCause,
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
    /// Bytes of the checkpoint recovery restored: every tenant's
    /// slot-exact table copy (slot index, slot records and learning
    /// pointers). 0 when recovery started without one.
    pub checkpoint_bytes: u64,
    /// Wall-clock nanoseconds from fencing the dead epoch to publishing
    /// the replacement link.
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
    /// A worker epoch died by panic (sent by its spawn wrapper).
    Panicked { shard: u32, epoch: u64 },
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

/// Spawns one worker epoch for `slot` and returns its control sender,
/// its freshly built ingress (with every registered tenant's queue
/// pre-created from the spec registry, so recovered tenants can submit
/// the moment the link publishes), and the thread handle.
fn spawn_worker(
    slot: &Arc<ShardSlot>,
    cfg: ServiceConfig,
    epoch: u64,
    cancel: CancelToken,
    events: Sender<SupervisorMsg>,
    init: Option<crate::shard::ShardInit>,
) -> (SyncSender<ShardMsg>, Arc<Ingress>, JoinHandle<ShardExit>) {
    let (tx, rx) = sync_channel(cfg.queue_depth);
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
                cancel,
                slot,
                ingress: worker_ingress,
            };
            let mut init = init;
            match catch_unwind(AssertUnwindSafe(|| run_worker(&ctx, &rx, init.take()))) {
                Ok(exit) => exit,
                Err(_) => {
                    let _ = events.send(SupervisorMsg::Panicked { shard, epoch });
                    ShardExit::Panicked
                }
            }
        })
        .expect("spawning a shard worker thread");
    (tx, ingress, handle)
}

/// Everything the supervisor thread owns.
struct Supervisor {
    cfg: ServiceConfig,
    cancel: CancelToken,
    slots: Vec<Arc<ShardSlot>>,
    workers: Vec<Worker>,
    events_tx: Sender<SupervisorMsg>,
    restarts: Vec<u32>,
    stall_ticks: Vec<u32>,
    last_flow: Vec<(u64, u64)>,
}

impl Supervisor {
    fn run(mut self, rx: Receiver<SupervisorMsg>) {
        let tick = Duration::from_millis(self.cfg.supervision.tick_ms.max(1));
        loop {
            match rx.recv_timeout(tick) {
                Ok(SupervisorMsg::Panicked { shard, epoch }) => {
                    // Ignore stale reports from epochs already replaced
                    // (e.g. a wedge restart raced a late panic).
                    if self.workers[shard as usize].epoch == epoch {
                        self.restart(shard as usize, RecoveryCause::Panic);
                    }
                }
                Ok(SupervisorMsg::Stop { reply }) => {
                    self.stop(reply);
                    return;
                }
                Err(RecvTimeoutError::Timeout) => self.wedge_scan(),
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// One supervision tick: fence any Up shard that is behind on its
    /// queue and has made no progress (neither message count nor virtual
    /// clock watermark) for `wedge_ticks` consecutive ticks.
    fn wedge_scan(&mut self) {
        for i in 0..self.slots.len() {
            let slot = &self.slots[i];
            if slot.health.state() != ShardState::Up || slot.health.paused.load(Ordering::SeqCst) {
                self.stall_ticks[i] = 0;
                continue;
            }
            let (enq, proc, wm) = slot.health.flow();
            let behind = enq > proc;
            let stalled = (proc, wm) == self.last_flow[i];
            self.last_flow[i] = (proc, wm);
            if behind && stalled {
                self.stall_ticks[i] += 1;
                if self.stall_ticks[i] >= self.cfg.supervision.wedge_ticks {
                    self.stall_ticks[i] = 0;
                    self.restart(i, RecoveryCause::Wedge);
                }
            } else {
                self.stall_ticks[i] = 0;
            }
        }
    }

    /// Joins the (already fenced) old worker of `shard`, polling with a
    /// deadline so a worker that is genuinely stuck — not just slow to
    /// observe the fence — detaches instead of blocking recovery.
    fn reap(&mut self, shard: usize, patience: Duration) -> Option<ShardExit> {
        let handle = self.workers[shard].handle.take()?;
        let deadline = Instant::now() + patience;
        while !handle.is_finished() {
            if Instant::now() >= deadline {
                drop(handle);
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.join().ok()
    }

    /// Fences the current epoch of `shard`, rebuilds its state from
    /// checkpoint + journal, spawns a replacement epoch, and publishes
    /// the new link. Exhausting the restart budget parks the shard in
    /// [`ShardState::Failed`] instead.
    fn restart(&mut self, shard: usize, cause: RecoveryCause) {
        let t0 = Instant::now();
        let slot = Arc::clone(&self.slots[shard]);
        let old_epoch = self.workers[shard].epoch;
        slot.take_down(ShardState::Down);
        slot.fence_below(old_epoch + 1);
        // Once fenced, the old worker exits on its own: a panicker
        // finishes unwinding, a wedge-parked worker observes the fence
        // within a millisecond, a healthy worker notices at its next
        // queue poll. Reap it (bounded) and let the actual exit kind
        // decide the recorded cause — panic unwinding (plus backtrace
        // printing) can outlast the wedge scan's patience, so the scan
        // sometimes wins the race against the panic report and the
        // caller's guess of `Wedge` would be wrong. The late Panicked
        // message is epoch-fenced and ignored.
        let cause = match self.reap(shard, Duration::from_secs(1)) {
            Some(ShardExit::Panicked) => RecoveryCause::Panic,
            Some(_) | None => cause,
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
            // The copy is borrowed, not cloned: both locks are held for
            // the rebuild, and the fenced worker cannot update the copy
            // once it gets the lock back.
            let checkpoint = lock(&slot.checkpoint);
            let journal = lock(&slot.journal);
            match rebuild_shard(slot.shard, &self.cfg, &specs, checkpoint.as_ref(), &journal) {
                Ok(built) => built,
                Err(_) => {
                    // A checkpoint that no longer restores is a bug, not
                    // a transient: keep the shard down rather than serve
                    // a half-rebuilt table.
                    slot.take_down(ShardState::Failed);
                    return;
                }
            }
        };
        let epoch = old_epoch + 1;
        let watermark = init.now();
        let (tx, ingress, handle) = spawn_worker(
            &slot,
            self.cfg,
            epoch,
            self.cancel.clone(),
            self.events_tx.clone(),
            Some(init),
        );
        self.workers[shard] = Worker {
            handle: Some(handle),
            epoch,
        };
        self.last_flow[shard] = (0, 0);
        slot.publish(tx, ingress, epoch, watermark);

        let outcome = summary.outcome();
        lock(&slot.recoveries).push(RecoveryReport {
            shard: slot.shard,
            epoch,
            cause,
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
        // Unstick chaos-wedged workers (parked, not consuming) so the
        // joins below cannot deadlock; healthy workers never look at the
        // flag until they are already wedge-parked, so their drain
        // semantics are unchanged.
        for slot in &self.slots {
            slot.closing.store(true, Ordering::SeqCst);
        }
        // Ask every live worker to drain and exit, carrying per-tenant
        // barriers captured *now*: everything enqueued before shutdown
        // began gets processed, everything behind the barriers gets a
        // typed rejection instead of a silent drop.
        for slot in &self.slots {
            let (tx, ingress, _, _) = slot.resolve();
            if let Some(tx) = tx {
                let barriers = ingress.as_ref().map(|i| i.barriers()).unwrap_or_default();
                let _ = tx.send(ShardMsg::Shutdown { barriers });
                if let Some(i) = &ingress {
                    i.kick();
                }
            }
        }
        let mut reports = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.iter().enumerate() {
            let joined = match self.workers[i].handle.take() {
                Some(h) if reply.is_some() => h.join().ok(),
                // Silent stop: don't block on workers; they drain and
                // exit on their own.
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
                    trace: None,
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
pub(crate) fn start_supervisor(
    cfg: ServiceConfig,
    cancel: CancelToken,
    slots: Vec<Arc<ShardSlot>>,
) -> SupervisorHandle {
    let (events_tx, events_rx) = channel();
    let mut workers = Vec::with_capacity(slots.len());
    for slot in &slots {
        let (tx, ingress, handle) =
            spawn_worker(slot, cfg, 0, cancel.clone(), events_tx.clone(), None);
        slot.publish(tx, ingress, 0, 0);
        workers.push(Worker {
            handle: Some(handle),
            epoch: 0,
        });
    }
    let n = slots.len();
    let supervisor = Supervisor {
        cfg,
        cancel,
        slots,
        workers,
        events_tx: events_tx.clone(),
        restarts: vec![0; n],
        stall_ticks: vec![0; n],
        last_flow: vec![(0, 0); n],
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
