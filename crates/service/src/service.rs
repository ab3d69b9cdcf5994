//! The service front end: [`PrefetchService`] and the per-tenant
//! [`Session`] handle.
//!
//! Sessions hold the shard's *slot* ([`crate::supervisor::ShardSlot`])
//! and resolve the current worker epoch's inbox (its
//! [`Ingress`](crate::ingress::Ingress)) through it on demand. Batches
//! and control messages alike go into that one inbox. When a worker
//! dies, the supervisor rebuilds it (checkpoint + journal replay) and
//! publishes a fresh ingress under a bumped epoch; sessions notice the
//! stale link and re-resolve. While the shard is down, the data plane
//! either *sheds* (acknowledges without learning, exactly counted) or
//! waits, per
//! [`SupervisionConfig::shed_when_down`](crate::SupervisionConfig::shed_when_down).

use std::hash::Hasher;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ulmt_core::table::{SnapshotError, TableSnapshot};
use ulmt_simcore::{ConfigError, Cycle, FxHasher, LineAddr};

use crate::config::{AdmissionQuota, ServiceConfig, TenantSpec};
use crate::ingress::{Enqueue, Ingress, IngressBatch};
use crate::metrics::MetricsReport;
use crate::net::WireError;
use crate::shard::{ShardMsg, ShardReport};
use crate::supervisor::{
    lock, start_supervisor, RecoveryReport, ShardSlot, ShardState, SupervisorHandle, SupervisorMsg,
};

/// Errors surfaced by the service API — one hierarchy for the
/// in-process and network paths alike. Every lower-level error type
/// ([`ConfigError`], [`SnapshotError`], [`WireError`],
/// [`std::io::Error`]) converts `From` into it, and
/// [`std::error::Error::source`] exposes the wrapped cause.
#[derive(Debug)]
pub enum ServiceError {
    /// The target shard has shut down (or its thread died).
    Closed,
    /// The batch or request arrived after shutdown began draining the
    /// shard; nothing was learned from it.
    ShuttingDown,
    /// The target shard is down — being rebuilt after a crash, or parked
    /// in [`ShardState::Failed`] with its restart budget exhausted.
    ShardDown(u32),
    /// The request did not complete within its time bound.
    Timeout,
    /// The tenant is already registered on its shard.
    TenantExists(u32),
    /// The tenant was never opened on its shard.
    UnknownTenant(u32),
    /// A spec or configuration failed validation.
    InvalidSpec(ConfigError),
    /// A snapshot could not be restored.
    Snapshot(SnapshotError),
    /// The network front-end's connection cap is reached; the
    /// connection was refused before any state was touched.
    Busy,
    /// A wire-protocol failure on the network path (framing, protocol
    /// version, socket I/O).
    Wire(WireError),
    /// An error the remote service reported whose exact variant does
    /// not cross the wire; carries the remote's display text.
    Remote(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Closed => write!(f, "prefetch shard has shut down"),
            ServiceError::ShuttingDown => {
                write!(f, "prefetch service is draining for shutdown")
            }
            ServiceError::ShardDown(s) => write!(f, "shard {s} is down"),
            ServiceError::Timeout => write!(f, "shard request timed out"),
            ServiceError::TenantExists(t) => write!(f, "tenant {t} is already open"),
            ServiceError::UnknownTenant(t) => write!(f, "tenant {t} is not open"),
            ServiceError::InvalidSpec(e) => write!(f, "invalid configuration: {e}"),
            ServiceError::Snapshot(e) => write!(f, "snapshot restore failed: {e}"),
            ServiceError::Busy => write!(f, "server connection limit reached"),
            ServiceError::Wire(e) => write!(f, "wire protocol failure: {e}"),
            ServiceError::Remote(msg) => write!(f, "remote service error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::InvalidSpec(e) => Some(e),
            ServiceError::Snapshot(e) => Some(e),
            ServiceError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        ServiceError::InvalidSpec(e)
    }
}

impl From<SnapshotError> for ServiceError {
    fn from(e: SnapshotError) -> Self {
        ServiceError::Snapshot(e)
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Wire(WireError::Io(e))
    }
}

/// Per-tenant counters, as maintained by the tenant's shard.
///
/// Conservation invariant: every batch attempt a session makes is
/// eventually counted exactly once — accepted batches in `batches` /
/// `observed`, rejected attempts in `rejected`, shed attempts in
/// `shed`. Rejections and sheds ride piggyback on the next accepted
/// batch as the session's *cumulative* totals, which the shard merges
/// idempotently — so at-least-once resubmission after a crash can never
/// double-count, and a crash between enqueue and ack can never lose
/// counts. A session that ends on a rejection or shed leaves its final
/// tail unreported until it submits (and gets accepted) again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant ID.
    pub tenant: u32,
    /// Accepted observation batches.
    pub batches: u64,
    /// Individual miss observations processed.
    pub observed: u64,
    /// Batch attempts rejected: [`TrySubmit::Full`],
    /// [`TrySubmit::TimedOut`] or [`ServiceError::Timeout`] from
    /// [`Session::submit`].
    pub rejected: u64,
    /// Batch attempts acknowledged without learning because the shard
    /// was down (degraded-mode shedding).
    pub shed: u64,
    /// Prefetch predictions returned.
    pub prefetches: u64,
    /// Valid rows currently in the tenant's table.
    pub live_rows: u64,
    /// Size of the tenant's table in bytes.
    pub table_bytes: u64,
}

/// Per-shard aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// The shard index.
    pub shard: u32,
    /// Tenants registered on this shard.
    pub tenants: u32,
    /// Accepted observation batches across tenants.
    pub batches: u64,
    /// Miss observations processed across tenants.
    pub observed: u64,
    /// Rejected batch attempts across tenants.
    pub rejected: u64,
    /// Shed batch attempts across tenants (degraded-mode acks).
    pub shed: u64,
    /// Prefetch predictions returned across tenants.
    pub prefetches: u64,
    /// Cycles the shard's table engine was busy.
    pub busy_cycles: Cycle,
    /// Virtual cycles elapsed on the shard's clock.
    pub elapsed_cycles: Cycle,
}

impl ShardStats {
    /// Fraction of the shard's virtual time spent doing table work —
    /// the occupancy figure the paper's Figure 10 reports for the
    /// memory processor, here per shard.
    pub fn utilization(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.elapsed_cycles as f64
        }
    }
}

/// The shard's response to one accepted batch.
#[derive(Debug)]
pub struct BatchReply {
    /// Miss observations processed (0 if cancelled, shed or rejected).
    pub observed: u64,
    /// Prefetch predictions, in emission order across the batch.
    pub prefetches: Vec<LineAddr>,
    /// `true` if the service was dropped without
    /// [`PrefetchService::shutdown`] and the batch was acknowledged
    /// without learning.
    pub cancelled: bool,
    /// `true` if the batch was shed: acknowledged without learning
    /// because its shard was down and the service's policy keeps the
    /// client's latency budget ahead of completeness.
    pub shed: bool,
    /// Set if the shard could not process the batch at all.
    pub error: Option<ServiceError>,
    /// The submitted observation buffer, cleared but with its capacity
    /// intact. Every ack path hands the batch `Vec` back (accepted,
    /// cancelled, shed and rejected alike), so a client that re-fills
    /// the returned buffer for its next submission allocates no
    /// observation buffer in a steady state (the shard's journal reuses
    /// its evicted entries' buffers too). `prefetches` is not recycled:
    /// the shard builds a fresh `Vec` for each accepted batch.
    pub recycled: Vec<LineAddr>,
}

impl BatchReply {
    pub(crate) fn accepted(
        observed: u64,
        prefetches: Vec<LineAddr>,
        recycled: Vec<LineAddr>,
    ) -> Self {
        BatchReply {
            observed,
            prefetches,
            cancelled: false,
            shed: false,
            error: None,
            recycled,
        }
    }

    pub(crate) fn cancelled(recycled: Vec<LineAddr>) -> Self {
        BatchReply {
            observed: 0,
            prefetches: Vec::new(),
            cancelled: true,
            shed: false,
            error: None,
            recycled,
        }
    }

    pub(crate) fn shed(recycled: Vec<LineAddr>) -> Self {
        BatchReply {
            observed: 0,
            prefetches: Vec::new(),
            cancelled: false,
            shed: true,
            error: None,
            recycled,
        }
    }

    pub(crate) fn rejected(error: ServiceError, recycled: Vec<LineAddr>) -> Self {
        BatchReply {
            observed: 0,
            prefetches: Vec::new(),
            cancelled: false,
            shed: false,
            error: Some(error),
            recycled,
        }
    }
}

/// Handle to a batch the shard has accepted but possibly not yet
/// processed.
#[derive(Debug)]
pub struct PendingBatch {
    rx: Receiver<BatchReply>,
}

impl PendingBatch {
    /// A handle whose reply is already decided (shed acks).
    fn pre_filled(reply: BatchReply) -> Self {
        let (tx, rx) = channel();
        let _ = tx.send(reply);
        PendingBatch { rx }
    }

    /// Blocks until the shard has processed the batch.
    /// [`ServiceError::Closed`] means the worker died with the batch
    /// unacknowledged: the observations were never journaled, so
    /// resubmitting them is safe (at-least-once).
    pub fn wait(self) -> Result<BatchReply, ServiceError> {
        self.rx.recv().map_err(|_| ServiceError::Closed)
    }
}

/// Outcome of a non-blocking or time-bounded submission.
#[derive(Debug)]
pub enum TrySubmit {
    /// The batch is in the shard's queue (or was shed with an immediate
    /// ack — see [`BatchReply::shed`](crate::BatchReply#structfield.shed)); the handle yields the reply.
    Enqueued(PendingBatch),
    /// The *tenant's* ingestion queue is full (or the shard is briefly
    /// unavailable). Admission is per-tenant: one tenant filling its
    /// queue never makes its neighbors see `Full`. The observations are
    /// handed back untouched — nothing was dropped — and the rejection
    /// will be counted on the shard with the next accepted batch.
    Full(Vec<LineAddr>),
    /// The submission's time bound expired before queue space appeared
    /// ([`Session::submit_timeout`] only). Observations handed back.
    TimedOut(Vec<LineAddr>),
    /// The shard has shut down (or is permanently failed); the
    /// observations are handed back.
    Closed(Vec<LineAddr>),
}

/// How long a down shard is polled for on the blocking paths.
const DOWN_POLL: Duration = Duration::from_millis(1);

/// Client-side token-bucket state for a tenant's admission quota.
/// `refill_per_sec == 0` makes the bucket deterministic: exactly
/// `burst_batches` submissions are ever admitted.
#[derive(Debug)]
struct QuotaState {
    quota: AdmissionQuota,
    tokens: u64,
    last: Instant,
}

impl QuotaState {
    fn new(quota: AdmissionQuota) -> Self {
        QuotaState {
            quota,
            tokens: quota.burst_batches as u64,
            last: Instant::now(),
        }
    }

    /// Takes one token if available, refilling first at the configured
    /// rate. Charges only the time the granted tokens cost, so
    /// fractional refill progress survives frequent calls.
    fn admit(&mut self) -> bool {
        let rate = self.quota.refill_per_sec as u128;
        if rate > 0 {
            let nanos = self.last.elapsed().as_nanos();
            let add = (nanos * rate / 1_000_000_000) as u64;
            if add > 0 {
                let cap = self.quota.burst_batches as u64;
                self.tokens = self.tokens.saturating_add(add).min(cap);
                if self.tokens == cap {
                    self.last = Instant::now();
                } else {
                    let charged = (add as u128) * 1_000_000_000 / rate;
                    self.last += Duration::from_nanos(charged as u64);
                }
            }
        }
        if self.tokens > 0 {
            self.tokens -= 1;
            true
        } else {
            false
        }
    }
}

/// A tenant's handle onto the service.
///
/// Sessions are single-owner (`&mut self` on the data plane) because
/// the handle locally accumulates the *cumulative* counts of rejected
/// and shed submissions to piggyback on the next accepted batch, plus
/// the tenant's admission-quota bucket.
#[derive(Debug)]
pub struct Session {
    tenant: u32,
    shard: u32,
    slot: Arc<ShardSlot>,
    /// Cached ingress of the worker epoch last resolved.
    ingress: Option<Arc<Ingress>>,
    epoch: u64,
    shed_when_down: bool,
    control_timeout: Duration,
    /// Cumulative totals, never reset: the shard applies the *delta*
    /// from what it has already recorded, making the piggyback
    /// idempotent under at-least-once resubmission.
    rejected_cum: u64,
    shed_cum: u64,
    quota: Option<QuotaState>,
}

/// How [`Session::send`] ended; each submit entry point maps it to its
/// own result.
enum Sent {
    /// Queued, or acknowledged at once (shed, unknown tenant).
    Enqueued(PendingBatch),
    /// The tenant's queue stayed full, or the shard stayed down (not
    /// shedding) or mid-publish, through the deadline. Counted as one
    /// rejection.
    Rejected(Vec<LineAddr>),
    /// The shard is permanently failed.
    Failed(Vec<LineAddr>),
    /// The shard has shut down.
    Closed(Vec<LineAddr>),
}

impl Session {
    fn new(
        tenant: u32,
        slot: Arc<ShardSlot>,
        cfg: &ServiceConfig,
        quota: Option<AdmissionQuota>,
    ) -> Self {
        let (ingress, epoch, _) = slot.resolve();
        Session {
            tenant,
            shard: slot.shard,
            slot,
            ingress,
            epoch,
            shed_when_down: cfg.supervision.shed_when_down,
            control_timeout: Duration::from_millis(cfg.supervision.control_timeout_ms.max(1)),
            rejected_cum: 0,
            shed_cum: 0,
            quota: quota.map(QuotaState::new),
        }
    }

    /// The tenant ID this session feeds.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// The shard the tenant is pinned to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The cached link if it still belongs to the live epoch, else a
    /// freshly resolved one.
    fn link(&mut self) -> (Option<Arc<Ingress>>, u64, ShardState) {
        let state = self.slot.health.state();
        if state == ShardState::Up
            && self.ingress.is_some()
            && self.epoch == self.slot.health.epoch()
        {
            return (self.ingress.clone(), self.epoch, state);
        }
        self.relink()
    }

    /// Re-resolves the link and caches it.
    fn relink(&mut self) -> (Option<Arc<Ingress>>, u64, ShardState) {
        let (ingress, epoch, state) = self.slot.resolve();
        self.ingress = ingress.clone();
        self.epoch = epoch;
        (ingress, epoch, state)
    }

    /// `true` if the tenant's admission quota (if any) grants this
    /// submission a token.
    fn admit_quota(&mut self) -> bool {
        match &mut self.quota {
            None => true,
            Some(q) => q.admit(),
        }
    }

    /// Shed ack: acknowledge without learning — because the shard is
    /// down and policy keeps the client's latency budget, or because the
    /// tenant's admission quota ran dry — and count the shed exactly
    /// (piggybacked cumulatively onto the next accepted batch).
    fn shed_ack(&mut self, mut obs: Vec<LineAddr>) -> PendingBatch {
        self.shed_cum = self.shed_cum.saturating_add(1);
        obs.clear();
        PendingBatch::pre_filled(BatchReply::shed(obs))
    }

    /// Immediate typed rejection for a tenant the shard doesn't know,
    /// with the (cleared) buffer recycled like every other ack path.
    fn unknown_ack(&self, mut obs: Vec<LineAddr>) -> PendingBatch {
        obs.clear();
        PendingBatch::pre_filled(BatchReply::rejected(
            ServiceError::UnknownTenant(self.tenant),
            obs,
        ))
    }

    /// The one submission loop behind every entry point. Without a
    /// `deadline` nothing waits: a full queue, a down shard and a
    /// mid-publish link end the call at once. With one, the call waits
    /// for queue space, and polls a down (not shedding) or mid-publish
    /// shard, until the deadline. An admission quota that runs dry, and a
    /// down shard under the shedding policy, shed instead; a closed
    /// ingress whose epoch was replaced is retried on the replacement.
    fn send(&mut self, mut obs: Vec<LineAddr>, deadline: Option<Instant>) -> Sent {
        loop {
            let (ingress, epoch, state) = self.link();
            match (state, ingress) {
                (ShardState::Up, Some(ingress)) => {
                    if !self.admit_quota() {
                        return Sent::Enqueued(self.shed_ack(obs));
                    }
                    let (reply, rx) = channel();
                    let batch = IngressBatch {
                        tenant: self.tenant,
                        obs,
                        rejected_cum: self.rejected_cum,
                        shed_cum: self.shed_cum,
                        reply,
                        enqueued_at: None,
                    };
                    match ingress.enqueue(batch, deadline) {
                        Enqueue::Ok => return Sent::Enqueued(PendingBatch { rx }),
                        Enqueue::Full(o) => return self.reject(o),
                        Enqueue::Unknown(o) => return Sent::Enqueued(self.unknown_ack(o)),
                        Enqueue::Closed(o) => {
                            // The slot still claims the same epoch is
                            // up: the worker died this instant and the
                            // supervisor hasn't reacted yet; report
                            // closed rather than spin. Otherwise retry
                            // against the replacement epoch.
                            let (_, now_epoch, now_state) = self.relink();
                            if now_state == ShardState::Up && now_epoch == epoch {
                                return Sent::Closed(o);
                            }
                            obs = o;
                        }
                    }
                }
                (ShardState::Up, None) | (ShardState::Down, _) => {
                    if state == ShardState::Down && self.shed_when_down {
                        return Sent::Enqueued(self.shed_ack(obs));
                    }
                    if deadline.is_none_or(|d| Instant::now() >= d) {
                        return self.reject(obs);
                    }
                    std::thread::sleep(DOWN_POLL);
                }
                (ShardState::Failed, _) => return Sent::Failed(obs),
                (ShardState::Closed, _) => return Sent::Closed(obs),
            }
        }
    }

    /// Counts one rejected attempt (piggybacked cumulatively onto the
    /// next accepted batch) and hands the batch back.
    fn reject(&mut self, obs: Vec<LineAddr>) -> Sent {
        self.rejected_cum = self.rejected_cum.saturating_add(1);
        Sent::Rejected(obs)
    }

    /// Non-blocking submission of a batch of L2-miss line addresses.
    /// Never drops observations: a full queue hands the batch back as
    /// [`TrySubmit::Full`]. A down shard either sheds (immediate ack,
    /// see [`BatchReply::shed`](crate::BatchReply#structfield.shed)) or hands the batch back as `Full`,
    /// per the service's
    /// [`shed_when_down`](crate::SupervisionConfig::shed_when_down)
    /// policy.
    pub fn try_submit(&mut self, obs: Vec<LineAddr>) -> TrySubmit {
        match self.send(obs, None) {
            Sent::Enqueued(pending) => TrySubmit::Enqueued(pending),
            Sent::Rejected(obs) => TrySubmit::Full(obs),
            Sent::Failed(obs) | Sent::Closed(obs) => TrySubmit::Closed(obs),
        }
    }

    /// Blocking submission: waits for queue space instead of rejecting,
    /// and rides out shard recoveries. A down shard sheds immediately
    /// under the shedding policy; otherwise the wait — for queue space
    /// or for the shard to come back — is bounded by the service's
    /// control timeout ([`ServiceError::Timeout`]), and a permanently
    /// failed shard reports [`ServiceError::ShardDown`].
    pub fn submit(&mut self, obs: Vec<LineAddr>) -> Result<PendingBatch, ServiceError> {
        match self.send(obs, Some(Instant::now() + self.control_timeout)) {
            Sent::Enqueued(pending) => Ok(pending),
            Sent::Rejected(_) => Err(ServiceError::Timeout),
            Sent::Failed(_) => Err(ServiceError::ShardDown(self.shard)),
            Sent::Closed(_) => Err(ServiceError::Closed),
        }
    }

    /// Time-bounded submission: waits up to `timeout` for queue space
    /// (and across shard recoveries), then hands the batch back as
    /// [`TrySubmit::TimedOut`] instead of blocking further. Never drops
    /// observations.
    pub fn submit_timeout(&mut self, obs: Vec<LineAddr>, timeout: Duration) -> TrySubmit {
        match self.send(obs, Some(Instant::now() + timeout)) {
            Sent::Enqueued(pending) => TrySubmit::Enqueued(pending),
            Sent::Rejected(obs) => TrySubmit::TimedOut(obs),
            Sent::Failed(obs) | Sent::Closed(obs) => TrySubmit::Closed(obs),
        }
    }

    /// Captures the tenant's learned table, after everything already
    /// queued for it has been processed (the barrier the request
    /// captures; the worker drains the tenant's queue to it first).
    pub fn snapshot(&mut self) -> Result<TableSnapshot, ServiceError> {
        let tenant = self.tenant;
        self.ask(|reply| ShardMsg::Snapshot { tenant, reply })
    }

    /// Replaces the tenant's table with a previously captured snapshot
    /// (warm start). The snapshot must come from the same algorithm and
    /// the same geometry as the tenant's registered spec; anything else is
    /// a typed [`SnapshotError`] and leaves the table untouched.
    pub fn restore(&mut self, snap: TableSnapshot) -> Result<(), ServiceError> {
        let tenant = self.tenant;
        self.ask(|reply| ShardMsg::Restore {
            tenant,
            snap: Box::new(snap),
            reply,
        })
    }

    /// Fingerprint of the tenant's learned table (see
    /// [`TableSnapshot::fingerprint`]).
    pub fn fingerprint(&mut self) -> Result<u64, ServiceError> {
        let tenant = self.tenant;
        self.ask(|reply| ShardMsg::Fingerprint { tenant, reply })
    }

    /// The tenant's counters.
    pub fn stats(&mut self) -> Result<TenantStats, ServiceError> {
        let tenant = self.tenant;
        self.ask(|reply| ShardMsg::TenantStats { tenant, reply })
    }

    /// Sends a control request to the live worker and waits, within the
    /// control timeout, for its answer. A down or failed shard reports
    /// [`ServiceError::ShardDown`] instead of queueing into the void, and
    /// so does a worker that died while we waited.
    fn ask<T>(
        &self,
        make: impl FnOnce(Sender<Result<T, ServiceError>>) -> ShardMsg,
    ) -> Result<T, ServiceError> {
        let (reply, rx) = channel();
        self.slot.control(make(reply))?;
        rx.recv_timeout(self.control_timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => ServiceError::Timeout,
            RecvTimeoutError::Disconnected => match self.slot.health.state() {
                ShardState::Closed => ServiceError::Closed,
                _ => ServiceError::ShardDown(self.shard),
            },
        })?
    }

    /// Test-only: a session on the same shard for a tenant that was
    /// never opened, to exercise the rejected ack path.
    #[cfg(test)]
    pub(crate) fn test_clone_for_tenant(other: &Session, tenant: u32) -> Session {
        Session {
            tenant,
            shard: other.shard,
            slot: Arc::clone(&other.slot),
            ingress: other.ingress.clone(),
            epoch: other.epoch,
            shed_when_down: other.shed_when_down,
            control_timeout: other.control_timeout,
            rejected_cum: 0,
            shed_cum: 0,
            quota: None,
        }
    }
}

/// Holds a shard paused; dropping it resumes the shard. Produced by
/// [`PrefetchService::pause_shard`], primarily so tests can fill an
/// ingestion queue deterministically and observe backpressure.
#[derive(Debug)]
pub struct PauseGuard {
    _resume: Sender<()>,
}

/// A long-lived, sharded, multi-tenant, *self-healing* prefetch service.
///
/// `N` shard worker threads each own the correlation tables of the
/// tenants hashed to them. Clients open a [`Session`] per tenant and
/// feed batches of L2-miss observations; the shard learns on them and
/// returns prefetch predictions plus per-tenant statistics.
///
/// # Determinism
///
/// A tenant's table state after a given observation stream is
/// bit-identical (equal [`TableSnapshot::fingerprint`]) for any shard
/// count, scheduling weights, and any interleaving with other
/// tenants: the tenant's stream flows in order through its own bounded
/// queue on exactly one shard — the scheduler decides only *when* a
/// tenant's batches run, never their order — and observations only
/// touch their own tenant's table.
///
/// # Fault tolerance
///
/// A shard worker that panics is reported to a supervisor thread, which
/// rebuilds the shard from its last checkpoint plus a replay of the
/// journaled batches past it (see
/// [`SupervisionConfig`](crate::SupervisionConfig) for when that replay
/// is exact) and records every restart as a [`RecoveryReport`]. While a
/// shard is down, sessions shed or wait per
/// [`SupervisionConfig::shed_when_down`](crate::SupervisionConfig::shed_when_down).
/// A worker that hangs without panicking is left in place: its tenants'
/// queues fill and [`Session`] control calls time out.
///
/// # Example
///
/// ```
/// use ulmt_service::{PrefetchService, ServiceConfig, TenantSpec, TrySubmit};
/// use ulmt_simcore::LineAddr;
///
/// let service = PrefetchService::start(ServiceConfig::default());
/// let mut session = service.open(7, TenantSpec::repl(1024)).unwrap();
/// let obs: Vec<LineAddr> = [1u64, 2, 3, 1, 2, 3, 1].iter().map(|&n| LineAddr::new(n)).collect();
/// let reply = match session.try_submit(obs) {
///     TrySubmit::Enqueued(pending) => pending.wait().unwrap(),
///     other => panic!("queue unexpectedly unavailable: {other:?}"),
/// };
/// assert_eq!(reply.observed, 7);
/// assert!(!reply.prefetches.is_empty());
/// service.shutdown();
/// ```
pub struct PrefetchService {
    cfg: ServiceConfig,
    slots: Vec<Arc<ShardSlot>>,
    supervisor: SupervisorHandle,
}

impl PrefetchService {
    /// Spawns the shard workers and their supervisor, and returns the
    /// running service.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`ServiceConfig::validate`]).
    pub fn start(cfg: ServiceConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let slots: Vec<Arc<ShardSlot>> = (0..cfg.shards as u32)
            .map(|shard| Arc::new(ShardSlot::new(shard, &cfg)))
            .collect();
        let supervisor = start_supervisor(cfg, slots.clone());
        PrefetchService {
            cfg,
            slots,
            supervisor,
        }
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.slots.len()
    }

    /// The shard `tenant` is pinned to: a seeded hash, stable for the
    /// service's lifetime.
    pub fn shard_of(&self, tenant: u32) -> u32 {
        let mut h = FxHasher::default();
        h.write_u64(self.cfg.seed);
        h.write_u32(tenant);
        (h.finish() % self.slots.len() as u64) as u32
    }

    /// Current availability of one shard.
    pub fn shard_state(&self, shard: usize) -> ShardState {
        self.slots[shard].health.state()
    }

    /// Every recovery any shard has gone through so far, oldest first
    /// per shard.
    pub fn recovery_reports(&self) -> Vec<RecoveryReport> {
        self.slots
            .iter()
            .flat_map(|slot| lock(&slot.recoveries).clone())
            .collect()
    }

    /// Registers `tenant` on its shard and returns its session.
    pub fn open(&self, tenant: u32, spec: TenantSpec) -> Result<Session, ServiceError> {
        let shard = self.shard_of(tenant);
        let slot = &self.slots[shard as usize];
        // Register the spec before telling the worker: the spec registry
        // is what recovery recreates tenants from, so a tenant whose
        // open was acked can never be lost by a crash.
        {
            let mut specs = lock(&slot.specs);
            if specs.iter().any(|&(t, _)| t == tenant) {
                return Err(ServiceError::TenantExists(tenant));
            }
            spec.validate().map_err(ServiceError::InvalidSpec)?;
            specs.push((tenant, spec));
        }
        let session = Session::new(tenant, Arc::clone(slot), &self.cfg, spec.quota);
        let result = session.ask(|reply| ShardMsg::Open {
            tenant,
            spec,
            reply,
        });
        if let Err(e) = result {
            // The worker never acked the open; withdraw the spec so a
            // later retry (or a recovery) doesn't resurrect a tenant the
            // client believes was never created.
            lock(&slot.specs).retain(|&(t, _)| t != tenant);
            return Err(e);
        }
        Ok(session)
    }

    /// Aggregate counters of one shard. A worker that does not answer
    /// within the control timeout (say, one blocked on a held lock)
    /// makes this [`ServiceError::Timeout`].
    pub fn shard_stats(&self, shard: usize) -> Result<ShardStats, ServiceError> {
        let deadline = self.control_deadline();
        let (reply, rx) = channel();
        self.slots[shard].control(ShardMsg::ShardStats { reply })?;
        recv_by(&rx, deadline, ServiceError::ShardDown(shard as u32))
    }

    /// The service-wide metrics view: one snapshot per live shard,
    /// collected through each shard's inbox (so every snapshot is a
    /// prefix of that shard's ingestion stream; pair with
    /// [`PrefetchService::drain`] for an all-submitted view), plus the
    /// supervisor's recovery-latency history. Down or failed shards are
    /// skipped, like [`PrefetchService::drain`]. A shard that does not
    /// answer within the control timeout makes the whole call
    /// [`ServiceError::Timeout`]. With [`ServiceConfig::metrics`] off
    /// this returns [`MetricsReport::disabled`] without touching any
    /// shard.
    pub fn metrics(&self) -> Result<MetricsReport, ServiceError> {
        if !self.cfg.metrics {
            return Ok(MetricsReport::disabled());
        }
        let deadline = self.control_deadline();
        let waits = self.ask_live_shards(|reply| ShardMsg::Metrics { reply })?;
        let mut report = MetricsReport {
            enabled: true,
            recoveries: 0,
            recovery_nanos: ulmt_simcore::stats::Log2Histogram::new(),
            shards: Vec::with_capacity(waits.len()),
        };
        for rx in waits {
            if let Some(m) = recv_by(&rx, deadline, ServiceError::Closed)? {
                report.shards.push(m);
            }
        }
        report.shards.sort_by_key(|m| m.shard);
        for r in self.recovery_reports() {
            report.recoveries += 1;
            report.recovery_nanos.record(r.latency_nanos);
        }
        Ok(report)
    }

    /// Blocks the given shard until the returned guard is dropped.
    /// While paused, the shard's ingestion queue fills up and
    /// [`Session::try_submit`] surfaces backpressure as
    /// [`TrySubmit::Full`].
    pub fn pause_shard(&self, shard: usize) -> Result<PauseGuard, ServiceError> {
        let (resume, gate) = channel();
        self.slots[shard].control(ShardMsg::Pause(gate))?;
        Ok(PauseGuard { _resume: resume })
    }

    /// Barrier: returns once every *live* shard has processed everything
    /// queued before this call. Down shards have no queue to drain (it
    /// died with their worker) and are skipped. Unlike the other control
    /// calls this wait is unbounded: it follows every tenant's backlog,
    /// which can legitimately outlast the control timeout.
    pub fn drain(&self) -> Result<(), ServiceError> {
        for rx in self.ask_live_shards(|reply| ShardMsg::Drain { reply })? {
            rx.recv().map_err(|_| ServiceError::Closed)?;
        }
        Ok(())
    }

    /// When a control call started now must have its answer.
    fn control_deadline(&self) -> Instant {
        Instant::now() + Duration::from_millis(self.cfg.supervision.control_timeout_ms.max(1))
    }

    /// Pushes one request onto every live shard and returns the reply
    /// receivers. Down or failed shards are skipped; a closed service is
    /// [`ServiceError::Closed`].
    fn ask_live_shards<T>(
        &self,
        make: impl Fn(Sender<T>) -> ShardMsg,
    ) -> Result<Vec<Receiver<T>>, ServiceError> {
        let mut waits = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let (reply, rx) = channel();
            match slot.control(make(reply)) {
                Ok(()) => waits.push(rx),
                Err(ServiceError::Closed) => return Err(ServiceError::Closed),
                Err(_) => {}
            }
        }
        Ok(waits)
    }

    /// Makes every shard acknowledge further batches without learning,
    /// in its current worker epoch and every later one, so clients
    /// draining their pipelines do not hang. Only [`Drop`] cancels.
    pub(crate) fn cancel(&self) {
        for slot in &self.slots {
            slot.cancelled.store(true, Ordering::Release);
        }
    }

    /// Starts the shutdown drain without consuming the service: a
    /// `Shutdown` marker is queued behind everything already submitted,
    /// and anything arriving after it is rejected with
    /// [`ServiceError::ShuttingDown`] instead of being silently dropped.
    /// Call [`PrefetchService::shutdown`] afterwards to join the workers
    /// and collect reports.
    pub fn begin_shutdown(&self) {
        for slot in &self.slots {
            let _ = slot.control(ShardMsg::Shutdown);
        }
    }

    /// Graceful shutdown: every shard processes its remaining queue,
    /// then exits; returns each shard's final report (counters, trace
    /// buffer if tracing was on, and its recovery history). Batches that
    /// race in behind the shutdown marker are rejected with
    /// [`ServiceError::ShuttingDown`]; sessions still holding the
    /// service see [`ServiceError::Closed`] / [`TrySubmit::Closed`]
    /// afterwards.
    pub fn shutdown(mut self) -> Vec<ShardReport> {
        let (reply, rx) = channel();
        let _ = self
            .supervisor
            .tx
            .send(SupervisorMsg::Stop { reply: Some(reply) });
        let reports = rx.recv().unwrap_or_default();
        if let Some(thread) = self.supervisor.thread.take() {
            let _ = thread.join();
        }
        reports
    }
}

/// Waits for a control answer until `deadline`; a hung-up sender is
/// `disconnected`.
fn recv_by<T>(
    rx: &Receiver<T>,
    deadline: Instant,
    disconnected: ServiceError,
) -> Result<T, ServiceError> {
    rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
        .map_err(|e| match e {
            RecvTimeoutError::Timeout => ServiceError::Timeout,
            RecvTimeoutError::Disconnected => disconnected,
        })
}

impl Drop for PrefetchService {
    /// Dropping without [`PrefetchService::shutdown`] cancels every
    /// shard (so in-flight work winds down) and stops the supervisor
    /// without joining anything: the supervisor closes every shard's
    /// ingress, dropping what was queued, and each worker exits when it
    /// sees its ingress closed, whether or not sessions are still alive.
    fn drop(&mut self) {
        self.cancel();
        if self.supervisor.thread.take().is_some() {
            let _ = self.supervisor.tx.send(SupervisorMsg::Stop { reply: None });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SupervisionConfig;
    use crate::fault::ServiceFaultConfig;

    const LEN: usize = 8;

    fn obs() -> Vec<LineAddr> {
        (0..LEN as u64).map(LineAddr::new).collect()
    }

    /// One shard; a control timeout long enough for an open's ack on a
    /// busy host, which also bounds `submit`'s waits.
    fn cfg(supervision: SupervisionConfig, fault: Option<ServiceFaultConfig>) -> ServiceConfig {
        ServiceConfig {
            shards: 1,
            queue_depth: 1,
            supervision: SupervisionConfig {
                control_timeout_ms: 250,
                ..supervision
            },
            fault,
            ..ServiceConfig::default()
        }
    }

    /// A shard killed by its first batch that then stays down: the
    /// restart backoff outlasts the test.
    fn killed(service: &PrefetchService, session: &mut Session, until: ShardState) {
        let tripwire = session.submit(obs()).expect("shard up");
        assert!(tripwire.wait().is_err(), "the killed batch is never acked");
        let deadline = Instant::now() + Duration::from_secs(30);
        while service.shard_state(0) != until {
            assert!(Instant::now() < deadline, "shard never reached {until:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The label of an enqueued handle: the ack it already holds, if any,
    /// and whether that ack handed the buffer back.
    fn pending(p: &PendingBatch) -> (String, bool) {
        match p.rx.try_recv().ok() {
            None => (String::new(), false),
            Some(reply) => {
                let label = match &reply.error {
                    Some(e) => format!("({e:?})"),
                    None if reply.shed => "(shed)".to_string(),
                    None => "(acked)".to_string(),
                };
                (label, reply.recycled.capacity() >= LEN)
            }
        }
    }

    /// The label of a `try_submit` or `submit_timeout` result, and
    /// whether it handed the buffer back.
    fn label(result: TrySubmit) -> (String, bool) {
        match result {
            TrySubmit::Enqueued(p) => {
                let (label, back) = pending(&p);
                (format!("Enqueued{label}"), back)
            }
            TrySubmit::Full(o) => ("Full".to_string(), o.len() == LEN),
            TrySubmit::TimedOut(o) => ("TimedOut".to_string(), o.len() == LEN),
            TrySubmit::Closed(o) => ("Closed".to_string(), o.len() == LEN),
        }
    }

    /// Runs one entry point (0 `try_submit`, 1 `submit`, 2
    /// `submit_timeout`) and returns its result, whether the buffer came
    /// back (in the result, or in an immediate ack), and what it added to
    /// the session's rejected and shed totals.
    fn submit_via(session: &mut Session, entry: usize) -> (String, bool, u64, u64) {
        let (rejected, shed) = (session.rejected_cum, session.shed_cum);
        let (result, handed_back) = match entry {
            0 => label(session.try_submit(obs())),
            1 => match session.submit(obs()) {
                Ok(p) => {
                    let (label, back) = pending(&p);
                    (format!("Ok{label}"), back)
                }
                Err(e) => (format!("Err({e:?})"), false),
            },
            _ => label(session.submit_timeout(obs(), Duration::from_millis(20))),
        };
        (
            result,
            handed_back,
            session.rejected_cum - rejected,
            session.shed_cum - shed,
        )
    }

    /// Checks all three entry points against one row of the table:
    /// `(result, buffer handed back, rejected added, shed added)` for
    /// `try_submit`, `submit` and `submit_timeout`.
    fn expect_row(state: &str, session: &mut Session, want: [(&str, bool, u64, u64); 3]) {
        for (entry, want) in want.into_iter().enumerate() {
            let (result, handed_back, rejected, shed) = submit_via(session, entry);
            assert_eq!(
                (result.as_str(), handed_back, rejected, shed),
                want,
                "{state}, {}",
                ["try_submit", "submit", "submit_timeout"][entry]
            );
        }
    }

    #[test]
    fn every_submit_entry_point_reports_each_shard_state_the_same_way() {
        let fast = SupervisionConfig::default();
        let down = |shed_when_down| SupervisionConfig {
            backoff_base_ms: 5_000,
            backoff_max_ms: 5_000,
            shed_when_down,
            ..fast
        };
        let kill = || Some(ServiceFaultConfig::kill(0, 1));

        // A full queue: the shard is paused with its depth-1 queue taken.
        let service = PrefetchService::start(cfg(fast, None));
        let mut session = service.open(1, TenantSpec::repl(64)).unwrap();
        let pause = service.pause_shard(0).unwrap();
        let queued = session.try_submit(obs());
        assert!(matches!(queued, TrySubmit::Enqueued(_)));
        expect_row(
            "full queue",
            &mut session,
            [
                ("Full", true, 1, 0),
                ("Err(Timeout)", false, 1, 0),
                ("TimedOut", true, 1, 0),
            ],
        );
        // An unknown tenant is answered at once, buffer and all.
        let mut ghost = Session::test_clone_for_tenant(&session, 999);
        expect_row(
            "unknown tenant",
            &mut ghost,
            [
                ("Enqueued(UnknownTenant(999))", true, 0, 0),
                ("Ok(UnknownTenant(999))", true, 0, 0),
                ("Enqueued(UnknownTenant(999))", true, 0, 0),
            ],
        );
        drop(pause);
        service.shutdown();

        // A down shard under the shedding policy sheds on every path.
        let service = PrefetchService::start(cfg(down(true), kill()));
        let mut session = service.open(1, TenantSpec::repl(64)).unwrap();
        killed(&service, &mut session, ShardState::Down);
        expect_row(
            "down, shedding",
            &mut session,
            [
                ("Enqueued(shed)", true, 0, 1),
                ("Ok(shed)", true, 0, 1),
                ("Enqueued(shed)", true, 0, 1),
            ],
        );
        drop(service);

        // Without shedding, every path that gives up on a down shard
        // counts one rejection, as it does on a full queue.
        let service = PrefetchService::start(cfg(down(false), kill()));
        let mut session = service.open(1, TenantSpec::repl(64)).unwrap();
        killed(&service, &mut session, ShardState::Down);
        expect_row(
            "down, not shedding",
            &mut session,
            [
                ("Full", true, 1, 0),
                ("Err(Timeout)", false, 1, 0),
                ("TimedOut", true, 1, 0),
            ],
        );
        drop(service);

        let failed = SupervisionConfig {
            max_restarts: 0,
            ..fast
        };
        let service = PrefetchService::start(cfg(failed, kill()));
        let mut session = service.open(1, TenantSpec::repl(64)).unwrap();
        killed(&service, &mut session, ShardState::Failed);
        expect_row(
            "failed shard",
            &mut session,
            [
                ("Closed", true, 0, 0),
                ("Err(ShardDown(0))", false, 0, 0),
                ("Closed", true, 0, 0),
            ],
        );
        service.shutdown();

        let service = PrefetchService::start(cfg(fast, None));
        let mut session = service.open(1, TenantSpec::repl(64)).unwrap();
        service.shutdown();
        expect_row(
            "closed service",
            &mut session,
            [
                ("Closed", true, 0, 0),
                ("Err(Closed)", false, 0, 0),
                ("Closed", true, 0, 0),
            ],
        );

        // A quota of one batch, spent: every later submission is shed.
        let service = PrefetchService::start(cfg(fast, None));
        let spec = TenantSpec::repl(64).with_quota(AdmissionQuota::new(1, 0));
        let mut session = service.open(1, spec).unwrap();
        session.submit(obs()).unwrap().wait().unwrap();
        expect_row(
            "quota exhausted",
            &mut session,
            [
                ("Enqueued(shed)", true, 0, 1),
                ("Ok(shed)", true, 0, 1),
                ("Enqueued(shed)", true, 0, 1),
            ],
        );
        service.shutdown();
    }

    #[test]
    fn drr_serves_backlogged_tenants_in_weighted_round_robin_order() {
        // One batch costs exactly one quantum, so a weight-1 tenant is
        // served one batch per scheduler visit and a weight-w tenant w.
        let service = PrefetchService::start(ServiceConfig {
            shards: 1,
            queue_depth: 16,
            quantum_obs: LEN,
            ..ServiceConfig::default()
        });
        let mut hot = service
            .open(1, TenantSpec::repl(256).with_weight(2))
            .unwrap();
        let mut light1 = service.open(2, TenantSpec::repl(256)).unwrap();
        let mut light2 = service.open(3, TenantSpec::repl(256)).unwrap();

        // Build the whole backlog behind a paused worker so the drain
        // order reflects the scheduler alone, not arrival timing.
        let pause = service.pause_shard(0).unwrap();
        let mut pending = Vec::new();
        for (session, count) in [(&mut hot, 6), (&mut light1, 2), (&mut light2, 2)] {
            for _ in 0..count {
                match session.try_submit(obs()) {
                    TrySubmit::Enqueued(p) => pending.push(p),
                    other => panic!("expected Enqueued, got {other:?}"),
                }
            }
        }
        drop(pause);
        for p in pending {
            assert!(p.wait().unwrap().error.is_none());
        }

        // The journal holds the acked batches in the order the shard
        // served them. Weight 2 earns the hot tenant two batches per
        // visit; the weight-1 tenants get one each. Registration order
        // fixes the visit order.
        let served: Vec<u32> = lock(&service.slots[0].journal)
            .replay_from(0)
            .0
            .iter()
            .map(|e| e.tenant)
            .collect();
        assert_eq!(
            served,
            vec![1, 1, 2, 3, 1, 1, 2, 3, 1, 1],
            "weighted round-robin drain order"
        );
        service.shutdown();
    }

    #[test]
    fn a_control_message_wakes_an_idle_worker_at_once() {
        let service = PrefetchService::start(cfg(SupervisionConfig::default(), None));
        // Let the worker settle into its inbox wait, which has no
        // timeout: only the push's notify can wake it.
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        let (reply, rx) = channel();
        service.slots[0]
            .control(ShardMsg::ShardStats { reply })
            .unwrap();
        // Bounded, so a lost wakeup fails here instead of hanging.
        let answered = rx.recv_timeout(Duration::from_millis(500));
        assert!(
            answered.is_ok(),
            "a control message wakes the worker: {:?}",
            t0.elapsed()
        );
        service.shutdown();
    }

    #[test]
    fn a_worker_blocked_on_a_held_lock_is_not_replaced() {
        // Under default supervision, a batch is in flight while the
        // shard's journal lock is held for a second: the worker blocks on
        // the lock, alive and healthy, and nothing may fence or rebuild
        // it.
        let run = |hold: bool| {
            let service = PrefetchService::start(cfg(SupervisionConfig::default(), None));
            let mut session = service.open(1, TenantSpec::repl(64)).unwrap();
            let journal = hold.then(|| lock(&service.slots[0].journal));
            let pending = session.submit(obs()).unwrap();
            if journal.is_some() {
                std::thread::sleep(Duration::from_secs(1));
            }
            drop(journal);
            let reply = pending.wait().expect("the batch is acked");
            assert_eq!((reply.observed, reply.shed), (LEN as u64, false));
            std::thread::sleep(Duration::from_millis(500));
            let recoveries = service.recovery_reports();
            let fingerprint = session.fingerprint().unwrap();
            service.shutdown();
            (recoveries, fingerprint)
        };
        let (_, control) = run(false);
        let (recoveries, fingerprint) = run(true);
        assert!(recoveries.is_empty(), "no recovery: {recoveries:?}");
        assert_eq!(fingerprint, control, "the tenant learned its batch once");
    }

    #[test]
    fn metrics_and_shard_stats_time_out_on_a_worker_blocked_on_a_held_lock() {
        let service = PrefetchService::start(cfg(SupervisionConfig::default(), None));
        let mut session = service.open(1, TenantSpec::repl(64)).unwrap();
        let journal = lock(&service.slots[0].journal);
        let held = Instant::now();
        let pending = session.submit(obs()).unwrap();
        // Let the worker take the batch and block on the journal lock.
        std::thread::sleep(Duration::from_millis(100));
        let asked = Instant::now();
        assert!(matches!(service.metrics(), Err(ServiceError::Timeout)));
        assert!(matches!(service.shard_stats(0), Err(ServiceError::Timeout)));
        let waited = asked.elapsed();
        assert!(
            waited < Duration::from_millis(800),
            "two 250 ms control waits took {waited:?}"
        );
        std::thread::sleep(Duration::from_secs(1).saturating_sub(held.elapsed()));
        drop(journal);
        pending.wait().expect("the batch is acked");
        let report = service.metrics().expect("metrics answer after the lock");
        assert_eq!(report.shards.len(), 1);
        assert_eq!(report.shards[0].observed, LEN as u64);
        let stats = service.shard_stats(0).expect("stats answer after the lock");
        assert_eq!((stats.batches, stats.observed), (1, LEN as u64));
        service.shutdown();
    }

    #[test]
    fn checkpoint_metrics_count_one_update_per_interval() {
        // The default takes a checkpoint after every accepted batch; an
        // interval of k takes one after every k-th.
        for every in [SupervisionConfig::default().checkpoint_every, 4, 5] {
            let sup = SupervisionConfig {
                checkpoint_every: every,
                ..SupervisionConfig::default()
            };
            let service = PrefetchService::start(ServiceConfig {
                metrics: true,
                ..cfg(sup, None)
            });
            let mut session = service.open(1, TenantSpec::repl(64)).unwrap();
            let batches = 12;
            for _ in 0..batches {
                session.submit(obs()).unwrap().wait().unwrap();
            }
            let report = service.metrics().expect("metrics");
            assert_eq!(report.shards[0].batches, batches);
            assert_eq!(
                report.shards[0].checkpoint_nanos.total(),
                batches / every,
                "checkpoint_every {every}"
            );
            service.shutdown();
        }
        assert_eq!(SupervisionConfig::default().checkpoint_every, 1);
    }

    #[test]
    fn dropping_the_service_ends_every_worker_while_a_session_lives() {
        let service = PrefetchService::start(ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        });
        let mut session = service.open(1, TenantSpec::repl(64)).unwrap();
        session.submit(obs()).unwrap().wait().unwrap();
        let slots = service.slots.clone();
        drop(service);
        // A slot is shared by the service, the supervisor, its worker
        // thread and the sessions on it. Once only this test's handle
        // and the session's are left, every worker has returned.
        let deadline = Instant::now() + Duration::from_secs(30);
        for slot in &slots {
            let floor = 1 + usize::from(slot.shard == session.shard());
            while Arc::strong_count(slot) > floor {
                assert!(
                    Instant::now() < deadline,
                    "shard {} still has a live worker",
                    slot.shard
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(matches!(session.try_submit(obs()), TrySubmit::Closed(_)));
    }
}
