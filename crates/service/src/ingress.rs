//! The shard's one inbox: per-tenant bounded batch queues drained by a
//! weighted deficit-round-robin scheduler, plus a FIFO of control
//! messages, all under one mutex.
//!
//! The shard worker is the online form of the paper's ULMT loop (wait,
//! Prefetching step, Learning step, wait) fed by one observation queue,
//! and the [`Ingress`] is that queue. Each tenant owns a bounded queue
//! inside it, so
//!
//! * **admission** is per-tenant: a full queue rejects only that
//!   tenant's submissions, and
//! * **service** is scheduled: the worker picks the next batch by
//!   weighted deficit round-robin.
//!
//! Control messages (open, snapshot, stats, drain, shutdown, ...) share
//! the inbox. The worker takes them ahead of any batch, and each one
//! captures its per-tenant *barriers* when it is pushed, under the same
//! lock as the enqueues: the count of batches enqueued so far for every
//! tenant it must follow. The worker drains those tenants' queues to the
//! barriers before it runs the message, so "everything submitted before
//! the call is included" holds without a shared FIFO across tenants.
//!
//! # Why fingerprints don't change
//!
//! The scheduler only reorders batches *across* tenants. Within one
//! tenant the queue is FIFO and the worker always takes the head, so a
//! tenant's observation stream reaches its table in submission order no
//! matter the weights or what its neighbors do. Table state is a pure
//! function of that per-tenant stream — which is the service's
//! determinism argument.
//!
//! # DRR invariants
//!
//! Each tenant holds a *deficit* of observation credit. A visit to a
//! tenant that was not served on the previous pick replenishes its
//! deficit by `weight * quantum_obs` once; a batch is served when the
//! deficit covers its cost (`max(len, 1)` observations) and the cost is
//! then deducted. An emptied queue forfeits its deficit, so idle tenants
//! cannot hoard credit. Every full rotation grows every backlogged
//! tenant's deficit by at least one quantum, so the scheduler always
//! makes progress, and over any backlogged interval tenant throughput is
//! proportional to weight (the classic DRR O(1) fairness bound).
//!
//! # Lifecycle
//!
//! An `Ingress` belongs to one worker *epoch*. When the epoch dies —
//! crash, wedge fence, or shutdown — the ingress is closed and hands back
//! its queued batches and control messages: on the crash path they are
//! dropped with their reply channels (clients observe `Closed` and
//! resubmit, the at-least-once half of the recovery contract), on the
//! graceful path the worker answers them with a typed `ShuttingDown`
//! error. Nothing queued is *ever* carried into the next epoch: the
//! client resubmits the in-flight batch it never got an ack for, and
//! letting queued successors survive would reorder them behind that
//! resubmission, breaking per-tenant stream order.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ulmt_simcore::{FxHashMap, LineAddr};

use crate::service::BatchReply;
use crate::shard::ShardMsg;

/// One observation batch, with everything the worker needs to process
/// and acknowledge it.
pub(crate) struct IngressBatch {
    /// The tenant the batch belongs to.
    pub tenant: u32,
    /// The observations.
    pub obs: Vec<LineAddr>,
    /// The session's *cumulative* count of rejected submissions —
    /// totals, not deltas, so applying them is idempotent under
    /// at-least-once resubmission and journal replay.
    pub rejected_cum: u64,
    /// The session's cumulative count of shed submissions.
    pub shed_cum: u64,
    /// Where the ack goes.
    pub reply: Sender<BatchReply>,
    /// When the batch entered its queue, for the metrics plane's
    /// queue-wait histogram; stamped by [`Ingress::enqueue`]. `None`
    /// when metrics are disabled: the clock is never even read, so the
    /// disabled path costs nothing.
    pub enqueued_at: Option<Instant>,
}

/// Which queued batches a control message must follow.
pub(crate) enum Follows {
    /// None: the message runs at its place among the control messages.
    Nothing,
    /// Every batch enqueued for one tenant before the message.
    Tenant(u32),
    /// Every batch enqueued for any tenant before the message.
    Everything,
}

/// A control message and the per-tenant barriers it captured when it
/// was pushed: `(tenant, batches enqueued for it by then)`.
pub(crate) struct Control {
    pub msg: ShardMsg,
    pub barriers: Vec<(u32, u64)>,
}

/// What the worker takes next from its inbox.
pub(crate) enum Work {
    Control(Control),
    Batch(IngressBatch),
    /// Nothing arrived within the wait.
    Idle,
    /// The ingress is closed: the epoch is over.
    Closed,
}

/// Everything [`Ingress::close`] took out of the inbox.
pub(crate) struct Drained {
    pub control: Vec<ShardMsg>,
    pub batches: Vec<IngressBatch>,
}

struct TenantQueue {
    weight: u64,
    depth: usize,
    deficit: u64,
    /// `true` when the next visit should replenish the deficit: set on
    /// registration, when the queue empties, and whenever the scheduler
    /// moves past this tenant.
    fresh: bool,
    /// Batches ever enqueued for this tenant on this epoch.
    enq: u64,
    /// Batches handed to the worker (per-tenant barrier watermark).
    done: u64,
    q: VecDeque<IngressBatch>,
}

struct IngressInner {
    tenants: FxHashMap<u32, TenantQueue>,
    /// Round-robin visit order (tenant registration order).
    round: Vec<u32>,
    cursor: usize,
    queued: usize,
    control: VecDeque<Control>,
    closed: bool,
}

impl IngressInner {
    /// Batches ever enqueued for `tenant` on this epoch.
    fn barrier(&self, tenant: u32) -> u64 {
        self.tenants.get(&tenant).map_or(0, |t| t.enq)
    }

    /// Barrier values for every registered tenant (registration order).
    fn barriers(&self) -> Vec<(u32, u64)> {
        self.round
            .iter()
            .map(|&id| (id, self.tenants[&id].enq))
            .collect()
    }
}

/// Outcome of an enqueue. The failing variants hand the observation
/// buffer back untouched.
pub(crate) enum Enqueue {
    /// The batch is queued; the worker will pick it up.
    Ok,
    /// The *tenant's* queue is full (its neighbors are unaffected), and
    /// stayed full until the deadline, if one was given.
    Full(Vec<LineAddr>),
    /// The ingress is closed (worker epoch ended).
    Closed(Vec<LineAddr>),
    /// The tenant was never registered on this shard.
    Unknown(Vec<LineAddr>),
}

/// One worker epoch's inbox: per-tenant bounded queues, the scheduler
/// state, the control FIFO, and the condvars producers and the worker
/// sleep on.
pub(crate) struct Ingress {
    quantum: u64,
    default_depth: usize,
    /// Stamp each batch's enqueue time (metrics enabled)?
    stamp: bool,
    inner: Mutex<IngressInner>,
    /// The worker waits here for a batch or a control message.
    work: Condvar,
    /// Producers wait here for queue space.
    space: Condvar,
}

impl std::fmt::Debug for Ingress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = guard(&self.inner);
        f.debug_struct("Ingress")
            .field("tenants", &inner.round.len())
            .field("queued", &inner.queued)
            .field("control", &inner.control.len())
            .field("closed", &inner.closed)
            .finish_non_exhaustive()
    }
}

fn guard<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Ingress {
    /// An ingress without enqueue timestamping (tests only; the service
    /// always picks per its metrics config).
    #[cfg(test)]
    pub fn new(quantum_obs: usize, default_depth: usize) -> Self {
        Self::with_stamp(quantum_obs, default_depth, false)
    }

    /// Builds an ingress, with enqueue timestamping (the metrics
    /// plane's queue-wait source) switched on or off.
    pub fn with_stamp(quantum_obs: usize, default_depth: usize, stamp: bool) -> Self {
        Ingress {
            quantum: (quantum_obs as u64).max(1),
            default_depth: default_depth.max(1),
            stamp,
            inner: Mutex::new(IngressInner {
                tenants: FxHashMap::default(),
                round: Vec::new(),
                cursor: 0,
                queued: 0,
                control: VecDeque::new(),
                closed: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Registers a tenant's queue (idempotent). `depth` of `None` uses
    /// the service-wide default.
    pub fn register(&self, tenant: u32, weight: u32, depth: Option<usize>) {
        let mut inner = guard(&self.inner);
        if inner.tenants.contains_key(&tenant) {
            return;
        }
        inner.tenants.insert(
            tenant,
            TenantQueue {
                weight: (weight as u64).max(1),
                depth: depth.unwrap_or(self.default_depth).max(1),
                deficit: 0,
                fresh: true,
                enq: 0,
                done: 0,
                q: VecDeque::new(),
            },
        );
        inner.round.push(tenant);
    }

    /// Queues a batch on its tenant's queue. A full queue fails at once
    /// without a `deadline`; with one, the call waits (on the `space`
    /// condvar) for room until the deadline passes.
    pub fn enqueue(&self, mut batch: IngressBatch, deadline: Option<Instant>) -> Enqueue {
        let mut inner = guard(&self.inner);
        loop {
            if inner.closed {
                return Enqueue::Closed(batch.obs);
            }
            let Some(t) = inner.tenants.get_mut(&batch.tenant) else {
                return Enqueue::Unknown(batch.obs);
            };
            if t.q.len() < t.depth {
                batch.enqueued_at = self.stamp.then(Instant::now);
                t.q.push_back(batch);
                t.enq += 1;
                inner.queued += 1;
                drop(inner);
                self.work.notify_one();
                return Enqueue::Ok;
            }
            let now = Instant::now();
            match deadline {
                Some(d) if now < d => {
                    inner = self
                        .space
                        .wait_timeout(inner, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
                _ => return Enqueue::Full(batch.obs),
            }
        }
    }

    /// Queues a control message behind the earlier ones, capturing the
    /// barriers of the tenants it follows, and wakes the worker. A closed
    /// ingress hands the message back.
    pub fn push_control(&self, msg: ShardMsg) -> Result<(), ShardMsg> {
        let mut inner = guard(&self.inner);
        if inner.closed {
            return Err(msg);
        }
        let barriers = match msg.follows() {
            Follows::Nothing => Vec::new(),
            Follows::Tenant(tenant) => vec![(tenant, inner.barrier(tenant))],
            Follows::Everything => inner.barriers(),
        };
        inner.control.push_back(Control { msg, barriers });
        drop(inner);
        self.work.notify_one();
        Ok(())
    }

    /// The worker's wait: the oldest control message, else the
    /// scheduler's next batch, else blocks until one arrives, the ingress
    /// closes, or `timeout` elapses (the supervision tick, so fence
    /// checks keep their cadence).
    pub fn next(&self, timeout: Duration) -> Work {
        let mut inner = guard(&self.inner);
        let mut deadline = None;
        loop {
            if let Some(control) = inner.control.pop_front() {
                return Work::Control(control);
            }
            if let Some(batch) = Self::pick_drr(&mut inner, self.quantum) {
                drop(inner);
                self.space.notify_all();
                return Work::Batch(batch);
            }
            if inner.closed {
                return Work::Closed;
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + timeout);
            if now >= deadline {
                return Work::Idle;
            }
            inner = self
                .work
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Weighted deficit round-robin. Serves the tenant under the cursor
    /// for as long as its deficit covers batch costs, then rotates;
    /// terminates because every full rotation of a backlogged ingress
    /// replenishes at least one quantum per backlogged tenant.
    fn pick_drr(inner: &mut IngressInner, quantum: u64) -> Option<IngressBatch> {
        let n = inner.round.len();
        if inner.queued == 0 || n == 0 {
            return None;
        }
        loop {
            let id = inner.round[inner.cursor];
            let mut advance = true;
            let mut picked = None;
            {
                let t = inner.tenants.get_mut(&id).expect("round lists tenants");
                if t.q.is_empty() {
                    t.deficit = 0;
                    t.fresh = true;
                } else {
                    if t.fresh {
                        t.deficit = t.deficit.saturating_add(t.weight.saturating_mul(quantum));
                        t.fresh = false;
                    }
                    let cost = (t.q.front().expect("non-empty").obs.len() as u64).max(1);
                    if t.deficit >= cost {
                        t.deficit -= cost;
                        picked = t.q.pop_front();
                        t.done += 1;
                        if t.q.is_empty() {
                            t.deficit = 0;
                            t.fresh = true;
                        } else {
                            // Keep spending this tenant's remaining
                            // deficit on the next pick.
                            advance = false;
                        }
                    } else {
                        t.fresh = true;
                    }
                }
            }
            if advance {
                inner.cursor = (inner.cursor + 1) % n;
            }
            if let Some(b) = picked {
                inner.queued -= 1;
                return Some(b);
            }
        }
    }

    /// Pops the head of `tenant`'s queue if fewer than `barrier` of its
    /// batches have been taken, bypassing the scheduler. This is how a
    /// control message drains the tenants it follows: per-tenant order is
    /// all its ordering needs, and an operation on tenant `t` must not
    /// wait on other tenants' backlogs.
    pub fn pop_before(&self, tenant: u32, barrier: u64) -> Option<IngressBatch> {
        let mut inner = guard(&self.inner);
        let t = inner.tenants.get_mut(&tenant)?;
        if t.done >= barrier {
            return None;
        }
        let b = t.q.pop_front()?;
        t.done += 1;
        if t.q.is_empty() {
            t.deficit = 0;
            t.fresh = true;
        }
        inner.queued -= 1;
        drop(inner);
        self.space.notify_all();
        Some(b)
    }

    /// `true` once [`Ingress::close`] ran.
    #[cfg(test)]
    pub fn is_closed(&self) -> bool {
        guard(&self.inner).closed
    }

    /// Closes the ingress and hands back every queued control message
    /// (in FIFO order) and batch (per-tenant FIFO, registration order
    /// across tenants). New enqueues and pushes fail; blocked producers
    /// and the worker wake. The caller decides what was queued: drop it
    /// (crash path — clients resubmit) or answer it with a typed error
    /// (graceful shutdown). Idempotent; a second close returns nothing.
    pub fn close(&self) -> Drained {
        let mut inner = guard(&self.inner);
        inner.closed = true;
        let control = inner.control.drain(..).map(|c| c.msg).collect();
        let mut batches = Vec::with_capacity(inner.queued);
        let round = inner.round.clone();
        for id in round {
            let t = inner.tenants.get_mut(&id).expect("round lists tenants");
            while let Some(b) = t.q.pop_front() {
                t.done += 1;
                batches.push(b);
            }
        }
        inner.queued = 0;
        drop(inner);
        self.work.notify_all();
        self.space.notify_all();
        Drained { control, batches }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn batch(tenant: u32, len: usize) -> (IngressBatch, std::sync::mpsc::Receiver<BatchReply>) {
        let (reply, rx) = channel();
        (
            IngressBatch {
                tenant,
                obs: (0..len as u64).map(LineAddr::new).collect(),
                rejected_cum: 0,
                shed_cum: 0,
                reply,
                enqueued_at: None,
            },
            rx,
        )
    }

    fn push(ing: &Ingress, tenant: u32, len: usize) {
        let (b, rx) = batch(tenant, len);
        assert!(matches!(ing.enqueue(b, None), Enqueue::Ok));
        std::mem::forget(rx);
    }

    fn next_batch(ing: &Ingress) -> Option<IngressBatch> {
        match ing.next(Duration::ZERO) {
            Work::Batch(b) => Some(b),
            _ => None,
        }
    }

    fn drain_order(ing: &Ingress) -> Vec<u32> {
        let mut order = Vec::new();
        while let Some(b) = next_batch(ing) {
            order.push(b.tenant);
        }
        order
    }

    /// A control message that follows every tenant.
    fn drain_msg() -> ShardMsg {
        let (reply, rx) = channel();
        std::mem::forget(rx);
        ShardMsg::Drain { reply }
    }

    #[test]
    fn drr_interleaves_a_hot_tenant_with_a_light_one() {
        let ing = Ingress::new(64, 16);
        ing.register(1, 1, None); // hot
        ing.register(2, 1, None); // light
        for _ in 0..4 {
            push(&ing, 1, 64);
        }
        push(&ing, 2, 64);
        // Visit hot (quantum 64, serve 1), deficit spent -> visit light
        // (serve its only batch), then hot drains.
        assert_eq!(drain_order(&ing), vec![1, 2, 1, 1, 1]);
    }

    #[test]
    fn drr_weight_doubles_a_tenants_share() {
        let ing = Ingress::new(64, 16);
        ing.register(1, 2, None); // hot, weight 2
        ing.register(2, 1, None);
        for _ in 0..4 {
            push(&ing, 1, 64);
        }
        push(&ing, 2, 64);
        // Hot replenishes 128: serves two batches before rotating.
        assert_eq!(drain_order(&ing), vec![1, 1, 2, 1, 1]);
    }

    #[test]
    fn drr_keeps_per_tenant_order_fifo() {
        let ing = Ingress::new(16, 64);
        ing.register(1, 1, None);
        ing.register(2, 3, None);
        for i in 0..10 {
            let (mut b, rx) = batch(1, 4);
            b.rejected_cum = i; // stamp submission order
            assert!(matches!(ing.enqueue(b, None), Enqueue::Ok));
            std::mem::forget(rx);
            push(&ing, 2, 31);
        }
        let mut seen = Vec::new();
        while let Some(b) = next_batch(&ing) {
            if b.tenant == 1 {
                seen.push(b.rejected_cum);
            }
        }
        assert_eq!(seen, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn full_queue_rejects_only_its_own_tenant() {
        let ing = Ingress::new(64, 2);
        ing.register(1, 1, Some(2));
        ing.register(2, 1, Some(2));
        push(&ing, 1, 4);
        push(&ing, 1, 4);
        let (b, _rx) = batch(1, 4);
        assert!(matches!(ing.enqueue(b, None), Enqueue::Full(_)));
        // Tenant 2 still has room.
        let (b, _rx2) = batch(2, 4);
        assert!(matches!(ing.enqueue(b, None), Enqueue::Ok));
    }

    #[test]
    fn unknown_tenant_and_closed_ingress_hand_the_batch_back() {
        let ing = Ingress::new(64, 4);
        ing.register(1, 1, None);
        let (b, _rx) = batch(99, 3);
        match ing.enqueue(b, None) {
            Enqueue::Unknown(obs) => assert_eq!(obs.len(), 3),
            _ => panic!("expected Unknown"),
        }
        push(&ing, 1, 3);
        let drained = ing.close();
        assert_eq!(drained.batches.len(), 1);
        assert!(ing.is_closed());
        let (b, _rx2) = batch(1, 3);
        assert!(matches!(ing.enqueue(b, None), Enqueue::Closed(_)));
        assert!(
            ing.close().batches.is_empty(),
            "second close drains nothing"
        );
    }

    #[test]
    fn barriers_track_enqueues_and_pops() {
        let ing = Ingress::new(64, 8);
        ing.register(1, 1, None);
        ing.register(2, 1, None);
        push(&ing, 1, 2);
        push(&ing, 1, 2);
        push(&ing, 2, 2);
        // A pushed control message captures the barriers at push time;
        // later enqueues do not move them.
        assert!(ing.push_control(drain_msg()).is_ok());
        push(&ing, 1, 2);
        let Work::Control(control) = ing.next(Duration::ZERO) else {
            panic!("control messages come first");
        };
        assert_eq!(control.barriers, vec![(1, 2), (2, 1)]);
        let b = ing.pop_before(1, 2).expect("queued");
        assert_eq!(b.tenant, 1);
        // Draining tenant 1 to its barrier never touches tenant 2, and
        // stops at the barrier although a third batch is queued.
        assert!(ing.pop_before(1, 2).is_some());
        assert!(ing.pop_before(1, 2).is_none());
        assert!(ing.pop_before(2, 1).is_some());
        assert!(ing.pop_before(2, 1).is_none());
        assert_eq!(drain_order(&ing), vec![1]);
    }

    #[test]
    fn enqueue_deadline_times_out_and_unblocks_on_space() {
        let ing = std::sync::Arc::new(Ingress::new(64, 1));
        ing.register(1, 1, Some(1));
        push(&ing, 1, 1);
        let (b, _rx) = batch(1, 1);
        let t0 = Instant::now();
        match ing.enqueue(b, Some(Instant::now() + Duration::from_millis(20))) {
            Enqueue::Full(obs) => assert_eq!(obs.len(), 1),
            _ => panic!("expected Full at the deadline"),
        }
        assert!(t0.elapsed() >= Duration::from_millis(20));
        // With a consumer, the blocked producer gets through.
        let ing2 = std::sync::Arc::clone(&ing);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            next_batch(&ing2).expect("one batch queued")
        });
        let (b, _rx2) = batch(1, 1);
        match ing.enqueue(b, Some(Instant::now() + Duration::from_secs(5))) {
            Enqueue::Ok => {}
            _ => panic!("expected Ok after space opened"),
        }
        consumer.join().expect("consumer");
    }

    #[test]
    fn a_pushed_control_message_wakes_an_idle_worker() {
        let ing = std::sync::Arc::new(Ingress::new(64, 4));
        let ing2 = std::sync::Arc::clone(&ing);
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            assert!(ing2.push_control(drain_msg()).is_ok());
        });
        let t0 = Instant::now();
        assert!(matches!(
            ing.next(Duration::from_secs(10)),
            Work::Control(_)
        ));
        assert!(t0.elapsed() < Duration::from_secs(5), "the push must wake");
        pusher.join().expect("pusher");
    }

    #[test]
    fn close_hands_back_queued_control_messages() {
        let ing = Ingress::new(64, 4);
        ing.register(1, 1, None);
        push(&ing, 1, 2);
        assert!(ing.push_control(drain_msg()).is_ok());
        assert!(ing.push_control(drain_msg()).is_ok());
        let drained = ing.close();
        assert_eq!(drained.control.len(), 2);
        assert_eq!(drained.batches.len(), 1);
        assert!(ing.push_control(drain_msg()).is_err(), "closed");
        assert!(matches!(ing.next(Duration::ZERO), Work::Closed));
    }
}
