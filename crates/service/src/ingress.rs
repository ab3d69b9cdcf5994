//! Per-tenant bounded ingestion queues and the weighted deficit-round-
//! robin scheduler that drains them — the shard's fairness layer.
//!
//! Before this layer, every tenant on a shard shared one bounded
//! `sync_channel`: a single hot tenant could fill it and head-of-line
//! block its neighbors, and backpressure (`TrySubmit::Full`) punished
//! whichever tenant happened to submit next rather than the one causing
//! the pressure. Now each tenant owns a bounded queue inside the shard's
//! [`Ingress`], so
//!
//! * **admission** is per-tenant: a full queue rejects only that
//!   tenant's submissions, and
//! * **service** is scheduled: the worker picks the next batch by
//!   weighted deficit round-robin.
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
//! crash, wedge fence, or shutdown — the ingress is closed and its
//! queued batches drained: on the crash path their reply channels are
//! dropped (clients observe `Closed` and resubmit, the at-least-once
//! half of the recovery contract), on the graceful path the worker
//! answers them with a typed `ShuttingDown` error. Queued batches are
//! *never* carried into the next epoch: the client resubmits the
//! in-flight batch it never got an ack for, and letting queued
//! successors survive would reorder them behind that resubmission,
//! breaking per-tenant stream order.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ulmt_simcore::{FxHashMap, LineAddr};

use crate::service::BatchReply;

/// One queued observation batch, with everything the worker needs to
/// process and acknowledge it.
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
    /// queue-wait histogram. `None` when metrics are disabled: the
    /// clock is never even read, so the disabled path costs nothing.
    pub enqueued_at: Option<Instant>,
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
    /// Set by [`Ingress::kick`] so a control message sent while the
    /// worker sleeps on the `work` condvar wakes it promptly.
    kicked: bool,
    closed: bool,
}

/// Outcome of an enqueue attempt. The failing variants hand the
/// observation buffer back untouched.
pub(crate) enum Enqueue {
    /// The batch is queued; the worker will pick it up.
    Ok,
    /// The *tenant's* queue is full (its neighbors are unaffected).
    Full(Vec<LineAddr>),
    /// The deadline expired before the tenant's queue had space.
    TimedOut(Vec<LineAddr>),
    /// The ingress is closed (worker epoch ended).
    Closed(Vec<LineAddr>),
    /// The tenant was never registered on this shard.
    Unknown(Vec<LineAddr>),
}

enum TryEnqueue {
    Ok,
    Full(IngressParts),
    Closed(IngressParts),
    Unknown(IngressParts),
}

/// The caller-supplied fields of a batch ([`Ingress`] stamps the
/// enqueue time).
pub(crate) struct IngressParts {
    pub tenant: u32,
    pub obs: Vec<LineAddr>,
    pub rejected_cum: u64,
    pub shed_cum: u64,
    pub reply: Sender<BatchReply>,
}

/// One worker epoch's ingestion front: per-tenant bounded queues, the
/// scheduler state, and the condvars producers and the worker sleep on.
pub(crate) struct Ingress {
    quantum: u64,
    default_depth: usize,
    /// Stamp each batch's enqueue time (metrics enabled)?
    stamp: bool,
    inner: Mutex<IngressInner>,
    /// Worker waits here for data or a kick.
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
                kicked: false,
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

    fn push_locked(inner: &mut IngressInner, parts: IngressParts, stamp: bool) -> TryEnqueue {
        if inner.closed {
            return TryEnqueue::Closed(parts);
        }
        let Some(t) = inner.tenants.get_mut(&parts.tenant) else {
            return TryEnqueue::Unknown(parts);
        };
        if t.q.len() >= t.depth {
            return TryEnqueue::Full(parts);
        }
        t.q.push_back(IngressBatch {
            tenant: parts.tenant,
            obs: parts.obs,
            rejected_cum: parts.rejected_cum,
            shed_cum: parts.shed_cum,
            reply: parts.reply,
            enqueued_at: stamp.then(Instant::now),
        });
        t.enq += 1;
        inner.queued += 1;
        TryEnqueue::Ok
    }

    /// Non-blocking enqueue.
    pub fn try_enqueue(&self, parts: IngressParts) -> Enqueue {
        let outcome = Self::push_locked(&mut guard(&self.inner), parts, self.stamp);
        match outcome {
            TryEnqueue::Ok => {
                self.work.notify_all();
                Enqueue::Ok
            }
            TryEnqueue::Full(p) => Enqueue::Full(p.obs),
            TryEnqueue::Closed(p) => Enqueue::Closed(p.obs),
            TryEnqueue::Unknown(p) => Enqueue::Unknown(p.obs),
        }
    }

    /// Enqueue that waits (on the `space` condvar) for the tenant's
    /// queue to have room, up to `deadline`.
    pub fn enqueue_deadline(&self, parts: IngressParts, deadline: Instant) -> Enqueue {
        let mut parts = parts;
        let mut inner = guard(&self.inner);
        loop {
            match Self::push_locked(&mut inner, parts, self.stamp) {
                TryEnqueue::Ok => {
                    drop(inner);
                    self.work.notify_all();
                    return Enqueue::Ok;
                }
                TryEnqueue::Closed(p) => return Enqueue::Closed(p.obs),
                TryEnqueue::Unknown(p) => return Enqueue::Unknown(p.obs),
                TryEnqueue::Full(p) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Enqueue::TimedOut(p.obs);
                    }
                    parts = p;
                    let (g, _timeout) = self
                        .space
                        .wait_timeout(inner, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    inner = g;
                }
            }
        }
    }

    /// The scheduler: hands the worker the next batch, or `None` if
    /// nothing is queued. Never blocks.
    pub fn next_batch(&self) -> Option<IngressBatch> {
        let mut inner = guard(&self.inner);
        if inner.queued == 0 {
            return None;
        }
        let batch = Self::pick_drr(&mut inner, self.quantum);
        if batch.is_some() {
            drop(inner);
            self.space.notify_all();
        }
        batch
    }

    /// Weighted deficit round-robin. Serves the tenant under the cursor
    /// for as long as its deficit covers batch costs, then rotates;
    /// terminates because every full rotation of a backlogged ingress
    /// replenishes at least one quantum per backlogged tenant.
    fn pick_drr(inner: &mut IngressInner, quantum: u64) -> Option<IngressBatch> {
        let n = inner.round.len();
        if n == 0 {
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

    /// Pops the head of one specific tenant's queue, bypassing the
    /// scheduler. Used by barrier drains: per-tenant order is all that
    /// matters for correctness, and a control operation on tenant `t`
    /// must not wait on other tenants' backlogs.
    pub fn pop_tenant(&self, tenant: u32) -> Option<IngressBatch> {
        let mut inner = guard(&self.inner);
        let t = inner.tenants.get_mut(&tenant)?;
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

    /// Batches ever enqueued for `tenant` on this epoch — the barrier
    /// value a control message captures at send time.
    pub fn barrier(&self, tenant: u32) -> u64 {
        guard(&self.inner)
            .tenants
            .get(&tenant)
            .map(|t| t.enq)
            .unwrap_or(0)
    }

    /// Batches the worker has taken for `tenant` so far.
    pub fn done(&self, tenant: u32) -> u64 {
        guard(&self.inner)
            .tenants
            .get(&tenant)
            .map(|t| t.done)
            .unwrap_or(0)
    }

    /// Barrier values for every registered tenant (registration order).
    pub fn barriers(&self) -> Vec<(u32, u64)> {
        let inner = guard(&self.inner);
        inner
            .round
            .iter()
            .map(|&id| (id, inner.tenants[&id].enq))
            .collect()
    }

    /// Wakes the worker so it notices a freshly sent control message
    /// instead of sleeping out its poll tick.
    pub fn kick(&self) {
        guard(&self.inner).kicked = true;
        self.work.notify_all();
    }

    /// Worker-side wait: returns when data is queued, a kick arrived,
    /// the ingress closed, or `timeout` elapsed (the supervision tick,
    /// so wedge heartbeats and fence checks keep their cadence).
    pub fn wait_work(&self, timeout: Duration) {
        let mut inner = guard(&self.inner);
        if inner.queued > 0 || inner.kicked || inner.closed {
            inner.kicked = false;
            return;
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (g, _) = self
                .work
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inner = g;
            if inner.queued > 0 || inner.kicked || inner.closed {
                inner.kicked = false;
                return;
            }
        }
    }

    /// `true` once [`Ingress::close`] ran.
    #[cfg(test)]
    pub fn is_closed(&self) -> bool {
        guard(&self.inner).closed
    }

    /// Closes the ingress and drains every queued batch, in per-tenant
    /// FIFO order (registration order across tenants). New enqueues fail
    /// with [`Enqueue::Closed`]; blocked producers and the worker wake.
    /// The caller decides the drained batches' fate: drop them (crash
    /// path — clients resubmit) or answer with a typed error (graceful
    /// shutdown). Idempotent; a second close drains nothing.
    pub fn close(&self) -> Vec<IngressBatch> {
        let mut inner = guard(&self.inner);
        inner.closed = true;
        let mut drained = Vec::with_capacity(inner.queued);
        let round = inner.round.clone();
        for id in round {
            let t = inner.tenants.get_mut(&id).expect("round lists tenants");
            while let Some(b) = t.q.pop_front() {
                t.done += 1;
                drained.push(b);
            }
        }
        inner.queued = 0;
        drop(inner);
        self.work.notify_all();
        self.space.notify_all();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn parts(tenant: u32, len: usize) -> (IngressParts, std::sync::mpsc::Receiver<BatchReply>) {
        let (reply, rx) = channel();
        (
            IngressParts {
                tenant,
                obs: (0..len as u64).map(LineAddr::new).collect(),
                rejected_cum: 0,
                shed_cum: 0,
                reply,
            },
            rx,
        )
    }

    fn push(ing: &Ingress, tenant: u32, len: usize) {
        let (p, rx) = parts(tenant, len);
        assert!(matches!(ing.try_enqueue(p), Enqueue::Ok));
        std::mem::forget(rx);
    }

    fn drain_order(ing: &Ingress) -> Vec<u32> {
        let mut order = Vec::new();
        while let Some(b) = ing.next_batch() {
            order.push(b.tenant);
        }
        order
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
            let (mut p, rx) = parts(1, 4);
            p.rejected_cum = i; // stamp submission order
            assert!(matches!(ing.try_enqueue(p), Enqueue::Ok));
            std::mem::forget(rx);
            push(&ing, 2, 31);
        }
        let mut seen = Vec::new();
        while let Some(b) = ing.next_batch() {
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
        let (p, _rx) = parts(1, 4);
        assert!(matches!(ing.try_enqueue(p), Enqueue::Full(_)));
        // Tenant 2 still has room.
        let (p, _rx2) = parts(2, 4);
        assert!(matches!(ing.try_enqueue(p), Enqueue::Ok));
    }

    #[test]
    fn unknown_tenant_and_closed_ingress_hand_the_batch_back() {
        let ing = Ingress::new(64, 4);
        ing.register(1, 1, None);
        let (p, _rx) = parts(99, 3);
        match ing.try_enqueue(p) {
            Enqueue::Unknown(obs) => assert_eq!(obs.len(), 3),
            _ => panic!("expected Unknown"),
        }
        push(&ing, 1, 3);
        let drained = ing.close();
        assert_eq!(drained.len(), 1);
        assert!(ing.is_closed());
        let (p, _rx2) = parts(1, 3);
        assert!(matches!(ing.try_enqueue(p), Enqueue::Closed(_)));
        assert!(ing.close().is_empty(), "second close drains nothing");
    }

    #[test]
    fn barriers_track_enqueues_and_pops() {
        let ing = Ingress::new(64, 8);
        ing.register(1, 1, None);
        ing.register(2, 1, None);
        push(&ing, 1, 2);
        push(&ing, 1, 2);
        push(&ing, 2, 2);
        assert_eq!(ing.barrier(1), 2);
        assert_eq!(ing.barriers(), vec![(1, 2), (2, 1)]);
        assert_eq!(ing.done(1), 0);
        let b = ing.pop_tenant(1).expect("queued");
        assert_eq!(b.tenant, 1);
        assert_eq!(ing.done(1), 1);
        assert_eq!(ing.done(2), 0);
        // Draining tenant 1 to its barrier never touches tenant 2.
        while ing.done(1) < ing.barrier(1) {
            ing.pop_tenant(1).expect("barrier covered");
        }
        assert_eq!(ing.barrier(2), 1);
        assert_eq!(ing.done(2), 0);
    }

    #[test]
    fn enqueue_deadline_times_out_and_unblocks_on_space() {
        let ing = std::sync::Arc::new(Ingress::new(64, 1));
        ing.register(1, 1, Some(1));
        push(&ing, 1, 1);
        let (p, _rx) = parts(1, 1);
        let t0 = Instant::now();
        match ing.enqueue_deadline(p, Instant::now() + Duration::from_millis(20)) {
            Enqueue::TimedOut(obs) => assert_eq!(obs.len(), 1),
            _ => panic!("expected TimedOut"),
        }
        assert!(t0.elapsed() >= Duration::from_millis(20));
        // With a consumer, the blocked producer gets through.
        let ing2 = std::sync::Arc::clone(&ing);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            ing2.next_batch().expect("one batch queued")
        });
        let (p, _rx2) = parts(1, 1);
        match ing.enqueue_deadline(p, Instant::now() + Duration::from_secs(5)) {
            Enqueue::Ok => {}
            _ => panic!("expected Ok after space opened"),
        }
        consumer.join().expect("consumer");
    }

    #[test]
    fn wait_work_wakes_on_kick() {
        let ing = std::sync::Arc::new(Ingress::new(64, 4));
        let ing2 = std::sync::Arc::clone(&ing);
        let kicker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            ing2.kick();
        });
        let t0 = Instant::now();
        ing.wait_work(Duration::from_secs(10));
        assert!(t0.elapsed() < Duration::from_secs(5), "kick must wake");
        kicker.join().expect("kicker");
    }
}
