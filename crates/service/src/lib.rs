#![warn(missing_docs)]

//! # ULMT online prefetch service
//!
//! Turns the batch simulator's correlation tables into a long-lived,
//! sharded, multi-tenant **online** system. The paper runs its
//! prefetcher as a user-level thread on the memory controller; this
//! crate runs the same [`Base`]/[`Chain`]/[`Replicated`] tables behind
//! a service API:
//!
//! * [`PrefetchService::start`] spawns `N` shard worker threads, each
//!   owning the per-tenant tables of the applications hashed to it;
//! * clients [`open`](PrefetchService::open) a [`Session`] per tenant
//!   and feed batches of L2-miss observations (`Vec<`[`LineAddr`]`>`),
//!   getting back prefetch predictions and per-tenant stats;
//!   [`NetClient`] does the same over TCP;
//! * each shard has **one inbox**: a bounded queue per tenant, drained
//!   by a weighted deficit-round-robin scheduler (weights via
//!   [`TenantSpec::weight`]) so one hot tenant cannot starve its
//!   neighbors, and a FIFO of control requests (snapshot, stats, drain,
//!   shutdown) that the worker takes first, each after the batches
//!   submitted before it; a full queue surfaces as
//!   [`TrySubmit::Full`] *to that tenant only*, with the batch handed
//!   back — observations are never silently dropped, and rejections are
//!   counted exactly. An optional per-tenant [`AdmissionQuota`] sheds
//!   (acknowledges without learning, exactly counted) before enqueue;
//! * tables can be [`snapshot`](Session::snapshot)ted and
//!   [`restore`](Session::restore)d for warm starts, and fingerprinted
//!   to prove **determinism**: a tenant's table after a given stream is
//!   bit-identical for 1, 2 or 4 shards;
//! * shutdown is graceful ([`PrefetchService::shutdown`] drains every
//!   queue, and anything racing in behind the drain is rejected with a
//!   typed [`ServiceError::ShuttingDown`] — never silently dropped) and
//!   cooperative cancellation uses the simulator's existing
//!   [`CancelToken`](ulmt_simcore::CancelToken);
//! * the service is **self-healing**: a supervisor thread detects dead
//!   (panicked) and wedged (alive but not consuming) shards, rebuilds
//!   them from periodic checkpoints plus a bounded observation
//!   journal replay — bit-identical when the journal window covers
//!   the gap, explicitly [`Lossy`](RecoveryOutcome::Lossy) with an exact
//!   dropped-batch count when it does not — and every restart is
//!   recorded as a [`RecoveryReport`]. While a shard is down, sessions
//!   shed (acknowledge-without-learning, exactly counted in
//!   [`TenantStats::shed`]) or wait, per
//!   [`SupervisionConfig::shed_when_down`]. Deterministic chaos faults
//!   ([`ServiceFaultConfig`](ulmt_simcore::ServiceFaultConfig)) exercise
//!   all of it under test.
//!
//! [`Base`]: ulmt_core::table::Base
//! [`Chain`]: ulmt_core::table::Chain
//! [`Replicated`]: ulmt_core::table::Replicated
//! [`LineAddr`]: ulmt_simcore::LineAddr

mod config;
mod ingress;
mod journal;
pub mod metrics;
pub mod net;
mod service;
mod shard;
mod supervisor;

pub use config::{
    AdmissionQuota, NetConfig, ServiceConfig, SupervisionConfig, TableKind, TenantSpec,
};
pub use metrics::{MetricsReport, ShardMetrics};
pub use net::{NetClient, NetServer, NetSubmit, WireError};
pub use service::{
    BatchReply, PauseGuard, PendingBatch, PrefetchService, ServiceError, Session, ShardStats,
    TenantStats, TrySubmit,
};
pub use shard::ShardReport;
pub use supervisor::{RecoveryCause, RecoveryOutcome, RecoveryReport, ShardState};

#[cfg(test)]
mod tests {
    use super::*;
    use ulmt_core::table::{Replicated, TableParams};
    use ulmt_core::UlmtAlgorithm;
    use ulmt_simcore::{LineAddr, TraceConfig};

    fn lines(ns: &[u64]) -> Vec<LineAddr> {
        ns.iter().map(|&n| LineAddr::new(n)).collect()
    }

    /// A deterministic per-tenant miss stream.
    fn stream(tenant: u32, len: usize) -> Vec<LineAddr> {
        let mut x = 0x9e37_79b9_u64 ^ (tenant as u64) << 32;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                LineAddr::new((x >> 40) & 0xFFF)
            })
            .collect()
    }

    fn cfg(shards: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn predictions_match_offline_table() {
        let service = PrefetchService::start(cfg(1));
        let mut session = service.open(1, TenantSpec::repl(1024)).unwrap();
        let obs = lines(&[1, 2, 3, 1, 2, 3, 1]);

        let mut offline = Replicated::new(TableParams::repl_default(1024));
        let mut expected = Vec::new();
        for &miss in &obs {
            expected.extend(offline.process_miss(miss).prefetches);
        }

        let reply = session.submit(obs).unwrap().wait().unwrap();
        assert_eq!(reply.observed, 7);
        assert_eq!(reply.prefetches, expected);
        assert_eq!(
            session.fingerprint().unwrap(),
            offline.table_fingerprint(),
            "online table must equal the offline replay"
        );
        service.shutdown();
    }

    #[test]
    fn fingerprints_are_shard_count_invariant() {
        let tenants: Vec<u32> = (0..6).collect();
        let mut per_count: Vec<Vec<u64>> = Vec::new();
        for shards in [1usize, 2, 4] {
            let service = PrefetchService::start(cfg(shards));
            let mut sessions: Vec<Session> = tenants
                .iter()
                .map(|&t| service.open(t, TenantSpec::repl(512)).unwrap())
                .collect();
            // Interleave tenants batch by batch to exercise shard sharing.
            for round in 0..4 {
                for (i, session) in sessions.iter_mut().enumerate() {
                    let obs = stream(tenants[i], 64)[round * 16..(round + 1) * 16].to_vec();
                    session.submit(obs).unwrap();
                }
            }
            service.drain().unwrap();
            per_count.push(
                sessions
                    .iter_mut()
                    .map(|s| s.fingerprint().unwrap())
                    .collect(),
            );
            service.shutdown();
        }
        assert_eq!(per_count[0], per_count[1], "1 vs 2 shards");
        assert_eq!(per_count[0], per_count[2], "1 vs 4 shards");
    }

    #[test]
    fn snapshot_restore_warm_start_round_trip() {
        let service = PrefetchService::start(cfg(2));
        let mut session = service.open(3, TenantSpec::chain(256)).unwrap();
        session.submit(stream(3, 200)).unwrap().wait().unwrap();
        let snap = session.snapshot().unwrap();
        let fp = session.fingerprint().unwrap();
        assert_eq!(snap.fingerprint(), fp);

        // Warm-start a second tenant from the snapshot: bit-identical.
        let mut warm = service.open(4, TenantSpec::chain(256)).unwrap();
        warm.restore(snap.clone()).unwrap();
        assert_eq!(warm.fingerprint().unwrap(), fp);
        // Byte codec round trip preserves the fingerprint too.
        let decoded = ulmt_core::table::TableSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded.fingerprint(), fp);
        service.shutdown();
    }

    #[test]
    fn restore_rejects_wrong_algorithm() {
        let service = PrefetchService::start(cfg(1));
        let mut chain = service.open(1, TenantSpec::chain(256)).unwrap();
        chain.submit(stream(1, 50)).unwrap().wait().unwrap();
        let snap = chain.snapshot().unwrap();
        let mut repl = service.open(2, TenantSpec::repl(256)).unwrap();
        match repl.restore(snap) {
            Err(ServiceError::Snapshot(_)) => {}
            other => panic!("expected a snapshot kind mismatch, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn restore_rejects_other_geometry_and_keeps_serving() {
        use ulmt_core::table::SnapshotError;

        let service = PrefetchService::start(cfg(1));
        let mut big = service.open(1, TenantSpec::repl(512)).unwrap();
        big.submit(stream(1, 300)).unwrap().wait().unwrap();
        let snap = big.snapshot().unwrap();
        let mut small = service.open(2, TenantSpec::repl(256)).unwrap();
        small.submit(stream(2, 100)).unwrap().wait().unwrap();
        let before = small.fingerprint().unwrap();
        match small.restore(snap) {
            Err(ServiceError::Snapshot(SnapshotError::ParamsMismatch { expected, found })) => {
                assert_eq!(expected.num_rows, 256);
                assert_eq!(found.num_rows, 512);
            }
            other => panic!("expected a snapshot geometry mismatch, got {other:?}"),
        }
        assert_eq!(small.fingerprint().unwrap(), before);
        // The shard still serves the tenant.
        let reply = small.submit(stream(2, 100)).unwrap().wait().unwrap();
        assert_eq!(reply.observed, 100);
        service.shutdown();
    }

    #[test]
    fn open_rejects_levels_or_successors_beyond_a_byte() {
        let service = PrefetchService::start(cfg(1));
        for (tenant, params) in [
            (
                1,
                TableParams {
                    num_succ: 256,
                    ..TableParams::repl_default(64)
                },
            ),
            (
                2,
                TableParams {
                    num_levels: 256,
                    ..TableParams::repl_default(64)
                },
            ),
        ] {
            match service.open(
                tenant,
                TenantSpec {
                    params,
                    ..TenantSpec::repl(64)
                },
            ) {
                Err(ServiceError::InvalidSpec(e)) => assert!(e.reason().contains("255")),
                other => panic!("expected InvalidSpec, got {other:?}"),
            }
        }
        // The shard is still up.
        let mut session = service.open(3, TenantSpec::repl(64)).unwrap();
        session.submit(stream(3, 10)).unwrap().wait().unwrap();
        service.shutdown();
    }

    #[test]
    fn backpressure_full_queue_hands_batch_back_and_counts_exactly() {
        let service = PrefetchService::start(ServiceConfig {
            shards: 1,
            queue_depth: 4,
            ..ServiceConfig::default()
        });
        let mut session = service.open(9, TenantSpec::base(256)).unwrap();
        // Freeze the shard so the queue fills deterministically.
        let pause = service.pause_shard(0).unwrap();

        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut pending = Vec::new();
        let mut handed_back = None;
        for _ in 0..16 {
            match session.try_submit(lines(&[1, 2, 3, 4])) {
                TrySubmit::Enqueued(p) => {
                    accepted += 1;
                    pending.push(p);
                }
                TrySubmit::Full(obs) => {
                    rejected += 1;
                    assert_eq!(obs.len(), 4, "rejected batch is handed back intact");
                    handed_back = Some(obs);
                }
                other => panic!("service unavailable unexpectedly: {other:?}"),
            }
        }
        assert!(
            rejected > 0,
            "a depth-4 queue must reject some of 16 batches"
        );
        drop(pause);

        // Resubmit the last handed-back batch (blocking) so the final
        // rejection count is flushed to the shard.
        session.submit(handed_back.unwrap()).unwrap();
        service.drain().unwrap();

        let stats = session.stats().unwrap();
        assert_eq!(
            stats.rejected, rejected,
            "rejections are conservation-exact"
        );
        assert_eq!(stats.batches, accepted + 1);
        assert_eq!(
            stats.observed,
            (accepted + 1) * 4,
            "nothing silently dropped"
        );
        for p in pending {
            assert!(p.wait().unwrap().error.is_none());
        }
        service.shutdown();
    }

    #[test]
    fn recycled_buffers_flow_back_through_every_ack_path() {
        let service = PrefetchService::start(cfg(1));
        let mut session = service.open(1, TenantSpec::repl(256)).unwrap();

        // Accepted: the submitted Vec comes back cleared, capacity intact,
        // and can be refilled for the next batch — steady state allocates
        // no observation buffers.
        let mut buf = Vec::with_capacity(64);
        let full_stream = stream(1, 192);
        let mut offline = Replicated::new(TableParams::repl_default(256));
        for chunk in full_stream.chunks(64) {
            buf.extend_from_slice(chunk);
            let cap_before = buf.capacity();
            let reply = session.submit(buf).unwrap().wait().unwrap();
            assert_eq!(reply.observed, 64);
            buf = reply.recycled;
            assert!(buf.is_empty(), "recycled buffer comes back cleared");
            assert_eq!(buf.capacity(), cap_before, "capacity survives the trip");
        }
        for &m in &full_stream {
            offline.process_miss(m);
        }
        assert_eq!(session.fingerprint().unwrap(), offline.table_fingerprint());

        // Rejected (unknown tenant): still hands the buffer back.
        let mut ghost = Session::test_clone_for_tenant(&session, 999);
        buf.extend_from_slice(&full_stream[..8]);
        let cap = buf.capacity();
        let reply = ghost.submit(buf).unwrap().wait().unwrap();
        assert!(matches!(
            reply.error,
            Some(ServiceError::UnknownTenant(999))
        ));
        assert_eq!(reply.recycled.capacity(), cap);

        // Cancelled: same.
        service.cancel_token().cancel();
        let mut buf = reply.recycled;
        buf.extend_from_slice(&full_stream[..8]);
        let cap = buf.capacity();
        let reply = session.submit(buf).unwrap().wait().unwrap();
        assert!(reply.cancelled);
        assert_eq!(reply.recycled.capacity(), cap);
        service.shutdown();
    }

    #[test]
    fn cancel_acknowledges_without_learning() {
        let service = PrefetchService::start(cfg(1));
        let mut session = service.open(5, TenantSpec::repl(256)).unwrap();
        session.submit(stream(5, 32)).unwrap().wait().unwrap();
        let fp = session.fingerprint().unwrap();
        service.cancel_token().cancel();
        let reply = session.submit(stream(5, 32)).unwrap().wait().unwrap();
        assert!(reply.cancelled);
        assert_eq!(reply.observed, 0);
        assert_eq!(
            session.fingerprint().unwrap(),
            fp,
            "no learning after cancel"
        );
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_and_reports() {
        let service = PrefetchService::start(ServiceConfig {
            shards: 2,
            trace: Some(TraceConfig::with_capacity(1024)),
            ..ServiceConfig::default()
        });
        let mut a = service.open(0, TenantSpec::repl(256)).unwrap();
        let mut b = service.open(1, TenantSpec::base(256)).unwrap();
        a.submit(stream(0, 64)).unwrap();
        b.submit(stream(1, 64)).unwrap();
        let reports = service.shutdown();
        assert_eq!(reports.len(), 2);
        let total: u64 = reports.iter().map(|r| r.stats.observed).sum();
        assert_eq!(total, 128, "shutdown processes everything still queued");
        let traced: usize = reports
            .iter()
            .map(|r| r.trace.as_ref().map_or(0, |t| t.len()))
            .sum();
        assert!(
            traced >= 2,
            "each accepted batch leaves a shard_batch event"
        );
        // Utilization is measured and sane.
        for r in &reports {
            if r.stats.observed > 0 {
                assert!(r.stats.busy_cycles > 0);
                assert!(r.stats.utilization() > 0.0);
            }
        }
        // The session now sees the closed service.
        match a.try_submit(lines(&[1])) {
            TrySubmit::Closed(obs) => assert_eq!(obs.len(), 1),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn open_twice_fails_and_unknown_errors_are_typed() {
        let service = PrefetchService::start(cfg(1));
        let _s = service.open(1, TenantSpec::base(64)).unwrap();
        match service.open(1, TenantSpec::base(64)) {
            Err(ServiceError::TenantExists(1)) => {}
            other => panic!("expected TenantExists, got {other:?}"),
        }
        match service.open(
            2,
            TenantSpec {
                kind: TableKind::Base,
                params: TableParams::repl_default(64),
                ..TenantSpec::base(64)
            },
        ) {
            Err(ServiceError::InvalidSpec(e)) => assert!(e.reason().contains("one level")),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn shutdown_race_rejects_late_batches_with_typed_error() {
        // Deterministic ordering: pause the shard, queue real work, queue
        // the shutdown marker, queue a late batch *behind* it, resume.
        // The late batch must get a typed ShuttingDown rejection — not a
        // silently dropped reply channel.
        let service = PrefetchService::start(ServiceConfig {
            shards: 1,
            queue_depth: 16,
            ..ServiceConfig::default()
        });
        let mut session = service.open(1, TenantSpec::repl(256)).unwrap();
        let pause = service.pause_shard(0).unwrap();
        let early = match session.try_submit(stream(1, 32)) {
            TrySubmit::Enqueued(p) => p,
            other => panic!("queue should have space: {other:?}"),
        };
        service.begin_shutdown();
        let late = match session.try_submit(stream(1, 32)) {
            TrySubmit::Enqueued(p) => p,
            other => panic!("queue should still have space: {other:?}"),
        };
        drop(pause);

        let early_reply = early.wait().unwrap();
        assert!(early_reply.error.is_none());
        assert_eq!(early_reply.observed, 32, "work before the marker lands");
        let late_reply = late.wait().unwrap();
        assert!(
            matches!(late_reply.error, Some(ServiceError::ShuttingDown)),
            "late batch gets the typed drain rejection: {late_reply:?}"
        );
        assert_eq!(late_reply.observed, 0, "nothing was learned from it");
        assert!(
            late_reply.recycled.capacity() >= 32,
            "rejected batch buffer still comes back"
        );

        let reports = service.shutdown();
        assert_eq!(reports[0].stats.batches, 1, "only the early batch counted");
    }

    #[test]
    fn submit_timeout_hands_batch_back_when_queue_stays_full() {
        let service = PrefetchService::start(ServiceConfig {
            shards: 1,
            queue_depth: 1,
            ..ServiceConfig::default()
        });
        let mut session = service.open(2, TenantSpec::base(64)).unwrap();
        let pause = service.pause_shard(0).unwrap();
        // Fill the depth-1 queue, then a bounded submit must time out and
        // hand the observations back intact.
        let pending = loop {
            match session.try_submit(stream(2, 8)) {
                TrySubmit::Enqueued(p) => break p,
                TrySubmit::Full(_) => continue,
                other => panic!("unexpected: {other:?}"),
            }
        };
        match session.submit_timeout(stream(2, 8), std::time::Duration::from_millis(20)) {
            TrySubmit::TimedOut(obs) => assert_eq!(obs.len(), 8),
            other => panic!("expected TimedOut, got {other:?}"),
        }
        drop(pause);
        assert!(pending.wait().unwrap().error.is_none());
        // With the queue flowing again the bounded submit succeeds.
        match session.submit_timeout(stream(2, 8), std::time::Duration::from_secs(5)) {
            TrySubmit::Enqueued(p) => assert!(p.wait().unwrap().error.is_none()),
            other => panic!("expected Enqueued, got {other:?}"),
        }
        service.shutdown();
    }
}
