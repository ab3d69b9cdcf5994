//! Fairness and admission-control integration tests.
//!
//! The ingestion layer promises three things at once:
//!
//! * **isolation** — one tenant's backlog cannot consume another
//!   tenant's queue space or starve its service slot;
//! * **weighted fairness** — the deficit-round-robin scheduler serves
//!   tenants proportionally to their configured weights;
//! * **determinism** — weights change only *when* a tenant's batches
//!   are served, never their per-tenant order, so table fingerprints
//!   are bit-identical across weights.
//!
//! Tests that need a known backlog build it behind a [`PauseGuard`] and
//! then resume, so the drain order is fully deterministic. The order
//! itself is checked inside the crate, against the shard's observation
//! journal (`service::tests`).

use std::time::Duration;

use ulmt_service::{
    AdmissionQuota, PrefetchService, ServiceConfig, Session, SupervisionConfig, TenantSpec,
    TrySubmit,
};
use ulmt_simcore::LineAddr;

const BATCH: usize = 16;

fn batches(tenant: u32, count: usize) -> Vec<Vec<LineAddr>> {
    let mut x = 0xFA1C_0DE5_u64 ^ ((tenant as u64) << 32);
    (0..count)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    LineAddr::new((x >> 40) & 0x3FF)
                })
                .collect()
        })
        .collect()
}

fn cfg(queue_depth: usize) -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        queue_depth,
        // One batch costs exactly one quantum, so a weight-1 tenant is
        // served one batch per scheduler visit and a weight-w tenant w.
        quantum_obs: BATCH,
        supervision: SupervisionConfig {
            control_timeout_ms: 10_000,
            ..SupervisionConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn enqueue(session: &mut Session, obs: &[LineAddr]) -> ulmt_service::PendingBatch {
    match session.try_submit(obs.to_vec()) {
        TrySubmit::Enqueued(p) => p,
        other => panic!("expected Enqueued, got {other:?}"),
    }
}

#[test]
fn queue_full_is_per_tenant_not_shared() {
    let service = PrefetchService::start(cfg(8));
    let mut small = service
        .open(1, TenantSpec::repl(256).with_queue_depth(2))
        .unwrap();
    let mut big = service.open(2, TenantSpec::repl(256)).unwrap();
    let ss = batches(1, 3);
    let bs = batches(2, 8);

    let pause = service.pause_shard(0).unwrap();
    let mut pending = Vec::new();
    pending.push(enqueue(&mut small, &ss[0]));
    pending.push(enqueue(&mut small, &ss[1]));
    // The small tenant's private queue is full...
    match small.try_submit(ss[2].clone()) {
        TrySubmit::Full(o) => assert_eq!(o.capacity(), BATCH, "buffer handed back intact"),
        other => panic!("expected Full, got {other:?}"),
    }
    // ...while the other tenant still has its entire depth available.
    for obs in &bs {
        pending.push(enqueue(&mut big, obs));
    }
    drop(pause);
    for p in pending {
        assert!(p.wait().unwrap().error.is_none());
    }
    // One more accepted batch flushes the small tenant's rejection tally
    // (counts piggyback cumulatively on the next accepted batch).
    let p = small.submit(ss[2].clone()).unwrap();
    assert!(p.wait().unwrap().error.is_none());
    service.drain().unwrap();

    assert_eq!(small.stats().unwrap().rejected, 1);
    assert_eq!(big.stats().unwrap().rejected, 0);
    service.shutdown();
}

#[test]
fn admission_quota_sheds_over_burst_and_counts_exactly() {
    let service = PrefetchService::start(cfg(16));
    // Two burst tokens, trickle refill (5/s = one token per 200 ms): the
    // immediate submissions below outrun the refill deterministically.
    let mut s = service
        .open(
            1,
            TenantSpec::repl(256).with_quota(AdmissionQuota::new(2, 5)),
        )
        .unwrap();
    let stream = batches(1, 4);

    let first = enqueue(&mut s, &stream[0]);
    let second = enqueue(&mut s, &stream[1]);
    let mut sheds = 0u64;
    for obs in &stream[2..] {
        match s.try_submit(obs.clone()) {
            TrySubmit::Enqueued(p) => {
                let reply = p.wait().unwrap();
                assert!(reply.shed, "over-burst submissions are shed, not queued");
                assert_eq!(reply.recycled.capacity(), BATCH, "buffer recycled on shed");
                sheds += 1;
            }
            other => panic!("expected shed ack, got {other:?}"),
        }
    }
    assert_eq!(sheds, 2);
    assert!(first.wait().unwrap().error.is_none());
    assert!(second.wait().unwrap().error.is_none());

    // Let the bucket refill, then flush the shed tally with an accepted
    // batch: quota sheds ride the same cumulative piggyback as
    // degraded-mode sheds.
    std::thread::sleep(Duration::from_millis(900));
    let p = s.submit(stream[0].clone()).unwrap();
    assert!(p.wait().unwrap().error.is_none());
    service.drain().unwrap();

    let stats = s.stats().unwrap();
    assert_eq!(stats.shed, 2, "both quota sheds counted, exactly once");
    assert_eq!(stats.batches, 3);
    assert_eq!(service.shard_stats(0).unwrap().shed, 2);
    service.shutdown();
}

#[test]
fn fingerprints_are_identical_across_weights() {
    // Scheduling decides *when* each tenant's batches run, never their
    // per-tenant order — so the learned tables must be bit-identical
    // whatever the weights. Backlogs are built behind a pause so the
    // two weightings genuinely interleave tenants differently.
    fn run(hot_weight: u32) -> Vec<(u32, u64)> {
        let service = PrefetchService::start(cfg(32));
        let mut hot = service
            .open(1, TenantSpec::repl(256).with_weight(hot_weight))
            .unwrap();
        let mut cold = service.open(2, TenantSpec::repl(256)).unwrap();
        let hs = batches(1, 12);
        let cs = batches(2, 12);
        for round in 0..3 {
            let pause = service.pause_shard(0).unwrap();
            let mut pending = Vec::new();
            for i in 0..4 {
                pending.push(enqueue(&mut hot, &hs[round * 4 + i]));
                pending.push(enqueue(&mut cold, &cs[round * 4 + i]));
            }
            drop(pause);
            for p in pending {
                assert!(p.wait().unwrap().error.is_none());
            }
        }
        service.drain().unwrap();
        let fps = vec![
            (1, hot.fingerprint().unwrap()),
            (2, cold.fingerprint().unwrap()),
        ];
        service.shutdown();
        fps
    }

    assert_eq!(run(4), run(1), "weights must not change table contents");
}
