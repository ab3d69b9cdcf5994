//! Chaos harness for the self-healing prefetch service.
//!
//! Every test runs a *control* service (no faults) and a *chaos* service
//! (deterministic, seeded fault injection) over the same observation
//! stream, with a client that resubmits any batch whose ack never
//! arrived — at-least-once delivery on top of the shard's exactly-once
//! journal. The headline assertions:
//!
//! * a shard killed mid-stream recovers **bit-identically** (same table
//!   fingerprints, same counters, same virtual clock and utilization)
//!   whenever the journal window covers the checkpoint gap;
//! * when the window is too small, recovery is explicitly **lossy** with
//!   an exact `dropped_batches` count and the accounting identity
//!   `control.batches == recovered.batches + dropped` holds exactly.

use std::time::{Duration, Instant};

use ulmt_service::{
    PrefetchService, RecoveryCause, RecoveryOutcome, ServiceConfig, ServiceError, Session,
    ShardState, SupervisionConfig, TenantSpec, TrySubmit,
};
use ulmt_simcore::{LineAddr, ServiceFaultConfig};

const BATCH: usize = 16;

/// A deterministic per-tenant miss stream, chopped into batches.
fn batches(tenant: u32, count: usize) -> Vec<Vec<LineAddr>> {
    let mut x = 0xDEAD_BEEF_u64 ^ ((tenant as u64) << 32);
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

/// Supervision tuned for fast, deterministic tests: quick ticks, quick
/// wedge detection, tiny backoff, and *no* shedding — the client rides
/// out recoveries by resubmitting, so nothing is ever dropped.
fn fast_supervision(checkpoint_every: u64, journal_window: usize) -> SupervisionConfig {
    SupervisionConfig {
        max_restarts: 8,
        tick_ms: 2,
        wedge_ticks: 5,
        checkpoint_every,
        journal_window,
        backoff_base_ms: 1,
        backoff_max_ms: 8,
        shed_when_down: false,
        control_timeout_ms: 10_000,
    }
}

fn cfg(supervision: SupervisionConfig, fault: Option<ServiceFaultConfig>) -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        queue_depth: 64,
        supervision,
        fault,
        ..ServiceConfig::default()
    }
}

/// Submits one batch and waits for its ack, resubmitting through crashes
/// and recoveries. Safe because the shard journals before acking: a
/// batch whose ack we never saw was never journaled, so replaying it
/// cannot double-count.
fn submit_until_acked(session: &mut Session, obs: &[LineAddr]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(
            Instant::now() < deadline,
            "batch not acked within 30s — recovery wedged?"
        );
        let pending = match session.submit(obs.to_vec()) {
            Ok(p) => p,
            Err(ServiceError::Timeout | ServiceError::Closed | ServiceError::ShardDown(_)) => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            Err(e) => panic!("unrecoverable submit error: {e}"),
        };
        match pending.wait() {
            Ok(reply) if reply.error.is_none() && !reply.shed => return,
            // Rejected or shed: nothing was learned; try again.
            Ok(_) => continue,
            // The worker died with the batch unacked; resubmit.
            Err(_) => continue,
        }
    }
}

/// Unwraps the result of a service call. On failure the panic names the
/// call and prints the service's recovery history, which tells a fault
/// the test injected apart from a recovery it did not ask for.
#[track_caller]
fn ok<T>(service: &PrefetchService, what: &str, r: Result<T, ServiceError>) -> T {
    r.unwrap_or_else(|e| {
        panic!(
            "{what}: {e:?}; recoveries: {:?}",
            service.recovery_reports()
        )
    })
}

/// Blocks until the service has recorded `n` recoveries and the shard is
/// back up (or failed for good, when `n` exceeds the restart budget).
fn wait_for_recoveries(service: &PrefetchService, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.recovery_reports().len() < n || service.shard_state(0) != ShardState::Up {
        assert!(
            Instant::now() < deadline,
            "recovery did not complete in 30s; recoveries: {:?}",
            service.recovery_reports()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Feeds two tenants' batch lists through a service in a deterministic
/// interleave (A1 B1 A2 B2 ...), ack-by-ack, and returns the per-tenant
/// fingerprints plus the shard's aggregate stats.
fn run_interleaved(
    service: &PrefetchService,
    streams: &[(u32, Vec<Vec<LineAddr>>)],
) -> (Vec<(u32, u64)>, ulmt_service::ShardStats) {
    let mut sessions: Vec<Session> = streams
        .iter()
        .map(|&(t, _)| service.open(t, TenantSpec::repl(512)).expect("open"))
        .collect();
    let rounds = streams.iter().map(|(_, b)| b.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for (i, (_, stream)) in streams.iter().enumerate() {
            if let Some(obs) = stream.get(round) {
                submit_until_acked(&mut sessions[i], obs);
            }
        }
    }
    let fps = sessions
        .iter_mut()
        .map(|s| (s.tenant(), ok(service, "fingerprint", s.fingerprint())))
        .collect();
    let stats = ok(service, "shard stats", service.shard_stats(0));
    (fps, stats)
}

#[test]
fn kill_recovery_is_bit_identical_within_journal_window() {
    let streams = vec![(1u32, batches(1, 20)), (2u32, batches(2, 20))];
    // Checkpoint every 8 acked batches, journal the last 16: the window
    // always covers the gap, so recovery must be clean.
    let control_svc = PrefetchService::start(cfg(fast_supervision(8, 16), None));
    let (control_fps, control_stats) = run_interleaved(&control_svc, &streams);
    control_svc.shutdown();
    assert_eq!(control_stats.batches, 40);

    // Kill shard 0 the moment it would accept batch seq 21 (mid-stream,
    // past two checkpoints). The fault budget fires exactly once, so the
    // client's resubmission of the killed batch goes through.
    let fault = ServiceFaultConfig::disabled(0xC0FFEE).kill(0, 21);
    let chaos_svc = PrefetchService::start(cfg(fast_supervision(8, 16), Some(fault)));
    let (chaos_fps, chaos_stats) = run_interleaved(&chaos_svc, &streams);
    wait_for_recoveries(&chaos_svc, 1);
    let reports = chaos_svc.recovery_reports();
    let final_reports = chaos_svc.shutdown();

    assert_eq!(reports.len(), 1, "the kill budget fires once: {reports:?}");
    let r = &reports[0];
    assert_eq!(r.cause, RecoveryCause::Panic);
    assert!(r.is_clean(), "window covers the gap: {:?}", r.outcome);
    assert_eq!(r.dropped_batches(), 0);
    assert_eq!(
        r.checkpoint_seq, 16,
        "recovery starts from the seq-16 checkpoint"
    );
    assert_eq!(
        r.outcome,
        RecoveryOutcome::Clean {
            replayed_batches: 4
        },
        "batches 17..=20 replay from the journal"
    );
    assert_eq!(
        r.resumed_seq, 20,
        "resumes right after the last acked batch"
    );
    assert_eq!(r.epoch, 1);
    assert_eq!(r.tenants_restored, 2);
    assert!(r.checkpoint_bytes > 0);
    assert!(r.latency_nanos > 0);

    // The headline: every per-tenant fingerprint AND the shard's entire
    // counter block (batches, observations, prefetches, virtual clock,
    // busy cycles) are bit-identical to the uninterrupted control.
    assert_eq!(
        chaos_fps, control_fps,
        "tables bit-identical after recovery"
    );
    assert_eq!(
        chaos_stats, control_stats,
        "counters and clock bit-identical"
    );

    // The shutdown reports carry the recovery history.
    assert_eq!(final_reports[0].recoveries.len(), 1);
    assert_eq!(
        final_reports[0].epoch, 1,
        "final report comes from the restarted epoch"
    );
}

#[test]
fn wedge_recovery_fences_and_restores_bit_identically() {
    let streams = vec![(1u32, batches(1, 30))];
    let control_svc = PrefetchService::start(cfg(fast_supervision(8, 16), None));
    let (control_fps, control_stats) = run_interleaved(&control_svc, &streams);
    control_svc.shutdown();

    // Wedge (stop consuming without dying) at batch seq 12. The
    // supervisor's watermark scan must fence and rebuild the shard.
    let fault = ServiceFaultConfig::disabled(0xBAD_F00D).wedge(0, 12);
    let chaos_svc = PrefetchService::start(cfg(fast_supervision(8, 16), Some(fault)));
    let (chaos_fps, chaos_stats) = run_interleaved(&chaos_svc, &streams);
    wait_for_recoveries(&chaos_svc, 1);
    let reports = chaos_svc.recovery_reports();
    chaos_svc.shutdown();

    assert_eq!(reports.len(), 1, "the wedge budget fires once: {reports:?}");
    assert_eq!(reports[0].cause, RecoveryCause::Wedge);
    assert!(reports[0].is_clean());
    assert_eq!(chaos_fps, control_fps);
    assert_eq!(chaos_stats, control_stats);
}

/// Feeds `before` batches, warm-starts the tenant from `warm`, feeds
/// `after`, and returns the tenant's snapshot plus the shard's stats.
fn run_with_warm_start(
    service: &PrefetchService,
    before: &[Vec<LineAddr>],
    warm: &ulmt_core::table::TableSnapshot,
    after: &[Vec<LineAddr>],
) -> (ulmt_core::table::TableSnapshot, ulmt_service::ShardStats) {
    let mut session = service.open(1, TenantSpec::repl(512)).expect("open");
    for obs in before {
        submit_until_acked(&mut session, obs);
    }
    ok(service, "warm start", session.restore(warm.clone()));
    for obs in after {
        submit_until_acked(&mut session, obs);
    }
    let snap = ok(service, "snapshot", session.snapshot());
    (snap, ok(service, "shard stats", service.shard_stats(0)))
}

#[test]
fn kill_after_warm_start_recovers_bit_identically() {
    // The warm start replaces the whole table after a checkpoint already
    // holds a copy of it: recovery must restore the warm-started table
    // plus what it learned since, with nothing of the replaced one left.
    let donor_svc = PrefetchService::start(cfg(fast_supervision(8, 16), None));
    let mut donor = donor_svc.open(9, TenantSpec::repl(512)).expect("open");
    for obs in batches(9, 12) {
        submit_until_acked(&mut donor, &obs);
    }
    let warm = donor.snapshot().expect("donor snapshot");
    donor_svc.shutdown();

    let stream = batches(1, 24);
    let (before, after) = stream.split_at(10);
    let control_svc = PrefetchService::start(cfg(fast_supervision(8, 16), None));
    let (control_snap, control_stats) = run_with_warm_start(&control_svc, before, &warm, after);
    control_svc.shutdown();

    // Checkpoints land at seq 8, at the warm start (seq 10) and at seq
    // 18; killing at seq 21 recovers from the seq-18 one plus two
    // journaled batches.
    let fault = ServiceFaultConfig::disabled(0x5EED).kill(0, 21);
    let chaos_svc = PrefetchService::start(cfg(fast_supervision(8, 16), Some(fault)));
    let (chaos_snap, chaos_stats) = run_with_warm_start(&chaos_svc, before, &warm, after);
    wait_for_recoveries(&chaos_svc, 1);
    let reports = chaos_svc.recovery_reports();
    chaos_svc.shutdown();

    assert_eq!(reports.len(), 1, "{reports:?}");
    let r = &reports[0];
    assert_eq!(r.checkpoint_seq, 18);
    assert_eq!(
        r.outcome,
        RecoveryOutcome::Clean {
            replayed_batches: 2
        }
    );
    assert_eq!(chaos_snap.to_bytes(), control_snap.to_bytes());
    assert_eq!(chaos_stats, control_stats);
}

#[test]
fn lossy_recovery_reports_exact_dropped_batches() {
    let stream = vec![(7u32, batches(7, 30))];
    let control_svc = PrefetchService::start(cfg(fast_supervision(8, 16), None));
    let (_, control_stats) = run_interleaved(&control_svc, &stream);
    control_svc.shutdown();
    assert_eq!(control_stats.batches, 30);

    // Checkpoint interval larger than the run (no checkpoint ever lands)
    // and a journal of only 4 batches: killing at seq 21 leaves batches
    // 1..=16 acked but unrecoverable — exactly 16 dropped.
    let fault = ServiceFaultConfig::disabled(0x10551).kill(0, 21);
    let chaos_svc = PrefetchService::start(cfg(fast_supervision(1_000, 4), Some(fault)));
    let (_, chaos_stats) = run_interleaved(&chaos_svc, &stream);
    wait_for_recoveries(&chaos_svc, 1);
    let reports = chaos_svc.recovery_reports();
    chaos_svc.shutdown();

    assert_eq!(reports.len(), 1, "{reports:?}");
    let r = &reports[0];
    assert!(!r.is_clean());
    assert_eq!(
        r.outcome,
        RecoveryOutcome::Lossy {
            replayed_batches: 4,
            dropped_batches: 16,
        },
        "journal retained seqs 17..=20; 1..=16 are the exact loss"
    );
    assert_eq!(r.checkpoint_seq, 0, "no checkpoint ever landed");

    // Conservation identity: every control batch is either in the
    // recovered counters or in the reported drop — nothing vanishes
    // silently, nothing is double-counted.
    assert_eq!(
        chaos_stats.batches + r.dropped_batches(),
        control_stats.batches,
        "accepted + dropped == control"
    );
    assert_eq!(
        chaos_stats.observed + r.dropped_batches() * BATCH as u64,
        control_stats.observed,
        "observation conservation (fixed-size batches)"
    );
}

#[test]
fn down_shard_sheds_with_immediate_acks_and_exact_counts() {
    // Long backoff keeps the shard visibly Down after the kill, so the
    // shedding path is reachable deterministically.
    let sup = SupervisionConfig {
        backoff_base_ms: 300,
        backoff_max_ms: 300,
        shed_when_down: true,
        ..fast_supervision(8, 16)
    };
    let fault = ServiceFaultConfig::disabled(0x5EED).kill(0, 3);
    let service = PrefetchService::start(cfg(sup, Some(fault)));
    let mut session = service.open(1, TenantSpec::repl(256)).unwrap();
    let stream = batches(1, 6);
    submit_until_acked(&mut session, &stream[0]);
    submit_until_acked(&mut session, &stream[1]);

    // Trip the kill (fires at seq 3) and wait until the supervisor has
    // taken the shard down; the restart backoff holds it there.
    let tripwire = ok(
        &service,
        "tripwire submit",
        session.submit(stream[2].clone()),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.shard_state(0) != ShardState::Down {
        assert!(Instant::now() < deadline, "shard never went down");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        tripwire.wait().is_err(),
        "the killed batch was never acked (safe to resubmit)"
    );

    // Degraded mode: submissions against the down shard are shed —
    // immediate ack, no learning, exactly counted.
    let reply = match session.try_submit(stream[2].clone()) {
        TrySubmit::Enqueued(p) => ok(&service, "shed ack", p.wait()),
        other => panic!("expected an immediate shed ack, got {other:?}"),
    };
    assert!(reply.shed, "ack is flagged as shed");
    assert_eq!(reply.observed, 0, "nothing was learned");
    let pending = ok(&service, "shed submit", session.submit(stream[3].clone()));
    let reply2 = ok(&service, "shed ack", pending.wait());
    assert!(reply2.shed, "blocking submit sheds too under the policy");

    // After recovery, the next accepted batch flushes the shed count.
    wait_for_recoveries(&service, 1);
    submit_until_acked(&mut session, &stream[4]);
    let stats = ok(&service, "stats", session.stats());
    assert_eq!(stats.shed, 2, "both shed acks are counted exactly");
    assert_eq!(
        stats.batches, 3,
        "two pre-kill batches plus the post-recovery one"
    );
    service.shutdown();
}

#[test]
fn failed_shard_reports_typed_errors_on_every_control_path() {
    // Zero restart budget: the first kill parks the shard in Failed.
    let sup = SupervisionConfig {
        max_restarts: 0,
        shed_when_down: false,
        ..fast_supervision(8, 16)
    };
    let fault = ServiceFaultConfig::disabled(0xDEAD).kill(0, 2);
    let service = PrefetchService::start(cfg(sup, Some(fault)));
    let mut session = service.open(1, TenantSpec::repl(256)).unwrap();
    let stream = batches(1, 3);
    submit_until_acked(&mut session, &stream[0]);
    let tripwire = ok(
        &service,
        "tripwire submit",
        session.submit(stream[1].clone()),
    );
    assert!(tripwire.wait().is_err(), "killed batch is unacked");
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.shard_state(0) != ShardState::Failed {
        assert!(Instant::now() < deadline, "shard never reached Failed");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Every control-plane road to the dead shard ends in a *typed*
    // error — not a hang, not a dropped reply channel.
    assert!(matches!(
        session.fingerprint(),
        Err(ServiceError::ShardDown(0))
    ));
    assert!(matches!(
        session.snapshot(),
        Err(ServiceError::ShardDown(0))
    ));
    assert!(matches!(session.stats(), Err(ServiceError::ShardDown(0))));
    assert!(matches!(
        service.shard_stats(0),
        Err(ServiceError::ShardDown(0))
    ));
    assert!(matches!(
        service.pause_shard(0),
        Err(ServiceError::ShardDown(0))
    ));
    assert!(matches!(
        service.open(99, TenantSpec::base(64)),
        Err(ServiceError::ShardDown(0))
    ));
    match session.submit(stream[2].clone()) {
        Err(ServiceError::ShardDown(0)) => {}
        other => panic!("expected ShardDown from submit, got {other:?}"),
    }
    match session.try_submit(stream[2].clone()) {
        TrySubmit::Closed(obs) => assert_eq!(obs.len(), BATCH, "batch handed back"),
        other => panic!("expected Closed from try_submit, got {other:?}"),
    }
    // Shutdown still works and reports the failed shard from its last
    // checkpoint.
    let reports = service.shutdown();
    assert_eq!(reports.len(), 1);
}

#[test]
fn snapshot_under_concurrent_ingestion_is_prefix_consistent() {
    // Tenant A's queue is pipelined (no per-batch waits) while tenant B
    // floods the same shard from another thread; a snapshot of A taken
    // mid-stream must be *exactly* the table after the batches queued
    // ahead of it — an atomic batch-boundary prefix, never a torn state.
    let service = PrefetchService::start(cfg(fast_supervision(8, 16), None));
    let mut a = service.open(1, TenantSpec::repl(512)).unwrap();
    let mut b = service.open(2, TenantSpec::repl(512)).unwrap();
    let a_batches = batches(1, 40);
    let b_batches = batches(2, 40);
    let split = 17;

    let (snap, pending) = std::thread::scope(|scope| {
        scope.spawn(move || {
            for obs in &b_batches {
                submit_until_acked(&mut b, obs);
            }
        });
        let mut pending = Vec::new();
        for obs in &a_batches[..split] {
            pending.push(ok(&service, "submit", a.submit(obs.to_vec())));
        }
        // FIFO pins the snapshot to exactly the `split` boundary even
        // though the worker is racing us through A's queue and B's
        // stream is interleaving on the same shard.
        let snap = ok(&service, "snapshot", a.snapshot());
        for obs in &a_batches[split..] {
            pending.push(ok(&service, "submit", a.submit(obs.to_vec())));
        }
        (snap, pending)
    });
    for p in pending {
        assert!(ok(&service, "ack", p.wait()).error.is_none());
    }
    ok(&service, "drain", service.drain());
    let final_fp = ok(&service, "fingerprint", a.fingerprint());

    // Restoring the snapshot and replaying the suffix must land exactly
    // on the live table: the snapshot is the precise `split` prefix.
    let replay_svc = PrefetchService::start(cfg(fast_supervision(8, 16), None));
    let mut warm = replay_svc.open(1, TenantSpec::repl(512)).unwrap();
    ok(&replay_svc, "warm start", warm.restore(snap));
    for obs in &a_batches[split..] {
        submit_until_acked(&mut warm, obs);
    }
    assert_eq!(
        ok(&replay_svc, "fingerprint", warm.fingerprint()),
        final_fp,
        "snapshot + suffix replay == uninterrupted stream"
    );
    service.shutdown();
    replay_svc.shutdown();
}

#[test]
fn piggyback_counts_survive_an_epoch_fence_under_resubmission() {
    // Regression for the delta-flush accounting bug: the old scheme
    // zeroed the session's rejected/shed deltas the moment a batch was
    // *enqueued*. If the worker then died before processing it, the
    // deltas died with the queue — and a client retrying after
    // `TimedOut`/`ShardDown` could never report them again. Cumulative
    // piggyback counters make the merge idempotent: this test crashes
    // the shard with count-carrying batches still queued, resubmits them
    // (at-least-once), and demands the conservation identity exactly.
    let sup = fast_supervision(8, 16);
    let fault = ServiceFaultConfig::disabled(0xFE11CE).kill(0, 3);
    let service = PrefetchService::start(ServiceConfig {
        shards: 1,
        queue_depth: 4,
        supervision: sup,
        fault: Some(fault),
        ..ServiceConfig::default()
    });
    let mut session = service.open(1, TenantSpec::repl(256)).unwrap();
    let stream = batches(1, 7);

    // Two acked batches put the journal at seq 2; the kill budget fires
    // on the next accepted batch (seq 3).
    submit_until_acked(&mut session, &stream[0]);
    submit_until_acked(&mut session, &stream[1]);

    // Freeze the worker, fill the tenant's depth-4 queue, and pile up
    // exactly 5 rejections plus 1 bounded-submit timeout — 6 counts the
    // session now carries, with their flush batches *still queued*.
    let pause = ok(&service, "pause", service.pause_shard(0));
    let mut queued = Vec::new();
    let mut rejected = 0u64;
    for i in 0..9 {
        match session.try_submit(stream[2 + (i % 4)].clone()) {
            TrySubmit::Enqueued(p) => queued.push(p),
            TrySubmit::Full(_) => rejected += 1,
            other => panic!("unexpected submit outcome: {other:?}"),
        }
    }
    assert_eq!(queued.len(), 4, "depth-4 tenant queue holds 4");
    assert_eq!(rejected, 5);
    match session.submit_timeout(stream[6].clone(), Duration::from_millis(20)) {
        TrySubmit::TimedOut(_) => rejected += 1,
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert_eq!(rejected, 6);

    // Resume: the first queued batch trips the kill. The worker dies
    // with all 4 count-carrying batches unacked; their reply channels
    // drop, which is the client's resubmission signal.
    drop(pause);
    for p in queued {
        assert!(
            p.wait().is_err(),
            "queued batches die with the epoch, unacked"
        );
    }
    wait_for_recoveries(&service, 1);

    // At-least-once: resubmit everything that was never acked. The
    // resubmissions carry the same cumulative totals, so the counts are
    // applied exactly once no matter how many retries it takes.
    for obs in &stream[2..6] {
        submit_until_acked(&mut session, obs);
    }
    ok(&service, "drain", service.drain());

    let stats = ok(&service, "stats", session.stats());
    assert_eq!(
        stats.rejected, rejected,
        "every rejection survives the fence; none double-count"
    );
    assert_eq!(stats.batches, 6, "2 pre-kill + 4 resubmitted");
    assert_eq!(stats.observed, 6 * BATCH as u64);
    assert_eq!(stats.shed, 0);
    let shard = ok(&service, "shard stats", service.shard_stats(0));
    assert_eq!(shard.rejected, rejected, "shard aggregate agrees");
    service.shutdown();
}

#[test]
fn per_tenant_stats_sum_to_shard_totals_through_kill_and_shedding() {
    // Cross-tenant conservation: after a mixed run with a kill-recovery
    // and degraded-mode shedding, the per-tenant counter blocks must sum
    // exactly to the shard's aggregates — nothing lost in recovery,
    // nothing double-counted by resubmission, shed and rejected counted
    // to the right tenant.
    let sup = SupervisionConfig {
        backoff_base_ms: 300,
        backoff_max_ms: 300,
        shed_when_down: true,
        ..fast_supervision(8, 16)
    };
    let fault = ServiceFaultConfig::disabled(0x5CA1E).kill(0, 3);
    let service = PrefetchService::start(ServiceConfig {
        shards: 1,
        queue_depth: 4,
        supervision: sup,
        fault: Some(fault),
        ..ServiceConfig::default()
    });
    let mut a = service.open(1, TenantSpec::repl(256)).unwrap();
    let mut b = service.open(2, TenantSpec::repl(256)).unwrap();
    let a_stream = batches(1, 8);
    let b_stream = batches(2, 8);

    submit_until_acked(&mut a, &a_stream[0]);
    submit_until_acked(&mut b, &b_stream[0]);

    // Trip the kill (seq 3) and hold the shard Down on its backoff.
    let tripwire = ok(&service, "tripwire submit", a.submit(a_stream[1].clone()));
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.shard_state(0) != ShardState::Down {
        assert!(Instant::now() < deadline, "shard never went down");
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = tripwire.wait();

    // Degraded mode: both tenants shed — A twice, B once.
    for (session, stream, sheds) in [(&mut a, &a_stream, 2usize), (&mut b, &b_stream, 1usize)] {
        for k in 0..sheds {
            let reply = match session.try_submit(stream[2 + k].clone()) {
                TrySubmit::Enqueued(p) => ok(&service, "shed ack", p.wait()),
                other => panic!("expected shed ack, got {other:?}"),
            };
            assert!(reply.shed);
        }
    }

    wait_for_recoveries(&service, 1);
    // Resubmit A's killed batch, then rack up rejections against a
    // paused shard: A gets 3, B gets 2 — distinct, so a cross-tenant
    // mixup cannot cancel out.
    submit_until_acked(&mut a, &a_stream[1]);
    let pause = ok(&service, "pause", service.pause_shard(0));
    let mut queued = Vec::new();
    let mut a_rejected = 0u64;
    let mut b_rejected = 0u64;
    for (session, stream, want, got) in [
        (&mut a, &a_stream, 3u64, &mut a_rejected),
        (&mut b, &b_stream, 2u64, &mut b_rejected),
    ] {
        let mut i = 0;
        while *got < want {
            match session.try_submit(stream[4 + (i % 4)].clone()) {
                TrySubmit::Enqueued(p) => queued.push(p),
                TrySubmit::Full(_) => *got += 1,
                other => panic!("unexpected: {other:?}"),
            }
            i += 1;
        }
    }
    drop(pause);
    for p in queued {
        let reply = ok(&service, "ack", p.wait());
        assert!(reply.error.is_none());
    }
    // One more accepted batch per tenant flushes the final tails.
    submit_until_acked(&mut a, &a_stream[7]);
    submit_until_acked(&mut b, &b_stream[7]);
    ok(&service, "drain", service.drain());

    let sa = ok(&service, "stats", a.stats());
    let sb = ok(&service, "stats", b.stats());
    let shard = ok(&service, "shard stats", service.shard_stats(0));
    assert_eq!(sa.shed, 2);
    assert_eq!(sb.shed, 1);
    assert_eq!(sa.rejected, a_rejected);
    assert_eq!(sb.rejected, b_rejected);
    assert_eq!(sa.batches + sb.batches, shard.batches, "batches sum");
    assert_eq!(sa.observed + sb.observed, shard.observed, "observed sum");
    assert_eq!(sa.rejected + sb.rejected, shard.rejected, "rejected sum");
    assert_eq!(sa.shed + sb.shed, shard.shed, "shed sum");
    assert_eq!(
        sa.prefetches + sb.prefetches,
        shard.prefetches,
        "prefetches sum"
    );
    service.shutdown();
}

#[test]
fn slow_consumer_fault_perturbs_timing_but_never_state() {
    let streams = vec![(3u32, batches(3, 25))];
    let control_svc = PrefetchService::start(cfg(fast_supervision(8, 16), None));
    let (control_fps, control_stats) = run_interleaved(&control_svc, &streams);
    control_svc.shutdown();

    let fault = ServiceFaultConfig::disabled(0x51_0FF).slow(0.5, 10_000);
    let chaos_svc = PrefetchService::start(cfg(fast_supervision(8, 16), Some(fault)));
    let (chaos_fps, chaos_stats) = run_interleaved(&chaos_svc, &streams);
    chaos_svc.shutdown();

    assert_eq!(chaos_fps, control_fps, "slowdowns never change learning");
    assert_eq!(chaos_stats.batches, control_stats.batches);
    assert_eq!(chaos_stats.observed, control_stats.observed);
    assert!(
        chaos_stats.elapsed_cycles > control_stats.elapsed_cycles,
        "injected stalls show up on the virtual clock"
    );
}
