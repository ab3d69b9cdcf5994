//! Loopback integration and robustness suite for the network
//! front-end: fingerprint identity with the in-process path, NACK
//! backpressure with conservation-exact accounting, buffer recycling
//! over the wire, and typed handling of every malformed-peer behavior
//! the protocol defines.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use ulmt_core::table::{Replicated, TableParams};
use ulmt_core::UlmtAlgorithm;
use ulmt_service::net::{
    read_frame_into, write_frame, FrameKind, NetClient, NetServer, WireError, MAGIC, WIRE_VERSION,
};
use ulmt_service::{
    NetConfig, NetSubmit, PrefetchService, ServiceConfig, ServiceError, TenantSpec,
};
use ulmt_simcore::LineAddr;

fn lines(ns: &[u64]) -> Vec<LineAddr> {
    ns.iter().map(|&n| LineAddr::new(n)).collect()
}

/// A deterministic per-tenant miss stream (same generator the service
/// unit tests use).
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

fn server(shards: usize) -> NetServer {
    let service = PrefetchService::start(ServiceConfig {
        shards,
        ..ServiceConfig::default()
    });
    NetServer::bind(service, NetConfig::loopback()).unwrap()
}

/// A raw TCP peer for speaking malformed protocol at the server.
struct RawPeer {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RawPeer {
    fn connect(server: &NetServer) -> RawPeer {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        RawPeer {
            stream,
            buf: Vec::new(),
        }
    }

    /// A syntactically valid Hello payload for `tenant`, repl(64).
    fn hello_payload(tenant: u32) -> Vec<u8> {
        Self::repl_hello_payload(tenant, TableParams::repl_default(64))
    }

    /// A syntactically valid Hello payload for a Repl `tenant` with
    /// geometry `params`, bypassing every client-side check.
    fn repl_hello_payload(tenant: u32, params: TableParams) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&MAGIC.to_le_bytes());
        p.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        p.extend_from_slice(&tenant.to_le_bytes());
        p.push(2); // TableKind::Repl
        p.extend_from_slice(&(params.num_rows as u64).to_le_bytes());
        p.extend_from_slice(&(params.assoc as u32).to_le_bytes());
        p.extend_from_slice(&(params.num_succ as u32).to_le_bytes());
        p.extend_from_slice(&(params.num_levels as u32).to_le_bytes());
        p.extend_from_slice(&1u32.to_le_bytes()); // weight
        p.extend_from_slice(&0u64.to_le_bytes()); // queue_depth: default
        p.extend_from_slice(&0u32.to_le_bytes()); // quota burst: none
        p.extend_from_slice(&0u32.to_le_bytes()); // quota refill
        p
    }

    fn send(&mut self, kind: FrameKind, payload: &[u8]) {
        write_frame(&mut self.stream, kind, payload).unwrap();
    }

    fn recv(&mut self) -> Result<FrameKind, WireError> {
        read_frame_into(&mut self.stream, &mut self.buf, 8 << 20)
    }

    /// Receives a frame and asserts it is a typed `Err` whose display
    /// text contains `needle`.
    fn expect_err_containing(&mut self, needle: &str) {
        let kind = self.recv().unwrap();
        assert_eq!(kind, FrameKind::Err, "expected an Err frame");
        // Err payload: code u8, detail u32, string.
        let msg_len = u32::from_le_bytes(self.buf[5..9].try_into().unwrap()) as usize;
        let msg = std::str::from_utf8(&self.buf[9..9 + msg_len]).unwrap();
        assert!(
            msg.contains(needle),
            "error {msg:?} should mention {needle:?}"
        );
    }
}

#[test]
fn network_path_fingerprints_match_in_process_and_offline() {
    let server = server(2);
    let tenants: Vec<u32> = (0..4).collect();

    // Drive the same streams through the network path...
    let mut net_fps = Vec::new();
    for &t in &tenants {
        let mut client = NetClient::connect(server.local_addr(), t, TenantSpec::repl(512)).unwrap();
        assert_eq!(client.shard(), server.service().shard_of(t));
        for chunk in stream(t, 256).chunks(64) {
            client.submit(chunk.to_vec()).unwrap();
        }
        while client.pending() > 0 {
            assert!(client.reap().unwrap().error.is_none());
        }
        net_fps.push(client.fingerprint().unwrap());
        client.goodbye();
    }
    server.shutdown();

    // ...and through the in-process path and an offline table.
    let service = PrefetchService::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    for (i, &t) in tenants.iter().enumerate() {
        let mut session = service.open(t, TenantSpec::repl(512)).unwrap();
        for chunk in stream(t, 256).chunks(64) {
            session.submit(chunk.to_vec()).unwrap().wait().unwrap();
        }
        assert_eq!(
            session.fingerprint().unwrap(),
            net_fps[i],
            "tenant {t}: network path must be bit-identical to in-process"
        );
        let mut offline = Replicated::new(TableParams::repl_default(512));
        for &m in &stream(t, 256) {
            offline.process_miss(m);
        }
        assert_eq!(net_fps[i], offline.table_fingerprint());
    }
    service.shutdown();
}

#[test]
fn predictions_and_replies_round_trip() {
    let server = server(1);
    let mut client = NetClient::connect(server.local_addr(), 1, TenantSpec::repl(1024)).unwrap();
    let obs = lines(&[1, 2, 3, 1, 2, 3, 1]);

    let mut offline = Replicated::new(TableParams::repl_default(1024));
    let mut expected = Vec::new();
    for &miss in &obs {
        expected.extend(offline.process_miss(miss).prefetches);
    }

    match client.try_submit(obs).unwrap() {
        NetSubmit::Enqueued { pending } => assert_eq!(pending, 1),
        other => panic!("expected acceptance, got {other:?}"),
    }
    let reply = client.reap().unwrap();
    assert_eq!(reply.observed, 7);
    assert_eq!(reply.prefetches, expected);
    assert!(reply.error.is_none());

    let stats = client.stats().unwrap();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.observed, 7);
    client.goodbye();
    server.shutdown();
}

#[test]
fn nack_hands_batch_back_and_accounting_stays_exact() {
    let service = PrefetchService::start(ServiceConfig {
        shards: 1,
        queue_depth: 4,
        ..ServiceConfig::default()
    });
    let server = NetServer::bind(service, NetConfig::loopback()).unwrap();
    let mut client = NetClient::connect(server.local_addr(), 9, TenantSpec::base(256)).unwrap();
    // Freeze the shard so the queue fills deterministically.
    let pause = server.service().pause_shard(0).unwrap();

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut buf = lines(&[1, 2, 3, 4]);
    let cap = buf.capacity();
    for _ in 0..16 {
        match client.try_submit(buf).unwrap() {
            NetSubmit::Enqueued { .. } => {
                accepted += 1;
                buf = lines(&[1, 2, 3, 4]);
            }
            NetSubmit::Full(handed_back) => {
                rejected += 1;
                assert_eq!(
                    handed_back,
                    lines(&[1, 2, 3, 4]),
                    "NACK returns the batch intact"
                );
                assert_eq!(handed_back.capacity(), cap, "same Vec, capacity intact");
                buf = handed_back;
            }
            other => panic!("unexpected submit outcome: {other:?}"),
        }
    }
    assert!(
        rejected > 0,
        "a depth-4 queue must reject some of 16 batches"
    );
    // A bounded wait against the still-paused shard times out.
    match client
        .submit_timeout(buf, Duration::from_millis(20))
        .unwrap()
    {
        NetSubmit::TimedOut(handed_back) => {
            rejected += 1;
            buf = handed_back;
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    drop(pause);

    // Resubmit the handed-back batch so the final rejection tail is
    // flushed to the shard with the next accepted batch.
    client.submit(buf).unwrap();
    client.drain().unwrap();
    let stats = client.stats().unwrap();
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
    while client.pending() > 0 {
        assert!(client.reap().unwrap().error.is_none());
    }
    client.goodbye();
    server.shutdown();
}

#[test]
fn recycled_buffers_survive_the_network_round_trip() {
    let server = server(1);
    let mut client = NetClient::connect(server.local_addr(), 1, TenantSpec::repl(256)).unwrap();
    let mut buf = Vec::with_capacity(64);
    let full_stream = stream(1, 192);
    for chunk in full_stream.chunks(64) {
        buf.extend_from_slice(chunk);
        let cap_before = buf.capacity();
        match client.try_submit(buf).unwrap() {
            NetSubmit::Enqueued { .. } => {}
            other => panic!("expected acceptance, got {other:?}"),
        }
        let reply = client.reap().unwrap();
        assert_eq!(reply.observed, 64);
        buf = reply.recycled;
        assert!(buf.is_empty(), "recycled buffer comes back cleared");
        assert_eq!(
            buf.capacity(),
            cap_before,
            "capacity survives the round trip"
        );
    }
    client.goodbye();
    server.shutdown();
}

#[test]
fn snapshot_restore_and_remote_errors_are_typed() {
    let server = server(2);
    let mut chain = NetClient::connect(server.local_addr(), 3, TenantSpec::chain(256)).unwrap();
    chain.submit(stream(3, 200)).unwrap();
    while chain.pending() > 0 {
        chain.reap().unwrap();
    }
    let snap = chain.snapshot().unwrap();
    let fp = chain.fingerprint().unwrap();
    assert_eq!(snap.fingerprint(), fp);

    // Warm-start a second tenant from the snapshot over the wire.
    let mut warm = NetClient::connect(server.local_addr(), 4, TenantSpec::chain(256)).unwrap();
    warm.restore(&snap).unwrap();
    assert_eq!(warm.fingerprint().unwrap(), fp);

    // Restoring into the wrong algorithm is a typed snapshot error.
    let mut repl = NetClient::connect(server.local_addr(), 5, TenantSpec::repl(256)).unwrap();
    match repl.restore(&snap) {
        Err(ServiceError::Remote(msg)) => {
            assert!(msg.contains("snapshot"), "got {msg:?}")
        }
        other => panic!("expected a remote snapshot error, got {other:?}"),
    }

    // Reaping with nothing pending is typed, not a hang.
    match repl.reap() {
        Err(ServiceError::Remote(msg)) => assert!(msg.contains("pending")),
        other => panic!("expected a remote error, got {other:?}"),
    }

    // Opening the same tenant twice keeps its exact discriminant.
    match NetClient::connect(server.local_addr(), 3, TenantSpec::chain(256)) {
        Err(ServiceError::TenantExists(3)) => {}
        other => panic!("expected TenantExists(3), got {other:?}"),
    }
    chain.goodbye();
    warm.goodbye();
    repl.goodbye();
    server.shutdown();
}

#[test]
fn restore_of_other_geometry_is_rejected_over_the_wire() {
    let server = server(1);
    let mut big = NetClient::connect(server.local_addr(), 1, TenantSpec::repl(512)).unwrap();
    big.submit(stream(1, 300)).unwrap();
    while big.pending() > 0 {
        big.reap().unwrap();
    }
    let snap = big.snapshot().unwrap();
    let mut small = NetClient::connect(server.local_addr(), 2, TenantSpec::repl(256)).unwrap();
    small.submit(stream(2, 100)).unwrap();
    small.reap().unwrap();
    let before = small.fingerprint().unwrap();
    match small.restore(&snap) {
        Err(ServiceError::Remote(msg)) => assert!(msg.contains("geometry"), "got {msg:?}"),
        other => panic!("expected a remote snapshot error, got {other:?}"),
    }
    assert_eq!(small.fingerprint().unwrap(), before);
    // The shard still serves the tenant.
    small.submit(stream(2, 100)).unwrap();
    assert_eq!(small.reap().unwrap().observed, 100);
    big.goodbye();
    small.goodbye();
    server.shutdown();
}

#[test]
fn bad_magic_is_rejected_before_any_state_is_touched() {
    let server = server(1);
    let mut peer = RawPeer::connect(&server);
    let mut hello = RawPeer::hello_payload(7);
    hello[0] ^= 0xFF;
    peer.send(FrameKind::Hello, &hello);
    peer.expect_err_containing("magic");
    // The tenant was never opened: a real client can still claim it.
    let client = NetClient::connect(server.local_addr(), 7, TenantSpec::repl(64)).unwrap();
    client.goodbye();
    server.shutdown();
}

#[test]
fn unallocatable_table_in_hello_is_typed_and_the_server_keeps_serving() {
    let server = server(1);
    let mut client = NetClient::connect(server.local_addr(), 1, TenantSpec::repl(64)).unwrap();
    client.submit(lines(&[1, 2, 3, 1, 2])).unwrap();
    assert_eq!(client.reap().unwrap().observed, 5);

    // Each field is in range on its own, but the arena they multiply to
    // (~5.7e17 bytes) is not: allocating it would abort the server.
    let mut peer = RawPeer::connect(&server);
    let huge = TableParams {
        num_rows: 1 << 40,
        assoc: 1,
        num_succ: 255,
        num_levels: 255,
    };
    peer.send(FrameKind::Hello, &RawPeer::repl_hello_payload(2, huge));
    peer.expect_err_containing("arena");

    // The other tenant is still served, and the refused one was never
    // opened: a well-formed client can still claim it.
    client.submit(lines(&[4, 5, 6])).unwrap();
    assert_eq!(client.reap().unwrap().observed, 3);
    let claimed = NetClient::connect(server.local_addr(), 2, TenantSpec::repl(64)).unwrap();
    claimed.goodbye();
    client.goodbye();
    server.shutdown();
}

#[test]
fn version_mismatch_is_typed() {
    let server = server(1);
    let mut peer = RawPeer::connect(&server);
    let mut hello = RawPeer::hello_payload(1);
    hello[4] = 0xEE; // version low byte
    peer.send(FrameKind::Hello, &hello);
    peer.expect_err_containing("version");
    server.shutdown();
}

#[test]
fn truncated_hello_and_non_hello_first_frames_are_rejected() {
    let server = server(1);
    let mut peer = RawPeer::connect(&server);
    let hello = RawPeer::hello_payload(1);
    peer.send(FrameKind::Hello, &hello[..hello.len() - 3]);
    peer.expect_err_containing("mid-structure");

    let mut peer = RawPeer::connect(&server);
    peer.send(FrameKind::Fingerprint, &[]);
    peer.expect_err_containing("Hello");
    server.shutdown();
}

#[test]
fn oversized_frames_are_refused_without_reading_them() {
    let service = PrefetchService::start(ServiceConfig::default());
    let server = NetServer::bind(
        service,
        NetConfig {
            max_frame_bytes: 256,
            ..NetConfig::loopback()
        },
    )
    .unwrap();
    let mut peer = RawPeer::connect(&server);
    // Header advertising 1 MiB: the server must answer from the header
    // alone — we never send the payload, so a server that tried to read
    // it first would stall instead of replying.
    let mut header = Vec::new();
    header.extend_from_slice(&(1u32 << 20).to_le_bytes());
    header.push(FrameKind::Hello as u8);
    peer.stream.write_all(&header).unwrap();
    peer.expect_err_containing("exceeds");
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_leaves_the_server_serving() {
    let server = server(1);
    // A peer that dies mid-frame...
    {
        let mut peer = RawPeer::connect(&server);
        let hello = RawPeer::hello_payload(2);
        let mut framed = Vec::new();
        write_frame(&mut framed, FrameKind::Hello, &hello).unwrap();
        peer.stream.write_all(&framed[..framed.len() - 4]).unwrap();
        // Drop the connection with the frame incomplete.
    }
    // ...does not take the server with it.
    let mut client = NetClient::connect(server.local_addr(), 2, TenantSpec::repl(64)).unwrap();
    client.submit(lines(&[1, 2, 3, 1, 2])).unwrap();
    assert_eq!(client.reap().unwrap().observed, 5);
    client.goodbye();
    server.shutdown();
}

#[test]
fn malformed_submit_payload_is_a_typed_codec_error() {
    let server = server(1);
    let mut peer = RawPeer::connect(&server);
    peer.send(FrameKind::Hello, &RawPeer::hello_payload(1));
    assert_eq!(peer.recv().unwrap(), FrameKind::HelloOk);
    // wait_ms plus 5 bytes: not a whole number of 8-byte lines.
    let mut payload = 0u32.to_le_bytes().to_vec();
    payload.extend_from_slice(&[1, 2, 3, 4, 5]);
    peer.send(FrameKind::Submit, &payload);
    peer.expect_err_containing("mid-record");
    server.shutdown();
}

#[test]
fn connection_cap_refuses_with_typed_busy() {
    let service = PrefetchService::start(ServiceConfig::default());
    let server = NetServer::bind(
        service,
        NetConfig {
            max_connections: 1,
            ..NetConfig::loopback()
        },
    )
    .unwrap();
    let held = NetClient::connect(server.local_addr(), 1, TenantSpec::repl(64)).unwrap();
    // Wait until the handler registers, then the next connect is refused.
    while server.active_connections() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    match NetClient::connect(server.local_addr(), 2, TenantSpec::repl(64)) {
        Err(ServiceError::Busy) => {}
        // The refused socket may be torn down before the client's Hello
        // write completes; that surfaces as a wire error instead.
        Err(ServiceError::Wire(_)) => {}
        other => panic!("expected Busy, got {other:?}"),
    }
    held.goodbye();
    server.shutdown();
}

#[test]
fn metrics_ride_the_wire_and_counters_sum_to_shard_totals() {
    let server = server(2);
    let mut clients: Vec<NetClient> = (1u32..=2)
        .map(|t| NetClient::connect(server.local_addr(), t, TenantSpec::repl(256)).unwrap())
        .collect();
    for client in &mut clients {
        let t = client.tenant();
        for chunk in stream(t, 192).chunks(64) {
            client.submit(chunk.to_vec()).unwrap();
        }
        while client.pending() > 0 {
            assert!(client.reap().unwrap().error.is_none());
        }
    }
    clients[0].drain().unwrap();

    let report = clients[0].metrics().unwrap();
    assert!(report.enabled, "metrics are on by default");
    assert_eq!(report.shards.len(), 2, "one snapshot per live shard");
    assert_eq!(report.recoveries, 0);
    let batches: u64 = report.shards.iter().map(|m| m.batches).sum();
    let observed: u64 = report.shards.iter().map(|m| m.observed).sum();
    assert_eq!(batches, 6, "3 batches per tenant, 2 tenants");
    assert_eq!(observed, 384);
    for m in &report.shards {
        let stats = server.service().shard_stats(m.shard as usize).unwrap();
        assert_eq!(m.batches, stats.batches, "shard {}", m.shard);
        assert_eq!(m.observed, stats.observed, "shard {}", m.shard);
        assert_eq!(m.prefetches, stats.prefetches, "shard {}", m.shard);
        assert!(
            m.obs_cycles > 0 && m.obs_cycles <= stats.elapsed_cycles,
            "virtual-clock stamp is within the shard's elapsed time"
        );
        // Every accepted batch leaves one sample in each histogram.
        assert_eq!(m.batch_size.total(), m.batches);
        assert_eq!(m.queue_wait_nanos.total(), m.batches);
        assert_eq!(m.ingest_nanos.total(), m.batches);
        if m.batches > 0 {
            // All batches were 64 observations; the log2 bucket upper
            // bound for 64 is 127.
            assert_eq!(m.batch_size.percentile(50), 127);
        }
        assert!(m.wall_unix_nanos > 0);
    }
    let text = report.to_prometheus();
    assert!(text.contains("ulmt_shard_batches_total"));
    assert!(text.contains("ulmt_shard_queue_wait_nanos_bucket"));
    for client in clients {
        client.goodbye();
    }
    server.shutdown();
}

#[test]
fn disabled_metrics_answer_empty_over_the_wire() {
    let service = PrefetchService::start(ServiceConfig {
        metrics: false,
        ..ServiceConfig::default()
    });
    let server = NetServer::bind(service, NetConfig::loopback()).unwrap();
    let mut client = NetClient::connect(server.local_addr(), 1, TenantSpec::repl(64)).unwrap();
    client.submit(lines(&[1, 2, 3, 1, 2])).unwrap();
    assert_eq!(client.reap().unwrap().observed, 5);
    let report = client.metrics().unwrap();
    assert!(!report.enabled);
    assert!(report.shards.is_empty());
    client.goodbye();
    server.shutdown();
}

#[test]
fn metrics_switch_does_not_change_what_is_learned() {
    // The same interleaved multi-tenant streams, with the metrics plane
    // on and off, in process and over the wire: all four runs must
    // learn bit-identical tables.
    let tenants: Vec<u32> = (0..4).collect();
    let mut runs = Vec::new();
    for metrics in [true, false] {
        let cfg = ServiceConfig {
            shards: 2,
            metrics,
            ..ServiceConfig::default()
        };
        let service = PrefetchService::start(cfg);
        let mut sessions: Vec<_> = tenants
            .iter()
            .map(|&t| service.open(t, TenantSpec::repl(512)).unwrap())
            .collect();
        let mut pending = Vec::new();
        for round in 0..4 {
            for (session, &t) in sessions.iter_mut().zip(&tenants) {
                let chunk = stream(t, 256)[round * 64..(round + 1) * 64].to_vec();
                pending.push(session.submit(chunk).unwrap());
            }
        }
        for p in pending {
            assert!(p.wait().unwrap().error.is_none());
        }
        runs.push(
            sessions
                .iter_mut()
                .map(|s| s.fingerprint().unwrap())
                .collect::<Vec<_>>(),
        );
        drop(sessions);
        service.shutdown();

        let server = NetServer::bind(PrefetchService::start(cfg), NetConfig::loopback()).unwrap();
        let mut clients: Vec<NetClient> = tenants
            .iter()
            .map(|&t| NetClient::connect(server.local_addr(), t, TenantSpec::repl(512)).unwrap())
            .collect();
        for round in 0..4 {
            for (client, &t) in clients.iter_mut().zip(&tenants) {
                let chunk = stream(t, 256)[round * 64..(round + 1) * 64].to_vec();
                client.submit(chunk).unwrap();
            }
        }
        let mut fps = Vec::new();
        for mut client in clients {
            while client.pending() > 0 {
                assert!(client.reap().unwrap().error.is_none());
            }
            fps.push(client.fingerprint().unwrap());
            client.goodbye();
        }
        runs.push(fps);
        server.shutdown();
    }
    assert!(
        runs.iter().all(|fps| *fps == runs[0]),
        "metrics on/off x in-process/net fingerprints differ: {runs:?}"
    );
}

/// A peer that stalls mid-frame cannot stretch shutdown past the read
/// timeout: the handler's bounded read surfaces the stall as a typed
/// I/O timeout and the connection is torn down. (Before timeout
/// propagation was fixed, a socket whose timeouts failed to apply could
/// block shutdown indefinitely.)
#[test]
fn mid_frame_stall_cannot_hold_up_shutdown() {
    let service = PrefetchService::start(ServiceConfig {
        shards: 1,
        ..ServiceConfig::default()
    });
    let server = NetServer::bind(
        service,
        NetConfig {
            read_timeout_ms: 200,
            poll_tick_ms: 10,
            ..NetConfig::loopback()
        },
    )
    .unwrap();
    let mut peer = RawPeer::connect(&server);
    peer.send(FrameKind::Hello, &RawPeer::hello_payload(1));
    assert_eq!(peer.recv().unwrap(), FrameKind::HelloOk);
    // One header byte, then silence: the handler is now mid-frame.
    peer.stream.write_all(&[42]).unwrap();
    let t0 = std::time::Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "shutdown with a mid-frame-stalled peer must be bounded by the \
         read timeout, took {:?}",
        t0.elapsed()
    );
}

#[test]
fn remote_shutdown_drains_and_refuses_stragglers() {
    let server = server(2);
    let mut a = NetClient::connect(server.local_addr(), 1, TenantSpec::repl(256)).unwrap();
    let mut b = NetClient::connect(server.local_addr(), 2, TenantSpec::base(256)).unwrap();
    a.submit(stream(1, 64)).unwrap();
    while a.pending() > 0 {
        assert!(a.reap().unwrap().error.is_none());
    }
    // b triggers a service-wide shutdown over the wire.
    b.shutdown_service().unwrap();
    // a's next request is refused with the shutdown notice (its idle
    // loop pushes the Err frame within a poll tick) or sees the socket
    // close — never a hang.
    let straggler = lines(&[1, 2, 3]);
    match a.try_submit(straggler) {
        Err(ServiceError::ShuttingDown)
        | Err(ServiceError::Closed)
        | Err(ServiceError::Wire(_)) => {}
        Ok(NetSubmit::Enqueued { .. }) => {
            // The submit raced ahead of the closing flag; the reply is
            // then the typed drain rejection — delivered either inside
            // the batch reply or, if the reap itself races the closing
            // flag, as the connection-level shutdown notice.
            match a.reap() {
                Ok(reply) => {
                    assert!(matches!(reply.error, Some(ServiceError::ShuttingDown)))
                }
                Err(ServiceError::ShuttingDown)
                | Err(ServiceError::Closed)
                | Err(ServiceError::Wire(_)) => {}
                other => panic!("straggler reap saw {other:?}"),
            }
        }
        other => panic!("straggler saw {other:?}"),
    }
    let reports = server.shutdown();
    assert_eq!(reports.len(), 2);
    let total: u64 = reports.iter().map(|r| r.stats.observed).sum();
    assert_eq!(total, 64, "accepted work survives the remote shutdown");
}
