//! The blocking TCP client of the network front-end.
//!
//! [`NetClient`] mirrors the in-process [`Session`](crate::Session) API
//! over a socket: `try_submit`/`submit`/`submit_timeout` for the data
//! plane and snapshot/restore/fingerprint/stats/drain/shutdown for the
//! control plane. The differences forced by the wire are explicit:
//! acceptance is split from completion (an accepted batch is later
//! collected with [`NetClient::reap`], enabling the same pipelined
//! submission a caller drives in-process), and a backpressure NACK
//! hands the caller's own `Vec` straight back — content and capacity
//! untouched — because the server echoed the batch instead of keeping
//! it.

use std::collections::VecDeque;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ulmt_core::table::TableSnapshot;
use ulmt_simcore::LineAddr;
use ulmt_workloads::codec::{decode_lines_into, encode_lines_into, LINE_BYTES};

use crate::config::{NetConfig, TenantSpec};
use crate::net::wire::{self, FrameKind, NackReason, Payload, WireError, WIRE_VERSION};
use crate::service::{BatchReply, ServiceError, TenantStats};

/// Outcome of a non-blocking or time-bounded network submission — the
/// wire twin of [`TrySubmit`](crate::TrySubmit). `Enqueued` carries the
/// connection's pending depth instead of a reply handle; the reply is
/// collected with [`NetClient::reap`] in submission order.
#[derive(Debug)]
pub enum NetSubmit {
    /// The batch was accepted; `pending` batches now await reaping.
    Enqueued {
        /// Batches accepted on this connection and not yet reaped.
        pending: usize,
    },
    /// The tenant's queue was full; the observations come back intact.
    Full(Vec<LineAddr>),
    /// The wait bound expired; the observations come back intact.
    TimedOut(Vec<LineAddr>),
}

/// Wait bound (per attempt) used by the blocking [`NetClient::submit`],
/// mirroring the in-process session's control-timeout-bounded submit.
const SUBMIT_WAIT: Duration = Duration::from_secs(10);

/// A blocking client connection speaking for one tenant.
///
/// See [`NetServer`](crate::net::NetServer) for a round-trip example.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    tenant: u32,
    shard: u32,
    /// Reply payload buffer, reused across frames.
    buf: Vec<u8>,
    /// Request payload buffer, reused across frames.
    out: Vec<u8>,
    /// The cleared submission buffers of accepted-but-unreaped batches,
    /// oldest first: each [`NetClient::reap`] hands the front one back
    /// as [`BatchReply::recycled`], preserving the zero-alloc recycling
    /// contract across the network.
    recycle: VecDeque<Vec<LineAddr>>,
    max_frame: u32,
}

impl NetClient {
    /// Connects, performs the `Hello` handshake for `tenant` with
    /// `spec`, and returns the bound client. Timeouts and the frame cap
    /// come from [`NetConfig::default`]; use
    /// [`NetClient::connect_with`] to override them.
    pub fn connect(
        addr: impl ToSocketAddrs,
        tenant: u32,
        spec: TenantSpec,
    ) -> Result<NetClient, ServiceError> {
        NetClient::connect_with(addr, tenant, spec, &NetConfig::default())
    }

    /// [`NetClient::connect`] with explicit timeouts and frame cap
    /// (`cfg.addr` is ignored; the connection goes to `addr`).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        tenant: u32,
        spec: TenantSpec,
        cfg: &NetConfig,
    ) -> Result<NetClient, ServiceError> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        stream.set_nodelay(true).map_err(WireError::Io)?;
        stream
            .set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms)))
            .map_err(WireError::Io)?;
        stream
            .set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms)))
            .map_err(WireError::Io)?;
        let mut client = NetClient {
            stream,
            tenant,
            shard: 0,
            buf: Vec::new(),
            out: Vec::new(),
            recycle: VecDeque::new(),
            max_frame: cfg.max_frame_bytes,
        };
        client.out.clear();
        wire::encode_hello(&mut client.out, tenant, &spec);
        let kind = client.round_trip(FrameKind::Hello)?;
        client.expect(kind, FrameKind::HelloOk, "HelloOk handshake reply")?;
        let mut p = Payload::new(&client.buf, "HelloOk");
        let version = p.u16()?;
        if version != WIRE_VERSION {
            return Err(WireError::VersionMismatch {
                got: version,
                want: WIRE_VERSION,
            }
            .into());
        }
        client.shard = p.u32()?;
        p.finish()?;
        Ok(client)
    }

    /// The tenant this connection speaks for.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// The shard the tenant is pinned to, as reported by the server.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Batches accepted on this connection and not yet reaped.
    pub fn pending(&self) -> usize {
        self.recycle.len()
    }

    /// Sends the frame staged in `self.out` and reads the reply frame
    /// into `self.buf`. An `Err` frame is decoded into the typed
    /// [`ServiceError`] it carries.
    fn round_trip(&mut self, kind: FrameKind) -> Result<FrameKind, ServiceError> {
        wire::write_frame(&mut self.stream, kind, &self.out)?;
        let got = wire::read_frame_into(&mut self.stream, &mut self.buf, self.max_frame)?;
        if got == FrameKind::Err {
            return Err(wire::decode_error(&self.buf)?);
        }
        Ok(got)
    }

    fn expect(
        &self,
        got: FrameKind,
        want: FrameKind,
        context: &'static str,
    ) -> Result<(), ServiceError> {
        if got == want {
            Ok(())
        } else {
            Err(WireError::UnexpectedFrame { got, context }.into())
        }
    }

    /// Stages and sends a `Submit` frame, returning the raw reply kind.
    fn send_submit(&mut self, obs: &[LineAddr], wait_ms: u32) -> Result<FrameKind, ServiceError> {
        self.out.clear();
        wire::put_u32(&mut self.out, wait_ms);
        encode_lines_into(obs, &mut self.out);
        self.round_trip(FrameKind::Submit)
    }

    /// Digests a `SubmitOk`/`Nack` reply. On acceptance the submission
    /// buffer is cleared and queued for recycling at reap time; on NACK
    /// the caller gets it back untouched (the server echoes the batch,
    /// and the echo's length is checked against what was sent).
    fn digest_submit(
        &mut self,
        kind: FrameKind,
        mut obs: Vec<LineAddr>,
    ) -> Result<NetSubmit, ServiceError> {
        match kind {
            FrameKind::SubmitOk => {
                let mut p = Payload::new(&self.buf, "SubmitOk");
                let pending = p.u32()? as usize;
                p.finish()?;
                obs.clear();
                self.recycle.push_back(obs);
                debug_assert_eq!(pending, self.recycle.len());
                Ok(NetSubmit::Enqueued { pending })
            }
            FrameKind::Nack => {
                let mut p = Payload::new(&self.buf, "Nack");
                let reason = NackReason::from_u8(p.u8()?)?;
                let echoed = p.rest();
                if echoed.len() != obs.len() * LINE_BYTES {
                    return Err(WireError::BadPayload {
                        context: "NACK echo does not match the submitted batch",
                    }
                    .into());
                }
                Ok(match reason {
                    NackReason::Full => NetSubmit::Full(obs),
                    NackReason::TimedOut => NetSubmit::TimedOut(obs),
                })
            }
            other => Err(WireError::UnexpectedFrame {
                got: other,
                context: "a submit reply",
            }
            .into()),
        }
    }

    /// Non-blocking submission: the wire twin of
    /// [`Session::try_submit`](crate::Session::try_submit). A full
    /// queue hands the batch back as [`NetSubmit::Full`] — nothing is
    /// dropped, and the rejection is counted exactly (the server-side
    /// session piggybacks it onto the next accepted batch).
    pub fn try_submit(&mut self, obs: Vec<LineAddr>) -> Result<NetSubmit, ServiceError> {
        let kind = self.send_submit(&obs, 0)?;
        self.digest_submit(kind, obs)
    }

    /// Time-bounded submission: the wire twin of
    /// [`Session::submit_timeout`](crate::Session::submit_timeout).
    /// `timeout` is rounded up to a whole millisecond (0 would mean
    /// "don't wait").
    pub fn submit_timeout(
        &mut self,
        obs: Vec<LineAddr>,
        timeout: Duration,
    ) -> Result<NetSubmit, ServiceError> {
        let wait_ms = timeout.as_millis().clamp(1, u32::MAX as u128) as u32;
        let kind = self.send_submit(&obs, wait_ms)?;
        self.digest_submit(kind, obs)
    }

    /// Blocking submission: the wire twin of
    /// [`Session::submit`](crate::Session::submit) — waits for queue
    /// space up to the same order of bound and reports
    /// [`ServiceError::Timeout`] past it.
    pub fn submit(&mut self, obs: Vec<LineAddr>) -> Result<(), ServiceError> {
        match self.submit_timeout(obs, SUBMIT_WAIT)? {
            NetSubmit::Enqueued { .. } => Ok(()),
            NetSubmit::Full(_) | NetSubmit::TimedOut(_) => Err(ServiceError::Timeout),
        }
    }

    /// Collects the oldest accepted batch's reply (submission order).
    /// [`BatchReply::recycled`] is that batch's own submission buffer,
    /// cleared with capacity intact — the recycling loop in-process
    /// clients run works identically over the network.
    pub fn reap(&mut self) -> Result<BatchReply, ServiceError> {
        self.out.clear();
        let kind = self.round_trip(FrameKind::Reap)?;
        self.expect(kind, FrameKind::Batch, "a Batch reply")?;
        let wire_reply = wire::decode_batch_reply(&self.buf)?;
        let mut prefetches = Vec::with_capacity(wire_reply.prefetch_bytes.len() / LINE_BYTES);
        decode_lines_into(wire_reply.prefetch_bytes, &mut prefetches).map_err(WireError::Codec)?;
        Ok(BatchReply {
            observed: wire_reply.observed,
            prefetches,
            cancelled: wire_reply.cancelled,
            shed: wire_reply.shed,
            error: wire_reply.error,
            recycled: self.recycle.pop_front().unwrap_or_default(),
        })
    }

    /// Captures the tenant's learned table (see
    /// [`Session::snapshot`](crate::Session::snapshot)).
    pub fn snapshot(&mut self) -> Result<TableSnapshot, ServiceError> {
        self.out.clear();
        let kind = self.round_trip(FrameKind::Snapshot)?;
        self.expect(kind, FrameKind::SnapshotOk, "a SnapshotOk reply")?;
        TableSnapshot::from_bytes(&self.buf).map_err(ServiceError::Snapshot)
    }

    /// Restores the tenant's table from a snapshot (see
    /// [`Session::restore`](crate::Session::restore)).
    pub fn restore(&mut self, snap: &TableSnapshot) -> Result<(), ServiceError> {
        self.out.clear();
        self.out.extend_from_slice(&snap.to_bytes());
        let kind = self.round_trip(FrameKind::Restore)?;
        self.expect(kind, FrameKind::RestoreOk, "a RestoreOk reply")
    }

    /// Fingerprint of the tenant's learned table. Bit-identical to what
    /// the in-process session reports for the same observation stream
    /// (`network_path_fingerprints_match_in_process_and_offline`).
    pub fn fingerprint(&mut self) -> Result<u64, ServiceError> {
        self.out.clear();
        let kind = self.round_trip(FrameKind::Fingerprint)?;
        self.expect(kind, FrameKind::FingerprintOk, "a FingerprintOk reply")?;
        let mut p = Payload::new(&self.buf, "FingerprintOk");
        let fp = p.u64()?;
        p.finish()?;
        Ok(fp)
    }

    /// The tenant's counters.
    pub fn stats(&mut self) -> Result<TenantStats, ServiceError> {
        self.out.clear();
        let kind = self.round_trip(FrameKind::Stats)?;
        self.expect(kind, FrameKind::StatsOk, "a StatsOk reply")?;
        Ok(wire::decode_stats(&self.buf)?)
    }

    /// The service-wide metrics report (see
    /// [`PrefetchService::metrics`](crate::PrefetchService::metrics)).
    /// Carries `enabled: false` and no shards when the server runs with
    /// metrics off.
    pub fn metrics(&mut self) -> Result<crate::metrics::MetricsReport, ServiceError> {
        self.out.clear();
        let kind = self.round_trip(FrameKind::Metrics)?;
        self.expect(kind, FrameKind::MetricsOk, "a MetricsOk reply")?;
        Ok(wire::decode_metrics(&self.buf)?)
    }

    /// Service-wide barrier: returns once every live shard has
    /// processed everything queued before the call.
    pub fn drain(&mut self) -> Result<(), ServiceError> {
        self.out.clear();
        let kind = self.round_trip(FrameKind::Drain)?;
        self.expect(kind, FrameKind::DrainOk, "a DrainOk reply")
    }

    /// Begins graceful shutdown of the *service* behind the server. The
    /// server acks and then closes this connection.
    pub fn shutdown_service(&mut self) -> Result<(), ServiceError> {
        self.out.clear();
        let kind = self.round_trip(FrameKind::Shutdown)?;
        self.expect(kind, FrameKind::ShutdownOk, "a ShutdownOk reply")
    }

    /// Closes the connection cleanly (best effort).
    pub fn goodbye(mut self) {
        self.out.clear();
        let _ = wire::write_frame(&mut self.stream, FrameKind::Goodbye, &self.out);
    }
}
