//! The binary wire protocol of the network front-end.
//!
//! Every message is one **frame**:
//!
//! ```text
//! byte 0..4   payload length (u32 LE), bounded by the negotiated
//!             maximum — an oversized length is rejected before any
//!             payload is read
//! byte 4      frame kind (see [`FrameKind`])
//! byte 5..    payload, kind-specific
//! ```
//!
//! The first frame on a connection must be [`FrameKind::Hello`], whose
//! payload leads with the protocol magic and version — a peer speaking
//! anything else is rejected with a typed error before any state is
//! touched. Observation batches ride the existing
//! [`ulmt_workloads::codec::encode_lines`] encoding verbatim, so the
//! network path and the in-process path feed bit-identical observations
//! into the tables (which is what makes the network path's
//! fingerprint-identity test meaningful).
//!
//! All multi-byte integers are little-endian, matching the rest of the
//! repo's codecs. Strings are `u32` length + UTF-8 bytes.

use std::io::{Read, Write};

use ulmt_core::table::TableParams;
use ulmt_workloads::codec::TraceCodecError;

use ulmt_simcore::stats::{Log2Histogram, LOG2_BUCKETS};

use crate::config::{AdmissionQuota, TableKind, TenantSpec};
use crate::metrics::{MetricsReport, ShardMetrics};
use crate::service::{ServiceError, TenantStats};

/// Protocol magic leading every `Hello` payload: `"ULMT"`.
pub const MAGIC: u32 = 0x554C_4D54;

/// Wire protocol version this build speaks. Version 2 added the
/// checkpoint-latency histogram to each shard of a `MetricsOk` payload.
pub const WIRE_VERSION: u16 = 2;

/// Bytes in a frame header (length prefix + kind tag).
pub const HEADER_BYTES: usize = 5;

/// Frame kinds. Requests are `0x01..=0x7F`, responses `0x81..=0xFF`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client handshake: magic, version, tenant, tenant spec.
    Hello = 0x01,
    /// Submit an observation batch: wait bound + encoded lines.
    Submit = 0x02,
    /// Collect the oldest pending batch's reply.
    Reap = 0x03,
    /// Capture the tenant's table snapshot.
    Snapshot = 0x04,
    /// Restore the tenant's table from snapshot bytes.
    Restore = 0x05,
    /// Fingerprint the tenant's table.
    Fingerprint = 0x06,
    /// Fetch the tenant's counters.
    Stats = 0x07,
    /// Service-wide drain barrier.
    Drain = 0x08,
    /// Begin graceful service shutdown.
    Shutdown = 0x09,
    /// Close this connection cleanly.
    Goodbye = 0x0A,
    /// Fetch the service-wide metrics report.
    Metrics = 0x0B,
    /// Handshake accepted: version + the tenant's shard.
    HelloOk = 0x81,
    /// Batch accepted and queued; payload is the pending depth.
    SubmitOk = 0x82,
    /// Batch **not** accepted — backpressure. The payload hands the
    /// entire batch back, so nothing is ever silently dropped.
    Nack = 0x83,
    /// A processed batch's reply: counters, flags and prefetches.
    Batch = 0x84,
    /// Snapshot bytes.
    SnapshotOk = 0x85,
    /// Restore applied.
    RestoreOk = 0x86,
    /// Table fingerprint.
    FingerprintOk = 0x87,
    /// Tenant counters.
    StatsOk = 0x88,
    /// Drain barrier reached.
    DrainOk = 0x89,
    /// Shutdown drain begun.
    ShutdownOk = 0x8A,
    /// A typed [`ServiceError`], encoded via `encode_error`.
    Err = 0x8B,
    /// A [`MetricsReport`], encoded via `encode_metrics`.
    MetricsOk = 0x8C,
}

impl FrameKind {
    /// Decodes a frame tag.
    pub fn from_u8(tag: u8) -> Result<FrameKind, WireError> {
        use FrameKind::*;
        Ok(match tag {
            0x01 => Hello,
            0x02 => Submit,
            0x03 => Reap,
            0x04 => Snapshot,
            0x05 => Restore,
            0x06 => Fingerprint,
            0x07 => Stats,
            0x08 => Drain,
            0x09 => Shutdown,
            0x0A => Goodbye,
            0x0B => Metrics,
            0x81 => HelloOk,
            0x82 => SubmitOk,
            0x83 => Nack,
            0x84 => Batch,
            0x85 => SnapshotOk,
            0x86 => RestoreOk,
            0x87 => FingerprintOk,
            0x88 => StatsOk,
            0x89 => DrainOk,
            0x8A => ShutdownOk,
            0x8B => Err,
            0x8C => MetricsOk,
            other => return std::result::Result::Err(WireError::UnknownFrame(other)),
        })
    }
}

/// Why a [`FrameKind::Nack`] handed a batch back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NackReason {
    /// The tenant's ingestion queue is full
    /// ([`TrySubmit::Full`](crate::TrySubmit::Full)).
    Full = 0,
    /// The submission's wait bound expired
    /// ([`TrySubmit::TimedOut`](crate::TrySubmit::TimedOut)).
    TimedOut = 1,
}

impl NackReason {
    pub(crate) fn from_u8(tag: u8) -> Result<NackReason, WireError> {
        match tag {
            0 => Ok(NackReason::Full),
            1 => Ok(NackReason::TimedOut),
            _ => Err(WireError::BadPayload {
                context: "unknown NACK reason",
            }),
        }
    }
}

/// Typed frame-level errors: everything that can go wrong between the
/// byte stream and a decoded frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes mid-frame disconnects,
    /// which surface as `UnexpectedEof`).
    Io(std::io::Error),
    /// A length prefix exceeded the connection's frame cap; rejected
    /// before any payload is read.
    Oversized {
        /// The advertised payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The handshake did not lead with the protocol magic.
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The peer's version.
        got: u16,
        /// The version this build speaks.
        want: u16,
    },
    /// Unknown frame tag.
    UnknownFrame(u8),
    /// A structurally valid frame arrived where the protocol does not
    /// allow it.
    UnexpectedFrame {
        /// The frame that arrived.
        got: FrameKind,
        /// What the receiver was waiting for.
        context: &'static str,
    },
    /// A payload ended before its fixed fields did.
    Truncated {
        /// Which payload was being decoded.
        context: &'static str,
    },
    /// A payload's bytes decoded but their meaning is invalid.
    BadPayload {
        /// What was wrong.
        context: &'static str,
    },
    /// An embedded observation batch failed the line codec.
    Codec(TraceCodecError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::BadMagic(got) => {
                write!(f, "bad protocol magic {got:#010x} (want {MAGIC:#010x})")
            }
            WireError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "wire protocol version {got} not supported (this side speaks {want})"
                )
            }
            WireError::UnknownFrame(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            WireError::UnexpectedFrame { got, context } => {
                write!(f, "unexpected {got:?} frame while waiting for {context}")
            }
            WireError::Truncated { context } => {
                write!(f, "frame payload ends mid-structure ({context})")
            }
            WireError::BadPayload { context } => write!(f, "bad frame payload: {context}"),
            WireError::Codec(e) => write!(f, "bad observation payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<TraceCodecError> for WireError {
    fn from(e: TraceCodecError) -> Self {
        WireError::Codec(e)
    }
}

/// Writes one frame: header + payload, then flushes.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), WireError> {
    let mut header = [0u8; HEADER_BYTES];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4] = kind as u8;
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame into `buf` (replacing its contents, reusing its
/// capacity) and returns its kind. A length prefix above `max` is
/// rejected **before** any payload byte is read.
pub fn read_frame_into(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    max: u32,
) -> Result<FrameKind, WireError> {
    let mut first = [0u8; 1];
    r.read_exact(&mut first)?;
    read_frame_rest(r, first[0], buf, max)
}

/// Completes [`read_frame_into`] after the caller has already pulled the
/// header's first byte off the stream. The server's idle loop waits for
/// that byte under a short poll tick (so it can notice shutdown), then
/// reads the rest of the frame under the full read timeout through this.
pub fn read_frame_rest(
    r: &mut impl Read,
    first: u8,
    buf: &mut Vec<u8>,
    max: u32,
) -> Result<FrameKind, WireError> {
    let mut rest = [0u8; HEADER_BYTES - 1];
    r.read_exact(&mut rest)?;
    let len = u32::from_le_bytes([first, rest[0], rest[1], rest[2]]);
    let kind = FrameKind::from_u8(rest[3])?;
    if len > max {
        return Err(WireError::Oversized { len, max });
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(kind)
}

/// Little-endian payload cursor with typed truncation errors.
pub(crate) struct Payload<'a> {
    bytes: &'a [u8],
    context: &'static str,
}

impl<'a> Payload<'a> {
    pub(crate) fn new(bytes: &'a [u8], context: &'static str) -> Self {
        Payload { bytes, context }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() < n {
            return Err(WireError::Truncated {
                context: self.context,
            });
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadPayload {
            context: "string is not UTF-8",
        })
    }

    /// Everything left in the payload (e.g. a trailing line batch).
    pub(crate) fn rest(self) -> &'a [u8] {
        self.bytes
    }

    /// Asserts the payload was fully consumed.
    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(WireError::BadPayload {
                context: "trailing bytes after payload",
            })
        }
    }
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Encodes a `Hello` payload: magic, version, tenant, tenant spec.
pub(crate) fn encode_hello(out: &mut Vec<u8>, tenant: u32, spec: &TenantSpec) {
    put_u32(out, MAGIC);
    put_u16(out, WIRE_VERSION);
    put_u32(out, tenant);
    out.push(spec.kind.code());
    put_u64(out, spec.params.num_rows as u64);
    put_u32(out, spec.params.assoc as u32);
    put_u32(out, spec.params.num_succ as u32);
    put_u32(out, spec.params.num_levels as u32);
    put_u32(out, spec.weight);
    put_u64(out, spec.queue_depth.map_or(0, |d| d as u64));
    let (burst, refill) = spec
        .quota
        .map_or((0, 0), |q| (q.burst_batches, q.refill_per_sec));
    put_u32(out, burst);
    put_u32(out, refill);
}

/// Decodes a `Hello` payload, checking magic and version first.
pub(crate) fn decode_hello(bytes: &[u8]) -> Result<(u32, TenantSpec), WireError> {
    let mut p = Payload::new(bytes, "Hello");
    let magic = p.u32()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = p.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch {
            got: version,
            want: WIRE_VERSION,
        });
    }
    let tenant = p.u32()?;
    let kind = TableKind::from_code(p.u8()?).ok_or(WireError::BadPayload {
        context: "unknown table kind",
    })?;
    let params = TableParams {
        num_rows: p.u64()? as usize,
        assoc: p.u32()? as usize,
        num_succ: p.u32()? as usize,
        num_levels: p.u32()? as usize,
    };
    let weight = p.u32()?;
    let queue_depth = match p.u64()? {
        0 => None,
        d => Some(d as usize),
    };
    let burst = p.u32()?;
    let refill = p.u32()?;
    p.finish()?;
    let quota = if burst == 0 {
        None
    } else {
        Some(AdmissionQuota::new(burst, refill))
    };
    Ok((
        tenant,
        TenantSpec {
            kind,
            params,
            weight,
            queue_depth,
            quota,
        },
    ))
}

/// Encodes a `StatsOk` payload.
pub(crate) fn encode_stats(out: &mut Vec<u8>, s: &TenantStats) {
    put_u32(out, s.tenant);
    put_u64(out, s.batches);
    put_u64(out, s.observed);
    put_u64(out, s.rejected);
    put_u64(out, s.shed);
    put_u64(out, s.prefetches);
    put_u64(out, s.live_rows);
    put_u64(out, s.table_bytes);
}

/// Decodes a `StatsOk` payload.
pub(crate) fn decode_stats(bytes: &[u8]) -> Result<TenantStats, WireError> {
    let mut p = Payload::new(bytes, "StatsOk");
    let stats = TenantStats {
        tenant: p.u32()?,
        batches: p.u64()?,
        observed: p.u64()?,
        rejected: p.u64()?,
        shed: p.u64()?,
        prefetches: p.u64()?,
        live_rows: p.u64()?,
        table_bytes: p.u64()?,
    };
    p.finish()?;
    Ok(stats)
}

/// Encodes one log2 histogram: a bucket count with trailing zero
/// buckets trimmed, then that many `u64` counts. An empty histogram is
/// 4 bytes.
fn put_histogram(out: &mut Vec<u8>, h: &Log2Histogram) {
    let counts = h.counts();
    let n = counts.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    put_u32(out, n as u32);
    for &c in &counts[..n] {
        put_u64(out, c);
    }
}

/// Decodes one log2 histogram written by [`put_histogram`].
fn read_histogram(p: &mut Payload<'_>) -> Result<Log2Histogram, WireError> {
    let n = p.u32()? as usize;
    if n > LOG2_BUCKETS {
        return Err(WireError::BadPayload {
            context: "histogram bucket count exceeds LOG2_BUCKETS",
        });
    }
    let mut counts = [0u64; LOG2_BUCKETS];
    for slot in counts.iter_mut().take(n) {
        *slot = p.u64()?;
    }
    Log2Histogram::from_counts(&counts).ok_or(WireError::BadPayload {
        context: "histogram counts",
    })
}

/// Encodes a `MetricsOk` payload: the service-wide report, shard by
/// shard, each histogram with trailing zero buckets trimmed.
pub(crate) fn encode_metrics(out: &mut Vec<u8>, r: &MetricsReport) {
    out.push(u8::from(r.enabled));
    put_u64(out, r.recoveries);
    put_histogram(out, &r.recovery_nanos);
    put_u32(out, r.shards.len() as u32);
    for s in &r.shards {
        put_u32(out, s.shard);
        put_u64(out, s.epoch);
        put_u64(out, s.batches);
        put_u64(out, s.observed);
        put_u64(out, s.prefetches);
        put_u64(out, s.rejected);
        put_u64(out, s.shed);
        put_u64(out, s.obs_cycles);
        put_u64(out, s.wall_unix_nanos);
        put_histogram(out, &s.batch_size);
        put_histogram(out, &s.queue_wait_nanos);
        put_histogram(out, &s.ingest_nanos);
        put_histogram(out, &s.checkpoint_nanos);
    }
}

/// Decodes a `MetricsOk` payload.
pub(crate) fn decode_metrics(bytes: &[u8]) -> Result<MetricsReport, WireError> {
    let mut p = Payload::new(bytes, "MetricsOk");
    let enabled = match p.u8()? {
        0 => false,
        1 => true,
        _ => {
            return Err(WireError::BadPayload {
                context: "metrics enabled flag",
            })
        }
    };
    let recoveries = p.u64()?;
    let recovery_nanos = read_histogram(&mut p)?;
    let shard_count = p.u32()? as usize;
    let mut shards = Vec::with_capacity(shard_count.min(1024));
    for _ in 0..shard_count {
        shards.push(ShardMetrics {
            shard: p.u32()?,
            epoch: p.u64()?,
            batches: p.u64()?,
            observed: p.u64()?,
            prefetches: p.u64()?,
            rejected: p.u64()?,
            shed: p.u64()?,
            obs_cycles: p.u64()?,
            wall_unix_nanos: p.u64()?,
            batch_size: read_histogram(&mut p)?,
            queue_wait_nanos: read_histogram(&mut p)?,
            ingest_nanos: read_histogram(&mut p)?,
            checkpoint_nanos: read_histogram(&mut p)?,
        });
    }
    p.finish()?;
    Ok(MetricsReport {
        enabled,
        recoveries,
        recovery_nanos,
        shards,
    })
}

/// Encodes a [`ServiceError`] as an `Err` payload: a discriminant, a
/// numeric detail (shard or tenant where applicable) and the display
/// text. Variants whose semantics matter to client control flow keep
/// their exact discriminant across the wire; everything else collapses
/// to [`ServiceError::Remote`] carrying the display text.
pub(crate) fn encode_error(out: &mut Vec<u8>, e: &ServiceError) {
    let (code, detail): (u8, u32) = match e {
        ServiceError::Closed => (0, 0),
        ServiceError::ShuttingDown => (1, 0),
        ServiceError::ShardDown(s) => (2, *s),
        ServiceError::Timeout => (3, 0),
        ServiceError::TenantExists(t) => (4, *t),
        ServiceError::UnknownTenant(t) => (5, *t),
        ServiceError::Busy => (6, 0),
        _ => (255, 0),
    };
    out.push(code);
    put_u32(out, detail);
    put_string(out, &e.to_string());
}

/// Decodes an `Err` payload back into a [`ServiceError`].
pub(crate) fn decode_error(bytes: &[u8]) -> Result<ServiceError, WireError> {
    let mut p = Payload::new(bytes, "Err");
    let e = take_error(&mut p)?;
    p.finish()?;
    Ok(e)
}

/// Reads the fields [`encode_error`] writes.
fn take_error(p: &mut Payload<'_>) -> Result<ServiceError, WireError> {
    let code = p.u8()?;
    let detail = p.u32()?;
    let message = p.string()?;
    Ok(match code {
        0 => ServiceError::Closed,
        1 => ServiceError::ShuttingDown,
        2 => ServiceError::ShardDown(detail),
        3 => ServiceError::Timeout,
        4 => ServiceError::TenantExists(detail),
        5 => ServiceError::UnknownTenant(detail),
        6 => ServiceError::Busy,
        _ => ServiceError::Remote(message),
    })
}

/// Encodes a `Batch` payload: counters, flags, optional error, then the
/// prefetch lines.
pub(crate) fn encode_batch_reply(
    out: &mut Vec<u8>,
    observed: u64,
    cancelled: bool,
    shed: bool,
    error: Option<&ServiceError>,
    prefetch_lines: &[ulmt_simcore::LineAddr],
) {
    put_u64(out, observed);
    let mut flags = 0u8;
    if cancelled {
        flags |= 1;
    }
    if shed {
        flags |= 2;
    }
    if error.is_some() {
        flags |= 4;
    }
    out.push(flags);
    if let Some(e) = error {
        encode_error(out, e);
    }
    ulmt_workloads::codec::encode_lines_into(prefetch_lines, out);
}

/// A decoded `Batch` payload (prefetches left as raw line bytes so the
/// caller can decode them into a reusable buffer).
pub(crate) struct BatchWire<'a> {
    pub observed: u64,
    pub cancelled: bool,
    pub shed: bool,
    pub error: Option<ServiceError>,
    pub prefetch_bytes: &'a [u8],
}

/// Decodes a `Batch` payload.
pub(crate) fn decode_batch_reply(bytes: &[u8]) -> Result<BatchWire<'_>, WireError> {
    let mut p = Payload::new(bytes, "Batch");
    let observed = p.u64()?;
    let flags = p.u8()?;
    let error = if flags & 4 != 0 {
        Some(take_error(&mut p)?)
    } else {
        None
    };
    Ok(BatchWire {
        observed,
        cancelled: flags & 1 != 0,
        shed: flags & 2 != 0,
        error,
        prefetch_bytes: p.rest(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulmt_simcore::ConfigError;

    #[test]
    fn hello_round_trips_every_spec_shape() {
        for spec in [
            TenantSpec::base(64),
            TenantSpec::chain(256).with_weight(7),
            TenantSpec::repl(1024)
                .with_queue_depth(9)
                .with_quota(AdmissionQuota::new(5, 11)),
        ] {
            let mut bytes = Vec::new();
            encode_hello(&mut bytes, 42, &spec);
            let (tenant, decoded) = decode_hello(&bytes).unwrap();
            assert_eq!(tenant, 42);
            assert_eq!(decoded, spec);
        }
    }

    #[test]
    fn hello_rejects_magic_version_and_truncation() {
        let mut bytes = Vec::new();
        encode_hello(&mut bytes, 1, &TenantSpec::repl(64));
        // Corrupt the magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_hello(&bad), Err(WireError::BadMagic(_))));
        // Bump the version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            decode_hello(&bad),
            Err(WireError::VersionMismatch {
                got: 99,
                want: WIRE_VERSION
            })
        ));
        // Truncate mid-spec.
        assert!(matches!(
            decode_hello(&bytes[..bytes.len() - 3]),
            Err(WireError::Truncated { .. })
        ));
        // Trailing garbage.
        bytes.push(0);
        assert!(matches!(
            decode_hello(&bytes),
            Err(WireError::BadPayload { .. })
        ));
    }

    #[test]
    fn frames_round_trip_through_a_byte_pipe() {
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, FrameKind::Fingerprint, &[]).unwrap();
        write_frame(&mut pipe, FrameKind::Submit, &[1, 2, 3]).unwrap();
        let mut cursor = std::io::Cursor::new(pipe);
        let mut buf = Vec::new();
        assert_eq!(
            read_frame_into(&mut cursor, &mut buf, 1024).unwrap(),
            FrameKind::Fingerprint
        );
        assert!(buf.is_empty());
        assert_eq!(
            read_frame_into(&mut cursor, &mut buf, 1024).unwrap(),
            FrameKind::Submit
        );
        assert_eq!(buf, vec![1, 2, 3]);
    }

    #[test]
    fn oversized_and_unknown_frames_are_typed() {
        // Oversized: length prefix above the cap, rejected pre-payload.
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, FrameKind::Submit, &[0; 64]).unwrap();
        let mut cursor = std::io::Cursor::new(pipe);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame_into(&mut cursor, &mut buf, 16),
            Err(WireError::Oversized { len: 64, max: 16 })
        ));
        // Unknown tag.
        let mut pipe = vec![0, 0, 0, 0, 0x77];
        let mut cursor = std::io::Cursor::new(&mut pipe);
        assert!(matches!(
            read_frame_into(&mut cursor, &mut buf, 16),
            Err(WireError::UnknownFrame(0x77))
        ));
        // Mid-frame EOF.
        let mut short = Vec::new();
        write_frame(&mut short, FrameKind::Submit, &[9; 32]).unwrap();
        short.truncate(short.len() - 5);
        let mut cursor = std::io::Cursor::new(short);
        match read_frame_into(&mut cursor, &mut buf, 1024) {
            Err(WireError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn errors_round_trip_with_exact_discriminants() {
        let exact = [
            ServiceError::Closed,
            ServiceError::ShuttingDown,
            ServiceError::ShardDown(3),
            ServiceError::Timeout,
            ServiceError::TenantExists(17),
            ServiceError::UnknownTenant(99),
            ServiceError::Busy,
        ];
        for e in exact {
            let mut bytes = Vec::new();
            encode_error(&mut bytes, &e);
            let back = decode_error(&bytes).unwrap();
            assert_eq!(format!("{e:?}"), format!("{back:?}"));
        }
        // Everything else collapses to Remote carrying the display text.
        let e = ServiceError::InvalidSpec(ConfigError::new("tenant", "nope"));
        let mut bytes = Vec::new();
        encode_error(&mut bytes, &e);
        match decode_error(&bytes).unwrap() {
            ServiceError::Remote(msg) => assert!(msg.contains("nope")),
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    #[test]
    fn stats_round_trip() {
        let stats = TenantStats {
            tenant: 5,
            batches: 10,
            observed: 640,
            rejected: 3,
            shed: 2,
            prefetches: 99,
            live_rows: 40,
            table_bytes: 4096,
        };
        let mut bytes = Vec::new();
        encode_stats(&mut bytes, &stats);
        assert_eq!(decode_stats(&bytes).unwrap(), stats);
        assert!(matches!(
            decode_stats(&bytes[..7]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn metrics_report_round_trips() {
        let mut batch_size = Log2Histogram::new();
        let mut queue_wait = Log2Histogram::new();
        let mut ingest = Log2Histogram::new();
        let mut checkpoint = Log2Histogram::new();
        for v in [0u64, 1, 3, 256, 1 << 40, u64::MAX] {
            batch_size.record(v);
            queue_wait.record(v / 2);
            ingest.record(v.saturating_add(7));
            checkpoint.record(v / 3);
        }
        let mut recovery_nanos = Log2Histogram::new();
        recovery_nanos.record(5_000_000);
        let report = MetricsReport {
            enabled: true,
            recoveries: 1,
            recovery_nanos,
            shards: vec![ShardMetrics {
                shard: 3,
                epoch: 2,
                batches: 10,
                observed: 640,
                prefetches: 99,
                rejected: 4,
                shed: 1,
                obs_cycles: 5120,
                wall_unix_nanos: 1_700_000_000_000_000_000,
                batch_size,
                queue_wait_nanos: queue_wait,
                ingest_nanos: ingest,
                checkpoint_nanos: checkpoint,
            }],
        };
        let mut bytes = Vec::new();
        encode_metrics(&mut bytes, &report);
        assert_eq!(decode_metrics(&bytes).unwrap(), report);

        // Empty (disabled) report round-trips too.
        let mut bytes = Vec::new();
        encode_metrics(&mut bytes, &MetricsReport::disabled());
        assert_eq!(decode_metrics(&bytes).unwrap(), MetricsReport::disabled());
    }

    #[test]
    fn metrics_decode_rejects_truncation_and_bad_buckets() {
        let mut bytes = Vec::new();
        encode_metrics(&mut bytes, &MetricsReport::disabled());
        assert!(matches!(
            decode_metrics(&bytes[..bytes.len() - 2]),
            Err(WireError::Truncated { .. })
        ));
        // A histogram advertising more buckets than exist is typed.
        let mut bad = Vec::new();
        bad.push(1); // enabled
        put_u64(&mut bad, 0); // recoveries
        put_u32(&mut bad, LOG2_BUCKETS as u32 + 1); // oversized histogram
        assert!(matches!(
            decode_metrics(&bad),
            Err(WireError::BadPayload { .. })
        ));
        // A bad enabled flag is typed.
        let mut bad = Vec::new();
        encode_metrics(&mut bad, &MetricsReport::disabled());
        bad[0] = 7;
        assert!(matches!(
            decode_metrics(&bad),
            Err(WireError::BadPayload { .. })
        ));
    }

    #[test]
    fn batch_reply_round_trips_flags_errors_and_prefetches() {
        use ulmt_simcore::LineAddr;
        let prefetches: Vec<LineAddr> = (0..5u64).map(LineAddr::new).collect();
        let mut bytes = Vec::new();
        encode_batch_reply(&mut bytes, 64, false, true, None, &prefetches);
        let wire = decode_batch_reply(&bytes).unwrap();
        assert_eq!(wire.observed, 64);
        assert!(!wire.cancelled);
        assert!(wire.shed);
        assert!(wire.error.is_none());
        assert_eq!(
            ulmt_workloads::codec::decode_lines(wire.prefetch_bytes).unwrap(),
            prefetches
        );

        let mut bytes = Vec::new();
        encode_batch_reply(
            &mut bytes,
            0,
            true,
            false,
            Some(&ServiceError::Timeout),
            &[],
        );
        let wire = decode_batch_reply(&bytes).unwrap();
        assert!(wire.cancelled);
        assert!(matches!(wire.error, Some(ServiceError::Timeout)));
        assert!(wire.prefetch_bytes.is_empty());
    }
}
