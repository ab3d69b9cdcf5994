//! Network front-end: the prefetch service over TCP.
//!
//! The paper's premise is that correlation prefetching pays off when
//! miss observations reach the memory-side engine cheaply; once the
//! engine is a shared service, the observation-delivery path *is* the
//! product. This module is that path, built on `std::net` alone: a
//! length-prefixed, versioned binary wire protocol ([`wire`]) framing
//! the existing [`encode_lines`](ulmt_workloads::codec::encode_lines)
//! batch encoding and the service control ops, a thread-per-connection
//! [`NetServer`] behind a bounded acceptor, and a blocking [`NetClient`]
//! mirroring the in-process [`Session`](crate::Session) API.
//!
//! Invariants carried over the wire, verbatim from the in-process path:
//!
//! * **nothing is silently dropped** — backpressure surfaces as a NACK
//!   frame that echoes the entire batch back to the client;
//! * **counts are conservation-exact** — each connection is backed by a
//!   real server-side session, so rejected/shed piggyback accounting
//!   works unchanged;
//! * **determinism** — the bytes a client frames are the bytes the
//!   shard learns from, so network-path table fingerprints are
//!   bit-identical to in-process ones (checked by the `net` tests).

mod client;
mod server;
pub mod wire;

pub use client::{NetClient, NetSubmit};
pub use server::NetServer;
pub use wire::{
    read_frame_into, read_frame_rest, write_frame, FrameKind, NackReason, WireError, HEADER_BYTES,
    MAGIC, WIRE_VERSION,
};
