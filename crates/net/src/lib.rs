//! The pluggable transport layer for the CSCW/ODP middleware.
//!
//! Blair & Rodden's argument is that cooperation semantics (group
//! multicast, awareness distribution, trading) must ride an *open*
//! communication substrate, not a bespoke one. This crate makes that
//! separation concrete: protocol actors are written once against the
//! backend-neutral [`ctx::NetCtx`] capability trait and the
//! [`actor::TransportActor`] callback trait, then hosted on either
//!
//! * the **sim backend** ([`sim_host`]) — a zero-cost adapter onto
//!   `odp_sim`'s deterministic discrete-event scheduler, preserving
//!   byte-for-byte reproducible traces; or
//! * the **TCP backend** ([`tcp`]) — a threaded production driver on
//!   `std::net` loopback/LAN sockets with length-prefixed framing
//!   ([`wire`]), per-peer sequence numbers, heartbeat failure
//!   detection, bounded-buffer reconnect replay and crash forwarding
//!   (all implemented sans-IO in [`session`]).
//!
//! The split mirrors the session layer of the sans-IO protocol engines
//! elsewhere in the workspace: everything that can be pure state
//! machine is — the session ([`session::SessionLayer`]) and the TCP
//! driver's core ([`driver::DriverCore`]), which hands actors the
//! simulator's own `Ctx` — and the threads in [`tcp`] only move bytes,
//! read the clock and wait.

pub mod actor;
pub mod ctx;
pub mod driver;
pub mod error;
pub mod session;
pub mod sim_host;
pub mod tcp;
pub mod wire;

pub use actor::TransportActor;
pub use ctx::NetCtx;
pub use driver::DriverCore;
pub use error::NetError;
pub use session::{Frame, PeerEvent, SessionConfig, SessionLayer, SessionStats, SessionStep};
pub use sim_host::SimHost;
pub use tcp::{TcpConfig, TcpHandle, TcpNode, TcpReport};
pub use wire::{
    decode_frame, encode_frame, payload_as, payload_of, FrameStream, WireCodec, WireReader,
    MAX_FRAME,
};

/// Everything an actor port or a backend driver needs.
pub mod prelude {
    pub use crate::actor::TransportActor;
    pub use crate::ctx::NetCtx;
    pub use crate::error::NetError;
    pub use crate::sim_host::SimHost;
    pub use crate::wire::{WireCodec, WireReader};
}
