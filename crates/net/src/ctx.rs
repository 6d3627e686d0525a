//! The backend-neutral capability handle actors program against.
//!
//! [`NetCtx`] is the dyn-compatible intersection of what a protocol
//! actor may ask of its host: the clock, its identity, its seeded RNG,
//! framed sends, timers, metrics and trace. `odp_sim::actor::Ctx` is
//! its one implementation (every method is a 1:1 forward, so a ported
//! actor's sim behaviour — including its RNG draw order and trace
//! stream — is byte-for-byte unchanged); the TCP driver's core builds
//! the same `Ctx` over its own clock reading with `Ctx::new`.

use std::fmt;

use odp_fabric::SpanCarrier;
use odp_sim::actor::{Ctx, TimerId};
use odp_sim::metrics::MetricsRegistry;
use odp_sim::net::NodeId;
use odp_sim::rng::DetRng;
use odp_sim::time::{SimDuration, SimTime};

/// What a transport-hosted actor can do, independent of backend.
///
/// The trait is deliberately dyn-compatible (concrete `&str` and
/// `&dyn Display` parameters, no generics) so actor handlers take
/// `&mut dyn NetCtx<M>` and compile once for all backends.
pub trait NetCtx<M> {
    /// The current time: simulated time on the sim backend, elapsed
    /// wall time since node start on the TCP backend.
    fn now(&self) -> SimTime;

    /// This actor's node id.
    fn id(&self) -> NodeId;

    /// This actor's private deterministic RNG (seeded per node on both
    /// backends).
    fn rng(&mut self) -> &mut DetRng;

    /// Sends `msg` to `to` with the backend's default accounting size.
    fn send(&mut self, to: NodeId, msg: M);

    /// Sends `msg` to `to` accounting for `bytes` on the wire. The sim
    /// backend feeds its bandwidth model with it; the TCP backend
    /// ignores the hint (real frames have real sizes).
    fn send_sized(&mut self, to: NodeId, msg: M, bytes: usize);

    /// Schedules [`TransportActor::on_timer`](crate::actor::TransportActor::on_timer)
    /// after `delay` with `tag`.
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId;

    /// Cancels a pending timer (firing after cancellation is
    /// suppressed; cancelling a fired timer is a no-op).
    fn cancel_timer(&mut self, id: TimerId);

    /// The host's metrics registry.
    fn metrics(&mut self) -> &mut MetricsRegistry;

    /// Records a labelled trace event attributed to this actor; `data`
    /// is formatted straight into the record (pass the value or a
    /// `&format_args!(..)`).
    fn trace(&mut self, label: &str, data: &dyn fmt::Display);

    /// Records a telemetry span opening into the host's binary span
    /// log (the allocation-free fast path; see
    /// [`odp_fabric::SpanLog`]).
    fn span_open(&mut self, span: SpanCarrier, kind: &str);

    /// Records a telemetry span closing into the host's binary span log.
    fn span_close(&mut self, span: SpanCarrier);
}

impl<M> NetCtx<M> for Ctx<'_, M> {
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }

    fn id(&self) -> NodeId {
        Ctx::id(self)
    }

    fn rng(&mut self) -> &mut DetRng {
        Ctx::rng(self)
    }

    fn send(&mut self, to: NodeId, msg: M) {
        Ctx::send(self, to, msg);
    }

    fn send_sized(&mut self, to: NodeId, msg: M, bytes: usize) {
        Ctx::send_sized(self, to, msg, bytes);
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        Ctx::set_timer(self, delay, tag)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        Ctx::cancel_timer(self, id);
    }

    fn metrics(&mut self) -> &mut MetricsRegistry {
        Ctx::metrics(self)
    }

    fn trace(&mut self, label: &str, data: &dyn fmt::Display) {
        Ctx::trace(self, label, data);
    }

    fn span_open(&mut self, span: SpanCarrier, kind: &str) {
        Ctx::span_open(self, span, kind);
    }

    fn span_close(&mut self, span: SpanCarrier) {
        Ctx::span_close(self, span);
    }
}
