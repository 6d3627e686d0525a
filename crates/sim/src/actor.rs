//! The actor programming model: protocol state machines driven by
//! messages and timers.

use std::fmt;

use crate::metrics::MetricsRegistry;
use crate::net::NodeId;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// Identifies a pending timer, for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// A protocol participant hosted on one simulated node.
///
/// Implementations are plain state machines: all effects (sending,
/// scheduling) go through the [`Ctx`] handed to each callback, which keeps
/// the run deterministic.
///
/// # Examples
///
/// ```
/// use odp_sim::prelude::*;
///
/// struct Echo;
/// impl Actor<String> for Echo {
///     fn on_message(&mut self, ctx: &mut Ctx<'_, String>, from: NodeId, msg: String) {
///         ctx.send(from, msg);
///     }
/// }
/// ```
pub trait Actor<M> {
    /// Called once when the simulation starts (before any message).
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered to this actor.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// Called when a timer set by this actor fires. `tag` is the value
    /// passed to [`Ctx::set_timer`].
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: TimerId, tag: u64) {
        let _ = (ctx, timer, tag);
    }

    /// A live transport established (or re-established) a session with
    /// `peer`. Raised only by `odp-net`'s TCP driver: the simulator
    /// models failure inside its network, and actors observe it through
    /// their protocol engines.
    fn on_peer_up(&mut self, ctx: &mut Ctx<'_, M>, peer: NodeId) {
        let _ = (ctx, peer);
    }

    /// A live transport declared `peer` failed (heartbeat timeout).
    /// Raised only by `odp-net`'s TCP driver.
    fn on_peer_down(&mut self, ctx: &mut Ctx<'_, M>, peer: NodeId) {
        let _ = (ctx, peer);
    }
}

/// A deferred effect produced by an actor callback; the host applies it
/// after the callback returns, in the order the callback produced it.
#[derive(Debug)]
pub enum Effect<M> {
    /// Send `msg` to `to`, accounting `bytes` on the wire.
    Send {
        /// The receiver.
        to: NodeId,
        /// The message.
        msg: M,
        /// Its size for the bandwidth model.
        bytes: usize,
    },
    /// Fire [`Actor::on_timer`] with `id` and `tag` at `at`.
    SetTimer {
        /// The id [`Ctx::set_timer`] returned.
        id: TimerId,
        /// When it is due.
        at: SimTime,
        /// The caller's tag.
        tag: u64,
    },
    /// Disarm a timer; one that fired or was cancelled is left alone.
    CancelTimer(TimerId),
}

/// The capability handle given to actor callbacks: read the clock, send
/// messages, set timers, record metrics and trace events.
pub struct Ctx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) id: NodeId,
    pub(crate) rng: &'a mut DetRng,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
    pub(crate) metrics: &'a mut MetricsRegistry,
    pub(crate) trace: &'a mut Trace,
    pub(crate) next_timer: &'a mut u64,
    pub(crate) default_msg_bytes: usize,
}

impl<'a, M> Ctx<'a, M> {
    /// A context for a host that runs actors outside [`Sim`](crate::sim::Sim)
    /// (`odp-net`'s TCP driver core): the callback's effects land in
    /// `effects`, timer ids are drawn from `next_timer`, and a plain
    /// [`Ctx::send`] accounts zero bytes — such a host sizes its frames
    /// itself.
    pub fn new(
        now: SimTime,
        id: NodeId,
        rng: &'a mut DetRng,
        effects: &'a mut Vec<Effect<M>>,
        metrics: &'a mut MetricsRegistry,
        trace: &'a mut Trace,
        next_timer: &'a mut u64,
    ) -> Self {
        Ctx {
            now,
            id,
            rng,
            effects,
            metrics,
            trace,
            next_timer,
            default_msg_bytes: 0,
        }
    }

    /// A shorter-lived handle onto the same clock, effects, timers,
    /// metrics and trace, for a host that holds the context behind a
    /// trait object and hands an actor its own `Ctx`.
    pub fn reborrow(&mut self) -> Ctx<'_, M> {
        Ctx {
            now: self.now,
            id: self.id,
            rng: self.rng,
            effects: self.effects,
            metrics: self.metrics,
            trace: self.trace,
            next_timer: self.next_timer,
            default_msg_bytes: self.default_msg_bytes,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This actor's private deterministic RNG.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Sends `msg` to `to` with the engine's default wire size.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let bytes = self.default_msg_bytes;
        self.send_sized(to, msg, bytes);
    }

    /// Sends `msg` to `to` accounting for `bytes` on the wire (drives the
    /// bandwidth model; continuous-media senders use real frame sizes).
    pub fn send_sized(&mut self, to: NodeId, msg: M, bytes: usize) {
        self.effects.push(Effect::Send { to, msg, bytes });
    }

    /// Schedules [`Actor::on_timer`] to fire after `delay` with `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::SetTimer {
            id,
            at: self.now + delay,
            tag,
        });
        id
    }

    /// Cancels a pending timer: it leaves the event queue as soon as
    /// this callback returns, and will not fire. Cancelling a timer
    /// that already fired or was already cancelled does nothing.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// The run-wide metrics registry.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        self.metrics
    }

    /// Records a labelled trace event attributed to this actor; `data`
    /// is formatted straight into the record (pass the value or a
    /// `format_args!`, not a `String` built for the call).
    pub fn trace(&mut self, label: &str, data: impl fmt::Display) {
        self.trace.record(self.now, self.id, label, data);
    }

    /// Records a telemetry span opening into the binary span log — the
    /// allocation-free fast path telemetry instrumentation uses instead
    /// of hex-string trace events.
    pub fn span_open(&mut self, span: odp_fabric::SpanCarrier, kind: &str) {
        self.trace.span_open(self.now, self.id, span, kind);
    }

    /// Records a telemetry span closing into the binary span log.
    pub fn span_close(&mut self, span: odp_fabric::SpanCarrier) {
        self.trace.span_close(self.now, self.id, span);
    }

    /// Records a telemetry span that opens and closes now — a delivery,
    /// a served request — as one record of the binary span log. Use
    /// [`Ctx::span_open`] and [`Ctx::span_close`] only for a span that
    /// outlives this handler.
    pub fn span_instant(&mut self, span: odp_fabric::SpanCarrier, kind: &str) {
        self.trace.span_instant(self.now, self.id, span, kind);
    }
}
