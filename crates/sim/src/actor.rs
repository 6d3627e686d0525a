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

impl TimerId {
    /// Reconstructs a timer id from its raw counter value. Intended for
    /// alternative transport backends (e.g. `odp-net`'s TCP driver)
    /// that run their own timer wheel but hand actors the same handle
    /// type; sim code never needs this.
    pub fn from_raw(raw: u64) -> Self {
        TimerId(raw)
    }

    /// The raw counter value behind this id.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

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
}

/// A deferred effect produced by an actor callback; applied by the engine
/// after the callback returns.
#[derive(Debug)]
pub(crate) enum Effect<M> {
    Send { to: NodeId, msg: M, bytes: usize },
    SetTimer { id: TimerId, at: SimTime, tag: u64 },
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

    /// Sends the same message to every node in `to` (cloned per receiver).
    pub fn send_all(&mut self, to: impl IntoIterator<Item = NodeId>, msg: M)
    where
        M: Clone,
    {
        for node in to {
            self.send(node, msg.clone());
        }
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

    /// Records a labelled trace event attributed to this actor.
    pub fn trace(&mut self, label: impl Into<String>, data: impl Into<String>) {
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
}
