//! The deterministic backend: hosting a [`TransportActor`] on the
//! `odp_sim` scheduler.
//!
//! [`SimHost`] is a zero-state newtype whose `Actor` impl forwards each
//! sim callback to the wrapped [`TransportActor`] through the
//! `NetCtx`-for-`Ctx` blanket in [`crate::ctx`]. Because every `NetCtx`
//! method is a direct 1:1 forward onto `Ctx`, a scenario built from
//! `SimHost`-wrapped actors produces the *same* event schedule, RNG
//! draw order, metrics and trace stream as the un-wrapped actor did —
//! the bit-identity the transport refactor promises (and
//! `crates/net/tests/sim_identical.rs` pins down for the awareness
//! fan-out scenario).

use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::NodeId;

use crate::actor::TransportActor;

/// Hosts a [`TransportActor`] as a plain `odp_sim` actor.
///
/// ```
/// use odp_net::prelude::*;
/// use odp_sim::prelude::*;
///
/// struct Echo;
/// impl TransportActor<String> for Echo {
///     fn on_message(&mut self, ctx: &mut dyn NetCtx<String>, from: NodeId, msg: String) {
///         ctx.send(from, msg);
///     }
/// }
///
/// let mut sim = SimBuilder::new(1).build();
/// sim.add_actor(NodeId(0), SimHost::new(Echo));
/// ```
pub struct SimHost<A> {
    inner: A,
}

impl<A> SimHost<A> {
    /// Wraps `actor` for the sim backend.
    pub fn new(actor: A) -> Self {
        SimHost { inner: actor }
    }

    /// The hosted actor (post-run inspection).
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<M: 'static, A: TransportActor<M>> Actor<M> for SimHost<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M) {
        self.inner.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: TimerId, tag: u64) {
        self.inner.on_timer(ctx, timer, tag);
    }
}
