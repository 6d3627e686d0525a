//! The context the TCP driver hands through [`TransportActor`].
//!
//! Actors program against `odp_sim::actor::Ctx` on every host. The
//! driver core builds that `Ctx` over its own clock reading with
//! `Ctx::new` and passes it on as a `&mut dyn NetCtx`; the blanket
//! [`TransportActor`] impl takes the `Ctx` back out with
//! [`NetCtx::ctx`].
//!
//! [`TransportActor`]: crate::actor::TransportActor

use odp_sim::actor::Ctx;

/// A host's context behind a trait object.
pub trait NetCtx<M> {
    /// The actor's `Ctx`, borrowed from this one.
    fn ctx(&mut self) -> Ctx<'_, M>;
}

impl<M> NetCtx<M> for Ctx<'_, M> {
    fn ctx(&mut self) -> Ctx<'_, M> {
        self.reborrow()
    }
}
