//! The driver-facing callback surface, over `odp_sim`'s one actor
//! trait.

use odp_sim::actor::{Actor, TimerId};
use odp_sim::net::NodeId;

use crate::ctx::NetCtx;

/// What the TCP driver calls. Every [`Actor`] is one, through the
/// blanket impl below: protocol code implements `Actor` alone and is
/// hosted unchanged on the simulator and on TCP. The peer callbacks
/// land in [`Actor::on_peer_up`] and [`Actor::on_peer_down`], which
/// only a live transport raises.
///
/// ```
/// use odp_net::prelude::*;
/// use odp_sim::prelude::*;
///
/// struct Echo;
/// impl Actor<String> for Echo {
///     fn on_message(&mut self, ctx: &mut Ctx<'_, String>, from: NodeId, msg: String) {
///         ctx.send(from, msg);
///     }
/// }
///
/// fn tcp_hostable<A: TransportActor<String>>(_: &A) {}
/// tcp_hostable(&Echo);
/// let mut sim = SimBuilder::new(1).build();
/// sim.add_actor(NodeId(0), Echo);
/// ```
pub trait TransportActor<M> {
    /// Called once when the host starts, before any message.
    fn on_start(&mut self, ctx: &mut dyn NetCtx<M>);

    /// Called when a message from `from` is delivered to this actor.
    fn on_message(&mut self, ctx: &mut dyn NetCtx<M>, from: NodeId, msg: M);

    /// Called when a timer the actor set fires.
    fn on_timer(&mut self, ctx: &mut dyn NetCtx<M>, timer: TimerId, tag: u64);

    /// A live transport established (or re-established) a session with
    /// `peer`.
    fn on_peer_up(&mut self, ctx: &mut dyn NetCtx<M>, peer: NodeId) {
        let _ = (ctx, peer);
    }

    /// A live transport declared `peer` failed (heartbeat timeout).
    fn on_peer_down(&mut self, ctx: &mut dyn NetCtx<M>, peer: NodeId) {
        let _ = (ctx, peer);
    }
}

impl<M, A: Actor<M>> TransportActor<M> for A {
    fn on_start(&mut self, ctx: &mut dyn NetCtx<M>) {
        Actor::on_start(self, &mut ctx.ctx());
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx<M>, from: NodeId, msg: M) {
        Actor::on_message(self, &mut ctx.ctx(), from, msg);
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx<M>, timer: TimerId, tag: u64) {
        Actor::on_timer(self, &mut ctx.ctx(), timer, tag);
    }

    fn on_peer_up(&mut self, ctx: &mut dyn NetCtx<M>, peer: NodeId) {
        Actor::on_peer_up(self, &mut ctx.ctx(), peer);
    }

    fn on_peer_down(&mut self, ctx: &mut dyn NetCtx<M>, peer: NodeId) {
        Actor::on_peer_down(self, &mut ctx.ctx(), peer);
    }
}

#[cfg(test)]
mod tests {
    use odp_sim::actor::Ctx;
    use odp_sim::time::{SimDuration, SimTime};

    use super::*;
    use crate::driver::{DriverCore, Input};
    use crate::session::{Frame, SessionConfig, SessionLayer};
    use crate::wire::MAX_FRAME;

    #[derive(Debug, PartialEq)]
    enum Seen {
        Up(NodeId),
        Down(NodeId),
    }

    /// A plain `Actor` that records the peer callbacks it is given.
    #[derive(Default)]
    struct Peers(Vec<Seen>);

    impl Actor<u32> for Peers {
        fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}

        fn on_peer_up(&mut self, _: &mut Ctx<'_, u32>, peer: NodeId) {
            self.0.push(Seen::Up(peer));
        }

        fn on_peer_down(&mut self, _: &mut Ctx<'_, u32>, peer: NodeId) {
            self.0.push(Seen::Down(peer));
        }
    }

    #[test]
    fn peer_callbacks_reach_a_plain_actor_through_the_blanket() {
        let ms = SimTime::from_millis;
        let cfg = SessionConfig::default();
        let peer = NodeId(1);
        let hello = || Input::Frame {
            from: peer,
            frame: Frame::Hello {
                from: peer,
                expected: 1,
            },
        };
        let session = SessionLayer::new(NodeId(0), cfg.clone());
        let mut core = DriverCore::new(session, 0, MAX_FRAME, Peers::default());
        core.start(ms(0));
        // A fresh session counts a peer alive from its first frame, so
        // that `Hello` raises nothing; the first callback is its death.
        core.handle(ms(0), hello());
        assert!(core.actor().0.is_empty());
        let silent = ms(0) + cfg.fail_after;
        core.tick(silent - SimDuration::from_millis(1));
        assert!(core.actor().0.is_empty(), "silence short of fail_after");
        core.tick(silent);
        assert_eq!(core.actor().0, [Seen::Down(peer)]);
        // A `Hello` from the dead peer raises it, and silence takes it
        // down again.
        core.handle(silent, hello());
        assert_eq!(core.actor().0, [Seen::Down(peer), Seen::Up(peer)]);
        core.tick(silent + cfg.fail_after);
        let (actor, _) = core.finish();
        assert_eq!(
            actor.0,
            [Seen::Down(peer), Seen::Up(peer), Seen::Down(peer)]
        );
    }
}
