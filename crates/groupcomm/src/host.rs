//! Hosting a [`GroupEngine`] on an actor. Every service built on group
//! communication holds an [`EngineHost`], which alone arms the engine's
//! maintenance tick and puts its [`Step`]s on the wire; the service
//! handles only the deliveries it hands back.

use odp_fabric::SpanCarrier;
use odp_sim::actor::Ctx;
use odp_sim::net::NodeId;
use odp_sim::time::SimDuration;

use crate::multicast::{Delivery, GcMsg, GroupEngine, Step};

const TICK: u64 = 1;

/// A [`GroupEngine`] and its maintenance tick, hosted on an actor whose
/// message type wraps [`GcMsg`]. The tick uses timer tag 1; the
/// actor's own timers must use other tags.
pub struct EngineHost<P> {
    engine: GroupEngine<P>,
    period: SimDuration,
}

impl<P: Clone> EngineHost<P> {
    /// Hosts `engine`, ticking it every `period` once started.
    pub fn new(engine: GroupEngine<P>, period: SimDuration) -> Self {
        EngineHost { engine, period }
    }

    /// The hosted engine.
    pub fn engine(&self) -> &GroupEngine<P> {
        &self.engine
    }

    /// The hosted engine, for view installs and
    /// [`GroupEngine::resume_seq_from`].
    pub fn engine_mut(&mut self) -> &mut GroupEngine<P> {
        &mut self.engine
    }

    /// Arms the first maintenance tick (call from `Actor::on_start`).
    pub fn start<M>(&self, ctx: &mut Ctx<'_, M>) {
        ctx.set_timer(self.period, TICK);
    }

    /// Multicasts `payload`, piggybacking `span` for telemetry, and
    /// returns what this member delivers at once (see
    /// [`GroupEngine::mcast`]).
    pub fn mcast<M: From<GcMsg<P>>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        payload: P,
        span: Option<SpanCarrier>,
    ) -> Vec<Delivery<P>> {
        let step = self.engine.mcast_spanned(payload, ctx.now(), span);
        send(ctx, step)
    }

    /// Handles a group envelope from `from` and returns the deliveries
    /// it released, in order.
    pub fn on_message<M: From<GcMsg<P>>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        msg: GcMsg<P>,
    ) -> Vec<Delivery<P>> {
        let step = self.engine.on_message(from, msg, ctx.now());
        send(ctx, step)
    }

    /// On the host's tag: sends the engine's retransmissions, runs
    /// `also` (the actor's own periodic upkeep), re-arms the tick and
    /// returns how many envelopes the tick sent. `None`, doing nothing,
    /// for any other tag.
    pub fn on_timer<M: From<GcMsg<P>>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        tag: u64,
        also: impl FnOnce(&mut Ctx<'_, M>),
    ) -> Option<usize> {
        if tag != TICK {
            return None;
        }
        let step = self.engine.on_tick(ctx.now());
        debug_assert!(step.delivered.is_empty(), "a tick only resends");
        let sent = step.outbound.len();
        send(ctx, step);
        also(ctx);
        ctx.set_timer(self.period, TICK);
        Some(sent)
    }
}

/// Sends `step`'s envelopes in order and hands back its deliveries.
fn send<P, M: From<GcMsg<P>>>(ctx: &mut Ctx<'_, M>, step: Step<P>) -> Vec<Delivery<P>> {
    for (to, msg) in step.outbound {
        ctx.send(to, msg.into());
    }
    step.delivered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::{GroupId, View};
    use crate::multicast::{Ordering, Reliability};
    use odp_sim::actor::Effect;
    use odp_sim::prelude::*;

    const PERIOD: SimDuration = SimDuration::from_millis(50);

    /// What one callback left in its effect queue, in order: a send's
    /// destination or a timer's due time and tag.
    #[derive(Debug, PartialEq)]
    enum Fx {
        Send(NodeId),
        Timer(SimTime, u64),
    }

    /// Runs `call` as node 0's callback at `now` and lists its effects.
    fn effects(now: SimTime, call: impl FnOnce(&mut Ctx<'_, GcMsg<u32>>)) -> Vec<Fx> {
        let (mut rng, mut metrics, mut trace) =
            (DetRng::seed_from(1), MetricsRegistry::new(), Trace::new());
        let (mut queue, mut next_timer) = (Vec::new(), 0);
        call(&mut Ctx::new(
            now,
            NodeId(0),
            &mut rng,
            &mut queue,
            &mut metrics,
            &mut trace,
            &mut next_timer,
        ));
        queue
            .into_iter()
            .map(|effect| match effect {
                Effect::Send { to, .. } => Fx::Send(to),
                Effect::SetTimer { at, tag, .. } => Fx::Timer(at, tag),
                Effect::CancelTimer(_) => unreachable!("the host cancels nothing"),
            })
            .collect()
    }

    fn host() -> EngineHost<u32> {
        let view = View::initial(GroupId(0), [NodeId(0), NodeId(1)]);
        let engine = GroupEngine::new(NodeId(0), view, Ordering::Fifo, Reliability::reliable());
        EngineHost::new(engine, PERIOD)
    }

    #[test]
    fn start_arms_one_tick_at_the_period() {
        let fx = effects(SimTime::ZERO, |ctx| host().start(ctx));
        assert_eq!(fx, [Fx::Timer(SimTime::ZERO + PERIOD, TICK)]);
    }

    #[test]
    fn a_fired_tick_rearms_once() {
        let at = SimTime::from_millis(50);
        let fx = effects(at, |ctx| {
            assert_eq!(host().on_timer(ctx, TICK, |_| {}), Some(0));
        });
        assert_eq!(fx, [Fx::Timer(at + PERIOD, TICK)]);
    }

    #[test]
    fn a_foreign_tag_is_left_to_the_actor() {
        let fx = effects(SimTime::ZERO, |ctx| {
            let ran = host().on_timer(ctx, TICK + 1, |_| unreachable!("not the host's tick"));
            assert_eq!(ran, None);
        });
        assert!(fx.is_empty());
    }

    #[test]
    fn upkeep_runs_between_the_retransmissions_and_the_rearm() {
        let mut host = host();
        let sent = effects(SimTime::ZERO, |ctx| {
            host.mcast(ctx, 7, None);
        });
        assert_eq!(sent, [Fx::Send(NodeId(1))]);
        // Unacked past `retransmit_after`: the data goes out again.
        let at = SimTime::from_millis(200);
        let fx = effects(at, |ctx| {
            let resent = host.on_timer(ctx, TICK, |ctx| ctx.send(NodeId(9), GcMsg::AppCmd(0)));
            assert_eq!(resent, Some(1));
        });
        let order = [
            Fx::Send(NodeId(1)),
            Fx::Send(NodeId(9)),
            Fx::Timer(at + PERIOD, TICK),
        ];
        assert_eq!(fx, order);
    }
}
