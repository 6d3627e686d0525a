//! Network distribution of cooperation events over causal multicast.
//!
//! A [`BusActor`] hosts an [`EventBus`] replica on an [`odp_sim`] actor.
//! Publishing works like the collaboration-aware workspace of
//! `cscw-core`: the *publisher* runs the rights gate and focus–nimbus
//! weighting locally (so a suppressed observer's node never even
//! receives the event for them), then disseminates the surviving grants
//! over `odp_groupcomm` causal multicast. Each node surfaces the grants
//! addressed to observers it hosts.
//!
//! With telemetry enabled, publications mint an `aware.publish` root
//! span and every surfaced grant mints an `aware.deliver` child from the
//! span piggybacked on the data message, so awareness fan-out appears in
//! `odp_telemetry` causal DAGs and critical paths alongside `gc.*` and
//! `rpc.*` spans.

use std::collections::BTreeSet;

use odp_groupcomm::membership::View;
use odp_groupcomm::multicast::{Delivery, GcMsg, GroupEngine, Ordering, Reliability, Step};
use odp_net::actor::TransportActor;
use odp_net::ctx::NetCtx;
use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::NodeId;
use odp_sim::time::SimDuration;

use crate::bus::{BusDelivery, CoopEvent, EventBus};

/// Maintenance-tick timer tag.
const TICK: u64 = 1;

/// The wire payload: a cooperation event plus the `(observer, weight)`
/// grants the publisher's bus cleared through the rights gate and
/// weighting. Receivers surface only grants for observers they host —
/// they never re-derive deliveries, so a publisher-side suppression is
/// final.
#[derive(Debug, Clone, PartialEq)]
pub struct BusWire {
    /// The event.
    pub event: CoopEvent,
    /// Cleared `(observer, weight)` grants (empty until published).
    pub grants: Vec<(NodeId, f64)>,
}

impl BusWire {
    /// Wraps an event for injection as a [`GcMsg::AppCmd`]; the
    /// publishing [`BusActor`] fills in the grants.
    pub fn new(event: CoopEvent) -> Self {
        BusWire {
            event,
            grants: Vec::new(),
        }
    }
}

/// An actor hosting an [`EventBus`] replica and distributing cleared
/// deliveries over causal reliable multicast.
///
/// Inject `GcMsg::AppCmd(BusWire::new(event))` at a node to publish
/// from it; after the run, [`BusActor::delivered`] on each node lists
/// the [`BusDelivery`]s surfaced for the observers that node hosts
/// (by default just the node itself).
pub struct BusActor {
    engine: GroupEngine<BusWire>,
    bus: EventBus,
    hosted: BTreeSet<NodeId>,
    delivered: Vec<BusDelivery>,
    tick_every: SimDuration,
    telemetry: bool,
}

impl BusActor {
    /// Creates a bus actor for `me`: causal ordering, reliable
    /// delivery, hosting `me` as its only local observer.
    pub fn new(me: NodeId, view: View, bus: EventBus) -> Self {
        BusActor {
            engine: GroupEngine::new(me, view, Ordering::Causal, Reliability::reliable()),
            bus,
            hosted: BTreeSet::from([me]),
            delivered: Vec::new(),
            tick_every: SimDuration::from_millis(50),
            telemetry: false,
        }
    }

    /// Declares that `observer` is hosted at this node, so its grants
    /// are surfaced here.
    pub fn host_observer(&mut self, observer: NodeId) {
        self.hosted.insert(observer);
    }

    /// Enables `aware.publish`/`aware.deliver` span telemetry. Off by
    /// default — minting draws from the actor's rng stream, so enabling
    /// it perturbs runs that share a seed with an uninstrumented
    /// baseline.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    /// Adjusts the maintenance tick period (default 50 ms).
    pub fn set_tick_interval(&mut self, every: SimDuration) {
        self.tick_every = every;
    }

    /// The hosted bus replica.
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// Mutable access to the hosted bus replica (policy renegotiation,
    /// observer churn).
    pub fn bus_mut(&mut self) -> &mut EventBus {
        &mut self.bus
    }

    /// Deliveries surfaced at this node, in arrival order.
    pub fn delivered(&self) -> &[BusDelivery] {
        &self.delivered
    }

    fn apply_step(&mut self, ctx: &mut dyn NetCtx<GcMsg<BusWire>>, step: Step<BusWire>) {
        for (to, msg) in step.outbound {
            ctx.send(to, msg);
        }
        for delivery in step.delivered {
            self.surface(ctx, delivery);
        }
    }

    /// Surfaces the grants of one delivered wire message that are
    /// addressed to locally hosted observers.
    fn surface(&mut self, ctx: &mut dyn NetCtx<GcMsg<BusWire>>, delivery: Delivery<BusWire>) {
        let wire = delivery.payload;
        for &(observer, weight) in &wire.grants {
            if !self.hosted.contains(&observer) {
                continue;
            }
            ctx.metrics().incr("aware.deliver");
            if self.telemetry {
                if let Some(parent) = delivery.span {
                    let child = ctx.rng().span_child(&parent);
                    ctx.span_open(child, "aware.deliver");
                    ctx.span_close(child);
                }
            }
            self.delivered.push(BusDelivery {
                observer,
                event: wire.event.clone(),
                weight,
            });
        }
    }
}

impl BusActor {
    fn handle_start(&mut self, ctx: &mut dyn NetCtx<GcMsg<BusWire>>) {
        ctx.set_timer(self.tick_every, TICK);
    }

    fn handle_message(
        &mut self,
        ctx: &mut dyn NetCtx<GcMsg<BusWire>>,
        from: NodeId,
        msg: GcMsg<BusWire>,
    ) {
        match msg {
            GcMsg::AppCmd(mut wire) => {
                let event = wire.event.clone();
                // The grant list travels in the envelope: building it
                // is the publish, once per event and not per observer.
                wire.grants = self
                    .bus
                    .publish(event)
                    .into_iter()
                    .map(|d| (d.observer, d.weight))
                    .collect(); // odp-check: allow(hot-path-alloc)
                ctx.metrics().incr("aware.publish");
                let span = if self.telemetry {
                    // The publish root closes at issue time; deliveries
                    // hang aware.deliver children off it as they land.
                    let root = ctx.rng().span_root();
                    ctx.span_open(root, "aware.publish");
                    ctx.span_close(root);
                    Some(root)
                } else {
                    None
                };
                let step = self.engine.mcast_spanned(wire, ctx.now(), span);
                self.apply_step(ctx, step);
            }
            GcMsg::InstallView(view) => {
                self.engine.install_view(view);
            }
            other => {
                let step = self.engine.on_message(from, other, ctx.now());
                self.apply_step(ctx, step);
            }
        }
    }

    fn handle_timer(&mut self, ctx: &mut dyn NetCtx<GcMsg<BusWire>>, tag: u64) {
        if tag == TICK {
            let step = self.engine.on_tick(ctx.now());
            self.apply_step(ctx, step);
            ctx.set_timer(self.tick_every, TICK);
        }
    }
}

/// Sim backend: `&mut Ctx` coerces to `&mut dyn NetCtx`, whose methods
/// forward 1:1, so seeded runs match the pre-`odp-net` adapter exactly.
impl Actor<GcMsg<BusWire>> for BusActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GcMsg<BusWire>>) {
        self.handle_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, GcMsg<BusWire>>, from: NodeId, msg: GcMsg<BusWire>) {
        self.handle_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GcMsg<BusWire>>, _timer: TimerId, tag: u64) {
        self.handle_timer(ctx, tag);
    }
}

/// Real-transport backends drive the same handlers; peer churn is the
/// membership layer's concern ([`GcMsg::InstallView`]).
impl TransportActor<GcMsg<BusWire>> for BusActor {
    fn on_start(&mut self, ctx: &mut dyn NetCtx<GcMsg<BusWire>>) {
        self.handle_start(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut dyn NetCtx<GcMsg<BusWire>>,
        from: NodeId,
        msg: GcMsg<BusWire>,
    ) {
        self.handle_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx<GcMsg<BusWire>>, _timer: TimerId, tag: u64) {
        self.handle_timer(ctx, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{CoopKind, CoopMode};
    use crate::events::ActivityKind;
    use odp_access::matrix::Subject;
    use odp_access::rbac::{Effect, RbacPolicy, RoleId};
    use odp_access::rights::Rights;
    use odp_groupcomm::membership::GroupId;
    use odp_sim::prelude::*;

    /// Everyone in `readers` may read `path/*`; everyone is a bus
    /// observer at threshold 0.
    fn gated_bus(n: u32, readers: &[u32], path: &str) -> EventBus {
        let mut policy = RbacPolicy::new();
        policy.add_rule(RoleId(1), path.into(), Rights::READ, Effect::Allow);
        for &r in readers {
            policy.assign(Subject(r), RoleId(1));
        }
        let mut bus = EventBus::new();
        bus.set_policy(policy);
        for i in 0..n {
            bus.register(NodeId(i), 0.0);
        }
        bus
    }

    fn build(n: u32, readers: &[u32], seed: u64, telemetry: bool) -> Sim<GcMsg<BusWire>> {
        let view = View::initial(GroupId(0), (0..n).map(NodeId));
        let mut sim = SimBuilder::new(seed).build();
        for i in 0..n {
            let mut actor = BusActor::new(NodeId(i), view.clone(), gated_bus(n, readers, "doc"));
            actor.set_telemetry(telemetry);
            sim.add_actor(NodeId(i), actor);
        }
        sim
    }

    fn actor(sim: &Sim<GcMsg<BusWire>>, i: u32) -> &BusActor {
        sim.get(ActorHandle::of(NodeId(i)))
            .expect("bus actor exists")
    }

    fn edit(actor: u32) -> BusWire {
        BusWire::new(CoopEvent::broadcast(
            NodeId(actor),
            "doc/a",
            SimTime::ZERO,
            CoopKind::Activity(ActivityKind::Edit),
        ))
    }

    #[test]
    fn grants_surface_only_at_the_observers_own_node() {
        let mut sim = build(3, &[0, 1, 2], 7, false);
        sim.inject(SimTime::from_millis(1), NodeId(0), NodeId(0), {
            GcMsg::AppCmd(edit(0))
        });
        sim.run(Until::For(SimDuration::from_secs(2)));
        // Broadcast from 0: observers 1 and 2 each see it exactly once,
        // at their own node; node 0 (the actor) surfaces nothing.
        assert!(actor(&sim, 0).delivered().is_empty());
        for i in 1..3u32 {
            let got = actor(&sim, i).delivered();
            assert_eq!(got.len(), 1, "node {i}");
            assert_eq!(got[0].observer, NodeId(i));
            assert_eq!(got[0].weight, 1.0);
        }
    }

    #[test]
    fn rights_suppression_happens_at_the_publisher() {
        // Observer 2 may not read doc/*.
        let mut sim = build(3, &[0, 1], 7, false);
        sim.inject(
            SimTime::from_millis(1),
            NodeId(0),
            NodeId(0),
            GcMsg::AppCmd(edit(0)),
        );
        sim.run(Until::For(SimDuration::from_secs(2)));
        assert_eq!(actor(&sim, 1).delivered().len(), 1);
        assert!(actor(&sim, 2).delivered().is_empty(), "gated out");
        // The suppression is counted at the publishing replica.
        assert_eq!(actor(&sim, 0).bus().suppressed_by_rights(), 1);
    }

    #[test]
    fn directed_events_reach_only_the_addressee() {
        let mut sim = build(3, &[0, 1, 2], 11, false);
        sim.inject(
            SimTime::from_millis(1),
            NodeId(0),
            NodeId(0),
            GcMsg::AppCmd(BusWire::new(CoopEvent::direct(
                NodeId(0),
                NodeId(2),
                "doc/a",
                SimTime::ZERO,
                CoopKind::LockGranted {
                    mode: CoopMode::Exclusive,
                },
            ))),
        );
        sim.run(Until::For(SimDuration::from_secs(2)));
        assert!(actor(&sim, 1).delivered().is_empty());
        let got = actor(&sim, 2).delivered();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].event.kind.label(), "lock.granted");
    }

    #[test]
    fn telemetry_links_publish_and_deliver_spans_causally() {
        use odp_telemetry::collector::Collector;

        let mut sim = build(3, &[0, 1, 2], 13, true);
        sim.inject(
            SimTime::from_millis(1),
            NodeId(0),
            NodeId(0),
            GcMsg::AppCmd(edit(0)),
        );
        sim.run(Until::For(SimDuration::from_secs(2)));
        let collector = Collector::from_trace(sim.trace());
        collector.well_formed().expect("aware spans well-formed");
        assert_eq!(collector.len(), 1, "one publication, one causal trace");
        let (_, dag) = collector.traces().next().unwrap();
        let kinds: Vec<_> = dag.spans().map(|s| s.kind.as_str()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "aware.publish").count(), 1);
        // One aware.deliver per surfaced grant (observers 1 and 2).
        assert_eq!(kinds.iter().filter(|k| **k == "aware.deliver").count(), 2);
    }

    #[test]
    fn hosted_observers_surface_at_their_host() {
        // Node 0 hosts an extra (non-member) observer 9 with read
        // rights: its grants surface at node 0.
        let view = View::initial(GroupId(0), (0..2).map(NodeId));
        let mut sim: Sim<GcMsg<BusWire>> = SimBuilder::new(3).build();
        for i in 0..2u32 {
            let mut bus = gated_bus(2, &[0, 1], "doc");
            bus.policy_mut().assign(Subject(9), RoleId(1));
            bus.register(NodeId(9), 0.0);
            let mut actor = BusActor::new(NodeId(i), view.clone(), bus);
            if i == 0 {
                actor.host_observer(NodeId(9));
            }
            sim.add_actor(NodeId(i), actor);
        }
        sim.inject(
            SimTime::from_millis(1),
            NodeId(1),
            NodeId(1),
            GcMsg::AppCmd(edit(1)),
        );
        sim.run(Until::For(SimDuration::from_secs(2)));
        let at0: Vec<NodeId> = actor(&sim, 0)
            .delivered()
            .iter()
            .map(|d| d.observer)
            .collect();
        assert_eq!(at0, vec![NodeId(0), NodeId(9)]);
    }
}
