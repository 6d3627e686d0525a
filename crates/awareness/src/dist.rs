//! Network distribution of cooperation events over causal multicast.
//!
//! A [`BusActor`] hosts an [`EventBus`] replica on an [`odp_sim`] actor.
//! Publishing works like the collaboration-aware workspace of
//! `cscw-core`: the *publisher* runs the rights gate and focus–nimbus
//! weighting locally (so a suppressed observer's node never even
//! receives the event for them), then disseminates the surviving grants
//! over `odp_groupcomm` causal multicast (in an [`EngineHost`]). Each
//! node surfaces the grants addressed to observers it hosts, and
//! publishes only events injected at itself.
//!
//! With telemetry enabled, publications mint an `aware.publish` root
//! span and every surfaced grant mints an `aware.deliver` child from the
//! span piggybacked on the data message, so awareness fan-out appears in
//! `odp_telemetry` causal DAGs and critical paths alongside `gc.*` and
//! `rpc.*` spans.

use odp_groupcomm::host::EngineHost;
use odp_groupcomm::membership::View;
use odp_groupcomm::multicast::{Delivery, GcMsg, GroupEngine, Ordering, Reliability};
use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::NodeId;
use odp_sim::time::SimDuration;

use crate::bus::{BusDelivery, CoopEvent, EventBus};

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
/// the [`BusDelivery`]s surfaced for the node's own observer.
pub struct BusActor {
    host: EngineHost<BusWire>,
    bus: EventBus,
    me: NodeId,
    delivered: Vec<BusDelivery>,
    telemetry: bool,
}

impl BusActor {
    /// Creates a bus actor for `me`: causal ordering, reliable
    /// delivery, surfacing the grants addressed to `me`.
    pub fn new(me: NodeId, view: View, bus: EventBus) -> Self {
        BusActor {
            host: EngineHost::new(
                GroupEngine::new(me, view, Ordering::Causal, Reliability::reliable()),
                SimDuration::from_millis(50),
            ),
            bus,
            me,
            delivered: Vec::new(),
            telemetry: false,
        }
    }

    /// Enables `aware.publish`/`aware.deliver` span telemetry. Off by
    /// default — minting draws from the actor's rng stream, so enabling
    /// it perturbs runs that share a seed with an uninstrumented
    /// baseline.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
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

    /// Surfaces the grants of delivered wire messages that are
    /// addressed to this node's observer.
    fn surface(&mut self, ctx: &mut Ctx<'_, GcMsg<BusWire>>, deliveries: Vec<Delivery<BusWire>>) {
        for Delivery { span, payload, .. } in deliveries {
            for &(observer, weight) in &payload.grants {
                if observer != self.me {
                    continue;
                }
                ctx.metrics().incr("aware.deliver");
                if self.telemetry {
                    if let Some(parent) = span {
                        let child = ctx.rng().span_child(&parent);
                        ctx.span_instant(child, "aware.deliver");
                    }
                }
                self.delivered.push(BusDelivery {
                    observer,
                    event: payload.event.clone(),
                    weight,
                });
            }
        }
    }
}

/// Peer churn from a live transport is the membership layer's concern
/// ([`GcMsg::InstallView`]).
impl Actor<GcMsg<BusWire>> for BusActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GcMsg<BusWire>>) {
        self.host.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, GcMsg<BusWire>>, from: NodeId, msg: GcMsg<BusWire>) {
        match msg {
            GcMsg::AppCmd(_) if from != ctx.id() => ctx.trace("gc.foreign_cmd", from),
            GcMsg::AppCmd(mut wire) => {
                // The grant list travels in the envelope: building it
                // is the publish, once per event and not per observer.
                wire.grants = self
                    .bus
                    .publish(&wire.event)
                    .iter()
                    .map(|g| (g.observer, g.weight))
                    .collect();
                ctx.metrics().incr("aware.publish");
                let span = if self.telemetry {
                    // The publish root closes at issue time; deliveries
                    // hang aware.deliver children off it as they land.
                    let root = ctx.rng().span_root();
                    ctx.span_instant(root, "aware.publish");
                    Some(root)
                } else {
                    None
                };
                let delivered = self.host.mcast(ctx, wire, span);
                self.surface(ctx, delivered);
            }
            GcMsg::InstallView(view) => {
                self.host.engine_mut().install_view(view);
            }
            other => {
                let delivered = self.host.on_message(ctx, from, other);
                self.surface(ctx, delivered);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GcMsg<BusWire>>, _timer: TimerId, tag: u64) {
        self.host.on_timer(ctx, tag, |_| {});
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
    fn a_peer_cannot_publish_through_another_node() {
        // Observer 2 may not read doc/*; node 1 asks node 0 to publish.
        let mut sim = build(3, &[0, 1], 7, false);
        sim.inject(
            SimTime::from_millis(1),
            NodeId(1),
            NodeId(0),
            GcMsg::AppCmd(edit(0)),
        );
        sim.run(Until::For(SimDuration::from_secs(2)));
        for i in 0..3 {
            assert!(actor(&sim, i).delivered().is_empty(), "node {i}");
        }
        assert_eq!(actor(&sim, 0).bus().suppressed_by_rights(), 0);
        assert_eq!(sim.trace().with_label("gc.foreign_cmd").count(), 1);
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
        let kinds: Vec<_> = dag.spans().map(|s| &*s.kind).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "aware.publish").count(), 1);
        // One aware.deliver per surfaced grant (observers 1 and 2).
        assert_eq!(kinds.iter().filter(|k| **k == "aware.deliver").count(), 2);
    }
}
