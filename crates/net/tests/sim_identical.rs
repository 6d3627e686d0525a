//! The transport refactor's central promise: hosting an actor on the
//! sim backend through [`SimHost`] is *bit-identical* to running it as
//! a plain `odp_sim` actor.
//!
//! The workload is the E13 awareness fan-out scenario: 8 [`BusActor`]
//! replicas over a 15 ms WAN, 4 broadcast edits each, telemetry on so
//! span minting draws from every actor's RNG stream, on a rights-gated
//! bus (6 of the 8 observers may read the artefact) and on an open one.
//! The same seeded scenario is built twice (bare actors vs
//! `SimHost`-wrapped) and the full observable record is compared: trace
//! event streams (including RNG-derived span ids), metrics counters, and
//! each replica's surfaced deliveries. The bare run is then held to its
//! exact delivery and span census.

use std::collections::BTreeMap;

use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, RbacPolicy, RoleId};
use odp_access::rights::Rights;
use odp_awareness::bus::{CoopEvent, CoopKind, EventBus};
use odp_awareness::dist::{BusActor, BusWire};
use odp_awareness::events::ActivityKind;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::GcMsg;
use odp_net::sim_host::SimHost;
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{ActorHandle, Sim, SimBuilder, Until};
use odp_sim::time::{SimDuration, SimTime};
use odp_telemetry::collector::Collector;
use odp_telemetry::report::TelemetryReport;

const REPLICAS: u32 = 8;
const WRITES_EACH: u32 = 4;
const READERS: u32 = 6;
const ARTEFACT: &str = "doc/plan";

fn reader_policy() -> RbacPolicy {
    let mut policy = RbacPolicy::new();
    policy.add_rule(RoleId(1), "doc".into(), Rights::READ, Effect::Allow);
    for i in 0..READERS {
        policy.assign(Subject(i), RoleId(1));
    }
    policy
}

/// A bus observing every replica; `gated` arms its rights gate with
/// [`reader_policy`].
fn replica_bus(gated: bool) -> EventBus {
    let mut bus = EventBus::new();
    if gated {
        bus.set_policy(reader_policy());
    }
    for i in 0..REPLICAS {
        bus.register(NodeId(i), 0.0);
    }
    bus
}

fn replica(i: u32, gated: bool) -> BusActor {
    let view = View::initial(GroupId(0), (0..REPLICAS).map(NodeId));
    let mut actor = BusActor::new(NodeId(i), view, replica_bus(gated));
    actor.set_telemetry(true);
    actor
}

/// Builds the E13 fan-out sim; `wrapped` hosts every replica behind
/// [`SimHost`] instead of registering it directly.
fn fanout_sim(seed: u64, wrapped: bool, gated: bool) -> Sim<GcMsg<BusWire>> {
    let link = LinkSpec::wan(SimDuration::from_millis(15));
    let net = Network::new(link);
    let mut sim: Sim<GcMsg<BusWire>> = SimBuilder::new(seed).network(net).build();
    for i in 0..REPLICAS {
        if wrapped {
            sim.add_actor(NodeId(i), SimHost::new(replica(i, gated)));
        } else {
            sim.add_actor(NodeId(i), replica(i, gated));
        }
    }
    for i in 0..REPLICAS {
        for w in 0..WRITES_EACH {
            let at = SimTime::from_millis(10 + w as u64 * 50);
            sim.inject(
                at,
                NodeId(i),
                NodeId(i),
                GcMsg::AppCmd(BusWire::new(CoopEvent::broadcast(
                    NodeId(i),
                    ARTEFACT,
                    at,
                    CoopKind::Activity(ActivityKind::Edit),
                ))),
            );
        }
    }
    sim
}

fn counters(sim: &Sim<GcMsg<BusWire>>) -> BTreeMap<String, u64> {
    sim.metrics()
        .counters()
        .map(|(name, value)| (name.to_owned(), value))
        .collect()
}

/// `(observer, publisher, weight)` per surfaced delivery, per node.
fn deliveries(actor: &BusActor) -> Vec<(NodeId, NodeId, f64)> {
    actor
        .delivered()
        .iter()
        .map(|d| (d.observer, d.event.actor, d.weight))
        .collect()
}

/// Deliveries surfaced across the bare replicas, and the publications
/// their rights gates suppressed.
fn census(sim: &Sim<GcMsg<BusWire>>) -> (usize, u64) {
    (0..REPLICAS)
        .map(|i| {
            sim.get::<BusActor>(ActorHandle::of(NodeId(i)))
                .expect("bare replica")
        })
        .fold((0, 0), |(delivered, suppressed), r| {
            (
                delivered + r.delivered().len(),
                suppressed + r.bus().suppressed_by_rights(),
            )
        })
}

#[test]
fn sim_host_is_bit_identical_on_the_e13_fanout() {
    // Each of the 32 publications is offered to the observers of the 7
    // other replicas. Open, all 7 surface it: 224. Gated, the readers
    // do (5 of them when the publisher is a reader, 24 publications; 6
    // when not, 8) and the rest are suppressed: 24 * 5 + 8 * 6 = 168
    // surfaced, 24 * 2 + 8 * 1 = 56 suppressed.
    for seed in [1u64, 42, 0xC5C3] {
        for (gated, expected) in [(true, (168, 56)), (false, (224, 0))] {
            let mut bare = fanout_sim(seed, false, gated);
            let mut wrapped = fanout_sim(seed, true, gated);
            bare.run(Until::For(SimDuration::from_secs(30)));
            wrapped.run(Until::For(SimDuration::from_secs(30)));

            // The trace is the strongest witness: event order, timestamps,
            // and RNG-derived span ids must agree entry for entry.
            assert_eq!(
                bare.trace().events(),
                wrapped.trace().events(),
                "trace diverged on seed {seed}, gated {gated}"
            );
            assert_eq!(
                counters(&bare),
                counters(&wrapped),
                "metrics diverged on seed {seed}, gated {gated}"
            );

            // And the application-level outcome matches replica by replica.
            for i in 0..REPLICAS {
                let b: &BusActor = bare.get(ActorHandle::of(NodeId(i))).expect("bare replica");
                let w: &SimHost<BusActor> = wrapped
                    .get(ActorHandle::of(NodeId(i)))
                    .expect("wrapped replica");
                assert_eq!(
                    deliveries(b),
                    deliveries(w.inner()),
                    "deliveries diverged at node {i} on seed {seed}, gated {gated}"
                );
            }
            assert_eq!(
                census(&bare),
                expected,
                "(surfaced, suppressed) on seed {seed}, gated {gated}"
            );

            // One well-formed `aware.publish` root per publication and one
            // `aware.deliver` child per surfaced grant.
            let collector = Collector::from_trace(bare.trace());
            if let Err(e) = collector.well_formed() {
                panic!("span audit failed on seed {seed}, gated {gated}: {e}");
            }
            let report = TelemetryReport::from_collector(seed, &collector, bare.trace().dropped());
            let aware = &report.subsystems["aware"].counters;
            assert_eq!(
                (aware["aware.publish"], aware["aware.deliver"]),
                (u64::from(REPLICAS * WRITES_EACH), expected.0 as u64),
                "span census on seed {seed}, gated {gated}"
            );
        }
    }
}
