//! The transport refactor's central promise: hosting an actor on the
//! sim backend through [`SimHost`] is *bit-identical* to running it as
//! a plain `odp_sim` actor.
//!
//! The workload is the E13 awareness fan-out scenario from
//! `cscw-bench` — 8 rights-gated [`BusActor`] replicas over a 15 ms
//! WAN, 4 broadcast edits each, telemetry on so span minting draws from
//! every actor's RNG stream. The same seeded scenario is built twice
//! (bare actors vs `SimHost`-wrapped) and the full observable record is
//! compared: trace event streams (including RNG-derived span ids),
//! metrics counters, and each replica's surfaced deliveries.

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

fn replica_bus() -> EventBus {
    let mut bus = EventBus::new();
    bus.set_policy(reader_policy());
    for i in 0..REPLICAS {
        bus.register(NodeId(i), 0.0);
    }
    bus
}

fn replica(i: u32) -> BusActor {
    let view = View::initial(GroupId(0), (0..REPLICAS).map(NodeId));
    let mut actor = BusActor::new(NodeId(i), view, replica_bus());
    actor.set_telemetry(true);
    actor
}

/// Builds the E13 fan-out sim; `wrapped` hosts every replica behind
/// [`SimHost`] instead of registering it directly.
fn fanout_sim(seed: u64, wrapped: bool) -> Sim<GcMsg<BusWire>> {
    let link = LinkSpec::wan(SimDuration::from_millis(15));
    let net = Network::new(link);
    let mut sim: Sim<GcMsg<BusWire>> = SimBuilder::new(seed).network(net).build();
    for i in 0..REPLICAS {
        if wrapped {
            sim.add_actor(NodeId(i), SimHost::new(replica(i)));
        } else {
            sim.add_actor(NodeId(i), replica(i));
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

#[test]
fn sim_host_is_bit_identical_on_the_e13_fanout() {
    for seed in [1u64, 42, 0xC5C3] {
        let mut bare = fanout_sim(seed, false);
        let mut wrapped = fanout_sim(seed, true);
        bare.run(Until::For(SimDuration::from_secs(30)));
        wrapped.run(Until::For(SimDuration::from_secs(30)));

        // The trace is the strongest witness: event order, timestamps,
        // and RNG-derived span ids must agree entry for entry.
        assert_eq!(
            bare.trace().events(),
            wrapped.trace().events(),
            "trace diverged on seed {seed}"
        );
        assert_eq!(
            counters(&bare),
            counters(&wrapped),
            "metrics diverged on seed {seed}"
        );

        // And the application-level outcome matches replica by replica.
        let mut surfaced = 0usize;
        for i in 0..REPLICAS {
            let b: &BusActor = bare.get(ActorHandle::of(NodeId(i))).expect("bare replica");
            let w: &SimHost<BusActor> = wrapped
                .get(ActorHandle::of(NodeId(i)))
                .expect("wrapped replica");
            assert_eq!(
                deliveries(b),
                deliveries(w.inner()),
                "deliveries diverged at node {i} on seed {seed}"
            );
            surfaced += b.delivered().len();
        }
        // Vacuity guard: the scenario actually fans out.
        assert!(surfaced > 0, "E13 scenario surfaced nothing on seed {seed}");
    }
}
