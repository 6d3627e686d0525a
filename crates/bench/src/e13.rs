//! The E13-shaped workloads the measuring bins share: a group of
//! replicas over the 15 ms WAN, each submitting [`WRITES_EACH`]
//! multicasts, quiescent well inside 30 simulated seconds.
//!
//! - [`e13_sim`] — E13's largest configuration: 8 replicas of a shared
//!   workspace, 4 totally-ordered edits each. Its two variants differ
//!   *only* in the span instrumentation, so timing them against each
//!   other isolates the telemetry overhead (`telemetry_report`).
//! - [`bus_fanout_sim`] — the same shape with [`BusActor`] replicas
//!   publishing broadcast edits (`awareness_fanout`, `net_fanout`).

use std::any::Any;

use cscw_core::replicated::{replica_actor, WorkspaceReplica, WsOp};
use cscw_core::workspace::{ObjectId, SharedWorkspace};
use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, RbacPolicy, RoleId};
use odp_access::rights::Rights;
use odp_awareness::bus::{CoopEvent, CoopKind, EventBus};
use odp_awareness::dist::{BusActor, BusWire};
use odp_awareness::events::ActivityKind;
use odp_groupcomm::actors::GroupActor;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::GcMsg;
use odp_sim::actor::Actor;
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{ActorHandle, Sim, SimBuilder, Until};
use odp_sim::time::{SimDuration, SimTime};

/// E13's largest group size.
pub const REPLICAS: u32 = 8;
/// Concurrent multicasts submitted per replica.
pub const WRITES_EACH: u32 = 4;

/// The shared skeleton: `nodes` actors on one view over the 15 ms WAN,
/// each sent `WRITES_EACH` commands at 50 ms intervals from 10 ms.
fn wan_group_sim<P: 'static, A: Actor<GcMsg<P>> + Any>(
    seed: u64,
    nodes: u32,
    mut actor: impl FnMut(NodeId, View) -> A,
    command: impl Fn(u32, u32, SimTime) -> P,
) -> Sim<GcMsg<P>> {
    let view = View::initial(GroupId(0), (0..nodes).map(NodeId));
    let link = LinkSpec::wan(SimDuration::from_millis(15));
    let net = Network::new(link);
    let mut sim: Sim<GcMsg<P>> = SimBuilder::new(seed).network(net).build();
    for i in 0..nodes {
        sim.add_actor(NodeId(i), actor(NodeId(i), view.clone()));
    }
    for i in 0..nodes {
        for w in 0..WRITES_EACH {
            let at = SimTime::from_millis(10 + u64::from(w) * 50);
            sim.inject(at, NodeId(i), NodeId(i), GcMsg::AppCmd(command(i, w, at)));
        }
    }
    sim
}

fn configured_workspace(n: u32) -> SharedWorkspace {
    let mut ws = SharedWorkspace::new();
    ws.policy_mut()
        .add_rule(RoleId(1), "shared".into(), Rights::ALL, Effect::Allow);
    for i in 0..n {
        ws.policy_mut().assign(Subject(i), RoleId(1));
        ws.register_observer(NodeId(i), 0.0);
    }
    ws.create_artefact(ObjectId(1), "shared/1", "v0");
    ws
}

/// The E13 replicated-workspace sim, with span telemetry toggled on
/// every replica's group actor.
pub fn e13_sim(seed: u64, telemetry: bool) -> Sim<GcMsg<WsOp>> {
    wan_group_sim(
        seed,
        REPLICAS,
        |me, view| {
            let mut replica = replica_actor(me, view, configured_workspace(REPLICAS));
            replica.set_telemetry(telemetry);
            replica
        },
        |i, w, _| WsOp {
            actor: i,
            object: 1,
            value: format!("edit-{i}-{w}"),
        },
    )
}

/// Edits applied across the replicas of a finished [`e13_sim`] run.
pub fn applied(sim: &Sim<GcMsg<WsOp>>) -> u64 {
    (0..REPLICAS)
        .map(|i| {
            let replica: &GroupActor<WsOp, WorkspaceReplica> = sim
                .get(ActorHandle::of(NodeId(i)))
                .expect("workspace replica exists");
            replica.app().applied()
        })
        .sum()
}

/// A bus with `nodes` observers registered. Without `readers` it is
/// open (no policy, gate disarmed): every observer hears every event.
/// With it, only nodes `0..readers` hold read rights on `doc/*`; the
/// rest are suppressed, and counted.
pub fn bus(nodes: u32, readers: Option<u32>) -> EventBus {
    let mut bus = EventBus::new();
    if let Some(readers) = readers {
        let mut policy = RbacPolicy::new();
        policy.add_rule(RoleId(1), "doc".into(), Rights::READ, Effect::Allow);
        for i in 0..readers {
            policy.assign(Subject(i), RoleId(1));
        }
        bus.set_policy(policy);
    }
    for i in 0..nodes {
        bus.register(NodeId(i), 0.0);
    }
    bus
}

/// A broadcast edit of the shared `doc/plan` by `publisher`, stamped `at`.
pub fn edit(publisher: u32, at: SimTime) -> BusWire {
    BusWire::new(CoopEvent::broadcast(
        NodeId(publisher),
        "doc/plan",
        at,
        CoopKind::Activity(ActivityKind::Edit),
    ))
}

/// The bus fan-out sim: `nodes` [`BusActor`] replicas, each holding a
/// bus from `make_bus` and publishing `WRITES_EACH` broadcast edits.
pub fn bus_fanout_sim(
    seed: u64,
    nodes: u32,
    make_bus: impl Fn() -> EventBus,
    telemetry: bool,
) -> Sim<GcMsg<BusWire>> {
    wan_group_sim(
        seed,
        nodes,
        |me, view| {
            let mut actor = BusActor::new(me, view, make_bus());
            actor.set_telemetry(telemetry);
            actor
        },
        |i, _, at| edit(i, at),
    )
}

/// Deliveries surfaced across `nodes` bus replicas, and the total
/// publications the rights gate suppressed.
pub fn fanout_census(sim: &Sim<GcMsg<BusWire>>, nodes: u32) -> (u64, u64) {
    let mut delivered = 0u64;
    let mut suppressed = 0u64;
    for i in 0..nodes {
        let actor: &BusActor = sim
            .get(ActorHandle::of(NodeId(i)))
            .expect("bus replica exists");
        delivered += actor.delivered().len() as u64;
        suppressed += actor.bus().suppressed_by_rights();
    }
    (delivered, suppressed)
}

/// Runs either workload's 30 simulated seconds under the harness
/// clock; returns the wall-clock nanoseconds and the finished sim.
pub fn run_timed<M: 'static>(mut sim: Sim<M>) -> (u128, Sim<M>) {
    let (ns, _) = crate::harness::time(|| sim.run(Until::For(SimDuration::from_secs(30))));
    (ns, sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_fanout_reproduces_the_censuses_recorded_before_the_bins_shared_it() {
        let seed = crate::REPORT_SEED;
        let (_, gated) = run_timed(bus_fanout_sim(seed, 8, || bus(8, Some(6)), false));
        assert_eq!(fanout_census(&gated, 8), (168, 56));
        let (_, direct) = run_timed(bus_fanout_sim(seed, 8, || bus(8, None), false));
        assert_eq!(fanout_census(&direct, 8), (224, 0));
        let (_, open) = run_timed(bus_fanout_sim(seed, 4, || bus(4, None), true));
        assert_eq!(fanout_census(&open, 4), (48, 0));
    }
}
