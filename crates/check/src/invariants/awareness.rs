//! Awareness invariant: the cooperation-event bus never delivers an
//! event to an observer lacking read rights on its artefact — across
//! *every* explored multicast schedule, not just the happy path.
//!
//! The harness is a three-replica [`BusActor`] group where observers 0
//! and 1 may read `doc/*` and observer 2 may not. Two publications (from
//! node 0 and node 1) race over causal multicast, so the explorer
//! interleaves wire deliveries freely. At quiescence the invariant walks
//! every delivery surfaced at every node and *recomputes* the rights
//! check from an independently constructed copy of the scenario policy —
//! it does not trust the bus's own gate.
//!
//! The seeded known-bad variant disarms the rights gate on every replica
//! ([`EventBus::set_rights_gate`]`(false)`): the rightless observer then
//! receives both events on every schedule, and the detector must say so.

use odp_access::matrix::Subject;
use odp_access::rbac::{Effect, RbacPolicy, RoleId};
use odp_access::rights::Rights;
use odp_awareness::bus::{CoopEvent, CoopKind, EventBus};
use odp_awareness::dist::{BusActor, BusWire};
use odp_awareness::events::ActivityKind;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::GcMsg;
use odp_sim::prelude::*;

use crate::explore::Invariant;

/// The group members; each hosts a bus replica and observes as itself.
pub fn bus_members() -> Vec<NodeId> {
    vec![NodeId(0), NodeId(1), NodeId(2)]
}

/// The artefact path prefix the scenario's rights rule covers.
const ARTEFACT_ROOT: &str = "doc";

/// The scenario policy, constructed identically by the harness and the
/// invariant: members 0 and 1 may read `doc/*`; member 2 may not.
pub(crate) fn scenario_policy() -> RbacPolicy {
    let mut policy = RbacPolicy::new();
    policy.add_rule(RoleId(1), ARTEFACT_ROOT.into(), Rights::READ, Effect::Allow);
    policy.assign(Subject(0), RoleId(1));
    policy.assign(Subject(1), RoleId(1));
    policy
}

fn scenario_bus() -> EventBus {
    let mut bus = EventBus::new();
    bus.set_policy(scenario_policy());
    for member in bus_members() {
        bus.register(member, 0.0);
    }
    bus
}

fn edit(actor: NodeId) -> GcMsg<BusWire> {
    GcMsg::AppCmd(BusWire::new(CoopEvent::broadcast(
        actor,
        format!("{ARTEFACT_ROOT}/plan"),
        SimTime::ZERO,
        CoopKind::Activity(ActivityKind::Edit),
    )))
}

/// Builds the gating scenario: three bus replicas under the scenario
/// policy, with publications from node 0 (1 ms) and node 1 (2 ms) racing
/// over causal multicast. With `gated: false` every replica's rights
/// gate is disarmed — the seeded known-bad fixture the detector must
/// catch.
pub(crate) fn gating_sim(seed: u64, gated: bool) -> Sim<GcMsg<BusWire>> {
    let members = bus_members();
    let view = View::initial(GroupId(2), members.iter().copied());
    let mut sim = SimBuilder::new(seed).build();
    for &member in &members {
        let mut bus = scenario_bus();
        if !gated {
            bus.set_rights_gate(false);
        }
        sim.add_actor(member, BusActor::new(member, view.clone(), bus));
    }
    sim.inject(
        SimTime::from_millis(1),
        NodeId(0),
        NodeId(0),
        edit(NodeId(0)),
    );
    sim.inject(
        SimTime::from_millis(2),
        NodeId(1),
        NodeId(1),
        edit(NodeId(1)),
    );
    sim
}

/// A deeper gating scenario: four publications (two per entitled
/// publisher, alternating) race over causal multicast to three
/// replicas, so the bounded schedule space reaches the depth-10 branch
/// budget. Gated, the rights invariant must *pass* on every schedule;
/// `gated: false` is the deep known-bad variant.
pub fn gating_deep_sim(seed: u64, gated: bool) -> Sim<GcMsg<BusWire>> {
    let mut sim = gating_sim(seed, gated);
    sim.inject(
        SimTime::from_millis(3),
        NodeId(0),
        NodeId(0),
        edit(NodeId(0)),
    );
    sim.inject(
        SimTime::from_millis(4),
        NodeId(1),
        NodeId(1),
        edit(NodeId(1)),
    );
    sim
}

/// Canonical [`crate::explore::StateFingerprint`] for the gating
/// scenarios: every replica's surfaced deliveries in order (observer,
/// artefact, kind) — the state the rights invariant audits.
pub fn fingerprint(sim: &Sim<GcMsg<BusWire>>) -> u64 {
    let mut parts = Vec::new();
    for member in bus_members() {
        if let Some(actor) = sim.get::<BusActor>(ActorHandle::of(member)) {
            let deliveries: Vec<(u32, &str, &'static str)> = actor
                .delivered()
                .iter()
                .map(|d| {
                    (
                        d.observer.0,
                        d.event.artefact.as_str(),
                        d.event.kind.label(),
                    )
                })
                .collect();
            parts.push((member.0, deliveries));
        }
    }
    crate::explore::hash_of(&parts)
}

/// Quiescence invariant: every delivery surfaced at any replica passes
/// an independent recomputation of the rights check, and the workload
/// actually delivered something (an empty run would pass vacuously while
/// proving nothing).
pub struct RightsGated {
    members: Vec<NodeId>,
    policy: RbacPolicy,
}

impl RightsGated {
    /// The invariant instance for `gating_sim`.
    pub fn for_gating_sim() -> Self {
        RightsGated {
            members: bus_members(),
            policy: scenario_policy(),
        }
    }
}

impl Invariant<GcMsg<BusWire>> for RightsGated {
    fn name(&self) -> &'static str {
        "awareness-gating"
    }

    fn check_quiescent(&mut self, sim: &Sim<GcMsg<BusWire>>) -> Result<(), String> {
        let mut surfaced = 0usize;
        for &member in &self.members {
            let actor: &BusActor = sim
                .get(ActorHandle::of(member))
                .ok_or_else(|| format!("bus replica {member} missing"))?;
            for delivery in actor.delivered() {
                surfaced += 1;
                let allowed = self.policy.allows(
                    Subject(delivery.observer.0),
                    &delivery.event.artefact,
                    Rights::READ,
                );
                if !allowed {
                    return Err(format!(
                        "node {member} surfaced {} on {} to observer {} \
                         which has no read rights on it",
                        delivery.event.kind.label(),
                        delivery.event.artefact,
                        delivery.observer
                    ));
                }
            }
        }
        if surfaced == 0 {
            return Err("no deliveries surfaced anywhere".to_owned());
        }
        Ok(())
    }
}
