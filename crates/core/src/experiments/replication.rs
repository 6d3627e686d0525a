//! Experiment E13 (extension): the replicated shared workspace — the
//! paper's "collaboration aware" infrastructure (§3.2.2) realised over
//! the group-communication substrate, measured for convergence and
//! awareness flow.

use odp_access::rbac::{Effect, RoleId};
use odp_access::rights::Rights;
use odp_groupcomm::actors::GroupActor;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::GcMsg;
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{ActorHandle, Sim, SimBuilder, Until};
use odp_sim::time::{SimDuration, SimTime};

use crate::replicated::{replica_actor, WorkspaceReplica, WsOp};
use crate::workspace::{ObjectId, SharedWorkspace};

use super::{Shape, Table};

fn configured_workspace(n: u32) -> SharedWorkspace {
    let mut ws = SharedWorkspace::new();
    ws.policy_mut()
        .add_rule(RoleId(1), "shared".into(), Rights::ALL, Effect::Allow);
    for i in 0..n {
        ws.policy_mut()
            .assign(odp_access::matrix::Subject(i), RoleId(1));
        ws.register_observer(NodeId(i), 0.0);
    }
    ws.create_artefact(ObjectId(1), "shared/1", "v0");
    ws
}

/// **E13 — replicated shared workspace.** N replicas over a 15 ms WAN,
/// each submitting `writes_each` concurrent edits through totally-ordered
/// reliable multicast. Expected shape: all replicas apply all edits in
/// one identical order; convergence time grows gently with group size
/// (sequencer fan-out), and every replica raises full local awareness.
pub(crate) fn e13_replicated_workspace(seed: u64) -> Vec<Table> {
    let mut table = Table::new(
        "E13",
        "Replicated workspace: convergence and awareness vs group size (15 ms WAN)",
        [
            "replicas",
            "total_writes",
            "converged",
            "identical_order",
            "convergence_ms",
            "awareness_per_replica",
        ],
    );
    let writes_each = 4u32;
    for &n in &[2u32, 4, 8] {
        let view = View::initial(GroupId(0), (0..n).map(NodeId));
        let link = LinkSpec::wan(SimDuration::from_millis(15));
        let net = Network::new(link);
        let mut sim: Sim<GcMsg<WsOp>> = SimBuilder::new(seed).network(net).build();
        for i in 0..n {
            sim.add_actor(
                NodeId(i),
                replica_actor(NodeId(i), view.clone(), configured_workspace(n)),
            );
        }
        for i in 0..n {
            for w in 0..writes_each {
                sim.inject(
                    SimTime::from_millis(10 + w as u64 * 50),
                    NodeId(i),
                    NodeId(i),
                    GcMsg::AppCmd(WsOp {
                        actor: i,
                        object: 1,
                        value: format!("edit-{i}-{w}"),
                    }),
                );
            }
        }
        sim.run(Until::For(SimDuration::from_secs(30)));
        let total = (n * writes_each) as u64;
        let histories: Vec<Vec<(u32, SimTime)>> = (0..n)
            .map(|i| {
                let a: &GroupActor<WsOp, WorkspaceReplica> =
                    sim.get(ActorHandle::of(NodeId(i))).expect("replica");
                a.app()
                    .workspace()
                    .history()
                    .iter()
                    .map(|h| (h.who, h.at))
                    .collect()
            })
            .collect();
        let converged = histories.iter().all(|h| h.len() as u64 == total);
        let orders: Vec<Vec<u32>> = histories
            .iter()
            .map(|h| h.iter().map(|&(who, _)| who).collect())
            .collect();
        let identical = orders.windows(2).all(|w| w[0] == w[1]);
        let convergence_ms = sim
            .trace()
            .last("ws.applied")
            .map(|e| e.time.as_micros() as f64 / 1_000.0)
            .unwrap_or(f64::NAN);
        let awareness: u64 = {
            let a: &GroupActor<WsOp, WorkspaceReplica> =
                sim.get(ActorHandle::of(NodeId(0))).expect("replica");
            a.app().awareness_delivered()
        };
        table.push_row([
            n.to_string(),
            total.to_string(),
            converged.to_string(),
            identical.to_string(),
            format!("{convergence_ms:.1}"),
            awareness.to_string(),
        ]);
    }
    vec![table]
}

/// The shape the E13 verdict states.
pub(crate) const SHAPES: &[Shape] = &[Shape {
    table: "E13",
    claim: "2, 4 and 8 replicas converge in one order; each of 8 raises 224 = 32 x 7 notices; convergence is finite and at 8 at least half that at 2",
    holds: |t| {
        let mut agreed = true;
        for n in ["2", "4", "8"] {
            agreed &= t.cell(n, "converged")? == "true" && t.cell(n, "identical_order")? == "true";
        }
        let (c2, c8) = (
            t.cell_f64("2", "convergence_ms")?,
            t.cell_f64("8", "convergence_ms")?,
        );
        Some(
            agreed
                && t.cell_f64("8", "awareness_per_replica")? == 32.0 * 7.0
                && c2.is_finite()
                && c8.is_finite()
                && c8 >= c2 * 0.5,
        )
    },
}];

#[cfg(test)]
mod tests {
    use super::super::assert_detects;

    #[test]
    fn e13_fails_when_the_replicas_disagree_on_the_order() {
        assert_detects("E13", "8", "identical_order", "false");
    }
}
