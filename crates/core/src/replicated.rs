//! A replicated shared workspace: every participant's node holds a full
//! replica, kept consistent by totally-ordered group multicast, with
//! access control enforced at the submitting replica and awareness
//! events raised at every replica.
//!
//! This is the "collaboration-aware" infrastructure of §3.2.2 built from
//! the substrates: `odp-groupcomm` for dissemination, `odp-access` for
//! policy, `odp-awareness` (via [`crate::workspace::SharedWorkspace`])
//! for the information flow of Figure 2b. Total ordering makes replica
//! application order identical, so replicas converge under concurrent
//! writes.

use odp_access::rights::Rights;
use odp_groupcomm::actors::{GroupActor, GroupApp};
use odp_groupcomm::membership::View;
use odp_groupcomm::multicast::{Delivery, GcMsg, Ordering, Reliability};
use odp_net::ctx::NetCtx;
use odp_sim::net::NodeId;

use crate::workspace::{ObjectId, SharedWorkspace};

/// A workspace operation disseminated to all replicas.
#[derive(Debug, Clone, PartialEq)]
pub struct WsOp {
    /// The acting participant.
    pub actor: u32,
    /// The artefact.
    pub object: u64,
    /// The new value.
    pub value: String,
}

/// The per-node replica application: checks policy before multicasting
/// and applies delivered operations in total order.
pub struct WorkspaceReplica {
    workspace: SharedWorkspace,
    applied: u64,
    rejected: u64,
    awareness_delivered: u64,
}

impl WorkspaceReplica {
    /// Wraps a configured workspace (same initial configuration must be
    /// installed on every replica).
    pub fn new(workspace: SharedWorkspace) -> Self {
        WorkspaceReplica {
            workspace,
            applied: 0,
            rejected: 0,
            awareness_delivered: 0,
        }
    }

    /// The replica's workspace (post-run inspection).
    pub fn workspace(&self) -> &SharedWorkspace {
        &self.workspace
    }

    /// Operations applied from the total order.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Local submissions rejected by policy (never multicast).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Awareness deliveries raised at this replica.
    pub fn awareness_delivered(&self) -> u64 {
        self.awareness_delivered
    }

    /// The current value of an artefact at this replica, if readable.
    pub fn peek(
        &mut self,
        reader: NodeId,
        object: u64,
        now: odp_sim::time::SimTime,
    ) -> Option<String> {
        self.workspace
            .read(reader, ObjectId(object), now)
            .ok()
            .map(|(v, _)| v)
    }
}

impl GroupApp<WsOp> for WorkspaceReplica {
    fn on_command(&mut self, ctx: &mut dyn NetCtx<GcMsg<WsOp>>, cmd: WsOp) -> Option<WsOp> {
        // Policy gate at the submitting replica: a denied write is
        // rejected before it ever reaches the wire.
        if self
            .workspace
            .allows(NodeId(cmd.actor), ObjectId(cmd.object), Rights::WRITE)
        {
            Some(cmd)
        } else {
            self.rejected += 1;
            ctx.trace(
                "ws.rejected",
                &format_args!("actor {} on obj {}", cmd.actor, cmd.object),
            );
            None
        }
    }

    fn on_deliver(&mut self, ctx: &mut dyn NetCtx<GcMsg<WsOp>>, d: Delivery<WsOp>) {
        let op = d.payload;
        match self
            .workspace
            .write(NodeId(op.actor), ObjectId(op.object), op.value, ctx.now())
        {
            Ok(deliveries) => {
                self.applied += 1;
                self.awareness_delivered += deliveries.len() as u64;
                // The applied-op line is the replica's audit record; it
                // is formatted straight into the trace's own buffer.
                ctx.trace(
                    "ws.applied",
                    &format_args!("obj {} by {}", op.object, op.actor),
                );
            }
            Err(e) => {
                // Replicas share one policy, so a policy denial here means
                // the configurations diverged — surface it loudly. Cold:
                // a converged group never gets here.
                ctx.trace("ws.replica_error", &e);
            }
        }
    }
}

/// Builds one replica actor for `me`: a [`GroupActor`] carrying a
/// [`WorkspaceReplica`] over totally-ordered reliable multicast.
pub fn replica_actor(
    me: NodeId,
    view: View,
    workspace: SharedWorkspace,
) -> GroupActor<WsOp, WorkspaceReplica> {
    GroupActor::new(
        me,
        view,
        Ordering::Total,
        Reliability::reliable(),
        WorkspaceReplica::new(workspace),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_access::rbac::{Effect, RoleId};
    use odp_access::rights::Rights;
    use odp_groupcomm::membership::GroupId;
    use odp_sim::prelude::*;

    fn configured_workspace(n: u32, writers: &[u32]) -> SharedWorkspace {
        let mut ws = SharedWorkspace::new();
        ws.policy_mut()
            .add_rule(RoleId(1), "shared".into(), Rights::ALL, Effect::Allow);
        ws.policy_mut()
            .add_rule(RoleId(2), "shared".into(), Rights::READ, Effect::Allow);
        for i in 0..n {
            let role = if writers.contains(&i) {
                RoleId(1)
            } else {
                RoleId(2)
            };
            ws.policy_mut().assign(odp_access::matrix::Subject(i), role);
            ws.register_observer(NodeId(i), 0.0);
        }
        ws.create_artefact(ObjectId(1), "shared/1", "v0");
        ws
    }

    fn build(n: u32, writers: &[u32], seed: u64) -> Sim<GcMsg<WsOp>> {
        build_with(n, seed, || configured_workspace(n, writers))
    }

    fn build_with(n: u32, seed: u64, workspace: impl Fn() -> SharedWorkspace) -> Sim<GcMsg<WsOp>> {
        let view = View::initial(GroupId(0), (0..n).map(NodeId));
        let net = Network::new(LinkSpec::wan(SimDuration::from_millis(15)));
        let mut sim = SimBuilder::new(seed).network(net).build();
        for i in 0..n {
            sim.add_actor(
                NodeId(i),
                replica_actor(NodeId(i), view.clone(), workspace()),
            );
        }
        sim
    }

    /// Object 1 lives at `docs/plan`: participant 0 holds every right on
    /// `docs`, participant 1 on `shared` only, participant 2 reads `docs`.
    fn docs_workspace() -> SharedWorkspace {
        let mut ws = SharedWorkspace::new();
        ws.policy_mut()
            .add_rule(RoleId(1), "docs".into(), Rights::ALL, Effect::Allow);
        ws.policy_mut()
            .add_rule(RoleId(2), "shared".into(), Rights::ALL, Effect::Allow);
        ws.policy_mut()
            .add_rule(RoleId(3), "docs".into(), Rights::READ, Effect::Allow);
        for i in 0..3 {
            ws.policy_mut()
                .assign(odp_access::matrix::Subject(i), RoleId(i + 1));
            ws.register_observer(NodeId(i), 0.0);
        }
        ws.create_artefact(ObjectId(1), "docs/plan", "v0");
        ws
    }

    fn write_by(sim: &mut Sim<GcMsg<WsOp>>, actor: u32) {
        sim.inject(
            SimTime::from_millis(10),
            NodeId(actor),
            NodeId(actor),
            GcMsg::AppCmd(WsOp {
                actor,
                object: 1,
                value: format!("from-{actor}"),
            }),
        );
        sim.run(Until::For(SimDuration::from_secs(5)));
    }

    fn replica(sim: &Sim<GcMsg<WsOp>>, i: u32) -> &GroupActor<WsOp, WorkspaceReplica> {
        sim.get(ActorHandle::of(NodeId(i))).expect("replica exists")
    }

    #[test]
    fn concurrent_writes_converge_identically_everywhere() {
        let mut sim = build(3, &[0, 1, 2], 17);
        // All three replicas write concurrently.
        for i in 0..3u32 {
            sim.inject(
                SimTime::from_millis(10),
                NodeId(i),
                NodeId(i),
                GcMsg::AppCmd(WsOp {
                    actor: i,
                    object: 1,
                    value: format!("from-{i}"),
                }),
            );
        }
        sim.run(Until::For(SimDuration::from_secs(10)));
        let histories: Vec<Vec<String>> = (0..3)
            .map(|i| {
                replica(&sim, i)
                    .app()
                    .workspace()
                    .history()
                    .iter()
                    .map(|h| format!("{}:{}", h.who, h.artefact))
                    .collect()
            })
            .collect();
        assert_eq!(histories[0].len(), 3, "all writes applied");
        assert_eq!(histories[0], histories[1], "replica 1 agrees");
        assert_eq!(histories[0], histories[2], "replica 2 agrees");
        for i in 0..3 {
            assert_eq!(replica(&sim, i).app().applied(), 3);
        }
    }

    #[test]
    fn denied_writers_are_stopped_at_their_own_replica() {
        // Participant 2 is read-only.
        let mut sim = build(3, &[0, 1], 17);
        sim.inject(
            SimTime::from_millis(10),
            NodeId(2),
            NodeId(2),
            GcMsg::AppCmd(WsOp {
                actor: 2,
                object: 1,
                value: "sneaky".into(),
            }),
        );
        sim.run(Until::For(SimDuration::from_secs(5)));
        assert_eq!(sim.trace().with_label("ws.rejected").count(), 1);
        for i in 0..3 {
            assert_eq!(replica(&sim, i).app().applied(), 0, "nothing hit the wire");
        }
    }

    #[test]
    fn every_replica_raises_awareness_locally() {
        let mut sim = build(3, &[0, 1, 2], 23);
        sim.inject(
            SimTime::from_millis(10),
            NodeId(0),
            NodeId(0),
            GcMsg::AppCmd(WsOp {
                actor: 0,
                object: 1,
                value: "hello".into(),
            }),
        );
        sim.run(Until::For(SimDuration::from_secs(5)));
        for i in 0..3u32 {
            // Each replica's awareness engine notified the 2 non-actors.
            assert_eq!(
                replica(&sim, i).app().awareness_delivered(),
                2,
                "replica {i}"
            );
        }
        // Replica errors would indicate configuration divergence.
        assert_eq!(sim.trace().with_label("ws.replica_error").count(), 0);
    }

    #[test]
    fn the_submitting_replica_gates_on_the_path_the_artefact_lives_at() {
        // Entitled on `docs`, where object 1 lives — not on `shared/1`.
        let mut sim = build_with(3, 17, docs_workspace);
        write_by(&mut sim, 0);
        assert_eq!(sim.trace().with_label("ws.rejected").count(), 0);
        for i in 0..3 {
            assert_eq!(replica(&sim, i).app().applied(), 1, "replica {i}");
        }
    }

    #[test]
    fn rights_on_another_subtree_do_not_reach_the_wire() {
        // Entitled on `shared` only. Gating on any path but the
        // artefact's own (`shared/1`, say) would multicast this, and
        // every replica would then log `ws.replica_error`.
        let mut sim = build_with(3, 17, docs_workspace);
        write_by(&mut sim, 1);
        assert_eq!(sim.trace().with_label("ws.rejected").count(), 1);
        assert_eq!(sim.trace().with_label("ws.replica_error").count(), 0);
        assert_eq!(replica(&sim, 1).app().rejected(), 1);
        for i in 0..3 {
            assert_eq!(replica(&sim, i).app().applied(), 0, "nothing hit the wire");
        }
    }
}
