//! Acceptance test for the telemetry tentpole: tracing a group RPC in
//! the e13-style replicated-workspace WAN yields a single well-formed
//! causal DAG, and its critical path — the longest virtual-time chain —
//! runs through the *slowest* member's reply chain, which is exactly
//! what an operator debugging tail latency needs the trace to show.

use odp_groupcomm::actors::{GroupActor, GroupApp, RpcConfig};
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{Delivery, GcMsg, Ordering, Reliability};
use odp_sim::prelude::*;
use odp_telemetry::collector::Collector;

/// The replica application: acknowledges the workspace sync RPC.
struct Ack;

impl GroupApp<String> for Ack {
    fn on_deliver(&mut self, _ctx: &mut Ctx<'_, GcMsg<String>>, _delivery: Delivery<String>) {}

    fn on_rpc(
        &mut self,
        _ctx: &mut Ctx<'_, GcMsg<String>>,
        _from: NodeId,
        _call: u64,
        payload: &String,
    ) -> Option<String> {
        Some(format!("ack:{payload}"))
    }
}

/// The coordinating replica: issues the group RPC at start.
struct CallAtStart {
    inner: GroupActor<String, Ack>,
}

impl Actor<GcMsg<String>> for CallAtStart {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>) {
        Actor::on_start(&mut self.inner, ctx);
        self.inner
            .invoke_rpc_now(ctx, "sync-workspace".to_owned(), RpcConfig::default());
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, from: NodeId, msg: GcMsg<String>) {
        Actor::on_message(&mut self.inner, ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GcMsg<String>>, timer: TimerId, tag: u64) {
        self.inner.on_timer(ctx, timer, tag);
    }
}

fn telemetric(me: NodeId, view: View) -> GroupActor<String, Ack> {
    let mut actor = GroupActor::new(me, view, Ordering::Unordered, Reliability::BestEffort, Ack);
    actor.set_telemetry(true);
    actor
}

#[test]
fn group_rpc_critical_path_runs_through_the_slowest_member() {
    // Four workspace replicas on the e13 WAN (15 ms links), except the
    // caller↔replica-3 link, which is eight times slower. Loss and
    // jitter are zeroed so "slowest" is structural, not sampled.
    let fast = LinkSpec {
        latency: SimDuration::from_millis(15),
        jitter: SimDuration::ZERO,
        bytes_per_sec: None,
        loss: 0.0,
    };
    let slow = LinkSpec {
        latency: SimDuration::from_millis(120),
        ..fast
    };
    let caller = NodeId(0);
    let laggard = NodeId(3);
    let mut net = Network::new(fast);
    net.set_link(caller, laggard, slow);

    let mut sim: Sim<GcMsg<String>> = SimBuilder::new(1913).network(net).build();
    let members: Vec<NodeId> = (0..4).map(NodeId).collect();
    let view = View::initial(GroupId(13), members.clone());
    sim.add_actor(
        caller,
        CallAtStart {
            inner: telemetric(caller, view.clone()),
        },
    );
    for &m in &members[1..] {
        sim.add_actor(m, telemetric(m, view.clone()));
    }
    sim.run(Until::For(SimDuration::from_secs(2)));

    let collector = Collector::from_trace(sim.trace());
    assert_eq!(collector.well_formed(), Ok(()), "span audit must pass");
    assert_eq!(collector.len(), 1, "one call, one causal trace");
    let (_, dag) = collector.traces().next().unwrap();
    assert_eq!(dag.len(), 7, "rpc.call root + 3 serves + 3 replies");

    let path = dag.critical_path();
    let kinds: Vec<&str> = path.iter().map(|s| &*s.kind).collect();
    assert_eq!(kinds, ["rpc.call", "rpc.serve", "rpc.reply"]);
    assert_eq!(
        path[1].node, laggard,
        "the critical path's serve span sits on the slowest member"
    );
    assert_eq!(
        path[2].node, caller,
        "…and its reply span is observed back at the caller"
    );
    // Quorum::All: the call completes exactly when the slowest reply
    // lands, so the root closes with the critical reply.
    assert_eq!(path[0].closed, path[2].closed);
    // The whole chain costs at least the slow link's round trip.
    let root = path[0];
    let elapsed = root.closed.unwrap().saturating_since(root.opened);
    assert!(
        elapsed >= SimDuration::from_millis(240),
        "critical path {elapsed:?} must cover the 2×120 ms round trip"
    );
}
