//! Integration: reliable multicast across a network partition, and live
//! view changes on running group actors.

use odp_groupcomm::actors::{GroupActor, GroupApp};
use odp_groupcomm::membership::{GroupId, Membership, View};
use odp_groupcomm::multicast::{Delivery, GcMsg, Ordering, Reliability};
use odp_net::ctx::NetCtx;
use odp_sim::prelude::*;
use std::collections::HashSet;

#[derive(Default)]
struct Collector {
    got: Vec<String>,
}

impl GroupApp<String> for Collector {
    fn on_deliver(&mut self, ctx: &mut dyn NetCtx<GcMsg<String>>, d: Delivery<String>) {
        self.got.push(d.payload.clone());
        ctx.trace("delivered", &d.payload);
    }
}

fn build(n: u32, seed: u64, reliability: Reliability) -> (Sim<GcMsg<String>>, View) {
    let view = View::initial(GroupId(0), (0..n).map(NodeId));
    let net = Network::new(LinkSpec::lan());
    let mut sim = SimBuilder::new(seed).network(net).build();
    for i in 0..n {
        let mut a = GroupActor::new(
            NodeId(i),
            view.clone(),
            Ordering::Fifo,
            reliability,
            Collector::default(),
        );
        a.set_tick_interval(SimDuration::from_millis(50));
        sim.add_actor(NodeId(i), a);
    }
    (sim, view)
}

/// Messages multicast while the group is partitioned reach the other
/// side once the partition heals, thanks to retransmission.
#[test]
fn reliable_multicast_survives_a_partition() {
    let patient = Reliability::Reliable {
        retransmit_after: SimDuration::from_millis(200),
        max_retries: 100,
    };
    let (mut sim, _) = build(4, 3, patient);
    // Partition {0,1} from {2,3} between t=1s and t=6s.
    sim.schedule_net_change(SimTime::from_secs(1), |net| {
        let a: HashSet<NodeId> = [NodeId(0), NodeId(1)].into();
        let b: HashSet<NodeId> = [NodeId(2), NodeId(3)].into();
        net.partition(vec![a, b]);
    });
    sim.schedule_net_change(SimTime::from_secs(6), |net| net.heal());
    // Node 0 multicasts during the partition.
    for k in 0..5u32 {
        sim.inject(
            SimTime::from_millis(2_000 + k as u64 * 100),
            NodeId(0),
            NodeId(0),
            GcMsg::AppCmd(format!("during-partition-{k}")),
        );
    }
    // Run until just before healing: the far side has nothing.
    sim.run(Until::At(SimTime::from_millis(5_900)));
    let far: &GroupActor<String, Collector> = sim.get(ActorHandle::of(NodeId(2))).expect("actor");
    assert!(
        far.app().got.is_empty(),
        "partitioned node must not have the messages yet"
    );
    let near: &GroupActor<String, Collector> = sim.get(ActorHandle::of(NodeId(1))).expect("actor");
    assert_eq!(
        near.app().got.len(),
        5,
        "same-side node received everything"
    );
    // After healing, retransmission delivers everything, in FIFO order.
    sim.run(Until::For(SimDuration::from_secs(60)));
    for i in [2u32, 3] {
        let a: &GroupActor<String, Collector> = sim.get(ActorHandle::of(NodeId(i))).expect("actor");
        let expect: Vec<String> = (0..5).map(|k| format!("during-partition-{k}")).collect();
        assert_eq!(a.app().got, expect, "node {i} caught up in order");
    }
}

/// Best-effort multicast loses partition-era messages permanently — the
/// contrast that justifies the reliable mode.
#[test]
fn best_effort_multicast_loses_partition_messages() {
    let (mut sim, _) = build(4, 3, Reliability::BestEffort);
    sim.schedule_net_change(SimTime::from_secs(1), |net| {
        let a: HashSet<NodeId> = [NodeId(0), NodeId(1)].into();
        let b: HashSet<NodeId> = [NodeId(2), NodeId(3)].into();
        net.partition(vec![a, b]);
    });
    sim.schedule_net_change(SimTime::from_secs(6), |net| net.heal());
    for k in 0..5u32 {
        sim.inject(
            SimTime::from_millis(2_000 + k as u64 * 100),
            NodeId(0),
            NodeId(0),
            GcMsg::AppCmd(format!("m{k}")),
        );
    }
    sim.run(Until::For(SimDuration::from_secs(60)));
    let far: &GroupActor<String, Collector> = sim.get(ActorHandle::of(NodeId(2))).expect("actor");
    assert!(
        far.app().got.is_empty(),
        "best effort never recovers the loss"
    );
}

/// A view change installed on live actors: the departed member stops
/// receiving, and hold-back state referring to it is discarded.
#[test]
fn live_view_change_reconfigures_the_group() {
    let (mut sim, view0) = build(3, 7, Reliability::BestEffort);
    let mut membership = Membership::new();
    membership.create(GroupId(0), view0.members.iter().copied());
    // First message reaches everyone.
    sim.inject(
        SimTime::from_millis(100),
        NodeId(0),
        NodeId(0),
        GcMsg::AppCmd("before".into()),
    );
    sim.run(Until::At(SimTime::from_millis(500)));
    // Node 2 leaves: install the new view on the remaining members.
    let view1 = membership.leave(GroupId(0), NodeId(2)).expect("member");
    for i in [0u32, 1] {
        sim.inject(
            SimTime::from_millis(600),
            NodeId(i),
            NodeId(i),
            GcMsg::InstallView(view1.clone()),
        );
    }
    sim.inject(
        SimTime::from_millis(800),
        NodeId(0),
        NodeId(0),
        GcMsg::AppCmd("after".into()),
    );
    sim.run(Until::For(SimDuration::from_secs(5)));
    let stayer: &GroupActor<String, Collector> =
        sim.get(ActorHandle::of(NodeId(1))).expect("actor");
    assert_eq!(
        stayer.app().got,
        vec!["before".to_owned(), "after".to_owned()]
    );
    let leaver: &GroupActor<String, Collector> =
        sim.get(ActorHandle::of(NodeId(2))).expect("actor");
    assert_eq!(
        leaver.app().got,
        vec!["before".to_owned()],
        "no traffic after leaving"
    );
    assert_eq!(sim.trace().with_label("gc.view_installed").count(), 2);
}
