//! Backend-parametrised membership suite: one crash/rejoin scenario,
//! one set of invariants, two transports.
//!
//! The scenario: three group members multicast an epoch of messages;
//! one member crashes; the survivors install a shrunk view and keep
//! multicasting; the crashed member rejoins under a restored view and
//! a final epoch flows to everyone. The *harness* (scenario constants
//! plus [`verify`]) is shared — each backend only supplies its own way
//! of crashing a node (sim: network disconnect; TCP: stopping the
//! process and rebinding a fresh one on the same id).

use std::collections::BTreeMap;

use odp_groupcomm::actors::{GroupActor, GroupApp};
use odp_groupcomm::membership::{GroupId, View, ViewId};
use odp_groupcomm::multicast::{Delivery, GcMsg, Ordering, Reliability};
use odp_net::tcp::{TcpConfig, TcpNode};
use odp_sim::net::{Connectivity, NodeId};
use odp_sim::prelude::*;

// ---------------------------------------------------------------- shared

/// Node 0 is the crasher: the *smallest* id, so its dialer threads can
/// re-establish every TCP connection after rejoin without the
/// survivors needing to re-learn addresses.
const CRASHER: NodeId = NodeId(0);
const MEMBERS: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];
const SURVIVORS: [NodeId; 2] = [NodeId(1), NodeId(2)];
const GROUP: GroupId = GroupId(0);

fn full_view() -> View {
    View::initial(GROUP, MEMBERS)
}

fn survivor_view() -> View {
    let mut v = View::initial(GROUP, SURVIVORS);
    v.id = ViewId(1);
    v
}

fn restored_view() -> View {
    let mut v = View::initial(GROUP, MEMBERS);
    v.id = ViewId(2);
    v
}

/// Records delivered payloads in arrival order.
#[derive(Default)]
struct Recorder {
    delivered: Vec<String>,
}

impl GroupApp<String> for Recorder {
    fn on_deliver(&mut self, _ctx: &mut Ctx<'_, GcMsg<String>>, d: Delivery<String>) {
        self.delivered.push(d.payload);
    }
}

/// A member starting from `view`. Unordered delivery: a rejoining
/// member's vector clock misses the epochs it was away for, so causal
/// (or FIFO) hold-back would block post-rejoin traffic until a state
/// transfer — a protocol this suite deliberately leaves out to keep
/// the membership/transport mechanics observable on both backends.
fn member_with(me: NodeId, view: View) -> GroupActor<String, Recorder> {
    GroupActor::new(
        me,
        view,
        Ordering::Unordered,
        Reliability::BestEffort,
        Recorder::default(),
    )
}

fn member(me: NodeId) -> GroupActor<String, Recorder> {
    member_with(me, full_view())
}

/// The shared invariants, independent of backend.
///
/// `survivors` holds each survivor's full delivery log;
/// `crasher_incarnations` holds the crasher's log per process
/// incarnation (the sim backend has one, the TCP backend two).
fn verify(survivors: &BTreeMap<NodeId, Vec<String>>, crasher_incarnations: &[Vec<String>]) {
    let epoch_a = ["a0", "a1", "a2"];
    let epoch_b = ["b1", "b2"];
    let epoch_c = ["c0", "c1", "c2"];
    for (&node, log) in survivors {
        // Survivors see every message of every epoch exactly once.
        for msg in epoch_a.iter().chain(&epoch_b).chain(&epoch_c) {
            let copies = log.iter().filter(|m| m.as_str() == *msg).count();
            assert_eq!(copies, 1, "{node} delivered {msg} {copies} times: {log:?}");
        }
        assert_eq!(log.len(), 8, "{node} delivered extras: {log:?}");
        // Per-origin FIFO survives the membership churn: a survivor's
        // own epochs arrive in order, and the crasher's pre-crash and
        // post-rejoin messages stay ordered.
        for origin in 0..3u32 {
            let a = log.iter().position(|m| *m == format!("a{origin}"));
            let c = log.iter().position(|m| *m == format!("c{origin}"));
            assert!(a < c, "{node} reordered origin {origin}: {log:?}");
        }
    }
    // The crasher was outside the group for all of epoch B, in every
    // incarnation.
    for (i, log) in crasher_incarnations.iter().enumerate() {
        for msg in &epoch_b {
            assert!(
                !log.iter().any(|m| m == msg),
                "crasher incarnation {i} saw {msg}: {log:?}"
            );
        }
        // Exactly-once within each incarnation.
        for msg in log {
            let copies = log.iter().filter(|m| m == &msg).count();
            assert_eq!(
                copies, 1,
                "crasher incarnation {i} saw {msg} twice: {log:?}"
            );
        }
    }
    let all_crasher: Vec<&String> = crasher_incarnations.iter().flatten().collect();
    assert!(
        all_crasher.iter().any(|m| *m == "a0"),
        "crasher never saw its own pre-crash multicast: {all_crasher:?}"
    );
    for msg in &epoch_c {
        let copies = all_crasher.iter().filter(|m| m.as_str() == *msg).count();
        assert_eq!(copies, 1, "crasher saw {msg} {copies} times after rejoin");
    }
}

fn cmd(s: &str) -> GcMsg<String> {
    GcMsg::AppCmd(s.to_owned())
}

// ------------------------------------------------------------------- sim

/// Sim backend: the crash is a network disconnect, the membership
/// service's verdicts arrive as scripted [`GcMsg::InstallView`]s, and
/// the whole run is deterministic under the seed.
#[test]
fn crash_and_rejoin_on_the_sim_backend() {
    for seed in [7u64, 99, 0xBEEF] {
        let net = Network::new(LinkSpec::lan());
        let mut sim = SimBuilder::new(seed).network(net).build();
        for id in MEMBERS {
            sim.add_actor(id, member(id));
        }
        let ms = SimTime::from_millis;
        // Epoch A: everyone multicasts.
        for (i, id) in MEMBERS.iter().enumerate() {
            sim.inject(ms(10), *id, *id, cmd(&format!("a{i}")));
        }
        // Crash: node 0 drops off the network; the membership service
        // installs the survivor view.
        sim.schedule_net_change(ms(300), |net| {
            net.set_connectivity(CRASHER, Connectivity::Disconnected);
        });
        for id in SURVIVORS {
            sim.inject(ms(400), id, id, GcMsg::InstallView(survivor_view()));
        }
        // Epoch B: survivors only.
        sim.inject(ms(500), NodeId(1), NodeId(1), cmd("b1"));
        sim.inject(ms(510), NodeId(2), NodeId(2), cmd("b2"));
        // Rejoin: connectivity restored, full view reinstalled.
        sim.schedule_net_change(ms(800), |net| {
            net.set_connectivity(CRASHER, Connectivity::Full);
        });
        for id in MEMBERS {
            sim.inject(ms(850), id, id, GcMsg::InstallView(restored_view()));
        }
        // Epoch C: everyone again.
        for (i, id) in MEMBERS.iter().enumerate() {
            sim.inject(ms(900), *id, *id, cmd(&format!("c{i}")));
        }
        sim.run(Until::For(SimDuration::from_secs(5)));

        let mut survivors = BTreeMap::new();
        for id in SURVIVORS {
            let actor = sim
                .get::<GroupActor<String, Recorder>>(ActorHandle::of(id))
                .expect("survivor actor");
            survivors.insert(id, actor.app().delivered.clone());
        }
        let crasher = sim
            .get::<GroupActor<String, Recorder>>(ActorHandle::of(CRASHER))
            .expect("crasher actor");
        verify(&survivors, &[crasher.app().delivered.clone()]);
    }
}

// ------------------------------------------------------------------- tcp

fn settle(ms: u64) {
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

/// TCP backend: the crash is a real process stop (sockets drop, the
/// survivors' failure detectors fire) and the rejoin is a fresh
/// `TcpNode` bound under the same id — whose fresh session must pick
/// up the survivors' sequence expectations without gaps.
#[test]
fn crash_and_rejoin_on_the_tcp_backend() {
    let cfg = TcpConfig::default();
    let mut nodes: Vec<TcpNode> = MEMBERS
        .iter()
        .map(|&id| TcpNode::bind(id, cfg.clone()).expect("bind"))
        .collect();
    let addrs: BTreeMap<NodeId, std::net::SocketAddr> = MEMBERS
        .iter()
        .zip(&nodes)
        .map(|(&id, n)| (id, n.local_addr().expect("addr")))
        .collect();
    for node in &mut nodes {
        node.set_peers(addrs.clone());
    }
    let mut handles: BTreeMap<NodeId, _> = MEMBERS
        .iter()
        .zip(nodes)
        .map(|(&id, node)| (id, node.spawn(member(id))))
        .collect();
    settle(300); // all connections up
    for (i, id) in MEMBERS.iter().enumerate() {
        handles[id].inject(*id, cmd(&format!("a{i}")));
    }
    settle(400);
    // Crash node 0: its sockets drop; survivors' heartbeat deadline
    // declares it dead.
    let (crashed_actor, crashed_report) = handles
        .remove(&CRASHER)
        .expect("crasher handle")
        .stop()
        .expect("stop");
    settle(300);
    for id in SURVIVORS {
        handles[&id].inject(id, GcMsg::InstallView(survivor_view()));
    }
    settle(100);
    handles[&NodeId(1)].inject(NodeId(1), cmd("b1"));
    handles[&NodeId(2)].inject(NodeId(2), cmd("b2"));
    settle(400);
    // Rejoin: a fresh process under the same id dials the survivors
    // (their addresses never changed) and adopts their seq
    // expectations from the reconnect hellos.
    let mut reborn = TcpNode::bind(CRASHER, cfg.clone()).expect("rebind");
    reborn.set_peers(addrs.clone());
    let mut rejoined = member_with(CRASHER, restored_view());
    // The readmitting membership service tells the fresh incarnation
    // where its multicast sequence must resume (it sent one message,
    // `a0`, before crashing) so no message id is ever reused.
    rejoined.engine_mut().resume_seq_from(1);
    for id in SURVIVORS {
        handles[&id].inject(id, GcMsg::InstallView(restored_view()));
    }
    handles.insert(CRASHER, reborn.spawn(rejoined));
    settle(500); // reconnect + replay
    for (i, id) in MEMBERS.iter().enumerate() {
        handles[id].inject(*id, cmd(&format!("c{i}")));
    }
    settle(800);

    let mut survivors = BTreeMap::new();
    let mut reports = vec![crashed_report];
    let mut crasher_logs = vec![crashed_actor.app().delivered.clone()];
    for (id, handle) in std::mem::take(&mut handles) {
        let (actor, report) = handle.stop().expect("stop");
        if id == CRASHER {
            crasher_logs.push(actor.app().delivered.clone());
        } else {
            survivors.insert(id, actor.app().delivered.clone());
        }
        reports.push(report);
    }
    for report in &reports {
        assert_eq!(report.stats.gaps, 0, "sequence gap: {:?}", report.stats);
        assert_eq!(
            report.stats.evicted, 0,
            "evicted frames: {:?}",
            report.stats
        );
    }
    // On TCP the rejoined incarnation legitimately re-receives the
    // epoch-A frames still buffered on the survivors' links (reconnect
    // replay is state restoration for a fresh process) — `verify`'s
    // per-incarnation exactly-once and epoch-B absence still hold.
    verify(&survivors, &crasher_logs);
}
