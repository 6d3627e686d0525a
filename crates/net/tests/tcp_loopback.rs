//! Acceptance tests for the threaded TCP backend on real loopback
//! sockets.
//!
//! The TCP driver is not deterministic, so these tests assert the
//! *protocol invariants* the transport promises instead of byte
//! equality: every replica converges to the same delivered set, nothing
//! is delivered twice, no sequence gaps appear, and a crashed sender's
//! broadcasts are forwarded by survivors exactly once.
//!
//! Wall-clock sleeps are fine here — integration tests are exempt from
//! the wallclock lint, and loopback convergence is bounded by the
//! session heartbeat (25 ms) rather than the sleeps' generosity.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Duration;

use odp_awareness::bus::{CoopEvent, CoopKind, EventBus};
use odp_awareness::dist::{BusActor, BusWire};
use odp_awareness::events::ActivityKind;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::GcMsg;
use odp_net::actor::TransportActor;
use odp_net::ctx::NetCtx;
use odp_net::session::Frame;
use odp_net::tcp::{TcpConfig, TcpHandle, TcpNode};
use odp_net::wire::{encode_frame, FrameStream, MAX_FRAME};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

const NODES: u32 = 3;
const WRITES_EACH: u32 = 2;
const ARTEFACT: &str = "doc/plan";

/// Binds `n` nodes, exchanges addresses, and returns them ready to
/// spawn.
fn bound_fleet(n: u32, seed: u64) -> Vec<TcpNode> {
    let mut nodes: Vec<TcpNode> = (0..n)
        .map(|i| {
            let cfg = TcpConfig {
                seed,
                ..TcpConfig::default()
            };
            TcpNode::bind(NodeId(i), cfg).expect("bind loopback")
        })
        .collect();
    let addrs: BTreeMap<NodeId, SocketAddr> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (NodeId(i as u32), n.local_addr().expect("local addr")))
        .collect();
    for node in &mut nodes {
        node.set_peers(addrs.clone());
    }
    nodes
}

fn open_bus() -> EventBus {
    let mut bus = EventBus::new();
    for i in 0..NODES {
        bus.register(NodeId(i), 0.0);
    }
    bus
}

fn edit(publisher: u32, write: u32) -> BusWire {
    BusWire::new(CoopEvent::broadcast(
        NodeId(publisher),
        ARTEFACT,
        SimTime::from_millis(u64::from(write)),
        CoopKind::Activity(ActivityKind::Edit),
    ))
}

#[test]
fn bus_replicas_converge_over_loopback() {
    let view = View::initial(GroupId(0), (0..NODES).map(NodeId));
    let handles: Vec<TcpHandle<BusActor, GcMsg<BusWire>>> = bound_fleet(NODES, 7)
        .into_iter()
        .enumerate()
        .map(|(i, node)| node.spawn(BusActor::new(NodeId(i as u32), view.clone(), open_bus())))
        .collect();

    // Let the mesh connect, then publish from every node.
    std::thread::sleep(Duration::from_millis(200));
    for (i, handle) in handles.iter().enumerate() {
        for w in 0..WRITES_EACH {
            handle.inject(NodeId(i as u32), GcMsg::AppCmd(edit(i as u32, w)));
        }
    }
    std::thread::sleep(Duration::from_millis(1500));

    for (i, handle) in handles.into_iter().enumerate() {
        let me = NodeId(i as u32);
        let (actor, report) = handle.stop().expect("node stops cleanly");

        // Convergence: every replica surfaces exactly the publications
        // of the *other* nodes (a broadcast never reaches its actor),
        // each exactly once.
        let mut got: Vec<(NodeId, u64)> = actor
            .delivered()
            .iter()
            .map(|d| {
                assert_eq!(d.observer, me, "grants surface at their own node");
                (d.event.actor, d.event.at.as_micros())
            })
            .collect();
        got.sort_unstable();
        let mut want: Vec<(NodeId, u64)> = (0..NODES)
            .filter(|&p| p != me.0)
            .flat_map(|p| {
                (0..WRITES_EACH)
                    .map(move |w| (NodeId(p), SimTime::from_millis(u64::from(w)).as_micros()))
            })
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "node {i} delivered set");

        // Transport fidelity: no sequence gaps, and frames really moved
        // through the socket layer.
        let stats = report.stats;
        assert_eq!(stats.gaps, 0, "node {i} saw a sequence gap");
        assert_eq!(stats.evicted, 0, "node {i} evicted undelivered frames");
        assert!(
            report.metrics.counter("net.tcp.rx_frames") > 0,
            "node {i} never received a frame"
        );
        assert!(
            report.metrics.counter("aware.deliver") >= u64::from((NODES - 1) * WRITES_EACH),
            "node {i} under-delivered"
        );
    }
}

/// Records every delivered payload; the crash-forwarding test asserts
/// exactly-once delivery of a dead origin's broadcasts.
struct Recorder {
    seen: Vec<(NodeId, String)>,
}

impl TransportActor<String> for Recorder {
    fn on_message(&mut self, _ctx: &mut dyn NetCtx<String>, from: NodeId, msg: String) {
        self.seen.push((from, msg));
    }
}

#[test]
fn survivors_forward_a_crashed_senders_broadcast_exactly_once() {
    let handles: Vec<TcpHandle<Recorder, String>> = bound_fleet(NODES, 11)
        .into_iter()
        .map(|node| node.spawn(Recorder { seen: Vec::new() }))
        .collect();
    let mut handles = handles.into_iter();
    let origin = handles.next().expect("origin handle");
    let survivors: Vec<_> = handles.collect();

    // Connect, broadcast from node 0, let it land everywhere.
    std::thread::sleep(Duration::from_millis(200));
    origin.broadcast("last words".to_owned());
    std::thread::sleep(Duration::from_millis(400));

    // Crash the origin. Survivors see the connection drop, declare the
    // peer dead after the failure deadline, and re-forward its retained
    // broadcasts to each other; `(origin, bseq)` dedup must keep the
    // delivery count at one.
    drop(origin.stop().expect("origin stops"));
    std::thread::sleep(Duration::from_millis(600));

    let mut forwarded_total = 0;
    for (i, handle) in survivors.into_iter().enumerate() {
        let (actor, report) = handle.stop().expect("survivor stops");
        let copies = actor
            .seen
            .iter()
            .filter(|(from, msg)| *from == NodeId(0) && msg == "last words")
            .count();
        assert_eq!(copies, 1, "survivor {} delivered {copies} copies", i + 1);
        assert_eq!(report.stats.gaps, 0, "survivor {} saw a gap", i + 1);
        forwarded_total += report.stats.forwarded;
    }
    assert!(
        forwarded_total > 0,
        "no survivor forwarded the dead origin's broadcast"
    );
}

/// How long a test waits for one message before calling it lost.
const PATIENCE: Duration = Duration::from_secs(10);

/// Relays a payload injected under its own id on to `to` as a
/// unicast, and hands every payload a peer sent it to the test.
struct Relay {
    me: NodeId,
    to: NodeId,
    out: Sender<u64>,
}

impl TransportActor<u64> for Relay {
    fn on_message(&mut self, ctx: &mut dyn NetCtx<u64>, from: NodeId, msg: u64) {
        if from == self.me {
            ctx.send(self.to, msg);
        } else {
            let _ = self.out.send(msg);
        }
    }
}

fn relay(me: u32, to: u32, out: &Sender<u64>) -> Relay {
    Relay {
        me: NodeId(me),
        to: NodeId(to),
        out: out.clone(),
    }
}

/// Node 0 relaying to node 1, with node 1's deliveries on the receiver;
/// returns once a first unicast (payload 0) got through.
fn relay_pair(seed: u64) -> (TcpHandle<Relay, u64>, TcpHandle<Relay, u64>, Receiver<u64>) {
    let (out, got) = mpsc::channel();
    let mut nodes = bound_fleet(2, seed).into_iter();
    let sender = nodes.next().expect("node 0").spawn(relay(0, 1, &out));
    let receiver = nodes.next().expect("node 1").spawn(relay(1, 0, &out));
    // Sent before the mesh is up, it waits for the peer's hello.
    sender.inject(NodeId(0), 0);
    assert_eq!(got.recv_timeout(PATIENCE), Ok(0), "the mesh never came up");
    (sender, receiver, got)
}

#[test]
fn a_burst_of_unicasts_arrives_once_and_in_order() {
    const BURST: u64 = 5_000;
    let (sender, receiver, got) = relay_pair(13);
    // Back to back: the sender's driver drains many per turn and
    // coalesces their frames into one write.
    for n in 1..=BURST {
        sender.inject(NodeId(0), n);
    }
    for n in 1..=BURST {
        assert_eq!(got.recv_timeout(PATIENCE), Ok(n), "unicast {n} of {BURST}");
    }
    let (_, sent) = sender.stop().expect("sender stops");
    let (_, report) = receiver.stop().expect("receiver stops");
    assert!(got.try_recv().is_err(), "a unicast arrived twice");
    assert_eq!(report.stats.gaps, 0, "the receiver saw a sequence gap");
    assert_eq!(report.metrics.counter("net.tcp.delivered"), BURST + 1);
    assert!(sent.metrics.counter("net.tcp.tx_frames") > BURST);
}

#[test]
fn a_send_injected_just_before_stop_still_leaves() {
    let (sender, receiver, got) = relay_pair(17);
    // Handled in the same driver turn as the stop: only the flush on
    // the way out writes it.
    sender.inject(NodeId(0), 1);
    drop(sender.stop().expect("sender stops"));
    assert_eq!(got.recv_timeout(PATIENCE), Ok(1), "the last send was lost");
    drop(receiver.stop().expect("receiver stops"));
}

#[test]
fn a_replaced_connection_ending_leaves_its_successor_alone() {
    // Node 0 dials node 1, so node 1 is where a second connection can
    // claim node 0's id.
    let (out, got) = mpsc::channel();
    let mut nodes = bound_fleet(2, 19).into_iter();
    let dialer = nodes.next().expect("node 0");
    let hub = nodes.next().expect("node 1");
    let hub_addr = hub.local_addr().expect("local addr");
    let hub = hub.spawn(relay(1, 0, &out));

    // An impostor introduces itself as node 0 and becomes node 0's
    // link at node 1, as node 1's hello coming back on it shows.
    let mut impostor = TcpStream::connect(hub_addr).expect("connect");
    let hello = Frame::<u64>::Hello {
        from: NodeId(0),
        expected: 1,
    };
    impostor
        .write_all(&encode_frame(&hello, MAX_FRAME).expect("encodes"))
        .expect("hello written");
    impostor.set_read_timeout(Some(PATIENCE)).expect("timeout");
    let mut frames = FrameStream::new();
    let mut chunk = [0u8; 1024];
    loop {
        match frames.next::<Frame<u64>>(MAX_FRAME).expect("well-formed") {
            Some(Frame::Hello {
                from: NodeId(1), ..
            }) => break,
            Some(_) => {}
            None => {
                let n = impostor.read(&mut chunk).expect("node 1 answers");
                assert!(n > 0, "node 1 hung up on the impostor");
                frames.push(&chunk[..n]);
            }
        }
    }

    // The real node 0 dials in and replaces the impostor's link.
    let dialer = dialer.spawn(relay(0, 1, &out));
    hub.inject(NodeId(1), 1);
    assert_eq!(got.recv_timeout(PATIENCE), Ok(1), "node 0 never heard");

    // The replaced connection ends. Its end must not take the live
    // link with it: node 1 would then route nothing to node 0, and
    // neither side would ever redial.
    drop(impostor);
    std::thread::sleep(Duration::from_millis(100));
    hub.inject(NodeId(1), 2);
    assert_eq!(
        got.recv_timeout(PATIENCE),
        Ok(2),
        "the stale connection's end tore down its successor"
    );
    drop(dialer.stop().expect("node 0 stops"));
    drop(hub.stop().expect("node 1 stops"));
}
