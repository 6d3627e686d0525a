//! Desktop conferencing with live media (paper §3.2.2 + §4.2.2): a
//! collaboration-transparent whiteboard behind floor control, next to a
//! collaboration-aware editor with telepointers — plus a QoS-managed
//! video stream between the two sites that degrades mid-meeting and is
//! renegotiated.
//!
//! Run with: `cargo run --example desktop_conference`

use cscw::awareness::bus::EventBus;
use cscw::core::conference::{AwareConference, TransparentConference};
use cscw::streams::actors::{SinkActor, SourceActor, StreamMsg};
use cscw::streams::media::{MediaKind, MediaSink, MediaSource, StreamId};
use cscw::streams::monitor::QosMonitor;
use cscw::streams::qos::QosSpec;
use odp_concurrency::floor::FloorPolicy;
use odp_sim::prelude::*;

fn main() {
    println!("Desktop conference");
    println!("==================\n");

    // ---- Collaboration-transparent: shared single-user whiteboard ----
    // The conference returns its floor grants and releases; publishing
    // them on the cooperation-event bus shows every seat whose turn it is.
    let mut bus = EventBus::new();
    let mut shared = TransparentConference::new(FloorPolicy::RequestQueue);
    for n in 0..3 {
        shared.join(NodeId(n));
        bus.register(NodeId(n), 0.0);
    }
    let grants = bus.publish_all(&shared.request_floor(NodeId(0), SimTime::ZERO));
    println!(
        "Floor granted to node 0; {} peers notified on the bus.",
        grants.len()
    );
    bus.publish_all(&shared.request_floor(NodeId(1), SimTime::ZERO)); // queued: nothing to announce
    let out = shared
        .input(NodeId(0), "draw architecture box", SimTime::from_secs(1))
        .expect("holder may draw");
    println!(
        "Transparent whiteboard: node 0 draws; output multicast to {} screens.",
        out.len()
    );
    match shared.input(NodeId(1), "draw too", SimTime::from_secs(2)) {
        Err(e) => println!("Node 1 tries to draw concurrently: {e} (turn-taking enforced)"),
        Ok(_) => unreachable!("floor control must refuse"),
    }
    bus.publish_all(&shared.release_floor(NodeId(0), SimTime::from_secs(3)));
    println!(
        "Floor passes to node {:?} on release.\n",
        shared.floor_holder()
    );

    // ---- Collaboration-aware: relaxed WYSIWIS -------------------------
    let mut aware = AwareConference::new();
    for n in 0..3 {
        aware.join(NodeId(n));
    }
    aware.scroll(NodeId(0), 0).expect("member");
    aware.scroll(NodeId(1), 40).expect("member");
    let watchers = aware.point(NodeId(1), (12, 7)).expect("member");
    aware.input(NodeId(0), "edit title").expect("member");
    aware.input(NodeId(1), "edit section 3").expect("member");
    println!("Aware editor: members hold different viewports (0 vs 40),");
    println!(
        "node 1's telepointer renders on {} peer screens,",
        watchers.len()
    );
    println!(
        "and {} inputs interleaved without a floor.\n",
        aware.shared_log().len()
    );

    // ---- The video channel with QoS management ------------------------
    println!("Conference video (25 fps contract, link degrades at t=5s):");
    let net = Network::new(LinkSpec::lan());
    let mut sim: Sim<StreamMsg> = SimBuilder::new(7).network(net).build();
    let contract = QosSpec::video();
    sim.add_actor(
        NodeId(0),
        SourceActor::new(
            MediaSource::new(StreamId(0), MediaKind::Video, 25, 4_000),
            vec![NodeId(1)],
            contract,
        ),
    );
    sim.add_actor(
        NodeId(1),
        SinkActor::new(
            MediaSink::new(StreamId(0), SimDuration::from_millis(120)),
            QosMonitor::new(contract, SimDuration::from_secs(1)),
            NodeId(0),
        ),
    );
    sim.schedule_net_change(SimTime::from_secs(5), |net| {
        net.set_link(
            NodeId(0),
            NodeId(1),
            LinkSpec {
                latency: SimDuration::from_millis(350),
                jitter: SimDuration::from_millis(90),
                bytes_per_sec: Some(35_000),
                loss: 0.05,
            },
        );
    });
    sim.run(Until::For(SimDuration::from_secs(30)));
    let source: &SourceActor = sim.get(ActorHandle::of(NodeId(0))).expect("source");
    let sink: &SinkActor = sim.get(ActorHandle::of(NodeId(1))).expect("sink");
    println!(
        "  violations reported : {}",
        sim.metrics().counter("stream.violation_reports")
    );
    println!("  renegotiations      : {}", source.renegotiations());
    println!("  final contract      : {}", source.contract());
    println!(
        "  media integrity     : {:.1}%",
        sink.sink().integrity() * 100.0
    );
    println!("\nThe sink detected the degradation end-to-end, informed the");
    println!("source, and the stream renegotiated down instead of dying.");
}
