//! Differential suite for the message fabric: re-enveloping any typed
//! protocol message onto the byte-oriented `odp-fabric` layer must not
//! change a single wire frame, and a group scenario run over
//! `GcMsg<Payload>` must reproduce the typed run's delivery schedule
//! exactly — same times, same sequence numbers, same bytes. Together
//! these prove the zero-copy refactor is observationally invisible:
//! the fabric changes who owns the bytes, never what is on the wire or
//! when it is delivered.

use std::sync::Arc;

use odp_awareness::bus::{Audience, CoopEvent, CoopKind, CoopMode};
use odp_awareness::dist::BusWire;
use odp_awareness::events::ActivityKind;
use odp_fabric::Payload;
use odp_fabric::SpanCarrier;
use odp_groupcomm::actors::{GroupActor, GroupApp};
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{DataMsg, Delivery, GcMsg, MsgId, Ordering, Reliability};
use odp_groupcomm::rpc::{ReplyBody, RequestBody};
use odp_groupcomm::vclock::VectorClock;
use odp_groupcomm::{from_fabric, to_fabric};
use odp_net::wire::{payload_of, WireCodec};
use odp_place::wire::{PlaceWire, SpanObs};
use odp_sim::prelude::*;
use odp_trader::actors::{Invalidation, InvalidationReason};
use odp_trader::offer::ServiceType;

fn encoding<T: WireCodec>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Every `BusWire` shape the awareness bus puts on the wire: bare
/// injections, cleared grant lists, directed and broadcast audiences.
fn bus_wires() -> Vec<BusWire> {
    let broadcast = CoopEvent::broadcast(
        NodeId(1),
        "doc/report.tex",
        SimTime::from_millis(10),
        CoopKind::Activity(ActivityKind::Edit),
    );
    let mut granted = BusWire::new(broadcast.clone());
    granted.grants = vec![(NodeId(2), 0.75), (NodeId(3), 0.5)];
    let directed = CoopEvent {
        actor: NodeId(4),
        artefact: "doc/fig1.svg".into(),
        at: SimTime::from_millis(20),
        audience: Audience::Direct(NodeId(5)),
        kind: CoopKind::LockGranted {
            mode: CoopMode::Exclusive,
        },
    };
    vec![BusWire::new(broadcast), granted, BusWire::new(directed)]
}

/// Every `Invalidation` reason the trader coherence plane multicasts.
fn invalidations() -> Vec<Invalidation> {
    [
        InvalidationReason::Withdrawn,
        InvalidationReason::Modified,
        InvalidationReason::Rebalanced,
    ]
    .into_iter()
    .map(|reason| Invalidation {
        service_type: ServiceType::new("video/live"),
        reason,
    })
    .collect()
}

/// Every `PlaceWire` variant, workload and migration plane alike.
fn place_wires() -> Vec<PlaceWire> {
    let span = SpanCarrier::root(0x11, 0x22);
    vec![
        PlaceWire::Read {
            cluster: odp_mgmt::model::ClusterId(3),
            span: Some(span),
        },
        PlaceWire::ReadOk {
            cluster: odp_mgmt::model::ClusterId(3),
        },
        PlaceWire::Write {
            cluster: odp_mgmt::model::ClusterId(4),
            byte: 0xA5,
            span: None,
        },
        PlaceWire::WriteOk {
            cluster: odp_mgmt::model::ClusterId(4),
        },
        PlaceWire::WriteRefused {
            cluster: odp_mgmt::model::ClusterId(4),
        },
        PlaceWire::Moved {
            cluster: odp_mgmt::model::ClusterId(4),
            to: NodeId(7),
        },
        PlaceWire::Stats {
            spans: vec![SpanObs {
                ctx: SpanCarrier::child_of(span.trace_id, 0x33, span.span_id),
                kind: "tile.serve".to_owned(),
                node: NodeId(2),
                opened: SimTime::from_millis(1),
                closed: SimTime::from_millis(2),
            }],
            accesses: vec![(3, 12), (4, 1)],
        },
        PlaceWire::HomeUpdate {
            cluster: odp_mgmt::model::ClusterId(3),
            node: NodeId(9),
        },
        PlaceWire::ViewChange {
            view_id: 2,
            members: vec![NodeId(0), NodeId(1)],
        },
        PlaceWire::Notice(CoopEvent::broadcast(
            NodeId(0),
            "cluster/3",
            SimTime::from_millis(30),
            CoopKind::Activity(ActivityKind::View),
        )),
        PlaceWire::Freeze {
            cluster: odp_mgmt::model::ClusterId(5),
            epoch: 1,
            to: NodeId(6),
        },
        PlaceWire::Chunk {
            cluster: odp_mgmt::model::ClusterId(5),
            epoch: 1,
            index: 0,
            total: 2,
            data: vec![1, 2, 3],
        },
        PlaceWire::ChunkAck {
            cluster: odp_mgmt::model::ClusterId(5),
            epoch: 1,
            index: 0,
        },
        PlaceWire::TransferDone {
            cluster: odp_mgmt::model::ClusterId(5),
            epoch: 1,
            hash: 0xfeed,
        },
        PlaceWire::TransferFailed {
            cluster: odp_mgmt::model::ClusterId(5),
            epoch: 1,
            reason: "destination down".to_owned(),
        },
        PlaceWire::Commit {
            cluster: odp_mgmt::model::ClusterId(5),
            epoch: 1,
            hash: 0xfeed,
        },
        PlaceWire::Installed {
            cluster: odp_mgmt::model::ClusterId(5),
            epoch: 1,
        },
        PlaceWire::InstallFailed {
            cluster: odp_mgmt::model::ClusterId(5),
            epoch: 1,
            reason: "hash mismatch".to_owned(),
        },
        PlaceWire::Release {
            cluster: odp_mgmt::model::ClusterId(5),
            epoch: 1,
            to: NodeId(6),
        },
        PlaceWire::Abort {
            cluster: odp_mgmt::model::ClusterId(5),
            epoch: 1,
        },
    ]
}

/// Wraps each payload value in every payload-carrying `GcMsg` envelope
/// plus the payload-free control variants.
fn gc_envelopes<P: Clone>(payload: P) -> Vec<GcMsg<P>> {
    let id = MsgId {
        origin: NodeId(2),
        seq: 9,
    };
    let mut vc = VectorClock::new();
    vc.tick(NodeId(0));
    let span = SpanCarrier::root(0xaa, 0xbb);
    vec![
        GcMsg::Data(Arc::new(DataMsg {
            id,
            group: GroupId(1),
            vclock: Some(vc),
            span: Some(span),
            payload: payload.clone(),
        })),
        GcMsg::Ack { id },
        GcMsg::SeqRequest { id },
        GcMsg::SeqAssign {
            assign_id: MsgId {
                origin: NodeId(0),
                seq: 1,
            },
            id,
            total: 17,
        },
        GcMsg::RpcRequest {
            call: 4,
            body: Arc::new(RequestBody {
                execute_at: Some(SimTime::from_millis(250)),
                span: None,
                payload: payload.clone(),
            }),
        },
        GcMsg::RpcReply {
            call: 4,
            body: Box::new(ReplyBody {
                span: Some(SpanCarrier::child_of(span.trace_id, 0xcc, span.span_id)),
                payload: payload.clone(),
            }),
        },
        GcMsg::AppCmd(payload),
        GcMsg::InstallView(View::initial(GroupId(3), [NodeId(0), NodeId(4)])),
    ]
}

/// The core frame differential, generic over the payload type: the
/// typed envelope and its fabric re-enveloping must encode to the same
/// bytes, and `from_fabric` must invert `to_fabric` exactly.
fn assert_fabric_transparent<P>(payloads: Vec<P>)
where
    P: WireCodec + Clone + PartialEq + std::fmt::Debug,
{
    for payload in payloads {
        for msg in gc_envelopes(payload) {
            let fabric = to_fabric(&msg);
            assert_eq!(
                encoding(&msg),
                encoding(&fabric),
                "typed and fabric frames diverge for {msg:?}"
            );
            let back: GcMsg<P> = from_fabric(&fabric).expect("fabric payloads decode");
            assert_eq!(back, msg);
        }
    }
}

#[test]
fn gcmsg_over_buswire_is_fabric_transparent() {
    assert_fabric_transparent(bus_wires());
}

#[test]
fn gcmsg_over_trader_invalidations_is_fabric_transparent() {
    assert_fabric_transparent(invalidations());
}

/// `PlaceWire` rides point-to-point (no `GcMsg` envelope), so its
/// fabric form is a bare `Payload` wrapper: wrapping must be
/// frame-invisible for every variant of both planes.
#[test]
fn placewire_payload_wrapping_is_frame_invisible() {
    for wire in place_wires() {
        let wrapped: Payload = payload_of(&wire);
        assert_eq!(
            encoding(&wire),
            encoding(&wrapped),
            "wrapping changed the frame for {wire:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Sim-level schedule differential: typed vs fabric group actors.
// ---------------------------------------------------------------------------

/// One observed delivery: `(micros, origin, seq, payload bytes)`.
type Observed = (u64, u32, u64, Vec<u8>);

/// Records every delivery — the full observable schedule of a group
/// member.
struct ScheduleLog<P> {
    log: Vec<Observed>,
    to_bytes: fn(&P) -> Vec<u8>,
}

impl<P: Clone + 'static> GroupApp<P> for ScheduleLog<P> {
    fn on_deliver(&mut self, ctx: &mut Ctx<'_, GcMsg<P>>, d: Delivery<P>) {
        self.log.push((
            ctx.now().as_micros(),
            d.id.origin.0,
            d.id.seq,
            (self.to_bytes)(&d.payload),
        ));
    }
}

/// Runs a 4-node totally-ordered reliable group where every node
/// multicasts twice, and returns each node's delivery schedule.
fn run_group<P: Clone + 'static>(
    seed: u64,
    wrap: fn(&str) -> P,
    to_bytes: fn(&P) -> Vec<u8>,
) -> Vec<Vec<Observed>> {
    let nodes = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
    let view = View::initial(GroupId(0), nodes);
    let mut sim = SimBuilder::new(seed).build();
    for &n in &nodes {
        sim.add_actor(
            n,
            GroupActor::new(
                n,
                view.clone(),
                Ordering::Total,
                Reliability::reliable(),
                ScheduleLog {
                    log: Vec::new(),
                    to_bytes,
                },
            ),
        );
    }
    for (round, at) in [5u64, 40].into_iter().enumerate() {
        for &n in &nodes {
            let text = format!("m{}-{}", round, n.0);
            sim.inject(
                SimTime::from_millis(at + n.0 as u64),
                n,
                n,
                GcMsg::AppCmd(wrap(&text)),
            );
        }
    }
    // The group maintenance tick re-arms forever, so bound the horizon:
    // two simulated seconds is dozens of ticks past the last inject
    // round (40ms) plus full ack/retransmit settling.
    sim.run(Until::For(SimDuration::from_secs(2)));
    nodes
        .iter()
        .map(|&n| {
            sim.get::<GroupActor<P, ScheduleLog<P>>>(ActorHandle::of(n))
                .expect("actor present")
                .app()
                .log
                .clone()
        })
        .collect()
}

/// The same seeded scenario run over `GcMsg<String>` and over
/// `GcMsg<Payload>` must produce identical delivery schedules on every
/// node: same delivery instants, same `(origin, seq)` ids, same bytes,
/// in the same order. This is the fabric's determinism contract at the
/// simulation level — the explorer/DPOR fixtures then pin it across
/// schedules.
#[test]
fn typed_and_fabric_runs_deliver_identically() {
    for seed in [1, 7, 42] {
        let typed = run_group::<String>(seed, |s| s.to_owned(), encoding);
        let fabric = run_group::<Payload>(
            seed,
            |s| payload_of(&s.to_owned()),
            |p| p.as_slice().to_vec(),
        );
        assert_eq!(
            typed, fabric,
            "delivery schedules diverged under seed {seed}"
        );
        // Sanity: everyone delivered all 8 multicasts, in total order —
        // every node saw the same (origin, seq) sequence.
        for node in &typed {
            assert_eq!(node.len(), 8, "all multicasts deliver");
        }
        let canonical: Vec<(u32, u64)> = typed[0].iter().map(|&(_, o, s, _)| (o, s)).collect();
        for node in &typed[1..] {
            let order: Vec<(u32, u64)> = node.iter().map(|&(_, o, s, _)| (o, s)).collect();
            assert_eq!(order, canonical, "total order must agree across nodes");
        }
    }
}
