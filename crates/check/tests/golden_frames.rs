//! Golden wire frames: the exact bytes of at least one value of every
//! struct envelope and of *every variant of every enum* envelope in the
//! workspace, captured from the hand-written codecs that preceded the
//! declarative `wire_struct!`/`wire_enum!` layer. Each case is checked
//! in both directions — `encode(value)` must equal the recorded bytes
//! and `decode(recorded bytes)` must equal the value — so any field
//! reordered, tag renumbered or width changed fails here by name.
//!
//! `fabric_differential` proves typed and fabric frames agree with
//! *each other*; this suite pins both to the format on record.

use odp_awareness::bus::{Audience, CoopEvent, CoopKind, CoopMode};
use odp_awareness::dist::BusWire;
use odp_awareness::events::ActivityKind;
use odp_fabric::Payload;
use odp_fabric::SpanCarrier;
use odp_groupcomm::membership::{GroupId, View, ViewId};
use odp_groupcomm::multicast::{DataMsg, GcMsg, MsgId};
use odp_groupcomm::to_fabric;
use odp_groupcomm::vclock::VectorClock;
use odp_mgmt::model::ClusterId;
use odp_net::session::Frame;
use odp_net::wire::{decode_frame, encode_frame, WireCodec, WireReader, MAX_FRAME};
use odp_place::wire::{PlaceWire, SpanObs};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;
use odp_trader::actors::{Invalidation, InvalidationReason};
use odp_trader::offer::ServiceType;

/// One named value: its encoding now, and whether its golden bytes
/// decode back to it.
struct Case {
    name: &'static str,
    encoded: Vec<u8>,
    golden_decodes: bool,
}

fn case<T: WireCodec + PartialEq>(name: &'static str, value: T) -> Case {
    let mut encoded = Vec::new();
    value.encode(&mut encoded);
    let golden_decodes = golden(name)
        .is_some_and(|bytes| WireReader::new(&bytes).finish::<T>().as_ref() == Ok(&value));
    Case {
        name,
        encoded,
        golden_decodes,
    }
}

/// The recorded bytes of the case called `name`, if there is one.
fn golden(name: &str) -> Option<Vec<u8>> {
    let &(_, hex) = GOLDEN.iter().find(|&&(n, _)| n == name)?;
    let digits = |pair| std::str::from_utf8(pair).expect("hex is ascii");
    Some(
        hex.as_bytes()
            .chunks(2)
            .map(|pair| u8::from_str_radix(digits(pair), 16).expect("two hex digits"))
            .collect(),
    )
}

fn hex(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        write!(out, "{byte:02x}").expect("writing to a String");
    }
    out
}

const ROOT: SpanCarrier = SpanCarrier {
    trace_id: 0x0102_0304_0506_0708,
    span_id: 0x1112_1314_1516_1718,
    parent: None,
};
const CHILD: SpanCarrier = SpanCarrier {
    trace_id: 0x0102_0304_0506_0708,
    span_id: 0x2122_2324_2526_2728,
    parent: Some(0x1112_1314_1516_1718),
};
const ID: MsgId = MsgId {
    origin: NodeId(2),
    seq: 9,
};

fn vclock() -> VectorClock {
    VectorClock::from_entries([(NodeId(0), 3), (NodeId(7), 1)])
}

fn view() -> View {
    let mut view = View::initial(GroupId(3), [NodeId(4), NodeId(0)]);
    view.id = ViewId(6);
    view
}

fn event(kind: CoopKind) -> CoopEvent {
    CoopEvent {
        actor: NodeId(1),
        artefact: "doc/a".into(),
        at: SimTime::from_millis(9),
        audience: Audience::Direct(NodeId(3)),
        kind,
    }
}

fn bus_wire() -> BusWire {
    BusWire {
        event: event(CoopKind::Activity(ActivityKind::Edit)),
        grants: vec![(NodeId(3), 1.0), (NodeId(4), 0.25)],
    }
}

fn data(vclock: Option<VectorClock>, span: Option<SpanCarrier>) -> GcMsg<String> {
    GcMsg::Data(DataMsg {
        id: ID,
        group: GroupId(1),
        vclock,
        span,
        payload: "hello".to_owned(),
    })
}

fn telemetry_cases() -> Vec<Case> {
    vec![
        case("SpanCarrier/root", ROOT),
        case("SpanCarrier/child", CHILD),
    ]
}

fn trader_cases() -> Vec<Case> {
    let note = |reason| Invalidation {
        service_type: ServiceType::new("video/live"),
        reason,
    };
    vec![
        case("ServiceType", ServiceType::new("video/live")),
        case(
            "InvalidationReason::Withdrawn",
            InvalidationReason::Withdrawn,
        ),
        case("InvalidationReason::Modified", InvalidationReason::Modified),
        case(
            "InvalidationReason::Rebalanced",
            InvalidationReason::Rebalanced,
        ),
        case("Invalidation", note(InvalidationReason::Modified)),
    ]
}

fn awareness_cases() -> Vec<Case> {
    vec![
        case("ActivityKind::Edit", ActivityKind::Edit),
        case("ActivityKind::View", ActivityKind::View),
        case("ActivityKind::Enter", ActivityKind::Enter),
        case("ActivityKind::Leave", ActivityKind::Leave),
        case("ActivityKind::Gesture", ActivityKind::Gesture),
        case("ActivityKind::Move", ActivityKind::Move),
        case("CoopMode::Shared", CoopMode::Shared),
        case("CoopMode::Exclusive", CoopMode::Exclusive),
        case("Audience::Everyone", Audience::Everyone),
        case("Audience::Direct", Audience::Direct(NodeId(5))),
        case(
            "CoopKind::Activity",
            CoopKind::Activity(ActivityKind::Gesture),
        ),
        case(
            "CoopKind::LockGranted",
            CoopKind::LockGranted {
                mode: CoopMode::Exclusive,
            },
        ),
        case(
            "CoopKind::LockTickled",
            CoopKind::LockTickled { by: NodeId(4) },
        ),
        case(
            "CoopKind::LockRevoked",
            CoopKind::LockRevoked { to: NodeId(5) },
        ),
        case(
            "CoopKind::LockConflict",
            CoopKind::LockConflict { with: NodeId(6) },
        ),
        case(
            "CoopKind::LockAccess",
            CoopKind::LockAccess {
                by: NodeId(7),
                mode: CoopMode::Shared,
            },
        ),
        case(
            "CoopKind::GroupAccess",
            CoopKind::GroupAccess {
                mode: CoopMode::Shared,
            },
        ),
        case("CoopKind::FloorGranted", CoopKind::FloorGranted),
        case("CoopKind::FloorPreempted", CoopKind::FloorPreempted),
        case("CoopKind::FloorIdle", CoopKind::FloorIdle),
        case(
            "CoopKind::RemoteOp",
            CoopKind::RemoteOp {
                site: NodeId(2),
                seq: 41,
            },
        ),
        case(
            "CoopKind::AccessChanged",
            CoopKind::AccessChanged {
                granted: true,
                rights: "rw".to_owned(),
            },
        ),
        case(
            "CoopKind::ReintegrationConflict",
            CoopKind::ReintegrationConflict { applied: false },
        ),
        case(
            "CoopKind::SessionSwitched",
            CoopKind::SessionSwitched {
                from: "meeting".to_owned(),
                to: "async".to_owned(),
            },
        ),
        case(
            "CoopKind::ServiceInvalidated",
            CoopKind::ServiceInvalidated {
                reason: "withdrawn".to_owned(),
            },
        ),
        case(
            "CoopKind::ClusterMigrated",
            CoopKind::ClusterMigrated {
                from: NodeId(0),
                to: NodeId(9),
            },
        ),
        case("CoopEvent", event(CoopKind::FloorGranted)),
        case("BusWire", bus_wire()),
        case(
            "BusWire/no-grants",
            BusWire::new(CoopEvent::broadcast(
                NodeId(1),
                "doc/report.tex",
                SimTime::from_millis(10),
                CoopKind::Activity(ActivityKind::Edit),
            )),
        ),
    ]
}

fn groupcomm_cases() -> Vec<Case> {
    vec![
        case("GroupId", GroupId(0x0a0b_0c0d)),
        case("ViewId", ViewId(0x0102_0304_0506_0708)),
        case("View", view()),
        case("MsgId", ID),
        case("VectorClock", vclock()),
        case("VectorClock/empty", VectorClock::new()),
        case(
            "DataMsg",
            DataMsg {
                id: ID,
                group: GroupId(1),
                vclock: Some(vclock()),
                span: Some(CHILD),
                payload: 0xfeed_u64,
            },
        ),
        case("GcMsg::Data/some", data(Some(vclock()), Some(CHILD))),
        case("GcMsg::Data/none", data(None, None)),
        case("GcMsg::Ack", GcMsg::<String>::Ack { id: ID }),
        case("GcMsg::SeqRequest", GcMsg::<String>::SeqRequest { id: ID }),
        case(
            "GcMsg::SeqAssign",
            GcMsg::<String>::SeqAssign {
                assign_id: MsgId {
                    origin: NodeId(0),
                    seq: 1,
                },
                id: ID,
                total: 17,
            },
        ),
        case(
            "GcMsg::RpcRequest/some",
            GcMsg::RpcRequest {
                call: 4,
                execute_at: Some(SimTime::from_millis(250)),
                span: Some(ROOT),
                payload: "req".to_owned(),
            },
        ),
        case(
            "GcMsg::RpcRequest/none",
            GcMsg::RpcRequest {
                call: 4,
                execute_at: None,
                span: None,
                payload: "req".to_owned(),
            },
        ),
        case(
            "GcMsg::RpcReply/some",
            GcMsg::RpcReply {
                call: 4,
                span: Some(CHILD),
                payload: "rep".to_owned(),
            },
        ),
        case(
            "GcMsg::RpcReply/none",
            GcMsg::RpcReply {
                call: 4,
                span: None,
                payload: "rep".to_owned(),
            },
        ),
        case("GcMsg::AppCmd", GcMsg::AppCmd("cmd".to_owned())),
        case("GcMsg::InstallView", GcMsg::<String>::InstallView(view())),
        case(
            "GcMsg<BusWire>::Data",
            GcMsg::Data(DataMsg {
                id: ID,
                group: GroupId(1),
                vclock: Some(vclock()),
                span: None,
                payload: bus_wire(),
            }),
        ),
    ]
}

fn frame_cases() -> Vec<Case> {
    let msg = || "m".to_owned();
    vec![
        case(
            "Frame::Hello",
            Frame::<String>::Hello {
                from: NodeId(1),
                expected: 3,
            },
        ),
        case("Frame::Heartbeat", Frame::<String>::Heartbeat),
        case("Frame::Data", Frame::Data { seq: 5, msg: msg() }),
        case(
            "Frame::Bcast",
            Frame::Bcast {
                seq: 6,
                origin: NodeId(2),
                bseq: 4,
                msg: msg(),
            },
        ),
        case(
            "Frame::Fwd",
            Frame::Fwd {
                seq: 7,
                origin: NodeId(2),
                bseq: 4,
                msg: msg(),
            },
        ),
        // The stack the live transport and odpbench's wire workloads
        // actually frame: session frame → group envelope → bus wire.
        case(
            "Frame::Bcast<GcMsg<BusWire>>",
            Frame::Bcast {
                seq: 6,
                origin: NodeId(2),
                bseq: 4,
                msg: GcMsg::Data(DataMsg {
                    id: ID,
                    group: GroupId(1),
                    vclock: None,
                    span: Some(ROOT),
                    payload: bus_wire(),
                }),
            },
        ),
    ]
}

fn place_cases() -> Vec<Case> {
    let cluster = ClusterId(5);
    let epoch = 0x0e;
    let to = NodeId(6);
    let obs = || SpanObs {
        ctx: CHILD,
        kind: "tile.serve".to_owned(),
        node: NodeId(2),
        opened: SimTime::from_millis(1),
        closed: SimTime::from_millis(2),
    };
    vec![
        case("SpanObs", obs()),
        case(
            "PlaceWire::Read/some",
            PlaceWire::Read {
                cluster,
                span: Some(ROOT),
            },
        ),
        case(
            "PlaceWire::Read/none",
            PlaceWire::Read {
                cluster,
                span: None,
            },
        ),
        case("PlaceWire::ReadOk", PlaceWire::ReadOk { cluster }),
        case(
            "PlaceWire::Write/some",
            PlaceWire::Write {
                cluster,
                byte: 0xa5,
                span: Some(CHILD),
            },
        ),
        case(
            "PlaceWire::Write/none",
            PlaceWire::Write {
                cluster,
                byte: 0xa5,
                span: None,
            },
        ),
        case("PlaceWire::WriteOk", PlaceWire::WriteOk { cluster }),
        case(
            "PlaceWire::WriteRefused",
            PlaceWire::WriteRefused { cluster },
        ),
        case("PlaceWire::Moved", PlaceWire::Moved { cluster, to }),
        case(
            "PlaceWire::Stats",
            PlaceWire::Stats {
                spans: vec![obs()],
                accesses: vec![(3, 12), (4, 1)],
            },
        ),
        case(
            "PlaceWire::HomeUpdate",
            PlaceWire::HomeUpdate { cluster, node: to },
        ),
        case(
            "PlaceWire::ViewChange",
            PlaceWire::ViewChange {
                view_id: 2,
                members: vec![NodeId(0), NodeId(1)],
            },
        ),
        case(
            "PlaceWire::Notice",
            PlaceWire::Notice(event(CoopKind::ClusterMigrated {
                from: NodeId(0),
                to: NodeId(9),
            })),
        ),
        case(
            "PlaceWire::Freeze",
            PlaceWire::Freeze { cluster, epoch, to },
        ),
        case(
            "PlaceWire::Chunk",
            PlaceWire::Chunk {
                cluster,
                epoch,
                index: 1,
                total: 2,
                data: vec![1, 2, 3],
            },
        ),
        case(
            "PlaceWire::ChunkAck",
            PlaceWire::ChunkAck {
                cluster,
                epoch,
                index: 1,
            },
        ),
        case(
            "PlaceWire::TransferDone",
            PlaceWire::TransferDone {
                cluster,
                epoch,
                hash: 0xfeed,
            },
        ),
        case(
            "PlaceWire::TransferFailed",
            PlaceWire::TransferFailed {
                cluster,
                epoch,
                reason: "destination down".to_owned(),
            },
        ),
        case(
            "PlaceWire::Commit",
            PlaceWire::Commit {
                cluster,
                epoch,
                hash: 0xfeed,
            },
        ),
        case(
            "PlaceWire::Installed",
            PlaceWire::Installed { cluster, epoch },
        ),
        case(
            "PlaceWire::InstallFailed",
            PlaceWire::InstallFailed {
                cluster,
                epoch,
                reason: "hash mismatch".to_owned(),
            },
        ),
        case(
            "PlaceWire::Release",
            PlaceWire::Release { cluster, epoch, to },
        ),
        case("PlaceWire::Abort", PlaceWire::Abort { cluster, epoch }),
    ]
}

fn cases() -> Vec<Case> {
    let mut all = telemetry_cases();
    all.extend(trader_cases());
    all.extend(awareness_cases());
    all.extend(groupcomm_cases());
    all.extend(frame_cases());
    all.extend(place_cases());
    all
}

/// `(case name, hex of its encoding)`, in `cases()` order.
const GOLDEN: &[(&str, &str)] = &[
    ("SpanCarrier/root", "0102030405060708111213141516171800"),
    ("SpanCarrier/child", "01020304050607082122232425262728011112131415161718"),
    ("ServiceType", "0000000a766964656f2f6c697665"),
    ("InvalidationReason::Withdrawn", "00"),
    ("InvalidationReason::Modified", "01"),
    ("InvalidationReason::Rebalanced", "02"),
    ("Invalidation", "0000000a766964656f2f6c69766501"),
    ("ActivityKind::Edit", "00"),
    ("ActivityKind::View", "01"),
    ("ActivityKind::Enter", "02"),
    ("ActivityKind::Leave", "03"),
    ("ActivityKind::Gesture", "04"),
    ("ActivityKind::Move", "05"),
    ("CoopMode::Shared", "00"),
    ("CoopMode::Exclusive", "01"),
    ("Audience::Everyone", "00"),
    ("Audience::Direct", "0100000005"),
    ("CoopKind::Activity", "0004"),
    ("CoopKind::LockGranted", "0101"),
    ("CoopKind::LockTickled", "0200000004"),
    ("CoopKind::LockRevoked", "0300000005"),
    ("CoopKind::LockConflict", "0400000006"),
    ("CoopKind::LockAccess", "050000000700"),
    ("CoopKind::GroupAccess", "0600"),
    ("CoopKind::FloorGranted", "07"),
    ("CoopKind::FloorPreempted", "08"),
    ("CoopKind::FloorIdle", "09"),
    ("CoopKind::RemoteOp", "0a000000020000000000000029"),
    ("CoopKind::AccessChanged", "0b01000000027277"),
    ("CoopKind::ReintegrationConflict", "0c00"),
    ("CoopKind::SessionSwitched", "0d000000076d656574696e67000000056173796e63"),
    ("CoopKind::ServiceInvalidated", "0e0000000977697468647261776e"),
    ("CoopKind::ClusterMigrated", "0f0000000000000009"),
    ("CoopEvent", "0000000100000005646f632f610000000000002328010000000307"),
    ("BusWire", "0000000100000005646f632f6100000000000023280100000003000000000002000000033ff0000000000000000000043fd0000000000000"),
    ("BusWire/no-grants", "000000010000000e646f632f7265706f72742e746578000000000000271000000000000000"),
    ("GroupId", "0a0b0c0d"),
    ("ViewId", "0102030405060708"),
    ("View", "000000030000000000000006000000020000000000000004"),
    ("MsgId", "000000020000000000000009"),
    ("VectorClock", "00000002000000000000000000000003000000070000000000000001"),
    ("VectorClock/empty", "00000000"),
    ("DataMsg", "0000000200000000000000090000000101000000020000000000000000000000030000000700000000000000010101020304050607082122232425262728011112131415161718000000000000feed"),
    ("GcMsg::Data/some", "0000000002000000000000000900000001010000000200000000000000000000000300000007000000000000000101010203040506070821222324252627280111121314151617180000000568656c6c6f"),
    ("GcMsg::Data/none", "000000000200000000000000090000000100000000000568656c6c6f"),
    ("GcMsg::Ack", "01000000020000000000000009"),
    ("GcMsg::SeqRequest", "02000000020000000000000009"),
    ("GcMsg::SeqAssign", "030000000000000000000000010000000200000000000000090000000000000011"),
    ("GcMsg::RpcRequest/some", "04000000000000000401000000000003d09001010203040506070811121314151617180000000003726571"),
    ("GcMsg::RpcRequest/none", "040000000000000004000000000003726571"),
    ("GcMsg::RpcReply/some", "050000000000000004010102030405060708212223242526272801111213141516171800000003726570"),
    ("GcMsg::RpcReply/none", "0500000000000000040000000003726570"),
    ("GcMsg::AppCmd", "0600000003636d64"),
    ("GcMsg::InstallView", "07000000030000000000000006000000020000000000000004"),
    ("GcMsg<BusWire>::Data", "00000000020000000000000009000000010100000002000000000000000000000003000000070000000000000001000000000100000005646f632f6100000000000023280100000003000000000002000000033ff0000000000000000000043fd0000000000000"),
    ("Frame::Hello", "00000000010000000000000003"),
    ("Frame::Heartbeat", "01"),
    ("Frame::Data", "020000000000000005000000016d"),
    ("Frame::Bcast", "030000000000000006000000020000000000000004000000016d"),
    ("Frame::Fwd", "040000000000000007000000020000000000000004000000016d"),
    ("Frame::Bcast<GcMsg<BusWire>>", "0300000000000000060000000200000000000000040000000002000000000000000900000001000101020304050607081112131415161718000000000100000005646f632f6100000000000023280100000003000000000002000000033ff0000000000000000000043fd0000000000000"),
    ("SpanObs", "010203040506070821222324252627280111121314151617180000000a74696c652e73657276650000000200000000000003e800000000000007d0"),
    ("PlaceWire::Read/some", "0000000005010102030405060708111213141516171800"),
    ("PlaceWire::Read/none", "000000000500"),
    ("PlaceWire::ReadOk", "0100000005"),
    ("PlaceWire::Write/some", "0200000005a50101020304050607082122232425262728011112131415161718"),
    ("PlaceWire::Write/none", "0200000005a500"),
    ("PlaceWire::WriteOk", "0300000005"),
    ("PlaceWire::WriteRefused", "0400000005"),
    ("PlaceWire::Moved", "050000000500000006"),
    ("PlaceWire::Stats", "0600000001010203040506070821222324252627280111121314151617180000000a74696c652e73657276650000000200000000000003e800000000000007d00000000200000003000000000000000c000000040000000000000001"),
    ("PlaceWire::HomeUpdate", "070000000500000006"),
    ("PlaceWire::ViewChange", "080000000000000002000000020000000000000001"),
    ("PlaceWire::Notice", "090000000100000005646f632f61000000000000232801000000030f0000000000000009"),
    ("PlaceWire::Freeze", "0a00000005000000000000000e00000006"),
    ("PlaceWire::Chunk", "0b00000005000000000000000e000000010000000200000003010203"),
    ("PlaceWire::ChunkAck", "0c00000005000000000000000e00000001"),
    ("PlaceWire::TransferDone", "0d00000005000000000000000e000000000000feed"),
    ("PlaceWire::TransferFailed", "0e00000005000000000000000e0000001064657374696e6174696f6e20646f776e"),
    ("PlaceWire::Commit", "0f00000005000000000000000e000000000000feed"),
    ("PlaceWire::Installed", "1000000005000000000000000e"),
    ("PlaceWire::InstallFailed", "1100000005000000000000000e0000000d68617368206d69736d61746368"),
    ("PlaceWire::Release", "1200000005000000000000000e00000006"),
    ("PlaceWire::Abort", "1300000005000000000000000e"),
];

#[test]
fn every_envelope_matches_its_golden_frame() {
    let cases = cases();
    let table: String = cases
        .iter()
        .map(|c| format!("    ({:?}, {:?}),\n", c.name, hex(&c.encoded)))
        .collect();
    assert_eq!(
        cases.iter().map(|c| c.name).collect::<Vec<_>>(),
        GOLDEN.iter().map(|&(name, _)| name).collect::<Vec<_>>(),
        "cases and golden table list different names; current encodings:\n{table}"
    );
    for (case, &(name, golden)) in cases.iter().zip(GOLDEN) {
        assert_eq!(hex(&case.encoded), golden, "{name}: encoding moved");
        assert!(
            case.golden_decodes,
            "{name}: the golden bytes no longer decode to the value"
        );
    }
}

/// The fabric re-enveloping and the length-prefixed framing reproduce
/// the same golden bytes: `to_fabric` changes no byte, and
/// `encode_frame` is exactly `[len: u32 BE]` + the body.
#[test]
fn fabric_and_framing_reproduce_the_golden_bytes() {
    let msg = data(Some(vclock()), Some(CHILD));
    let body = golden("GcMsg::Data/some").expect("recorded");
    let mut fabric = Vec::new();
    to_fabric(&msg).encode(&mut fabric);
    assert_eq!(fabric, body);

    let mut framed = (body.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(&body);
    assert_eq!(
        encode_frame(&msg, MAX_FRAME).expect("under the cap"),
        framed
    );
    let (back, used): (GcMsg<Payload>, usize) =
        decode_frame(&framed, MAX_FRAME).expect("golden frame decodes");
    assert_eq!(back, to_fabric(&msg));
    assert_eq!(used, framed.len());
}
