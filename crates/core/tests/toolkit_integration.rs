//! Integration tests across the toolkit modules of `cscw-core`:
//! conferencing inside sessions, flight strips feeding awareness, and
//! documents flowing through workflow routes.

use cscw_core::conference::TransparentConference;
use cscw_core::document::{AnnotationKind, QuiltDocument};
use cscw_core::flightstrips::{Beacon, Callsign, FlightProgressBoard, FlightStrip, PlacementMode};
use cscw_core::session::{Session, SessionId, SessionMode};
use odp_awareness::bus::EventBus;
use odp_concurrency::floor::FloorPolicy;
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};
use odp_workflow::routes::{Next, RouteStep, RoutedProcedure, StepId};
use odp_workflow::speechact::Party;
use std::collections::BTreeMap;

/// A conference runs inside a session; the session's mode transition to
/// async ends the floor-controlled phase but preserves the artefacts.
#[test]
fn conference_lives_inside_a_session() {
    let mut bus = EventBus::new();
    let mut session = Session::new(SessionId(3), SessionMode::SYNC_DISTRIBUTED);
    let mut conf = TransparentConference::new(FloorPolicy::RequestQueue);
    for n in 0..3u32 {
        session.join(NodeId(n)).expect("fresh member");
        conf.join(NodeId(n));
        bus.register(NodeId(n), 0.0);
    }
    session.share("whiteboard");
    let grants = bus.publish_all(&conf.request_floor(NodeId(0), SimTime::ZERO));
    assert_eq!(grants.len(), 2, "both other members see the floor grant");
    conf.input(NodeId(0), "sketch the design", SimTime::from_secs(1))
        .expect("floor holder");
    // The meeting ends; work continues asynchronously on the same session.
    let t = session.switch_mode(
        NodeId(0),
        SessionMode::ASYNC_DISTRIBUTED,
        SimTime::from_secs(3_600),
    );
    let announced = bus.publish_all([&t]);
    assert!(t.cost > SimDuration::ZERO);
    assert_eq!(announced.len(), 2, "the seam is announced to the others");
    assert_eq!(
        session.artefacts(),
        vec!["whiteboard"],
        "artefact survives the mode switch"
    );
    assert_eq!(conf.app_log().len(), 1, "the synchronous work is on record");
}

/// The flight-strip board's manual actions behave like awareness events:
/// they accumulate, carry the actor, and order by time.
#[test]
fn flight_strip_attention_is_a_public_record() {
    let mut board = FlightProgressBoard::new();
    let pol = Beacon("POL".into());
    board.add_rack(pol.clone());
    for (i, (cs, eta)) in [("A1", 300u64), ("B2", 400), ("C3", 500)]
        .iter()
        .enumerate()
    {
        board
            .place(
                NodeId(i as u32),
                pol.clone(),
                FlightStrip {
                    callsign: Callsign((*cs).into()),
                    eta: SimTime::from_secs(*eta),
                    level: 330,
                    instructions: vec![],
                },
                PlacementMode::Manual,
                Some(i),
                SimTime::from_secs(i as u64),
            )
            .expect("rack exists");
    }
    let attention = board.attention();
    assert_eq!(attention.len(), 3);
    // Ordered and attributed: the team can reconstruct who did what when.
    for (i, ev) in attention.iter().enumerate() {
        assert_eq!(ev.by, NodeId(i as u32));
        assert_eq!(ev.at, SimTime::from_secs(i as u64));
    }
}

/// A document travels an editorial route: drafted, annotated, revised,
/// approved — the workflow gates the document operations.
#[test]
fn document_flows_through_an_editorial_route() {
    let author = Party(1);
    let editor = Party(2);
    let steps = vec![
        RouteStep {
            id: StepId(0),
            role: author,
            description: "draft".into(),
            routes: BTreeMap::from([("submitted".to_owned(), Next::Step(StepId(1)))]),
        },
        RouteStep {
            id: StepId(1),
            role: editor,
            description: "review".into(),
            routes: BTreeMap::from([
                ("approved".to_owned(), Next::Done),
                ("revise".to_owned(), Next::Step(StepId(0))),
            ]),
        },
    ];
    let mut route = RoutedProcedure::new(steps, StepId(0)).expect("valid route");
    let mut doc = QuiltDocument::new("The draft introducton.");

    // Draft submitted.
    route.perform(author, "submitted").expect("author's turn");
    // The editor spots the typo, attaches a suggestion, and routes back.
    let fix = doc
        .annotate(
            NodeId(2),
            AnnotationKind::Suggestion,
            (10, 21),
            "introduction",
            SimTime::ZERO,
        )
        .expect("anchor in range");
    route.perform(editor, "revise").expect("editor's turn");
    assert_eq!(route.current().expect("route continues").id, StepId(0));
    // The author accepts the fix and resubmits.
    doc.accept_suggestion(fix).expect("is a suggestion");
    assert_eq!(doc.base(), "The draft introduction.");
    route.perform(author, "submitted").expect("author's turn");
    route.perform(editor, "approved").expect("editor's turn");
    assert!(route.is_done());
    assert_eq!(route.times_performed(StepId(0)), 2, "one rework loop");
    assert_eq!(doc.revisions(), 1);
}
