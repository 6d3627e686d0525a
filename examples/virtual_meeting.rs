//! A virtual meeting: the rooms metaphor, the focus/nimbus spatial
//! model, and a replicated shared workspace combine into the paper's
//! §3.3.2 vision — "personal spaces (offices), shared spaces (meeting
//! rooms) and doors to move between such spaces", with a live shared
//! artefact replicated to every participant's node.
//!
//! Run with: `cargo run --example virtual_meeting`

use cscw::awareness::spatial::{Position, SpatialBody, SpatialModel};
use cscw::core::replicated::{replica_actor, WorkspaceReplica, WsOp};
use cscw::core::rooms::{Building, DoorState, RoomId, RoomKind};
use cscw::core::workspace::{ObjectId, SharedWorkspace};
use cscw::groupcomm::actors::GroupActor;
use cscw::groupcomm::membership::{GroupId, View};
use cscw::groupcomm::multicast::GcMsg;
use odp_access::rbac::{Effect, RoleId};
use odp_access::rights::Rights;
use odp_sim::prelude::*;

fn meeting_workspace() -> SharedWorkspace {
    let mut ws = SharedWorkspace::new();
    ws.policy_mut()
        .add_rule(RoleId(1), "shared".into(), Rights::ALL, Effect::Allow);
    for i in 0..3u32 {
        ws.policy_mut()
            .assign(odp_access::matrix::Subject(i), RoleId(1));
        ws.register_observer(NodeId(i), 0.0);
    }
    ws.create_artefact(ObjectId(1), "shared/1", "meeting agenda: (empty)");
    ws
}

fn main() {
    println!("Virtual meeting — rooms, space and a shared whiteboard");
    println!("======================================================\n");

    // ---- The building -------------------------------------------------
    let mut building = Building::new();
    building.create(RoomId(1), RoomKind::Office(0));
    building.create(RoomId(2), RoomKind::MeetingRoom);
    building
        .set_door(RoomId(1), DoorState::Ajar)
        .expect("room exists");
    building
        .place_artefact(RoomId(2), "whiteboard")
        .expect("room exists");

    for n in 0..3u32 {
        building
            .enter(NodeId(n), RoomId(2))
            .expect("meeting room is open");
    }
    println!(
        "All three participants entered the meeting room; occupants: {:?}",
        building.occupants(RoomId(2)).expect("room exists")
    );
    println!(
        "Visible work materials for n0: {:?}\n",
        building.visible_artefacts(NodeId(0))
    );

    // ---- Spatial awareness around the table ---------------------------
    let mut space = SpatialModel::new();
    space.place(
        NodeId(0),
        SpatialBody::symmetric(Position::new(0.0, 0.0), 100.0, 15.0),
    );
    space.place(
        NodeId(1),
        SpatialBody::symmetric(Position::new(3.0, 0.0), 100.0, 15.0),
    );
    space.place(
        NodeId(2),
        SpatialBody::symmetric(Position::new(0.0, 4.0), 100.0, 15.0),
    );
    println!("Around the table, n0 is aware of:");
    for (who, weight) in space.aware_of(NodeId(0)) {
        println!("  {who} with weight {weight:.2}");
    }

    // ---- The replicated whiteboard -------------------------------------
    println!("\nEach participant's node holds a replica of the whiteboard;");
    println!("edits go through totally-ordered reliable multicast:\n");
    let view = View::initial(GroupId(0), (0..3).map(NodeId));
    let net = Network::new(LinkSpec::wan(SimDuration::from_millis(15)));
    let mut sim: Sim<GcMsg<WsOp>> = SimBuilder::new(5).network(net).build();
    for i in 0..3u32 {
        sim.add_actor(
            NodeId(i),
            replica_actor(NodeId(i), view.clone(), meeting_workspace()),
        );
    }
    // Concurrent edits from all three participants.
    for (i, text) in [
        (0u32, "1. review QoS draft"),
        (1, "2. assign reviewers"),
        (2, "3. plan demo"),
    ] {
        sim.inject(
            SimTime::from_millis(20),
            NodeId(i),
            NodeId(i),
            GcMsg::AppCmd(WsOp {
                actor: i,
                object: 1,
                value: format!("agenda + {text}"),
            }),
        );
    }
    sim.run(Until::For(SimDuration::from_secs(10)));
    let mut finals = Vec::new();
    for i in 0..3u32 {
        let actor: &GroupActor<WsOp, WorkspaceReplica> =
            sim.get(ActorHandle::of(NodeId(i))).expect("replica");
        let history: Vec<String> = actor
            .app()
            .workspace()
            .history()
            .iter()
            .map(|h| format!("by n{}", h.who))
            .collect();
        println!(
            "replica {i}: {} edits applied ({})",
            actor.app().applied(),
            history.join(", ")
        );
        finals.push(history);
    }
    assert!(
        finals.windows(2).all(|w| w[0] == w[1]),
        "replicas agree on the edit order"
    );
    println!("\nAll replicas applied the same edits in the same (total) order.");

    // ---- Leaving: doors and privacy -------------------------------------
    println!("\nThe meeting ends. n0 returns to the office (owners always may):");
    building
        .enter(NodeId(0), RoomId(1))
        .expect("owners enter their own office");
    match building.enter(NodeId(1), RoomId(1)) {
        Ok(()) => println!("n1 knocks on the ajar door; n0 is inside, so n1 is admitted."),
        Err(e) => unreachable!("occupied ajar office admits: {e}"),
    }
    building
        .set_door(RoomId(1), DoorState::Closed)
        .expect("room exists");
    match building.enter(NodeId(2), RoomId(1)) {
        Err(e) => println!("n2 tries the now-closed door: {e}."),
        Ok(()) => unreachable!("closed doors refuse non-owners"),
    }
}
