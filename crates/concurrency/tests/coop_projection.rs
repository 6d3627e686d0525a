//! The projection table of DESIGN.md §8 "Producers": every variant of
//! every outcome this crate's engines return, against the `CoopKind`
//! label, audience and artefact it publishes as.
//!
//! Each `expected_*` function is an exhaustive `match` with no wildcard
//! arm, so a new outcome variant is a compile error here until it has a
//! row in the table (and in DESIGN.md).

use odp_awareness::bus::{Audience, CoopEvent};
use odp_concurrency::floor::FloorEvent;
use odp_concurrency::locks::{ClientId, LockMode, Notice, NoticeKind, ResourceId};
use odp_concurrency::store::ObjectId;
use odp_concurrency::txgroup::{AccessMode, GroupNotice};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

const AT: SimTime = SimTime::from_millis(42);

fn expected_notice(kind: &NoticeKind) -> &'static str {
    match kind {
        NoticeKind::Granted { .. } => "lock.granted",
        NoticeKind::TickleRequest { .. } => "lock.tickled",
        NoticeKind::Revoked { .. } => "lock.revoked",
        NoticeKind::ConflictWarning { .. } => "lock.conflict",
        NoticeKind::AccessNotification { .. } => "lock.access",
    }
}

fn expected_floor(event: &FloorEvent) -> (&'static str, ClientId) {
    match *event {
        FloorEvent::Granted { who, .. } => ("floor.granted", who),
        FloorEvent::Preempted { who, .. } => ("floor.preempted", who),
        FloorEvent::Idle { by, .. } => ("floor.idle", by),
    }
}

fn expected_group(mode: AccessMode) -> &'static str {
    match mode {
        AccessMode::Read | AccessMode::Write => "group.access",
    }
}

/// One row of the table: what `event` must publish as.
fn row(event: CoopEvent, label: &str, audience: Audience, actor: u32, artefact: &str) {
    assert_eq!(event.kind.label(), label);
    assert_eq!(event.audience, audience, "{label}");
    assert_eq!(event.actor, NodeId(actor), "{label}");
    assert_eq!(event.artefact, artefact, "{label}");
    assert_eq!(event.at, AT, "{label}");
}

#[test]
fn every_outcome_variant_projects_to_its_row_of_the_design_table() {
    // Lock notices: direct to the addressee (who is also the actor), on
    // the resource.
    let other = ClientId(7);
    for kind in [
        NoticeKind::Granted {
            mode: LockMode::Exclusive,
        },
        NoticeKind::TickleRequest { by: other },
        NoticeKind::Revoked { to: other },
        NoticeKind::ConflictWarning { with: other },
        NoticeKind::AccessNotification {
            by: other,
            mode: LockMode::Shared,
        },
    ] {
        let label = expected_notice(&kind);
        let notice = Notice {
            to: ClientId(3),
            kind,
            resource: ResourceId(9),
            at: AT,
        };
        row(
            (&notice).into(),
            label,
            Audience::Direct(NodeId(3)),
            3,
            "res/9",
        );
    }

    // Floor events: broadcast from the participant they name.
    for event in [
        FloorEvent::Granted {
            who: ClientId(1),
            at: AT,
        },
        FloorEvent::Preempted {
            who: ClientId(2),
            at: AT,
        },
        FloorEvent::Idle {
            by: ClientId(3),
            at: AT,
        },
    ] {
        let (label, actor) = expected_floor(&event);
        row((&event).into(), label, Audience::Everyone, actor.0, "floor");
    }

    // Group notices: direct to the notified member, from the acting one,
    // on the object.
    for mode in [AccessMode::Read, AccessMode::Write] {
        let notice = GroupNotice {
            to: ClientId(1),
            by: ClientId(2),
            object: ObjectId(5),
            mode,
            at: AT,
        };
        row(
            (&notice).into(),
            expected_group(mode),
            Audience::Direct(NodeId(1)),
            2,
            "obj/5",
        );
    }
}
