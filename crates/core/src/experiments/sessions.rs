//! Experiments E1 and E12: the space–time matrix and seamless
//! transitions.

use odp_access::rbac::{Effect, RoleId};
use odp_access::rights::Rights;
use odp_sim::net::{LinkSpec, NodeId};
use odp_sim::time::{SimDuration, SimTime};

use crate::session::{Session, SessionId, SessionMode, TimeMode};
use crate::workspace::{ObjectId, SharedWorkspace};

use super::{Shape, Table};

fn workspace_for(participants: &[NodeId]) -> SharedWorkspace {
    let mut ws = SharedWorkspace::new();
    ws.policy_mut()
        .add_rule(RoleId(1), "shared".into(), Rights::ALL, Effect::Allow);
    for &p in participants {
        ws.policy_mut()
            .assign(odp_access::matrix::Subject(p.0), RoleId(1));
        ws.register_observer(p, 0.0);
    }
    ws.create_artefact(ObjectId(1), "shared/draft", "outline");
    ws
}

/// **E1 — Figure 1, the space–time matrix.** The same two-author
/// co-editing task in all four quadrants. Place determines the link
/// (co-located = LAN, remote = 80 ms WAN); time determines whether the
/// second author is present during the first author's edits (sync) or
/// joins two hours later (async). Reported: response time (local edit
/// acknowledgement) and notification time (edit → partner sees it).
pub(crate) fn e1_space_time_matrix(seed: u64) -> Vec<Table> {
    let _ = seed; // deterministic
    let mut table = Table::new(
        "E1",
        "The groupware space-time matrix (Figure 1): one task, four quadrants",
        [
            "quadrant",
            "time",
            "place",
            "response_ms",
            "notification_ms",
            "awareness_deliveries",
        ],
    );
    let a = NodeId(0);
    let b = NodeId(1);
    for mode in SessionMode::QUADRANTS {
        let mut session = Session::new(SessionId(1), mode);
        session.join(a).expect("fresh session");
        let link = match mode.place {
            crate::session::PlaceMode::CoLocated => LinkSpec::lan(),
            crate::session::PlaceMode::Remote => LinkSpec::wan(SimDuration::from_millis(80)),
        };
        let one_way_ms = link.latency.as_micros() as f64 / 1_000.0;
        // Response: an edit round-trips to the shared workspace host
        // (co-located ≈ LAN RTT; remote ≈ WAN RTT).
        let response_ms = 2.0 * one_way_ms;

        let mut ws = workspace_for(&[a, b]);
        session.share("shared/draft");
        // Author A edits at t = 10 s.
        let edit_time = SimTime::from_secs(10);
        let granted = ws
            .write(a, ObjectId(1), "outline + section 1", edit_time)
            .expect("author may write")
            .len();
        let (join_time, notification_ms) = match mode.time {
            TimeMode::Synchronous => {
                // B is present: the awareness delivery crosses the link.
                session.join(b).expect("b joins");
                (SimTime::ZERO, one_way_ms)
            }
            TimeMode::Asynchronous => {
                // B joins two hours later and catches up from the public
                // history: notification time is dominated by absence.
                let join = edit_time + SimDuration::from_secs(2 * 3600);
                session.join(b).expect("b joins later");
                let catch_up = join.saturating_since(edit_time).as_micros() as f64 / 1_000.0;
                (join, catch_up + one_way_ms)
            }
        };
        let _ = join_time;
        // In the async quadrants the live awareness deliveries reached an
        // absent participant's queue; what matters is that the history
        // preserved the edit for catch-up.
        assert_eq!(ws.history().len(), 1);
        table.push_row([
            mode.label().to_owned(),
            format!("{:?}", mode.time),
            format!("{:?}", mode.place),
            format!("{response_ms:.2}"),
            format!("{notification_ms:.2}"),
            granted.to_string(),
        ]);
    }
    vec![table]
}

/// **E12 — seamless transitions.** A session moves sync → async → sync.
/// Expected shape: shared state and membership survive every switch; the
/// transition cost is the mode-rebind time, not a data migration.
pub(crate) fn e12_transitions(seed: u64) -> Vec<Table> {
    let _ = seed;
    let mut table = Table::new(
        "E12",
        "Seamless sync/async transitions: continuity and cost",
        [
            "transition",
            "cost_ms",
            "participants_kept",
            "artefacts_kept",
            "history_kept",
        ],
    );
    let a = NodeId(0);
    let b = NodeId(1);
    let mut session = Session::new(SessionId(9), SessionMode::SYNC_DISTRIBUTED);
    session.join(a).expect("join a");
    session.join(b).expect("join b");
    session.share("shared/draft");
    let mut ws = workspace_for(&[a, b]);

    // Work synchronously.
    ws.write(a, ObjectId(1), "draft v1", SimTime::from_secs(1))
        .expect("write");
    ws.write(b, ObjectId(1), "draft v2", SimTime::from_secs(2))
        .expect("write");
    let history_before = ws.history().len();

    // Switch to asynchronous working overnight. The transition is
    // announced on the workspace's cooperation-event bus, so the other
    // author's awareness display shows the seam.
    ws.policy_mut()
        .add_rule(RoleId(1), "session".into(), Rights::READ, Effect::Allow);
    let t1 = session.switch_mode(a, SessionMode::ASYNC_DISTRIBUTED, SimTime::from_secs(3600));
    let announced = ws.bus_mut().publish_all([&t1]);
    assert_eq!(announced.len(), 1, "the co-author hears the switch");
    ws.write(
        a,
        ObjectId(1),
        "draft v3 (overnight)",
        SimTime::from_secs(30_000),
    )
    .expect("write");

    // Reconvene synchronously next morning.
    let t2 = session.switch_mode(b, SessionMode::SYNC_DISTRIBUTED, SimTime::from_secs(60_000));
    ws.bus_mut().publish_all([&t2]);
    ws.write(
        b,
        ObjectId(1),
        "draft v4 (reconvened)",
        SimTime::from_secs(60_100),
    )
    .expect("write");

    for (label, t) in [("sync->async", &t1), ("async->sync", &t2)] {
        table.push_row([
            label.to_owned(),
            format!("{:.0}", t.cost.as_micros() as f64 / 1_000.0),
            (session.participants().len() == 2).to_string(),
            (session.artefacts().len() == 1).to_string(),
            (ws.history().len() > history_before).to_string(),
        ]);
    }
    // Continuity: the document carried every phase's work.
    let (value, _) = ws
        .read(a, ObjectId(1), SimTime::from_secs(61_000))
        .expect("read");
    assert!(value.contains("v4"));
    vec![table]
}

/// The shapes the E1 and E12 verdicts state.
pub(crate) const SHAPES: &[Shape] = &[
    Shape {
        table: "E1",
        claim: "place sets response (WAN over ten LAN round trips); absence (hours) sets asynchronous notification",
        holds: |t| {
            let notification = |q: &str| t.cell_f64(q, "notification_ms");
            let response = |q: &str| t.cell_f64(q, "response_ms");
            Some(
                notification("face-to-face interaction")?
                    < notification("synchronous distributed interaction")?
                    && notification("asynchronous distributed interaction")? > 1_000_000.0
                    && response("synchronous distributed interaction")?
                        > response("face-to-face interaction")? * 10.0,
            )
        },
    },
    Shape {
        table: "E12",
        claim: "both switches keep participants, artefacts and history, at a rebind cost under a second",
        holds: |t| {
            let mut holds = true;
            for row in ["sync->async", "async->sync"] {
                for kept in ["participants_kept", "artefacts_kept", "history_kept"] {
                    holds &= t.cell(row, kept)? == "true";
                }
                let cost = t.cell_f64(row, "cost_ms")?;
                holds &= cost > 0.0 && cost < 1_000.0;
            }
            Some(holds)
        },
    },
];

#[cfg(test)]
mod tests {
    use super::super::assert_detects;

    #[test]
    fn e1_fails_when_remote_notification_is_as_fast_as_face_to_face() {
        assert_detects(
            "E1",
            "synchronous distributed interaction",
            "notification_ms",
            "1.00",
        );
    }

    #[test]
    fn e12_fails_when_a_switch_loses_the_history() {
        assert_detects("E12", "async->sync", "history_kept", "false");
    }
}
