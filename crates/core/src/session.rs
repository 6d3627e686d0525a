//! Sessions across the Johansen space–time matrix (Figure 1 of the
//! paper), with the *seamless transitions* §3.1 demands: "work often
//! switches rapidly between asynchronous and synchronous interactions.
//! CSCW researchers now highlight the need to support these transitions
//! in as seamless a manner as possible."
//!
//! A [`Session`] carries its participants, its shared artefacts and its
//! current [`SessionMode`]; switching modes preserves all state and logs
//! a transition record (experiment E12 measures continuity and cost).

use std::collections::BTreeSet;
use std::fmt;

use odp_awareness::bus::{CoopEvent, CoopKind};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};

/// The time dimension of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeMode {
    /// Same time: participants interact synchronously.
    Synchronous,
    /// Different time: participants contribute when they can.
    Asynchronous,
}

/// The place dimension of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaceMode {
    /// Same place — co-located (logically: high-bandwidth, low-latency
    /// accessibility to each other).
    CoLocated,
    /// Different places — remote.
    Remote,
}

/// One cell of the space–time matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionMode {
    /// Same or different time.
    pub time: TimeMode,
    /// Same or different place.
    pub place: PlaceMode,
}

impl SessionMode {
    /// Face-to-face interaction (same time, same place).
    pub(crate) const FACE_TO_FACE: SessionMode = SessionMode {
        time: TimeMode::Synchronous,
        place: PlaceMode::CoLocated,
    };
    /// Synchronous distributed interaction.
    pub const SYNC_DISTRIBUTED: SessionMode = SessionMode {
        time: TimeMode::Synchronous,
        place: PlaceMode::Remote,
    };
    /// Asynchronous interaction (same place, different time).
    pub(crate) const ASYNC_COLOCATED: SessionMode = SessionMode {
        time: TimeMode::Asynchronous,
        place: PlaceMode::CoLocated,
    };
    /// Asynchronous distributed interaction.
    pub const ASYNC_DISTRIBUTED: SessionMode = SessionMode {
        time: TimeMode::Asynchronous,
        place: PlaceMode::Remote,
    };

    /// All four quadrants, in Figure-1 reading order.
    pub(crate) const QUADRANTS: [SessionMode; 4] = [
        SessionMode::FACE_TO_FACE,
        SessionMode::ASYNC_COLOCATED,
        SessionMode::SYNC_DISTRIBUTED,
        SessionMode::ASYNC_DISTRIBUTED,
    ];

    /// Johansen's label for the quadrant.
    pub fn label(&self) -> &'static str {
        match (self.time, self.place) {
            (TimeMode::Synchronous, PlaceMode::CoLocated) => "face-to-face interaction",
            (TimeMode::Synchronous, PlaceMode::Remote) => "synchronous distributed interaction",
            (TimeMode::Asynchronous, PlaceMode::CoLocated) => "asynchronous interaction",
            (TimeMode::Asynchronous, PlaceMode::Remote) => "asynchronous distributed interaction",
        }
    }
}

impl fmt::Display for SessionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Names a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u32);

/// A mode transition record.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// The session that switched.
    pub session: SessionId,
    /// Who pulled the lever.
    pub by: NodeId,
    /// From which mode.
    pub from: SessionMode,
    /// To which mode.
    pub to: SessionMode,
    /// When it happened.
    pub at: SimTime,
    /// How long the rebind took.
    pub cost: SimDuration,
}

/// The transition as a unified cooperation event: a
/// [`CoopKind::SessionSwitched`] broadcast from `by` on `session/{id}` —
/// a seam the *other* participants need to notice, not just the one who
/// pulled the lever.
impl From<&Transition> for CoopEvent {
    fn from(t: &Transition) -> CoopEvent {
        CoopEvent::broadcast(
            t.by,
            format!("session/{}", t.session.0),
            t.at,
            CoopKind::SessionSwitched {
                from: t.from.label().to_owned(),
                to: t.to.label().to_owned(),
            },
        )
    }
}

/// Errors from session operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The participant is already in the session.
    AlreadyJoined(NodeId),
    /// The participant is not in the session.
    NotAMember(NodeId),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::AlreadyJoined(n) => write!(f, "{n} already joined"),
            SessionError::NotAMember(n) => write!(f, "{n} is not a member"),
        }
    }
}

impl std::error::Error for SessionError {}

/// A cooperative session.
///
/// # Examples
///
/// ```
/// use cscw_core::session::{Session, SessionId, SessionMode};
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut s = Session::new(SessionId(1), SessionMode::SYNC_DISTRIBUTED);
/// s.join(NodeId(0))?;
/// s.join(NodeId(1))?;
/// assert_eq!(s.participants().len(), 2);
/// # Ok::<(), cscw_core::session::SessionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    id: SessionId,
    mode: SessionMode,
    participants: BTreeSet<NodeId>,
    artefacts: BTreeSet<String>,
}

impl Session {
    /// Creates an empty session in `mode`.
    pub fn new(id: SessionId, mode: SessionMode) -> Self {
        Session {
            id,
            mode,
            participants: BTreeSet::new(),
            artefacts: BTreeSet::new(),
        }
    }

    /// The session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The current mode.
    pub fn mode(&self) -> SessionMode {
        self.mode
    }

    /// Current participants, ascending.
    pub fn participants(&self) -> Vec<NodeId> {
        self.participants.iter().copied().collect()
    }

    /// Shared artefact names.
    pub fn artefacts(&self) -> Vec<&str> {
        self.artefacts.iter().map(|s| s.as_str()).collect()
    }

    /// Adds a participant.
    ///
    /// # Errors
    ///
    /// [`SessionError::AlreadyJoined`] on duplicates.
    pub fn join(&mut self, who: NodeId) -> Result<(), SessionError> {
        if !self.participants.insert(who) {
            return Err(SessionError::AlreadyJoined(who));
        }
        Ok(())
    }

    /// Removes a participant.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotAMember`] if absent.
    pub fn leave(&mut self, who: NodeId) -> Result<(), SessionError> {
        if !self.participants.remove(&who) {
            return Err(SessionError::NotAMember(who));
        }
        Ok(())
    }

    /// Shares an artefact into the session.
    pub fn share(&mut self, artefact: impl Into<String>) {
        self.artefacts.insert(artefact.into());
    }

    /// Switches mode **seamlessly** (participants and artefacts are
    /// untouched; the transition and its modelled rebind cost are
    /// logged — 200 ms to re-bind interaction machinery across the time
    /// dimension, 50 ms to re-bind transport across place, compounding)
    /// on behalf of participant `by`.
    #[must_use]
    pub fn switch_mode(&mut self, by: NodeId, to: SessionMode, at: SimTime) -> Transition {
        let mut cost = SimDuration::ZERO;
        if self.mode.time != to.time {
            cost += SimDuration::from_millis(200);
        }
        if self.mode.place != to.place {
            cost += SimDuration::from_millis(50);
        }
        let t = Transition {
            session: self.id,
            by,
            from: self.mode,
            to,
            at,
            cost,
        };
        self.mode = to;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_awareness::bus::EventBus;

    #[test]
    fn quadrant_labels_match_figure_1() {
        assert_eq!(
            SessionMode::FACE_TO_FACE.label(),
            "face-to-face interaction"
        );
        assert_eq!(
            SessionMode::ASYNC_DISTRIBUTED.label(),
            "asynchronous distributed interaction"
        );
        assert_eq!(SessionMode::QUADRANTS.len(), 4);
        let set: std::collections::HashSet<_> = SessionMode::QUADRANTS.iter().collect();
        assert_eq!(set.len(), 4, "quadrants are distinct");
    }

    #[test]
    fn join_leave_and_errors() {
        let mut s = Session::new(SessionId(1), SessionMode::FACE_TO_FACE);
        s.join(NodeId(0)).unwrap();
        assert_eq!(
            s.join(NodeId(0)).unwrap_err(),
            SessionError::AlreadyJoined(NodeId(0))
        );
        s.leave(NodeId(0)).unwrap();
        assert_eq!(
            s.leave(NodeId(0)).unwrap_err(),
            SessionError::NotAMember(NodeId(0))
        );
    }

    #[test]
    fn transitions_preserve_state() {
        let mut s = Session::new(SessionId(1), SessionMode::SYNC_DISTRIBUTED);
        s.join(NodeId(0)).unwrap();
        s.join(NodeId(1)).unwrap();
        s.share("report.tex");
        let t = s.switch_mode(
            NodeId(0),
            SessionMode::ASYNC_DISTRIBUTED,
            SimTime::from_secs(60),
        );
        assert_eq!(t.cost, SimDuration::from_millis(200), "time switch only");
        assert_eq!(s.participants().len(), 2, "participants preserved");
        assert_eq!(s.artefacts(), vec!["report.tex"], "artefacts preserved");
        assert_eq!(s.mode(), SessionMode::ASYNC_DISTRIBUTED);
    }

    #[test]
    fn via_transitions_broadcast_to_the_other_participants() {
        let mut bus = EventBus::new();
        bus.register(NodeId(0), 0.0);
        bus.register(NodeId(1), 0.0);
        let mut s = Session::new(SessionId(4), SessionMode::SYNC_DISTRIBUTED);
        s.join(NodeId(0)).unwrap();
        s.join(NodeId(1)).unwrap();
        let t = s.switch_mode(
            NodeId(0),
            SessionMode::ASYNC_DISTRIBUTED,
            SimTime::from_secs(60),
        );
        let seen = bus.publish_all([&t]);
        assert_eq!(t.cost, SimDuration::from_millis(200));
        // The switcher is the actor, so only the other participant hears it.
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].observer, NodeId(1));
        assert_eq!(seen[0].event.artefact, "session/4");
        match &seen[0].event.kind {
            CoopKind::SessionSwitched { from, to } => {
                assert_eq!(from, "synchronous distributed interaction");
                assert_eq!(to, "asynchronous distributed interaction");
            }
            other => panic!("expected a session switch, got {other:?}"),
        }
    }

    #[test]
    fn transition_cost_compounds_across_dimensions() {
        let mut s = Session::new(SessionId(1), SessionMode::FACE_TO_FACE);
        let t = s.switch_mode(NodeId(0), SessionMode::ASYNC_DISTRIBUTED, SimTime::ZERO);
        assert_eq!(t.cost, SimDuration::from_millis(250));
        let t2 = s.switch_mode(NodeId(0), SessionMode::ASYNC_DISTRIBUTED, SimTime::ZERO);
        assert_eq!(t2.cost, SimDuration::ZERO, "no-op switch is free");
    }
}
