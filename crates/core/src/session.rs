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
use odp_fabric::SpanCarrier;
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
    pub const FACE_TO_FACE: SessionMode = SessionMode {
        time: TimeMode::Synchronous,
        place: PlaceMode::CoLocated,
    };
    /// Synchronous distributed interaction.
    pub const SYNC_DISTRIBUTED: SessionMode = SessionMode {
        time: TimeMode::Synchronous,
        place: PlaceMode::Remote,
    };
    /// Asynchronous interaction (same place, different time).
    pub const ASYNC_COLOCATED: SessionMode = SessionMode {
        time: TimeMode::Asynchronous,
        place: PlaceMode::CoLocated,
    };
    /// Asynchronous distributed interaction.
    pub const ASYNC_DISTRIBUTED: SessionMode = SessionMode {
        time: TimeMode::Asynchronous,
        place: PlaceMode::Remote,
    };

    /// All four quadrants, in Figure-1 reading order.
    pub const QUADRANTS: [SessionMode; 4] = [
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

/// One buffered telemetry record: an open (carrying its kind) or a
/// close of `span` at `at`, ready to replay into a trace's binary
/// span log ([`odp_sim::trace::Trace::span_open`] /
/// [`odp_sim::trace::Trace::span_close`]). Allocation-free: kinds are
/// static names and the carrier is three words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// When the event happened.
    pub at: SimTime,
    /// The span's identity.
    pub span: SpanCarrier,
    /// `Some(kind)` for an open, `None` for a close.
    pub open_kind: Option<&'static str>,
}

/// Counter-based span telemetry for a session's lifecycle.
///
/// Sessions are plain library state — they have no actor context and no
/// RNG — so span ids are allocated from a counter instead of the seeded
/// RNG ([`SpanCarrier::root`]/[`SpanCarrier::child_of`]), which is every
/// bit as deterministic. A `session.live` root span covers the instrumented
/// window; each join/leave/switch hangs a child off it. Events are
/// buffered here and drained by the harness into the simulation
/// [`odp_sim::trace::Trace`], where `odp_telemetry`'s collector picks
/// them up alongside the wire-level spans.
#[derive(Debug, Clone)]
struct SessionSpans {
    root: SpanCarrier,
    next_span: u64,
    open: bool,
    events: Vec<SpanEvent>,
}

impl SessionSpans {
    fn new(trace_id: u64, at: SimTime) -> Self {
        let root = SpanCarrier::root(trace_id, 1);
        let events = vec![SpanEvent {
            at,
            span: root,
            open_kind: Some("session.live"),
        }];
        SessionSpans {
            root,
            next_span: 1,
            open: true,
            events,
        }
    }

    fn child(&mut self, kind: &'static str, opened: SimTime, closed: SimTime) {
        if !self.open {
            return;
        }
        self.next_span += 1;
        let span = SpanCarrier::child_of(self.root.trace_id, self.next_span, self.root.span_id);
        self.events.push(SpanEvent {
            at: opened,
            span,
            open_kind: Some(kind),
        });
        self.events.push(SpanEvent {
            at: closed,
            span,
            open_kind: None,
        });
    }

    fn close(&mut self, at: SimTime) {
        if self.open {
            self.open = false;
            self.events.push(SpanEvent {
                at,
                span: self.root,
                open_kind: None,
            });
        }
    }
}

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
/// s.join(NodeId(0), SimTime::ZERO)?;
/// s.join(NodeId(1), SimTime::ZERO)?;
/// assert_eq!(s.participants().len(), 2);
/// # Ok::<(), cscw_core::session::SessionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    id: SessionId,
    mode: SessionMode,
    participants: BTreeSet<NodeId>,
    artefacts: BTreeSet<String>,
    transitions: Vec<Transition>,
    spans: Option<SessionSpans>,
}

impl Session {
    /// Creates an empty session in `mode`.
    pub fn new(id: SessionId, mode: SessionMode) -> Self {
        Session {
            id,
            mode,
            participants: BTreeSet::new(),
            artefacts: BTreeSet::new(),
            transitions: Vec::new(),
            spans: None,
        }
    }

    /// Starts span telemetry: opens a `session.live` root span under
    /// `trace_id` (callers pick a unique id, e.g. from the session id).
    /// Off unless called — existing sessions record nothing.
    pub fn enable_telemetry(&mut self, trace_id: u64, at: SimTime) {
        if self.spans.is_none() {
            self.spans = Some(SessionSpans::new(trace_id, at));
        }
    }

    /// Closes the `session.live` root span. Further operations stop
    /// minting spans; buffered events remain drainable.
    pub fn close_telemetry(&mut self, at: SimTime) {
        if let Some(spans) = &mut self.spans {
            spans.close(at);
        }
    }

    /// Drains the buffered span events so a harness can replay them into
    /// the simulation trace's binary span log:
    ///
    /// ```
    /// # use cscw_core::session::{Session, SessionId, SessionMode};
    /// # use odp_sim::{net::NodeId, time::SimTime, trace::Trace};
    /// # let mut s = Session::new(SessionId(1), SessionMode::FACE_TO_FACE);
    /// # s.enable_telemetry(7, SimTime::ZERO);
    /// # s.close_telemetry(SimTime::ZERO);
    /// # let mut trace = Trace::new();
    /// for e in s.drain_telemetry() {
    ///     match e.open_kind {
    ///         Some(kind) => trace.span_open(e.at, NodeId(0), e.span, kind),
    ///         None => trace.span_close(e.at, NodeId(0), e.span),
    ///     }
    /// }
    /// ```
    ///
    /// (Or use [`Session::replay_telemetry`], which is that loop.)
    pub fn drain_telemetry(&mut self) -> Vec<SpanEvent> {
        match &mut self.spans {
            Some(spans) => std::mem::take(&mut spans.events),
            None => Vec::new(),
        }
    }

    /// Drains the buffered span events straight into `trace`'s binary
    /// span log, attributed to `node`.
    pub fn replay_telemetry(&mut self, trace: &mut odp_sim::trace::Trace, node: NodeId) {
        for e in self.drain_telemetry() {
            match e.open_kind {
                Some(kind) => trace.span_open(e.at, node, e.span, kind),
                None => trace.span_close(e.at, node, e.span),
            }
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
    pub fn join(&mut self, who: NodeId, at: SimTime) -> Result<(), SessionError> {
        if !self.participants.insert(who) {
            return Err(SessionError::AlreadyJoined(who));
        }
        if let Some(spans) = &mut self.spans {
            spans.child("session.join", at, at);
        }
        Ok(())
    }

    /// Removes a participant.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotAMember`] if absent.
    pub fn leave(&mut self, who: NodeId, at: SimTime) -> Result<(), SessionError> {
        if !self.participants.remove(&who) {
            return Err(SessionError::NotAMember(who));
        }
        if let Some(spans) = &mut self.spans {
            spans.child("session.leave", at, at);
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
        // The switch span stays open for the rebind cost: its duration
        // *is* the seam the transition machinery must hide.
        if let Some(spans) = &mut self.spans {
            spans.child("session.switch", at, at + cost);
        }
        self.transitions.push(t.clone());
        t
    }

    /// All transitions so far.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
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
        s.join(NodeId(0), SimTime::ZERO).unwrap();
        assert_eq!(
            s.join(NodeId(0), SimTime::ZERO).unwrap_err(),
            SessionError::AlreadyJoined(NodeId(0))
        );
        s.leave(NodeId(0), SimTime::ZERO).unwrap();
        assert_eq!(
            s.leave(NodeId(0), SimTime::ZERO).unwrap_err(),
            SessionError::NotAMember(NodeId(0))
        );
    }

    #[test]
    fn transitions_preserve_state() {
        let mut s = Session::new(SessionId(1), SessionMode::SYNC_DISTRIBUTED);
        s.join(NodeId(0), SimTime::ZERO).unwrap();
        s.join(NodeId(1), SimTime::ZERO).unwrap();
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
    fn session_telemetry_builds_a_well_formed_lifecycle_trace() {
        use odp_sim::trace::Trace;
        use odp_telemetry::collector::Collector;

        let mut s = Session::new(SessionId(3), SessionMode::SYNC_DISTRIBUTED);
        s.enable_telemetry(42, SimTime::ZERO);
        s.join(NodeId(0), SimTime::from_millis(10)).unwrap();
        s.join(NodeId(1), SimTime::from_millis(20)).unwrap();
        let _ = s.switch_mode(
            NodeId(0),
            SessionMode::ASYNC_DISTRIBUTED,
            SimTime::from_secs(60),
        );
        s.leave(NodeId(1), SimTime::from_secs(90)).unwrap();
        s.close_telemetry(SimTime::from_secs(100));

        let mut trace = Trace::new();
        s.replay_telemetry(&mut trace, NodeId(9));
        let collector = Collector::from_trace(&trace);
        assert_eq!(collector.well_formed(), Ok(()), "span audit must pass");
        assert_eq!(collector.len(), 1, "one session, one trace");
        let dag = collector.trace(42).unwrap();
        assert_eq!(dag.len(), 5, "root + join + join + switch + leave");
        let kinds: std::collections::BTreeSet<&str> =
            dag.spans().map(|s| s.kind.as_str()).collect();
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            [
                "session.join",
                "session.leave",
                "session.live",
                "session.switch"
            ]
        );
        // The switch span's duration is the rebind cost (a time switch).
        let switch = dag.spans().find(|s| s.kind == "session.switch").unwrap();
        assert_eq!(
            switch.closed.unwrap().saturating_since(switch.opened),
            SimDuration::from_millis(200)
        );
        // Draining empties the buffer; telemetry stays closed.
        assert!(s.drain_telemetry().is_empty());
        assert!(s.join(NodeId(5), SimTime::from_secs(200)).is_ok());
        assert!(s.drain_telemetry().is_empty(), "closed spans mint nothing");
    }

    #[test]
    fn sessions_without_telemetry_buffer_nothing() {
        let mut s = Session::new(SessionId(1), SessionMode::FACE_TO_FACE);
        s.join(NodeId(0), SimTime::ZERO).unwrap();
        assert!(s.drain_telemetry().is_empty());
    }

    #[test]
    fn via_transitions_broadcast_to_the_other_participants() {
        let mut bus = EventBus::new();
        bus.register(NodeId(0), 0.0);
        bus.register(NodeId(1), 0.0);
        let mut s = Session::new(SessionId(4), SessionMode::SYNC_DISTRIBUTED);
        s.join(NodeId(0), SimTime::ZERO).unwrap();
        s.join(NodeId(1), SimTime::ZERO).unwrap();
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
        assert_eq!(s.transitions().len(), 2);
    }
}
