//! Desktop conferencing (§3.2.2): the two architectures the paper
//! contrasts.
//!
//! **Collaboration-transparent** conferencing wraps an unmodified
//! single-user application: output is multicast, input is multiplexed
//! through floor control so the application sees one event stream
//! ("users must take turns in interacting with the application").
//!
//! **Collaboration-aware** conferencing manages sharing explicitly: every
//! participant holds a view with its own viewport/telepointer (relaxed
//! WYSIWIS) and inputs interleave freely.

use std::collections::BTreeMap;
use std::fmt;

use odp_concurrency::floor::{FloorControl, FloorEvent, FloorPolicy};
use odp_concurrency::locks::ClientId;
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

/// An input event a participant wants the shared application to process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputEvent {
    /// Who issued it.
    pub from: u32,
    /// Opaque payload (keystroke, pointer action...).
    pub payload: String,
}

/// Why an input was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConferenceError {
    /// The participant does not hold the floor.
    NoFloor(NodeId),
    /// Unknown participant.
    UnknownParticipant(NodeId),
}

impl fmt::Display for ConferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConferenceError::NoFloor(n) => write!(f, "{n} does not hold the floor"),
            ConferenceError::UnknownParticipant(n) => write!(f, "{n} is not in the conference"),
        }
    }
}

impl std::error::Error for ConferenceError {}

/// Collaboration-transparent conference: one application state, floor
/// control, full WYSIWIS output multicast.
///
/// # Examples
///
/// ```
/// use cscw_core::conference::TransparentConference;
/// use odp_concurrency::floor::FloorPolicy;
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut conf = TransparentConference::new(FloorPolicy::RequestQueue);
/// conf.join(NodeId(0));
/// conf.join(NodeId(1));
/// // `EventBus::publish_all(&granted)` would show every seat whose turn it is.
/// let granted = conf.request_floor(NodeId(0), SimTime::ZERO);
/// assert_eq!(granted.len(), 1);
/// let outputs = conf.input(NodeId(0), "type A", SimTime::ZERO)?;
/// assert_eq!(outputs.len(), 2, "both participants see the same output");
/// # Ok::<(), cscw_core::conference::ConferenceError>(())
/// ```
#[derive(Debug)]
pub struct TransparentConference {
    participants: Vec<NodeId>,
    floor: FloorControl,
    /// The single application's event log (what it has processed).
    app_log: Vec<InputEvent>,
}

impl TransparentConference {
    /// Creates a conference with the given floor policy.
    pub fn new(policy: FloorPolicy) -> Self {
        TransparentConference {
            participants: Vec::new(),
            floor: FloorControl::new(policy),
            app_log: Vec::new(),
        }
    }

    /// Adds a participant.
    pub fn join(&mut self, who: NodeId) {
        if !self.participants.contains(&who) {
            self.participants.push(who);
        }
    }

    /// Requests the floor. Publish the returned events on the
    /// cooperation-event bus and every participant's awareness display
    /// can show whose turn it is.
    #[must_use]
    pub fn request_floor(&mut self, who: NodeId, now: SimTime) -> Vec<FloorEvent> {
        self.floor.request(ClientId(who.0), now)
    }

    /// Releases the floor, returning the hand-over (nothing if `who` did
    /// not hold it).
    #[must_use]
    pub fn release_floor(&mut self, who: NodeId, now: SimTime) -> Vec<FloorEvent> {
        self.floor.release(ClientId(who.0), now).unwrap_or_default()
    }

    /// Current floor holder.
    pub fn floor_holder(&self) -> Option<NodeId> {
        self.floor.holder().map(|c| NodeId(c.0))
    }

    /// Submits input: only the floor holder may drive the application;
    /// output (the processed event) is multicast to everyone.
    ///
    /// # Errors
    ///
    /// [`ConferenceError::NoFloor`] for non-holders.
    pub fn input(
        &mut self,
        who: NodeId,
        payload: impl Into<String>,
        _now: SimTime,
    ) -> Result<Vec<(NodeId, InputEvent)>, ConferenceError> {
        if !self.participants.contains(&who) {
            return Err(ConferenceError::UnknownParticipant(who));
        }
        if self.floor_holder() != Some(who) {
            return Err(ConferenceError::NoFloor(who));
        }
        let event = InputEvent {
            from: who.0,
            payload: payload.into(),
        };
        self.app_log.push(event.clone());
        Ok(self
            .participants
            .iter()
            .map(|&p| (p, event.clone()))
            .collect())
    }

    /// What the single application has processed, in order.
    pub fn app_log(&self) -> &[InputEvent] {
        &self.app_log
    }
}

/// One participant's view in a collaboration-aware conference.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    /// Scroll position (relaxed WYSIWIS: views may differ).
    pub viewport: u32,
    /// Telepointer position, visible to the others.
    pub telepointer: Option<(u32, u32)>,
}

/// Collaboration-aware conference: per-user views, free interleaving,
/// explicit sharing management.
#[derive(Debug, Default)]
pub struct AwareConference {
    views: BTreeMap<NodeId, View>,
    shared_log: Vec<InputEvent>,
}

impl AwareConference {
    /// Creates an empty conference.
    pub fn new() -> Self {
        AwareConference::default()
    }

    /// Adds a participant with a default view.
    pub fn join(&mut self, who: NodeId) {
        self.views.entry(who).or_insert(View {
            viewport: 0,
            telepointer: None,
        });
    }

    /// Scrolls a private viewport (no coordination needed — the paper's
    /// "sharing ... presented in a variety of different ways to different
    /// users").
    ///
    /// # Errors
    ///
    /// [`ConferenceError::UnknownParticipant`] if absent.
    pub fn scroll(&mut self, who: NodeId, viewport: u32) -> Result<(), ConferenceError> {
        self.views
            .get_mut(&who)
            .map(|v| v.viewport = viewport)
            .ok_or(ConferenceError::UnknownParticipant(who))
    }

    /// Moves a telepointer; returns the peers who should render it.
    ///
    /// # Errors
    ///
    /// [`ConferenceError::UnknownParticipant`] if absent.
    pub fn point(&mut self, who: NodeId, at: (u32, u32)) -> Result<Vec<NodeId>, ConferenceError> {
        let view = self
            .views
            .get_mut(&who)
            .ok_or(ConferenceError::UnknownParticipant(who))?;
        view.telepointer = Some(at);
        Ok(self.views.keys().copied().filter(|&n| n != who).collect())
    }

    /// Submits input — no floor, everyone interleaves.
    ///
    /// # Errors
    ///
    /// [`ConferenceError::UnknownParticipant`] if absent.
    pub fn input(
        &mut self,
        who: NodeId,
        payload: impl Into<String>,
    ) -> Result<(), ConferenceError> {
        if !self.views.contains_key(&who) {
            return Err(ConferenceError::UnknownParticipant(who));
        }
        self.shared_log.push(InputEvent {
            from: who.0,
            payload: payload.into(),
        });
        Ok(())
    }

    /// A participant's view.
    pub fn view(&self, who: NodeId) -> Option<&View> {
        self.views.get(&who)
    }

    /// The interleaved shared log.
    pub fn shared_log(&self) -> &[InputEvent] {
        &self.shared_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_awareness::bus::EventBus;

    const NOW: SimTime = SimTime::ZERO;

    #[test]
    fn floor_grants_via_the_bus_reach_the_other_participants() {
        let mut bus = EventBus::new();
        bus.register(NodeId(0), 0.0);
        bus.register(NodeId(1), 0.0);
        let mut conf = TransparentConference::new(FloorPolicy::RequestQueue);
        conf.join(NodeId(0));
        conf.join(NodeId(1));
        let seen = bus.publish_all(&conf.request_floor(NodeId(0), NOW));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].observer, NodeId(1));
        assert_eq!(seen[0].event.kind.label(), "floor.granted");
        // The hand-over announces idle (empty queue) to the non-actor.
        let seen = bus.publish_all(&conf.release_floor(NodeId(0), NOW));
        assert_eq!(seen[0].event.kind.label(), "floor.idle");
    }

    #[test]
    fn transparent_conference_enforces_turn_taking() {
        let mut conf = TransparentConference::new(FloorPolicy::RequestQueue);
        conf.join(NodeId(0));
        conf.join(NodeId(1));
        let _ = conf.request_floor(NodeId(0), NOW);
        conf.input(NodeId(0), "a", NOW).unwrap();
        assert_eq!(
            conf.input(NodeId(1), "b", NOW).unwrap_err(),
            ConferenceError::NoFloor(NodeId(1))
        );
        // Floor passes on release.
        let _ = conf.request_floor(NodeId(1), NOW);
        let _ = conf.release_floor(NodeId(0), NOW);
        conf.input(NodeId(1), "b", NOW).unwrap();
        assert_eq!(conf.app_log().len(), 2);
    }

    #[test]
    fn transparent_output_is_strict_wysiwis() {
        let mut conf = TransparentConference::new(FloorPolicy::RequestQueue);
        for n in 0..3 {
            conf.join(NodeId(n));
        }
        let _ = conf.request_floor(NodeId(2), NOW);
        let out = conf.input(NodeId(2), "draw", NOW).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(_, e)| e.payload == "draw"));
    }

    #[test]
    fn non_participants_are_rejected() {
        let mut conf = TransparentConference::new(FloorPolicy::RequestQueue);
        conf.join(NodeId(0));
        let _ = conf.request_floor(NodeId(9), NOW); // floor even grants to strangers...
        assert_eq!(
            conf.input(NodeId(9), "x", NOW).unwrap_err(),
            ConferenceError::UnknownParticipant(NodeId(9))
        );
    }

    #[test]
    fn aware_conference_interleaves_freely() {
        let mut conf = AwareConference::new();
        conf.join(NodeId(0));
        conf.join(NodeId(1));
        conf.input(NodeId(0), "a").unwrap();
        conf.input(NodeId(1), "b").unwrap();
        conf.input(NodeId(0), "c").unwrap();
        assert_eq!(conf.shared_log().len(), 3);
    }

    #[test]
    fn aware_views_are_independent() {
        let mut conf = AwareConference::new();
        conf.join(NodeId(0));
        conf.join(NodeId(1));
        conf.scroll(NodeId(0), 10).unwrap();
        conf.scroll(NodeId(1), 99).unwrap();
        assert_eq!(conf.view(NodeId(0)).unwrap().viewport, 10);
        assert_eq!(conf.view(NodeId(1)).unwrap().viewport, 99);
    }

    #[test]
    fn telepointers_broadcast_to_peers() {
        let mut conf = AwareConference::new();
        conf.join(NodeId(0));
        conf.join(NodeId(1));
        conf.join(NodeId(2));
        let peers = conf.point(NodeId(1), (3, 4)).unwrap();
        assert_eq!(peers, vec![NodeId(0), NodeId(2)]);
        assert_eq!(conf.view(NodeId(1)).unwrap().telepointer, Some((3, 4)));
        assert!(conf.point(NodeId(9), (0, 0)).is_err());
    }
}
