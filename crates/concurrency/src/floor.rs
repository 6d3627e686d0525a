//! Floor control — concurrency by *reservation* (§4.2.1: "Conferencing
//! systems often use a floor passing approach to reservation. Other
//! systems, such as Colab, use an approach based on more informal
//! negotiation. Reservation is only suitable however for approaches that
//! do not want to interleave operations.").
//!
//! Used by collaboration-transparent conferencing (one input stream, so
//! users must take turns) — see `cscw-core::conference`.

use std::collections::VecDeque;
use std::fmt;

use odp_awareness::bus::{CoopEvent, CoopKind};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};

use crate::locks::ClientId;

/// How the floor moves between participants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloorPolicy {
    /// The holder must explicitly pass the floor (chalk-passing).
    ExplicitPass,
    /// Requests queue FIFO; the floor transfers on release.
    RequestQueue,
    /// Like `RequestQueue` but the floor is also preempted after a
    /// maximum holding time (fairness under monologues).
    PreemptAfter(SimDuration),
}

/// Events emitted by floor-control decisions. Each names the participant
/// it is about and when it happened, so it projects onto the
/// cooperation-event bus (`bus.publish_all(&events)`) unaided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloorEvent {
    /// `who` now holds the floor.
    Granted {
        /// The new holder.
        who: ClientId,
        /// When the grant happened.
        at: SimTime,
    },
    /// The holder was preempted for exceeding the holding limit.
    Preempted {
        /// The ousted holder.
        who: ClientId,
        /// When it was ousted.
        at: SimTime,
    },
    /// The floor is now free (no holder, empty queue).
    Idle {
        /// Who let go of it.
        by: ClientId,
        /// When.
        at: SimTime,
    },
}

/// The conference-floor artefact path the bus gates floor events on.
pub const FLOOR_ARTEFACT: &str = "floor";

/// The event as a unified cooperation event, broadcast to every
/// participant: floor movements concern the whole conference. The actor
/// is the granted or preempted party, or whoever left the floor idle.
impl From<&FloorEvent> for CoopEvent {
    fn from(event: &FloorEvent) -> CoopEvent {
        let (actor, at, kind) = match *event {
            FloorEvent::Granted { who, at } => (who, at, CoopKind::FloorGranted),
            FloorEvent::Preempted { who, at } => (who, at, CoopKind::FloorPreempted),
            FloorEvent::Idle { by, at } => (by, at, CoopKind::FloorIdle),
        };
        CoopEvent::broadcast(NodeId(actor.0), FLOOR_ARTEFACT, at, kind)
    }
}

/// Errors from floor operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloorError {
    /// A non-holder tried to release or pass the floor.
    NotHolder(ClientId),
    /// The pass target has not requested the floor.
    TargetNotWaiting(ClientId),
}

impl fmt::Display for FloorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorError::NotHolder(c) => write!(f, "{c} does not hold the floor"),
            FloorError::TargetNotWaiting(c) => write!(f, "{c} has not requested the floor"),
        }
    }
}

impl std::error::Error for FloorError {}

/// The floor-control state machine for one conference.
///
/// # Examples
///
/// ```
/// use odp_awareness::bus::{CoopKind, EventBus};
/// use odp_concurrency::floor::{FloorControl, FloorPolicy};
/// use odp_concurrency::locks::ClientId;
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut bus = EventBus::new();
/// bus.register(NodeId(0), 0.0);
/// bus.register(NodeId(1), 0.0);
/// let mut fc = FloorControl::new(FloorPolicy::RequestQueue);
/// let seen = bus.publish_all(&fc.request(ClientId(0), SimTime::ZERO));
/// // The grant is broadcast: participant 1 becomes aware of it.
/// assert!(matches!(seen[0].event.kind, CoopKind::FloorGranted));
/// assert_eq!(fc.holder(), Some(ClientId(0)));
/// ```
#[derive(Debug)]
pub struct FloorControl {
    policy: FloorPolicy,
    holder: Option<(ClientId, SimTime)>,
    queue: VecDeque<(ClientId, SimTime)>,
    grants: u64,
    preemptions: u64,
    wait_total: SimDuration,
}

impl FloorControl {
    /// Creates a free floor under `policy`.
    pub fn new(policy: FloorPolicy) -> Self {
        FloorControl {
            policy,
            holder: None,
            queue: VecDeque::new(),
            grants: 0,
            preemptions: 0,
            wait_total: SimDuration::ZERO,
        }
    }

    /// Current holder, if any.
    pub fn holder(&self) -> Option<ClientId> {
        self.holder.map(|(c, _)| c)
    }

    /// Clients waiting, in queue order.
    pub fn waiting(&self) -> Vec<ClientId> {
        self.queue.iter().map(|&(c, _)| c).collect()
    }

    /// Total grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total preemptions (only under [`FloorPolicy::PreemptAfter`]).
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Sum of time requesters spent waiting before their grants.
    pub fn total_wait(&self) -> SimDuration {
        self.wait_total
    }

    /// Requests the floor. Grants immediately if free, else queues.
    #[must_use]
    pub fn request(&mut self, client: ClientId, now: SimTime) -> Vec<FloorEvent> {
        if self.holder.map(|(c, _)| c) == Some(client) {
            return Vec::new(); // already holding
        }
        if self.queue.iter().any(|&(c, _)| c == client) {
            return Vec::new(); // already waiting
        }
        if self.holder.is_none() {
            self.grant(client, now, now)
        } else {
            self.queue.push_back((client, now));
            Vec::new()
        }
    }

    /// Releases the floor, promoting the next waiter (if the policy
    /// queues) or leaving the floor idle.
    ///
    /// # Errors
    ///
    /// [`FloorError::NotHolder`] if `client` does not hold the floor.
    pub fn release(
        &mut self,
        client: ClientId,
        now: SimTime,
    ) -> Result<Vec<FloorEvent>, FloorError> {
        match self.holder {
            Some((c, _)) if c == client => {
                self.holder = None;
                Ok(self.promote(client, now))
            }
            _ => Err(FloorError::NotHolder(client)),
        }
    }

    /// Explicitly passes the floor to `target` (who must be waiting) —
    /// required under [`FloorPolicy::ExplicitPass`], allowed under all.
    ///
    /// # Errors
    ///
    /// Fails if `client` is not the holder or `target` is not waiting.
    pub fn pass(
        &mut self,
        client: ClientId,
        target: ClientId,
        now: SimTime,
    ) -> Result<Vec<FloorEvent>, FloorError> {
        match self.holder {
            Some((c, _)) if c == client => {}
            _ => return Err(FloorError::NotHolder(client)),
        }
        let Some(pos) = self.queue.iter().position(|&(c, _)| c == target) else {
            return Err(FloorError::TargetNotWaiting(target));
        };
        let Some((target, asked)) = self.queue.remove(pos) else {
            return Err(FloorError::TargetNotWaiting(target));
        };
        self.holder = None;
        Ok(self.grant(target, asked, now))
    }

    /// Time-based maintenance: under [`FloorPolicy::PreemptAfter`],
    /// preempts over-long holders.
    #[must_use]
    pub fn tick(&mut self, now: SimTime) -> Vec<FloorEvent> {
        let FloorPolicy::PreemptAfter(limit) = self.policy else {
            return Vec::new();
        };
        let Some((holder, since)) = self.holder else {
            return Vec::new();
        };
        if now.saturating_since(since) >= limit && !self.queue.is_empty() {
            self.holder = None;
            self.preemptions += 1;
            let mut events = vec![FloorEvent::Preempted {
                who: holder,
                at: now,
            }];
            events.extend(self.promote(holder, now));
            events
        } else {
            Vec::new()
        }
    }

    /// Hands the floor `by` just vacated to the next waiter, if the
    /// policy queues.
    fn promote(&mut self, by: ClientId, now: SimTime) -> Vec<FloorEvent> {
        let idle = FloorEvent::Idle { by, at: now };
        match self.policy {
            FloorPolicy::ExplicitPass => {
                // The floor stays free until someone requests it afresh or
                // it is explicitly passed; waiters stay queued for `pass`.
                if self.queue.is_empty() {
                    vec![idle]
                } else {
                    Vec::new()
                }
            }
            FloorPolicy::RequestQueue | FloorPolicy::PreemptAfter(_) => {
                if let Some((next, asked)) = self.queue.pop_front() {
                    self.grant(next, asked, now)
                } else {
                    vec![idle]
                }
            }
        }
    }

    fn grant(&mut self, client: ClientId, asked: SimTime, now: SimTime) -> Vec<FloorEvent> {
        self.holder = Some((client, now));
        self.grants += 1;
        self.wait_total += now.saturating_since(asked);
        vec![FloorEvent::Granted {
            who: client,
            at: now,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_awareness::bus::EventBus;
    use odp_sim::net::NodeId;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn bus(n: u32) -> EventBus {
        let mut bus = EventBus::new();
        for i in 0..n {
            bus.register(NodeId(i), 0.0);
        }
        bus
    }

    #[test]
    fn via_grants_broadcast_to_every_other_participant() {
        let mut bus = bus(3);
        let mut fc = FloorControl::new(FloorPolicy::RequestQueue);
        let seen = bus.publish_all(&fc.request(ClientId(0), t(0)));
        // Broadcast audience: the actor itself is excluded, the other two hear it.
        let observers: Vec<NodeId> = seen.iter().map(|d| d.observer).collect();
        assert_eq!(observers, vec![NodeId(1), NodeId(2)]);
        assert!(seen
            .iter()
            .all(|d| matches!(d.event.kind, CoopKind::FloorGranted)));
        assert!(seen.iter().all(|d| d.event.artefact == FLOOR_ARTEFACT));
    }

    #[test]
    fn via_preemption_publishes_preempted_then_granted() {
        let mut bus = bus(3);
        let mut fc = FloorControl::new(FloorPolicy::PreemptAfter(SimDuration::from_millis(5)));
        let _ = fc.request(ClientId(0), t(0));
        let _ = fc.request(ClientId(1), t(1));
        let seen = bus.publish_all(&fc.tick(t(10)));
        // Each event fans out to the two non-actors, preserving order.
        let labels: Vec<&str> = seen
            .iter()
            .filter(|d| d.observer == NodeId(2))
            .map(|d| d.event.kind.label())
            .collect();
        assert_eq!(labels, vec!["floor.preempted", "floor.granted"]);
    }

    #[test]
    fn via_release_with_empty_queue_publishes_idle_from_the_releaser() {
        let mut bus = bus(2);
        let mut fc = FloorControl::new(FloorPolicy::RequestQueue);
        let _ = fc.request(ClientId(0), t(0));
        let seen = bus.publish_all(&fc.release(ClientId(0), t(5)).unwrap());
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].observer, NodeId(1));
        assert!(matches!(seen[0].event.kind, CoopKind::FloorIdle));
        assert_eq!(seen[0].event.actor, NodeId(0));
        assert_eq!(seen[0].event.at, t(5));
    }

    #[test]
    fn free_floor_grants_immediately() {
        let mut fc = FloorControl::new(FloorPolicy::RequestQueue);
        let ev = fc.request(ClientId(0), t(0));
        assert_eq!(
            ev,
            vec![FloorEvent::Granted {
                who: ClientId(0),
                at: t(0)
            }]
        );
        assert_eq!(fc.grants(), 1);
    }

    #[test]
    fn queue_policy_transfers_on_release_in_fifo_order() {
        let mut fc = FloorControl::new(FloorPolicy::RequestQueue);
        let _ = fc.request(ClientId(0), t(0));
        let _ = fc.request(ClientId(1), t(1));
        let _ = fc.request(ClientId(2), t(2));
        let ev = fc.release(ClientId(0), t(10)).unwrap();
        assert_eq!(
            ev,
            vec![FloorEvent::Granted {
                who: ClientId(1),
                at: t(10)
            }]
        );
        assert_eq!(fc.waiting(), vec![ClientId(2)]);
        assert_eq!(fc.total_wait(), SimDuration::from_millis(9));
    }

    #[test]
    fn explicit_pass_policy_requires_a_pass() {
        let mut fc = FloorControl::new(FloorPolicy::ExplicitPass);
        let _ = fc.request(ClientId(0), t(0));
        let _ = fc.request(ClientId(1), t(1));
        // Release does not auto-promote.
        let ev = fc.release(ClientId(0), t(2)).unwrap();
        assert!(ev.is_empty());
        assert_eq!(fc.holder(), None);
        assert_eq!(fc.waiting(), vec![ClientId(1)]);
        // Re-request and pass.
        let _ = fc.request(ClientId(0), t(3));
        let ev = fc.pass(ClientId(0), ClientId(1), t(4)).unwrap();
        assert_eq!(
            ev,
            vec![FloorEvent::Granted {
                who: ClientId(1),
                at: t(4)
            }]
        );
    }

    #[test]
    fn pass_to_non_waiter_fails() {
        let mut fc = FloorControl::new(FloorPolicy::ExplicitPass);
        let _ = fc.request(ClientId(0), t(0));
        assert_eq!(
            fc.pass(ClientId(0), ClientId(5), t(1)).unwrap_err(),
            FloorError::TargetNotWaiting(ClientId(5))
        );
    }

    #[test]
    fn non_holder_release_fails() {
        let mut fc = FloorControl::new(FloorPolicy::RequestQueue);
        let _ = fc.request(ClientId(0), t(0));
        assert_eq!(
            fc.release(ClientId(1), t(1)).unwrap_err(),
            FloorError::NotHolder(ClientId(1))
        );
    }

    #[test]
    fn preemption_after_holding_limit() {
        let mut fc = FloorControl::new(FloorPolicy::PreemptAfter(SimDuration::from_millis(100)));
        let _ = fc.request(ClientId(0), t(0));
        let _ = fc.request(ClientId(1), t(5));
        assert!(fc.tick(t(50)).is_empty(), "not yet over the limit");
        let ev = fc.tick(t(100));
        assert_eq!(
            ev,
            vec![
                FloorEvent::Preempted {
                    who: ClientId(0),
                    at: t(100)
                },
                FloorEvent::Granted {
                    who: ClientId(1),
                    at: t(100)
                },
            ]
        );
        assert_eq!(fc.preemptions(), 1);
    }

    #[test]
    fn no_preemption_when_nobody_waits() {
        let mut fc = FloorControl::new(FloorPolicy::PreemptAfter(SimDuration::from_millis(100)));
        let _ = fc.request(ClientId(0), t(0));
        assert!(
            fc.tick(t(500)).is_empty(),
            "holder keeps an uncontested floor"
        );
    }

    #[test]
    fn duplicate_requests_are_idempotent() {
        let mut fc = FloorControl::new(FloorPolicy::RequestQueue);
        let _ = fc.request(ClientId(0), t(0));
        assert!(fc.request(ClientId(0), t(1)).is_empty());
        let _ = fc.request(ClientId(1), t(2));
        assert!(fc.request(ClientId(1), t(3)).is_empty());
        assert_eq!(fc.waiting(), vec![ClientId(1)]);
    }

    #[test]
    fn release_with_empty_queue_reports_idle() {
        let mut fc = FloorControl::new(FloorPolicy::RequestQueue);
        let _ = fc.request(ClientId(0), t(0));
        let ev = fc.release(ClientId(0), t(1)).unwrap();
        assert_eq!(
            ev,
            vec![FloorEvent::Idle {
                by: ClientId(0),
                at: t(1)
            }]
        );
    }
}
