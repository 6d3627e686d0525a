//! Awareness events and their distribution.
//!
//! The paper (§4.2.1): *"a more recent trend has been to ... provide
//! explicit **awareness mechanisms** for both synchronous and asynchronous
//! modes of working. This work often uses spatial and temporal metrics to
//! generate awareness weightings defining the impact of actions on other
//! users."*
//!
//! An [`AwarenessEngine`] routes published [`AwarenessEvent`]s to
//! registered participants, weighting each delivery by a pluggable
//! [`WeightFn`] (see [`crate::spatial`] and [`crate::weights`] for the
//! standard metrics). Deliveries below a participant's threshold are
//! suppressed — this is how "at a glance" peripheral awareness stays
//! useful rather than noisy.

use std::collections::BTreeMap;
use std::fmt;

use odp_fabric::ObjectPath;
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

/// What a participant did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityKind {
    /// Edited a shared artefact.
    Edit,
    /// Viewed a shared artefact.
    View,
    /// Entered a space / session.
    Enter,
    /// Left a space / session.
    Leave,
    /// An informal gesture (pointing, highlighting, chance remark).
    Gesture,
    /// Moved within a shared space.
    Move,
}

impl fmt::Display for ActivityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ActivityKind::Edit => "edit",
            ActivityKind::View => "view",
            ActivityKind::Enter => "enter",
            ActivityKind::Leave => "leave",
            ActivityKind::Gesture => "gesture",
            ActivityKind::Move => "move",
        };
        f.write_str(s)
    }
}

/// One observable action by a participant.
#[derive(Debug, Clone, PartialEq)]
pub struct AwarenessEvent {
    /// Who acted.
    pub actor: NodeId,
    /// The artefact acted upon (an application-level identifier, in
    /// [`ObjectPath`] normal form).
    pub artefact: ObjectPath,
    /// The kind of action.
    pub kind: ActivityKind,
    /// When.
    pub at: SimTime,
}

/// A weighted delivery of an event to one observer.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedDelivery {
    /// The observer receiving the event.
    pub observer: NodeId,
    /// The event.
    pub event: AwarenessEvent,
    /// Awareness weight in `[0, 1]`.
    pub weight: f64,
}

/// Computes the awareness weight of `event` for `observer`.
///
/// Returning `0.0` suppresses delivery entirely.
///
/// `Send` so awareness state can ride along when a hosting actor moves
/// into a threaded transport backend.
pub type WeightFn = Box<dyn Fn(NodeId, &AwarenessEvent) -> f64 + Send>;

/// Per-observer delivery configuration.
struct Observer {
    threshold: f64,
    received: u64,
    suppressed: u64,
}

/// Routes awareness events to observers with weights.
///
/// # Examples
///
/// ```
/// use odp_awareness::events::{ActivityKind, AwarenessEngine, AwarenessEvent};
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut engine = AwarenessEngine::new(Box::new(|_, _| 1.0));
/// engine.register(NodeId(1), 0.1);
/// let deliveries = engine.publish(AwarenessEvent {
///     actor: NodeId(0),
///     artefact: "doc:intro".into(),
///     kind: ActivityKind::Edit,
///     at: SimTime::ZERO,
/// });
/// assert_eq!(deliveries.len(), 1);
/// assert_eq!(deliveries[0].observer, NodeId(1));
/// ```
pub struct AwarenessEngine {
    weight: WeightFn,
    observers: BTreeMap<NodeId, Observer>,
    published: u64,
}

impl AwarenessEngine {
    /// Creates an engine using `weight` to score deliveries.
    pub fn new(weight: WeightFn) -> Self {
        AwarenessEngine {
            weight,
            observers: BTreeMap::new(),
            published: 0,
        }
    }

    /// Registers an observer with a minimum-interest threshold in
    /// `[0, 1]`; events weighted below it are suppressed.
    pub fn register(&mut self, observer: NodeId, threshold: f64) {
        self.observers.insert(
            observer,
            Observer {
                threshold: threshold.clamp(0.0, 1.0),
                received: 0,
                suppressed: 0,
            },
        );
    }

    /// Removes an observer.
    pub fn unregister(&mut self, observer: NodeId) {
        self.observers.remove(&observer);
    }

    /// Replaces the weighting function (e.g. when participants move in
    /// space).
    pub fn set_weight_fn(&mut self, weight: WeightFn) {
        self.weight = weight;
    }

    /// Publishes an event, returning the weighted deliveries that pass
    /// each observer's threshold. The actor never observes itself.
    pub fn publish(&mut self, event: AwarenessEvent) -> Vec<WeightedDelivery> {
        self.published += 1;
        let mut out = Vec::new();
        for (&observer, state) in self.observers.iter_mut() {
            if observer == event.actor {
                continue;
            }
            let w = (self.weight)(observer, &event).clamp(0.0, 1.0);
            if w >= state.threshold && w > 0.0 {
                state.received += 1;
                out.push(WeightedDelivery {
                    observer,
                    // Each observer gets an owned event by API contract:
                    // a refcount bump on the artefact path plus `Copy`
                    // fields.
                    // odp-check: allow(hot-path-alloc)
                    event: event.clone(),
                    weight: w,
                });
            } else {
                state.suppressed += 1;
            }
        }
        out
    }

    /// Total events published.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// `(received, suppressed)` counts for an observer.
    pub fn stats(&self, observer: NodeId) -> Option<(u64, u64)> {
        self.observers
            .get(&observer)
            .map(|o| (o.received, o.suppressed))
    }
}

impl fmt::Debug for AwarenessEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AwarenessEngine")
            .field("observers", &self.observers.len())
            .field("published", &self.published)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(actor: u32) -> AwarenessEvent {
        AwarenessEvent {
            actor: NodeId(actor),
            artefact: "doc".into(),
            kind: ActivityKind::Edit,
            at: SimTime::ZERO,
        }
    }

    #[test]
    fn publishes_to_all_but_the_actor() {
        let mut e = AwarenessEngine::new(Box::new(|_, _| 1.0));
        e.register(NodeId(0), 0.0);
        e.register(NodeId(1), 0.0);
        e.register(NodeId(2), 0.0);
        let out = e.publish(event(0));
        let observers: Vec<NodeId> = out.iter().map(|d| d.observer).collect();
        assert_eq!(observers, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn threshold_suppresses_low_weight_events() {
        let mut e =
            AwarenessEngine::new(Box::new(|obs, _| if obs == NodeId(1) { 0.9 } else { 0.2 }));
        e.register(NodeId(1), 0.5);
        e.register(NodeId(2), 0.5);
        let out = e.publish(event(0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].observer, NodeId(1));
        assert_eq!(e.stats(NodeId(2)), Some((0, 1)));
        assert_eq!(e.stats(NodeId(1)), Some((1, 0)));
    }

    #[test]
    fn zero_weight_never_delivers_even_at_zero_threshold() {
        let mut e = AwarenessEngine::new(Box::new(|_, _| 0.0));
        e.register(NodeId(1), 0.0);
        assert!(e.publish(event(0)).is_empty());
    }

    #[test]
    fn weights_are_clamped() {
        let mut e = AwarenessEngine::new(Box::new(|_, _| 7.5));
        e.register(NodeId(1), 0.0);
        let out = e.publish(event(0));
        assert_eq!(out[0].weight, 1.0);
    }

    #[test]
    fn unregister_stops_delivery() {
        let mut e = AwarenessEngine::new(Box::new(|_, _| 1.0));
        e.register(NodeId(1), 0.0);
        e.unregister(NodeId(1));
        assert!(e.publish(event(0)).is_empty());
    }

    #[test]
    fn weight_fn_can_be_replaced_at_runtime() {
        let mut e = AwarenessEngine::new(Box::new(|_, _| 0.0));
        e.register(NodeId(1), 0.1);
        assert!(e.publish(event(0)).is_empty());
        e.set_weight_fn(Box::new(|_, _| 1.0));
        assert_eq!(e.publish(event(0)).len(), 1);
    }
}
