//! Awareness events and their distribution.
//!
//! The paper (§4.2.1): *"a more recent trend has been to ... provide
//! explicit **awareness mechanisms** for both synchronous and asynchronous
//! modes of working. This work often uses spatial and temporal metrics to
//! generate awareness weightings defining the impact of actions on other
//! users."*
//!
//! This module is the raw activity vocabulary: an [`ActivityKind`] names
//! what a participant did, and every [`crate::bus::CoopKind`] maps onto
//! one ([`CoopKind::activity`]), so a weight function can score any
//! cooperation event by the kind of activity it is (see
//! [`crate::spatial`] and [`crate::weights`] for the standard metrics).
//! Routing is [`crate::bus::EventBus`]'s job: deliveries weighted below
//! an observer's threshold are suppressed — this is how "at a glance"
//! peripheral awareness stays useful rather than noisy.
//!
//! [`CoopKind::activity`]: crate::bus::CoopKind::activity

use std::fmt;

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

#[cfg(test)]
mod tests {
    //! How the bus scores this vocabulary: a weight function installed
    //! through `set_weight_fn` decides who hears an activity.

    use odp_sim::net::NodeId;
    use odp_sim::time::SimTime;

    use super::*;
    use crate::bus::{BusDelivery, CoopEvent, CoopKind, CoopWeightFn, EventBus};

    fn bus(weight: CoopWeightFn) -> EventBus {
        let mut b = EventBus::new();
        b.set_weight_fn(weight);
        b
    }

    fn edit(bus: &mut EventBus) -> Vec<BusDelivery> {
        bus.publish(CoopEvent::broadcast(
            NodeId(0),
            "doc",
            SimTime::ZERO,
            CoopKind::Activity(ActivityKind::Edit),
        ))
    }

    #[test]
    fn publishes_to_all_but_the_actor() {
        let mut b = bus(Box::new(|_, _| 1.0));
        for n in 0..3 {
            b.register(NodeId(n), 0.0);
        }
        let observers: Vec<NodeId> = edit(&mut b).iter().map(|d| d.observer).collect();
        assert_eq!(observers, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn threshold_suppresses_low_weight_events() {
        let mut b = bus(Box::new(|obs, _| if obs == NodeId(1) { 0.9 } else { 0.2 }));
        b.register(NodeId(1), 0.5);
        b.register(NodeId(2), 0.5);
        let out = edit(&mut b);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].observer, out[0].weight), (NodeId(1), 0.9));
        let (s1, s2) = (b.stats(NodeId(1)).unwrap(), b.stats(NodeId(2)).unwrap());
        assert_eq!((s1.received, s1.suppressed_low_weight), (1, 0));
        assert_eq!((s2.received, s2.suppressed_low_weight), (0, 1));
    }

    #[test]
    fn zero_weight_never_delivers_even_at_zero_threshold() {
        let mut b = bus(Box::new(|_, _| 0.0));
        b.register(NodeId(1), 0.0);
        assert!(edit(&mut b).is_empty());
        assert_eq!(b.stats(NodeId(1)).unwrap().suppressed_low_weight, 1);
    }

    #[test]
    fn weights_are_clamped() {
        let mut b = bus(Box::new(|obs, _| if obs == NodeId(1) { 7.5 } else { -3.0 }));
        b.register(NodeId(1), 0.0);
        b.register(NodeId(2), 0.0);
        let out = edit(&mut b);
        assert_eq!(
            out.len(),
            1,
            "a negative weight clamps to 0 and never delivers"
        );
        assert_eq!((out[0].observer, out[0].weight), (NodeId(1), 1.0));
        // Thresholds clamp too: 9.0 means 1.0, which a full weight meets.
        b.register(NodeId(3), 9.0);
        b.set_weight_fn(Box::new(|_, _| 1.0));
        assert!(edit(&mut b).iter().any(|d| d.observer == NodeId(3)));
    }

    #[test]
    fn unregister_stops_delivery() {
        let mut b = bus(Box::new(|_, _| 1.0));
        b.register(NodeId(1), 0.0);
        assert_eq!(edit(&mut b).len(), 1);
        b.unregister(NodeId(1));
        assert!(edit(&mut b).is_empty());
        assert_eq!(b.stats(NodeId(1)), None);
    }

    #[test]
    fn weight_fn_can_be_replaced_at_runtime() {
        let mut b = bus(Box::new(|_, _| 0.0));
        b.register(NodeId(1), 0.1);
        assert!(edit(&mut b).is_empty());
        b.set_weight_fn(Box::new(|_, ev| {
            if ev.kind.activity() == ActivityKind::Edit {
                1.0
            } else {
                0.0
            }
        }));
        assert_eq!(edit(&mut b).len(), 1);
    }
}
