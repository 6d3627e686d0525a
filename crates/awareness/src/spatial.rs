//! The spatial model of interaction: aura, focus and nimbus
//! (Benford & Fahlén, DIVE — paper §3.3.2's "spatial model for cooperation
//! in large unbounded space").
//!
//! Each participant occupies a [`Position`] and projects
//!
//! - an **aura** — the radius within which interaction is possible at all;
//! - a **focus** — the region it is paying attention to;
//! - a **nimbus** — the region over which it projects its presence.
//!
//! The awareness that A has of B combines A's focus with B's nimbus: full
//! when each contains the other, peripheral when only one does, none when
//! neither. The quantitative weighting uses a linear falloff within each
//! radius, giving the continuous "awareness weighting" the paper calls
//! for.

use std::collections::BTreeMap;

use odp_sim::net::NodeId;

/// A point in the shared 2-D space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// X coordinate (arbitrary spatial units).
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A participant's spatial extent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialBody {
    /// Where the participant is.
    pub position: Position,
    /// Interaction radius: no mutual awareness beyond it.
    pub aura: f64,
    /// Attention radius.
    pub focus: f64,
    /// Presence-projection radius.
    pub nimbus: f64,
}

impl SpatialBody {
    /// A body with equal focus and nimbus radii.
    pub fn symmetric(position: Position, aura: f64, radius: f64) -> Self {
        SpatialBody {
            position,
            aura,
            focus: radius,
            nimbus: radius,
        }
    }
}

/// Qualitative awareness levels derived from focus/nimbus overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AwarenessLevel {
    /// No awareness (outside aura, or neither focus nor nimbus reach).
    None,
    /// Peripheral: only one of focus/nimbus reaches.
    Peripheral,
    /// Full mutual engagement.
    Full,
}

/// The shared space containing all participants.
///
/// # Examples
///
/// ```
/// use odp_awareness::spatial::{AwarenessLevel, Position, SpatialBody, SpatialModel};
/// use odp_sim::net::NodeId;
///
/// let mut space = SpatialModel::new();
/// space.place(NodeId(0), SpatialBody::symmetric(Position::new(0.0, 0.0), 100.0, 10.0));
/// space.place(NodeId(1), SpatialBody::symmetric(Position::new(5.0, 0.0), 100.0, 10.0));
/// assert_eq!(space.level(NodeId(0), NodeId(1)), AwarenessLevel::Full);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpatialModel {
    bodies: BTreeMap<NodeId, SpatialBody>,
}

impl SpatialModel {
    /// Creates an empty space.
    pub fn new() -> Self {
        SpatialModel::default()
    }

    /// Places (or moves) a participant.
    pub fn place(&mut self, who: NodeId, body: SpatialBody) {
        self.bodies.insert(who, body);
    }

    /// Moves a participant, keeping its radii.
    pub fn move_to(&mut self, who: NodeId, position: Position) -> bool {
        match self.bodies.get_mut(&who) {
            Some(b) => {
                b.position = position;
                true
            }
            None => false,
        }
    }

    /// The body of a participant, if present.
    pub fn body(&self, who: NodeId) -> Option<&SpatialBody> {
        self.bodies.get(&who)
    }

    /// The qualitative awareness `observer` has of `subject`.
    pub fn level(&self, observer: NodeId, subject: NodeId) -> AwarenessLevel {
        let (Some(a), Some(b)) = (self.bodies.get(&observer), self.bodies.get(&subject)) else {
            return AwarenessLevel::None;
        };
        let d = a.position.distance(&b.position);
        if observer == subject || d > a.aura.min(b.aura) {
            return AwarenessLevel::None;
        }
        let in_focus = d <= a.focus; // subject inside observer's focus
        let in_nimbus = d <= b.nimbus; // observer inside subject's nimbus
        match (in_focus, in_nimbus) {
            (true, true) => AwarenessLevel::Full,
            (false, false) => AwarenessLevel::None,
            _ => AwarenessLevel::Peripheral,
        }
    }

    /// The quantitative awareness weight in `[0, 1]`: the product of a
    /// linear falloff of the subject within the observer's focus and of
    /// the observer within the subject's nimbus, gated by the aura.
    pub fn weight(&self, observer: NodeId, subject: NodeId) -> f64 {
        let (Some(a), Some(b)) = (self.bodies.get(&observer), self.bodies.get(&subject)) else {
            return 0.0;
        };
        if observer == subject {
            return 0.0;
        }
        let d = a.position.distance(&b.position);
        if d > a.aura.min(b.aura) {
            return 0.0;
        }
        let falloff = |radius: f64| -> f64 {
            if radius <= 0.0 {
                0.0
            } else {
                (1.0 - d / radius).max(0.0)
            }
        };
        // Average rather than multiply so peripheral (one-sided) awareness
        // yields a non-zero weight, matching the qualitative levels.
        (falloff(a.focus) + falloff(b.nimbus)) / 2.0
    }

    /// Everyone with a non-`None` level as seen by `observer`, with
    /// weights, nearest first.
    pub fn aware_of(&self, observer: NodeId) -> Vec<(NodeId, f64)> {
        let mut out: Vec<(NodeId, f64)> = self
            .bodies
            .keys()
            .filter(|&&n| n != observer)
            .map(|&n| (n, self.weight(observer, n)))
            .filter(|&(_, w)| w > 0.0)
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Number of participants present.
    pub fn population(&self) -> usize {
        self.bodies.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(x: f64, focus: f64, nimbus: f64) -> SpatialBody {
        SpatialBody {
            position: Position::new(x, 0.0),
            aura: 1000.0,
            focus,
            nimbus,
        }
    }

    #[test]
    fn mutual_closeness_gives_full_awareness() {
        let mut s = SpatialModel::new();
        s.place(NodeId(0), body(0.0, 10.0, 10.0));
        s.place(NodeId(1), body(5.0, 10.0, 10.0));
        assert_eq!(s.level(NodeId(0), NodeId(1)), AwarenessLevel::Full);
        assert!(s.weight(NodeId(0), NodeId(1)) > 0.4);
    }

    #[test]
    fn awareness_is_asymmetric() {
        let mut s = SpatialModel::new();
        // 0 focuses far; 1 projects a small nimbus and focuses nowhere.
        s.place(NodeId(0), body(0.0, 50.0, 1.0));
        s.place(NodeId(1), body(10.0, 1.0, 1.0));
        // 0 sees 1 in focus, but is outside 1's nimbus: peripheral.
        assert_eq!(s.level(NodeId(0), NodeId(1)), AwarenessLevel::Peripheral);
        // 1 has 0 outside focus, and 0's nimbus (1.0) does not reach: none.
        assert_eq!(s.level(NodeId(1), NodeId(0)), AwarenessLevel::None);
    }

    #[test]
    fn aura_gates_everything() {
        let mut s = SpatialModel::new();
        let mut a = body(0.0, 100.0, 100.0);
        a.aura = 5.0;
        s.place(NodeId(0), a);
        s.place(NodeId(1), body(10.0, 100.0, 100.0));
        assert_eq!(s.level(NodeId(0), NodeId(1)), AwarenessLevel::None);
        assert_eq!(s.weight(NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn weight_decreases_with_distance() {
        let mut s = SpatialModel::new();
        s.place(NodeId(0), body(0.0, 20.0, 20.0));
        s.place(NodeId(1), body(2.0, 20.0, 20.0));
        s.place(NodeId(2), body(15.0, 20.0, 20.0));
        assert!(s.weight(NodeId(0), NodeId(1)) > s.weight(NodeId(0), NodeId(2)));
    }

    #[test]
    fn moving_updates_awareness() {
        let mut s = SpatialModel::new();
        s.place(NodeId(0), body(0.0, 10.0, 10.0));
        s.place(NodeId(1), body(100.0, 10.0, 10.0));
        assert_eq!(s.level(NodeId(0), NodeId(1)), AwarenessLevel::None);
        assert!(s.move_to(NodeId(1), Position::new(3.0, 0.0)));
        assert_eq!(s.level(NodeId(0), NodeId(1)), AwarenessLevel::Full);
        assert!(!s.move_to(NodeId(9), Position::new(0.0, 0.0)));
    }

    #[test]
    fn aware_of_sorts_by_weight() {
        let mut s = SpatialModel::new();
        s.place(NodeId(0), body(0.0, 50.0, 50.0));
        s.place(NodeId(1), body(40.0, 50.0, 50.0));
        s.place(NodeId(2), body(5.0, 50.0, 50.0));
        s.place(NodeId(3), body(500.0, 50.0, 50.0)); // out of range
        let aware = s.aware_of(NodeId(0));
        assert_eq!(aware.len(), 2);
        assert_eq!(aware[0].0, NodeId(2), "nearest first");
        assert_eq!(aware[1].0, NodeId(1));
    }

    #[test]
    fn self_awareness_is_zero() {
        let mut s = SpatialModel::new();
        s.place(NodeId(0), body(0.0, 10.0, 10.0));
        assert_eq!(s.level(NodeId(0), NodeId(0)), AwarenessLevel::None);
        assert_eq!(s.weight(NodeId(0), NodeId(0)), 0.0);
    }

    #[test]
    fn zero_radius_focus_gives_no_weight_from_focus() {
        let mut s = SpatialModel::new();
        s.place(NodeId(0), body(0.0, 0.0, 0.0));
        s.place(NodeId(1), body(0.5, 10.0, 10.0));
        // 1's nimbus covers 0 but 0's zero-radius focus reaches nothing:
        // peripheral, weight from the nimbus half only.
        assert_eq!(s.level(NodeId(0), NodeId(1)), AwarenessLevel::Peripheral);
        let w = s.weight(NodeId(0), NodeId(1));
        assert!(w > 0.0 && w <= 0.5, "w={w}");
    }
}
