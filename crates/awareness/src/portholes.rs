//! Portholes-style asynchronous awareness (Dourish & Bly): periodic,
//! low-fidelity snapshots of each participant's activity, distributed to
//! subscribers regardless of distance — "awareness in a distributed work
//! group" across both time and space.

use std::collections::{BTreeMap, BTreeSet};

use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};

/// One low-fidelity activity snapshot ("a frame from the office camera").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Whose office.
    pub who: NodeId,
    /// When it was captured.
    pub at: SimTime,
    /// A coarse activity descriptor (e.g. "typing", "away", "meeting").
    pub activity: String,
}

/// The Portholes directory: captures snapshots and answers queries with
/// staleness tracking.
///
/// # Examples
///
/// ```
/// use odp_awareness::portholes::Portholes;
/// use odp_sim::net::NodeId;
/// use odp_sim::time::{SimDuration, SimTime};
///
/// let mut p = Portholes::new(SimDuration::from_secs(300));
/// p.subscribe(NodeId(1), NodeId(0));
/// p.capture(NodeId(0), "typing", SimTime::ZERO);
/// let wall = p.wall_for(NodeId(1), SimTime::from_secs(60));
/// assert_eq!(wall.len(), 1);
/// assert_eq!(wall[0].0.activity, "typing");
/// assert!(!wall[0].1, "not yet stale");
/// ```
#[derive(Debug, Clone)]
pub struct Portholes {
    latest: BTreeMap<NodeId, Snapshot>,
    subscriptions: BTreeMap<NodeId, BTreeSet<NodeId>>,
    stale_after: SimDuration,
}

impl Portholes {
    /// Creates a directory in which snapshots older than `stale_after`
    /// are flagged stale.
    pub fn new(stale_after: SimDuration) -> Self {
        Portholes {
            latest: BTreeMap::new(),
            subscriptions: BTreeMap::new(),
            stale_after,
        }
    }

    /// `viewer` subscribes to `target`'s snapshots.
    pub fn subscribe(&mut self, viewer: NodeId, target: NodeId) {
        self.subscriptions.entry(viewer).or_default().insert(target);
    }

    /// Records a snapshot of `who`.
    pub fn capture(&mut self, who: NodeId, activity: impl Into<String>, at: SimTime) {
        self.latest.insert(
            who,
            Snapshot {
                who,
                at,
                activity: activity.into(),
            },
        );
    }

    /// The viewer's "porthole wall": each subscribed target's latest
    /// snapshot with a staleness flag. Targets that never captured are
    /// omitted.
    pub fn wall_for(&self, viewer: NodeId, now: SimTime) -> Vec<(Snapshot, bool)> {
        let Some(targets) = self.subscriptions.get(&viewer) else {
            return Vec::new();
        };
        targets
            .iter()
            .filter_map(|t| self.latest.get(t))
            .map(|s| (s.clone(), now.saturating_since(s.at) > self.stale_after))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_shows_latest_snapshot_per_target() {
        let mut p = Portholes::new(SimDuration::from_secs(60));
        p.subscribe(NodeId(9), NodeId(0));
        p.capture(NodeId(0), "idle", SimTime::ZERO);
        p.capture(NodeId(0), "typing", SimTime::from_secs(5));
        let wall = p.wall_for(NodeId(9), SimTime::from_secs(6));
        assert_eq!(wall.len(), 1);
        assert_eq!(wall[0].0.activity, "typing");
    }

    #[test]
    fn staleness_is_flagged() {
        let mut p = Portholes::new(SimDuration::from_secs(10));
        p.subscribe(NodeId(9), NodeId(0));
        p.capture(NodeId(0), "typing", SimTime::ZERO);
        assert!(!p.wall_for(NodeId(9), SimTime::from_secs(10))[0].1);
        assert!(p.wall_for(NodeId(9), SimTime::from_secs(11))[0].1);
    }

    #[test]
    fn targets_without_captures_are_omitted() {
        let mut p = Portholes::new(SimDuration::from_secs(60));
        p.subscribe(NodeId(9), NodeId(5));
        assert!(p.wall_for(NodeId(9), SimTime::ZERO).is_empty());
    }

    #[test]
    fn viewer_without_subscriptions_sees_nothing() {
        let mut p = Portholes::new(SimDuration::from_secs(60));
        p.capture(NodeId(0), "x", SimTime::ZERO);
        assert!(p.wall_for(NodeId(7), SimTime::ZERO).is_empty());
    }

    /// A re-`capture` freshens a snapshot across the stale boundary: the
    /// same wall entry flips stale → fresh without growing the wall.
    #[test]
    fn recapture_refreshes_a_stale_snapshot() {
        let mut p = Portholes::new(SimDuration::from_secs(10));
        p.subscribe(NodeId(9), NodeId(0));
        p.capture(NodeId(0), "typing", SimTime::ZERO);
        let wall = p.wall_for(NodeId(9), SimTime::from_secs(30));
        assert_eq!(wall.len(), 1);
        assert!(wall[0].1, "first snapshot has gone stale");
        p.capture(NodeId(0), "meeting", SimTime::from_secs(30));
        let wall = p.wall_for(NodeId(9), SimTime::from_secs(31));
        assert_eq!(wall.len(), 1, "replaced, not accumulated");
        assert_eq!(wall[0].0.activity, "meeting");
        assert!(!wall[0].1, "fresh again");
    }

    /// Re-`capture` overwrites the retained snapshot: one per target.
    #[test]
    fn recapture_overwrites_the_retained_snapshot() {
        let mut p = Portholes::new(SimDuration::from_secs(60));
        p.subscribe(NodeId(9), NodeId(0));
        for (i, act) in ["idle", "typing", "away"].iter().enumerate() {
            p.capture(NodeId(0), *act, SimTime::from_secs(i as u64));
        }
        let wall = p.wall_for(NodeId(9), SimTime::from_secs(3));
        assert_eq!(wall.len(), 1, "only the latest is retained");
        assert_eq!(wall[0].0.activity, "away");
        assert_eq!(wall[0].0.at, SimTime::from_secs(2));
    }
}
