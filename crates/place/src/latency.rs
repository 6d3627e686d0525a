//! Observed link-latency estimation.
//!
//! The controller never asks the network for its topology — open
//! systems cannot. Instead every completed `tile.access` trace yields
//! a link sample from its *reply leg* (serve-span close → root close):
//! unlike the request leg, the reply leg contains no freeze stalls or
//! redirect chases, so it measures the wire and nothing else. The
//! sample is folded into an integer EWMA for both directions of the
//! pair. `LatencyMap::estimator`
//! then stands in for the latency oracle `odp_mgmt::placement::place`
//! expects, making placement scores *observed*, not modelled.

use std::collections::BTreeMap;

use odp_sim::net::NodeId;
use odp_sim::time::SimDuration;

/// Integer EWMA (alpha = 1/4) of observed one-way latencies, per
/// directed node pair.
#[derive(Debug, Clone, Default)]
pub struct LatencyMap {
    mean_us: BTreeMap<(NodeId, NodeId), u64>,
    samples: u64,
    default_us: u64,
}

impl LatencyMap {
    /// Creates an empty map whose unobserved pairs estimate
    /// `default_us` microseconds. This is the *exploration prior*: a
    /// high (pessimistic) default pins clusters to observed territory,
    /// a low (optimistic) one makes the controller willing to try a
    /// destination nobody has measured yet — the hysteresis gate still
    /// has to clear, and the first accesses after the move replace the
    /// prior with reality.
    pub fn new(default_us: u64) -> Self {
        LatencyMap {
            mean_us: BTreeMap::new(),
            samples: 0,
            default_us,
        }
    }

    /// Folds one observed one-way latency for `from → to`.
    pub fn observe(&mut self, from: NodeId, to: NodeId, d: SimDuration) {
        if from == to {
            return;
        }
        self.samples += 1;
        let us = d.as_micros().max(1);
        self.mean_us
            .entry((from, to))
            .and_modify(|m| *m = (*m * 3 + us) / 4)
            .or_insert(us);
    }

    /// Total samples folded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The estimate for a directed pair: the pair's EWMA, else the
    /// reverse pair's (links are usually near-symmetric), else the
    /// default prior. Same-node latency is zero.
    pub(crate) fn estimate_us(&self, from: NodeId, to: NodeId) -> u64 {
        if from == to {
            return 0;
        }
        self.mean_us
            .get(&(from, to))
            .or_else(|| self.mean_us.get(&(to, from)))
            .copied()
            .unwrap_or(self.default_us)
    }

    /// The latency oracle shape `place` expects.
    pub(crate) fn estimator(&self) -> impl Fn(NodeId, NodeId) -> SimDuration + '_ {
        move |a, b| SimDuration::from_micros(self.estimate_us(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unobserved_pairs_fall_back_to_the_prior() {
        let map = LatencyMap::new(30_000);
        assert_eq!(map.estimate_us(NodeId(0), NodeId(1)), 30_000);
        assert_eq!(map.estimate_us(NodeId(2), NodeId(2)), 0);
    }

    #[test]
    fn ewma_tracks_and_reverse_pair_substitutes() {
        let mut map = LatencyMap::new(30_000);
        map.observe(NodeId(0), NodeId(1), SimDuration::from_micros(1_000));
        assert_eq!(map.estimate_us(NodeId(0), NodeId(1)), 1_000);
        // Reverse direction borrows the forward estimate.
        assert_eq!(map.estimate_us(NodeId(1), NodeId(0)), 1_000);
        // A shift in observed latency pulls the mean a quarter of the way.
        map.observe(NodeId(0), NodeId(1), SimDuration::from_micros(5_000));
        assert_eq!(map.estimate_us(NodeId(0), NodeId(1)), 2_000);
        assert_eq!(map.samples(), 2);
    }

    #[test]
    fn self_observations_are_ignored() {
        let mut map = LatencyMap::new(10);
        map.observe(NodeId(3), NodeId(3), SimDuration::from_micros(9));
        assert_eq!(map.samples(), 0);
    }
}
