//! Placement policies: where to put shared objects.
//!
//! §4.2.1 "Management": *"The most important issues identified to date are
//! that of the initial placement of objects (node management) and their
//! subsequent re-location (cluster management). ... objects are likely to
//! be shared by a group of users at geographically dispersed sites with
//! each site requiring similar real-time response. ... management
//! functions must be aware of the pattern of use of objects emanating
//! from groups. In more general terms, **group aware policies** are
//! required."*
//!
//! Policies score candidate nodes from a [`UsagePattern`] (per-site
//! access counts) and a latency function. The naive baseline ignores the
//! group; the group-aware policies minimise mean or worst-case weighted
//! latency across the group.

use std::collections::BTreeMap;

use odp_sim::net::NodeId;
use odp_sim::time::SimDuration;

/// Per-site access counts for one object or cluster.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UsagePattern {
    counts: BTreeMap<NodeId, u64>,
}

impl UsagePattern {
    /// Creates an empty pattern.
    pub fn new() -> Self {
        UsagePattern::default()
    }

    /// Records `n` accesses from `site`.
    pub fn record(&mut self, site: NodeId, n: u64) {
        *self.counts.entry(site).or_insert(0) += n;
    }

    /// Accesses from `site`.
    pub fn count(&self, site: NodeId) -> u64 {
        self.counts.get(&site).copied().unwrap_or(0)
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Sites with any accesses, ascending.
    pub fn sites(&self) -> Vec<NodeId> {
        self.counts.keys().copied().collect()
    }

    /// Iterates `(site, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.counts.iter().map(|(&n, &c)| (n, c))
    }

    /// Forgets everything (sliding-window reset).
    pub fn clear(&mut self) {
        self.counts.clear();
    }

    /// Forgets one site's accesses (e.g. an editor leaving the session).
    pub fn forget(&mut self, site: NodeId) {
        self.counts.remove(&site);
    }

    /// Halves every count (exponential aging for shifting workloads).
    ///
    /// Integer halving floors, so a count of 1 decays to 0 and the site
    /// is dropped from the pattern — any finite count reaches zero
    /// within `⌈log2(n)⌉ + 1` agings and a silent workload eventually
    /// yields an empty pattern. The regression tests pin this curve.
    pub fn age(&mut self) {
        for c in self.counts.values_mut() {
            *c /= 2;
        }
        self.counts.retain(|_, c| *c > 0);
    }
}

/// A placement decision: the chosen node and its score (lower is better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Where to put the object/cluster.
    pub node: NodeId,
    /// The policy's cost for that node, in microseconds.
    pub cost_us: f64,
}

/// How candidates are scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Ignore the group: keep the object at its creator's node.
    /// (The naive baseline of E9.)
    StaticHome,
    /// Minimise the access-weighted **mean** latency across the group.
    GroupMean,
    /// Minimise the **worst** per-site latency among sites that access
    /// the object ("each site requiring similar real-time response").
    GroupMinMax,
}

/// Picks a node for an object under `policy`.
///
/// `home` is the creator's node (used by [`PlacementPolicy::StaticHome`]
/// and as the tie-breaker). `latency(a, b)` must return the one-way
/// latency between nodes.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn place(
    policy: PlacementPolicy,
    usage: &UsagePattern,
    candidates: &[NodeId],
    home: NodeId,
    latency: &dyn Fn(NodeId, NodeId) -> SimDuration,
) -> Placement {
    assert!(!candidates.is_empty(), "no candidate nodes");
    match policy {
        PlacementPolicy::StaticHome => Placement {
            node: home,
            cost_us: score_mean(usage, home, latency),
        },
        PlacementPolicy::GroupMean => best_by(candidates, home, |n| score_mean(usage, n, latency)),
        PlacementPolicy::GroupMinMax => best_by(candidates, home, |n| score_max(usage, n, latency)),
    }
}

#[expect(
    clippy::expect_used,
    reason = "`place` asserts candidates is non-empty"
)]
fn best_by(candidates: &[NodeId], home: NodeId, score: impl Fn(NodeId) -> f64) -> Placement {
    let mut best: Option<Placement> = None;
    for &node in candidates {
        let cost_us = score(node);
        let better = match best {
            None => true,
            Some(b) => {
                cost_us < b.cost_us
                    // Deterministic tie-break: prefer home, then lower id.
                    || (cost_us == b.cost_us && (node == home || (b.node != home && node < b.node)))
            }
        };
        if better {
            best = Some(Placement { node, cost_us });
        }
    }
    best.expect("candidates non-empty")
}

fn score_mean(
    usage: &UsagePattern,
    node: NodeId,
    latency: &dyn Fn(NodeId, NodeId) -> SimDuration,
) -> f64 {
    let total = usage.total();
    if total == 0 {
        return 0.0;
    }
    usage
        .iter()
        .map(|(site, count)| latency(site, node).as_micros() as f64 * count as f64)
        .sum::<f64>()
        / total as f64
}

fn score_max(
    usage: &UsagePattern,
    node: NodeId,
    latency: &dyn Fn(NodeId, NodeId) -> SimDuration,
) -> f64 {
    usage
        .iter()
        .filter(|&(_, count)| count > 0)
        .map(|(site, _)| latency(site, node).as_micros() as f64)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three sites in a line: 0 --10ms-- 1 --10ms-- 2 (so 0<->2 is 20ms).
    fn line_latency(a: NodeId, b: NodeId) -> SimDuration {
        let d = (a.0 as i64 - b.0 as i64).unsigned_abs();
        SimDuration::from_millis(10 * d)
    }

    fn nodes() -> Vec<NodeId> {
        vec![NodeId(0), NodeId(1), NodeId(2)]
    }

    #[test]
    fn static_home_never_moves() {
        let mut usage = UsagePattern::new();
        usage.record(NodeId(2), 1_000); // everyone is at site 2
        let p = place(
            PlacementPolicy::StaticHome,
            &usage,
            &nodes(),
            NodeId(0),
            &line_latency,
        );
        assert_eq!(p.node, NodeId(0), "baseline ignores usage");
        assert_eq!(p.cost_us, 20_000.0);
    }

    #[test]
    fn group_mean_follows_the_weight() {
        let mut usage = UsagePattern::new();
        usage.record(NodeId(0), 1);
        usage.record(NodeId(2), 10);
        let p = place(
            PlacementPolicy::GroupMean,
            &usage,
            &nodes(),
            NodeId(0),
            &line_latency,
        );
        assert_eq!(p.node, NodeId(2), "mass of accesses is at 2");
    }

    #[test]
    fn group_minmax_centres_between_extremes() {
        let mut usage = UsagePattern::new();
        usage.record(NodeId(0), 100);
        usage.record(NodeId(2), 1); // tiny, but minmax cares about worst
        let p = place(
            PlacementPolicy::GroupMinMax,
            &usage,
            &nodes(),
            NodeId(0),
            &line_latency,
        );
        assert_eq!(p.node, NodeId(1), "middle bounds the worst case");
        assert_eq!(p.cost_us, 10_000.0);
        // Mean policy would sit at 0 instead.
        let mean = place(
            PlacementPolicy::GroupMean,
            &usage,
            &nodes(),
            NodeId(0),
            &line_latency,
        );
        assert_eq!(mean.node, NodeId(0));
    }

    #[test]
    fn empty_usage_stays_home_under_any_policy() {
        let usage = UsagePattern::new();
        for policy in [
            PlacementPolicy::StaticHome,
            PlacementPolicy::GroupMean,
            PlacementPolicy::GroupMinMax,
        ] {
            let p = place(policy, &usage, &nodes(), NodeId(1), &line_latency);
            assert_eq!(p.node, NodeId(1), "{policy:?}");
        }
    }

    #[test]
    fn usage_aging_halves_counts() {
        let mut usage = UsagePattern::new();
        usage.record(NodeId(0), 5);
        usage.record(NodeId(1), 1);
        usage.age();
        assert_eq!(usage.count(NodeId(0)), 2);
        assert_eq!(usage.count(NodeId(1)), 0);
        assert_eq!(usage.sites(), vec![NodeId(0)]);
    }

    #[test]
    fn usage_decay_curve_reaches_zero() {
        // Pin the whole decay curve: floor-halving takes 100 through
        // 50, 25, 12, 6, 3, 1 and then to 0 — a count of 1 must not
        // stick forever.
        let mut usage = UsagePattern::new();
        usage.record(NodeId(7), 100);
        let mut curve = Vec::new();
        while usage.total() > 0 {
            usage.age();
            curve.push(usage.count(NodeId(7)));
        }
        assert_eq!(curve, vec![50, 25, 12, 6, 3, 1, 0]);
        assert!(usage.sites().is_empty(), "silent site fully forgotten");
    }

    #[test]
    fn usage_forget_drops_one_site_only() {
        let mut usage = UsagePattern::new();
        usage.record(NodeId(0), 3);
        usage.record(NodeId(1), 4);
        usage.forget(NodeId(0));
        assert_eq!(usage.count(NodeId(0)), 0);
        assert_eq!(usage.count(NodeId(1)), 4);
        assert_eq!(usage.sites(), vec![NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "no candidate nodes")]
    fn empty_candidates_panic() {
        let usage = UsagePattern::new();
        place(
            PlacementPolicy::GroupMean,
            &usage,
            &[],
            NodeId(0),
            &line_latency,
        );
    }
}
