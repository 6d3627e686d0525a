//! Vector clocks for causal ordering of group messages.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use odp_sim::net::NodeId;

/// The causal relationship between two vector clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Causality {
    /// The clocks are identical.
    Equal,
    /// Left happened strictly before right.
    Before,
    /// Left happened strictly after right.
    After,
    /// Neither dominates: the events are concurrent.
    Concurrent,
}

/// A vector clock: per-node event counters with pointwise ordering.
///
/// # Examples
///
/// ```
/// use odp_groupcomm::vclock::{Causality, VectorClock};
/// use odp_sim::net::NodeId;
///
/// let mut a = VectorClock::new();
/// a.tick(NodeId(0));
/// let mut b = a.clone();
/// b.tick(NodeId(1));
/// assert_eq!(a.compare(&b), Causality::Before);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VectorClock {
    entries: BTreeMap<NodeId, u64>,
}

impl VectorClock {
    /// Creates an empty clock (all entries implicitly zero).
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// Reads the counter for `node` (zero if absent).
    pub fn get(&self, node: NodeId) -> u64 {
        self.entries.get(&node).copied().unwrap_or(0)
    }

    /// Increments the counter for `node` and returns the new value.
    pub fn tick(&mut self, node: NodeId) -> u64 {
        let e = self.entries.entry(node).or_insert(0);
        *e += 1;
        *e
    }

    /// Pointwise maximum with `other` (the merge on message receipt).
    pub fn merge(&mut self, other: &VectorClock) {
        for (&node, &count) in &other.entries {
            let e = self.entries.entry(node).or_insert(0);
            *e = (*e).max(count);
        }
    }

    /// Compares two clocks under the pointwise partial order.
    pub fn compare(&self, other: &VectorClock) -> Causality {
        let mut less = false;
        let mut greater = false;
        let nodes: std::collections::BTreeSet<NodeId> = self
            .entries
            .keys()
            .chain(other.entries.keys())
            .copied()
            .collect();
        for node in nodes {
            match self.get(node).cmp(&other.get(node)) {
                Ordering::Less => less = true,
                Ordering::Greater => greater = true,
                Ordering::Equal => {}
            }
        }
        match (less, greater) {
            (false, false) => Causality::Equal,
            (true, false) => Causality::Before,
            (false, true) => Causality::After,
            (true, true) => Causality::Concurrent,
        }
    }

    /// True if `self` happened before or equals `other`.
    pub fn dominated_by(&self, other: &VectorClock) -> bool {
        matches!(self.compare(other), Causality::Before | Causality::Equal)
    }

    /// The causal-delivery condition: a message stamped `msg` from `sender`
    /// is deliverable at a process whose clock is `self` iff it is the next
    /// event from `sender` (`msg[sender] == self[sender] + 1`) and the
    /// sender had seen nothing the receiver has not
    /// (`msg[k] <= self[k]` for all `k != sender`).
    pub fn deliverable(&self, msg: &VectorClock, sender: NodeId) -> bool {
        if msg.get(sender) != self.get(sender) + 1 {
            return false;
        }
        msg.entries
            .iter()
            .all(|(&node, &count)| node == sender || count <= self.get(node))
    }

    /// Iterates `(node, count)` pairs in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.entries.iter().map(|(&n, &c)| (n, c))
    }

    /// Rebuilds a clock from explicit `(node, count)` entries (wire
    /// decoding); zero counts are dropped so the representation stays
    /// canonical.
    pub fn from_entries(entries: impl IntoIterator<Item = (NodeId, u64)>) -> Self {
        VectorClock {
            entries: entries.into_iter().filter(|&(_, c)| c != 0).collect(),
        }
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if every entry is zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (node, count)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{node}:{count}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_clocks_are_equal() {
        assert_eq!(
            VectorClock::new().compare(&VectorClock::new()),
            Causality::Equal
        );
    }

    #[test]
    fn tick_orders_events() {
        let mut a = VectorClock::new();
        a.tick(NodeId(0));
        let mut b = a.clone();
        b.tick(NodeId(0));
        assert_eq!(a.compare(&b), Causality::Before);
        assert_eq!(b.compare(&a), Causality::After);
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
    }

    #[test]
    fn concurrent_events_detected() {
        let mut a = VectorClock::new();
        a.tick(NodeId(0));
        let mut b = VectorClock::new();
        b.tick(NodeId(1));
        assert_eq!(a.compare(&b), Causality::Concurrent);
    }

    #[test]
    fn merge_is_pointwise_max() {
        let mut a = VectorClock::new();
        a.tick(NodeId(0));
        a.tick(NodeId(0));
        let mut b = VectorClock::new();
        b.tick(NodeId(1));
        a.merge(&b);
        assert_eq!(a.get(NodeId(0)), 2);
        assert_eq!(a.get(NodeId(1)), 1);
        assert!(b.dominated_by(&a));
    }

    #[test]
    fn delivery_condition_requires_next_from_sender() {
        // Receiver has seen 1 event from node 0.
        let mut local = VectorClock::new();
        local.tick(NodeId(0));
        // Message stamped as node 0's second event.
        let mut msg = local.clone();
        msg.tick(NodeId(0));
        assert!(local.deliverable(&msg, NodeId(0)));
        // A gap (third event) is not deliverable yet.
        let mut gap = msg.clone();
        gap.tick(NodeId(0));
        assert!(!local.deliverable(&gap, NodeId(0)));
    }

    #[test]
    fn delivery_condition_requires_causal_context() {
        // Node 1 sends a message after having seen node 0's event, but the
        // receiver has not seen node 0's event yet.
        let mut sender = VectorClock::new();
        sender.tick(NodeId(0)); // saw node 0's event
        sender.tick(NodeId(1)); // its own send
        let local = VectorClock::new();
        assert!(!local.deliverable(&sender, NodeId(1)));
        // After seeing node 0's event it becomes deliverable.
        let mut local2 = VectorClock::new();
        local2.tick(NodeId(0));
        assert!(local2.deliverable(&sender, NodeId(1)));
    }

    #[test]
    fn display_is_compact() {
        let mut a = VectorClock::new();
        a.tick(NodeId(2));
        a.tick(NodeId(0));
        assert_eq!(a.to_string(), "[n0:1,n2:1]");
    }
}
