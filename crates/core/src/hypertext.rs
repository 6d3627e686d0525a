//! Multi-user hypertext (§3.2.3): "the hypertext document (or network) is
//! constructed by a number of users adding nodes to the network in an
//! independent manner. Facilities must then be provided to deal
//! explicitly with the conflicts inherent in this process" — plus Sepia's
//! extension of typed nodes representing the cooperative work plan.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

/// Names a hypertext node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HyperNodeId(pub u64);

/// The node types (Sepia-style work-plan vocabulary plus plain content).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeType {
    /// Ordinary content.
    Content,
    /// An issue to resolve (work plan).
    Issue,
    /// A position on an issue.
    Position,
    /// An argument for/against a position.
    Argument,
}

/// Typed, directed links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkType {
    /// Generic reference.
    Reference,
    /// `Position` responds-to `Issue`.
    RespondsTo,
    /// `Argument` supports `Position`.
    Supports,
    /// `Argument` objects-to `Position`.
    ObjectsTo,
}

/// One hypertext node.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperNode {
    /// Its id.
    pub id: HyperNodeId,
    /// Its type.
    pub node_type: NodeType,
    /// Who created it.
    pub author: NodeId,
    /// Content text.
    pub content: String,
    /// Version counter for conflict detection.
    pub version: u64,
    /// When created.
    pub created: SimTime,
}

/// Errors from hypertext operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HypertextError {
    /// Unknown node.
    UnknownNode(HyperNodeId),
    /// A stale edit: the editor based its change on an old version.
    VersionConflict {
        /// The node.
        node: HyperNodeId,
        /// The editor's base version.
        base: u64,
        /// The node's current version.
        current: u64,
    },
    /// A typed link violating the vocabulary (e.g. Supports onto Issue).
    IllTypedLink {
        /// The link type.
        link: LinkType,
        /// Source node type.
        from: NodeType,
        /// Target node type.
        to: NodeType,
    },
}

impl fmt::Display for HypertextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HypertextError::UnknownNode(n) => write!(f, "unknown node {}", n.0),
            HypertextError::VersionConflict {
                node,
                base,
                current,
            } => {
                write!(
                    f,
                    "edit of node {} based on v{base} but current is v{current}",
                    node.0
                )
            }
            HypertextError::IllTypedLink { link, from, to } => {
                write!(f, "{link:?} link not allowed from {from:?} to {to:?}")
            }
        }
    }
}

impl std::error::Error for HypertextError {}

/// The shared hypertext network.
///
/// # Examples
///
/// ```
/// use cscw_core::hypertext::{HypertextNetwork, LinkType, NodeType};
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut net = HypertextNetwork::new();
/// let issue = net.add_node(NodeId(0), NodeType::Issue, "Which protocol?", SimTime::ZERO);
/// let pos = net.add_node(NodeId(1), NodeType::Position, "Use multicast", SimTime::ZERO);
/// net.add_link(pos, issue, LinkType::RespondsTo)?;
/// assert_eq!(net.links_from(pos).len(), 1);
/// # Ok::<(), cscw_core::hypertext::HypertextError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct HypertextNetwork {
    nodes: BTreeMap<HyperNodeId, HyperNode>,
    links: BTreeSet<(HyperNodeId, HyperNodeId, LinkType)>,
    next: u64,
    conflicts: u64,
}

impl HypertextNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        HypertextNetwork::default()
    }

    /// Adds a node; concurrent independent additions never conflict
    /// (each gets a fresh id).
    // odp-check: allow(dead-pub) — PAPER.md requirement 2: multi-user hypertext, authored concurrently.
    pub fn add_node(
        &mut self,
        author: NodeId,
        node_type: NodeType,
        content: impl Into<String>,
        at: SimTime,
    ) -> HyperNodeId {
        let id = HyperNodeId(self.next);
        self.next += 1;
        self.nodes.insert(
            id,
            HyperNode {
                id,
                node_type,
                author,
                content: content.into(),
                version: 0,
                created: at,
            },
        );
        id
    }

    /// Edits a node's content, optimistic-concurrency style: the caller
    /// states the version its edit was based on.
    ///
    /// # Errors
    ///
    /// [`HypertextError::VersionConflict`] when the base is stale — the
    /// explicit conflict handling the paper calls for.
    // odp-check: allow(dead-pub) — PAPER.md requirement 2: multi-user hypertext, whose edits detect conflicts.
    pub fn edit_node(
        &mut self,
        id: HyperNodeId,
        base_version: u64,
        content: impl Into<String>,
    ) -> Result<u64, HypertextError> {
        let node = self
            .nodes
            .get_mut(&id)
            .ok_or(HypertextError::UnknownNode(id))?;
        if node.version != base_version {
            self.conflicts += 1;
            return Err(HypertextError::VersionConflict {
                node: id,
                base: base_version,
                current: node.version,
            });
        }
        node.content = content.into();
        node.version += 1;
        Ok(node.version)
    }

    /// Adds a typed link, enforcing the work-plan vocabulary.
    ///
    /// # Errors
    ///
    /// Unknown endpoints or ill-typed links fail.
    // odp-check: allow(dead-pub) — PAPER.md requirement 2: multi-user hypertext, authored concurrently.
    pub fn add_link(
        &mut self,
        from: HyperNodeId,
        to: HyperNodeId,
        link: LinkType,
    ) -> Result<(), HypertextError> {
        let from_type = self.node(from)?.node_type;
        let to_type = self.node(to)?.node_type;
        let ok = match link {
            LinkType::Reference => true,
            LinkType::RespondsTo => from_type == NodeType::Position && to_type == NodeType::Issue,
            LinkType::Supports | LinkType::ObjectsTo => {
                from_type == NodeType::Argument && to_type == NodeType::Position
            }
        };
        if !ok {
            return Err(HypertextError::IllTypedLink {
                link,
                from: from_type,
                to: to_type,
            });
        }
        self.links.insert((from, to, link));
        Ok(())
    }

    /// Looks up a node.
    ///
    /// # Errors
    ///
    /// [`HypertextError::UnknownNode`] if absent.
    pub fn node(&self, id: HyperNodeId) -> Result<&HyperNode, HypertextError> {
        self.nodes.get(&id).ok_or(HypertextError::UnknownNode(id))
    }

    /// Outgoing links of a node.
    // odp-check: allow(dead-pub) — PAPER.md requirement 2: navigating the shared hypertext.
    pub fn links_from(&self, id: HyperNodeId) -> Vec<(HyperNodeId, LinkType)> {
        self.links
            .iter()
            .filter(|(f, _, _)| *f == id)
            .map(|&(_, t, l)| (t, l))
            .collect()
    }

    /// Incoming links of a node.
    // odp-check: allow(dead-pub) — PAPER.md requirement 2: navigating the shared hypertext.
    pub fn links_to(&self, id: HyperNodeId) -> Vec<(HyperNodeId, LinkType)> {
        self.links
            .iter()
            .filter(|(_, t, _)| *t == id)
            .map(|&(f, _, l)| (f, l))
            .collect()
    }

    /// Version conflicts detected so far.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOW: SimTime = SimTime::ZERO;

    #[test]
    fn independent_additions_never_conflict() {
        let mut net = HypertextNetwork::new();
        let a = net.add_node(NodeId(0), NodeType::Content, "A", NOW);
        let b = net.add_node(NodeId(1), NodeType::Content, "B", NOW);
        assert_ne!(a, b);
        assert_eq!(net.len(), 2);
        assert_eq!(net.conflicts(), 0);
    }

    #[test]
    fn stale_edit_is_a_version_conflict() {
        let mut net = HypertextNetwork::new();
        let n = net.add_node(NodeId(0), NodeType::Content, "v0", NOW);
        // Two users read v0; the first edit wins.
        assert_eq!(net.edit_node(n, 0, "from user 1").unwrap(), 1);
        let err = net.edit_node(n, 0, "from user 2").unwrap_err();
        assert_eq!(
            err,
            HypertextError::VersionConflict {
                node: n,
                base: 0,
                current: 1
            }
        );
        assert_eq!(net.conflicts(), 1);
        // User 2 re-reads and retries.
        assert_eq!(net.edit_node(n, 1, "merged").unwrap(), 2);
    }

    #[test]
    fn typed_links_enforce_the_work_plan_vocabulary() {
        let mut net = HypertextNetwork::new();
        let issue = net.add_node(NodeId(0), NodeType::Issue, "?", NOW);
        let pos = net.add_node(NodeId(1), NodeType::Position, "!", NOW);
        let arg = net.add_node(NodeId(2), NodeType::Argument, "because", NOW);
        net.add_link(pos, issue, LinkType::RespondsTo).unwrap();
        net.add_link(arg, pos, LinkType::Supports).unwrap();
        assert!(matches!(
            net.add_link(arg, issue, LinkType::Supports),
            Err(HypertextError::IllTypedLink { .. })
        ));
        assert!(matches!(
            net.add_link(issue, pos, LinkType::RespondsTo),
            Err(HypertextError::IllTypedLink { .. })
        ));
        // References connect anything.
        net.add_link(issue, arg, LinkType::Reference).unwrap();
    }

    #[test]
    fn link_queries() {
        let mut net = HypertextNetwork::new();
        let a = net.add_node(NodeId(0), NodeType::Content, "a", NOW);
        let b = net.add_node(NodeId(0), NodeType::Content, "b", NOW);
        net.add_link(a, b, LinkType::Reference).unwrap();
        assert_eq!(net.links_from(a), vec![(b, LinkType::Reference)]);
        assert_eq!(net.links_to(b), vec![(a, LinkType::Reference)]);
        assert!(net.links_from(b).is_empty());
    }

    #[test]
    fn unknown_nodes_error() {
        let mut net = HypertextNetwork::new();
        let ghost = HyperNodeId(99);
        assert!(net.node(ghost).is_err());
        assert!(net.edit_node(ghost, 0, "x").is_err());
        let a = net.add_node(NodeId(0), NodeType::Content, "a", NOW);
        assert!(net.add_link(a, ghost, LinkType::Reference).is_err());
    }
}
