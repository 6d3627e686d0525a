//! Group membership: named groups, views, and view changes.
//!
//! The paper (§4.2.2 iv) calls for group support in the computational
//! viewpoint. We model a group as a sequence of *views* — numbered
//! snapshots of the membership — in the style of view-synchronous systems:
//! every join or leave produces a new view, and protocol engines are
//! (re-)configured by installing views.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use odp_sim::net::NodeId;

/// Names a process group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Numbers successive views of one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewId(pub u64);

/// One snapshot of a group's membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// The group this view belongs to.
    pub group: GroupId,
    /// Monotonically increasing view number.
    pub id: ViewId,
    /// The members, in ascending node order.
    pub members: BTreeSet<NodeId>,
}

impl View {
    /// Creates the initial view (id 0) of a group.
    pub fn initial(group: GroupId, members: impl IntoIterator<Item = NodeId>) -> Self {
        View {
            group,
            id: ViewId(0),
            members: members.into_iter().collect(),
        }
    }

    /// True if `node` is a member of this view.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Members other than `me`, in ascending order.
    pub fn peers(&self, me: NodeId) -> Vec<NodeId> {
        self.members.iter().copied().filter(|&n| n != me).collect()
    }

    /// The lowest-numbered member; used as the default sequencer / RPC
    /// coordinator. `None` for an empty view.
    pub fn leader(&self) -> Option<NodeId> {
        self.members.iter().next().copied()
    }
}

/// Errors from membership operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipError {
    /// The group does not exist.
    UnknownGroup(GroupId),
    /// The node is already a member.
    AlreadyMember(NodeId),
    /// The node is not a member.
    NotMember(NodeId),
}

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MembershipError::UnknownGroup(g) => write!(f, "unknown group {g}"),
            MembershipError::AlreadyMember(n) => write!(f, "{n} is already a member"),
            MembershipError::NotMember(n) => write!(f, "{n} is not a member"),
        }
    }
}

impl std::error::Error for MembershipError {}

/// A registry of groups and their current views.
///
/// # Examples
///
/// ```
/// use odp_groupcomm::membership::{GroupId, Membership};
/// use odp_sim::net::NodeId;
///
/// let mut m = Membership::new();
/// let g = m.create(GroupId(1), [NodeId(0), NodeId(1)]);
/// assert_eq!(g.size(), 2);
/// let v = m.join(GroupId(1), NodeId(2))?;
/// assert_eq!(v.id.0, 1);
/// assert!(v.contains(NodeId(2)));
/// # Ok::<(), odp_groupcomm::membership::MembershipError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Membership {
    groups: BTreeMap<GroupId, View>,
}

impl Membership {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Membership::default()
    }

    /// Creates (or replaces) a group with an initial membership and
    /// returns its initial view.
    pub fn create(&mut self, group: GroupId, members: impl IntoIterator<Item = NodeId>) -> View {
        let view = View::initial(group, members);
        self.groups.insert(group, view.clone());
        view
    }

    /// The current view of `group`.
    ///
    /// # Errors
    ///
    /// Returns [`MembershipError::UnknownGroup`] if the group was never
    /// created.
    pub fn view(&self, group: GroupId) -> Result<&View, MembershipError> {
        self.groups
            .get(&group)
            .ok_or(MembershipError::UnknownGroup(group))
    }

    /// Adds `node`, producing and returning the next view.
    ///
    /// # Errors
    ///
    /// Returns an error if the group is unknown or the node is already a
    /// member.
    pub fn join(&mut self, group: GroupId, node: NodeId) -> Result<View, MembershipError> {
        let view = self
            .groups
            .get_mut(&group)
            .ok_or(MembershipError::UnknownGroup(group))?;
        if !view.members.insert(node) {
            return Err(MembershipError::AlreadyMember(node));
        }
        view.id = ViewId(view.id.0 + 1);
        Ok(view.clone())
    }

    /// Removes `node`, producing and returning the next view.
    ///
    /// # Errors
    ///
    /// Returns an error if the group is unknown or the node is not a
    /// member.
    pub fn leave(&mut self, group: GroupId, node: NodeId) -> Result<View, MembershipError> {
        let view = self
            .groups
            .get_mut(&group)
            .ok_or(MembershipError::UnknownGroup(group))?;
        if !view.members.remove(&node) {
            return Err(MembershipError::NotMember(node));
        }
        view.id = ViewId(view.id.0 + 1);
        Ok(view.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn create_and_query() {
        let mut m = Membership::new();
        m.create(GroupId(1), nodes(&[3, 1, 2]));
        let v = m.view(GroupId(1)).unwrap();
        assert_eq!(v.id, ViewId(0));
        assert_eq!(v.size(), 3);
        assert_eq!(v.leader(), Some(NodeId(1)));
        assert_eq!(v.peers(NodeId(2)), nodes(&[1, 3]));
    }

    #[test]
    fn join_and_leave_advance_the_view() {
        let mut m = Membership::new();
        m.create(GroupId(1), nodes(&[0]));
        let v1 = m.join(GroupId(1), NodeId(1)).unwrap();
        assert_eq!(v1.id, ViewId(1));
        let v2 = m.leave(GroupId(1), NodeId(0)).unwrap();
        assert_eq!(v2.id, ViewId(2));
        assert_eq!(v2.leader(), Some(NodeId(1)));
    }

    #[test]
    fn join_twice_is_an_error() {
        let mut m = Membership::new();
        m.create(GroupId(1), nodes(&[0]));
        assert_eq!(
            m.join(GroupId(1), NodeId(0)),
            Err(MembershipError::AlreadyMember(NodeId(0)))
        );
    }

    #[test]
    fn leave_nonmember_is_an_error() {
        let mut m = Membership::new();
        m.create(GroupId(1), nodes(&[0]));
        assert_eq!(
            m.leave(GroupId(1), NodeId(5)),
            Err(MembershipError::NotMember(NodeId(5)))
        );
    }

    #[test]
    fn unknown_group_is_an_error() {
        let m = Membership::new();
        assert_eq!(
            m.view(GroupId(9)).unwrap_err(),
            MembershipError::UnknownGroup(GroupId(9))
        );
    }

    #[test]
    fn empty_view_has_no_leader() {
        let v = View::initial(GroupId(0), []);
        assert_eq!(v.leader(), None);
        assert_eq!(v.size(), 0);
    }
}
