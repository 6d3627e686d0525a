//! Hierarchical (nested) transaction groups.
//!
//! Skarra & Zdonik's transaction-group model is explicitly hierarchical:
//! "a transaction group co-ordinates access to shared data for a number
//! of co-operating members" — and a member may itself be a group. This
//! module provides a tree of groups with layered visibility:
//!
//! - a write is immediately visible **inside** its group;
//! - committing a group publishes its working state to the **parent**;
//! - committing the **root** publishes externally;
//! - aborting a group discards its work without touching the parent.
//!
//! Each group carries its own tailorable [`AccessRule`], so a sub-team
//! can run a looser (or stricter) cooperation policy than its parent.

use std::collections::BTreeMap;
use std::fmt;

use odp_sim::time::SimTime;

use crate::locks::ClientId;
use crate::store::{ObjectId, ObjectStore, StoreError};
use crate::txgroup::{AccessRule, GroupError, GroupNotice, TransactionGroup};

/// Names a group in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupNodeId(pub u32);

impl fmt::Display for GroupNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group{}", self.0)
    }
}

/// Errors from the group tree.
#[derive(Debug)]
pub enum TreeError {
    /// Unknown group id.
    UnknownGroup(GroupNodeId),
    /// Reserved: operations that require a parent were applied to the
    /// root (the root commits externally and aborts in place).
    RootHasNoParent,
    /// An inner group operation failed.
    Group(GroupError),
    /// Store failure.
    Store(StoreError),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::UnknownGroup(g) => write!(f, "unknown {g}"),
            TreeError::RootHasNoParent => write!(f, "the root group has no parent"),
            TreeError::Group(e) => write!(f, "group error: {e}"),
            TreeError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for TreeError {}

impl From<GroupError> for TreeError {
    fn from(e: GroupError) -> Self {
        TreeError::Group(e)
    }
}

impl From<StoreError> for TreeError {
    fn from(e: StoreError) -> Self {
        TreeError::Store(e)
    }
}

struct GroupNode {
    parent: Option<GroupNodeId>,
    group: TransactionGroup<Box<dyn AccessRule>>,
}

/// A tree of transaction groups over one external store.
///
/// # Examples
///
/// ```
/// use odp_concurrency::locks::ClientId;
/// use odp_concurrency::nested::GroupTree;
/// use odp_concurrency::store::{ObjectId, ObjectStore};
/// use odp_concurrency::txgroup::CooperativeRule;
/// use odp_sim::time::SimTime;
///
/// let mut store = ObjectStore::new();
/// store.create(ObjectId(1), "v0");
/// let mut tree = GroupTree::new(store, [ClientId(0)], Box::new(CooperativeRule));
/// let sub = tree.create_subgroup(tree.root(), [ClientId(1)], Box::new(CooperativeRule))?;
/// tree.write(sub, ClientId(1), ObjectId(1), "sub draft", SimTime::ZERO)?;
/// // The parent does not see the subgroup's dirty work yet...
/// assert_eq!(tree.read(tree.root(), ClientId(0), ObjectId(1), SimTime::ZERO)?.0, "v0");
/// tree.commit(sub)?;
/// // ...until the subgroup commits upward.
/// assert_eq!(tree.read(tree.root(), ClientId(0), ObjectId(1), SimTime::ZERO)?.0, "sub draft");
/// # Ok::<(), odp_concurrency::nested::TreeError>(())
/// ```
pub struct GroupTree {
    nodes: BTreeMap<GroupNodeId, GroupNode>,
    root: GroupNodeId,
    external: ObjectStore,
    next: u32,
}

impl GroupTree {
    /// Creates a tree whose root group works over `external`.
    pub fn new(
        external: ObjectStore,
        members: impl IntoIterator<Item = ClientId>,
        rule: Box<dyn AccessRule>,
    ) -> Self {
        let root = GroupNodeId(0);
        let group = TransactionGroup::new(external.clone(), members, rule);
        let mut nodes = BTreeMap::new();
        nodes.insert(
            root,
            GroupNode {
                parent: None,
                group,
            },
        );
        GroupTree {
            nodes,
            root,
            external,
            next: 1,
        }
    }

    /// The root group's id.
    pub fn root(&self) -> GroupNodeId {
        self.root
    }

    /// Creates a subgroup under `parent`, seeded with the parent's
    /// current working state (so the sub-team starts from the team's
    /// in-progress work, not the external state).
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownGroup`] if the parent is absent.
    pub fn create_subgroup(
        &mut self,
        parent: GroupNodeId,
        members: impl IntoIterator<Item = ClientId>,
        rule: Box<dyn AccessRule>,
    ) -> Result<GroupNodeId, TreeError> {
        let parent_node = self
            .nodes
            .get(&parent)
            .ok_or(TreeError::UnknownGroup(parent))?;
        let seed = parent_node.group.working_snapshot();
        let id = GroupNodeId(self.next);
        self.next += 1;
        self.nodes.insert(
            id,
            GroupNode {
                parent: Some(parent),
                group: TransactionGroup::new(seed, members, rule),
            },
        );
        Ok(id)
    }

    fn node_mut(&mut self, id: GroupNodeId) -> Result<&mut GroupNode, TreeError> {
        self.nodes.get_mut(&id).ok_or(TreeError::UnknownGroup(id))
    }

    /// Reads inside a group (dirty within the group, per its rule),
    /// returning the value with the group's access notices.
    ///
    /// # Errors
    ///
    /// Propagates rule denials and unknown groups/objects.
    pub fn read(
        &mut self,
        group: GroupNodeId,
        member: ClientId,
        object: ObjectId,
        at: SimTime,
    ) -> Result<(String, Vec<GroupNotice>), TreeError> {
        Ok(self.node_mut(group)?.group.read(member, object, at)?)
    }

    /// Writes inside a group, returning the new version with the
    /// group's access notices.
    ///
    /// # Errors
    ///
    /// Propagates rule denials and unknown groups/objects.
    pub fn write(
        &mut self,
        group: GroupNodeId,
        member: ClientId,
        object: ObjectId,
        value: impl Into<String>,
        at: SimTime,
    ) -> Result<(u64, Vec<GroupNotice>), TreeError> {
        Ok(self
            .node_mut(group)?
            .group
            .write(member, object, value, at)?)
    }

    /// Commits a group: a subgroup publishes its working state into its
    /// parent's working state; the root publishes externally.
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownGroup`] if absent.
    pub fn commit(&mut self, group: GroupNodeId) -> Result<(), TreeError> {
        let parent = self
            .nodes
            .get(&group)
            .ok_or(TreeError::UnknownGroup(group))?
            .parent;
        let snapshot = {
            let node = self.node_mut(group)?;
            node.group.commit_group();
            node.group.working_snapshot()
        };
        match parent {
            Some(p) => {
                let parent_node = self.node_mut(p)?;
                parent_node.group.adopt_working(snapshot);
            }
            None => {
                self.external = snapshot;
            }
        }
        Ok(())
    }

    /// Aborts a group, discarding its work (the parent is untouched).
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownGroup`] if absent.
    pub fn abort(&mut self, group: GroupNodeId) -> Result<(), TreeError> {
        self.node_mut(group)?.group.abort_group();
        Ok(())
    }

    /// The externally visible value of an object.
    ///
    /// # Errors
    ///
    /// [`TreeError::Store`] for unknown objects.
    pub fn external_read(&self, object: ObjectId) -> Result<&str, TreeError> {
        Ok(&self.external.read(object)?.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txgroup::{CooperativeRule, ExclusiveWriterRule};
    use odp_awareness::bus::EventBus;
    use odp_sim::net::NodeId;

    const NOW: SimTime = SimTime::ZERO;
    const DOC: ObjectId = ObjectId(1);

    fn tree() -> GroupTree {
        let mut store = ObjectStore::new();
        store.create(DOC, "v0");
        GroupTree::new(store, [ClientId(0), ClientId(1)], Box::new(CooperativeRule))
    }

    #[test]
    fn subgroup_work_is_invisible_until_commit() {
        let mut t = tree();
        let sub = t
            .create_subgroup(t.root(), [ClientId(2)], Box::new(CooperativeRule))
            .unwrap();
        t.write(sub, ClientId(2), DOC, "sub work", NOW).unwrap();
        assert_eq!(t.read(t.root(), ClientId(0), DOC, NOW).unwrap().0, "v0");
        assert_eq!(t.external_read(DOC).unwrap(), "v0");
        t.commit(sub).unwrap();
        assert_eq!(
            t.read(t.root(), ClientId(0), DOC, NOW).unwrap().0,
            "sub work"
        );
        assert_eq!(
            t.external_read(DOC).unwrap(),
            "v0",
            "still internal to the root"
        );
        let root = t.root();
        t.commit(root).unwrap();
        assert_eq!(t.external_read(DOC).unwrap(), "sub work");
    }

    #[test]
    fn subgroups_start_from_the_parents_working_state() {
        let mut t = tree();
        t.write(t.root(), ClientId(0), DOC, "team draft", NOW)
            .unwrap();
        let sub = t
            .create_subgroup(t.root(), [ClientId(2)], Box::new(CooperativeRule))
            .unwrap();
        assert_eq!(
            t.read(sub, ClientId(2), DOC, NOW).unwrap().0,
            "team draft",
            "the sub-team sees the in-progress work"
        );
    }

    #[test]
    fn aborting_a_subgroup_leaves_the_parent_untouched() {
        let mut t = tree();
        t.write(t.root(), ClientId(0), DOC, "keep me", NOW).unwrap();
        let sub = t
            .create_subgroup(t.root(), [ClientId(2)], Box::new(CooperativeRule))
            .unwrap();
        t.write(sub, ClientId(2), DOC, "scrap me", NOW).unwrap();
        t.abort(sub).unwrap();
        assert_eq!(
            t.read(t.root(), ClientId(0), DOC, NOW).unwrap().0,
            "keep me"
        );
        // The aborted subgroup rolled back to its seed.
        assert_eq!(t.read(sub, ClientId(2), DOC, NOW).unwrap().0, "keep me");
    }

    #[test]
    fn subgroups_may_run_different_rules() {
        let mut t = tree();
        let strict = t
            .create_subgroup(
                t.root(),
                [ClientId(2), ClientId(3)],
                Box::new(ExclusiveWriterRule),
            )
            .unwrap();
        t.write(strict, ClientId(2), DOC, "claimed", NOW).unwrap();
        // The strict subgroup's rule denies a second writer...
        assert!(matches!(
            t.write(strict, ClientId(3), DOC, "denied", NOW),
            Err(TreeError::Group(GroupError::Denied { .. }))
        ));
        // ...while the cooperative root lets both members write.
        t.write(t.root(), ClientId(0), DOC, "a", NOW).unwrap();
        t.write(t.root(), ClientId(1), DOC, "b", NOW).unwrap();
    }

    #[test]
    fn unknown_groups_error() {
        let mut t = tree();
        let ghost = GroupNodeId(99);
        assert!(matches!(t.commit(ghost), Err(TreeError::UnknownGroup(_))));
        assert!(matches!(t.abort(ghost), Err(TreeError::UnknownGroup(_))));
        assert!(matches!(
            t.read(ghost, ClientId(0), DOC, NOW),
            Err(TreeError::UnknownGroup(_))
        ));
        assert!(matches!(
            t.create_subgroup(ghost, [ClientId(5)], Box::new(CooperativeRule)),
            Err(TreeError::UnknownGroup(_))
        ));
    }

    #[test]
    fn via_accesses_inside_a_subgroup_publish_on_the_bus() {
        let mut bus = EventBus::new();
        bus.register(NodeId(0), 0.0);
        bus.register(NodeId(2), 0.0);
        let mut t = tree();
        let sub = t
            .create_subgroup(
                t.root(),
                [ClientId(0), ClientId(2)],
                Box::new(CooperativeRule),
            )
            .unwrap();
        t.write(sub, ClientId(2), DOC, "sub work", NOW).unwrap();
        let (value, notices) = t.read(sub, ClientId(0), DOC, NOW).unwrap();
        assert_eq!(value, "sub work");
        let seen = bus.publish_all(&notices);
        // The cooperative rule notifies the other member of the access.
        assert!(seen.iter().any(|d| d.observer == NodeId(2)));
        assert!(seen.iter().all(|d| d.event.kind.label() == "group.access"));
    }
}
