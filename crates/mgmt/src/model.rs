//! The ODP engineering structure the paper names (§4.2.1 "Management"):
//! nodes host capsules, capsules hold clusters, clusters group objects
//! that are placed and migrated as a unit.

use std::collections::BTreeMap;
use std::fmt;

use odp_sim::net::NodeId;

/// Names a capsule (an address space on a node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CapsuleId(pub u32);

/// Names a cluster (the unit of placement and migration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

odp_net::wire_newtype!(ClusterId);

/// Names a managed object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ManagedObjectId(pub u64);

impl fmt::Display for ManagedObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mo{}", self.0)
    }
}

/// Errors from the engineering registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MgmtError {
    /// Unknown capsule.
    UnknownCapsule(CapsuleId),
    /// Unknown cluster.
    UnknownCluster(ClusterId),
    /// Unknown object.
    UnknownObject(ManagedObjectId),
    /// The target node hosts no capsule.
    NoCapsuleOnNode(NodeId),
}

impl fmt::Display for MgmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MgmtError::UnknownCapsule(c) => write!(f, "unknown capsule {}", c.0),
            MgmtError::UnknownCluster(c) => write!(f, "unknown cluster {}", c.0),
            MgmtError::UnknownObject(o) => write!(f, "unknown object {o}"),
            MgmtError::NoCapsuleOnNode(n) => write!(f, "no capsule on node {n}"),
        }
    }
}

impl std::error::Error for MgmtError {}

/// The engineering-viewpoint registry: where everything lives.
///
/// # Examples
///
/// ```
/// use odp_mgmt::model::{EngRegistry, ManagedObjectId};
/// use odp_sim::net::NodeId;
///
/// let mut reg = EngRegistry::new();
/// let capsule = reg.create_capsule(NodeId(0));
/// let cluster = reg.create_cluster(capsule)?;
/// reg.create_object(ManagedObjectId(1), cluster, 4_096)?;
/// assert_eq!(reg.node_of(ManagedObjectId(1))?, NodeId(0));
/// # Ok::<(), odp_mgmt::model::MgmtError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngRegistry {
    capsules: BTreeMap<CapsuleId, NodeId>,
    clusters: BTreeMap<ClusterId, CapsuleId>,
    objects: BTreeMap<ManagedObjectId, (ClusterId, usize)>,
    next_capsule: u32,
    next_cluster: u32,
}

impl EngRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        EngRegistry::default()
    }

    /// Creates a capsule on `node`.
    pub fn create_capsule(&mut self, node: NodeId) -> CapsuleId {
        let id = CapsuleId(self.next_capsule);
        self.next_capsule += 1;
        self.capsules.insert(id, node);
        id
    }

    /// Creates a cluster inside `capsule`.
    ///
    /// # Errors
    ///
    /// [`MgmtError::UnknownCapsule`] if the capsule does not exist.
    pub fn create_cluster(&mut self, capsule: CapsuleId) -> Result<ClusterId, MgmtError> {
        if !self.capsules.contains_key(&capsule) {
            return Err(MgmtError::UnknownCapsule(capsule));
        }
        let id = ClusterId(self.next_cluster);
        self.next_cluster += 1;
        self.clusters.insert(id, capsule);
        Ok(id)
    }

    /// Registers an object of `size_bytes` in `cluster`.
    ///
    /// # Errors
    ///
    /// [`MgmtError::UnknownCluster`] if the cluster does not exist.
    pub fn create_object(
        &mut self,
        id: ManagedObjectId,
        cluster: ClusterId,
        size_bytes: usize,
    ) -> Result<(), MgmtError> {
        if !self.clusters.contains_key(&cluster) {
            return Err(MgmtError::UnknownCluster(cluster));
        }
        self.objects.insert(id, (cluster, size_bytes));
        Ok(())
    }

    /// The node an object currently lives on.
    ///
    /// # Errors
    ///
    /// Fails if the object (or its chain) is unknown.
    pub fn node_of(&self, id: ManagedObjectId) -> Result<NodeId, MgmtError> {
        let (cluster, _) = self.objects.get(&id).ok_or(MgmtError::UnknownObject(id))?;
        let capsule = self
            .clusters
            .get(cluster)
            .ok_or(MgmtError::UnknownCluster(*cluster))?;
        self.capsules
            .get(capsule)
            .copied()
            .ok_or(MgmtError::UnknownCapsule(*capsule))
    }

    /// Total bytes in a cluster (migration payload).
    pub(crate) fn cluster_bytes(&self, cluster: ClusterId) -> usize {
        self.objects
            .values()
            .filter(|(c, _)| *c == cluster)
            .map(|(_, b)| b)
            .sum()
    }

    /// Objects in a cluster.
    pub(crate) fn cluster_objects(&self, cluster: ClusterId) -> Vec<ManagedObjectId> {
        self.objects
            .iter()
            .filter(|(_, (c, _))| *c == cluster)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Moves a cluster to (the first capsule on) `node`.
    ///
    /// # Errors
    ///
    /// Fails for unknown clusters or nodes without capsules.
    pub(crate) fn migrate_cluster(
        &mut self,
        cluster: ClusterId,
        node: NodeId,
    ) -> Result<(), MgmtError> {
        if !self.clusters.contains_key(&cluster) {
            return Err(MgmtError::UnknownCluster(cluster));
        }
        let capsule = self
            .capsules
            .iter()
            .find(|(_, &n)| n == node)
            .map(|(&c, _)| c)
            .ok_or(MgmtError::NoCapsuleOnNode(node))?;
        self.clusters.insert(cluster, capsule);
        Ok(())
    }

    /// All nodes with capsules (candidate placement targets), ascending.
    pub fn candidate_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.capsules.values().copied().collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_chain_and_resolve() {
        let mut reg = EngRegistry::new();
        let cap = reg.create_capsule(NodeId(3));
        let clu = reg.create_cluster(cap).unwrap();
        reg.create_object(ManagedObjectId(1), clu, 100).unwrap();
        assert_eq!(reg.node_of(ManagedObjectId(1)).unwrap(), NodeId(3));
        assert_eq!(reg.objects[&ManagedObjectId(1)].0, clu);
    }

    #[test]
    fn unknown_links_error() {
        let mut reg = EngRegistry::new();
        assert!(reg.create_cluster(CapsuleId(9)).is_err());
        let cap = reg.create_capsule(NodeId(0));
        let _ = cap;
        assert!(reg
            .create_object(ManagedObjectId(1), ClusterId(9), 1)
            .is_err());
        assert!(reg.node_of(ManagedObjectId(1)).is_err());
    }

    #[test]
    fn cluster_accounting() {
        let mut reg = EngRegistry::new();
        let cap = reg.create_capsule(NodeId(0));
        let clu = reg.create_cluster(cap).unwrap();
        reg.create_object(ManagedObjectId(1), clu, 100).unwrap();
        reg.create_object(ManagedObjectId(2), clu, 250).unwrap();
        assert_eq!(reg.cluster_bytes(clu), 350);
        assert_eq!(reg.cluster_objects(clu).len(), 2);
    }

    #[test]
    fn migration_moves_the_whole_cluster() {
        let mut reg = EngRegistry::new();
        let cap_a = reg.create_capsule(NodeId(0));
        let _cap_b = reg.create_capsule(NodeId(1));
        let clu = reg.create_cluster(cap_a).unwrap();
        reg.create_object(ManagedObjectId(1), clu, 10).unwrap();
        reg.create_object(ManagedObjectId(2), clu, 10).unwrap();
        reg.migrate_cluster(clu, NodeId(1)).unwrap();
        assert_eq!(reg.node_of(ManagedObjectId(1)).unwrap(), NodeId(1));
        assert_eq!(reg.node_of(ManagedObjectId(2)).unwrap(), NodeId(1));
        assert_eq!(
            reg.migrate_cluster(clu, NodeId(9)).unwrap_err(),
            MgmtError::NoCapsuleOnNode(NodeId(9))
        );
    }

    #[test]
    fn candidate_nodes_deduplicate() {
        let mut reg = EngRegistry::new();
        reg.create_capsule(NodeId(1));
        reg.create_capsule(NodeId(1));
        reg.create_capsule(NodeId(0));
        assert_eq!(reg.candidate_nodes(), vec![NodeId(0), NodeId(1)]);
    }
}
