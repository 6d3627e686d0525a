//! The sharded offer store: service types are consistent-hashed across
//! the domain's trader nodes, each shard keeping its own offers and load
//! counters.
//!
//! Consistent hashing (a ring with virtual nodes) keeps re-sharding
//! cheap: adding or removing a trader node moves only the offers whose
//! types hash into the arcs the node gains or loses, never the whole
//! store — the property `resharding_moves_only_affected_types` pins this
//! down.

use std::collections::{BTreeMap, BTreeSet};

use odp_mgmt::placement::UsagePattern;
use odp_sim::net::NodeId;
use odp_streams::qos::QosSpec;

use crate::offer::{OfferId, ServiceOffer, ServiceType, TraderError};

const VNODES_PER_TRADER: u32 = 16;

/// splitmix64 — cheap, well-mixed 64-bit hash for ring placement.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn hash_str(s: &str) -> u64 {
    // FNV-1a, then one mix round to spread short names over the ring.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    mix64(h)
}

/// A consistent-hash ring mapping service types to trader nodes.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    points: BTreeMap<u64, NodeId>,
}

impl HashRing {
    /// A ring over the given trader nodes.
    pub fn new(traders: impl IntoIterator<Item = NodeId>) -> Self {
        let mut ring = HashRing::default();
        for t in traders {
            ring.add(t);
        }
        ring
    }

    /// Adds a trader node (idempotent).
    pub fn add(&mut self, trader: NodeId) {
        for v in 0..VNODES_PER_TRADER {
            let point = mix64(((trader.0 as u64) << 32) | v as u64);
            self.points.insert(point, trader);
        }
    }

    /// Removes a trader node.
    pub fn remove(&mut self, trader: NodeId) {
        self.points.retain(|_, t| *t != trader);
    }

    /// The trader responsible for a service type, walking clockwise from
    /// the type's hash. `None` on an empty ring.
    pub fn node_for(&self, service_type: &ServiceType) -> Option<NodeId> {
        if self.points.is_empty() {
            return None;
        }
        let h = hash_str(&service_type.0);
        self.points
            .range(h..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(_, t)| *t)
    }
}

/// Load counters for one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Offers currently held.
    pub offers: usize,
    /// Exports ever accepted.
    pub exports: u64,
    /// Lookups ever served.
    pub lookups: u64,
}

/// One shard: the offers whose service types hash to one trader node.
#[derive(Debug, Clone, Default)]
pub struct OfferStore {
    offers: BTreeMap<OfferId, ServiceOffer>,
    by_type: BTreeMap<ServiceType, BTreeSet<OfferId>>,
    load: ShardLoad,
}

impl OfferStore {
    /// An empty shard.
    pub fn new() -> Self {
        OfferStore::default()
    }

    /// Inserts a newly exported offer (the id must already be assigned
    /// and unique).
    pub fn insert(&mut self, offer: ServiceOffer) {
        self.load.exports += 1;
        self.place(offer);
    }

    /// Places an offer without counting it as a fresh export (shard
    /// migration during resharding, `Transfer` receipt during actor
    /// rebalancing).
    pub fn place(&mut self, offer: ServiceOffer) {
        self.by_type
            .entry(offer.service_type.clone())
            .or_default()
            .insert(offer.id);
        self.offers.insert(offer.id, offer);
        self.load.offers = self.offers.len();
    }

    /// Withdraws an offer, returning it.
    pub fn remove(&mut self, id: OfferId) -> Option<ServiceOffer> {
        let offer = self.offers.remove(&id)?;
        if let Some(set) = self.by_type.get_mut(&offer.service_type) {
            set.remove(&id);
            if set.is_empty() {
                self.by_type.remove(&offer.service_type);
            }
        }
        self.load.offers = self.offers.len();
        Some(offer)
    }

    /// Re-homes an offer to a new node, keeping its id, type, interface
    /// and properties (a migrated cluster keeps its service identity —
    /// importers re-resolve to the new home instead of re-binding by a
    /// fresh id). Returns `false` if the offer is unknown.
    pub fn rehome(&mut self, id: OfferId, node: NodeId) -> bool {
        match self.offers.get_mut(&id) {
            Some(offer) => {
                offer.node = node;
                true
            }
            None => false,
        }
    }

    /// Replaces the QoS of an offer in place.
    pub(crate) fn modify_qos(&mut self, id: OfferId, qos: QosSpec) -> bool {
        match self.offers.get_mut(&id) {
            Some(offer) => {
                offer.qos = qos;
                if let crate::offer::OfferedInterface::Stream(iface) = &mut offer.interface {
                    iface.qos = qos;
                }
                true
            }
            None => false,
        }
    }

    /// The offers of one type, counting the access as one served lookup.
    pub fn offers_of_type(&mut self, service_type: &ServiceType) -> Vec<&ServiceOffer> {
        self.load.lookups += 1;
        match self.by_type.get(service_type) {
            Some(ids) => ids.iter().filter_map(|id| self.offers.get(id)).collect(),
            None => Vec::new(),
        }
    }

    /// Looks one offer up without counting it as a lookup.
    pub fn offer(&self, id: OfferId) -> Option<&ServiceOffer> {
        self.offers.get(&id)
    }

    /// Every offer in the shard.
    pub fn iter(&self) -> impl Iterator<Item = &ServiceOffer> {
        self.offers.values()
    }

    /// This shard's load counters.
    pub fn load(&self) -> ShardLoad {
        self.load
    }
}

/// The domain-wide offer store: a consistent-hash ring of shards.
#[derive(Debug, Clone, Default)]
pub struct ShardedStore {
    ring: HashRing,
    shards: BTreeMap<NodeId, OfferStore>,
    home: BTreeMap<OfferId, NodeId>,
    next_offer: u64,
}

impl ShardedStore {
    /// A store sharded over the given trader nodes.
    pub fn new(traders: impl IntoIterator<Item = NodeId>) -> Self {
        let mut store = ShardedStore::default();
        for t in traders {
            store.add_trader(t);
        }
        store
    }

    /// The shard a service type lives on.
    pub fn shard_for(&self, service_type: &ServiceType) -> Option<NodeId> {
        self.ring.node_for(service_type)
    }

    /// Exports an offer: assigns it an id and places it on its type's
    /// shard.
    ///
    /// # Errors
    ///
    /// [`TraderError::NoShards`] when no trader nodes are registered.
    pub fn export(&mut self, mut offer: ServiceOffer) -> Result<OfferId, TraderError> {
        let shard = self
            .ring
            .node_for(&offer.service_type)
            .ok_or(TraderError::NoShards)?;
        self.next_offer += 1;
        let id = OfferId(self.next_offer);
        offer.id = id;
        self.shards.entry(shard).or_default().insert(offer);
        self.home.insert(id, shard);
        Ok(id)
    }

    /// Withdraws an offer from whichever shard holds it.
    ///
    /// # Errors
    ///
    /// [`TraderError::UnknownOffer`] if no shard holds `id`.
    pub fn withdraw(&mut self, id: OfferId) -> Result<ServiceOffer, TraderError> {
        let shard = self.home.remove(&id).ok_or(TraderError::UnknownOffer(id))?;
        self.shards
            .get_mut(&shard)
            .and_then(|s| s.remove(id))
            .ok_or(TraderError::UnknownOffer(id))
    }

    /// Looks an offer up by id.
    pub fn offer(&self, id: OfferId) -> Option<&ServiceOffer> {
        let shard = self.home.get(&id)?;
        self.shards.get(shard)?.offer(id)
    }

    /// All offers of a type (cloned out of the owning shard; the access
    /// counts toward that shard's lookup load).
    pub fn offers_of_type(&mut self, service_type: &ServiceType) -> Vec<ServiceOffer> {
        let Some(shard) = self.ring.node_for(service_type) else {
            return Vec::new();
        };
        self.shards
            .entry(shard)
            .or_default()
            .offers_of_type(service_type)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Adds a trader node, migrating the offers whose types now hash to
    /// it. Returns how many offers moved.
    pub(crate) fn add_trader(&mut self, trader: NodeId) -> usize {
        self.ring.add(trader);
        self.shards.entry(trader).or_default();
        self.rehome()
    }

    /// Re-places every offer whose current shard no longer matches the
    /// ring; returns how many moved.
    fn rehome(&mut self) -> usize {
        let mut moves: Vec<(OfferId, NodeId, NodeId)> = Vec::new();
        for (&id, &current) in &self.home {
            if let Some(offer) = self.shards.get(&current).and_then(|s| s.offer(id)) {
                if let Some(target) = self.ring.node_for(&offer.service_type) {
                    if target != current {
                        moves.push((id, current, target));
                    }
                }
            }
        }
        let moved = moves.len();
        for (id, from, to) in moves {
            if let Some(offer) = self.shards.get_mut(&from).and_then(|s| s.remove(id)) {
                self.shards.entry(to).or_default().place(offer);
                self.home.insert(id, to);
            }
        }
        moved
    }

    /// True if any offer of `service_type` is held (read-only: does not
    /// count as a lookup).
    pub fn has_type(&self, service_type: &ServiceType) -> bool {
        self.shards
            .values()
            .any(|s| s.by_type.contains_key(service_type))
    }

    /// Per-shard load counters.
    pub fn loads(&self) -> Vec<(NodeId, ShardLoad)> {
        self.shards.iter().map(|(n, s)| (*n, s.load())).collect()
    }

    /// Total offers across all shards.
    pub fn len(&self) -> usize {
        self.home.len()
    }

    /// True when no offers are held.
    pub fn is_empty(&self) -> bool {
        self.home.is_empty()
    }

    /// The shard-balance coefficient: max shard offer count over the
    /// ideal even split (1.0 = perfectly balanced; higher = skew).
    pub fn balance_ratio(&self) -> f64 {
        let n = self.shards.len();
        if n == 0 || self.home.is_empty() {
            return 1.0;
        }
        let max = self
            .shards
            .values()
            .map(|s| s.load().offers)
            .max()
            .unwrap_or(0) as f64;
        let ideal = self.home.len() as f64 / n as f64;
        max / ideal.max(1.0)
    }

    /// This store's lookup traffic as a management usage pattern: each
    /// shard node's served-lookup count becomes that site's usage, which
    /// `odp_mgmt::placement::place` can consume to co-locate replicas or
    /// managers with trading hot spots.
    pub fn usage_pattern(&self) -> UsagePattern {
        let mut usage = UsagePattern::new();
        for (node, shard) in &self.shards {
            if shard.load().lookups > 0 {
                usage.record(*node, shard.load().lookups);
            }
        }
        usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offer::SessionKind;
    use odp_streams::qos::QosSpec;

    fn offer(name: &str) -> ServiceOffer {
        ServiceOffer::session(
            ServiceType::new(name),
            SessionKind::Workspace,
            QosSpec::audio(),
            NodeId(90),
        )
    }

    fn traders(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn rehome_moves_the_node_and_keeps_identity() {
        let mut store = OfferStore::new();
        let o = offer("raster/tile/0");
        let id = o.id;
        store.insert(o);
        assert!(store.rehome(id, NodeId(3)));
        let found = store.offers_of_type(&ServiceType::new("raster/tile/0"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id, id, "same offer id after the move");
        assert_eq!(found[0].node, NodeId(3));
        assert!(!store.rehome(OfferId(999_999), NodeId(1)));
    }

    #[test]
    fn export_then_lookup_round_trips() {
        let mut store = ShardedStore::new(traders(3));
        let id = store.export(offer("video/live")).unwrap();
        let found = store.offers_of_type(&ServiceType::new("video/live"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id, id);
        assert!(store.offer(id).is_some());
    }

    #[test]
    fn withdraw_removes_everywhere() {
        let mut store = ShardedStore::new(traders(3));
        let id = store.export(offer("video/live")).unwrap();
        store.withdraw(id).unwrap();
        assert!(store
            .offers_of_type(&ServiceType::new("video/live"))
            .is_empty());
        assert_eq!(store.withdraw(id), Err(TraderError::UnknownOffer(id)));
    }

    #[test]
    fn modify_updates_qos_in_place() {
        let mut store = OfferStore::new();
        let o = offer("audio/talk");
        let id = o.id;
        store.insert(o);
        assert!(store.modify_qos(id, QosSpec::mobile_video()));
        assert_eq!(store.offer(id).unwrap().qos, QosSpec::mobile_video());
        assert!(!store.modify_qos(OfferId(999_999), QosSpec::audio()));
    }

    #[test]
    fn no_shards_is_an_error() {
        let mut store = ShardedStore::new([]);
        assert_eq!(store.export(offer("x")), Err(TraderError::NoShards));
    }

    #[test]
    fn same_type_lands_on_one_shard() {
        let mut store = ShardedStore::new(traders(4));
        for _ in 0..5 {
            store.export(offer("video/live")).unwrap();
        }
        let loaded: Vec<_> = store
            .loads()
            .into_iter()
            .filter(|(_, l)| l.offers > 0)
            .collect();
        assert_eq!(loaded.len(), 1, "one type must occupy exactly one shard");
        assert_eq!(loaded[0].1.offers, 5);
    }

    #[test]
    fn many_types_spread_over_shards() {
        let mut store = ShardedStore::new(traders(4));
        for i in 0..200 {
            store.export(offer(&format!("service/kind-{i}"))).unwrap();
        }
        let occupied = store.loads().iter().filter(|(_, l)| l.offers > 0).count();
        assert_eq!(occupied, 4, "200 types should reach every one of 4 shards");
        assert!(
            store.balance_ratio() < 2.5,
            "skew too high: {}",
            store.balance_ratio()
        );
    }

    #[test]
    fn adding_a_trader_moves_only_some_offers() {
        let mut store = ShardedStore::new(traders(4));
        for i in 0..200 {
            store.export(offer(&format!("service/kind-{i}"))).unwrap();
        }
        let moved = store.add_trader(NodeId(99));
        assert!(moved > 0, "the new shard must take over some arcs");
        assert!(
            moved < 150,
            "consistent hashing must not reshuffle the world: moved {moved}"
        );
        assert_eq!(store.len(), 200, "no offers may be lost in resharding");
    }

    #[test]
    fn usage_pattern_reflects_lookup_traffic() {
        let mut store = ShardedStore::new(traders(2));
        store.export(offer("hot/type")).unwrap();
        for _ in 0..10 {
            store.offers_of_type(&ServiceType::new("hot/type"));
        }
        let usage = store.usage_pattern();
        assert_eq!(usage.total(), 10);
        let hot_shard = store.shard_for(&ServiceType::new("hot/type")).unwrap();
        assert_eq!(usage.count(hot_shard), 10);
    }
}
