//! The importer-side lookup cache.
//!
//! Importers that repeatedly bind to the same service type should not
//! pay a trader round-trip every time; resolved offers are cached under
//! a TTL. Because cached offers can go stale the moment an exporter
//! withdraws or re-advertises, traders multicast invalidation notes
//! (via `odp-groupcomm`) and importers evict eagerly on receipt — TTL
//! expiry is only the backstop for importers outside the multicast
//! group.
//!
//! Entries are keyed by **(service type, effective scope)**: a
//! resolution obtained across a federation path is only valid under the
//! scope that path narrowed to, and caching it under the bare type
//! would leak a cross-link hit to a caller whose admissible scope is
//! narrower (or vice versa). Local resolutions use [`Scope::all`] via
//! the [`LookupCache::get`] / [`LookupCache::put`] shorthands;
//! federated callers key with
//! [`ImportResolution::narrowed_scope`](crate::plan::ImportResolution::narrowed_scope)
//! through [`LookupCache::get_scoped`] / [`LookupCache::put_scoped`].
//! Invalidation notes name only the type and evict every scope's entry
//! for it.

use odp_fabric::SortedVecMap;
use odp_sim::time::{SimDuration, SimTime};

use crate::offer::{ServiceOffer, ServiceType};
use crate::plan::Scope;

#[derive(Debug, Clone)]
struct CacheEntry {
    resolved: Vec<ServiceOffer>,
    cached_at: SimTime,
}

/// Hit/miss/eviction counters, exposed for metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that had to go to a trader (absent or expired).
    pub misses: u64,
    /// Entries evicted by invalidation notes.
    pub invalidations: u64,
    /// Entries evicted by TTL expiry.
    pub expiries: u64,
}

impl CacheStats {
    /// Hits over total lookups, in `[0, 1]`; 0 when nothing was looked
    /// up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A TTL + invalidation cache of resolved lookups, keyed by (service
/// type, effective scope).
#[derive(Debug, Clone)]
pub struct LookupCache {
    ttl: SimDuration,
    // Sorted vecs, not BTreeMaps: the working set is a handful of hot
    // types consulted on every lookup, and contiguous entries keep the
    // probe cache-friendly while preserving (type, scope) order.
    entries: SortedVecMap<ServiceType, SortedVecMap<Scope, CacheEntry>>,
    stats: CacheStats,
}

impl LookupCache {
    /// A cache whose entries expire `ttl` after being stored.
    pub fn new(ttl: SimDuration) -> Self {
        LookupCache {
            ttl,
            entries: SortedVecMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Looks a type up under the unrestricted scope (local
    /// resolutions). See [`LookupCache::get_scoped`].
    pub fn get(&mut self, service_type: &ServiceType, now: SimTime) -> Option<Vec<ServiceOffer>> {
        self.get_scoped(service_type, &Scope::all(), now)
    }

    /// Looks a (type, effective scope) pair up, counting a hit or a
    /// miss. Expired entries are evicted and count as misses. An entry
    /// cached under a different scope — even a wider one — never
    /// answers.
    pub fn get_scoped(
        &mut self,
        service_type: &ServiceType,
        scope: &Scope,
        now: SimTime,
    ) -> Option<Vec<ServiceOffer>> {
        let scopes = self.entries.get_mut(service_type)?;
        match scopes.get(scope) {
            Some(entry) if now.saturating_since(entry.cached_at) <= self.ttl => {
                self.stats.hits += 1;
                Some(entry.resolved.clone())
            }
            Some(_) => {
                scopes.remove(scope);
                if scopes.is_empty() {
                    self.entries.remove(service_type);
                }
                self.stats.expiries += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a resolved lookup under the unrestricted scope (local
    /// resolutions). See [`LookupCache::put_scoped`].
    pub fn put(&mut self, service_type: ServiceType, resolved: Vec<ServiceOffer>, now: SimTime) {
        self.put_scoped(service_type, Scope::all(), resolved, now);
    }

    /// Stores a resolved lookup under the scope it was obtained under.
    pub fn put_scoped(
        &mut self,
        service_type: ServiceType,
        scope: Scope,
        resolved: Vec<ServiceOffer>,
        now: SimTime,
    ) {
        self.entries.get_mut_or_default(service_type).insert(
            scope,
            CacheEntry {
                resolved,
                cached_at: now,
            },
        );
    }

    /// Evicts one type (a withdraw/modify invalidation note arrived) —
    /// every scope's entry for it, since the note names only the type.
    /// Returns whether any entry was present.
    pub(crate) fn invalidate(&mut self, service_type: &ServiceType) -> bool {
        match self.entries.remove(service_type) {
            Some(scopes) => {
                self.stats.invalidations += scopes.len() as u64;
                true
            }
            None => false,
        }
    }

    /// Drops everything (view change, trader failover).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Every cached resolution, in (type, scope) order (coherence
    /// checkers compare these against the owning shard's store).
    pub fn entries(&self) -> impl Iterator<Item = (&ServiceType, &Scope, &[ServiceOffer])> {
        self.entries.iter().flat_map(|(t, scopes)| {
            scopes
                .iter()
                .map(move |(s, e)| (t, s, e.resolved.as_slice()))
        })
    }

    /// Entries currently held (expired-but-unqueried entries count).
    pub fn len(&self) -> usize {
        self.entries.values().map(SortedVecMap::len).sum()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offer::{ServiceOffer, SessionKind};
    use odp_sim::net::NodeId;
    use odp_streams::qos::QosSpec;

    fn st() -> ServiceType {
        ServiceType::new("video/live")
    }

    fn resolved() -> Vec<ServiceOffer> {
        vec![ServiceOffer::session(
            st(),
            SessionKind::Conference,
            QosSpec::video(),
            NodeId(4),
        )]
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn hit_within_ttl_miss_after() {
        let mut cache = LookupCache::new(SimDuration::from_millis(100));
        cache.put(st(), resolved(), at_ms(0));
        assert!(cache.get(&st(), at_ms(50)).is_some());
        assert!(
            cache.get(&st(), at_ms(100)).is_some(),
            "ttl boundary is inclusive"
        );
        assert!(cache.get(&st(), at_ms(101)).is_none(), "expired");
        assert!(cache.is_empty(), "expiry evicts");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.expiries), (2, 1, 1));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn invalidation_evicts_immediately() {
        let mut cache = LookupCache::new(SimDuration::from_secs(3600));
        cache.put(st(), resolved(), at_ms(0));
        assert!(cache.invalidate(&st()));
        assert!(
            !cache.invalidate(&st()),
            "second invalidation finds nothing"
        );
        assert!(cache.get(&st(), at_ms(1)).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn unknown_types_miss() {
        let mut cache = LookupCache::new(SimDuration::from_secs(1));
        assert!(cache.get(&st(), SimTime::ZERO).is_none());
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn scoped_entries_do_not_leak_across_scopes() {
        // The regression this keying fixes: a resolution obtained
        // across a wide link must not answer a caller whose effective
        // scope is narrower, nor the other way around.
        let mut cache = LookupCache::new(SimDuration::from_secs(10));
        cache.put_scoped(st(), Scope::prefix("video/"), resolved(), at_ms(0));
        assert!(
            cache.get(&st(), at_ms(1)).is_none(),
            "unrestricted lookup must not see the scoped entry"
        );
        assert!(cache
            .get_scoped(&st(), &Scope::prefix("video/"), at_ms(1))
            .is_some());
        assert!(
            cache
                .get_scoped(&st(), &Scope::prefix("video/hd/"), at_ms(1))
                .is_none(),
            "a narrower effective scope is a different key"
        );
    }

    #[test]
    fn invalidation_names_the_type_and_evicts_every_scope() {
        let mut cache = LookupCache::new(SimDuration::from_secs(10));
        cache.put(st(), resolved(), at_ms(0));
        cache.put_scoped(st(), Scope::prefix("video/"), resolved(), at_ms(0));
        assert_eq!(cache.len(), 2);
        assert!(cache.invalidate(&st()));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 2, "one per evicted scope");
    }

    #[test]
    fn entries_iterate_in_type_then_scope_order() {
        let mut cache = LookupCache::new(SimDuration::from_secs(10));
        cache.put_scoped(st(), Scope::prefix("video/"), resolved(), at_ms(0));
        cache.put(st(), resolved(), at_ms(0));
        let keys: Vec<(ServiceType, Scope)> = cache
            .entries()
            .map(|(t, s, _)| (t.clone(), s.clone()))
            .collect();
        assert_eq!(
            keys,
            vec![(st(), Scope::all()), (st(), Scope::prefix("video/")),]
        );
    }
}
