//! The mobile host's object cache.
//!
//! §4.2.2 i: *"with the limited bandwidth of radio communications ... new
//! techniques will be required, for example, to cache significant
//! portions of the data on the mobile computer"*. The cache supports
//! *hoarding* (naming objects to prefetch while well-connected, after
//! Coda) and tracks hit/miss statistics.

use std::collections::{BTreeMap, BTreeSet};

use odp_concurrency::store::ObjectId;

/// A cached object copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedObject {
    /// The cached value.
    pub value: String,
    /// The server version this copy was fetched at.
    pub base_version: u64,
    /// True if modified locally since the fetch.
    pub dirty: bool,
}

/// The mobile cache.
///
/// # Examples
///
/// ```
/// use odp_concurrency::store::ObjectId;
/// use odp_mobility::cache::MobileCache;
///
/// let mut c = MobileCache::new();
/// c.install(ObjectId(1), "field notes", 3);
/// assert_eq!(c.read(ObjectId(1)).map(|o| o.value.as_str()), Some("field notes"));
/// assert_eq!(c.hits(), 1);
/// assert!(c.read(ObjectId(2)).is_none());
/// assert_eq!(c.misses(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MobileCache {
    entries: BTreeMap<ObjectId, CachedObject>,
    hoard_list: BTreeSet<ObjectId>,
    hits: u64,
    misses: u64,
}

impl MobileCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        MobileCache::default()
    }

    /// Adds an object to the hoard list (to fetch while connected).
    pub fn hoard(&mut self, id: ObjectId) {
        self.hoard_list.insert(id);
    }

    /// The hoard list.
    pub fn hoard_list(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.hoard_list.iter().copied()
    }

    /// Hoard-listed objects not yet cached (what a bulk fetch should get).
    pub fn hoard_wanted(&self) -> Vec<ObjectId> {
        self.hoard_list
            .iter()
            .copied()
            .filter(|id| !self.entries.contains_key(id))
            .collect()
    }

    /// Installs (or refreshes) a clean copy fetched from the server.
    pub fn install(&mut self, id: ObjectId, value: impl Into<String>, version: u64) {
        self.entries.insert(
            id,
            CachedObject {
                value: value.into(),
                base_version: version,
                dirty: false,
            },
        );
    }

    /// Reads from the cache, counting hit/miss.
    pub fn read(&mut self, id: ObjectId) -> Option<&CachedObject> {
        match self.entries.get(&id) {
            Some(obj) => {
                self.hits += 1;
                Some(obj)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Writes locally, marking the entry dirty. Returns false if the
    /// object is not cached (disconnected writes need a cached base).
    pub fn write_local(&mut self, id: ObjectId, value: impl Into<String>) -> bool {
        match self.entries.get_mut(&id) {
            Some(obj) => {
                obj.value = value.into();
                obj.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Marks an entry clean at a new base version (after reintegration).
    pub fn mark_clean(&mut self, id: ObjectId, version: u64) {
        if let Some(obj) = self.entries.get_mut(&id) {
            obj.dirty = false;
            obj.base_version = version;
        }
    }

    /// All dirty entries.
    pub fn dirty(&self) -> Vec<(ObjectId, &CachedObject)> {
        self.entries
            .iter()
            .filter(|(_, o)| o.dirty)
            .map(|(&id, o)| (id, o))
            .collect()
    }

    /// Peeks without touching the statistics.
    pub fn peek(&self, id: ObjectId) -> Option<&CachedObject> {
        self.entries.get(&id)
    }

    /// Evicts an entry.
    pub fn evict(&mut self, id: ObjectId) -> bool {
        self.entries.remove(&id).is_some()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0, 1]` (1.0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_read_write_cycle() {
        let mut c = MobileCache::new();
        c.install(ObjectId(1), "v1", 1);
        assert!(!c.read(ObjectId(1)).unwrap().dirty);
        assert!(c.write_local(ObjectId(1), "v2"));
        let obj = c.peek(ObjectId(1)).unwrap();
        assert!(obj.dirty);
        assert_eq!(obj.value, "v2");
        assert_eq!(obj.base_version, 1);
    }

    #[test]
    fn disconnected_write_without_base_fails() {
        let mut c = MobileCache::new();
        assert!(!c.write_local(ObjectId(9), "x"));
    }

    #[test]
    fn hoard_list_tracks_missing_objects() {
        let mut c = MobileCache::new();
        c.hoard(ObjectId(1));
        c.hoard(ObjectId(2));
        c.install(ObjectId(1), "a", 1);
        assert_eq!(c.hoard_wanted(), vec![ObjectId(2)]);
    }

    #[test]
    fn statistics_track_hits_and_misses() {
        let mut c = MobileCache::new();
        c.install(ObjectId(1), "a", 1);
        c.read(ObjectId(1));
        c.read(ObjectId(1));
        c.read(ObjectId(2));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn mark_clean_resets_dirty_state() {
        let mut c = MobileCache::new();
        c.install(ObjectId(1), "a", 1);
        c.write_local(ObjectId(1), "b");
        c.mark_clean(ObjectId(1), 5);
        let obj = c.peek(ObjectId(1)).unwrap();
        assert!(!obj.dirty);
        assert_eq!(obj.base_version, 5);
        assert!(c.dirty().is_empty());
    }

    #[test]
    fn evict_removes_entries() {
        let mut c = MobileCache::new();
        c.install(ObjectId(1), "a", 1);
        assert!(c.evict(ObjectId(1)));
        assert!(!c.evict(ObjectId(1)));
        assert!(c.is_empty());
    }

    #[test]
    fn untouched_cache_reports_full_hit_rate() {
        let c = MobileCache::new();
        assert_eq!(c.hit_rate(), 1.0);
    }
}
