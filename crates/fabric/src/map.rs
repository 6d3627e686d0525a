//! [`SortedVecMap`]: a deterministic map over a sorted vector.
//!
//! Several hot-path maps in the workspace are `BTreeMap` purely because
//! the protocol must iterate them in a deterministic order — retransmit
//! buffers walked every tick, observer registries walked every publish,
//! lookup caches walked by coherence checkers. These maps are small
//! (peers, observers, cached types: tens, not millions), live hot, and
//! are *iterated* far more often than they are restructured. A sorted
//! vector gives the same deterministic ascending iteration with one
//! contiguous allocation and branch-predictable binary-search lookups;
//! the trade is O(n) element moves on insert/remove, which is the
//! *wrong* trade for large churning maps — DESIGN.md §12 spells out
//! when each is sound.

use std::fmt;

/// A map stored as a vector of `(K, V)` pairs sorted by key.
///
/// API mirrors the `BTreeMap` subset the workspace's hot sites use, so
/// swapping a site between the two is a type change, not a rewrite.
/// Iteration is always ascending by key.
///
/// ```
/// use odp_fabric::SortedVecMap;
///
/// let mut m = SortedVecMap::new();
/// m.insert(3, "c");
/// m.insert(1, "a");
/// assert_eq!(m.insert(1, "A"), Some("a"));
/// let keys: Vec<i32> = m.keys().copied().collect();
/// assert_eq!(keys, vec![1, 3]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SortedVecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for SortedVecMap<K, V> {
    fn default() -> Self {
        SortedVecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> SortedVecMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        SortedVecMap::default()
    }

    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Inserts, returning the previous value for the key if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (key, value));
                None
            }
        }
    }

    /// Looks a key up.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.position(key).ok().map(|at| &self.entries[at].1)
    }

    /// Looks a key up mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.position(key) {
            Ok(at) => Some(&mut self.entries[at].1),
            Err(_) => None,
        }
    }

    /// The value for `key`, inserting `V::default()` first if absent
    /// (the `entry(k).or_default()` idiom).
    pub fn get_mut_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let at = match self.position(&key) {
            Ok(at) => at,
            Err(at) => {
                self.entries.insert(at, (key, V::default()));
                at
            }
        };
        &mut self.entries[at].1
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.position(key) {
            Ok(at) => Some(self.entries.remove(at).1),
            Err(_) => None,
        }
    }

    /// True when the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key).is_ok()
    }

    /// Entries, ascending by key.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Entries with mutable values, ascending by key.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values, in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Keeps only entries the predicate accepts (ascending visit order).
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The first (smallest-key) entry.
    pub fn first_key_value(&self) -> Option<(&K, &V)> {
        self.entries.first().map(|(k, v)| (k, v))
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for SortedVecMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = SortedVecMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a SortedVecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl<K: Ord, V> IntoIterator for SortedVecMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for SortedVecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_mirror_btreemap() {
        let mut sv: SortedVecMap<u32, String> = SortedVecMap::new();
        let mut bt: BTreeMap<u32, String> = BTreeMap::new();
        // A fixed churn script touching insert/overwrite/remove/lookup.
        let script = [(5u32, "e"), (1, "a"), (9, "i"), (5, "E"), (3, "c")];
        for (k, v) in script {
            assert_eq!(sv.insert(k, v.to_owned()), bt.insert(k, v.to_owned()));
        }
        assert_eq!(sv.remove(&9), bt.remove(&9));
        assert_eq!(sv.remove(&42), bt.remove(&42));
        assert_eq!(sv.get(&5), bt.get(&5));
        assert_eq!(sv.len(), bt.len());
        let sv_pairs: Vec<_> = sv.iter().map(|(k, v)| (*k, v.clone())).collect();
        let bt_pairs: Vec<_> = bt.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(sv_pairs, bt_pairs, "identical ascending iteration");
    }

    #[test]
    fn retain_and_iter_mut_visit_ascending() {
        let mut m: SortedVecMap<u32, u32> = (0..6u32).map(|i| (i, i * 10)).collect();
        let mut seen = Vec::new();
        m.retain(|k, v| {
            seen.push(*k);
            *v += 1;
            k % 2 == 0
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![0, 2, 4]);
        for (_, v) in m.iter_mut() {
            *v *= 2;
        }
        assert_eq!(m.get(&2), Some(&42));
    }

    #[test]
    fn get_mut_or_default_inserts_once() {
        let mut m: SortedVecMap<u32, Vec<u32>> = SortedVecMap::new();
        m.get_mut_or_default(7).push(1);
        m.get_mut_or_default(7).push(2);
        assert_eq!(m.get(&7), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
        assert_eq!(m.first_key_value(), Some((&7, &vec![1, 2])));
    }
}
