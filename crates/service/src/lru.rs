//! A small least-recently-used cache (std-only).
//!
//! Recency is tracked with a monotone tick per entry plus a
//! `BTreeMap<tick, key>` recency index, giving `O(log n)` get/insert and
//! exact LRU eviction without a hand-rolled linked list.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A bounded map evicting the least-recently-used entry on overflow.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
    recency: BTreeMap<u64, K>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
            recency: BTreeMap::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `k`, marking it most recently used on a hit. A hit moves
    /// its recency key to the new tick, so it clones nothing. A miss is
    /// side-effect-free: no tick is consumed and no recency key is
    /// cloned or reinserted, so a scan of absent keys can never perturb
    /// recency bookkeeping (or burn through the tick space).
    pub fn get(&mut self, k: &K) -> Option<&V> {
        self.get_mut(k).map(|v| &*v)
    }

    /// [`LruCache::get`], for changing the entry in place.
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        let (v, last) = self.map.get_mut(k)?;
        self.tick += 1;
        let key = self
            .recency
            .remove(&*last)
            .expect("recency key of a live entry");
        *last = self.tick;
        self.recency.insert(self.tick, key);
        Some(v)
    }

    /// Insert (or refresh) an entry, evicting the LRU one if over capacity.
    pub fn insert(&mut self, k: K, v: V) {
        self.tick += 1;
        if let Some((_, last)) = self.map.remove(&k) {
            self.recency.remove(&last);
        }
        self.map.insert(k.clone(), (v, self.tick));
        self.recency.insert(self.tick, k);
        while self.map.len() > self.capacity {
            let (&oldest, _) = self.recency.iter().next().expect("non-empty recency index");
            let victim = self.recency.remove(&oldest).expect("victim key");
            self.map.remove(&victim);
        }
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
    }

    /// The recency tick (test-only: observing miss side-effect freedom).
    #[cfg(test)]
    fn current_tick(&self) -> u64 {
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.get(&"a"), Some(&1)); // a is now fresher than b
        lru.insert("c", 3); // evicts b
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.get(&"c"), Some(&3));
    }

    #[test]
    fn reinsert_refreshes_recency_and_value() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("a", 10); // refresh a, b is now LRU
        lru.insert("c", 3); // evicts b
        assert_eq!(lru.get(&"a"), Some(&10));
        assert_eq!(lru.get(&"b"), None);
    }

    #[test]
    fn get_miss_is_side_effect_free() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        let tick = lru.current_tick();
        for _ in 0..100 {
            assert_eq!(lru.get(&"zzz"), None);
        }
        assert_eq!(lru.current_tick(), tick, "misses consume no ticks");
        // Recency is untouched: "a" is still the LRU entry, so the next
        // insert evicts it — not "b".
        lru.insert("c", 3);
        assert_eq!(lru.get(&"a"), None);
        assert_eq!(lru.get(&"b"), Some(&2));
        assert_eq!(lru.get(&"c"), Some(&3));
    }

    #[test]
    fn get_hit_refreshes_recency_exactly_once() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        let before = lru.current_tick();
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.current_tick(), before + 1, "one tick per hit");
        // "b" is now the LRU entry and gets evicted next.
        lru.insert("c", 3);
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.get(&"a"), Some(&1));
    }

    #[test]
    fn reinsert_keeps_one_recency_entry_per_key() {
        let mut lru = LruCache::new(4);
        for _ in 0..10 {
            lru.insert("a", 1);
        }
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.recency.len(), 1, "stale recency keys are removed");
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.recency.len(), 1);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut lru = LruCache::new(0);
        lru.insert(1, "x");
        assert_eq!(lru.get(&1), Some(&"x"));
        lru.insert(2, "y");
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&1), None);
    }

    #[test]
    fn clear_empties() {
        let mut lru = LruCache::new(4);
        for i in 0..4 {
            lru.insert(i, i);
        }
        assert!(!lru.is_empty());
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.get(&0), None);
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        let mut lru = LruCache::new(8);
        for i in 0..1000u32 {
            lru.insert(i, i * 2);
            if i >= 8 {
                assert_eq!(lru.len(), 8);
            }
        }
        // The last 8 inserted survive.
        for i in 992..1000 {
            assert_eq!(lru.get(&i), Some(&(i * 2)));
        }
    }
}
