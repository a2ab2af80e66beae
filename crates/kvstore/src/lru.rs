//! An O(1) capacity-bounded LRU map.
//!
//! Substrate for the RDMA-Memcached comparator (whose shared LRU lists
//! are the serialisation bottleneck the paper measures, §4.4.1) and for
//! its per-thread hot-key cache. Implemented as a hash map over an
//! index slab holding an intrusive doubly-linked recency list.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A least-recently-used cache with fixed capacity.
///
/// # Examples
///
/// ```
/// use rfp_kvstore::LruCache;
///
/// let mut cache = LruCache::new(2);
/// cache.put("a", 1);
/// cache.put("b", 2);
/// cache.get(&"a"); // refresh "a": "b" becomes the victim
/// assert_eq!(cache.put("c", 3), Some(("b", 2)));
/// assert!(cache.contains(&"a") && cache.contains(&"c"));
/// ```
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    /// Slab of nodes; an eviction reuses the victim's slot.
    nodes: Vec<Node<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Clone + Eq + Hash, V> LruCache<K, V> {
    /// Creates a cache evicting beyond `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        LruCache {
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        let n = &mut self.nodes[idx];
        n.prev = NIL;
        n.next = old_head;
        if old_head != NIL {
            self.nodes[old_head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, marking it most-recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(&self.nodes[idx].value)
    }

    /// Looks up `key` without touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.nodes[i].value)
    }

    /// Whether `key` is present (no recency update).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts or updates `key`, marking it most-recently used. Returns
    /// the entry evicted to make room, if any.
    pub fn put(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return None;
        }
        let fresh = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let (idx, evicted) = if self.map.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            let node = std::mem::replace(&mut self.nodes[victim], fresh);
            self.map.remove(&node.key);
            (victim, Some((node.key, node.value)))
        } else {
            self.nodes.push(fresh);
            (self.nodes.len() - 1, None)
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<K: Clone + Eq + Hash, V> LruCache<K, V> {
        /// Keys from most- to least-recently used.
        fn keys_by_recency(&self) -> Vec<K> {
            let mut out = Vec::with_capacity(self.len());
            let mut cur = self.head;
            while cur != NIL {
                let n = &self.nodes[cur];
                out.push(n.key.clone());
                cur = n.next;
            }
            out
        }
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        assert!(c.put(1, "a").is_none());
        assert!(c.put(2, "b").is_none());
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(&1), Some(&"a"));
        let evicted = c.put(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert!(c.contains(&1));
        assert!(c.contains(&3));
        assert!(!c.contains(&2));
    }

    #[test]
    fn update_refreshes_recency_without_eviction() {
        let mut c = LruCache::new(2);
        c.put(1, 10);
        c.put(2, 20);
        assert!(c.put(1, 11).is_none());
        assert_eq!(c.peek(&1), Some(&11));
        assert_eq!(c.keys_by_recency(), vec![1, 2]);
        assert_eq!(c.put(3, 30), Some((2, 20)));
    }

    #[test]
    fn recency_order_is_exact() {
        let mut c = LruCache::new(4);
        for k in 1..=4 {
            c.put(k, ());
        }
        c.get(&2);
        c.get(&1);
        assert_eq!(c.keys_by_recency(), vec![1, 2, 4, 3]);
    }

    #[test]
    fn single_slot_cache() {
        let mut c = LruCache::new(1);
        c.put("x", 1);
        assert_eq!(c.put("y", 2), Some(("x", 1)));
        assert_eq!(c.get(&"y"), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u8, u8>::new(0);
    }

    #[test]
    fn model_check_against_reference() {
        // Cross-check against a naive Vec-based model under a pseudo-
        // random op stream.
        let mut c = LruCache::new(8);
        let mut model: Vec<(u32, u32)> = Vec::new(); // front = MRU
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for _ in 0..10_000 {
            let k = next() % 16;
            if next() % 2 == 0 {
                let v = next();
                c.put(k, v);
                if let Some(pos) = model.iter().position(|e| e.0 == k) {
                    model.remove(pos);
                }
                model.insert(0, (k, v));
                if model.len() > 8 {
                    model.pop();
                }
            } else {
                let got = c.get(&k).copied();
                let expect = model.iter().position(|e| e.0 == k).map(|pos| {
                    let e = model.remove(pos);
                    model.insert(0, e);
                    e.1
                });
                assert_eq!(got, expect);
            }
            assert_eq!(c.len(), model.len());
            assert_eq!(
                c.keys_by_recency(),
                model.iter().map(|e| e.0).collect::<Vec<_>>()
            );
        }
    }
}
