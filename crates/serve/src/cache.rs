//! Query result cache with epoch invalidation.
//!
//! **Keyed on the query exactly as it was sent** (`query_key`): vertex
//! count, vertex labels, then `(u, v, label)` per edge in wire order, so
//! a repeat hits and a renumbering of the same graph misses. A key names
//! exactly one graph, so a hit is always that graph's answer. The key
//! costs O(|V| + |E|) to build, on the event loop, for every query.
//!
//! Isomorphic but differently written queries therefore do not share an
//! entry. A canonical key would let them, but the general-graph canonical
//! code (the gIndex baseline's) is exponential on symmetric graphs: on
//! uniformly labelled cliques it measured 0.08 / 0.51 / 3.98 / 36.2 /
//! 362 ms at K5 … K9, so one 66-edge K12 frame would hold every
//! connection for minutes, hits included. The sharing has no traffic to
//! pay for that: clients resend the same bytes (`loadgen` sends
//! `queries[i]` verbatim, from a pool holding no two isomorphic
//! queries), and both keys split such traffic into the same hits and
//! misses.
//!
//! **Invalidation is wholesale, by epoch.** The cache remembers the
//! [`treepi::TreePiIndex::maintenance_epoch`] its entries were computed
//! under; [`QueryCache::sync_epoch`] drops everything the moment the
//! index's epoch moves (any §7.1 insert/remove). Per-entry invalidation
//! would need to know which cached answers the new graph *could* appear
//! in — exactly the containment problem being served — so correctness
//! comes from the cheap global version check instead.
//!
//! Bounded by an exact LRU: a doubly-linked list threaded through a slot
//! arena, O(1) hit/insert/evict, never more than `capacity` entries.

use graph_core::Graph;
use std::collections::HashMap;

/// The cache key of `g` as sent: vertex count, vertex labels in id order,
/// then `(u, v, label)` per edge in id order (which is wire order — the
/// gSpan decoder numbers vertices and edges as they arrive).
pub(crate) fn query_key(g: &Graph) -> Box<[u32]> {
    let mut key = Vec::with_capacity(1 + g.vertex_count() + 3 * g.edge_count());
    key.push(g.vertex_count() as u32);
    key.extend(g.vertices().map(|v| g.vlabel(v).0));
    for e in g.edges() {
        key.extend([e.u.0, e.v.0, e.label.0]);
    }
    key.into_boxed_slice()
}

const NIL: usize = usize::MAX;

struct Slot {
    key: Box<[u32]>,
    value: Vec<u32>,
    prev: usize,
    next: usize,
}

/// LRU cache of query answers, versioned by the index maintenance epoch.
pub struct QueryCache {
    /// Keys are client bytes, so the map keeps std's randomly keyed
    /// hasher: with a fixed hash a client could send colliding keys.
    map: HashMap<Box<[u32]>, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    epoch: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

impl QueryCache {
    /// An empty cache holding at most `capacity` entries, valid for
    /// `epoch`. Capacity 0 disables caching (every lookup misses).
    pub fn new(capacity: usize, epoch: u64) -> Self {
        QueryCache {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            epoch,
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The epoch the resident entries were computed under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted by LRU capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whole-cache drops caused by epoch bumps.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Compare against the index's current maintenance epoch; if it moved,
    /// drop every entry (they were computed against an older database).
    /// Returns whether an invalidation happened.
    pub fn sync_epoch(&mut self, epoch: u64) -> bool {
        if epoch == self.epoch {
            return false;
        }
        self.epoch = epoch;
        if self.map.is_empty() {
            return false;
        }
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.invalidations += 1;
        true
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Look up the cached answer for a `query_key`, refreshing its
    /// recency on a hit.
    pub fn get(&mut self, key: &[u32]) -> Option<&[u32]> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.hits += 1;
                if self.head != i {
                    self.unlink(i);
                    self.push_front(i);
                }
                Some(&self.slots[i].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store an answer computed under the cache's current epoch, evicting
    /// the least recently used entry when at capacity.
    pub fn insert(&mut self, key: Box<[u32]>, value: Vec<u32>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "non-empty cache has a tail");
            self.unlink(lru);
            self.map.remove(&self.slots[lru].key);
            self.free.push(lru);
            self.evictions += 1;
        }
        let slot = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::graph_from;

    fn key(n: u32) -> Box<[u32]> {
        query_key(&graph_from(&[n, n + 1], &[(0, 1, 0)]))
    }

    #[test]
    fn hit_miss_and_renumbering_is_a_different_key() {
        let mut c = QueryCache::new(4, 0);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), vec![3, 5]);
        assert_eq!(c.get(&key(1)), Some(&[3, 5][..]));
        // The same graph with its vertices renumbered is another key.
        let renumbered = query_key(&graph_from(&[2, 1], &[(1, 0, 0)]));
        assert_ne!(renumbered, key(1));
        assert!(c.get(&renumbered).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = QueryCache::new(2, 0);
        c.insert(key(1), vec![1]);
        c.insert(key(2), vec![2]);
        assert!(c.get(&key(1)).is_some()); // 1 is now most recent
        c.insert(key(3), vec![3]); // evicts 2
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(&key(2)).is_none());
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
    }

    #[test]
    fn capacity_is_a_hard_bound_under_churn() {
        let mut c = QueryCache::new(3, 0);
        for round in 0..5u32 {
            for k in 0..10 {
                c.insert(key(round * 10 + k), vec![k]);
                assert!(c.len() <= 3, "LRU exceeded capacity");
            }
        }
        // The arena never grows past capacity either.
        assert!(c.slots.len() <= 3);
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let mut c = QueryCache::new(2, 0);
        c.insert(key(1), vec![1]);
        c.insert(key(2), vec![2]);
        c.insert(key(1), vec![9, 9]); // refresh 1
        c.insert(key(3), vec![3]); // evicts 2, not 1
        assert_eq!(c.get(&key(1)), Some(&[9, 9][..]));
        assert!(c.get(&key(2)).is_none());
    }

    #[test]
    fn epoch_bump_drops_everything_once() {
        let mut c = QueryCache::new(4, 7);
        c.insert(key(1), vec![1]);
        c.insert(key(2), vec![2]);
        assert!(!c.sync_epoch(7), "same epoch is a no-op");
        assert!(c.sync_epoch(8), "bump invalidates");
        assert!(c.is_empty());
        assert_eq!(c.epoch(), 8);
        assert_eq!(c.invalidations(), 1);
        // Empty-cache epoch moves don't count as invalidations.
        assert!(!c.sync_epoch(9));
        assert_eq!(c.invalidations(), 1);
        // Usable again at the new epoch.
        c.insert(key(1), vec![5]);
        assert_eq!(c.get(&key(1)), Some(&[5][..]));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = QueryCache::new(0, 0);
        c.insert(key(1), vec![1]);
        assert!(c.get(&key(1)).is_none());
        assert_eq!(c.len(), 0);
    }
}
