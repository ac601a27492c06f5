//! Byte-capacity LRU page caches.
//!
//! Both guest kernels and the host kernel cache file data. The cache
//! tracks fixed-size chunks of *objects* (an object is a disk image; the
//! offset space of a VM's files lives inside its image), evicting least
//! recently used chunks when capacity is exceeded.
//!
//! Whether a read hits DRAM or the SSD is the entire difference between
//! the paper's *read* and *re-read* experiments, and host-cache hits are
//! why vRead's mounted-image design (§6 "Direct Read Bypassing the File
//! System in the Host") out-performs a raw-device bypass.
//!
//! [`PageCache`] is the [`BlockStore`] used by every guest and, in the
//! default `lru` host-cache mode, by hosts; the content-addressed
//! alternative is [`crate::cas::CasStore`].
//!
//! Every simulated read touches at least one chunk, so each operation
//! is O(1): a Fx-hashed map from chunk to a node of an intrusive,
//! doubly linked recency list kept in a slab (least recently used at
//! the head). A hit is one hash probe plus a relink; an eviction pops
//! the head. The order is exactly "least recently touched first", so
//! the victims are fully determined by the access sequence.

use vread_sim::fxhash::FxHashMap;

use crate::fs::ObjectId;
use crate::store::{Admission, BlockStore, CacheStats, Lookup};

/// Key of one cached chunk: `(object, chunk index)`.
type ChunkKey = (u64, u64);

/// End-of-list marker for [`Node`] links.
const NIL: u32 = u32::MAX;

/// One slab slot of the recency list. A free slot is chained to the
/// next free one through `next`.
#[derive(Debug, Clone)]
struct Node {
    key: ChunkKey,
    prev: u32,
    next: u32,
}

/// An LRU page cache with byte capacity.
///
/// ```rust
/// use vread_host::cache::PageCache;
/// use vread_host::fs::ObjectId;
/// use vread_host::store::BlockStore;
///
/// let mut cache = PageCache::new(1 << 20, 4096);
/// let img = ObjectId::from_raw(1);
/// assert_eq!(cache.lookup(img, 0, 8192).miss_bytes, 8192); // cold
/// cache.admit(img, 0, 8192);
/// assert!(cache.probe(img, 0, 8192)); // re-read hits DRAM
/// ```
#[derive(Debug, Clone)]
pub struct PageCache {
    capacity: u64,
    chunk: u64,
    used: u64,
    /// chunk -> its slot in `nodes`
    map: FxHashMap<ChunkKey, u32>,
    /// Slab of recency-list nodes (live and free).
    nodes: Vec<Node>,
    /// Least recently used live node, or [`NIL`].
    head: u32,
    /// Most recently used live node, or [`NIL`].
    tail: u32,
    /// First free slab slot, or [`NIL`].
    free: u32,
    stats: CacheStats,
}

impl PageCache {
    /// Creates a cache of `capacity` bytes tracking `chunk`-byte chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero or larger than `capacity` (a cache that
    /// cannot hold one chunk is a configuration error).
    pub fn new(capacity: u64, chunk: u64) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(capacity >= chunk, "capacity smaller than one chunk");
        PageCache {
            capacity,
            chunk,
            used: 0,
            map: FxHashMap::default(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            stats: CacheStats::default(),
        }
    }

    fn chunks_of(&self, offset: u64, len: u64) -> std::ops::Range<u64> {
        if len == 0 {
            return 0..0;
        }
        let first = offset / self.chunk;
        let last = (offset + len - 1) / self.chunk;
        first..last + 1
    }

    /// Detaches live node `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Appends detached node `i` as the most recently used.
    fn push_mru(&mut self, i: u32) {
        self.nodes[i as usize].prev = self.tail;
        self.nodes[i as usize].next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.nodes[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Marks node `i` most recently used.
    fn touch(&mut self, i: u32) {
        if self.tail != i {
            self.unlink(i);
            self.push_mru(i);
        }
    }

    /// Drops live node `i`: list, map, slab and byte count.
    fn remove_node(&mut self, i: u32) {
        self.unlink(i);
        let key = self.nodes[i as usize].key;
        self.map.remove(&key).expect("list/map out of sync");
        self.nodes[i as usize].next = self.free;
        self.free = i;
        self.used -= self.chunk;
    }

    fn insert_chunk(&mut self, key: ChunkKey) {
        while self.used + self.chunk > self.capacity {
            assert_ne!(self.head, NIL, "cache over-full but empty");
            self.remove_node(self.head);
        }
        let node = Node {
            key,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free {
            NIL => {
                let i = self.nodes.len().try_into().expect("chunk slab fits u32");
                self.nodes.push(node);
                i
            }
            f => {
                self.free = self.nodes[f as usize].next;
                self.nodes[f as usize] = node;
                f
            }
        };
        self.push_mru(i);
        self.map.insert(key, i);
        self.used += self.chunk;
    }
}

impl BlockStore for PageCache {
    /// Classifies residency (whole missing chunks counted in full, which
    /// models read-ahead at chunk granularity). Updates statistics and
    /// the LRU order of present chunks. An LRU cache never dedups, so
    /// `dedup_bytes` is always 0.
    fn lookup(&mut self, obj: ObjectId, offset: u64, len: u64) -> Lookup {
        let mut out = Lookup::default();
        for ci in self.chunks_of(offset, len) {
            if let Some(&i) = self.map.get(&(obj.raw(), ci)) {
                self.touch(i);
                self.stats.hits += 1;
                out.hit_bytes += self.chunk;
            } else {
                self.stats.misses += 1;
                out.miss_bytes += self.chunk;
            }
        }
        out
    }

    fn probe(&self, obj: ObjectId, offset: u64, len: u64) -> bool {
        self.chunks_of(offset, len)
            .all(|ci| self.map.contains_key(&(obj.raw(), ci)))
    }

    /// Inserts (or refreshes) the chunks covering the range, evicting LRU
    /// chunks as needed.
    fn admit(&mut self, obj: ObjectId, offset: u64, len: u64) -> Admission {
        let mut any_miss = false;
        for ci in self.chunks_of(offset, len) {
            let key = (obj.raw(), ci);
            if let Some(&i) = self.map.get(&key) {
                self.touch(i);
            } else {
                any_miss = true;
                self.insert_chunk(key);
            }
        }
        if any_miss {
            Admission::Miss
        } else {
            Admission::Hit
        }
    }

    fn evict_to_fit(&mut self, bytes: u64) {
        let budget = self.capacity.saturating_sub(bytes);
        while self.used > budget && self.head != NIL {
            self.remove_node(self.head);
        }
    }

    /// Drops every cached chunk of `obj` (e.g. `fadvise DONTNEED`).
    ///
    /// Walks the recency list from LRU to MRU rather than the hash map,
    /// so the drop order is deterministic (and lint-clean by
    /// construction).
    fn evict_object(&mut self, obj: ObjectId) {
        let mut i = self.head;
        while i != NIL {
            let Node { key, next, .. } = self.nodes[i as usize];
            if key.0 == obj.raw() {
                self.remove_node(i);
            }
            i = next;
        }
    }

    /// Empties the cache (the paper's `drop_caches` between runs).
    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        (self.head, self.tail, self.free) = (NIL, NIL, NIL);
        self.used = 0;
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn logical_bytes(&self) -> u64 {
        self.used
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = PageCache::new(1 << 20, 4096);
        assert_eq!(c.lookup(obj(1), 0, 8192).miss_bytes, 8192);
        c.admit(obj(1), 0, 8192);
        let l = c.lookup(obj(1), 0, 8192);
        assert_eq!(l.miss_bytes, 0);
        assert_eq!(l.hit_bytes, 8192);
        assert_eq!(l.dedup_bytes, 0, "LRU never dedups");
        assert!(c.probe(obj(1), 0, 8192));
        assert_eq!(c.used_bytes(), 8192);
        assert_eq!(c.logical_bytes(), 8192);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 2,
                misses: 2,
                dedup_hits: 0
            }
        );
    }

    #[test]
    fn partial_coverage() {
        let mut c = PageCache::new(1 << 20, 4096);
        c.admit(obj(1), 0, 4096);
        // second chunk missing
        assert_eq!(c.lookup(obj(1), 0, 8192).miss_bytes, 4096);
        assert!(!c.probe(obj(1), 0, 8192));
        assert_eq!(c.lookup(obj(1), 0, 8192).admission(), Admission::Miss);
    }

    #[test]
    fn unaligned_ranges_cover_their_chunks() {
        let mut c = PageCache::new(1 << 20, 4096);
        c.admit(obj(1), 100, 1); // touches chunk 0
        assert!(c.probe(obj(1), 0, 10));
        assert!(!c.probe(obj(1), 4096, 1));
        // range straddling a boundary needs both chunks
        c.admit(obj(1), 4000, 200);
        assert!(c.probe(obj(1), 4000, 200));
        assert_eq!(c.used_bytes(), 2 * 4096);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = PageCache::new(3 * 4096, 4096);
        c.admit(obj(1), 0, 4096); // chunk 0
        c.admit(obj(1), 4096, 4096); // chunk 1
        c.admit(obj(1), 8192, 4096); // chunk 2
                                     // touch chunk 0 so chunk 1 is LRU
        assert_eq!(c.lookup(obj(1), 0, 4096).miss_bytes, 0);
        c.admit(obj(1), 12288, 4096); // chunk 3 evicts chunk 1
        assert!(c.probe(obj(1), 0, 4096));
        assert!(!c.probe(obj(1), 4096, 4096));
        assert!(c.probe(obj(1), 8192, 4096));
        assert!(c.probe(obj(1), 12288, 4096));
        assert_eq!(c.used_bytes(), 3 * 4096);
    }

    /// Regression test pinning eviction order exactly: every touch or
    /// insert moves one chunk to the MRU end, so LRU ties are impossible
    /// by construction and the eviction sequence is fully determined by
    /// the access sequence. If chunks admitted in one call ever entered
    /// the list out of offset order, this test fails.
    #[test]
    fn eviction_order_is_pinned_by_unique_ticks() {
        let mut c = PageCache::new(4 * 4096, 4096);
        // Admit chunks 0..4 in one call: internal order must be 0,1,2,3.
        c.admit(obj(1), 0, 4 * 4096);
        // Touch 1 then 0: LRU order now 2,3,1,0.
        c.admit(obj(1), 4096, 4096);
        c.admit(obj(1), 0, 4096);
        // Each new chunk evicts exactly the predicted victim.
        let expect_victims = [8192u64, 12288, 4096, 0];
        for (i, &victim) in expect_victims.iter().enumerate() {
            let fresh = (4 + i as u64) * 4096;
            c.admit(obj(1), fresh, 4096);
            assert!(
                !c.probe(obj(1), victim, 4096),
                "admitting chunk {} must evict offset {victim}",
                4 + i
            );
            assert_eq!(c.used_bytes(), 4 * 4096);
        }
    }

    #[test]
    fn evict_to_fit_frees_exactly_enough() {
        let mut c = PageCache::new(4 * 4096, 4096);
        c.admit(obj(1), 0, 4 * 4096);
        c.evict_to_fit(2 * 4096);
        assert_eq!(c.used_bytes(), 2 * 4096);
        // Oldest two chunks went first.
        assert!(!c.probe(obj(1), 0, 4096));
        assert!(!c.probe(obj(1), 4096, 4096));
        assert!(c.probe(obj(1), 8192, 2 * 4096));
        // Asking for more than capacity empties the cache and stops.
        c.evict_to_fit(1 << 30);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = PageCache::new(10 * 4096, 4096);
        for i in 0..100 {
            c.admit(obj(1), i * 4096, 4096);
            assert!(c.used_bytes() <= c.capacity_bytes());
        }
        assert_eq!(c.used_bytes(), 10 * 4096);
    }

    #[test]
    fn objects_are_disjoint() {
        let mut c = PageCache::new(1 << 20, 4096);
        c.admit(obj(1), 0, 4096);
        assert_eq!(c.lookup(obj(2), 0, 4096).miss_bytes, 4096);
        c.admit(obj(2), 0, 4096);
        c.evict_object(obj(1));
        assert!(!c.probe(obj(1), 0, 4096));
        assert!(c.probe(obj(2), 0, 4096));
        assert_eq!(c.used_bytes(), 4096);
    }

    #[test]
    fn clear_resets() {
        let mut c = PageCache::new(1 << 20, 4096);
        c.admit(obj(1), 0, 65536);
        c.clear();
        assert_eq!(c.used_bytes(), 0);
        assert!(!c.probe(obj(1), 0, 4096));
    }

    #[test]
    fn zero_length_range_is_fully_cached() {
        let mut c = PageCache::new(1 << 20, 4096);
        assert_eq!(c.lookup(obj(1), 500, 0).miss_bytes, 0);
        assert!(c.probe(obj(1), 500, 0));
    }
}
