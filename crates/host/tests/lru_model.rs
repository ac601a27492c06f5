//! Differential test of [`PageCache`] against a tick-ordered reference
//! LRU: every touch stamps a chunk with a fresh tick, and the victim is
//! the chunk with the smallest tick. The two must agree on every
//! observable — lookup outcomes, admissions, probes, statistics and
//! residency — for any sequence of operations.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vread_host::cache::PageCache;
use vread_host::fs::ObjectId;
use vread_host::store::{Admission, BlockStore, CacheStats, Lookup};

const CHUNK: u64 = 4096;

/// The reference: chunk -> last-use tick, and tick -> chunk.
struct TickLru {
    capacity: u64,
    used: u64,
    tick: u64,
    last_use: BTreeMap<(u64, u64), u64>,
    by_tick: BTreeMap<u64, (u64, u64)>,
    stats: CacheStats,
}

impl TickLru {
    fn new(capacity: u64) -> Self {
        TickLru {
            capacity,
            used: 0,
            tick: 0,
            last_use: BTreeMap::new(),
            by_tick: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn chunks(off: u64, len: u64) -> std::ops::Range<u64> {
        if len == 0 {
            0..0
        } else {
            off / CHUNK..(off + len - 1) / CHUNK + 1
        }
    }

    fn stamp(&mut self, key: (u64, u64)) {
        if let Some(old) = self.last_use.get(&key) {
            self.by_tick.remove(old);
        } else {
            self.used += CHUNK;
        }
        self.tick += 1;
        self.last_use.insert(key, self.tick);
        self.by_tick.insert(self.tick, key);
    }

    fn evict_lru(&mut self) -> bool {
        let Some((_, key)) = self.by_tick.pop_first() else {
            return false;
        };
        self.last_use.remove(&key);
        self.used -= CHUNK;
        true
    }

    fn lookup(&mut self, obj: u64, off: u64, len: u64) -> Lookup {
        let mut out = Lookup::default();
        for c in Self::chunks(off, len) {
            if self.last_use.contains_key(&(obj, c)) {
                self.stamp((obj, c));
                self.stats.hits += 1;
                out.hit_bytes += CHUNK;
            } else {
                self.stats.misses += 1;
                out.miss_bytes += CHUNK;
            }
        }
        out
    }

    fn admit(&mut self, obj: u64, off: u64, len: u64) -> Admission {
        let mut any_miss = false;
        for c in Self::chunks(off, len) {
            if !self.last_use.contains_key(&(obj, c)) {
                any_miss = true;
                while self.used + CHUNK > self.capacity {
                    assert!(self.evict_lru());
                }
            }
            self.stamp((obj, c));
        }
        if any_miss {
            Admission::Miss
        } else {
            Admission::Hit
        }
    }

    fn probe(&self, obj: u64, off: u64, len: u64) -> bool {
        Self::chunks(off, len).all(|c| self.last_use.contains_key(&(obj, c)))
    }

    fn evict_to_fit(&mut self, bytes: u64) {
        let budget = self.capacity.saturating_sub(bytes);
        while self.used > budget && self.evict_lru() {}
    }

    fn evict_object(&mut self, obj: u64) {
        let keys: Vec<(u64, u64)> = self
            .last_use
            .keys()
            .filter(|k| k.0 == obj)
            .copied()
            .collect();
        for k in keys {
            let t = self.last_use.remove(&k).expect("present");
            self.by_tick.remove(&t);
            self.used -= CHUNK;
        }
    }

    fn clear(&mut self) {
        self.last_use.clear();
        self.by_tick.clear();
        self.used = 0;
    }
}

#[derive(Debug, Clone)]
enum Op {
    Lookup { obj: u64, off: u64, len: u64 },
    Admit { obj: u64, off: u64, len: u64 },
    Probe { obj: u64, off: u64, len: u64 },
    EvictToFit { bytes: u64 },
    EvictObject { obj: u64 },
    Clear,
}

/// Unaligned ranges over 12 chunks of 3 objects, up to 4 chunks long
/// (including empty ranges).
fn range() -> impl Strategy<Value = (u64, u64, u64)> {
    (0u64..3, 0u64..12 * CHUNK, 0u64..4 * CHUNK)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        range().prop_map(|(obj, off, len)| Op::Lookup { obj, off, len }),
        range().prop_map(|(obj, off, len)| Op::Admit { obj, off, len }),
        range().prop_map(|(obj, off, len)| Op::Admit { obj, off, len }),
        range().prop_map(|(obj, off, len)| Op::Probe { obj, off, len }),
        (0u64..10 * CHUNK).prop_map(|bytes| Op::EvictToFit { bytes }),
        (0u64..3).prop_map(|obj| Op::EvictObject { obj }),
        Just(Op::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn page_cache_matches_tick_lru(
        cap_chunks in 1u64..9,
        ops in proptest::collection::vec(op(), 1..80),
    ) {
        let mut cache = PageCache::new(cap_chunks * CHUNK, CHUNK);
        let mut model = TickLru::new(cap_chunks * CHUNK);
        for op in &ops {
            match *op {
                Op::Lookup { obj, off, len } => {
                    let got = cache.lookup(ObjectId::from_raw(obj), off, len);
                    prop_assert_eq!(got, model.lookup(obj, off, len), "{:?}", op);
                }
                Op::Admit { obj, off, len } => {
                    let got = cache.admit(ObjectId::from_raw(obj), off, len);
                    prop_assert_eq!(got, model.admit(obj, off, len), "{:?}", op);
                }
                Op::Probe { obj, off, len } => {
                    let got = cache.probe(ObjectId::from_raw(obj), off, len);
                    prop_assert_eq!(got, model.probe(obj, off, len), "{:?}", op);
                }
                Op::EvictToFit { bytes } => {
                    cache.evict_to_fit(bytes);
                    model.evict_to_fit(bytes);
                }
                Op::EvictObject { obj } => {
                    cache.evict_object(ObjectId::from_raw(obj));
                    model.evict_object(obj);
                }
                Op::Clear => {
                    cache.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(cache.used_bytes(), model.used);
            prop_assert_eq!(cache.stats(), model.stats);
            // Full residency check: every chunk either side holds.
            for obj in 0..3 {
                for c in 0..16 {
                    let got = cache.probe(ObjectId::from_raw(obj), c * CHUNK, CHUNK);
                    prop_assert_eq!(got, model.probe(obj, c * CHUNK, CHUNK));
                }
            }
        }
    }
}
