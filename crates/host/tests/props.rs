//! Property-based tests of the page cache and guest filesystem against
//! simple reference models.

use std::collections::BTreeSet;

use proptest::prelude::*;
use vread_host::cache::PageCache;
use vread_host::cas::CasStore;
use vread_host::fs::{FsError, GuestFs, ObjectId};
use vread_host::store::BlockStore;

#[derive(Debug, Clone)]
enum CacheOp {
    Insert { obj: u64, off: u64, len: u64 },
    Query { obj: u64, off: u64, len: u64 },
    EvictObj { obj: u64 },
    Clear,
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u64..3, 0u64..1 << 16, 1u64..1 << 14).prop_map(|(obj, off, len)| CacheOp::Insert {
            obj,
            off,
            len
        }),
        (0u64..3, 0u64..1 << 16, 1u64..1 << 14).prop_map(|(obj, off, len)| CacheOp::Query {
            obj,
            off,
            len
        }),
        (0u64..3).prop_map(|obj| CacheOp::EvictObj { obj }),
        Just(CacheOp::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache never exceeds capacity and, while capacity is not
    /// exceeded, agrees with an exact reference set of chunks.
    #[test]
    fn cache_matches_reference(ops in proptest::collection::vec(cache_op(), 1..60)) {
        const CHUNK: u64 = 4096;
        const CAP: u64 = 64 * CHUNK;
        let mut cache = PageCache::new(CAP, CHUNK);
        let mut reference: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut overflowed = false;

        let chunks = |off: u64, len: u64| {
            let first = off / CHUNK;
            let last = (off + len - 1) / CHUNK;
            first..=last
        };

        for op in &ops {
            match *op {
                CacheOp::Insert { obj, off, len } => {
                    cache.admit(ObjectId::from_raw(obj), off, len);
                    for c in chunks(off, len) {
                        reference.insert((obj, c));
                    }
                    if reference.len() as u64 * CHUNK > CAP {
                        overflowed = true; // reference has no eviction
                    }
                }
                CacheOp::Query { obj, off, len } => {
                    let covered = cache.probe(ObjectId::from_raw(obj), off, len);
                    if !overflowed {
                        let expect = chunks(off, len).all(|c| reference.contains(&(obj, c)));
                        prop_assert_eq!(covered, expect, "query divergence before overflow");
                    } else if covered {
                        // anything cached must at least exist in the reference
                        for c in chunks(off, len) {
                            prop_assert!(reference.contains(&(obj, c)));
                        }
                    }
                }
                CacheOp::EvictObj { obj } => {
                    cache.evict_object(ObjectId::from_raw(obj));
                    reference.retain(|&(o, _)| o != obj);
                }
                CacheOp::Clear => {
                    cache.clear();
                    reference.clear();
                    overflowed = false;
                }
            }
            prop_assert!(cache.used_bytes() <= CAP, "capacity exceeded");
        }
    }

    /// Without content bindings, the CAS store is observationally
    /// identical to the LRU cache: same lookup outcomes, same coverage,
    /// same residency and statistics, for any op sequence. (Bound-range
    /// behavior is covered by the unit tests and the scenario-level
    /// equivalence test in `vread-bench`.)
    #[test]
    fn unbound_cas_store_matches_lru(ops in proptest::collection::vec(cache_op(), 1..60)) {
        const CHUNK: u64 = 4096;
        const CAP: u64 = 64 * CHUNK;
        let mut lru = PageCache::new(CAP, CHUNK);
        let mut cas = CasStore::new(CAP, CHUNK);
        for op in &ops {
            match *op {
                CacheOp::Insert { obj, off, len } => {
                    let o = ObjectId::from_raw(obj);
                    prop_assert_eq!(lru.admit(o, off, len), cas.admit(o, off, len));
                }
                CacheOp::Query { obj, off, len } => {
                    let o = ObjectId::from_raw(obj);
                    prop_assert_eq!(lru.lookup(o, off, len), cas.lookup(o, off, len));
                    prop_assert_eq!(lru.probe(o, off, len), cas.probe(o, off, len));
                }
                CacheOp::EvictObj { obj } => {
                    lru.evict_object(ObjectId::from_raw(obj));
                    cas.evict_object(ObjectId::from_raw(obj));
                }
                CacheOp::Clear => {
                    lru.clear();
                    cas.clear();
                }
            }
            prop_assert_eq!(lru.used_bytes(), cas.used_bytes());
            prop_assert_eq!(lru.logical_bytes(), cas.logical_bytes());
            prop_assert_eq!(lru.stats(), cas.stats());
        }
    }

    /// GuestFs resolve() agrees with a byte-level reference model for
    /// random create/append sequences, including interleaved files.
    #[test]
    fn fs_resolve_matches_reference(
        appends in proptest::collection::vec((0usize..4, 1u64..5000), 1..40),
        probe in (0usize..4, 0u64..10_000, 1u64..6_000),
    ) {
        let mut fs = GuestFs::new(ObjectId::from_raw(1));
        // reference: per file, the list of image offsets of each byte
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); 4];
        let mut ids = Vec::new();
        for i in 0..4 {
            ids.push(fs.create(&format!("/f{i}")).unwrap());
        }
        let mut image_pos = 0u64;
        for &(fi, len) in &appends {
            fs.append(ids[fi], len);
            for b in 0..len {
                model[fi].push(image_pos + b);
            }
            image_pos += len;
        }
        let (fi, off, len) = probe;
        let size = fs.size(ids[fi]);
        prop_assert_eq!(size as usize, model[fi].len());
        let mut extents = Vec::new();
        match fs.resolve(ids[fi], off, len, &mut extents) {
            Ok(()) => {
                prop_assert!(off + len <= size);
                // flatten extents into byte positions
                let mut got = Vec::new();
                for e in &extents {
                    for b in 0..e.len {
                        got.push(e.image_offset + b);
                    }
                }
                let want: Vec<u64> =
                    model[fi][off as usize..(off + len) as usize].to_vec();
                prop_assert_eq!(got, want, "extent bytes diverge from model");
            }
            Err(FsError::BeyondEof(..)) => {
                prop_assert!(off + len > size, "spurious EOF error");
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    /// Snapshots are immune to later namespace changes until refreshed.
    #[test]
    fn snapshot_isolation(paths in proptest::collection::hash_set("[a-z]{1,6}", 1..8)) {
        let mut fs = GuestFs::new(ObjectId::from_raw(2));
        let paths: Vec<String> = paths.into_iter().collect();
        let (pre, post) = paths.split_at(paths.len() / 2);
        for p in pre {
            fs.create(&format!("/{p}")).unwrap();
        }
        let snap = fs.snapshot();
        for p in post {
            fs.create(&format!("/{p}")).unwrap();
        }
        for p in pre {
            let hit = snap.lookup(&format!("/{p}")).is_some();
            prop_assert!(hit);
        }
        for p in post {
            let miss = snap.lookup(&format!("/{p}")).is_none();
            prop_assert!(miss);
        }
        let mut snap2 = snap.clone();
        snap2.refresh(&fs);
        for p in paths.iter() {
            let hit2 = snap2.lookup(&format!("/{p}")).is_some();
            prop_assert!(hit2);
        }
    }
}
