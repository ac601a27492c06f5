// Fixture: the seedless Fx aliases are still hash-ordered, so iterating
// them must fire exactly like the std types.
use vread_sim::fxhash::{FxHashMap, FxHashSet};

struct Client {
    reads: FxHashMap<u64, u32>,
    dead: FxHashSet<usize>,
}

impl Client {
    fn pending(&self) -> Vec<u64> {
        self.reads.keys().copied().collect() //~ unordered-iter
    }

    fn forget(&mut self) {
        self.dead.retain(|d| *d > 2); //~ unordered-iter
    }
}

fn walk(c: &Client) {
    let seen = FxHashSet::<u64>::default();
    for s in &seen { //~ unordered-iter
        let _ = s;
    }
    let mut by_id: FxHashMap<u64, u64> = FxHashMap::default();
    by_id.insert(1, 2);
    for (k, v) in by_id.drain() { //~ unordered-iter
        let _ = (k, v);
    }
    for d in c.dead.iter() { //~ unordered-iter
        let _ = d;
    }
}
