// Fixture: point operations on Fx maps, and iteration of ordered maps
// that merely share a file with them, must not fire.
use std::collections::BTreeMap;
use vread_sim::fxhash::{FxHashMap, FxHashSet};

struct Client {
    reads: FxHashMap<u64, u32>,
    dead: FxHashSet<usize>,
    tokens: BTreeMap<u64, u64>,
}

impl Client {
    fn on_read(&mut self, rid: u64) -> Option<u32> {
        self.dead.insert(3);
        if self.dead.contains(&3) {
            self.reads.entry(rid).or_insert(0);
        }
        self.reads.remove(&rid)
    }

    fn first_token(&self) -> Option<u64> {
        // Iterating the BTreeMap is fine: key order.
        self.tokens.values().next().copied()
    }
}

fn docs() {
    // FxHashMap reads.iter() in a comment must not fire.
    let _s = "for r in reads.iter() { dead.drain() }";
}
