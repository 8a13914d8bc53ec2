//! A nesting only visible through one level of call expansion: `outer`
//! holds `conns` across a call to `inner`, which takes `stats`. A reasoned
//! allow on the call line waives it, so the tree lints clean while the
//! graph still records the `conns -> stats` edge.

use std::sync::Mutex;

pub struct State {
    pub conns: Mutex<u64>,
    pub stats: Mutex<u64>,
}

impl State {
    pub fn outer(&self) -> u64 {
        let c = self.conns.lock().unwrap();
        // lint: allow(lock-order) `stats` is a leaf: `inner` takes no other lock.
        *c + self.inner()
    }

    fn inner(&self) -> u64 {
        *self.stats.lock().unwrap()
    }
}
