//! One nesting, no cycle: `sum` takes `b` while holding `a`. No order
//! among locks could make this deadlock, but the workspace holds at most
//! one lock per thread, so the lock-order pass must flag the edge.

use std::sync::Mutex;

pub struct Pair {
    pub a: Mutex<u64>,
    pub b: Mutex<u64>,
}

impl Pair {
    pub fn sum(&self) -> u64 {
        let x = self.a.lock().unwrap();
        let y = self.b.lock().unwrap();
        *x + *y
    }
}
