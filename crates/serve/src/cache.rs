//! A sharded LRU cache over `(model epoch, query fingerprint, τ)` that
//! understands monotonicity.
//!
//! An estimate depends on the query only through its extracted bit vector and
//! on θ only through the transformed threshold `τ = h_thr(θ)` — so the cache
//! key is `(epoch, fingerprint(bits), τ)` and every θ that lands in the same
//! τ-bucket shares an entry. The epoch (from [`crate::registry`]) makes
//! entries written under an older model unreachable after a hot-swap without
//! any explicit invalidation: they simply age out of the LRU.
//!
//! **The monotone-bound trick.** For a monotone estimator, `ĉ(τ)` is
//! non-decreasing in τ. If a lookup at τ misses but the same `(epoch, fp)`
//! has cached neighbors τ₁ < τ < τ₂, then `ĉ(τ₁) ≤ ĉ(τ) ≤ ĉ(τ₂)`: the cache
//! returns that interval as [`CacheLookup::Bounds`]. A non-monotone estimator
//! could not offer this — neighboring entries would say nothing about the
//! value in between. The serving layer short-circuits when the bracket is
//! tight (degenerate brackets `lo == hi` pin the value *exactly*, so even a
//! zero-tolerance service benefits).

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Outcome of a cache probe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CacheLookup {
    /// The exact `(epoch, fp, τ)` entry was present.
    Exact(f64),
    /// No exact entry, but cached neighbors bracket τ: by monotonicity the
    /// true estimate lies in `[lo, hi]`.
    Bounds {
        lo: f64,
        hi: f64,
    },
    Miss,
}

const NIL: usize = usize::MAX;
/// Shard count (power of two; a handful of shards is plenty to keep a
/// worker pool of ≤ ~32 threads from contending on one mutex).
const N_SHARDS: usize = 16;

type Key = (u64, u64, usize); // (model epoch, query fingerprint, τ)

struct Node {
    key: Key,
    value: f64,
    prev: usize,
    next: usize,
}

/// One LRU shard: an intrusive doubly-linked recency list over a slab, plus
/// a per-`(epoch, fp)` ordered τ-index for exact and bracket probes.
struct Shard {
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    /// `(epoch, fp)` → τ → slab index. `BTreeMap` gives the bracket probe
    /// (`range(..τ).next_back()` / `range(τ+1..).next()`) in `O(log k)`.
    index: HashMap<(u64, u64), BTreeMap<usize, usize>>,
    len: usize,
    capacity: usize,
}

enum Probe {
    Exact(usize),
    Bracket(usize, usize),
    Miss,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            index: HashMap::new(),
            len: 0,
            capacity,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.detach(idx);
            self.push_front(idx);
        }
    }

    fn probe(&self, epoch: u64, fp: u64, tau: usize) -> Probe {
        let Some(taus) = self.index.get(&(epoch, fp)) else {
            return Probe::Miss;
        };
        if let Some(&idx) = taus.get(&tau) {
            return Probe::Exact(idx);
        }
        let below = taus.range(..tau).next_back().map(|(_, &i)| i);
        let above = taus.range(tau + 1..).next().map(|(_, &i)| i);
        match (below, above) {
            (Some(lo), Some(hi)) => Probe::Bracket(lo, hi),
            _ => Probe::Miss,
        }
    }

    fn lookup(&mut self, epoch: u64, fp: u64, tau: usize) -> CacheLookup {
        match self.probe(epoch, fp, tau) {
            Probe::Exact(idx) => {
                let v = self.nodes[idx].value;
                self.touch(idx);
                CacheLookup::Exact(v)
            }
            Probe::Bracket(lo_idx, hi_idx) => {
                let (lo, hi) = (self.nodes[lo_idx].value, self.nodes[hi_idx].value);
                self.touch(lo_idx);
                self.touch(hi_idx);
                CacheLookup::Bounds { lo, hi }
            }
            Probe::Miss => CacheLookup::Miss,
        }
    }

    fn insert(&mut self, epoch: u64, fp: u64, tau: usize, value: f64) {
        if self.capacity == 0 {
            // Disabled shard: never allocate a node just to evict it.
            return;
        }
        if let Some(&idx) = self.index.get(&(epoch, fp)).and_then(|t| t.get(&tau)) {
            // Re-computation under the same epoch is deterministic, so the
            // value cannot actually change — but refresh recency regardless.
            self.nodes[idx].value = value;
            self.touch(idx);
            return;
        }
        let node = Node {
            key: (epoch, fp, tau),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.push_front(idx);
        self.index.entry((epoch, fp)).or_default().insert(tau, idx);
        self.len += 1;
        while self.len > self.capacity {
            self.evict_tail();
        }
    }

    fn evict_tail(&mut self) {
        let idx = self.tail;
        debug_assert_ne!(idx, NIL, "evict on empty shard");
        self.detach(idx);
        let (epoch, fp, tau) = self.nodes[idx].key;
        if let Some(taus) = self.index.get_mut(&(epoch, fp)) {
            taus.remove(&tau);
            if taus.is_empty() {
                self.index.remove(&(epoch, fp));
            }
        }
        self.free.push(idx);
        self.len -= 1;
    }
}

/// The sharded cache. A `capacity` of 0 disables it entirely (every lookup
/// misses without even touching a shard lock, every insert is dropped) —
/// useful for apples-to-apples compute benchmarks.
pub struct EstimateCache {
    shards: Vec<Mutex<Shard>>,
    /// `capacity > 0`, hoisted out of the shards so the disabled cache costs
    /// one branch on the hot path, not a mutex acquisition.
    enabled: bool,
}

impl EstimateCache {
    /// Total capacity, split evenly across shards (rounded up per shard).
    pub fn new(capacity: usize) -> EstimateCache {
        let per_shard = capacity.div_ceil(N_SHARDS);
        EstimateCache {
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            enabled: capacity > 0,
        }
    }

    fn shard(&self, epoch: u64, fp: u64) -> &Mutex<Shard> {
        // fp is already a hash; fold the epoch in so successive model
        // generations spread across shards too.
        let h = fp ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h as usize) & (N_SHARDS - 1)]
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn lookup(&self, epoch: u64, fp: u64, tau: usize) -> CacheLookup {
        if !self.enabled {
            return CacheLookup::Miss;
        }
        let _one = cardest_obs::one_lock();
        self.shard(epoch, fp)
            .lock()
            .expect("cache poisoned")
            .lookup(epoch, fp, tau)
    }

    pub fn insert(&self, epoch: u64, fp: u64, tau: usize, value: f64) {
        if !self.enabled {
            return;
        }
        let _one = cardest_obs::one_lock();
        self.shard(epoch, fp)
            .lock()
            .expect("cache poisoned")
            .insert(epoch, fp, tau, value);
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let _one = cardest_obs::one_lock();
                s.lock().expect("cache poisoned").len
            })
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live `(epoch, fp)` groups in the τ-indexes across all
    /// shards. Every group holds at least one entry — eviction removes
    /// emptied groups — so this never exceeds [`EstimateCache::len`]; it is
    /// the invariant that keeps hot-swap churn (a new epoch per publish)
    /// from accumulating empty index maps.
    pub fn index_groups(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let _one = cardest_obs::one_lock();
                s.lock().expect("cache poisoned").index.len()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_hit_roundtrip() {
        let cache = EstimateCache::new(64);
        assert_eq!(cache.lookup(1, 42, 3), CacheLookup::Miss);
        cache.insert(1, 42, 3, 17.5);
        assert_eq!(cache.lookup(1, 42, 3), CacheLookup::Exact(17.5));
        // A different epoch never sees the entry (hot-swap isolation).
        assert_eq!(cache.lookup(2, 42, 3), CacheLookup::Miss);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn bracket_returns_monotone_bounds() {
        let cache = EstimateCache::new(64);
        cache.insert(1, 7, 2, 10.0);
        cache.insert(1, 7, 8, 40.0);
        match cache.lookup(1, 7, 5) {
            CacheLookup::Bounds { lo, hi } => {
                assert_eq!(lo, 10.0);
                assert_eq!(hi, 40.0);
            }
            other => panic!("expected bounds, got {other:?}"),
        }
        // One-sided neighbors are not a bracket: monotonicity gives only a
        // lower (or upper) bound, which cannot short-circuit.
        assert_eq!(cache.lookup(1, 7, 9), CacheLookup::Miss);
        assert_eq!(cache.lookup(1, 7, 1), CacheLookup::Miss);
        // Nearest neighbors win over distant ones.
        cache.insert(1, 7, 4, 20.0);
        match cache.lookup(1, 7, 5) {
            CacheLookup::Bounds { lo, hi } => {
                assert_eq!(lo, 20.0);
                assert_eq!(hi, 40.0);
            }
            other => panic!("expected tighter bounds, got {other:?}"),
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single-key-space shard behavior: same (epoch, fp) keeps all
        // entries in one shard, so per-shard capacity is what's exercised.
        let cache = EstimateCache::new(0); // capacity 0 => disabled
        cache.insert(1, 1, 1, 5.0);
        assert_eq!(cache.lookup(1, 1, 1), CacheLookup::Miss);
        assert!(cache.is_empty());
        assert!(!cache.is_enabled());

        let cache = EstimateCache::new(3 * N_SHARDS); // 3 per shard
        for tau in 0..3 {
            cache.insert(1, 9, tau, tau as f64);
        }
        // Touch τ=0 so τ=1 becomes the LRU victim.
        assert_eq!(cache.lookup(1, 9, 0), CacheLookup::Exact(0.0));
        cache.insert(1, 9, 10, 99.0);
        // τ=1 was evicted: no longer exact (its surviving neighbors now
        // answer with a monotone bracket instead).
        assert_eq!(
            cache.lookup(1, 9, 1),
            CacheLookup::Bounds { lo: 0.0, hi: 2.0 }
        );
        assert_eq!(cache.lookup(1, 9, 0), CacheLookup::Exact(0.0));
        assert_eq!(cache.lookup(1, 9, 2), CacheLookup::Exact(2.0));
        assert_eq!(cache.lookup(1, 9, 10), CacheLookup::Exact(99.0));
    }

    #[test]
    fn eviction_prunes_bracket_index() {
        let cache = EstimateCache::new(2 * N_SHARDS); // 2 per shard
        cache.insert(1, 5, 1, 1.0);
        cache.insert(1, 5, 9, 9.0);
        assert!(matches!(cache.lookup(1, 5, 4), CacheLookup::Bounds { .. }));
        // Two more inserts evict both original entries (bracket touch
        // refreshed them, so insert order decides: τ=1 and τ=9 were both
        // touched by the bracket probe; pushing two new keys evicts the two
        // oldest among the four).
        cache.insert(1, 5, 2, 2.0);
        cache.insert(1, 5, 3, 3.0);
        assert_eq!(cache.len(), 2);
        // Whatever survived, probing never dangles.
        for tau in 0..12 {
            let _ = cache.lookup(1, 5, tau);
        }
    }

    #[test]
    fn zero_capacity_inserts_allocate_nothing() {
        // The documented "disable" mode must be free: no node allocation,
        // no linking, no immediate eviction — and no shard-index entries.
        let cache = EstimateCache::new(0);
        for fp in 0..100 {
            cache.insert(1, fp, 3, fp as f64);
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.index_groups(), 0);
        assert!(!cache.is_enabled());
        assert_eq!(cache.lookup(1, 0, 3), CacheLookup::Miss);
        // Defense in depth: even a direct shard insert at capacity 0 is a
        // no-op (no alloc-then-evict churn).
        let mut shard = Shard::new(0);
        shard.insert(1, 1, 1, 1.0);
        assert_eq!(shard.len, 0);
        assert!(shard.nodes.is_empty(), "no node may be allocated");
        assert!(shard.index.is_empty());
    }

    #[test]
    fn eviction_removes_emptied_index_groups_under_epoch_churn() {
        // Hot-swap churn: every publish bumps the epoch, so old (epoch, fp)
        // groups stop being hit and age out. If eviction left emptied
        // BTreeMaps behind, `index` would grow without bound; instead every
        // live group holds ≥ 1 entry, so groups ≤ entries always.
        let capacity = 2 * N_SHARDS;
        let cache = EstimateCache::new(capacity);
        for epoch in 0..200u64 {
            for fp in 0..3u64 {
                cache.insert(epoch, fp, (epoch % 7) as usize, epoch as f64);
            }
        }
        assert!(cache.len() <= capacity, "LRU bound violated");
        assert!(
            cache.index_groups() <= cache.len(),
            "emptied (epoch, fp) groups leaked: {} groups for {} entries",
            cache.index_groups(),
            cache.len()
        );
        // Distinct (epoch, fp, τ) keys ⇒ exactly one entry per group here.
        assert_eq!(cache.index_groups(), cache.len());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache = EstimateCache::new(16);
        cache.insert(3, 3, 3, 1.0);
        cache.insert(3, 3, 3, 2.0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(3, 3, 3), CacheLookup::Exact(2.0));
    }
}
