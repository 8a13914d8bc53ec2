//! The model registry: named, `Arc`-wrapped estimators with epoch-tagged
//! hot-swap.
//!
//! Publishing is rare (a retrain completing); reading is the per-request hot
//! path. The registry therefore optimizes reads: every published model is an
//! immutable [`ServeModel`] behind an `Arc`, and a global `AtomicU64` epoch
//! is bumped on each publish. Workers hold a [`RegistryReader`] that caches
//! the `Arc`s it has resolved together with the epoch it observed — as long
//! as the epoch is unchanged, a read is **one atomic load plus a local
//! hash-map lookup, no lock**. Only when the epoch moved (someone published)
//! does the reader refresh its cache under the registry mutex.
//!
//! Because a swap replaces a whole `Arc` (never mutates a live model),
//! in-flight requests either see the old model or the new one in its
//! entirety — a half-written model is unrepresentable. Every estimate is
//! tagged with the epoch of the model that produced it, which doubles as the
//! cache-invalidation key: entries cached under an older epoch can never be
//! returned for a newer model.

use cardest_core::snapshot::{Snapshot, SnapshotError};
use cardest_core::{CardNetEstimator, CardinalityEstimator};
use cardest_fx::FeatureExtractor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An immutable published model: the unit of hot-swap.
pub struct ServeModel {
    /// Registry name this model was published under.
    pub name: String,
    /// Global publish counter at the time this model went live. Strictly
    /// increasing across the registry; tags every estimate and cache entry.
    pub epoch: u64,
    /// The trained estimator (extractor + model + weights).
    pub estimator: CardNetEstimator,
    /// Whether the estimator carries the monotonicity guarantee. Gates the
    /// cache's bound short-circuit: bracketing is only sound for monotone
    /// models.
    pub monotone: bool,
}

/// Named estimators with lock-free-read hot-swap.
pub struct ModelRegistry {
    models: Mutex<HashMap<String, Arc<ServeModel>>>,
    /// Bumped on every publish; readers revalidate their caches against it.
    epoch: AtomicU64,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    pub fn new() -> ModelRegistry {
        ModelRegistry {
            models: Mutex::new(HashMap::new()),
            epoch: AtomicU64::new(0),
        }
    }

    /// Publishes (or replaces) a model under `name`, returning the epoch the
    /// new model is tagged with. In-flight queries against the previous
    /// model finish on their own `Arc`; new lookups observe the swap.
    pub fn publish(&self, name: &str, estimator: CardNetEstimator) -> u64 {
        let monotone = estimator.is_monotonic();
        let _one = cardest_obs::one_lock();
        let mut models = self.models.lock().expect("registry poisoned");
        // The epoch is bumped under the same lock that installs the model, so
        // a reader that observes the new epoch also observes the new Arc.
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        models.insert(
            name.to_string(),
            Arc::new(ServeModel {
                name: name.to_string(),
                epoch,
                estimator,
                monotone,
            }),
        );
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// Validates a snapshot against the supplied extractor and publishes it —
    /// the safe path from a retrain ([`cardest_core::incremental`]) or a
    /// snapshot file to a live model. A snapshot whose decoder count, name,
    /// or dimensionality disagrees with the extractor is refused before it
    /// can serve a single query.
    pub fn publish_snapshot(
        &self,
        name: &str,
        snapshot: Snapshot,
        fx: Box<dyn FeatureExtractor>,
    ) -> Result<u64, SnapshotError> {
        let estimator = snapshot.into_estimator(fx)?;
        Ok(self.publish(name, estimator))
    }

    /// Current model for `name`, if any. Takes the registry lock briefly;
    /// hot paths should go through a [`RegistryReader`] instead.
    pub fn get(&self, name: &str) -> Option<Arc<ServeModel>> {
        let _one = cardest_obs::one_lock();
        self.models
            .lock()
            .expect("registry poisoned")
            .get(name)
            .cloned()
    }

    /// The global publish counter.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    pub fn model_names(&self) -> Vec<String> {
        let _one = cardest_obs::one_lock();
        let mut names: Vec<String> = self
            .models
            .lock()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// A reader handle with its own epoch-validated cache (one per worker).
    pub fn reader(self: &Arc<Self>) -> RegistryReader {
        RegistryReader {
            registry: Arc::clone(self),
            seen_epoch: 0,
            cache: HashMap::new(),
        }
    }
}

/// A per-worker read handle: resolves names to models without locking as
/// long as nothing was published since the last resolution.
pub struct RegistryReader {
    registry: Arc<ModelRegistry>,
    seen_epoch: u64,
    cache: HashMap<String, Option<Arc<ServeModel>>>,
}

impl RegistryReader {
    /// Resolves `name`. Lock-free when the registry epoch is unchanged since
    /// the previous call; otherwise drops the stale cache and re-resolves
    /// under the registry lock.
    pub fn get(&mut self, name: &str) -> Option<Arc<ServeModel>> {
        let epoch = self.registry.epoch();
        if epoch != self.seen_epoch {
            self.cache.clear();
            self.seen_epoch = epoch;
        }
        if let Some(hit) = self.cache.get(name) {
            return hit.clone();
        }
        let resolved = self.registry.get(name);
        self.cache.insert(name.to_string(), resolved.clone());
        resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_estimator;

    #[test]
    fn publish_bumps_epoch_and_tags_models() {
        let reg = Arc::new(ModelRegistry::new());
        assert_eq!(reg.epoch(), 0);
        assert!(reg.get("m").is_none());
        let e1 = reg.publish("m", tiny_estimator(1));
        assert_eq!(e1, 1);
        let m1 = reg.get("m").expect("published");
        assert_eq!(m1.epoch, 1);
        assert!(m1.monotone);
        let e2 = reg.publish("m", tiny_estimator(2));
        assert_eq!(e2, 2);
        assert_eq!(reg.get("m").expect("swapped").epoch, 2);
        // The old Arc stays valid for holders.
        assert_eq!(m1.epoch, 1);
        assert_eq!(reg.model_names(), vec!["m".to_string()]);
    }

    #[test]
    fn reader_tracks_hot_swap() {
        let reg = Arc::new(ModelRegistry::new());
        reg.publish("m", tiny_estimator(3));
        let mut reader = reg.reader();
        assert_eq!(reader.get("m").expect("resolved").epoch, 1);
        // Cached (lock-free) resolution returns the same Arc.
        let again = reader.get("m").expect("cached");
        assert_eq!(again.epoch, 1);
        // A publish invalidates the cache on the next read.
        reg.publish("m", tiny_estimator(4));
        assert_eq!(reader.get("m").expect("refreshed").epoch, 2);
        assert!(reader.get("absent").is_none());
    }
}
