//! **CardNet / CardNet-A** — the paper's contribution: monotonic deep
//! cardinality estimation of similarity selection.
//!
//! The estimator is `ĉ = g ∘ h`: feature extraction `h` (the `cardest-fx`
//! crate) maps any record + threshold into a Hamming space, and the
//! regression `g` (this crate) predicts the cardinality as the sum of
//! per-distance decoders `g(x, τ) = Σ_{i=0..τ} g_i(x)` (§3.3, Eq. 1).
//! Because every `g_i` is deterministic and non-negative (ReLU decoder over a
//! deterministic encoder), the estimate is monotonically increasing in the
//! threshold — Lemmas 1 and 2.
//!
//! Modules:
//! * [`estimator`] — the [`CardinalityEstimator`] trait every method in the
//!   workspace implements (the v2 prepare → curve → estimate API:
//!   [`PreparedQuery`], [`CardinalityCurve`], [`Estimate`], batch-first
//!   [`estimator::CardinalityEstimator::estimate_batch`]), plus the trained
//!   CardNet wrapper;
//! * [`metrics`] — per-thread extraction/encoder/decoder counters that make
//!   the "one encoder pass per τ-sweep" claim checkable;
//! * [`features`] — workload → training tensors (per-distance targets, `P(τ)`);
//! * [`model`] — the encoder Ψ (VAE ⊕ distance embeddings ⊕ shared Φ),
//!   decoders, and the accelerated Φ′ of §7;
//! * [`train`] — MSLE + dynamic per-distance loss (Eq. 2–3), validation-driven
//!   ω updates, VAE pre-training, snapshots;
//! * [`incremental`] — incremental learning for dataset updates (§8).
//!
//! Train a small CardNet and observe the structural guarantee — estimates
//! never decrease as the threshold grows, even on a barely trained model:
//!
//! ```
//! use cardest_core::{train_cardnet, CardNetConfig, CardNetEstimator, CardinalityEstimator};
//! use cardest_core::train::TrainerOptions;
//! use cardest_data::synth::{hm_imagenet, SynthConfig};
//! use cardest_data::Workload;
//! use cardest_fx::build_extractor;
//!
//! let ds = hm_imagenet(SynthConfig::new(150, 9));
//! let fx = build_extractor(&ds, 10, 1);
//! let split = Workload::sample_from(&ds, 0.3, 8, 2).split(3);
//!
//! let mut cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
//! cfg.phi_hidden = vec![16];
//! cfg.z_dim = 8;
//! cfg = cfg.without_vae();
//! let opts = TrainerOptions { epochs: 2, vae_epochs: 0, ..TrainerOptions::quick() };
//! let (trainer, report) = train_cardnet(fx.as_ref(), &split.train, &split.valid, cfg, opts);
//! assert!(report.best_val_msle.is_finite());
//!
//! let est = CardNetEstimator::from_trainer(fx, trainer);
//! let query = ds.records[0].clone();
//! let estimates: Vec<f64> =
//!     (0..=10).map(|i| est.estimate(&query, ds.theta_max * f64::from(i) / 10.0)).collect();
//! assert!(estimates.windows(2).all(|w| w[1] >= w[0] - 1e-9), "not monotone: {estimates:?}");
//!
//! // τ-sweeps should go through the prepared-query API instead: feature
//! // extraction and the encoder run once, the whole curve comes back in one
//! // call, and the final point is bit-identical to `estimate`.
//! let prepared = est.prepare(&query);
//! let curve = est.curve(&prepared, ds.theta_max);
//! assert!(curve.is_non_decreasing());
//! assert_eq!(curve.last().to_bits(), est.estimate(&query, ds.theta_max).to_bits());
//! ```

#![forbid(unsafe_code)]

pub mod estimator;
pub mod features;
pub mod incremental;
pub mod metrics;
pub mod model;
pub mod snapshot;
pub mod train;

pub use cardest_nn::{KernelBackend, Parallelism};
pub use estimator::{
    next_instance_id, prepared_feature_matrix, prepared_features_into, CardNetEstimator,
    CardinalityCurve, CardinalityEstimator, Estimate, PreparedQuery,
};
pub use features::{prepare_tensors, TrainTensors};
pub use incremental::{IncrementalLearner, UpdateOutcome};
pub use model::{CardNetConfig, CardNetModel, EncoderKind};
pub use snapshot::{Snapshot, SnapshotError};
pub use train::{train_cardnet, TrainReport, Trainer, TrainerOptions};
