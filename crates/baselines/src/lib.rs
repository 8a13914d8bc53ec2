//! Competitor estimators from the paper's evaluation (§9.1.2).
//!
//! Three families, all implementing
//! [`cardest_core::CardinalityEstimator`]:
//!
//! * **Database methods** — [`db_us::DbUs`] (uniform sampling) and
//!   [`db_se`] (one specialized auxiliary-structure estimator per distance
//!   function), plus the trivial [`mean::MeanEstimator`] used by §9.11.
//! * **Traditional learning** — [`kde::TlKde`] (kernel density over sampled
//!   distances) and [`gbt::TlGbt`] (gradient-boosted regression trees from
//!   scratch; depth-wise growth stands in for XGBoost, leaf-wise for
//!   LightGBM — the defining difference between those two libraries).
//! * **Deep learning** — [`dnn::DlDnn`] (vanilla FNN), [`dnn::DlDnnSTau`]
//!   (independent per-τ networks), [`moe::DlMoe`] (sparsely-gated mixture of
//!   experts), [`rmi::DlRmi`] (two-stage recursive model index), and
//!   [`dln::DlDln`] (a monotone network standing in for deep lattice
//!   networks; DESIGN.md §2.4 documents each substitution).
//!
//! Every baseline speaks the v2 Estimator API
//! (`prepare` → `curve` → `estimate`, see `cardest_core::estimator`):
//! `prepare` caches the per-query work — featurization for the learned
//! models ([`features::prepared_features`]), sample/bucket distance keys for
//! the samplers, the nearest-pivot scan for the pivot histogram — so a
//! τ-sweep pays for it once, and `curve` returns the per-threshold values in
//! one call (a single convolution DP serves the whole curve of
//! [`db_se::GroupHistogram`]; the samplers return their empirical distance
//! ladders). Scalar `estimate` calls remain bit-identical to the prepared
//! paths.

pub mod db_se;
pub mod db_us;
pub mod dln;
pub mod dnn;
pub mod features;
pub mod gbt;
pub mod kde;
pub mod mean;
pub mod moe;
pub mod rmi;

pub use db_se::build_db_se;
pub use db_us::DbUs;
pub use dln::DlDln;
pub use dnn::{DlDnn, DlDnnSTau};
pub use features::{BaselineFeaturizer, RegressionData};
pub use gbt::{GrowthPolicy, TlGbt};
pub use kde::TlKde;
pub use mean::MeanEstimator;
pub use moe::DlMoe;
pub use rmi::DlRmi;
