//! Feature extraction: the `h(x, θ) → (x ∈ {0,1}^d, τ ∈ ℤ≥0)` half of the
//! paper's framework (§3.2, §4).
//!
//! Each extractor maps records of one domain into a Hamming space whose
//! distances exactly or approximately capture the original distance function
//! (equivalency / LSH / bounding, §4), and monotonically maps the query
//! threshold `θ ∈ [0, θ_max]` to an integer `τ ∈ [0, τ_max]`. Monotonicity of
//! the threshold transform is the `h` half of Lemma 1's precondition for the
//! end-to-end monotonicity guarantee, and is property-tested for every
//! extractor.
//!
//! ```
//! use cardest_data::synth::{jc_bms, SynthConfig};
//! use cardest_fx::build_extractor;
//!
//! let ds = jc_bms(SynthConfig::new(80, 7));
//! let fx = build_extractor(&ds, 12, 1);
//!
//! // h_rec: every record embeds into the same d-dimensional Hamming space…
//! let bits = fx.extract(&ds.records[0]);
//! assert_eq!(bits.len(), fx.dim());
//!
//! // …and h_thr maps θ to τ monotonically (Lemma 1's precondition).
//! let taus: Vec<usize> =
//!     (0..=10).map(|i| fx.map_threshold(ds.theta_max * f64::from(i) / 10.0)).collect();
//! assert!(taus.windows(2).all(|w| w[0] <= w[1]));
//! assert!(*taus.last().unwrap() <= fx.tau_max());
//! ```

#![forbid(unsafe_code)]

pub mod edit;
pub mod hamming;
pub mod minhash;
pub mod naive;
pub mod pstable;
pub mod traits;

pub use edit::EditPositionalExtractor;
pub use hamming::HammingIdentityExtractor;
pub use minhash::BBitMinHashExtractor;
pub use naive::naive_extractor;
pub use pstable::PStableExtractor;
pub use traits::{build_extractor, FeatureExtractor};
