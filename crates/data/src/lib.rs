//! Data model for the `cardest` workspace: record types, distance functions,
//! synthetic corpora, query workloads, and the accuracy metrics of §2.1/§9.2.
//!
//! The paper evaluates four distance functions over eight corpora (Table 2).
//! The corpora are unavailable offline, so [`synth`] provides seeded,
//! structure-matched generators (documented in DESIGN.md §2.5); everything
//! downstream — feature extraction, the estimators, the optimizer case
//! studies — is agnostic to where the records came from.

#![forbid(unsafe_code)]

pub mod bitvec;
pub mod dataset;
pub mod dist;
pub mod io;
pub mod metrics;
pub mod record;
pub mod sampling;
pub mod synth;
pub mod workload;
pub mod zipf;

pub use bitvec::BitVec;
pub use dataset::Dataset;
pub use dist::{Distance, DistanceKind};
pub use record::Record;
pub use workload::{Workload, WorkloadSplit};
