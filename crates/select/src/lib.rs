//! Exact similarity-selection algorithms.
//!
//! These serve three roles in the reproduction:
//!
//! 1. **Label oracle** — training data for every learned estimator is produced
//!    by running exact selection (§6.1: exact algorithms produce no label
//!    noise).
//! 2. **`SimSelect` baseline** — Table 6 compares estimator latency against
//!    actually *running* the state-of-the-art selection algorithm.
//! 3. **Query-processing backend** — the §9.11 optimizer case studies execute
//!    the plans these indexes provide.
//!
//! One index per distance function:
//! [`hamming::HammingIndex`] (pigeonhole multi-index, the GPH family),
//! [`edit::EditIndex`] (length partitioning + banded DP verification),
//! [`jaccard::JaccardIndex`] (prefix-filter inverted index),
//! [`euclid::VpTree`] (vantage-point tree). All are exact: every index is
//! property-tested against the brute-force scan.

#![forbid(unsafe_code)]

pub mod edit;
pub mod euclid;
pub mod hamming;
pub mod jaccard;
pub mod oracle;
pub mod scan;

pub use oracle::{build_selector, Selector};
pub use scan::ScanSelector;
