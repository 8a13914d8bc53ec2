//! Query-optimizer case studies (§9.11): the two applications the paper uses
//! to show that better cardinality estimates buy faster query processing.
//!
//! * [`conjunctive`] — conjunctions of Euclidean-distance predicates over
//!   multi-attribute entities: the planner index-scans the predicate with the
//!   smallest estimated cardinality and verifies the rest on the fly
//!   (Figures 11–12).
//! * [`gph`] — GPH-style Hamming selection: the query vector is split into
//!   parts and per-part thresholds are allocated by dynamic programming over
//!   *estimated* per-part cardinalities, honoring the general pigeonhole
//!   principle (Figures 13–14).

pub mod conjunctive;
pub mod gph;

pub use conjunctive::{ConjunctiveQuery, ConjunctiveTable, ExecutionStats, Planner};
pub use gph::{allocate_thresholds, GphProcessor, PartCostModel};
