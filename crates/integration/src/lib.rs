//! Integration-test crate: the test sources live in the workspace-level
//! `/tests` directory and are registered as `[[test]]` targets in this
//! crate's manifest, so `cargo test --workspace` exercises the cross-crate
//! flows (end-to-end training, monotonicity guarantees, oracle agreement,
//! optimizer correctness, persistence).
//!
//! The crate itself exports nothing.

#![forbid(unsafe_code)]
