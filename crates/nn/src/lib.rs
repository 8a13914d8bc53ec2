//! Minimal deep-learning substrate for the `cardest` workspace.
//!
//! The paper trains its models in TensorFlow and copies the weights into a C++
//! runtime for estimation. This crate replaces both halves with a single pure
//! Rust engine:
//!
//! * [`matrix::Matrix`] — contiguous row-major `f32` matrices with the handful
//!   of BLAS-like kernels the models need, and [`matrix::Weights`], the
//!   kernels' right operand paired with its finiteness,
//! * [`kernels`] — cache-blocked and explicit-SIMD (AVX2/AVX-512 with
//!   runtime dispatch) variants of those kernels, bit-identical to the
//!   scalar reference by construction, behind the [`kernels::Parallelism`]
//!   backend pin and [`kernels::KernelBackend`],
//! * [`tape::Tape`] — a dynamic reverse-mode autodiff tape over matrices,
//! * [`params::ParamStore`] — named trainable parameters plus their gradients
//!   and a per-value finiteness cache,
//! * [`optim`] — Adam, with the gradient-norm clip fused into its step,
//! * [`layers`] — `Dense` layers and `Mlp` stacks built on the tape,
//! * [`vae`] — the variational auto-encoder of §5.2.1 of the paper,
//! * [`loss`] — MSLE and the other losses used by the estimators.
//!
//! The engine is deliberately small: models in this workspace are a few
//! hundred kilobytes of parameters, so clarity and determinism (seeded RNG,
//! reproducible iteration order) win over raw throughput. The [`kernels`]
//! layer recovers throughput without giving up determinism: blocked and
//! SIMD products keep every output element's scalar accumulation order, so
//! every backend produces the same bits.
//!
//! All `unsafe` code lives in [`kernels`], and the compiler keeps it there:
//! this crate denies `unsafe_code`, allowing it only on the kernels' `x86`
//! module, their SIMD dispatch and the test that calls each ISA directly
//! (every other workspace crate forbids it outright). Clippy checks that every unsafe block states why it is sound
//! and every unsafe function its contract.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

pub mod init;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod optim;
pub mod params;
pub mod rng;
pub mod tape;
pub mod vae;

pub use kernels::{KernelBackend, Parallelism};
pub use layers::{Activation, Dense, Mlp};
pub use matrix::{Matrix, Weights};
pub use optim::Adam;
pub use params::{ParamId, ParamStore};
pub use tape::{Tape, Var};
pub use vae::{Vae, VaeConfig};
