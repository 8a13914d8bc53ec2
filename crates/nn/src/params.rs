//! Trainable-parameter storage.
//!
//! Every model in the workspace owns a [`ParamStore`]: named matrices plus
//! their accumulated gradients. The autodiff [`crate::tape::Tape`] copies
//! parameter values onto the tape during the forward pass and writes gradients
//! back after `backward`; optimizers then consume `(value, grad)` pairs.
//! Inference reads a parameter as [`Weights`], whose finiteness is scanned
//! once per value instead of once per product.

use crate::matrix::{Matrix, Weights};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Opaque handle to one parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Param {
    name: String,
    value: Matrix,
    #[serde(skip, default = "Matrix::empty_grad")]
    grad: Matrix,
    /// Whether every value of `value` is finite, filled on the first
    /// [`ParamStore::weights`] read. Every path to `&mut value` drops it.
    #[serde(skip)]
    finite: OnceLock<bool>,
}

impl Matrix {
    fn empty_grad() -> Matrix {
        Matrix::zeros(0, 0)
    }
}

/// Named trainable parameters with gradient buffers.
#[derive(Clone, Debug, Serialize, Deserialize, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    pub fn new() -> Self {
        ParamStore { params: Vec::new() }
    }

    /// Registers a parameter and returns its handle.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.params.push(Param {
            name: name.into(),
            value,
            grad,
            finite: OnceLock::new(),
        });
        ParamId(self.params.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.params.len()
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable access to a value; drops its cached finiteness.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        let p = &mut self.params[id.0];
        p.finite.take();
        &mut p.value
    }

    /// The value of `id` as a matmul right operand, with its finiteness
    /// scanned on the first read after the value last changed and cached
    /// until it changes again. The cache cannot go stale: the only ways to
    /// change a value ([`ParamStore::value_mut`], [`ParamStore::update`])
    /// drop it, and they need `&mut self`, which no live `Weights` allows.
    // lint: hot-path
    pub fn weights(&self, id: ParamId) -> Weights<'_> {
        let p = &self.params[id.0];
        Weights::cached(&p.value, &p.finite)
    }

    /// Checks that `id` names a stored parameter of shape `rows × cols`.
    pub fn expect_shape(&self, id: ParamId, rows: usize, cols: usize) -> Result<(), String> {
        let p = self.params.get(id.0).ok_or_else(|| {
            format!(
                "parameter #{} does not exist ({} stored)",
                id.0,
                self.params.len()
            )
        })?;
        let (r, c) = p.value.shape();
        if (r, c) != (rows, cols) {
            return Err(format!(
                "parameter {} is {r}x{c}, expected {rows}x{cols}",
                p.name
            ));
        }
        Ok(())
    }

    /// Checks that every stored matrix holds exactly `rows · cols` values,
    /// which a deserialized store does not guarantee.
    pub fn check_buffers(&self) -> Result<(), String> {
        for p in &self.params {
            let (r, c) = p.value.shape();
            if r.checked_mul(c) != Some(p.value.len()) {
                return Err(format!(
                    "parameter {} holds {} values for {r}x{c}",
                    p.name,
                    p.value.len()
                ));
            }
        }
        Ok(())
    }

    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].grad
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Adds `delta` into the gradient buffer of `id`.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Matrix) {
        let p = &mut self.params[id.0];
        if p.grad.shape() != p.value.shape() {
            p.grad = Matrix::zeros(p.value.rows(), p.value.cols());
        }
        p.grad.axpy(1.0, delta);
    }

    /// Clears all gradient buffers (keeps allocations).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            if p.grad.shape() != p.value.shape() {
                p.grad = Matrix::zeros(p.value.rows(), p.value.cols());
            } else {
                p.grad.fill_zero();
            }
        }
    }

    /// Iterates over all handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Applies `f(value, grad)` to one parameter (used by the optimizer,
    /// which also clears `grad`).
    pub fn update(&mut self, id: ParamId, f: impl FnOnce(&mut Matrix, &mut Matrix)) {
        let p = &mut self.params[id.0];
        if p.grad.shape() != p.value.shape() {
            p.grad = Matrix::zeros(p.value.rows(), p.value.cols());
        }
        p.finite.take();
        f(&mut p.value, &mut p.grad);
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Size of the serialized parameters in bytes (f32 payload only),
    /// reported by the Table 9 "model size" experiment.
    pub fn size_bytes(&self) -> usize {
        self.num_scalars() * std::mem::size_of::<f32>()
    }

    /// Global L2 norm of all gradients — used for gradient clipping.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| {
                if p.grad.is_empty() {
                    0.0
                } else {
                    let n = p.grad.norm();
                    n * n
                }
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient so the global norm is at most `max_norm`: the
    /// clip [`crate::Adam::step`] applies as it updates.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &mut self.params {
                for g in p.grad.as_mut_slice() {
                    *g *= scale;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::full(2, 3, 1.5));
        assert_eq!(store.value(id).shape(), (2, 3));
        assert_eq!(store.name(id), "w");
        assert_eq!(store.num_scalars(), 6);
        assert_eq!(store.size_bytes(), 24);
    }

    #[test]
    fn grads_accumulate_and_reset() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::zeros(1, 2));
        store.accumulate_grad(id, &Matrix::row_vector(vec![1.0, 2.0]));
        store.accumulate_grad(id, &Matrix::row_vector(vec![0.5, 0.5]));
        assert_eq!(store.grad(id).as_slice(), &[1.5, 2.5]);
        store.zero_grads();
        assert_eq!(store.grad(id).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn clipping_bounds_global_norm() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::zeros(1, 2));
        store.accumulate_grad(id, &Matrix::row_vector(vec![3.0, 4.0])); // norm 5
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
        assert_eq!(store.grad(id).as_slice(), &[0.6, 0.8]);
    }

    #[test]
    fn cached_finiteness_never_outlives_a_write() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(3, 4, 0.5));
        let b = store.register("b", Matrix::zeros(1, 4));
        assert!(store.weights(w).is_finite() && store.weights(b).is_finite());
        // A clone carries the filled cache; its own write must drop it.
        let mut cloned = store.clone();
        cloned.value_mut(w).set(2, 1, f32::NAN);
        assert!(!cloned.weights(w).is_finite());
        assert!(store.weights(w).is_finite(), "the original is untouched");
        // value_mut after a cached read.
        store.value_mut(w).set(0, 3, f32::NAN);
        assert!(!store.weights(w).is_finite());
        store.value_mut(w).set(0, 3, 1.0);
        assert!(store.weights(w).is_finite());
        // update after a cached read.
        store.update(w, |v, _| v.set(1, 1, f32::INFINITY));
        assert!(!store.weights(w).is_finite());
        assert!(store.weights(b).is_finite(), "caches are per parameter");
    }

    #[test]
    fn serde_roundtrip_preserves_values() {
        let mut store = ParamStore::new();
        store.register("w", Matrix::full(2, 2, 0.25));
        let json = serde_json::to_string(&store).unwrap();
        let back: ParamStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_scalars(), 4);
        assert_eq!(back.value(ParamId(0)).as_slice(), &[0.25; 4]);
    }
}
