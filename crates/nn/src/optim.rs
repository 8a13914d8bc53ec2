//! Adam, with the global gradient-norm clip folded into its step.
//!
//! [`Adam::step`] makes two passes over the parameters. The first computes
//! the global L2 norm of the gradients in [`ParamStore::grad_norm`]'s
//! summation order, which fixes the clip factor: `max_norm / norm` when the
//! norm exceeds `max_norm`, else `1.0`. The second runs one loop per
//! parameter that scales each gradient by that factor, updates `m`, `v` and
//! the value, and zeroes the gradient. Scaling by `1.0` changes no bit, and
//! every element keeps the operation order of a separate
//! [`ParamStore::clip_grad_norm`], then Adam's element update, then
//! [`ParamStore::zero_grads`], so the step produces those bits exactly.
//!
//! A non-finite scaled gradient leaves its element's `m`, `v` and value
//! untouched. The update computes all three anyway and keeps the old ones
//! through a select, not a `continue`: a branch out of the loop body keeps
//! LLVM from vectorizing it. Vectorized, the loop runs about 4× faster, and
//! `divps`/`sqrtps` round exactly as their scalar forms do, so the bits
//! hold. The default x86-64 target does not vectorize even the select form,
//! so the loop is dispatched the way the matrix tiles are: under the
//! [`crate::KernelBackend::Simd`] process default on a CPU with AVX2 or
//! AVX-512F, one `target_feature` twin of the same `#[inline(always)]` body
//! in the kernels' `x86` module; otherwise the plain body.

use crate::kernels::{adam_simd, KernelBackend};
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use serde::{Deserialize, Serialize};

/// Adam (Kingma & Ba) with bias correction.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

/// The per-element constants of one [`Adam::step`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct AdamStep {
    /// The clip factor every gradient is multiplied by.
    scale: f32,
    b1: f32,
    b2: f32,
    /// `1 − b1` and `1 − b2`.
    c1: f32,
    c2: f32,
    /// The bias corrections `1 − b1ᵗ` and `1 − b2ᵗ`.
    bc1: f32,
    bc2: f32,
    lr: f32,
    eps: f32,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (used by decay schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        while self.m.len() < store.len() {
            let (r, c) = store.value(ParamId(self.m.len())).shape();
            self.m.push(Matrix::zeros(r, c));
            self.v.push(Matrix::zeros(r, c));
        }
    }

    /// Applies one update from the accumulated gradients, first scaling them
    /// so that their global L2 norm is at most `max_norm`, and leaves every
    /// gradient zero. `f32::INFINITY` never clips.
    pub fn step(&mut self, store: &mut ParamStore, max_norm: f32) {
        self.ensure_state(store);
        let k = self.next_step(store.grad_norm(), max_norm);
        let simd = KernelBackend::default_backend() == KernelBackend::Simd;
        for (idx, (m, v)) in self.m.iter_mut().zip(&mut self.v).enumerate() {
            store.update(ParamId(idx), |value, grad| {
                let (x, g) = (value.as_mut_slice(), grad.as_mut_slice());
                let (m, v) = (m.as_mut_slice(), v.as_mut_slice());
                if !(simd && adam_simd(k, x, g, m, v)) {
                    adam_update(k, x, g, m, v);
                }
            });
        }
    }

    /// Advances the step count and returns the constants of that step for
    /// gradients of global norm `norm`.
    fn next_step(&mut self, norm: f32, max_norm: f32) -> AdamStep {
        self.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        AdamStep {
            scale: if norm > max_norm && norm > 0.0 {
                max_norm / norm
            } else {
                1.0
            },
            b1,
            b2,
            c1: 1.0 - b1,
            c2: 1.0 - b2,
            bc1: 1.0 - b1.powi(self.t as i32),
            bc2: 1.0 - b2.powi(self.t as i32),
            lr: self.lr,
            eps: self.eps,
        }
    }
}

/// One Adam step over the equally long `value`, `grad`, `m` and `v`, which
/// also zeroes `grad`. Inlined into each caller, so that the `x86` twins
/// compile it for their ISA.
#[inline(always)]
pub(crate) fn adam_update(
    k: AdamStep,
    value: &mut [f32],
    grad: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
) {
    let n = value.len();
    let (grad, m, v) = (&mut grad[..n], &mut m[..n], &mut v[..n]);
    for (((x, g), m), v) in value.iter_mut().zip(grad).zip(m).zip(v) {
        let gi = *g * k.scale;
        let keep = gi.is_finite();
        let mi = k.b1 * *m + k.c1 * gi;
        let vi = k.b2 * *v + k.c2 * gi * gi;
        let xi = *x - k.lr * (mi / k.bc1) / ((vi / k.bc2).sqrt() + k.eps);
        *m = if keep { mi } else { *m };
        *v = if keep { vi } else { *v };
        *x = if keep { xi } else { *x };
        *g = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{adam_isas, AdamKernel};
    use crate::tape::Tape;

    impl Adam {
        /// The unfused sequence the fused step replaced: clip the
        /// gradients in place, then Adam's element loop, which skips a
        /// non-finite gradient with a `continue`, then zero them.
        fn reference_step(&mut self, store: &mut ParamStore, max_norm: f32) {
            store.clip_grad_norm(max_norm);
            self.ensure_state(store);
            self.t += 1;
            let bc1 = 1.0 - self.beta1.powi(self.t as i32);
            let bc2 = 1.0 - self.beta2.powi(self.t as i32);
            let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
            for (idx, (m, v)) in self.m.iter_mut().zip(&mut self.v).enumerate() {
                store.update(ParamId(idx), |value, grad| {
                    let vals = value.as_mut_slice();
                    #[allow(clippy::needless_range_loop)] // four parallel buffers
                    for i in 0..vals.len() {
                        let g = grad.as_slice()[i];
                        if !g.is_finite() {
                            continue;
                        }
                        let mi = b1 * m.as_slice()[i] + (1.0 - b1) * g;
                        let vi = b2 * v.as_slice()[i] + (1.0 - b2) * g * g;
                        m.as_mut_slice()[i] = mi;
                        v.as_mut_slice()[i] = vi;
                        let m_hat = mi / bc1;
                        let v_hat = vi / bc2;
                        vals[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                    }
                });
            }
            store.zero_grads();
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimizing (w - 3)^2 should converge to w = 3.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 1, 0.0));
        let mut opt = Adam::new(0.05);
        for _ in 0..600 {
            let mut t = Tape::new();
            let wv = t.param(&store, w);
            let shifted = t.add_scalar(wv, -3.0);
            let sq = t.square(shifted);
            let l = t.sum_all(sq);
            t.backward(l, &mut store);
            opt.step(&mut store, f32::INFINITY);
        }
        let w = store.value(w).get(0, 0);
        assert!((w - 3.0).abs() < 0.05, "w = {w}");
    }

    #[test]
    fn step_clears_gradients() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 1, 1.0));
        store.accumulate_grad(w, &Matrix::full(1, 1, 1.0));
        let mut opt = Adam::new(0.01);
        opt.step(&mut store, f32::INFINITY);
        assert_eq!(store.grad(w).get(0, 0), 0.0);
    }

    #[test]
    fn nonfinite_gradients_are_skipped() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 1, 1.0));
        store.accumulate_grad(w, &Matrix::full(1, 1, f32::NAN));
        let mut opt = Adam::new(0.1);
        opt.step(&mut store, 5.0);
        assert_eq!(
            store.value(w).get(0, 0),
            1.0,
            "NaN grad must not move the weight"
        );
    }

    /// The fused step against [`Adam::reference_step`], bit for bit in
    /// every value, `m`, `v` and gradient, over every length 1..=70 (each
    /// vector tail of either ISA), gradients holding NaN, ±∞ and −0.0, and
    /// the clip both firing and not; then each element kernel (the plain
    /// body and every `x86` twin this CPU has, called directly) against the
    /// plain body on the same step.
    #[test]
    fn fused_step_matches_clip_then_adam_then_zero_bitwise() {
        let grad = |i: usize, len: usize, poison: bool| match (i * 7 + len) % 11 {
            0 if poison => f32::NAN,
            1 if poison => f32::INFINITY,
            2 if poison => f32::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            j => (j as f32 - 5.5) * 0.37 / (1.0 + (i % 5) as f32),
        };
        // Which (clip fired, norm finite) cases the steps met.
        let mut cases = std::collections::HashSet::new();
        for len in 1..=70 {
            for poison in [false, true] {
                // 0.1 clips the finite cases, 1e3 none; a NaN norm never
                // clips and an infinite one scales every gradient by 0.
                for max_norm in [0.1, 1e3] {
                    let mut store = ParamStore::new();
                    let a = store.register("a", Matrix::from_fn(1, len, |_, c| c as f32 * 0.1));
                    let b = store.register("b", Matrix::from_fn(len, 1, |r, _| 1.0 - r as f32));
                    let (mut fused, mut reference) = (Adam::new(0.01), Adam::new(0.01));
                    let mut want = store.clone();
                    for step in 0..3 {
                        for (id, g) in [(a, 0), (b, 1)] {
                            let d = Matrix::from_fn(
                                store.value(id).rows(),
                                store.value(id).cols(),
                                |r, c| grad(r + c + g + step, len, poison),
                            );
                            store.accumulate_grad(id, &d);
                            want.accumulate_grad(id, &d);
                        }
                        let norm = store.grad_norm();
                        cases.insert((norm > max_norm, norm.is_finite()));
                        fused.step(&mut store, max_norm);
                        reference.reference_step(&mut want, max_norm);
                        for id in [a, b] {
                            let case = format!(
                                "len={len} poison={poison} max_norm={max_norm} step={step} {}",
                                store.name(id)
                            );
                            assert_eq!(bits(store.value(id)), bits(want.value(id)), "value {case}");
                            assert_eq!(bits(store.grad(id)), bits(want.grad(id)), "grad {case}");
                            assert_eq!(bits(&fused.m[id.0]), bits(&reference.m[id.0]), "m {case}");
                            assert_eq!(bits(&fused.v[id.0]), bits(&reference.v[id.0]), "v {case}");
                        }
                    }
                    // Every element kernel on one more step of `a`.
                    let d: Vec<f32> = (0..len).map(|i| grad(i + 3, len, poison)).collect();
                    let k = Adam::new(0.01).next_step(3.0, max_norm);
                    let run = |kernel: AdamKernel| {
                        let (mut x, mut g) = (store.value(a).as_slice().to_vec(), d.clone());
                        let (mut m, mut v) = (
                            fused.m[0].as_slice().to_vec(),
                            fused.v[0].as_slice().to_vec(),
                        );
                        kernel(k, &mut x, &mut g, &mut m, &mut v);
                        [x, g, m, v].map(|s| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    };
                    let plain = run(adam_update);
                    for (isa, kernel) in adam_isas() {
                        assert_eq!(
                            run(kernel),
                            plain,
                            "{isa} len={len} poison={poison} max_norm={max_norm}"
                        );
                    }
                }
            }
        }
        for case in [(true, true), (false, true), (true, false), (false, false)] {
            assert!(
                cases.contains(&case),
                "no step met (clip fired, norm finite) = {case:?}"
            );
        }
    }
}
