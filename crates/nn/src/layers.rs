//! Reusable layer abstractions: dense layers and MLP stacks.

use crate::init;
use crate::kernels::Parallelism;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Activation functions used across the workspace's models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (linear output layers).
    None,
    /// `max(0, x)` — the paper's choice for Φ and the decoders.
    Relu,
    /// Exponential linear unit — the paper's choice inside the VAE.
    Elu,
    Sigmoid,
    Tanh,
    /// `ln(1 + e^x)` — smooth, strictly positive.
    Softplus,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(self, tape: &mut Tape, v: Var) -> Var {
        match self {
            Activation::None => v,
            Activation::Relu => tape.relu(v),
            Activation::Elu => tape.elu(v, 1.0),
            Activation::Sigmoid => tape.sigmoid(v),
            Activation::Tanh => tape.tanh(v),
            Activation::Softplus => tape.softplus(v),
        }
    }

    /// `m[r] = act(m[r] + bias)` for every row `r`, `bias` a `1 x m` row:
    /// the bias pass of the inference path ([`Dense::finish`]) and of the
    /// tape's fused linear ops. The per-element functions below are the
    /// only definition of each activation; the tape's separate activation
    /// ops use them too, so every path computes the same bits.
    pub(crate) fn apply_with_bias(self, m: &mut Matrix, bias: &Matrix) {
        fn pass(m: &mut Matrix, bias: &Matrix, f: impl Fn(f32) -> f32) {
            for r in 0..m.rows() {
                for (v, &b) in m.row_mut(r).iter_mut().zip(bias.row(0)) {
                    *v = f(*v + b);
                }
            }
        }
        assert_eq!(
            bias.shape(),
            (1, m.cols()),
            "bias must be a 1 x {} row",
            m.cols()
        );
        match self {
            Activation::None => pass(m, bias, |v| v),
            Activation::Relu => pass(m, bias, relu),
            Activation::Elu => pass(m, bias, |v| elu(v, 1.0)),
            Activation::Sigmoid => pass(m, bias, stable_sigmoid),
            Activation::Tanh => pass(m, bias, f32::tanh),
            Activation::Softplus => pass(m, bias, stable_softplus),
        }
    }
}

#[inline]
pub(crate) fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Computes the `exp` on every input and selects on the sign afterwards,
/// the negative arm the same expression as under a branch. A branch on the
/// sign of a hidden layer's pre-activations mispredicts about half the time
/// and throws away the `exp` in flight: inside a training step a 64×96 ELU
/// pass read 53 µs branched and 30 µs selected.
#[inline]
pub(crate) fn elu(x: f32, alpha: f32) -> f32 {
    let neg = alpha * (x.exp() - 1.0);
    if x > 0.0 {
        x
    } else {
        neg
    }
}

#[inline]
pub(crate) fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[inline]
pub(crate) fn stable_softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// A fully-connected layer: `act(x @ W + b)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dense {
    pub w: ParamId,
    pub b: ParamId,
    pub activation: Activation,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Dense {
    /// Registers weights in `store`. Initialization follows the activation:
    /// He for ReLU-family, Xavier otherwise.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
    ) -> Self {
        let w_init = match activation {
            Activation::Relu | Activation::Elu | Activation::Softplus => {
                init::he_normal(rng, in_dim, out_dim)
            }
            _ => init::xavier_uniform(rng, in_dim, out_dim),
        };
        let w = store.register(format!("{name}.w"), w_init);
        let b = store.register(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Dense {
            w,
            b,
            activation,
            in_dim,
            out_dim,
        }
    }

    /// Forward pass on the tape (training).
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        self.forward_blocks(tape, store, x, 1)
    }

    /// [`Dense::forward`] over `x` stacked from `blocks` equal row blocks:
    /// the weight and bias gradients are summed block by block, last block
    /// first, and the activation is fused into the layer's node
    /// ([`Tape::linear_blocks`]).
    pub fn forward_blocks(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        blocks: usize,
    ) -> Var {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        tape.linear_blocks(x, w, b, blocks, self.activation)
    }

    /// Tape-free forward pass (inference fast path).
    pub fn infer(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        self.infer_with(store, x, Parallelism::serial())
    }

    /// [`Dense::infer`] with an explicit kernel backend pin. Every backend
    /// is bit-identical to the scalar path, so the result never depends on
    /// `par`.
    pub fn infer_with(&self, store: &ParamStore, x: &Matrix, par: Parallelism) -> Matrix {
        let mut h = x.matmul_with(store.weights(self.w), par);
        self.finish(store, &mut h);
        h
    }

    /// Turns the pre-activation `x @ W` into the layer output in place: adds
    /// the bias to every row and applies the activation.
    pub fn finish(&self, store: &ParamStore, h: &mut Matrix) {
        self.activation.apply_with_bias(h, store.value(self.b));
    }

    /// Number of scalar parameters in this layer.
    pub fn num_params(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    /// Checks that this layer maps `in_dim` to `out_dim` and that `store`
    /// holds its weight and bias in those shapes.
    pub fn check_shapes(
        &self,
        store: &ParamStore,
        in_dim: usize,
        out_dim: usize,
    ) -> Result<(), String> {
        if (self.in_dim, self.out_dim) != (in_dim, out_dim) {
            return Err(format!(
                "dense layer maps {} to {}, expected {in_dim} to {out_dim}",
                self.in_dim, self.out_dim
            ));
        }
        store.expect_shape(self.w, in_dim, out_dim)?;
        store.expect_shape(self.b, 1, out_dim)
    }
}

/// A stack of [`Dense`] layers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mlp {
    pub layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given hidden sizes; all hidden layers use
    /// `hidden_act`, the output layer uses `out_act`.
    #[allow(clippy::too_many_arguments)] // a constructor mirroring the paper's hyperparameters
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        hidden: &[usize],
        out_dim: usize,
        hidden_act: Activation,
        out_act: Activation,
    ) -> Self {
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut prev = in_dim;
        for (i, &h) in hidden.iter().enumerate() {
            layers.push(Dense::new(
                store,
                rng,
                &format!("{name}.{i}"),
                prev,
                h,
                hidden_act,
            ));
            prev = h;
        }
        layers.push(Dense::new(
            store,
            rng,
            &format!("{name}.out"),
            prev,
            out_dim,
            out_act,
        ));
        Mlp { layers }
    }

    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(tape, store, h);
        }
        h
    }

    pub fn infer(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        self.infer_with(store, x, Parallelism::serial())
    }

    /// [`Mlp::infer`] with an explicit kernel backend pin (bit-identical
    /// for any `par`).
    pub fn infer_with(&self, store: &ParamStore, x: &Matrix, par: Parallelism) -> Matrix {
        let mut h = self.layers[0].infer_with(store, x, par);
        for layer in &self.layers[1..] {
            h = layer.infer_with(store, &h, par);
        }
        h
    }

    /// Checks that layer `j` maps `dims[j]` to `dims[j + 1]`, for exactly
    /// `dims.len() − 1` layers (see [`Dense::check_shapes`]).
    pub fn check_shapes(&self, store: &ParamStore, dims: &[usize]) -> Result<(), String> {
        if self.layers.len() + 1 != dims.len() {
            return Err(format!(
                "{} layers, expected {}",
                self.layers.len(),
                dims.len().saturating_sub(1)
            ));
        }
        for (layer, io) in self.layers.iter().zip(dims.windows(2)) {
            layer.check_shapes(store, io[0], io[1])?;
        }
        Ok(())
    }

    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty MLP").out_dim
    }

    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::rng;

    /// The select form of `elu` gives the bits of its branch form on signed
    /// zeros, infinities, NaNs, subnormals, the `exp` overflow edges, a
    /// sweep of the training range and every 65,537th bit pattern.
    #[test]
    fn selected_elu_matches_its_branch_form_bitwise() {
        fn elu_branch(x: f32, alpha: f32) -> f32 {
            if x > 0.0 {
                x
            } else {
                alpha * (x.exp() - 1.0)
            }
        }
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::MAX,
            f32::MIN,
            88.72,
            -88.72,
            -103.98,
            -17.33,
        ];
        xs.extend((0..=40_000).map(|i| (i as f32 - 20_000.0) * 0.005));
        xs.extend((0..=u32::MAX).step_by(65_537).map(f32::from_bits));
        for &x in &xs {
            for alpha in [1.0, 0.5] {
                let (got, want) = (elu(x, alpha), elu_branch(x, alpha));
                assert_eq!(got.to_bits(), want.to_bits(), "elu({x:e}, {alpha})");
            }
        }
    }

    #[test]
    fn dense_infer_matches_tape_forward() {
        let mut r = rng::seeded(1);
        let mut store = ParamStore::new();
        let layer = Dense::new(&mut store, &mut r, "d", 4, 3, Activation::Relu);
        let x = Matrix::from_fn(5, 4, |_, _| 0.3);

        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let y_tape = layer.forward(&mut tape, &store, xv);
        let y_infer = layer.infer(&store, &x);
        assert!(tape.value(y_tape).max_abs_diff(&y_infer) < 1e-6);
    }

    #[test]
    fn mlp_learns_xor() {
        // XOR is the classic non-linearly-separable sanity check.
        let mut r = rng::seeded(42);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            &mut r,
            "xor",
            2,
            &[8, 8],
            1,
            Activation::Tanh,
            Activation::Sigmoid,
        );
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let y = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut opt = Adam::new(0.05);
        for _ in 0..400 {
            let mut t = Tape::new();
            let xv = t.input(x.clone());
            let yv = t.input(y.clone());
            let pred = mlp.forward(&mut t, &store, xv);
            let diff = t.sub(pred, yv);
            let sq = t.square(diff);
            let loss = t.mean_all(sq);
            t.backward(loss, &mut store);
            opt.step(&mut store, f32::INFINITY);
        }
        let pred = mlp.infer(&store, &x);
        for (i, want) in [0.0, 1.0, 1.0, 0.0].iter().enumerate() {
            let got = pred.get(i, 0);
            assert!(
                (got - want).abs() < 0.2,
                "xor case {i}: predicted {got}, wanted {want}"
            );
        }
    }

    #[test]
    fn mlp_shapes_and_param_counts() {
        let mut r = rng::seeded(3);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            &mut r,
            "m",
            10,
            &[16, 8],
            2,
            Activation::Relu,
            Activation::None,
        );
        assert_eq!(mlp.in_dim(), 10);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(mlp.num_params(), 10 * 16 + 16 + 16 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(store.num_scalars(), mlp.num_params());
    }
}
