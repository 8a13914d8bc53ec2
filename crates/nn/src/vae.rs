//! Variational auto-encoder (§5.2.1 of the paper).
//!
//! The representation network Γ embeds the sparse binary vector `x` into a
//! dense latent space and concatenates it back onto `x`:
//! `x' = [x ; VAE(x, ε)]`. Training samples the latent
//! `z = μ + exp(½·logvar) ⊙ ε` (reparameterization trick) so the model
//! generalizes; inference uses the deterministic expectation `E[VAE(x, ε)] = μ`
//! so the overall estimator stays deterministic — a precondition of the
//! monotonicity guarantee (Lemma 2).

use crate::layers::{Activation, Mlp};
use crate::loss;
use crate::matrix::Matrix;
use crate::params::ParamStore;
use crate::rng;
use crate::tape::{Tape, Var};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyperparameters of the VAE.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VaeConfig {
    /// Input (binary vector) dimensionality.
    pub input_dim: usize,
    /// Hidden layer sizes shared by encoder and decoder (paper: 256/128/128,
    /// scaled down for CPU training).
    pub hidden: Vec<usize>,
    /// Latent dimensionality (paper: 32–128 depending on dataset).
    pub latent_dim: usize,
}

impl VaeConfig {
    pub fn new(input_dim: usize, hidden: Vec<usize>, latent_dim: usize) -> Self {
        VaeConfig {
            input_dim,
            hidden,
            latent_dim,
        }
    }
}

/// The VAE: encoder to `(μ, logvar)`, decoder back to Bernoulli logits.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Vae {
    pub config: VaeConfig,
    encoder: Mlp,
    mu_head: Mlp,
    logvar_head: Mlp,
    decoder: Mlp,
}

/// Outcome of a training forward pass.
pub struct VaeForward {
    /// Sampled latent `z` (the representation handed to Γ during training).
    pub z: Var,
    /// Total loss `BCE + β·KL` as a scalar node.
    pub loss: Var,
}

impl Vae {
    /// Registers all VAE parameters into `store`.
    pub fn new(store: &mut ParamStore, r: &mut impl Rng, config: VaeConfig) -> Self {
        // ELU activations, in line with the paper's VAE setup (§9.1.3).
        let enc_out = *config.hidden.last().expect("vae needs >= 1 hidden layer");
        let encoder = Mlp::new(
            store,
            r,
            "vae.enc",
            config.input_dim,
            &config.hidden[..config.hidden.len() - 1],
            enc_out,
            Activation::Elu,
            Activation::Elu,
        );
        let mu_head = Mlp::new(
            store,
            r,
            "vae.mu",
            enc_out,
            &[],
            config.latent_dim,
            Activation::None,
            Activation::None,
        );
        let logvar_head = Mlp::new(
            store,
            r,
            "vae.logvar",
            enc_out,
            &[],
            config.latent_dim,
            Activation::None,
            Activation::None,
        );
        let mut dec_hidden: Vec<usize> = config.hidden.clone();
        dec_hidden.reverse();
        let decoder = Mlp::new(
            store,
            r,
            "vae.dec",
            config.latent_dim,
            &dec_hidden,
            config.input_dim,
            Activation::Elu,
            Activation::Sigmoid,
        );
        Vae {
            config,
            encoder,
            mu_head,
            logvar_head,
            decoder,
        }
    }

    /// Training forward pass: encodes `x`, samples `z`, decodes, and builds the
    /// ELBO loss `BCE(x̂, x) + β·KL(q(z|x) ‖ N(0, I))` on the tape.
    pub fn forward_train(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        noise_rng: &mut impl Rng,
        beta: f32,
    ) -> VaeForward {
        let n = tape.value(x).rows();
        let h = self.encoder.forward(tape, store, x);
        let mu = self.mu_head.forward(tape, store, h);
        let logvar = self.logvar_head.forward(tape, store, h);

        // z = mu + exp(0.5 * logvar) * eps
        let half_logvar = tape.scale(logvar, 0.5);
        let sigma = tape.exp(half_logvar);
        let mut eps = Matrix::zeros(n, self.config.latent_dim);
        rng::fill_normal(noise_rng, eps.as_mut_slice(), 0.0, 1.0);
        let eps = tape.input(eps);
        let noise = tape.mul(sigma, eps);
        let z = tape.add(mu, noise);

        let x_hat = self.decoder.forward(tape, store, z);
        let recon = loss::bce(tape, x_hat, x);

        // KL = -0.5 * mean(1 + logvar - mu^2 - exp(logvar))
        let mu_sq = tape.square(mu);
        let var = tape.exp(logvar);
        let inner = tape.add_scalar(logvar, 1.0);
        let inner = tape.sub(inner, mu_sq);
        let inner = tape.sub(inner, var);
        let kl = tape.mean_all(inner);
        let kl = tape.scale(kl, -0.5);

        let scaled_kl = tape.scale(kl, beta);
        let total = tape.add(recon, scaled_kl);
        VaeForward { z, loss: total }
    }

    /// Deterministic latent `μ(x)` — the inference-time representation.
    pub fn latent_mean(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        self.latent_mean_with(store, x, crate::kernels::Parallelism::serial())
    }

    /// [`Vae::latent_mean`] with an explicit kernel worker budget
    /// (bit-identical for any `par`).
    pub fn latent_mean_with(
        &self,
        store: &ParamStore,
        x: &Matrix,
        par: crate::kernels::Parallelism,
    ) -> Matrix {
        let h = self.encoder.infer_with(store, x, par);
        self.mu_head.infer_with(store, &h, par)
    }

    /// Builds the deterministic latent on a tape (lets gradients fine-tune the
    /// encoder during estimator training, per the `λ·L_vae` term of Eq. 2).
    pub fn latent_mean_var(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let h = self.encoder.forward(tape, store, x);
        self.mu_head.forward(tape, store, h)
    }

    /// Reconstruction of `x` through the deterministic latent (diagnostics).
    pub fn reconstruct(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        let z = self.latent_mean(store, x);
        self.decoder.infer(store, &z)
    }

    pub fn latent_dim(&self) -> usize {
        self.config.latent_dim
    }

    /// Checks every layer against the shapes [`Vae::new`] gives
    /// `self.config`, and that `store` holds them.
    pub fn check_shapes(&self, store: &ParamStore) -> Result<(), String> {
        let c = &self.config;
        let Some(&enc_out) = c.hidden.last() else {
            return Err("VAE has no hidden layer".to_string());
        };
        let encoder: Vec<usize> = std::iter::once(c.input_dim)
            .chain(c.hidden.iter().copied())
            .collect();
        let decoder: Vec<usize> = std::iter::once(c.latent_dim)
            .chain(c.hidden.iter().rev().copied())
            .chain(std::iter::once(c.input_dim))
            .collect();
        let check = |name: &str, mlp: &Mlp, dims: &[usize]| {
            mlp.check_shapes(store, dims)
                .map_err(|e| format!("VAE {name}: {e}"))
        };
        check("encoder", &self.encoder, &encoder)?;
        check("mean head", &self.mu_head, &[enc_out, c.latent_dim])?;
        check(
            "log-variance head",
            &self.logvar_head,
            &[enc_out, c.latent_dim],
        )?;
        check("decoder", &self.decoder, &decoder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};

    fn toy_patterns() -> Matrix {
        // Two well-separated binary prototypes repeated with a flipped bit.
        let a = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0];
        let b = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        let mut rows = Vec::new();
        for i in 0..8 {
            let mut ra = a;
            ra[i] = 1.0 - ra[i];
            rows.extend_from_slice(&ra);
            let mut rb = b;
            rb[i] = 1.0 - rb[i];
            rows.extend_from_slice(&rb);
        }
        Matrix::from_vec(16, 8, rows)
    }

    #[test]
    fn vae_reconstructs_toy_patterns() {
        let mut r = rng::seeded(17);
        let mut store = ParamStore::new();
        let vae = Vae::new(&mut store, &mut r, VaeConfig::new(8, vec![16, 8], 4));
        let x = toy_patterns();
        let mut opt = Adam::new(0.01);
        let mut last_loss = f32::INFINITY;
        for epoch in 0..300 {
            let mut t = Tape::new();
            let xv = t.input(x.clone());
            let fwd = vae.forward_train(&mut t, &store, xv, &mut r, 0.05);
            let l = t.value(fwd.loss).get(0, 0);
            t.backward(fwd.loss, &mut store);
            opt.step(&mut store);
            if epoch == 299 {
                last_loss = l;
            }
        }
        assert!(
            last_loss < 0.55,
            "VAE failed to fit toy data: loss {last_loss}"
        );

        // Reconstruction should round-trip the two prototypes.
        let recon = vae.reconstruct(&store, &x);
        let mut correct = 0;
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let bit = recon.get(i, j) > 0.5;
                if bit == (x.get(i, j) > 0.5) {
                    correct += 1;
                }
            }
        }
        let acc = correct as f32 / (x.rows() * x.cols()) as f32;
        assert!(acc > 0.8, "reconstruction accuracy {acc}");
    }

    #[test]
    fn latent_mean_is_deterministic() {
        let mut r = rng::seeded(5);
        let mut store = ParamStore::new();
        let vae = Vae::new(&mut store, &mut r, VaeConfig::new(8, vec![8], 3));
        let x = toy_patterns();
        let z1 = vae.latent_mean(&store, &x);
        let z2 = vae.latent_mean(&store, &x);
        assert_eq!(z1, z2);
    }

    #[test]
    fn similar_inputs_have_similar_latents() {
        let mut r = rng::seeded(23);
        let mut store = ParamStore::new();
        let vae = Vae::new(&mut store, &mut r, VaeConfig::new(8, vec![16, 8], 2));
        let x = toy_patterns();
        let mut opt = Adam::new(0.01);
        for _ in 0..300 {
            let mut t = Tape::new();
            let xv = t.input(x.clone());
            let fwd = vae.forward_train(&mut t, &store, xv, &mut r, 0.05);
            t.backward(fwd.loss, &mut store);
            opt.step(&mut store);
        }
        let z = vae.latent_mean(&store, &x);
        // Rows alternate between the two prototypes; within-prototype latent
        // distance should be smaller than across.
        let dist = |a: usize, b: usize| {
            z.row(a)
                .iter()
                .zip(z.row(b))
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        let within = (dist(0, 2) + dist(1, 3)) / 2.0;
        let across = (dist(0, 1) + dist(2, 3)) / 2.0;
        assert!(
            within < across,
            "latent space failed to separate prototypes: within {within}, across {across}"
        );
    }
}
