//! The CardNet regression model (§5) and its accelerated variant (§7).
//!
//! Encoder Ψ: the representation network Γ concatenates the raw binary
//! vector with its VAE latent (`x' = [x ; VAE(x, ε)]`, §5.2.1); a learned
//! distance-embedding matrix `E` supplies one embedding per Hamming distance
//! value (§5.2.2); a shared FNN Φ maps `[x' ; e_i]` to the final embedding
//! `z_i` (§5.2.3). Decoder `g_i(x) = ReLU(w_iᵀ z_i + b_i)` yields the
//! cardinality of distance exactly `i`; the estimate at threshold τ is the
//! prefix sum (Eq. 1) — deterministic and non-negative, hence monotone
//! (Lemma 2).
//!
//! **CardNet-A** replaces the per-distance Φ applications with a single FNN
//! Φ′ whose hidden layer `f_j` also emits region `j` of *all* `τ_max + 1`
//! embeddings through a head matrix (Figure 4), cutting estimation cost from
//! `O((τ+1)·|Φ|)` to `O(|Φ′|)`.
//!
//! **Training** ([`CardNetModel::forward_train`]) records one encoder chain
//! for all `(distance, row)` pairs of a batch, stacked distance-major, with
//! Φ's first layer split at `x′` as in inference and one gather-style
//! decoder op. Its backward pass sums the later layers' weight gradients
//! block by block, last distance first — the order in which one chain per
//! distance would deliver them — and sums the distance blocks of Φ's first
//! layer's incoming gradient before that layer's products. CardNet-A's
//! trained weights are those of the per-distance formulation, bit for bit;
//! CardNet's differ from it by rounding in W₁, E and the VAE encoder.

use std::time::Instant;

use cardest_nn::layers::{Activation, Dense, Mlp};
use cardest_nn::{init, Matrix, Parallelism, ParamId, ParamStore, Tape, Vae, VaeConfig, Var};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::estimator::CardinalityCurve;

/// Which encoder topology to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncoderKind {
    /// CardNet: shared Φ applied once per distance value.
    Shared,
    /// CardNet-A: multi-head Φ′ emitting all embeddings at once (§7).
    Accelerated,
}

/// Hyperparameters. Defaults follow §9.1.3 scaled for CPU training
/// (the paper: Φ = 512/512/256/256, z = 60, e = 5, VAE = 256/128/128).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CardNetConfig {
    /// Input dimensionality `d` (from the feature extractor).
    pub input_dim: usize,
    /// Decoder count `τ_max + 1`.
    pub n_out: usize,
    pub encoder: EncoderKind,
    /// Hidden sizes of Φ / Φ′.
    pub phi_hidden: Vec<usize>,
    /// Final embedding dimensionality |z|.
    pub z_dim: usize,
    /// Distance-embedding dimensionality |e| (paper: 5).
    pub e_dim: usize,
    /// VAE hidden sizes; empty disables the VAE (ablation −VAE).
    pub vae_hidden: Vec<usize>,
    /// VAE latent dimensionality.
    pub vae_latent: usize,
    /// Ablation switch: `false` replaces incremental prediction with a direct
    /// regression on `[x' ; e_τ]` (the paper's comparison in Table 7).
    pub incremental: bool,
}

impl CardNetConfig {
    /// CPU-scaled defaults.
    pub fn new(input_dim: usize, n_out: usize) -> Self {
        CardNetConfig {
            input_dim,
            n_out,
            encoder: EncoderKind::Shared,
            phi_hidden: vec![96, 64],
            z_dim: 32,
            e_dim: 5,
            vae_hidden: vec![96, 48],
            vae_latent: 20,
            incremental: true,
        }
    }

    pub fn accelerated(mut self) -> Self {
        self.encoder = EncoderKind::Accelerated;
        self
    }

    pub fn without_vae(mut self) -> Self {
        self.vae_hidden.clear();
        self.vae_latent = 0;
        self
    }

    pub fn without_incremental(mut self) -> Self {
        self.incremental = false;
        self
    }

    fn uses_vae(&self) -> bool {
        !self.vae_hidden.is_empty() && self.vae_latent > 0
    }

    /// Width of `x' = [x ; VAE latent]`.
    fn xprime_dim(&self) -> usize {
        self.input_dim + if self.uses_vae() { self.vae_latent } else { 0 }
    }

    /// CardNet-A's per-layer region widths: `z_dim` split over the hidden
    /// layers, earlier layers taking the remainder, so they sum to `z_dim`.
    fn regions(&self) -> Vec<usize> {
        let n_layers = self.phi_hidden.len().max(1);
        let base = self.z_dim / n_layers;
        let mut regions = vec![base; n_layers];
        for region in regions.iter_mut().take(self.z_dim % n_layers) {
            *region += 1;
        }
        regions
    }
}

/// The regression model `g`. Parameters live in an external [`ParamStore`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CardNetModel {
    pub config: CardNetConfig,
    vae: Option<Vae>,
    /// Distance-embedding matrix `E`: `n_out × e_dim`.
    e: ParamId,
    /// Shared Φ (CardNet) — input `[x' ; e_i]`.
    phi: Option<Mlp>,
    /// Accelerated Φ′ (CardNet-A): hidden chain + per-layer region heads.
    phi_a: Option<PhiAccelerated>,
    /// Decoder weights: `n_out × z_dim` (row i = w_i).
    dec_w: ParamId,
    /// Decoder biases: `1 × n_out`.
    dec_b: ParamId,
}

/// Φ′ of Figure 4: hidden layers `f_j`, each with a head emitting region `j`
/// of all `n_out` embeddings.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PhiAccelerated {
    hidden: Vec<Dense>,
    /// `heads[j]`: `hidden_j × (n_out · region_j)`.
    heads: Vec<ParamId>,
    /// Region widths per layer; sums to `z_dim`.
    regions: Vec<usize>,
}

/// Training forward-pass outputs.
pub struct ModelForward {
    /// `n × n_out` per-distance predictions (`ĉ_i ≥ 0`).
    pub dist: Var,
    /// `n × n_out` cumulative predictions (`ĉ(x, τ)` for every τ).
    pub cum: Var,
    /// VAE loss term, if the VAE is enabled.
    pub vae_loss: Option<Var>,
}

impl CardNetModel {
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, config: CardNetConfig) -> Self {
        let vae = config.uses_vae().then(|| {
            Vae::new(
                store,
                rng,
                VaeConfig::new(
                    config.input_dim,
                    config.vae_hidden.clone(),
                    config.vae_latent,
                ),
            )
        });
        // §5.2.2: E initialized from the standard normal distribution.
        let e = store.register(
            "cardnet.E",
            init::std_normal(rng, config.n_out, config.e_dim),
        );
        let (phi, phi_a) = match config.encoder {
            EncoderKind::Shared => {
                let phi = Mlp::new(
                    store,
                    rng,
                    "cardnet.phi",
                    config.xprime_dim() + config.e_dim,
                    &config.phi_hidden,
                    config.z_dim,
                    Activation::Relu,
                    Activation::Relu,
                );
                (Some(phi), None)
            }
            EncoderKind::Accelerated => {
                let regions = config.regions();
                let mut hidden = Vec::with_capacity(regions.len());
                let mut heads = Vec::with_capacity(regions.len());
                let mut prev = config.xprime_dim();
                for (j, &h) in config.phi_hidden.iter().enumerate() {
                    hidden.push(Dense::new(
                        store,
                        rng,
                        &format!("cardnet.phiA.{j}"),
                        prev,
                        h,
                        Activation::Relu,
                    ));
                    heads.push(store.register(
                        format!("cardnet.phiA.head{j}"),
                        init::he_normal(rng, h, config.n_out * regions[j]),
                    ));
                    prev = h;
                }
                (
                    None,
                    Some(PhiAccelerated {
                        hidden,
                        heads,
                        regions,
                    }),
                )
            }
        };
        let dec_w = store.register(
            "cardnet.dec_w",
            init::xavier_uniform(rng, config.n_out, config.z_dim),
        );
        // Positive bias keeps every ReLU decoder alive at initialization —
        // a decoder that starts at 0 output receives no gradient and would
        // predict 0 forever.
        let dec_b = store.register("cardnet.dec_b", Matrix::full(1, config.n_out, 1.0));
        CardNetModel {
            config,
            vae,
            e,
            phi,
            phi_a,
            dec_w,
            dec_b,
        }
    }

    pub fn vae(&self) -> Option<&Vae> {
        self.vae.as_ref()
    }

    /// Checks that `store` holds every parameter this model reads, each in
    /// the shape `self.config` implies, and that every stored matrix holds
    /// `rows · cols` values: what a deserialized model must show before any
    /// kernel indexes into it.
    pub fn check_params(&self, store: &ParamStore) -> Result<(), String> {
        let c = &self.config;
        store.check_buffers()?;
        store.expect_shape(self.e, c.n_out, c.e_dim)?;
        store.expect_shape(self.dec_w, c.n_out, c.z_dim)?;
        store.expect_shape(self.dec_b, 1, c.n_out)?;
        match (&self.vae, c.uses_vae()) {
            (Some(vae), true) => {
                let want = (c.input_dim, &c.vae_hidden, c.vae_latent);
                let got = &vae.config;
                if (got.input_dim, &got.hidden, got.latent_dim) != want {
                    return Err("VAE configuration disagrees with the model's".to_string());
                }
                vae.check_shapes(store)?;
            }
            (None, false) => {}
            (Some(_), false) => return Err("the configuration disables the VAE".to_string()),
            (None, true) => return Err("the configuration asks for a VAE".to_string()),
        }
        match (c.encoder, &self.phi, &self.phi_a) {
            (EncoderKind::Shared, Some(phi), None) => {
                let dims: Vec<usize> = std::iter::once(c.xprime_dim() + c.e_dim)
                    .chain(c.phi_hidden.iter().copied())
                    .chain(std::iter::once(c.z_dim))
                    .collect();
                phi.check_shapes(store, &dims)
                    .map_err(|e| format!("Φ: {e}"))
            }
            (EncoderKind::Accelerated, None, Some(pa)) => {
                let regions = c.regions();
                if pa.regions != regions
                    || pa.hidden.len() != c.phi_hidden.len()
                    || pa.heads.len() != c.phi_hidden.len()
                {
                    return Err("Φ′ layers or regions disagree with the configuration".to_string());
                }
                let mut prev = c.xprime_dim();
                for ((layer, &head), (&h, &r)) in pa
                    .hidden
                    .iter()
                    .zip(&pa.heads)
                    .zip(c.phi_hidden.iter().zip(&regions))
                {
                    layer
                        .check_shapes(store, prev, h)
                        .map_err(|e| format!("Φ′: {e}"))?;
                    store.expect_shape(head, h, c.n_out * r)?;
                    prev = h;
                }
                Ok(())
            }
            _ => Err(format!("encoder layers do not match {:?}", c.encoder)),
        }
    }

    /// Training forward pass over a batch `x` (`n × d` binary as f32).
    ///
    /// `vae_beta` scales the KL term inside the VAE loss; `noise_rng` draws
    /// the reparameterization noise (training is stochastic, §5.2.1).
    ///
    /// The tape holds one encoder chain over all `n_out · n` (distance, row)
    /// pairs, stacked distance-major: block `i` is every batch row at
    /// distance `i`, so row `i·n + r` embeds row `r` at distance `i`. Each
    /// weight is recorded once. CardNet's first layer is split at `x′` as in
    /// inference ([`Tape::pair_linear`]): `x′ · W₁[..xp]` runs once per batch
    /// row, and each `(i, r)` accumulator continues from that partial sum
    /// through `e_i · W₁[xp..]`. CardNet-A's first hidden layer takes
    /// `x′ = [x | latent]` as the same split-K parts, with no `e` rows, and
    /// stacks the regions its one Φ′ pass emits. One [`Tape::block_dot`]
    /// then decodes every block through its own decoder, adding the bias
    /// after the dot product.
    ///
    /// Backward sums the weight and bias gradients of Φ's later layers and
    /// of the decoders block by block, last distance first
    /// (`i = n_out − 1, …, 0`): the order in which one chain per distance,
    /// each with its own copy of the weights, would deliver them. CardNet's
    /// first layer first sums the 21 blocks of its incoming gradient `G`
    /// (see [`Tape::pair_linear`]) and then runs one `x′ᵀ·ΣG` for W₁'s `x′`
    /// rows and one `ΣG·W₁ᵀ` for the latent's gradient instead of one per
    /// distance. So CardNet-A, whose first layer has no `e` rows, trains the
    /// weights of the per-distance formulation bit for bit; CardNet's
    /// gradients of W₁, E and (through the latent) the VAE encoder differ
    /// from it by rounding, and b₁'s and every later gradient's bits do not
    /// change. The `x` columns of `x′` are a constant input, so no gradient
    /// is computed toward them: for either encoder, the input gradient
    /// spans only the latent's rows of `W₁`.
    pub fn forward_train(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Matrix,
        noise_rng: &mut impl Rng,
        vae_beta: f32,
    ) -> ModelForward {
        let xv = tape.input(x);
        let (latent, vae_loss) = match &self.vae {
            Some(vae) => {
                let fwd = vae.forward_train(tape, store, xv, noise_rng, vae_beta);
                (Some(fwd.z), Some(fwd.loss))
            }
            None => (None, None),
        };
        let z = self.embed_train(tape, store, xv, latent);
        // Decoder g_i = ReLU(z_i · w_i + b_i) on every block at once: n × n_out.
        let dec_w = tape.param(store, self.dec_w);
        let dec_b = tape.param(store, self.dec_b);
        let raw = tape.block_dot(z, dec_w, dec_b);
        let dist = tape.relu(raw);
        // Incremental prediction (Eq. 1): cumulative = prefix sum of the
        // per-distance outputs. The −incremental ablation (Table 7) instead
        // reads each decoder as a *direct* cumulative prediction at τ = i.
        let cum = if self.config.incremental {
            self.prefix_sum(tape, dist)
        } else {
            dist
        };
        ModelForward {
            dist,
            cum,
            vae_loss,
        }
    }

    /// The embeddings `z_i` of every batch row at every distance, stacked
    /// distance-major (`n_out · n` rows) on the tape; `latent` is the VAE's
    /// sampled latent, if the VAE is enabled.
    fn embed_train(&self, tape: &mut Tape, store: &ParamStore, x: Var, latent: Option<Var>) -> Var {
        let n_out = self.config.n_out;
        // x′ = [x | latent], fed to the first layer as split-K parts.
        let parts: Vec<Var> = std::iter::once(x).chain(latent).collect();
        match (&self.phi, &self.phi_a) {
            (Some(phi), _) => {
                // CardNet: Φ([x′ ; e_i]) with the first layer split at x′.
                let (first, rest) = phi.layers.split_first().expect("Φ has a layer");
                let e = tape.param(store, self.e);
                let w1 = tape.param(store, first.w);
                let b1 = tape.param(store, first.b);
                let mut h = tape.pair_linear(&parts, Some(e), w1, b1, first.activation);
                for layer in rest {
                    h = layer.forward_blocks(tape, store, h, n_out);
                }
                h
            }
            (None, Some(pa)) => {
                // CardNet-A: one pass through the hidden chain; each layer's
                // head emits its region of every embedding (Figure 4), and
                // the regions are stacked distance-major. With x′ as parts,
                // backward computes `G·W₁ᵀ` over the latent rows of W₁ only.
                let first = pa.hidden.first().expect("Φ′ has a layer");
                let w1 = tape.param(store, first.w);
                let b1 = tape.param(store, first.b);
                let mut h = tape.pair_linear(&parts, None, w1, b1, first.activation);
                let mut regions: Vec<Var> = Vec::with_capacity(pa.hidden.len());
                for (i, ((layer, &head), &width)) in
                    pa.hidden.iter().zip(&pa.heads).zip(&pa.regions).enumerate()
                {
                    if i > 0 {
                        h = layer.forward(tape, store, h);
                    }
                    let head_v = tape.param(store, head);
                    let block = tape.matmul(h, head_v); // n × (n_out·width)
                    regions.push(tape.stack_col_blocks(block, width));
                }
                let z = tape.hconcat(&regions);
                tape.relu(z)
            }
            _ => unreachable!("model has exactly one encoder"),
        }
    }

    /// `cum[:, τ] = Σ_{i≤τ} dist[:, i]` via multiplication with a constant
    /// upper-triangular ones matrix.
    fn prefix_sum(&self, tape: &mut Tape, dist: Var) -> Var {
        let n_out = self.config.n_out;
        let tri = Matrix::from_fn(n_out, n_out, |i, j| if i <= j { 1.0 } else { 0.0 });
        let tri = tape.input(tri);
        tape.matmul(dist, tri)
    }

    /// Inference fast path: per-distance predictions `ĉ_0 … ĉ_τ` for one
    /// query (row vector `1 × d`), deterministic (VAE mean latent). The
    /// shared encoder embeds only distances `0..=τ` — the paper's
    /// `O((τ+1)|Φ|)` cost — while the accelerated encoder computes all
    /// embeddings in one pass (`O(|Φ′|)`).
    pub fn infer_dist(&self, store: &ParamStore, x: &Matrix, tau: usize) -> Vec<f32> {
        let n_dist = tau.min(self.config.n_out - 1) + 1;
        self.infer_dist_prefixes(store, x, &[n_dist], Parallelism::serial())
    }

    /// The estimate at threshold τ: the prefix sum `Σ_{i≤τ} g_i(x)` (Eq. 1)
    /// for incremental models, or the τ-th decoder directly for the
    /// −incremental ablation.
    pub fn infer_sum(&self, store: &ParamStore, x: &Matrix, tau: usize) -> f64 {
        self.estimate_from(&self.infer_dist(store, x, tau))
    }

    /// The estimate at the last threshold step of `dist` (decoder outputs
    /// `ĉ_0 … ĉ_τ`).
    pub(crate) fn estimate_from(&self, dist: &[f32]) -> f64 {
        self.steps(dist).last().unwrap_or(0.0)
    }

    /// The threshold curve read off decoder outputs `ĉ_0 … ĉ_τ`.
    pub(crate) fn curve_from(&self, dist: &[f32]) -> CardinalityCurve {
        CardinalityCurve::from_values(self.steps(dist).collect())
    }

    /// Per-step estimates: left-to-right f64 prefix sums from `+0.0` for
    /// incremental models, the decoder outputs themselves for the ablation.
    /// Every CardNet estimate and curve is read off this one sum, which is
    /// what keeps scalar, prepared and batched answers bit-identical.
    fn steps<'a>(&self, dist: &'a [f32]) -> impl Iterator<Item = f64> + 'a {
        let incremental = self.config.incremental;
        dist.iter().scan(0.0f64, move |acc, &v| {
            *acc = if incremental {
                *acc + f64::from(v)
            } else {
                f64::from(v)
            };
            Some(*acc)
        })
    }

    /// Full deterministic encoder pass for one query (row vector `1 × d`):
    /// the per-distance embeddings `z_0 … z_{n_out−1}` stacked into an
    /// `n_out × z_dim` matrix (output activations applied). This is the
    /// cacheable half of a prepared query: decoding any τ from the returned
    /// matrix via [`CardNetModel::decode_prefix`] reproduces
    /// [`CardNetModel::infer_dist`] bit for bit, because both read the same
    /// stacked embedding rows.
    pub fn encode_all(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        self.encode_all_with(store, x, Parallelism::serial())
    }

    /// [`CardNetModel::encode_all`] with an explicit kernel backend pin,
    /// bit-identical for any `par`.
    pub fn encode_all_with(&self, store: &ParamStore, x: &Matrix, par: Parallelism) -> Matrix {
        self.embed(store, x, &vec![self.config.n_out; x.rows()], par)
    }

    /// Per-distance predictions `ĉ_0 … ĉ_τ` decoded from a cached
    /// [`CardNetModel::encode_all`] matrix — the per-τ half of a prepared
    /// query. No encoder work happens here: a τ-sweep pays for the embeddings
    /// once and re-runs only these dot products.
    pub fn decode_prefix(&self, store: &ParamStore, z_all: &Matrix, tau: usize) -> Vec<f32> {
        self.decode(store, z_all, 0..=tau.min(self.config.n_out - 1))
    }

    /// Batched per-distance inference across all decoders: `n × n_out`
    /// matrix. Used by validation (dynamic-ω updates need per-column losses)
    /// and by full-curve batches (one encoder pass per batch).
    pub fn infer_dist_batch(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        self.infer_dist_batch_with(store, x, Parallelism::serial())
    }

    /// [`CardNetModel::infer_dist_batch`] with an explicit kernel backend
    /// pin, bit-identical for any `par` and to one
    /// [`CardNetModel::infer_dist`] call per row.
    pub fn infer_dist_batch_with(
        &self,
        store: &ParamStore,
        x: &Matrix,
        par: Parallelism,
    ) -> Matrix {
        let n_out = self.config.n_out;
        let n_dists = vec![n_out; x.rows()];
        Matrix::from_vec(
            x.rows(),
            n_out,
            self.infer_dist_prefixes(store, x, &n_dists, par),
        )
    }

    /// Per-distance predictions `ĉ_0 … ĉ_{n_dists[r]−1}` of every input row
    /// `r`, concatenated row after row: one encoder pass that embeds only the
    /// distances each row's answer reads. Bit-identical to one
    /// [`CardNetModel::infer_dist`] call per row, for any `par`.
    pub(crate) fn infer_dist_prefixes(
        &self,
        store: &ParamStore,
        x: &Matrix,
        n_dists: &[usize],
        par: Parallelism,
    ) -> Vec<f32> {
        let z = self.embed(store, x, n_dists, par);
        self.decode(store, &z, n_dists.iter().flat_map(|&n| 0..n))
    }

    /// The one inference encoder: deterministic embeddings (VAE mean latent)
    /// of input row `r` at distances `0..n_dists[r]`, stacked ragged in row
    /// order, so row `r`'s `z_i` sits at stacked row `Σ_{s<r} n_dists[s] + i`.
    /// A caller embeds exactly the distances its answer reads.
    ///
    /// CardNet splits Φ's first layer along its inner dimension `[x′ ; e_i]`.
    /// The `x′ · W₁[..xp]` half does not depend on `i`, so it runs once per
    /// input row; each stacked `(r, i)` accumulator then starts from that
    /// partial sum and continues through `e_i · W₁[xp..]` in ascending `k`.
    /// Every weight is read through [`ParamStore::weights`], so its
    /// finiteness, which decides the zero skip, is scanned once per
    /// parameter value rather than once per query, and is dropped whenever
    /// the store hands out `&mut` access to that value. `W₁`'s halves come
    /// from [`Weights::split_rows`](cardest_nn::Weights::split_rows): a
    /// finite `W₁` makes both halves finite, otherwise each half is
    /// rescanned and skips zero inputs only when its own rows are finite.
    /// That is exact: a skipped term is `±0.0`, which cannot change an
    /// accumulator that starts at `+0.0`. So every output element gets the
    /// bits of the stacked `[x′ ; e_i] · W₁` product, whichever half of
    /// `W₁` holds a NaN or ∞. [`Dense::finish`] then adds the bias and
    /// applies the activation, and the later layers run on the stacked rows.
    /// CardNet-A runs its one Φ′ pass and gathers the stacked rows' regions.
    ///
    /// A row's bits do not depend on which rows share its matmuls: every
    /// backend accumulates each output element in ascending `k` from `+0.0`,
    /// adds the bias afterwards, and skips only exactly-zero terms. So one
    /// query embedded alone, in a batch, or on any backend gets the same
    /// embeddings. Encoder time is recorded on the calling thread.
    fn embed(&self, store: &ParamStore, x: &Matrix, n_dists: &[usize], par: Parallelism) -> Matrix {
        assert_eq!(x.rows(), n_dists.len(), "one distance count per input row");
        crate::metrics::record_encoder_pass();
        let t_enc = Instant::now();
        let xprime = match &self.vae {
            Some(vae) => Matrix::hconcat(&[x, &vae.latent_mean_with(store, x, par)]),
            None => x.clone(),
        };
        let rows: usize = n_dists.iter().sum();
        let stacked = || {
            n_dists
                .iter()
                .enumerate()
                .flat_map(|(r, &n)| (0..n).map(move |i| (r, i)))
        };
        let z = match (&self.phi, &self.phi_a) {
            (Some(phi), _) => {
                // CardNet: Φ([x′ ; e_i]) with the first layer split at x′.
                let (first, rest) = phi.layers.split_first().expect("Φ has a layer");
                let (w_x, w_e) = store.weights(first.w).split_rows(xprime.cols());
                let mut partial = Matrix::zeros(x.rows(), w_x.cols());
                xprime.matmul_acc_with(w_x, &mut partial, par);
                let e = store.value(self.e);
                let mut e_rows = Matrix::zeros(rows, e.cols());
                let mut h = Matrix::zeros(rows, w_e.cols());
                for (j, (r, i)) in stacked().enumerate() {
                    e_rows.row_mut(j).copy_from_slice(e.row(i));
                    h.row_mut(j).copy_from_slice(partial.row(r));
                }
                e_rows.matmul_acc_with(w_e, &mut h, par);
                first.finish(store, &mut h);
                for layer in rest {
                    h = layer.infer_with(store, &h, par);
                }
                h
            }
            (None, Some(pa)) => {
                // CardNet-A: one pass through the hidden chain; each layer's
                // head emits its region of every embedding (Figure 4).
                let mut h = xprime;
                let mut blocks: Vec<Matrix> = Vec::with_capacity(pa.hidden.len());
                for (layer, &head) in pa.hidden.iter().zip(&pa.heads) {
                    h = layer.infer_with(store, &h, par);
                    blocks.push(h.matmul_with(store.weights(head), par));
                }
                let mut z = Matrix::zeros(rows, self.config.z_dim);
                for (j, (r, i)) in stacked().enumerate() {
                    let zr = z.row_mut(j);
                    let mut at = 0;
                    for (block, &w) in blocks.iter().zip(&pa.regions) {
                        let region = &block.row(r)[i * w..(i + 1) * w];
                        for (v, &b) in zr[at..at + w].iter_mut().zip(region) {
                            *v = b.max(0.0);
                        }
                        at += w;
                    }
                }
                z
            }
            _ => unreachable!("model has exactly one encoder"),
        };
        crate::metrics::record_encoder_time(t_enc.elapsed());
        z
    }

    /// Decoder outputs `g_i(z) = ReLU(w_iᵀ z + b_i)` for stacked embedding
    /// rows `0, 1, …`, row `j` through the decoder of the `j`-th entry of
    /// `dists`: a prefix `0..=τ` of one query's rows, or the ragged
    /// per-row prefixes of [`CardNetModel::embed`].
    fn decode(
        &self,
        store: &ParamStore,
        z: &Matrix,
        dists: impl IntoIterator<Item = usize>,
    ) -> Vec<f32> {
        let t_dec = Instant::now();
        let dec_w = store.value(self.dec_w);
        let dec_b = store.value(self.dec_b);
        let out: Vec<f32> = dists
            .into_iter()
            .enumerate()
            .map(|(j, i)| {
                let mut acc = dec_b.get(0, i);
                for (zv, wv) in z.row(j).iter().zip(dec_w.row(i)) {
                    acc += zv * wv;
                }
                acc.max(0.0)
            })
            .collect();
        crate::metrics::record_decoder_calls(out.len() as u64);
        crate::metrics::record_decoder_time(t_dec.elapsed());
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cardest_nn::{loss, rng, Adam, KernelBackend};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_model(encoder: EncoderKind, with_vae: bool) -> (CardNetModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut r = rng::seeded(7);
        let mut cfg = CardNetConfig::new(12, 5);
        cfg.encoder = encoder;
        cfg.phi_hidden = vec![16, 8];
        cfg.z_dim = 8;
        if !with_vae {
            cfg = cfg.without_vae();
        } else {
            cfg.vae_hidden = vec![16];
            cfg.vae_latent = 4;
        }
        let model = CardNetModel::new(&mut store, &mut r, cfg);
        (model, store)
    }

    fn toy_x(n: usize) -> Matrix {
        Matrix::from_fn(n, 12, |r, c| f32::from(u8::from((r + c) % 3 == 0)))
    }

    #[test]
    fn forward_shapes_shared() {
        let (model, store) = toy_model(EncoderKind::Shared, true);
        let mut tape = Tape::new();
        let mut nrng = rng::seeded(1);
        let fwd = model.forward_train(&mut tape, &store, toy_x(4), &mut nrng, 0.1);
        assert_eq!(tape.value(fwd.dist).shape(), (4, 5));
        assert_eq!(tape.value(fwd.cum).shape(), (4, 5));
        assert!(fwd.vae_loss.is_some());
    }

    #[test]
    fn forward_shapes_accelerated() {
        let (model, store) = toy_model(EncoderKind::Accelerated, false);
        let mut tape = Tape::new();
        let mut nrng = rng::seeded(2);
        let fwd = model.forward_train(&mut tape, &store, toy_x(3), &mut nrng, 0.1);
        assert_eq!(tape.value(fwd.dist).shape(), (3, 5));
        assert!(fwd.vae_loss.is_none());
    }

    #[test]
    fn cumulative_is_prefix_sum_of_dist() {
        let (model, store) = toy_model(EncoderKind::Shared, false);
        let mut tape = Tape::new();
        let mut nrng = rng::seeded(3);
        let fwd = model.forward_train(&mut tape, &store, toy_x(4), &mut nrng, 0.1);
        let dist = tape.value(fwd.dist).clone();
        let cum = tape.value(fwd.cum).clone();
        for r in 0..4 {
            let mut acc = 0.0;
            for j in 0..5 {
                acc += dist.get(r, j);
                assert!((cum.get(r, j) - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn per_distance_outputs_are_nonnegative() {
        for enc in [EncoderKind::Shared, EncoderKind::Accelerated] {
            let (model, store) = toy_model(enc, false);
            let x = toy_x(1);
            let d = model.infer_dist(&store, &x, 4);
            assert!(d.iter().all(|&v| v >= 0.0), "{enc:?}: {d:?}");
        }
    }

    #[test]
    fn inference_is_monotone_in_tau() {
        for enc in [EncoderKind::Shared, EncoderKind::Accelerated] {
            let (model, store) = toy_model(enc, true);
            let x = toy_x(1);
            let mut prev = 0.0;
            for tau in 0..5 {
                let est = model.infer_sum(&store, &x, tau);
                assert!(est >= prev - 1e-9, "{enc:?}: τ={tau}: {est} < {prev}");
                prev = est;
            }
        }
    }

    #[test]
    fn train_and_infer_paths_agree_without_vae() {
        // With the VAE disabled both paths are deterministic and identical.
        for enc in [EncoderKind::Shared, EncoderKind::Accelerated] {
            let (model, store) = toy_model(enc, false);
            let x = toy_x(2);
            let mut tape = Tape::new();
            let mut nrng = rng::seeded(4);
            let fwd = model.forward_train(&mut tape, &store, x.clone(), &mut nrng, 0.1);
            let train_dist = tape.value(fwd.dist).clone();
            let infer = model.infer_dist_batch(&store, &x);
            assert!(
                train_dist.max_abs_diff(&infer) < 1e-4,
                "{enc:?}: paths diverge by {}",
                train_dist.max_abs_diff(&infer)
            );
        }
    }

    #[test]
    fn encode_then_decode_matches_infer_dist_bitwise() {
        // The prepared-query fast path (encode once, decode per τ) must be
        // arithmetic-for-arithmetic the single-shot path.
        for enc in [EncoderKind::Shared, EncoderKind::Accelerated] {
            for with_vae in [false, true] {
                let (model, store) = toy_model(enc, with_vae);
                let x = toy_x(1);
                let z_all = model.encode_all(&store, &x);
                assert_eq!(z_all.shape(), (5, 8));
                for tau in 0..5 {
                    let direct = model.infer_dist(&store, &x, tau);
                    let cached = model.decode_prefix(&store, &z_all, tau);
                    assert_eq!(direct.len(), cached.len());
                    for (a, b) in direct.iter().zip(&cached) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{enc:?} vae={with_vae} τ={tau}");
                    }
                }
            }
        }
    }

    #[test]
    fn infer_dist_truncates_at_tau() {
        let (model, store) = toy_model(EncoderKind::Shared, false);
        let x = toy_x(1);
        assert_eq!(model.infer_dist(&store, &x, 2).len(), 3);
        assert_eq!(model.infer_dist(&store, &x, 99).len(), 5); // clamped
    }

    #[test]
    fn batch_inference_matches_single_query() {
        // Serve's cache and every batch-vs-scalar check rely on exact bits.
        // The all-zero and all-one rows put the stacked operand's density on
        // the other side of `matmul_with`'s sparse/dense dispatch from some
        // single-row calls, so both kernel branches are compared.
        let mut x = toy_x(5);
        x.row_mut(3).fill(0.0);
        x.row_mut(4).fill(1.0);
        for enc in [EncoderKind::Shared, EncoderKind::Accelerated] {
            for with_vae in [false, true] {
                let (model, store) = toy_model(enc, with_vae);
                let batch = model.infer_dist_batch(&store, &x);
                for r in 0..x.rows() {
                    let single = Matrix::from_vec(1, 12, x.row(r).to_vec());
                    for tau in 0..5 {
                        let d = model.infer_dist(&store, &single, tau);
                        assert_eq!(d.len(), tau + 1);
                        for (j, &v) in d.iter().enumerate() {
                            assert_eq!(
                                batch.get(r, j).to_bits(),
                                v.to_bits(),
                                "{enc:?} vae={with_vae} row {r} τ={tau} col {j}: {} vs {v}",
                                batch.get(r, j)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn split_first_layer_matches_stacked_reference_with_nonfinite_weights() {
        // A NaN in W₁, among the e rows or among the x′ rows, turns the zero
        // skip off for the half that holds it. The all-zero input row then
        // meets it through 0·NaN terms that a skip would drop.
        let mut x = toy_x(4);
        x.row_mut(1).fill(0.0);
        for with_vae in [false, true] {
            let (model, store) = toy_model(EncoderKind::Shared, with_vae);
            // Fill every finiteness cache first, so each poisoned clone below
            // starts from a cache that says "finite" and must drop it.
            model.infer_dist_batch(&store, &x);
            let phi = model.phi.as_ref().expect("shared encoder");
            let w1 = phi.layers[0].w;
            let xprime = match model.vae() {
                Some(vae) => Matrix::hconcat(&[&x, &vae.latent_mean(&store, &x)]),
                None => x.clone(),
            };
            let (xp, n_out) = (xprime.cols(), model.config.n_out);
            for poisoned in [xp + 2, 3] {
                let mut store = store.clone();
                store.value_mut(w1).set(poisoned, 5, f32::NAN);
                let e = store.value(model.e);
                let stacked = Matrix::from_fn(x.rows() * n_out, xp + e.cols(), |j, c| {
                    if c < xp {
                        xprime.get(j / n_out, c)
                    } else {
                        e.get(j % n_out, c - xp)
                    }
                });
                // The reference's first layer is the scalar `Matrix::matmul`,
                // which scans W₁ itself, so it cannot share a stale cache.
                let mut z = stacked.matmul(store.value(w1));
                assert!(z.as_slice().iter().any(|v| v.is_nan()));
                phi.layers[0].finish(&store, &mut z);
                for layer in &phi.layers[1..] {
                    z = layer.infer_with(&store, &z, Parallelism::serial());
                }
                let dists = (0..x.rows()).flat_map(|_| 0..n_out);
                let want = model.decode(&store, &z, dists);
                let got = model.infer_dist_batch(&store, &x);
                assert_eq!(got.len(), want.len());
                for (j, (a, b)) in want.iter().zip(got.as_slice()).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                        "vae={with_vae} NaN in W₁ row {poisoned}: output {j}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// The per-distance formulation that the stacked tape replaced, kept as
    /// the reference of the training gates below: one Φ chain per
    /// distance, each recording its own copy of every weight, and decoder
    /// `i` as `(z_i ⊙ w_i) · 1 + b_i`. Only the VAE is shared with the
    /// stacked path; `linear`'s own test pins it to the separate product and
    /// bias nodes recorded here.
    fn per_distance_forward(
        model: &CardNetModel,
        tape: &mut Tape,
        store: &ParamStore,
        x: Matrix,
        noise_rng: &mut impl Rng,
        vae_beta: f32,
    ) -> ModelForward {
        let n = x.rows();
        let n_out = model.config.n_out;
        let xv = tape.input(x);
        let (xprime, vae_loss) = match &model.vae {
            Some(vae) => {
                let fwd = vae.forward_train(tape, store, xv, noise_rng, vae_beta);
                (tape.hconcat(&[xv, fwd.z]), Some(fwd.loss))
            }
            None => (xv, None),
        };
        let e = tape.param(store, model.e);
        let dec_w = tape.param(store, model.dec_w);
        let dec_b = tape.param(store, model.dec_b);
        let z_all: Vec<Var> = match (&model.phi, &model.phi_a) {
            (Some(phi), _) => (0..n_out)
                .map(|i| {
                    let ei = tape.slice_rows(e, i, i + 1);
                    let eb = tape.broadcast_row(ei, n);
                    let xi = tape.hconcat(&[xprime, eb]);
                    phi.layers
                        .iter()
                        .fold(xi, |h, layer| dense(tape, store, layer, h))
                })
                .collect(),
            (None, Some(pa)) => {
                let mut h = xprime;
                let mut region_blocks: Vec<Var> = Vec::new();
                for (layer, &head) in pa.hidden.iter().zip(&pa.heads) {
                    h = dense(tape, store, layer, h);
                    let head_v = tape.param(store, head);
                    region_blocks.push(tape.matmul(h, head_v));
                }
                (0..n_out)
                    .map(|i| {
                        let parts: Vec<Var> = region_blocks
                            .iter()
                            .zip(&pa.regions)
                            .map(|(&block, &r)| tape.slice_cols(block, i * r, (i + 1) * r))
                            .collect();
                        let z = tape.hconcat(&parts);
                        tape.relu(z)
                    })
                    .collect()
            }
            _ => unreachable!("model has exactly one encoder"),
        };
        let outs: Vec<Var> = z_all
            .iter()
            .enumerate()
            .map(|(i, &z)| {
                let wi = tape.slice_rows(dec_w, i, i + 1);
                let wb = tape.broadcast_row(wi, n);
                let prod = tape.mul(z, wb);
                let ones = tape.input(Matrix::full(model.config.z_dim, 1, 1.0));
                let raw = tape.matmul(prod, ones);
                let bi = tape.slice_cols(dec_b, i, i + 1);
                let bb = tape.broadcast_row(bi, n);
                let sum = tape.add(raw, bb);
                tape.relu(sum)
            })
            .collect();
        let dist = tape.hconcat(&outs);
        let cum = if model.config.incremental {
            let tri = Matrix::from_fn(n_out, n_out, |i, j| if i <= j { 1.0 } else { 0.0 });
            let tri = tape.input(tri);
            tape.matmul(dist, tri)
        } else {
            dist
        };
        ModelForward {
            dist,
            cum,
            vae_loss,
        }
    }

    /// A dense layer as the per-distance tape recorded it: product, bias,
    /// activation, one node each.
    fn dense(tape: &mut Tape, store: &ParamStore, layer: &Dense, x: Var) -> Var {
        let w = tape.param(store, layer.w);
        let b = tape.param(store, layer.b);
        let h = tape.matmul(x, w);
        let h = tape.add_row(h, b);
        layer.activation.apply(tape, h)
    }

    /// [`CardNetModel::forward_train`] with none of the training tape's
    /// fused ops, the reference of `train`'s step-level gate: each linear
    /// layer records its product and bias with no activation, and the
    /// activation follows as its own node; the VAE's losses are their
    /// primitive ops ([`composed_vae_forward`]). It draws the same noise
    /// and stacks the same blocks, so its graph computes the same values.
    pub(crate) fn composed_forward(
        model: &CardNetModel,
        tape: &mut Tape,
        store: &ParamStore,
        x: Matrix,
        noise_rng: &mut impl Rng,
        vae_beta: f32,
    ) -> ModelForward {
        let n_out = model.config.n_out;
        let xv = tape.input(x);
        let (latent, vae_loss) = match &model.vae {
            Some(vae) => {
                let (z, loss) = composed_vae_forward(vae, tape, store, xv, noise_rng, vae_beta);
                (Some(z), Some(loss))
            }
            None => (None, None),
        };
        let parts: Vec<Var> = std::iter::once(xv).chain(latent).collect();
        let z = match (&model.phi, &model.phi_a) {
            (Some(phi), _) => {
                let (first, rest) = phi.layers.split_first().expect("Φ has a layer");
                let e = tape.param(store, model.e);
                let w1 = tape.param(store, first.w);
                let b1 = tape.param(store, first.b);
                let h = tape.pair_linear(&parts, Some(e), w1, b1, Activation::None);
                let h = first.activation.apply(tape, h);
                rest.iter()
                    .fold(h, |h, layer| composed_dense(tape, store, layer, h, n_out))
            }
            (None, Some(pa)) => {
                let first = pa.hidden.first().expect("Φ′ has a layer");
                let w1 = tape.param(store, first.w);
                let b1 = tape.param(store, first.b);
                let h = tape.pair_linear(&parts, None, w1, b1, Activation::None);
                let mut h = first.activation.apply(tape, h);
                let mut regions: Vec<Var> = Vec::with_capacity(pa.hidden.len());
                for (i, ((layer, &head), &width)) in
                    pa.hidden.iter().zip(&pa.heads).zip(&pa.regions).enumerate()
                {
                    if i > 0 {
                        h = composed_dense(tape, store, layer, h, 1);
                    }
                    let head_v = tape.param(store, head);
                    let block = tape.matmul(h, head_v);
                    regions.push(tape.stack_col_blocks(block, width));
                }
                let z = tape.hconcat(&regions);
                tape.relu(z)
            }
            _ => unreachable!("model has exactly one encoder"),
        };
        let dec_w = tape.param(store, model.dec_w);
        let dec_b = tape.param(store, model.dec_b);
        let raw = tape.block_dot(z, dec_w, dec_b);
        let dist = tape.relu(raw);
        let cum = if model.config.incremental {
            model.prefix_sum(tape, dist)
        } else {
            dist
        };
        ModelForward {
            dist,
            cum,
            vae_loss,
        }
    }

    /// A dense layer over `blocks` row blocks as [`Tape::linear_blocks`]
    /// with no activation, then the activation as its own node.
    fn composed_dense(
        tape: &mut Tape,
        store: &ParamStore,
        layer: &Dense,
        x: Var,
        blocks: usize,
    ) -> Var {
        let w = tape.param(store, layer.w);
        let b = tape.param(store, layer.b);
        let h = tape.linear_blocks(x, w, b, blocks, Activation::None);
        layer.activation.apply(tape, h)
    }

    /// `Vae::forward_train` with each layer through [`composed_dense`], the
    /// reconstruction BCE in 11 primitive nodes and the KL in 8. The layers
    /// are read off `store` by the names `Mlp::new` registers them under
    /// (`{mlp}.{i}` for hidden layer `i`, then `{mlp}.out`), with the
    /// activations `Vae::new` gives them. Returns the latent and the loss.
    fn composed_vae_forward(
        vae: &Vae,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        noise_rng: &mut impl Rng,
        beta: f32,
    ) -> (Var, Var) {
        let param = |name: String| {
            store
                .ids()
                .find(|&id| store.name(id) == name)
                .unwrap_or_else(|| panic!("no parameter {name}"))
        };
        let mlp = |name: &str, hidden: usize, hidden_act: Activation, out_act: Activation| {
            (0..=hidden)
                .map(|i| {
                    let (stem, activation) = if i < hidden {
                        (format!("{name}.{i}"), hidden_act)
                    } else {
                        (format!("{name}.out"), out_act)
                    };
                    let w = param(format!("{stem}.w"));
                    let (in_dim, out_dim) = store.value(w).shape();
                    Dense {
                        w,
                        b: param(format!("{stem}.b")),
                        activation,
                        in_dim,
                        out_dim,
                    }
                })
                .collect::<Vec<_>>()
        };
        let depth = vae.config.hidden.len();
        let encoder = mlp("vae.enc", depth - 1, Activation::Elu, Activation::Elu);
        let mu_head = mlp("vae.mu", 0, Activation::None, Activation::None);
        let logvar_head = mlp("vae.logvar", 0, Activation::None, Activation::None);
        let decoder = mlp("vae.dec", depth, Activation::Elu, Activation::Sigmoid);
        let run = |tape: &mut Tape, layers: &[Dense], x: Var| {
            layers
                .iter()
                .fold(x, |h, layer| composed_dense(tape, store, layer, h, 1))
        };
        let n = tape.value(x).rows();
        let h = run(tape, &encoder, x);
        let mu = run(tape, &mu_head, h);
        let logvar = run(tape, &logvar_head, h);
        let half_logvar = tape.scale(logvar, 0.5);
        let sigma = tape.exp(half_logvar);
        let mut eps = Matrix::zeros(n, vae.latent_dim());
        rng::fill_normal(noise_rng, eps.as_mut_slice(), 0.0, 1.0);
        let eps = tape.input(eps);
        let noise = tape.mul(sigma, eps);
        let z = tape.add(mu, noise);
        let x_hat = run(tape, &decoder, z);

        // BCE = −mean(x·ln(x̂ + ε) + (1 − x)·ln(1 − x̂ + ε)).
        let ln_p = tape.ln_eps(x_hat, 1e-6);
        let pos = tape.mul(x, ln_p);
        let one_minus_p = tape.scale(x_hat, -1.0);
        let one_minus_p = tape.add_scalar(one_minus_p, 1.0);
        let ln_not_p = tape.ln_eps(one_minus_p, 1e-6);
        let one_minus_t = tape.scale(x, -1.0);
        let one_minus_t = tape.add_scalar(one_minus_t, 1.0);
        let neg = tape.mul(one_minus_t, ln_not_p);
        let sum = tape.add(pos, neg);
        let mean = tape.mean_all(sum);
        let recon = tape.scale(mean, -1.0);

        // KL = −½·mean(1 + logvar − μ² − exp(logvar)), scaled by β.
        let mu_sq = tape.square(mu);
        let var = tape.exp(logvar);
        let inner = tape.add_scalar(logvar, 1.0);
        let inner = tape.sub(inner, mu_sq);
        let inner = tape.sub(inner, var);
        let kl = tape.mean_all(inner);
        let kl = tape.scale(kl, -0.5);
        let kl = tape.scale(kl, beta);
        (z, tape.add(recon, kl))
    }

    type TrainForward =
        fn(&CardNetModel, &mut Tape, &ParamStore, Matrix, &mut StdRng, f32) -> ModelForward;

    /// A model of `cfg` with its store, and the noise rng the steps draw from.
    fn seeded_model(cfg: &CardNetConfig) -> (CardNetModel, ParamStore, StdRng) {
        let mut rng = StdRng::seed_from_u64(17);
        let mut store = ParamStore::new();
        let model = CardNetModel::new(&mut store, &mut rng, cfg.clone());
        (model, store, rng)
    }

    /// One step shaped like `Trainer::step` (P(τ)-weighted cumulative MSLE,
    /// ω-weighted per-distance MSLE, VAE loss) on batch `step`, recorded
    /// through `forward` on a tape with `par` and back-propagated into
    /// `store`'s gradients.
    fn backward_step(
        model: &CardNetModel,
        store: &mut ParamStore,
        rng: &mut StdRng,
        step: usize,
        par: Parallelism,
        forward: TrainForward,
    ) {
        let cfg = &model.config;
        let n_out = cfg.n_out;
        let p_tau = Matrix::from_fn(1, n_out, |_, i| (i + 1) as f32 / 21.0);
        let omega = Matrix::from_fn(1, n_out, |_, i| if i % 2 == 0 { 0.3 } else { 0.05 });
        let x = Matrix::from_fn(10, cfg.input_dim, |r, c| {
            f32::from(u8::from((r * 7 + c * 3 + step) % 5 < 2))
        });
        let dist = Matrix::from_fn(10, n_out, |r, i| ((r * 5 + i * 3 + step) % 7) as f32);
        let mut cum = dist.clone();
        for r in 0..cum.rows() {
            let row = cum.row_mut(r);
            for j in 1..row.len() {
                row[j] += row[j - 1];
            }
        }
        let mut tape = Tape::with_parallelism(par);
        let fwd = forward(model, &mut tape, store, x, rng, 0.1);
        let dist_target = if cfg.incremental { dist } else { cum.clone() };
        let (cum_t, dist_t) = (tape.input(cum), tape.input(dist_target));
        let (p, w) = (tape.input(p_tau), tape.input(omega));
        let main = loss::weighted_msle(&mut tape, fwd.cum, cum_t, p);
        let per_dist = loss::weighted_msle(&mut tape, fwd.dist, dist_t, w);
        let scaled = tape.scale(per_dist, 0.1);
        let mut total = tape.add(main, scaled);
        if let Some(vl) = fwd.vae_loss {
            let scaled = tape.scale(vl, 0.1);
            total = tape.add(total, scaled);
        }
        tape.backward(total, store);
    }

    /// Three [`backward_step`]s, each on its own batch and followed by
    /// clipping and Adam, through `forward` on tapes with `par`.
    fn trained_store(cfg: &CardNetConfig, par: Parallelism, forward: TrainForward) -> ParamStore {
        let (model, mut store, mut rng) = seeded_model(cfg);
        let mut opt = Adam::new(1e-2);
        for step in 0..3 {
            backward_step(&model, &mut store, &mut rng, step, par, forward);
            opt.step(&mut store, 5.0);
        }
        store
    }

    /// The configuration of the per-distance reference gates.
    fn reference_config(enc: EncoderKind, with_vae: bool, incremental: bool) -> CardNetConfig {
        let mut cfg = CardNetConfig::new(12, 6);
        cfg.encoder = enc;
        cfg.phi_hidden = vec![16, 8];
        cfg.z_dim = 9;
        cfg.vae_hidden = vec![16];
        cfg.vae_latent = 4;
        cfg.incremental = incremental;
        if with_vae {
            cfg
        } else {
            cfg.without_vae()
        }
    }

    /// CardNet-A's stacked training tape trains the weights of the
    /// per-distance reference, bit for bit, with and without the VAE and
    /// incremental prediction, on either kernel backend: its first layer has
    /// no `e` rows, so no gradient is summed over blocks before a product.
    #[test]
    fn accelerated_training_matches_per_distance_reference_bitwise() {
        for with_vae in [false, true] {
            for incremental in [true, false] {
                let cfg = reference_config(EncoderKind::Accelerated, with_vae, incremental);
                let want = trained_store(&cfg, Parallelism::serial(), per_distance_forward);
                for backend in [KernelBackend::Blocked, KernelBackend::Simd] {
                    let par = Parallelism::serial().with_backend(backend);
                    let got = trained_store(&cfg, par, CardNetModel::forward_train);
                    for id in want.ids() {
                        let (w, g) = (want.value(id).as_slice(), got.value(id).as_slice());
                        assert!(
                            w.iter().zip(g).all(|(w, g)| w.to_bits() == g.to_bits()),
                            "{} differs: vae={with_vae} incremental={incremental} {}",
                            want.name(id),
                            backend.label()
                        );
                    }
                }
            }
        }
    }

    /// Largest `|got − want|` over a gradient, relative to the largest
    /// `|want|`, that the Shared encoder's block-summed first layer may
    /// leave against the per-distance reference after one step.
    const REORDERED_GRAD_REL_BOUND: f32 = 1e-6;

    /// One step of the Shared encoder's stacked tape against the
    /// per-distance reference, with and without the VAE and incremental
    /// prediction, on either kernel backend. `Tape::pair_linear` sums the 21
    /// distance blocks of its incoming gradient before W₁'s products, so
    /// the gradients it reaches (W₁, E, and through the latent the VAE's
    /// encoder, μ and log σ² heads) differ from the per-distance order by
    /// rounding only, within [`REORDERED_GRAD_REL_BOUND`] of their largest
    /// element; every gradient it does not reach (b₁, Φ's later layers, the
    /// decoders, the VAE's decoder) is bit-identical.
    #[test]
    fn shared_step_gradients_match_per_distance_reference() {
        for with_vae in [false, true] {
            for incremental in [true, false] {
                let cfg = reference_config(EncoderKind::Shared, with_vae, incremental);
                let step_grads = |par: Parallelism, forward: TrainForward| {
                    let (model, mut store, mut rng) = seeded_model(&cfg);
                    backward_step(&model, &mut store, &mut rng, 0, par, forward);
                    (model, store)
                };
                let (model, want) = step_grads(Parallelism::serial(), per_distance_forward);
                let w1 = model.phi.as_ref().expect("Shared encoder").layers[0].w;
                let reordered = |id: ParamId| {
                    let name = want.name(id);
                    id == model.e
                        || id == w1
                        || ["vae.enc", "vae.mu", "vae.logvar"]
                            .iter()
                            .any(|p| name.starts_with(p))
                };
                for backend in [KernelBackend::Blocked, KernelBackend::Simd] {
                    let par = Parallelism::serial().with_backend(backend);
                    let (_, got) = step_grads(par, CardNetModel::forward_train);
                    for id in want.ids() {
                        let (w, g) = (want.grad(id).as_slice(), got.grad(id).as_slice());
                        let cell = format!(
                            "{}: vae={with_vae} incremental={incremental} {}",
                            want.name(id),
                            backend.label()
                        );
                        if reordered(id) {
                            let scale = w.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                            let diff = w
                                .iter()
                                .zip(g)
                                .fold(0.0f32, |m, (w, g)| m.max((w - g).abs()));
                            assert!(
                                diff <= REORDERED_GRAD_REL_BOUND * scale,
                                "{cell}: max diff {diff} against max |grad| {scale}"
                            );
                        } else {
                            assert!(
                                w.iter().zip(g).all(|(w, g)| w.to_bits() == g.to_bits()),
                                "{cell} differs"
                            );
                        }
                    }
                }
            }
        }
    }
}
