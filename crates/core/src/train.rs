//! Training (§6): data preparation is in [`crate::features`]; this module
//! implements the loss of Eq. 2–3 and the dynamic training strategy.
//!
//! Total loss per batch:
//! `Σ_τ P(τ)·MSLE(ĉ_cum(τ), c_cum(τ)) + λ_Δ·Σ_i ω_i·MSLE(ĉ_i, c_i) + λ·L_vae`
//!
//! where `P(τ)` is the empirical threshold distribution after feature
//! extraction and the `ω_i` are re-derived after every validation pass from
//! the per-distance loss *trends*: distances whose validation loss grew get
//! weight proportional to the growth, the rest get zero (§6.2).

use crate::features::{prepare_tensors, tau_distribution, TrainTensors};
use crate::model::{CardNetConfig, CardNetModel};
use cardest_data::Workload;
use cardest_fx::FeatureExtractor;
use cardest_nn::loss;
use cardest_nn::{Adam, Matrix, Parallelism, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Trainer knobs. Defaults are the CPU-scaled counterparts of §9.1.3
/// (λ = λ_Δ = 0.1; paper trains the VAE 100 epochs and the model 800).
#[derive(Clone, Debug)]
pub struct TrainerOptions {
    pub epochs: usize,
    pub vae_epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    /// λ — weight of the VAE loss inside the main objective (Eq. 2).
    pub lambda_vae: f32,
    /// λ_Δ — weight of the dynamic per-distance term (Eq. 3).
    pub lambda_delta: f32,
    /// Validate (and refresh ω) every this many epochs.
    pub validate_every: usize,
    /// Stop after this many validations without improvement (0 = never).
    pub patience: usize,
    pub seed: u64,
    /// Disables the dynamic ω updates (ablation −dynamic: pure MSLE).
    pub dynamic: bool,
    /// Pinned compute-kernel backend for the forward/backward products;
    /// `None` resolves [`cardest_nn::KernelBackend::default_backend`]
    /// (env override, else best the CPU supports). Every backend is
    /// bit-identical, so this changes training wall clock, never the
    /// trained parameters.
    pub kernel_backend: Option<cardest_nn::KernelBackend>,
}

impl Default for TrainerOptions {
    fn default() -> Self {
        TrainerOptions {
            epochs: 60,
            vae_epochs: 25,
            batch_size: 64,
            learning_rate: 2e-3,
            lambda_vae: 0.1,
            lambda_delta: 0.1,
            validate_every: 5,
            patience: 6,
            seed: 0xC0DE,
            dynamic: true,
            kernel_backend: None,
        }
    }
}

impl TrainerOptions {
    /// Short schedule for tests and `quick` experiment runs.
    pub fn quick() -> Self {
        TrainerOptions {
            epochs: 30,
            vae_epochs: 10,
            patience: 4,
            ..Default::default()
        }
    }
}

/// What training produced, for Table 10 / Figure 8 bookkeeping.
#[derive(Clone, Debug)]
pub struct TrainReport {
    pub epochs_run: usize,
    pub best_val_msle: f64,
    pub train_seconds: f64,
}

/// Trains a CardNet model on prepared tensors; owns model + parameters.
pub struct Trainer {
    pub model: CardNetModel,
    pub store: ParamStore,
    pub options: TrainerOptions,
    /// `P(τ)` row weights for the cumulative loss.
    p_tau: Matrix,
    /// Dynamic per-distance weights ω (row vector).
    omega: Matrix,
    rng: StdRng,
}

impl Trainer {
    pub fn new(config: CardNetConfig, options: TrainerOptions, p_tau: Vec<f32>) -> Self {
        let mut rng = StdRng::seed_from_u64(options.seed);
        let mut store = ParamStore::new();
        let model = CardNetModel::new(&mut store, &mut rng, config);
        let n_out = model.config.n_out;
        assert_eq!(p_tau.len(), n_out, "P(τ) arity mismatch");
        let omega = Matrix::full(1, n_out, 1.0 / n_out as f32);
        Trainer {
            model,
            store,
            options,
            p_tau: Matrix::row_vector(p_tau),
            omega,
            rng,
        }
    }

    /// Rebuilds a trainer around a restored model and parameter store (the
    /// snapshot-loading path). Training state (ω, `P(τ)`, RNG) resets to
    /// defaults; inference behaves identically to the saved model.
    pub fn from_parts(model: CardNetModel, store: ParamStore) -> Trainer {
        let options = TrainerOptions::default();
        let n_out = model.config.n_out;
        let rng = StdRng::seed_from_u64(options.seed);
        Trainer {
            model,
            store,
            options,
            p_tau: Matrix::full(1, n_out, 1.0 / n_out as f32),
            omega: Matrix::full(1, n_out, 1.0 / n_out as f32),
            rng,
        }
    }

    /// The kernel config derived from [`TrainerOptions::kernel_backend`].
    pub fn kernel_parallelism(&self) -> Parallelism {
        Parallelism::serial().with_backend_opt(self.options.kernel_backend)
    }

    /// Pre-trains the VAE unsupervised on the binary representations
    /// (§9.1.3 trains it before the estimator).
    pub fn pretrain_vae(&mut self, x: &Matrix) {
        let Some(_) = self.model.vae() else { return };
        let par = self.kernel_parallelism();
        let mut opt = Adam::new(self.options.learning_rate);
        let n = x.rows();
        let bs = self.options.batch_size.min(n).max(1);
        let mut order: Vec<usize> = (0..n).collect();
        // One tape for every batch: each pass reuses the last one's buffers.
        let mut tape = Tape::new();
        for _ in 0..self.options.vae_epochs {
            order.shuffle(&mut self.rng);
            for chunk in order.chunks(bs) {
                let xb = x.gather_rows(chunk);
                tape.reset(par);
                let xv = tape.input(xb);
                let vae = self.model.vae().expect("vae enabled");
                let fwd = vae.forward_train(&mut tape, &self.store, xv, &mut self.rng, 0.1);
                tape.backward(fwd.loss, &mut self.store);
                opt.step(&mut self.store, 5.0);
            }
        }
    }

    /// One optimization step over a batch, recorded on `tape` after a reset
    /// (so it reuses the buffers of the step before); returns the scalar
    /// loss.
    fn step(&mut self, tape: &mut Tape, batch: &TrainTensors, opt: &mut Adam) -> f32 {
        tape.reset(self.kernel_parallelism());
        let fwd = self
            .model
            .forward_train(tape, &self.store, batch.x.clone(), &mut self.rng, 0.1);
        let cum_t = tape.input(batch.cum.clone());
        // The −incremental ablation's decoders predict cumulative values
        // directly, so its per-distance term also targets the cumulative.
        let dist_targets = if self.model.config.incremental {
            batch.dist.clone()
        } else {
            batch.cum.clone()
        };
        let dist_t = tape.input(dist_targets);
        let p = tape.input(self.p_tau.clone());
        let main = loss::weighted_msle(tape, fwd.cum, cum_t, p);

        let mut total = main;
        if self.options.dynamic && self.options.lambda_delta > 0.0 {
            let w = tape.input(self.omega.clone());
            let per_dist = loss::weighted_msle(tape, fwd.dist, dist_t, w);
            let scaled = tape.scale(per_dist, self.options.lambda_delta);
            total = tape.add(total, scaled);
        }
        if let Some(vl) = fwd.vae_loss {
            let scaled = tape.scale(vl, self.options.lambda_vae);
            total = tape.add(total, scaled);
        }
        let value = tape.value(total).get(0, 0);
        // The kernels now propagate non-finite values instead of masking
        // them behind the sparse zero-skip; catch a diverging loss at the
        // step that produced it rather than epochs later.
        debug_assert!(
            value.is_finite(),
            "non-finite training loss {value}: diverged batch (lr too high or bad targets)"
        );
        tape.backward(total, &mut self.store);
        opt.step(&mut self.store, 5.0);
        value
    }

    /// Validation MSLE of the cumulative predictions, weighted by `P(τ)`,
    /// plus the per-distance losses `ℓ_i` used by the ω update.
    fn validate(&self, valid: &TrainTensors) -> (f64, Vec<f32>) {
        let pred =
            self.model
                .infer_dist_batch_with(&self.store, &valid.x, self.kernel_parallelism());
        // Incremental models accumulate per-distance outputs into cumulative
        // predictions; the −incremental ablation already predicts cumulative.
        let mut cum = pred.clone();
        if self.model.config.incremental {
            for r in 0..cum.rows() {
                let row = cum.row_mut(r);
                for j in 1..row.len() {
                    row[j] += row[j - 1];
                }
            }
        }
        let per_col_cum = loss::msle_per_column(&cum, &valid.cum);
        let weighted: f64 = per_col_cum
            .iter()
            .zip(self.p_tau.row(0))
            .map(|(&l, &p)| f64::from(l) * f64::from(p))
            .sum();
        let dist_targets = if self.model.config.incremental {
            &valid.dist
        } else {
            &valid.cum
        };
        let per_dist = loss::msle_per_column(&pred, dist_targets);
        (weighted, per_dist)
    }

    /// The §6.2 ω update from validation loss trends.
    fn update_omega(&mut self, prev: &[f32], cur: &[f32]) {
        let deltas: Vec<f32> = cur.iter().zip(prev).map(|(&c, &p)| c - p).collect();
        let pos_sum: f32 = deltas.iter().filter(|&&d| d > 0.0).sum();
        let n_out = self.model.config.n_out;
        if pos_sum > 0.0 {
            for (i, &d) in deltas.iter().enumerate().take(n_out) {
                let w = if d > 0.0 { d / pos_sum } else { 0.0 };
                self.omega.set(0, i, w);
            }
        } else {
            // Everything improved: fall back to uniform focus.
            let u = 1.0 / n_out as f32;
            for i in 0..n_out {
                self.omega.set(0, i, u);
            }
        }
    }

    /// Full training loop with best-snapshot selection and early stopping.
    /// Returns the report; `self.store` holds the best parameters.
    pub fn fit(&mut self, train: &TrainTensors, valid: &TrainTensors) -> TrainReport {
        let started = std::time::Instant::now();
        self.pretrain_vae(&train.x);
        let mut opt = Adam::new(self.options.learning_rate);
        let n = train.n_examples();
        let bs = self.options.batch_size.min(n).max(1);
        let mut order: Vec<usize> = (0..n).collect();

        let mut best = f64::INFINITY;
        let mut best_params: Option<ParamStore> = None;
        let mut prev_per_dist: Option<Vec<f32>> = None;
        let mut bad_validations = 0usize;
        let mut epochs_run = 0usize;
        let mut tape = Tape::new();

        for epoch in 0..self.options.epochs {
            epochs_run = epoch + 1;
            // Step-decay schedule: halve the rate at 50% and 75% of the run.
            let lr = self.options.learning_rate
                * if epoch * 4 >= self.options.epochs * 3 {
                    0.25
                } else if epoch * 2 >= self.options.epochs {
                    0.5
                } else {
                    1.0
                };
            opt.set_learning_rate(lr);
            order.shuffle(&mut self.rng);
            for chunk in order.chunks(bs) {
                let batch = train.batch(chunk);
                self.step(&mut tape, &batch, &mut opt);
            }
            if (epoch + 1) % self.options.validate_every == 0 || epoch + 1 == self.options.epochs {
                let (val, per_dist) = self.validate(valid);
                if let Some(prev) = &prev_per_dist {
                    if self.options.dynamic {
                        self.update_omega(prev, &per_dist);
                    }
                }
                prev_per_dist = Some(per_dist);
                if val < best {
                    best = val;
                    best_params = Some(self.store.clone());
                    bad_validations = 0;
                } else {
                    bad_validations += 1;
                    if self.options.patience > 0 && bad_validations >= self.options.patience {
                        break;
                    }
                }
            }
        }
        if let Some(p) = best_params {
            self.store = p;
        }
        TrainReport {
            epochs_run,
            best_val_msle: best,
            train_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// Continues training from the current parameters (incremental learning,
    /// §8): stops once validation MSLE is flat for `flat_epochs` consecutive
    /// validations.
    pub fn fit_incremental(
        &mut self,
        train: &TrainTensors,
        valid: &TrainTensors,
        max_epochs: usize,
        flat_epochs: usize,
    ) -> TrainReport {
        let started = std::time::Instant::now();
        let mut opt = Adam::new(self.options.learning_rate * 0.5);
        let n = train.n_examples();
        let bs = self.options.batch_size.min(n).max(1);
        let mut order: Vec<usize> = (0..n).collect();
        let (mut last_val, _) = self.validate(valid);
        let mut flat = 0usize;
        let mut epochs_run = 0usize;
        let mut tape = Tape::new();
        for _ in 0..max_epochs {
            epochs_run += 1;
            order.shuffle(&mut self.rng);
            for chunk in order.chunks(bs) {
                let batch = train.batch(chunk);
                self.step(&mut tape, &batch, &mut opt);
            }
            let (val, _) = self.validate(valid);
            // "Until the validation error does not change for three
            // consecutive epochs" — change below 1% counts as unchanged.
            if (val - last_val).abs() <= 0.01 * last_val.max(1e-9) {
                flat += 1;
                if flat >= flat_epochs {
                    break;
                }
            } else {
                flat = 0;
            }
            last_val = val;
        }
        TrainReport {
            epochs_run,
            best_val_msle: last_val,
            train_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// Current validation MSLE (used by the §8 update monitor).
    pub fn validation_msle(&self, valid: &TrainTensors) -> f64 {
        self.validate(valid).0
    }
}

/// Convenience: trains CardNet (or CardNet-A via `config.encoder`) from
/// workloads, returning the trainer (model + weights) and report.
pub fn train_cardnet(
    fx: &dyn FeatureExtractor,
    train_wl: &Workload,
    valid_wl: &Workload,
    config: CardNetConfig,
    options: TrainerOptions,
) -> (Trainer, TrainReport) {
    let train = prepare_tensors(train_wl, fx);
    let valid = prepare_tensors(valid_wl, fx);
    let p_tau = tau_distribution(fx, &valid_wl.thresholds, config.n_out);
    let mut trainer = Trainer::new(config, options, p_tau);
    let report = trainer.fit(&train, &valid);
    (trainer, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::composed_forward;
    use crate::model::EncoderKind;
    use cardest_data::synth::{hm_imagenet, SynthConfig};
    use cardest_fx::build_extractor;
    use cardest_nn::{KernelBackend, Var};

    fn small_setup() -> (Box<dyn FeatureExtractor>, Workload, Workload) {
        let ds = hm_imagenet(SynthConfig::new(300, 42));
        let fx = build_extractor(&ds, 20, 1);
        let wl = Workload::sample_from(&ds, 0.4, 10, 2);
        let split = wl.split(3);
        (fx, split.train, split.valid)
    }

    fn tiny_config(fx: &dyn FeatureExtractor, enc: EncoderKind) -> CardNetConfig {
        let mut cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
        cfg.encoder = enc;
        cfg.phi_hidden = vec![32, 24];
        cfg.z_dim = 16;
        cfg.vae_hidden = vec![32];
        cfg.vae_latent = 8;
        cfg
    }

    #[test]
    fn training_reduces_validation_loss() {
        let (fx, train_wl, valid_wl) = small_setup();
        let cfg = tiny_config(fx.as_ref(), EncoderKind::Shared);
        let train = prepare_tensors(&train_wl, fx.as_ref());
        let valid = prepare_tensors(&valid_wl, fx.as_ref());
        let p = tau_distribution(fx.as_ref(), &valid_wl.thresholds, cfg.n_out);
        let mut opts = TrainerOptions::quick();
        opts.epochs = 12;
        opts.vae_epochs = 4;
        let mut trainer = Trainer::new(cfg, opts, p);
        let before = trainer.validation_msle(&valid);
        let report = trainer.fit(&train, &valid);
        assert!(
            report.best_val_msle < before,
            "no improvement: {} -> {}",
            before,
            report.best_val_msle
        );
    }

    #[test]
    fn accelerated_variant_trains_too() {
        let (fx, train_wl, valid_wl) = small_setup();
        let cfg = tiny_config(fx.as_ref(), EncoderKind::Accelerated);
        let mut opts = TrainerOptions::quick();
        opts.epochs = 8;
        opts.vae_epochs = 3;
        let (trainer, report) = train_cardnet(fx.as_ref(), &train_wl, &valid_wl, cfg, opts);
        assert!(report.best_val_msle.is_finite());
        // Estimates must still be monotone after training.
        let x = cardest_nn::Matrix::from_vec(
            1,
            fx.dim(),
            fx.extract(&train_wl.queries[0].query).to_f32(),
        );
        let mut prev = 0.0;
        for tau in 0..=fx.tau_max() {
            let est = trainer.model.infer_sum(&trainer.store, &x, tau);
            assert!(est >= prev - 1e-9);
            prev = est;
        }
    }

    /// Every kernel backend trains the same weights, bit for bit: two
    /// CardNet steps (forward, backward, Adam) on tapes pinned to each
    /// backend, against an unpinned tape.
    #[test]
    fn training_steps_are_bit_identical_across_backends() {
        let (fx, train_wl, _) = small_setup();
        let data = prepare_tensors(&train_wl, fx.as_ref());
        let batch = data.batch(&(0..64).collect::<Vec<_>>());
        let cfg = CardNetConfig::new(fx.dim(), fx.tau_max() + 1);
        let p_tau = Matrix::full(1, cfg.n_out, 1.0 / cfg.n_out as f32);
        let train = |par: Parallelism| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut store = ParamStore::new();
            let model = CardNetModel::new(&mut store, &mut rng, cfg.clone());
            let mut opt = Adam::new(1e-3);
            for _ in 0..2 {
                let mut tape = Tape::with_parallelism(par);
                let fwd = model.forward_train(&mut tape, &store, batch.x.clone(), &mut rng, 0.1);
                let (cum, p) = (tape.input(batch.cum.clone()), tape.input(p_tau.clone()));
                let main = loss::weighted_msle(&mut tape, fwd.cum, cum, p);
                let vae = tape.scale(fwd.vae_loss.expect("VAE enabled"), 0.1);
                let total = tape.add(main, vae);
                tape.backward(total, &mut store);
                opt.step(&mut store, f32::INFINITY);
            }
            store
        };
        let want = train(Parallelism::serial());
        for backend in [KernelBackend::Blocked, KernelBackend::Simd] {
            let got = train(Parallelism::serial().with_backend(backend));
            for id in want.ids() {
                let (w, g) = (want.value(id).as_slice(), got.value(id).as_slice());
                assert!(
                    w.iter().zip(g).all(|(w, g)| w.to_bits() == g.to_bits()),
                    "{} differs under {}",
                    want.name(id),
                    backend.label()
                );
            }
        }
    }

    /// The optimizer the fused [`Adam::step`] replaced, with `Adam::new`'s
    /// hyperparameters: clip the gradients in place, run Adam's element
    /// loop, which skips a non-finite gradient with a `continue`, then zero
    /// the gradients.
    struct ReferenceAdam {
        lr: f32,
        t: i32,
        m: Vec<Matrix>,
        v: Vec<Matrix>,
    }

    impl ReferenceAdam {
        fn new(lr: f32) -> Self {
            ReferenceAdam {
                lr,
                t: 0,
                m: Vec::new(),
                v: Vec::new(),
            }
        }

        fn step(&mut self, store: &mut ParamStore, max_norm: f32) {
            let (b1, b2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, self.lr);
            store.clip_grad_norm(max_norm);
            for id in store.ids().skip(self.m.len()) {
                let (r, c) = store.value(id).shape();
                self.m.push(Matrix::zeros(r, c));
                self.v.push(Matrix::zeros(r, c));
            }
            self.t += 1;
            let bc1 = 1.0 - b1.powi(self.t);
            let bc2 = 1.0 - b2.powi(self.t);
            let ids: Vec<_> = store.ids().collect();
            for (id, (m, v)) in ids.into_iter().zip(self.m.iter_mut().zip(&mut self.v)) {
                store.update(id, |value, grad| {
                    let (m, v) = (m.as_mut_slice(), v.as_mut_slice());
                    for (i, x) in value.as_mut_slice().iter_mut().enumerate() {
                        let g = grad.as_slice()[i];
                        if !g.is_finite() {
                            continue;
                        }
                        m[i] = b1 * m[i] + (1.0 - b1) * g;
                        v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                        *x -= lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
                    }
                });
            }
            store.zero_grads();
        }
    }

    /// [`loss::weighted_msle`] as the seven primitive nodes it replaced.
    fn composed_weighted_msle(tape: &mut Tape, pred: Var, target: Var, weights: Var) -> Var {
        let lp = tape.ln1p(pred);
        let lt = tape.ln1p(target);
        let diff = tape.sub(lp, lt);
        let sq = tape.square(diff);
        let weighted = tape.mul_row(sq, weights);
        let total = tape.sum_all(weighted);
        let n = tape.value(pred).rows().max(1) as f32;
        tape.scale(total, 1.0 / n)
    }

    /// [`Trainer::step`] on the composed graph and the reference optimizer:
    /// the model through `model::tests::composed_forward`, each loss as its
    /// primitive ops. Returns the loss and the gradient norm before the
    /// clip.
    fn reference_step(
        trainer: &mut Trainer,
        tape: &mut Tape,
        batch: &TrainTensors,
        opt: &mut ReferenceAdam,
    ) -> (f32, f32) {
        tape.reset(trainer.kernel_parallelism());
        let fwd = composed_forward(
            &trainer.model,
            tape,
            &trainer.store,
            batch.x.clone(),
            &mut trainer.rng,
            0.1,
        );
        let cum_t = tape.input(batch.cum.clone());
        let dist_targets = if trainer.model.config.incremental {
            batch.dist.clone()
        } else {
            batch.cum.clone()
        };
        let dist_t = tape.input(dist_targets);
        let p = tape.input(trainer.p_tau.clone());
        let main = composed_weighted_msle(tape, fwd.cum, cum_t, p);
        let w = tape.input(trainer.omega.clone());
        let per_dist = composed_weighted_msle(tape, fwd.dist, dist_t, w);
        let scaled = tape.scale(per_dist, trainer.options.lambda_delta);
        let total = tape.add(main, scaled);
        let vae = fwd.vae_loss.expect("VAE enabled");
        let scaled = tape.scale(vae, trainer.options.lambda_vae);
        let total = tape.add(total, scaled);
        let value = tape.value(total).get(0, 0);
        tape.backward(total, &mut trainer.store);
        let norm = trainer.store.grad_norm();
        opt.step(&mut trainer.store, 5.0);
        (value, norm)
    }

    /// Three [`Trainer::step`]s of CardNet and of CardNet-A, with the VAE
    /// and the dynamic ω term, leave every parameter, gradient and loss bit
    /// for bit where the same steps through the composed graph and the
    /// reference optimizer leave them, on a tape with fewer nodes. The
    /// second batch's targets are scaled up until the clip fires on it.
    #[test]
    fn fused_training_steps_match_unfused_reference_bitwise() {
        let (fx, train_wl, _) = small_setup();
        let data = prepare_tensors(&train_wl, fx.as_ref());
        for enc in [EncoderKind::Shared, EncoderKind::Accelerated] {
            let cfg = tiny_config(fx.as_ref(), enc);
            let n_out = cfg.n_out;
            let p_tau: Vec<f32> = (0..n_out).map(|i| (i + 1) as f32 / 100.0).collect();
            let trainer = || {
                let mut t = Trainer::new(cfg.clone(), TrainerOptions::quick(), p_tau.clone());
                t.omega = Matrix::from_fn(1, n_out, |_, i| if i % 2 == 0 { 0.3 } else { 0.05 });
                t
            };
            let (mut fused, mut reference) = (trainer(), trainer());
            assert!(fused.options.dynamic && fused.options.lambda_delta > 0.0);
            let lr = fused.options.learning_rate;
            let (mut opt, mut ref_opt) = (Adam::new(lr), ReferenceAdam::new(lr));
            let (mut tape, mut ref_tape) = (Tape::new(), Tape::new());
            let mut clipped = Vec::new();
            for step in 0..3 {
                let rows: Vec<usize> = (step * 32..step * 32 + 32).collect();
                let mut batch = data.batch(&rows);
                if step == 1 {
                    for t in [&mut batch.cum, &mut batch.dist] {
                        t.as_mut_slice()
                            .iter_mut()
                            .for_each(|v| *v = *v * 1e4 + 1e3);
                    }
                }
                let got = fused.step(&mut tape, &batch, &mut opt);
                let (want, norm) =
                    reference_step(&mut reference, &mut ref_tape, &batch, &mut ref_opt);
                clipped.push(norm > 5.0);
                let cell = format!("{enc:?} step {step}");
                assert_eq!(got.to_bits(), want.to_bits(), "{cell}: loss");
                assert!(tape.len() < ref_tape.len(), "{cell}: node count");
                for id in reference.store.ids() {
                    let name = reference.store.name(id);
                    let same = |a: &Matrix, b: &Matrix| {
                        a.as_slice()
                            .iter()
                            .zip(b.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                    };
                    let (w, g) = (&reference.store, &fused.store);
                    assert!(same(w.value(id), g.value(id)), "{cell}: {name} value");
                    assert!(same(w.grad(id), g.grad(id)), "{cell}: {name} gradient");
                }
            }
            assert_eq!(clipped, [false, true, false], "{enc:?}: clip pattern");
        }
    }

    #[test]
    fn omega_update_targets_worsening_distances() {
        let (fx, _, valid_wl) = small_setup();
        let cfg = tiny_config(fx.as_ref(), EncoderKind::Shared);
        let n_out = cfg.n_out;
        let p = tau_distribution(fx.as_ref(), &valid_wl.thresholds, n_out);
        let mut trainer = Trainer::new(cfg, TrainerOptions::quick(), p);
        let prev = vec![1.0f32; n_out];
        let mut cur = vec![0.5f32; n_out];
        cur[3] = 2.0; // distance 3 got worse
        cur[5] = 1.5; // distance 5 got worse (half as much)
        trainer.update_omega(&prev, &cur);
        let w3 = trainer.omega.get(0, 3);
        let w5 = trainer.omega.get(0, 5);
        assert!((w3 - 2.0 / 3.0).abs() < 1e-5, "w3 = {w3}");
        assert!((w5 - 1.0 / 3.0).abs() < 1e-5, "w5 = {w5}");
        let total: f32 = (0..n_out).map(|i| trainer.omega.get(0, i)).sum();
        assert!((total - 1.0).abs() < 1e-5);
        assert_eq!(trainer.omega.get(0, 0), 0.0);
    }

    #[test]
    fn omega_falls_back_to_uniform_when_all_improve() {
        let (fx, _, valid_wl) = small_setup();
        let cfg = tiny_config(fx.as_ref(), EncoderKind::Shared);
        let n_out = cfg.n_out;
        let p = tau_distribution(fx.as_ref(), &valid_wl.thresholds, n_out);
        let mut trainer = Trainer::new(cfg, TrainerOptions::quick(), p);
        trainer.update_omega(&vec![1.0; n_out], &vec![0.2; n_out]);
        for i in 0..n_out {
            assert!((trainer.omega.get(0, i) - 1.0 / n_out as f32).abs() < 1e-6);
        }
    }
}
