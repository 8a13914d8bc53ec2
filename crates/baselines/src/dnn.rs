//! `DL-DNN` and `DL-DNNsτ` — the "just feed a network" baselines.
//!
//! * `DL-DNN`: one vanilla FNN with four hidden layers over `[features ; θ]`,
//!   trained with MSLE. The paper uses it to show that naive deep regression
//!   underperforms incremental prediction.
//! * `DL-DNNsτ`: `τ_max + 1` *independently trained* networks, the k-th
//!   predicting the cardinality at transformed threshold `τ = k`. More
//!   parameters, slower to train, prone to overfitting (§9.2), and not
//!   monotonic across τ.

use crate::features::{prepared_features, BaselineFeaturizer, RegressionData};
use cardest_core::{
    next_instance_id, CardinalityCurve, CardinalityEstimator, Estimate, PreparedQuery,
};
use cardest_data::{Record, Workload};
use cardest_fx::FeatureExtractor;
use cardest_nn::layers::{Activation, Mlp};
use cardest_nn::{loss, Adam, Matrix, Parallelism, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// Shared training knobs for the DNN-family baselines.
#[derive(Clone, Debug)]
pub struct DnnOptions {
    pub hidden: Vec<usize>,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    pub seed: u64,
}

impl Default for DnnOptions {
    fn default() -> Self {
        DnnOptions {
            // Four hidden layers, per the paper's DL-DNN (scaled widths).
            hidden: vec![96, 64, 48, 32],
            epochs: 40,
            batch_size: 64,
            learning_rate: 2e-3,
            seed: 7,
        }
    }
}

/// Trains an MLP regressor with MSLE on `(x, y)`; the shared core of the
/// deep baselines (also used by RMI's stages).
pub(crate) fn fit_msle_mlp(
    x: &Matrix,
    y: &Matrix,
    hidden: &[usize],
    opts: &DnnOptions,
    name: &str,
) -> (Mlp, ParamStore) {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut store = ParamStore::new();
    let mlp = Mlp::new(
        &mut store,
        &mut rng,
        name,
        x.cols(),
        hidden,
        1,
        Activation::Relu,
        Activation::Relu, // cardinalities are non-negative
    );
    let mut opt = Adam::new(opts.learning_rate);
    let n = x.rows();
    let bs = opts.batch_size.min(n).max(1);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..opts.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(bs) {
            let xb = x.gather_rows(chunk);
            let yb = y.gather_rows(chunk);
            let mut tape = Tape::new();
            let xv = tape.input(xb);
            let yv = tape.input(yb);
            let pred = mlp.forward(&mut tape, &store, xv);
            let l = loss::msle(&mut tape, pred, yv);
            tape.backward(l, &mut store);
            opt.step(&mut store, 5.0);
        }
    }
    (mlp, store)
}

/// One vanilla deep network over `[features ; θ]`.
pub struct DlDnn {
    mlp: Mlp,
    store: ParamStore,
    featurizer: BaselineFeaturizer,
    theta_max: f64,
    prep_id: u64,
}

impl DlDnn {
    pub fn train(
        workload: &Workload,
        featurizer: BaselineFeaturizer,
        theta_max: f64,
        opts: DnnOptions,
    ) -> Self {
        let data = RegressionData::from_workload(workload, &featurizer, theta_max);
        let (mlp, store) = fit_msle_mlp(&data.x, &data.y, &opts.hidden, &opts, "dldnn");
        DlDnn {
            mlp,
            store,
            featurizer,
            theta_max,
            prep_id: next_instance_id(),
        }
    }
}

impl CardinalityEstimator for DlDnn {
    fn estimate(&self, query: &Record, theta: f64) -> f64 {
        let x = RegressionData::query_row(&self.featurizer, query, theta, self.theta_max);
        f64::from(self.mlp.infer(&self.store, &x).get(0, 0))
    }

    /// Featurizes once; every θ of a sweep reuses the cached vector.
    fn prepare(&self, query: &Record) -> PreparedQuery {
        let prepared = PreparedQuery::from_record(query.clone());
        let _ = prepared_features(&self.featurizer, self.prep_id, &prepared);
        prepared
    }

    fn curve(&self, prepared: &PreparedQuery, theta: f64) -> CardinalityCurve {
        let feats = prepared_features(&self.featurizer, self.prep_id, prepared);
        let x = RegressionData::row_from_features(&feats.0, theta, self.theta_max);
        CardinalityCurve::point(f64::from(self.mlp.infer(&self.store, &x).get(0, 0)))
    }

    /// One stacked forward pass for the whole batch. The batched kernel
    /// computes each row with the per-row arithmetic of the single-query
    /// path, so batch estimates are bit-identical to scalar `estimate`
    /// calls (pinned by the `batched_dnn_matches_scalar_bitwise` test).
    fn estimate_batch(&self, prepared: &[&PreparedQuery], thetas: &[f64]) -> Vec<Estimate> {
        self.estimate_batch_par(prepared, thetas, Parallelism::serial())
    }

    fn estimate_batch_par(
        &self,
        prepared: &[&PreparedQuery],
        thetas: &[f64],
        par: Parallelism,
    ) -> Vec<Estimate> {
        assert_eq!(
            prepared.len(),
            thetas.len(),
            "estimate_batch: {} queries vs {} thresholds",
            prepared.len(),
            thetas.len()
        );
        if prepared.is_empty() {
            return Vec::new();
        }
        // One flat `n × (dim + 1)` fill — same per-row layout as
        // `RegressionData::row_from_features`, without a matrix per query.
        let dim = self.featurizer.dim();
        let width = dim + 1;
        let mut data = vec![0.0f32; prepared.len() * width];
        for ((p, &theta), row) in prepared.iter().zip(thetas).zip(data.chunks_mut(width)) {
            let feats = prepared_features(&self.featurizer, self.prep_id, p);
            row[..dim].copy_from_slice(&feats.0);
            row[dim] = (theta / self.theta_max.max(1e-12)) as f32;
        }
        let x = Matrix::from_vec(prepared.len(), width, data);
        let pred = self.mlp.infer_with(&self.store, &x, par);
        let source: Arc<str> = CardinalityEstimator::name(self).into();
        (0..prepared.len())
            .map(|r| Estimate::exact(f64::from(pred.get(r, 0))).with_source(Arc::clone(&source)))
            .collect()
    }

    fn name(&self) -> String {
        "DL-DNN".into()
    }

    fn size_bytes(&self) -> usize {
        self.store.size_bytes()
    }
}

/// `τ_max + 1` independent networks, one per transformed threshold.
pub struct DlDnnSTau {
    models: Vec<(Mlp, ParamStore)>,
    fx: Box<dyn FeatureExtractor>,
    prep_id: u64,
}

impl DlDnnSTau {
    /// Trains one network per τ on the queries' cumulative cardinality at
    /// that τ. The feature extractor supplies both the input encoding and the
    /// τ mapping (thresholds are grouped by `h_thr`).
    pub fn train(workload: &Workload, fx: Box<dyn FeatureExtractor>, opts: DnnOptions) -> Self {
        let n_out = fx.tau_max() + 1;
        let nq = workload.len();
        let d = fx.dim();
        let mut x = Matrix::zeros(nq, d);
        for (r, lq) in workload.queries.iter().enumerate() {
            fx.extract(&lq.query).write_f32(x.row_mut(r));
        }
        // Cumulative target per τ (same derivation as the CardNet tensors).
        let mut models = Vec::with_capacity(n_out);
        for tau in 0..n_out {
            let mut y = Matrix::zeros(nq, 1);
            for (r, lq) in workload.queries.iter().enumerate() {
                // Largest grid threshold mapping to ≤ tau gives the target.
                let mut target = 0.0f32;
                for (&theta, &c) in workload.thresholds.iter().zip(&lq.cards) {
                    if fx.map_threshold(theta) <= tau {
                        target = c as f32;
                    }
                }
                y.set(r, 0, target);
            }
            // Smaller nets per τ keep total size comparable to the paper's
            // relative ordering (DNNsτ is still the largest model).
            let sub_opts = DnnOptions {
                hidden: vec![48, 32],
                epochs: opts.epochs / 2,
                seed: opts.seed + tau as u64,
                ..opts.clone()
            };
            models.push(fit_msle_mlp(
                &x,
                &y,
                &sub_opts.hidden.clone(),
                &sub_opts,
                "dnnstau",
            ));
        }
        DlDnnSTau {
            models,
            fx,
            prep_id: next_instance_id(),
        }
    }
}

impl CardinalityEstimator for DlDnnSTau {
    fn estimate(&self, query: &Record, theta: f64) -> f64 {
        let tau = self.fx.map_threshold(theta).min(self.models.len() - 1);
        let bits = self.fx.extract(query);
        let x = Matrix::from_vec(1, bits.len(), bits.to_f32());
        let (mlp, store) = &self.models[tau];
        f64::from(mlp.infer(store, &x).get(0, 0))
    }

    /// Extracts the shared input encoding once for all τ networks.
    fn prepare(&self, query: &Record) -> PreparedQuery {
        PreparedQuery::with_bits(query.clone(), self.prep_id, self.fx.extract(query))
    }

    /// A genuinely multi-step curve: step t is the t-th independent
    /// network's prediction — which is exactly why DNNsτ is *not* monotone
    /// across τ (the paper's point).
    fn curve(&self, prepared: &PreparedQuery, theta: f64) -> CardinalityCurve {
        let tau = self.threshold_step(theta);
        let x = cardest_core::prepared_feature_matrix(self.fx.as_ref(), self.prep_id, prepared);
        CardinalityCurve::from_values(
            (0..=tau)
                .map(|t| {
                    let (mlp, store) = &self.models[t];
                    f64::from(mlp.infer(store, &x).get(0, 0))
                })
                .collect(),
        )
    }

    fn threshold_step(&self, theta: f64) -> usize {
        self.fx.map_threshold(theta).min(self.models.len() - 1)
    }

    fn name(&self) -> String {
        "DL-DNNsT".into()
    }

    fn size_bytes(&self) -> usize {
        self.models.iter().map(|(_, s)| s.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_data::metrics;
    use cardest_data::synth::{hm_imagenet, SynthConfig};
    use cardest_fx::build_extractor;

    fn setup() -> (cardest_data::Dataset, Workload, Workload) {
        let ds = hm_imagenet(SynthConfig::new(300, 17));
        let wl = Workload::sample_from(&ds, 0.4, 8, 2);
        let split = wl.split(3);
        (ds, split.train, split.test)
    }

    fn eval(est: &dyn CardinalityEstimator, wl: &Workload) -> f64 {
        let mut actual = Vec::new();
        let mut pred = Vec::new();
        for lq in &wl.queries {
            for (&theta, &c) in wl.thresholds.iter().zip(&lq.cards) {
                actual.push(f64::from(c));
                pred.push(est.estimate(&lq.query, theta));
            }
        }
        metrics::msle(&actual, &pred)
    }

    #[test]
    fn dnn_learns_something() {
        let (ds, train_wl, test_wl) = setup();
        let f = BaselineFeaturizer::from_dataset(&ds, 1);
        let opts = DnnOptions {
            epochs: 15,
            hidden: vec![48, 32],
            ..Default::default()
        };
        let dnn = DlDnn::train(&train_wl, f, ds.theta_max, opts);
        let msle = eval(&dnn, &test_wl);
        // The mean cardinality spans orders of magnitude; a trained model
        // should land well under MSLE of 9 (≈ e^3x multiplicative error).
        assert!(msle < 9.0, "DL-DNN failed to learn: MSLE {msle}");
        assert!(dnn.size_bytes() > 0);
    }

    #[test]
    fn batched_dnn_matches_scalar_bitwise() {
        // The stacked batch kernel, on either pinned backend, must agree
        // with per-query `estimate` bit for bit — same contract as CardNet's
        // batch path, which is what lets the serve layer batch baselines too.
        let (ds, train_wl, test_wl) = setup();
        let f = BaselineFeaturizer::from_dataset(&ds, 1);
        let opts = DnnOptions {
            epochs: 3,
            hidden: vec![32, 16],
            ..Default::default()
        };
        let dnn = DlDnn::train(&train_wl, f, ds.theta_max, opts);
        let queries: Vec<Record> = test_wl
            .queries
            .iter()
            .take(9)
            .map(|lq| lq.query.clone())
            .collect();
        let thetas: Vec<f64> = (0..queries.len())
            .map(|i| ds.theta_max * i as f64 / 8.0)
            .collect();
        let prepared: Vec<PreparedQuery> = queries.iter().map(|q| dnn.prepare(q)).collect();
        let refs: Vec<&PreparedQuery> = prepared.iter().collect();
        for backend in [
            cardest_nn::KernelBackend::Blocked,
            cardest_nn::KernelBackend::Simd,
        ] {
            let par = Parallelism::serial().with_backend(backend);
            let batch = dnn.estimate_batch_par(&refs, &thetas, par);
            for ((q, &theta), got) in queries.iter().zip(&thetas).zip(&batch) {
                let want = dnn.estimate(q, theta);
                assert_eq!(
                    got.value.to_bits(),
                    want.to_bits(),
                    "{} θ={theta}: {} vs {want}",
                    backend.label(),
                    got.value
                );
            }
        }
    }

    #[test]
    fn dnnstau_trains_one_model_per_tau() {
        let (ds, train_wl, test_wl) = setup();
        let fx = build_extractor(&ds, 10, 1);
        let n_models = fx.tau_max() + 1;
        let opts = DnnOptions {
            epochs: 8,
            ..Default::default()
        };
        let est = DlDnnSTau::train(&train_wl, fx, opts);
        assert_eq!(est.models.len(), n_models);
        let msle = eval(&est, &test_wl);
        assert!(msle.is_finite());
        // DNNsτ must be the biggest model of the DNN family.
        let f = BaselineFeaturizer::from_dataset(&ds, 1);
        let dnn = DlDnn::train(
            &train_wl,
            f,
            ds.theta_max,
            DnnOptions {
                epochs: 2,
                hidden: vec![48, 32],
                ..Default::default()
            },
        );
        assert!(est.size_bytes() > dnn.size_bytes());
    }
}
