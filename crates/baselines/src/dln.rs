//! `DL-DLN`: a monotone deep network standing in for deep lattice networks
//! (You et al.). DESIGN.md §2.4 documents the substitution.
//!
//! Real DLNs stack calibrators and ensembles of interpolated lattices; the
//! defining property for this evaluation is *end-to-end monotonicity in θ*
//! combined with free (unconstrained) processing of the record features.
//! This implementation achieves exactly that with a partially-monotone MLP:
//!
//! * layer 1 splits its weight matrix — feature weights are unconstrained,
//!   the θ column's weights pass through `softplus` (non-negative);
//! * every subsequent layer's weights pass through `softplus` entirely, and
//!   activations are monotone (ReLU);
//! * hence every path from θ to the output has a non-negative product of
//!   weights and the output is non-decreasing in θ (the classic monotone
//!   network construction of Daniels & Velikova, which lattice networks
//!   generalize).

use crate::features::{prepared_features, BaselineFeaturizer, RegressionData};
use cardest_core::{next_instance_id, CardinalityCurve, CardinalityEstimator, PreparedQuery};
use cardest_data::{Record, Workload};
use cardest_nn::{init, loss, Adam, Matrix, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// DLN-substitute hyperparameters.
#[derive(Clone, Debug)]
pub struct DlnOptions {
    pub hidden: Vec<usize>,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    pub seed: u64,
}

impl Default for DlnOptions {
    fn default() -> Self {
        DlnOptions {
            hidden: vec![48, 32],
            epochs: 40,
            batch_size: 64,
            learning_rate: 2e-3,
            seed: 13,
        }
    }
}

struct MonotoneLayer {
    /// Unconstrained weights for the non-monotone inputs (first layer only
    /// has both blocks; later layers treat every input as monotone).
    w_free: Option<ParamId>,
    /// Raw weights for monotone inputs; `softplus` applied at use time.
    w_mono_raw: ParamId,
    b: ParamId,
}

impl MonotoneLayer {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, free: Option<Var>, mono: Var) -> Var {
        let w_mono_raw = tape.param(store, self.w_mono_raw);
        let w_mono = tape.softplus(w_mono_raw);
        let mut h = tape.matmul(mono, w_mono);
        if let (Some(fv), Some(wf)) = (free, self.w_free) {
            let w_free = tape.param(store, wf);
            let hf = tape.matmul(fv, w_free);
            h = tape.add(h, hf);
        }
        let b = tape.param(store, self.b);
        let h = tape.add_row(h, b);
        tape.relu(h)
    }

    fn infer(&self, store: &ParamStore, free: Option<&Matrix>, mono: &Matrix) -> Matrix {
        let w_mono = store.value(self.w_mono_raw).map(softplus);
        let mut h = mono.matmul(&w_mono);
        if let (Some(fm), Some(wf)) = (free, self.w_free) {
            h.axpy(1.0, &fm.matmul(store.value(wf)));
        }
        let b = store.value(self.b);
        for r in 0..h.rows() {
            for (v, &bias) in h.row_mut(r).iter_mut().zip(b.row(0)) {
                *v = (*v + bias).max(0.0);
            }
        }
        h
    }
}

fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else {
        x.exp().ln_1p()
    }
}

/// The partially-monotone network.
pub struct DlDln {
    layers: Vec<MonotoneLayer>,
    store: ParamStore,
    featurizer: BaselineFeaturizer,
    theta_max: f64,
    prep_id: u64,
}

impl DlDln {
    pub fn train(
        workload: &Workload,
        featurizer: BaselineFeaturizer,
        theta_max: f64,
        opts: DlnOptions,
    ) -> Self {
        let data = RegressionData::from_workload(workload, &featurizer, theta_max);
        let feat_dim = data.feat_dim;
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut store = ParamStore::new();

        let mut layers = Vec::new();
        let mut mono_in = 1usize; // θ column
        let mut free_in = feat_dim;
        let dims: Vec<usize> = opts.hidden.iter().copied().chain([1usize]).collect();
        for (i, &out) in dims.iter().enumerate() {
            let w_free = (free_in > 0).then(|| {
                store.register(
                    format!("dln.{i}.wf"),
                    init::he_normal(&mut rng, free_in, out),
                )
            });
            // Raw weights start slightly negative so softplus yields small
            // positives (≈ gentle initial slopes).
            let raw = init::he_normal(&mut rng, mono_in, out).map(|v| v.abs() * 0.5 - 1.0);
            let w_mono_raw = store.register(format!("dln.{i}.wm"), raw);
            let b = store.register(format!("dln.{i}.b"), Matrix::zeros(1, out));
            layers.push(MonotoneLayer {
                w_free,
                w_mono_raw,
                b,
            });
            // After layer 1 all activations sit on monotone paths.
            mono_in = out;
            free_in = 0;
        }

        let mut opt = Adam::new(opts.learning_rate);
        let n = data.x.rows();
        let bs = opts.batch_size.min(n).max(1);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..opts.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(bs) {
                let xb = data.x.gather_rows(chunk);
                let yb = data.y.gather_rows(chunk);
                let mut tape = Tape::new();
                let xv = tape.input(xb);
                let yv = tape.input(yb);
                let feats = tape.slice_cols(xv, 0, feat_dim);
                let theta = tape.slice_cols(xv, feat_dim, feat_dim + 1);
                let mut h = layers[0].forward(&mut tape, &store, Some(feats), theta);
                for layer in &layers[1..] {
                    h = layer.forward(&mut tape, &store, None, h);
                }
                let l = loss::msle(&mut tape, h, yv);
                tape.backward(l, &mut store);
                opt.step(&mut store, 5.0);
            }
        }
        DlDln {
            layers,
            store,
            featurizer,
            theta_max,
            prep_id: next_instance_id(),
        }
    }

    fn infer(&self, x: &Matrix, feat_dim: usize) -> f64 {
        let feats = x.slice_cols(0, feat_dim);
        let theta = x.slice_cols(feat_dim, feat_dim + 1);
        let mut h = self.layers[0].infer(&self.store, Some(&feats), &theta);
        for layer in &self.layers[1..] {
            h = layer.infer(&self.store, None, &h);
        }
        f64::from(h.get(0, 0))
    }
}

impl CardinalityEstimator for DlDln {
    fn estimate(&self, query: &Record, theta: f64) -> f64 {
        let x = RegressionData::query_row(&self.featurizer, query, theta, self.theta_max);
        self.infer(&x, self.featurizer.dim())
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
        CardinalityCurve::point(self.infer(&x, self.featurizer.dim()))
    }

    fn name(&self) -> String {
        "DL-DLN".into()
    }

    fn size_bytes(&self) -> usize {
        self.store.size_bytes()
    }

    fn is_monotonic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_data::metrics;
    use cardest_data::synth::{hm_imagenet, SynthConfig};

    fn trained() -> (DlDln, cardest_data::Dataset, Workload) {
        let ds = hm_imagenet(SynthConfig::new(250, 29));
        let wl = Workload::sample_from(&ds, 0.4, 8, 2);
        let split = wl.split(3);
        let f = BaselineFeaturizer::from_dataset(&ds, 1);
        let opts = DlnOptions {
            epochs: 15,
            ..Default::default()
        };
        (
            DlDln::train(&split.train, f, ds.theta_max, opts),
            ds,
            split.test,
        )
    }

    #[test]
    fn dln_is_monotone_in_theta_for_many_queries() {
        let (dln, ds, _) = trained();
        for qi in (0..250).step_by(23) {
            let q = &ds.records[qi];
            let mut prev = -1.0;
            for i in 0..=40 {
                let theta = ds.theta_max * f64::from(i) / 40.0;
                let c = dln.estimate(q, theta);
                assert!(
                    c >= prev - 1e-6,
                    "query {qi}: estimate dropped at θ={theta}: {c} < {prev}"
                );
                prev = c;
            }
        }
    }

    #[test]
    fn dln_learns_coarsely() {
        let (dln, _, test_wl) = trained();
        let mut actual = Vec::new();
        let mut pred = Vec::new();
        for lq in &test_wl.queries {
            for (&theta, &c) in test_wl.thresholds.iter().zip(&lq.cards) {
                actual.push(f64::from(c));
                pred.push(dln.estimate(&lq.query, theta));
            }
        }
        let msle = metrics::msle(&actual, &pred);
        // The paper reports DLN as the weakest deep model — coarse is
        // expected, catastrophic is not.
        assert!(msle < 12.0, "DLN catastrophically bad: MSLE {msle}");
    }
}
