//! `DL-MoE`: a (sparsely-)gated mixture-of-experts regressor in the style of
//! Shazeer et al., adapted for cardinality estimation as in the paper.
//!
//! A gating network produces a softmax over `K` expert MLPs; the estimate is
//! the gate-weighted sum of expert outputs, trained end-to-end with MSLE.

use crate::features::{prepared_features, BaselineFeaturizer, RegressionData};
use cardest_core::{next_instance_id, CardinalityCurve, CardinalityEstimator, PreparedQuery};
use cardest_data::{Record, Workload};
use cardest_nn::layers::{Activation, Mlp};
use cardest_nn::{loss, Adam, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// MoE hyperparameters.
#[derive(Clone, Debug)]
pub struct MoeOptions {
    pub n_experts: usize,
    pub expert_hidden: Vec<usize>,
    pub gate_hidden: Vec<usize>,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    pub seed: u64,
}

impl Default for MoeOptions {
    fn default() -> Self {
        MoeOptions {
            n_experts: 4,
            expert_hidden: vec![64, 32],
            gate_hidden: vec![32],
            epochs: 40,
            batch_size: 64,
            learning_rate: 2e-3,
            seed: 11,
        }
    }
}

/// The gated mixture.
pub struct DlMoe {
    experts: Vec<Mlp>,
    gate: Mlp,
    store: ParamStore,
    featurizer: BaselineFeaturizer,
    theta_max: f64,
    prep_id: u64,
}

impl DlMoe {
    pub fn train(
        workload: &Workload,
        featurizer: BaselineFeaturizer,
        theta_max: f64,
        opts: MoeOptions,
    ) -> Self {
        let data = RegressionData::from_workload(workload, &featurizer, theta_max);
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut store = ParamStore::new();
        let experts: Vec<Mlp> = (0..opts.n_experts)
            .map(|k| {
                Mlp::new(
                    &mut store,
                    &mut rng,
                    &format!("moe.expert{k}"),
                    data.x.cols(),
                    &opts.expert_hidden,
                    1,
                    Activation::Relu,
                    Activation::Relu,
                )
            })
            .collect();
        let gate = Mlp::new(
            &mut store,
            &mut rng,
            "moe.gate",
            data.x.cols(),
            &opts.gate_hidden,
            opts.n_experts,
            Activation::Relu,
            Activation::None, // logits; softmax applied on the tape
        );

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
                let pred = Self::forward(&experts, &gate, &mut tape, &store, xv);
                let l = loss::msle(&mut tape, pred, yv);
                tape.backward(l, &mut store);
                opt.step(&mut store, 5.0);
            }
        }
        DlMoe {
            experts,
            gate,
            store,
            featurizer,
            theta_max,
            prep_id: next_instance_id(),
        }
    }

    /// Mixture forward pass: `Σ_k softmax(G(x))_k · E_k(x)`.
    fn forward(experts: &[Mlp], gate: &Mlp, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let logits = gate.forward(tape, store, x);
        let exp = tape.exp(logits);
        let denom = tape.row_sums(exp);
        let inv = tape.recip(denom);
        let gates = tape.mul_col(exp, inv); // n × K softmax
        let outs: Vec<Var> = experts.iter().map(|e| e.forward(tape, store, x)).collect();
        let stacked = tape.hconcat(&outs); // n × K
        let mixed = tape.mul(stacked, gates);
        tape.row_sums(mixed) // n × 1
    }

    fn infer(&self, x: &Matrix) -> f64 {
        let logits = self.gate.infer(&self.store, x);
        let row = logits.row(0);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let denom: f32 = exps.iter().sum();
        let mut total = 0.0f64;
        for (k, expert) in self.experts.iter().enumerate() {
            let w = f64::from(exps[k] / denom);
            if w < 1e-6 {
                continue; // sparse gating: skip negligible experts
            }
            total += w * f64::from(expert.infer(&self.store, x).get(0, 0));
        }
        total
    }
}

impl CardinalityEstimator for DlMoe {
    fn estimate(&self, query: &Record, theta: f64) -> f64 {
        let x = RegressionData::query_row(&self.featurizer, query, theta, self.theta_max);
        self.infer(&x)
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
        CardinalityCurve::point(self.infer(&x))
    }

    fn name(&self) -> String {
        "DL-MoE".into()
    }

    fn size_bytes(&self) -> usize {
        self.store.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardest_data::metrics;
    use cardest_data::synth::{hm_imagenet, SynthConfig};

    #[test]
    fn moe_learns_and_mixes() {
        let ds = hm_imagenet(SynthConfig::new(250, 19));
        let wl = Workload::sample_from(&ds, 0.4, 8, 2);
        let split = wl.split(3);
        let f = BaselineFeaturizer::from_dataset(&ds, 1);
        let opts = MoeOptions {
            epochs: 15,
            n_experts: 3,
            ..Default::default()
        };
        let moe = DlMoe::train(&split.train, f, ds.theta_max, opts);

        let mut actual = Vec::new();
        let mut pred = Vec::new();
        for lq in &split.test.queries {
            for (&theta, &c) in split.test.thresholds.iter().zip(&lq.cards) {
                actual.push(f64::from(c));
                pred.push(moe.estimate(&lq.query, theta));
            }
        }
        let msle = metrics::msle(&actual, &pred);
        assert!(msle < 9.0, "MoE failed to learn: MSLE {msle}");
        assert!(moe.size_bytes() > 0);
        assert_eq!(moe.name(), "DL-MoE");
    }

    #[test]
    fn gating_weights_are_a_distribution() {
        let ds = hm_imagenet(SynthConfig::new(100, 20));
        let wl = Workload::sample_from(&ds, 0.3, 6, 2);
        let f = BaselineFeaturizer::from_dataset(&ds, 1);
        let opts = MoeOptions {
            epochs: 3,
            n_experts: 4,
            ..Default::default()
        };
        let moe = DlMoe::train(&wl, f, ds.theta_max, opts);
        let x = RegressionData::query_row(&moe.featurizer, &ds.records[0], 5.0, ds.theta_max);
        let logits = moe.gate.infer(&moe.store, &x);
        let row = logits.row(0);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let denom: f32 = exps.iter().sum();
        let total: f32 = exps.iter().map(|e| e / denom).sum();
        assert!((total - 1.0).abs() < 1e-5);
    }
}
