//! Load parameters, read from `workloads.json` (compiled in, so a run
//! cannot pick up a different file than the one it was built with).
//!
//! Every size, rate, window and worker count a workload uses lives there and
//! stays fixed: nothing is derived from the host's core count or from a
//! capacity probe.

use serde::Deserialize;

const CONFIG_JSON: &str = include_str!("../workloads.json");

#[derive(Clone, Debug, Deserialize)]
pub struct Config {
    pub model: ModelCfg,
    /// Width of one measurement window (the window rule).
    pub window_ms: u64,
    /// Set-ups per run, the first half before the measured phase and the
    /// rest after it; `setup_s` is their median.
    pub setup_repeats: usize,
    /// The service behind the socket, and the load the generators offer.
    pub serve: ServeCfg,
    pub workloads: Vec<WorkloadCfg>,
    /// Sizes for the smoke test (`--tiny`), replacing each workload's own.
    pub tiny: TinyCfg,
    /// `(per-layer metric, the end-to-end metric and workload it should
    /// move)`, printed beside each per-layer value.
    pub layers: Vec<(String, String)>,
}

/// The training recipe shared by every workload's model.
#[derive(Clone, Debug, Deserialize)]
pub struct ModelCfg {
    /// Largest encoder step τ_max: CardNet runs its Φ network once per step.
    pub tau_max: usize,
    /// Threshold grid size (plus θ = 0) for labels and request thresholds.
    pub thresholds: usize,
    pub epochs: usize,
    pub vae_epochs: usize,
    pub extractor_seed: u64,
}

#[derive(Clone, Debug, Deserialize)]
pub struct WorkloadCfg {
    pub name: String,
    /// Seed of the corpus, the training queries and the update inserts.
    pub data_seed: u64,
    /// Requests go through the service behind the socket, instead of
    /// straight to the estimator.
    pub socket: bool,
    pub sizes: Sizes,
    /// Zipf exponent of the request keys over the records; `0` draws
    /// distinct (record, θ) pairs uniformly instead.
    pub key_zipf: f64,
    /// Quantile across windows reported as `throughput_qps` (see `stats`).
    pub throughput_q: f64,
}

#[derive(Clone, Debug, Deserialize)]
pub struct Sizes {
    pub records: usize,
    pub train_queries: usize,
    pub valid_queries: usize,
    pub test_queries: usize,
    /// Records inserted per update cycle.
    pub insert: usize,
    /// Update cycles per measured phase, at evenly spaced points of it.
    pub update_cycles: usize,
}

#[derive(Clone, Debug, Deserialize)]
pub struct ServeCfg {
    pub workers: usize,
    pub batch_max: usize,
    pub batch_window_us: u64,
    pub cache_capacity: usize,
    pub queue_limit: usize,
    /// Open-loop Poisson rate of the traced serve probe.
    pub offered_qps: f64,
    /// Requests kept in flight by the socket closed loop.
    pub inflight: usize,
    /// Untimed closed-loop warm-up before the socket phase (seconds).
    pub warmup_s: f64,
}

#[derive(Clone, Debug, Deserialize)]
pub struct TinyCfg {
    pub sizes: Sizes,
    pub epochs: usize,
    pub setup_repeats: usize,
    pub offered_qps: f64,
}

impl Config {
    pub fn load() -> Config {
        serde_json::from_str(CONFIG_JSON).expect("workloads.json is valid")
    }

    pub fn workload(&self, name: &str) -> Option<&WorkloadCfg> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// Shrinks every size to the smoke-test scale.
    pub fn make_tiny(&mut self) {
        self.model.epochs = self.tiny.epochs;
        self.model.vae_epochs = 1;
        self.setup_repeats = self.tiny.setup_repeats;
        self.serve.offered_qps = self.tiny.offered_qps;
        self.serve.warmup_s = self.serve.warmup_s.min(0.2);
        for w in &mut self.workloads {
            w.sizes = self.tiny.sizes.clone();
        }
    }
}
