//! Experiment harness shared by the per-table/figure binaries.
//!
//! Every binary honors `CARDEST_SCALE`:
//! * `quick` (default) — datasets of ~1.5k records, short training schedules;
//!   the whole suite finishes in minutes on one CPU.
//! * `full` — larger corpora and longer schedules, closer to the paper's
//!   relative gaps (still laptop-scale; the originals used 1M+ records).
//!
//! The harness provides the *model zoo* (train any §9.1.2 estimator on any
//! dataset), the accuracy/timing evaluators, and plain-text table printing
//! shaped like the paper's artifacts.

pub mod report;
pub mod zoo;

use cardest_data::{Dataset, Workload, WorkloadSplit};

/// Experiment scale knobs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub n_records: usize,
    /// Fraction of the dataset sampled as the query workload (paper: 10%).
    pub workload_frac: f64,
    /// Threshold-grid resolution.
    pub n_thresholds: usize,
    /// Deep-model epochs.
    pub epochs: usize,
    pub vae_epochs: usize,
    /// GBT boosting rounds.
    pub gbt_trees: usize,
    /// τ_max given to feature extraction (decoder-count ceiling).
    pub tau_max: usize,
    pub seed: u64,
}

impl Scale {
    pub fn quick() -> Self {
        Scale {
            n_records: 1500,
            workload_frac: 0.12,
            n_thresholds: 12,
            epochs: 56,
            vae_epochs: 10,
            gbt_trees: 20,
            tau_max: 16,
            seed: 0xBEEF,
        }
    }

    pub fn full() -> Self {
        Scale {
            n_records: 6000,
            workload_frac: 0.10,
            n_thresholds: 16,
            epochs: 120,
            vae_epochs: 25,
            gbt_trees: 32,
            tau_max: 20,
            seed: 0xBEEF,
        }
    }

    /// Reads `CARDEST_SCALE` (`quick` | `full`), defaulting to quick.
    pub fn from_env() -> Self {
        match std::env::var("CARDEST_SCALE").as_deref() {
            Ok("full") => Scale::full(),
            _ => Scale::quick(),
        }
    }

    pub fn label(&self) -> &'static str {
        if self.n_records >= Scale::full().n_records {
            "full"
        } else {
            "quick"
        }
    }
}

/// A dataset plus its labelled, split workload — the unit every experiment
/// consumes.
pub struct Bundle {
    pub dataset: Dataset,
    pub split: WorkloadSplit,
}

impl Bundle {
    /// Samples, labels, and splits the workload per §6.1.
    pub fn prepare(dataset: Dataset, scale: &Scale) -> Bundle {
        let wl = Workload::sample_from(
            &dataset,
            scale.workload_frac,
            scale.n_thresholds,
            scale.seed ^ 0x51A7,
        );
        let split = wl.split(scale.seed ^ 0x0F00);
        Bundle { dataset, split }
    }

    /// The paper's eight Table 2 stand-ins.
    pub fn default_suite(scale: &Scale) -> Vec<Bundle> {
        cardest_data::synth::default_suite(scale.n_records, scale.seed)
            .into_iter()
            .map(|ds| Bundle::prepare(ds, scale))
            .collect()
    }

    /// The four boldface "default" datasets.
    pub fn default_four(scale: &Scale) -> Vec<Bundle> {
        cardest_data::synth::default_four(scale.n_records, scale.seed)
            .into_iter()
            .map(|ds| Bundle::prepare(ds, scale))
            .collect()
    }
}
