//! Figures 11 and 12: the conjunctive Euclidean-distance query optimizer.
//!
//! For each estimator the planner picks the lead predicate with the smallest
//! estimated cardinality; the table reports total processing time (broken
//! into estimation + execution) and planning precision — the fraction of
//! queries where the chosen plan is the actually-cheapest one.

use cardest_baselines::dnn::DnnOptions;
use cardest_baselines::gbt::GbtOptions;
use cardest_baselines::rmi::RmiOptions;
use cardest_baselines::{BaselineFeaturizer, DbUs, DlRmi, GrowthPolicy, MeanEstimator, TlGbt};
use cardest_bench::zoo::{cardnet_config, trainer_options};
use cardest_bench::Scale;
use cardest_core::estimator::{CardNetEstimator, CardinalityEstimator};
use cardest_core::train::train_cardnet;
use cardest_data::synth::{entity_table, SynthConfig};
use cardest_data::{Record, Workload};
use cardest_fx::build_extractor;
use cardest_qopt::conjunctive::{ConjunctiveQuery, ConjunctiveTable, Planner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Oracle estimator: exact counts, "instantly" (its estimation time is still
/// measured, matching the paper's Exact bar).
struct Exact<'a> {
    ds: &'a cardest_data::Dataset,
}

impl CardinalityEstimator for Exact<'_> {
    fn estimate(&self, q: &Record, theta: f64) -> f64 {
        self.ds.cardinality_scan(q, theta) as f64
    }
    fn name(&self) -> String {
        "Exact".into()
    }
    fn size_bytes(&self) -> usize {
        0
    }
}

fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "# exp_fig11_12 (Figures 11 & 12), scale = {}",
        scale.label()
    );
    let n_entities = scale.n_records.min(3000);
    let table_src = entity_table(SynthConfig::new(n_entities, scale.seed + 40), 3, 24);
    let table = ConjunctiveTable::build(&table_src, 0.8, scale.seed);

    // Per-attribute training workloads.
    let mut attr_workloads = Vec::new();
    for ds in &table.attrs {
        let wl = Workload::sample_from(ds, scale.workload_frac, scale.n_thresholds, scale.seed + 7);
        attr_workloads.push(wl.split(scale.seed + 8));
    }

    // Queries: entity vectors with θ ~ U[0.2, 0.5] per predicate (Table 11).
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x1111);
    let n_queries = 150usize;
    let queries: Vec<ConjunctiveQuery> = (0..n_queries)
        .map(|_| {
            let id = rng.gen_range(0..table.n_entities());
            ConjunctiveQuery {
                preds: (0..table.n_attrs())
                    .map(|a| {
                        (
                            table.attrs[a].records[id].as_vec().to_vec(),
                            rng.gen_range(0.2..0.5),
                        )
                    })
                    .collect(),
            }
        })
        .collect();

    // Ground-truth best plan per query (by actual execution work).
    let best: Vec<usize> = queries.iter().map(|q| table.best_plan(q)).collect();

    // Estimator roster per attribute.
    let kinds = ["Exact", "CardNet-A", "DL-RMI", "TL-XGB", "DB-US", "Mean"];
    println!(
        "\n## Figures 11–12 — conjunctive optimizer ({} entities, 3 attrs)",
        n_entities
    );
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>10}",
        "Estimator", "est time (s)", "exec time (s)", "total (s)", "precision"
    );
    for kind in kinds {
        // Build one estimator per attribute.
        let per_attr: Vec<Box<dyn CardinalityEstimator + '_>> = table
            .attrs
            .iter()
            .zip(&attr_workloads)
            .map(|(ds, split)| -> Box<dyn CardinalityEstimator + '_> {
                match kind {
                    "Exact" => Box::new(Exact { ds }),
                    "CardNet-A" => {
                        let fx = build_extractor(ds, scale.tau_max, scale.seed ^ 0xF0);
                        let cfg = cardnet_config(fx.dim(), fx.tau_max() + 1, true);
                        let (t, _) = train_cardnet(
                            fx.as_ref(),
                            &split.train,
                            &split.valid,
                            cfg,
                            trainer_options(&scale),
                        );
                        Box::new(CardNetEstimator::from_trainer(fx, t))
                    }
                    "DL-RMI" => {
                        let f = BaselineFeaturizer::from_dataset(ds, scale.seed);
                        let opts = RmiOptions {
                            dnn: DnnOptions {
                                epochs: scale.epochs / 2,
                                ..Default::default()
                            },
                            ..Default::default()
                        };
                        Box::new(DlRmi::train(&split.train, f, ds.theta_max, opts))
                    }
                    "TL-XGB" => {
                        let f = BaselineFeaturizer::from_dataset(ds, scale.seed);
                        let opts = GbtOptions {
                            policy: GrowthPolicy::DepthWise,
                            n_trees: scale.gbt_trees,
                            ..Default::default()
                        };
                        Box::new(TlGbt::train(&split.train, f, ds.theta_max, opts))
                    }
                    "DB-US" => Box::new(DbUs::build(ds, 0.05, scale.seed)),
                    _ => Box::new(MeanEstimator::build(&split.train, ds.theta_max, 64)),
                }
            })
            .collect();
        let planner = Planner {
            estimators: per_attr.iter().map(AsRef::as_ref).collect(),
        };

        let mut est_secs = 0.0f64;
        let mut exec_secs = 0.0f64;
        let mut correct = 0usize;
        for (qi, q) in queries.iter().enumerate() {
            let t0 = Instant::now();
            let lead = planner.choose(q);
            est_secs += t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            std::hint::black_box(table.execute(q, lead));
            exec_secs += t1.elapsed().as_secs_f64();
            if lead == best[qi] {
                correct += 1;
            }
        }
        println!(
            "{:<10} {:>14.3} {:>14.3} {:>12.3} {:>9.1}%",
            kind,
            est_secs,
            exec_secs,
            est_secs + exec_secs,
            100.0 * correct as f64 / n_queries as f64
        );
    }
    println!("\nShape check: Exact ≈ best; CardNet-A close behind; Mean worst (paper Fig. 11–12).");
}
