//! Table 2: dataset statistics — the stand-in corpora's record counts,
//! max/average widths, distance functions, and θ_max, mirroring the paper's
//! dataset table (plus the Table 8 high-dimensional extras).

use cardest_bench::Scale;
use cardest_data::synth::{default_suite, hm_highdim, SynthConfig};

fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "# exp_table2 (Table 2 dataset statistics), scale = {}",
        scale.label()
    );
    println!("\n## Table 2: datasets (synthetic stand-ins, DESIGN.md §2.5)");
    println!(
        "{:<14} {:<10} {:>10} {:>8} {:>8} {:>10} {:>8}",
        "Dataset", "Distance", "#Records", "l_max", "l_avg", "θ_max", "kind"
    );
    let mut suite = default_suite(scale.n_records, scale.seed);
    suite.push(hm_highdim(
        SynthConfig::new(scale.n_records, scale.seed + 20),
        256,
        64.0,
    ));
    for ds in &suite {
        println!(
            "{:<14} {:<10} {:>10} {:>8} {:>8.2} {:>10} {:>8}",
            ds.name,
            ds.kind.name(),
            ds.len(),
            ds.max_width(),
            ds.avg_width(),
            ds.theta_max,
            if ds.kind.is_integer_valued() {
                "int"
            } else {
                "real"
            }
        );
    }

    // The distance-function sanity panel the paper's Table 2 implies: the
    // identity record is at distance 0, and distances stay within bounds.
    println!("\n## Distance sanity panel");
    for ds in &suite {
        let d = ds.distance();
        let (a, b) = (&ds.records[0], &ds.records[1.min(ds.len() - 1)]);
        println!(
            "{:<14} f(x,x) = {:<6} f(x,y) = {:.3}",
            ds.name,
            d.eval(a, a),
            d.eval(a, b)
        );
    }
}
