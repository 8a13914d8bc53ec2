//! Figure 1: the cardinality distribution on the HM-ImageNet stand-in —
//! (a) cardinality vs. threshold for five random queries, (b) the fraction
//! of queries per cardinality value at four thresholds.

#![forbid(unsafe_code)]

use cardest_bench::Scale;
use cardest_data::synth::{hm_imagenet, SynthConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_env();
    eprintln!("# exp_fig1 (Figure 1), scale = {}", scale.label());
    let ds = hm_imagenet(SynthConfig::new(scale.n_records, scale.seed));
    let mut rng = rand::rngs::StdRng::seed_from_u64(scale.seed ^ 0x11);

    // (a) cardinality vs threshold for 5 random queries.
    let mut idx: Vec<usize> = (0..ds.len()).collect();
    idx.shuffle(&mut rng);
    println!("\n## Figure 1(a): cardinality vs threshold (5 random queries)");
    print!("{:<10}", "Threshold");
    for q in 0..5 {
        print!(" {:>9}", format!("Query {}", q + 1));
    }
    println!();
    let queries: Vec<_> = idx[..5].iter().map(|&i| ds.records[i].clone()).collect();
    for theta in (0..=16).step_by(2) {
        print!("{theta:<10}");
        for q in &queries {
            print!(" {:>9}", ds.cardinality_scan(q, f64::from(theta)));
        }
        println!();
    }

    // (b) fraction of queries per cardinality bucket at 4 thresholds.
    let n_q = 300.min(ds.len());
    let sample: Vec<_> = idx[..n_q].iter().map(|&i| ds.records[i].clone()).collect();
    println!("\n## Figure 1(b): fraction of queries per cardinality decade");
    print!("{:<16}", "Cardinality");
    for theta in [4, 8, 12, 16] {
        print!(" {:>8}", format!("t={theta}"));
    }
    println!();
    let buckets = ["1", "2-10", "11-100", "101-1000", ">1000"];
    let bucket_of = |c: usize| match c {
        0..=1 => 0,
        2..=10 => 1,
        11..=100 => 2,
        101..=1000 => 3,
        _ => 4,
    };
    let mut table = vec![[0usize; 4]; buckets.len()];
    for (ti, theta) in [4u32, 8, 12, 16].iter().enumerate() {
        for q in &sample {
            let c = ds.cardinality_scan(q, f64::from(*theta));
            table[bucket_of(c)][ti] += 1;
        }
    }
    for (bi, label) in buckets.iter().enumerate() {
        print!("{label:<16}");
        for &cell in table[bi].iter().take(4) {
            print!(" {:>8.3}", cell as f64 / n_q as f64);
        }
        println!();
    }
    println!("\nTakeaway check: mass should shift right with θ (long tail grows).");
}
