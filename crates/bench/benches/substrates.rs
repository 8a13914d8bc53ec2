//! Criterion micro-benchmarks of the substrate hot paths: distance kernels,
//! exact selection indexes, feature extraction, and the NN engine's
//! products at CardNet's own shapes.

use cardest_data::dist;
use cardest_data::synth::{ed_aminer, eu_glove, hm_imagenet, jc_bms, SynthConfig};
use cardest_fx::build_extractor;
use cardest_nn::{Matrix, Parallelism, ParamStore};
use cardest_select::build_selector;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_distances(c: &mut Criterion) {
    let hm = hm_imagenet(SynthConfig::new(2, 1));
    let (a, b) = (hm.records[0].as_bits(), hm.records[1].as_bits());
    let ed = ed_aminer(SynthConfig::new(2, 2));
    let (s1, s2) = (ed.records[0].as_str(), ed.records[1].as_str());
    let jc = jc_bms(SynthConfig::new(2, 3));
    let (t1, t2) = (jc.records[0].as_set(), jc.records[1].as_set());
    let eu = eu_glove(SynthConfig::new(2, 4), 48);
    let (v1, v2) = (eu.records[0].as_vec(), eu.records[1].as_vec());

    let mut g = c.benchmark_group("distance_kernels");
    g.bench_function("hamming_64b", |bench| {
        bench.iter(|| black_box(a.hamming(black_box(b))))
    });
    g.bench_function("levenshtein_banded_k4", |bench| {
        bench.iter(|| black_box(dist::levenshtein_within(black_box(s1), black_box(s2), 4)))
    });
    g.bench_function("jaccard", |bench| {
        bench.iter(|| black_box(dist::jaccard_distance(black_box(t1), black_box(t2))))
    });
    g.bench_function("euclidean_48d", |bench| {
        bench.iter(|| black_box(dist::euclidean(black_box(v1), black_box(v2))))
    });
    g.finish();
}

fn bench_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("exact_selection");
    for ds in [
        hm_imagenet(SynthConfig::new(2000, 5)),
        jc_bms(SynthConfig::new(2000, 6)),
    ] {
        let sel = build_selector(&ds);
        let q = ds.records[0].clone();
        let theta = ds.theta_max * 0.5;
        g.bench_function(format!("select_{}", ds.name), |bench| {
            bench.iter(|| black_box(sel.count(black_box(&q), black_box(theta))))
        });
    }
    g.finish();
}

fn bench_feature_extraction(c: &mut Criterion) {
    let mut g = c.benchmark_group("feature_extraction");
    for ds in [
        ed_aminer(SynthConfig::new(50, 7)),
        jc_bms(SynthConfig::new(50, 8)),
        eu_glove(SynthConfig::new(50, 9), 48),
    ] {
        let fx = build_extractor(&ds, 16, 1);
        let r = ds.records[0].clone();
        g.bench_function(format!("extract_{}", ds.name), |bench| {
            bench.iter(|| black_box(fx.extract(black_box(&r))))
        });
    }
    g.finish();
}

fn bench_nn(c: &mut Criterion) {
    // Φ's shapes on the SIMD tile: a post-ReLU layer for one query at the
    // mean τ (11 distance rows, half of them zero), and a 64-sample weight
    // gradient `hᵀ·G`.
    let relu = |r: usize, cl: usize| {
        let v = ((r * 7 + cl * 3) % 11) as f32 * 0.1 - 0.5;
        v.max(0.0)
    };
    let h = Matrix::from_fn(11, 96, relu);
    let w = Matrix::from_fn(96, 64, |r, cl| ((r + cl) % 5) as f32 * 0.1 - 0.2);
    let mut store = ParamStore::new();
    let w = store.register("w", w);
    let h64 = Matrix::from_fn(64, 96, relu);
    let g = Matrix::from_fn(64, 64, |r, cl| ((r * cl) % 7) as f32 * 0.1 - 0.3);
    let par = Parallelism::serial();
    let mut grp = c.benchmark_group("nn_engine");
    grp.bench_function("matmul_relu_11x96x64", |bench| {
        bench.iter(|| black_box(h.matmul_with(store.weights(w), par)))
    });
    grp.bench_function("t_matmul_64x96x64", |bench| {
        bench.iter(|| black_box(h64.t_matmul_with(black_box(&g), par)))
    });
    grp.finish();
}

criterion_group!(
    benches,
    bench_distances,
    bench_selection,
    bench_feature_extraction,
    bench_nn
);
criterion_main!(benches);
