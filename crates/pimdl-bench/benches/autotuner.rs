//! Measures Algorithm 1 itself: the paper reports ~1 s per model of offline
//! auto-tuning on the Xeon host (§5.3). Here we time a single full-scale
//! LUT workload search, branch-and-bound against the exhaustive reference
//! on an enumerable space, and a complete four-operator model tune.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pimdl_engine::shapes::TransformerShape;
use pimdl_sim::{LutWorkload, PlatformConfig};
use pimdl_tuner::{tune_with_options, TuneOptions};

fn bench_autotuner(c: &mut Criterion) {
    let mut group = c.benchmark_group("autotuner");
    group.sample_size(10);

    let platform = PlatformConfig::upmem();
    let options = TuneOptions::default();

    // One full-scale workload: BERT-large FFN1 (the Fig. 13 case study).
    let ffn1 = LutWorkload::new(32768, 256, 16, 4096).expect("shape");
    group.bench_function("bert_large_ffn1_bnb", |b| {
        b.iter(|| tune_with_options(black_box(&platform), black_box(&ffn1), options).expect("tune"))
    });

    // Branch-and-bound against the exhaustive reference — the pruning
    // headline. The reference materialises every candidate, so the race
    // runs where the space is enumerable.
    let mut small = PlatformConfig::upmem();
    small.num_pes = 16;
    let toy = LutWorkload::new(256, 16, 16, 64).expect("shape");
    for (name, options) in [
        ("enumerable_bnb", options),
        ("enumerable_exhaustive", TuneOptions::exhaustive_oracle()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| tune_with_options(black_box(&small), black_box(&toy), options).expect("tune"))
        });
    }

    // A whole model's four operators (the "~1 s/model" claim).
    let shape = TransformerShape::bert_base();
    let n = 64 * 512;
    let workloads: Vec<LutWorkload> = shape
        .linear_ops()
        .iter()
        .map(|op| LutWorkload::new(n, op.in_dim / 4, 16, op.out_dim).expect("shape"))
        .collect();
    group.bench_function("bert_base_all_ops", |b| {
        b.iter(|| {
            for w in &workloads {
                tune_with_options(black_box(&platform), black_box(w), options).expect("tune");
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_autotuner);
criterion_main!(benches);
