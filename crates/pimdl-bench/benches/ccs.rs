//! Measures the closest-centroid-search (CCS) operator: plain L2 search vs
//! the inner-product formulation the paper's host kernels use vs the
//! interleaved-layout kernel, plus the INT8 vs f32 gather on the LUT side
//! (the two halves of LUT-NN inference).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pimdl_lutnn::lut::LutTable;
use pimdl_lutnn::pq::ProductQuantizer;
use pimdl_tensor::rng::DataRng;

fn bench_ccs(c: &mut Criterion) {
    let mut group = c.benchmark_group("ccs");
    group.sample_size(20);

    let mut rng = DataRng::new(7);
    let h = 256;
    let calib = rng.normal_matrix(512, h, 0.0, 1.0);
    let x = rng.normal_matrix(128, h, 0.0, 1.0);

    for ct in [8usize, 16, 64] {
        let pq = ProductQuantizer::fit(&calib, 4, ct, 10, &mut rng).expect("fit");
        group.bench_with_input(BenchmarkId::new("l2", ct), &ct, |b, _| {
            b.iter(|| pq.encode(black_box(&x)).expect("encode"))
        });
        group.bench_with_input(BenchmarkId::new("inner_product", ct), &ct, |b, _| {
            b.iter(|| pq.encode_via_inner_product(black_box(&x)).expect("encode"))
        });
        // The production layout: eight codebooks per vector, one per lane,
        // V unrolled, per-lane running best.
        let cbs = pq.interleaved();
        group.bench_with_input(BenchmarkId::new("interleaved", ct), &ct, |b, _| {
            b.iter(|| cbs.encode(black_box(&x)).expect("encode"))
        });
    }

    // The BERT-base encodes the benchmark ledger times
    // (`lutnn.kernels.ccs_rows_per_s` is the H = 768 one): 256 rows,
    // V = 4, CT = 16, synthetic centroids as in `bench/src/offline.rs`.
    for h in [768usize, 3072] {
        let centroids = rng.normal_matrix(h / 4 * 16, 4, 0.0, 1.0);
        let cbs = ProductQuantizer::from_centroids(centroids, 4, 16)
            .expect("centroids")
            .interleaved();
        let x = rng.normal_matrix(256, h, 0.0, 1.0);
        group.bench_with_input(BenchmarkId::new("interleaved_bert_base", h), &h, |b, _| {
            b.iter(|| cbs.encode(black_box(&x)).expect("encode"))
        });
    }

    // Gather side: f32 vs INT8 tables.
    let pq = ProductQuantizer::fit(&calib, 4, 16, 10, &mut rng).expect("fit");
    let weight = rng.normal_matrix(h, 256, 0.0, 0.5);
    let lut = LutTable::build(&pq, &weight).expect("build");
    let qlut = lut.quantize();
    let indices = pq.encode(&x).expect("encode");
    group.bench_function("lookup_f32", |b| {
        b.iter(|| lut.lookup(black_box(&indices)).expect("lookup"))
    });
    group.bench_function("lookup_int8", |b| {
        b.iter(|| qlut.lookup(black_box(&indices)).expect("lookup"))
    });
    group.finish();
}

criterion_group!(benches, bench_ccs);
criterion_main!(benches);
