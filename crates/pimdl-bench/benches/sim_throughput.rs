//! Measures the simulator itself: functional PE execution throughput and
//! pure cost-model evaluation rate (the quantity that bounds auto-tuner
//! search speed).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pimdl_sim::cost::{estimate_cost, CostReport};
use pimdl_sim::exec::{run_lut_kernel, LutKernelData};
use pimdl_sim::interp::{interpret, PeOperands};
use pimdl_sim::isa::compile;
use pimdl_sim::mapping::{LoadScheme, MicroKernel};
use pimdl_sim::{LutWorkload, Mapping, PlatformConfig, TraversalOrder};
use pimdl_tensor::rng::DataRng;
use pimdl_tensor::Matrix;
use pimdl_tuner::tune;

fn operands(w: &LutWorkload, seed: u64) -> (Vec<u16>, Vec<i8>) {
    let mut rng = DataRng::new(seed);
    let indices: Vec<u16> = (0..w.n * w.cb).map(|_| rng.index(w.ct) as u16).collect();
    let table: Vec<i8> = (0..w.cb * w.ct * w.f)
        .map(|_| (rng.index(255) as i32 - 127) as i8)
        .collect();
    (indices, table)
}

fn functional_run(
    platform: &PlatformConfig,
    w: &LutWorkload,
    mapping: &Mapping,
    indices: &[u16],
    table: &[i8],
) -> (Matrix, CostReport) {
    run_lut_kernel(
        black_box(platform),
        black_box(w),
        black_box(mapping),
        LutKernelData {
            indices,
            table,
            scale: 0.01,
        },
    )
    .expect("run")
}

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);

    let mut platform = PlatformConfig::upmem();
    platform.num_pes = 64;

    for n in [256usize, 1024] {
        let w = LutWorkload::new(n, 32, 16, 128).expect("shape");
        let mapping = Mapping {
            n_stile: n / 8,
            f_stile: 16,
            kernel: MicroKernel {
                n_mtile: 8,
                f_mtile: 8,
                cb_mtile: 8,
                traversal: TraversalOrder::Nfc,
                load_scheme: LoadScheme::FineGrain {
                    f_load: 8,
                    threads: 16,
                },
            },
        };
        let (indices, table) = operands(&w, 5);
        group.bench_with_input(BenchmarkId::new("functional_run", n), &n, |b, _| {
            b.iter(|| functional_run(&platform, &w, &mapping, &indices, &table))
        });
        group.bench_with_input(BenchmarkId::new("cost_estimate", n), &n, |b, _| {
            b.iter(|| estimate_cost(black_box(&platform), black_box(&w), black_box(&mapping)))
        });

        // One PE's compiled PIM binary, interpreted.
        let program = compile(&w, &mapping).expect("compile");
        let pe_indices: Vec<u16> = indices[..mapping.n_stile * w.cb].to_vec();
        let pe_lut: Vec<i8> = {
            let mut t = Vec::with_capacity(w.cb * w.ct * mapping.f_stile);
            for cb in 0..w.cb {
                for ct in 0..w.ct {
                    let base = (cb * w.ct + ct) * w.f;
                    t.extend_from_slice(&table[base..base + mapping.f_stile]);
                }
            }
            t
        };
        group.bench_with_input(BenchmarkId::new("interpret_pe", n), &n, |b, _| {
            b.iter(|| {
                interpret(
                    black_box(&program),
                    black_box(&platform),
                    PeOperands {
                        indices: &pe_indices,
                        lut: &pe_lut,
                        scale: 0.01,
                    },
                )
                .expect("interpret")
            })
        });
    }

    // The shape the serving benchmark's `line_large` workload runs (one
    // BERT-base FFN-row block on 64 PEs), at the mapping the serving path
    // tunes for it.
    let w = LutWorkload::new(32, 192, 16, 768).expect("shape");
    let mapping = tune(&platform, &w).expect("tune").mapping;
    let (indices, table) = operands(&w, 5);
    group.bench_function("functional_run/line_large", |b| {
        b.iter(|| functional_run(&platform, &w, &mapping, &indices, &table))
    });
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
