//! Cross-crate property-based tests (proptest) on the system's core
//! invariants: the LUT path computes exactly the snapped GEMM; simulated
//! execution matches the host reference for every legal partition; the
//! partition is always perfectly load-balanced; the tuner's pick is always
//! legal; a served replica's simulated output sums to the host kernel's
//! reference checksum under any tuned mapping, and equals the reference
//! lookup and the interpreted per-PE instruction stream to the bit.

use proptest::prelude::*;

use pimdl::engine::pipeline::PimDlEngine;
use pimdl::lutnn::lut::LutTable;
use pimdl::lutnn::pq::{IndexMatrix, ProductQuantizer};
use pimdl::serve::ReplicaModel;
use pimdl::sim::cost::{cost_with_repeat, estimate_cost};
use pimdl::sim::exec::{
    measure_repeat_fraction, run_lut_kernel, run_lut_kernel_compiled, LutKernelData,
};
use pimdl::sim::mapping::MicroKernel;
use pimdl::sim::{LoadScheme, LutWorkload, Mapping, PlatformConfig, TraversalOrder};
use pimdl::tensor::gemm;
use pimdl::tensor::rng::DataRng;
use pimdl::tensor::Matrix;
use pimdl::tuner::{tune, tune_with_options, TuneOptions};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LUT(encode(x)) == decode(encode(x)) · W for arbitrary shapes.
    #[test]
    fn lut_equals_snapped_gemm(
        seed in 0u64..1000,
        cb in 1usize..5,
        v in 1usize..4,
        ct_pow in 1u32..4,
        f in 1usize..12,
        n in 1usize..10,
    ) {
        let ct = 1usize << ct_pow;
        let h = cb * v;
        let mut rng = DataRng::new(seed);
        let calib = rng.normal_matrix((4 * ct).max(8), h, 0.0, 1.0);
        let weight = rng.normal_matrix(h, f, 0.0, 0.5);
        let pq = ProductQuantizer::fit(&calib, v, ct, 8, &mut rng).unwrap();
        let lut = LutTable::build(&pq, &weight).unwrap();
        let x = rng.normal_matrix(n, h, 0.0, 1.0);

        let (snapped, indices) = pq.snap(&x).unwrap();
        let via_lut = lut.lookup(&indices).unwrap();
        let via_gemm = gemm::matmul(&snapped, &weight).unwrap();
        prop_assert!(via_lut.approx_eq(&via_gemm, 1e-3),
            "max diff {}", via_lut.sub(&via_gemm).unwrap().max_abs());
    }

    /// Simulated execution matches a scalar host reference for every legal
    /// random partition, and the attached cost equals the estimator at the
    /// measured repeat fraction.
    #[test]
    fn simulator_matches_reference_for_random_partitions(
        seed in 0u64..1000,
        groups_pow in 0u32..3,
        per_group_pow in 0u32..3,
    ) {
        let w = LutWorkload::new(32, 4, 8, 16).unwrap();
        let groups = 1usize << groups_pow;       // 1, 2, 4
        let per_group = 1usize << per_group_pow; // 1, 2, 4
        let n_s = w.n / groups;
        let f_s = w.f / per_group;
        let mut platform = PlatformConfig::upmem();
        platform.num_pes = groups * per_group;

        let mapping = Mapping {
            n_stile: n_s,
            f_stile: f_s,
            kernel: MicroKernel {
                n_mtile: n_s.min(4),
                f_mtile: f_s.min(4),
                cb_mtile: 2,
                traversal: TraversalOrder::Ncf,
                load_scheme: LoadScheme::FineGrain { f_load: f_s.min(4), threads: 8 },
            },
        };
        let mut rng = DataRng::new(seed);
        let indices: Vec<u16> = (0..w.n * w.cb).map(|_| rng.index(w.ct) as u16).collect();
        let table: Vec<i8> = (0..w.cb * w.ct * w.f)
            .map(|_| (rng.index(255) as i32 - 127) as i8)
            .collect();

        let (out, report) = run_lut_kernel(&platform, &w, &mapping, LutKernelData {
            indices: &indices, table: &table, scale: 0.5,
        }).unwrap();

        // Scalar reference.
        for r in 0..w.n {
            for fcol in 0..w.f {
                let mut acc = 0i32;
                for cb in 0..w.cb {
                    let k = indices[r * w.cb + cb] as usize;
                    acc += table[(cb * w.ct + k) * w.f + fcol] as i32;
                }
                let expected = acc as f32 * 0.5;
                prop_assert_eq!(out.get(r, fcol).to_bits(), expected.to_bits());
            }
        }

        let repeat = measure_repeat_fraction(&indices, w.n, w.cb);
        let est = cost_with_repeat(&platform, &w, &mapping, repeat).unwrap();
        prop_assert_eq!(report, est);
    }

    /// Every legal sub-LUT partition is perfectly load-balanced (L3): each
    /// PE owns exactly N_s × F_s output elements and they tile the output.
    #[test]
    fn partition_is_balanced_and_exact(
        n_pow in 2u32..6,
        f_pow in 2u32..6,
        g_pow in 0u32..3,
        p_pow in 0u32..3,
    ) {
        let n = 1usize << n_pow;
        let f = 1usize << f_pow;
        let groups = 1usize << g_pow.min(n_pow);
        let per_group = 1usize << p_pow.min(f_pow);
        let w = LutWorkload::new(n, 2, 4, f).unwrap();
        let mapping = Mapping {
            n_stile: n / groups,
            f_stile: f / per_group,
            kernel: MicroKernel {
                n_mtile: 1,
                f_mtile: 1,
                cb_mtile: 1,
                traversal: TraversalOrder::Nfc,
                load_scheme: LoadScheme::Static,
            },
        };
        let mut platform = PlatformConfig::upmem();
        platform.num_pes = groups * per_group;
        mapping.validate(&w, &platform).unwrap();

        // Per-PE element counts are identical and sum to the output size.
        let per_pe = mapping.n_stile * mapping.f_stile;
        prop_assert_eq!(per_pe * platform.num_pes, n * f);
        // Coverage: every element belongs to exactly one (group, member).
        prop_assert_eq!(mapping.groups(&w) * mapping.n_stile, n);
        prop_assert_eq!(mapping.pes_per_group(&w) * mapping.f_stile, f);
    }

    /// Whatever workload the tuner accepts, its returned mapping validates,
    /// its prediction never exceeds the simulator's estimate, and on small
    /// shapes it equals the exhaustive reference's to the bit.
    #[test]
    fn tuner_pick_is_legal_and_underestimates(
        n_pow in 3u32..7,
        f_pow in 3u32..7,
        cb in 1usize..9,
        pes_pow in 1u32..5,
    ) {
        let w = LutWorkload::new(1 << n_pow, cb, 16, 1 << f_pow).unwrap();
        let mut platform = PlatformConfig::upmem();
        platform.num_pes = 1 << pes_pow;
        if let Ok(result) = tune(&platform, &w) {
            result.mapping.validate(&w, &platform).unwrap();
            let sim = estimate_cost(&platform, &w, &result.mapping).unwrap();
            prop_assert!(result.predicted_total_s <= sim.time.total_s() + 1e-12);
            // Where the space is small enough to enumerate in a debug
            // build, the descent finds the materialised list's optimum.
            if n_pow <= 4 && f_pow <= 4 {
                let oracle =
                    tune_with_options(&platform, &w, TuneOptions::exhaustive_oracle()).unwrap();
                prop_assert_eq!(
                    result.predicted_total_s.to_bits(),
                    oracle.predicted_total_s.to_bits()
                );
            }
        }
    }

    /// Model / simulator / kernel triple: under whatever mapping the tuner
    /// picks for a random workload, the simulated PEs' output sums to the
    /// host kernel's reference checksum bit for bit, and one flipped bit of
    /// that checksum is caught. (Bit 63 is left out: `-0.0 == 0.0`.) Both
    /// sides of that compare run the one shared INT8 gather, so the output
    /// is also held, element by element, to the two implementations that do
    /// not: the reference `QuantLutTable::lookup` and the compiled per-PE
    /// instruction stream `pimdl_sim::interp` executes.
    #[test]
    fn replica_execution_matches_reference_checksum(
        seed in 0u64..1000,
        n_pow in 3u32..6,
        f_pow in 3u32..7,
        cb in 1usize..9,
        ct_pow in 1u32..5,
        pes_pow in 1u32..5,
        bit in 0u32..63,
    ) {
        let w = LutWorkload::new(1 << n_pow, cb, 1 << ct_pow, 1 << f_pow).unwrap();
        let mut platform = PlatformConfig::upmem();
        platform.num_pes = 1 << pes_pow;
        let engine = PimDlEngine::new(platform.clone());
        if let Ok(replica) = ReplicaModel::build(&engine, w, seed) {
            let mut req = replica
                .make_request(0, 0.0, f64::INFINITY, &mut DataRng::new(seed + 1))
                .unwrap();
            prop_assert!(replica.execute(&req).unwrap());
            req.expected_checksum = f64::from_bits(req.expected_checksum.to_bits() ^ (1 << bit));
            prop_assert!(!replica.execute(&req).unwrap());

            let mapping = engine.mapping_for(&w).unwrap();
            let table = replica.table();
            let data = LutKernelData {
                indices: &req.indices,
                table: table.table().codes(),
                scale: table.table().scale(),
            };
            let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (simulated, _) = run_lut_kernel(&platform, &w, &mapping, data).unwrap();
            let indices = IndexMatrix::from_vec(w.n, w.cb, req.indices.clone()).unwrap();
            prop_assert_eq!(bits(&simulated), bits(&table.lookup(&indices).unwrap()));
            let (interpreted, _) = run_lut_kernel_compiled(&platform, &w, &mapping, data).unwrap();
            prop_assert_eq!(bits(&simulated), bits(&interpreted));
        }
    }
}
