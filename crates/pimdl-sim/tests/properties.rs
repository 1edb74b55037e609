//! Property-based tests for the simulator's cost model and mapping rules.

use proptest::prelude::*;

use pimdl_sim::config::TransferPattern;
use pimdl_sim::cost::{cost_with_repeat, estimate_cost};
use pimdl_sim::exec::{
    measure_repeat_fraction, run_lut_kernel, run_lut_kernel_compiled, LutKernelData,
};
use pimdl_sim::interp::{interpret, PeOperands};
use pimdl_sim::isa::compile;
use pimdl_sim::mapping::MicroKernel;
use pimdl_sim::{LoadScheme, LutWorkload, Mapping, PlatformConfig, TraversalOrder};
use pimdl_tensor::rng::DataRng;

fn any_traversal() -> impl Strategy<Value = TraversalOrder> {
    prop::sample::select(TraversalOrder::all().to_vec())
}

fn pow2(max_pow: u32) -> impl Strategy<Value = usize> {
    (0..=max_pow).prop_map(|p| 1usize << p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every legal mapping yields strictly positive latency components, and
    /// the breakdown sums to the total.
    #[test]
    fn cost_components_consistent(
        traversal in any_traversal(),
        n_m in pow2(3), f_m in pow2(3), cb_m in pow2(2),
        scheme_id in 0usize..3,
    ) {
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let (n_s, f_s) = (16usize, 8usize);
        let scheme = match scheme_id {
            0 => LoadScheme::Static,
            1 => LoadScheme::CoarseGrain { cb_load: 1, f_load: 1 },
            _ => LoadScheme::FineGrain { f_load: 1, threads: 8 },
        };
        let mapping = Mapping {
            n_stile: n_s,
            f_stile: f_s,
            kernel: MicroKernel {
                n_mtile: n_m.min(n_s),
                f_mtile: f_m.min(f_s),
                cb_mtile: cb_m.min(w.cb),
                traversal,
                load_scheme: scheme,
            },
        };
        let mut platform = PlatformConfig::upmem();
        platform.num_pes = 16;
        if mapping.validate(&w, &platform).is_err() {
            return Ok(()); // skip illegal combos
        }
        let report = estimate_cost(&platform, &w, &mapping).unwrap();
        let t = report.time;
        prop_assert!(t.total_s() > 0.0);
        prop_assert!((t.total_s() - (t.sub_lut_total_s() + t.micro_kernel_total_s())).abs() < 1e-15);
        prop_assert!(t.kernel_reduce_s > 0.0);
        prop_assert!(report.accesses.reduce_ops == (n_s * w.cb * f_s) as u64);
    }

    /// Fine-grain cost is monotone non-increasing in the repeat fraction.
    #[test]
    fn repeat_fraction_monotone(r1 in 0.0f64..1.0, r2 in 0.0f64..1.0) {
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let mapping = Mapping {
            n_stile: 16,
            f_stile: 8,
            kernel: MicroKernel {
                n_mtile: 4,
                f_mtile: 4,
                cb_mtile: 4,
                traversal: TraversalOrder::Nfc,
                load_scheme: LoadScheme::FineGrain { f_load: 4, threads: 8 },
            },
        };
        let mut platform = PlatformConfig::upmem();
        platform.num_pes = 16;
        let c_lo = cost_with_repeat(&platform, &w, &mapping, lo).unwrap();
        let c_hi = cost_with_repeat(&platform, &w, &mapping, hi).unwrap();
        prop_assert!(c_hi.time.kernel_lut_s <= c_lo.time.kernel_lut_s + 1e-15);
    }

    /// Transfer time is monotone in bytes and bandwidth never exceeds peak.
    #[test]
    fn transfer_model_sane(bytes1 in 1.0f64..1e9, bytes2 in 1.0f64..1e9, buf in 1.0f64..1e7) {
        let t = PlatformConfig::upmem().host_transfer;
        for pattern in [
            TransferPattern::ToPimDistinct,
            TransferPattern::ToPimBroadcast,
            TransferPattern::FromPim,
        ] {
            let bw = t.effective_gbps(pattern, buf);
            prop_assert!(bw > 0.0);
            prop_assert!(bw <= t.broadcast_peak_gbps.max(t.to_pim_peak_gbps).max(t.from_pim_peak_gbps));
            let (lo, hi) = if bytes1 <= bytes2 { (bytes1, bytes2) } else { (bytes2, bytes1) };
            prop_assert!(t.transfer_time_s(pattern, lo, buf) <= t.transfer_time_s(pattern, hi, buf) + 1e-15);
        }
    }

    /// WRAM usage is exactly what the scheme formulas say, for any legal
    /// load factors.
    #[test]
    fn wram_formulas(cb_load in pow2(2), f_load in pow2(2), threads in 1usize..17) {
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let base = Mapping {
            n_stile: 16,
            f_stile: 8,
            kernel: MicroKernel {
                n_mtile: 4,
                f_mtile: 4,
                cb_mtile: 4,
                traversal: TraversalOrder::Nfc,
                load_scheme: LoadScheme::Static,
            },
        };
        let idx_out = 4 * 4 + 4 * 4 * 4; // index + output MTile bytes
        prop_assert_eq!(base.wram_usage(&w), idx_out + 8 * 16 * 8);
        let mut coarse = base;
        coarse.kernel.load_scheme = LoadScheme::CoarseGrain { cb_load, f_load };
        prop_assert_eq!(coarse.wram_usage(&w), idx_out + cb_load * 16 * f_load);
        let mut fine = base;
        fine.kernel.load_scheme = LoadScheme::FineGrain { f_load, threads };
        prop_assert_eq!(fine.wram_usage(&w), idx_out + f_load * threads);
    }

    /// load_count semantics: the count is between 1 and the full trip
    /// product, and a tile used by all three dims always reloads fully.
    #[test]
    fn load_count_bounds(
        traversal in any_traversal(),
        t_n in 1u64..6, t_f in 1u64..6, t_cb in 1u64..6,
        u_n in any::<bool>(), u_f in any::<bool>(), u_cb in any::<bool>(),
    ) {
        let trips = (t_n, t_f, t_cb);
        let count = traversal.load_count(trips, (u_n, u_f, u_cb));
        prop_assert!(count >= 1);
        prop_assert!(count <= t_n * t_f * t_cb);
        let full = traversal.load_count(trips, (true, true, true));
        prop_assert_eq!(full, t_n * t_f * t_cb);
        prop_assert!(count <= full);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any structurally legal mapping and random operands, the compiled
    /// PIM binary computes the exact gather-accumulate reference and its
    /// executed access counts match the closed-form cost model (static and
    /// coarse schemes are deterministic; fine-grain counts depend on the
    /// index stream and are covered by unit tests).
    #[test]
    fn compiled_program_is_correct_and_accounted(
        seed in any::<u64>(),
        traversal in prop::sample::select(TraversalOrder::all().to_vec()),
        n_m in prop::sample::select(vec![2usize, 4, 8]),
        f_m in prop::sample::select(vec![2usize, 4, 8]),
        cb_m in prop::sample::select(vec![2usize, 4]),
        static_scheme in any::<bool>(),
    ) {
        let w = LutWorkload::new(32, 4, 8, 16).unwrap();
        let scheme = if static_scheme {
            LoadScheme::Static
        } else {
            LoadScheme::CoarseGrain { cb_load: 2, f_load: 2 }
        };
        let mapping = Mapping {
            n_stile: 8,
            f_stile: 8,
            kernel: MicroKernel {
                n_mtile: n_m.min(8),
                f_mtile: f_m.min(8),
                cb_mtile: cb_m.min(4),
                traversal,
                load_scheme: scheme,
            },
        };
        let mut platform = PlatformConfig::upmem();
        platform.num_pes = 8;
        if mapping.validate(&w, &platform).is_err() {
            return Ok(());
        }
        let program = compile(&w, &mapping).unwrap();

        let mut rng = DataRng::new(seed);
        let indices: Vec<u16> = (0..mapping.n_stile * w.cb)
            .map(|_| rng.index(w.ct) as u16)
            .collect();
        let lut: Vec<i8> = (0..w.cb * w.ct * mapping.f_stile)
            .map(|_| (rng.index(255) as i32 - 127) as i8)
            .collect();
        let (out, stats) = interpret(&program, &platform, PeOperands {
            indices: &indices,
            lut: &lut,
            scale: 0.01,
        }).unwrap();

        // Scalar reference over the PE tile.
        for r in 0..mapping.n_stile {
            for f in 0..mapping.f_stile {
                let mut acc = 0i32;
                for c in 0..w.cb {
                    let sel = indices[r * w.cb + c] as usize;
                    acc += lut[(c * w.ct + sel) * mapping.f_stile + f] as i32;
                }
                prop_assert!((out.get(r, f) - acc as f32 * 0.01).abs() < 1e-4);
            }
        }

        let cost = estimate_cost(&platform, &w, &mapping).unwrap();
        prop_assert_eq!(stats.index_loads, cost.accesses.index_loads);
        prop_assert_eq!(stats.output_loads, cost.accesses.output_loads);
        prop_assert_eq!(stats.output_stores, cost.accesses.output_stores);
        prop_assert_eq!(stats.lut_accesses, cost.accesses.lut_accesses);
        prop_assert_eq!(stats.lut_bytes, cost.accesses.lut_bytes);
        prop_assert_eq!(stats.reduce_ops, cost.accesses.reduce_ops);
    }
}

/// `(groups, members, N_s, F_s, CB, CT)` corners of the direct executor's
/// band kernel: 16-row tiles, codebooks summed eight per pass into i16 runs
/// of at most 128, whole-width vector adds.
const BAND_CORNERS: [(usize, usize, usize, usize, usize, usize); 7] = [
    // CB = 4: below one eight-codebook pass, F = 32.
    (2, 2, 4, 16, 4, 16),
    // N_s = 1, CB = 5, F = 20 (no multiple of 8).
    (4, 4, 1, 5, 5, 16),
    // A single group of 17 rows (two row tiles), CB = 6, F = 24.
    (1, 8, 17, 3, 6, 16),
    // F_s = 1 on 64 PEs, CB = 7: the longest all-tail run.
    (8, 8, 3, 1, 7, 16),
    // Two-byte index values, three row tiles (16 + 16 + 8), F = 36 (past
    // 32, no multiple of 8).
    (2, 4, 40, 9, 3, 512),
    // Exactly one row tile, one full pass + a one-codebook tail, F = 66.
    (4, 2, 16, 33, 9, 2),
    // One full i16 run of 128 codebooks, then a run that is a single tail
    // codebook; F = 18 (one vector + a remainder), two row tiles.
    (2, 2, 17, 9, 129, 16),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On every band-kernel corner and one random shape per case, under a
    /// random micro-kernel and a random or saturated (all +127 / all -128)
    /// table: `run_lut_kernel` ≡ the per-PE scalar reference
    /// ≡ `run_lut_kernel_compiled`, bit for bit, and the report is the cost
    /// model at the measured repeat fraction.
    #[test]
    fn direct_executor_is_bit_exact(
        seed in any::<u64>(),
        traversal in any_traversal(),
        fine in any::<bool>(),
        whole_mtile in any::<bool>(),
        pes_pow in 2u32..7, g_pow in 0u32..7,
        n_s in 1usize..41, f_s in 1usize..41, cb in 1usize..10,
        ct in prop::sample::select(vec![2usize, 16, 512]),
        saturate in prop::sample::select(vec![None, Some(127i8), Some(-128i8)]),
    ) {
        // 4–64 PEs, split into groups × members at random.
        let groups = 1usize << g_pow.min(pes_pow);
        let random = (groups, (1usize << pes_pow) / groups, n_s, f_s, cb, ct);
        for (groups, members, n_s, f_s, cb, ct) in BAND_CORNERS.into_iter().chain([random]) {
            let w = LutWorkload::new(groups * n_s, cb, ct, members * f_s).unwrap();
            let (n_m, f_m, cb_m) = if whole_mtile { (n_s, f_s, cb) } else { (1, 1, 1) };
            let mapping = Mapping {
                n_stile: n_s,
                f_stile: f_s,
                kernel: MicroKernel {
                    n_mtile: n_m,
                    f_mtile: f_m,
                    cb_mtile: cb_m,
                    traversal,
                    load_scheme: if fine {
                        LoadScheme::FineGrain { f_load: 1, threads: 8 }
                    } else {
                        LoadScheme::CoarseGrain { cb_load: 1, f_load: 1 }
                    },
                },
            };
            let mut platform = PlatformConfig::upmem();
            platform.num_pes = groups * members;
            prop_assert!((4..=64).contains(&platform.num_pes));
            mapping.validate(&w, &platform).unwrap();

            let mut rng = DataRng::new(seed);
            let indices: Vec<u16> = (0..w.n * w.cb).map(|_| rng.index(w.ct) as u16).collect();
            // A saturated table drives every i16 run to its extreme.
            let table: Vec<i8> = (0..w.cb * w.ct * w.f)
                .map(|_| saturate.unwrap_or((rng.index(256) as i32 - 128) as i8))
                .collect();
            let data = LutKernelData { indices: &indices, table: &table, scale: 0.037 };

            let (out, report) = run_lut_kernel(&platform, &w, &mapping, data).unwrap();
            let (compiled, _) = run_lut_kernel_compiled(&platform, &w, &mapping, data).unwrap();

            // Per-PE reference: PE (g, j) reduces its own N_s × F_s tile,
            // one scalar i32 sum per output element.
            for g in 0..groups {
                for j in 0..members {
                    for r in g * n_s..(g + 1) * n_s {
                        for col in j * f_s..(j + 1) * f_s {
                            let acc: i32 = (0..cb)
                                .map(|c| {
                                    let k = indices[r * cb + c] as usize;
                                    i32::from(table[(c * ct + k) * w.f + col])
                                })
                                .sum();
                            let expected = (acc as f32 * data.scale).to_bits();
                            prop_assert_eq!(out.get(r, col).to_bits(), expected);
                            prop_assert_eq!(compiled.get(r, col).to_bits(), expected);
                        }
                    }
                }
            }

            let repeat = measure_repeat_fraction(&indices, w.n, w.cb);
            prop_assert_eq!(report, cost_with_repeat(&platform, &w, &mapping, repeat).unwrap());
        }
    }
}
