//! Interpreter for the PE instruction set of [`crate::isa`].
//!
//! Executes a compiled [`PimProgram`] against one PE's operands (its index
//! tile and LUT tile) exactly as the simulated hardware would: DMA
//! instructions move tiles between local memory and the on-chip buffer
//! (charged through the platform's [`LocalMemModel`](crate::config::LocalMemModel)), gathers respect the
//! per-thread hold-last-entry reuse of the fine-grain scheme, and
//! accumulates run in i32 at `single_reduce_s` per operation.
//!
//! The interpreter produces the PE's output tile **and** the executed
//! access counts, so the closed-form model of [`crate::cost`] can be
//! validated against a real execution of the very loop nest it prices.

use pimdl_tensor::Matrix;

use crate::config::PlatformConfig;
use crate::isa::{Instr, PimProgram};
use crate::mapping::LoadScheme;
use crate::{Result, SimError};

/// Executed-access statistics of one program run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InterpStats {
    /// Index MTile DMA count.
    pub index_loads: u64,
    /// Output MTile DMAs into the buffer (zero-init visits excluded).
    pub output_loads: u64,
    /// Output MTile DMAs back to local memory.
    pub output_stores: u64,
    /// LUT DMA/gather accesses that actually touched local memory.
    pub lut_accesses: u64,
    /// LUT bytes moved from local memory.
    pub lut_bytes: u64,
    /// Fine-grain gathers skipped by the hold-last-entry reuse.
    pub gathers_reused: u64,
    /// Accumulate operations executed.
    pub reduce_ops: u64,
    /// Modeled execution time (seconds).
    pub time_s: f64,
}

/// One PE's operands: its index tile (`N_s x CB`, row-major) and its LUT
/// tile (`CB x CT x F_s`, laid out `(cb * CT + ct) * F_s + f`).
#[derive(Debug, Clone, Copy)]
pub struct PeOperands<'a> {
    /// Index tile, `n_stile * cb` entries.
    pub indices: &'a [u16],
    /// LUT tile codes, `cb * ct * f_stile` entries.
    pub lut: &'a [i8],
    /// Dequantization scale.
    pub scale: f32,
}

/// Executes a program on one PE.
///
/// Returns the PE's `(N_s-tile x F_s-tile)` output and the executed
/// statistics.
///
/// # Errors
///
/// Returns [`SimError::WorkloadMismatch`] if the operand slices disagree
/// with the program's shapes, or [`SimError::Execution`] if an instruction
/// references out-of-range coordinates (a compiler bug, surfaced loudly).
pub fn interpret(
    program: &PimProgram,
    platform: &PlatformConfig,
    operands: PeOperands<'_>,
) -> Result<(Matrix, InterpStats)> {
    let w = &program.workload;
    let m = &program.mapping;
    let k = &m.kernel;
    let (n_s, f_s, cb, ct) = (m.n_stile, m.f_stile, w.cb, w.ct);
    if operands.indices.len() != n_s * cb {
        return Err(SimError::WorkloadMismatch {
            detail: format!(
                "index tile has {} entries, expected {}",
                operands.indices.len(),
                n_s * cb
            ),
        });
    }
    if operands.lut.len() != cb * ct * f_s {
        return Err(SimError::WorkloadMismatch {
            detail: format!(
                "LUT tile has {} entries, expected {}",
                operands.lut.len(),
                cb * ct * f_s
            ),
        });
    }

    let lm = &platform.local_mem;
    let idx_bytes = w.index_elem_bytes();
    let mut stats = InterpStats::default();
    let mut out = Matrix::zeros(n_s, f_s);
    // i32 accumulators for the whole PE tile (the interpreter models the
    // on-chip MTile accumulator; using the full tile keeps bookkeeping
    // simple while Store/Load instructions still pay their DMA costs).
    let mut acc = vec![0i32; n_s * f_s];
    let mut current_index: Option<(u32, u32)> = None;
    // Fine-grain per-thread hold-last: last gathered (index) per codebook
    // column of the current index MTile (reset when the MTile changes).
    let mut last_gathered: std::collections::HashMap<u32, u16> = std::collections::HashMap::new();

    let oob = |what: &str| SimError::Execution {
        detail: format!("instruction references out-of-range {what}"),
    };

    let (f_load, threads) = match k.load_scheme {
        LoadScheme::FineGrain { f_load, threads } => (f_load, threads),
        _ => (k.f_mtile, 1),
    };

    for instr in &program.instrs {
        match *instr {
            Instr::LoadLutAll => {
                let bytes = (cb * ct * f_s) as u64;
                stats.lut_accesses += 1;
                stats.lut_bytes += bytes;
                stats.time_s += lm.sim_time_s(bytes as f64, bytes as f64, 1);
            }
            Instr::LoadLutChunk { cb0, f0 } => {
                let LoadScheme::CoarseGrain { cb_load, f_load } = k.load_scheme else {
                    return Err(SimError::Execution {
                        detail: "LoadLutChunk outside coarse-grain scheme".to_string(),
                    });
                };
                if cb0 as usize + cb_load > cb || f0 as usize + f_load > f_s {
                    return Err(oob("LUT chunk"));
                }
                let bytes = (cb_load * ct * f_load) as u64;
                stats.lut_accesses += 1;
                stats.lut_bytes += bytes;
                stats.time_s += lm.sim_time_s(bytes as f64, bytes as f64, 1);
            }
            Instr::LoadIndex { n0, cb0 } => {
                if n0 as usize + k.n_mtile > n_s || cb0 as usize + k.cb_mtile > cb {
                    return Err(oob("index MTile"));
                }
                let bytes = (k.n_mtile * k.cb_mtile * idx_bytes) as f64;
                stats.index_loads += 1;
                stats.time_s += lm.sim_time_s(bytes, bytes, 1);
                current_index = Some((n0, cb0));
                last_gathered.clear();
            }
            Instr::ZeroOutput { n0, f0 } => {
                if n0 as usize + k.n_mtile > n_s || f0 as usize + k.f_mtile > f_s {
                    return Err(oob("output MTile"));
                }
                for r in n0 as usize..n0 as usize + k.n_mtile {
                    for c in f0 as usize..f0 as usize + k.f_mtile {
                        acc[r * f_s + c] = 0;
                    }
                }
                // First visit still allocates/initializes the buffer; we
                // charge it like a load (the cost model counts zero-init
                // visits in LCount_output as well).
                let bytes = (k.n_mtile * k.f_mtile * 4) as f64;
                stats.output_loads += 1;
                stats.time_s += lm.sim_time_s(bytes, bytes, 1);
            }
            Instr::LoadOutput { n0, f0 } => {
                if n0 as usize + k.n_mtile > n_s || f0 as usize + k.f_mtile > f_s {
                    return Err(oob("output MTile"));
                }
                let bytes = (k.n_mtile * k.f_mtile * 4) as f64;
                stats.output_loads += 1;
                stats.time_s += lm.sim_time_s(bytes, bytes, 1);
            }
            Instr::StoreOutput { n0, f0 } => {
                if n0 as usize + k.n_mtile > n_s || f0 as usize + k.f_mtile > f_s {
                    return Err(oob("output MTile"));
                }
                let bytes = (k.n_mtile * k.f_mtile * 4) as f64;
                stats.output_stores += 1;
                stats.time_s += lm.sim_time_s(bytes, bytes, 1);
            }
            Instr::AccumulateResident {
                cb0,
                count,
                f0,
                f_count,
            } => {
                let Some((n0, _)) = current_index else {
                    return Err(SimError::Execution {
                        detail: "accumulate before any index MTile load".to_string(),
                    });
                };
                if cb0 as usize + count as usize > cb || f0 as usize + f_count as usize > f_s {
                    return Err(oob("resident accumulate"));
                }
                for r in n0 as usize..n0 as usize + k.n_mtile {
                    for c in cb0 as usize..(cb0 + count) as usize {
                        let sel = operands.indices[r * cb + c] as usize;
                        if sel >= ct {
                            return Err(SimError::Execution {
                                detail: format!("index {sel} >= CT = {ct}"),
                            });
                        }
                        let base = (c * ct + sel) * f_s;
                        for fcol in f0 as usize..(f0 + f_count) as usize {
                            acc[r * f_s + fcol] += operands.lut[base + fcol] as i32;
                            stats.reduce_ops += 1;
                        }
                    }
                }
            }
            Instr::GatherAccumulate { cb: col, f0 } => {
                let Some((n0, _)) = current_index else {
                    return Err(SimError::Execution {
                        detail: "gather before any index MTile load".to_string(),
                    });
                };
                if col as usize >= cb || f0 as usize + f_load > f_s {
                    return Err(oob("gather"));
                }
                for r in n0 as usize..n0 as usize + k.n_mtile {
                    let sel = operands.indices[r * cb + col as usize];
                    if sel as usize >= ct {
                        return Err(SimError::Execution {
                            detail: format!("index {sel} >= CT = {ct}"),
                        });
                    }
                    // Hold-last-entry reuse: a repeat of the previous row's
                    // index in this codebook hits the thread buffer.
                    if last_gathered.get(&col) == Some(&sel) {
                        stats.gathers_reused += 1;
                    } else {
                        stats.lut_accesses += 1;
                        stats.lut_bytes += f_load as u64;
                        stats.time_s += lm.ideal_time_s(f_load as f64, f_load as f64)
                            + lm.access_overhead_s / threads.max(1) as f64;
                        last_gathered.insert(col, sel);
                    }
                    let base = (col as usize * ct + sel as usize) * f_s;
                    for fcol in f0 as usize..f0 as usize + f_load {
                        acc[r * f_s + fcol] += operands.lut[base + fcol] as i32;
                        stats.reduce_ops += 1;
                    }
                }
            }
        }
    }

    // Reduce time: per-op rate with the short-loop stall of the cost model.
    let stall = 1.0 + crate::cost::REDUCE_LOOP_OVERHEAD / k.f_mtile as f64;
    stats.time_s += stats.reduce_ops as f64 * platform.single_reduce_s * stall;

    for r in 0..n_s {
        for c in 0..f_s {
            out.set(r, c, acc[r * f_s + c] as f32 * operands.scale);
        }
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::estimate_cost;
    use crate::isa::compile;
    use crate::mapping::{LutWorkload, Mapping, MicroKernel, TraversalOrder};
    use pimdl_tensor::rng::DataRng;

    fn platform() -> PlatformConfig {
        let mut p = PlatformConfig::upmem();
        p.num_pes = 8; // groups 4 × per-group 2 for the test mapping
        p
    }

    fn workload() -> LutWorkload {
        LutWorkload::new(64, 8, 16, 32).unwrap()
    }

    fn mapping(scheme: LoadScheme, traversal: TraversalOrder) -> Mapping {
        Mapping {
            n_stile: 16,
            f_stile: 16,
            kernel: MicroKernel {
                n_mtile: 4,
                f_mtile: 4,
                cb_mtile: 4,
                traversal,
                load_scheme: scheme,
            },
        }
    }

    fn operands(w: &LutWorkload, m: &Mapping, seed: u64) -> (Vec<u16>, Vec<i8>) {
        let mut rng = DataRng::new(seed);
        let indices: Vec<u16> = (0..m.n_stile * w.cb)
            .map(|_| rng.index(w.ct) as u16)
            .collect();
        let lut: Vec<i8> = (0..w.cb * w.ct * m.f_stile)
            .map(|_| (rng.index(255) as i32 - 127) as i8)
            .collect();
        (indices, lut)
    }

    fn reference(w: &LutWorkload, m: &Mapping, indices: &[u16], lut: &[i8], scale: f32) -> Matrix {
        let mut out = Matrix::zeros(m.n_stile, m.f_stile);
        for r in 0..m.n_stile {
            for c in 0..w.cb {
                let sel = indices[r * w.cb + c] as usize;
                for f in 0..m.f_stile {
                    let e = lut[(c * w.ct + sel) * m.f_stile + f] as f32;
                    let cur = out.get(r, f);
                    out.set(r, f, cur + e);
                }
            }
        }
        out.scale(scale)
    }

    #[test]
    fn interpreter_matches_reference_all_schemes_and_orders() {
        let w = workload();
        let p = platform();
        for scheme in [
            LoadScheme::Static,
            LoadScheme::CoarseGrain {
                cb_load: 2,
                f_load: 2,
            },
            LoadScheme::FineGrain {
                f_load: 4,
                threads: 8,
            },
        ] {
            for traversal in TraversalOrder::all() {
                let m = mapping(scheme, traversal);
                let (indices, lut) = operands(&w, &m, 7);
                let program = compile(&w, &m).unwrap();
                let (out, stats) = interpret(
                    &program,
                    &p,
                    PeOperands {
                        indices: &indices,
                        lut: &lut,
                        scale: 0.03,
                    },
                )
                .unwrap();
                let expected = reference(&w, &m, &indices, &lut, 0.03);
                assert!(
                    out.approx_eq(&expected, 1e-4),
                    "{:?} {traversal}: max diff {}",
                    scheme.name(),
                    out.sub(&expected).unwrap().max_abs()
                );
                assert!(stats.time_s > 0.0);
                assert_eq!(stats.reduce_ops, (m.n_stile * w.cb * m.f_stile) as u64);
            }
        }
    }

    #[test]
    fn executed_counts_match_cost_model_static() {
        let w = workload();
        let p = platform();
        for traversal in TraversalOrder::all() {
            let m = mapping(LoadScheme::Static, traversal);
            let (indices, lut) = operands(&w, &m, 8);
            let program = compile(&w, &m).unwrap();
            let (_, stats) = interpret(
                &program,
                &p,
                PeOperands {
                    indices: &indices,
                    lut: &lut,
                    scale: 1.0,
                },
            )
            .unwrap();
            let cost = estimate_cost(&p, &w, &m).unwrap();
            assert_eq!(stats.index_loads, cost.accesses.index_loads, "{traversal}");
            assert_eq!(
                stats.output_loads, cost.accesses.output_loads,
                "{traversal}"
            );
            assert_eq!(
                stats.output_stores, cost.accesses.output_stores,
                "{traversal}"
            );
            assert_eq!(
                stats.lut_accesses, cost.accesses.lut_accesses,
                "{traversal}"
            );
            assert_eq!(stats.lut_bytes, cost.accesses.lut_bytes, "{traversal}");
            assert_eq!(stats.reduce_ops, cost.accesses.reduce_ops, "{traversal}");
        }
    }

    #[test]
    fn executed_fine_grain_reuse_tracks_repeat_fraction() {
        let w = workload();
        let p = platform();
        let m = mapping(
            LoadScheme::FineGrain {
                f_load: 4,
                threads: 8,
            },
            TraversalOrder::Ncf,
        );
        // All-identical indices: within every index MTile all rows after
        // the first hit the hold-last buffer.
        let indices = vec![3u16; m.n_stile * w.cb];
        let (_, lut) = operands(&w, &m, 9);
        let program = compile(&w, &m).unwrap();
        let (_, stats) = interpret(
            &program,
            &p,
            PeOperands {
                indices: &indices,
                lut: &lut,
                scale: 1.0,
            },
        )
        .unwrap();
        assert!(
            stats.gathers_reused > stats.lut_accesses,
            "reused {} vs accessed {}",
            stats.gathers_reused,
            stats.lut_accesses
        );

        // Alternating indices defeat the reuse entirely.
        let alt: Vec<u16> = (0..m.n_stile * w.cb)
            .map(|i| ((i / w.cb) % 2) as u16)
            .collect();
        let (_, stats_alt) = interpret(
            &program,
            &p,
            PeOperands {
                indices: &alt,
                lut: &lut,
                scale: 1.0,
            },
        )
        .unwrap();
        assert_eq!(stats_alt.gathers_reused, 0);
    }

    #[test]
    fn interpreter_rejects_malformed_operands() {
        let w = workload();
        let p = platform();
        let m = mapping(LoadScheme::Static, TraversalOrder::Nfc);
        let (indices, lut) = operands(&w, &m, 10);
        let program = compile(&w, &m).unwrap();
        assert!(interpret(
            &program,
            &p,
            PeOperands {
                indices: &indices[..10],
                lut: &lut,
                scale: 1.0
            }
        )
        .is_err());
        assert!(interpret(
            &program,
            &p,
            PeOperands {
                indices: &indices,
                lut: &lut[..10],
                scale: 1.0
            }
        )
        .is_err());
        let mut bad = indices.clone();
        bad[0] = 999;
        assert!(interpret(
            &program,
            &p,
            PeOperands {
                indices: &bad,
                lut: &lut,
                scale: 1.0
            }
        )
        .is_err());
    }

    #[test]
    fn interpreter_time_close_to_cost_model() {
        // The interpreter charges the same primitives as the cost model;
        // totals should agree tightly for static (deterministic traffic).
        let w = workload();
        let p = platform();
        let m = mapping(LoadScheme::Static, TraversalOrder::Nfc);
        let (indices, lut) = operands(&w, &m, 11);
        let program = compile(&w, &m).unwrap();
        let (_, stats) = interpret(
            &program,
            &p,
            PeOperands {
                indices: &indices,
                lut: &lut,
                scale: 1.0,
            },
        )
        .unwrap();
        let cost = estimate_cost(&p, &w, &m).unwrap();
        let model = cost.time.micro_kernel_total_s();
        let rel = (stats.time_s - model).abs() / model;
        assert!(
            rel < 0.05,
            "interp {} vs model {} ({rel})",
            stats.time_s,
            model
        );
    }
}
