//! Functional execution of the LUT micro-kernel on the simulated PEs.
//!
//! The gather-accumulate over the INT8 tables is really performed, so
//! simulated results are bit-checkable against the host reference
//! (`pimdl_lutnn::lut::QuantLutTable::lookup`). [`run_lut_kernel`] gathers
//! a PE group's members as one whole-width band — sound because validation
//! makes them tile the band exactly and integer adds are exact — through
//! the one INT8 gather the host kernels also run,
//! [`pimdl_tensor::quant::lut_gather`]; this module adds the mapping's band
//! assembly and the dequantization. The independent checks of that gather
//! are the reference `QuantLutTable::lookup` and [`run_lut_kernel_compiled`],
//! which interprets the per-PE instruction stream with its own loops. The
//! cost attached to a run comes from [`crate::cost`] evaluated with the
//! *measured* index-repeat fraction, so functional execution and cost
//! estimation share one model.

use pimdl_tensor::quant::{lut_gather, MAX_CB};
use pimdl_tensor::Matrix;

use crate::config::PlatformConfig;
use crate::cost::{cost_with_repeat, CostReport};
use crate::mapping::{LutWorkload, Mapping};
use crate::{Result, SimError};

/// Borrowed kernel operands in the simulator's wire format: one byte (or
/// two) per index, one INT8 code per table entry, a single dequantization
/// scale.
#[derive(Debug, Clone, Copy)]
pub struct LutKernelData<'a> {
    /// Index matrix, row-major `N x CB`.
    pub indices: &'a [u16],
    /// LUT codes, row-major `(CB*CT) x F`.
    pub table: &'a [i8],
    /// Dequantization scale applied once per output element.
    pub scale: f32,
}

/// Measures the fraction of `(row, codebook)` gathers whose index equals the
/// previous row's index in the same codebook column (the fine-grain
/// row-hit opportunity).
pub fn measure_repeat_fraction(indices: &[u16], n: usize, cb: usize) -> f64 {
    if n < 2 || cb == 0 {
        return 0.0;
    }
    let mut repeats = 0u64;
    for r in 1..n {
        for c in 0..cb {
            if indices[r * cb + c] == indices[(r - 1) * cb + c] {
                repeats += 1;
            }
        }
    }
    repeats as f64 / ((n - 1) as u64 * cb as u64) as f64
}

/// `CB` must fit the i32 accumulator, the operand slices must have the
/// workload's shape and every index must select one of the `CT` centroids.
fn check_operands(w: &LutWorkload, data: LutKernelData<'_>) -> Result<()> {
    if w.cb > MAX_CB {
        return Err(SimError::WorkloadMismatch {
            detail: format!(
                "CB = {} overflows the i32 accumulator (at most {MAX_CB} INT8 entries per sum)",
                w.cb
            ),
        });
    }
    if data.indices.len() != w.n * w.cb {
        return Err(SimError::WorkloadMismatch {
            detail: format!(
                "index slice has {} entries, workload needs {}",
                data.indices.len(),
                w.n * w.cb
            ),
        });
    }
    if data.table.len() != w.cb * w.ct * w.f {
        return Err(SimError::WorkloadMismatch {
            detail: format!(
                "table slice has {} entries, workload needs {}",
                data.table.len(),
                w.cb * w.ct * w.f
            ),
        });
    }
    if let Some(&bad) = data.indices.iter().find(|&&i| (i as usize) >= w.ct) {
        return Err(SimError::WorkloadMismatch {
            detail: format!("index {bad} >= CT = {}", w.ct),
        });
    }
    Ok(())
}

/// Runs the LUT kernel functionally on the simulated PEs and returns the
/// assembled `N x F` output together with the measured-cost report.
///
/// PE `(group i, member j)` owns output rows
/// `[i·N_s, (i+1)·N_s) x [j·F_s, (j+1)·F_s)` — the sub-LUT partition of
/// Fig. 8-(a). No inter-PE communication occurs (limitation **L2** is
/// respected by construction: neither `CT` nor `CB` is split across PEs).
/// A group's members read the same index rows and disjoint column slices
/// of the same table rows, so each group is gathered as one whole-width
/// band (`gather_band`); [`run_lut_kernel_compiled`] executes the per-PE
/// instruction stream.
///
/// # Errors
///
/// Returns [`SimError::WorkloadMismatch`] if the operand slices disagree
/// with the workload shape or `CB` overflows the i32 accumulator, an
/// illegal-mapping error from validation, or [`SimError::Execution`] if a
/// PE group's thread panicked.
pub fn run_lut_kernel(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    mapping: &Mapping,
    data: LutKernelData<'_>,
) -> Result<(Matrix, CostReport)> {
    let w = workload;
    check_operands(w, data)?;
    let repeat = measure_repeat_fraction(data.indices, w.n, w.cb);
    let report = cost_with_repeat(platform, w, mapping, repeat)?;

    let n_s = mapping.n_stile;

    let mut output = Matrix::zeros(w.n, w.f);
    {
        // Parallel functional execution: bands of output rows are disjoint,
        // one band per PE group. Validation (inside `cost_with_repeat`)
        // guarantees the group's members tile the band's columns exactly,
        // so the band is gathered whole-width.
        let cols = w.f;
        let bands: Vec<&mut [f32]> = output.as_mut_slice().chunks_mut(n_s * cols).collect();
        crossbeam::scope(|scope| {
            for (g, band) in bands.into_iter().enumerate() {
                let idx = &data.indices[g * n_s * w.cb..(g + 1) * n_s * w.cb];
                scope.spawn(move |_| {
                    gather_band(band, idx, data.table, (w.cb, w.ct, w.f), data.scale)
                });
            }
        })
        .map_err(|_| SimError::Execution {
            detail: "a simulated PE group panicked".to_string(),
        })?;
    }

    Ok((output, report))
}

/// Rows gathered per accumulator tile: a constant, so a band's scratch is at
/// most `BAND_ROW_TILE · F · 6` bytes (an i32 and an i16 tile) whatever
/// `N_s` is.
const BAND_ROW_TILE: usize = 16;

/// Gathers one PE group's `N_s × F` output band from its `N_s × CB` index
/// rows: each row tile is one whole-width shared INT8 gather
/// ([`lut_gather`], exact and order-free), then one
/// `acc as f32 * scale` per element.
fn gather_band(
    band: &mut [f32],
    idx: &[u16],
    table: &[i8],
    (cb, ct, f): (usize, usize, usize),
    scale: f32,
) {
    let mut acc = vec![0i32; BAND_ROW_TILE.min(band.len() / f) * f];
    let mut stage = vec![0i16; acc.len()];
    for (t, out_tile) in band.chunks_mut(BAND_ROW_TILE * f).enumerate() {
        let acc = &mut acc[..out_tile.len()];
        let stage = &mut stage[..out_tile.len()];
        let idx_tile = &idx[t * BAND_ROW_TILE * cb..][..out_tile.len() / f * cb];
        lut_gather(acc, stage, table, (cb, ct, f), (0, f), idx_tile);
        for (o, &a) in out_tile.iter_mut().zip(acc.iter()) {
            *o = a as f32 * scale;
        }
    }
}

/// Extracts PE `(group, member)`'s operands from the global workload data,
/// in the layout [`crate::interp::interpret`] expects: the group's index
/// tile (`N_s × CB`) and the member's LUT feature slice (`CB × CT × F_s`).
pub fn pe_operand_tiles(
    workload: &LutWorkload,
    mapping: &Mapping,
    data: LutKernelData<'_>,
    group: usize,
    member: usize,
) -> (Vec<u16>, Vec<i8>) {
    let w = workload;
    let m = mapping;
    let mut idx_tile = Vec::with_capacity(m.n_stile * w.cb);
    for r in 0..m.n_stile {
        let global_r = group * m.n_stile + r;
        idx_tile.extend_from_slice(&data.indices[global_r * w.cb..(global_r + 1) * w.cb]);
    }
    let col0 = member * m.f_stile;
    let mut lut_tile = Vec::with_capacity(w.cb * w.ct * m.f_stile);
    for cb in 0..w.cb {
        for ct in 0..w.ct {
            let base = (cb * w.ct + ct) * w.f + col0;
            lut_tile.extend_from_slice(&data.table[base..base + m.f_stile]);
        }
    }
    (idx_tile, lut_tile)
}

/// Runs the LUT kernel by compiling the mapping to a PIM binary
/// ([`crate::isa::compile`]) and interpreting it on every PE
/// ([`crate::interp::interpret`]).
///
/// Slower than [`run_lut_kernel`] (it executes the explicit instruction
/// stream) but exercises exactly the loop nest the auto-tuned mapping
/// describes; the returned per-PE stats carry the executed access counts.
///
/// # Errors
///
/// Propagates operand-shape and compilation errors.
pub fn run_lut_kernel_compiled(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    mapping: &Mapping,
    data: LutKernelData<'_>,
) -> Result<(Matrix, Vec<crate::interp::InterpStats>)> {
    let w = workload;
    check_operands(w, data)?;
    mapping.validate(workload, platform)?;
    let program = crate::isa::compile(workload, mapping)?;
    let mut out = Matrix::zeros(w.n, w.f);
    let mut stats = Vec::with_capacity(platform.num_pes);
    for group in 0..mapping.groups(w) {
        for member in 0..mapping.pes_per_group(w) {
            let (idx_tile, lut_tile) = pe_operand_tiles(workload, mapping, data, group, member);
            let (pe_out, pe_stats) = crate::interp::interpret(
                &program,
                platform,
                crate::interp::PeOperands {
                    indices: &idx_tile,
                    lut: &lut_tile,
                    scale: data.scale,
                },
            )?;
            out.set_submatrix(group * mapping.n_stile, member * mapping.f_stile, &pe_out)
                .map_err(|e| SimError::Execution {
                    detail: format!("tile assembly failed: {e}"),
                })?;
            stats.push(pe_stats);
        }
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{LoadScheme, MicroKernel, TraversalOrder};
    use pimdl_tensor::rng::DataRng;

    fn platform(pes: usize) -> PlatformConfig {
        let mut p = PlatformConfig::upmem();
        p.num_pes = pes;
        p
    }

    fn mapping() -> Mapping {
        Mapping {
            n_stile: 8,
            f_stile: 8,
            kernel: MicroKernel {
                n_mtile: 4,
                f_mtile: 4,
                cb_mtile: 2,
                traversal: TraversalOrder::Nfc,
                load_scheme: LoadScheme::FineGrain {
                    f_load: 4,
                    threads: 8,
                },
            },
        }
    }

    fn random_operands(w: &LutWorkload, seed: u64) -> (Vec<u16>, Vec<i8>) {
        let mut rng = DataRng::new(seed);
        let indices: Vec<u16> = (0..w.n * w.cb).map(|_| rng.index(w.ct) as u16).collect();
        let table: Vec<i8> = (0..w.cb * w.ct * w.f)
            .map(|_| (rng.index(255) as i32 - 127) as i8)
            .collect();
        (indices, table)
    }

    /// Per-PE reference: the sub-LUT partition executed literally, member
    /// by member — PE `(g, j)` gathers its own `N_s × F_s` tile.
    fn per_pe_reference(w: &LutWorkload, m: &Mapping, data: LutKernelData<'_>) -> Matrix {
        let (n_s, f_s) = (m.n_stile, m.f_stile);
        let mut out = Matrix::zeros(w.n, w.f);
        for g in 0..m.groups(w) {
            for j in 0..m.pes_per_group(w) {
                let col0 = j * f_s;
                for r in g * n_s..(g + 1) * n_s {
                    let idx_row = &data.indices[r * w.cb..(r + 1) * w.cb];
                    let mut acc = vec![0i32; f_s];
                    for (cb, &k) in idx_row.iter().enumerate() {
                        let trow = (cb * w.ct + k as usize) * w.f + col0;
                        for (a, &e) in acc.iter_mut().zip(&data.table[trow..trow + f_s]) {
                            *a += e as i32;
                        }
                    }
                    for (c, &a) in acc.iter().enumerate() {
                        out.set(r, col0 + c, a as f32 * data.scale);
                    }
                }
            }
        }
        out
    }

    /// Host reference: plain gather-accumulate.
    fn reference(w: &LutWorkload, indices: &[u16], table: &[i8], scale: f32) -> Matrix {
        let mut out = Matrix::zeros(w.n, w.f);
        for r in 0..w.n {
            for cb in 0..w.cb {
                let k = indices[r * w.cb + cb] as usize;
                for f in 0..w.f {
                    let e = table[(cb * w.ct + k) * w.f + f] as f32;
                    let cur = out.get(r, f);
                    out.set(r, f, cur + e);
                }
            }
        }
        out.scale(scale)
    }

    #[test]
    fn functional_output_matches_reference() {
        let w = LutWorkload::new(32, 4, 8, 16).unwrap();
        let (indices, table) = random_operands(&w, 0);
        let data = LutKernelData {
            indices: &indices,
            table: &table,
            scale: 0.05,
        };
        // 4 groups × 2 PEs = 8 PEs.
        let (out, report) = run_lut_kernel(&platform(8), &w, &mapping(), data).unwrap();
        let expected = reference(&w, &indices, &table, 0.05);
        assert_eq!(out.as_slice(), expected.as_slice());
        assert_eq!(
            out.as_slice(),
            per_pe_reference(&w, &mapping(), data).as_slice()
        );
        assert!(report.time.total_s() > 0.0);
    }

    #[test]
    fn cost_uses_measured_repeat_fraction() {
        let w = LutWorkload::new(32, 4, 8, 16).unwrap();
        // All-identical indices → repeat fraction 1.0.
        let indices = vec![3u16; w.n * w.cb];
        let (_, table) = random_operands(&w, 1);
        let data = LutKernelData {
            indices: &indices,
            table: &table,
            scale: 1.0,
        };
        let (_, report) = run_lut_kernel(&platform(8), &w, &mapping(), data).unwrap();
        assert!((report.repeat_fraction - 1.0).abs() < 1e-9);

        // Alternating indices → repeat fraction 0.0.
        let indices: Vec<u16> = (0..w.n * w.cb).map(|i| ((i / w.cb) % 2) as u16).collect();
        let data = LutKernelData {
            indices: &indices,
            table: &table,
            scale: 1.0,
        };
        let (_, report0) = run_lut_kernel(&platform(8), &w, &mapping(), data).unwrap();
        assert_eq!(report0.repeat_fraction, 0.0);
        // Full repeats must be cheaper on the fine-grain LUT path.
        assert!(report.time.kernel_lut_s < report0.time.kernel_lut_s);
    }

    #[test]
    fn run_report_equals_estimate_with_same_repeat() {
        let w = LutWorkload::new(32, 4, 8, 16).unwrap();
        let (indices, table) = random_operands(&w, 2);
        let data = LutKernelData {
            indices: &indices,
            table: &table,
            scale: 1.0,
        };
        let p = platform(8);
        let m = mapping();
        let (_, run_report) = run_lut_kernel(&p, &w, &m, data).unwrap();
        let repeat = measure_repeat_fraction(&indices, w.n, w.cb);
        let est = cost_with_repeat(&p, &w, &m, repeat).unwrap();
        assert_eq!(run_report, est);
    }

    #[test]
    fn operand_shape_validation() {
        let w = LutWorkload::new(32, 4, 8, 16).unwrap();
        let (indices, table) = random_operands(&w, 3);
        let p = platform(8);
        let m = mapping();
        let mut big = indices.clone();
        big[0] = 99;

        // One codebook more than the i32 accumulator can hold: refused
        // before the slices are looked at, so empty ones reach the check.
        let wide = LutWorkload {
            cb: MAX_CB + 1,
            ..w
        };

        // Short index slice, short table slice, index past CT, CB past the
        // accumulator: both runners refuse each with the same error.
        for (w, indices, table, needle) in [
            (w, &indices[..10], &table[..], "index slice"),
            (w, &indices[..], &table[..10], "table slice"),
            (w, &big[..], &table[..], "index 99"),
            (wide, &[][..], &[][..], "i32 accumulator"),
        ] {
            let data = LutKernelData {
                indices,
                table,
                scale: 1.0,
            };
            let direct = run_lut_kernel(&p, &w, &m, data).unwrap_err();
            assert!(
                matches!(&direct, SimError::WorkloadMismatch { detail } if detail.contains(needle)),
                "{direct:?}"
            );
            assert_eq!(
                run_lut_kernel_compiled(&p, &w, &m, data).unwrap_err(),
                direct
            );
        }
    }

    #[test]
    fn compiled_runner_matches_direct_executor() {
        let w = LutWorkload::new(32, 4, 8, 16).unwrap();
        let (indices, table) = random_operands(&w, 21);
        let data = LutKernelData {
            indices: &indices,
            table: &table,
            scale: 0.04,
        };
        let p = platform(8);
        let m = mapping();
        let (direct, _) = run_lut_kernel(&p, &w, &m, data).unwrap();
        let (compiled, stats) = run_lut_kernel_compiled(&p, &w, &m, data).unwrap();
        assert_eq!(compiled.as_slice(), direct.as_slice());
        assert_eq!(stats.len(), 8);
        // Deterministic reduce work is identical across PEs.
        for s in &stats {
            assert_eq!(s.reduce_ops, stats[0].reduce_ops);
            assert!(s.time_s > 0.0);
        }
    }

    #[test]
    fn repeat_fraction_edge_cases() {
        assert_eq!(measure_repeat_fraction(&[], 0, 0), 0.0);
        assert_eq!(measure_repeat_fraction(&[1, 2], 1, 2), 0.0);
        assert_eq!(measure_repeat_fraction(&[1, 1], 2, 1), 1.0);
        assert_eq!(measure_repeat_fraction(&[1, 2], 2, 1), 0.0);
    }

    #[test]
    fn partition_covers_output_exactly_once() {
        // Different n_stile/f_stile splits produce identical outputs — each
        // output element is owned by exactly one PE.
        let w = LutWorkload::new(16, 4, 8, 16).unwrap();
        let (indices, table) = random_operands(&w, 4);
        let data = LutKernelData {
            indices: &indices,
            table: &table,
            scale: 1.0,
        };
        let base = reference(&w, &indices, &table, 1.0);
        for (n_s, f_s, pes) in [(16, 16, 1), (8, 16, 2), (16, 4, 4), (4, 4, 16)] {
            let m = Mapping {
                n_stile: n_s,
                f_stile: f_s,
                kernel: MicroKernel {
                    n_mtile: n_s.min(4),
                    f_mtile: f_s.min(4),
                    cb_mtile: 2,
                    traversal: TraversalOrder::Ncf,
                    load_scheme: LoadScheme::Static,
                },
            };
            let (out, _) = run_lut_kernel(&platform(pes), &w, &m, data).unwrap();
            assert_eq!(out.as_slice(), base.as_slice(), "n_s={n_s} f_s={f_s}");
            assert_eq!(
                out.as_slice(),
                per_pe_reference(&w, &m, data).as_slice(),
                "n_s={n_s} f_s={f_s}"
            );
        }
    }
}
