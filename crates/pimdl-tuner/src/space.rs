//! Enumeration of the mapping search space (P1–P4).

use pimdl_sim::config::PlatformConfig;
use pimdl_sim::{LoadScheme, LutWorkload, Mapping, MicroKernel, TraversalOrder};

use crate::{Result, TuneError};

/// Maximum divisor candidates per tiling dimension before falling back to
/// power-of-two divisors only (keeps the space tractable for large dims).
const MAX_DIVISORS: usize = 24;

/// All divisors of `n`, ascending.
pub fn divisors(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut high = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            if d != n / d {
                high.push(n / d);
            }
        }
        d += 1;
    }
    high.reverse();
    out.extend(high);
    out
}

/// Tiling-factor candidates for a dimension: all divisors when few, the
/// power-of-two divisors (plus the dimension itself) otherwise.
pub fn tile_candidates(dim: usize) -> Vec<usize> {
    let all = divisors(dim);
    if all.len() <= MAX_DIVISORS {
        return all;
    }
    let mut out: Vec<usize> = all
        .iter()
        .copied()
        .filter(|d| d.is_power_of_two())
        .collect();
    if !out.contains(&dim) {
        out.push(dim);
    }
    out
}

/// Legal sub-LUT tiling factors (**P1**): every `(N_s-tile, F_s-tile)` pair
/// satisfying Eq. 5 (`(N/N_s)·(F/F_s) = #PE`) with integral tiles.
pub fn sub_lut_candidates(
    workload: &LutWorkload,
    platform: &PlatformConfig,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for groups in divisors(platform.num_pes) {
        let per_group = platform.num_pes / groups;
        if !workload.n.is_multiple_of(groups) || !workload.f.is_multiple_of(per_group) {
            continue;
        }
        out.push((workload.n / groups, workload.f / per_group));
    }
    out
}

/// [`sub_lut_candidates`], or the error every search reports when Eq. 5
/// has no solution.
pub(crate) fn legal_pairs(
    workload: &LutWorkload,
    platform: &PlatformConfig,
) -> Result<Vec<(usize, usize)>> {
    let pairs = sub_lut_candidates(workload, platform);
    if pairs.is_empty() {
        return Err(TuneError::NoLegalMapping {
            detail: format!(
                "workload ({}, {}, {}, {}) cannot satisfy Eq. 5 on {} PEs",
                workload.n, workload.cb, workload.ct, workload.f, platform.num_pes
            ),
        });
    }
    Ok(pairs)
}

/// Micro-kernel candidates (**P2** + **P3** + **P4**) for a fixed sub-LUT
/// partition. Only structurally legal kernels are returned; WRAM capacity is
/// checked by `Mapping::validate` at scoring time.
pub fn kernel_candidates(
    workload: &LutWorkload,
    platform: &PlatformConfig,
    n_stile: usize,
    f_stile: usize,
) -> Vec<MicroKernel> {
    let mut kernels = Vec::new();
    let n_tiles = tile_candidates(n_stile);
    let f_tiles = tile_candidates(f_stile);
    let cb_tiles = tile_candidates(workload.cb);
    let threads = 16; // UPMEM tasklets; harmless default elsewhere.

    for &n_m in &n_tiles {
        for &f_m in &f_tiles {
            for &cb_m in &cb_tiles {
                for traversal in TraversalOrder::all() {
                    // P4 ❶ static — requires the full LUT s-tile on chip.
                    let static_bytes = workload.cb * workload.ct * f_stile;
                    if static_bytes <= platform.wram_bytes {
                        kernels.push(MicroKernel {
                            n_mtile: n_m,
                            f_mtile: f_m,
                            cb_mtile: cb_m,
                            traversal,
                            load_scheme: LoadScheme::Static,
                        });
                    }
                    // P4 ❷ coarse-grain — chunk factors divide the m-tiles.
                    for &cb_load in &tile_candidates(cb_m) {
                        for &f_load in &tile_candidates(f_m) {
                            if cb_load * workload.ct * f_load <= platform.wram_bytes {
                                kernels.push(MicroKernel {
                                    n_mtile: n_m,
                                    f_mtile: f_m,
                                    cb_mtile: cb_m,
                                    traversal,
                                    load_scheme: LoadScheme::CoarseGrain { cb_load, f_load },
                                });
                            }
                        }
                    }
                    // P4 ❸ fine-grain.
                    for &f_load in &tile_candidates(f_m) {
                        kernels.push(MicroKernel {
                            n_mtile: n_m,
                            f_mtile: f_m,
                            cb_mtile: cb_m,
                            traversal,
                            load_scheme: LoadScheme::FineGrain { f_load, threads },
                        });
                    }
                }
            }
        }
    }
    kernels
}

/// Builds the full mapping for a candidate.
pub fn mapping_of(n_stile: usize, f_stile: usize, kernel: MicroKernel) -> Mapping {
    Mapping {
        n_stile,
        f_stile,
        kernel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform(pes: usize) -> PlatformConfig {
        let mut p = PlatformConfig::upmem();
        p.num_pes = pes;
        p
    }

    #[test]
    fn divisors_correct() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(divisors(7), vec![1, 7]);
    }

    #[test]
    fn tile_candidates_fall_back_to_pow2() {
        // 2^16 has 17 divisors → all returned.
        assert_eq!(tile_candidates(65536).len(), 17);
        // A highly composite number exceeds the cap → pow2 subset.
        let c = tile_candidates(720720);
        assert!(c.iter().all(|d| d.is_power_of_two() || *d == 720720));
    }

    #[test]
    fn sub_lut_candidates_satisfy_eq5() {
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let p = platform(16);
        let cands = sub_lut_candidates(&w, &p);
        assert!(!cands.is_empty());
        for (n_s, f_s) in cands {
            assert_eq!(w.n % n_s, 0);
            assert_eq!(w.f % f_s, 0);
            assert_eq!((w.n / n_s) * (w.f / f_s), 16);
        }
    }

    #[test]
    fn sub_lut_candidates_empty_when_impossible() {
        // 3 PEs cannot partition a 64×32 output evenly.
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let cands = sub_lut_candidates(&w, &platform(3));
        assert!(cands.is_empty());
    }

    #[test]
    fn kernel_candidates_cover_all_schemes_and_orders() {
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let p = platform(16);
        let kernels = kernel_candidates(&w, &p, 16, 8);
        assert!(!kernels.is_empty());
        let has_static = kernels
            .iter()
            .any(|k| matches!(k.load_scheme, LoadScheme::Static));
        let has_coarse = kernels
            .iter()
            .any(|k| matches!(k.load_scheme, LoadScheme::CoarseGrain { .. }));
        let has_fine = kernels
            .iter()
            .any(|k| matches!(k.load_scheme, LoadScheme::FineGrain { .. }));
        assert!(has_static && has_coarse && has_fine);
        for order in TraversalOrder::all() {
            assert!(kernels.iter().any(|k| k.traversal == order));
        }
    }

    #[test]
    fn kernel_candidates_skip_static_when_wram_too_small() {
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let mut p = platform(16);
        p.wram_bytes = 100; // CB·CT·F_s = 8·16·8 = 1024 > 100
        let kernels = kernel_candidates(&w, &p, 16, 8);
        assert!(kernels
            .iter()
            .all(|k| !matches!(k.load_scheme, LoadScheme::Static)));
    }

    #[test]
    fn some_candidate_validates_end_to_end() {
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let p = platform(16);
        let mut ok = 0;
        for (n_s, f_s) in sub_lut_candidates(&w, &p) {
            for k in kernel_candidates(&w, &p, n_s, f_s) {
                if mapping_of(n_s, f_s, k).validate(&w, &p).is_ok() {
                    ok += 1;
                }
            }
        }
        assert!(ok > 0, "no candidate validated");
    }
}
