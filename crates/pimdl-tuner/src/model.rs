//! The analytical latency model of Eqs. 3–10.
//!
//! Structurally identical to `pimdl_sim::cost`, but idealized the way a
//! profiling-based model must be:
//!
//! * local-memory time is `bytes / profiled-bandwidth(access size)` (Eq. 8)
//!   with no per-access overhead term,
//! * fine-grain gathers assume no index-repeat reuse (data-dependent and
//!   unknowable offline),
//! * reduce time is `RCount × t_single-reduce(F_m-tile)` (Eq. 10), where
//!   the per-reduce latency is *profiled per inner-loop width* — the paper
//!   notes the on-chip bandwidth depends on the instruction count, so the
//!   profile captures the short-loop stall curve.
//!
//! Host↔PIM transfers (Eq. 4) are shared with the simulator — the paper
//! profiles those directly, so the model gets them right.

use serde::{Deserialize, Serialize};

use pimdl_sim::config::{PlatformConfig, PlatformKind};
use pimdl_sim::cost::{reduce_time_s, stream_counts, sub_lut_times, StreamCounts};
use pimdl_sim::{LutWorkload, Mapping};

use crate::Result;

/// Predicted latency breakdown (all seconds), mirroring
/// [`pimdl_sim::TimeBreakdown`] but produced by the analytical model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AnalyticalBreakdown {
    /// Predicted `t_sub-lut` (Eq. 3).
    pub sub_lut_s: f64,
    /// Predicted `t_micro-kernel` (Eq. 6).
    pub micro_kernel_s: f64,
    /// Predicted index-load component.
    pub kernel_index_s: f64,
    /// Predicted LUT-load component.
    pub kernel_lut_s: f64,
    /// Predicted output load/store component.
    pub kernel_output_s: f64,
    /// Predicted reduce component (Eq. 10).
    pub kernel_reduce_s: f64,
}

impl AnalyticalBreakdown {
    /// Predicted end-to-end latency.
    pub fn total_s(&self) -> f64 {
        self.sub_lut_s + self.micro_kernel_s
    }
}

/// Evaluates the analytical model for one mapping.
///
/// # Errors
///
/// Returns a wrapped [`pimdl_sim::SimError`] if the mapping is illegal.
pub fn analytical_cost(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    mapping: &Mapping,
) -> Result<AnalyticalBreakdown> {
    mapping.validate(workload, platform)?;
    let sc = stream_counts(workload, mapping);
    Ok(analytical(platform, workload, mapping, &sc))
}

/// [`analytical_cost`] of a validated mapping whose stream counts are at
/// hand (the hierarchical model prices the same streams again).
fn analytical(
    platform: &PlatformConfig,
    w: &LutWorkload,
    m: &Mapping,
    sc: &StreamCounts,
) -> AnalyticalBreakdown {
    let k = &m.kernel;

    // ---- Eq. 3–4: sub-LUT partition (shared with the simulator). ----
    let sub_lut_s = sub_lut_time_s(platform, w, m);

    // ---- Eq. 6–10: micro-kernel (idealized: bandwidth only, and
    // repeat-blind on purpose — the data-dependent reuse rate of
    // fine-grain gathers is unknowable offline, and pricing them at full
    // count partially offsets the per-access overheads the model also
    // cannot see, keeping scheme selection balanced, §6.6). ----
    let lm = &platform.local_mem;
    let [kernel_index_s, kernel_output_s, kernel_lut_s] =
        streams(sc).map(|(loads, tile)| lm.ideal_time_s(loads * tile, tile));

    // Profiled per-width reduce rate: t_single-reduce measured at the
    // kernel's inner-loop length includes the loop-overhead amortization.
    let kernel_reduce_s = reduce_time_s(platform, w, (m.n_stile, m.f_stile), k.f_mtile);

    AnalyticalBreakdown {
        sub_lut_s,
        micro_kernel_s: kernel_index_s + kernel_lut_s + kernel_output_s + kernel_reduce_s,
        kernel_index_s,
        kernel_lut_s,
        kernel_output_s,
        kernel_reduce_s,
    }
}

/// The micro-kernel's three local-memory streams — index, output
/// (loaded and stored per eviction), LUT — as `(transfers, bytes each)`.
fn streams(sc: &StreamCounts) -> [(f64, f64); 3] {
    [
        (sc.index_loads as f64, sc.index_mtile_bytes as f64),
        (2.0 * sc.output_loads as f64, sc.output_mtile_bytes as f64),
        (sc.lut_accesses as f64, sc.lut_access_bytes as f64),
    ]
}

/// The sub-LUT partition time (Eqs. 3–4) of a mapping. Depends only on the
/// **P1** pair `(N_s-tile, F_s-tile)`, never on the micro-kernel, so the
/// branch-and-bound search evaluates it exactly at the root of each pair's
/// subtree. [`analytical_cost`] calls this same function, keeping the two
/// bit-identical.
pub fn sub_lut_time_s(platform: &PlatformConfig, w: &LutWorkload, m: &Mapping) -> f64 {
    sub_lut_times(platform, w, m).total_s()
}

/// Greatest common divisor (Euclid). `gcd(0, n) = n`.
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// DRAM row-buffer parameters of the PE-buffer → global-buffer → row-buffer
/// hierarchy, derived per platform kind.
///
/// The analytical model (Eq. 8) prices local-memory traffic purely by
/// bandwidth; real banks additionally pay a row-activation latency each
/// time a streamed tile opens a DRAM row, and misaligned tiles straddle
/// *extra* rows ("layout crossing"). These are the two terms the
/// `pim_mapper`-style hierarchical model adds; [`hierarchical_cost`]
/// computes them via GCD-periodic crossing-tile analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemHierarchy {
    /// Row-buffer size of the bank behind the PE's global buffer (bytes).
    pub row_buffer_bytes: usize,
    /// Latency of one row activation (precharge + activate), seconds.
    pub row_activation_s: f64,
}

impl MemHierarchy {
    /// Hierarchy constants for a platform: DDR4-class banks behind UPMEM
    /// DPUs (2 KiB rows, ~45 ns tRC), HBM2/GDDR6-class banks for the
    /// MAC-style PIMs (8 KiB effective rows, ~15 ns).
    pub fn for_platform(platform: &PlatformConfig) -> Self {
        match platform.kind {
            PlatformKind::Upmem => MemHierarchy {
                row_buffer_bytes: 2048,
                row_activation_s: 45e-9,
            },
            PlatformKind::HbmPim | PlatformKind::Aim => MemHierarchy {
                row_buffer_bytes: 8192,
                row_activation_s: 15e-9,
            },
        }
    }

    /// Row traffic of `loads` streamed transfers of a `tile_bytes` tile, as
    /// `(compulsory_rows, crossing_rows)`.
    ///
    /// With tiles laid out back to back, consecutive tile start offsets
    /// within a row cycle with period `R / gcd(T, R)`; averaged over one
    /// period a `T`-byte tile touches `(T + R − gcd(T, R)) / R` rows. We
    /// split that into the *compulsory* part `max(T, R)/R` (the rows any
    /// placement must open: at least one per load, at least `T/R` by
    /// volume) and the *crossing* excess `(min(T, R) − gcd(T, R))/R`, which
    /// is zero exactly when tile and row sizes nest (`T | R` or `R | T`)
    /// and positive otherwise.
    pub fn row_traffic(&self, loads: f64, tile_bytes: f64) -> (f64, f64) {
        if loads <= 0.0 || tile_bytes <= 0.0 {
            return (0.0, 0.0);
        }
        let r = self.row_buffer_bytes as f64;
        let g = gcd(tile_bytes as u64, self.row_buffer_bytes as u64) as f64;
        let compulsory = (tile_bytes / r).max(1.0);
        let crossing = (tile_bytes.min(r) - g) / r;
        (loads * compulsory, loads * crossing)
    }
}

/// Hierarchical prediction: the flat analytical breakdown plus the
/// row-activation and layout-crossing terms of [`MemHierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HierBreakdown {
    /// The flat analytical model (Eqs. 3–10), unchanged.
    pub base: AnalyticalBreakdown,
    /// Compulsory row-activation time for all streamed micro-kernel
    /// traffic (index, output, LUT chunks).
    pub row_activation_s: f64,
    /// Excess activation time from tiles straddling row boundaries.
    pub crossing_s: f64,
}

impl HierBreakdown {
    /// Predicted end-to-end latency under the hierarchical model.
    pub fn total_s(&self) -> f64 {
        self.base.total_s() + self.row_activation_s + self.crossing_s
    }
}

/// Evaluates the hierarchical cost model for one mapping: the flat
/// analytical model of [`analytical_cost`] plus row-activation and
/// layout-crossing terms for every streamed structure of the micro-kernel.
/// This is the objective both tuner search strategies optimize.
///
/// # Errors
///
/// Returns a wrapped [`pimdl_sim::SimError`] if the mapping is illegal.
pub fn hierarchical_cost(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    mapping: &Mapping,
) -> Result<HierBreakdown> {
    hierarchical_cost_with(
        &MemHierarchy::for_platform(platform),
        platform,
        workload,
        mapping,
    )
}

/// [`hierarchical_cost`] with an explicit hierarchy (lets the search reuse
/// one derivation; passing [`MemHierarchy::for_platform`] is identical).
///
/// # Errors
///
/// Returns a wrapped [`pimdl_sim::SimError`] if the mapping is illegal.
pub fn hierarchical_cost_with(
    hier: &MemHierarchy,
    platform: &PlatformConfig,
    workload: &LutWorkload,
    mapping: &Mapping,
) -> Result<HierBreakdown> {
    mapping.validate(workload, platform)?;
    let sc = stream_counts(workload, mapping);
    let base = analytical(platform, workload, mapping, &sc);
    let mut row_activation_s = 0.0;
    let mut crossing_s = 0.0;
    for (loads, tile) in streams(&sc) {
        let (compulsory, crossing) = hier.row_traffic(loads, tile);
        row_activation_s += compulsory * hier.row_activation_s;
        crossing_s += crossing * hier.row_activation_s;
    }

    Ok(HierBreakdown {
        base,
        row_activation_s,
        crossing_s,
    })
}

/// Relative error of the analytical prediction against a simulated
/// ("measured") latency: `|pred − meas| / meas`.
pub fn relative_error(predicted_s: f64, measured_s: f64) -> f64 {
    if measured_s <= 0.0 {
        return 0.0;
    }
    (predicted_s - measured_s).abs() / measured_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimdl_sim::cost::estimate_cost;
    use pimdl_sim::mapping::MicroKernel;
    use pimdl_sim::LoadScheme;
    use pimdl_sim::TraversalOrder;

    fn platform(pes: usize) -> PlatformConfig {
        let mut p = PlatformConfig::upmem();
        p.num_pes = pes;
        p
    }

    fn workload() -> LutWorkload {
        LutWorkload::new(64, 8, 16, 32).unwrap()
    }

    fn mapping(scheme: LoadScheme) -> Mapping {
        Mapping {
            n_stile: 16,
            f_stile: 8,
            kernel: MicroKernel {
                n_mtile: 4,
                f_mtile: 4,
                cb_mtile: 4,
                traversal: TraversalOrder::Nfc,
                load_scheme: scheme,
            },
        }
    }

    #[test]
    fn analytical_close_to_but_below_simulated() {
        // The model omits overheads, so it should slightly *underestimate*
        // the simulated latency — within the paper's error band for sane
        // mappings.
        let p = platform(16);
        let w = workload();
        for scheme in [
            LoadScheme::Static,
            LoadScheme::CoarseGrain {
                cb_load: 2,
                f_load: 2,
            },
            LoadScheme::FineGrain {
                f_load: 4,
                threads: 16,
            },
        ] {
            let m = mapping(scheme);
            let pred = analytical_cost(&p, &w, &m).unwrap();
            let sim = estimate_cost(&p, &w, &m).unwrap();
            let err = relative_error(pred.total_s(), sim.time.total_s());
            assert!(
                pred.total_s() <= sim.time.total_s() + 1e-12,
                "{}: pred {} > sim {}",
                scheme.name(),
                pred.total_s(),
                sim.time.total_s()
            );
            assert!(err < 0.35, "{}: err={err}", scheme.name());
        }
    }

    #[test]
    fn analytical_rejects_illegal_mapping() {
        let w = workload();
        let m = mapping(LoadScheme::Static);
        assert!(analytical_cost(&platform(7), &w, &m).is_err());
    }

    #[test]
    fn sub_lut_term_matches_simulator_exactly() {
        // Transfers are profiled, so model and simulator agree on them.
        let p = platform(16);
        let w = workload();
        let m = mapping(LoadScheme::Static);
        let pred = analytical_cost(&p, &w, &m).unwrap();
        let sim = estimate_cost(&p, &w, &m).unwrap();
        assert!((pred.sub_lut_s - sim.time.sub_lut_total_s()).abs() < 1e-12);
    }

    #[test]
    fn reduce_term_uses_profiled_stall_curve() {
        let p = platform(16);
        let w = workload();
        let m = mapping(LoadScheme::Static);
        let pred = analytical_cost(&p, &w, &m).unwrap();
        let stall = 1.0 + pimdl_sim::cost::REDUCE_LOOP_OVERHEAD / 4.0;
        let expected = (16 * 8 * 8) as f64 * p.single_reduce_s * stall;
        assert!((pred.kernel_reduce_s - expected).abs() < 1e-15);
        // The reduce term now matches the simulator exactly (it is
        // profilable); residual model error comes from access overheads and
        // index-repeat reuse.
        let sim = estimate_cost(&p, &w, &m).unwrap();
        assert!((pred.kernel_reduce_s - sim.time.kernel_reduce_s).abs() < 1e-15);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(2048, 768), 256);
    }

    #[test]
    fn row_traffic_gcd_periodic_analysis() {
        let h = MemHierarchy {
            row_buffer_bytes: 2048,
            row_activation_s: 45e-9,
        };
        // Tile divides row: exactly one row per load, zero crossing.
        let (comp, cross) = h.row_traffic(10.0, 256.0);
        assert_eq!(comp, 10.0);
        assert_eq!(cross, 0.0);
        // Row divides tile: T/R rows per load, zero crossing.
        let (comp, cross) = h.row_traffic(4.0, 8192.0);
        assert_eq!(comp, 16.0);
        assert_eq!(cross, 0.0);
        // Misaligned (T = 3R/4): gcd = R/4, total rows per load must equal
        // (T + R − g)/R = 1.5, split 1.0 compulsory + 0.5 crossing.
        let (comp, cross) = h.row_traffic(2.0, 1536.0);
        assert!((comp - 2.0).abs() < 1e-12);
        assert!((cross - 1.0).abs() < 1e-12);
        // Degenerate inputs are silent zeros.
        assert_eq!(h.row_traffic(0.0, 64.0), (0.0, 0.0));
        assert_eq!(h.row_traffic(3.0, 0.0), (0.0, 0.0));
    }

    #[test]
    fn hierarchical_extends_analytical() {
        let p = platform(16);
        let w = workload();
        for scheme in [
            LoadScheme::Static,
            LoadScheme::CoarseGrain {
                cb_load: 2,
                f_load: 2,
            },
            LoadScheme::FineGrain {
                f_load: 4,
                threads: 16,
            },
        ] {
            let m = mapping(scheme);
            let base = analytical_cost(&p, &w, &m).unwrap();
            let hier = hierarchical_cost(&p, &w, &m).unwrap();
            // The flat breakdown is embedded unchanged...
            assert_eq!(hier.base, base, "{}", scheme.name());
            // ...and the hierarchy terms only ever add cost.
            assert!(hier.row_activation_s > 0.0, "{}", scheme.name());
            assert!(hier.crossing_s >= 0.0, "{}", scheme.name());
            assert!(hier.total_s() >= base.total_s(), "{}", scheme.name());
        }
    }

    #[test]
    fn hierarchical_rejects_illegal_mapping() {
        let w = workload();
        let m = mapping(LoadScheme::Static);
        assert!(hierarchical_cost(&platform(7), &w, &m).is_err());
    }

    #[test]
    fn crossing_penalizes_misaligned_tiles() {
        // Same data volume, one tile size nesting with the 2 KiB row and
        // one straddling it: the straddler must pay a crossing term.
        let h = MemHierarchy::for_platform(&platform(16));
        let (_, aligned) = h.row_traffic(12.0, 512.0);
        let (_, misaligned) = h.row_traffic(12.0, 384.0);
        assert_eq!(aligned, 0.0);
        assert!(misaligned > 0.0);
    }

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(1.0, 1.0), 0.0);
        assert!((relative_error(0.9, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(5.0, 0.0), 0.0);
    }

    #[test]
    fn breakdown_total_consistent() {
        let p = platform(16);
        let w = workload();
        let m = mapping(LoadScheme::Static);
        let pred = analytical_cost(&p, &w, &m).unwrap();
        let parts =
            pred.kernel_index_s + pred.kernel_lut_s + pred.kernel_output_s + pred.kernel_reduce_s;
        assert!((pred.micro_kernel_s - parts).abs() < 1e-15);
        assert!((pred.total_s() - (pred.sub_lut_s + pred.micro_kernel_s)).abs() < 1e-15);
    }
}
