//! The analytical latency model of Eqs. 3–10: an idealised *pricing* of
//! the terms `pimdl_sim::cost` derives, not a second derivation.
//!
//! Stream counts, tile bytes, the sub-LUT transfers (Eq. 4 — the paper
//! profiles those directly) and the reduce term (Eq. 10 at a
//! `t_single-reduce` *profiled per inner-loop width*, so the short-loop
//! stall curve is in the profile) are the simulator's own functions. The
//! model differs only where a profiling-based model must:
//!
//! * local-memory time is `bytes / profiled-bandwidth(access size)` (Eq. 8)
//!   with no per-access overhead term,
//! * fine-grain gathers assume no index-repeat reuse (data-dependent and
//!   unknowable offline); pricing them at full count partially offsets the
//!   per-access overheads the model also cannot see, keeping scheme
//!   selection balanced (§6.6).
//!
//! Both predictions come back as a [`TimeBreakdown`], the simulator's own
//! type, so model and "measurement" compare term by term.
//!
//! A search prices a mapping in two parts. Everything but the LUT stream
//! is a function of the complete tiling `(pair, N_m, F_m, CB_m,
//! traversal)` alone, and dozens of load-scheme leaves share each tiling,
//! so [`TilingPrice`] computes that part once. Each leaf is then its
//! tiling's exact price plus its own LUT stream: one WRAM check, one
//! [`lut_stream`], one LUT term, and the LUT row terms added last. Most
//! of those leaves are coarse-grain, and they share far fewer chunk sizes
//! `cb_load·f_load`, which alone fix a multi-chunk leaf's stream: the
//! branch-and-bound prices each size once per tiling, and a leaf not at
//! all when [`TilingPrice::floor_s`] of its true LUT volume is already over
//! the incumbent ([`crate::bnb`]).
//! [`hierarchical_cost`] is `validate` followed by the same price, so the
//! model, branch-and-bound and the exhaustive reference share one
//! derivation and agree bit for bit.

use serde::{Deserialize, Serialize};

use pimdl_sim::config::{LocalMemModel, MemHierarchy, PlatformConfig};
use pimdl_sim::cost::{
    index_tile_bytes, lut_buffer_bytes, lut_stream, output_tile_bytes, reduce_time_s,
    stream_counts, sub_lut_times, tiling_streams, trip_counts, Pair, RowTimes, StreamCounts,
};
use pimdl_sim::{LoadScheme, LutWorkload, Mapping, TimeBreakdown};

use crate::space::{kernel_of, mapping_of, Tiling};
use crate::Result;

/// Evaluates the analytical model for one mapping.
///
/// # Errors
///
/// Returns a wrapped [`pimdl_sim::SimError`] if the mapping is illegal.
pub fn analytical_cost(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    mapping: &Mapping,
) -> Result<TimeBreakdown> {
    mapping.validate(workload, platform)?;
    let sc = stream_counts(workload, mapping);
    Ok(analytical(
        platform,
        workload,
        mapping.pair(),
        mapping.kernel.f_mtile,
        &sc,
    ))
}

/// One stream's local-memory time: `(transfers, bytes each)` at the
/// profiled bandwidth of its access size (Eq. 8).
fn stream_time_s(lm: &LocalMemModel, (loads, tile): (f64, f64)) -> f64 {
    lm.ideal_time_s(loads * tile, tile)
}

/// [`analytical_cost`] of a validated mapping in `pair` with inner loop
/// `f_mtile`, whose stream counts are at hand.
fn analytical(
    platform: &PlatformConfig,
    w: &LutWorkload,
    pair: Pair,
    f_mtile: usize,
    sc: &StreamCounts,
) -> TimeBreakdown {
    let lm = &platform.local_mem;
    let [kernel_index_s, kernel_output_s, kernel_lut_s] =
        sc.streams().map(|stream| stream_time_s(lm, stream));
    TimeBreakdown {
        kernel_index_s,
        kernel_lut_s,
        kernel_output_s,
        kernel_reduce_s: reduce_time_s(platform, w, pair, f_mtile),
        ..sub_lut_times(platform, w, pair)
    }
}

/// Hierarchical prediction: the flat analytical breakdown plus the
/// row-activation and layout-crossing terms of
/// [`pimdl_sim::config::MemHierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HierBreakdown {
    /// The flat analytical model (Eqs. 3–10), unchanged.
    pub base: TimeBreakdown,
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
    mapping.validate(workload, platform)?;
    let k = &mapping.kernel;
    let tiling = (k.n_mtile, k.f_mtile, k.cb_mtile, k.traversal);
    Ok(TilingPrice::new(platform, workload, mapping.pair(), tiling).price(k.load_scheme))
}

/// Everything of a leaf's hierarchical price that its load scheme does not
/// move, for one complete tiling of one P1 pair: the sub-LUT transfers,
/// the reduce term, the index and output streams and their row terms.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TilingPrice<'a> {
    platform: &'a PlatformConfig,
    w: &'a LutWorkload,
    pair: Pair,
    tiling: Tiling,
    trips: (u64, u64, u64),
    /// The index and output streams; the LUT stream empty.
    sc: StreamCounts,
    hier: MemHierarchy,
    /// Index plus output m-tile bytes: the WRAM beside the LUT buffer.
    tiles_bytes: usize,
    /// The flat breakdown with an empty LUT stream (`kernel_lut_s` zero).
    base: TimeBreakdown,
    /// The index and output row terms, summed in stream order.
    rows: RowTimes,
}

impl<'a> TilingPrice<'a> {
    /// The shared part of every leaf under `tiling` in `pair`.
    pub(crate) fn new(
        platform: &'a PlatformConfig,
        w: &'a LutWorkload,
        pair: Pair,
        tiling @ (n_m, f_m, cb_m, traversal): Tiling,
    ) -> Self {
        let trips = trip_counts(w, pair, (n_m, f_m, cb_m));
        let sc = tiling_streams(w, (n_m, f_m, cb_m), traversal, trips);
        let hier = platform.mem_hierarchy();
        let [index, output, _] = sc.streams();
        TilingPrice {
            platform,
            w,
            pair,
            tiling,
            trips,
            sc,
            hier,
            tiles_bytes: index_tile_bytes(w, n_m, cb_m) + output_tile_bytes(n_m, f_m),
            base: analytical(platform, w, pair, f_m, &sc),
            rows: RowTimes::default().add(&hier, index).add(&hier, output),
        }
    }

    /// The hierarchical price of the `scheme` leaf ([`space::leaf_schemes`]
    /// enumerates it), or `None` if its LUT buffer does not fit WRAM beside the
    /// m-tiles: the one condition of `Mapping::validate` that a leaf of a
    /// legal pair's tiling does not meet by construction.
    ///
    /// [`space::leaf_schemes`]: crate::space::leaf_schemes
    pub(crate) fn leaf(&self, scheme: LoadScheme) -> Option<HierBreakdown> {
        self.fits(scheme).then(|| self.price(scheme))
    }

    /// Whether the `scheme` leaf's LUT buffer fits WRAM beside the m-tiles:
    /// its legality, without its price.
    pub(crate) fn fits(&self, scheme: LoadScheme) -> bool {
        let lut_buffer = lut_buffer_bytes(self.w, self.pair.1, scheme);
        let fits = self.tiles_bytes + lut_buffer <= self.platform.wram_bytes;
        debug_assert_eq!(
            fits,
            mapping_of(self.pair.0, self.pair.1, kernel_of(self.tiling, scheme))
                .validate(self.w, self.platform)
                .is_ok(),
            "leaf price and Mapping::validate disagree on {scheme:?} under {:?}",
            self.tiling
        );
        fits
    }

    /// Trip counts `(T_n, T_f, T_cb)` of the tiling.
    pub(crate) fn trips(&self) -> (u64, u64, u64) {
        self.trips
    }

    /// WRAM bytes left beside the index and output m-tiles: the largest
    /// LUT buffer a leaf of this tiling may hold.
    pub(crate) fn lut_room(&self) -> usize {
        self.platform.wram_bytes.saturating_sub(self.tiles_bytes)
    }

    /// A floor on the price of every leaf whose LUT stream moves `bytes` in
    /// accesses of at most `access` bytes: this tiling's exact price, the
    /// LUT term at that access (bandwidth only grows with the access) and
    /// the LUT row terms at their volume floor.
    pub(crate) fn floor_s(&self, bytes: f64, access: f64) -> f64 {
        self.base.total_s()
            + self.rows.row_activation_s
            + self.rows.crossing_s
            + self.platform.local_mem.ideal_time_s(bytes, access)
            + self.hier.volume_floor_s(bytes)
    }

    /// The `scheme` leaf's price: this tiling's plus its LUT stream, whose
    /// row terms are added after the index and output ones.
    fn price(&self, scheme: LoadScheme) -> HierBreakdown {
        let (lut_accesses, lut_access_bytes) = lut_stream(
            self.w,
            self.pair,
            &kernel_of(self.tiling, scheme),
            self.trips,
        );
        let sc = StreamCounts {
            lut_accesses,
            lut_access_bytes,
            ..self.sc
        };
        let [.., lut] = sc.streams();
        let rows = self.rows.add(&self.hier, lut);
        HierBreakdown {
            base: TimeBreakdown {
                kernel_lut_s: stream_time_s(&self.platform.local_mem, lut),
                ..self.base
            },
            row_activation_s: rows.row_activation_s,
            crossing_s: rows.crossing_s,
        }
    }
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
        assert_eq!(
            (pred.sub_index_s, pred.sub_lut_s, pred.sub_output_s),
            (
                sim.time.sub_index_s,
                sim.time.sub_lut_s,
                sim.time.sub_output_s
            )
        );
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
        assert_eq!(pred.micro_kernel_total_s(), parts);
        assert_eq!(pred.total_s(), pred.sub_lut_total_s() + parts);
    }
}
