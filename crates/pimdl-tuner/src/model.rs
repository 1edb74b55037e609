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
//! so `TilingPrice` computes that part once. It is assembled from terms
//! computed at the level of the search tree that fixes their inputs: the
//! sub-LUT transfers per P1 pair (`PairPrice`), the trip counts, tile
//! bytes, their Eq. 8 rates and the reduce term per node (`MTilePrice`,
//! a child's derived from its parent's), the tiles' rows per load per
//! m-tile node (`TileRows`), the index and output streams per traversal
//! (`TileStreams`, which the branch-and-bound's bound reads too). Each
//! leaf is then its tiling's exact price plus its own LUT stream: one WRAM
//! check, one [`lut_stream`], one LUT term, and the LUT row terms added
//! last. Most of those leaves are coarse-grain, and they share far fewer
//! chunk sizes `cb_load·f_load`, which alone fix a multi-chunk leaf's
//! stream: the branch-and-bound prices each size once per tiling, and a
//! leaf not at all when `TilingPrice::floor_s` of its true LUT volume is
//! already over the incumbent ([`crate::bnb`]).
//! [`hierarchical_cost`] is `validate` followed by the same price, so the
//! model, branch-and-bound and the exhaustive reference share one
//! derivation and agree bit for bit.

use serde::{Deserialize, Serialize};

use pimdl_sim::config::{LocalMemModel, MemHierarchy, PlatformConfig};
use pimdl_sim::cost::{
    index_tile_bytes, lut_buffer_bytes, lut_stream, output_tile_bytes, reduce_time_s,
    stream_counts, sub_lut_times, trip_count, trip_counts, Pair, RowTimes, INDEX_USES, OUTPUT_USES,
};
use pimdl_sim::{LoadScheme, LutWorkload, Mapping, TimeBreakdown, TraversalOrder};

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
    let pair = mapping.pair();
    let lm = &platform.local_mem;
    let [kernel_index_s, kernel_output_s, kernel_lut_s] = stream_counts(workload, mapping)
        .streams()
        .map(|stream| stream_time_s(lm, stream));
    Ok(TimeBreakdown {
        kernel_index_s,
        kernel_lut_s,
        kernel_output_s,
        kernel_reduce_s: reduce_time_s(platform, workload, pair, mapping.kernel.f_mtile),
        ..sub_lut_times(platform, workload, pair)
    })
}

/// One stream's local-memory time: `(transfers, bytes each)` at the
/// profiled bandwidth of its access size (Eq. 8).
fn stream_time_s(lm: &LocalMemModel, (loads, tile): (f64, f64)) -> f64 {
    lm.ideal_time_s(loads * tile, tile)
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

/// The part of every leaf's price that its P1 pair alone fixes: the
/// sub-LUT transfers (Eqs. 3–5) and the platform's row model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairPrice<'a> {
    pub(crate) platform: &'a PlatformConfig,
    pub(crate) w: &'a LutWorkload,
    pub(crate) pair: Pair,
    /// [`sub_lut_times`] of the pair: the three transfer terms, every
    /// kernel term zero.
    pub(crate) sub_lut: TimeBreakdown,
    hier: MemHierarchy,
}

impl<'a> PairPrice<'a> {
    /// The pair-fixed terms of `pair`.
    pub(crate) fn new(platform: &'a PlatformConfig, w: &'a LutWorkload, pair: Pair) -> Self {
        PairPrice {
            platform,
            w,
            pair,
            sub_lut: sub_lut_times(platform, w, pair),
            hier: platform.mem_hierarchy(),
        }
    }
}

/// One m-tile's bytes and its Eq. 8 rate ([`LocalMemModel::bytes_per_s`]),
/// computed together when the tile is fixed and read by every stream of
/// it.
#[derive(Debug, Clone, Copy)]
struct Tile {
    bytes: usize,
    bytes_per_s: f64,
}

impl Tile {
    fn new(lm: &LocalMemModel, bytes: usize) -> Self {
        Tile {
            bytes,
            bytes_per_s: lm.bytes_per_s(bytes as f64),
        }
    }

    /// The local-memory time of `loads` transfers of the tile: its
    /// stream's [`stream_time_s`], to the bits.
    fn time_s(&self, loads: f64) -> f64 {
        LocalMemModel::time_at_s(loads * self.bytes as f64, self.bytes_per_s)
    }
}

/// The part of every leaf's price that its m-tiles `(N_m, F_m, CB_m)` fix
/// within one pair, whatever the traversal: trip counts, tile bytes with
/// their Eq. 8 rates, and the reduce term. A child in the search tree
/// derives its own from its parent's, recomputing only what the m-tile it
/// sets moves ([`Self::with_n_m`], [`Self::with_f_m`], [`Self::with_cb_m`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MTilePrice {
    pub(crate) mtiles: (usize, usize, usize),
    /// Trip counts `(T_n, T_f, T_cb)`.
    pub(crate) trips: (u64, u64, u64),
    /// One index m-tile.
    index: Tile,
    /// One output m-tile.
    output: Tile,
    /// `t_reduce` (Eq. 10) at inner loop `F_m`.
    pub(crate) reduce_s: f64,
}

impl MTilePrice {
    /// The m-tile-fixed terms of `mtiles` in `pair`, from scratch.
    pub(crate) fn new(pair: &PairPrice, mtiles @ (n_m, f_m, cb_m): (usize, usize, usize)) -> Self {
        let lm = &pair.platform.local_mem;
        MTilePrice {
            mtiles,
            trips: trip_counts(pair.w, pair.pair, mtiles),
            index: Tile::new(lm, index_tile_bytes(pair.w, n_m, cb_m)),
            output: Tile::new(lm, output_tile_bytes(n_m, f_m)),
            reduce_s: reduce_time_s(pair.platform, pair.w, pair.pair, f_m),
        }
    }

    /// These terms with `N_m` set to `n_m`: `T_n` and the index and output
    /// tiles move.
    pub(crate) fn with_n_m(&self, pair: &PairPrice, n_m: usize) -> Self {
        let (_, f_m, cb_m) = self.mtiles;
        let lm = &pair.platform.local_mem;
        MTilePrice {
            mtiles: (n_m, f_m, cb_m),
            trips: (trip_count(pair.pair.0, n_m), self.trips.1, self.trips.2),
            index: Tile::new(lm, index_tile_bytes(pair.w, n_m, cb_m)),
            output: Tile::new(lm, output_tile_bytes(n_m, f_m)),
            ..*self
        }
    }

    /// These terms with `F_m` set to `f_m`: `T_f`, the output tile and the
    /// reduce term move.
    pub(crate) fn with_f_m(&self, pair: &PairPrice, f_m: usize) -> Self {
        let (n_m, _, cb_m) = self.mtiles;
        MTilePrice {
            mtiles: (n_m, f_m, cb_m),
            trips: (self.trips.0, trip_count(pair.pair.1, f_m), self.trips.2),
            output: Tile::new(&pair.platform.local_mem, output_tile_bytes(n_m, f_m)),
            reduce_s: reduce_time_s(pair.platform, pair.w, pair.pair, f_m),
            ..*self
        }
    }

    /// These terms with `CB_m` set to `cb_m`: `T_cb` and the index tile
    /// move.
    pub(crate) fn with_cb_m(&self, pair: &PairPrice, cb_m: usize) -> Self {
        let (n_m, f_m, _) = self.mtiles;
        MTilePrice {
            mtiles: (n_m, f_m, cb_m),
            trips: (self.trips.0, self.trips.1, trip_count(pair.w.cb, cb_m)),
            index: Tile::new(
                &pair.platform.local_mem,
                index_tile_bytes(pair.w, n_m, cb_m),
            ),
            ..*self
        }
    }

    /// Index plus output m-tile bytes: the WRAM beside the LUT buffer.
    pub(crate) fn tiles_bytes(&self) -> usize {
        self.index.bytes + self.output.bytes
    }

    /// The index and output tiles' rows per load
    /// ([`MemHierarchy::rows_per_load`]): read by every tiling of the
    /// m-tiles and by no bound, so computed once the m-tiles are set.
    pub(crate) fn rows(&self, pair: &PairPrice) -> TileRows {
        TileRows {
            index: pair.hier.rows_per_load(self.index.bytes as f64),
            output: pair.hier.rows_per_load(self.output.bytes as f64),
        }
    }

    /// The index and output streams of these m-tiles loaded `(index,
    /// output)` times ([`tile_loads`], or any count a bound assumes), with
    /// their local-memory times.
    pub(crate) fn streams(&self, loads @ (index_loads, output_loads): (u64, u64)) -> TileStreams {
        TileStreams {
            loads,
            index_s: self.index.time_s(index_loads as f64),
            // Loaded and stored per eviction.
            output_s: self.output.time_s(2.0 * output_loads as f64),
        }
    }
}

/// The `(compulsory, crossing)` rows one load of an index and of an output
/// m-tile opens ([`MTilePrice::rows`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileRows {
    index: (f64, f64),
    output: (f64, f64),
}

/// The `(index, output)` m-tile load counts of a walk in `traversal` order
/// with trip counts `trips`.
pub(crate) fn tile_loads(traversal: TraversalOrder, trips: (u64, u64, u64)) -> (u64, u64) {
    (
        traversal.load_count(trips, INDEX_USES),
        traversal.load_count(trips, OUTPUT_USES),
    )
}

/// The index and output streams of one tiling ([`MTilePrice::streams`]):
/// the part of a leaf's price its traversal fixes, and the non-LUT stream
/// terms of the branch-and-bound's bound.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileStreams {
    /// The `(index, output)` m-tile loads.
    loads: (u64, u64),
    /// `kernel_index_s`.
    pub(crate) index_s: f64,
    /// `kernel_output_s`.
    pub(crate) output_s: f64,
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
    hier: MemHierarchy,
    /// Index plus output m-tile bytes: the WRAM beside the LUT buffer.
    tiles_bytes: usize,
    /// The flat breakdown with an empty LUT stream (`kernel_lut_s` zero).
    base: TimeBreakdown,
    /// The index and output row terms, summed in stream order.
    rows: RowTimes,
    /// `base`'s total plus `rows`' two terms: every leaf's price but its
    /// LUT stream's.
    non_lut_s: f64,
}

impl<'a> TilingPrice<'a> {
    /// The shared part of every leaf under `tiling` in `pair`, from
    /// scratch.
    pub(crate) fn new(
        platform: &'a PlatformConfig,
        w: &'a LutWorkload,
        pair: Pair,
        (n_m, f_m, cb_m, traversal): Tiling,
    ) -> Self {
        let pair = PairPrice::new(platform, w, pair);
        let mtiles = MTilePrice::new(&pair, (n_m, f_m, cb_m));
        let streams = mtiles.streams(tile_loads(traversal, mtiles.trips));
        TilingPrice::of(&pair, &mtiles, &mtiles.rows(&pair), traversal, &streams)
    }

    /// The shared part of every leaf under the tiling of `mtiles`, whose
    /// tiles' rows per load are `rows`, walked in `traversal` order, from
    /// the terms its pair, m-tiles and traversal fix.
    pub(crate) fn of(
        pair: &PairPrice<'a>,
        mtiles: &MTilePrice,
        rows: &TileRows,
        traversal: TraversalOrder,
        streams: &TileStreams,
    ) -> Self {
        let (n_m, f_m, cb_m) = mtiles.mtiles;
        let (index_loads, output_loads) = streams.loads;
        let base = TimeBreakdown {
            kernel_index_s: streams.index_s,
            kernel_output_s: streams.output_s,
            kernel_reduce_s: mtiles.reduce_s,
            ..pair.sub_lut
        };
        // The streams of `StreamCounts::streams`, in its order.
        let rows = RowTimes::default()
            .add_loads(&pair.hier, index_loads as f64, rows.index)
            .add_loads(&pair.hier, 2.0 * output_loads as f64, rows.output);
        TilingPrice {
            platform: pair.platform,
            w: pair.w,
            pair: pair.pair,
            tiling: (n_m, f_m, cb_m, traversal),
            trips: mtiles.trips,
            hier: pair.hier,
            tiles_bytes: mtiles.tiles_bytes(),
            base,
            rows,
            non_lut_s: base.total_s() + rows.row_activation_s + rows.crossing_s,
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

    /// A floor on the price of every leaf whose LUT stream moves `bytes` in
    /// accesses of at most `access` bytes: this tiling's exact price, the
    /// LUT term at that access (bandwidth only grows with the access) and
    /// the LUT row terms at their volume floor.
    pub(crate) fn floor_s(&self, bytes: f64, access: f64) -> f64 {
        self.non_lut_s
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
        let lut = (lut_accesses as f64, lut_access_bytes as f64);
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
