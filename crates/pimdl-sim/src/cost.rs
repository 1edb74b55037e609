//! The one derivation of every latency term of a LUT kernel launch.
//!
//! Follows the two-step dataflow of §5.2: **sub-LUT partition** (host↔PIM
//! transfers, Eqs. 3–5: [`sub_lut_times`]) then **micro-kernel execution**
//! on every PE (Eqs. 6–10: [`stream_counts`], [`reduce_time_s`]), plus the
//! two DRAM-row terms of the hierarchical model ([`RowTimes`]). The
//! tile-size, trip-count and use-mask pieces those are composed from are
//! public, so the auto-tuner's analytical model and its branch-and-bound
//! lower bounds (`pimdl_tuner::{model, bnb}`) call the same functions at
//! their own arguments instead of re-deriving them. [`stream_counts`] is
//! itself two of them, [`tiling_streams`] and [`lut_stream`], because only
//! the LUT stream depends on the load scheme: the tuner prices a tiling's
//! other streams once and each of its load-scheme leaves by the LUT stream
//! alone.
//!
//! What stays different between simulator and model is only how a stream
//! is *priced*. The simulator ([`cost_with_repeat`]) adds two second-order
//! effects an offline model cannot see:
//!
//! 1. per-access instruction/DMA overhead on local-memory transfers,
//! 2. index-stream row-hit reuse on fine-grain gathers (data-dependent).
//!
//! These produce the small, systematic model-vs-measured error reported in
//! §6.6 (avg 3.44 %, max 13.73 % on real hardware). Short-loop reduce
//! stalls are *not* among them: the model profiles `t_single-reduce` per
//! inner-loop width, i.e. shares [`reduce_time_s`].

use serde::{Deserialize, Serialize};

use crate::config::{MemHierarchy, PlatformConfig, TransferPattern};
use crate::mapping::{LoadScheme, LutWorkload, Mapping, MicroKernel, TraversalOrder};
use crate::Result;

/// Loop-overhead cycles charged per innermost reduce-loop execution,
/// expressed in units of `single_reduce` time. Short `F_m-tile` loops
/// amortize this badly (the static-scheme effect in Fig. 13-(c)).
pub const REDUCE_LOOP_OVERHEAD: f64 = 2.0;

/// Latency breakdown of one kernel launch (all seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeBreakdown {
    /// Index tile send time (`t_sub_index`).
    pub sub_index_s: f64,
    /// LUT tile send time (`t_sub_lut`).
    pub sub_lut_s: f64,
    /// Output fetch time (`t_sub_output`).
    pub sub_output_s: f64,
    /// Per-PE index MTile load time (`t_ld_index`).
    pub kernel_index_s: f64,
    /// Per-PE LUT load time (`t_ld_lut`).
    pub kernel_lut_s: f64,
    /// Per-PE output MTile load+store time.
    pub kernel_output_s: f64,
    /// Per-PE reduce time (`t_reduce`).
    pub kernel_reduce_s: f64,
}

impl TimeBreakdown {
    /// Sub-LUT partition (host↔PIM) time, Eq. 3.
    #[inline]
    pub fn sub_lut_total_s(&self) -> f64 {
        self.sub_index_s + self.sub_lut_s + self.sub_output_s
    }

    /// Per-inference kernel latency with the LUTs already resident in PIM
    /// memory: everything except the one-time LUT staging transfer.
    pub fn total_resident_s(&self) -> f64 {
        self.total_s() - self.sub_lut_s
    }

    /// Micro-kernel time, Eq. 6 (`t_transfer + t_reduce`).
    #[inline]
    pub fn micro_kernel_total_s(&self) -> f64 {
        self.kernel_index_s + self.kernel_lut_s + self.kernel_output_s + self.kernel_reduce_s
    }

    /// End-to-end kernel latency.
    #[inline]
    pub fn total_s(&self) -> f64 {
        self.sub_lut_total_s() + self.micro_kernel_total_s()
    }
}

/// Per-PE access counts underlying the latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AccessCounts {
    /// Index MTile loads (`LCount_index`).
    pub index_loads: u64,
    /// LUT load accesses (granularity depends on the load scheme).
    pub lut_accesses: u64,
    /// LUT bytes actually moved from local memory.
    pub lut_bytes: u64,
    /// Output MTile loads (`LCount_output`).
    pub output_loads: u64,
    /// Output MTile stores (`SCount_output`).
    pub output_stores: u64,
    /// Reduce operations (`RCount`).
    pub reduce_ops: u64,
}

/// Full cost report for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// Latency breakdown.
    pub time: TimeBreakdown,
    /// Per-PE access counts.
    pub accesses: AccessCounts,
    /// On-chip buffer bytes used per PE.
    pub wram_bytes: usize,
    /// Host↔PIM bytes moved (index + LUT + output, totals over all PEs).
    pub host_pim_bytes: u64,
    /// The LUT-staging portion of `host_pim_bytes`. In steady-state serving
    /// the LUTs are resident in PIM memory (distributed once at model load,
    /// like the GEMM baseline's weights), so per-inference traffic excludes
    /// this portion and per-inference latency excludes `time.sub_lut_s`.
    pub lut_stage_bytes: u64,
    /// Fraction of fine-grain gathers that hit the row buffer (repeated
    /// index); `0.0` for other schemes.
    pub repeat_fraction: f64,
}

/// A **P1** pair `(N_s-tile, F_s-tile)`.
pub type Pair = (usize, usize);

/// Bytes of an index tile of `rows × cbs` entries: the s-tile at
/// `(N_s, CB)`, the m-tile at `(N_m, CB_m)`.
#[inline]
pub fn index_tile_bytes(w: &LutWorkload, rows: usize, cbs: usize) -> usize {
    rows * cbs * w.index_elem_bytes()
}

/// Bytes of an f32 output tile of `rows × feats`: the s-tile at
/// `(N_s, F_s)`, the m-tile at `(N_m, F_m)`.
#[inline]
pub fn output_tile_bytes(rows: usize, feats: usize) -> usize {
    rows * feats * 4
}

/// Bytes of an INT8 LUT tile holding all `CT` candidates of `cbs × feats`:
/// the sub-LUT at `(CB, F_s)`, a coarse-grain chunk at `(cb_load, f_load)`.
#[inline]
pub fn lut_tile_bytes(w: &LutWorkload, cbs: usize, feats: usize) -> usize {
    cbs * w.ct * feats
}

/// Entries one PE gathers and accumulates, `N_s·CB·F_s`: the reduce count
/// (`RCount`) and, at one byte each, the fine-grain LUT volume.
#[inline]
pub fn gathered_entries(w: &LutWorkload, (n_stile, f_stile): Pair) -> usize {
    n_stile * w.cb * f_stile
}

/// On-chip LUT buffer a load scheme needs (the part of
/// [`Mapping::wram_usage`] beside the index and output m-tiles).
#[inline]
pub fn lut_buffer_bytes(w: &LutWorkload, f_stile: usize, scheme: LoadScheme) -> usize {
    match scheme {
        LoadScheme::Static => lut_tile_bytes(w, w.cb, f_stile),
        LoadScheme::CoarseGrain { cb_load, f_load } => lut_tile_bytes(w, cb_load, f_load),
        LoadScheme::FineGrain { f_load, threads } => f_load * threads,
    }
}

/// Micro-kernel trip counts `(T_n, T_f, T_cb)` of m-tiles
/// `(N_m, F_m, CB_m)` inside `pair`.
#[inline]
pub fn trip_counts(w: &LutWorkload, pair: Pair, mtiles: (usize, usize, usize)) -> (u64, u64, u64) {
    let trips = |dim: usize, tile: usize| (dim / tile) as u64;
    (
        trips(pair.0, mtiles.0),
        trips(pair.1, mtiles.1),
        trips(w.cb, mtiles.2),
    )
}

/// Loop dims `(n, f, cb)` an index m-tile depends on
/// ([`crate::TraversalOrder::load_count`]).
pub const INDEX_USES: (bool, bool, bool) = (true, false, true);
/// Loop dims an output m-tile depends on.
pub const OUTPUT_USES: (bool, bool, bool) = (true, true, false);
/// Loop dims a LUT chunk depends on.
pub const LUT_USES: (bool, bool, bool) = (false, true, true);

/// Index bytes the host sends in total: one s-tile copy per PE, or — on
/// command-driven products, which receive indices inside the instruction
/// stream (§6.7) — one per PE group.
pub fn index_total_bytes(platform: &PlatformConfig, w: &LutWorkload, pair: Pair) -> u64 {
    let copies = if platform.command_driven_indices {
        w.n / pair.0
    } else {
        platform.num_pes
    };
    (index_tile_bytes(w, pair.0, w.cb) * copies) as u64
}

/// Host↔PIM transfer times of the sub-LUT partition (Eqs. 3–5) for one
/// (Eq. 5-legal) pair: the three `sub_*` terms, every kernel term zero.
/// They depend only on the **P1** pair, never on the micro-kernel.
#[inline]
pub fn sub_lut_times(platform: &PlatformConfig, w: &LutWorkload, pair: Pair) -> TimeBreakdown {
    let num_pes = platform.num_pes as u64;
    let stile_idx = index_tile_bytes(w, pair.0, w.cb) as f64;
    let stile_lut = lut_tile_bytes(w, w.cb, pair.1) as u64;
    let stile_out = output_tile_bytes(pair.0, pair.1) as u64;
    let ht = &platform.host_transfer;
    // Index tiles are shared by all PEs in a group (F/F_s of them); LUT
    // tiles are shared by all groups (N/N_s of them). Reuse > 1 lets the
    // host broadcast.
    let to_pim = |sharers: usize| {
        if sharers > 1 {
            TransferPattern::ToPimBroadcast
        } else {
            TransferPattern::ToPimDistinct
        }
    };
    let index_total = index_total_bytes(platform, w, pair) as f64;
    let (lut_total, out_total) = ((stile_lut * num_pes) as f64, (stile_out * num_pes) as f64);
    TimeBreakdown {
        sub_index_s: ht.transfer_time_s(to_pim(w.f / pair.1), index_total, stile_idx),
        sub_lut_s: ht.transfer_time_s(to_pim(w.n / pair.0), lut_total, stile_lut as f64),
        sub_output_s: ht.transfer_time_s(TransferPattern::FromPim, out_total, stile_out as f64),
        ..TimeBreakdown::default()
    }
}

/// Per-PE reduce time (`t_reduce`, Eq. 10) of one pair: its `RCount`
/// reduce operations at the profiled single-reduce rate, stretched by the
/// loop-overhead stall of an innermost loop `f_mtile` long.
pub fn reduce_time_s(
    platform: &PlatformConfig,
    w: &LutWorkload,
    pair: Pair,
    f_mtile: usize,
) -> f64 {
    let stall = 1.0 + REDUCE_LOOP_OVERHEAD / f_mtile as f64;
    gathered_entries(w, pair) as f64 * platform.single_reduce_s * stall
}

/// Per-PE stream counts of one micro-kernel (Eqs. 7–9): how often each
/// structure streams from local memory and at what transfer size. The
/// LUT count is repeat-blind — every gather priced; the simulator
/// discounts index-repeat reuse on top, the analytical model does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCounts {
    /// Index MTile loads (`LCount_index`).
    pub index_loads: u64,
    /// Bytes of one index MTile.
    pub index_mtile_bytes: u64,
    /// Output MTile loads (`LCount_output`); each is also stored once.
    pub output_loads: u64,
    /// Bytes of one output MTile.
    pub output_mtile_bytes: u64,
    /// LUT load accesses (granularity depends on the load scheme).
    pub lut_accesses: u64,
    /// Bytes of one LUT access.
    pub lut_access_bytes: u64,
}

impl StreamCounts {
    /// The three local-memory streams — index, output (loaded and stored
    /// per eviction), LUT — as `(transfers, bytes each)`.
    #[inline]
    pub fn streams(&self) -> [(f64, f64); 3] {
        [
            (self.index_loads as f64, self.index_mtile_bytes as f64),
            (
                2.0 * self.output_loads as f64,
                self.output_mtile_bytes as f64,
            ),
            (self.lut_accesses as f64, self.lut_access_bytes as f64),
        ]
    }
}

/// The index and output streams of m-tiles `(N_m, F_m, CB_m)` walked in
/// `traversal` order with trip counts `trips`: the part of
/// [`StreamCounts`] no load scheme moves, with the LUT stream empty
/// ([`lut_stream`] is the rest).
pub fn tiling_streams(
    w: &LutWorkload,
    (n_mtile, f_mtile, cb_mtile): (usize, usize, usize),
    traversal: TraversalOrder,
    trips: (u64, u64, u64),
) -> StreamCounts {
    StreamCounts {
        index_loads: traversal.load_count(trips, INDEX_USES),
        index_mtile_bytes: index_tile_bytes(w, n_mtile, cb_mtile) as u64,
        // Loaded and stored per eviction.
        output_loads: traversal.load_count(trips, OUTPUT_USES),
        output_mtile_bytes: output_tile_bytes(n_mtile, f_mtile) as u64,
        lut_accesses: 0,
        lut_access_bytes: 0,
    }
}

/// The LUT stream of micro-kernel `k` inside `pair` with trip counts
/// `trips`, as `(accesses, bytes each)`: the one stream the load scheme
/// moves.
#[inline]
pub fn lut_stream(
    w: &LutWorkload,
    pair: Pair,
    k: &MicroKernel,
    trips: (u64, u64, u64),
) -> (u64, u64) {
    let (accesses, access_bytes) = match k.load_scheme {
        LoadScheme::Static => (1, lut_tile_bytes(w, w.cb, pair.1)),
        LoadScheme::CoarseGrain { cb_load, f_load } => {
            let chunks_per_mtile = ((k.cb_mtile / cb_load) * (k.f_mtile / f_load)) as u64;
            // The buffer holds one chunk. With a single chunk per MTile the
            // chunk survives iterations that keep (f, cb) fixed; multiple
            // chunks thrash the buffer and reload every iteration.
            let accesses = if chunks_per_mtile == 1 {
                k.traversal.load_count(trips, LUT_USES)
            } else {
                trips.0 * trips.1 * trips.2 * chunks_per_mtile
            };
            (accesses, lut_tile_bytes(w, cb_load, f_load))
        }
        // One access of f_load bytes per (row, codebook, f-chunk).
        LoadScheme::FineGrain { f_load, .. } => {
            ((gathered_entries(w, pair) / f_load) as u64, f_load)
        }
    };
    (accesses, access_bytes as u64)
}

/// Derives the stream counts of one (already validated) mapping.
pub fn stream_counts(w: &LutWorkload, m: &Mapping) -> StreamCounts {
    let k = &m.kernel;
    let trips = m.trip_counts(w);
    let (lut_accesses, lut_access_bytes) = lut_stream(w, m.pair(), k, trips);
    StreamCounts {
        lut_accesses,
        lut_access_bytes,
        ..tiling_streams(w, (k.n_mtile, k.f_mtile, k.cb_mtile), k.traversal, trips)
    }
}

/// The two DRAM-row terms of the hierarchical model. They are summed from
/// `+0.0` one stream at a time, in [`StreamCounts::streams`] order, so a
/// partial sum (index and output) resumes with the LUT stream to exactly
/// the bits of the whole.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RowTimes {
    /// Compulsory row-activation time of the streams added so far.
    pub row_activation_s: f64,
    /// Excess activation time of their tiles straddling row boundaries.
    pub crossing_s: f64,
}

impl RowTimes {
    /// The sum with one more `(transfers, bytes each)` stream added.
    #[inline]
    pub fn add(self, hier: &MemHierarchy, (loads, tile): (f64, f64)) -> RowTimes {
        let (compulsory, crossing) = hier.row_traffic(loads, tile);
        RowTimes {
            row_activation_s: self.row_activation_s + compulsory * hier.row_activation_s,
            crossing_s: self.crossing_s + crossing * hier.row_activation_s,
        }
    }
}

/// Estimates the cost of a kernel launch without data, using the *expected*
/// index-repeat fraction `1 / CT` for fine-grain gathers.
///
/// # Errors
///
/// Returns [`crate::SimError::IllegalMapping`] if the mapping is invalid.
pub fn estimate_cost(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    mapping: &Mapping,
) -> Result<CostReport> {
    cost_with_repeat(platform, workload, mapping, 1.0 / workload.ct as f64)
}

/// Computes the cost with a known index-repeat fraction (the functional
/// executor measures the true one from the index stream).
///
/// # Errors
///
/// Returns [`crate::SimError::IllegalMapping`] if the mapping is invalid.
pub fn cost_with_repeat(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    mapping: &Mapping,
    repeat_fraction: f64,
) -> Result<CostReport> {
    mapping.validate(workload, platform)?;
    let w = workload;
    let m = mapping;
    let k = &m.kernel;
    let num_pes = platform.num_pes as u64;
    let pair = m.pair();

    // ---- Step 1: sub-LUT partition (Eqs. 3–5) ----
    let sub = sub_lut_times(platform, w, pair);
    let (_, stile_lut, stile_out) = m.stile_sizes(w);

    // ---- Step 2: micro-kernel execution (Eqs. 6–10) ----
    let sc = stream_counts(w, m);
    let lm = &platform.local_mem;
    // Index and output streams pay the per-access overhead on every
    // transfer; the LUT stream is priced below, after the reuse discount.
    let [kernel_index_s, kernel_output_s, _] = sc
        .streams()
        .map(|(xfers, tile)| lm.sim_time_s(xfers * tile, tile, xfers as u64));

    // LUT loads: only fine-grain gathers see index-repeat reuse.
    let (lut_accesses, effective_overhead_s, effective_repeat) = match k.load_scheme {
        LoadScheme::FineGrain { threads, .. } => {
            // Repeated indices across consecutive rows hit the thread's
            // buffer and cost nothing.
            let repeat = repeat_fraction.clamp(0.0, 1.0);
            let kept = (sc.lut_accesses as f64 * (1.0 - repeat)).ceil() as u64;
            // Hardware threads overlap access issue; overhead amortizes.
            let overhead_s = lm.access_overhead_s / threads.max(1) as f64;
            (kept.max(1), overhead_s, repeat)
        }
        LoadScheme::Static | LoadScheme::CoarseGrain { .. } => {
            (sc.lut_accesses, lm.access_overhead_s, 0.0)
        }
    };
    let lut_bytes = lut_accesses * sc.lut_access_bytes;
    let kernel_lut_s = lm.ideal_time_s(lut_bytes as f64, sc.lut_access_bytes as f64)
        + lut_accesses as f64 * effective_overhead_s;

    // Reduce: N_s × CB × F_s accumulations with short-loop stalls.
    let kernel_reduce_s = reduce_time_s(platform, w, pair, k.f_mtile);

    let time = TimeBreakdown {
        kernel_index_s,
        kernel_lut_s,
        kernel_output_s,
        kernel_reduce_s,
        ..sub
    };
    Ok(CostReport {
        time,
        accesses: AccessCounts {
            index_loads: sc.index_loads,
            lut_accesses,
            lut_bytes,
            output_loads: sc.output_loads,
            output_stores: sc.output_loads,
            reduce_ops: gathered_entries(w, pair) as u64,
        },
        wram_bytes: m.wram_usage(w),
        host_pim_bytes: index_total_bytes(platform, w, pair) + (stile_lut + stile_out) * num_pes,
        lut_stage_bytes: stile_lut * num_pes,
        repeat_fraction: effective_repeat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn estimate_rejects_illegal_mapping() {
        let w = workload();
        let m = mapping(LoadScheme::Static);
        assert!(estimate_cost(&platform(7), &w, &m).is_err());
    }

    #[test]
    fn breakdown_components_positive_and_total_consistent() {
        let w = workload();
        let m = mapping(LoadScheme::FineGrain {
            f_load: 4,
            threads: 8,
        });
        let report = estimate_cost(&platform(16), &w, &m).unwrap();
        let t = report.time;
        for (name, v) in [
            ("sub_index", t.sub_index_s),
            ("sub_lut", t.sub_lut_s),
            ("sub_output", t.sub_output_s),
            ("kernel_index", t.kernel_index_s),
            ("kernel_lut", t.kernel_lut_s),
            ("kernel_output", t.kernel_output_s),
            ("kernel_reduce", t.kernel_reduce_s),
        ] {
            assert!(v > 0.0, "{name} = {v}");
        }
        let sum = t.sub_lut_total_s() + t.micro_kernel_total_s();
        assert!((sum - t.total_s()).abs() < 1e-15);
    }

    #[test]
    fn static_scheme_loads_lut_once() {
        let w = workload();
        let report = estimate_cost(&platform(16), &w, &mapping(LoadScheme::Static)).unwrap();
        assert_eq!(report.accesses.lut_accesses, 1);
        assert_eq!(report.accesses.lut_bytes, (8 * 16 * 8) as u64); // CB·CT·F_s
    }

    #[test]
    fn coarse_scheme_bytes_scale_with_ct() {
        let w = workload();
        let m = mapping(LoadScheme::CoarseGrain {
            cb_load: 2,
            f_load: 2,
        });
        let report = estimate_cost(&platform(16), &w, &m).unwrap();
        // Every loaded chunk carries all CT candidates.
        assert!(report.accesses.lut_bytes >= w.ct as u64);
        assert_eq!(report.accesses.lut_bytes % (w.ct as u64 * 4), 0); // chunk = 2·CT·2
    }

    #[test]
    fn fine_scheme_bytes_skip_ct() {
        let w = workload();
        let m = mapping(LoadScheme::FineGrain {
            f_load: 4,
            threads: 8,
        });
        let report = cost_with_repeat(&platform(16), &w, &m, 0.0).unwrap();
        // Only selected entries: N_s × CB × F_s bytes.
        assert_eq!(report.accesses.lut_bytes, (16 * 8 * 8) as u64);
    }

    #[test]
    fn repeat_fraction_reduces_fine_grain_cost() {
        let w = workload();
        let m = mapping(LoadScheme::FineGrain {
            f_load: 4,
            threads: 8,
        });
        let p = platform(16);
        let none = cost_with_repeat(&p, &w, &m, 0.0).unwrap();
        let half = cost_with_repeat(&p, &w, &m, 0.5).unwrap();
        assert!(half.time.kernel_lut_s < none.time.kernel_lut_s);
        assert!(half.accesses.lut_accesses < none.accesses.lut_accesses);
        assert_eq!(half.repeat_fraction, 0.5);
    }

    #[test]
    fn repeat_fraction_ignored_for_static() {
        let w = workload();
        let p = platform(16);
        let a = cost_with_repeat(&p, &w, &mapping(LoadScheme::Static), 0.0).unwrap();
        let b = cost_with_repeat(&p, &w, &mapping(LoadScheme::Static), 0.9).unwrap();
        assert_eq!(a.time.kernel_lut_s, b.time.kernel_lut_s);
        assert_eq!(b.repeat_fraction, 0.0);
    }

    #[test]
    fn reduce_time_scales_with_workload() {
        let w_small = workload();
        let w_big = LutWorkload::new(128, 8, 16, 32).unwrap();
        let p = platform(16);
        let m_small = mapping(LoadScheme::Static);
        let m_big = Mapping {
            n_stile: 32,
            ..m_small
        };
        let small = estimate_cost(&p, &w_small, &m_small).unwrap();
        let big = estimate_cost(&p, &w_big, &m_big).unwrap();
        assert!(big.time.kernel_reduce_s > small.time.kernel_reduce_s);
        assert_eq!(big.accesses.reduce_ops, 2 * small.accesses.reduce_ops);
    }

    #[test]
    fn short_inner_loop_pays_stalls() {
        // Same reduce op count, shorter F_m-tile → more loop overhead.
        let w = workload();
        let p = platform(16);
        let long = mapping(LoadScheme::Static);
        let mut short = long;
        short.kernel.f_mtile = 1;
        short.kernel.load_scheme = LoadScheme::Static;
        let t_long = estimate_cost(&p, &w, &long).unwrap().time.kernel_reduce_s;
        let t_short = estimate_cost(&p, &w, &short).unwrap().time.kernel_reduce_s;
        assert!(t_short > t_long);
    }

    #[test]
    fn traversal_changes_output_reload_cost() {
        let w = workload();
        let p = platform(16);
        let mut inner_cb = mapping(LoadScheme::Static); // Nfc: CB innermost
        inner_cb.kernel.traversal = TraversalOrder::Nfc;
        let mut outer_cb = mapping(LoadScheme::Static);
        outer_cb.kernel.traversal = TraversalOrder::Cnf;
        let a = estimate_cost(&p, &w, &inner_cb).unwrap();
        let b = estimate_cost(&p, &w, &outer_cb).unwrap();
        assert!(b.accesses.output_loads > a.accesses.output_loads);
        assert!(b.time.kernel_output_s > a.time.kernel_output_s);
    }

    #[test]
    fn host_pim_bytes_accounts_all_tiles() {
        let w = workload();
        let m = mapping(LoadScheme::Static);
        let report = estimate_cost(&platform(16), &w, &m).unwrap();
        let (i, l, o) = m.stile_sizes(&w);
        assert_eq!(report.host_pim_bytes, (i + l + o) * 16);
    }
}
