//! The simulator's latency model for one LUT kernel launch.
//!
//! Follows the two-step dataflow of §5.2: **sub-LUT partition** (host↔PIM
//! transfers, Eqs. 3–5) then **micro-kernel execution** on every PE
//! (Eqs. 6–10). On top of the analytical formulas the simulator models three
//! second-order effects the auto-tuner's model does not see:
//!
//! 1. per-access instruction/DMA overhead on local-memory transfers,
//! 2. index-stream row-hit reuse on fine-grain gathers (data-dependent),
//! 3. loop-overhead stalls when the innermost reduce loop is short.
//!
//! These produce the small, systematic model-vs-measured error reported in
//! §6.6 (avg 3.44 %, max 13.73 % on real hardware).

use serde::{Deserialize, Serialize};

use crate::config::{PlatformConfig, TransferPattern};
use crate::mapping::{LoadScheme, LutWorkload, Mapping};
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
    pub fn sub_lut_total_s(&self) -> f64 {
        self.sub_index_s + self.sub_lut_s + self.sub_output_s
    }

    /// Per-inference kernel latency with the LUTs already resident in PIM
    /// memory: everything except the one-time LUT staging transfer.
    pub fn total_resident_s(&self) -> f64 {
        self.total_s() - self.sub_lut_s
    }

    /// Micro-kernel time, Eq. 6 (`t_transfer + t_reduce`).
    pub fn micro_kernel_total_s(&self) -> f64 {
        self.kernel_index_s + self.kernel_lut_s + self.kernel_output_s + self.kernel_reduce_s
    }

    /// End-to-end kernel latency.
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

/// Host↔PIM transfer times of the sub-LUT partition (Eqs. 3–5). They
/// depend only on the **P1** pair `(N_s-tile, F_s-tile)`, never on the
/// micro-kernel; the simulator and the tuner's analytical model both
/// take them from [`sub_lut_times`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubLutTimes {
    /// Index tile send time (`t_sub_index`).
    pub index_s: f64,
    /// LUT tile send time (`t_sub_lut`).
    pub lut_s: f64,
    /// Output fetch time (`t_sub_output`).
    pub output_s: f64,
    /// Index bytes the host sends in total (one copy per PE, or per PE
    /// group on command-driven products).
    pub index_total_bytes: u64,
}

impl SubLutTimes {
    /// `t_sub-lut` (Eq. 3).
    pub fn total_s(&self) -> f64 {
        self.index_s + self.lut_s + self.output_s
    }
}

/// Evaluates Eqs. 3–5 for one (already validated) mapping.
pub fn sub_lut_times(platform: &PlatformConfig, w: &LutWorkload, m: &Mapping) -> SubLutTimes {
    let num_pes = platform.num_pes as u64;
    let (stile_idx, stile_lut, stile_out) = m.stile_sizes(w);
    let ht = &platform.host_transfer;

    // Index tiles are shared by all PEs in a group (F/F_s of them); LUT
    // tiles are shared by all groups (N/N_s of them). Reuse > 1 lets the
    // host broadcast.
    let idx_pattern = if m.pes_per_group(w) > 1 {
        TransferPattern::ToPimBroadcast
    } else {
        TransferPattern::ToPimDistinct
    };
    let lut_pattern = if m.groups(w) > 1 {
        TransferPattern::ToPimBroadcast
    } else {
        TransferPattern::ToPimDistinct
    };
    // Command-driven products receive indices inside the instruction
    // stream: one copy per PE group instead of one per PE (§6.7).
    let index_total_bytes = if platform.command_driven_indices {
        stile_idx * m.groups(w) as u64
    } else {
        stile_idx * num_pes
    };
    SubLutTimes {
        index_s: ht.transfer_time_s(idx_pattern, index_total_bytes as f64, stile_idx as f64),
        lut_s: ht.transfer_time_s(lut_pattern, (stile_lut * num_pes) as f64, stile_lut as f64),
        output_s: ht.transfer_time_s(
            TransferPattern::FromPim,
            (stile_out * num_pes) as f64,
            stile_out as f64,
        ),
        index_total_bytes,
    }
}

/// Per-PE reduce time (`t_reduce`, Eq. 10) of one `(N_s-tile, F_s-tile)`
/// pair: its `RCount` reduce operations at the profiled single-reduce
/// rate, stretched by the loop-overhead stall of an innermost loop
/// `f_mtile` long. The simulator, the tuner's analytical model and its
/// branch-and-bound lower bound all take the term from here.
pub fn reduce_time_s(
    platform: &PlatformConfig,
    w: &LutWorkload,
    (n_stile, f_stile): (usize, usize),
    f_mtile: usize,
) -> f64 {
    let reduce_ops = (n_stile * w.cb * f_stile) as f64;
    let stall = 1.0 + REDUCE_LOOP_OVERHEAD / f_mtile as f64;
    reduce_ops * platform.single_reduce_s * stall
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

/// Derives the stream counts of one (already validated) mapping.
pub fn stream_counts(w: &LutWorkload, m: &Mapping) -> StreamCounts {
    let k = &m.kernel;
    let trips = m.trip_counts(w);
    let (lut_accesses, lut_access_bytes) = match k.load_scheme {
        LoadScheme::Static => (1, w.cb * w.ct * m.f_stile),
        LoadScheme::CoarseGrain { cb_load, f_load } => {
            let chunks_per_mtile = ((k.cb_mtile / cb_load) * (k.f_mtile / f_load)) as u64;
            // The buffer holds one chunk. With a single chunk per MTile the
            // chunk survives iterations that keep (f, cb) fixed; multiple
            // chunks thrash the buffer and reload every iteration.
            let accesses = if chunks_per_mtile == 1 {
                k.traversal.load_count(trips, (false, true, true))
            } else {
                trips.0 * trips.1 * trips.2 * chunks_per_mtile
            };
            (accesses, cb_load * w.ct * f_load)
        }
        // One access of f_load bytes per (row, codebook, f-chunk).
        LoadScheme::FineGrain { f_load, .. } => {
            ((m.n_stile * w.cb * (m.f_stile / f_load)) as u64, f_load)
        }
    };
    StreamCounts {
        // Index MTiles: used by (n, cb).
        index_loads: k.traversal.load_count(trips, (true, false, true)),
        index_mtile_bytes: (k.n_mtile * k.cb_mtile * w.index_elem_bytes()) as u64,
        // Output MTiles: used by (n, f); loaded and stored per eviction.
        output_loads: k.traversal.load_count(trips, (true, true, false)),
        output_mtile_bytes: (k.n_mtile * k.f_mtile * 4) as u64,
        lut_accesses,
        lut_access_bytes: lut_access_bytes as u64,
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

    // ---- Step 1: sub-LUT partition (Eqs. 3–5) ----
    let sub = sub_lut_times(platform, w, m);
    let (_, stile_lut, stile_out) = m.stile_sizes(w);

    // ---- Step 2: micro-kernel execution (Eqs. 6–10) ----
    let sc = stream_counts(w, m);
    let lm = &platform.local_mem;

    let index_mtile = sc.index_mtile_bytes as f64;
    let kernel_index_s = lm.sim_time_s(
        sc.index_loads as f64 * index_mtile,
        index_mtile,
        sc.index_loads,
    );

    let output_mtile = sc.output_mtile_bytes as f64;
    let kernel_output_s = lm.sim_time_s(
        2.0 * sc.output_loads as f64 * output_mtile,
        output_mtile,
        2 * sc.output_loads,
    );

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
    let reduce_ops = (m.n_stile * w.cb * m.f_stile) as u64;
    let kernel_reduce_s = reduce_time_s(platform, w, (m.n_stile, m.f_stile), k.f_mtile);

    let time = TimeBreakdown {
        sub_index_s: sub.index_s,
        sub_lut_s: sub.lut_s,
        sub_output_s: sub.output_s,
        kernel_index_s,
        kernel_lut_s,
        kernel_output_s,
        kernel_reduce_s,
    };
    Ok(CostReport {
        time,
        accesses: AccessCounts {
            index_loads: sc.index_loads,
            lut_accesses,
            lut_bytes,
            output_loads: sc.output_loads,
            output_stores: sc.output_loads,
            reduce_ops,
        },
        wram_bytes: m.wram_usage(w),
        host_pim_bytes: sub.index_total_bytes + (stile_lut + stile_out) * num_pes,
        lut_stage_bytes: stile_lut * num_pes,
        repeat_fraction: effective_repeat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{MicroKernel, TraversalOrder};

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
