//! Platform configurations for the three commodity DRAM-PIM products
//! (paper Table 1 and Table 3).
//!
//! Bandwidth and throughput figures come from the paper and its cited
//! characterization studies: UPMEM's host↔PIM transfer bandwidth is
//! size-dependent and strongly favours broadcast (PrIM, \[33\] in the paper);
//! HBM-PIM and AiM expose far wider internal bandwidth but are driven by a
//! GPU host over PCIe-class links.

use pimdl_tensor::quant::DType;
use serde::{Deserialize, Serialize};

use crate::{Result, SimError};

/// Which commodity product a configuration models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformKind {
    /// UPMEM DDR4 PIM-DIMM (general RISC cores near banks).
    Upmem,
    /// Samsung HBM-PIM (FP16 MAC units).
    HbmPim,
    /// SK-Hynix AiM on GDDR6 (BF16 MAC units).
    Aim,
}

impl PlatformKind {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            PlatformKind::Upmem => "PIM-DIMM",
            PlatformKind::HbmPim => "HBM-PIM",
            PlatformKind::Aim => "AiM",
        }
    }
}

/// Host ↔ PIM transfer model (limitation **L1** of §5.1).
///
/// Bandwidth saturates with transfer size:
/// `bw(bytes) = peak * bytes / (bytes + half_saturation)`, and each launch
/// pays a fixed latency. Broadcasting the same buffer to many PEs achieves
/// higher bandwidth than scattering distinct data (no host-side cache
/// misses, per the PrIM characterization).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferModel {
    /// Peak host→PIM bandwidth for distinct per-PE data (GB/s, aggregate).
    pub to_pim_peak_gbps: f64,
    /// Peak host→PIM bandwidth when broadcasting shared data (GB/s).
    pub broadcast_peak_gbps: f64,
    /// Peak PIM→host bandwidth (GB/s, aggregate).
    pub from_pim_peak_gbps: f64,
    /// Transfer size at which bandwidth reaches half of peak (bytes).
    pub half_saturation_bytes: f64,
    /// Fixed per-launch latency (seconds).
    pub fixed_latency_s: f64,
}

/// Direction/pattern of a host↔PIM transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransferPattern {
    /// Host → PIM, distinct data per PE.
    ToPimDistinct,
    /// Host → PIM, same data shared by a set of PEs.
    ToPimBroadcast,
    /// PIM → host (result fetch).
    FromPim,
}

impl TransferModel {
    fn peak(&self, pattern: TransferPattern) -> f64 {
        match pattern {
            TransferPattern::ToPimDistinct => self.to_pim_peak_gbps,
            TransferPattern::ToPimBroadcast => self.broadcast_peak_gbps,
            TransferPattern::FromPim => self.from_pim_peak_gbps,
        }
    }

    /// Effective bandwidth (GB/s) for a transfer whose *per-buffer* size is
    /// `buffer_bytes`.
    pub fn effective_gbps(&self, pattern: TransferPattern, buffer_bytes: f64) -> f64 {
        let peak = self.peak(pattern);
        if buffer_bytes <= 0.0 {
            return peak;
        }
        peak * buffer_bytes / (buffer_bytes + self.half_saturation_bytes)
    }

    /// Transfer time in seconds for `total_bytes` moved in buffers of
    /// `buffer_bytes` each (Eq. 4: `STileSize × #PE / BW`).
    pub fn transfer_time_s(
        &self,
        pattern: TransferPattern,
        total_bytes: f64,
        buffer_bytes: f64,
    ) -> f64 {
        if total_bytes <= 0.0 {
            return 0.0;
        }
        let bw = self.effective_gbps(pattern, buffer_bytes).max(1e-9);
        self.fixed_latency_s + total_bytes / (bw * 1e9)
    }
}

/// Per-PE local memory model (MRAM/bank ↔ on-chip buffer).
///
/// Small accesses pay per-instruction overhead, so effective bandwidth
/// depends on access granularity (the effect behind Fig. 13-(a)/(b)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalMemModel {
    /// Peak per-PE local bandwidth (GB/s).
    pub peak_gbps: f64,
    /// Access size at which bandwidth reaches half of peak (bytes).
    pub half_saturation_bytes: f64,
    /// Fixed per-access overhead (seconds) — DMA/instruction issue cost.
    /// The auto-tuner's analytical model ignores this term (it only knows
    /// profiled bandwidths), which is one source of its §6.6 error.
    pub access_overhead_s: f64,
}

impl LocalMemModel {
    /// Effective bandwidth (GB/s) at the given access granularity.
    #[inline]
    pub fn effective_gbps(&self, access_bytes: f64) -> f64 {
        if access_bytes <= 0.0 {
            return self.peak_gbps;
        }
        self.peak_gbps * access_bytes / (access_bytes + self.half_saturation_bytes)
    }

    /// Idealized (tuner-visible) time for moving `total_bytes` in accesses
    /// of `access_bytes` each: pure bytes / profiled-bandwidth (Eq. 8).
    #[inline]
    pub fn ideal_time_s(&self, total_bytes: f64, access_bytes: f64) -> f64 {
        Self::time_at_s(total_bytes, self.bytes_per_s(access_bytes))
    }

    /// The Eq. 8 divisor at one access size, in bytes per second: a caller
    /// that streams one access size many times computes it once and prices
    /// each stream with [`Self::time_at_s`].
    #[inline]
    pub fn bytes_per_s(&self, access_bytes: f64) -> f64 {
        self.effective_gbps(access_bytes).max(1e-9) * 1e9
    }

    /// [`Self::ideal_time_s`] of `total_bytes` at a rate [`Self::bytes_per_s`]
    /// gave, to the same bits.
    #[inline]
    pub fn time_at_s(total_bytes: f64, bytes_per_s: f64) -> f64 {
        if total_bytes <= 0.0 {
            return 0.0;
        }
        total_bytes / bytes_per_s
    }

    /// Simulator time: idealized time plus per-access overhead.
    pub fn sim_time_s(&self, total_bytes: f64, access_bytes: f64, accesses: u64) -> f64 {
        self.ideal_time_s(total_bytes, access_bytes) + accesses as f64 * self.access_overhead_s
    }
}

/// DRAM row-buffer parameters of the bank behind a PE
/// ([`PlatformConfig::mem_hierarchy`]).
///
/// Eq. 8 prices local-memory traffic purely by bandwidth; real banks
/// additionally pay a row-activation latency each time a streamed tile
/// opens a DRAM row, and misaligned tiles straddle *extra* rows ("layout
/// crossing"). These are the two terms the `pim_mapper`-style hierarchical
/// model adds ([`crate::cost::RowTimes`]). The row buffer is a power of
/// two by construction: it is held as its base-2 logarithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemHierarchy {
    /// `log2` of the row-buffer size of the bank behind the PE's global
    /// buffer (bytes).
    row_buffer_log2: u32,
    /// Latency of one row activation (precharge + activate), seconds.
    pub row_activation_s: f64,
}

impl MemHierarchy {
    /// Row-buffer size in bytes, `2^row_buffer_log2`.
    #[inline]
    pub fn row_buffer_bytes(&self) -> usize {
        1 << self.row_buffer_log2
    }

    /// Row traffic of `loads` streamed transfers of a `tile_bytes` tile, as
    /// `(compulsory_rows, crossing_rows)`: `loads` times
    /// [`Self::rows_per_load`], and zero when either is not positive.
    #[inline]
    pub fn row_traffic(&self, loads: f64, tile_bytes: f64) -> (f64, f64) {
        if tile_bytes <= 0.0 {
            return (0.0, 0.0);
        }
        Self::scale_rows(loads, self.rows_per_load(tile_bytes))
    }

    /// `loads` transfers of a tile whose [`Self::rows_per_load`] are
    /// `per_load`, as `(compulsory_rows, crossing_rows)`; zero when `loads`
    /// is not positive.
    #[inline]
    pub fn scale_rows(loads: f64, (compulsory, crossing): (f64, f64)) -> (f64, f64) {
        if loads <= 0.0 {
            return (0.0, 0.0);
        }
        (loads * compulsory, loads * crossing)
    }

    /// Rows one transfer of a `tile_bytes` tile opens, as
    /// `(compulsory_rows, crossing_rows)`, zero for a tile of no bytes: a
    /// function of the tile alone, so a caller streaming one tile many
    /// times computes it once.
    ///
    /// With tiles laid out back to back, consecutive tile start offsets
    /// within a row of `R` bytes cycle with period `R / g`, where
    /// `g = gcd(T, R)`; averaged over one period a `T`-byte tile touches
    /// `(T + R − g) / R` rows. We split that into the *compulsory* part
    /// `max(T, R)/R` (the rows any placement must open: at least one per
    /// load, at least `T/R` by volume) and the *crossing* excess
    /// `(min(T, R) − g)/R`, which is zero exactly when tile and row sizes
    /// nest (`T | R` or `R | T`) and positive otherwise. `R` is a power of
    /// two, so `g` is the largest power of two dividing both:
    /// `2^min(tz(T), log2 R)` of the tile's whole bytes (`T` truncated to
    /// an integer, saturating; a tile below one byte truncates to 0, whose
    /// `gcd` with `R` is `R`).
    #[inline]
    pub fn rows_per_load(&self, tile_bytes: f64) -> (f64, f64) {
        if tile_bytes <= 0.0 {
            return (0.0, 0.0);
        }
        let r = self.row_buffer_bytes() as f64;
        let twos = (tile_bytes as u64)
            .trailing_zeros()
            .min(self.row_buffer_log2);
        let g = (1u64 << twos) as f64;
        let compulsory = (tile_bytes / r).max(1.0);
        let crossing = (tile_bytes.min(r) - g) / r;
        (compulsory, crossing)
    }

    /// Activation time of `bytes` streamed through fully used rows with no
    /// crossing: the volume floor under every [`Self::row_traffic`] split
    /// of the same bytes, whatever the tiling.
    pub fn volume_floor_s(&self, bytes: f64) -> f64 {
        bytes / self.row_buffer_bytes() as f64 * self.row_activation_s
    }
}

/// Largest PE count a platform may declare ([`PlatformConfig::validate`]):
/// a thousand times the largest modelled product, and small enough that the
/// tuner's trial division over its divisors (Eq. 5) stays instant.
pub const MAX_PES: usize = 1 << 20;

fn default_mram_bytes() -> usize {
    64 * 1024 * 1024
}

/// Full configuration of one DRAM-PIM platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Product kind.
    pub kind: PlatformKind,
    /// Total usable PE count across all modules.
    pub num_pes: usize,
    /// PE clock (MHz).
    pub pe_freq_mhz: f64,
    /// Per-PE on-chip buffer capacity in bytes (UPMEM WRAM: 64 KiB).
    pub wram_bytes: usize,
    /// Per-PE local main-memory capacity in bytes (UPMEM MRAM: 64 MiB per
    /// DPU). Bounds how many layers' LUT tiles can stay resident.
    #[serde(default = "default_mram_bytes")]
    pub mram_bytes: usize,
    /// Host ↔ PIM transfer model.
    pub host_transfer: TransferModel,
    /// Per-PE local memory model.
    pub local_mem: LocalMemModel,
    /// Seconds per single reduce (add/accumulate) operation on one PE
    /// (`t_single-reduce` of Eq. 10).
    pub single_reduce_s: f64,
    /// Aggregate peak internal bandwidth (GB/s) — the Table-1 headline.
    pub peak_internal_bw_gbps: f64,
    /// Aggregate peak arithmetic throughput (GOP/s) — for the GEMM-on-PIM
    /// baseline.
    pub peak_gops: f64,
    /// Static power of all PIM modules (W) — UPMEM: ~13.92 W/DIMM × 8.
    pub pim_power_w: f64,
    /// Host-side power while driving PIM kernels (W), for energy accounting.
    pub host_power_w: f64,
    /// Energy per byte moved over the host↔PIM link (pJ/byte).
    pub transfer_energy_pj_per_byte: f64,
    /// Native MAC datatype of the PIM units (Table 1).
    pub pim_dtype: DType,
    /// Whether the host delivers LUT indices inside PIM *instructions*
    /// (one command stream per PE group) rather than as per-PE data copies.
    /// True for the MAC-based products — §6.7: "We assume PIM instructions
    /// carry the LUT indices and drive the execution of PEs". UPMEM DPUs
    /// execute from private MRAM, so every DPU needs its own copy.
    #[serde(default)]
    pub command_driven_indices: bool,
}

impl PlatformConfig {
    /// The paper's real UPMEM platform (Table 3): 8 PIM-DIMMs, 1024 DPUs at
    /// 350 MHz, 64 KB WRAM each.
    ///
    /// Per-PE arithmetic: the rated 43.8 GOP/s per DIMM counts
    /// register-file adds; a LUT accumulate also pays WRAM access and
    /// address generation, sustaining ≈ 2.6 cycles per accumulate at
    /// 350 MHz (7.5 ns). Anchor: with this rate the end-to-end BERT-base
    /// PIM-DL latency lands at the paper's implied ~20 s (Fig. 10's
    /// 38.47 s/layer GEMM-on-PIM line divided by the 18.91× V=4 speedup).
    /// Host transfer peaks follow the PrIM characterization (broadcast ≈
    /// 22 GB/s, scatter ≈ 7 GB/s, gather ≈ 4.7 GB/s).
    pub fn upmem() -> Self {
        PlatformConfig {
            kind: PlatformKind::Upmem,
            num_pes: 1024,
            pe_freq_mhz: 350.0,
            wram_bytes: 64 * 1024,
            mram_bytes: 64 * 1024 * 1024,
            host_transfer: TransferModel {
                to_pim_peak_gbps: 7.0,
                broadcast_peak_gbps: 22.0,
                from_pim_peak_gbps: 4.7,
                half_saturation_bytes: 64.0 * 1024.0,
                fixed_latency_s: 20e-6,
            },
            local_mem: LocalMemModel {
                peak_gbps: 0.45,
                half_saturation_bytes: 256.0,
                access_overhead_s: 200e-9,
            },
            single_reduce_s: 7.5e-9,
            peak_internal_bw_gbps: 8.0 * 80.4,
            peak_gops: 8.0 * 43.8,
            pim_power_w: 8.0 * 13.92,
            host_power_w: 130.0,
            transfer_energy_pj_per_byte: 20.0,
            pim_dtype: DType::I8,
            command_driven_indices: false,
        }
    }

    /// Simulated Samsung HBM-PIM platform (Table 3): 4 cubes, 512 PEs,
    /// 2 TB/s and 1.2 TFLOPS per cube, driven by an NVIDIA A2 host.
    pub fn hbm_pim() -> Self {
        PlatformConfig {
            kind: PlatformKind::HbmPim,
            num_pes: 512,
            pe_freq_mhz: 1200.0,
            wram_bytes: 16 * 1024,
            mram_bytes: 16 * 1024 * 1024, // 8 GB HBM2 / 512 PEs
            host_transfer: TransferModel {
                to_pim_peak_gbps: 48.0,
                broadcast_peak_gbps: 96.0,
                from_pim_peak_gbps: 48.0,
                half_saturation_bytes: 16.0 * 1024.0,
                fixed_latency_s: 8e-6,
            },
            local_mem: LocalMemModel {
                // 2 TB/s per cube / 128 PEs per cube; the in-bank SIMD
                // units read wide rows, so even short gathers sustain a
                // large fraction of peak (half-saturation at 16 B).
                peak_gbps: 15.6,
                half_saturation_bytes: 16.0,
                access_overhead_s: 8e-9,
            },
            single_reduce_s: 1.0 / (4.8e12 / 512.0), // from 4.8 TFLOPS total
            peak_internal_bw_gbps: 4.0 * 2000.0,
            peak_gops: 4.0 * 1200.0,
            pim_power_w: 4.0 * 15.0,
            host_power_w: 60.0, // NVIDIA A2 TDP
            transfer_energy_pj_per_byte: 10.0,
            pim_dtype: DType::F16,
            command_driven_indices: true,
        }
    }

    /// Simulated SK-Hynix AiM platform (Table 3): 16 GDDR6 chips, 512 PEs,
    /// 1 TB/s and 1 TFLOPS per chip, driven by an NVIDIA A2 host.
    pub fn aim() -> Self {
        PlatformConfig {
            kind: PlatformKind::Aim,
            num_pes: 512,
            pe_freq_mhz: 1000.0,
            wram_bytes: 16 * 1024,
            mram_bytes: 32 * 1024 * 1024, // 16 GB GDDR6 / 512 PEs
            host_transfer: TransferModel {
                to_pim_peak_gbps: 48.0,
                broadcast_peak_gbps: 96.0,
                from_pim_peak_gbps: 48.0,
                half_saturation_bytes: 16.0 * 1024.0,
                fixed_latency_s: 8e-6,
            },
            local_mem: LocalMemModel {
                // 1 TB/s per chip / 32 PEs; bank-adjacent MACs stream wide
                // rows (half-saturation at 16 B).
                peak_gbps: 31.2,
                half_saturation_bytes: 16.0,
                access_overhead_s: 6e-9,
            },
            single_reduce_s: 1.0 / (16.0e12 / 512.0), // 16 TFLOPS total
            peak_internal_bw_gbps: 16.0 * 1000.0,
            peak_gops: 16.0 * 1000.0,
            pim_power_w: 16.0 * 5.0,
            host_power_w: 60.0,
            transfer_energy_pj_per_byte: 8.0,
            pim_dtype: DType::Bf16,
            command_driven_indices: true,
        }
    }

    /// Hypothetical **adder-only** UPMEM variant (paper §7, "Adder-only PIM
    /// Design"): LUT-NN needs no PIM-side multiplies, and adders cost a
    /// small fraction of a multiplier's area, so an adder-only PE array
    /// fits ~4× the accumulate throughput in the same area/power envelope.
    /// Everything else (memory system, transfers, power) is unchanged.
    pub fn upmem_adder_only() -> Self {
        let mut p = Self::upmem();
        p.single_reduce_s /= 4.0;
        p.peak_gops *= 4.0;
        p
    }

    /// All three platforms in Table-1 order.
    pub fn all() -> [PlatformConfig; 3] {
        [Self::upmem(), Self::hbm_pim(), Self::aim()]
    }

    /// Checks a configuration read from outside (a `--platform` file, a
    /// fabric worker's spec): every rate, size and time finite, the
    /// physical ones positive, the overheads and energies not negative,
    /// and `1 ≤ num_pes ≤` [`MAX_PES`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPlatform`] naming the first field out of
    /// range.
    pub fn validate(&self) -> Result<()> {
        let (ht, lm) = (&self.host_transfer, &self.local_mem);
        let positive = [
            ("pe_freq_mhz", self.pe_freq_mhz),
            ("host_transfer.to_pim_peak_gbps", ht.to_pim_peak_gbps),
            ("host_transfer.broadcast_peak_gbps", ht.broadcast_peak_gbps),
            ("host_transfer.from_pim_peak_gbps", ht.from_pim_peak_gbps),
            ("local_mem.peak_gbps", lm.peak_gbps),
            ("single_reduce_s", self.single_reduce_s),
            ("peak_internal_bw_gbps", self.peak_internal_bw_gbps),
            ("peak_gops", self.peak_gops),
        ];
        let non_negative = [
            (
                "host_transfer.half_saturation_bytes",
                ht.half_saturation_bytes,
            ),
            ("host_transfer.fixed_latency_s", ht.fixed_latency_s),
            ("local_mem.half_saturation_bytes", lm.half_saturation_bytes),
            ("local_mem.access_overhead_s", lm.access_overhead_s),
            ("pim_power_w", self.pim_power_w),
            ("host_power_w", self.host_power_w),
            (
                "transfer_energy_pj_per_byte",
                self.transfer_energy_pj_per_byte,
            ),
        ];
        let invalid = |field: &str, value: &dyn std::fmt::Display, range: &str| {
            Err(SimError::InvalidPlatform {
                detail: format!("{field} = {value}, expected {range}"),
            })
        };
        for (field, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return invalid(field, &value, "a finite value > 0");
            }
        }
        for (field, value) in non_negative {
            if !(value.is_finite() && value >= 0.0) {
                return invalid(field, &value, "a finite value >= 0");
            }
        }
        if !(1..=MAX_PES).contains(&self.num_pes) {
            return invalid("num_pes", &self.num_pes, &format!("1..={MAX_PES}"));
        }
        for (field, value) in [
            ("wram_bytes", self.wram_bytes),
            ("mram_bytes", self.mram_bytes),
        ] {
            if value == 0 {
                return invalid(field, &value, "> 0");
            }
        }
        Ok(())
    }

    /// DRAM row constants of the product's banks: DDR4-class behind UPMEM
    /// DPUs (2 KiB rows, ~45 ns tRC), HBM2/GDDR6-class behind the
    /// MAC-style PIMs (8 KiB effective rows, ~15 ns).
    pub fn mem_hierarchy(&self) -> MemHierarchy {
        let (row_buffer_log2, row_activation_s) = match self.kind {
            PlatformKind::Upmem => (11, 45e-9),
            PlatformKind::HbmPim | PlatformKind::Aim => (13, 15e-9),
        };
        MemHierarchy {
            row_buffer_log2,
            row_activation_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_headline_numbers() {
        let upmem = PlatformConfig::upmem();
        assert_eq!(upmem.num_pes, 1024);
        assert!((upmem.peak_internal_bw_gbps - 643.2).abs() < 0.1); // 8 × 80.4
        assert!((upmem.peak_gops - 350.4).abs() < 0.1); // 8 × 43.8

        let hbm = PlatformConfig::hbm_pim();
        assert!((hbm.peak_gops - 4800.0).abs() < 1.0); // 4 × 1.2 TFLOPS
        assert!((hbm.peak_internal_bw_gbps - 8000.0).abs() < 1.0);

        let aim = PlatformConfig::aim();
        assert!((aim.peak_gops - 16000.0).abs() < 1.0);
        assert_eq!(aim.pim_dtype, DType::Bf16);
    }

    #[test]
    fn built_in_platforms_validate() {
        for p in [PlatformConfig::upmem_adder_only()]
            .into_iter()
            .chain(PlatformConfig::all())
        {
            assert_eq!(p.validate(), Ok(()), "{:?}", p.kind);
        }
    }

    #[test]
    fn platform_names() {
        assert_eq!(PlatformKind::Upmem.name(), "PIM-DIMM");
        assert_eq!(PlatformKind::HbmPim.name(), "HBM-PIM");
        assert_eq!(PlatformKind::Aim.name(), "AiM");
    }

    #[test]
    fn transfer_bandwidth_saturates_with_size() {
        let t = PlatformConfig::upmem().host_transfer;
        let small = t.effective_gbps(TransferPattern::ToPimBroadcast, 1024.0);
        let large = t.effective_gbps(TransferPattern::ToPimBroadcast, 16.0 * 1024.0 * 1024.0);
        assert!(small < large);
        assert!(large <= t.broadcast_peak_gbps);
        assert!(large > 0.95 * t.broadcast_peak_gbps);
    }

    #[test]
    fn broadcast_faster_than_scatter() {
        let t = PlatformConfig::upmem().host_transfer;
        let size = 1e6;
        assert!(
            t.effective_gbps(TransferPattern::ToPimBroadcast, size)
                > t.effective_gbps(TransferPattern::ToPimDistinct, size)
        );
    }

    #[test]
    fn transfer_time_monotone_in_bytes() {
        let t = PlatformConfig::upmem().host_transfer;
        let t1 = t.transfer_time_s(TransferPattern::FromPim, 1e6, 1e4);
        let t2 = t.transfer_time_s(TransferPattern::FromPim, 2e6, 1e4);
        assert!(t2 > t1);
        assert_eq!(t.transfer_time_s(TransferPattern::FromPim, 0.0, 1e4), 0.0);
    }

    #[test]
    fn local_mem_overhead_penalizes_small_accesses() {
        let m = PlatformConfig::upmem().local_mem;
        let total = 1e6;
        let few_big = m.sim_time_s(total, 65536.0, (total / 65536.0) as u64);
        let many_small = m.sim_time_s(total, 64.0, (total / 64.0) as u64);
        assert!(many_small > few_big);
        // The tuner-visible time ignores access count, so it is cheaper.
        assert!(m.ideal_time_s(total, 64.0) < many_small);
    }

    /// Greatest common divisor (Euclid). `gcd(0, n) = n`.
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }

    /// The periodic row analysis with Euclid's `gcd`, for any row size:
    /// the oracle of [`MemHierarchy::row_traffic`]'s shift form.
    fn euclid_row_traffic(h: &MemHierarchy, loads: f64, tile_bytes: f64) -> (f64, f64) {
        if loads <= 0.0 || tile_bytes <= 0.0 {
            return (0.0, 0.0);
        }
        let r = h.row_buffer_bytes() as f64;
        let g = gcd(tile_bytes as u64, h.row_buffer_bytes() as u64) as f64;
        let compulsory = (tile_bytes / r).max(1.0);
        let crossing = (tile_bytes.min(r) - g) / r;
        (loads * compulsory, loads * crossing)
    }

    #[test]
    fn row_traffic_shift_matches_euclid() {
        let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for p in PlatformConfig::all() {
            let h = p.mem_hierarchy();
            let r = h.row_buffer_bytes();
            assert!(r.is_power_of_two(), "{:?}", p.kind);
            let mut tiles: Vec<f64> = (1..=4 * r).map(|t| t as f64).collect();
            // A seeded sample of large tiles, each with a random run of
            // trailing zeros, then the edges: below one byte, past 2^64.
            for _ in 0..4096 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let tile = (state >> 11) << (state % 24);
                tiles.push(tile.max(1) as f64);
            }
            tiles.extend([0.25, 0.5, 0.999, 1.5, 2047.5, 1e19, 1.8e19, 1e25, f64::MAX]);
            tiles.extend([0.0, -3.0, f64::INFINITY, f64::NAN]);
            for tile in tiles {
                for loads in [0.0, 1.0, 3.0, 1e6, f64::INFINITY] {
                    assert_eq!(
                        bits(h.row_traffic(loads, tile)),
                        bits(euclid_row_traffic(&h, loads, tile)),
                        "{:?}: {loads} loads of {tile} B",
                        p.kind
                    );
                }
            }
        }
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
        let h = PlatformConfig::upmem().mem_hierarchy();
        assert_eq!(h.row_buffer_bytes(), 2048);
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
    fn crossing_penalizes_misaligned_tiles() {
        // Same data volume, one tile size nesting with the 2 KiB row and
        // one straddling it: the straddler must pay a crossing term.
        let h = PlatformConfig::upmem().mem_hierarchy();
        let (_, aligned) = h.row_traffic(12.0, 512.0);
        let (_, misaligned) = h.row_traffic(12.0, 384.0);
        assert_eq!(aligned, 0.0);
        assert!(misaligned > 0.0);
    }

    #[test]
    fn volume_floor_is_below_every_row_split() {
        for p in PlatformConfig::all() {
            let h = p.mem_hierarchy();
            for tile in [1.0, 48.0, 384.0, 2048.0, 3000.0, 8192.0, 65536.0] {
                let (comp, cross) = h.row_traffic(7.0, tile);
                let rows_s = (comp + cross) * h.row_activation_s;
                assert!(h.volume_floor_s(7.0 * tile) <= rows_s * (1.0 + 1e-12));
            }
        }
    }

    #[test]
    fn per_pe_gops_consistent() {
        let upmem = PlatformConfig::upmem();
        let per_pe = upmem.peak_gops / upmem.num_pes as f64;
        assert!((per_pe - 0.342).abs() < 0.01, "per_pe={per_pe}");
        // single_reduce_s is slower than the rated 1/per-PE-throughput
        // (WRAM access + address generation per accumulate) but within the
        // same order of magnitude.
        let rated = 1.0 / (per_pe * 1e9);
        assert!(upmem.single_reduce_s >= rated);
        assert!(upmem.single_reduce_s < 4.0 * rated);
    }

    #[test]
    fn adder_only_variant_is_faster_per_reduce() {
        let base = PlatformConfig::upmem();
        let adder = PlatformConfig::upmem_adder_only();
        assert!(adder.single_reduce_s < base.single_reduce_s);
        assert!((adder.single_reduce_s * 4.0 - base.single_reduce_s).abs() < 1e-15);
        assert_eq!(adder.wram_bytes, base.wram_bytes);
        assert_eq!(adder.pim_power_w, base.pim_power_w);
    }

    #[test]
    fn all_platforms_enumerated() {
        let all = PlatformConfig::all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].kind, PlatformKind::Upmem);
        assert_eq!(all[1].kind, PlatformKind::HbmPim);
        assert_eq!(all[2].kind, PlatformKind::Aim);
    }

    #[test]
    fn zero_size_edge_cases() {
        let t = PlatformConfig::upmem().host_transfer;
        assert_eq!(
            t.effective_gbps(TransferPattern::ToPimDistinct, 0.0),
            t.to_pim_peak_gbps
        );
        let m = PlatformConfig::upmem().local_mem;
        assert_eq!(m.effective_gbps(0.0), m.peak_gbps);
        assert_eq!(m.ideal_time_s(0.0, 64.0), 0.0);
    }
}
