//! The LUT-kernel mapping vocabulary: workload shapes, sub-LUT partition,
//! micro-kernel tiling, traversal orders, and LUT load schemes
//! (paper §5.2–§5.3, Table 2).

use serde::{DeError, Deserialize, Serialize, Value};

use crate::config::PlatformConfig;
use crate::{cost, Result, SimError};

/// Shape of one LUT operator workload (Table 2: `N`, `CB`, `CT`, `F`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct LutWorkload {
    /// Input index row count `N` (activation rows).
    pub n: usize,
    /// Codebook count `CB = H / V`.
    pub cb: usize,
    /// Centroids per codebook `CT`.
    pub ct: usize,
    /// Output feature length `F`.
    pub f: usize,
}

impl LutWorkload {
    /// Creates a workload shape.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WorkloadMismatch`] if any dimension is zero, or
    /// if the index, LUT or output bytes (`N·CB`, `CB·CT·F`, `N·F·4`)
    /// overflow `usize`.
    pub fn new(n: usize, cb: usize, ct: usize, f: usize) -> Result<Self> {
        if n == 0 || cb == 0 || ct == 0 || f == 0 {
            return Err(SimError::WorkloadMismatch {
                detail: format!("zero dimension in workload ({n}, {cb}, {ct}, {f})"),
            });
        }
        let w = LutWorkload { n, cb, ct, f };
        let index = n
            .checked_mul(cb)
            .and_then(|x| x.checked_mul(w.index_elem_bytes()));
        let lut = cb.checked_mul(ct).and_then(|x| x.checked_mul(f));
        let output = n.checked_mul(f).and_then(|x| x.checked_mul(4));
        if index.is_none() || lut.is_none() || output.is_none() {
            return Err(SimError::WorkloadMismatch {
                detail: format!("workload ({n}, {cb}, {ct}, {f}) overflows the address space"),
            });
        }
        Ok(w)
    }

    /// [`Self::new`]'s checks on a shape built some other way (a struct
    /// literal).
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn validate(&self) -> Result<()> {
        LutWorkload::new(self.n, self.cb, self.ct, self.f).map(|_| ())
    }

    /// Bytes of one index element (1 for `CT ≤ 256`, else 2).
    pub fn index_elem_bytes(&self) -> usize {
        if self.ct <= 256 {
            1
        } else {
            2
        }
    }

    /// Total index-matrix bytes (`N × CB`).
    pub fn index_bytes(&self) -> u64 {
        (self.n * self.cb * self.index_elem_bytes()) as u64
    }

    /// Total LUT bytes at INT8 (`CB × CT × F`).
    pub fn lut_bytes(&self) -> u64 {
        (self.cb * self.ct * self.f) as u64
    }

    /// Total output bytes at f32 (`N × F × 4`).
    pub fn output_bytes(&self) -> u64 {
        (self.n * self.f * 4) as u64
    }

    /// Reduce (accumulate) operation count: `N × CB × F`.
    pub fn reduce_ops(&self) -> u64 {
        self.n as u64 * self.cb as u64 * self.f as u64
    }
}

/// Deserializes through [`LutWorkload::new`], so a zero or overflowing
/// dimension is refused on load, not divided by later.
impl Deserialize for LutWorkload {
    fn serde_from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let dim = |name| {
            let field = v
                .get(name)
                .ok_or_else(|| DeError::new(format!("missing field {name} for LutWorkload")))?;
            usize::serde_from_value(field)
        };
        LutWorkload::new(dim("n")?, dim("cb")?, dim("ct")?, dim("f")?)
            .map_err(|e| DeError::new(e.to_string()))
    }
}

/// Traversal order of the three micro-kernel tile loops (search-space
/// parameter **P3**). Letters are outer→inner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraversalOrder {
    /// N outer, F middle, CB inner.
    Nfc,
    /// N outer, CB middle, F inner.
    Ncf,
    /// F outer, N middle, CB inner.
    Fnc,
    /// F outer, CB middle, N inner.
    Fcn,
    /// CB outer, N middle, F inner.
    Cnf,
    /// CB outer, F middle, N inner.
    Cfn,
}

/// The three loop dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopDim {
    /// Activation-row tiles.
    N,
    /// Feature tiles.
    F,
    /// Codebook tiles.
    Cb,
}

impl TraversalOrder {
    /// All six permutations.
    pub fn all() -> [TraversalOrder; 6] {
        [
            TraversalOrder::Nfc,
            TraversalOrder::Ncf,
            TraversalOrder::Fnc,
            TraversalOrder::Fcn,
            TraversalOrder::Cnf,
            TraversalOrder::Cfn,
        ]
    }

    /// The loop nest outer→inner.
    pub fn dims(self) -> [LoopDim; 3] {
        match self {
            TraversalOrder::Nfc => [LoopDim::N, LoopDim::F, LoopDim::Cb],
            TraversalOrder::Ncf => [LoopDim::N, LoopDim::Cb, LoopDim::F],
            TraversalOrder::Fnc => [LoopDim::F, LoopDim::N, LoopDim::Cb],
            TraversalOrder::Fcn => [LoopDim::F, LoopDim::Cb, LoopDim::N],
            TraversalOrder::Cnf => [LoopDim::Cb, LoopDim::N, LoopDim::F],
            TraversalOrder::Cfn => [LoopDim::Cb, LoopDim::F, LoopDim::N],
        }
    }

    /// Number of times a tile indexed by the dims for which `uses` is true
    /// must be (re)loaded, given per-dim trip counts `(t_n, t_f, t_cb)`.
    ///
    /// A tile stays resident while only loops it does not depend on
    /// iterate inside it; it reloads whenever a loop it depends on — or any
    /// loop *outside* such a loop — advances. Loops with a single
    /// iteration never change the tile and are ignored.
    #[inline]
    pub fn load_count(self, trips: (u64, u64, u64), uses: (bool, bool, bool)) -> u64 {
        let trip = |d: LoopDim| match d {
            LoopDim::N => trips.0,
            LoopDim::F => trips.1,
            LoopDim::Cb => trips.2,
        };
        let used = |d: LoopDim| match d {
            LoopDim::N => uses.0,
            LoopDim::F => uses.1,
            LoopDim::Cb => uses.2,
        };
        // Walk outer→inner; once we pass the innermost used loop that
        // actually iterates, the remaining inner loops give free reuse.
        let dims = self.dims();
        let innermost_used = dims.iter().rposition(|&d| used(d) && trip(d) > 1);
        match innermost_used {
            None => 1, // invariant tile: loaded once
            Some(pos) => dims[..=pos].iter().map(|&d| trip(d)).product(),
        }
    }

    /// The fewest loads any order achieves ([`Self::load_count`] minimised
    /// over [`Self::all`]): the trips of the loops the tile depends on,
    /// multiplied — an order with those loops outermost revisits nothing.
    pub fn fewest_loads(trips: (u64, u64, u64), uses: (bool, bool, bool)) -> u64 {
        let used = |uses: bool, trip: u64| if uses { trip } else { 1 };
        used(uses.0, trips.0) * used(uses.1, trips.1) * used(uses.2, trips.2)
    }
}

impl std::fmt::Display for TraversalOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TraversalOrder::Nfc => "N-F-CB",
            TraversalOrder::Ncf => "N-CB-F",
            TraversalOrder::Fnc => "F-N-CB",
            TraversalOrder::Fcn => "F-CB-N",
            TraversalOrder::Cnf => "CB-N-F",
            TraversalOrder::Cfn => "CB-F-N",
        };
        f.write_str(s)
    }
}

/// LUT load scheme (search-space parameter **P4**, Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoadScheme {
    /// ❶ Static: the whole per-PE LUT tile resides on-chip for the entire
    /// kernel (requires `CB × CT × F_s-tile` bytes of buffer).
    Static,
    /// ❷ Coarse-grain: load all `CT` candidates for a
    /// `CB_load × F_load` chunk and reuse them across the current index
    /// MTile's rows.
    CoarseGrain {
        /// Codebook-chunk load factor.
        cb_load: usize,
        /// Feature-chunk load factor.
        f_load: usize,
    },
    /// ❸ Fine-grain: load only the indexed entries on demand, `F_load`
    /// feature values per access, one buffer per hardware thread.
    FineGrain {
        /// Feature-chunk load factor.
        f_load: usize,
        /// Concurrent hardware threads issuing independent loads (UPMEM
        /// tasklets).
        threads: usize,
    },
}

impl LoadScheme {
    /// Short label for reports (Fig. 13 panel names).
    pub fn name(&self) -> &'static str {
        match self {
            LoadScheme::Static => "static",
            LoadScheme::CoarseGrain { .. } => "coarse-grain",
            LoadScheme::FineGrain { .. } => "fine-grain",
        }
    }
}

/// Micro-kernel mapping parameters (**P2** + **P3** + **P4**).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MicroKernel {
    /// Index/output row tile `N_m-tile`.
    pub n_mtile: usize,
    /// Output feature tile `F_m-tile`.
    pub f_mtile: usize,
    /// Codebook tile `CB_m-tile`.
    pub cb_mtile: usize,
    /// Loop traversal order.
    pub traversal: TraversalOrder,
    /// LUT load scheme.
    pub load_scheme: LoadScheme,
}

/// A complete mapping: sub-LUT partition (**P1**) + micro-kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mapping {
    /// Index-row tile per PE group, `N_s-tile`.
    pub n_stile: usize,
    /// Feature tile per PE, `F_s-tile`.
    pub f_stile: usize,
    /// Micro-kernel parameters.
    pub kernel: MicroKernel,
}

impl Mapping {
    /// The **P1** pair `(N_s-tile, F_s-tile)`.
    pub fn pair(&self) -> cost::Pair {
        (self.n_stile, self.f_stile)
    }

    /// Number of PE groups (`N / N_s-tile`).
    pub fn groups(&self, w: &LutWorkload) -> usize {
        w.n / self.n_stile
    }

    /// PEs per group (`F / F_s-tile`).
    pub fn pes_per_group(&self, w: &LutWorkload) -> usize {
        w.f / self.f_stile
    }

    /// Validates the mapping against a workload and platform (Eq. 5 and the
    /// on-chip buffer capacity).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::IllegalMapping`] describing the first violated
    /// constraint.
    pub fn validate(&self, w: &LutWorkload, platform: &PlatformConfig) -> Result<()> {
        let fail = |detail: String| Err(SimError::IllegalMapping { detail });
        if self.n_stile == 0 || self.f_stile == 0 {
            return fail("zero sub-LUT tile".to_string());
        }
        if !w.n.is_multiple_of(self.n_stile) {
            return fail(format!(
                "N_s-tile {} does not divide N {}",
                self.n_stile, w.n
            ));
        }
        if !w.f.is_multiple_of(self.f_stile) {
            return fail(format!(
                "F_s-tile {} does not divide F {}",
                self.f_stile, w.f
            ));
        }
        let pes = self.groups(w) * self.pes_per_group(w);
        if pes != platform.num_pes {
            return fail(format!(
                "partition uses {pes} PEs but the platform has {} (Eq. 5)",
                platform.num_pes
            ));
        }
        let k = &self.kernel;
        if k.n_mtile == 0 || k.f_mtile == 0 || k.cb_mtile == 0 {
            return fail("zero micro-kernel tile".to_string());
        }
        if !self.n_stile.is_multiple_of(k.n_mtile) {
            return fail(format!(
                "N_m-tile {} does not divide N_s-tile {}",
                k.n_mtile, self.n_stile
            ));
        }
        if !self.f_stile.is_multiple_of(k.f_mtile) {
            return fail(format!(
                "F_m-tile {} does not divide F_s-tile {}",
                k.f_mtile, self.f_stile
            ));
        }
        if !w.cb.is_multiple_of(k.cb_mtile) {
            return fail(format!(
                "CB_m-tile {} does not divide CB {}",
                k.cb_mtile, w.cb
            ));
        }
        match k.load_scheme {
            LoadScheme::Static => {}
            LoadScheme::CoarseGrain { cb_load, f_load } => {
                if cb_load == 0 || f_load == 0 {
                    return fail("zero coarse-grain load factor".to_string());
                }
                if !k.cb_mtile.is_multiple_of(cb_load) {
                    return fail(format!(
                        "coarse cb_load {cb_load} does not divide CB_m-tile {}",
                        k.cb_mtile
                    ));
                }
                if !k.f_mtile.is_multiple_of(f_load) {
                    return fail(format!(
                        "coarse f_load {f_load} does not divide F_m-tile {}",
                        k.f_mtile
                    ));
                }
            }
            LoadScheme::FineGrain { f_load, threads } => {
                if f_load == 0 || threads == 0 {
                    return fail("zero fine-grain load factor".to_string());
                }
                if !k.f_mtile.is_multiple_of(f_load) {
                    return fail(format!(
                        "fine f_load {f_load} does not divide F_m-tile {}",
                        k.f_mtile
                    ));
                }
            }
        }
        let wram = self.wram_usage(w);
        if wram > platform.wram_bytes {
            return fail(format!(
                "on-chip buffer needs {wram} B but the PE has {} B",
                platform.wram_bytes
            ));
        }
        Ok(())
    }

    /// On-chip buffer bytes required by this mapping: index MTile + output
    /// MTile + the LUT buffer of the chosen load scheme.
    pub fn wram_usage(&self, w: &LutWorkload) -> usize {
        let k = &self.kernel;
        cost::index_tile_bytes(w, k.n_mtile, k.cb_mtile)
            + cost::output_tile_bytes(k.n_mtile, k.f_mtile)
            + cost::lut_buffer_bytes(w, self.f_stile, k.load_scheme)
    }

    /// Sub-LUT tile sizes in bytes: `(index, lut, output)` per PE
    /// (Table 2 `STileSize_x`).
    pub fn stile_sizes(&self, w: &LutWorkload) -> (u64, u64, u64) {
        (
            cost::index_tile_bytes(w, self.n_stile, w.cb) as u64,
            cost::lut_tile_bytes(w, w.cb, self.f_stile) as u64,
            cost::output_tile_bytes(self.n_stile, self.f_stile) as u64,
        )
    }

    /// Micro-kernel trip counts `(T_n, T_f, T_cb)`.
    pub fn trip_counts(&self, w: &LutWorkload) -> (u64, u64, u64) {
        let k = &self.kernel;
        cost::trip_counts(w, self.pair(), (k.n_mtile, k.f_mtile, k.cb_mtile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> LutWorkload {
        LutWorkload::new(64, 8, 16, 32).unwrap()
    }

    fn platform_with_pes(pes: usize) -> PlatformConfig {
        let mut p = PlatformConfig::upmem();
        p.num_pes = pes;
        p
    }

    fn legal_mapping() -> Mapping {
        Mapping {
            n_stile: 16,
            f_stile: 8,
            kernel: MicroKernel {
                n_mtile: 4,
                f_mtile: 4,
                cb_mtile: 4,
                traversal: TraversalOrder::Nfc,
                load_scheme: LoadScheme::FineGrain {
                    f_load: 4,
                    threads: 8,
                },
            },
        }
    }

    #[test]
    fn workload_basics() {
        let w = workload();
        assert_eq!(w.index_elem_bytes(), 1);
        assert_eq!(w.index_bytes(), 64 * 8);
        assert_eq!(w.lut_bytes(), 8 * 16 * 32);
        assert_eq!(w.output_bytes(), 64 * 32 * 4);
        assert_eq!(w.reduce_ops(), 64 * 8 * 32);
        assert!(LutWorkload::new(0, 8, 16, 32).is_err());
    }

    #[test]
    fn workload_loads_only_through_new() {
        let json = serde_json::to_string(&workload()).unwrap();
        assert_eq!(
            serde_json::from_str::<LutWorkload>(&json).unwrap(),
            workload()
        );
        let huge = usize::MAX / 2;
        for (field, old, value) in [("n", 64, 0), ("f", 32, 0), ("cb", 8, huge)] {
            let edited = json.replace(
                &format!("\"{field}\":{old}"),
                &format!("\"{field}\":{value}"),
            );
            assert_ne!(edited, json);
            assert!(
                serde_json::from_str::<LutWorkload>(&edited).is_err(),
                "{edited}"
            );
        }
        // Each of the three byte counts on its own.
        for (n, cb, ct, f) in [(huge, 4, 1, 1), (1, huge, 4, 1), (1, 1, 1, huge)] {
            assert!(
                LutWorkload::new(n, cb, ct, f).is_err(),
                "{:?}",
                (n, cb, ct, f)
            );
        }
        let literal = LutWorkload {
            cb: 0,
            ..workload()
        };
        assert!(literal.validate().is_err());
        workload().validate().unwrap();
    }

    #[test]
    fn wide_ct_uses_two_byte_indices() {
        let w = LutWorkload::new(4, 4, 512, 4).unwrap();
        assert_eq!(w.index_elem_bytes(), 2);
        assert_eq!(w.index_bytes(), 4 * 4 * 2);
    }

    #[test]
    fn legal_mapping_validates() {
        let w = workload();
        // groups = 64/16 = 4, pes/group = 32/8 = 4 → 16 PEs.
        let m = legal_mapping();
        assert_eq!(m.groups(&w), 4);
        assert_eq!(m.pes_per_group(&w), 4);
        m.validate(&w, &platform_with_pes(16)).unwrap();
    }

    #[test]
    fn eq5_pe_count_enforced() {
        let w = workload();
        let m = legal_mapping();
        let err = m.validate(&w, &platform_with_pes(32)).unwrap_err();
        assert!(err.to_string().contains("Eq. 5"));
    }

    #[test]
    fn indivisible_tiles_rejected() {
        let w = workload();
        let mut m = legal_mapping();
        m.n_stile = 20;
        assert!(m.validate(&w, &platform_with_pes(16)).is_err());

        let mut m = legal_mapping();
        m.kernel.n_mtile = 3;
        assert!(m.validate(&w, &platform_with_pes(16)).is_err());

        let mut m = legal_mapping();
        m.kernel.cb_mtile = 3;
        assert!(m.validate(&w, &platform_with_pes(16)).is_err());
    }

    #[test]
    fn load_factor_divisibility() {
        let w = workload();
        let mut m = legal_mapping();
        m.kernel.load_scheme = LoadScheme::FineGrain {
            f_load: 3,
            threads: 8,
        };
        assert!(m.validate(&w, &platform_with_pes(16)).is_err());

        let mut m = legal_mapping();
        m.kernel.load_scheme = LoadScheme::CoarseGrain {
            cb_load: 3,
            f_load: 2,
        };
        assert!(m.validate(&w, &platform_with_pes(16)).is_err());

        let mut m = legal_mapping();
        m.kernel.load_scheme = LoadScheme::CoarseGrain {
            cb_load: 2,
            f_load: 2,
        };
        m.validate(&w, &platform_with_pes(16)).unwrap();
    }

    #[test]
    fn wram_capacity_enforced() {
        let w = workload();
        let mut platform = platform_with_pes(16);
        platform.wram_bytes = 16; // absurdly small
        assert!(legal_mapping().validate(&w, &platform).is_err());
    }

    #[test]
    fn wram_usage_by_scheme() {
        let w = workload();
        let mut m = legal_mapping();
        // index 4*4*1 = 16; output 4*4*4 = 64.
        m.kernel.load_scheme = LoadScheme::Static;
        assert_eq!(m.wram_usage(&w), 16 + 64 + 8 * 16 * 8); // CB*CT*F_s
        m.kernel.load_scheme = LoadScheme::CoarseGrain {
            cb_load: 2,
            f_load: 2,
        };
        assert_eq!(m.wram_usage(&w), 16 + 64 + 2 * 16 * 2);
        m.kernel.load_scheme = LoadScheme::FineGrain {
            f_load: 4,
            threads: 8,
        };
        assert_eq!(m.wram_usage(&w), 16 + 64 + 32);
    }

    #[test]
    fn stile_sizes_match_table2() {
        let w = workload();
        let m = legal_mapping();
        let (idx, lut, out) = m.stile_sizes(&w);
        assert_eq!(idx, 16 * 8); // N_s × CB × 1B
        assert_eq!(lut, 8 * 16 * 8); // CB × CT × F_s
        assert_eq!(out, 16 * 8 * 4); // N_s × F_s × 4B
    }

    #[test]
    fn trip_counts() {
        let w = workload();
        let m = legal_mapping();
        assert_eq!(m.trip_counts(&w), (4, 2, 2));
    }

    #[test]
    fn load_count_reuse_semantics() {
        let trips = (4u64, 3u64, 2u64);
        // Index tile uses (n, cb). With F innermost (Ncf: N,CB,F), it is
        // invariant over F → loads = T_n × T_cb.
        assert_eq!(
            TraversalOrder::Ncf.load_count(trips, (true, false, true)),
            4 * 2
        );
        // With CB innermost (Nfc: N,F,CB), the index tile varies in the
        // innermost loop → full product.
        assert_eq!(
            TraversalOrder::Nfc.load_count(trips, (true, false, true)),
            4 * 3 * 2
        );
        // Output uses (n, f). With CB innermost it accumulates in place →
        // T_n × T_f.
        assert_eq!(
            TraversalOrder::Nfc.load_count(trips, (true, true, false)),
            4 * 3
        );
        // With CB outermost (Cnf), the output reloads every CB pass.
        assert_eq!(
            TraversalOrder::Cnf.load_count(trips, (true, true, false)),
            2 * 4 * 3
        );
        // A tile used by nothing loads once.
        assert_eq!(
            TraversalOrder::Nfc.load_count(trips, (false, false, false)),
            1
        );
        // Used loops with a single iteration never change the tile.
        assert_eq!(
            TraversalOrder::Fnc.load_count((1, 4, 1), (true, false, true)),
            1
        );
        assert_eq!(
            TraversalOrder::Fnc.load_count((2, 4, 1), (true, false, true)),
            8 // tile changes with N, revisited across F
        );
    }

    #[test]
    fn fewest_loads_is_the_minimum_over_all_orders() {
        for uses in [
            (true, false, true),
            (true, true, false),
            (false, true, true),
        ] {
            for code in 0..4u64.pow(3) {
                let trips = (1 + code % 4, 1 + code / 4 % 4, 1 + code / 16);
                let min = TraversalOrder::all().map(|t| t.load_count(trips, uses));
                let min = min.into_iter().min().unwrap();
                assert_eq!(
                    TraversalOrder::fewest_loads(trips, uses),
                    min,
                    "{trips:?} {uses:?}"
                );
            }
        }
    }

    #[test]
    fn traversal_enumeration() {
        assert_eq!(TraversalOrder::all().len(), 6);
        let mut names: Vec<String> = TraversalOrder::all()
            .iter()
            .map(|t| t.to_string())
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(LoadScheme::Static.name(), "static");
        assert_eq!(
            LoadScheme::CoarseGrain {
                cb_load: 1,
                f_load: 1
            }
            .name(),
            "coarse-grain"
        );
        assert_eq!(
            LoadScheme::FineGrain {
                f_load: 1,
                threads: 1
            }
            .name(),
            "fine-grain"
        );
    }
}
