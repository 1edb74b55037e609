//! Enumeration of the mapping search space (P1–P4).

use pimdl_sim::config::PlatformConfig;
use pimdl_sim::cost::{lut_buffer_bytes, lut_tile_bytes};
use pimdl_sim::{LoadScheme, LutWorkload, Mapping, MicroKernel, TraversalOrder};

use crate::{Result, TuneError};

/// Maximum divisor candidates per tiling dimension before falling back to
/// power-of-two divisors only (keeps the space tractable for large dims).
const MAX_DIVISORS: usize = 24;

/// All divisors of `n`, ascending.
pub fn divisors(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    // `d <= n / d` rather than `d * d <= n`: no overflow near `usize::MAX`.
    let mut d = 1;
    while d <= n / d {
        if n.is_multiple_of(d) {
            out.push(d);
        }
        d += 1;
    }
    for i in (0..out.len()).rev() {
        let high = n / out[i];
        if high != out[i] {
            out.push(high);
        }
    }
    out
}

/// Tiling-factor candidates for a dimension: all divisors when few, the
/// power-of-two divisors (plus the dimension itself) otherwise.
pub fn tile_candidates(dim: usize) -> Vec<usize> {
    capped(divisors(dim), dim)
}

/// `dim`'s ascending divisors `menu` as its [`tile_candidates`].
fn capped(mut menu: Vec<usize>, dim: usize) -> Vec<usize> {
    if menu.len() > MAX_DIVISORS {
        menu.retain(|&d| d.is_power_of_two() || d == dim);
    }
    menu
}

/// The tiling-factor menus one search reads, built once up front: the
/// [`tile_candidates`] of every dimension it branches on (`N_s`, `F_s`,
/// `CB`) or enumerates a leaf's chunks under (each `F_m` and `CB_m`).
#[derive(Debug)]
pub(crate) struct Menus {
    /// `(dim, tile_candidates(dim))`, ascending in `dim`.
    menus: Vec<(usize, Vec<usize>)>,
}

impl Menus {
    /// The menus of a search over the P1 `pairs` of `w`. Every dimension
    /// divides one of the workload's (`N_s` divides `N`; `F_s` and its
    /// menu `F`; `CB` and its menu `CB`), so its divisors are that
    /// dimension's that it is a multiple of: three trial divisions per
    /// search, each menu a filter of one of them.
    pub(crate) fn new(w: &LutWorkload, pairs: &[(usize, usize)]) -> Self {
        let (of_n, of_f, of_cb) = (divisors(w.n), divisors(w.f), divisors(w.cb));
        let menu = |of: &[usize], dim: usize| {
            let divisors = of.iter().copied().filter(|&d| dim.is_multiple_of(d));
            capped(divisors.collect(), dim)
        };
        let mut dims: Vec<(usize, &[usize])> = Vec::new();
        dims.extend(menu(&of_cb, w.cb).into_iter().map(|d| (d, &of_cb[..])));
        for &(n_stile, f_stile) in pairs {
            dims.extend([(n_stile, &of_n[..]), (f_stile, &of_f[..])]);
            dims.extend(menu(&of_f, f_stile).into_iter().map(|d| (d, &of_f[..])));
        }
        dims.sort_unstable_by_key(|&(d, _)| d);
        dims.dedup_by_key(|&mut (d, _)| d);
        let menus = dims.into_iter().map(|(d, of)| (d, menu(of, d))).collect();
        Menus { menus }
    }

    /// [`tile_candidates`] of `dim`, which [`Self::new`] built.
    pub(crate) fn of(&self, dim: usize) -> &[usize] {
        let found = self.menus.binary_search_by_key(&dim, |&(d, _)| d);
        debug_assert!(found.is_ok(), "no menu built for dimension {dim}");
        found.map_or(&[], |i| &self.menus[i].1)
    }

    /// The three menus every node below P1 pair `(n_stile, f_stile)`
    /// branches on, looked up once per pair.
    pub(crate) fn of_pair(
        &self,
        w: &LutWorkload,
        (n_stile, f_stile): (usize, usize),
    ) -> PairMenus<'_> {
        PairMenus {
            n_m: self.of(n_stile),
            f_m: self.of(f_stile),
            cb_m: self.of(w.cb),
        }
    }

    /// The chunk menus of every coarse leaf under m-tiles `F_m`, `CB_m`,
    /// looked up once per m-tile node.
    pub(crate) fn of_mtiles(&self, f_m: usize, cb_m: usize) -> ChunkMenus<'_> {
        ChunkMenus {
            cb_loads: self.of(cb_m),
            f_loads: self.of(f_m),
        }
    }
}

/// The `N_m`, `F_m` and `CB_m` menus of one P1 pair ([`Menus::of_pair`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairMenus<'m> {
    n_m: &'m [usize],
    f_m: &'m [usize],
    cb_m: &'m [usize],
}

/// The `cb_load` and `f_load` menus under one m-tile node
/// ([`Menus::of_mtiles`]): the divisors of `CB_m` and of `F_m`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkMenus<'m> {
    cb_loads: &'m [usize],
    f_loads: &'m [usize],
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

/// [`sub_lut_candidates`], or the error every search reports when the
/// workload fails [`LutWorkload::validate`] (a struct literal with a zero
/// dimension, which every trip count would divide by) or Eq. 5 has no
/// solution.
pub(crate) fn legal_pairs(
    workload: &LutWorkload,
    platform: &PlatformConfig,
) -> Result<Vec<(usize, usize)>> {
    workload.validate()?;
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

/// UPMEM tasklet count of every fine-grain candidate (harmless elsewhere).
pub(crate) const FINE_THREADS: usize = 16;

/// A node of the micro-kernel search tree below one P1 pair: the levels
/// assigned so far, in branching order — **P2** `N_m` → `F_m` → `CB_m`,
/// then the **P3** traversal. The **P4** load schemes are the leaves under
/// a complete assignment ([`leaf_schemes`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Partial {
    pub(crate) n_m: Option<usize>,
    pub(crate) f_m: Option<usize>,
    pub(crate) cb_m: Option<usize>,
    pub(crate) traversal: Option<TraversalOrder>,
}

/// A complete [`Partial`]: `(N_m, F_m, CB_m, traversal)`.
pub(crate) type Tiling = (usize, usize, usize, TraversalOrder);

impl Partial {
    /// The assignment once every level is set.
    pub(crate) fn complete(self) -> Option<Tiling> {
        Some((self.n_m?, self.f_m?, self.cb_m?, self.traversal?))
    }

    /// `(N_m, F_m, CB_m)` once the three m-tiles are set and the traversal
    /// is not: the node whose children are the six traversals.
    pub(crate) fn mtiles(self) -> Option<(usize, usize, usize)> {
        match self.traversal {
            None => Some((self.n_m?, self.f_m?, self.cb_m?)),
            Some(_) => None,
        }
    }

    /// Visits one child per entry of the first unset level's menu, in menu
    /// order (none once the assignment is complete).
    pub(crate) fn children(self, menus: &PairMenus, mut visit: impl FnMut(Partial)) {
        let mut branch = |menu: &[usize], set: fn(&mut Partial, usize)| {
            for &choice in menu {
                let mut child = self;
                set(&mut child, choice);
                visit(child);
            }
        };
        if self.n_m.is_none() {
            branch(menus.n_m, |c, t| c.n_m = Some(t));
        } else if self.f_m.is_none() {
            branch(menus.f_m, |c, t| c.f_m = Some(t));
        } else if self.cb_m.is_none() {
            branch(menus.cb_m, |c, t| c.cb_m = Some(t));
        } else if self.traversal.is_none() {
            for order in TraversalOrder::all() {
                visit(Partial {
                    traversal: Some(order),
                    ..self
                });
            }
        }
    }
}

/// The three **P4** load-scheme classes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SchemeClass {
    Static,
    Coarse,
    Fine,
}

impl SchemeClass {
    /// Enumeration order of the classes under one tiling.
    pub(crate) const ALL: [SchemeClass; 3] =
        [SchemeClass::Static, SchemeClass::Coarse, SchemeClass::Fine];
}

/// The micro-kernel of the `load_scheme` leaf under `tiling`.
pub(crate) fn kernel_of(
    (n_mtile, f_mtile, cb_mtile, traversal): Tiling,
    load_scheme: LoadScheme,
) -> MicroKernel {
    MicroKernel {
        n_mtile,
        f_mtile,
        cb_mtile,
        traversal,
        load_scheme,
    }
}

/// Visits the leaves of one scheme class under a complete tiling whose
/// m-tiles' chunk menus are `menus`, in enumeration order: ❶ static, if the
/// sub-LUT fits; ❷ coarse-grain, every `cb_load × f_load` chunk dividing
/// the m-tiles that fits; ❸ fine-grain, every `f_load` dividing `F_m`. The
/// one leaf enumeration: the exhaustive list ([`kernel_candidates`]) and
/// the branch-and-bound leaf level (`bnb::score_leaves`) both walk it.
pub(crate) fn leaf_schemes(
    class: SchemeClass,
    menus: &ChunkMenus,
    workload: &LutWorkload,
    platform: &PlatformConfig,
    f_stile: usize,
    mut visit: impl FnMut(LoadScheme),
) {
    let fits = |scheme| lut_buffer_bytes(workload, f_stile, scheme) <= platform.wram_bytes;
    match class {
        SchemeClass::Static => {
            if fits(LoadScheme::Static) {
                visit(LoadScheme::Static);
            }
        }
        SchemeClass::Coarse => {
            for &cb_load in menus.cb_loads {
                for &f_load in menus.f_loads {
                    let scheme = LoadScheme::CoarseGrain { cb_load, f_load };
                    if fits(scheme) {
                        visit(scheme);
                    }
                }
            }
        }
        SchemeClass::Fine => {
            for &f_load in menus.f_loads {
                visit(LoadScheme::FineGrain {
                    f_load,
                    threads: FINE_THREADS,
                });
            }
        }
    }
}

/// The coarse-grain leaves [`leaf_schemes`] visits under a complete tiling
/// of a `platform`, counted without visiting them: `(offered, fits)`, the
/// chunks whose buffer fits the platform's WRAM, and of those, the ones
/// whose buffer is at most `room` bytes. A chunk's buffer `cb_load·CT·f_load`
/// grows with `f_load` along the ascending `F_m` menu, so each `cb_load`
/// counts by binary search. Nothing here reads the traversal: the six
/// tilings of one m-tile node share the counts.
pub(crate) fn coarse_leaf_counts(
    menus: &ChunkMenus,
    workload: &LutWorkload,
    platform: &PlatformConfig,
    room: usize,
) -> (usize, usize) {
    let f_loads = menus.f_loads;
    let mut counts = (0, 0);
    for &cb_load in menus.cb_loads {
        let offered = f_loads.partition_point(|&f_load| {
            lut_tile_bytes(workload, cb_load, f_load) <= platform.wram_bytes
        });
        let fits = f_loads[..offered]
            .partition_point(|&f_load| lut_tile_bytes(workload, cb_load, f_load) <= room);
        counts.0 += offered;
        counts.1 += fits;
    }
    counts
}

/// Micro-kernel candidates (**P2** + **P3** + **P4**) for a fixed sub-LUT
/// partition: the search tree materialised depth-first in menu order. Only
/// structurally legal kernels are returned; WRAM capacity is checked by
/// `Mapping::validate` at scoring time.
pub fn kernel_candidates(
    workload: &LutWorkload,
    platform: &PlatformConfig,
    n_stile: usize,
    f_stile: usize,
) -> Vec<MicroKernel> {
    let menus = Menus::new(workload, &[(n_stile, f_stile)]);
    let pair_menus = menus.of_pair(workload, (n_stile, f_stile));
    let mut kernels = Vec::new();
    let mut stack = vec![Partial::default()];
    while let Some(node) = stack.pop() {
        match node.complete() {
            Some(tiling @ (_, f_m, cb_m, _)) => {
                let chunks = menus.of_mtiles(f_m, cb_m);
                for class in SchemeClass::ALL {
                    leaf_schemes(class, &chunks, workload, platform, f_stile, |s| {
                        kernels.push(kernel_of(tiling, s));
                    });
                }
            }
            None => {
                let first = stack.len();
                node.children(&pair_menus, |child| stack.push(child));
                stack[first..].reverse();
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
    use proptest::prelude::*;

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
    fn menus_are_the_tile_candidates_of_their_dimensions() {
        // Filtered from the workload's divisor lists, each menu must be
        // the trial-divided one; 720720 and 5040 pass the divisor cap.
        for (n, cb, f) in [(64 * 512, 192, 3072), (720720, 5040, 720), (7, 1, 13)] {
            let w = LutWorkload::new(n, cb, 16, f).unwrap();
            let pairs: Vec<(usize, usize)> = divisors(n)
                .into_iter()
                .zip(divisors(f).into_iter().rev())
                .collect();
            let menus = Menus::new(&w, &pairs);
            for &(dim, ref menu) in &menus.menus {
                assert_eq!(menu, &tile_candidates(dim), "{dim} of {w:?}");
            }
            for (n_s, f_s) in pairs {
                for dim in [n_s, f_s, cb] {
                    assert_eq!(menus.of(dim), tile_candidates(dim), "{dim}");
                }
                for dim in tile_candidates(f_s).into_iter().chain(tile_candidates(cb)) {
                    assert_eq!(menus.of(dim), tile_candidates(dim), "{dim}");
                }
            }
        }
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

    /// [`coarse_leaf_counts`] against counting [`leaf_schemes`]' coarse
    /// walk, on the menus of a `(1, cb, ct, f)` workload at m-tiles picked
    /// from them, a WRAM at `wram_pct` % of the largest chunk, and rooms
    /// from 0 to past the WRAM; at `ct` and at `CT = 512`.
    fn coarse_counts_match_the_walk(
        (cb, ct, f): (usize, usize, usize),
        (cb_pick, f_pick): (usize, usize),
        wram_pct: usize,
    ) -> std::result::Result<(), TestCaseError> {
        for ct in [ct, 512] {
            let w = LutWorkload::new(1, cb, ct, f).unwrap();
            let menus = Menus::new(&w, &[(1, f)]);
            let (cbs, fs) = (menus.of(cb), menus.of(f));
            let (f_m, cb_m) = (fs[f_pick % fs.len()], cbs[cb_pick % cbs.len()]);
            let chunks = menus.of_mtiles(f_m, cb_m);
            let mut p = platform(1);
            p.wram_bytes = lut_tile_bytes(&w, cb_m, f_m) * wram_pct / 100;
            let wram = p.wram_bytes;
            for room in [
                0,
                1,
                wram / 2,
                wram.saturating_sub(1),
                wram,
                wram + 1,
                2 * wram + 7,
            ] {
                let mut walked = (0, 0);
                leaf_schemes(SchemeClass::Coarse, &chunks, &w, &p, f, |s| {
                    walked.0 += 1;
                    walked.1 += usize::from(lut_buffer_bytes(&w, f, s) <= room);
                });
                prop_assert_eq!(
                    coarse_leaf_counts(&chunks, &w, &p, room),
                    walked,
                    "{:?} under m-tiles {:?}, {} B WRAM, {} B room",
                    w,
                    (f_m, cb_m),
                    wram,
                    room
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn coarse_leaf_counts_match_the_enumeration(
            cb in 1usize..=1024,
            ct in 1usize..=64,
            f in 1usize..=3072,
            cb_pick in 0usize..64,
            f_pick in 0usize..64,
            wram_pct in 0usize..=250,
        ) {
            coarse_counts_match_the_walk((cb, ct, f), (cb_pick, f_pick), wram_pct)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// [`coarse_leaf_counts_match_the_enumeration`] on 1,000 cases: the
        /// long pass `scripts/check.sh` runs with `--ignored`.
        #[test]
        #[ignore = "long leaf-count pass: ~1,000 menus"]
        fn coarse_leaf_counts_match_the_enumeration_wide(
            cb in 1usize..=1024,
            ct in 1usize..=64,
            f in 1usize..=3072,
            cb_pick in 0usize..64,
            f_pick in 0usize..64,
            wram_pct in 0usize..=250,
        ) {
            coarse_counts_match_the_walk((cb, ct, f), (cb_pick, f_pick), wram_pct)?;
        }
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
