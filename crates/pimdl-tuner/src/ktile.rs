//! Tile-size tuning for the fused host CCS+LUT kernels.
//!
//! `pimdl_lutnn::kernels` blocks the fused gather over activation rows and
//! output features (`FusedTiling`); the tile extents change DRAM traffic but
//! never the result (tiling is a pure blocking decision — bit-exactness is
//! asserted by the kernel crate's property tests). This module picks tile
//! extents for a given kernel shape and cache size using the same
//! bound-and-prune machinery as the mapping search in [`crate::bnb`]:
//! candidates are scored with a deterministic DRAM-traffic model, branches
//! ordered best-first by an admissible lower bound, and a branch is cut
//! exactly when its bound cannot beat the incumbent.
//!
//! # Traffic model
//!
//! For a kernel of `n` activation rows, `cb` codebooks of `ct` entries,
//! `f` output features, and `e`-byte table elements, a tiling of `R` rows by
//! `Fb` features moves approximately:
//!
//! * **Table entries** — inside one row tile and feature block, each
//!   codebook's candidate slice is read once per *distinct* index, at most
//!   `min(R, CT)` of them, so across all blocks of one row tile the table
//!   term is `cb · min(R, CT) · f · e`, repeated for each of the
//!   `⌈n / R⌉` row tiles. Larger `R` amortizes table reads (`R / CT`
//!   asymptotic reuse).
//! * **Index tiles** — the `R × cb` u16 index tile is written once when
//!   encoded and re-read by every feature block:
//!   `n · cb · 2 · (1 + ⌈f / Fb⌉)` bytes. Larger `Fb` amortizes index
//!   re-reads.
//! * **Output block** — `R · Fb · 4` bytes of f32 partial sums, revisited
//!   once per 8-codebook unroll pass. If the working set — output block
//!   plus the 8 in-flight table slices (`8 · Fb · e`) plus the index tile
//!   (`R · cb · 2`) — fits the cache, the block is written to DRAM once:
//!   `n · f · 4`. Otherwise every unroll pass streams it from DRAM:
//!   `n · f · 4 · ⌈cb / 8⌉`.
//!
//!   This term describes the f32 kernel exactly and the INT8 kernel
//!   conservatively. The INT8 gather also keeps 8 table slices in flight
//!   per pass (it did 4 before it staged through i16), but the tile it
//!   revisits once per pass is the i16 staging tile — `R · Fb · 2` bytes,
//!   half the modelled block — with the `R · Fb · 4` i32 tile touched only
//!   once per run of 128 codebooks. The model is deliberately not retuned
//!   for that: for INT8 it over-states the resident set, so a tiling it
//!   calls cache-resident is.
//!
//! The tension is real: the table term wants `R` large, the cache residency
//! constraint wants `R · Fb` small, and the index term wants `Fb` large —
//! so the optimum moves with the cache size, which is exactly what the
//! search exploits.
//!
//! # Lower bound
//!
//! For a fixed `R`, over any `Fb` in the menu: the table term is constant,
//! the index term is minimized by the widest `Fb`, and the output term is
//! at least the compulsory `n · f · 4`. The sum is an admissible bound, so
//! pruning on it never discards an optimal tiling (the unit tests assert
//! equality with exhaustive enumeration).

use crate::error::TuneError;
use crate::Result;

/// Row-tile candidates (clipped to the workload's row count).
const ROW_TILES: [usize; 9] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// Feature-tile candidates (clipped to the output width).
const F_TILES: [usize; 9] = [32, 64, 128, 192, 256, 384, 512, 768, 1024];

/// Shape of one fused CCS+LUT kernel invocation on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostKernelShape {
    /// Activation rows `N`.
    pub n: usize,
    /// Codebook count `CB`.
    pub cb: usize,
    /// Centroids per codebook `CT`.
    pub ct: usize,
    /// Output features `F`.
    pub f: usize,
    /// Bytes per LUT table element (4 for f32 tables, 1 for INT8).
    pub table_elem_bytes: usize,
}

impl HostKernelShape {
    /// Checks the shape for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::InvalidConfig`] if any field is zero.
    pub fn validate(&self) -> Result<()> {
        if self.n == 0 || self.cb == 0 || self.ct == 0 || self.f == 0 || self.table_elem_bytes == 0
        {
            return Err(TuneError::InvalidConfig {
                detail: format!("zero field in host kernel shape {self:?}"),
            });
        }
        Ok(())
    }
}

/// Result of a tile search: the chosen extents, their modeled traffic, and
/// search-effort counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSearchResult {
    /// Chosen row-tile extent (feed to `FusedTiling::row_tile`).
    pub row_tile: usize,
    /// Chosen feature-tile extent (feed to `FusedTiling::f_tile`).
    pub f_tile: usize,
    /// Modeled DRAM traffic of the chosen tiling (bytes).
    pub traffic_bytes: u64,
    /// Tilings fully scored.
    pub evaluated: usize,
    /// Row-tile branches cut by the lower bound.
    pub pruned: usize,
}

fn ceil_div(a: usize, b: usize) -> usize {
    if b == 0 {
        0
    } else {
        a.div_ceil(b)
    }
}

/// Modeled DRAM traffic (bytes) of one tiling, per the module-level model.
///
/// # Errors
///
/// Returns [`TuneError::InvalidConfig`] for a zero field in the shape or a
/// zero tile extent.
pub fn traffic_bytes(
    shape: &HostKernelShape,
    cache_bytes: usize,
    row_tile: usize,
    f_tile: usize,
) -> Result<u64> {
    shape.validate()?;
    if row_tile == 0 || f_tile == 0 {
        return Err(TuneError::InvalidConfig {
            detail: format!("zero tile extent {row_tile} x {f_tile}"),
        });
    }
    let row_tiles = ceil_div(shape.n, row_tile) as u64;
    let f_blocks = ceil_div(shape.f, f_tile) as u64;
    let distinct = row_tile.min(shape.ct) as u64;

    let table = row_tiles
        .saturating_mul(shape.cb as u64)
        .saturating_mul(distinct)
        .saturating_mul(shape.f as u64)
        .saturating_mul(shape.table_elem_bytes as u64);
    let idx = (shape.n as u64)
        .saturating_mul(shape.cb as u64)
        .saturating_mul(2)
        .saturating_mul(1 + f_blocks);

    let working_set = row_tile.min(shape.n).saturating_mul(f_tile.min(shape.f)) * 4
        + 8 * f_tile.min(shape.f) * shape.table_elem_bytes
        + row_tile.min(shape.n) * shape.cb * 2;
    let out_once = (shape.n as u64)
        .saturating_mul(shape.f as u64)
        .saturating_mul(4);
    let out = if working_set <= cache_bytes {
        out_once
    } else {
        out_once.saturating_mul(ceil_div(shape.cb, 8) as u64)
    };

    Ok(table.saturating_add(idx).saturating_add(out))
}

/// The clipped candidate menu for one axis: every candidate below the
/// extent, plus the extent itself so one tile can cover the whole axis.
fn menu(candidates: &[usize], extent: usize) -> Vec<usize> {
    let mut m: Vec<usize> = candidates.iter().copied().filter(|&c| c < extent).collect();
    m.push(extent);
    m
}

/// Admissible traffic lower bound for a fixed row tile over any feature
/// tile in the menu (see the module docs).
fn row_bound(shape: &HostKernelShape, row_tile: usize, widest_f: usize) -> u64 {
    let row_tiles = ceil_div(shape.n, row_tile) as u64;
    let distinct = row_tile.min(shape.ct) as u64;
    let table = row_tiles
        .saturating_mul(shape.cb as u64)
        .saturating_mul(distinct)
        .saturating_mul(shape.f as u64)
        .saturating_mul(shape.table_elem_bytes as u64);
    let idx = (shape.n as u64)
        .saturating_mul(shape.cb as u64)
        .saturating_mul(2)
        .saturating_mul(1 + ceil_div(shape.f, widest_f.max(1)) as u64);
    let out = (shape.n as u64)
        .saturating_mul(shape.f as u64)
        .saturating_mul(4);
    table.saturating_add(idx).saturating_add(out)
}

/// Searches the tile space for the minimum-traffic tiling of a fused host
/// kernel, best-first with exact pruning.
///
/// Ties between tilings of equal traffic go to the larger `row_tile`, then
/// the larger `f_tile` (fewer loop trips for the same memory behavior), so
/// the result is deterministic regardless of visit order.
///
/// # Errors
///
/// Returns [`TuneError::InvalidConfig`] for a degenerate shape or a zero
/// cache size.
pub fn tune_fused_tiles(shape: &HostKernelShape, cache_bytes: usize) -> Result<TileSearchResult> {
    shape.validate()?;
    if cache_bytes == 0 {
        return Err(TuneError::InvalidConfig {
            detail: "cache_bytes must be positive".to_string(),
        });
    }
    let rows = menu(&ROW_TILES, shape.n);
    let fs = menu(&F_TILES, shape.f);
    let widest_f = fs.iter().copied().max().unwrap_or(shape.f);

    // Best-first over row tiles: visit branches in ascending bound order so
    // the incumbent tightens as fast as possible.
    let mut branches: Vec<(u64, usize)> = rows
        .iter()
        .map(|&r| (row_bound(shape, r, widest_f), r))
        .collect();
    branches.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));

    let mut best: Option<TileSearchResult> = None;
    let mut evaluated = 0usize;
    let mut pruned = 0usize;
    for (bound, row_tile) in branches {
        if let Some(ref b) = best {
            if bound >= b.traffic_bytes {
                pruned += 1;
                continue;
            }
        }
        for &f_tile in &fs {
            let traffic = traffic_bytes(shape, cache_bytes, row_tile, f_tile)?;
            evaluated += 1;
            let better = match best {
                None => true,
                Some(ref b) => {
                    traffic < b.traffic_bytes
                        || (traffic == b.traffic_bytes
                            && (row_tile, f_tile) > (b.row_tile, b.f_tile))
                }
            };
            if better {
                best = Some(TileSearchResult {
                    row_tile,
                    f_tile,
                    traffic_bytes: traffic,
                    evaluated: 0,
                    pruned: 0,
                });
            }
        }
    }
    match best {
        Some(mut b) => {
            b.evaluated = evaluated;
            b.pruned = pruned;
            Ok(b)
        }
        None => Err(TuneError::NoLegalMapping {
            detail: format!("empty tile menu for {shape:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serving_shape() -> HostKernelShape {
        // BERT-base FFN1 at batch 8 × seq 512, V = 4, CT = 16, f32 tables.
        HostKernelShape {
            n: 4096,
            cb: 192,
            ct: 16,
            f: 3072,
            table_elem_bytes: 4,
        }
    }

    #[test]
    fn rejects_degenerate_requests() {
        let mut s = serving_shape();
        s.cb = 0;
        assert!(matches!(
            tune_fused_tiles(&s, 1 << 20),
            Err(TuneError::InvalidConfig { .. })
        ));
        assert!(matches!(
            tune_fused_tiles(&serving_shape(), 0),
            Err(TuneError::InvalidConfig { .. })
        ));
        assert!(traffic_bytes(&serving_shape(), 1 << 20, 0, 64).is_err());
        assert!(traffic_bytes(&serving_shape(), 1 << 20, 64, 0).is_err());
    }

    #[test]
    fn search_matches_exhaustive_enumeration() {
        for (shape, cache) in [
            (serving_shape(), 1usize << 20),
            (serving_shape(), 32 << 10),
            (
                HostKernelShape {
                    n: 300,
                    cb: 16,
                    ct: 64,
                    f: 100,
                    table_elem_bytes: 1,
                },
                256 << 10,
            ),
            (
                HostKernelShape {
                    n: 7,
                    cb: 3,
                    ct: 2,
                    f: 5,
                    table_elem_bytes: 4,
                },
                4 << 10,
            ),
        ] {
            let got = tune_fused_tiles(&shape, cache).expect("search");
            let mut best: Option<(u64, usize, usize)> = None;
            for &r in &menu(&ROW_TILES, shape.n) {
                for &f in &menu(&F_TILES, shape.f) {
                    let t = traffic_bytes(&shape, cache, r, f).expect("traffic");
                    let better = match best {
                        None => true,
                        Some((bt, br, bf)) => t < bt || (t == bt && (r, f) > (br, bf)),
                    };
                    if better {
                        best = Some((t, r, f));
                    }
                }
            }
            let (bt, br, bf) = best.expect("nonempty menu");
            assert_eq!(
                (got.traffic_bytes, got.row_tile, got.f_tile),
                (bt, br, bf),
                "shape {shape:?} cache {cache}"
            );
        }
    }

    #[test]
    fn bound_prunes_branches() {
        let r = tune_fused_tiles(&serving_shape(), 1 << 20).expect("search");
        assert!(r.pruned > 0, "no branches pruned: {r:?}");
        let full_menu = menu(&ROW_TILES, 4096).len() * menu(&F_TILES, 3072).len();
        assert!(
            r.evaluated < full_menu,
            "evaluated {} of {full_menu}",
            r.evaluated
        );
    }

    #[test]
    fn bigger_cache_never_increases_optimal_traffic() {
        let shape = serving_shape();
        let mut prev = u64::MAX;
        for cache in [16 << 10, 64 << 10, 256 << 10, 1 << 20, 8 << 20] {
            let r = tune_fused_tiles(&shape, cache).expect("search");
            assert!(
                r.traffic_bytes <= prev,
                "cache {cache}: {} > previous {prev}",
                r.traffic_bytes
            );
            prev = r.traffic_bytes;
        }
    }

    #[test]
    fn cache_size_moves_the_optimum() {
        // On an 8 MiB cache the feature tile is clipped so the output block
        // stays resident; on a cache big enough for the whole problem the
        // residency constraint vanishes and the index term pushes the
        // feature tile wide open. The two optima must differ, and each must
        // keep its own working set within its residency regime.
        let shape = serving_shape();
        let roomy = tune_fused_tiles(&shape, 8 << 20).expect("search");
        let huge = tune_fused_tiles(&shape, 1 << 30).expect("search");
        assert_ne!(
            (roomy.row_tile, roomy.f_tile),
            (huge.row_tile, huge.f_tile),
            "roomy {roomy:?} vs huge {huge:?}"
        );
        assert!(
            roomy.row_tile.min(shape.n) * roomy.f_tile.min(shape.f) * 4 <= 8 << 20,
            "roomy pick not cache-resident: {roomy:?}"
        );
        assert!(huge.f_tile > roomy.f_tile, "huge {huge:?} roomy {roomy:?}");
        // The chosen tiling is never worse than the kernel defaults, at any
        // cache size.
        for cache in [16 << 10, 1 << 20, 8 << 20] {
            let picked = tune_fused_tiles(&shape, cache).expect("search");
            let default_traffic = traffic_bytes(&shape, cache, 256, 768).expect("traffic");
            assert!(picked.traffic_bytes <= default_traffic, "cache {cache}");
        }
    }
}
