//! Branch-and-bound search over the P1–P4 mapping space.
//!
//! The search tree is [`crate::space`]'s — **P1** pair → `N_m` → `F_m` →
//! `CB_m` → traversal → load scheme. This module descends it best-first
//! and prunes a subtree as soon as an *admissible lower bound* on every
//! completion's [`hierarchical_cost`](crate::model::hierarchical_cost)
//! already exceeds the incumbent. Because the bounds never overestimate,
//! the search returns a mapping whose cost equals the optimum over the
//! materialised list ([`crate::space::kernel_candidates`]) exactly (the
//! proptest oracle in `tests/properties.rs` asserts bit-identical totals).
//!
//! # Lower-bound derivation (DESIGN.md §12)
//!
//! With the P1 pair fixed, `t_sub-lut` is exact. Every remaining term of
//! the hierarchical model is bounded from below by combining two
//! monotonicities of the Eq. 8 bandwidth curve: total streamed bytes can
//! only grow (revisits multiply, never divide), and effective bandwidth
//! only improves with access granularity. Per term:
//!
//! * **reduce** — `RCount` is fixed by the pair; the short-loop stall
//!   `1 + OV/F_m` is minimized by the largest legal `F_m = F_s` until
//!   `F_m` is assigned, after which it is exact.
//! * **index / output** — streamed bytes are at least the s-tile's own
//!   footprint (the best traversal loads each tile exactly once), and the
//!   access granularity is at most the largest still-assignable m-tile, so
//!   `ideal_time(min_bytes, max_granularity)` is admissible. Once the
//!   trips and traversal are fixed the term is exact.
//! * **LUT** — the minimum over the still-legal load schemes of each
//!   scheme's own bound (static: one full-table load, exact; coarse: at
//!   least `CB·CT·F_s` bytes at a chunk no larger than WRAM or the m-tile;
//!   fine: exactly `N_s·CB·F_s` bytes at granularity at most `F_m`).
//! * **row activation** — total streamed bytes divided by the row size is
//!   a volume floor on rows opened; crossing is bounded by zero.
//!
//! Pruning uses a `1 − 1e-12` relative guard so float rounding in the
//! bound arithmetic can never discard a subtree whose true cost ties or
//! beats the incumbent — exactness is preserved bit for bit.

use pimdl_sim::config::PlatformConfig;
use pimdl_sim::cost::reduce_time_s;
use pimdl_sim::{LoadScheme, LutWorkload, Mapping, MicroKernel, TraversalOrder};

use crate::model::{hierarchical_cost_with, sub_lut_time_s, HierBreakdown, MemHierarchy};
use crate::space::{
    leaf_kernels, legal_pairs, mapping_of, static_fits, Partial, SchemeClass, Tiling, FINE_THREADS,
};
use crate::{Result, TuneError};

/// Relative slack applied before pruning: a subtree is cut only when its
/// lower bound exceeds the incumbent by more than accumulated-rounding
/// noise, so pruning can never change the returned optimum.
const PRUNE_GUARD: f64 = 1.0 - 1e-12;

/// Outcome of a branch-and-bound run.
#[derive(Debug, Clone, PartialEq)]
pub struct BnbOutcome {
    /// The optimal mapping.
    pub mapping: Mapping,
    /// Hierarchical prediction for it.
    pub predicted: HierBreakdown,
    /// Leaf candidates actually scored (the pruning headline: compare
    /// against the exhaustive enumerator's `evaluated`).
    pub evaluated: usize,
    /// Subtrees cut by the bound before reaching any leaf.
    pub pruned_subtrees: usize,
}

/// The best candidate offered so far and how many were scored: the one
/// "strictly better" fold every search (the descent here, the reference
/// enumeration in [`crate::tuner`]) runs its candidates through.
#[derive(Debug, Default)]
pub(crate) struct Incumbent {
    best: Option<(Mapping, HierBreakdown)>,
    evaluated: usize,
}

impl Incumbent {
    fn total_s(&self) -> Option<f64> {
        self.best.as_ref().map(|(_, b)| b.total_s())
    }

    /// Scores `mapping` if it is legal; it replaces the incumbent only when
    /// strictly better, so of equal-cost candidates the first offered wins.
    pub(crate) fn offer(
        &mut self,
        hier: &MemHierarchy,
        platform: &PlatformConfig,
        workload: &LutWorkload,
        mapping: Mapping,
    ) {
        let Ok(scored) = hierarchical_cost_with(hier, platform, workload, &mapping) else {
            return;
        };
        self.evaluated += 1;
        if self.total_s().is_none_or(|best| scored.total_s() < best) {
            self.best = Some((mapping, scored));
        }
    }

    /// The winner, its prediction and the number of candidates scored.
    pub(crate) fn into_best(
        self,
        workload: &LutWorkload,
    ) -> Result<(Mapping, HierBreakdown, usize)> {
        let evaluated = self.evaluated;
        let (mapping, predicted) = self.best.ok_or_else(|| TuneError::NoLegalMapping {
            detail: format!(
                "all {evaluated} scored candidates were illegal for ({}, {}, {}, {})",
                workload.n, workload.cb, workload.ct, workload.f
            ),
        })?;
        Ok((mapping, predicted, evaluated))
    }
}

/// Per-pair search context: everything the bound function needs.
struct PairCtx<'a> {
    platform: &'a PlatformConfig,
    w: &'a LutWorkload,
    hier: &'a MemHierarchy,
    n_stile: usize,
    f_stile: usize,
    sub_lut_s: f64,
    /// `CB·CT·F_s`: static scheme's buffer and the coarse volume floor.
    lut_stile_bytes: usize,
    static_feasible: bool,
    coarse_feasible: bool,
}

impl<'a> PairCtx<'a> {
    /// The context of P1 pair `(n_stile, f_stile)`. `t_sub-lut` depends
    /// only on the pair, so any kernel prices it.
    fn new(
        platform: &'a PlatformConfig,
        w: &'a LutWorkload,
        hier: &'a MemHierarchy,
        (n_stile, f_stile): (usize, usize),
    ) -> Self {
        let probe = mapping_of(n_stile, f_stile, probe_kernel());
        let lut_stile_bytes = w.cb * w.ct * f_stile;
        PairCtx {
            platform,
            w,
            hier,
            n_stile,
            f_stile,
            sub_lut_s: sub_lut_time_s(platform, w, &probe),
            lut_stile_bytes,
            static_feasible: static_fits(w, platform, f_stile),
            coarse_feasible: w.ct <= platform.wram_bytes,
        }
    }

    /// Admissible lower bound on the hierarchical total of every
    /// completion of `p` (see the module docs for the derivation).
    fn bound(&self, p: Partial) -> f64 {
        let (non_lut, lut_lb) = self.bound_parts(p);
        non_lut + lut_lb
    }

    /// [`Self::bound`] split as `(everything-but-LUT, LUT-term bound)`, so
    /// the leaf level can swap in a scheme-class-specific LUT bound.
    fn bound_parts(&self, p: Partial) -> (f64, f64) {
        let w = self.w;
        let lm = &self.platform.local_mem;
        let elem = w.index_elem_bytes();
        let n_m = p.n_m.unwrap_or(self.n_stile);
        let f_m = p.f_m.unwrap_or(self.f_stile);
        let cb_m = p.cb_m.unwrap_or(w.cb);

        // Reduce: count exact, stall minimized by the largest legal F_m.
        let reduce_lb = reduce_time_s(self.platform, w, (self.n_stile, self.f_stile), f_m);

        let index_floor = (self.n_stile * w.cb * elem) as f64;
        let output_floor = (self.n_stile * self.f_stile * 4) as f64;
        let (index_lb, output_lb) = if p.cb_m.is_some() {
            // Trips are fully determined; min loads over the (possibly
            // still free) traversal choice are exact products.
            let trips = (
                (self.n_stile / n_m) as u64,
                (self.f_stile / f_m) as u64,
                (w.cb / cb_m) as u64,
            );
            let index_tile = (n_m * cb_m * elem) as f64;
            let output_tile = (n_m * f_m * 4) as f64;
            let (index_loads, output_loads) = match p.traversal {
                Some(t) => (
                    t.load_count(trips, (true, false, true)),
                    t.load_count(trips, (true, true, false)),
                ),
                None => {
                    let mut idx = u64::MAX;
                    let mut out = u64::MAX;
                    for t in TraversalOrder::all() {
                        idx = idx.min(t.load_count(trips, (true, false, true)));
                        out = out.min(t.load_count(trips, (true, true, false)));
                    }
                    (idx, out)
                }
            };
            (
                lm.ideal_time_s(index_loads as f64 * index_tile, index_tile),
                lm.ideal_time_s(2.0 * output_loads as f64 * output_tile, output_tile),
            )
        } else {
            // Volume floor at the best still-assignable granularity.
            let index_gran = (n_m * cb_m * elem) as f64;
            let output_gran = (n_m * f_m * 4) as f64;
            (
                lm.ideal_time_s(index_floor, index_gran),
                lm.ideal_time_s(2.0 * output_floor, output_gran),
            )
        };

        // LUT: minimum over the still-legal scheme classes.
        let mut lut_lb = self.lut_class_lb(SchemeClass::Fine, f_m, cb_m);
        let mut lut_bytes_floor = (self.n_stile * w.cb * self.f_stile) as f64;
        for (class, feasible) in [
            (SchemeClass::Static, self.static_feasible),
            (SchemeClass::Coarse, self.coarse_feasible),
        ] {
            if feasible {
                lut_lb = lut_lb.min(self.lut_class_lb(class, f_m, cb_m));
                lut_bytes_floor = lut_bytes_floor.min(self.lut_stile_bytes as f64);
            }
        }

        // Row activation: volume floor over all three streams; crossing
        // is bounded by zero.
        let stream_bytes = index_floor + 2.0 * output_floor + lut_bytes_floor;
        let rowact_lb =
            stream_bytes / self.hier.row_buffer_bytes as f64 * self.hier.row_activation_s;

        (
            self.sub_lut_s + index_lb + output_lb + reduce_lb + rowact_lb,
            lut_lb,
        )
    }

    /// Lower bound on the LUT term of every `class` leaf whose m-tiles are
    /// at most `(f_m, cb_m)` (module docs, **LUT**).
    fn lut_class_lb(&self, class: SchemeClass, f_m: usize, cb_m: usize) -> f64 {
        let lm = &self.platform.local_mem;
        let lut_floor = self.lut_stile_bytes as f64;
        match class {
            SchemeClass::Static => lm.ideal_time_s(lut_floor, lut_floor),
            SchemeClass::Coarse => {
                let chunk_max = (cb_m * self.w.ct * f_m).min(self.platform.wram_bytes);
                lm.ideal_time_s(lut_floor, chunk_max as f64)
            }
            SchemeClass::Fine => {
                let fine_total = self.n_stile * self.w.cb * self.f_stile;
                lm.ideal_time_s(fine_total as f64, f_m as f64)
            }
        }
    }

    /// Structural WRAM cut, decidable once the three m-tiles are set: even
    /// the smallest scheme buffer (a fine-grain single-feature gather)
    /// does not fit beside the index and output tiles.
    fn overflows_wram(&self, p: Partial) -> bool {
        let (Some(n_m), Some(f_m), Some(cb_m), None) = (p.n_m, p.f_m, p.cb_m, p.traversal) else {
            return false;
        };
        let tiles_bytes = n_m * cb_m * self.w.index_elem_bytes() + n_m * f_m * 4;
        let min_buf = FINE_THREADS.min(self.w.ct).min(self.lut_stile_bytes);
        tiles_bytes + min_buf > self.platform.wram_bytes
    }
}

/// Should the subtree bounded by `lb` be cut against `incumbent`?
fn prunes(lb: f64, incumbent: Option<f64>) -> bool {
    match incumbent {
        Some(best) => lb * PRUNE_GUARD > best,
        None => false,
    }
}

/// Sorts `(bound, value)` children best-first so the dive finds a strong
/// incumbent immediately (bounds are finite floats by construction).
fn sort_children<T>(children: &mut [(f64, T)]) {
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
}

/// Branch-and-bound search for the mapping minimizing
/// [`hierarchical_cost`](crate::model::hierarchical_cost). Walks exactly
/// the candidate set of [`crate::space::kernel_candidates`] for every
/// legal P1 pair, pruning with admissible bounds.
///
/// # Errors
///
/// Returns [`TuneError::NoLegalMapping`] if no candidate validates.
pub fn search(platform: &PlatformConfig, workload: &LutWorkload) -> Result<BnbOutcome> {
    let pairs = legal_pairs(workload, platform)?;

    let hier = MemHierarchy::for_platform(platform);
    let mut incumbent = Incumbent::default();
    let mut pruned_subtrees = 0usize;

    // Root level: order the P1 pairs by their pair-level bound.
    let mut roots: Vec<(f64, PairCtx)> = pairs
        .into_iter()
        .map(|pair| {
            let ctx = PairCtx::new(platform, workload, &hier, pair);
            (ctx.bound(Partial::default()), ctx)
        })
        .collect();
    sort_children(&mut roots);

    for (lb, ctx) in &roots {
        if prunes(*lb, incumbent.total_s()) {
            pruned_subtrees += 1;
            continue;
        }
        descend(
            ctx,
            Partial::default(),
            &mut incumbent,
            &mut pruned_subtrees,
        );
    }

    let (mapping, predicted, evaluated) = incumbent.into_best(workload)?;
    Ok(BnbOutcome {
        mapping,
        predicted,
        evaluated,
        pruned_subtrees,
    })
}

/// The per-pair optimum of one P1 pair: a raw point on the pair's
/// capacity ↔ latency tradeoff (larger `F_s-tile` replicates more LUT
/// bytes per PE but buys more N-parallelism). The per-layer capacity
/// allocator ([`crate::alloc`]) consumes the Pareto frontier of these.
#[derive(Debug, Clone, PartialEq)]
pub struct PairBest {
    /// `N_s-tile` of the pair.
    pub n_stile: usize,
    /// `F_s-tile` of the pair.
    pub f_stile: usize,
    /// Per-PE sub-LUT footprint `CB·CT·F_s` (bytes).
    pub per_pe_lut_bytes: usize,
    /// Best mapping within the pair.
    pub mapping: Mapping,
    /// Hierarchical prediction for it.
    pub predicted: HierBreakdown,
}

/// Branch-and-bound optimum *within each* legal P1 pair (no cross-pair
/// pruning — every pair's own best is needed, not just the global one).
/// Pairs with no legal kernel are omitted; the result is empty only when
/// Eq. 5 has no solution at all.
///
/// # Errors
///
/// Returns [`TuneError::NoLegalMapping`] if Eq. 5 has no solution.
pub fn pair_bests(platform: &PlatformConfig, workload: &LutWorkload) -> Result<Vec<PairBest>> {
    let pairs = legal_pairs(workload, platform)?;
    let hier = MemHierarchy::for_platform(platform);
    let mut out = Vec::with_capacity(pairs.len());
    for (n_s, f_s) in pairs {
        let ctx = PairCtx::new(platform, workload, &hier, (n_s, f_s));
        let mut incumbent = Incumbent::default();
        descend(&ctx, Partial::default(), &mut incumbent, &mut 0);
        if let Some((mapping, predicted)) = incumbent.best {
            out.push(PairBest {
                n_stile: n_s,
                f_stile: f_s,
                per_pe_lut_bytes: ctx.lut_stile_bytes,
                mapping,
                predicted,
            });
        }
    }
    Ok(out)
}

/// Placeholder micro-kernel for pair-level probes: `sub_lut_time_s` and
/// `stile_sizes` never read the kernel fields.
fn probe_kernel() -> MicroKernel {
    MicroKernel {
        n_mtile: 1,
        f_mtile: 1,
        cb_mtile: 1,
        traversal: TraversalOrder::Nfc,
        load_scheme: LoadScheme::FineGrain {
            f_load: 1,
            threads: FINE_THREADS,
        },
    }
}

/// Depth-first descent below `node` within one P1 pair: bound the children
/// of the first unset level, visit them best-first and cut those the
/// incumbent already beats; under a complete tiling, score the P4 leaves.
fn descend(ctx: &PairCtx, node: Partial, incumbent: &mut Incumbent, pruned: &mut usize) {
    if let Some(tiling) = node.complete() {
        return score_leaves(ctx, node, tiling, incumbent, pruned);
    }
    let mut children: Vec<(f64, Partial)> = node
        .children(ctx.w, ctx.n_stile, ctx.f_stile)
        .into_iter()
        .map(|child| (ctx.bound(child), child))
        .collect();
    sort_children(&mut children);
    for (lb, child) in children {
        if prunes(lb, incumbent.total_s()) || ctx.overflows_wram(child) {
            *pruned += 1;
            continue;
        }
        descend(ctx, child, incumbent, pruned);
    }
}

/// Scores the load-scheme leaves under a complete tiling, class by class.
fn score_leaves(
    ctx: &PairCtx,
    node: Partial,
    tiling @ (_, f_m, cb_m, _): Tiling,
    incumbent: &mut Incumbent,
    pruned: &mut usize,
) {
    // Everything but the LUT term is exact at this depth; swap in each
    // class's own LUT floor and gate the whole class on it before
    // enumerating its chunk factors (the classes dominate the leaf count).
    // Every gate compares against the incumbent on entry.
    let on_entry = incumbent.total_s();
    let (non_lut_lb, _) = ctx.bound_parts(node);
    for class in SchemeClass::ALL {
        // Static is a single leaf: scoring it costs no more than bounding it.
        let gated = !matches!(class, SchemeClass::Static);
        if gated && prunes(non_lut_lb + ctx.lut_class_lb(class, f_m, cb_m), on_entry) {
            *pruned += 1;
            continue;
        }
        for kernel in leaf_kernels(class, ctx.w, ctx.platform, ctx.f_stile, tiling) {
            let mapping = mapping_of(ctx.n_stile, ctx.f_stile, kernel);
            incumbent.offer(ctx.hier, ctx.platform, ctx.w, mapping);
        }
    }
}
