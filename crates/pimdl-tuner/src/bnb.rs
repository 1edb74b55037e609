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
//! A leaf is priced as its tiling's exact price plus its LUT stream
//! ([`crate::model::TilingPrice`]): under a complete tiling the descent
//! computes everything the load scheme does not move once, then prices
//! each P4 leaf by its WRAM fit and its LUT stream alone. That is the
//! price `hierarchical_cost` returns after `Mapping::validate`, to the bit.
//! Two kinds of leaf are counted and not priced, because neither can beat
//! the strictly-better incumbent. A leaf whose **floor** is over the bar:
//! each gated leaf kind (the single-chunk coarse leaf, the multi-chunk
//! coarse leaves, the fine leaves) floors at the tiling's exact non-LUT
//! price plus its true LUT volume at its coarsest access, and most leaves
//! a search reaches are over it. And a repeated chunk size: a multi-chunk
//! coarse leaf's stream, and so its price, depends on `cb_load·f_load`
//! alone, so each size is priced once per tiling. Either way the leaf is
//! still offered and scored, so the visit order and every count are those
//! of a search that priced it. Below the root the descent allocates
//! nothing: the tiling menus are built once per search, and children and
//! chunk sizes go to two reused buffers.
//!
//! Each term of a bound and of a leaf's price is computed only when one of
//! its own inputs changes (DESIGN.md §12.1): the sub-LUT transfers, the
//! static class's LUT bound and the branching menus per P1 pair
//! ([`PairCtx`]); trip counts, tile bytes and their Eq. 8 rates, the reduce
//! term, the other LUT class bounds and the LUT room per node ([`Node`]),
//! each child's derived from its parent's by recomputing only what its
//! m-tile moves; the tiles' row terms per load and the coarse leaf counts
//! per m-tile node ([`MTileNode`]), shared by its six traversal children
//! and their leaves; the index and output streams per traversal, read by
//! the child's bound and by its tiling's price alike. Each is the same
//! function of the same inputs, summed in the same order, so every bound
//! and price is the bits a from-scratch computation gives.
//!
//! # Lower bounds
//!
//! With the P1 pair fixed, `t_sub-lut` is exact. Every other bound is a
//! `pimdl_sim::cost` term function evaluated at the subtree's most
//! favourable argument — unset m-tiles at their largest, an unset
//! traversal at its fewest loads, each LUT class at its cheapest member,
//! the row terms at their volume floor — so admissibility is by
//! construction; DESIGN.md §12.2 names the corner per term, and the leaf
//! floors (one per leaf kind under a complete tiling). Pruning uses a
//! `1 − 1e-12` relative guard, the only slack, so float rounding in the
//! bound arithmetic can never discard a subtree whose true cost ties or
//! beats the incumbent — exactness is preserved bit for bit.

use pimdl_sim::config::PlatformConfig;
use pimdl_sim::cost::{
    gathered_entries, index_tile_bytes, lut_tile_bytes, output_tile_bytes, INDEX_USES, LUT_USES,
    OUTPUT_USES,
};
use pimdl_sim::{LoadScheme, LutWorkload, Mapping, TraversalOrder};

use crate::model::{
    tile_loads, HierBreakdown, MTilePrice, PairPrice, TileRows, TileStreams, TilingPrice,
};
use crate::space::{
    coarse_leaf_counts, kernel_of, leaf_schemes, legal_pairs, mapping_of, ChunkMenus, Menus,
    PairMenus, Partial, SchemeClass, Tiling, FINE_THREADS,
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
    /// Legal leaf candidates scored (the pruning headline: compare
    /// against the exhaustive enumerator's `evaluated`): every legal leaf
    /// of a class the class gate let through, whether priced or counted
    /// without a price (its floor over the bar, or its chunk size already
    /// priced under the tiling).
    pub evaluated: usize,
    /// Subtrees cut by the bound before reaching any leaf.
    pub pruned_subtrees: usize,
}

/// The best candidate offered so far and how many were offered and
/// scored: the one "strictly better" fold every search (the descent here,
/// the reference enumeration in [`crate::tuner`]) runs its priced
/// candidates through.
#[derive(Debug, Default)]
pub(crate) struct Incumbent {
    best: Option<(Mapping, HierBreakdown)>,
    /// The total a candidate must beat strictly: the best's, or until a
    /// candidate beats it, one found outside this search (by the leaner
    /// P1 pairs of [`pair_frontier`]).
    bar: Option<f64>,
    /// Candidates offered, legal or not.
    offered: usize,
    /// Legal candidates scored.
    evaluated: usize,
}

impl Incumbent {
    /// Takes `mapping` with its price, `None` if it is illegal; a legal one
    /// replaces the incumbent only when strictly better, so of equal-cost
    /// candidates the first offered wins.
    pub(crate) fn offer(&mut self, mapping: Mapping, scored: Option<HierBreakdown>) {
        self.offered += 1;
        let Some(scored) = scored else {
            return;
        };
        self.evaluated += 1;
        let total = scored.total_s();
        if self.bar.is_none_or(|bar| total < bar) {
            self.best = Some((mapping, scored));
            self.bar = Some(total);
        }
    }

    /// Counts `offered` candidates known not to beat the bar, `fits` of
    /// them legal, without taking any: [`Self::offer`] would have dropped
    /// them too.
    fn count(&mut self, offered: usize, fits: usize) {
        self.offered += offered;
        self.evaluated += fits;
    }

    /// The winner, its prediction and the number of candidates scored.
    pub(crate) fn into_best(
        self,
        platform: &PlatformConfig,
        workload: &LutWorkload,
    ) -> Result<(Mapping, HierBreakdown, usize)> {
        let (mapping, predicted) = self.best.ok_or_else(|| TuneError::NoLegalMapping {
            detail: format!(
                "none of the {} candidates offered fits {} B of WRAM for ({}, {}, {}, {})",
                self.offered, platform.wram_bytes, workload.n, workload.cb, workload.ct, workload.f
            ),
        })?;
        Ok((mapping, predicted, self.evaluated))
    }
}

/// Per-pair search context: the menus every node of the pair branches on,
/// and the terms of the bound and of the leaf price that the P1 pair alone
/// fixes, computed once per pair.
struct PairCtx<'a> {
    platform: &'a PlatformConfig,
    w: &'a LutWorkload,
    n_stile: usize,
    f_stile: usize,
    /// The search's menus, for the chunk menus of each m-tile node.
    menus: &'a Menus,
    /// The `N_m`, `F_m` and `CB_m` menus of the pair.
    pair_menus: PairMenus<'a>,
    /// The sub-LUT transfers every leaf's price starts from.
    price: PairPrice<'a>,
    /// `t_sub-lut` (Eqs. 3–5): exact for the pair.
    sub_lut_s: f64,
    /// Row-activation floor of the pair's streams (crossing floors at 0).
    rowact_lb: f64,
    /// `CB·CT·F_s`: static scheme's buffer and the coarse volume floor.
    lut_stile_bytes: usize,
    /// `N_s·CB·F_s`: the fine-grain LUT volume.
    gathered: usize,
    /// Smallest LUT buffer any scheme needs.
    min_lut_buffer: usize,
    /// The static class's LUT bound, whatever the m-tiles.
    static_lb: f64,
    static_feasible: bool,
    coarse_feasible: bool,
}

impl<'a> PairCtx<'a> {
    /// The context of P1 pair `(n_stile, f_stile)` in a search over `menus`.
    fn new(
        platform: &'a PlatformConfig,
        w: &'a LutWorkload,
        pair @ (n_stile, f_stile): (usize, usize),
        menus: &'a Menus,
    ) -> Self {
        // Smallest buffer per class: the sub-LUT itself (static), a
        // one-entry chunk (coarse), a single-feature gather per thread.
        let lut_stile_bytes = lut_tile_bytes(w, w.cb, f_stile);
        let min_chunk_bytes = lut_tile_bytes(w, 1, 1);
        let static_feasible = lut_stile_bytes <= platform.wram_bytes;
        let coarse_feasible = min_chunk_bytes <= platform.wram_bytes;
        // Row activation at its volume floor: each s-tile streamed once
        // (the output loaded and stored) plus the leanest LUT volume.
        let gathered = gathered_entries(w, pair);
        let mut lut_floor = gathered;
        if static_feasible || coarse_feasible {
            lut_floor = lut_floor.min(lut_stile_bytes);
        }
        let stream_bytes = index_tile_bytes(w, n_stile, w.cb) as f64
            + 2.0 * output_tile_bytes(n_stile, f_stile) as f64
            + lut_floor as f64;
        let price = PairPrice::new(platform, w, pair);
        PairCtx {
            platform,
            w,
            n_stile,
            f_stile,
            menus,
            pair_menus: menus.of_pair(w, pair),
            price,
            sub_lut_s: price.sub_lut.sub_lut_total_s(),
            rowact_lb: platform.mem_hierarchy().volume_floor_s(stream_bytes),
            lut_stile_bytes,
            gathered,
            min_lut_buffer: FINE_THREADS.min(min_chunk_bytes).min(lut_stile_bytes),
            static_lb: (platform.local_mem)
                .ideal_time_s(lut_stile_bytes as f64, lut_stile_bytes as f64),
            static_feasible,
            coarse_feasible,
        }
    }

    /// The m-tiles of `p`'s corner: its unset m-tiles at their largest
    /// (fewest trips, best granularity, least stall).
    fn corner(&self, p: Partial) -> (usize, usize, usize) {
        (
            p.n_m.unwrap_or(self.n_stile),
            p.f_m.unwrap_or(self.f_stile),
            p.cb_m.unwrap_or(self.w.cb),
        )
    }

    /// The terms of the pair's root, every m-tile at its corner, from
    /// scratch: each node below derives its own from its parent's.
    fn root(&self) -> Node {
        Node::new(self, self.corner(Partial::default()))
    }

    /// `p`'s [`Node::bound`] split as `(everything-but-LUT, LUT-term
    /// bound)`, from scratch: [`Node::new`] at `p`'s corner, then its
    /// traversal's streams (an unset traversal at each stream's own fewest
    /// loads). The oracle the derived nodes' bounds are held to.
    #[cfg(test)]
    fn bound_parts(&self, p: Partial) -> (f64, f64) {
        let node = Node::new(self, self.corner(p));
        (node.non_lut_lb(self, p.traversal).0, node.lut_lb)
    }

    /// Structural WRAM cut, decidable once the three m-tiles of `p` are set
    /// (`node` holds their terms): even the smallest scheme buffer does not
    /// fit beside the index and output tiles.
    fn overflows_wram(&self, p: Partial, node: &Node) -> bool {
        p.mtiles().is_some()
            && node.price.tiles_bytes() + self.min_lut_buffer > self.platform.wram_bytes
    }

    /// The fine class's LUT bound at `F_m = f_m`: the gathered volume at
    /// `f_load = F_m` (DESIGN.md §12.2, **LUT**).
    fn fine_lb(&self, f_m: usize) -> f64 {
        (self.platform.local_mem).ideal_time_s(self.gathered as f64, f_m as f64)
    }

    /// WRAM bytes left beside the index and output m-tiles `price` prices.
    fn room(&self, price: &MTilePrice) -> usize {
        self.platform.wram_bytes.saturating_sub(price.tiles_bytes())
    }
}

/// The terms of the bound and of the leaf price that one node's m-tiles
/// `(N_m, F_m, CB_m)` fix within its pair, whatever the traversal: trip
/// counts, tile bytes and rates, the reduce term, the LUT class bounds and
/// the LUT room. A node above the m-tile level holds them at its corner
/// (its unset m-tiles at their largest) for its bound, and each child
/// derives its own from them ([`Self::child`]). At the traversal level they
/// are read by the node's six children, their class gates, leaf floors and
/// leaves.
#[derive(Debug, Clone, Copy)]
struct Node {
    price: MTilePrice,
    /// `CB_m·CT·F_m`: the single-chunk coarse leaf's buffer.
    chunk: usize,
    /// WRAM bytes left beside the index and output m-tiles: the largest
    /// LUT buffer a leaf under the node may hold.
    room: usize,
    /// LUT bound of every coarse leaf under the node: the sub-LUT's volume
    /// at the largest chunk (DESIGN.md §12.2, **LUT**).
    coarse_lb: f64,
    /// LUT bound of every fine leaf: the gathered volume at `f_load = F_m`.
    fine_lb: f64,
    /// The least LUT bound over the pair's feasible classes.
    lut_lb: f64,
}

impl Node {
    /// The terms of m-tiles `mtiles` in `ctx`'s pair, from scratch.
    fn new(ctx: &PairCtx, mtiles @ (_, f_m, _): (usize, usize, usize)) -> Self {
        Node::with_chunk(ctx, MTilePrice::new(&ctx.price, mtiles), ctx.fine_lb(f_m))
    }

    /// The terms of the child at m-tiles `mtiles` (its corner) of the node
    /// these are the terms of: only what the m-tile the child sets moves is
    /// recomputed. An `N_m` child moves `T_n`, the index and output tiles
    /// and so the room; an `F_m` child `T_f`, the output tile, the reduce
    /// term, the fine bound and the chunk; a `CB_m` child `T_cb`, the index
    /// tile and the chunk. A child whose choice is its parent's corner has
    /// its parent's terms.
    fn child(&self, ctx: &PairCtx, mtiles @ (n_m, f_m, cb_m): (usize, usize, usize)) -> Self {
        let pair = &ctx.price;
        let (corner_n, corner_f, corner_cb) = self.price.mtiles;
        let node = if n_m != corner_n {
            let price = self.price.with_n_m(pair, n_m);
            Node {
                price,
                room: ctx.room(&price),
                ..*self
            }
        } else if f_m != corner_f {
            Node::with_chunk(ctx, self.price.with_f_m(pair, f_m), ctx.fine_lb(f_m))
        } else if cb_m != corner_cb {
            Node::with_chunk(ctx, self.price.with_cb_m(pair, cb_m), self.fine_lb)
        } else {
            *self
        };
        debug_assert_eq!(node.price.mtiles, mtiles);
        node
    }

    /// The terms of m-tiles whose price is `price` and whose fine bound is
    /// `fine_lb`: the chunk, the coarse bound, the least class bound and
    /// the room.
    fn with_chunk(ctx: &PairCtx, price: MTilePrice, fine_lb: f64) -> Self {
        let (_, f_m, cb_m) = price.mtiles;
        let chunk = lut_tile_bytes(ctx.w, cb_m, f_m);
        let coarse_lb = ctx.platform.local_mem.ideal_time_s(
            ctx.lut_stile_bytes as f64,
            chunk.min(ctx.platform.wram_bytes) as f64,
        );
        // LUT: minimum over the still-legal scheme classes.
        let mut lut_lb = fine_lb;
        for (lb, feasible) in [
            (ctx.static_lb, ctx.static_feasible),
            (coarse_lb, ctx.coarse_feasible),
        ] {
            if feasible {
                lut_lb = lut_lb.min(lb);
            }
        }
        Node {
            price,
            chunk,
            room: ctx.room(&price),
            coarse_lb,
            fine_lb,
            lut_lb,
        }
    }

    /// Admissible lower bound on the hierarchical total of every completion
    /// of the node these are the corner terms of, its traversal unset
    /// (DESIGN.md §12.2).
    fn bound(&self, ctx: &PairCtx) -> f64 {
        self.non_lut_lb(ctx, None).0 + self.lut_lb
    }

    /// The LUT bound of every `class` leaf under the node.
    fn class_lb(&self, ctx: &PairCtx, class: SchemeClass) -> f64 {
        match class {
            SchemeClass::Static => ctx.static_lb,
            SchemeClass::Coarse => self.coarse_lb,
            SchemeClass::Fine => self.fine_lb,
        }
    }

    /// The non-LUT part of the bound of the node's child walked in
    /// `traversal` order, or of the node itself with each stream at its
    /// fewest loads (`None`), with the index and output streams it read:
    /// under a complete tiling they are its leaves' exact stream terms.
    fn non_lut_lb(&self, ctx: &PairCtx, traversal: Option<TraversalOrder>) -> (f64, TileStreams) {
        let trips = self.price.trips;
        let loads = match traversal {
            Some(order) => tile_loads(order, trips),
            None => (
                TraversalOrder::fewest_loads(trips, INDEX_USES),
                TraversalOrder::fewest_loads(trips, OUTPUT_USES),
            ),
        };
        let streams = self.price.streams(loads);
        let non_lut = ctx.sub_lut_s
            + streams.index_s
            + streams.output_s
            + self.price.reduce_s
            + ctx.rowact_lb;
        (non_lut, streams)
    }
}

/// An m-tile node at the traversal level: its [`Node`] terms, its tiles'
/// rows per load, the chunk menus its leaves enumerate, and its coarse leaf
/// counts once first needed. Its six tilings share all four.
struct MTileNode<'m> {
    terms: Node,
    rows: TileRows,
    chunks: ChunkMenus<'m>,
    /// [`coarse_leaf_counts`] at the node's LUT room.
    coarse_counts: Option<(usize, usize)>,
}

/// Should the subtree bounded by `lb` be cut against `incumbent`?
pub(crate) fn prunes(lb: f64, incumbent: Option<f64>) -> bool {
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

/// What one search did below the root: the children it bounded per level,
/// the m-tile nodes it entered, and what its leaf level did with the
/// leaves it scored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LeafWork {
    /// Children bounded at the `N_m`, `F_m`, `CB_m` and traversal levels.
    pub(crate) bounded: [usize; 4],
    /// m-tile nodes entered: each bounds its six traversal children.
    pub(crate) entered: usize,
    /// Legal leaves priced; every other scored leaf was counted without a
    /// price.
    pub(crate) priced: usize,
    /// Leaves visited one at a time, priced or not; the multi-chunk coarse
    /// leaves of a class their floor rules out on entry are counted in
    /// closed form instead.
    pub(crate) walked: usize,
}

/// The state of one search, threaded through the descent: three scratch
/// buffers it reuses, so that below the root the walk allocates nothing
/// (the menus it branches on are built once, beside it).
#[derive(Default)]
struct Walk {
    /// The bounded children of every node on the current path, each
    /// node's run above its parent's, in menu order: each with its corner
    /// terms, which its own children derive theirs from.
    children: Vec<(Partial, Node)>,
    /// Each child's bound and its index in `children`, each node's run
    /// sorted best-first: sorting these moves two words, not a node.
    frontier: Vec<(f64, usize)>,
    /// Coarse chunk sizes `cb_load·f_load` priced under the current tiling,
    /// each with whether its leaf fits.
    chunks: Vec<(usize, bool)>,
    incumbent: Incumbent,
    pruned_subtrees: usize,
    leaves: LeafWork,
}

/// Branch-and-bound search for the mapping minimizing
/// [`hierarchical_cost`](crate::model::hierarchical_cost). Walks exactly
/// the candidate set of [`crate::space::kernel_candidates`] for every
/// legal P1 pair, pruning with admissible bounds.
///
/// # Errors
///
/// Returns [`TuneError::Sim`] if the workload has a zero or overflowing
/// dimension, and [`TuneError::NoLegalMapping`] if no candidate validates.
pub fn search(platform: &PlatformConfig, workload: &LutWorkload) -> Result<BnbOutcome> {
    search_priced(platform, workload).map(|(outcome, _)| outcome)
}

/// [`search`] and what its leaf level did: the legal leaves it priced and
/// the leaves it walked one at a time.
pub(crate) fn search_priced(
    platform: &PlatformConfig,
    workload: &LutWorkload,
) -> Result<(BnbOutcome, LeafWork)> {
    let pairs = legal_pairs(workload, platform)?;
    let menus = Menus::new(workload, &pairs);
    let mut walk = Walk::default();

    // Root level: order the P1 pairs by their pair-level bound.
    let mut roots: Vec<(f64, (PairCtx, Node))> = pairs
        .into_iter()
        .map(|pair| {
            let ctx = PairCtx::new(platform, workload, pair, &menus);
            let root = ctx.root();
            (root.bound(&ctx), (ctx, root))
        })
        .collect();
    sort_children(&mut roots);

    for (lb, (ctx, root)) in &roots {
        if prunes(*lb, walk.incumbent.bar) {
            walk.pruned_subtrees += 1;
            continue;
        }
        descend(ctx, Partial::default(), root, &mut walk);
    }

    let (mapping, predicted, evaluated) = walk.incumbent.into_best(platform, workload)?;
    let outcome = BnbOutcome {
        mapping,
        predicted,
        evaluated,
        pruned_subtrees: walk.pruned_subtrees,
    };
    Ok((outcome, walk.leaves))
}

/// The optimum of one P1 pair on the capacity ↔ latency frontier: larger
/// `F_s-tile` replicates more LUT bytes per PE but buys more
/// N-parallelism, and [`pair_frontier`] keeps a pair only where that
/// buys a strictly faster optimum. The per-layer capacity allocator
/// ([`crate::alloc`]) consumes these.
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

/// The P1 pairs on the (per-PE LUT bytes, latency) Pareto frontier whose
/// per-PE bytes are at most `max_bytes`, each with its branch-and-bound
/// optimum (`usize::MAX` caps nothing). Pairs are walked in ascending
/// `F_s-tile`, so per-PE bytes rise strictly, the pairs within the cap
/// are a prefix of them, and the result is the uncapped frontier's prefix
/// within it. A pair is kept only if its optimum beats, strictly, the
/// best total of the leaner pairs before it. That total is the descent's
/// bar: a pair whose root bound is over it is skipped, and its subtrees
/// are cut against it. The bar prunes only subtrees holding no leaf
/// better than it, so every kept pair gets the optimum, and the winner
/// among ties, that a search of the pair alone finds.
///
/// # Errors
///
/// Returns [`TuneError::Sim`] if the workload has a zero or overflowing
/// dimension, and [`TuneError::NoLegalMapping`] if Eq. 5 has no solution.
pub fn pair_frontier(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    max_bytes: usize,
) -> Result<Vec<PairBest>> {
    let mut pairs = legal_pairs(workload, platform)?;
    pairs.truncate(pairs.partition_point(|&(_, f_stile)| {
        lut_tile_bytes(workload, workload.cb, f_stile) <= max_bytes
    }));
    let menus = Menus::new(workload, &pairs);
    let mut walk = Walk::default();
    let mut out = Vec::new();
    let mut bar = None;
    for pair @ (n_stile, f_stile) in pairs {
        let ctx = PairCtx::new(platform, workload, pair, &menus);
        let root = ctx.root();
        if prunes(root.bound(&ctx), bar) {
            continue;
        }
        walk.incumbent = Incumbent {
            bar,
            ..Incumbent::default()
        };
        descend(&ctx, Partial::default(), &root, &mut walk);
        if let Some((mapping, predicted)) = walk.incumbent.best.take() {
            bar = walk.incumbent.bar;
            out.push(PairBest {
                n_stile,
                f_stile,
                per_pe_lut_bytes: ctx.lut_stile_bytes,
                mapping,
                predicted,
            });
        }
    }
    Ok(out)
}

/// Depth-first descent below the `node` of unset m-tiles within one P1
/// pair, whose corner terms are `corner`: bound the children of the first
/// unset level, each from terms derived from `corner`, visit them
/// best-first and cut those the incumbent already beats; an m-tile node's
/// traversals go to [`descend_traversals`] with the terms its bound read.
fn descend(ctx: &PairCtx, node: Partial, corner: &Node, walk: &mut Walk) {
    // This node's children go on top of the two buffers; every descent
    // below one of them pushes above them and truncates back before
    // returning.
    let first = walk.frontier.len();
    let Walk {
        children, frontier, ..
    } = walk;
    node.children(&ctx.pair_menus, |child| {
        let terms = corner.child(ctx, ctx.corner(child));
        frontier.push((terms.bound(ctx), children.len()));
        children.push((child, terms));
    });
    let last = walk.frontier.len();
    let level = usize::from(node.n_m.is_some()) + usize::from(node.f_m.is_some());
    walk.leaves.bounded[level] += last - first;
    sort_children(&mut walk.frontier[first..]);
    for i in first..last {
        let (lb, at) = walk.frontier[i];
        let (child, terms) = walk.children[at];
        if prunes(lb, walk.incumbent.bar) || ctx.overflows_wram(child, &terms) {
            walk.pruned_subtrees += 1;
            continue;
        }
        match child.mtiles() {
            Some(_) => descend_traversals(ctx, terms, walk),
            None => descend(ctx, child, &terms, walk),
        }
    }
    walk.frontier.truncate(first);
    walk.children.truncate(first);
}

/// The traversal level below the m-tile node whose terms are `terms`: its
/// tiles' rows computed once, its six traversal children bounded from
/// them, visited best-first and cut as [`descend`] cuts, and the P4 leaves
/// under each scored.
fn descend_traversals(ctx: &PairCtx, terms: Node, walk: &mut Walk) {
    let (_, f_m, cb_m) = terms.price.mtiles;
    let mut node = MTileNode {
        terms,
        rows: terms.price.rows(&ctx.price),
        chunks: ctx.menus.of_mtiles(f_m, cb_m),
        coarse_counts: None,
    };
    // Each child keeps its bound's non-LUT part, which its class gates
    // reuse, and its streams, which its leaves' prices reuse.
    let children = TraversalOrder::all().map(|order| {
        let (non_lut_lb, streams) = node.terms.non_lut_lb(ctx, Some(order));
        (non_lut_lb + node.terms.lut_lb, (non_lut_lb, order, streams))
    });
    walk.leaves.entered += 1;
    walk.leaves.bounded[3] += children.len();
    // Sorted by index, in the order `sort_children` would put them: a
    // child is a dozen words, and moving it would be most of the sort.
    let mut best_first = [0, 1, 2, 3, 4, 5];
    best_first.sort_by(|&a, &b| children[a].0.total_cmp(&children[b].0));
    for (lb, child) in best_first.map(|i| children[i]) {
        if prunes(lb, walk.incumbent.bar) {
            walk.pruned_subtrees += 1;
            continue;
        }
        score_leaves(ctx, &mut node, child, walk);
    }
}

/// Floors on the total of every gated leaf under one complete tiling,
/// each the tiling's exact non-LUT price plus a LUT stream of its kind's
/// true volume (DESIGN.md §12.2, **leaf floors**).
#[derive(Debug, Clone, Copy)]
struct LeafFloors {
    /// The single-chunk coarse leaf (`cb_load·f_load = CB_m·F_m`): its own
    /// stream, so exact in everything but the LUT row terms.
    single_chunk: f64,
    /// Every multi-chunk coarse leaf: `T_n·CB·CT·F_s` bytes, whatever the
    /// chunk size, at the largest chunk that fits beside the m-tiles.
    multi_chunk: f64,
    /// Every fine leaf: `gathered_entries` bytes at `f_load = F_m`.
    fine: f64,
}

impl LeafFloors {
    /// The floors under the tiling of `node` walked in `traversal` order,
    /// whose shared price is `price`. A kind with no leaf that fits beside
    /// the m-tiles floors at infinity.
    fn new(ctx: &PairCtx, node: &Node, price: &TilingPrice, traversal: TraversalOrder) -> Self {
        let (trips, (_, f_m, _)) = (node.price.trips, node.price.mtiles);
        let (chunk, room) = (node.chunk, node.room);
        let single_chunk = if chunk <= room {
            let loads = traversal.load_count(trips, LUT_USES);
            price.floor_s(loads as f64 * chunk as f64, chunk as f64)
        } else {
            f64::INFINITY
        };
        let largest = chunk.min(room);
        let multi_chunk = if largest >= lut_tile_bytes(ctx.w, 1, 1) {
            let bytes = trips.0 as f64 * ctx.lut_stile_bytes as f64;
            price.floor_s(bytes, largest as f64)
        } else {
            f64::INFINITY
        };
        LeafFloors {
            single_chunk,
            multi_chunk,
            fine: price.floor_s(ctx.gathered as f64, f_m as f64),
        }
    }

    /// The floor of the `scheme` leaf under `tiling`; the static leaf,
    /// whose price is as cheap as a floor, floors at minus infinity.
    fn of(&self, scheme: LoadScheme, (_, f_m, cb_m, _): Tiling) -> f64 {
        match scheme {
            LoadScheme::Static => f64::NEG_INFINITY,
            LoadScheme::CoarseGrain { cb_load, f_load } if (cb_load, f_load) == (cb_m, f_m) => {
                self.single_chunk
            }
            LoadScheme::CoarseGrain { .. } => self.multi_chunk,
            LoadScheme::FineGrain { .. } => self.fine,
        }
    }
}

/// Scores the load-scheme leaves under the tiling of `node` walked in
/// `traversal` order, class by class: the tiling is priced once from the
/// node's terms and the traversal's `streams`, each leaf by its LUT stream
/// alone, each coarse chunk size once, a leaf its floor puts over the bar
/// not at all, and the multi-chunk coarse leaves, when their floor is over
/// the bar on entry to the class, not one by one. `non_lut_lb` is the
/// non-LUT part of the tiling's node bound.
fn score_leaves(
    ctx: &PairCtx,
    node: &mut MTileNode,
    (non_lut_lb, traversal, streams): (f64, TraversalOrder, TileStreams),
    walk: &mut Walk,
) {
    // Two tiers. The class gate (the node bound with each class's own LUT
    // bound swapped in, against the incumbent on entry) cuts a whole class
    // as a subtree, so it is part of the visit order and of
    // `pruned_subtrees`. The leaf floors (exact non-LUT price, true LUT
    // volume, against the bar of the moment) only decide whether a leaf
    // of a class let through is priced or counted.
    let on_entry = walk.incumbent.bar;
    let pair = (ctx.n_stile, ctx.f_stile);
    let (n_m, f_m, cb_m) = node.terms.price.mtiles;
    let tiling = (n_m, f_m, cb_m, traversal);
    let price = TilingPrice::of(
        &ctx.price,
        &node.terms.price,
        &node.rows,
        traversal,
        &streams,
    );
    let floors = LeafFloors::new(ctx, &node.terms, &price, traversal);
    let Walk {
        chunks,
        incumbent,
        pruned_subtrees,
        leaves,
        ..
    } = walk;
    chunks.clear();
    for class in SchemeClass::ALL {
        // Static is a single leaf: scoring it costs no more than bounding it.
        let gated = !matches!(class, SchemeClass::Static);
        if gated && prunes(non_lut_lb + node.terms.class_lb(ctx, class), on_entry) {
            *pruned_subtrees += 1;
            continue;
        }
        // The bar only falls, so multi-chunk coarse leaves whose floor is
        // over it on entry stay over it: each would be counted below, so
        // they are counted at once. The single-chunk leaf `(CB_m, F_m)`,
        // the last of the class, is still scored.
        let ruled_out =
            matches!(class, SchemeClass::Coarse) && prunes(floors.multi_chunk, incumbent.bar);
        let single_offered = ruled_out && count_multi_chunk(ctx, node, &price, incumbent);
        // A leaf that cannot beat the bar is counted as offered, and as
        // scored if it fits, without a price: `offer` would have dropped
        // it. Two kinds are known not to: a leaf whose floor is over the
        // bar, and a multi-chunk coarse leaf whose chunk size
        // `cb_load·f_load` was already priced under this tiling (its LUT
        // stream, WRAM fit and so its whole price depend on that size
        // alone, so it prices to the same bits). The single-chunk leaf,
        // whose stream depends on the traversal, is the only leaf of its
        // size.
        let mut score = |scheme| {
            leaves.walked += 1;
            if prunes(floors.of(scheme, tiling), incumbent.bar) {
                return incumbent.count(1, usize::from(price.fits(scheme)));
            }
            let size = match scheme {
                LoadScheme::CoarseGrain { cb_load, f_load } => Some(cb_load * f_load),
                _ => None,
            };
            if let Some(size) = size {
                if let Some(&(_, fits)) = chunks.iter().find(|&&(seen, _)| seen == size) {
                    return incumbent.count(1, usize::from(fits));
                }
            }
            let leaf = price.leaf(scheme);
            leaves.priced += usize::from(leaf.is_some());
            if let Some(size) = size {
                chunks.push((size, leaf.is_some()));
            }
            incumbent.offer(mapping_of(pair.0, pair.1, kernel_of(tiling, scheme)), leaf);
        };
        if single_offered {
            score(LoadScheme::CoarseGrain {
                cb_load: cb_m,
                f_load: f_m,
            });
        } else if !ruled_out {
            leaf_schemes(
                class,
                &node.chunks,
                ctx.w,
                ctx.platform,
                ctx.f_stile,
                &mut score,
            );
        }
    }
}

/// Counts, without walking them, the multi-chunk coarse leaves under the
/// tiling `price` prices, as [`leaf_schemes`] offers them (offered; scored
/// if they fit beside the m-tiles), all known not to beat the bar: from
/// the node's coarse leaf counts, computed on first need. Returns whether
/// the single-chunk leaf is offered too, for the caller to score. A debug
/// build still walks the class, checks the counts against it and asks
/// [`TilingPrice::fits`] about every leaf, so `fits`' own check against
/// `Mapping::validate` sees each one.
fn count_multi_chunk(
    ctx: &PairCtx,
    node: &mut MTileNode,
    price: &TilingPrice,
    incumbent: &mut Incumbent,
) -> bool {
    let room = node.terms.room;
    let (offered, fits) = *node
        .coarse_counts
        .get_or_insert_with(|| coarse_leaf_counts(&node.chunks, ctx.w, ctx.platform, room));
    if cfg!(debug_assertions) {
        let mut walked = (0, 0);
        leaf_schemes(
            SchemeClass::Coarse,
            &node.chunks,
            ctx.w,
            ctx.platform,
            ctx.f_stile,
            |scheme| {
                walked.0 += 1;
                walked.1 += usize::from(price.fits(scheme));
            },
        );
        let mtiles = node.terms.price.mtiles;
        debug_assert_eq!(walked, (offered, fits), "coarse leaves under {mtiles:?}");
    }
    let single = node.terms.chunk;
    let single_offered = single <= ctx.platform.wram_bytes;
    incumbent.count(
        offered - usize::from(single_offered),
        fits - usize::from(single <= room),
    );
    single_offered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::hierarchical_cost;
    use crate::space::{kernel_candidates, sub_lut_candidates};
    use crate::{tune_with_options, TuneOptions};
    use pimdl_sim::cost::{reduce_time_s, sub_lut_times};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A small workload and platform from menu indices `(n, cb, ct, f,
    /// pes, wram)`: both row-constant arms (`mac`), two- and one-byte
    /// indices, and WRAMs that move scheme feasibility and trip the
    /// structural cut.
    fn small_case(
        (n, cb, ct, f, pes, wram): (usize, usize, usize, usize, usize, usize),
        mac: bool,
    ) -> (LutWorkload, PlatformConfig) {
        let w = LutWorkload::new(
            [16, 24, 32, 48, 64][n],
            [2, 4, 8][cb],
            [8, 16, 64, 512][ct],
            [8, 16, 24, 32][f],
        )
        .unwrap();
        let mut p = if mac {
            PlatformConfig::aim()
        } else {
            PlatformConfig::upmem()
        };
        p.num_pes = [4, 8, 16][pes];
        p.wram_bytes = [96, 1024, 4096, 65536][wram];
        (w, p)
    }

    /// The hierarchical model priced whole, one mapping at a time:
    /// `validate`, the three streams, their row terms summed from `+0.0`
    /// in stream order, then the flat analytical terms. The oracle the
    /// per-tiling leaf price must match bit for bit.
    fn reference_cost(
        p: &PlatformConfig,
        w: &LutWorkload,
        m: &Mapping,
    ) -> pimdl_sim::Result<HierBreakdown> {
        m.validate(w, p)?;
        let sc = pimdl_sim::cost::stream_counts(w, m);
        let hier = p.mem_hierarchy();
        let (mut row_activation_s, mut crossing_s) = (0.0, 0.0);
        for (loads, tile) in sc.streams() {
            let (compulsory, crossing) = hier.row_traffic(loads, tile);
            row_activation_s += compulsory * hier.row_activation_s;
            crossing_s += crossing * hier.row_activation_s;
        }
        let lm = &p.local_mem;
        let [kernel_index_s, kernel_output_s, kernel_lut_s] = sc
            .streams()
            .map(|(loads, tile)| lm.ideal_time_s(loads * tile, tile));
        Ok(HierBreakdown {
            base: pimdl_sim::TimeBreakdown {
                kernel_index_s,
                kernel_lut_s,
                kernel_output_s,
                kernel_reduce_s: reduce_time_s(p, w, m.pair(), m.kernel.f_mtile),
                ..sub_lut_times(p, w, m.pair())
            },
            row_activation_s,
            crossing_s,
        })
    }

    /// Every field of a prediction and its total, as bits.
    fn bits(h: &HierBreakdown) -> [u64; 10] {
        let b = &h.base;
        [
            b.sub_index_s,
            b.sub_lut_s,
            b.sub_output_s,
            b.kernel_index_s,
            b.kernel_lut_s,
            b.kernel_output_s,
            b.kernel_reduce_s,
            h.row_activation_s,
            h.crossing_s,
            h.total_s(),
        ]
        .map(f64::to_bits)
    }

    /// Admissibility on one `small_case`, along four random root-to-leaf
    /// paths per legal pair drawn from `seed`: every node's bound (after
    /// the prune guard) is at most the hierarchical cost of every legal leaf
    /// reached, each class gate is at most every leaf of its class, each
    /// leaf floor (single-chunk coarse, multi-chunk coarse, fine) is at most
    /// every leaf of its kind, and the structural WRAM cut only fires above
    /// leaves that are all illegal.
    fn admissible_along_random_paths(
        case: (usize, usize, usize, usize, usize, usize),
        mac: bool,
        seed: u64,
    ) -> std::result::Result<(), TestCaseError> {
        let (w, p) = small_case(case, mac);
        let mut state = seed | 1;
        let mut pick = |len: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % len as u64) as usize
        };
        let pairs = sub_lut_candidates(&w, &p);
        let menus = Menus::new(&w, &pairs);
        for pair @ (n_s, f_s) in pairs {
            let ctx = PairCtx::new(&p, &w, pair, &menus);
            for _ in 0..4 {
                let mut path = vec![Partial::default()];
                let mut overflows = false;
                loop {
                    let node = path[path.len() - 1];
                    let mut children = Vec::new();
                    node.children(&ctx.pair_menus, |child| children.push(child));
                    if children.is_empty() {
                        break;
                    }
                    let child = children[pick(children.len())];
                    overflows |= ctx.overflows_wram(child, &Node::new(&ctx, ctx.corner(child)));
                    path.push(child);
                }
                let leaf_node = path[path.len() - 1];
                let tiling @ (n_m, f_m, cb_m, traversal) = leaf_node.complete().unwrap();
                let (non_lut, _) = ctx.bound_parts(leaf_node);
                let node = Node::new(&ctx, (n_m, f_m, cb_m));
                let price = TilingPrice::new(&p, &w, pair, tiling);
                let floors = LeafFloors::new(&ctx, &node, &price, traversal);
                let chunks = menus.of_mtiles(f_m, cb_m);
                for class in SchemeClass::ALL {
                    let gate = non_lut + node.class_lb(&ctx, class);
                    let mut schemes = Vec::new();
                    leaf_schemes(class, &chunks, &w, &p, f_s, |s| schemes.push(s));
                    for scheme in schemes {
                        let mapping = mapping_of(n_s, f_s, kernel_of(tiling, scheme));
                        let Ok(leaf) = hierarchical_cost(&p, &w, &mapping) else {
                            continue;
                        };
                        prop_assert!(!overflows, "WRAM cut above legal {mapping:?}");
                        let total = leaf.total_s();
                        prop_assert!(
                            gate * PRUNE_GUARD <= total,
                            "{class:?} gate {gate} > {total} for {mapping:?}"
                        );
                        let floor = floors.of(scheme, tiling);
                        prop_assert!(
                            floor * PRUNE_GUARD <= total,
                            "leaf floor {floor} > {total} for {mapping:?} ({floors:?})"
                        );
                        for node in &path {
                            let (non_lut, lut_lb) = ctx.bound_parts(*node);
                            let lb = non_lut + lut_lb;
                            prop_assert!(
                                lb * PRUNE_GUARD <= total,
                                "bound {lb} of {node:?} > {total} for {mapping:?}"
                            );
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The shared and derived terms against from-scratch ones on one
    /// `small_case`, over the whole tree of every legal pair. Each node's
    /// corner terms are derived from its parent's as [`descend`] derives
    /// them, and at every level (`N_m`, `F_m`, `CB_m`) each child's must
    /// equal [`Node::new`] at its corner in every field (their `Debug`
    /// forms, which print each float's shortest round-trip digits, so
    /// equal forms are equal bits), and its bound a from-scratch
    /// [`PairCtx::bound_parts`] bit for bit. A `CB_m` child's terms are the
    /// ones [`descend_traversals`] receives, so they equal
    /// `Node::new(mtiles)`. At each m-tile node they serve its six
    /// traversal children: each one's bound from them must equal
    /// `bound_parts` bit for bit. Under each child, every leaf's price
    /// under the [`TilingPrice`] assembled from the shared terms must equal
    /// `TilingPrice::new(..).leaf(..)` in legality and every field's bits,
    /// and so must the leaf floors. The coarse leaf counts the node
    /// memoises must equal the counts at the child's own LUT room.
    fn shared_terms_match_from_scratch(
        case: (usize, usize, usize, usize, usize, usize),
        mac: bool,
    ) -> std::result::Result<(), TestCaseError> {
        let (w, p) = small_case(case, mac);
        let Ok(pairs) = legal_pairs(&w, &p) else {
            return Ok(());
        };
        let menus = Menus::new(&w, &pairs);
        let lm = &p.local_mem;
        let sum = |(non_lut, lut_lb): (f64, f64)| (non_lut + lut_lb).to_bits();
        for pair @ (_, f_s) in pairs {
            let ctx = PairCtx::new(&p, &w, pair, &menus);
            let root = ctx.root();
            prop_assert_eq!(
                root.bound(&ctx).to_bits(),
                sum(ctx.bound_parts(Partial::default()))
            );
            let mut stack = vec![(Partial::default(), root)];
            while let Some((node, shared)) = stack.pop() {
                let mut children = Vec::new();
                node.children(&ctx.pair_menus, |child| children.push(child));
                let Some(mtiles @ (n_m, f_m, cb_m)) = node.mtiles() else {
                    for child in children {
                        let corner = ctx.corner(child);
                        let derived = shared.child(&ctx, corner);
                        prop_assert_eq!(
                            format!("{derived:?}"),
                            format!("{:?}", Node::new(&ctx, corner)),
                            "{:?}",
                            child
                        );
                        prop_assert_eq!(
                            derived.bound(&ctx).to_bits(),
                            sum(ctx.bound_parts(child)),
                            "{:?}",
                            child
                        );
                        stack.push((child, derived));
                    }
                    continue;
                };
                let chunks = menus.of_mtiles(f_m, cb_m);
                let counts = coarse_leaf_counts(&chunks, &w, &p, shared.room);
                let rows = shared.price.rows(&ctx.price);
                for child in children {
                    let tiling @ (.., traversal) = child.complete().unwrap();
                    let (non_lut, streams) = shared.non_lut_lb(&ctx, Some(traversal));
                    let scratch = ctx.bound_parts(child);
                    prop_assert_eq!(
                        (non_lut.to_bits(), shared.lut_lb.to_bits()),
                        (scratch.0.to_bits(), scratch.1.to_bits()),
                        "{:?}",
                        child
                    );
                    let price =
                        TilingPrice::of(&ctx.price, &shared.price, &rows, traversal, &streams);
                    let alone = TilingPrice::new(&p, &w, pair, tiling);
                    let floors =
                        |f: LeafFloors| [f.single_chunk, f.multi_chunk, f.fine].map(f64::to_bits);
                    prop_assert_eq!(
                        floors(LeafFloors::new(&ctx, &shared, &price, traversal)),
                        floors(LeafFloors::new(
                            &ctx,
                            &Node::new(&ctx, mtiles),
                            &alone,
                            traversal
                        )),
                        "{:?}",
                        tiling
                    );
                    let tiles = index_tile_bytes(&w, n_m, cb_m) + output_tile_bytes(n_m, f_m);
                    let room = p.wram_bytes.saturating_sub(tiles);
                    prop_assert_eq!(counts, coarse_leaf_counts(&chunks, &w, &p, room));
                    for class in SchemeClass::ALL {
                        let mut schemes = Vec::new();
                        leaf_schemes(class, &chunks, &w, &p, f_s, |s| schemes.push(s));
                        for scheme in schemes {
                            prop_assert_eq!(
                                price.leaf(scheme).as_ref().map(bits),
                                alone.leaf(scheme).as_ref().map(bits),
                                "{:?} under {:?}",
                                scheme,
                                tiling
                            );
                        }
                    }
                    prop_assert_eq!((streams.index_s.to_bits(), streams.output_s.to_bits()), {
                        let sc = pimdl_sim::cost::tiling_streams(
                            &w,
                            mtiles,
                            traversal,
                            shared.price.trips,
                        );
                        let [index, output, _] = sc.streams();
                        [index, output]
                            .map(|(loads, tile)| lm.ideal_time_s(loads * tile, tile).to_bits())
                            .into()
                    });
                }
            }
        }
        Ok(())
    }

    /// `pair_frontier`'s walk relies on per-PE bytes rising strictly along
    /// `legal_pairs`, on every menu shape and PE count.
    #[test]
    fn legal_pairs_ascend_in_per_pe_bytes() {
        for n in 0..5 {
            for cb in 0..3 {
                for ct in 0..4 {
                    for f in 0..4 {
                        for pes in 0..3 {
                            let (w, p) = small_case((n, cb, ct, f, pes, 0), false);
                            let Ok(pairs) = legal_pairs(&w, &p) else {
                                continue;
                            };
                            let bytes: Vec<usize> = pairs
                                .into_iter()
                                .map(|pair| lut_tile_bytes(&w, w.cb, pair.1))
                                .collect();
                            assert!(bytes.windows(2).all(|b| b[0] < b[1]), "{w:?}: {bytes:?}");
                        }
                    }
                }
            }
        }
    }

    /// The capped frontier against the uncapped one on one `small_case`:
    /// `pair_frontier(.., cap)` must be the prefix of
    /// `pair_frontier(.., usize::MAX)` within `cap`, bit for bit. `pick`
    /// draws the cap: one byte under, at or over a legal pair's sub-LUT,
    /// or 0, or nothing.
    fn capped_frontier_is_a_prefix(
        case: (usize, usize, usize, usize, usize, usize),
        mac: bool,
        pick: u64,
    ) -> std::result::Result<(), TestCaseError> {
        let (w, p) = small_case(case, mac);
        let Ok(pairs) = legal_pairs(&w, &p) else {
            prop_assert!(pair_frontier(&p, &w, 0).is_err());
            return Ok(());
        };
        let (_, f_stile) = pairs[(pick / 5) as usize % pairs.len()];
        let bytes = lut_tile_bytes(&w, w.cb, f_stile);
        let cap = match pick % 5 {
            0 => bytes - 1,
            1 => bytes,
            2 => bytes + 1,
            3 => 0,
            _ => usize::MAX,
        };
        let prefix: Vec<PairBest> = pair_frontier(&p, &w, usize::MAX)
            .unwrap()
            .into_iter()
            .take_while(|b| b.per_pe_lut_bytes <= cap)
            .collect();
        let capped = pair_frontier(&p, &w, cap).unwrap();
        prop_assert_eq!(
            format!("{capped:?}"),
            format!("{prefix:?}"),
            "{:?} on {} PEs, cap {}",
            w,
            p.num_pes,
            cap
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The leaf price against the whole-mapping oracle, on every
        /// candidate of every legal pair: a leaf is priced exactly when
        /// the oracle accepts it, and then to the bit on all nine fields
        /// and the total; `hierarchical_cost` agrees with both. Under each
        /// complete tiling, coarse leaves of one chunk size `cb_load·f_load`
        /// are priced alike by the oracle, to the bit and in legality: the
        /// invariant that lets `score_leaves` price each size once.
        #[test]
        fn leaf_price_matches_whole_mapping_oracle(
            n_idx in 0usize..5,
            cb_idx in 0usize..3,
            ct_idx in 0usize..4,
            f_idx in 0usize..4,
            pes_idx in 0usize..3,
            wram_idx in 0usize..4,
            mac in any::<bool>(),
        ) {
            let (w, p) = small_case((n_idx, cb_idx, ct_idx, f_idx, pes_idx, wram_idx), mac);
            for pair @ (n_s, f_s) in sub_lut_candidates(&w, &p) {
                let mut by_chunk_size = HashMap::new();
                for kernel in kernel_candidates(&w, &p, n_s, f_s) {
                    let mapping = mapping_of(n_s, f_s, kernel);
                    let tiling = (kernel.n_mtile, kernel.f_mtile, kernel.cb_mtile, kernel.traversal);
                    let leaf = TilingPrice::new(&p, &w, pair, tiling).leaf(kernel.load_scheme);
                    let oracle = reference_cost(&p, &w, &mapping).ok();
                    let hier = hierarchical_cost(&p, &w, &mapping).ok();
                    prop_assert_eq!(
                        leaf.as_ref().map(bits),
                        oracle.as_ref().map(bits),
                        "{:?} on {:?}, {} B WRAM",
                        mapping,
                        p.kind,
                        p.wram_bytes
                    );
                    prop_assert_eq!(hier.as_ref().map(bits), oracle.as_ref().map(bits));
                    if let LoadScheme::CoarseGrain { cb_load, f_load } = kernel.load_scheme {
                        let first = by_chunk_size
                            .entry((tiling, cb_load * f_load))
                            .or_insert((mapping, oracle.as_ref().map(bits)));
                        prop_assert_eq!(
                            first.1,
                            oracle.as_ref().map(bits),
                            "{:?} and {:?} share a chunk size, not a price",
                            first.0,
                            mapping
                        );
                    }
                }
            }
        }

        /// The terms an m-tile node shares with its six traversal children
        /// against from-scratch ones ([`shared_terms_match_from_scratch`]).
        #[test]
        fn shared_terms_match_from_scratch_terms(
            n_idx in 0usize..5,
            cb_idx in 0usize..3,
            ct_idx in 0usize..4,
            f_idx in 0usize..4,
            pes_idx in 0usize..3,
            wram_idx in 0usize..4,
            mac in any::<bool>(),
        ) {
            shared_terms_match_from_scratch((n_idx, cb_idx, ct_idx, f_idx, pes_idx, wram_idx), mac)?;
        }

        /// The frontier against an oracle that searches nothing: each
        /// legal pair's optimum by the strictly-better fold over the
        /// materialised candidates, a pair kept iff it beats, strictly,
        /// every pair kept before it in `legal_pairs` order.
        #[test]
        fn pair_frontier_matches_exhaustive_frontier(
            n_idx in 0usize..5,
            cb_idx in 0usize..3,
            ct_idx in 0usize..4,
            f_idx in 0usize..4,
            pes_idx in 0usize..3,
            wram_idx in 0usize..4,
            mac in any::<bool>(),
        ) {
            let (w, p) = small_case((n_idx, cb_idx, ct_idx, f_idx, pes_idx, wram_idx), mac);
            let Ok(pairs) = legal_pairs(&w, &p) else {
                prop_assert!(pair_frontier(&p, &w, usize::MAX).is_err());
                return Ok(());
            };
            let mut oracle: Vec<(Mapping, f64)> = Vec::new();
            for (n_s, f_s) in pairs {
                let mut incumbent = Incumbent::default();
                for kernel in kernel_candidates(&w, &p, n_s, f_s) {
                    let mapping = mapping_of(n_s, f_s, kernel);
                    incumbent.offer(mapping, hierarchical_cost(&p, &w, &mapping).ok());
                }
                let Some((mapping, predicted)) = incumbent.best else {
                    continue;
                };
                if oracle.iter().all(|&(_, kept)| predicted.total_s() < kept) {
                    oracle.push((mapping, predicted.total_s()));
                }
            }
            let frontier: Vec<(Mapping, u64)> = pair_frontier(&p, &w, usize::MAX)
                .unwrap()
                .into_iter()
                .map(|b| (b.mapping, b.predicted.total_s().to_bits()))
                .collect();
            let oracle: Vec<(Mapping, u64)> =
                oracle.into_iter().map(|(m, total)| (m, total.to_bits())).collect();
            prop_assert_eq!(
                &frontier,
                &oracle,
                "{:?} on {} PEs: {:?} != {:?}",
                w,
                p.num_pes,
                frontier,
                oracle
            );
        }

        /// A byte cap cuts the frontier to its prefix within it
        /// ([`capped_frontier_is_a_prefix`]).
        #[test]
        fn capped_pair_frontier_is_the_uncapped_prefix(
            n_idx in 0usize..5,
            cb_idx in 0usize..3,
            ct_idx in 0usize..4,
            f_idx in 0usize..4,
            pes_idx in 0usize..3,
            wram_idx in 0usize..4,
            mac in any::<bool>(),
            pick in any::<u64>(),
        ) {
            capped_frontier_is_a_prefix((n_idx, cb_idx, ct_idx, f_idx, pes_idx, wram_idx), mac, pick)?;
        }

        /// Admissibility, directly: along random root-to-leaf paths of the
        /// search tree ([`admissible_along_random_paths`]).
        #[test]
        fn bounds_are_admissible_along_random_paths(
            n_idx in 0usize..5,
            cb_idx in 0usize..3,
            ct_idx in 0usize..4,
            f_idx in 0usize..4,
            pes_idx in 0usize..3,
            wram_idx in 0usize..4,
            mac in any::<bool>(),
            seed in any::<u64>(),
        ) {
            admissible_along_random_paths((n_idx, cb_idx, ct_idx, f_idx, pes_idx, wram_idx), mac, seed)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// [`bounds_are_admissible_along_random_paths`] on 1,000 cases: the
        /// long pass `scripts/check.sh` runs with `--ignored`.
        #[test]
        #[ignore = "long admissibility pass: ~1,000 small spaces"]
        fn bounds_are_admissible_along_random_paths_wide(
            n_idx in 0usize..5,
            cb_idx in 0usize..3,
            ct_idx in 0usize..4,
            f_idx in 0usize..4,
            pes_idx in 0usize..3,
            wram_idx in 0usize..4,
            mac in any::<bool>(),
            seed in any::<u64>(),
        ) {
            admissible_along_random_paths((n_idx, cb_idx, ct_idx, f_idx, pes_idx, wram_idx), mac, seed)?;
        }

        /// [`shared_terms_match_from_scratch_terms`] on 1,000 cases: the
        /// long pass `scripts/check.sh` runs with `--ignored`.
        #[test]
        #[ignore = "long shared-terms pass: ~1,000 small spaces, every node"]
        fn shared_terms_match_from_scratch_terms_wide(
            n_idx in 0usize..5,
            cb_idx in 0usize..3,
            ct_idx in 0usize..4,
            f_idx in 0usize..4,
            pes_idx in 0usize..3,
            wram_idx in 0usize..4,
            mac in any::<bool>(),
        ) {
            shared_terms_match_from_scratch((n_idx, cb_idx, ct_idx, f_idx, pes_idx, wram_idx), mac)?;
        }

        /// [`capped_pair_frontier_is_the_uncapped_prefix`] on 1,000 cases:
        /// the long pass `scripts/check.sh` runs with `--ignored`.
        #[test]
        #[ignore = "long frontier-cap pass: ~1,000 small spaces"]
        fn capped_pair_frontier_is_the_uncapped_prefix_wide(
            n_idx in 0usize..5,
            cb_idx in 0usize..3,
            ct_idx in 0usize..4,
            f_idx in 0usize..4,
            pes_idx in 0usize..3,
            wram_idx in 0usize..4,
            mac in any::<bool>(),
            pick in any::<u64>(),
        ) {
            capped_frontier_is_a_prefix((n_idx, cb_idx, ct_idx, f_idx, pes_idx, wram_idx), mac, pick)?;
        }

        /// `tests/properties.rs`'s `bnb_cost_bit_identical_to_exhaustive`
        /// over the wider menu of `small_case`: both row-constant arms,
        /// `CT = 512` and a 96 B WRAM. The long pass `scripts/check.sh`
        /// runs with `--ignored`.
        #[test]
        #[ignore = "long oracle pass: ~1,000 exhaustive searches"]
        fn bnb_cost_bit_identical_to_exhaustive_wide(
            n_idx in 0usize..5,
            cb_idx in 0usize..3,
            ct_idx in 0usize..4,
            f_idx in 0usize..4,
            pes_idx in 0usize..3,
            wram_idx in 0usize..4,
            mac in any::<bool>(),
        ) {
            let (w, p) = small_case((n_idx, cb_idx, ct_idx, f_idx, pes_idx, wram_idx), mac);
            let oracle = tune_with_options(&p, &w, TuneOptions::exhaustive_oracle());
            let bnb = tune_with_options(&p, &w, TuneOptions::default());
            match (oracle, bnb) {
                (Ok(o), Ok(b)) => {
                    prop_assert_eq!(
                        b.predicted_total_s.to_bits(),
                        o.predicted_total_s.to_bits(),
                        "bnb {:?} != exhaustive {:?} on {:?}, {} PEs, {} B WRAM",
                        b.mapping,
                        o.mapping,
                        w,
                        p.num_pes,
                        p.wram_bytes
                    );
                    prop_assert!(b.evaluated <= o.evaluated);
                }
                (Err(_), Err(_)) => {}
                (o, b) => prop_assert!(false, "strategies disagree: {o:?} vs {b:?}"),
            }
        }
    }
}
