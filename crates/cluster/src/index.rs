//! Exact-pruning spatial index over low-dimensional feature spaces.
//!
//! [`SpatialIndex`] is a static bounding-box k-d tree built once over a
//! point set (the 6-dim amplitude–phase spectral features at paper
//! scale). It answers nearest-neighbour and top-k queries by
//! branch-and-bound: a subtree is skipped only when a *provable* lower
//! bound on every distance inside it exceeds the current best — so the
//! result (indices, distances, tie order) is bit-identical to the
//! brute-force linear scan over the same kernel.
//!
//! The exactness argument (DESIGN.md §16, in brief): the per-dimension
//! box gap `max(0, blo−qhi, qlo−bhi)` is computed with the same
//! floating-point ops and termwise-dominated inputs as the kernel's
//! per-dimension difference, and the gaps are squared and summed in
//! the *identical lane structure* as [`sq_euclidean`]'s scalar
//! reference. IEEE-754 rounding is monotone, so every intermediate of
//! the bound is ≤ the corresponding intermediate of the kernel applied
//! to any point in the box — the computed bound never exceeds any
//! computed distance. Pruning is strict (`bound > best`); on equality
//! the subtree is descended, which preserves the lowest-index
//! tie-break of the linear scan.
//!
//! [`IndexedMetric`] wires the tree into the nn-chain engine as a
//! [`DistanceSource`]: leaf-level nearest-neighbour queries become
//! pruned descents, leaf distances come from the same kernel lane
//! structure as the materialised
//! [`DistanceMatrix`](crate::DistanceMatrix), and every merged cluster
//! owns one Lance–Williams row, which a merge rewrites column by
//! column over the live leaves and merged clusters — so dendrograms
//! are bit-identical to the matrix's. For the average linkage on an
//! AVX-512 CPU the leaf columns run eight to a vector instruction, each
//! lane repeating the scalar walk's operations. Merged clusters are
//! tracked with axis-aligned bounding boxes (the
//! O(1) union of their members' boxes); for the linkages whose
//! cluster distance provably dominates the box gap (single, complete,
//! average — not Ward, whose recurrence subtracts), queries *from* a
//! merged cluster also prune through the tree, with a deflation guard
//! on the bound that covers the linkage recurrence's rounding (see
//! [`MERGED_DEFLATE`]).
//!
//! Note the information-theoretic floor this module does *not* (and
//! cannot) cross: every average-linkage merge height depends on all
//! leaf distances crossing that merge, so any exact algorithm must
//! evaluate all n(n−1)/2 leaf pairs — the Lance–Williams loop already
//! performs exactly that floor, once per pair. What the index removes
//! is the *other* half of the work: the nearest-neighbour rescans,
//! which dominate wall time and evaluations at scale.

use towerlens_obs::LazyCounter;

use crate::agglomerative::Linkage;
use crate::distance::{sq_euclidean, sq_euclidean6_batch, sq_euclidean_scalar, BATCH6};
use crate::error::{validate_points, ClusterError};
use crate::source::{DistanceSource, TopK};

/// Tree nodes touched by index queries, across all runs.
static INDEX_NODES_VISITED: LazyCounter = LazyCounter::new("cluster.index.nodes_visited");
/// Subtrees skipped because their lower bound exceeded the best
/// candidate, across all runs.
static INDEX_PRUNED: LazyCounter = LazyCounter::new("cluster.index.pruned_subtrees");
/// Leaf-distance evaluations performed by [`IndexedMetric`] (the
/// matrix-free counterpart of `cluster.distance.evaluations`).
static INDEX_LEAF_EVALS: LazyCounter = LazyCounter::new("cluster.index.leaf_evaluations");

/// Points per k-d tree leaf bucket: small enough that a bucket scan is
/// a handful of kernel calls, large enough to amortise the descent
/// (and to fill the batched 6-dim kernel, [`BATCH6`] lanes at a time).
const LEAF_BUCKET: usize = 8;

/// Deflation factor applied to box lower bounds when the *query* side
/// is a merged cluster, i.e. when candidate values come from the
/// Lance–Williams recurrence instead of the kernel. Each recurrence
/// level of the average linkage performs ≤ 3 rounded ops on values
/// that are termwise ≥ the bound, so a cluster of depth `h` can sit
/// below the real bound by at most a relative `3·h·ε`. With ε = 2⁻⁵³
/// and h < 2²⁶/3 (far beyond any practical n), multiplying the bound
/// by `1 − 2⁻²⁶` provably re-establishes `bound ≤ value`. Single and
/// complete linkage (min/max, exact in floating point) need no slack
/// but share the same guard for simplicity.
const MERGED_DEFLATE: f64 = 1.0 - 1.0 / (1u64 << 26) as f64;

/// Sentinel for "no node" / "no candidate".
const NONE: u32 = u32::MAX;

/// Row-major access to point coordinates — the minimal surface the
/// index needs. Implemented for the pipeline's `[Vec<f64>]` feature
/// matrices and the artifact snapshot's `[[f64; 6]]` rows.
pub trait PointSet {
    /// Number of points.
    fn len(&self) -> usize;
    /// `true` when the set has no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Coordinates of point `i`.
    fn row(&self, i: usize) -> &[f64];
}

impl PointSet for [Vec<f64>] {
    fn len(&self) -> usize {
        <[Vec<f64>]>::len(self)
    }
    fn row(&self, i: usize) -> &[f64] {
        &self[i]
    }
}

impl PointSet for [[f64; 6]] {
    fn len(&self) -> usize {
        <[[f64; 6]]>::len(self)
    }
    fn row(&self, i: usize) -> &[f64] {
        &self[i]
    }
}

/// Query-side work counters, accumulated per search and flushed to the
/// `cluster.index.*` counters by the owning structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Tree nodes examined (root counts once per search).
    pub nodes_visited: u64,
    /// Subtrees skipped by the lower-bound test.
    pub pruned_subtrees: u64,
}

impl SearchStats {
    /// Adds another stats record into this one.
    pub fn absorb(&mut self, other: SearchStats) {
        self.nodes_visited += other.nodes_visited;
        self.pruned_subtrees += other.pruned_subtrees;
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// Axis-aligned bounding box of the subtree's points.
    lo: Box<[f64]>,
    hi: Box<[f64]>,
    /// Child node ids; `NONE` marks a leaf.
    left: u32,
    right: u32,
    /// Leaf bucket range in `order` (leaves only).
    start: u32,
    end: u32,
}

/// A static bounding-box k-d tree with point deactivation.
///
/// Built once over a point set; points are removed (never added) as
/// cluster slots merge away, and empty subtrees are skipped in O(1)
/// via live counts. Queries take the candidate evaluator as a closure,
/// so the same tree serves kernel-valued leaf queries and
/// row-valued merged-cluster queries.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    dim: usize,
    nodes: Vec<Node>,
    /// Point ids in leaf-bucket-contiguous order.
    order: Vec<u32>,
    /// Leaf bucket coordinates, transposed per bucket for the batched
    /// kernel: for a bucket at `order[s..e]`, `coords[s*dim..e*dim]`
    /// holds dimension-major lanes (`d*width + lane`).
    coords: Vec<f64>,
    /// Untransposed point rows by id, contiguous: the generic-dimension
    /// query path and [`IndexedMetric`]'s leaf distances read them.
    flat: Vec<f64>,
    /// Leaf node id holding each point.
    leaf_of: Vec<u32>,
    /// Parent node id per node (`NONE` at the root).
    parent: Vec<u32>,
    active: Vec<bool>,
    /// Active points per subtree.
    live: Vec<u32>,
}

impl SpatialIndex {
    /// Builds the tree over a point set. Deterministic: splits choose
    /// the widest axis and the exact median of `(coordinate, index)`,
    /// so the structure is a pure function of the input.
    pub fn build<P: PointSet + ?Sized>(points: &P) -> SpatialIndex {
        let n = points.len();
        let dim = if n == 0 { 0 } else { points.row(0).len() };
        let mut flat = Vec::with_capacity(n * dim);
        for i in 0..n {
            flat.extend_from_slice(points.row(i));
        }
        let mut index = SpatialIndex {
            dim,
            nodes: Vec::new(),
            order: Vec::with_capacity(n),
            coords: Vec::with_capacity(n * dim),
            flat,
            leaf_of: vec![NONE; n],
            parent: Vec::new(),
            active: vec![true; n],
            live: Vec::new(),
        };
        if n == 0 {
            return index;
        }
        let mut ids: Vec<u32> = (0..n as u32).collect();
        index.split(points, &mut ids, NONE);
        index
    }

    /// Recursively builds the subtree over `ids`, returning its node id.
    fn split<P: PointSet + ?Sized>(&mut self, points: &P, ids: &mut [u32], parent: u32) -> u32 {
        let node_id = self.nodes.len() as u32;
        let mut lo = vec![f64::INFINITY; self.dim].into_boxed_slice();
        let mut hi = vec![f64::NEG_INFINITY; self.dim].into_boxed_slice();
        for &p in ids.iter() {
            for (d, &c) in points.row(p as usize).iter().enumerate() {
                lo[d] = lo[d].min(c);
                hi[d] = hi[d].max(c);
            }
        }
        self.nodes.push(Node {
            lo,
            hi,
            left: NONE,
            right: NONE,
            start: 0,
            end: 0,
        });
        self.parent.push(parent);
        self.live.push(ids.len() as u32);
        if ids.len() <= LEAF_BUCKET {
            let start = self.order.len() as u32;
            for &p in ids.iter() {
                self.order.push(p);
                self.leaf_of[p as usize] = node_id;
            }
            let end = self.order.len() as u32;
            // Transposed bucket lanes for the batched kernel.
            let width = ids.len();
            let base = self.coords.len();
            self.coords.resize(base + width * self.dim, 0.0);
            for (lane, &p) in ids.iter().enumerate() {
                for (d, &c) in points.row(p as usize).iter().enumerate() {
                    self.coords[base + d * width + lane] = c;
                }
            }
            let node = &mut self.nodes[node_id as usize];
            node.start = start;
            node.end = end;
            return node_id;
        }
        // Widest axis, median split; ties in the sort break by point
        // index so the permutation is deterministic.
        let node = &self.nodes[node_id as usize];
        let axis = (0..self.dim)
            .max_by(|&a, &b| (node.hi[a] - node.lo[a]).total_cmp(&(node.hi[b] - node.lo[b])))
            .unwrap_or(0);
        ids.sort_unstable_by(|&a, &b| {
            points.row(a as usize)[axis]
                .total_cmp(&points.row(b as usize)[axis])
                .then(a.cmp(&b))
        });
        let mid = ids.len() / 2;
        let (left_ids, right_ids) = ids.split_at_mut(mid);
        let left = self.split(points, left_ids, node_id);
        let right = self.split(points, right_ids, node_id);
        let node = &mut self.nodes[node_id as usize];
        node.left = left;
        node.right = right;
        node_id
    }

    /// Number of points the tree was built over.
    #[must_use]
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// `true` when built over zero points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Active (not yet deactivated) points.
    #[must_use]
    pub fn live(&self) -> usize {
        if self.nodes.is_empty() {
            0
        } else {
            self.live[0] as usize
        }
    }

    /// Removes point `i` from all future query results. Idempotent.
    pub fn deactivate(&mut self, i: usize) {
        if !self.active[i] {
            return;
        }
        self.active[i] = false;
        let mut node = self.leaf_of[i];
        while node != NONE {
            self.live[node as usize] -= 1;
            node = self.parent[node as usize];
        }
    }

    /// The nearest active point to the query box `[qlo, qhi]`
    /// (a point query passes the same slice twice), excluding point
    /// `exclude`, as `(index, value)` minimising `(value, index)`
    /// lexicographically — exactly the candidate an ascending linear
    /// scan with `<` updates would keep.
    ///
    /// `value` produces the candidate's distance; `deflate` scales the
    /// box lower bound before the prune test (`1.0` when values come
    /// straight from the kernel, [`MERGED_DEFLATE`] when they come
    /// from a linkage recurrence, `0.0` to disable pruning).
    pub fn nearest(
        &self,
        qlo: &[f64],
        qhi: &[f64],
        deflate: f64,
        exclude: usize,
        stats: &mut SearchStats,
        value: &mut dyn FnMut(usize) -> f64,
    ) -> Option<(usize, f64)> {
        if self.nodes.is_empty() || self.live() == 0 {
            return None;
        }
        let mut best = (f64::INFINITY, NONE);
        self.nearest_in(0, qlo, qhi, deflate, exclude, stats, value, &mut best);
        (best.1 != NONE).then_some((best.1 as usize, best.0))
    }

    #[allow(clippy::too_many_arguments)]
    fn nearest_in(
        &self,
        node_id: u32,
        qlo: &[f64],
        qhi: &[f64],
        deflate: f64,
        exclude: usize,
        stats: &mut SearchStats,
        value: &mut dyn FnMut(usize) -> f64,
        best: &mut (f64, u32),
    ) {
        stats.nodes_visited += 1;
        let node = &self.nodes[node_id as usize];
        if node.left == NONE {
            for &p in &self.order[node.start as usize..node.end as usize] {
                if p as usize == exclude || !self.active[p as usize] {
                    continue;
                }
                let v = value(p as usize);
                if v < best.0 || (v == best.0 && p < best.1) {
                    *best = (v, p);
                }
            }
            return;
        }
        // Visit the nearer child first so `best` tightens before the
        // other side's prune test; result is order-independent because
        // the selection minimises (value, index) over all survivors.
        let children = [node.left, node.right];
        let bounds = children.map(|c| {
            let child = &self.nodes[c as usize];
            sq_box_gap(qlo, qhi, &child.lo, &child.hi).sqrt() * deflate
        });
        let nearer = usize::from(bounds[1] < bounds[0]);
        for side in [nearer, 1 - nearer] {
            let child = children[side];
            if self.live[child as usize] == 0 {
                continue;
            }
            if bounds[side] > best.0 {
                stats.pruned_subtrees += 1;
                continue;
            }
            self.nearest_in(child, qlo, qhi, deflate, exclude, stats, value, best);
        }
    }

    /// The `k` nearest active points to query point `q` (excluding
    /// `exclude`), pruned through the tree and evaluated with the
    /// batched 6-dim kernel where the dimension allows — bit-identical
    /// to [`crate::source::top_k_nearest`] over the same points.
    /// Returns `(index, distance)` ascending by `(distance, index)`.
    pub fn top_k(
        &self,
        q: &[f64],
        k: usize,
        exclude: usize,
        stats: &mut SearchStats,
    ) -> Vec<(usize, f64)> {
        let mut top = TopK::new(k);
        self.top_k_into(q, exclude, stats, &mut top);
        top.into_sorted()
    }

    /// [`SpatialIndex::top_k`] into a caller-owned accumulator (reset
    /// beforehand with [`TopK::reset`]); lets batch servers reuse
    /// scratch buffers across queries. The accumulator's retention
    /// bound is its `k`.
    pub fn top_k_into(&self, q: &[f64], exclude: usize, stats: &mut SearchStats, top: &mut TopK) {
        if top.capacity() == 0 || self.nodes.is_empty() || self.live() == 0 {
            return;
        }
        self.top_k_in(0, q, exclude, stats, top);
    }

    fn top_k_in(
        &self,
        node_id: u32,
        q: &[f64],
        exclude: usize,
        stats: &mut SearchStats,
        top: &mut TopK,
    ) {
        stats.nodes_visited += 1;
        let node = &self.nodes[node_id as usize];
        if node.left == NONE {
            self.scan_bucket(node, q, exclude, top);
            return;
        }
        let children = [node.left, node.right];
        let bounds = children.map(|c| {
            let child = &self.nodes[c as usize];
            sq_box_gap(q, q, &child.lo, &child.hi).sqrt()
        });
        let nearer = usize::from(bounds[1] < bounds[0]);
        for side in [nearer, 1 - nearer] {
            let child = children[side];
            if self.live[child as usize] == 0 {
                continue;
            }
            if let Some((worst, _)) = top.worst() {
                if bounds[side] > worst {
                    stats.pruned_subtrees += 1;
                    continue;
                }
            }
            self.top_k_in(child, q, exclude, stats, top);
        }
    }

    /// Evaluates one leaf bucket against a point query, offering every
    /// active candidate to the accumulator. Uses the transposed-lane
    /// batched kernel for 6-dim points; each lane reproduces the
    /// sequential scalar sum bit-for-bit.
    fn scan_bucket(&self, node: &Node, q: &[f64], exclude: usize, top: &mut TopK) {
        let (start, end) = (node.start as usize, node.end as usize);
        let bucket = &self.order[start..end];
        let width = end - start;
        if self.dim == 6 && width > 0 {
            let q6: &[f64; 6] = q.try_into().expect("6-dim query");
            let lanes = &self.coords[start * 6..end * 6];
            let mut offset = 0;
            while offset < width {
                let take = (width - offset).min(BATCH6);
                let sq = sq_euclidean6_batch(q6, lanes, width, offset, take);
                for (lane, &sqd) in sq.iter().enumerate().take(take) {
                    let p = bucket[offset + lane];
                    if p as usize == exclude || !self.active[p as usize] {
                        continue;
                    }
                    top.offer(p as usize, sqd.sqrt());
                }
                offset += take;
            }
            return;
        }
        for &p in bucket {
            if p as usize == exclude || !self.active[p as usize] {
                continue;
            }
            let d = sq_euclidean(q, self.row_of(p as usize)).sqrt();
            top.offer(p as usize, d);
        }
    }

    /// A point's coordinates (the untransposed copy; `dim` × 8 bytes
    /// per point, negligible next to the tree itself).
    fn row_of(&self, p: usize) -> &[f64] {
        &self.flat[p * self.dim..(p + 1) * self.dim]
    }
}

/// Lower bound on the squared distance between any point of box
/// `[qlo, qhi]` and any point of box `[blo, bhi]`, computed with the
/// exact lane structure of the scalar kernel so that every
/// intermediate is ≤ the kernel's intermediate for any realised pair
/// (IEEE-754 rounding is monotone; see the module docs).
fn sq_box_gap(qlo: &[f64], qhi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
    let dim = qlo.len();
    let gap = |d: usize| -> f64 {
        let c = (blo[d] - qhi[d]).max(qlo[d] - bhi[d]).max(0.0);
        c * c
    };
    let m = dim - dim % 8;
    let mut lanes = [0.0f64; 8];
    let mut k = 0;
    while k < m {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += gap(k + l);
        }
        k += 8;
    }
    let mut tail = 0.0f64;
    while k < dim {
        tail += gap(k);
        k += 1;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// One leaf distance: the canonical [`sq_euclidean`] lane structure
/// through its portable reference, inlined into the caller's loop with
/// no CPU-feature dispatch per pair. Bit-identical to [`sq_euclidean`]
/// and so to every cell of the materialised
/// [`DistanceMatrix`](crate::DistanceMatrix).
#[inline]
fn leaf_distance(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean_scalar(a, b).sqrt()
}

/// What [`IndexedMetric`] stores for a slot that seats a merged
/// cluster.
#[derive(Debug)]
struct Merged {
    /// Lance–Williams row: the cluster's distance to every active slot.
    /// Written in full when the cluster forms or grows, and kept equal
    /// to the other merged clusters' entries for it (`row_a[b] ==
    /// row_b[a]`), so any pair involving a merged cluster is one load.
    row: Box<[f64]>,
    /// Axis-aligned bounding box of the members, `lo ++ hi`.
    bounds: Box<[f64]>,
}

/// The indexed matrix-free distance source: leaf distances on demand
/// from the tree's contiguous point copy, one Lance–Williams row per
/// merged cluster, and nearest-neighbour queries answered through the
/// [`SpatialIndex`] instead of a linear scan. Dendrograms are
/// bit-identical to the materialised matrix's, with leaf evaluations
/// within a few percent of the C(n,2) floor.
///
/// Peak memory is `(live merged clusters) × n` row entries; an
/// agglomeration that pairs every point first peaks at n²/4 — half the
/// condensed matrix — while typical incremental merge orders stay far
/// below. Either way the O(n²) *leaf* triangle, which dominates at raw
/// dimensionality, is never stored.
#[derive(Debug)]
pub struct IndexedMetric {
    tree: SpatialIndex,
    /// Per slot: the merged cluster seated there, `None` while the slot
    /// holds its single point (and after it is absorbed).
    clusters: Vec<Option<Merged>>,
    /// Active single-point slots, ascending — the columns a merge walks
    /// besides `merged`.
    leaves: Vec<u32>,
    /// Active merged slots, ascending. These are scanned linearly per
    /// query (they are few — live Lance–Williams rows) with their own
    /// box pre-check when the linkage allows it.
    merged: Vec<usize>,
    /// Whether merged-cluster values provably dominate the box gap
    /// (true for single/complete/average; false for Ward, whose
    /// recurrence subtracts and can cancel below any a-priori bound).
    merged_prunable: bool,
    evaluations: u64,
    stats: SearchStats,
}

impl IndexedMetric {
    /// Builds the index over the point set. `linkage` gates whether
    /// queries from merged clusters may prune (see module docs).
    ///
    /// # Errors
    /// Point-set validation failures: [`ClusterError::EmptyInput`],
    /// [`ClusterError::DimensionMismatch`] for ragged rows and
    /// [`ClusterError::NonFinite`] for NaN/∞ coordinates.
    pub fn new(points: &[Vec<f64>], linkage: Linkage) -> Result<IndexedMetric, ClusterError> {
        validate_points(points)?;
        let n = points.len();
        Ok(IndexedMetric {
            tree: SpatialIndex::build(points),
            clusters: (0..n).map(|_| None).collect(),
            leaves: (0..n as u32).collect(),
            merged: Vec::new(),
            merged_prunable: !matches!(linkage, Linkage::Ward),
            evaluations: 0,
            stats: SearchStats::default(),
        })
    }

    /// Leaf-distance evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Query-side work counters accumulated so far.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Lance–Williams rows currently allocated (live merged clusters).
    pub fn live_rows(&self) -> usize {
        self.clusters.iter().filter(|c| c.is_some()).count()
    }

    /// The current distance between two distinct active slots: a row
    /// read when either seats a merged cluster, otherwise one counted
    /// kernel evaluation.
    fn distance(&mut self, a: usize, b: usize) -> f64 {
        match (&self.clusters[a], &self.clusters[b]) {
            (Some(c), _) => c.row[b],
            (None, Some(c)) => c.row[a],
            (None, None) => {
                self.evaluations += 1;
                leaf_distance(self.tree.row_of(a), self.tree.row_of(b))
            }
        }
    }
}

/// How a merge walks its leaf columns. Only the average linkage has a
/// vector walk; every lane of it does the portable walk's
/// floating-point operations on its own column, in the same order and
/// without fused multiply-adds, so both write bit-identical rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Walk {
    /// Eight columns per 512-bit vector (AVX-512F).
    Avx512,
    /// One column at a time: the reference, the walk of CPUs without
    /// AVX-512F, and the walk of the other three linkages.
    Portable,
}

impl Walk {
    /// The widest walk this CPU runs for `linkage`.
    fn for_linkage(linkage: Linkage) -> Walk {
        if linkage != Linkage::Average {
            return Walk::Portable;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Walk::Avx512;
            }
        }
        Walk::Portable
    }
}

/// The Lance–Williams update of `row_i` at every live leaf `k`, for one
/// of the four leaf-or-merged cases of the merging slots `i` and `j`,
/// fixed at compile time: a single-point slot contributes a kernel
/// distance, a merged one its row (`row_i` read before it is
/// overwritten, `row_j`). Every `k` reads and writes only column `k`,
/// so the walk order changes no value. A vector `walk` (average
/// linkage only: `update` must then be the average recurrence over the
/// sizes `(ni, nj)`) covers the leading columns it can and the portable
/// walk the rest. Returns the kernel evaluations performed: one per
/// leaf endpoint and live leaf, whatever the lane count.
#[allow(clippy::too_many_arguments)]
fn update_leaf_columns<const I_LEAF: bool, const J_LEAF: bool>(
    walk: Walk,
    tree: &SpatialIndex,
    leaves: &[u32],
    (i, j): (usize, usize),
    row_i: &mut [f64],
    row_j: &[f64],
    sizes: (f64, f64),
    update: impl Fn(f64, f64) -> f64,
) -> u64 {
    let (pi, pj) = (tree.row_of(i), tree.row_of(j));
    let points = (&tree.flat[..], pi, pj);
    let done = vector_walk::<I_LEAF, J_LEAF>(walk, points, leaves, row_i, row_j, sizes);
    for &k in &leaves[done..] {
        let k = k as usize;
        let dik = if I_LEAF {
            leaf_distance(pi, tree.row_of(k))
        } else {
            row_i[k]
        };
        let djk = if J_LEAF {
            leaf_distance(pj, tree.row_of(k))
        } else {
            row_j[k]
        };
        row_i[k] = update(dik, djk);
    }
    (u64::from(I_LEAF) + u64::from(J_LEAF)) * leaves.len() as u64
}

/// Runs the AVX-512 walk over the leading leaves it covers and returns
/// how many it walked: none for the portable walk, on a CPU without
/// AVX-512F, or for points of more than [`VECTOR_WALK_MAX_DIM`]
/// dimensions. `points` is the tree's flat copy and the rows of `i` and
/// `j`; `leaves` is ascending.
///
/// # Panics
/// Before the kernel runs: if the last leaf is not below `n =
/// row_i.len()`, the flat copy does not hold `n` rows of the points'
/// dimension, or `row_j` does not hold `n` entries while `j` is merged.
#[cfg(target_arch = "x86_64")]
fn vector_walk<const I_LEAF: bool, const J_LEAF: bool>(
    walk: Walk,
    points: (&[f64], &[f64], &[f64]),
    leaves: &[u32],
    row_i: &mut [f64],
    row_j: &[f64],
    sizes: (f64, f64),
) -> usize {
    let (flat, pi, pj) = points;
    let dim = pi.len();
    if walk == Walk::Portable
        || dim > VECTOR_WALK_MAX_DIM
        || !std::arch::is_x86_feature_detected!("avx512f")
    {
        return 0;
    }
    // The kernel reads and writes unchecked at these offsets.
    let n = row_i.len();
    assert!(
        flat.len() == n * dim && pj.len() == dim,
        "points are rows of the tree"
    );
    assert!(J_LEAF || row_j.len() == n, "row_j spans every slot");
    // The live-leaf list is ascending, so its last entry bounds them all.
    debug_assert!(leaves.is_sorted(), "leaves ascend");
    assert!(
        leaves.last().is_none_or(|&k| (k as usize) < n),
        "leaves are slots"
    );
    // SAFETY: AVX-512F was just detected, and the asserts above
    // establish the kernel's bounds.
    #[allow(unsafe_code)]
    unsafe {
        average_walk_avx512::<I_LEAF, J_LEAF>(points, leaves, row_i, row_j, sizes)
    }
}

/// Without x86-64 vector kernels every walk is the portable one.
#[cfg(not(target_arch = "x86_64"))]
fn vector_walk<const I_LEAF: bool, const J_LEAF: bool>(
    _walk: Walk,
    _points: (&[f64], &[f64], &[f64]),
    _leaves: &[u32],
    _row_i: &mut [f64],
    _row_j: &[f64],
    _sizes: (f64, f64),
) -> usize {
    0
}

/// Point dimensions the vector walk serves: below eight the scalar
/// kernel is one sequential sum (`t += d·d` in axis order, then
/// `0.0 + t` from the empty eight-lane fold), which each vector lane
/// repeats. Wider points take the portable walk.
const VECTOR_WALK_MAX_DIM: usize = 7;

/// The average-linkage column walk on 512-bit vectors, eight live
/// leaves per step. Each lane gathers its leaf's coordinates from the
/// tree's flat copy (`points.0`, rows of `points.1.len()` values) and
/// takes its [`leaf_distance`] to `points.1` (when `I_LEAF`) and
/// `points.2` (when `J_LEAF`), gathers the row entries it reads
/// instead, and scatters `(ni·dik + nj·djk) / (ni + nj)`. Returns the
/// leaves walked, a multiple of eight; the caller walks the rest.
///
/// # Safety
/// Requires AVX-512F; callers must check
/// `is_x86_feature_detected!("avx512f")`. With `n = row_i.len()`: every
/// leaf is below `n`, the flat copy holds `n` rows, `points.2` has the
/// length of `points.1`, and `row_j` holds `n` entries unless `J_LEAF`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(unsafe_code)]
unsafe fn average_walk_avx512<const I_LEAF: bool, const J_LEAF: bool>(
    (flat, pi, pj): (&[f64], &[f64], &[f64]),
    leaves: &[u32],
    row_i: &mut [f64],
    row_j: &[f64],
    (ni, nj): (f64, f64),
) -> usize {
    use std::arch::x86_64::*;
    let dim = pi.len();
    let zero = _mm512_setzero_pd();
    let (wi, wj) = (_mm512_set1_pd(ni), _mm512_set1_pd(nj));
    let sum = _mm512_set1_pd(ni + nj);
    let mut chunks = leaves.chunks_exact(8);
    for ks in &mut chunks {
        let cols = _mm512_cvtepu32_epi64(_mm256_loadu_si256(ks.as_ptr().cast()));
        let offsets: [i64; 8] = std::array::from_fn(|l| (ks[l] as usize * dim) as i64);
        let offsets = _mm512_loadu_si512(offsets.as_ptr().cast());
        let (mut ti, mut tj) = (zero, zero);
        for d in 0..dim {
            let y = _mm512_i64gather_pd::<8>(offsets, flat.as_ptr().add(d));
            if I_LEAF {
                let diff = _mm512_sub_pd(_mm512_set1_pd(pi[d]), y);
                ti = _mm512_add_pd(ti, _mm512_mul_pd(diff, diff));
            }
            if J_LEAF {
                let diff = _mm512_sub_pd(_mm512_set1_pd(pj[d]), y);
                tj = _mm512_add_pd(tj, _mm512_mul_pd(diff, diff));
            }
        }
        let dik = if I_LEAF {
            _mm512_sqrt_pd(_mm512_add_pd(zero, ti))
        } else {
            _mm512_i64gather_pd::<8>(cols, row_i.as_ptr())
        };
        let djk = if J_LEAF {
            _mm512_sqrt_pd(_mm512_add_pd(zero, tj))
        } else {
            _mm512_i64gather_pd::<8>(cols, row_j.as_ptr())
        };
        let v = _mm512_div_pd(
            _mm512_add_pd(_mm512_mul_pd(wi, dik), _mm512_mul_pd(wj, djk)),
            sum,
        );
        _mm512_i64scatter_pd::<8>(row_i.as_mut_ptr(), cols, v);
    }
    leaves.len() - chunks.remainder().len()
}

/// Removes `x` from an ascending list, if present.
fn remove_sorted<T: Ord>(list: &mut Vec<T>, x: T) {
    if let Ok(at) = list.binary_search(&x) {
        list.remove(at);
    }
}

impl DistanceSource for IndexedMetric {
    fn len(&self) -> usize {
        self.tree.len()
    }

    /// The columnar Lance–Williams update: slot `i`'s row is rewritten
    /// over the live leaves (one case-specialised loop) and the merged
    /// clusters (which also receive the symmetric entry), then slot `j`
    /// and its row are dropped. Every value is the recurrence over the
    /// same three distances the matrix's per-pair loop reads, so the
    /// result is bit-identical to it; leaf pairs are the only kernel
    /// evaluations, one per pair read.
    fn merge(
        &mut self,
        i: usize,
        j: usize,
        d: f64,
        _active: &[bool],
        size: &[usize],
        linkage: Linkage,
    ) {
        let n = self.len();
        let dim = self.tree.dim;
        let (ni, nj) = (size[i] as f64, size[j] as f64);
        let survivor = self.clusters[i].take();
        let absorbed = self.clusters[j].take();
        // Both slots leave the candidate sets before the walk.
        for (slot, cluster) in [(i, &survivor), (j, &absorbed)] {
            if cluster.is_none() {
                self.tree.deactivate(slot);
                remove_sorted(&mut self.leaves, slot as u32);
            }
        }
        if absorbed.is_some() {
            remove_sorted(&mut self.merged, j);
        }
        let i_leaf = survivor.is_none();
        let Merged {
            mut row,
            mut bounds,
        } = survivor.unwrap_or_else(|| {
            // A single point becomes a cluster: it gets its row (every
            // entry is written below) and a box seeded at the point.
            let at = self
                .merged
                .binary_search(&i)
                .expect_err("a single-point slot is not in the merged list");
            self.merged.insert(at, i);
            Merged {
                row: vec![f64::NAN; n].into_boxed_slice(),
                bounds: self.tree.row_of(i).repeat(2).into_boxed_slice(),
            }
        });

        // A leaf's size is 1.
        let update = |dik: f64, djk: f64| linkage.update(dik, djk, d, ni, nj, 1.0);
        let walk = Walk::for_linkage(linkage);
        let (tree, leaves) = (&self.tree, &self.leaves[..]);
        let row_j: &[f64] = absorbed.as_ref().map_or(&[], |a| &a.row);
        let ij = (i, j);
        let sizes = (ni, nj);
        self.evaluations += match (i_leaf, absorbed.is_none()) {
            (true, true) => update_leaf_columns::<true, true>(
                walk, tree, leaves, ij, &mut row, row_j, sizes, update,
            ),
            (false, true) => update_leaf_columns::<false, true>(
                walk, tree, leaves, ij, &mut row, row_j, sizes, update,
            ),
            (true, false) => update_leaf_columns::<true, false>(
                walk, tree, leaves, ij, &mut row, row_j, sizes, update,
            ),
            (false, false) => update_leaf_columns::<false, false>(
                walk, tree, leaves, ij, &mut row, row_j, sizes, update,
            ),
        };
        // Merged columns: their rows hold both old distances and take
        // the symmetric write. `i` itself is still listed when it was
        // merged before.
        for &k in &self.merged {
            if k == i {
                continue;
            }
            let other = self.clusters[k]
                .as_mut()
                .expect("merged slots seat a cluster");
            let v = linkage.update(other.row[i], other.row[j], d, ni, nj, size[k] as f64);
            row[k] = v;
            other.row[i] = v;
        }

        let (lo, hi) = bounds.split_at_mut(dim);
        let (alo, ahi) = match &absorbed {
            Some(a) => a.bounds.split_at(dim),
            None => (self.tree.row_of(j), self.tree.row_of(j)),
        };
        for axis in 0..dim {
            lo[axis] = lo[axis].min(alo[axis]);
            hi[axis] = hi[axis].max(ahi[axis]);
        }
        self.clusters[i] = Some(Merged { row, bounds });
    }

    fn nearest_active(
        &mut self,
        top: usize,
        active: &[bool],
        prev: Option<usize>,
    ) -> Option<(usize, f64)> {
        let dim = self.tree.dim;
        let IndexedMetric {
            tree,
            clusters,
            merged,
            merged_prunable,
            evaluations,
            stats,
            ..
        } = self;
        let top_cluster = clusters[top].as_ref();
        let (qlo, qhi, deflate) = match top_cluster {
            Some(c) => (
                &c.bounds[..dim],
                &c.bounds[dim..],
                if *merged_prunable {
                    MERGED_DEFLATE
                } else {
                    0.0
                },
            ),
            None => (tree.row_of(top), tree.row_of(top), 1.0),
        };
        // Leaf candidates, pruned through the tree. Values: kernel
        // evaluations from a leaf query; Lance–Williams row reads from
        // a merged query (the row covers every active slot).
        let mut leaf_value = |k: usize| -> f64 {
            match top_cluster {
                Some(c) => c.row[k],
                None => {
                    *evaluations += 1;
                    leaf_distance(tree.row_of(top), tree.row_of(k))
                }
            }
        };
        let mut best = tree
            .nearest(qlo, qhi, deflate, top, stats, &mut leaf_value)
            .map_or((f64::INFINITY, usize::MAX), |(k, v)| (v, k));
        // Merged candidates: a short ascending scan over live
        // Lance–Williams rows, with the same box pre-check when the
        // linkage admits one.
        for &k in merged.iter() {
            if k == top {
                continue;
            }
            debug_assert!(active[k], "merged list only holds active slots");
            let cluster = clusters[k].as_ref().expect("merged slots seat a cluster");
            if *merged_prunable {
                let (lo, hi) = cluster.bounds.split_at(dim);
                let lb = sq_box_gap(qlo, qhi, lo, hi).sqrt() * MERGED_DEFLATE;
                if lb > best.0 {
                    stats.pruned_subtrees += 1;
                    continue;
                }
            }
            let v = match top_cluster {
                Some(c) => c.row[k],
                None => cluster.row[top],
            };
            if v < best.0 || (v == best.0 && k < best.1) {
                best = (v, k);
            }
        }
        if best.1 == usize::MAX {
            return None;
        }
        // The linear scan prefers the previous chain element on exact
        // ties; reproduce that with one direct comparison.
        if let Some(p) = prev {
            let vp = self.distance(top, p);
            if vp == best.0 {
                return Some((p, vp));
            }
        }
        Some((best.1, best.0))
    }
}

impl Drop for IndexedMetric {
    fn drop(&mut self) {
        if self.evaluations > 0 {
            INDEX_LEAF_EVALS.add(self.evaluations);
        }
        if self.stats.nodes_visited > 0 {
            INDEX_NODES_VISITED.add(self.stats.nodes_visited);
        }
        if self.stats.pruned_subtrees > 0 {
            INDEX_PRUNED.add(self.stats.pruned_subtrees);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{euclidean, DistanceMatrix};
    use crate::source::top_k_nearest;

    fn mixture(n: usize, blobs: usize, dim: usize) -> Vec<Vec<f64>> {
        let mut s = 0x243F_6A88_85A3_08D3u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| {
                        let c = (((i % blobs) * dim + d) as f64 * 0.77).sin() * 8.0;
                        c + (rng() - 0.5) * 2.0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn top_k_matches_brute_force_bit_for_bit() {
        let points = mixture(137, 7, 6);
        let tree = SpatialIndex::build(&points[..]);
        let mut stats = SearchStats::default();
        for q in 0..points.len() {
            for k in [1, 3, 8, 137, 200] {
                let fast = tree.top_k(&points[q], k, q, &mut stats);
                let brute = top_k_nearest(&points[..], q, k);
                assert_eq!(fast.len(), brute.len(), "q={q} k={k}");
                for (a, b) in fast.iter().zip(&brute) {
                    assert_eq!(a.0, b.0, "q={q} k={k}");
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "q={q} k={k}");
                }
            }
        }
        assert!(stats.pruned_subtrees > 0, "no pruning on clustered data");
    }

    #[test]
    fn nearest_matches_a_linear_scan_with_deactivation() {
        let points = mixture(90, 5, 6);
        let mut tree = SpatialIndex::build(&points[..]);
        let mut dead = vec![false; points.len()];
        // Deactivate a deterministic third of the points.
        for i in (0..points.len()).step_by(3) {
            tree.deactivate(i);
            dead[i] = true;
        }
        let mut stats = SearchStats::default();
        for (q, point) in points.iter().enumerate() {
            let mut value = |k: usize| euclidean(point, &points[k]);
            let got = tree.nearest(point, point, 1.0, q, &mut stats, &mut value);
            let mut best = (f64::INFINITY, usize::MAX);
            for (k, &gone) in dead.iter().enumerate() {
                if k == q || gone {
                    continue;
                }
                let d = euclidean(point, &points[k]);
                if d < best.0 {
                    best = (d, k);
                }
            }
            let (k, v) = got.expect("live candidates remain");
            assert_eq!(k, best.1, "q={q}");
            assert_eq!(v.to_bits(), best.0.to_bits(), "q={q}");
        }
    }

    #[test]
    fn duplicate_points_tie_to_the_lowest_index() {
        // Five coincident points plus one far away: nearest of any
        // coincident point must be the lowest-indexed other duplicate.
        let mut points = vec![vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; 5];
        points.push(vec![50.0; 6]);
        let tree = SpatialIndex::build(&points[..]);
        let mut stats = SearchStats::default();
        for (q, point) in points.iter().enumerate().take(5) {
            let mut value = |k: usize| euclidean(point, &points[k]);
            let (k, v) = tree
                .nearest(point, point, 1.0, q, &mut stats, &mut value)
                .unwrap();
            assert_eq!(k, usize::from(q == 0), "q={q}");
            assert_eq!(v, 0.0);
        }
        let top = tree.top_k(&points[0], 3, 0, &mut stats);
        assert_eq!(
            top.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn empty_and_singleton_trees_answer_gracefully() {
        let none: Vec<Vec<f64>> = Vec::new();
        let tree = SpatialIndex::build(&none[..]);
        let mut stats = SearchStats::default();
        assert!(tree
            .nearest(&[], &[], 1.0, 0, &mut stats, &mut |_| 0.0)
            .is_none());
        assert!(tree.top_k(&[], 3, 0, &mut stats).is_empty());

        let one = [vec![1.0; 6]];
        let tree = SpatialIndex::build(&one[..]);
        assert!(tree.top_k(&one[0], 3, 0, &mut stats).is_empty());
    }

    #[test]
    fn box_gap_never_exceeds_the_kernel() {
        // The exactness core: for random boxes and points inside them,
        // the computed bound must be ≤ the computed kernel distance.
        let points = mixture(64, 3, 6);
        let tree = SpatialIndex::build(&points[..]);
        for node in &tree.nodes {
            for &p in &tree.order[node.start as usize..node.end as usize] {
                for q in 0..points.len() {
                    let lb = sq_box_gap(&points[q], &points[q], &node.lo, &node.hi);
                    let d = sq_euclidean(&points[q], &points[p as usize]);
                    assert!(
                        lb.sqrt() <= d.sqrt(),
                        "bound {lb} exceeds kernel {d} (q={q}, p={p})"
                    );
                }
            }
        }
    }

    #[test]
    fn indexed_metric_rejects_an_empty_point_set() {
        let none: Vec<Vec<f64>> = Vec::new();
        assert_eq!(
            IndexedMetric::new(&none, Linkage::Average).unwrap_err(),
            ClusterError::EmptyInput
        );
    }

    #[test]
    fn indexed_metric_rejects_ragged_rows() {
        let ragged = vec![vec![0.0; 6], vec![1.0; 6], vec![2.0; 5]];
        assert_eq!(
            IndexedMetric::new(&ragged, Linkage::Average).unwrap_err(),
            ClusterError::DimensionMismatch {
                expected: 6,
                actual: 5,
                index: 2
            }
        );
    }

    #[test]
    fn indexed_metric_rejects_non_finite_coordinates() {
        let mut points = mixture(12, 3, 6);
        points[7][4] = f64::NAN;
        assert_eq!(
            IndexedMetric::new(&points, Linkage::Average).unwrap_err(),
            ClusterError::NonFinite { index: 7 }
        );
    }

    #[test]
    fn leaf_reads_match_the_materialised_matrix_bit_for_bit() {
        // 9 dimensions fill one 8-lane chunk of the kernel plus a tail.
        for dim in [1, 3, 6, 7, 9] {
            let points = mixture(24, 3, dim);
            let built = DistanceMatrix::build(&points, 1).unwrap();
            let mut indexed = IndexedMetric::new(&points, Linkage::Average).unwrap();
            for i in 0..points.len() {
                for j in (0..points.len()).filter(|&j| j != i) {
                    assert_eq!(
                        indexed.distance(i, j).to_bits(),
                        built.get(i, j).to_bits(),
                        "dim {dim} pair ({i},{j})"
                    );
                }
            }
            // Every off-diagonal read reached the kernel, repeats included.
            assert_eq!(indexed.evaluations(), 24 * 23, "dim {dim}");
        }
    }

    /// Runs one average-linkage column walk of slots 0 and 1 over
    /// `leaves`, for the leaf/merged case `(i_leaf, j_leaf)`, on a copy
    /// of `row_i`; returns the row's bits and the evaluations counted.
    fn average_walk(
        walk: Walk,
        (i_leaf, j_leaf): (bool, bool),
        tree: &SpatialIndex,
        leaves: &[u32],
        (row_i, row_j): (&[f64], &[f64]),
        sizes: (f64, f64),
    ) -> (Vec<u64>, u64) {
        let mut row = row_i.to_vec();
        let update = |dik, djk| Linkage::Average.update(dik, djk, 0.0, sizes.0, sizes.1, 1.0);
        let args = (tree, leaves, (0, 1));
        let evaluations = match (i_leaf, j_leaf) {
            (true, true) => update_leaf_columns::<true, true>(
                walk, args.0, args.1, args.2, &mut row, row_j, sizes, update,
            ),
            (true, false) => update_leaf_columns::<true, false>(
                walk, args.0, args.1, args.2, &mut row, row_j, sizes, update,
            ),
            (false, true) => update_leaf_columns::<false, true>(
                walk, args.0, args.1, args.2, &mut row, row_j, sizes, update,
            ),
            (false, false) => update_leaf_columns::<false, false>(
                walk, args.0, args.1, args.2, &mut row, row_j, sizes, update,
            ),
        };
        (row.iter().map(|v| v.to_bits()).collect(), evaluations)
    }

    #[test]
    fn the_vector_walk_is_bit_identical_to_the_portable_walk() {
        // All four leaf/merged cases; live-leaf counts on both sides of
        // the eight-lane width; dimensions inside the vector walk's
        // range and past it (where it defers to the portable walk);
        // equal and unequal cluster sizes. Without AVX-512F the vector
        // walk is the portable one.
        let cases = [(true, true), (true, false), (false, true), (false, false)];
        for dim in [1usize, 2, 6, 7, 8, 9] {
            let points = mixture(61, 4, dim);
            let n = points.len();
            let tree = SpatialIndex::build(&points[..]);
            // Row entries spanning five decades, so a changed operation
            // order moves low bits.
            let row = |salt: f64| -> Vec<f64> {
                (0..n)
                    .map(|k| ((k as f64 + salt) * 0.37).sin().abs() * 10f64.powi(k as i32 % 5 - 2))
                    .collect()
            };
            let (row_i, row_j) = (row(0.3), row(0.9));
            for live in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 59] {
                // An ascending spread of slots, never 0 or 1.
                let leaves: Vec<u32> = (0..live).map(|t| (2 + t * (n - 2) / live) as u32).collect();
                for sizes in [(1.0, 1.0), (1.0, 6.0), (9.0, 1.0), (12.0, 5.0)] {
                    for case in cases {
                        let what = format!("dim={dim} live={live} sizes={sizes:?} case={case:?}");
                        let rows = (&row_i[..], &row_j[..]);
                        let want = average_walk(Walk::Portable, case, &tree, &leaves, rows, sizes);
                        let endpoints = u64::from(case.0) + u64::from(case.1);
                        assert_eq!(want.1, endpoints * live as u64, "{what}");
                        let got = average_walk(Walk::Avx512, case, &tree, &leaves, rows, sizes);
                        assert_eq!(got, want, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn merged_rows_win_over_the_kernel_and_absorbed_rows_are_freed() {
        // Collinear points: d01 = 5, d02 = 10, d03 = 20, d13 = 15,
        // d23 = 10.
        let points = vec![
            vec![0.0, 0.0],
            vec![3.0, 4.0],
            vec![6.0, 8.0],
            vec![12.0, 16.0],
        ];
        let mut metric = IndexedMetric::new(&points, Linkage::Average).unwrap();
        let mut active = [true; 4];
        let mut size = [1usize; 4];
        metric.merge(0, 1, 5.0, &active, &size, Linkage::Average);
        (active[1], size[0]) = (false, 2);
        assert_eq!(metric.live_rows(), 1);
        // Both leaf columns read the kernel twice, once per endpoint.
        assert_eq!(metric.evaluations(), 4);
        // The stored average wins over the kernel's d02 = 10, read from
        // either endpoint, without another evaluation.
        assert_eq!((metric.distance(0, 2), metric.distance(2, 0)), (7.5, 7.5));
        assert_eq!(metric.evaluations(), 4);
        // A pair of single points still reaches the kernel.
        assert_eq!(metric.distance(2, 3), 10.0);
        assert_eq!(metric.evaluations(), 5);
        // Merging the two leaves gives slot 2 its own row; the merged
        // column takes the symmetric write: (7.5 + 17.5) / 2.
        metric.merge(2, 3, 10.0, &active, &size, Linkage::Average);
        (active[3], size[2]) = (false, 2);
        assert_eq!(metric.live_rows(), 2);
        assert_eq!((metric.distance(0, 2), metric.distance(2, 0)), (12.5, 12.5));
        assert_eq!(metric.evaluations(), 5);
        // The absorbed cluster's row is freed.
        metric.merge(0, 2, 12.5, &active, &size, Linkage::Average);
        assert_eq!(metric.live_rows(), 1);
    }
}
