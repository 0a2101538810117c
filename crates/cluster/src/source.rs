//! Distance sources: where the agglomerative engine reads cluster
//! distances from.
//!
//! The nn-chain engine in [`agglomerative`](mod@crate::agglomerative)
//! asks a source two things: the nearest active neighbour of the chain
//! top (`nearest_active`), and to apply the Lance–Williams update when
//! two clusters merge (`merge`). [`DistanceSource`] names that seam,
//! with two implementations:
//!
//! * [`DistanceMatrix`] — the materialised condensed matrix: every
//!   pair precomputed, O(n²) memory. Right when leaf distances are
//!   expensive (the raw 4,032-dim traffic vectors) and will be read
//!   repeatedly. Its `merge` is the per-pair update over the condensed
//!   cells and its `nearest_active` the reference linear scan.
//! * [`IndexedMetric`](crate::IndexedMetric) — matrix-free: leaf
//!   distances are recomputed from the point rows, every merged
//!   cluster owns one Lance–Williams row, `merge` updates that row
//!   column by column over the live leaves and merged clusters, and
//!   nearest-neighbour queries prune through a k-d tree. The enabler
//!   for clustering the paper's 9,600 towers (and beyond) in the
//!   low-dimensional spectral feature space, where a leaf distance
//!   costs a handful of subtract-square-adds.
//!
//! The two sources are *bit-identical* under the engine: leaf reads
//! use the same lane structure as the kernel the matrix builder uses
//! (symmetric at the bit level — the squared differences erase operand
//! order), both apply the same recurrence to the same three distances
//! per pair, and merged-cluster reads return the exact values stored.
//! Golden tests in [`agglomerative`](mod@crate::agglomerative) and
//! `tests/index_prop.rs` pin this.

use crate::agglomerative::Linkage;
use crate::distance::{euclidean, DistanceMatrix};
use crate::index::PointSet;

/// What the agglomerative engine needs from distance storage.
///
/// Slots start as one point each; a merge seats the new cluster in the
/// lower slot and retires the other. The engine only ever asks about
/// active slots.
pub trait DistanceSource {
    /// Number of slots (points) the source was built over.
    fn len(&self) -> usize;

    /// `true` when built over zero points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges the cluster seated at slot `j` into slot `i` (`i < j`) at
    /// cluster distance `d`: the distance from `i` to every other
    /// active slot `k` becomes the Lance–Williams update of `d(i, k)`,
    /// `d(j, k)` and `d`, and slot `j` is never read again. `active`
    /// and `size` are the engine's state before the merge (both slots
    /// still active, `size` their member counts).
    fn merge(
        &mut self,
        i: usize,
        j: usize,
        d: f64,
        active: &[bool],
        size: &[usize],
        linkage: Linkage,
    );

    /// The nearest active neighbour of `top` as `(slot, distance)`,
    /// or `None` when no other slot is active. On exact distance ties
    /// the result must prefer `prev` if it participates in the tie,
    /// and the lowest slot index otherwise — the contract the nn-chain
    /// engine's termination proof and deterministic output rest on.
    fn nearest_active(
        &mut self,
        top: usize,
        active: &[bool],
        prev: Option<usize>,
    ) -> Option<(usize, f64)>;
}

impl DistanceSource for DistanceMatrix {
    fn len(&self) -> usize {
        DistanceMatrix::len(self)
    }

    fn merge(
        &mut self,
        i: usize,
        j: usize,
        d: f64,
        active: &[bool],
        size: &[usize],
        linkage: Linkage,
    ) {
        let (ni, nj) = (size[i] as f64, size[j] as f64);
        for k in 0..self.len() {
            if k == i || k == j || !active[k] {
                continue;
            }
            let dik = self.get(i, k);
            let djk = self.get(j, k);
            self.set(i, k, linkage.update(dik, djk, d, ni, nj, size[k] as f64));
        }
    }

    /// The reference linear scan; [`IndexedMetric`](crate::IndexedMetric)
    /// answers identically through a pruned descent.
    fn nearest_active(
        &mut self,
        top: usize,
        active: &[bool],
        prev: Option<usize>,
    ) -> Option<(usize, f64)> {
        let mut nearest = usize::MAX;
        let mut best = f64::INFINITY;
        for (k, &alive) in active.iter().enumerate().take(self.len()) {
            if k == top || !alive {
                continue;
            }
            let d = self.get(top, k);
            if d < best || (d == best && Some(k) == prev) {
                best = d;
                nearest = k;
            }
        }
        (nearest != usize::MAX).then_some((nearest, best))
    }
}

/// The `k` nearest neighbours of point `query`, computed by a single
/// linear scan — no distance matrix is ever materialised, so memory
/// stays O(k) regardless of `points.len()`. The brute-force oracle the
/// spatial index's top-k descent is tested against.
///
/// Returns `(index, distance)` pairs sorted ascending by
/// `(distance, index)`; ties therefore break to the lower index and
/// the result is fully deterministic. `query` itself is excluded.
/// Fewer than `k` pairs come back when the set is small.
pub fn top_k_nearest<P: PointSet + ?Sized>(
    points: &P,
    query: usize,
    k: usize,
) -> Vec<(usize, f64)> {
    let n = points.len();
    if k == 0 || query >= n {
        return Vec::new();
    }
    let mut top = TopK::new(k);
    for j in 0..n {
        if j == query {
            continue;
        }
        top.offer(j, euclidean(points.row(query), points.row(j)));
    }
    top.into_sorted()
}

/// A bounded max-heap keeping the `k` smallest `(distance, index)`
/// candidates seen so far, ordered lexicographically by
/// `(distance, index)` so ties are fully deterministic.
///
/// Replacing a full heap's root is O(log k) against the O(k) shift of
/// sorted insertion, and [`TopK::worst`] gives the pruning threshold
/// the spatial index's top-k descent needs in O(1). Offering every
/// candidate of a linear scan yields exactly the `k` smallest by
/// `(distance, index)` — the same set, in the same order, as the
/// sorted-buffer implementation this replaced.
#[derive(Debug, Clone, Default)]
pub struct TopK {
    k: usize,
    /// Max-heap: `heap[0]` is the worst (largest) retained candidate.
    heap: Vec<(f64, usize)>,
}

impl TopK {
    /// An empty accumulator retaining at most `k` candidates.
    #[must_use]
    pub fn new(k: usize) -> TopK {
        TopK {
            k,
            heap: Vec::with_capacity(k.min(1 << 12)),
        }
    }

    /// `true` once `k` candidates are retained (the threshold in
    /// [`TopK::worst`] is now meaningful for pruning).
    #[must_use]
    pub fn full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// The retention bound `k`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// The worst retained candidate as `(distance, index)`, only once
    /// the accumulator is full — a candidate set that isn't full yet
    /// admits everything, so there is no threshold to prune against.
    #[must_use]
    pub fn worst(&self) -> Option<(f64, usize)> {
        (self.k > 0 && self.full()).then(|| self.heap[0])
    }

    /// Offers a candidate; it is retained iff it is among the `k`
    /// smallest by `(distance, index)` seen so far.
    pub fn offer(&mut self, index: usize, distance: f64) {
        if self.k == 0 {
            return;
        }
        let entry = (distance, index);
        if self.heap.len() < self.k {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        } else if lex_less(entry, self.heap[0]) {
            self.heap[0] = entry;
            self.sift_down(0);
        }
    }

    /// Consumes the accumulator, returning `(index, distance)`
    /// ascending by `(distance, index)`.
    #[must_use]
    pub fn into_sorted(mut self) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(self.heap.len());
        self.sorted_into(&mut out);
        out
    }

    /// Empties the accumulator into `out` (appended, ascending by
    /// `(distance, index)`) and re-arms it for `reset`/reuse — the
    /// allocation-free counterpart of [`TopK::into_sorted`] for
    /// callers that keep scratch buffers across queries.
    pub fn sorted_into(&mut self, out: &mut Vec<(usize, f64)>) {
        self.heap
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.extend(self.heap.drain(..).map(|(d, i)| (i, d)));
    }

    /// Clears retained candidates and sets a new retention bound,
    /// keeping the heap's allocation for reuse.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    fn sift_up(&mut self, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if lex_less(self.heap[parent], self.heap[at]) {
                self.heap.swap(parent, at);
                at = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut at: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * at + 1, 2 * at + 2);
            let mut largest = at;
            if l < n && lex_less(self.heap[largest], self.heap[l]) {
                largest = l;
            }
            if r < n && lex_less(self.heap[largest], self.heap[r]) {
                largest = r;
            }
            if largest == at {
                break;
            }
            self.heap.swap(at, largest);
            at = largest;
        }
    }
}

/// Strict lexicographic `(distance, index)` order (total: distances
/// compare via `total_cmp`, though the kernels never produce NaN).
#[inline]
fn lex_less(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_matches_brute_force_reference() {
        // Deterministic pseudo-random points, then pin the scan
        // against the O(n²) sort-everything reference.
        let n = 37;
        let points: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..6)
                    .map(|d| (((i * 6 + d) as f64) * 0.7315).sin() * 3.0)
                    .collect()
            })
            .collect();
        for query in 0..n {
            for k in [0, 1, 3, n - 1, n + 5] {
                let fast = top_k_nearest(&points[..], query, k);
                let mut brute: Vec<(usize, f64)> = (0..n)
                    .filter(|&j| j != query)
                    .map(|j| (j, euclidean(&points[query], &points[j])))
                    .collect();
                brute.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
                brute.truncate(k);
                assert_eq!(fast, brute, "query {query} k {k}");
            }
        }
    }

    #[test]
    fn top_k_breaks_distance_ties_to_the_lower_index() {
        // Four points equidistant from the origin point.
        let points = [
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![-1.0, 0.0],
            vec![0.0, -1.0],
        ];
        let got = top_k_nearest(&points[..], 0, 2);
        assert_eq!(got, vec![(1, 1.0), (2, 1.0)]);
    }
}
