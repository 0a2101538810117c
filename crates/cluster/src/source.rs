//! Distance sources: where the agglomerative engine reads cluster
//! distances from.
//!
//! The nn-chain engine in [`crate::agglomerative`] touches distances
//! through `len`, `get`, `set` and `nearest_active`, plus `promote` /
//! `retire` notifications when clusters merge. [`DistanceSource`]
//! names that seam, with two implementations:
//!
//! * [`DistanceMatrix`] — the materialised condensed matrix: every
//!   pair precomputed, O(n²) memory. Right when leaf distances are
//!   expensive (the raw 4,032-dim traffic vectors) and will be read
//!   repeatedly.
//! * [`IndexedMetric`](crate::IndexedMetric) — matrix-free: leaf
//!   distances are recomputed from the point rows, only the
//!   Lance–Williams rows of *merged* clusters are stored, and
//!   nearest-neighbour queries prune through a k-d tree. The enabler
//!   for clustering the paper's 9,600 towers (and beyond) in the 6-dim
//!   spectral feature space, where a leaf distance costs six
//!   subtract-square-adds.
//!
//! The two sources are *bit-identical* under the engine: leaf reads
//! call the same kernel the matrix builder uses (symmetric at the bit
//! level — the squared differences erase operand order), and
//! merged-cluster reads return the exact values the engine stored. A
//! golden test in [`crate::agglomerative`] pins this.

use crate::distance::{euclidean, DistanceMatrix};
use crate::index::PointSet;

/// What the agglomerative engine needs from distance storage.
///
/// `get`/`set` address unordered pairs of *slots* (initially one point
/// per slot); the engine guarantees `i ≠ j` slots are only read while
/// both are active. `set` is only ever called by the Lance–Williams
/// update with the surviving merge slot as its first index.
pub trait DistanceSource {
    /// Number of slots (points) the source was built over.
    fn len(&self) -> usize;

    /// `true` when built over zero points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current distance between the clusters seated at `i` and `j`
    /// (0 when `i == j`).
    fn get(&mut self, i: usize, j: usize) -> f64;

    /// Overwrites the distance of a pair (Lance–Williams update; `i`
    /// is the surviving merge slot).
    fn set(&mut self, i: usize, j: usize, v: f64);

    /// The cluster seated at `slot` has been merged away; its
    /// distances will never be read again. Storage may reclaim.
    fn retire(&mut self, slot: usize) {
        let _ = slot;
    }

    /// Notification that `survivor` absorbed `absorbed` in a merge:
    /// `survivor` now seats an internal cluster. Called after the
    /// Lance–Williams updates and before `retire(absorbed)`. Sources
    /// with spatial acceleration structures use this to maintain
    /// cluster extents; the default does nothing.
    fn promote(&mut self, survivor: usize, absorbed: usize) {
        let _ = (survivor, absorbed);
    }

    /// The nearest active neighbour of `top` as `(slot, distance)`,
    /// or `None` when no other slot is active. On exact distance ties
    /// the result must prefer `prev` if it participates in the tie,
    /// and the lowest slot index otherwise — the contract the nn-chain
    /// engine's termination proof and deterministic output rest on.
    ///
    /// The default is the reference linear scan; indexed sources
    /// override it with a pruned search that returns the identical
    /// answer.
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

impl DistanceSource for DistanceMatrix {
    fn len(&self) -> usize {
        DistanceMatrix::len(self)
    }
    fn get(&mut self, i: usize, j: usize) -> f64 {
        DistanceMatrix::get(self, i, j)
    }
    fn set(&mut self, i: usize, j: usize, v: f64) {
        DistanceMatrix::set(self, i, j, v);
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
