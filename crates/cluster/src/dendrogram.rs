//! The merge tree produced by agglomerative clustering, and flat
//! clusterings cut from it.

use serde::{Deserialize, Serialize};

use crate::distance::euclidean;
use crate::error::{validate_points, ClusterError};

/// One agglomerative merge step.
///
/// Cluster ids follow the scipy convention: the original points are
/// clusters `0..n`, and the merge recorded at position `i` of the merge
/// list creates cluster `n + i`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Merge {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f64,
    /// Size of the newly formed cluster.
    pub size: usize,
}

/// A full agglomerative merge history over `n` points
/// (`n − 1` merges, non-decreasing in distance).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Assembles a dendrogram from a merge list produced in *creation
    /// order* (merge `i` creates cluster id `n + i`, referencing only
    /// earlier ids), re-sorting it by merge distance and rewriting the
    /// cluster ids to match the sorted order.
    ///
    /// The NN-chain engine emits merges out of height order; stable
    /// sorting plus an id rewrite yields the canonical form the
    /// closest-pair scan would emit. The rewrite replays the sorted
    /// merges through a union-find over the points, whose every root
    /// carries its cluster's current id, addressing each merge by one
    /// *representative point* of each side (recorded before sorting).
    /// The `(rep_a, rep_b)` edges of a merge history always form a
    /// spanning tree of the points, so the replay never merges a
    /// cluster with itself regardless of tie order; if it would, the
    /// input was not a merge history and the replay fails.
    ///
    /// # Errors
    /// [`ClusterError::Internal`] for a merge count other than `n − 1`,
    /// a reference to a cluster id not yet created, or a replayed merge
    /// whose two sides are already one cluster.
    pub(crate) fn new(n: usize, merges: Vec<Merge>) -> Result<Self, ClusterError> {
        let tagged = tag_representatives(n, merges)?;
        // Replay in sorted order, assigning fresh ids n, n+1, …
        let mut uf = UnionFind::new(n);
        let mut id: Vec<usize> = (0..n).collect();
        let mut new_merges = Vec::with_capacity(tagged.len());
        for (i, (m, ra, rb)) in tagged.into_iter().enumerate() {
            let (root_a, root_b) = (uf.find(ra), uf.find(rb));
            if root_a == root_b {
                return Err(ClusterError::Internal(
                    "replay merged a cluster with itself",
                ));
            }
            let (na, nb) = (id[root_a], id[root_b]);
            new_merges.push(Merge {
                a: na.min(nb),
                b: na.max(nb),
                distance: m.distance,
                size: m.size,
            });
            id[uf.link(root_a, root_b)] = n + i;
        }
        Ok(Dendrogram {
            n,
            merges: new_merges,
        })
    }

    /// Rebuilds a dendrogram from merges already in canonical form —
    /// the exact list a previous [`Dendrogram::merges`] returned, as
    /// persisted by a checkpoint codec. Unlike the engine-facing
    /// constructor this does *not* re-sort or rewrite ids; it only
    /// validates that the list is canonical: `n − 1` merges,
    /// non-decreasing distances, each merge referencing ids created
    /// earlier, and every cluster id consumed at most once.
    ///
    /// # Errors
    /// [`ClusterError::Internal`] describing the first violation.
    pub fn from_sorted_merges(n: usize, merges: Vec<Merge>) -> Result<Self, ClusterError> {
        if merges.len() + 1 != n && !(n == 0 && merges.is_empty()) {
            return Err(ClusterError::Internal("merge count must be n-1"));
        }
        let total = n + merges.len();
        let mut consumed = vec![false; total];
        let mut prev = f64::NEG_INFINITY;
        for (i, m) in merges.iter().enumerate() {
            let created = n + i;
            if m.a >= created || m.b >= created || m.a == m.b {
                return Err(ClusterError::Internal(
                    "merge references a not-yet-created cluster id",
                ));
            }
            if consumed[m.a] || consumed[m.b] {
                return Err(ClusterError::Internal(
                    "merge consumes an already-merged cluster id",
                ));
            }
            consumed[m.a] = true;
            consumed[m.b] = true;
            if m.distance.is_nan() || m.distance < prev {
                return Err(ClusterError::Internal(
                    "merge distances must be non-decreasing",
                ));
            }
            prev = m.distance;
        }
        Ok(Dendrogram { n, merges })
    }

    /// Number of leaves (original points).
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when built over zero points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The merges, sorted by non-decreasing linkage distance.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cuts the tree at a distance threshold: merges with
    /// `distance ≤ threshold` are applied (the paper's stop condition:
    /// clustering stops when the inter-cluster distance *exceeds* the
    /// threshold).
    pub fn cut_at(&self, threshold: f64) -> Clustering {
        let applied = self
            .merges
            .iter()
            .take_while(|m| m.distance <= threshold)
            .count();
        self.cut_after(applied)
    }

    /// Cuts the tree so exactly `k` clusters remain.
    ///
    /// # Errors
    /// [`ClusterError::ZeroClusters`] or
    /// [`ClusterError::TooManyClusters`] for invalid `k`.
    pub fn cut_k(&self, k: usize) -> Result<Clustering, ClusterError> {
        if k == 0 {
            return Err(ClusterError::ZeroClusters);
        }
        if k > self.n {
            return Err(ClusterError::TooManyClusters {
                requested: k,
                available: self.n,
            });
        }
        Ok(self.cut_after(self.n - k))
    }

    /// The smallest threshold that yields exactly `k` clusters, i.e.
    /// the distance of the last applied merge (0 if none). Useful for
    /// reporting "the threshold value" the way the paper quotes 16.33.
    pub fn threshold_for_k(&self, k: usize) -> Result<f64, ClusterError> {
        if k == 0 {
            return Err(ClusterError::ZeroClusters);
        }
        if k > self.n {
            return Err(ClusterError::TooManyClusters {
                requested: k,
                available: self.n,
            });
        }
        let applied = self.n - k;
        Ok(if applied == 0 {
            0.0
        } else {
            self.merges[applied - 1].distance
        })
    }

    /// Applies the first `count` merges and extracts the flat labels.
    fn cut_after(&self, count: usize) -> Clustering {
        let mut uf = UnionFind::new(self.n + count);
        for (i, m) in self.merges.iter().take(count).enumerate() {
            let created = self.n + i;
            uf.union(m.a, created);
            uf.union(m.b, created);
        }
        // Relabel roots to consecutive ids in order of first point.
        let mut labels = vec![usize::MAX; self.n];
        let mut next = 0;
        let mut map = std::collections::HashMap::new();
        for (p, slot) in labels.iter_mut().enumerate() {
            let root = uf.find(p);
            *slot = *map.entry(root).or_insert_with(|| {
                let l = next;
                next += 1;
                l
            });
        }
        Clustering { labels, k: next }
    }
}

/// Checks a creation-order merge list and tags every merge with one
/// representative point of each side, stably sorted by merge distance:
/// the input [`Dendrogram::new`] replays.
fn tag_representatives(
    n: usize,
    merges: Vec<Merge>,
) -> Result<Vec<(Merge, usize, usize)>, ClusterError> {
    if merges.len() + 1 != n && !(n == 0 && merges.is_empty()) {
        return Err(ClusterError::Internal("merge count must be n-1"));
    }
    // Representative point of every cluster id in creation order.
    let total = n + merges.len();
    let mut rep: Vec<usize> = vec![usize::MAX; total];
    for (i, r) in rep.iter_mut().enumerate().take(n) {
        *r = i;
    }
    let mut tagged: Vec<(Merge, usize, usize)> = Vec::with_capacity(merges.len());
    for (i, m) in merges.into_iter().enumerate() {
        let created = n + i;
        if m.a >= created || m.b >= created || rep[m.a] == usize::MAX || rep[m.b] == usize::MAX {
            return Err(ClusterError::Internal(
                "merge references a not-yet-created cluster id",
            ));
        }
        rep[created] = rep[m.a];
        tagged.push((m, rep[m.a], rep[m.b]));
    }
    tagged.sort_by(|x, y| {
        x.0.distance
            .partial_cmp(&y.0.distance)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(tagged)
}

/// Test oracle for [`Dendrogram::new`]: the O(n²) replay it used
/// before the union-find, which relabels every point of both sides
/// after each merge.
#[cfg(test)]
pub(crate) fn relabelling_replay(n: usize, merges: Vec<Merge>) -> Result<Dendrogram, ClusterError> {
    let tagged = tag_representatives(n, merges)?;
    let mut point_cluster: Vec<usize> = (0..n).collect();
    let mut new_merges = Vec::with_capacity(tagged.len());
    for (i, (m, ra, rb)) in tagged.into_iter().enumerate() {
        let na = point_cluster[ra];
        let nb = point_cluster[rb];
        assert_ne!(na, nb, "replay merged a cluster with itself");
        let new_id = n + i;
        new_merges.push(Merge {
            a: na.min(nb),
            b: na.max(nb),
            distance: m.distance,
            size: m.size,
        });
        for pc in point_cluster.iter_mut() {
            if *pc == na || *pc == nb {
                *pc = new_id;
            }
        }
    }
    Ok(Dendrogram {
        n,
        merges: new_merges,
    })
}

/// A flat assignment of points to `k` clusters, labelled `0..k` in
/// order of first appearance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clustering {
    /// `labels[i]` is the cluster of point `i`.
    pub labels: Vec<usize>,
    /// Number of clusters.
    pub k: usize,
}

impl Clustering {
    /// Builds a clustering from raw labels, validating that they are
    /// consecutive from zero.
    pub fn from_labels(labels: Vec<usize>) -> Result<Self, ClusterError> {
        if labels.is_empty() {
            return Err(ClusterError::EmptyInput);
        }
        let k = labels.iter().copied().max().unwrap_or(0) + 1;
        let mut seen = vec![false; k];
        for &l in &labels {
            seen[l] = true;
        }
        if seen.iter().any(|s| !s) {
            return Err(ClusterError::Internal("labels not consecutive from 0"));
        }
        Ok(Clustering { labels, k })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` for a clustering of zero points (cannot be constructed
    /// through the public API).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Member counts per cluster.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &l in &self.labels {
            sizes[l] += 1;
        }
        sizes
    }

    /// Member shares per cluster (fractions summing to 1).
    pub fn shares(&self) -> Vec<f64> {
        let n = self.labels.len() as f64;
        self.sizes().iter().map(|&s| s as f64 / n).collect()
    }

    /// Point indices belonging to cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Centroid of each cluster in the original feature space, over
    /// up to `threads` workers (`0` means available parallelism).
    ///
    /// Each worker sums one contiguous range of dimensions over every
    /// point in point order, so every coordinate adds the same values in
    /// the same order as a serial pass: the centroids are bit-identical
    /// for any thread count. Inputs under about a million values
    /// (points × dimensions) run on the calling thread. The workers
    /// check the values they read, so the point set is read once and
    /// validated as the serial check would: the error names the first
    /// bad point.
    ///
    /// # Errors
    /// Point-set validation failures, or
    /// [`ClusterError::Internal`] if `points.len()` doesn't match the
    /// label count.
    pub fn centroids(
        &self,
        points: &[Vec<f64>],
        threads: usize,
    ) -> Result<Vec<Vec<f64>>, ClusterError> {
        if points.len() != self.labels.len() {
            validate_points(points)?;
            return Err(ClusterError::Internal("points/labels length mismatch"));
        }
        let dim = points.first().ok_or(ClusterError::EmptyInput)?.len();
        // Points before the first ragged one are summed and checked;
        // that one is the error unless an earlier point is not finite.
        let ragged = points.iter().position(|p| p.len() != dim);
        let rows = &points[..ragged.unwrap_or(points.len())];
        let workers = workers_for(points.len() * dim, threads);
        let width = towerlens_par::chunk_len(dim, workers).max(1);
        let ranges: Vec<(usize, usize)> = (0..dim)
            .step_by(width)
            .map(|d0| (d0, (d0 + width).min(dim)))
            .collect();
        let blocks = towerlens_par::par_map_indexed(&ranges, workers, |_, &(d0, d1)| {
            let mut block = vec![vec![0.0; d1 - d0]; self.k];
            let mut non_finite = None;
            for (index, (p, &l)) in rows.iter().zip(&self.labels).enumerate() {
                let values = &p[d0..d1];
                for (c, v) in block[l].iter_mut().zip(values) {
                    *c += v;
                }
                let finite = values.iter().fold(true, |finite, v| finite & v.is_finite());
                if !finite && non_finite.is_none() {
                    non_finite = Some(index);
                }
            }
            (block, non_finite)
        });
        if let Some(index) = blocks.iter().filter_map(|(_, bad)| *bad).min() {
            return Err(ClusterError::NonFinite { index });
        }
        if let Some(index) = ragged {
            return Err(ClusterError::DimensionMismatch {
                expected: dim,
                actual: points[index].len(),
                index,
            });
        }
        let sizes = self.sizes();
        let mut centroids = vec![Vec::with_capacity(dim); self.k];
        for (block, _) in blocks {
            for ((c, part), &s) in centroids.iter_mut().zip(block).zip(&sizes) {
                c.extend(
                    part.into_iter()
                        .map(|v| if s > 0 { v / s as f64 } else { v }),
                );
            }
        }
        Ok(centroids)
    }

    /// For each cluster, the Euclidean distances of its members to the
    /// cluster centroid — the sample behind Fig 6(b)'s CDFs.
    /// `centroids` are this clustering's [`Clustering::centroids`] over
    /// the same points. Points fan out over up to `threads` workers
    /// (`0` means available parallelism), each distance in its own
    /// slot, so the result is bit-identical for any thread count; inputs
    /// under about a million values run on the calling thread.
    ///
    /// # Errors
    /// [`ClusterError::Internal`] if `points` doesn't match the label
    /// count or `centroids` the cluster count, and
    /// [`ClusterError::DimensionMismatch`] (indexed by cluster) for a
    /// centroid whose length differs from the first point's.
    pub fn member_centroid_distances(
        &self,
        points: &[Vec<f64>],
        centroids: &[Vec<f64>],
        threads: usize,
    ) -> Result<Vec<Vec<f64>>, ClusterError> {
        if points.len() != self.labels.len() {
            return Err(ClusterError::Internal("points/labels length mismatch"));
        }
        if centroids.len() != self.k {
            return Err(ClusterError::Internal("centroids/clusters count mismatch"));
        }
        let dim = points.first().map_or(0, Vec::len);
        if let Some(index) = centroids.iter().position(|c| c.len() != dim) {
            return Err(ClusterError::DimensionMismatch {
                expected: dim,
                actual: centroids[index].len(),
                index,
            });
        }
        let workers = workers_for(points.len() * dim, threads);
        let distances = towerlens_par::par_map_indexed(points, workers, |i, p| {
            euclidean(p, &centroids[self.labels[i]])
        });
        let mut out: Vec<Vec<f64>> = self.sizes().into_iter().map(Vec::with_capacity).collect();
        for (d, &l) in distances.into_iter().zip(&self.labels) {
            out[l].push(d);
        }
        Ok(out)
    }

    /// Relabels clusters so that label 0 is the largest cluster, 1 the
    /// next, etc. Deterministic tie-break by old label.
    pub fn sorted_by_size(&self) -> Clustering {
        let sizes = self.sizes();
        let mut order: Vec<usize> = (0..self.k).collect();
        order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]).then(a.cmp(&b)));
        let mut remap = vec![0usize; self.k];
        for (new, &old) in order.iter().enumerate() {
            remap[old] = new;
        }
        Clustering {
            labels: self.labels.iter().map(|&l| remap[l]).collect(),
            k: self.k,
        }
    }
}

/// Point-set size, in values (points × dimensions), below which
/// [`Clustering::centroids`],
/// [`Clustering::member_centroid_distances`] and the point check of
/// [`DistanceMatrix::build`](crate::distance::DistanceMatrix::build)
/// stay on the calling thread. On a 2-vCPU x86-64 VM the two passes together took, serial
/// against two threads (best of 200, 1,008-dim points): 0.26 against
/// 0.36 ms at 262k values, 0.95 against 0.94 ms at 806k, 1.25 against
/// 1.13 ms at 1.05M and 4.3 against 3.3 ms at 3.2M. Serve's
/// per-publish studies (about 120 towers of 1,008 bins) spawn nothing.
const PAR_MIN_VALUES: usize = 1 << 20;

/// The worker count for a pass over `values` values.
pub(crate) fn workers_for(values: usize, threads: usize) -> usize {
    if values < PAR_MIN_VALUES {
        1
    } else {
        threads
    }
}

/// Minimal union-find with path halving and union by size: a sequence
/// of m finds and links over n elements costs O((n + m) α(n)).
struct UnionFind {
    parent: Vec<usize>,
    /// Element count of each root's tree.
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Joins the trees of two distinct roots, the smaller under the
    /// larger, and returns the root of the union.
    fn link(&mut self, ra: usize, rb: usize) -> usize {
        let (small, large) = if self.size[ra] < self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = large;
        self.size[large] += self.size[small];
        large
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.link(ra, rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dendrogram over 4 points: {0,1} at d=1, {2,3} at d=2, all at d=5.
    fn sample() -> Dendrogram {
        Dendrogram::new(
            4,
            vec![
                Merge {
                    a: 0,
                    b: 1,
                    distance: 1.0,
                    size: 2,
                },
                Merge {
                    a: 2,
                    b: 3,
                    distance: 2.0,
                    size: 2,
                },
                Merge {
                    a: 4,
                    b: 5,
                    distance: 5.0,
                    size: 4,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_sorted_merges_roundtrips_canonical_form() {
        let d = sample();
        let rebuilt = Dendrogram::from_sorted_merges(d.len(), d.merges().to_vec()).unwrap();
        assert_eq!(rebuilt.merges(), d.merges());
        for k in 1..=4 {
            assert_eq!(rebuilt.cut_k(k).unwrap(), d.cut_k(k).unwrap());
        }
    }

    #[test]
    fn from_sorted_merges_rejects_non_canonical_input() {
        let d = sample();
        // Wrong merge count.
        assert!(Dendrogram::from_sorted_merges(5, d.merges().to_vec()).is_err());
        // Decreasing distances.
        let mut merges = d.merges().to_vec();
        merges[2].distance = 0.5;
        assert!(Dendrogram::from_sorted_merges(4, merges).is_err());
        // Forward reference.
        let mut merges = d.merges().to_vec();
        merges[0].a = 6;
        assert!(Dendrogram::from_sorted_merges(4, merges).is_err());
        // Double consumption of a cluster id.
        let mut merges = d.merges().to_vec();
        merges[1].a = 0;
        assert!(Dendrogram::from_sorted_merges(4, merges).is_err());
    }

    #[test]
    fn cut_at_thresholds() {
        let d = sample();
        assert_eq!(d.cut_at(0.5).k, 4);
        assert_eq!(d.cut_at(1.0).k, 3);
        assert_eq!(d.cut_at(2.5).k, 2);
        assert_eq!(d.cut_at(10.0).k, 1);
    }

    #[test]
    fn cut_k_matches_structure() {
        let d = sample();
        let c2 = d.cut_k(2).unwrap();
        assert_eq!(c2.labels[0], c2.labels[1]);
        assert_eq!(c2.labels[2], c2.labels[3]);
        assert_ne!(c2.labels[0], c2.labels[2]);
        assert_eq!(d.cut_k(1).unwrap().k, 1);
        assert_eq!(d.cut_k(4).unwrap().k, 4);
        assert!(d.cut_k(0).is_err());
        assert!(d.cut_k(5).is_err());
    }

    #[test]
    fn threshold_for_k_reports_last_merge() {
        let d = sample();
        assert_eq!(d.threshold_for_k(4).unwrap(), 0.0);
        assert_eq!(d.threshold_for_k(3).unwrap(), 1.0);
        assert_eq!(d.threshold_for_k(2).unwrap(), 2.0);
        assert_eq!(d.threshold_for_k(1).unwrap(), 5.0);
    }

    #[test]
    fn unsorted_merge_input_is_canonicalized() {
        // Same tree as `sample` but with merges supplied out of order.
        let d = Dendrogram::new(
            4,
            vec![
                Merge {
                    a: 2,
                    b: 3,
                    distance: 2.0,
                    size: 2,
                },
                Merge {
                    a: 0,
                    b: 1,
                    distance: 1.0,
                    size: 2,
                },
                Merge {
                    a: 4,
                    b: 5,
                    distance: 5.0,
                    size: 4,
                },
            ],
        )
        .unwrap();
        assert!((d.merges()[0].distance - 1.0).abs() < 1e-12);
        let c2 = d.cut_k(2).unwrap();
        assert_eq!(c2.labels[0], c2.labels[1]);
        assert_eq!(c2.labels[2], c2.labels[3]);
        assert_ne!(c2.labels[0], c2.labels[2]);
    }

    #[test]
    fn clustering_sizes_shares_members() {
        let c = Clustering::from_labels(vec![0, 1, 0, 0, 1]).unwrap();
        assert_eq!(c.k, 2);
        assert_eq!(c.sizes(), vec![3, 2]);
        assert_eq!(c.shares(), vec![0.6, 0.4]);
        assert_eq!(c.members(1), vec![1, 4]);
    }

    #[test]
    fn from_labels_rejects_gaps() {
        assert!(Clustering::from_labels(vec![0, 2]).is_err());
        assert!(Clustering::from_labels(vec![]).is_err());
    }

    #[test]
    fn centroids_and_distances() {
        let pts = vec![vec![0.0, 0.0], vec![2.0, 0.0], vec![10.0, 10.0]];
        let c = Clustering::from_labels(vec![0, 0, 1]).unwrap();
        let cents = c.centroids(&pts, 1).unwrap();
        assert_eq!(cents[0], vec![1.0, 0.0]);
        assert_eq!(cents[1], vec![10.0, 10.0]);
        let d = c.member_centroid_distances(&pts, &cents, 1).unwrap();
        assert_eq!(d[0], vec![1.0, 1.0]);
        assert_eq!(d[1], vec![0.0]);
    }

    #[test]
    fn member_distances_reject_a_centroid_of_the_wrong_length() {
        // A short centroid used to truncate every distance silently in
        // release builds.
        let pts = vec![vec![0.0, 0.0], vec![2.0, 0.0], vec![10.0, 10.0]];
        let c = Clustering::from_labels(vec![0, 0, 1]).unwrap();
        let mut cents = c.centroids(&pts, 1).unwrap();
        cents[1].pop();
        assert_eq!(
            c.member_centroid_distances(&pts, &cents, 1).unwrap_err(),
            ClusterError::DimensionMismatch {
                expected: 2,
                actual: 1,
                index: 1
            }
        );
    }

    #[test]
    fn threaded_centroids_and_distances_are_bit_identical_to_a_serial_pass() {
        // 3,200 points × 331 dimensions clear the serial threshold, and
        // 331 dimensions split unevenly over 2, 3 and 8 workers.
        let (n, dim) = (3_200, 331);
        assert!(n * dim >= PAR_MIN_VALUES);
        let points: Vec<Vec<f64>> = (0..n)
            .map(|p| {
                (0..dim)
                    .map(|d| ((p * dim + d) as f64 * 0.618).sin() * 10f64.powi((d % 7) as i32 - 3))
                    .collect()
            })
            .collect();
        let c = Clustering::from_labels((0..n).map(|p| (p * 7 + p / 13) % 5).collect()).unwrap();
        // The serial reference: every point added in order, then divided.
        let mut want = vec![vec![0.0; dim]; c.k];
        for (p, &l) in points.iter().zip(&c.labels) {
            for (acc, v) in want[l].iter_mut().zip(p) {
                *acc += v;
            }
        }
        for (acc, &size) in want.iter_mut().zip(&c.sizes()) {
            for v in acc.iter_mut() {
                *v /= size as f64;
            }
        }
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let want_distances: Vec<Vec<f64>> = (0..c.k)
            .map(|l| {
                c.members(l)
                    .into_iter()
                    .map(|p| euclidean(&points[p], &want[l]))
                    .collect()
            })
            .collect();
        for threads in [1usize, 2, 3, 8] {
            let got = c.centroids(&points, threads).unwrap();
            assert_eq!(bits(&got), bits(&want), "threads={threads}");
            let distances = c.member_centroid_distances(&points, &got, threads).unwrap();
            assert_eq!(bits(&distances), bits(&want_distances), "threads={threads}");
        }
        // Validation still names the first bad row, whichever worker
        // would have summed it.
        let mut bad = points.clone();
        bad[n - 1][dim - 1] = f64::NAN;
        bad[700][3] = f64::INFINITY;
        bad[800][4] = f64::NAN;
        bad[800][dim - 1] = f64::NAN;
        bad[900].pop();
        for first in [700, 800] {
            assert_eq!(
                c.centroids(&bad, 3).unwrap_err(),
                ClusterError::NonFinite { index: first }
            );
            bad[first].fill(0.0);
        }
        assert_eq!(
            c.centroids(&bad, 3).unwrap_err(),
            ClusterError::DimensionMismatch {
                expected: dim,
                actual: dim - 1,
                index: 900
            }
        );
    }

    #[test]
    fn sorted_by_size_relabels() {
        let c = Clustering::from_labels(vec![0, 1, 1, 1, 2, 2]).unwrap();
        let s = c.sorted_by_size();
        assert_eq!(s.labels, vec![2, 0, 0, 0, 1, 1]);
    }

    #[test]
    fn merge_count_validated() {
        assert!(Dendrogram::new(3, vec![]).is_err());
    }

    #[test]
    fn replay_rejects_a_merge_within_one_cluster() {
        // Both merges join points 0 and 1, so point 2 is never reached
        // and the second replayed merge finds one cluster on both sides.
        let merge = |distance| Merge {
            a: 0,
            b: 1,
            distance,
            size: 2,
        };
        assert_eq!(
            Dendrogram::new(3, vec![merge(1.0), merge(2.0)]).unwrap_err(),
            ClusterError::Internal("replay merged a cluster with itself")
        );
    }
}
