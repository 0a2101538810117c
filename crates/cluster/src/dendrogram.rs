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
    /// closest-pair scan would emit. The rewrite replays the sorted merges over a
    /// per-point cluster map, addressing each merge by one
    /// *representative point* of each side (recorded before sorting).
    /// The `(rep_a, rep_b)` edges of a merge history always form a
    /// spanning tree of the points, so the replay never tries to merge
    /// a cluster with itself regardless of tie order.
    pub(crate) fn new(n: usize, merges: Vec<Merge>) -> Result<Self, ClusterError> {
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
        for (i, m) in merges.iter().enumerate() {
            let created = n + i;
            if m.a >= created || m.b >= created || rep[m.a] == usize::MAX || rep[m.b] == usize::MAX
            {
                return Err(ClusterError::Internal(
                    "merge references a not-yet-created cluster id",
                ));
            }
            rep[created] = rep[m.a];
            tagged.push((*m, rep[m.a], rep[m.b]));
        }
        tagged.sort_by(|x, y| {
            x.0.distance
                .partial_cmp(&y.0.distance)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // Replay in sorted order, assigning fresh ids n, n+1, …
        let mut point_cluster: Vec<usize> = (0..n).collect();
        let mut new_merges = Vec::with_capacity(tagged.len());
        for (i, (m, ra, rb)) in tagged.into_iter().enumerate() {
            let na = point_cluster[ra];
            let nb = point_cluster[rb];
            debug_assert_ne!(na, nb, "replay merged a cluster with itself");
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

    /// Centroid of each cluster in the original feature space.
    ///
    /// # Errors
    /// Point-set validation failures, or
    /// [`ClusterError::Internal`] if `points.len()` doesn't match the
    /// label count.
    pub fn centroids(&self, points: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, ClusterError> {
        let dim = validate_points(points)?;
        if points.len() != self.labels.len() {
            return Err(ClusterError::Internal("points/labels length mismatch"));
        }
        let mut centroids = vec![vec![0.0; dim]; self.k];
        let sizes = self.sizes();
        for (p, &l) in points.iter().zip(&self.labels) {
            for (c, v) in centroids[l].iter_mut().zip(p) {
                *c += v;
            }
        }
        for (c, &s) in centroids.iter_mut().zip(&sizes) {
            if s > 0 {
                for v in c.iter_mut() {
                    *v /= s as f64;
                }
            }
        }
        Ok(centroids)
    }

    /// For each cluster, the Euclidean distances of its members to the
    /// cluster centroid — the sample behind Fig 6(b)'s CDFs.
    /// `centroids` are this clustering's [`Clustering::centroids`] over
    /// the same points.
    ///
    /// # Errors
    /// [`ClusterError::Internal`] if `points` doesn't match the label
    /// count or `centroids` the cluster count.
    pub fn member_centroid_distances(
        &self,
        points: &[Vec<f64>],
        centroids: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, ClusterError> {
        if points.len() != self.labels.len() {
            return Err(ClusterError::Internal("points/labels length mismatch"));
        }
        if centroids.len() != self.k {
            return Err(ClusterError::Internal("centroids/clusters count mismatch"));
        }
        let mut out = vec![Vec::new(); self.k];
        for (p, &l) in points.iter().zip(&self.labels) {
            out[l].push(euclidean(p, &centroids[l]));
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

/// Minimal union-find with path halving.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
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
        let cents = c.centroids(&pts).unwrap();
        assert_eq!(cents[0], vec![1.0, 0.0]);
        assert_eq!(cents[1], vec![10.0, 10.0]);
        let d = c.member_centroid_distances(&pts, &cents).unwrap();
        assert_eq!(d[0], vec![1.0, 1.0]);
        assert_eq!(d[1], vec![0.0]);
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
}
