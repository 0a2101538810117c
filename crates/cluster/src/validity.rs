//! Cluster-validity indices: the paper's *metric tuner*.
//!
//! The paper selects the number of patterns by minimising the
//! **Davies–Bouldin index** over candidate cuts of the dendrogram
//! (Fig 6(a)), because DBI "measures both the separation of clusters
//! and cohesion within clusters". We implement DBI exactly as the
//! paper states it, plus a silhouette score as an independent second
//! opinion, and the sweep helper that produces the DBI-vs-k curve.

use crate::dendrogram::{Clustering, Dendrogram};
use crate::distance::euclidean;
use crate::error::ClusterError;

/// Davies–Bouldin index of a flat clustering (lower is better).
///
/// ```text
/// DBI = (1/R) Σ_i max_{j≠i} (S_i + S_j) / M_ij
/// S_i  = average distance of members of cluster i to its centroid A_i
/// M_ij = ||A_i − A_j||₂
/// ```
///
/// Degenerate cases: with a single cluster the index is undefined and
/// we return an error; two clusters with identical centroids yield
/// `+∞`, which correctly makes such a cut maximally unattractive.
///
/// # Errors
/// Point-set validation failures, or [`ClusterError::TooManyClusters`]
/// semantics reversed — here, fewer than 2 clusters is reported as
/// [`ClusterError::ZeroClusters`].
pub fn davies_bouldin(points: &[Vec<f64>], clustering: &Clustering) -> Result<f64, ClusterError> {
    if clustering.k < 2 {
        return Err(ClusterError::ZeroClusters);
    }
    let centroids = clustering.centroids(points, 1)?;
    let sizes = clustering.sizes();
    // S_i: mean member→centroid distance.
    let mut scatter = vec![0.0f64; clustering.k];
    for (p, &l) in points.iter().zip(&clustering.labels) {
        scatter[l] += euclidean(p, &centroids[l]);
    }
    for (s, &n) in scatter.iter_mut().zip(&sizes) {
        if n > 0 {
            *s /= n as f64;
        }
    }
    let r = clustering.k;
    let mut total = 0.0;
    for i in 0..r {
        let mut worst: f64 = 0.0;
        for j in 0..r {
            if i == j {
                continue;
            }
            let m = euclidean(&centroids[i], &centroids[j]);
            let ratio = if m == 0.0 {
                f64::INFINITY
            } else {
                (scatter[i] + scatter[j]) / m
            };
            worst = worst.max(ratio);
        }
        total += worst;
    }
    Ok(total / r as f64)
}

/// Mean silhouette coefficient of a flat clustering (higher is better,
/// range `[−1, 1]`). Points in singleton clusters contribute 0, the
/// standard convention.
///
/// # Errors
/// As for [`davies_bouldin`].
pub fn silhouette(points: &[Vec<f64>], clustering: &Clustering) -> Result<f64, ClusterError> {
    if clustering.k < 2 {
        return Err(ClusterError::ZeroClusters);
    }
    crate::error::validate_points(points)?;
    if points.len() != clustering.labels.len() {
        return Err(ClusterError::Internal("points/labels length mismatch"));
    }
    let sizes = clustering.sizes();
    let n = points.len();
    let mut total = 0.0;
    for i in 0..n {
        let li = clustering.labels[i];
        if sizes[li] <= 1 {
            continue; // silhouette of a singleton is 0
        }
        // Mean distance to own cluster (a) and nearest other (b).
        let mut sums = vec![0.0f64; clustering.k];
        for j in 0..n {
            if i == j {
                continue;
            }
            sums[clustering.labels[j]] += euclidean(&points[i], &points[j]);
        }
        let a = sums[li] / (sizes[li] - 1) as f64;
        let b = (0..clustering.k)
            .filter(|&c| c != li && sizes[c] > 0)
            .map(|c| sums[c] / sizes[c] as f64)
            .fold(f64::INFINITY, f64::min);
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
        }
    }
    Ok(total / n as f64)
}

/// One row of a DBI sweep over dendrogram cuts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbiPoint {
    /// Number of clusters at this cut.
    pub k: usize,
    /// The linkage-distance threshold that yields this cut.
    pub threshold: f64,
    /// Davies–Bouldin index of the cut.
    pub dbi: f64,
}

/// Sweeps dendrogram cuts `k = k_min ..= k_max` and evaluates DBI at
/// each — the data behind Fig 6(a). Returns points in ascending `k`.
/// The cuts are independent, so they fan out over up to `threads`
/// workers (`0` = available parallelism); each point is a pure
/// function of its `k`, so the curve is identical at any thread count.
///
/// # Errors
/// Invalid range (`k_min < 2` or `k_max > n` or `k_min > k_max`) maps
/// to the corresponding [`ClusterError`]; evaluation errors propagate,
/// the one at the smallest `k` first.
pub fn dbi_sweep(
    points: &[Vec<f64>],
    dendrogram: &Dendrogram,
    k_min: usize,
    k_max: usize,
    threads: usize,
) -> Result<Vec<DbiPoint>, ClusterError> {
    if k_min < 2 {
        return Err(ClusterError::ZeroClusters);
    }
    if k_max > dendrogram.len() || k_min > k_max {
        return Err(ClusterError::TooManyClusters {
            requested: k_max,
            available: dendrogram.len(),
        });
    }
    let ks: Vec<usize> = (k_min..=k_max).collect();
    towerlens_par::par_map_indexed(&ks, threads, |_, &k| {
        let clustering = dendrogram.cut_k(k)?;
        let dbi = davies_bouldin(points, &clustering)?;
        let threshold = dendrogram.threshold_for_k(k)?;
        Ok(DbiPoint { k, threshold, dbi })
    })
    .into_iter()
    .collect()
}

/// The sweep point with minimal DBI (ties: smallest `k`).
pub fn best_by_dbi(sweep: &[DbiPoint]) -> Option<DbiPoint> {
    sweep.iter().copied().min_by(|a, b| {
        a.dbi
            .partial_cmp(&b.dbi)
            .unwrap_or(std::cmp::Ordering::Equal)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agglomerative::{agglomerative, Linkage};
    use crate::distance::DistanceMatrix;

    /// Three well-separated blobs of 5 points each on a line.
    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for (center, spread) in [(0.0, 0.3), (50.0, 0.4), (100.0, 0.2)] {
            for i in 0..5 {
                pts.push(vec![center + spread * (i as f64 - 2.0)]);
            }
        }
        pts
    }

    fn average_tree(points: &[Vec<f64>]) -> Dendrogram {
        agglomerative(DistanceMatrix::build(points, 1).unwrap(), Linkage::Average).unwrap()
    }

    fn labels_for_k(k: usize) -> Clustering {
        let d = average_tree(&blobs());
        d.cut_k(k).unwrap()
    }

    #[test]
    fn dbi_minimal_at_true_k() {
        let pts = blobs();
        let d = average_tree(&pts);
        let sweep = dbi_sweep(&pts, &d, 2, 8, 1).unwrap();
        let best = best_by_dbi(&sweep).unwrap();
        assert_eq!(best.k, 3, "sweep: {sweep:?}");
    }

    #[test]
    fn dbi_of_good_split_beats_bad_split() {
        let pts = blobs();
        let good = labels_for_k(3);
        let bad = labels_for_k(2);
        let dbi_good = davies_bouldin(&pts, &good).unwrap();
        let dbi_bad = davies_bouldin(&pts, &bad).unwrap();
        assert!(dbi_good < dbi_bad);
    }

    #[test]
    fn dbi_rejects_single_cluster() {
        let pts = blobs();
        let c = Clustering::from_labels(vec![0; pts.len()]).unwrap();
        assert!(davies_bouldin(&pts, &c).is_err());
    }

    #[test]
    fn dbi_handles_coincident_centroids() {
        // Two clusters with the same centroid → infinite DBI.
        let pts = vec![vec![0.0], vec![2.0], vec![1.0], vec![1.0]];
        let c = Clustering::from_labels(vec![0, 0, 1, 1]).unwrap();
        let dbi = davies_bouldin(&pts, &c).unwrap();
        assert!(dbi.is_infinite());
    }

    #[test]
    fn silhouette_high_for_good_split() {
        let pts = blobs();
        let s = silhouette(&pts, &labels_for_k(3)).unwrap();
        assert!(s > 0.9, "got {s}");
    }

    #[test]
    fn silhouette_degrades_when_overclustering() {
        let pts = blobs();
        let s3 = silhouette(&pts, &labels_for_k(3)).unwrap();
        let s6 = silhouette(&pts, &labels_for_k(6)).unwrap();
        assert!(s3 > s6);
    }

    #[test]
    fn silhouette_singletons_contribute_zero() {
        let pts = vec![vec![0.0], vec![0.1], vec![100.0]];
        let c = Clustering::from_labels(vec![0, 0, 1]).unwrap();
        let s = silhouette(&pts, &c).unwrap();
        // Two near points score ≈1 each, singleton 0 ⇒ mean ≈ 2/3.
        assert!((s - 2.0 / 3.0).abs() < 0.01, "got {s}");
    }

    #[test]
    fn sweep_validates_range() {
        let pts = blobs();
        let d = average_tree(&pts);
        assert!(dbi_sweep(&pts, &d, 1, 5, 1).is_err());
        assert!(dbi_sweep(&pts, &d, 2, 99, 1).is_err());
        assert!(dbi_sweep(&pts, &d, 5, 3, 1).is_err());
    }

    #[test]
    fn sweep_is_bit_identical_at_any_thread_count() {
        let pts = blobs();
        let d = average_tree(&pts);
        let bits = |threads| {
            dbi_sweep(&pts, &d, 2, 12, threads)
                .unwrap()
                .iter()
                .map(|p| (p.k, p.threshold.to_bits(), p.dbi.to_bits()))
                .collect::<Vec<_>>()
        };
        let serial = bits(1);
        assert_eq!(serial.len(), 11);
        for threads in [0, 2, 3, 8, 16] {
            assert_eq!(bits(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn sweep_thresholds_decrease_with_k() {
        let pts = blobs();
        let d = average_tree(&pts);
        let sweep = dbi_sweep(&pts, &d, 2, 10, 1).unwrap();
        for w in sweep.windows(2) {
            assert!(w[0].threshold >= w[1].threshold);
        }
    }
}

/// Calinski–Harabasz index (variance-ratio criterion): the ratio of
/// between-cluster to within-cluster dispersion, scaled by degrees of
/// freedom. Higher is better — an alternative metric-tuner objective
/// the ablation benchmarks compare against DBI.
///
/// # Errors
/// As for [`davies_bouldin`].
pub fn calinski_harabasz(
    points: &[Vec<f64>],
    clustering: &Clustering,
) -> Result<f64, ClusterError> {
    if clustering.k < 2 {
        return Err(ClusterError::ZeroClusters);
    }
    let n = points.len();
    if n <= clustering.k {
        return Err(ClusterError::TooManyClusters {
            requested: clustering.k,
            available: n,
        });
    }
    let centroids = clustering.centroids(points, 1)?;
    let sizes = clustering.sizes();
    let dim = points[0].len();
    // Global centroid.
    let mut global = vec![0.0; dim];
    for p in points {
        for (g, v) in global.iter_mut().zip(p) {
            *g += v;
        }
    }
    for g in global.iter_mut() {
        *g /= n as f64;
    }
    // Between-group sum of squares.
    let mut bgss = 0.0;
    for (c, centroid) in centroids.iter().enumerate() {
        let d2: f64 = centroid
            .iter()
            .zip(&global)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        bgss += sizes[c] as f64 * d2;
    }
    // Within-group sum of squares.
    let mut wgss = 0.0;
    for (p, &l) in points.iter().zip(&clustering.labels) {
        wgss += p
            .iter()
            .zip(&centroids[l])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>();
    }
    if wgss <= 0.0 {
        return Ok(f64::INFINITY);
    }
    let k = clustering.k as f64;
    Ok((bgss / (k - 1.0)) / (wgss / (n as f64 - k)))
}

#[cfg(test)]
mod ch_tests {
    use super::*;
    use crate::agglomerative::{agglomerative, Linkage};
    use crate::distance::DistanceMatrix;

    /// Three irregular 2-D blobs (pseudo-random scatter, so
    /// sub-splitting a blob doesn't keep shrinking the within-variance
    /// the way a regular lattice would).
    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for (b, center) in [(0u64, 0.0f64), (1, 50.0), (2, 100.0)] {
            for i in 0..8u64 {
                let jx = (((b * 8 + i) * 2_654_435_761) % 1_000) as f64 / 500.0 - 1.0;
                let jy = (((b * 8 + i) * 40_503) % 1_000) as f64 / 500.0 - 1.0;
                pts.push(vec![center + jx, jy]);
            }
        }
        pts
    }

    #[test]
    fn ch_maximal_at_true_k() {
        let pts = blobs();
        let d = agglomerative(DistanceMatrix::build(&pts, 1).unwrap(), Linkage::Average).unwrap();
        let mut best = (0usize, f64::NEG_INFINITY);
        for k in 2..=7 {
            let c = d.cut_k(k).unwrap();
            let ch = calinski_harabasz(&pts, &c).unwrap();
            if ch > best.1 {
                best = (k, ch);
            }
        }
        assert_eq!(best.0, 3, "CH curve peak at {}", best.0);
    }

    #[test]
    fn ch_rejects_degenerate_inputs() {
        let pts = blobs();
        let single = Clustering::from_labels(vec![0; pts.len()]).unwrap();
        assert!(calinski_harabasz(&pts, &single).is_err());
        let all = Clustering::from_labels((0..pts.len()).collect()).unwrap();
        assert!(calinski_harabasz(&pts, &all).is_err());
    }

    #[test]
    fn ch_infinite_for_zero_within_variance() {
        let pts = vec![vec![0.0], vec![0.0], vec![5.0], vec![5.0]];
        let c = Clustering::from_labels(vec![0, 0, 1, 1]).unwrap();
        assert!(calinski_harabasz(&pts, &c).unwrap().is_infinite());
    }
}
