//! Agglomerative (bottom-up) hierarchical clustering.
//!
//! The paper's pattern identifier "first considers each input point as
//! a cluster and then bottom-up iteratively merges the nearest two
//! clusters", with Euclidean distance and **average linkage**. We
//! provide that plus the other classic linkages through one engine,
//! [`agglomerative`]: the nearest-neighbour chain, O(n²) time, which
//! produces the same dendrogram as the textbook O(n³) closest-pair
//! scan for every reducible linkage (all four offered here are
//! reducible). A property test pins it against that scan, kept as a
//! test-only oracle.
//!
//! The engine does not know where distances live: it is generic over
//! [`DistanceSource`], so the same code runs against the materialised
//! [`DistanceMatrix`](crate::DistanceMatrix) (the raw 4,032-dim
//! vectors) and the indexed [`IndexedMetric`](crate::IndexedMetric)
//! (the 6-dim spectral features) — and a golden test pins the two
//! sources to bit-identical dendrograms.

use towerlens_obs::LazyCounter;

use crate::dendrogram::{Dendrogram, Merge};
use crate::error::ClusterError;
use crate::source::DistanceSource;

/// Merge steps performed, across all clustering runs (n−1 per run).
static MERGES: LazyCounter = LazyCounter::new("cluster.agglomerative.merges");

/// How the distance between two clusters is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Linkage {
    /// Minimum pairwise distance.
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Unweighted average pairwise distance (UPGMA) — the paper's
    /// "average-linkage distance".
    Average,
    /// Ward's minimum-variance criterion (on Euclidean distances).
    Ward,
}

impl Linkage {
    /// Lance–Williams update: the distance from cluster `k` to the
    /// merge of clusters `i` and `j`, given the three pairwise
    /// distances and the cluster sizes.
    ///
    /// For [`Linkage::Ward`] the recurrence operates on *squared*
    /// distances; callers of this function pass plain distances and we
    /// square/unsquare internally so every linkage exposes the same
    /// units (plain Euclidean) to the dendrogram.
    #[inline]
    pub(crate) fn update(self, dik: f64, djk: f64, dij: f64, ni: f64, nj: f64, nk: f64) -> f64 {
        match self {
            Linkage::Single => dik.min(djk),
            Linkage::Complete => dik.max(djk),
            Linkage::Average => (ni * dik + nj * djk) / (ni + nj),
            Linkage::Ward => {
                let s = ni + nj + nk;
                let d2 = ((ni + nk) * dik * dik + (nj + nk) * djk * djk - nk * dij * dij) / s;
                d2.max(0.0).sqrt()
            }
        }
    }
}

/// Runs agglomerative clustering over a [`DistanceSource`] with the
/// nearest-neighbour-chain engine.
///
/// Consumes the source (the engine overwrites cluster distances in
/// place as clusters merge). Returns the full merge history as a
/// [`Dendrogram`]; cut it with [`Dendrogram::cut_at`] /
/// [`Dendrogram::cut_k`]. The engine issues the same
/// `nearest_active`/`merge` sequence to any source, so two sources that
/// agree on leaf distances and apply the same recurrence produce
/// bit-identical dendrograms.
///
/// ```
/// use towerlens_cluster::{agglomerative, DistanceMatrix, Linkage};
///
/// let points = vec![vec![0.0], vec![0.1], vec![9.0], vec![9.1]];
/// let tree = agglomerative(DistanceMatrix::build(&points, 1)?, Linkage::Average)?;
/// let two = tree.cut_k(2)?;
/// assert_eq!(two.labels[0], two.labels[1]);
/// assert_ne!(two.labels[0], two.labels[2]);
/// # Ok::<(), towerlens_cluster::ClusterError>(())
/// ```
///
/// # Errors
/// [`ClusterError::EmptyInput`] for a zero-point source.
pub fn agglomerative<S: DistanceSource>(
    mut source: S,
    linkage: Linkage,
) -> Result<Dendrogram, ClusterError> {
    let n = source.len();
    if n == 0 {
        return Err(ClusterError::EmptyInput);
    }
    if n == 1 {
        return Dendrogram::new(1, Vec::new());
    }
    let merges = nn_chain(&mut source, linkage);
    MERGES.add(merges.len() as u64);
    Dendrogram::new(n, merges)
}

/// Merge bookkeeping: active-cluster set, sizes, and the
/// creation-order cluster ids the dendrogram expects.
struct MergeState {
    /// `active[slot]` is true while the cluster seated at `slot`
    /// (a row/col of the distance matrix) still exists.
    active: Vec<bool>,
    /// Current member count per slot.
    size: Vec<usize>,
    /// Creation-order cluster id seated at each slot.
    id: Vec<usize>,
    /// Next fresh cluster id.
    next_id: usize,
    merges: Vec<Merge>,
}

impl MergeState {
    fn new(n: usize) -> Self {
        MergeState {
            active: vec![true; n],
            size: vec![1; n],
            id: (0..n).collect(),
            next_id: n,
            merges: Vec::with_capacity(n.saturating_sub(1)),
        }
    }

    /// Merges slot `j` into slot `i` (`i < j`) at the given linkage
    /// distance: the source applies the Lance–Williams update to slot
    /// `i`'s distances, then slot `j` is retired.
    fn merge<S: DistanceSource>(
        &mut self,
        dist: &mut S,
        linkage: Linkage,
        i: usize,
        j: usize,
        d: f64,
    ) {
        dist.merge(i, j, d, &self.active, &self.size, linkage);
        self.merges.push(Merge {
            a: self.id[i].min(self.id[j]),
            b: self.id[i].max(self.id[j]),
            distance: d,
            size: self.size[i] + self.size[j],
        });
        self.size[i] += self.size[j];
        self.active[j] = false;
        self.id[i] = self.next_id;
        self.next_id += 1;
    }
}

/// O(n²) nearest-neighbour chain.
///
/// Grows a chain `c₁ → c₂ → …` where each element is a nearest
/// neighbour of its predecessor; when two consecutive elements are
/// mutual nearest neighbours they are merged immediately. Valid for
/// reducible linkages (all four here), producing the same tree as the
/// closest-pair scan up to tie order.
pub(crate) fn nn_chain<S: DistanceSource>(dist: &mut S, linkage: Linkage) -> Vec<Merge> {
    let n = dist.len();
    let mut st = MergeState::new(n);
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;
    while remaining > 1 {
        if chain.is_empty() {
            // Seat the chain on the lowest-indexed active cluster.
            let start = (0..n).find(|&i| st.active[i]).expect("active cluster");
            chain.push(start);
        }
        loop {
            let top = *chain.last().expect("chain non-empty");
            // Nearest active neighbour of `top`, preferring the
            // previous chain element on ties (guarantees termination).
            // The source decides how: a linear scan over the matrix, a
            // pruned index descent for the spatial source — same answer
            // either way (the `nearest_active` contract).
            let prev = chain.len().checked_sub(2).map(|i| chain[i]);
            let (nearest, best) = dist
                .nearest_active(top, &st.active, prev)
                .expect("an active neighbour besides the chain top");
            if Some(nearest) == prev {
                // Mutual nearest neighbours: merge the top two.
                let j = chain.pop().expect("top");
                let i = chain.pop().expect("prev");
                // Keep the lower slot as the surviving row for
                // deterministic output.
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                st.merge(dist, linkage, lo, hi, best);
                remaining -= 1;
                // The merged cluster may invalidate chain tail
                // assumptions only if it was referenced; we popped both,
                // so the rest of the chain is still a valid NN chain.
                break;
            }
            chain.push(nearest);
        }
    }
    st.merges
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::distance::{euclidean, DistanceMatrix};
    use crate::index::IndexedMetric;

    const LINKAGES: [Linkage; 4] = [
        Linkage::Single,
        Linkage::Complete,
        Linkage::Average,
        Linkage::Ward,
    ];

    /// Test oracle: the textbook O(n³) closest-pair scan over all
    /// active pairs each round, sharing only the Lance–Williams
    /// bookkeeping with the engine — so agreement is a real
    /// cross-check of the nn-chain's neighbour selection.
    fn naive(dist: &mut DistanceMatrix, linkage: Linkage) -> Vec<Merge> {
        let n = dist.len();
        let mut st = MergeState::new(n);
        for _ in 0..n - 1 {
            let mut best = (usize::MAX, usize::MAX, f64::INFINITY);
            for i in 0..n {
                if !st.active[i] {
                    continue;
                }
                for j in (i + 1)..n {
                    if !st.active[j] {
                        continue;
                    }
                    let d = dist.get(i, j);
                    if d < best.2 {
                        best = (i, j, d);
                    }
                }
            }
            let (i, j, d) = best;
            st.merge(dist, linkage, i, j, d);
        }
        st.merges
    }

    fn oracle(mut dist: DistanceMatrix, linkage: Linkage) -> Dendrogram {
        let n = dist.len();
        Dendrogram::new(n, naive(&mut dist, linkage)).unwrap()
    }

    fn matrix(points: &[Vec<f64>]) -> DistanceMatrix {
        DistanceMatrix::build(points, 1).unwrap()
    }

    fn tree(points: &[Vec<f64>], linkage: Linkage) -> Dendrogram {
        agglomerative(matrix(points), linkage).unwrap()
    }

    /// Merge-for-merge equality, heights compared at the bit level.
    fn assert_same_merges(a: &Dendrogram, b: &Dendrogram, what: &str) {
        assert_eq!(a.merges().len(), b.merges().len(), "{what}");
        for (step, (x, y)) in a.merges().iter().zip(b.merges()).enumerate() {
            assert_eq!(
                (x.a, x.b, x.size),
                (y.a, y.b, y.size),
                "{what} merge {step}"
            );
            assert_eq!(
                x.distance.to_bits(),
                y.distance.to_bits(),
                "{what} merge {step}: {} vs {}",
                x.distance,
                y.distance
            );
        }
    }

    /// Three tight groups on a line: {0,1} near 0, {2,3} near 10,
    /// {4,5} near 30.
    fn grouped_points() -> Vec<Vec<f64>> {
        vec![
            vec![0.0],
            vec![0.5],
            vec![10.0],
            vec![10.4],
            vec![30.0],
            vec![30.3],
        ]
    }

    #[test]
    fn recovers_obvious_groups_all_linkages() {
        for linkage in LINKAGES {
            let c = tree(&grouped_points(), linkage).cut_k(3).unwrap();
            assert_eq!(c.labels[0], c.labels[1], "{linkage:?}");
            assert_eq!(c.labels[2], c.labels[3], "{linkage:?}");
            assert_eq!(c.labels[4], c.labels[5], "{linkage:?}");
            assert_eq!(c.k, 3);
        }
    }

    #[test]
    fn nn_chain_agrees_with_the_oracle_on_merge_heights() {
        // Random-ish points without ties: the engine and the oracle
        // must produce identical sorted height sequences.
        let points: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let t = i as f64;
                vec![(t * 0.7).sin() * 10.0, (t * 1.3).cos() * 7.0, t % 5.0]
            })
            .collect();
        for linkage in LINKAGES {
            let a = oracle(matrix(&points), linkage);
            let b = tree(&points, linkage);
            for (x, y) in a.merges().iter().zip(b.merges()) {
                assert!(
                    (x.distance - y.distance).abs() < 1e-9,
                    "{linkage:?}: {} vs {}",
                    x.distance,
                    y.distance
                );
            }
        }
    }

    #[test]
    fn nn_chain_agrees_with_the_oracle_on_a_flat_cut() {
        let points: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let t = i as f64;
                vec![
                    (t * 0.9).sin() * 3.0 + (i % 3) as f64 * 20.0,
                    (t * 0.4).cos(),
                ]
            })
            .collect();
        let a = oracle(matrix(&points), Linkage::Average).cut_k(3).unwrap();
        let b = tree(&points, Linkage::Average).cut_k(3).unwrap();
        // Same partition (labels may permute): compare co-membership.
        for i in 0..points.len() {
            for j in 0..points.len() {
                assert_eq!(
                    a.labels[i] == a.labels[j],
                    b.labels[i] == b.labels[j],
                    "pair ({i},{j}) disagrees"
                );
            }
        }
    }

    #[test]
    fn single_linkage_first_merge_is_global_min_pair() {
        let points = grouped_points();
        let d = tree(&points, Linkage::Single);
        let mut min_pair = f64::INFINITY;
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                min_pair = min_pair.min(euclidean(&points[i], &points[j]));
            }
        }
        assert!((d.merges()[0].distance - min_pair).abs() < 1e-12);
    }

    #[test]
    fn average_linkage_heights_are_monotone() {
        let points: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i as f64 * 2.17).sin() * 5.0, (i as f64 * 0.33).cos() * 5.0])
            .collect();
        let d = tree(&points, Linkage::Average);
        let mut prev = 0.0;
        for m in d.merges() {
            assert!(m.distance >= prev - 1e-12);
            prev = m.distance;
        }
    }

    #[test]
    fn ward_merges_minimum_variance_pairs_first() {
        // Two pairs with equal gaps but different cluster spreads: Ward
        // prefers merging points before absorbing into bigger clusters.
        let points = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let c = tree(&points, Linkage::Ward).cut_k(2).unwrap();
        assert_eq!(c.labels[0], c.labels[1]);
        assert_eq!(c.labels[2], c.labels[3]);
    }

    #[test]
    fn singleton_input() {
        let d = tree(&[vec![1.0, 2.0]], Linkage::Average);
        assert_eq!(d.len(), 1);
        assert!(d.merges().is_empty());
        assert_eq!(d.cut_at(1.0).k, 1);
    }

    #[test]
    fn empty_input_errors() {
        let empty = DistanceMatrix::from_condensed(0, Vec::new()).unwrap();
        assert_eq!(
            agglomerative(empty, Linkage::Average).unwrap_err(),
            ClusterError::EmptyInput
        );
    }

    #[test]
    fn duplicate_points_merge_at_zero() {
        let points = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![5.0, 5.0]];
        assert_eq!(tree(&points, Linkage::Average).merges()[0].distance, 0.0);
    }

    #[test]
    fn indexed_source_is_bit_identical_to_the_materialised_matrix() {
        // The golden test the spectral path hangs on: the exact-pruning
        // index must change *nothing* about the output — merge
        // partners, sizes, and heights compared at the bit level
        // against the materialised matrix, for all four linkages (Ward
        // exercises the no-merged-prune fallback, average the deflated
        // bound). Any drift (kernel mismatch, stale Lance–Williams row,
        // wrong tie-break) shows up here.
        let points: Vec<Vec<f64>> = (0..120)
            .map(|i| {
                let t = i as f64;
                (0..6)
                    .map(|d| {
                        ((i % 5) * 6 + d) as f64 * 1.3 + (t * 0.7 + d as f64 * 1.1).sin() * 2.0
                    })
                    .collect()
            })
            .collect();
        for linkage in LINKAGES {
            let built = tree(&points, linkage);
            let fast = agglomerative(IndexedMetric::new(&points, linkage).unwrap(), linkage);
            assert_same_merges(&built, &fast.unwrap(), &format!("{linkage:?}"));
        }
    }

    #[test]
    fn indexed_nn_chain_prunes_scan_evaluations() {
        // The point of the index: the Lance–Williams loop evaluates
        // each of the C(n,2) leaf pairs about once whatever the source,
        // so that is the floor for any exact engine; a linear-scan
        // source doubles it at this size with nearest-neighbour
        // rescans. The indexed source must stay within 5% of the floor
        // and must actually prune — and, since the count is
        // deterministic, hit exactly the 81,412 evaluations measured
        // on this fixture before the columnar merge landed, with
        //   cargo test -p towerlens-cluster --lib \
        //     indexed_nn_chain_prunes_scan_evaluations -- --nocapture
        let points: Vec<Vec<f64>> = (0..400)
            .map(|i| {
                (0..6)
                    .map(|d| ((i % 8) * 6 + d) as f64 * 2.0 + ((i * 6 + d) as f64 * 0.37).sin())
                    .collect()
            })
            .collect();
        let n = points.len() as u64;
        let floor = n * (n - 1) / 2;
        let mut fast = IndexedMetric::new(&points, Linkage::Average).unwrap();
        let merges = nn_chain(&mut fast, Linkage::Average);
        assert_eq!(merges.len() as u64, n - 1);
        println!("leaf evaluations = {}", fast.evaluations());
        assert_eq!(fast.evaluations(), 81_412);
        assert!(
            fast.evaluations() * 20 <= floor * 21,
            "index evals {} exceed 1.05x the C(n,2) floor {floor}",
            fast.evaluations()
        );
        assert!(fast.stats().pruned_subtrees > 0);
    }

    #[test]
    fn indexed_rows_are_freed_as_clusters_retire() {
        // Memory contract: after the final merge a single root cluster
        // survives, so at most one Lance–Williams row may remain live.
        let points: Vec<Vec<f64>> = (0..32).map(|i| vec![(i as f64 * 1.37).sin()]).collect();
        let mut metric = IndexedMetric::new(&points, Linkage::Average).unwrap();
        let merges = nn_chain(&mut metric, Linkage::Average);
        assert_eq!(merges.len(), points.len() - 1);
        assert!(
            metric.live_rows() <= 1,
            "{} rows still live after full agglomeration",
            metric.live_rows()
        );
    }

    #[test]
    fn total_merge_count_is_n_minus_1() {
        let points: Vec<Vec<f64>> = (0..23).map(|i| vec![i as f64 * 1.1]).collect();
        let d = tree(&points, Linkage::Complete);
        assert_eq!(d.merges().len(), 22);
        assert_eq!(d.cut_k(1).unwrap().k, 1);
    }

    /// Largest point count the property below exercises; the condensed
    /// pool is sized for it (n·(n−1)/2 = 66 at n = 12).
    const MAX_N: usize = 12;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn nn_chain_cuts_like_the_oracle_for_all_linkages(
            vals in prop::collection::vec(0.01f64..100.0, MAX_N * (MAX_N - 1) / 2),
            n in 2usize..=MAX_N,
        ) {
            // Random strictly positive distances: ties have probability
            // zero, so the merge order is unique and the engine must
            // agree with the oracle exactly, not just up to reordering.
            let condensed: Vec<f64> = vals[..n * (n - 1) / 2].to_vec();
            let source = || DistanceMatrix::from_condensed(n, condensed.clone()).unwrap();
            for linkage in LINKAGES {
                let want = oracle(source(), linkage);
                let got = agglomerative(source(), linkage).unwrap();
                for k in 1..=n {
                    let a = want.cut_k(k).unwrap();
                    let b = got.cut_k(k).unwrap();
                    prop_assert_eq!(
                        &a.labels,
                        &b.labels,
                        "n={} k={} {:?}: oracle {:?} vs nn-chain {:?}",
                        n,
                        k,
                        linkage,
                        a.labels,
                        b.labels
                    );
                }
            }
        }

        #[test]
        fn union_find_replay_matches_the_relabelling_oracle(
            coords in prop::collection::vec(0u8..4, 2 * 28),
            n in 2usize..=28,
            dim in 1usize..=2,
        ) {
            // Points on a small integer grid: many coincident points and
            // equal distances, so the engine emits tied merge heights in
            // whatever order its chain meets them.
            let points: Vec<Vec<f64>> = coords
                .chunks(2)
                .take(n)
                .map(|c| c[..dim].iter().map(|&v| f64::from(v)).collect())
                .collect();
            for linkage in LINKAGES {
                let merges = nn_chain(&mut matrix(&points), linkage);
                let want = crate::dendrogram::relabelling_replay(n, merges.clone()).unwrap();
                let got = Dendrogram::new(n, merges).unwrap();
                prop_assert_eq!(got.merges(), want.merges(), "n={} dim={} {:?}", n, dim, linkage);
            }
        }
    }
}
