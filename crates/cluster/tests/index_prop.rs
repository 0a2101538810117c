//! Property tests: the exact-pruning spatial index is **bit-identical**
//! to brute force.
//!
//! The index's contract is not "approximately nearest" — every query
//! must return the same neighbours at the same `f64` bit patterns as a
//! linear scan over the same kernel, with ties broken to the lower
//! index. These properties drive that claim through adversarial
//! inputs: random clouds, duplicate-heavy clouds (every distance tied
//! many ways), `k ≥ n`, all-equal point sets, and random deactivation
//! orders. A final property pins the indexed nn-chain dendrogram to
//! the materialised distance matrix's bit for bit across all four
//! linkages, over both random and tie-heavy clouds in 1 to 9
//! dimensions.

use proptest::prelude::*;
use towerlens_cluster::distance::euclidean;
use towerlens_cluster::{
    agglomerative, top_k_nearest, DistanceMatrix, IndexedMetric, Linkage, SearchStats,
    SpatialIndex, TopK,
};

const LINKAGES: [Linkage; 4] = [
    Linkage::Single,
    Linkage::Complete,
    Linkage::Average,
    Linkage::Ward,
];

/// Dimensions the dendrogram property draws from: 6 is today's
/// spectral space, 7 the Parseval space with its residual coordinate,
/// and 9 fills one 8-lane chunk of the distance kernel plus a tail.
const DIMS: [usize; 5] = [1, 3, 6, 7, 9];

/// A point cloud with deliberate tie mass: every coordinate is drawn
/// from a small `palette` of values (via `picks` indices), so equal
/// points and equal distances are common rather than probability-zero.
fn tied_cloud(palette: &[f64], picks: Vec<Vec<usize>>) -> Vec<Vec<f64>> {
    picks
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|p| palette[p % palette.len()])
                .collect()
        })
        .collect()
}

/// A generic cloud: continuous coordinates, ties unlikely.
fn random_cloud(max_n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 6), 1..max_n)
}

/// Brute-force oracle over the same kernel and the same bounded-heap
/// tie-break as the index: a plain scan of the active points.
fn brute_top_k(points: &[Vec<f64>], active: &[bool], query: usize, k: usize) -> Vec<(usize, f64)> {
    let mut top = TopK::new(k);
    for (j, p) in points.iter().enumerate() {
        if j == query || !active[j] {
            continue;
        }
        top.offer(j, euclidean(&points[query], p));
    }
    top.into_sorted()
}

fn assert_bits(tree: &[(usize, f64)], brute: &[(usize, f64)]) -> Result<(), TestCaseError> {
    prop_assert_eq!(tree.len(), brute.len(), "answer lengths differ");
    for ((ti, td), (bi, bd)) in tree.iter().zip(brute) {
        prop_assert_eq!(ti, bi, "neighbour index diverged");
        prop_assert_eq!(td.to_bits(), bd.to_bits(), "distance bits diverged");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn top_k_is_bit_identical_to_a_linear_scan(
        points in random_cloud(48),
        k in 0usize..52,
    ) {
        let tree = SpatialIndex::build(&points[..]);
        let active = vec![true; points.len()];
        let mut stats = SearchStats::default();
        for q in 0..points.len() {
            let fast = tree.top_k(&points[q], k, q, &mut stats);
            // `top_k_nearest` is the library's own linear-scan oracle;
            // `brute_top_k` re-derives it independently. All three must
            // agree to the bit.
            assert_bits(&fast, &top_k_nearest(&points[..], q, k))?;
            assert_bits(&fast, &brute_top_k(&points, &active, q, k))?;
        }
    }

    #[test]
    fn duplicate_heavy_clouds_tie_to_the_lowest_index(
        palette in prop::collection::vec(-8.0f64..8.0, 1..4),
        picks in prop::collection::vec(prop::collection::vec(0usize..4, 6), 1..40),
        k in 1usize..44,
    ) {
        // Palette-valued coordinates make exact ties the common case;
        // both sides must break every one of them to the lower index.
        let points = tied_cloud(&palette, picks);
        let tree = SpatialIndex::build(&points[..]);
        let mut stats = SearchStats::default();
        for q in 0..points.len() {
            let fast = tree.top_k(&points[q], k, q, &mut stats);
            assert_bits(&fast, &top_k_nearest(&points[..], q, k))?;
        }
    }

    #[test]
    fn all_equal_points_answer_like_brute_force(
        value in -50.0f64..50.0,
        n in 1usize..30,
        k in 0usize..34,
    ) {
        // The degenerate cloud: every distance is exactly 0.0, so the
        // answer is purely the tie-break order.
        let points: Vec<Vec<f64>> = (0..n).map(|_| vec![value; 6]).collect();
        let tree = SpatialIndex::build(&points[..]);
        let mut stats = SearchStats::default();
        for q in 0..n {
            let fast = tree.top_k(&points[q], k, q, &mut stats);
            let slow = top_k_nearest(&points[..], q, k);
            assert_bits(&fast, &slow)?;
            prop_assert!(fast.iter().all(|&(_, d)| d == 0.0));
        }
    }

    #[test]
    fn deactivation_never_breaks_exactness(
        points in random_cloud(36),
        dead_picks in prop::collection::vec(0usize..36, 0..24),
        k in 1usize..12,
    ) {
        // Deactivate a random subset (the nn-chain's merge pattern),
        // then every surviving query must still match a scan over the
        // survivors only.
        let mut tree = SpatialIndex::build(&points[..]);
        let mut active = vec![true; points.len()];
        for d in dead_picks {
            let d = d % points.len();
            tree.deactivate(d);
            active[d] = false;
        }
        let mut stats = SearchStats::default();
        for q in 0..points.len() {
            if !active[q] {
                continue;
            }
            let fast = tree.top_k(&points[q], k, q, &mut stats);
            assert_bits(&fast, &brute_top_k(&points, &active, q, k))?;
        }
    }

    #[test]
    fn indexed_dendrogram_is_bit_identical_to_the_matrix(
        dim_pick in 0usize..DIMS.len(),
        points in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 9), 2..28),
        palette in prop::collection::vec(-8.0f64..8.0, 1..4),
        picks in prop::collection::vec(prop::collection::vec(0usize..4, 9), 1..28),
    ) {
        // Random clouds exercise the pruning; palette clouds make exact
        // distance ties (and zero-distance duplicates) the common case,
        // so the tie-breaks must match too. Rows are drawn 9 wide and
        // cut to the drawn dimension.
        let dim = DIMS[dim_pick];
        let cut = |rows: Vec<Vec<f64>>| -> Vec<Vec<f64>> {
            rows.into_iter().map(|mut row| { row.truncate(dim); row }).collect()
        };
        for cloud in [cut(points), cut(tied_cloud(&palette, picks))] {
            for linkage in LINKAGES {
                let built =
                    agglomerative(DistanceMatrix::build(&cloud, 1).unwrap(), linkage).unwrap();
                let fast =
                    agglomerative(IndexedMetric::new(&cloud, linkage).unwrap(), linkage).unwrap();
                prop_assert_eq!(built.merges().len(), fast.merges().len());
                for (a, b) in built.merges().iter().zip(fast.merges()) {
                    prop_assert_eq!(a.a, b.a, "{:?}", linkage);
                    prop_assert_eq!(a.b, b.b, "{:?}", linkage);
                    prop_assert_eq!(a.size, b.size, "{:?}", linkage);
                    prop_assert_eq!(
                        a.distance.to_bits(),
                        b.distance.to_bits(),
                        "{:?}: merge height bits diverged",
                        linkage
                    );
                }
            }
        }
    }
}
