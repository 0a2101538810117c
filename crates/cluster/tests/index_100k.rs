//! The spatial index at ten times the paper's 9,600 towers: a complete
//! average-linkage dendrogram over 100,000 synthetic 6-dim feature
//! vectors through [`IndexedMetric`], with the k-d index's distance
//! work pinned to a budget.
//!
//! `cluster.index.leaf_evaluations` is deterministic for a fixed seed,
//! so the budget is the count measured when the gate was set: an
//! index change that evaluates one more leaf distance fails it. The
//! build takes about 85 s in a release build on a 2-vCPU VM, so the
//! test is `#[ignore]`d and `scripts/check.sh` runs it on its own:
//!
//! ```text
//! cargo test --release -p towerlens-cluster --test index_100k -- --ignored
//! ```

use towerlens_cluster::{agglomerative, IndexedMetric, Linkage};

/// Points clustered: an order of magnitude past the paper's 9,600
/// towers.
const POINTS: usize = 100_000;

/// Leaf distance evaluations of the seed-42 build, measured with this
/// test's command above.
const LEAF_EVALUATION_BUDGET: u64 = 5_007_007_814;

/// A deterministic 8-blob mixture of 6-dimensional points, shaped
/// like the spectral feature space (amplitude/phase of three
/// harmonics): well-separated centres with per-point jitter, so the
/// spatial index has real structure to prune against. Plain xorshift
/// keeps the workload identical across platforms and reruns.
fn mixture_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let blob = (i % 8) as f64;
            (0..6)
                .map(|d| blob * 3.0 + (d as f64) * 0.25 + unit() * 0.5)
                .collect()
        })
        .collect()
}

#[test]
#[ignore = "about 85 s in release; run by scripts/check.sh"]
fn average_linkage_over_100k_points_stays_within_its_leaf_budget() {
    let points = mixture_points(POINTS, 42);
    towerlens_obs::global().reset();
    let tree = IndexedMetric::new(&points, Linkage::Average)
        .and_then(|metric| agglomerative(metric, Linkage::Average))
        .expect("clustering 100,000 finite points");
    assert_eq!(tree.merges().len(), POINTS - 1, "incomplete dendrogram");
    let leaf_evaluations = towerlens_obs::global()
        .snapshot()
        .counter("cluster.index.leaf_evaluations");
    println!("cluster.index.leaf_evaluations = {leaf_evaluations}");
    assert!(
        leaf_evaluations <= LEAF_EVALUATION_BUDGET,
        "{leaf_evaluations} leaf evaluations exceed the budget of {LEAF_EVALUATION_BUDGET}"
    );
}
