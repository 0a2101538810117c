//! # towerlens-cluster
//!
//! Unsupervised-learning substrate: the machinery behind the paper's
//! *pattern identifier* and *metric tuner* (§3.2).
//!
//! * [`mod@agglomerative`] — bottom-up hierarchical clustering with
//!   single/complete/average/Ward linkage: one O(n²)
//!   nearest-neighbour-chain engine, [`agglomerative()`], generic over
//!   a [`DistanceSource`].
//! * [`dendrogram`] — the merge tree; cut it at a distance threshold
//!   (the paper stops "when the distance between two clusters is above
//!   the threshold value", 16.33 in their data) or at a target cluster
//!   count.
//! * [`validity`] — Davies–Bouldin index (the paper's stop-condition
//!   tuner) and silhouette score as a second opinion.
//! * [`distance`] — Euclidean metrics (runtime-dispatched AVX kernel,
//!   bit-identical to its scalar reference) and a parallel
//!   pairwise-distance matrix builder: register-blocked AVX-512/AVX
//!   pair kernels, bit-identical to the same reference, on a
//!   pair-balanced tile schedule (std scoped threads; no runtime
//!   dependency).
//! * [`index`] — an exact-pruning spatial index over low-dimensional
//!   feature spaces: a static bounding-box k-d tree whose
//!   nearest-neighbour and top-k answers are bit-identical to the
//!   linear scan, plus [`IndexedMetric`], the indexed
//!   [`DistanceSource`] the engine runs over at scale.
//! * [`source`] — the [`DistanceSource`] seam, two steps per merge
//!   (`nearest_active` and the Lance–Williams `merge`): the
//!   materialised [`DistanceMatrix`] for the raw space and
//!   [`IndexedMetric`], with its columnar merge, for the spectral
//!   space.
//!
//! All APIs are fallible ([`ClusterError`]) rather than panicking, and
//! deterministic given their inputs.

// `deny`, not `forbid`: the sanctioned exceptions are the SIMD
// distance kernels in [`distance`] and the vector Lance–Williams walk
// in [`index`], leaf functions each pinned bit-for-bit to the safe
// scalar reference by test. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod agglomerative;
pub mod compare;
pub mod dendrogram;
pub mod distance;
pub mod error;
pub mod index;
pub mod source;
pub mod validity;

pub use agglomerative::{agglomerative, Linkage};
pub use compare::{adjusted_rand_index, purity, rand_index};
pub use dendrogram::{Clustering, Dendrogram, Merge};
pub use distance::DistanceMatrix;
pub use error::ClusterError;
pub use index::{IndexedMetric, PointSet, SearchStats, SpatialIndex};
pub use source::{top_k_nearest, DistanceSource, TopK};
