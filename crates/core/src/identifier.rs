//! The pattern identifier and metric tuner (§3.2).
//!
//! Takes the z-scored traffic vectors produced by the vectorizer, runs
//! bottom-up hierarchical clustering (Euclidean distance, average
//! linkage — the paper's choices), and selects the cut by minimising
//! the Davies–Bouldin index over a candidate range of cluster counts.
//! The selected cut's threshold is reported the way the paper quotes
//! its 16.33.
//!
//! The identifier also builds the study's one spectral table: when the
//! window spans whole weeks, one three-bin Goertzel pass per tower
//! ([`features_of_goertzel_par`]) gives every tower its
//! [`TowerFeatures`], returned in [`IdentifiedPatterns::features`] and
//! carried by the cluster checkpoint. The frequency stage, the
//! snapshot writers and serve's publish path read that table instead
//! of extracting it again. Without a window, or when the window spans
//! no whole week, the table is `None`, and each reader reports the
//! missing weeks ([`IdentifiedPatterns::feature_table`]).
//!
//! The representation the clustering sees is a [`FeatureSpace`]
//! choice: the raw 4,032-dim traffic vector (the paper's setting,
//! materialised distance matrix) or the table's 6-dim rows, the
//! amplitude and phase at the window's principal bins (matrix-free
//! distances through the exact-pruning spatial index — the path that
//! carries the paper's 9,600 towers and beyond). `Auto`, the default,
//! keeps small studies on the raw reference path and switches large
//! ones to spectral. A golden test below pins the two spaces to
//! agreement by Adjusted Rand Index on separable data.

use towerlens_cluster::agglomerative::{agglomerative, Linkage};
use towerlens_cluster::dendrogram::{Clustering, Dendrogram};
use towerlens_cluster::validity::{best_by_dbi, dbi_sweep, DbiPoint};
use towerlens_cluster::{DistanceMatrix, IndexedMetric};
use towerlens_pipeline::feature::FeatureSpace;
use towerlens_trace::time::TraceWindow;

use crate::error::CoreError;
use crate::freq::{features_of_goertzel_par, no_whole_weeks, principal_bins, TowerFeatures};

/// Configuration of the identifier.
#[derive(Debug, Clone, Copy)]
pub struct IdentifierConfig {
    /// Linkage criterion (the paper uses average linkage).
    pub linkage: Linkage,
    /// Smallest cluster count the metric tuner considers.
    pub k_min: usize,
    /// Largest cluster count the metric tuner considers.
    pub k_max: usize,
    /// Worker threads (0 = auto) for the distance matrix, the feature
    /// table, the DBI sweep's cluster counts, and the final centroids
    /// and member-to-centroid distances; the last two stay on the
    /// calling thread below about a million values (towers × bins).
    pub threads: usize,
    /// Representation towers are clustered in (default
    /// [`FeatureSpace::Auto`]: raw below
    /// [`towerlens_pipeline::SPECTRAL_AUTO_MIN`] towers, spectral at
    /// or above).
    pub feature_space: FeatureSpace,
}

impl Default for IdentifierConfig {
    fn default() -> Self {
        IdentifierConfig {
            linkage: Linkage::Average,
            k_min: 2,
            k_max: 12,
            threads: 0,
            feature_space: FeatureSpace::Auto,
        }
    }
}

/// The identifier's output: the chosen flat clustering plus everything
/// needed to reproduce Fig 6 and Table 1.
#[derive(Debug, Clone)]
pub struct IdentifiedPatterns {
    /// The DBI-optimal flat clustering (labels index the *input
    /// vectors*, i.e. kept towers).
    pub clustering: Clustering,
    /// Number of patterns found (`clustering.k`).
    pub k: usize,
    /// The stop threshold that yields this clustering (the paper's
    /// "16.33").
    pub threshold: f64,
    /// The DBI-vs-k curve the tuner minimised (Fig 6(a)).
    pub dbi_curve: Vec<DbiPoint>,
    /// Cluster centroids in the traffic-vector space (the pattern
    /// profiles of Fig 6(c–g)).
    pub centroids: Vec<Vec<f64>>,
    /// Per-cluster member→centroid distances (Fig 6(b) CDFs).
    pub member_distances: Vec<Vec<f64>>,
    /// The full dendrogram, for callers that want other cuts.
    pub dendrogram: Dendrogram,
    /// The per-tower spectral table (input-vector aligned), built in
    /// both feature spaces whenever the window spans whole weeks;
    /// `None` without a window or a whole week.
    pub features: Option<Vec<TowerFeatures>>,
}

impl IdentifiedPatterns {
    /// The per-tower spectral table.
    ///
    /// # Errors
    /// [`CoreError::NotEnoughData`] ("whole weeks in window") when the
    /// table is `None`.
    pub fn feature_table(&self) -> Result<&[TowerFeatures], CoreError> {
        self.features.as_deref().ok_or_else(no_whole_weeks)
    }
}

/// The pattern identifier.
#[derive(Debug, Clone, Default)]
pub struct PatternIdentifier {
    config: IdentifierConfig,
}

impl PatternIdentifier {
    /// Creates an identifier with the given configuration.
    pub fn new(config: IdentifierConfig) -> Self {
        PatternIdentifier { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &IdentifierConfig {
        &self.config
    }

    /// Runs clustering + metric tuning over z-scored traffic vectors,
    /// always in the raw feature space's terms: equivalent to
    /// [`PatternIdentifier::identify_in`] with no window, so it builds
    /// no feature table and a configuration that resolves to the
    /// spectral space errors here.
    ///
    /// # Errors
    /// As for [`PatternIdentifier::identify_in`].
    pub fn identify(&self, vectors: &[Vec<f64>]) -> Result<IdentifiedPatterns, CoreError> {
        self.identify_in(vectors, None)
    }

    /// Runs clustering + metric tuning over z-scored traffic vectors
    /// in the configured [`FeatureSpace`].
    ///
    /// When `window` spans whole weeks, one Goertzel pass first builds
    /// the spectral table ([`IdentifiedPatterns::features`]) in either
    /// space. In the raw space the towers are clustered as-is over a
    /// materialised distance matrix (bit-identical to the
    /// pre-feature-space pipeline). In the spectral space the
    /// clustering and the DBI sweep run over the table's 6-dim rows,
    /// matrix-free — while centroids and member→centroid distances are
    /// still reported in the traffic-vector space, so Fig 6's pattern
    /// profiles keep their meaning in either space.
    ///
    /// # Errors
    /// * [`CoreError::NotEnoughData`] if fewer than `k_min + 1`
    ///   vectors are supplied, or if the spectral space is selected
    ///   without a window or with one that spans no whole week,
    /// * wrapped [`towerlens_cluster::ClusterError`] /
    ///   [`towerlens_dsp::DspError`] for validation failures.
    pub fn identify_in(
        &self,
        vectors: &[Vec<f64>],
        window: Option<&TraceWindow>,
    ) -> Result<IdentifiedPatterns, CoreError> {
        let cfg = &self.config;
        if vectors.len() <= cfg.k_min {
            return Err(CoreError::NotEnoughData {
                what: "traffic vectors",
                needed: cfg.k_min + 1,
                got: vectors.len(),
            });
        }
        // The study's one spectral table.
        let features = match window {
            Some(window) if principal_bins(window).is_ok() => {
                Some(features_of_goertzel_par(vectors, window, cfg.threads)?)
            }
            _ => None,
        };
        // The space the dendrogram and the DBI sweep live in: the
        // towers themselves, or the table's 6-dim rows.
        let projected: Option<Vec<Vec<f64>>> = match cfg.feature_space.resolve(vectors.len()) {
            FeatureSpace::Raw => None,
            FeatureSpace::Spectral => {
                if window.is_none() {
                    return Err(CoreError::NotEnoughData {
                        what: "trace window for spectral feature space",
                        needed: 1,
                        got: 0,
                    });
                }
                let table = features.as_deref().ok_or_else(no_whole_weeks)?;
                Some(table.iter().map(|f| f.f6().to_vec()).collect())
            }
            FeatureSpace::Auto => unreachable!("resolve() never returns Auto"),
        };
        let dendrogram = match &projected {
            // Raw: expensive high-dim leaf distances, computed once
            // into the materialised matrix.
            None => agglomerative(DistanceMatrix::build(vectors, cfg.threads)?, cfg.linkage)?,
            // Spectral: 6-dim leaf distances, recomputed on demand
            // through the exact-pruning spatial index — no O(n²)
            // buffer, and nearest-neighbour scans collapse to pruned
            // descents. Bit-identical to the materialised matrix over
            // the same rows (a golden test below pins it).
            Some(rows) => agglomerative(IndexedMetric::new(rows, cfg.linkage)?, cfg.linkage)?,
        };
        let space: &[Vec<f64>] = projected.as_deref().unwrap_or(vectors);
        let k_max = cfg.k_max.min(vectors.len());
        let dbi_curve = dbi_sweep(space, &dendrogram, cfg.k_min, k_max, cfg.threads)?;
        let best = best_by_dbi(&dbi_curve).ok_or(CoreError::NotEnoughData {
            what: "DBI sweep points",
            needed: 1,
            got: 0,
        })?;
        let clustering = dendrogram.cut_k(best.k)?;
        let centroids = clustering.centroids(vectors, cfg.threads)?;
        let member_distances =
            clustering.member_centroid_distances(vectors, &centroids, cfg.threads)?;
        Ok(IdentifiedPatterns {
            k: best.k,
            threshold: best.threshold,
            clustering,
            dbi_curve,
            centroids,
            member_distances,
            dendrogram,
            features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use towerlens_city::zone::PoiKind;
    use towerlens_mobility::config::SynthConfig;
    use towerlens_mobility::profiles::pure_mix;
    use towerlens_mobility::synth::tower_vector;
    use towerlens_pipeline::normalize::normalize_matrix;
    use towerlens_trace::time::TraceWindow;

    /// Synthesises towers of the four pure kinds (noisy) and checks the
    /// identifier recovers the structure.
    fn pure_kind_vectors(per_kind: usize, window: &TraceWindow) -> (Vec<Vec<f64>>, Vec<usize>) {
        let cfg = SynthConfig {
            bin_noise_sigma: 0.15,
            day_noise_sigma: 0.05,
            ..SynthConfig::default()
        };
        let mut raw = Vec::new();
        let mut truth = Vec::new();
        for (g, kind) in PoiKind::ALL.iter().enumerate() {
            let mix = pure_mix(*kind);
            for i in 0..per_kind {
                raw.push(tower_vector(&mix, window, &cfg, g * per_kind + i));
                truth.push(g);
            }
        }
        let normalized = normalize_matrix(&raw, 1).unwrap();
        assert_eq!(normalized.len(), raw.len());
        (normalized.vectors, truth)
    }

    #[test]
    fn recovers_four_pure_patterns() {
        let window = TraceWindow::days(7);
        let (vectors, truth) = pure_kind_vectors(12, &window);
        let id = PatternIdentifier::new(IdentifierConfig {
            k_max: 8,
            ..IdentifierConfig::default()
        });
        let found = id.identify(&vectors).unwrap();
        assert_eq!(found.k, 4, "dbi curve: {:?}", found.dbi_curve);
        // Clusters must align with ground truth (pairwise agreement).
        for i in 0..truth.len() {
            for j in 0..truth.len() {
                assert_eq!(
                    truth[i] == truth[j],
                    found.clustering.labels[i] == found.clustering.labels[j],
                    "towers {i},{j}"
                );
            }
        }
        assert!(found.threshold > 0.0);
        assert_eq!(found.centroids.len(), 4);
        assert_eq!(found.member_distances.len(), 4);
    }

    #[test]
    fn dbi_curve_covers_requested_range() {
        let window = TraceWindow::days(7);
        let (vectors, _) = pure_kind_vectors(8, &window);
        let id = PatternIdentifier::new(IdentifierConfig {
            k_min: 2,
            k_max: 6,
            ..IdentifierConfig::default()
        });
        let found = id.identify(&vectors).unwrap();
        let ks: Vec<usize> = found.dbi_curve.iter().map(|p| p.k).collect();
        assert_eq!(ks, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn too_few_vectors_is_an_error() {
        let id = PatternIdentifier::default();
        let vectors = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!(matches!(
            id.identify(&vectors),
            Err(CoreError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn spectral_space_agrees_with_raw_reference_by_ari() {
        // The golden test the feature-space refactor hangs on: on
        // separable data, clustering the 6-dim spectral projections
        // must recover (essentially) the same partition as the raw
        // 4,032-dim reference. Pinned by Adjusted Rand Index — 1.0 is
        // identical partitions, 0 is chance.
        let window = TraceWindow::days(7);
        let (vectors, _) = pure_kind_vectors(12, &window);
        let raw = PatternIdentifier::new(IdentifierConfig {
            k_max: 8,
            feature_space: FeatureSpace::Raw,
            ..IdentifierConfig::default()
        })
        .identify_in(&vectors, Some(&window))
        .unwrap();
        let spectral = PatternIdentifier::new(IdentifierConfig {
            k_max: 8,
            feature_space: FeatureSpace::Spectral,
            ..IdentifierConfig::default()
        })
        .identify_in(&vectors, Some(&window))
        .unwrap();
        let ari =
            towerlens_cluster::adjusted_rand_index(&raw.clustering, &spectral.clustering).unwrap();
        assert!(
            ari >= 0.9,
            "spectral vs raw ARI {ari} (raw k={}, spectral k={})",
            raw.k,
            spectral.k
        );
    }

    #[test]
    fn spectral_space_requires_a_window() {
        let window = TraceWindow::days(7);
        let (vectors, _) = pure_kind_vectors(2, &window);
        let id = PatternIdentifier::new(IdentifierConfig {
            feature_space: FeatureSpace::Spectral,
            ..IdentifierConfig::default()
        });
        assert!(matches!(
            id.identify(&vectors),
            Err(CoreError::NotEnoughData {
                what: "trace window for spectral feature space",
                ..
            })
        ));
        // A window without whole weeks is just as unusable.
        assert!(id
            .identify_in(&vectors, Some(&TraceWindow::days(5)))
            .is_err());
    }

    #[test]
    fn the_feature_table_is_one_goertzel_pass_in_either_space() {
        // The table every later stage reads: exactly the Goertzel
        // extractor's output, bit for bit, whichever space clusters.
        let window = TraceWindow::days(7);
        let (vectors, _) = pure_kind_vectors(6, &window);
        let reference = features_of_goertzel_par(&vectors, &window, 1).unwrap();
        let bits = |table: &[TowerFeatures]| -> Vec<[u64; 6]> {
            table.iter().map(|f| f.f6().map(f64::to_bits)).collect()
        };
        for space in [FeatureSpace::Raw, FeatureSpace::Spectral] {
            let found = PatternIdentifier::new(IdentifierConfig {
                feature_space: space,
                threads: 3,
                ..IdentifierConfig::default()
            })
            .identify_in(&vectors, Some(&window))
            .unwrap();
            assert_eq!(
                bits(found.feature_table().unwrap()),
                bits(&reference),
                "{space}"
            );
        }
        // No whole week, or no window at all: no table, and its readers
        // get the missing-weeks error.
        let raw = PatternIdentifier::new(IdentifierConfig {
            feature_space: FeatureSpace::Raw,
            ..IdentifierConfig::default()
        });
        for found in [
            raw.identify_in(&vectors, Some(&TraceWindow::days(10)))
                .unwrap(),
            raw.identify(&vectors).unwrap(),
        ] {
            assert!(found.features.is_none());
            assert!(matches!(
                found.feature_table(),
                Err(CoreError::NotEnoughData {
                    what: "whole weeks in window",
                    ..
                })
            ));
        }
    }

    #[test]
    fn auto_space_is_bit_identical_to_raw_at_small_n() {
        // The compatibility contract: the default (Auto) resolves to
        // the raw reference below the switch-over, window or not.
        let window = TraceWindow::days(7);
        let (vectors, _) = pure_kind_vectors(6, &window);
        let auto = PatternIdentifier::default()
            .identify_in(&vectors, Some(&window))
            .unwrap();
        let raw = PatternIdentifier::new(IdentifierConfig {
            feature_space: FeatureSpace::Raw,
            ..IdentifierConfig::default()
        })
        .identify(&vectors)
        .unwrap();
        assert_eq!(auto.k, raw.k);
        assert_eq!(auto.clustering.labels, raw.clustering.labels);
        assert_eq!(auto.threshold.to_bits(), raw.threshold.to_bits());
    }

    #[test]
    fn spectral_dendrogram_is_bit_identical_to_the_materialised_matrix() {
        // The spectral space clusters through the spatial index; the
        // materialised matrix over the same projections is the
        // reference. For every linkage the identifier's dendrogram
        // must match it merge for merge, heights compared by bits.
        let window = TraceWindow::days(7);
        let (vectors, _) = pure_kind_vectors(12, &window);
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Ward,
        ] {
            let found = PatternIdentifier::new(IdentifierConfig {
                linkage,
                k_max: 8,
                feature_space: FeatureSpace::Spectral,
                ..IdentifierConfig::default()
            })
            .identify_in(&vectors, Some(&window))
            .unwrap();
            let rows: Vec<Vec<f64>> = found
                .feature_table()
                .unwrap()
                .iter()
                .map(|f| f.f6().to_vec())
                .collect();
            let reference =
                agglomerative(DistanceMatrix::build(&rows, 1).unwrap(), linkage).unwrap();
            let (got, want) = (found.dendrogram.merges(), reference.merges());
            assert_eq!(got.len(), want.len(), "{linkage:?}");
            for (step, (x, y)) in got.iter().zip(want).enumerate() {
                assert_eq!(
                    (x.a, x.b, x.size),
                    (y.a, y.b, y.size),
                    "{linkage:?} merge {step}"
                );
                assert_eq!(
                    x.distance.to_bits(),
                    y.distance.to_bits(),
                    "{linkage:?} merge {step}: {} vs {}",
                    x.distance,
                    y.distance
                );
            }
        }
    }
}
