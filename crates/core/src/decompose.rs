//! Component analysis of towers in comprehensive areas (§5.3).
//!
//! Any tower's frequency-domain feature is (approximately) a convex
//! combination of the four most representative towers' features — the
//! "four primary components". The coefficients are recovered by the
//! simplex-constrained least-squares QP and validated against the POI
//! NTF-IDF of the tower's neighbourhood (Table 6); the combination is
//! also rendered in the time domain (Fig 19).

use towerlens_opt::simplex::{simplex_least_squares, SimplexLsOptions, Solver};
use towerlens_opt::tfidf::TfIdfModel;

use crate::error::CoreError;
use crate::freq::TowerFeatures;

/// One decomposed tower (a row of Table 6).
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Index of the tower in the analysed vector set.
    pub vector_index: usize,
    /// Convex coefficients over the four primary components, in
    /// canonical pure-pattern order (resident, transport, office,
    /// entertainment).
    pub coefficients: [f64; 4],
    /// Squared distance between the tower's feature and its convex
    /// reconstruction (0 inside the polygon).
    pub residual_sqr: f64,
    /// NTF-IDF of the tower's POI neighbourhood, same order.
    pub ntf_idf: [f64; 4],
}

/// The decomposition engine: holds the four primary components.
#[derive(Debug, Clone)]
pub struct Decomposer {
    /// Feature vectors of the four representative towers
    /// (`f3` space), pure-pattern order.
    vertices: Vec<Vec<f64>>,
    /// TF-IDF model fitted over all analysed towers' POI counts.
    tfidf: TfIdfModel,
    /// Per-tower POI counts aligned with vector indices.
    poi_counts: Vec<[f64; 4]>,
    options: SimplexLsOptions,
}

impl Decomposer {
    /// Builds a decomposer.
    ///
    /// * `representatives` — features of the four representative
    ///   towers in pure-pattern order,
    /// * `tower_poi` — each analysed tower's POI counts for the NTF-IDF
    ///   validation, in vector order: the labelling's
    ///   [`GeoLabels::tower_poi`](crate::labeling::GeoLabels::tower_poi).
    ///
    /// # Errors
    /// Wrapped TF-IDF fitting failures.
    pub fn new(
        representatives: &[TowerFeatures; 4],
        tower_poi: &[[usize; 4]],
        solver: Solver,
    ) -> Result<Self, CoreError> {
        let vertices = representatives.iter().map(|f| f.f3().to_vec()).collect();
        let poi_counts: Vec<[f64; 4]> = tower_poi
            .iter()
            .map(|c| [c[0] as f64, c[1] as f64, c[2] as f64, c[3] as f64])
            .collect();
        let corpus: Vec<Vec<f64>> = poi_counts.iter().map(|c| c.to_vec()).collect();
        let tfidf = TfIdfModel::fit(&corpus)?;
        Ok(Decomposer {
            vertices,
            tfidf,
            poi_counts,
            options: SimplexLsOptions {
                solver,
                ..SimplexLsOptions::default()
            },
        })
    }

    /// Decomposes one tower.
    ///
    /// # Errors
    /// QP failures; [`CoreError::NotEnoughData`] for an out-of-range
    /// index.
    pub fn decompose(
        &self,
        vector_index: usize,
        feature: &TowerFeatures,
    ) -> Result<Decomposition, CoreError> {
        if vector_index >= self.poi_counts.len() {
            return Err(CoreError::NotEnoughData {
                what: "poi rows",
                needed: vector_index + 1,
                got: self.poi_counts.len(),
            });
        }
        let target = feature.f3();
        let sol = simplex_least_squares(&self.vertices, &target, self.options)?;
        let mut coefficients = [0.0; 4];
        for (c, v) in coefficients.iter_mut().zip(&sol.coefficients) {
            *c = *v;
        }
        let ntf = self.tfidf.ntf_idf(&self.poi_counts[vector_index])?;
        let mut ntf_idf = [0.0; 4];
        for (n, v) in ntf_idf.iter_mut().zip(&ntf) {
            *n = *v;
        }
        Ok(Decomposition {
            vector_index,
            coefficients,
            residual_sqr: sol.residual_sqr,
            ntf_idf,
        })
    }

    /// Decomposes a batch of towers.
    ///
    /// # Errors
    /// As for [`Decomposer::decompose`].
    pub fn decompose_all(
        &self,
        indices: &[usize],
        features: &[TowerFeatures],
    ) -> Result<Vec<Decomposition>, CoreError> {
        self.decompose_all_par(indices, features, 1)
    }

    /// [`Decomposer::decompose_all`] fanned out over towers via
    /// [`towerlens_par`] (`threads == 0` = available parallelism).
    /// Every QP is independent and lands in its own slot, so the rows
    /// are bit-identical for any thread count.
    ///
    /// # Errors
    /// As for [`Decomposer::decompose`].
    pub fn decompose_all_par(
        &self,
        indices: &[usize],
        features: &[TowerFeatures],
        threads: usize,
    ) -> Result<Vec<Decomposition>, CoreError> {
        towerlens_par::par_map_indexed(indices, threads, |_, &i| {
            let f = features.get(i).ok_or(CoreError::NotEnoughData {
                what: "features",
                needed: i + 1,
                got: features.len(),
            })?;
            self.decompose(i, f)
        })
        .into_iter()
        .collect()
    }
}

/// Fig 19: renders a convex combination in the time domain — the
/// weighted sum of the four representative towers' (normalised)
/// traffic vectors.
pub fn time_domain_combination(
    coefficients: &[f64; 4],
    representative_vectors: &[&[f64]; 4],
) -> Vec<f64> {
    let n = representative_vectors[0].len();
    let mut out = vec![0.0; n];
    for (c, v) in coefficients.iter().zip(representative_vectors) {
        for (o, x) in out.iter_mut().zip(v.iter()) {
            *o += c * x;
        }
    }
    out
}

/// Rank-consistency score between coefficients and NTF-IDF: the paper
/// argues the *smallest* NTF-IDF entries should correspond to the
/// smallest coefficients. Returns the fraction of towers whose
/// argmin-NTF-IDF type is among the two smallest coefficients.
pub fn min_rank_consistency(rows: &[Decomposition]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    for row in rows {
        let argmin_ntf = (0..4)
            .min_by(|&a, &b| {
                row.ntf_idf[a]
                    .partial_cmp(&row.ntf_idf[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("4 entries");
        let mut coeff_order: Vec<usize> = (0..4).collect();
        coeff_order.sort_by(|&a, &b| {
            row.coefficients[a]
                .partial_cmp(&row.coefficients[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if coeff_order[..2].contains(&argmin_ntf) {
            hits += 1;
        }
    }
    hits as f64 / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_domain_combination_is_weighted_sum() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        let c = vec![1.0, 1.0];
        let d = vec![2.0, 2.0];
        let coeff = [0.5, 0.5, 0.0, 0.0];
        let out = time_domain_combination(&coeff, &[&a, &b, &c, &d]);
        assert_eq!(out, vec![0.5, 0.5]);
    }

    #[test]
    fn rank_consistency_scores() {
        let perfect = Decomposition {
            vector_index: 0,
            coefficients: [0.5, 0.0, 0.3, 0.2],
            residual_sqr: 0.0,
            ntf_idf: [0.4, 0.0, 0.35, 0.25],
        };
        assert_eq!(min_rank_consistency(std::slice::from_ref(&perfect)), 1.0);
        let wrong = Decomposition {
            coefficients: [0.0, 0.6, 0.3, 0.1],
            ntf_idf: [0.0, 0.0, 0.5, 0.5],
            ..perfect
        };
        // argmin ntf = 0 (tie → first), coefficient 0 is the smallest →
        // still a hit.
        assert_eq!(min_rank_consistency(&[wrong]), 1.0);
        let miss = Decomposition {
            vector_index: 0,
            coefficients: [0.9, 0.05, 0.03, 0.02],
            residual_sqr: 0.0,
            ntf_idf: [0.0, 0.4, 0.3, 0.3],
        };
        assert_eq!(min_rank_consistency(&[miss]), 0.0);
        assert_eq!(min_rank_consistency(&[]), 0.0);
    }
}
