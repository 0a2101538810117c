//! Online classification against a frozen batch basis.
//!
//! The daemon does not re-cluster on every snapshot: the batch study
//! (or `towerlens-cli analyze`) discovers the city's traffic patterns
//! once, and `serve` classifies live towers against those **frozen
//! centroids** by nearest-centroid assignment in z-scored feature
//! space. The basis is the versioned query artifact the batch run
//! writes with `--snapshot`, so a batch run and a streaming run
//! literally share the artifact.

use std::path::Path;

use crate::error::{io_err, ServeError};

/// A frozen classification basis: the batch centroids plus the
/// provenance the report prints.
#[derive(Debug, Clone)]
pub struct Basis {
    /// The frozen batch centroids (in z-scored space).
    pub centroids: Vec<Vec<f64>>,
    /// The number of patterns the batch run settled on.
    pub k: usize,
    /// The dendrogram cut threshold the batch run used.
    pub threshold: f64,
    /// The configuration fingerprint the basis was written under.
    pub fingerprint: u64,
}

impl Basis {
    /// Feature dimensionality of the centroids (0 when empty).
    pub fn dims(&self) -> usize {
        self.centroids.first().map_or(0, Vec::len)
    }
}

/// Loads a basis from a versioned query artifact through the
/// checksummed section codec.
///
/// # Errors
/// [`ServeError::Io`] when the file cannot be read;
/// [`ServeError::Config`], naming the file, when it is not an intact
/// artifact (a `cluster.ckpt` checkpoint included) or carries
/// no centroids.
pub fn load_basis(path: &Path) -> Result<Basis, ServeError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let snap = towerlens_artifact::Snapshot::decode(&bytes)
        .map_err(|e| ServeError::Config(format!("basis {}: {e}", path.display())))?;
    if snap.centroids.is_empty() {
        return Err(ServeError::Config(format!(
            "basis {}: no centroids",
            path.display()
        )));
    }
    Ok(Basis {
        centroids: snap.centroids,
        k: snap.meta.k,
        threshold: snap.meta.threshold,
        fingerprint: snap.meta.fingerprint,
    })
}

/// Assigns each z-scored vector to its nearest centroid (squared
/// Euclidean distance; ties break to the lowest centroid index, so
/// assignment is deterministic). Returns one label per vector.
///
/// # Errors
/// [`ServeError::Config`] when a vector's dimensionality does not
/// match the basis.
pub fn classify(vectors: &[Vec<f64>], basis: &Basis) -> Result<Vec<usize>, ServeError> {
    let dims = basis.dims();
    let mut labels = Vec::with_capacity(vectors.len());
    for v in vectors {
        if v.len() != dims {
            return Err(ServeError::Config(format!(
                "basis dimensionality {} does not match live vectors of length {} \
                 (was the basis built over a different --days window?)",
                dims,
                v.len()
            )));
        }
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, c) in basis.centroids.iter().enumerate() {
            let d: f64 = v.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        labels.push(best);
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis_of(centroids: Vec<Vec<f64>>) -> Basis {
        Basis {
            k: centroids.len(),
            centroids,
            threshold: 0.0,
            fingerprint: 0,
        }
    }

    #[test]
    fn classify_picks_nearest_with_low_index_ties() {
        let basis = basis_of(vec![vec![0.0, 0.0], vec![2.0, 0.0], vec![0.0, 2.0]]);
        let labels = classify(
            &[
                vec![0.1, 0.1],
                vec![1.9, -0.1],
                vec![1.0, 0.0], // exactly between 0 and 1 → lowest index
            ],
            &basis,
        )
        .unwrap();
        assert_eq!(labels, vec![0, 1, 0]);
    }

    #[test]
    fn classify_rejects_dimension_mismatch() {
        let basis = basis_of(vec![vec![0.0, 0.0]]);
        let err = classify(&[vec![1.0, 2.0, 3.0]], &basis).unwrap_err();
        assert!(matches!(err, ServeError::Config(_)));
    }

    #[test]
    fn load_basis_decodes_an_artifact_and_rejects_a_corrupt_one() {
        let dir = std::env::temp_dir().join("towerlens-basis-artifact");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = towerlens_artifact::format::sample_snapshot();
        let path = dir.join("study.artifact");
        towerlens_artifact::write_snapshot(&path, &snap).unwrap();
        let basis = load_basis(&path).unwrap();
        assert_eq!(basis.fingerprint, snap.meta.fingerprint);
        assert_eq!(basis.k, snap.meta.k);
        assert_eq!(basis.centroids, snap.centroids);
        assert_eq!(basis.dims(), 8);

        // A corrupted artifact is rejected with a typed error, not
        // classified against silently.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let bad = dir.join("bad.artifact");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(matches!(
            load_basis(&bad).unwrap_err(),
            ServeError::Config(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
