//! Error types for the clustering substrate.

/// Errors produced by clustering operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No data points were supplied.
    EmptyInput,
    /// Points have inconsistent dimensionality.
    DimensionMismatch {
        /// Dimensionality of the first point.
        expected: usize,
        /// Dimensionality of the offending point.
        actual: usize,
        /// Index of the offending point.
        index: usize,
    },
    /// A point contained NaN/∞.
    NonFinite {
        /// Index of the offending point.
        index: usize,
    },
    /// Requested more clusters than there are points.
    TooManyClusters {
        /// Requested cluster count.
        requested: usize,
        /// Available points.
        available: usize,
    },
    /// `k = 0` requested.
    ZeroClusters,
    /// A condensed distance buffer had the wrong length for its
    /// declared point count.
    CondensedLengthMismatch {
        /// Declared point count.
        n: usize,
        /// `n·(n−1)/2`, the length a condensed buffer over `n` points
        /// must have.
        expected: usize,
        /// Length of the buffer actually supplied.
        actual: usize,
    },
    /// An internal invariant failed (a bug; included so library users
    /// get an error, never a panic).
    Internal(&'static str),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::EmptyInput => write!(f, "no data points supplied"),
            ClusterError::DimensionMismatch {
                expected,
                actual,
                index,
            } => write!(
                f,
                "point {index} has dimension {actual}, expected {expected}"
            ),
            ClusterError::NonFinite { index } => {
                write!(f, "point {index} contains a non-finite coordinate")
            }
            ClusterError::TooManyClusters {
                requested,
                available,
            } => write!(f, "requested {requested} clusters from {available} points"),
            ClusterError::ZeroClusters => write!(f, "requested zero clusters"),
            ClusterError::CondensedLengthMismatch {
                n,
                expected,
                actual,
            } => write!(
                f,
                "condensed distance buffer for {n} points must hold {expected} entries, got {actual}"
            ),
            ClusterError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Validates a point set: non-empty, consistent dimension, finite.
/// The error names the lowest-index bad point; a point both ragged and
/// non-finite is reported ragged.
pub(crate) fn validate_points(points: &[Vec<f64>]) -> Result<usize, ClusterError> {
    let dim = points.first().ok_or(ClusterError::EmptyInput)?.len();
    for (index, p) in points.iter().enumerate() {
        check_point(index, p, dim)?;
    }
    Ok(dim)
}

/// [`validate_points`] over up to `threads` workers (`0` = available
/// parallelism): each scans one contiguous run of points for its
/// lowest-index bad point, and the lowest run's error wins, so the
/// result is exactly the serial scan's.
pub(crate) fn validate_points_par(
    points: &[Vec<f64>],
    threads: usize,
) -> Result<usize, ClusterError> {
    let dim = points.first().ok_or(ClusterError::EmptyInput)?.len();
    let chunk = towerlens_par::chunk_len(points.len(), threads);
    let runs: Vec<&[Vec<f64>]> = points.chunks(chunk).collect();
    let errors = towerlens_par::par_map_indexed(&runs, threads, |r, run| {
        run.iter()
            .enumerate()
            .find_map(|(i, p)| check_point(r * chunk + i, p, dim).err())
    });
    match errors.into_iter().flatten().next() {
        Some(err) => Err(err),
        None => Ok(dim),
    }
}

/// One point of a `dim`-dimensional set: ragged before non-finite.
fn check_point(index: usize, p: &[f64], dim: usize) -> Result<(), ClusterError> {
    if p.len() != dim {
        return Err(ClusterError::DimensionMismatch {
            expected: dim,
            actual: p.len(),
            index,
        });
    }
    if p.iter().any(|v| !v.is_finite()) {
        return Err(ClusterError::NonFinite { index });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_catches_all_failure_modes() {
        assert_eq!(validate_points(&[]), Err(ClusterError::EmptyInput));
        assert_eq!(
            validate_points(&[vec![1.0], vec![1.0, 2.0]]),
            Err(ClusterError::DimensionMismatch {
                expected: 1,
                actual: 2,
                index: 1
            })
        );
        assert_eq!(
            validate_points(&[vec![1.0], vec![f64::NAN]]),
            Err(ClusterError::NonFinite { index: 1 })
        );
        assert_eq!(validate_points(&[vec![1.0, 2.0], vec![3.0, 4.0]]), Ok(2));
    }

    #[test]
    fn parallel_validation_returns_the_serial_scans_error() {
        // 90 points: at 2 threads the runs are 0..45 and 45..90, at 3
        // they are 0..30, 30..60 and 60..90. Each case puts bad points
        // in two workers' runs; the lowest one must win, ragged before
        // non-finite within a point.
        let ragged = |index| ClusterError::DimensionMismatch {
            expected: 3,
            actual: 4,
            index,
        };
        let non_finite = |index| ClusterError::NonFinite { index };
        // (non-finite points, ragged points, the error)
        let cases: [(&[usize], &[usize], _); 5] = [
            (&[20], &[70], Err(non_finite(20))),
            (&[80], &[50], Err(ragged(50))),
            (&[44], &[44, 46], Err(ragged(44))),
            (&[89, 31], &[61], Err(non_finite(31))),
            (&[], &[], Ok(3)),
        ];
        for (nan_at, ragged_at, want) in cases {
            let mut points: Vec<Vec<f64>> = (0..90).map(|i| vec![i as f64; 3]).collect();
            for &i in nan_at {
                points[i][1] = f64::NAN;
            }
            for &i in ragged_at {
                points[i].push(0.0);
            }
            assert_eq!(validate_points(&points), want);
            for threads in [1, 2, 3] {
                assert_eq!(
                    validate_points_par(&points, threads),
                    want,
                    "{threads} threads"
                );
            }
        }
        assert_eq!(validate_points_par(&[], 2), Err(ClusterError::EmptyInput));
    }

    #[test]
    fn display_mentions_indices() {
        let e = ClusterError::NonFinite { index: 42 };
        assert!(e.to_string().contains("42"));
    }
}
