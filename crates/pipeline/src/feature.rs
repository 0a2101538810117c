//! Feature spaces: which representation of a tower the clustering
//! stage sees.
//!
//! The paper clusters raw 4,032-bin traffic vectors — fine at city
//! scale on a Hadoop deployment, but the O(n²) distance work over
//! 4,032 dimensions dominates a study at the paper's 9,600 towers.
//! The paper's own §4 observation (the three principal frequency
//! components retain >94% of signal energy) licenses a 6-dim
//! alternative: each tower's `(amplitude, phase)` pair at the weekly,
//! daily and half-daily lines. [`FeatureSpace`] names the choice and
//! threads it from the CLI down to the cluster stage; a golden test in
//! `towerlens-core` pins the spectral space to the raw-space reference
//! by Adjusted Rand Index at small n.

use std::fmt;
use std::str::FromStr;

use towerlens_dsp::goertzel::{goertzel_bins_sharded, record_evaluations};
use towerlens_dsp::DspError;
use towerlens_trace::time::TraceWindow;

/// Tower count at which [`FeatureSpace::Auto`] switches from raw to
/// spectral clustering.
///
/// Below this the materialised raw-space path is cheap (a 2,048-tower
/// condensed matrix is 16 MiB) and stays bit-identical to the
/// pre-refactor pipeline; at or above it the O(n²·4032) distance work
/// dominates the study and the 6-dim spectral space takes over. The
/// paper's 9,600 towers land firmly on the spectral side.
pub const SPECTRAL_AUTO_MIN: usize = 2048;

/// The representation in which towers are clustered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FeatureSpace {
    /// The full normalised traffic vector (4,032-dim at the paper
    /// window). The reference representation: every study below
    /// [`SPECTRAL_AUTO_MIN`] towers reproduces the pre-refactor
    /// pipeline bit for bit.
    Raw,
    /// The 6-dim spectral projection `(A_w, P_w, A_d, P_d, A_h, P_h)`
    /// at the window's principal bins — the representation that
    /// carries paper scale (9,600 towers) and beyond.
    Spectral,
    /// Decide per run: [`FeatureSpace::Spectral`] at or above
    /// [`SPECTRAL_AUTO_MIN`] towers, [`FeatureSpace::Raw`] below.
    #[default]
    Auto,
}

impl FeatureSpace {
    /// Resolves `Auto` against a tower count; `Raw` and `Spectral`
    /// return themselves.
    pub fn resolve(self, n_towers: usize) -> FeatureSpace {
        match self {
            FeatureSpace::Auto => {
                if n_towers >= SPECTRAL_AUTO_MIN {
                    FeatureSpace::Spectral
                } else {
                    FeatureSpace::Raw
                }
            }
            fixed => fixed,
        }
    }
}

impl fmt::Display for FeatureSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FeatureSpace::Raw => "raw",
            FeatureSpace::Spectral => "spectral",
            FeatureSpace::Auto => "auto",
        })
    }
}

impl FromStr for FeatureSpace {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "raw" => Ok(FeatureSpace::Raw),
            "spectral" => Ok(FeatureSpace::Spectral),
            "auto" => Ok(FeatureSpace::Auto),
            other => Err(format!(
                "unknown feature space '{other}' (expected raw, spectral or auto)"
            )),
        }
    }
}

/// The three principal frequency bins of a window — `(week, day,
/// half-day)` — or `None` when the window does not span a whole number
/// of weeks (the weekly line then has no integer bin to sit on).
pub fn principal_bins(window: &TraceWindow) -> Option<[usize; 3]> {
    let total_secs = window.n_bins as u64 * window.bin_secs;
    const WEEK_SECS: u64 = 7 * 86_400;
    let weeks = total_secs / WEEK_SECS;
    if weeks == 0 || !total_secs.is_multiple_of(WEEK_SECS) {
        return None;
    }
    let w = weeks as usize;
    Some([w, 7 * w, 14 * w])
}

/// One tower's spectral feature `(A_w, P_w, A_d, P_d, A_h, P_h)`: the
/// three principal bins evaluated in one Goertzel pass over the vector,
/// in bin order, counted into the caller's `tally` shard (credit it
/// with [`record_evaluations`]).
///
/// Amplitudes are normalised by the vector length so they are
/// comparable across window lengths. This is the one extractor behind
/// both [`spectral_project`] and the frequency stage's feature table
/// in `towerlens-core`, so the two agree bit for bit.
///
/// # Errors
/// [`DspError::BinOutOfRange`] if a bin is not below the vector's
/// length, [`DspError::EmptyInput`] for an empty vector,
/// [`DspError::NonFinite`] for a NaN/∞ sample.
pub fn spectral_feature(
    v: &[f64],
    bins: [usize; 3],
    tally: &mut u64,
) -> Result<[f64; 6], DspError> {
    let n = v.len() as f64;
    let mut feature = [0.0; 6];
    for (pair, c) in feature
        .chunks_exact_mut(2)
        .zip(goertzel_bins_sharded(v, bins, tally)?)
    {
        pair[0] = c.abs() / n;
        pair[1] = c.arg();
    }
    Ok(feature)
}

/// Projects every tower vector onto the 6-dim spectral feature space
/// with [`spectral_feature`] at the given principal bins.
///
/// Fanned out over towers via `towerlens_par` (`threads == 0` means
/// available parallelism); every tower lands in its own output slot
/// and Goertzel evaluations are tallied in worker-private shards
/// merged once at the end, so both the projection and the
/// `dsp.goertzel.evaluations` counter are bit-identical for every
/// thread count.
///
/// # Errors
/// As for [`spectral_feature`].
pub fn spectral_project(
    vectors: &[Vec<f64>],
    bins: [usize; 3],
    threads: usize,
) -> Result<Vec<Vec<f64>>, DspError> {
    let (out, tallies) =
        towerlens_par::par_map_indexed_tally(vectors, threads, 1, |_, v, shard| {
            spectral_feature(v, bins, &mut shard[0]).map(Vec::from)
        });
    record_evaluations(tallies[0]);
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_by_tower_count() {
        assert_eq!(FeatureSpace::Auto.resolve(240), FeatureSpace::Raw);
        assert_eq!(
            FeatureSpace::Auto.resolve(SPECTRAL_AUTO_MIN - 1),
            FeatureSpace::Raw
        );
        assert_eq!(
            FeatureSpace::Auto.resolve(SPECTRAL_AUTO_MIN),
            FeatureSpace::Spectral
        );
        assert_eq!(FeatureSpace::Auto.resolve(9_600), FeatureSpace::Spectral);
        // Fixed choices ignore the count.
        assert_eq!(FeatureSpace::Raw.resolve(1_000_000), FeatureSpace::Raw);
        assert_eq!(FeatureSpace::Spectral.resolve(3), FeatureSpace::Spectral);
    }

    #[test]
    fn parses_and_displays_round_trip() {
        for space in [
            FeatureSpace::Raw,
            FeatureSpace::Spectral,
            FeatureSpace::Auto,
        ] {
            assert_eq!(space.to_string().parse::<FeatureSpace>(), Ok(space));
        }
        assert!("fourier".parse::<FeatureSpace>().is_err());
    }

    #[test]
    fn principal_bins_need_whole_weeks() {
        assert_eq!(principal_bins(&TraceWindow::days(7)), Some([1, 7, 14]));
        assert_eq!(principal_bins(&TraceWindow::days(14)), Some([2, 14, 28]));
        assert_eq!(principal_bins(&TraceWindow::paper()), Some([4, 28, 56]));
        assert_eq!(principal_bins(&TraceWindow::days(5)), None);
    }

    #[test]
    fn projection_is_six_dim_and_thread_invariant() {
        let window = TraceWindow::days(7);
        let bins = principal_bins(&window).unwrap();
        let n = window.n_bins;
        let vectors: Vec<Vec<f64>> = (0..9)
            .map(|t| {
                (0..n)
                    .map(|i| {
                        let x = i as f64 / n as f64 * std::f64::consts::TAU;
                        (x * 7.0 + t as f64).sin() + 0.25 * (x * 14.0).cos()
                    })
                    .collect()
            })
            .collect();
        let reference = spectral_project(&vectors, bins, 1).unwrap();
        assert_eq!(reference.len(), vectors.len());
        assert!(reference.iter().all(|f| f.len() == 6));
        // The daily line dominates these synthetic towers.
        assert!(reference[0][2] > reference[0][0]);
        for threads in [2usize, 8] {
            let par = spectral_project(&vectors, bins, threads).unwrap();
            for (a, b) in reference.iter().zip(&par) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn projection_rejects_out_of_range_bins() {
        let vectors = vec![vec![1.0, 2.0, 3.0, 4.0]];
        assert!(matches!(
            spectral_project(&vectors, [1, 7, 14], 1),
            Err(DspError::BinOutOfRange { .. })
        ));
    }
}
