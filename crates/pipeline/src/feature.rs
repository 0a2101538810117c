//! Feature spaces: which representation of a tower the clustering
//! stage sees.
//!
//! The paper clusters raw 4,032-bin traffic vectors — fine at city
//! scale on a Hadoop deployment, but the O(n²) distance work over
//! 4,032 dimensions dominates a study at the paper's 9,600 towers.
//! The paper's own §4 observation (the three principal frequency
//! components retain >94% of signal energy) licenses a 6-dim
//! alternative: each tower's `(amplitude, phase)` pair at the weekly,
//! daily and half-daily lines ([`principal_bins`]). [`FeatureSpace`]
//! names the choice and threads it from the CLI down to the cluster
//! stage. The 6-dim rows themselves are the study's one spectral
//! table, built once by `towerlens-core`'s pattern identifier in
//! either space; a golden test there pins the spectral space to the
//! raw-space reference by Adjusted Rand Index at small n.

use std::fmt;
use std::str::FromStr;

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
}
