//! Frequency-domain representation (§5.1–5.2).
//!
//! The paper's observation: the DFT of any tower's four-week traffic
//! vector is dominated by three components — `k = weeks` (one week),
//! `k = 7·weeks` (one day), `k = 14·weeks` (half a day); with the
//! paper's 4-week window these are 4, 28 and 56. Keeping
//! `{0} ∪ {±k}` loses <6% of signal energy, and the per-component
//! amplitude/phase pairs form the feature space in which the five
//! patterns separate, towers fill a polygon, and the four "most
//! representative" towers span everything else.
//!
//! Those pairs, one [`TowerFeatures`] row per tower, are extracted by
//! [`features_of_goertzel_par`] once per study: the cluster stage's
//! [`PatternIdentifier::identify_in`](crate::identifier::PatternIdentifier::identify_in)
//! builds the table, and the frequency stage, the snapshot writers and
//! serve's publish path all read it from
//! [`IdentifiedPatterns`](crate::identifier::IdentifiedPatterns).

use towerlens_cluster::dendrogram::Clustering;
use towerlens_dsp::circular::{circular_mean, circular_stddev};
use towerlens_dsp::complex::Complex;
use towerlens_dsp::fft::FftPlan;
use towerlens_dsp::goertzel::{goertzel_bins_each, goertzel_bins_sharded, record_evaluations};
use towerlens_dsp::spectrum::{amplitude_variance_across, Spectrum};
use towerlens_dsp::stats::{mean, stddev};
use towerlens_trace::time::TraceWindow;

use crate::error::CoreError;

/// The three principal frequency bins of a window: `(week, day,
/// half-day)`.
///
/// # Errors
/// [`CoreError::NotEnoughData`] unless the window spans at least one
/// whole week (the weekly line needs a whole number of weeks to sit
/// on an integer bin).
pub fn principal_bins(window: &TraceWindow) -> Result<[usize; 3], CoreError> {
    // The bin arithmetic lives in `towerlens_pipeline::feature`, where
    // serve reads it too; this wrapper only restates "no whole week"
    // as a core error.
    towerlens_pipeline::principal_bins(window).ok_or_else(no_whole_weeks)
}

/// The error for a window without a whole week: it has no principal
/// bins, so no feature table.
pub(crate) fn no_whole_weeks() -> CoreError {
    CoreError::NotEnoughData {
        what: "whole weeks in window",
        needed: 1,
        got: 0,
    }
}

/// Amplitude/phase of the three principal components for one tower —
/// the paper's `(A₄, P₄, A₂₈, P₂₈, A₅₆, P₅₆)`. Amplitudes are
/// normalised by `N` so they are comparable across window lengths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TowerFeatures {
    /// Amplitude at the weekly component.
    pub amp_week: f64,
    /// Phase at the weekly component.
    pub phase_week: f64,
    /// Amplitude at the daily component.
    pub amp_day: f64,
    /// Phase at the daily component.
    pub phase_day: f64,
    /// Amplitude at the half-day component.
    pub amp_half: f64,
    /// Phase at the half-day component.
    pub phase_half: f64,
}

impl TowerFeatures {
    /// The 3-feature vector `(A_day, P_day, A_half)` the paper uses
    /// for the polygon and the convex decomposition (§5.3, Fig 17).
    pub fn f3(&self) -> [f64; 3] {
        [self.amp_day, self.phase_day, self.amp_half]
    }

    /// All six features as a vector.
    pub fn f6(&self) -> [f64; 6] {
        [
            self.amp_week,
            self.phase_week,
            self.amp_day,
            self.phase_day,
            self.amp_half,
            self.phase_half,
        ]
    }
}

/// Computes spectra for a set of equal-length vectors with a shared
/// FFT plan.
///
/// # Errors
/// Propagates per-vector spectrum failures.
pub fn spectra_of(vectors: &[Vec<f64>]) -> Result<Vec<Spectrum>, CoreError> {
    let n = vectors.first().map(|v| v.len()).unwrap_or(0);
    let plan = FftPlan::new(n);
    vectors
        .iter()
        .map(|v| Spectrum::of_with_plan(v, &plan).map_err(CoreError::from))
        .collect()
}

/// The FFT reference the Goertzel table is tested against: the
/// principal-component features of every tower, read off full spectra.
#[cfg(test)]
fn features_of(
    vectors: &[Vec<f64>],
    window: &TraceWindow,
) -> Result<Vec<TowerFeatures>, CoreError> {
    let [kw, kd, kh] = principal_bins(window)?;
    let spectra = spectra_of(vectors)?;
    spectra
        .iter()
        .map(|s| {
            let n = s.len() as f64;
            Ok(TowerFeatures {
                amp_week: s.amplitude(kw)? / n,
                phase_week: s.phase(kw)?,
                amp_day: s.amplitude(kd)? / n,
                phase_day: s.phase(kd)?,
                amp_half: s.amplitude(kh)? / n,
                phase_half: s.phase(kh)?,
            })
        })
        .collect()
}

/// Per-cluster mean/σ of amplitude, and circular mean/σ of phase, for
/// one principal component (one panel of Fig 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterFeatureStats {
    /// Mean amplitude.
    pub amp_mean: f64,
    /// Amplitude standard deviation.
    pub amp_std: f64,
    /// Circular mean phase (`None` if phases are uniformly spread).
    pub phase_mean: Option<f64>,
    /// Circular phase standard deviation.
    pub phase_std: Option<f64>,
}

/// Computes Fig 16: for each cluster and each of the three
/// components, amplitude and phase statistics.
///
/// Returns `stats[cluster][component]` with components ordered
/// (week, day, half-day).
pub fn cluster_feature_stats(
    features: &[TowerFeatures],
    clustering: &Clustering,
) -> Result<Vec<[ClusterFeatureStats; 3]>, CoreError> {
    if features.len() != clustering.labels.len() {
        return Err(CoreError::NotEnoughData {
            what: "features matching labels",
            needed: clustering.labels.len(),
            got: features.len(),
        });
    }
    let mut out = Vec::with_capacity(clustering.k);
    for c in 0..clustering.k {
        let members: Vec<&TowerFeatures> = features
            .iter()
            .zip(&clustering.labels)
            .filter(|(_, &l)| l == c)
            .map(|(f, _)| f)
            .collect();
        let comp = |amp: fn(&TowerFeatures) -> f64,
                    phase: fn(&TowerFeatures) -> f64|
         -> ClusterFeatureStats {
            let amps: Vec<f64> = members.iter().map(|f| amp(f)).collect();
            let phases: Vec<f64> = members.iter().map(|f| phase(f)).collect();
            ClusterFeatureStats {
                amp_mean: mean(&amps).unwrap_or(0.0),
                amp_std: stddev(&amps).unwrap_or(0.0),
                phase_mean: circular_mean(&phases),
                phase_std: circular_stddev(&phases),
            }
        };
        out.push([
            comp(|f| f.amp_week, |f| f.phase_week),
            comp(|f| f.amp_day, |f| f.phase_day),
            comp(|f| f.amp_half, |f| f.phase_half),
        ]);
    }
    Ok(out)
}

/// Fig 13: per-bin variance of normalised DFT amplitude across
/// towers.
///
/// # Errors
/// As for the underlying spectra.
pub fn amplitude_variance(vectors: &[Vec<f64>]) -> Result<Vec<f64>, CoreError> {
    let spectra = spectra_of(vectors)?;
    amplitude_variance_across(&spectra).map_err(CoreError::from)
}

/// Fig 12: sparse-reconstruction summary of a series.
#[derive(Debug, Clone)]
pub struct ReconstructionSummary {
    /// The three principal bins used (plus DC, implicitly).
    pub bins: [usize; 3],
    /// The three dominant bins actually found in the spectrum
    /// (should equal `bins` when the paper's claim holds).
    pub dominant: Vec<usize>,
    /// Reconstructed time series from `{0} ∪ bins` (and mirrors).
    pub reconstructed: Vec<f64>,
    /// Fraction of energy lost (paper: < 6%).
    pub lost_energy: f64,
}

/// Reconstructs a series from its three principal components + DC and
/// reports the energy loss.
///
/// # Errors
/// As for [`principal_bins`] and the spectrum computation.
pub fn reconstruct_principal(
    series: &[f64],
    window: &TraceWindow,
) -> Result<ReconstructionSummary, CoreError> {
    let bins = principal_bins(window)?;
    let spectrum = Spectrum::of(series)?;
    let keep = [0, bins[0], bins[1], bins[2]];
    let reconstructed = spectrum.reconstruct_from_bins(&keep)?;
    let lost_energy = spectrum.lost_energy_fraction(&keep)?;
    let mut dominant = spectrum.dominant_bins(3);
    dominant.sort_unstable();
    Ok(ReconstructionSummary {
        bins,
        dominant,
        reconstructed,
        lost_energy,
    })
}

/// The §5.2 representative-tower search: for each of the four pure
/// clusters, the member that is farthest (in `f3` feature space) from
/// every tower of the other clusters, among members that are not
/// noise (density ≥ median member density).
///
/// `pure_clusters` lists the cluster index of each pure pattern; the
/// return value is the *vector index* (into `features`) of each
/// pattern's representative, in the same order.
///
/// # Errors
/// [`CoreError::NotEnoughData`] if a listed cluster has no members.
pub fn representative_towers(
    features: &[TowerFeatures],
    clustering: &Clustering,
    pure_clusters: &[usize],
) -> Result<Vec<usize>, CoreError> {
    if features.len() != clustering.labels.len() {
        return Err(CoreError::NotEnoughData {
            what: "features matching labels",
            needed: clustering.labels.len(),
            got: features.len(),
        });
    }
    let pts: Vec<[f64; 3]> = features.iter().map(|f| f.f3()).collect();
    let d3 = |a: &[f64; 3], b: &[f64; 3]| -> f64 {
        let dx = a[0] - b[0];
        let dy = a[1] - b[1];
        let dz = a[2] - b[2];
        (dx * dx + dy * dy + dz * dz).sqrt()
    };
    // Density radius: a fraction of the global feature spread.
    let spread = {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in &pts {
            for i in 0..3 {
                lo[i] = lo[i].min(p[i]);
                hi[i] = hi[i].max(p[i]);
            }
        }
        ((hi[0] - lo[0]).powi(2) + (hi[1] - lo[1]).powi(2) + (hi[2] - lo[2]).powi(2)).sqrt()
    };
    let radius = (spread * 0.1).max(1e-9);

    let mut out = Vec::with_capacity(pure_clusters.len());
    for &c in pure_clusters {
        let members: Vec<usize> = clustering.members(c);
        if members.is_empty() {
            return Err(CoreError::NotEnoughData {
                what: "cluster members",
                needed: 1,
                got: 0,
            });
        }
        // Density of each member (towers of any cluster within the
        // radius).
        let density: Vec<usize> = members
            .iter()
            .map(|&m| pts.iter().filter(|p| d3(p, &pts[m]) <= radius).count())
            .collect();
        let mut sorted = density.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        // Score: min distance to any tower of another cluster.
        let mut best: Option<(usize, f64)> = None;
        for (mi, &m) in members.iter().enumerate() {
            if density[mi] < median {
                continue; // noise guard
            }
            let score = clustering
                .labels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l != c)
                .map(|(o, _)| d3(&pts[o], &pts[m]))
                .fold(f64::INFINITY, f64::min);
            match best {
                Some((_, bs)) if bs >= score => {}
                _ => best = Some((m, score)),
            }
        }
        out.push(best.expect("non-empty member set").0);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use towerlens_city::zone::PoiKind;
    use towerlens_mobility::config::SynthConfig;
    use towerlens_mobility::profiles::pure_mix;
    use towerlens_mobility::synth::tower_vector;
    use towerlens_pipeline::normalize::normalize_matrix;

    fn window() -> TraceWindow {
        TraceWindow::days(14)
    }

    fn zscored_pure(kind: PoiKind, id: usize, noise: f64) -> Vec<f64> {
        let cfg = SynthConfig {
            bin_noise_sigma: noise,
            day_noise_sigma: 0.0,
            tower_scale_sigma: 0.5,
            ..SynthConfig::default()
        };
        let v = tower_vector(&pure_mix(kind), &window(), &cfg, id);
        normalize_matrix(&[v], 1).unwrap().vectors.remove(0)
    }

    #[test]
    fn principal_bins_scale_with_weeks() {
        assert_eq!(principal_bins(&TraceWindow::paper()).unwrap(), [4, 28, 56]);
        assert_eq!(principal_bins(&TraceWindow::days(14)).unwrap(), [2, 14, 28]);
        assert_eq!(principal_bins(&TraceWindow::days(7)).unwrap(), [1, 7, 14]);
        assert!(principal_bins(&TraceWindow::days(5)).is_err());
    }

    #[test]
    fn dominant_bins_are_the_principal_ones() {
        let v = zscored_pure(PoiKind::Office, 0, 0.1);
        let summary = reconstruct_principal(&v, &window()).unwrap();
        // The daily line must be among the dominant bins for an
        // office tower; with the weekly structure, all three usually
        // are.
        assert!(
            summary.dominant.contains(&14),
            "dominant: {:?}",
            summary.dominant
        );
    }

    #[test]
    fn reconstruction_loses_little_energy_for_zscored_traffic() {
        // The paper's <6% claim is about raw traffic (dominated by DC
        // and the daily cycle). For z-scored vectors the DC is gone, so
        // the bound is looser but the structure still dominates for
        // low-noise towers.
        let v = zscored_pure(PoiKind::Resident, 1, 0.05);
        let summary = reconstruct_principal(&v, &window()).unwrap();
        assert!(summary.lost_energy < 0.25, "lost {}", summary.lost_energy);
        assert_eq!(summary.reconstructed.len(), v.len());
    }

    #[test]
    fn reconstruction_of_raw_traffic_loses_under_6_percent() {
        // Raw (unnormalised) aggregate-like traffic, the paper's Fig 12
        // setting.
        let cfg = SynthConfig {
            bin_noise_sigma: 0.05,
            day_noise_sigma: 0.0,
            tower_scale_sigma: 0.0,
            ..SynthConfig::default()
        };
        let v = tower_vector(&pure_mix(PoiKind::Resident), &window(), &cfg, 3);
        let summary = reconstruct_principal(&v, &window()).unwrap();
        assert!(summary.lost_energy < 0.06, "lost {}", summary.lost_energy);
    }

    #[test]
    fn office_towers_have_strong_weekly_amplitude() {
        // Fig 15(a)/16(a): office has the strongest weekly periodicity;
        // resident the weakest.
        let off = features_of(&[zscored_pure(PoiKind::Office, 0, 0.05)], &window()).unwrap();
        let res = features_of(&[zscored_pure(PoiKind::Resident, 1, 0.05)], &window()).unwrap();
        assert!(
            off[0].amp_week > 2.0 * res[0].amp_week,
            "office {} vs resident {}",
            off[0].amp_week,
            res[0].amp_week
        );
    }

    #[test]
    fn transport_has_strongest_half_day_amplitude() {
        // Fig 16(c): the double-hump (half-day) component is largest
        // for transport towers.
        let feats: Vec<TowerFeatures> = PoiKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &k)| features_of(&[zscored_pure(k, i, 0.05)], &window()).unwrap()[0])
            .collect();
        let transport = feats[PoiKind::Transport.index()].amp_half;
        for (i, f) in feats.iter().enumerate() {
            if i != PoiKind::Transport.index() {
                assert!(
                    transport > f.amp_half,
                    "transport {} vs kind {i} {}",
                    transport,
                    f.amp_half
                );
            }
        }
    }

    #[test]
    fn office_and_resident_weekly_phases_oppose() {
        // Fig 15(a): office weekly phase is ~π from resident, and
        // entertainment sits on resident's side of the circle.
        let off = features_of(&[zscored_pure(PoiKind::Office, 0, 0.05)], &window()).unwrap();
        let res = features_of(&[zscored_pure(PoiKind::Resident, 1, 0.05)], &window()).unwrap();
        let ent = features_of(&[zscored_pure(PoiKind::Entertainment, 2, 0.05)], &window()).unwrap();
        let d = towerlens_dsp::circular::angular_distance(off[0].phase_week, res[0].phase_week);
        assert!(d > 2.0, "office/resident separation {d} (want ≈ π)");
        let d_ent_res =
            towerlens_dsp::circular::angular_distance(ent[0].phase_week, res[0].phase_week);
        let d_ent_off =
            towerlens_dsp::circular::angular_distance(ent[0].phase_week, off[0].phase_week);
        assert!(
            d_ent_res < d_ent_off,
            "entertainment ({}) closer to office ({d_ent_off}) than resident ({d_ent_res})",
            ent[0].phase_week
        );
    }

    #[test]
    fn commute_phase_ordering_resident_transport_office() {
        // Fig 16(b): the daily-component phases are *incremental* in
        // the order the morning migration flow passes through —
        // resident → transport → office. (The paper reads the smooth
        // phase transition in Fig 15(b) the same way.)
        use towerlens_dsp::circular::wrap_angle;
        let res = features_of(&[zscored_pure(PoiKind::Resident, 0, 0.02)], &window()).unwrap();
        let tra = features_of(&[zscored_pure(PoiKind::Transport, 1, 0.02)], &window()).unwrap();
        let off = features_of(&[zscored_pure(PoiKind::Office, 2, 0.02)], &window()).unwrap();
        let step1 = wrap_angle(tra[0].phase_day - res[0].phase_day);
        let step2 = wrap_angle(off[0].phase_day - tra[0].phase_day);
        assert!(step1 > 0.0, "transport not after resident: {step1}");
        assert!(step2 > 0.0, "office not after transport: {step2}");
    }

    #[test]
    fn cluster_stats_shapes() {
        let feats: Vec<TowerFeatures> = (0..6)
            .map(|i| {
                features_of(&[zscored_pure(PoiKind::ALL[i % 2], i, 0.1)], &window()).unwrap()[0]
            })
            .collect();
        let clustering = Clustering::from_labels(vec![0, 1, 0, 1, 0, 1]).unwrap();
        let stats = cluster_feature_stats(&feats, &clustering).unwrap();
        assert_eq!(stats.len(), 2);
        for cluster in &stats {
            for comp in cluster {
                assert!(comp.amp_mean >= 0.0);
                assert!(comp.amp_std >= 0.0);
            }
        }
    }

    #[test]
    fn representative_towers_prefer_extreme_members() {
        // Two clusters on a line in feature space; the representative
        // of each must be on its far side (max min-distance to the
        // other cluster), not in the middle.
        let mk = |a: f64| TowerFeatures {
            amp_week: 0.1,
            phase_week: 0.0,
            amp_day: a,
            phase_day: 0.0,
            amp_half: 0.0,
            phase_half: 0.0,
        };
        // Cluster 0 at 0.0..0.3, cluster 1 at 1.0..1.3.
        let features: Vec<TowerFeatures> = [0.0, 0.1, 0.2, 0.3, 1.0, 1.1, 1.2, 1.3]
            .iter()
            .map(|&a| mk(a))
            .collect();
        let clustering = Clustering::from_labels(vec![0, 0, 0, 0, 1, 1, 1, 1]).unwrap();
        let reps = representative_towers(&features, &clustering, &[0, 1]).unwrap();
        // The exact endpoints (0 and 7) are *noise-filtered out*: they
        // have below-median density. The representatives are the most
        // extreme members that survive the density guard.
        assert_eq!(reps[0], 1, "far non-noise end of cluster 0");
        assert_eq!(reps[1], 6, "far non-noise end of cluster 1");
    }

    #[test]
    fn representative_rejects_empty_cluster_request() {
        let features = vec![TowerFeatures {
            amp_week: 0.0,
            phase_week: 0.0,
            amp_day: 0.0,
            phase_day: 0.0,
            amp_half: 0.0,
            phase_half: 0.0,
        }];
        let clustering = Clustering::from_labels(vec![0]).unwrap();
        assert!(representative_towers(&features, &clustering, &[0]).is_ok());
        assert!(representative_towers(&features, &clustering, &[1]).is_err());
    }

    #[test]
    fn variance_peaks_at_principal_bins() {
        // Across towers of different kinds, the principal bins carry
        // the discriminating variance (Fig 13).
        let vectors: Vec<Vec<f64>> = PoiKind::ALL
            .iter()
            .enumerate()
            .flat_map(|(i, &k)| (0..3).map(move |j| zscored_pure(k, i * 3 + j, 0.1)))
            .collect();
        let var = amplitude_variance(&vectors).unwrap();
        let [kw, kd, kh] = principal_bins(&window()).unwrap();
        // The top-3 variance bins (excluding DC / mirrors) must include
        // the daily and half-day lines; the weekly line is at least in
        // the top 10.
        let half = var.len() / 2;
        let mut idx: Vec<usize> = (1..=half).collect();
        idx.sort_by(|&a, &b| var[b].partial_cmp(&var[a]).unwrap());
        assert!(idx[..4].contains(&kd), "top bins {:?}", &idx[..6]);
        assert!(idx[..4].contains(&kh), "top bins {:?}", &idx[..6]);
        assert!(idx[..10].contains(&kw), "top bins {:?}", &idx[..10]);
    }
}

#[cfg(test)]
mod calib {
    use super::*;
    use towerlens_city::zone::PoiKind;
    use towerlens_mobility::config::SynthConfig;
    use towerlens_mobility::profiles::pure_mix;
    use towerlens_mobility::synth::tower_vector;
    use towerlens_pipeline::normalize::normalize_matrix;

    #[test]
    #[ignore]
    fn print_features() {
        let w = TraceWindow::days(14);
        for kind in PoiKind::ALL {
            let cfg = SynthConfig {
                bin_noise_sigma: 0.0,
                day_noise_sigma: 0.0,
                tower_scale_sigma: 0.0,
                ..SynthConfig::default()
            };
            let v = tower_vector(&pure_mix(kind), &w, &cfg, 0);
            let z = normalize_matrix(&[v], 1).unwrap().vectors.remove(0);
            let f = features_of(&[z], &w).unwrap()[0];
            let ph = |p: f64| (-p / std::f64::consts::TAU * 24.0).rem_euclid(24.0);
            println!(
                "{kind:?}: Aw={:.3} Pw={:+.2} Ad={:.3} Pd={:+.2}(peak {:.1}h) Ah={:.3} Ph={:+.2}",
                f.amp_week,
                f.phase_week,
                f.amp_day,
                f.phase_day,
                ph(f.phase_day),
                f.amp_half,
                f.phase_half
            );
        }
    }
}

/// Towers whose Goertzel recurrences [`features_of_goertzel_par`] runs
/// interleaved in one pass: four towers × three bins keep twelve
/// independent dependency chains in flight.
const GOERTZEL_GROUP: usize = 4;

/// The per-tower feature table by Goertzel: one pass per tower
/// evaluates the three principal bins (see
/// [`towerlens_dsp::goertzel::goertzel_bins`]) at ~O(3·N) instead of a
/// full FFT, agreeing with the FFT's bins to float error.
///
/// This is the study's one feature extractor:
/// [`PatternIdentifier::identify_in`](crate::identifier::PatternIdentifier::identify_in)
/// runs it once per study and every later reader takes its table.
/// Groups of four towers fan out over [`towerlens_par`]
/// (`threads == 0` means available parallelism) and run through
/// [`goertzel_bins_each`], which gives every tower exactly its own
/// three-bin pass — value, error and evaluation count. Each tower lands
/// in its own slot and each worker counts Goertzel evaluations in a
/// private shard merged once at the end, so both the features and the
/// `dsp.goertzel.evaluations` counter are exactly identical for every
/// thread count.
///
/// # Errors
/// As for [`principal_bins`], plus [`towerlens_dsp::DspError`] for an
/// empty vector, a bin not below its length, or a NaN/∞ sample: the
/// lowest-indexed failing tower's.
pub fn features_of_goertzel_par(
    vectors: &[Vec<f64>],
    window: &TraceWindow,
    threads: usize,
) -> Result<Vec<TowerFeatures>, CoreError> {
    let bins = principal_bins(window)?;
    let groups: Vec<&[Vec<f64>]> = vectors.chunks(GOERTZEL_GROUP).collect();
    let (out, tallies) =
        towerlens_par::par_map_indexed_tally(&groups, threads, 1, |_, group, shard| {
            let lines: Vec<_> = match <&[Vec<f64>; GOERTZEL_GROUP]>::try_from(*group) {
                Ok(full) => {
                    let signals = full.each_ref().map(Vec::as_slice);
                    goertzel_bins_each(signals, bins, &mut shard[0]).into()
                }
                Err(_) => group
                    .iter()
                    .map(|v| goertzel_bins_sharded(v, bins, &mut shard[0]))
                    .collect(),
            };
            lines
                .into_iter()
                .zip(*group)
                .map(|(tower, v)| Ok::<_, CoreError>(features(v.len(), tower?)))
                .collect::<Vec<_>>()
        });
    record_evaluations(tallies[0]);
    out.into_iter().flatten().collect()
}

/// The features of a tower of `n` samples from its three principal
/// lines.
fn features(n: usize, [week, day, half]: [Complex; 3]) -> TowerFeatures {
    let n = n as f64;
    TowerFeatures {
        amp_week: week.abs() / n,
        phase_week: week.arg(),
        amp_day: day.abs() / n,
        phase_day: day.arg(),
        amp_half: half.abs() / n,
        phase_half: half.arg(),
    }
}

#[cfg(test)]
mod goertzel_path {
    use super::*;
    use towerlens_city::zone::PoiKind;
    use towerlens_mobility::config::SynthConfig;
    use towerlens_mobility::profiles::pure_mix;
    use towerlens_mobility::synth::tower_vector;

    #[test]
    fn matches_fft_features() {
        let w = TraceWindow::days(14);
        let vectors: Vec<Vec<f64>> = PoiKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &k)| tower_vector(&pure_mix(k), &w, &SynthConfig::default(), i))
            .collect();
        let via_fft = features_of(&vectors, &w).unwrap();
        let via_goertzel = features_of_goertzel_par(&vectors, &w, 1).unwrap();
        for (a, b) in via_fft.iter().zip(&via_goertzel) {
            assert!((a.amp_week - b.amp_week).abs() < 1e-6 * (a.amp_week + 1.0));
            assert!((a.phase_week - b.phase_week).abs() < 1e-6);
            assert!((a.amp_day - b.amp_day).abs() < 1e-6 * (a.amp_day + 1.0));
            assert!((a.phase_day - b.phase_day).abs() < 1e-6);
            assert!((a.amp_half - b.amp_half).abs() < 1e-6 * (a.amp_half + 1.0));
            assert!((a.phase_half - b.phase_half).abs() < 1e-6);
        }
    }

    /// §5's claims at the paper window (4 weeks, N = 4032): Goertzel
    /// at the principal bins {4, 28, 56} agrees with the FFT spectrum
    /// to 1e-9 relative, and the `{0} ∪ {4, 28, 56}` reconstruction
    /// loses < 6% of signal energy, on seeded raw workloads.
    #[test]
    fn goertzel_tracks_fft_to_1e9_and_reconstruction_keeps_94_percent() {
        let w = TraceWindow::paper();
        let cfg = SynthConfig {
            bin_noise_sigma: 0.05,
            day_noise_sigma: 0.0,
            tower_scale_sigma: 0.0,
            ..SynthConfig::default()
        };
        for (i, &kind) in PoiKind::ALL.iter().enumerate() {
            let v = tower_vector(&pure_mix(kind), &w, &cfg, i);
            let spec = towerlens_dsp::fft::fft_real(&v);
            for k in [4usize, 28, 56] {
                let g = towerlens_dsp::goertzel::goertzel(&v, k).unwrap();
                let err = (g - spec[k]).abs();
                assert!(
                    err < 1e-9 * (spec[k].abs() + 1.0),
                    "{kind:?} bin {k}: |Δ| = {err:e} vs |X| = {}",
                    spec[k].abs()
                );
            }
            // The paper's <6% bound (Fig 12) describes smooth diurnal
            // traffic; the synthetic transport/entertainment profiles
            // are spikier than real towers, so they only get a sanity
            // ceiling.
            let summary = reconstruct_principal(&v, &w).unwrap();
            let bound = match kind {
                PoiKind::Resident | PoiKind::Office => 0.06,
                PoiKind::Transport | PoiKind::Entertainment => 0.35,
            };
            assert!(
                summary.lost_energy < bound,
                "{kind:?} lost {} (bound {bound})",
                summary.lost_energy
            );
        }
    }

    #[test]
    fn grouped_towers_match_their_own_passes_and_report_the_first_error() {
        // Eleven towers: two full groups of four and a short last group.
        let w = TraceWindow::days(7);
        let bins = principal_bins(&w).unwrap();
        let vectors: Vec<Vec<f64>> = (0..11)
            .map(|i| {
                tower_vector(
                    &pure_mix(PoiKind::ALL[i % 4]),
                    &w,
                    &SynthConfig::default(),
                    i,
                )
            })
            .collect();
        let bits = |table: &[TowerFeatures]| -> Vec<[u64; 6]> {
            table.iter().map(|f| f.f6().map(f64::to_bits)).collect()
        };
        let reference: Vec<TowerFeatures> = vectors
            .iter()
            .map(|v| {
                features(
                    v.len(),
                    towerlens_dsp::goertzel::goertzel_bins(v, bins).unwrap(),
                )
            })
            .collect();
        for threads in [1usize, 2, 3] {
            let table = features_of_goertzel_par(&vectors, &w, threads).unwrap();
            assert_eq!(bits(&table), bits(&reference), "threads={threads}");
        }
        // A non-finite tower in the second group and an empty one in the
        // third: the second group's tower fails first.
        let mut bad = vectors.clone();
        bad[9].clear();
        bad[6][100] = f64::NAN;
        for threads in [1usize, 3] {
            assert_eq!(
                features_of_goertzel_par(&bad, &w, threads).unwrap_err(),
                CoreError::from(towerlens_dsp::DspError::NonFinite { index: 100 })
            );
        }
        bad[6][100] = 0.0;
        assert_eq!(
            features_of_goertzel_par(&bad, &w, 2).unwrap_err(),
            CoreError::from(towerlens_dsp::DspError::EmptyInput)
        );
    }

    #[test]
    fn parallel_goertzel_features_are_bit_identical_across_threads() {
        let w = TraceWindow::days(7);
        let vectors: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                tower_vector(
                    &pure_mix(PoiKind::ALL[i % 4]),
                    &w,
                    &SynthConfig::default(),
                    i,
                )
            })
            .collect();
        let reference = features_of_goertzel_par(&vectors, &w, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let par = features_of_goertzel_par(&vectors, &w, threads).unwrap();
            assert_eq!(reference, par, "threads={threads}");
        }
    }
}
