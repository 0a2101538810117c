//! Time-domain characterisation of the identified patterns (§4).
//!
//! Everything here operates on *raw* (unnormalised) traffic so the
//! absolute quantities of Table 4 are meaningful; the Fig 11
//! interrelationships use per-profile normalisation.

use towerlens_cluster::dendrogram::Clustering;
use towerlens_dsp::stats::{argmax, argmin, pearson};
use towerlens_trace::time::TraceWindow;

use crate::error::CoreError;

/// Peak/valley characteristics of one average-day profile
/// (one row-half of Tables 4 and 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakValley {
    /// Maximum of the average-day profile (bytes per bin).
    pub max_traffic: f64,
    /// Minimum of the average-day profile.
    pub min_traffic: f64,
    /// `max / min` (∞ when the valley is zero).
    pub peak_valley_ratio: f64,
    /// Time of the peak, `(hour, minute)`.
    pub peak_time: (u32, u32),
    /// Time of the valley, `(hour, minute)`.
    pub valley_time: (u32, u32),
}

/// Time-domain statistics of one cluster.
#[derive(Debug, Clone)]
pub struct ClusterTimeStats {
    /// Average weekday profile (one value per bin-of-day).
    pub weekday_profile: Vec<f64>,
    /// Average weekend profile.
    pub weekend_profile: Vec<f64>,
    /// Average weekday daily amount / average weekend daily amount
    /// (Fig 10(a)).
    pub weekday_weekend_ratio: f64,
    /// Peak/valley features of the weekday profile.
    pub weekday: PeakValley,
    /// Peak/valley features of the weekend profile.
    pub weekend: PeakValley,
}

/// Splits a full-window series into average weekday and weekend day
/// profiles (bin-of-day resolution).
///
/// # Errors
/// [`CoreError::NotEnoughData`] if the window has no full day.
pub fn daily_profiles(
    series: &[f64],
    window: &TraceWindow,
) -> Result<(Vec<f64>, Vec<f64>), CoreError> {
    let per_day = (86_400 / window.bin_secs) as usize;
    if series.len() < per_day || per_day == 0 {
        return Err(CoreError::NotEnoughData {
            what: "bins for a daily profile",
            needed: per_day.max(1),
            got: series.len(),
        });
    }
    let mut weekday = vec![0.0; per_day];
    let mut weekend = vec![0.0; per_day];
    let mut n_weekday = 0usize;
    let mut n_weekend = 0usize;
    let days = series.len() / per_day;
    for day in 0..days {
        let target = if window.is_weekend_bin(day * per_day) {
            n_weekend += 1;
            &mut weekend
        } else {
            n_weekday += 1;
            &mut weekday
        };
        for (b, t) in target.iter_mut().enumerate() {
            *t += series[day * per_day + b];
        }
    }
    if n_weekday > 0 {
        for v in weekday.iter_mut() {
            *v /= n_weekday as f64;
        }
    }
    if n_weekend > 0 {
        for v in weekend.iter_mut() {
            *v /= n_weekend as f64;
        }
    }
    Ok((weekday, weekend))
}

/// Extracts peak/valley features from an average-day profile.
pub fn peak_valley(profile: &[f64], window: &TraceWindow) -> Result<PeakValley, CoreError> {
    let (peak_bin, max_traffic) = argmax(profile).ok_or(CoreError::NotEnoughData {
        what: "profile bins",
        needed: 1,
        got: 0,
    })?;
    let (valley_bin, min_traffic) = argmin(profile).expect("argmax succeeded");
    let ratio = if min_traffic > 0.0 {
        max_traffic / min_traffic
    } else {
        f64::INFINITY
    };
    Ok(PeakValley {
        max_traffic,
        min_traffic,
        peak_valley_ratio: ratio,
        peak_time: window.time_of_day(peak_bin),
        valley_time: window.time_of_day(valley_bin),
    })
}

/// Computes per-cluster aggregate series: `out[c][bin]` is the sum of
/// the raw traffic of the cluster's towers. Rows are borrowed, so
/// callers can pass the kept towers' rows without copying them.
pub fn cluster_series<R: AsRef<[f64]>>(
    raw: &[R],
    clustering: &Clustering,
) -> Result<Vec<Vec<f64>>, CoreError> {
    if raw.len() != clustering.labels.len() {
        return Err(CoreError::NotEnoughData {
            what: "raw rows matching labels",
            needed: clustering.labels.len(),
            got: raw.len(),
        });
    }
    let n_bins = raw.first().map(|r| r.as_ref().len()).unwrap_or(0);
    let mut out = vec![vec![0.0; n_bins]; clustering.k];
    for (row, &label) in raw.iter().zip(&clustering.labels) {
        for (acc, v) in out[label].iter_mut().zip(row.as_ref()) {
            *acc += v;
        }
    }
    Ok(out)
}

/// Full §4 statistics for one cluster's aggregate series.
pub fn cluster_time_stats(
    series: &[f64],
    window: &TraceWindow,
) -> Result<ClusterTimeStats, CoreError> {
    let (weekday_profile, weekend_profile) = daily_profiles(series, window)?;
    let wd_total: f64 = weekday_profile.iter().sum();
    let we_total: f64 = weekend_profile.iter().sum();
    let ratio = if we_total > 0.0 {
        wd_total / we_total
    } else {
        f64::INFINITY
    };
    let weekday = peak_valley(&weekday_profile, window)?;
    let weekend = peak_valley(&weekend_profile, window)?;
    Ok(ClusterTimeStats {
        weekday_profile,
        weekend_profile,
        weekday_weekend_ratio: ratio,
        weekday,
        weekend,
    })
}

/// The two rush-hour peaks of a transport-like profile: argmax over
/// the morning half (04:00–14:00) and the evening half (14:00–24:00).
pub fn double_peaks(profile: &[f64], window: &TraceWindow) -> Option<((u32, u32), (u32, u32))> {
    let per_day = profile.len();
    if per_day == 0 {
        return None;
    }
    let bin_of_hour =
        |h: f64| -> usize { ((h * 3_600.0 / window.bin_secs as f64) as usize).min(per_day - 1) };
    let morning = bin_of_hour(4.0)..bin_of_hour(14.0);
    let evening = bin_of_hour(14.0)..per_day;
    let m = argmax(&profile[morning.clone()])?;
    let e = argmax(&profile[evening.clone()])?;
    Some((
        window.time_of_day(morning.start + m.0),
        window.time_of_day(evening.start + e.0),
    ))
}

/// Circular lag (hours, in `[-12, 12)`) from time `a` to time `b`
/// (positive: `b` happens later in the day).
pub fn lag_hours(a: (u32, u32), b: (u32, u32)) -> f64 {
    let ah = a.0 as f64 + a.1 as f64 / 60.0;
    let bh = b.0 as f64 + b.1 as f64 / 60.0;
    let mut d = (bh - ah).rem_euclid(24.0);
    if d >= 12.0 {
        d -= 24.0;
    }
    d
}

/// Pearson correlation of two profiles after per-profile max
/// normalisation (the Fig 11 "comprehensive ≈ average of all"
/// comparison).
pub fn profile_correlation(a: &[f64], b: &[f64]) -> Option<f64> {
    pearson(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use towerlens_city::zone::PoiKind;
    use towerlens_mobility::config::SynthConfig;
    use towerlens_mobility::profiles::pure_mix;
    use towerlens_mobility::synth::tower_vector;
    use towerlens_trace::time::BINS_PER_DAY;

    fn noiseless(kind: PoiKind, window: &TraceWindow) -> Vec<f64> {
        tower_vector(&pure_mix(kind), window, &SynthConfig::noiseless(0), 0)
    }

    #[test]
    fn daily_profiles_split_correctly() {
        let w = TraceWindow::days(14);
        let series = noiseless(PoiKind::Office, &w);
        let (wd, we) = daily_profiles(&series, &w).unwrap();
        assert_eq!(wd.len(), BINS_PER_DAY);
        assert_eq!(we.len(), BINS_PER_DAY);
        // Office: weekdays much busier at 10:30 than weekends.
        let bin_1030 = 63;
        assert!(wd[bin_1030] > 1.4 * we[bin_1030]);
    }

    #[test]
    fn office_ratio_matches_profile_calibration() {
        let w = TraceWindow::days(14);
        let series = noiseless(PoiKind::Office, &w);
        let stats = cluster_time_stats(&series, &w).unwrap();
        assert!(
            (1.55..=2.05).contains(&stats.weekday_weekend_ratio),
            "ratio {}",
            stats.weekday_weekend_ratio
        );
    }

    #[test]
    fn transport_peak_valley_featurestable4() {
        let w = TraceWindow::days(14);
        let series = noiseless(PoiKind::Transport, &w);
        let stats = cluster_time_stats(&series, &w).unwrap();
        assert!(
            stats.weekday.peak_valley_ratio > 80.0,
            "ratio {}",
            stats.weekday.peak_valley_ratio
        );
        // Weekday peak at the morning rush.
        let (h, _) = stats.weekday.peak_time;
        assert!((7..=9).contains(&h), "peak hour {h}");
        // Valley in the small hours.
        let (vh, _) = stats.weekday.valley_time;
        assert!((2..=6).contains(&vh), "valley hour {vh}");
    }

    #[test]
    fn resident_peak_at_2130() {
        let w = TraceWindow::days(14);
        let series = noiseless(PoiKind::Resident, &w);
        let stats = cluster_time_stats(&series, &w).unwrap();
        let (h, m) = stats.weekday.peak_time;
        let hours = h as f64 + m as f64 / 60.0;
        assert!((20.8..=22.2).contains(&hours), "peak {hours}");
    }

    #[test]
    fn transport_double_peaks_found() {
        let w = TraceWindow::days(14);
        let series = noiseless(PoiKind::Transport, &w);
        let (wd, _) = daily_profiles(&series, &w).unwrap();
        let ((mh, _), (eh, _)) = double_peaks(&wd, &w).unwrap();
        assert!((7..=9).contains(&mh), "morning {mh}");
        assert!((17..=19).contains(&eh), "evening {eh}");
    }

    #[test]
    fn lag_arithmetic() {
        assert_eq!(lag_hours((18, 0), (21, 30)), 3.5);
        assert_eq!(lag_hours((23, 0), (1, 0)), 2.0);
        assert_eq!(lag_hours((1, 0), (23, 0)), -2.0);
        assert_eq!(lag_hours((6, 0), (18, 0)), -12.0); // boundary maps to -12
    }

    #[test]
    fn cluster_series_sums_members() {
        let raw = vec![vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
        let clustering = Clustering::from_labels(vec![0, 1, 0]).unwrap();
        let series = cluster_series(&raw, &clustering).unwrap();
        assert_eq!(series[0], vec![101.0, 202.0]);
        assert_eq!(series[1], vec![10.0, 20.0]);
    }

    #[test]
    fn mismatched_lengths_error() {
        let clustering = Clustering::from_labels(vec![0, 0]).unwrap();
        assert!(cluster_series(&[vec![1.0]], &clustering).is_err());
        let w = TraceWindow::days(1);
        assert!(daily_profiles(&[1.0; 10], &w).is_err());
    }

    #[test]
    fn comprehensive_mixture_correlates_with_average() {
        let w = TraceWindow::days(14);
        let mix = [0.25, 0.25, 0.25, 0.25];
        let comp = tower_vector(&mix, &w, &SynthConfig::noiseless(0), 0);
        // "Average of all towers" ≈ equal-weight sum of pure series.
        let sum: Vec<f64> = (0..w.n_bins)
            .map(|b| {
                PoiKind::ALL
                    .iter()
                    .map(|&k| noiseless(k, &w)[b])
                    .sum::<f64>()
            })
            .collect();
        let r = profile_correlation(&comp, &sum).unwrap();
        assert!(r > 0.99, "correlation {r}");
    }
}
