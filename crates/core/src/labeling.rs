//! Geographic context of traffic patterns (§3.3).
//!
//! Given the discovered clusters and the city's POI layer, this module
//!
//! 1. computes each cluster's POI profile: min-max normalise each POI
//!    type across towers, then average per cluster (Table 3 / Fig 9);
//! 2. assigns urban-function labels: the four *pure* labels go to the
//!    clusters where their normalised POI share is most dominant
//!    (greedy best-match, one label per cluster); remaining clusters
//!    are labelled *comprehensive* — mirroring how the paper labels
//!    the cluster with no dominant POI type;
//! 3. finds each cluster's highest-tower-density point and the POI
//!    counts within 200 m of it (Fig 7 / Table 2);
//! 4. scores the labelling against the city's ground truth (the
//!    synthetic equivalent of the paper's Fig 8 case-study check).

use towerlens_city::city::City;
use towerlens_city::density::DensityGrid;
use towerlens_city::geo::GeoPoint;
use towerlens_city::poi::{PoiIndex, QueryWork};
use towerlens_city::zone::{PoiKind, RegionKind};
use towerlens_cluster::dendrogram::Clustering;
use towerlens_dsp::normalize::minmax;
use towerlens_obs::LazyCounter;

use crate::error::CoreError;

/// POI query radius the paper uses (metres).
pub const POI_RADIUS_M: f64 = 200.0;

/// Latitude rows the labelling's POI queries searched.
static ROWS_PROBED: LazyCounter = LazyCounter::new("core.label.rows_probed");
/// POIs those rows' longitude runs yielded, each decided once.
static POI_CANDIDATES: LazyCounter = LazyCounter::new("core.label.poi_candidates");
/// Candidates the planar pre-test left to the haversine.
static HAVERSINE_CALLS: LazyCounter = LazyCounter::new("core.label.haversine_calls");

fn record(work: &QueryWork) {
    ROWS_PROBED.add(work.rows_probed);
    POI_CANDIDATES.add(work.candidates);
    HAVERSINE_CALLS.add(work.haversine_calls);
}

/// The labelling result.
#[derive(Debug, Clone)]
pub struct GeoLabels {
    /// Per-cluster assigned region kind.
    pub labels: Vec<RegionKind>,
    /// Per-cluster averaged min-max-normalised POI profile
    /// (Table 3): `profiles[cluster][poi kind]`.
    pub poi_profiles: Vec<[f64; 4]>,
    /// Per-cluster highest-density point (Fig 7's A–E).
    pub hotspots: Vec<GeoPoint>,
    /// POI counts within 200 m of each hotspot (Table 2).
    pub hotspot_poi: Vec<[usize; 4]>,
    /// POI counts within 200 m of each analysed tower, in kept-vector
    /// order: the corpus the §5.3 NTF-IDF validation is fitted on.
    pub tower_poi: Vec<[usize; 4]>,
    /// Fraction of towers whose assigned cluster label matches the
    /// ground-truth kind of their zone (the synthetic Fig 8 check).
    pub ground_truth_agreement: f64,
}

/// Labels clusters with urban functional regions.
///
/// `kept_ids[i]` maps vector `i` (and `clustering.labels[i]`) back to
/// a tower id in `city`. The per-tower POI queries fan out over up to
/// `threads` workers (`0` = available parallelism); the result and the
/// `core.label.*` work counters are identical for every thread count.
///
/// # Errors
/// [`CoreError::NotEnoughData`] if the clustering is empty or ids are
/// inconsistent.
pub fn label_clusters(
    city: &City,
    clustering: &Clustering,
    kept_ids: &[usize],
    threads: usize,
) -> Result<GeoLabels, CoreError> {
    let positions: Vec<GeoPoint> = city.towers().iter().map(|t| t.position).collect();
    let mut labels = label_clusters_parts(
        &positions,
        city.bounds(),
        city.pois(),
        clustering,
        kept_ids,
        threads,
    )?;
    // Ground-truth agreement is only computable against a synthetic
    // city (real deployments have no oracle).
    let mut agree = 0usize;
    for (i, &label) in clustering.labels.iter().enumerate() {
        if labels.labels[label] == city.towers()[kept_ids[i]].kind_truth {
            agree += 1;
        }
    }
    labels.ground_truth_agreement = agree as f64 / kept_ids.len() as f64;
    Ok(labels)
}

/// City-independent labelling: works from tower positions, a bounding
/// box, and a POI index — the form real (non-synthetic) deployments
/// use. [`GeoLabels::ground_truth_agreement`] is 0 here (no oracle).
///
/// # Errors
/// As for [`label_clusters`].
pub fn label_clusters_parts(
    positions: &[GeoPoint],
    bounds: &towerlens_city::geo::BoundingBox,
    pois: &PoiIndex,
    clustering: &Clustering,
    kept_ids: &[usize],
    threads: usize,
) -> Result<GeoLabels, CoreError> {
    if clustering.labels.len() != kept_ids.len() || kept_ids.is_empty() {
        return Err(CoreError::NotEnoughData {
            what: "labelled towers",
            needed: 1,
            got: kept_ids.len().min(clustering.labels.len()),
        });
    }
    let k = clustering.k;

    // --- Table 3: min-max normalised POI averaged per cluster -----
    // The dominant cost here: one radius query per kept tower. Each
    // query is independent and lands in its own slot, and each worker
    // tallies its queries' work in a private shard, so fanning out is
    // identical to the serial scan.
    let (tower_poi, tally) =
        towerlens_par::par_map_indexed_tally(kept_ids, threads, 3, |_, &id, shard| {
            let mut work = QueryWork::default();
            let counts = positions.get(id).map_or([0; 4], |p| {
                pois.counts_within_tallied(p, POI_RADIUS_M, &mut work)
            });
            shard[0] += work.rows_probed;
            shard[1] += work.candidates;
            shard[2] += work.haversine_calls;
            counts
        });
    record(&QueryWork {
        rows_probed: tally[0],
        candidates: tally[1],
        haversine_calls: tally[2],
    });
    let mut profiles = vec![[0.0f64; 4]; k];
    let sizes = clustering.sizes();
    for poi in 0..4 {
        let column: Vec<f64> = tower_poi.iter().map(|c| c[poi] as f64).collect();
        let normalised = minmax(&column)?;
        for (i, &label) in clustering.labels.iter().enumerate() {
            profiles[label][poi] += normalised[i];
        }
    }
    for (profile, &size) in profiles.iter_mut().zip(&sizes) {
        if size > 0 {
            for v in profile.iter_mut() {
                *v /= size as f64;
            }
        }
    }

    // --- label assignment ------------------------------------------
    let labels = assign_labels(&profiles);

    // --- Fig 7 / Table 2: hotspots ----------------------------------
    let mut work = QueryWork::default();
    let mut hotspots = Vec::with_capacity(k);
    let mut hotspot_poi = Vec::with_capacity(k);
    for c in 0..k {
        let mut grid = DensityGrid::new(*bounds, 48, 48);
        for (i, &label) in clustering.labels.iter().enumerate() {
            if label == c {
                if let Some(p) = positions.get(kept_ids[i]) {
                    grid.add(p, 1.0);
                }
            }
        }
        let (col, row, _) = grid.argmax();
        let point = grid.cell_center(col, row);
        hotspots.push(point);
        hotspot_poi.push(pois.counts_within_tallied(&point, POI_RADIUS_M, &mut work));
    }
    record(&work);

    Ok(GeoLabels {
        labels,
        poi_profiles: profiles,
        hotspots,
        hotspot_poi,
        tower_poi,
        ground_truth_agreement: 0.0,
    })
}

/// Greedy label assignment: repeatedly take the (cluster, pure-kind)
/// pair with the highest *dominance* — the kind's share of the
/// cluster's normalised POI profile — among unassigned clusters and
/// unused kinds; leftover clusters become comprehensive.
fn assign_labels(profiles: &[[f64; 4]]) -> Vec<RegionKind> {
    let k = profiles.len();
    let mut labels = vec![RegionKind::Comprehensive; k];
    let mut cluster_used = vec![false; k];
    let mut kind_used = [false; 4];
    // Dominance matrix.
    let share = |c: usize, p: usize| -> f64 {
        let total: f64 = profiles[c].iter().sum();
        if total <= 0.0 {
            0.0
        } else {
            profiles[c][p] / total
        }
    };
    for _ in 0..k.min(4) {
        let mut best: Option<(usize, usize, f64)> = None;
        for (c, &c_used) in cluster_used.iter().enumerate() {
            if c_used {
                continue;
            }
            for (p, &p_used) in kind_used.iter().enumerate() {
                if p_used {
                    continue;
                }
                let s = share(c, p);
                match best {
                    Some((_, _, bs)) if bs >= s => {}
                    _ => best = Some((c, p, s)),
                }
            }
        }
        let Some((c, p, _)) = best else { break };
        cluster_used[c] = true;
        kind_used[p] = true;
        labels[c] = match PoiKind::ALL[p] {
            PoiKind::Resident => RegionKind::Resident,
            PoiKind::Transport => RegionKind::Transport,
            PoiKind::Office => RegionKind::Office,
            PoiKind::Entertainment => RegionKind::Entertainment,
        };
    }
    labels
}

/// Finds the cluster index carrying a given label, if any.
pub fn cluster_of_kind(labels: &[RegionKind], kind: RegionKind) -> Option<usize> {
    labels.iter().position(|&l| l == kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_labels_diagonal_dominance() {
        // Profiles with an obvious diagonal plus one flat cluster.
        let profiles = vec![
            [0.9, 0.1, 0.1, 0.1], // resident-dominant
            [0.1, 0.8, 0.1, 0.1], // transport-dominant
            [0.1, 0.1, 0.9, 0.2], // office-dominant
            [0.1, 0.1, 0.2, 0.9], // entertainment-dominant
            [0.3, 0.3, 0.3, 0.3], // flat
        ];
        let labels = assign_labels(&profiles);
        assert_eq!(labels[0], RegionKind::Resident);
        assert_eq!(labels[1], RegionKind::Transport);
        assert_eq!(labels[2], RegionKind::Office);
        assert_eq!(labels[3], RegionKind::Entertainment);
        assert_eq!(labels[4], RegionKind::Comprehensive);
    }

    #[test]
    fn assign_labels_resolves_contention_by_dominance() {
        // Two clusters both office-heavy; the more dominant one wins,
        // the other must take its second-best available kind.
        let profiles = vec![
            [0.05, 0.05, 0.95, 0.05], // strongly office
            [0.30, 0.05, 0.60, 0.05], // office-ish but mixed
        ];
        let labels = assign_labels(&profiles);
        assert_eq!(labels[0], RegionKind::Office);
        assert_eq!(labels[1], RegionKind::Resident);
    }

    #[test]
    fn fewer_clusters_than_kinds() {
        let profiles = vec![[0.9, 0.0, 0.1, 0.0], [0.0, 0.0, 0.9, 0.1]];
        let labels = assign_labels(&profiles);
        assert_eq!(labels.len(), 2);
        assert!(labels.contains(&RegionKind::Resident));
        assert!(labels.contains(&RegionKind::Office));
    }

    #[test]
    fn cluster_of_kind_lookup() {
        let labels = vec![RegionKind::Office, RegionKind::Resident];
        assert_eq!(cluster_of_kind(&labels, RegionKind::Resident), Some(1));
        assert_eq!(cluster_of_kind(&labels, RegionKind::Transport), None);
    }

    #[test]
    fn empty_input_is_error() {
        let city = towerlens_city::generate::generate(&towerlens_city::config::CityConfig::tiny(1))
            .unwrap();
        let clustering = Clustering::from_labels(vec![0]).unwrap();
        assert!(label_clusters(&city, &clustering, &[], 1).is_err());
    }
}
