//! Points of interest and a flat sorted-cell spatial index.
//!
//! The paper "measures the number of four main types of POI … within
//! 200m of each cell tower" for thousands of towers; a linear scan per
//! tower would be O(towers × POIs). [`PoiIndex`] answers the radius
//! query from a few contiguous runs of flat arrays, and its counts equal
//! those of a haversine scan over every POI (`GeoPoint::distance_m ≤ r`)
//! exactly, on any input.
//!
//! # Layout
//!
//! POIs fall into latitude rows of a fixed pitch, `ROW_DEG` (0.0005°,
//! about 56 m): row `k` holds the POIs with `⌊lat / ROW_DEG⌋ = k`.
//! Within a row they are sorted by longitude. Their coordinates and
//! kinds are stored struct-of-arrays (`lon`, `lat`, `kind`), row after
//! row, in a compressed-sparse-row layout: row `k`'s run is
//! `row_start[k − first_row] .. row_start[k − first_row + 1]`. A query
//! visits the rows its latitude window covers and binary-searches one
//! contiguous longitude run in each. [`PoiIndex::pois`] keeps the
//! insertion order for callers that persist the layer.
//!
//! POIs outside the coordinate domain (finite, `|lat| ≤ 90`,
//! `|lon| ≤ 180`) are set aside and tested with the haversine on every
//! query, and a centre outside it tests every POI the same way. On real
//! data neither happens; both keep the counts exact on any input.
//!
//! # The query window
//!
//! Write R for [`EARTH_RADIUS_M`], (λ, φ) for the centre, (λ′, φ′) for a
//! POI, u = φ′ − φ and v = λ′ − λ in radians. With both latitudes in
//! the domain the haversine's `a` is at least `sin²(u/2)` and at least
//! `cos φ·cos φ′·sin²(v/2)`. So a POI within r has |u| ≤ r/R and
//! `|sin(v/2)| ≤ sin(r/2R) / √(cos φ · c_lo)`, where c_lo is the
//! smallest cosine over the window's latitudes. The window takes both
//! bounds, widened by the slack ρ below (relative) and 10⁻⁹°
//! (absolute) against rounding. It is the full longitude range where
//! the second bound degenerates: `c_lo < 0.01` (within about 0.6° of a
//! pole) or an arcsine argument above ½. A window that crosses ±180°
//! continues on the other side of the antimeridian.
//!
//! # The planar pre-test and its margin
//!
//! Each candidate in the window's main run is first decided by the
//! equirectangular distance `P = R²·(u² + cos²φ·v²)` against the band
//! `r²·(1 ± m)`: `P ≤ r²(1 − m)` counts it, `P > r²(1 + m)` rejects it,
//! and only a candidate inside the band calls the haversine. Let U and
//! V bound |u| and |v| over the candidates (U includes one row pitch,
//! since whole rows are searched), W = max(U, V), θ the true central
//! angle and `Q = u² + cos φ·cos φ′·v²`.
//!
//! 1. *Haversine against Q.* `4·hav x = (2 sin(x/2))²` lies in
//!    `[x²(1 − x²/12), x²]`, and `4·hav θ = 4·hav u + cos φ cos φ′·4·hav v`
//!    with `cos φ cos φ′ ≥ 0`. For W ≤ 0.05 (so θ ≤ 2W) this gives
//!    `θ²/Q ∈ [1 − W²/12, 1 + W²/2]` — the small-angle terms.
//! 2. *Q against P.* Taylor gives `|cos φ′ − cos φ| ≤ |sin φ|·|u| + u²/2`,
//!    and `cos φ·v² ≤ (P/R²) / cos φ`, so `|Q − P/R²| ≤ δ·P/R²` with
//!    `δ = |tan φ|·U + U²/(2 cos φ)`. The `|tan φ|·|Δφ|` term is the
//!    cosine changing between the centre's latitude and the POI's.
//! 3. *Rounding.* Both formulas and the two thresholds run in `f64`
//!    with libm functions accurate to a few ulps. Each relative error
//!    is a few units of 2⁻⁵³, amplified at most 1/c_lo ≤ 100 times
//!    through a cosine: all of them together stay under 10⁻¹². The
//!    slack ρ = 10⁻⁹ covers their sum.
//!
//! So the computed haversine d and the computed P satisfy
//! `d²/P ∈ [1 − δ − W²/12 − ρ/2, 1 + δ + W² + ρ/2]`, and the margin
//! `m(φ, r) = 2δ + 2W² + ρ` covers both ends (the lower one needs
//! `m ≥ 2(1 − d²/P)`, which holds while δ ≤ ¼). Every planar decision
//! therefore agrees with the haversine's. Where the bound degenerates —
//! `c_lo < 0.01`, `W > 0.05` or `m > 0.1` — every candidate calls the
//! haversine, as does every candidate on the far side of the
//! antimeridian: there the haversine's Δλ is near ±360°, and its
//! rounding there is absolute, not relative. At the paper's 200 m at
//! 31° N, m ≈ 5·10⁻⁵: the band is about a centimetre wide.

use serde::{Deserialize, Serialize};

use crate::geo::{GeoPoint, EARTH_RADIUS_M};
use crate::zone::PoiKind;

/// Latitude pitch of the index rows, in degrees (about 56 m).
const ROW_DEG: f64 = 0.0005;

/// ρ: relative slack on the window and the margin, covering every
/// rounding error of both distance formulas many times over.
const RHO: f64 = 1e-9;
/// Absolute slack on the window's bounds, in degrees (about 0.1 mm).
const PAD_DEG: f64 = 1e-9;
/// Below this cosine anywhere in the window, the longitude window is
/// the full range and every candidate calls the haversine.
const COS_MIN: f64 = 0.01;
/// Largest window half-extent, in radians, the margin is derived for.
const W_MAX: f64 = 0.05;
/// Largest margin the planar test is used with.
const M_MAX: f64 = 0.1;

const RAD_PER_DEG: f64 = std::f64::consts::PI / 180.0;

/// A single point of interest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Poi {
    /// Location.
    pub position: GeoPoint,
    /// Type.
    pub kind: PoiKind,
    /// Id of the zone that spawned it.
    pub zone_id: usize,
}

/// The work one or more radius queries did, accumulated by the caller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryWork {
    /// Latitude rows whose longitude runs were searched.
    pub rows_probed: u64,
    /// POIs the searched runs yielded, each decided once.
    pub candidates: u64,
    /// Candidates decided by the haversine rather than the planar test.
    pub haversine_calls: u64,
}

/// A flat sorted-cell spatial index over POIs supporting exact radius
/// counting (see the module docs for the layout and the margin).
#[derive(Debug, Clone)]
pub struct PoiIndex {
    /// Every POI, in insertion order.
    pois: Vec<Poi>,
    /// Row key of the first row in `row_start`.
    first_row: i64,
    /// CSR offsets into the sorted arrays, one more than the rows.
    row_start: Vec<usize>,
    /// Longitudes, sorted within each row.
    lon: Vec<f64>,
    /// Latitudes, in the same order.
    lat: Vec<f64>,
    /// [`PoiKind::index`] of each, in the same order.
    kind: Vec<u8>,
    /// Indices into `pois` of the POIs outside the coordinate domain.
    strays: Vec<usize>,
}

/// The row key of a latitude.
fn row_of(lat: f64) -> i64 {
    (lat / ROW_DEG).floor() as i64
}

/// Finite, `|lat| ≤ 90` and `|lon| ≤ 180`.
fn in_domain(p: &GeoPoint) -> bool {
    p.lat.abs() <= 90.0 && p.lon.abs() <= 180.0
}

/// What one query searches, and how it decides candidates.
struct Plan {
    /// Latitude window, degrees.
    lat_lo: f64,
    lat_hi: f64,
    /// Longitude runs per row; `None` is the full range.
    lon: Option<LonRuns>,
    /// The planar pre-test for the main run, where the margin holds.
    planar: Option<Planar>,
}

/// Inclusive longitude bounds, degrees.
struct LonRuns {
    main: (f64, f64),
    /// The part of the window past ±180°.
    wrapped: Option<(f64, f64)>,
}

struct Planar {
    /// Metres per degree of longitude and of latitude at the centre.
    kx: f64,
    ky: f64,
    /// `r²(1 − m)` and `r²(1 + m)`.
    inside: f64,
    outside: f64,
}

impl Plan {
    fn new(center: &GeoPoint, radius_m: f64) -> Plan {
        if !in_domain(center) {
            return Plan {
                lat_lo: f64::NEG_INFINITY,
                lat_hi: f64::INFINITY,
                lon: None,
                planar: None,
            };
        }
        let ulat = (radius_m / EARTH_RADIUS_M).to_degrees() * (1.0 + RHO) + PAD_DEG;
        let mut plan = Plan {
            lat_lo: center.lat - ulat,
            lat_hi: center.lat + ulat,
            lon: None,
            planar: None,
        };
        // Candidates come from whole rows: one pitch past the window.
        let u_deg = ulat + ROW_DEG + PAD_DEG;
        let lat_max = center.lat.abs() + u_deg;
        let c_lo = if lat_max < 90.0 {
            (lat_max * RAD_PER_DEG).cos()
        } else {
            0.0
        };
        if c_lo < COS_MIN {
            return plan;
        }
        let cos_phi = (center.lat * RAD_PER_DEG).cos();
        let s = (radius_m * (1.0 + RHO) / (2.0 * EARTH_RADIUS_M)).sin() / (cos_phi * c_lo).sqrt();
        if s > 0.5 {
            return plan;
        }
        let v_deg = (2.0 * s.asin()).to_degrees() * (1.0 + RHO) + PAD_DEG;
        let (west, east) = (center.lon - v_deg, center.lon + v_deg);
        let wrapped = if east > 180.0 {
            Some((-180.0, east - 360.0))
        } else if west < -180.0 {
            Some((west + 360.0, 180.0))
        } else {
            None
        };
        plan.lon = Some(LonRuns {
            main: (west.max(-180.0), east.min(180.0)),
            wrapped,
        });

        let u = u_deg * RAD_PER_DEG;
        let w = u.max((v_deg + PAD_DEG) * RAD_PER_DEG);
        if w > W_MAX {
            return plan;
        }
        let delta = (center.lat * RAD_PER_DEG).tan().abs() * u + u * u / (2.0 * cos_phi);
        let m = 2.0 * delta + 2.0 * w * w + RHO;
        if m > M_MAX {
            return plan;
        }
        let r2 = radius_m * radius_m;
        plan.planar = Some(Planar {
            kx: EARTH_RADIUS_M * RAD_PER_DEG * cos_phi,
            ky: EARTH_RADIUS_M * RAD_PER_DEG,
            inside: r2 * (1.0 - m),
            outside: r2 * (1.0 + m),
        });
        plan
    }
}

impl PoiIndex {
    /// Builds an index over `pois`, keeping them in insertion order.
    pub fn build(pois: Vec<Poi>) -> Self {
        let mut placed: Vec<(i64, usize)> = Vec::with_capacity(pois.len());
        let mut strays = Vec::new();
        for (i, p) in pois.iter().enumerate() {
            if in_domain(&p.position) {
                placed.push((row_of(p.position.lat), i));
            } else {
                strays.push(i);
            }
        }
        let first_row = placed.iter().map(|e| e.0).min().unwrap_or(0);
        let rows = placed
            .iter()
            .map(|e| e.0)
            .max()
            .map_or(0, |last| (last - first_row) as usize + 1);
        let mut row_start = vec![0usize; rows + 1];
        for &(row, _) in &placed {
            row_start[(row - first_row) as usize + 1] += 1;
        }
        for k in 1..row_start.len() {
            row_start[k] += row_start[k - 1];
        }
        // A counting sort into rows, then each row by longitude.
        let mut order = vec![0usize; placed.len()];
        let mut next = row_start.clone();
        for &(row, i) in &placed {
            let slot = &mut next[(row - first_row) as usize];
            order[*slot] = i;
            *slot += 1;
        }
        for k in 0..rows {
            order[row_start[k]..row_start[k + 1]]
                .sort_by(|&a, &b| pois[a].position.lon.total_cmp(&pois[b].position.lon));
        }
        let lon = order.iter().map(|&i| pois[i].position.lon).collect();
        let lat = order.iter().map(|&i| pois[i].position.lat).collect();
        let kind = order.iter().map(|&i| pois[i].kind.index() as u8).collect();
        PoiIndex {
            pois,
            first_row,
            row_start,
            lon,
            lat,
            kind,
            strays,
        }
    }

    /// Total POI count.
    pub fn len(&self) -> usize {
        self.pois.len()
    }

    /// `true` if the index holds no POIs.
    pub fn is_empty(&self) -> bool {
        self.pois.is_empty()
    }

    /// All POIs (insertion order).
    pub fn pois(&self) -> &[Poi] {
        &self.pois
    }

    /// Counts POIs of each kind within `radius_m` of `center`,
    /// returned in canonical [`PoiKind`] order. A radius that is not
    /// positive counts nothing.
    pub fn counts_within(&self, center: &GeoPoint, radius_m: f64) -> [usize; 4] {
        self.counts_within_tallied(center, radius_m, &mut QueryWork::default())
    }

    /// [`PoiIndex::counts_within`], adding the query's work to `work`.
    pub fn counts_within_tallied(
        &self,
        center: &GeoPoint,
        radius_m: f64,
        work: &mut QueryWork,
    ) -> [usize; 4] {
        let mut counts = [0usize; 4];
        if radius_m.is_nan() || radius_m <= 0.0 {
            return counts;
        }
        for &i in &self.strays {
            work.candidates += 1;
            work.haversine_calls += 1;
            let p = &self.pois[i];
            if center.distance_m(&p.position) <= radius_m {
                counts[p.kind.index()] += 1;
            }
        }
        let rows = self.row_start.len() - 1;
        if rows == 0 {
            return counts;
        }
        let plan = Plan::new(center, radius_m);
        let lo = row_of(plan.lat_lo).max(self.first_row);
        let hi = row_of(plan.lat_hi).min(self.first_row + rows as i64 - 1);
        for row in lo..=hi {
            work.rows_probed += 1;
            let k = (row - self.first_row) as usize;
            let (start, end) = (self.row_start[k], self.row_start[k + 1]);
            let Some(runs) = &plan.lon else {
                self.by_haversine(center, radius_m, start..end, &mut counts, work);
                continue;
            };
            let run = self.run(start, end, runs.main);
            match &plan.planar {
                Some(planar) => {
                    self.by_plane(center, radius_m, planar, run, &mut counts, work);
                }
                None => self.by_haversine(center, radius_m, run, &mut counts, work),
            }
            if let Some(wrapped) = runs.wrapped {
                let run = self.run(start, end, wrapped);
                self.by_haversine(center, radius_m, run, &mut counts, work);
            }
        }
        counts
    }

    /// The POIs of one row's run `start..end` with longitude in `[lo, hi]`.
    fn run(&self, start: usize, end: usize, (lo, hi): (f64, f64)) -> std::ops::Range<usize> {
        let lons = &self.lon[start..end];
        start + lons.partition_point(|&x| x < lo)..start + lons.partition_point(|&x| x <= hi)
    }

    /// Decides every candidate of `run` by the haversine.
    fn by_haversine(
        &self,
        center: &GeoPoint,
        radius_m: f64,
        run: std::ops::Range<usize>,
        counts: &mut [usize; 4],
        work: &mut QueryWork,
    ) {
        work.candidates += run.len() as u64;
        work.haversine_calls += run.len() as u64;
        for i in run {
            if center.distance_m(&GeoPoint::new(self.lon[i], self.lat[i])) <= radius_m {
                counts[usize::from(self.kind[i])] += 1;
            }
        }
    }

    /// Decides the candidates of `run` by the planar test, calling the
    /// haversine only inside the margin's band.
    fn by_plane(
        &self,
        center: &GeoPoint,
        radius_m: f64,
        planar: &Planar,
        run: std::ops::Range<usize>,
        counts: &mut [usize; 4],
        work: &mut QueryWork,
    ) {
        work.candidates += run.len() as u64;
        for i in run {
            let dx = (self.lon[i] - center.lon) * planar.kx;
            let dy = (self.lat[i] - center.lat) * planar.ky;
            let d2 = dx * dx + dy * dy;
            let inside = if d2 <= planar.inside {
                true
            } else if d2 <= planar.outside {
                work.haversine_calls += 1;
                center.distance_m(&GeoPoint::new(self.lon[i], self.lat[i])) <= radius_m
            } else {
                false
            };
            if inside {
                counts[usize::from(self.kind[i])] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poi(lon: f64, lat: f64, kind: PoiKind) -> Poi {
        Poi {
            position: GeoPoint::new(lon, lat),
            kind,
            zone_id: 0,
        }
    }

    /// The reference: a haversine over every POI.
    fn brute(pois: &[Poi], center: &GeoPoint, radius_m: f64) -> [usize; 4] {
        let mut counts = [0usize; 4];
        if radius_m > 0.0 {
            for p in pois {
                if center.distance_m(&p.position) <= radius_m {
                    counts[p.kind.index()] += 1;
                }
            }
        }
        counts
    }

    #[test]
    fn counts_respect_radius() {
        let center = GeoPoint::new(121.47, 31.23);
        let pois = vec![
            Poi {
                position: center.offset_m(100.0, 0.0),
                kind: PoiKind::Office,
                zone_id: 0,
            },
            Poi {
                position: center.offset_m(0.0, 150.0),
                kind: PoiKind::Office,
                zone_id: 0,
            },
            Poi {
                position: center.offset_m(0.0, 500.0),
                kind: PoiKind::Office,
                zone_id: 0,
            },
            Poi {
                position: center.offset_m(-50.0, 50.0),
                kind: PoiKind::Resident,
                zone_id: 0,
            },
        ];
        let idx = PoiIndex::build(pois);
        let counts = idx.counts_within(&center, 200.0);
        assert_eq!(counts[PoiKind::Office.index()], 2);
        assert_eq!(counts[PoiKind::Resident.index()], 1);
        assert_eq!(counts[PoiKind::Transport.index()], 0);
    }

    #[test]
    fn index_matches_linear_scan() {
        // Pseudo-random cloud; grid query must equal brute force.
        let center = GeoPoint::new(121.5, 31.2);
        let mut pois = Vec::new();
        for i in 0..500u64 {
            let dx = (((i * 48271) % 2001) as f64 - 1000.0) * 2.0;
            let dy = (((i * 16807) % 2001) as f64 - 1000.0) * 2.0;
            let kind = PoiKind::ALL[(i % 4) as usize];
            pois.push(Poi {
                position: center.offset_m(dx, dy),
                kind,
                zone_id: 0,
            });
        }
        let idx = PoiIndex::build(pois.clone());
        for radius in [100.0, 200.0, 750.0, 2_000.0] {
            assert_eq!(
                idx.counts_within(&center, radius),
                brute(&pois, &center, radius),
                "radius {radius}"
            );
        }
    }

    #[test]
    fn empty_index_and_zero_radius() {
        let idx = PoiIndex::build(Vec::new());
        assert!(idx.is_empty());
        assert_eq!(
            idx.counts_within(&GeoPoint::new(0.0, 0.0), 200.0),
            [0, 0, 0, 0]
        );
        let idx = PoiIndex::build(vec![poi(0.0, 0.0, PoiKind::Office)]);
        for radius in [0.0, -1.0, f64::NAN] {
            assert_eq!(
                idx.counts_within(&GeoPoint::new(0.0, 0.0), radius),
                [0, 0, 0, 0]
            );
        }
    }

    #[test]
    fn boundary_pois_counted_inclusively() {
        let center = GeoPoint::new(121.47, 31.23);
        let p = center.offset_m(0.0, 200.0);
        let idx = PoiIndex::build(vec![poi(p.lon, p.lat, PoiKind::Transport)]);
        // offset_m → haversine roundtrip error is sub-metre.
        let counts = idx.counts_within(&center, 201.0);
        assert_eq!(counts[PoiKind::Transport.index()], 1);
        // At exactly the haversine distance the POI is in; one ulp
        // less, it is out.
        let d = center.distance_m(&p);
        assert_eq!(idx.counts_within(&center, d)[1], 1);
        assert_eq!(idx.counts_within(&center, d.next_down())[1], 0);
    }

    #[test]
    fn pois_near_a_pole_are_counted_over_the_full_longitude_range() {
        // 150 m east of (10°, 89°) is 0.077° of longitude away: a window
        // that clamps cos φ at 0.1 stops at 0.025° and misses it.
        let center = GeoPoint::new(10.0, 89.0);
        let east = center.offset_m(150.0, 0.0);
        let pois = vec![poi(east.lon, east.lat, PoiKind::Office)];
        let idx = PoiIndex::build(pois.clone());
        assert_eq!(brute(&pois, &center, 200.0), [0, 0, 1, 0]);
        assert_eq!(idx.counts_within(&center, 200.0), [0, 0, 1, 0]);

        // 111 m from the pole: one POI 167 m away through it, one
        // 157 m away a quarter turn round it, one 1 km south.
        let center = GeoPoint::new(10.0, 89.999);
        let pois = vec![
            poi(-170.0, 89.9995, PoiKind::Resident),
            poi(100.0, 89.999, PoiKind::Transport),
            poi(10.0, 89.99, PoiKind::Entertainment),
        ];
        let idx = PoiIndex::build(pois.clone());
        assert_eq!(brute(&pois, &center, 200.0), [1, 1, 0, 0]);
        let mut work = QueryWork::default();
        assert_eq!(
            idx.counts_within_tallied(&center, 200.0, &mut work),
            [1, 1, 0, 0]
        );
        // The bound degenerates here: every candidate is a haversine.
        assert_eq!(work.haversine_calls, work.candidates);
        assert_eq!(work.candidates, 2);
    }

    #[test]
    fn pois_across_the_antimeridian_are_counted() {
        // 150 m apart across ±180°: a window that does not wrap sees
        // neither from the other.
        let west = GeoPoint::new(179.9995, -16.5);
        let east = west.offset_m(150.0, 0.0);
        let east = GeoPoint::new(east.lon - 360.0, east.lat);
        assert!(east.lon < -179.99);
        let pois = vec![
            poi(west.lon, west.lat, PoiKind::Transport),
            poi(east.lon, east.lat, PoiKind::Entertainment),
        ];
        let idx = PoiIndex::build(pois.clone());
        for center in [west, east] {
            let expected = brute(&pois, &center, 200.0);
            assert_eq!(expected, [0, 1, 0, 1]);
            assert_eq!(idx.counts_within(&center, 200.0), expected);
        }
    }

    #[test]
    fn pois_outside_the_domain_are_tested_on_every_query() {
        let center = GeoPoint::new(0.0, 89.9999);
        let pois = vec![
            // Latitude past the pole: the haversine still finds it near.
            poi(180.0, 90.0001, PoiKind::Office),
            poi(f64::NAN, 0.0, PoiKind::Office),
            poi(0.0, f64::INFINITY, PoiKind::Office),
            poi(540.0, 89.9999, PoiKind::Resident),
            poi(0.0, 89.9999, PoiKind::Transport),
        ];
        let idx = PoiIndex::build(pois.clone());
        for radius in [1.0, 50.0, 200.0, 1e7, f64::INFINITY] {
            assert_eq!(
                idx.counts_within(&center, radius),
                brute(&pois, &center, radius),
                "radius {radius}"
            );
        }
        // A centre outside the domain scans everything.
        let odd = GeoPoint::new(360.0, 89.9999);
        assert_eq!(idx.counts_within(&odd, 50.0), brute(&pois, &odd, 50.0));
    }

    #[test]
    fn pois_keep_insertion_order() {
        let pois: Vec<Poi> = (0..50)
            .map(|i| {
                poi(
                    121.0 + (i * 37 % 50) as f64 * 1e-4,
                    31.0,
                    PoiKind::ALL[i % 4],
                )
            })
            .collect();
        let idx = PoiIndex::build(pois.clone());
        assert_eq!(idx.len(), 50);
        for (a, b) in idx.pois().iter().zip(&pois) {
            assert_eq!(a.position, b.position);
            assert_eq!(a.kind, b.kind);
        }
    }

    #[test]
    fn planar_test_spares_the_haversine_away_from_the_boundary() {
        let center = GeoPoint::new(121.47, 31.23);
        let pois: Vec<Poi> = (0..400)
            .map(|i| {
                let p = center.offset_m(
                    (i % 20) as f64 * 30.0 - 300.0,
                    (i / 20) as f64 * 30.0 - 300.0,
                );
                poi(p.lon, p.lat, PoiKind::Office)
            })
            .collect();
        let idx = PoiIndex::build(pois.clone());
        let mut work = QueryWork::default();
        let counts = idx.counts_within_tallied(&center, 200.0, &mut work);
        assert_eq!(counts, brute(&pois, &center, 200.0));
        assert!(work.rows_probed >= 7, "{work:?}");
        assert!(work.candidates >= counts[2] as u64, "{work:?}");
        assert_eq!(work.haversine_calls, 0, "{work:?}");
        // Work accumulates across queries.
        idx.counts_within_tallied(&center, 200.0, &mut work);
        assert_eq!(work.haversine_calls, 0);
        assert!(work.candidates >= 2 * counts[2] as u64);
    }
}
