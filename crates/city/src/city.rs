//! The assembled synthetic city and its query API.

use serde::{Deserialize, Serialize};

use crate::error::CityError;
use crate::geo::{BoundingBox, GeoPoint, EARTH_RADIUS_M};
use crate::poi::PoiIndex;
use crate::zone::{RegionKind, Zone};

/// ρ: the relative slack of [`City::function_mix`]'s latitude-gap
/// pre-test (see its docs).
const GAP_SLACK: f64 = 1e-9;

/// Whether the latitude-gap bound holds at `p`: finite, |φ| ≤ 90°.
fn in_domain(p: &GeoPoint) -> bool {
    p.lon.is_finite() && p.lat.abs() <= 90.0
}

/// A cellular tower.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tower {
    /// Tower id (index into the city's tower list; doubles as the
    /// `cell_id` of traffic logs).
    pub id: usize,
    /// Geographic position.
    pub position: GeoPoint,
    /// Free-text address, `BLK-i-j <street>` convention — what the
    /// synthetic geocoder resolves back to coordinates.
    pub address: String,
    /// Ground-truth region kind of the zone the tower is seated in.
    /// The analysis pipeline never reads this; it exists to *score*
    /// the pipeline's output.
    pub kind_truth: RegionKind,
    /// Id of the seating zone.
    pub zone_id: usize,
}

/// The synthetic city: zones, POIs (indexed), and towers.
#[derive(Debug, Clone)]
pub struct City {
    pub(crate) zones: Vec<Zone>,
    pub(crate) towers: Vec<Tower>,
    pub(crate) poi_index: PoiIndex,
    pub(crate) bounds: BoundingBox,
    pub(crate) center: GeoPoint,
    pub(crate) comprehensive_blend: [f64; 4],
}

impl City {
    /// Reassembles a city from its parts — the inverse of the
    /// accessors, used by checkpoint codecs that persist a generated
    /// city and reload it bit-identically. `bounds` is recomputed from
    /// towers and zones (same rule as generation) so a caller cannot
    /// introduce an inconsistent box.
    pub fn from_parts(
        zones: Vec<Zone>,
        towers: Vec<Tower>,
        poi_index: PoiIndex,
        center: GeoPoint,
        comprehensive_blend: [f64; 4],
    ) -> Self {
        let mut bounds = BoundingBox::empty();
        for t in &towers {
            bounds.include(&t.position);
        }
        for z in &zones {
            bounds.include(&z.center);
        }
        City {
            zones,
            towers,
            poi_index,
            bounds,
            center,
            comprehensive_blend,
        }
    }

    /// The functional zones.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// The towers, ordered by id.
    pub fn towers(&self) -> &[Tower] {
        &self.towers
    }

    /// The POI index.
    pub fn pois(&self) -> &PoiIndex {
        &self.poi_index
    }

    /// Bounding box containing every tower and zone.
    pub fn bounds(&self) -> &BoundingBox {
        &self.bounds
    }

    /// The configured city centre.
    pub fn center(&self) -> GeoPoint {
        self.center
    }

    /// The configured comprehensive-zone function blend (canonical
    /// [`crate::zone::PoiKind`] order).
    pub fn comprehensive_blend(&self) -> [f64; 4] {
        self.comprehensive_blend
    }

    /// A tower by id.
    ///
    /// # Errors
    /// [`CityError::UnknownTower`] for an out-of-range id.
    pub fn tower(&self, id: usize) -> Result<&Tower, CityError> {
        self.towers.get(id).ok_or(CityError::UnknownTower {
            index: id,
            count: self.towers.len(),
        })
    }

    /// The ground-truth *function mixture* at a point: the share of
    /// each of the four pure urban functions in the neighbourhood,
    /// derived from surrounding zones with a distance kernel.
    ///
    /// This is what drives the synthetic traffic model: a tower deep
    /// inside an office zone gets mixture ≈ (0,0,1,0); a tower in a
    /// comprehensive area gets a genuine blend. The §5.3 convex
    /// decomposition is validated against this vector (via POI
    /// NTF-IDF, as the paper does).
    ///
    /// Kernel: each zone within `3·radius` contributes
    /// `exp(−(d/(0.7·radius))²)` to its kind; comprehensive zones
    /// contribute `1.2·w` split across the configured
    /// [`comprehensive blend`](crate::config::CityConfig::comprehensive_blend)
    /// (slightly more than a pure zone in total — mixed-use areas are
    /// denser). Normalised to sum to 1; an isolated point far from
    /// every zone returns the uniform mixture.
    ///
    /// # The latitude-gap pre-test
    ///
    /// Most zones are far from the point, and a zone is rejected before
    /// its haversine when its latitude gap alone puts it beyond
    /// `3·radius`. Kept zones are summed in zone order as before, so
    /// every mix is bit-identical to a haversine over every zone.
    ///
    /// Write R for [`EARTH_RADIUS_M`], Δφ for the computed
    /// `(φ_point − φ_zone).to_radians()` (the haversine's own) and g =
    /// `min(|Δφ|, 1)`. With both points finite and both latitudes in
    /// [−90°, 90°], the haversine's `a` is at least `sin²(Δφ/2)`: the
    /// cosines of in-domain latitudes round to non-negative values, so
    /// its second term is non-negative and the computed sum is at least
    /// the computed first term. The exact chain
    /// `2R·asin(|sin(Δφ/2)|) = R·|Δφ| ≥ R·g` then holds, since |Δφ| ≤ π.
    /// Its computed version rounds `sin`, the square, `√`, `asin` and the
    /// product, each within 1 ulp, and `asin` is well conditioned below
    /// `sin ½` (hence the cap at 1 radian: condition number 1.09 there),
    /// so the computed distance is at least `R·g·(1 − 10·2⁻⁵³)`. The
    /// pre-test rejects a zone when `fl(fl(R·g)·(1 − ρ)) > 3·radius`
    /// with ρ = 10⁻⁹, which covers those ulps and its own two roundings
    /// many times over; the computed haversine then exceeds `3·radius`
    /// too, and the scan would have skipped the zone. Points or zones
    /// outside the domain (non-finite, or |φ| > 90°) always take the
    /// haversine.
    pub fn function_mix(&self, point: &GeoPoint) -> [f64; 4] {
        let mut mix = [0.0f64; 4];
        let point_in_domain = in_domain(point);
        for zone in &self.zones {
            let dphi = (point.lat - zone.center.lat).to_radians();
            let gap = EARTH_RADIUS_M * dphi.abs().min(1.0) * (1.0 - GAP_SLACK);
            if point_in_domain && in_domain(&zone.center) && gap > 3.0 * zone.radius_m {
                continue;
            }
            let d = zone.center.distance_m(point);
            let scale = (0.7 * zone.radius_m).max(1.0);
            if d > 3.0 * zone.radius_m {
                continue;
            }
            let w = (-(d / scale) * (d / scale)).exp();
            match zone.kind {
                RegionKind::Comprehensive => {
                    for (m, b) in mix.iter_mut().zip(&self.comprehensive_blend) {
                        *m += w * 1.2 * b;
                    }
                }
                kind => {
                    let poi = kind.native_poi().expect("pure kind");
                    mix[poi.index()] += w;
                }
            }
        }
        let total: f64 = mix.iter().sum();
        if total <= 0.0 {
            return [0.25; 4];
        }
        for m in mix.iter_mut() {
            *m /= total;
        }
        mix
    }

    /// Function mixture at a tower.
    ///
    /// # Errors
    /// [`CityError::UnknownTower`].
    pub fn tower_function_mix(&self, tower_id: usize) -> Result<[f64; 4], CityError> {
        let t = self.tower(tower_id)?;
        Ok(self.function_mix(&t.position))
    }

    /// Tower ids whose ground-truth kind matches `kind`.
    pub fn towers_of_kind(&self, kind: RegionKind) -> Vec<usize> {
        self.towers
            .iter()
            .filter(|t| t.kind_truth == kind)
            .map(|t| t.id)
            .collect()
    }

    /// A rectangular case-study window (Fig 8): returns the zones and
    /// towers intersecting a `half_extent_m` square around `center`.
    pub fn window(&self, center: &GeoPoint, half_extent_m: f64) -> (Vec<&Zone>, Vec<&Tower>) {
        let zones = self
            .zones
            .iter()
            .filter(|z| z.center.distance_m(center) <= half_extent_m + z.radius_m)
            .collect();
        let towers = self
            .towers
            .iter()
            .filter(|t| {
                let north_south = t
                    .position
                    .distance_m(&GeoPoint::new(t.position.lon, center.lat));
                let east_west = t
                    .position
                    .distance_m(&GeoPoint::new(center.lon, t.position.lat));
                north_south <= half_extent_m && east_west <= half_extent_m
            })
            .collect();
        (zones, towers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CityConfig;
    use crate::generate::generate;

    fn city() -> City {
        generate(&CityConfig::tiny(7)).unwrap()
    }

    #[test]
    fn tower_lookup_bounds_checked() {
        let c = city();
        assert!(c.tower(0).is_ok());
        assert!(matches!(
            c.tower(9_999),
            Err(CityError::UnknownTower { .. })
        ));
    }

    #[test]
    fn function_mix_is_a_distribution() {
        let c = city();
        for t in c.towers().iter().take(20) {
            let mix = c.function_mix(&t.position);
            let sum: f64 = mix.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(mix.iter().all(|&m| m >= 0.0));
        }
    }

    /// `function_mix` without its pre-test: a haversine to every zone.
    fn function_mix_by_scan(city: &City, point: &GeoPoint) -> [f64; 4] {
        let mut mix = [0.0f64; 4];
        for zone in &city.zones {
            let d = zone.center.distance_m(point);
            let scale = (0.7 * zone.radius_m).max(1.0);
            if d > 3.0 * zone.radius_m {
                continue;
            }
            let w = (-(d / scale) * (d / scale)).exp();
            match zone.kind {
                RegionKind::Comprehensive => {
                    for (m, b) in mix.iter_mut().zip(&city.comprehensive_blend) {
                        *m += w * 1.2 * b;
                    }
                }
                kind => mix[kind.native_poi().unwrap().index()] += w,
            }
        }
        let total: f64 = mix.iter().sum();
        if total <= 0.0 {
            return [0.25; 4];
        }
        mix.map(|m| m / total)
    }

    fn assert_mix_matches_scan(city: &City, point: &GeoPoint) {
        let bits = |mix: [f64; 4]| mix.map(f64::to_bits);
        assert_eq!(
            bits(city.function_mix(point)),
            bits(function_mix_by_scan(city, point)),
            "at {point:?}"
        );
    }

    #[test]
    fn function_mix_matches_the_scan_at_every_paper_tower() {
        let c = generate(&CityConfig::paper_scale(42)).unwrap();
        for t in c.towers() {
            assert_mix_matches_scan(&c, &t.position);
        }
    }

    #[test]
    fn function_mix_matches_the_scan_near_the_poles_and_the_antimeridian() {
        // Zones of every kind straddling ±180°, at the poles and at
        // their edges, with radii from 150 m to 40 km.
        let centers = [
            (179.999, 10.0),
            (-179.999, 10.0),
            (180.0, -45.0),
            (0.0, 90.0),
            (120.0, 89.99),
            (-60.0, -89.995),
            (0.0, -90.0),
            (179.9, 89.9),
        ];
        let zones: Vec<Zone> = centers
            .iter()
            .enumerate()
            .flat_map(|(i, &(lon, lat))| [150.0, 2_000.0, 40_000.0].map(|r| (i, lon, lat, r)))
            .enumerate()
            .map(|(id, (i, lon, lat, radius_m))| Zone {
                id,
                kind: RegionKind::ALL[(id + i) % 5],
                center: GeoPoint::new(lon, lat),
                radius_m,
            })
            .collect();
        let c = City::from_parts(
            zones,
            Vec::new(),
            PoiIndex::build(Vec::new()),
            GeoPoint::new(0.0, 0.0),
            [0.25; 4],
        );
        let mut points = Vec::new();
        for &(lon, lat) in &centers {
            for dlat in [-0.5, -0.05, -0.002, 0.0, 0.001, 0.03, 0.4] {
                for dlon in [-1.0, -0.01, 0.0, 0.002, 0.5, 359.99, -359.99] {
                    points.push(GeoPoint::new(lon + dlon, lat + dlat));
                }
            }
        }
        points.extend(
            [
                (180.0, 90.0),
                (-180.0, -90.0),
                (0.0, 90.000_1),
                (f64::NAN, 10.0),
            ]
            .map(|(lon, lat)| GeoPoint::new(lon, lat)),
        );
        for p in &points {
            assert_mix_matches_scan(&c, p);
        }
        // The zones near a pole reach points across it.
        let mix = c.function_mix(&GeoPoint::new(-60.0, 89.995));
        assert_ne!(mix, [0.25; 4]);
    }

    #[test]
    fn isolated_point_gets_uniform_mix() {
        let c = city();
        let far = GeoPoint::new(100.0, 10.0);
        assert_eq!(c.function_mix(&far), [0.25; 4]);
    }

    #[test]
    fn pure_zone_towers_have_dominant_native_function() {
        let c = city();
        // Office towers: office share should usually dominate.
        let ids = c.towers_of_kind(RegionKind::Office);
        assert!(!ids.is_empty());
        let mut dominant = 0;
        for &id in &ids {
            let mix = c.tower_function_mix(id).unwrap();
            let max_idx = (0..4)
                .max_by(|&a, &b| mix[a].partial_cmp(&mix[b]).unwrap())
                .unwrap();
            if max_idx == 2 {
                dominant += 1;
            }
        }
        assert!(
            dominant * 2 > ids.len(),
            "only {dominant}/{} office towers office-dominant",
            ids.len()
        );
    }

    #[test]
    fn from_parts_reproduces_the_generated_city() {
        let c = city();
        let rebuilt = City::from_parts(
            c.zones().to_vec(),
            c.towers().to_vec(),
            PoiIndex::build(c.pois().pois().to_vec()),
            c.center(),
            c.comprehensive_blend(),
        );
        assert_eq!(rebuilt.bounds().min_lon, c.bounds().min_lon);
        assert_eq!(rebuilt.bounds().max_lat, c.bounds().max_lat);
        assert_eq!(rebuilt.towers().len(), c.towers().len());
        for t in c.towers().iter().take(10) {
            assert_eq!(
                rebuilt.function_mix(&t.position),
                c.function_mix(&t.position)
            );
            assert_eq!(
                rebuilt.poi_index.counts_within(&t.position, 200.0),
                c.poi_index.counts_within(&t.position, 200.0)
            );
        }
    }

    #[test]
    fn window_returns_nearby_entities() {
        let c = city();
        let center = c.center();
        let (zones, towers) = c.window(&center, 4_000.0);
        assert!(!zones.is_empty());
        assert!(!towers.is_empty());
        for t in towers {
            assert!(t.position.distance_m(&center) <= 4_000.0 * 1.5);
        }
    }
}
