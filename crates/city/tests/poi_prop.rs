//! Property tests: [`PoiIndex`] radius counts equal a haversine scan
//! over every POI, exactly.
//!
//! The index decides most candidates with a planar distance against a
//! margin derived per query, so the properties aim where that margin is
//! thinnest or degenerates: clouds at latitudes up to ±89.9°, clouds
//! straddling ±180°, radii from 1 m to 20 km, and queries centred on a
//! POI with the radius set to that POI's haversine distance from the
//! centre and to the neighbouring `f64` values either side.

use proptest::prelude::*;
use towerlens_city::config::CityConfig;
use towerlens_city::generate::generate;
use towerlens_city::geo::{GeoPoint, EARTH_RADIUS_M};
use towerlens_city::poi::{Poi, PoiIndex, QueryWork};
use towerlens_city::zone::PoiKind;

const RADII: [f64; 6] = [1.0, 50.0, 200.0, 750.0, 2_000.0, 20_000.0];

/// The reference: a haversine over every POI (a radius that is not
/// positive counts nothing, as in the index).
fn brute(pois: &[Poi], center: &GeoPoint, radius_m: f64) -> [usize; 4] {
    let mut counts = [0usize; 4];
    if radius_m.is_nan() || radius_m <= 0.0 {
        return counts;
    }
    for p in pois {
        if center.distance_m(&p.position) <= radius_m {
            counts[p.kind.index()] += 1;
        }
    }
    counts
}

/// SplitMix64: a few reproducible uniforms per drawn seed.
struct Mix(u64);

impl Mix {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The point `distance_m` from `from` along `bearing` (radians), on the
/// sphere, with the longitude brought back into [-180°, 180°].
fn destination(from: &GeoPoint, distance_m: f64, bearing: f64) -> GeoPoint {
    let (phi, lambda) = (from.lat.to_radians(), from.lon.to_radians());
    let delta = distance_m / EARTH_RADIUS_M;
    let phi2 = (phi.sin() * delta.cos() + phi.cos() * delta.sin() * bearing.cos()).asin();
    let lambda2 = lambda
        + (bearing.sin() * delta.sin() * phi.cos()).atan2(delta.cos() - phi.sin() * phi2.sin());
    let lon = (lambda2.to_degrees() + 540.0).rem_euclid(360.0) - 180.0;
    GeoPoint::new(lon, phi2.to_degrees().clamp(-90.0, 90.0))
}

/// `n` POIs scattered over a disc of `3 · radius_m` around `center`.
fn cloud(center: &GeoPoint, radius_m: f64, n: usize, mix: &mut Mix) -> Vec<Poi> {
    (0..n)
        .map(|i| {
            let d = 3.0 * radius_m * mix.unit().sqrt();
            let b = std::f64::consts::TAU * mix.unit();
            Poi {
                position: destination(center, d, b),
                kind: PoiKind::ALL[i % 4],
                zone_id: 0,
            }
        })
        .collect()
}

/// Checks the index against brute force at the cloud's centre and, for
/// a handful of POIs, centred on each with the radius at exactly
/// another POI's distance and one ulp either side.
fn check_cloud(center: &GeoPoint, radius_m: f64, mix: &mut Mix) -> Result<(), TestCaseError> {
    let pois = cloud(center, radius_m, 240, mix);
    let index = PoiIndex::build(pois.clone());
    prop_assert_eq!(
        index.counts_within(center, radius_m),
        brute(&pois, center, radius_m),
        "centre {:?}, radius {}",
        center,
        radius_m
    );
    for q in 0..6 {
        let c = pois[(mix.unit() * pois.len() as f64) as usize % pois.len()].position;
        let target = pois[(q * 37 + 11) % pois.len()].position;
        let d = c.distance_m(&target);
        for r in [d, d.next_down(), d.next_up(), radius_m] {
            prop_assert_eq!(
                index.counts_within(&c, r),
                brute(&pois, &c, r),
                "centre {:?} on a POI, radius {} (boundary {:?})",
                c,
                r,
                target
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_clouds_match_a_haversine_scan(
        lat in -89.9f64..89.9,
        lon in -180.0f64..180.0,
        radius in 0usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let mut mix = Mix(seed);
        check_cloud(&GeoPoint::new(lon, lat), RADII[radius], &mut mix)?;
    }

    #[test]
    fn clouds_near_the_poles_match_a_haversine_scan(
        colat in 0.0f64..1.0,
        north in 0usize..2,
        lon in -180.0f64..180.0,
        radius in 0usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let lat = if north == 1 { 89.9 - colat } else { colat - 89.9 };
        let mut mix = Mix(seed);
        check_cloud(&GeoPoint::new(lon, lat), RADII[radius], &mut mix)?;
    }

    #[test]
    fn clouds_across_the_antimeridian_match_a_haversine_scan(
        lat in -89.9f64..89.9,
        offset in 0.0f64..0.05,
        east in 0usize..2,
        radius in 0usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let lon = if east == 1 { 180.0 - offset } else { offset - 180.0 };
        let mut mix = Mix(seed);
        check_cloud(&GeoPoint::new(lon, lat), RADII[radius], &mut mix)?;
    }
}

#[test]
fn every_tower_of_a_preset_city_matches_a_haversine_scan() {
    let city = generate(&CityConfig::small(13)).unwrap();
    let pois = city.pois().pois();
    assert!(pois.len() > 10_000, "{} POIs", pois.len());
    let mut work = QueryWork::default();
    let mut found = 0;
    for tower in city.towers() {
        let counts = city
            .pois()
            .counts_within_tallied(&tower.position, 200.0, &mut work);
        assert_eq!(
            counts,
            brute(pois, &tower.position, 200.0),
            "tower {}",
            tower.id
        );
        found += counts.iter().sum::<usize>();
    }
    // The planar test decides nearly every candidate on its own.
    assert!(found > 0);
    assert!(work.candidates >= found as u64, "{work:?}");
    assert!(work.haversine_calls * 100 < work.candidates, "{work:?}");
}
