//! The city generator.
//!
//! Spatial model (monocentric, see crate docs):
//!
//! | kind          | radial placement (R = city radius)             |
//! |---------------|------------------------------------------------|
//! | office        | half-normal, σ = 0.18·R (downtown core)        |
//! | entertainment | half-normal, σ = 0.30·R (inner ring)           |
//! | transport     | uniform radius along 6 radial corridors        |
//! | resident      | normal ring at 0.55·R, σ = 0.15·R (outskirts)  |
//! | comprehensive | uniform over the disc                          |
//!
//! Angles are uniform (with corridor snapping for transport). The
//! centre therefore ends up office/entertainment-dense and the
//! periphery residential — the structure Fig 2 and Fig 7 rely on —
//! without ever telling the traffic model what a "cluster" is.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::city::{City, Tower};
use crate::config::CityConfig;
use crate::error::CityError;
use crate::geo::{BoundingBox, GeoPoint};
use crate::poi::{Poi, PoiIndex};
use crate::zone::{PoiKind, RegionKind, Zone};

/// Generates a deterministic synthetic city from a configuration.
///
/// ```
/// use towerlens_city::{config::CityConfig, generate::generate};
///
/// let city = generate(&CityConfig::tiny(42))?;
/// assert_eq!(city.towers().len(), 120);
/// assert!(!city.pois().is_empty());
/// # Ok::<(), towerlens_city::CityError>(())
/// ```
///
/// # Errors
/// Configuration validation failures; see [`CityConfig::validate`].
pub fn generate(config: &CityConfig) -> Result<City, CityError> {
    config.validate()?;
    // Independent streams so that, e.g., changing POI intensities
    // doesn't reshuffle tower placement.
    let mut zone_rng = StdRng::seed_from_u64(config.seed ^ 0x5A0E_5A0E_0000_0001);
    let mut poi_rng = StdRng::seed_from_u64(config.seed ^ 0x5A0E_5A0E_0000_0002);
    let mut tower_rng = StdRng::seed_from_u64(config.seed ^ 0x5A0E_5A0E_0000_0003);

    // --- zones ---------------------------------------------------
    let n_zones = ((config.n_towers as f64 / config.towers_per_zone).ceil() as usize).max(5);
    let mut zone_counts = apportion(n_zones, &config.region_shares);
    // Every kind needs at least one zone so every share>0 kind can seat
    // its towers.
    for (k, c) in zone_counts.iter_mut().enumerate() {
        if *c == 0 && config.region_shares[k] > 0.0 {
            *c = 1;
        }
    }
    let mut zones = Vec::new();
    for kind in RegionKind::ALL {
        for _ in 0..zone_counts[kind.index()] {
            let center = place_zone(&mut zone_rng, kind, config);
            let radius_m = match kind {
                RegionKind::Transport => zone_rng.gen_range(150.0..350.0),
                RegionKind::Office => zone_rng.gen_range(250.0..600.0),
                _ => zone_rng.gen_range(300.0..800.0),
            };
            zones.push(Zone {
                id: zones.len(),
                kind,
                center,
                radius_m,
            });
        }
    }

    // --- POIs ----------------------------------------------------
    let mut pois = Vec::new();
    for zone in &zones {
        let intensity = config.poi_intensity[zone.kind.index()];
        for poi_kind in PoiKind::ALL {
            let mean = intensity[poi_kind.index()];
            let count = poisson(&mut poi_rng, mean);
            for _ in 0..count {
                let pos = scatter_in_disc(&mut poi_rng, &zone.center, zone.radius_m);
                pois.push(Poi {
                    position: pos,
                    kind: poi_kind,
                    zone_id: zone.id,
                });
            }
        }
    }

    // --- towers --------------------------------------------------
    let tower_counts = apportion(config.n_towers, &config.region_shares);
    let mut towers = Vec::new();
    for kind in RegionKind::ALL {
        let candidates: Vec<usize> = zones
            .iter()
            .filter(|z| z.kind == kind)
            .map(|z| z.id)
            .collect();
        if candidates.is_empty() {
            continue;
        }
        for _ in 0..tower_counts[kind.index()] {
            let zone_id = candidates[tower_rng.gen_range(0..candidates.len())];
            let zone = &zones[zone_id];
            let scatter = config.tower_scatter_rel * zone.radius_m;
            let dx = normal(&mut tower_rng) * scatter;
            let dy = normal(&mut tower_rng) * scatter;
            let position = zone.center.offset_m(dx, dy);
            let street = STREET_NAMES[tower_rng.gen_range(0..STREET_NAMES.len())];
            let address = format!("{} {street}", position.block_address());
            towers.push(Tower {
                id: towers.len(),
                position,
                address,
                kind_truth: kind,
                zone_id,
            });
        }
    }

    // --- bounds --------------------------------------------------
    let mut bounds = BoundingBox::empty();
    for t in &towers {
        bounds.include(&t.position);
    }
    for z in &zones {
        bounds.include(&z.center);
    }

    Ok(City {
        zones,
        towers,
        poi_index: PoiIndex::build(pois),
        bounds,
        center: config.center,
        comprehensive_blend: config.comprehensive_blend,
    })
}

/// Largest-remainder apportionment of `total` items to `shares`.
fn apportion(total: usize, shares: &[f64; 5]) -> [usize; 5] {
    let mut counts = [0usize; 5];
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(5);
    let mut assigned = 0;
    for (i, &s) in shares.iter().enumerate() {
        let exact = s * total as f64;
        counts[i] = exact.floor() as usize;
        assigned += counts[i];
        remainders.push((i, exact - exact.floor()));
    }
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut left = total - assigned;
    for (i, _) in remainders {
        if left == 0 {
            break;
        }
        counts[i] += 1;
        left -= 1;
    }
    counts
}

/// Samples a zone centre according to the kind's radial law.
fn place_zone(rng: &mut StdRng, kind: RegionKind, config: &CityConfig) -> GeoPoint {
    let r_max = config.radius_m;
    let (radius, angle) = match kind {
        RegionKind::Office => (
            (normal(rng) * 0.18 * r_max).abs().min(r_max),
            uniform_angle(rng),
        ),
        RegionKind::Entertainment => (
            (normal(rng) * 0.30 * r_max).abs().min(r_max),
            uniform_angle(rng),
        ),
        RegionKind::Resident => {
            let r = 0.55 * r_max + normal(rng) * 0.15 * r_max;
            (r.clamp(0.05 * r_max, r_max), uniform_angle(rng))
        }
        RegionKind::Transport => {
            // Snap to one of 6 radial corridors, jittered.
            let corridor = rng.gen_range(0..6) as f64;
            let angle = corridor * std::f64::consts::TAU / 6.0 + normal(rng) * 0.05;
            let r = rng.gen_range(0.05..0.9) * r_max;
            (r, angle)
        }
        RegionKind::Comprehensive => {
            // Uniform over the disc: r ∝ sqrt(u).
            let u: f64 = rng.gen_range(0.0..1.0);
            (u.sqrt() * r_max, uniform_angle(rng))
        }
    };
    config
        .center
        .offset_m(radius * angle.cos(), radius * angle.sin())
}

fn uniform_angle(rng: &mut StdRng) -> f64 {
    rng.gen_range(0.0..std::f64::consts::TAU)
}

/// Standard normal via Box–Muller.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Poisson sample. Knuth's product method for small means; for large
/// means a normal approximation keeps it O(1).
fn poisson(rng: &mut StdRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 30.0 {
        let v = mean + mean.sqrt() * normal(rng);
        return v.round().max(0.0) as usize;
    }
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0f64);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // numeric safety valve; unreachable for mean ≤ 30
        }
    }
}

/// Uniform point in a disc around `center`.
fn scatter_in_disc(rng: &mut StdRng, center: &GeoPoint, radius_m: f64) -> GeoPoint {
    let u: f64 = rng.gen_range(0.0..1.0);
    let r = u.sqrt() * radius_m;
    let a = uniform_angle(rng);
    center.offset_m(r * a.cos(), r * a.sin())
}

/// Street-name pool for synthetic addresses.
const STREET_NAMES: [&str; 12] = [
    "Nanjing Rd",
    "Huaihai Rd",
    "Century Ave",
    "Zhongshan Rd",
    "Renmin Ave",
    "Fuxing Rd",
    "Yanan Rd",
    "Beijing Rd",
    "Sichuan Rd",
    "Henan Rd",
    "Xizang Rd",
    "Changning Rd",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&CityConfig::tiny(5)).unwrap();
        let b = generate(&CityConfig::tiny(5)).unwrap();
        assert_eq!(a.towers().len(), b.towers().len());
        for (x, y) in a.towers().iter().zip(b.towers()) {
            assert_eq!(x.position.lon, y.position.lon);
            assert_eq!(x.address, y.address);
            assert_eq!(x.kind_truth, y.kind_truth);
        }
        assert_eq!(a.pois().len(), b.pois().len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&CityConfig::tiny(1)).unwrap();
        let b = generate(&CityConfig::tiny(2)).unwrap();
        let same = a
            .towers()
            .iter()
            .zip(b.towers())
            .filter(|(x, y)| x.position.lon == y.position.lon)
            .count();
        assert!(same < a.towers().len() / 2);
    }

    #[test]
    fn tower_count_and_shares_match_config() {
        let cfg = CityConfig::small(3);
        let city = generate(&cfg).unwrap();
        assert_eq!(city.towers().len(), cfg.n_towers);
        let shares: Vec<f64> = RegionKind::ALL
            .iter()
            .map(|&k| city.towers_of_kind(k).len() as f64 / cfg.n_towers as f64)
            .collect();
        for (got, want) in shares.iter().zip(&cfg.region_shares) {
            assert!(
                (got - want).abs() < 0.01,
                "share mismatch: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn offices_are_more_central_than_residences() {
        let cfg = CityConfig::small(11);
        let city = generate(&cfg).unwrap();
        let mean_r = |kind: RegionKind| {
            let ids = city.towers_of_kind(kind);
            ids.iter()
                .map(|&id| city.towers()[id].position.distance_m(&cfg.center))
                .sum::<f64>()
                / ids.len() as f64
        };
        assert!(
            mean_r(RegionKind::Office) < mean_r(RegionKind::Resident),
            "office {} vs resident {}",
            mean_r(RegionKind::Office),
            mean_r(RegionKind::Resident)
        );
    }

    #[test]
    fn poi_composition_reflects_zone_kind() {
        let city = generate(&CityConfig::small(13)).unwrap();
        // Aggregate POI counts near towers of each pure kind; the
        // native type should dominate for office/entertainment/
        // resident (transport is rare in absolute terms by design).
        for kind in [
            RegionKind::Office,
            RegionKind::Entertainment,
            RegionKind::Resident,
        ] {
            let native = kind.native_poi().unwrap().index();
            let mut totals = [0usize; 4];
            for id in city.towers_of_kind(kind) {
                let c = city
                    .pois()
                    .counts_within(&city.towers()[id].position, 200.0);
                for (t, v) in totals.iter_mut().zip(&c) {
                    *t += v;
                }
            }
            let max_idx = (0..4).max_by_key(|&i| totals[i]).unwrap();
            assert_eq!(max_idx, native, "{kind:?}: {totals:?}");
        }
    }

    #[test]
    fn apportion_is_exact() {
        let counts = apportion(9_600, &crate::config::PAPER_TABLE1_SHARES);
        assert_eq!(counts.iter().sum::<usize>(), 9_600);
        // Office is the biggest bucket, transport the smallest.
        assert!(counts[2] > counts[4]);
        assert!(counts[1] < counts[3]);
    }

    #[test]
    fn poisson_mean_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(99);
        for mean in [0.5, 3.0, 12.0, 80.0] {
            let n = 3_000;
            let total: usize = (0..n).map(|_| poisson(&mut rng, mean)).sum();
            let got = total as f64 / n as f64;
            assert!(
                (got - mean).abs() < mean.max(1.0) * 0.1,
                "mean {mean}: got {got}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -3.0), 0);
    }

    #[test]
    fn normal_has_zero_mean_unit_sd() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn addresses_follow_block_convention() {
        let city = generate(&CityConfig::tiny(21)).unwrap();
        for t in city.towers() {
            let resolved = GeoPoint::from_block_address(&t.address)
                .unwrap_or_else(|| panic!("bad address {:?}", t.address));
            assert!(t.position.distance_m(&resolved) < 160.0);
        }
    }

    #[test]
    fn invalid_config_propagates() {
        let mut cfg = CityConfig::tiny(0);
        cfg.n_towers = 0;
        assert!(matches!(generate(&cfg), Err(CityError::NoTowers)));
    }
}
