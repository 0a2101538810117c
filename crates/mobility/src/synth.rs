//! Fast per-tower traffic synthesis.
//!
//! For each tower, the demand intensity is the *mixture* of the four
//! canonical profiles weighted by the ground-truth function mix at the
//! tower's location, times a per-tower log-normal scale, a per-day
//! log-normal factor, and per-bin log-normal noise:
//!
//! ```text
//! traffic[b] = scale · day_factor[day(b)] · noise[b]
//!              · Σ_i mix_i · intensity_i(time(b), weekend(b)) · base
//! ```
//!
//! Each tower's random stream is seeded from `(config.seed, tower_id)`
//! so the output is identical regardless of thread count or iteration
//! order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use towerlens_city::city::City;
use towerlens_trace::time::TraceWindow;

use crate::config::SynthConfig;
use crate::profiles::IntensityTable;

/// Synthesises one tower's traffic vector.
///
/// `mix` is the function mixture at the tower (must sum to ~1),
/// `tower_id` seeds the tower's private noise stream.
pub fn tower_vector(
    mix: &[f64; 4],
    window: &TraceWindow,
    config: &SynthConfig,
    tower_id: usize,
) -> Vec<f64> {
    tower_vector_with(&IntensityTable::of(window), mix, window, config, tower_id)
}

/// [`tower_vector`] against a precomputed [`IntensityTable`] for the
/// window, so batch callers pay the profile sampling once per window
/// instead of once per tower. Bit-identical to [`tower_vector`].
pub fn tower_vector_with(
    table: &IntensityTable,
    mix: &[f64; 4],
    window: &TraceWindow,
    config: &SynthConfig,
    tower_id: usize,
) -> Vec<f64> {
    debug_assert_eq!(table.n_bins(), window.n_bins);
    let mut rng = tower_rng(config.seed, tower_id);
    let scale = config.base_bytes_per_bin * lognormal(&mut rng, config.tower_scale_sigma);
    let n_days = window.n_bins * window.bin_secs as usize / 86_400 + 1;
    let day_factors: Vec<f64> = (0..n_days)
        .map(|_| lognormal(&mut rng, config.day_noise_sigma))
        .collect();
    (0..window.n_bins)
        .map(|bin| {
            let base = table.mixture(mix, bin);
            let day = day_factors[window.day_of_bin(bin)];
            let noise = lognormal(&mut rng, config.bin_noise_sigma);
            scale * day * noise * base
        })
        .collect()
}

/// Synthesises the whole city: one traffic vector per tower, in tower
/// id order. Parallelised over towers via [`towerlens_par`]; each
/// tower computes its function mix, draws from its own seeded stream
/// and lands in its own slot, so the output is independent of
/// `config.threads`.
pub fn synthesize_city(city: &City, window: &TraceWindow, config: &SynthConfig) -> Vec<Vec<f64>> {
    let table = IntensityTable::of(window);
    towerlens_par::par_map_indexed(city.towers(), config.threads, |id, tower| {
        let mix = city.function_mix(&tower.position);
        tower_vector_with(&table, &mix, window, config, id)
    })
}

/// Derives a tower's private RNG from the global seed (SplitMix-style
/// mixing so adjacent ids decorrelate).
pub(crate) fn tower_rng(seed: u64, tower_id: usize) -> StdRng {
    let mut z = seed ^ (tower_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Log-normal sample with median 1: `exp(σ·Z)`. σ = 0 always yields
/// exactly 1 (and still consumes one draw, keeping streams aligned
/// across configs).
fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    if sigma == 0.0 {
        1.0
    } else {
        (sigma * z).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use towerlens_city::config::CityConfig;
    use towerlens_city::generate::generate;
    use towerlens_city::zone::PoiKind;

    use crate::profiles::{mixture_profile_vector, pure_mix};

    #[test]
    fn deterministic_per_tower() {
        let w = TraceWindow::days(7);
        let cfg = SynthConfig::default();
        let mix = pure_mix(PoiKind::Office);
        let a = tower_vector(&mix, &w, &cfg, 17);
        let b = tower_vector(&mix, &w, &cfg, 17);
        assert_eq!(a, b);
        let c = tower_vector(&mix, &w, &cfg, 18);
        assert_ne!(a, c);
    }

    #[test]
    fn noiseless_vector_matches_canonical_profile() {
        let w = TraceWindow::days(7);
        let cfg = SynthConfig::noiseless(1);
        let mix = pure_mix(PoiKind::Resident);
        let v = tower_vector(&mix, &w, &cfg, 0);
        let canon = mixture_profile_vector(&mix, &w);
        for (a, b) in v.iter().zip(&canon) {
            let expected = b * cfg.base_bytes_per_bin;
            assert!((a - expected).abs() < 1e-6 * expected.max(1.0));
        }
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let city = generate(&CityConfig::tiny(3)).unwrap();
        let w = TraceWindow::days(2);
        let serial = synthesize_city(
            &city,
            &w,
            &SynthConfig {
                threads: 1,
                ..SynthConfig::default()
            },
        );
        let parallel = synthesize_city(
            &city,
            &w,
            &SynthConfig {
                threads: 4,
                ..SynthConfig::default()
            },
        );
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn traffic_is_positive_and_scaled() {
        let city = generate(&CityConfig::tiny(5)).unwrap();
        let w = TraceWindow::days(1);
        let m = synthesize_city(&city, &w, &SynthConfig::default());
        assert_eq!(m.len(), city.towers().len());
        for row in &m {
            assert_eq!(row.len(), w.n_bins);
            assert!(row.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn office_tower_quieter_at_night_than_resident_tower() {
        let w = TraceWindow::days(5); // Mon–Fri
        let cfg = SynthConfig::noiseless(0);
        let office = tower_vector(&pure_mix(PoiKind::Office), &w, &cfg, 0);
        let resident = tower_vector(&pure_mix(PoiKind::Resident), &w, &cfg, 0);
        // 23:30 bin of day 0 (bin 141) relative to each tower's own peak.
        let night = 141;
        let o_rel = office[night] / office.iter().cloned().fold(0.0, f64::max);
        let r_rel = resident[night] / resident.iter().cloned().fold(0.0, f64::max);
        assert!(r_rel > 3.0 * o_rel, "resident {r_rel} vs office {o_rel}");
    }

    #[test]
    fn tower_scales_vary_lognormally() {
        let w = TraceWindow::days(1);
        let cfg = SynthConfig {
            bin_noise_sigma: 0.0,
            day_noise_sigma: 0.0,
            ..SynthConfig::default()
        };
        let mix = pure_mix(PoiKind::Office);
        let totals: Vec<f64> = (0..200)
            .map(|id| tower_vector(&mix, &w, &cfg, id).iter().sum())
            .collect();
        let max = totals.iter().cloned().fold(0.0f64, f64::max);
        let min = totals.iter().cloned().fold(f64::INFINITY, f64::min);
        // σ=0.8 lognormal across 200 draws spans well over 10×.
        assert!(max / min > 10.0, "spread {}", max / min);
    }
}
