//! Cross-crate property-based tests (proptest): randomised checks of
//! the invariants the analyses rely on.

use proptest::prelude::*;

use towerlens::cluster::agglomerative::{agglomerative, Linkage};
use towerlens::cluster::distance::DistanceMatrix;
use towerlens::dsp::fft::{fft, fft_real, ifft};
use towerlens::dsp::normalize::{by_max, minmax, zscore};
use towerlens::dsp::spectrum::Spectrum;
use towerlens::opt::simplex::{project_to_simplex, simplex_least_squares, SimplexLsOptions};
use towerlens::trace::record::LogRecord;
use towerlens::trace::time::TraceWindow;

fn finite_signal(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_ifft_roundtrip(signal in finite_signal(200)) {
        let spec = fft_real(&signal);
        let back = ifft(&spec);
        let scale = signal.iter().fold(1.0f64, |a, v| a.max(v.abs()));
        for (a, b) in back.iter().zip(&signal) {
            prop_assert!((a.re - b).abs() < 1e-8 * scale + 1e-9);
            prop_assert!(a.im.abs() < 1e-8 * scale + 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conserved(signal in finite_signal(150)) {
        let spec = fft_real(&signal);
        let time: f64 = signal.iter().map(|x| x * x).sum();
        let freq: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / signal.len() as f64;
        prop_assert!((time - freq).abs() <= 1e-8 * time.max(1.0));
    }

    #[test]
    fn real_spectrum_conjugate_symmetry(signal in finite_signal(100)) {
        let spec = fft_real(&signal);
        let n = spec.len();
        let scale = signal.iter().fold(1.0f64, |a, v| a.max(v.abs())) * n as f64;
        for k in 1..n {
            let d = spec[k] - spec[n - k].conj();
            prop_assert!(d.abs() < 1e-9 * scale);
        }
    }

    #[test]
    fn fft_linearity(a in finite_signal(64), scale in -100.0f64..100.0) {
        let scaled: Vec<f64> = a.iter().map(|v| v * scale).collect();
        let fa = fft_real(&a);
        let fs = fft_real(&scaled);
        let bound = a.iter().fold(1.0f64, |m, v| m.max(v.abs())) * scale.abs().max(1.0)
            * a.len() as f64;
        for (x, y) in fa.iter().zip(&fs) {
            let d = x.scale(scale) - *y;
            prop_assert!(d.abs() < 1e-9 * bound + 1e-9);
        }
    }

    #[test]
    fn reconstruction_never_gains_energy(signal in finite_signal(96)) {
        let spec = match Spectrum::of(&signal) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let keep: Vec<usize> = (0..signal.len().min(4)).collect();
        let lost = spec.lost_energy_fraction(&keep).unwrap();
        prop_assert!(lost >= -1e-9, "reconstruction gained energy: {lost}");
        prop_assert!(lost <= 1.0 + 1e-9);
    }

    #[test]
    fn zscore_properties(signal in finite_signal(128)) {
        match zscore(&signal) {
            Ok(z) => {
                let n = z.len() as f64;
                let mean = z.iter().sum::<f64>() / n;
                let var = z.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
                prop_assert!(mean.abs() < 1e-8);
                prop_assert!((var - 1.0).abs() < 1e-6);
            }
            Err(_) => {
                // Only legal failure on finite input: zero variance.
                let first = signal[0];
                prop_assert!(signal.iter().all(|&v| v == first));
            }
        }
    }

    #[test]
    fn minmax_bounds(signal in finite_signal(128)) {
        let m = minmax(&signal).unwrap();
        prop_assert!(m.iter().all(|&v| (-1e-12..=1.0 + 1e-12).contains(&v)));
    }

    #[test]
    fn by_max_peak_is_one(signal in prop::collection::vec(0.0f64..1e6, 1..128)) {
        let m = by_max(&signal).unwrap();
        let top = m.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(top == 0.0 || (top - 1.0).abs() < 1e-12);
    }

    #[test]
    fn simplex_projection_feasible(v in prop::collection::vec(-1e3f64..1e3, 1..24)) {
        let p = project_to_simplex(&v).unwrap();
        let sum: f64 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn simplex_projection_is_idempotent(v in prop::collection::vec(-10.0f64..10.0, 1..16)) {
        let p1 = project_to_simplex(&v).unwrap();
        let p2 = project_to_simplex(&p1).unwrap();
        for (a, b) in p1.iter().zip(&p2) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn simplex_ls_solution_is_feasible_and_no_worse_than_vertices(
        target in prop::collection::vec(-5.0f64..5.0, 3),
        seed in 0u64..1000,
    ) {
        // A fixed, well-spread vertex set plus a random target.
        let verts = vec![
            vec![0.0, 0.0, 0.0],
            vec![2.0 + (seed % 7) as f64 * 0.1, 0.0, 0.3],
            vec![0.0, 2.0, 0.1],
            vec![0.4, 0.3, 2.0],
        ];
        let sol = simplex_least_squares(&verts, &target, SimplexLsOptions::default()).unwrap();
        let sum: f64 = sol.coefficients.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(sol.coefficients.iter().all(|&c| c >= -1e-9));
        // Optimality sanity: no single vertex is closer than the
        // projection.
        for v in &verts {
            let d: f64 = v.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum();
            prop_assert!(sol.residual_sqr <= d + 1e-6);
        }
    }

    #[test]
    fn dendrogram_cut_counts_are_monotone(
        points in prop::collection::vec(
            prop::collection::vec(-100.0f64..100.0, 2),
            2..40
        )
    ) {
        let d = agglomerative(DistanceMatrix::build(&points, 1).unwrap(), Linkage::Average).unwrap();
        // Higher thresholds never increase the cluster count.
        let mut prev = usize::MAX;
        for t in [0.0, 1.0, 10.0, 50.0, 1e3, 1e9] {
            let k = d.cut_at(t).k;
            prop_assert!(k <= prev);
            prev = k;
        }
        // cut_k is exact for every feasible k.
        for k in 1..=points.len() {
            prop_assert_eq!(d.cut_k(k).unwrap().k, k);
        }
    }

    #[test]
    fn log_record_line_roundtrip(
        user_id in 0u64..1e15 as u64,
        start in 0u64..3_000_000,
        len in 0u64..100_000,
        cell in 0u32..100_000,
        bytes in 0u64..1e12 as u64,
        addr in "[A-Za-z0-9 .-]{0,40}",
    ) {
        let r = LogRecord {
            user_id,
            start_s: start,
            end_s: start + len,
            cell_id: cell,
            address: addr,
            bytes,
        };
        let parsed = LogRecord::parse_line(&r.to_line(), 1).unwrap();
        prop_assert_eq!(parsed, r);
    }

    #[test]
    fn overlap_fractions_partition_in_window_intervals(
        start_off in 0u64..86_400,
        len in 1u64..30_000,
    ) {
        let w = TraceWindow::days(3);
        let start = w.start_s + start_off;
        let end = (start + len).min(w.end_s());
        let mut total = 0.0;
        w.for_each_overlap(start, end, |_, frac| total += frac);
        // Interval fully inside the window ⇒ fractions sum to 1.
        prop_assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }
}

#[test]
fn fft_handles_awkward_lengths() {
    // Deterministic sweep over prime/semiprime lengths the generator
    // above rarely hits.
    for n in [97usize, 101, 121, 127, 169] {
        let signal: Vec<f64> = (0..n).map(|i| ((i * i) % 17) as f64 - 8.0).collect();
        let spec = fft_real(&signal);
        let back = ifft(&spec);
        for (a, b) in back.iter().zip(&signal) {
            assert!((a.re - b).abs() < 1e-7, "n={n}");
        }
    }
    let empty: Vec<towerlens::dsp::Complex> = Vec::new();
    assert!(fft(&empty).is_empty());
}
