//! Goertzel algorithm: single-bin DFT evaluation.
//!
//! The frequency-domain features of §5 need only *three* bins per
//! tower (week, day, half-day). A full FFT computes all `N` bins in
//! O(N log N); Goertzel computes one bin in O(N) with two
//! multiply-adds per sample — ~3·O(N) for the three features, with no
//! twiddle table and no allocation.
//!
//! Recurrence for bin `k` (ω = 2πk/N):
//!
//! ```text
//! s[n] = x[n] + 2·cos(ω)·s[n−1] − s[n−2]
//! X[k] = (s[N−1] − e^{−iω}·s[N−2]) · e^{iω}
//! ```
//!
//! Each recurrence is one latency-bound dependency chain, so
//! [`goertzel_bins`] runs several bins' chains interleaved in a single
//! pass over the signal: the processor overlaps them, and every bin
//! stays bit-identical to its own [`goertzel`] call.

use towerlens_obs::LazyCounter;

use crate::complex::Complex;
use crate::error::{check_finite, DspError};

/// Single-bin evaluations performed, across all calls.
static EVALUATIONS: LazyCounter = LazyCounter::new("dsp.goertzel.evaluations");

/// Evaluates a single DFT bin of a real signal.
///
/// Matches `fft_real(x)[k]` up to floating-point error.
///
/// # Errors
/// * [`DspError::EmptyInput`] for an empty signal,
/// * [`DspError::BinOutOfRange`] for `k ≥ N`,
/// * [`DspError::NonFinite`] for NaN/∞ samples.
pub fn goertzel(x: &[f64], k: usize) -> Result<Complex, DspError> {
    let mut tally = 0u64;
    let out = goertzel_sharded(x, k, &mut tally);
    EVALUATIONS.add(tally);
    out
}

/// As [`goertzel`], but the evaluation count lands in the caller's
/// `tally` shard instead of the global registry. Data-parallel callers
/// give each worker its own shard and feed the merged total to
/// [`record_evaluations`] once, so the counter stays *exactly* equal
/// across thread counts instead of depending on racy interleavings.
///
/// # Errors
/// As for [`goertzel`].
pub fn goertzel_sharded(x: &[f64], k: usize, tally: &mut u64) -> Result<Complex, DspError> {
    let n = x.len();
    if n == 0 {
        return Err(DspError::EmptyInput);
    }
    if k >= n {
        return Err(DspError::BinOutOfRange { bin: k, len: n });
    }
    check_finite(x)?;
    *tally += 1;
    let omega = std::f64::consts::TAU * k as f64 / n as f64;
    let coeff = 2.0 * omega.cos();
    let mut s_prev = 0.0f64;
    let mut s_prev2 = 0.0f64;
    for &sample in x {
        let s = sample + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    Ok(finish(s_prev, s_prev2, omega))
}

/// The bin value from the recurrence's last two states.
#[inline]
fn finish(s_prev: f64, s_prev2: f64, omega: f64) -> Complex {
    // y[N−1] = s[N−1] − e^{−iω}·s[N−2] equals e^{iω(N−1)}·X[k], and
    // e^{iωN} = 1, so X[k] = y·e^{iω}.
    let y = Complex::new(s_prev, 0.0) - Complex::cis(-omega) * s_prev2;
    y * Complex::cis(omega)
}

/// Evaluates several bins in one pass over the signal: one recurrence
/// per bin, interleaved sample by sample, each performing
/// [`goertzel`]'s operations in its order — so every bin is
/// bit-identical to its own [`goertzel`] call, while the signal is read
/// and checked for non-finite samples once.
///
/// # Errors
/// As for [`goertzel`], checked before any work: [`DspError::EmptyInput`]
/// for an empty signal, then [`DspError::BinOutOfRange`] for the first
/// bin `≥ N`, then [`DspError::NonFinite`].
pub fn goertzel_bins<const B: usize>(
    x: &[f64],
    bins: [usize; B],
) -> Result<[Complex; B], DspError> {
    let mut tally = 0u64;
    let out = goertzel_bins_sharded(x, bins, &mut tally);
    EVALUATIONS.add(tally);
    out
}

/// [`goertzel_bins`] with sharded counting — see [`goertzel_sharded`].
/// A success adds one evaluation per bin to `tally`; an error adds
/// none.
///
/// # Errors
/// As for [`goertzel_bins`].
pub fn goertzel_bins_sharded<const B: usize>(
    x: &[f64],
    bins: [usize; B],
    tally: &mut u64,
) -> Result<[Complex; B], DspError> {
    let n = x.len();
    if n == 0 {
        return Err(DspError::EmptyInput);
    }
    if let Some(&bin) = bins.iter().find(|&&k| k >= n) {
        return Err(DspError::BinOutOfRange { bin, len: n });
    }
    check_finite(x)?;
    *tally += B as u64;
    let omega = bins.map(|k| std::f64::consts::TAU * k as f64 / n as f64);
    let coeff = omega.map(|w| 2.0 * w.cos());
    let mut s_prev = [0.0f64; B];
    let mut s_prev2 = [0.0f64; B];
    for &sample in x {
        for b in 0..B {
            let s = sample + coeff[b] * s_prev[b] - s_prev2[b];
            s_prev2[b] = s_prev[b];
            s_prev[b] = s;
        }
    }
    Ok(std::array::from_fn(|b| {
        finish(s_prev[b], s_prev2[b], omega[b])
    }))
}

/// Amplitude and phase of one bin via Goertzel — the §5 feature pair
/// `(A_k, P_k)` without a full transform.
///
/// # Errors
/// As for [`goertzel`].
pub fn goertzel_feature(x: &[f64], k: usize) -> Result<(f64, f64), DspError> {
    let c = goertzel(x, k)?;
    Ok((c.abs(), c.arg()))
}

/// Credits `n` sharded evaluations to the global
/// `dsp.goertzel.evaluations` counter. Pair with
/// [`goertzel_sharded`] / [`goertzel_bins_sharded`].
pub fn record_evaluations(n: u64) {
    EVALUATIONS.add(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft_real;

    fn paper_like(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / n as f64;
                2.0 + (4.0 * t).cos() + 0.6 * (28.0 * t + 0.8).cos() + 0.3 * (56.0 * t).sin()
            })
            .collect()
    }

    #[test]
    fn matches_fft_on_paper_bins() {
        let x = paper_like(4_032);
        let spec = fft_real(&x);
        for k in [0usize, 1, 4, 28, 56, 100, 2_016, 4_031] {
            let g = goertzel(&x, k).unwrap();
            assert!(
                (g - spec[k]).abs() < 1e-6 * (spec[k].abs() + 1.0),
                "bin {k}: goertzel {g} vs fft {}",
                spec[k]
            );
        }
    }

    #[test]
    fn matches_fft_on_awkward_lengths() {
        for n in [7usize, 97, 144, 1_008] {
            let x = paper_like(n);
            let spec = fft_real(&x);
            for (k, &expected) in spec.iter().enumerate().take(n.min(12)) {
                let g = goertzel(&x, k).unwrap();
                assert!(
                    (g - expected).abs() < 1e-7 * (expected.abs() + n as f64),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn dc_bin_is_sum() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let g = goertzel(&x, 0).unwrap();
        assert!((g.re - 10.0).abs() < 1e-12);
        assert!(g.im.abs() < 1e-12);
    }

    #[test]
    fn feature_pair_matches_spectrum() {
        let x = paper_like(1_008);
        let (amp, phase) = goertzel_feature(&x, 28).unwrap();
        // cos(28t + 0.8)·0.6 ⇒ |X| = 0.6·N/2, arg = 0.8.
        assert!((amp - 0.6 * 1_008.0 / 2.0).abs() < 1e-6);
        assert!((phase - 0.8).abs() < 1e-9);
    }

    /// The per-bin sequence the one-pass kernel must reproduce.
    fn per_bin(x: &[f64], bins: &[usize]) -> Result<Vec<Complex>, DspError> {
        bins.iter().map(|&k| goertzel(x, k)).collect()
    }

    #[test]
    fn batch_matches_singles() {
        let bin_sets = [
            [0, 1, 2],
            [1, 4, 28],
            [4, 28, 56],
            [6, 3, 3],
            [96, 0, 2_016],
        ];
        for n in [7usize, 97, 4_032] {
            let x = paper_like(n);
            for bins in bin_sets.into_iter().filter(|b| b.iter().all(|&k| k < n)) {
                let mut tally = 5;
                let batch = goertzel_bins_sharded(&x, bins, &mut tally).unwrap();
                assert_eq!(tally, 5 + 3, "n={n} {bins:?}: one evaluation per bin");
                assert_eq!(goertzel_bins(&x, bins).unwrap(), batch);
                for (c, single) in batch.iter().zip(per_bin(&x, &bins).unwrap()) {
                    assert_eq!(c.re.to_bits(), single.re.to_bits(), "n={n} {bins:?}");
                    assert_eq!(c.im.to_bits(), single.im.to_bits(), "n={n} {bins:?}");
                }
            }
            let [one] = goertzel_bins(&x, [n - 1]).unwrap();
            assert_eq!(one, goertzel(&x, n - 1).unwrap());
        }
        // Errors: the per-bin sequence's, and nothing counted.
        let mut nan = paper_like(97);
        nan[40] = f64::NAN;
        let faults: [(&[f64], [usize; 3]); 3] = [
            (&[], [1, 4, 28]),
            (&paper_like(97), [4, 97, 28]),
            (&nan, [1, 4, 28]),
        ];
        for (x, bins) in faults {
            let mut tally = 0;
            let err = goertzel_bins_sharded(x, bins, &mut tally).unwrap_err();
            assert_eq!(err, per_bin(x, &bins).unwrap_err(), "{bins:?}");
            assert_eq!(tally, 0, "{bins:?}: a failed batch counts nothing");
        }
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(goertzel(&[], 0).unwrap_err(), DspError::EmptyInput);
        assert_eq!(
            goertzel(&[1.0, 2.0], 2).unwrap_err(),
            DspError::BinOutOfRange { bin: 2, len: 2 }
        );
        assert!(matches!(
            goertzel(&[f64::NAN], 0).unwrap_err(),
            DspError::NonFinite { .. }
        ));
    }
}
