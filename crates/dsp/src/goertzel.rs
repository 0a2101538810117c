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
//! pass over the signal, and [`goertzel_bins_each`] several signals'
//! bins at once: the processor overlaps them, and every bin stays
//! bit-identical to its own [`goertzel`] call.

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
/// The first error the per-bin sequence of [`goertzel`] calls reports,
/// checked before any work: [`DspError::EmptyInput`] for an empty
/// signal, then [`DspError::BinOutOfRange`] for a first bin `≥ N`, then
/// [`DspError::NonFinite`], then [`DspError::BinOutOfRange`] for the
/// first later bin `≥ N`.
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
    // The per-bin sequence's order: its first call checks its bin, then
    // the signal; later calls can only fail on their own bin.
    let out_of_range = |bin: usize| DspError::BinOutOfRange { bin, len: n };
    if let Some(&bin) = bins.first().filter(|&&k| k >= n) {
        return Err(out_of_range(bin));
    }
    check_finite(x)?;
    if let Some(&bin) = bins.iter().find(|&&k| k >= n) {
        return Err(out_of_range(bin));
    }
    *tally += B as u64;
    let [lines] = interleaved_bins([x], bins).expect("the signal was checked finite");
    Ok(lines)
}

/// [`goertzel_bins_sharded`] over `T` signals: element `t` of the
/// result, and the evaluations added to `tally`, are exactly what
/// [`goertzel_bins_sharded`] gives for `signals[t]`, errors included.
///
/// When all signals share one length above every bin, the `T × B`
/// recurrences run interleaved in a single pass — each with
/// [`goertzel`]'s operations in its order, so every bin stays
/// bit-identical — which keeps `T × B` independent dependency chains in
/// flight instead of `B`, and reads every signal once. The same pass
/// checks the samples; if any is NaN or ∞, or the signals do not share
/// a length, each signal runs on its own instead.
pub fn goertzel_bins_each<const T: usize, const B: usize>(
    signals: [&[f64]; T],
    bins: [usize; B],
    tally: &mut u64,
) -> [Result<[Complex; B], DspError>; T] {
    let n = signals.first().map_or(0, |x| x.len());
    if n > 0 && bins.iter().all(|&k| k < n) && signals.iter().all(|x| x.len() == n) {
        if let Some(lines) = interleaved_bins(signals, bins) {
            *tally += (T * B) as u64;
            return lines.map(Ok);
        }
    }
    signals.map(|x| goertzel_bins_sharded(x, bins, tally))
}

/// The one multi-bin recurrence, over `T` signals of one length `N`
/// above every bin (one signal for [`goertzel_bins_sharded`], a group
/// for [`goertzel_bins_each`]); `None` if a sample is NaN or ∞.
fn interleaved_bins<const T: usize, const B: usize>(
    signals: [&[f64]; T],
    bins: [usize; B],
) -> Option<[[Complex; B]; T]> {
    let n = signals[0].len();
    let omega = bins.map(|k| std::f64::consts::TAU * k as f64 / n as f64);
    let coeff = omega.map(|w| 2.0 * w.cos());
    let signals = signals.map(|x| &x[..n]);
    // Bin-major states: for each bin, the T signals' recurrences sit
    // side by side, which the compiler can pack into vector lanes.
    let mut s_prev = [[0.0f64; T]; B];
    let mut s_prev2 = [[0.0f64; T]; B];
    let mut finite = [true; T];
    // `i` indexes every signal, not `signals` itself.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let samples: [f64; T] = std::array::from_fn(|t| signals[t][i]);
        for (finite, sample) in finite.iter_mut().zip(&samples) {
            *finite &= sample.is_finite();
        }
        for ((prev, prev2), c) in s_prev.iter_mut().zip(&mut s_prev2).zip(coeff) {
            for ((p, p2), sample) in prev.iter_mut().zip(prev2).zip(&samples) {
                let s = sample + c * *p - *p2;
                *p2 = *p;
                *p = s;
            }
        }
    }
    finite.iter().all(|&f| f).then(|| {
        std::array::from_fn(|t| {
            std::array::from_fn(|b| finish(s_prev[b][t], s_prev2[b][t], omega[b]))
        })
    })
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
        // A non-finite signal with a later bin out of range: the per-bin
        // sequence fails on the first bin's finiteness check.
        let faults: [(&[f64], [usize; 3]); 6] = [
            (&[], [1, 4, 28]),
            (&paper_like(97), [4, 97, 28]),
            (&nan, [1, 4, 28]),
            (&nan, [4, 97, 28]),
            (&nan, [97, 4, 28]),
            (&[], [97, 4, 28]),
        ];
        for (x, bins) in faults {
            let mut tally = 0;
            let err = goertzel_bins_sharded(x, bins, &mut tally).unwrap_err();
            assert_eq!(err, per_bin(x, &bins).unwrap_err(), "{bins:?}");
            assert_eq!(tally, 0, "{bins:?}: a failed batch counts nothing");
        }
    }

    #[test]
    fn each_signal_matches_its_own_batch() {
        // Groups that interleave (equal lengths, all finite, bins in
        // range) and groups that cannot: every result, error and
        // evaluation count must be the per-signal batch's.
        let good: Vec<Vec<f64>> = (0..4)
            .map(|t| paper_like(4_032).iter().map(|v| v - t as f64).collect())
            .collect();
        let shifted: Vec<Vec<f64>> = (0..4)
            .map(|t| {
                paper_like(97)
                    .iter()
                    .map(|v| v * (t as f64 + 0.5))
                    .collect()
            })
            .collect();
        let mut nan = shifted.clone();
        nan[2][40] = f64::NAN;
        let mut ragged = shifted.clone();
        ragged[1].pop();
        let mut empty = shifted.clone();
        empty[3].clear();
        let groups = [&good, &shifted, &nan, &ragged, &empty];
        for bins in [[4, 28, 56], [1, 4, 96], [4, 97, 28]] {
            for group in groups {
                let signals: [&[f64]; 4] = std::array::from_fn(|t| group[t].as_slice());
                let mut tally = 7;
                let got = goertzel_bins_each(signals, bins, &mut tally);
                let mut want_tally = 7;
                for (t, got) in got.iter().enumerate() {
                    let want = goertzel_bins_sharded(signals[t], bins, &mut want_tally);
                    match (got, &want) {
                        (Ok(got), Ok(want)) => {
                            for (a, b) in got.iter().zip(want) {
                                assert_eq!(a.re.to_bits(), b.re.to_bits(), "{bins:?} signal {t}");
                                assert_eq!(a.im.to_bits(), b.im.to_bits(), "{bins:?} signal {t}");
                            }
                        }
                        _ => assert_eq!(got, &want, "{bins:?} signal {t}"),
                    }
                }
                assert_eq!(tally, want_tally, "{bins:?}");
            }
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
