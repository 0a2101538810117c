//! The synthesiser's log-normal kernel, built from IEEE-754 operations
//! alone.
//!
//! Every log-normal draw of [`crate::synth`] is the Box–Muller value
//! `exp(σ·√(−2 ln u₁)·cos 2πu₂)`. Evaluated through libm, its three
//! transcendental calls cost most of a tower-bin and their bits depend
//! on the host's libm. Here `ln`, `cos 2π·` and `exp` are fdlibm's
//! algorithms (Sun's `e_log.c`, `k_cos.c`, `k_sin.c` and `e_exp.c`,
//! with their polynomial coefficients) rewritten without branches:
//! each lane runs only `+ − × ÷ √`, selects and bit operations, with
//! no FMA, `mul_add` or libm call. IEEE-754 rounds each of those
//! operations exactly, and Rust never fuses or reorders them, so the
//! value of a draw depends on its uniforms, σ and this code alone —
//! not on the host libm, the instruction set, or the draw's position in
//! a vector.
//!
//! # The lane contract
//!
//! [`lognormal_row`] evaluates one row of draws in one loop, compiled
//! three times ([`Isa`]): a portable reference and AVX2 and AVX-512F
//! instantiations picked at run time. The vectoriser
//! may only change how many lanes run at once, not an operation, so
//! every instantiation returns the reference's bits (a test pins this
//! over 10⁶ draws and the reduction edges).
//!
//! # Exact reductions
//!
//! * `ln x`: `x = 2ᵏ·(1 + f)` with `1 + f ∈ [√2/2, √2)`, read off the
//!   bits (subnormals are first scaled by 2⁵⁴); k is formed as an exact
//!   small-integer `f64` from the exponent field.
//! * `cos 2πu`: `n = round(4u)` and `r = u − n/4`, both exact for
//!   `u ∈ [0, 1)`, leave `|r| ≤ 1/8`; the quadrant `n mod 4` picks
//!   `±cos` or `±sin` of `x = fl(2π·r) ∈ [−π/4, π/4]`, the one rounded
//!   step, worth under 10⁻¹⁶ absolute.
//! * `exp x`: fdlibm's Cody–Waite split `x = k·ln 2 + (hi − lo)` with
//!   `k = round(x/ln 2)` from the 1.5·2⁵² shifter, and the scale `2ᵏ`
//!   applied as two exact powers `2^k₁·2^k₂`, so a result that
//!   underflows is rounded once and one that overflows becomes `+∞`.
//!
//! # Domains and accuracy
//!
//! Measured against glibc on the synthesiser's domains (tests pin the
//! bounds): [`ln`] is within 1 ulp of `f64::ln` on `(0, 1)`, [`exp`]
//! within 1 ulp of `f64::exp` wherever its result is normal
//! (`|x| ≤ 708.39`), and [`cos_2pi`] within 10⁻¹⁵ of `(TAU·u).cos()`
//! (6.4·10⁻¹⁶ at worst over 2²² draws). Over 2²² seeded draws a
//! per-bin draw (σ = 0.06) lands within 2 ulp of the libm composition,
//! a day factor (σ = 0.02) within 1 ulp and the tower scale (σ = 0.8,
//! whose argument amplifies the difference in rounding) within 18 ulp.
//! σ = 0 yields exactly 1: `exp(±0)` is exactly 1 here.
//!
//! Outside that range `exp` is still defined: `+∞` above 709.78, a
//! once-rounded subnormal down to −745.13 and `+0` below, `NaN` for
//! `NaN`. A draw reaches it only with σ above about 83, since
//! `|√(−2 ln u₁)| ≤ √(−2 ln ε) ≈ 8.49`.

/// 1.5·2⁵²: adding it to `|v| < 2⁵¹` rounds `v` to an integer held in
/// the sum's low mantissa bits; subtracting it back is exact.
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// 2⁵², the `f64` whose low mantissa bits read as an integer.
const TWO52: f64 = 4_503_599_627_370_496.0;
const TWO54: f64 = 18_014_398_509_481_984.0;
const TAU: f64 = std::f64::consts::TAU;

/// ln 2 split so that `k·LN2_HI` is exact for `|k| < 2¹¹` (e_log.c,
/// e_exp.c).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);

/// e_log.c: `ln(1 + f) = 2s + s·R(s²)`, `s = f/(2 + f)`.
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

/// k_cos.c on `[−π/4, π/4]`.
const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);

/// k_sin.c on `[−π/4, π/4]`.
const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);

/// e_exp.c: `exp(r) = 1 + r + r·c/(2 − c)` on `|r| ≤ ln2/2`.
const P1: f64 = f64::from_bits(0x3fc5_5555_5555_553e);
const P2: f64 = f64::from_bits(0xbf66_c16c_16be_bd93);
const P3: f64 = f64::from_bits(0x3f11_566a_af25_de2c);
const P4: f64 = f64::from_bits(0xbebb_bd41_c5d2_6bf1);
const P5: f64 = f64::from_bits(0x3e66_3769_72be_a4d0);

/// `exp` clamps its argument to this range before reducing it, which
/// keeps `k` within the two-step scale's exponents; both ends already
/// give `+∞` and `+0`.
const EXP_MAX: f64 = 710.0;
const EXP_MIN: f64 = -746.0;

/// Natural logarithm of a positive finite `x`: fdlibm's `e_log.c`
/// without branches (its `|f| < 2⁻²⁰` shortcut is folded into the
/// general formula, which is as accurate there). The synthesiser calls
/// it on `[ε, 1)`; other inputs give an unspecified value.
#[inline(always)]
fn ln(x: f64) -> f64 {
    let subnormal = x < f64::MIN_POSITIVE;
    let x = if subnormal { x * TWO54 } else { x };
    let bits = x.to_bits();
    // The top 20 mantissa bits decide the normalisation: from √2 up,
    // 1 + f is taken as x/2ᵏ⁺¹ ∈ [√2/2, 1).
    let hx = (bits >> 32) & 0x000f_ffff;
    let halve = hx >= 0x6_a09c;
    let exponent = if halve { 0x3fe } else { 0x3ff };
    let f = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (exponent << 52)) - 1.0;
    // k as an exact f64: the biased exponent read through 2⁵², less
    // 1023, plus the halving and the subnormal scaling.
    let biased = f64::from_bits(TWO52.to_bits() | (bits >> 52)) - TWO52;
    let dk = (biased - 1023.0) + if halve { 1.0 } else { 0.0 } - if subnormal { 54.0 } else { 0.0 };

    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    // e_log.c keeps ½f² apart where |f| is largest (the top 20
    // mantissa bits in 0x6147a..=0x6b851).
    let hfsq = 0.5 * f * f;
    let wide = dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f);
    let narrow = dk * LN2_HI - ((s * (f - r) - dk * LN2_LO) - f);
    if (0x6_147a..=0x6_b851).contains(&hx) {
        wide
    } else {
        narrow
    }
}

/// `cos(2πu)` for `u ∈ [0, 1)`: an exact reduction to `|r| ≤ 1/8`, then
/// fdlibm's `k_cos.c` or `k_sin.c` at `x = fl(2πr)` by quadrant.
#[inline(always)]
fn cos_2pi(u: f64) -> f64 {
    let t = 4.0 * u + SHIFT;
    let r = u - 0.25 * (t - SHIFT);
    let quadrant = t.to_bits() & 3;
    let x = r * TAU;

    let z = x * x;
    let w = z * z;
    let rc = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_hz = 1.0 - hz;
    let cos = one_hz + (((1.0 - one_hz) - hz) + z * rc);
    let rs = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = x + z * x * (S1 + z * rs);

    // cos(x + qπ/2) is cos x, −sin x, −cos x, sin x for q = 0..3.
    let v = if quadrant & 1 == 0 { cos } else { sin };
    if (quadrant + 1) & 2 == 0 {
        v
    } else {
        -v
    }
}

/// `eˣ`: fdlibm's `e_exp.c` without branches, its `|x| ≤ ln2/2` and
/// `|x| < 2⁻²⁸` cases folded into the general reduction (at `k = 0` the
/// formulas agree). Defined on every `f64`; see the module docs.
#[inline(always)]
fn exp(x: f64) -> f64 {
    let x = x.clamp(EXP_MIN, EXP_MAX);
    let t = x * INV_LN2 + SHIFT;
    let k = t - SHIFT;
    let hi = x - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P1 + rr * (P2 + rr * (P3 + rr * (P4 + rr * P5))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // 2ᵏ as 2^k₁·2^k₂ with k₁ = round(k/2): both stay normal for
    // |k| ≤ 1076, and y·2^k₁ is exact.
    let t1 = k * 0.5 + SHIFT;
    let t2 = (k - (t1 - SHIFT)) + SHIFT;
    y * pow2(t1) * pow2(t2)
}

/// `2ⁿ` for the integer `n` a [`SHIFT`]ed sum holds, `−1022 ≤ n ≤ 1023`.
#[inline(always)]
fn pow2(shifted: f64) -> f64 {
    f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52)
}

/// One Box–Muller log-normal draw with median 1:
/// `exp(σ·√(−2 ln u₁)·cos 2πu₂)`, for `u₁ ∈ (0, 1)` and `u₂ ∈ [0, 1)`.
#[inline(always)]
pub(crate) fn lognormal(u1: f64, u2: f64, sigma: f64) -> f64 {
    let z = (-2.0 * ln(u1)).sqrt() * cos_2pi(u2);
    exp(sigma * z)
}

/// The row loop's instantiations, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Isa {
    /// The reference, for the target's baseline features. What runs
    /// without AVX2; the tests ask for it by name.
    #[cfg_attr(not(test), allow(dead_code))]
    Portable,
    /// x86-64 with AVX2: four lanes.
    Avx2,
    /// x86-64 with AVX-512F: eight lanes.
    Avx512,
}

/// `out[i] = lognormal(u1[i], u2[i], sigma)` over the shortest of the
/// three, on the widest instantiation up to `widest` this CPU runs.
/// Every instantiation returns the portable reference's bits.
pub(crate) fn lognormal_row(widest: Isa, u1: &[f64], u2: &[f64], sigma: f64, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if widest >= Isa::Avx512 && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F was just detected.
            #[allow(unsafe_code)]
            return unsafe { row_avx512(u1, u2, sigma, out) };
        }
        if widest >= Isa::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected.
            #[allow(unsafe_code)]
            return unsafe { row_avx2(u1, u2, sigma, out) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = widest;
    row(u1, u2, sigma, out);
}

/// The row loop every instantiation compiles.
#[inline(always)]
fn row(u1: &[f64], u2: &[f64], sigma: f64, out: &mut [f64]) {
    for ((o, &a), &b) in out.iter_mut().zip(u1).zip(u2) {
        *o = lognormal(a, b, sigma);
    }
}

/// The row loop on eight lanes; callers detect AVX-512F first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn row_avx512(u1: &[f64], u2: &[f64], sigma: f64, out: &mut [f64]) {
    row(u1, u2, sigma, out);
}

/// The row loop on four lanes; callers detect AVX2 first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn row_avx2(u1: &[f64], u2: &[f64], sigma: f64, out: &mut [f64]) {
    row(u1, u2, sigma, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Units in the last place between two finite doubles of one sign.
    fn ulps(a: f64, b: f64) -> u64 {
        assert!(
            a.is_finite() && b.is_finite() && (a == b || a.signum() == b.signum()),
            "{a} vs {b}"
        );
        (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
    }

    /// `n` uniform pairs drawn as the synthesiser draws them.
    fn uniforms(seed: u64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u1 = rng.gen_range(f64::EPSILON..1.0);
                (u1, rng.gen_range(0.0..1.0))
            })
            .unzip()
    }

    /// The edges of both reductions: `u₁ = ε` and `1 − ε` against the
    /// quadrant and octant boundaries of `u₂`, and the other way round.
    fn edges() -> (Vec<f64>, Vec<f64>) {
        let tiny = 2f64.powi(-53);
        let u1s = [f64::EPSILON, 1.0 - f64::EPSILON, 0.5, 0.25];
        let u2s = [0.0, tiny, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0 - tiny];
        u1s.iter()
            .flat_map(|&a| u2s.iter().map(move |&b| (a, b)))
            .unzip()
    }

    /// The libm composition the kernel replaces.
    fn libm_lognormal(u1: f64, u2: f64, sigma: f64) -> f64 {
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (sigma * z).exp()
    }

    #[test]
    fn every_instantiation_returns_the_reference_bits() {
        let (mut u1, mut u2) = uniforms(0x5eed, 1 << 20);
        let (e1, e2) = edges();
        u1.extend(e1);
        u2.extend(e2);
        for sigma in [0.0, 0.02, 0.06, 0.8, -1.5] {
            let mut reference = vec![0.0; u1.len()];
            lognormal_row(Isa::Portable, &u1, &u2, sigma, &mut reference);
            for (i, (&a, &b)) in u1.iter().zip(&u2).enumerate() {
                assert_eq!(lognormal(a, b, sigma).to_bits(), reference[i].to_bits());
            }
            for isa in [Isa::Avx2, Isa::Avx512] {
                // Odd lengths leave each vector loop a remainder.
                for len in [u1.len(), 4_031, 13] {
                    let mut out = vec![0.0; len];
                    lognormal_row(isa, &u1[..len], &u2[..len], sigma, &mut out);
                    for (i, (o, r)) in out.iter().zip(&reference).enumerate() {
                        assert_eq!(
                            o.to_bits(),
                            r.to_bits(),
                            "{isa:?} σ={sigma} u1={} u2={}",
                            u1[i],
                            u2[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ln_is_within_one_ulp_of_libm_on_the_unit_interval() {
        let (mut u1, _) = uniforms(1, 1 << 20);
        // Both normalisation boundaries and e_log.c's formula switch at
        // every exponent, the ends of the domain, and subnormals.
        for e in -1074..0 {
            let p = 2f64.powi(e);
            u1.extend([p, p * std::f64::consts::SQRT_2, p * 1.38, p * 1.42]);
            u1.extend([p.next_up(), p.next_down(), p * 0.707, p * 0.708]);
        }
        u1.extend([f64::EPSILON, 1.0 - f64::EPSILON / 2.0, 0.5, 0.999_999]);
        for &x in u1.iter().filter(|&&x| x > 0.0 && x < 1.0) {
            assert!(
                ulps(ln(x), x.ln()) <= 1,
                "ln({x:e}) = {} vs {}",
                ln(x),
                x.ln()
            );
        }
        assert_eq!(ln(1.0), 0.0);
    }

    #[test]
    fn exp_is_within_one_ulp_of_libm_where_its_result_is_normal() {
        let mut rng = StdRng::seed_from_u64(2);
        // The noise's range (|σz| ≤ 0.8 · 8.49), then the whole range
        // whose results are normal.
        let mut xs: Vec<f64> = (0..1 << 20).map(|_| rng.gen_range(-6.8..6.8)).collect();
        xs.extend((0..1 << 18).map(|_| rng.gen_range(-708.39..709.78)));
        xs.extend([
            0.0,
            -0.0,
            1e-300,
            -1e-300,
            2f64.powi(-28),
            0.3465,
            -0.3465,
            1.0397,
        ]);
        for &x in &xs {
            assert!(
                ulps(exp(x), x.exp()) <= 1,
                "exp({x:e}) = {} vs {}",
                exp(x),
                x.exp()
            );
        }
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
    }

    #[test]
    fn exp_outside_its_normal_range_is_defined() {
        for x in [709.79, 710.0, 800.0, 1e300, f64::INFINITY] {
            assert_eq!(exp(x), f64::INFINITY, "exp({x})");
        }
        for x in [-745.2, -746.0, -1e300, f64::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x})");
        }
        assert!(exp(f64::NAN).is_nan());
        // Gradual underflow: one rounding of y·2ᵏ, within one subnormal
        // step of libm.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100_000 {
            let x = rng.gen_range(-745.13..-708.4);
            assert!(ulps(exp(x), x.exp()) <= 1, "exp({x})");
        }
        // The overflow threshold: the largest x whose exponential is
        // finite, and the next double up.
        let threshold = f64::from_bits(0x4086_2e42_fefa_39ef);
        assert!(ulps(exp(threshold), threshold.exp()) <= 1);
        assert_eq!(exp(threshold.next_up()), f64::INFINITY);
        assert_eq!(threshold.next_up().exp(), f64::INFINITY);
    }

    #[test]
    fn cos_2pi_is_within_1e15_of_libm() {
        let (_, mut u2) = uniforms(4, 1 << 20);
        u2.extend(edges().1);
        for k in 0..=64 {
            let u = k as f64 / 64.0;
            u2.extend([u, u.next_up(), u.next_down()]);
        }
        for &u in u2.iter().filter(|&&u| (0.0..1.0).contains(&u)) {
            let libm = (std::f64::consts::TAU * u).cos();
            assert!((cos_2pi(u) - libm).abs() <= 1e-15, "cos 2π·{u:e}");
        }
        assert_eq!(cos_2pi(0.0), 1.0);
        assert_eq!(cos_2pi(0.5), -1.0);
    }

    #[test]
    fn draws_stay_within_their_ulp_budget_of_the_libm_composition() {
        let (u1, u2) = uniforms(5, 1 << 22);
        let worst = |sigma: f64| {
            u1.iter()
                .zip(&u2)
                .map(|(&a, &b)| ulps(lognormal(a, b, sigma), libm_lognormal(a, b, sigma)))
                .max()
                .unwrap()
        };
        // The per-bin (0.06) and per-day (0.02) σ, then the tower
        // scale's 0.8, which amplifies the difference in the argument's
        // rounding: the measured worst cases over these draws.
        assert_eq!(worst(0.06), 2);
        assert_eq!(worst(0.02), 1);
        assert_eq!(worst(0.8), 18);
    }

    #[test]
    fn zero_sigma_yields_exactly_one() {
        let (mut u1, mut u2) = uniforms(6, 1 << 16);
        let (e1, e2) = edges();
        u1.extend(e1);
        u2.extend(e2);
        let mut out = vec![0.0; u1.len()];
        lognormal_row(Isa::Avx512, &u1, &u2, 0.0, &mut out);
        assert!(out.iter().all(|&v| v == 1.0));
    }
}
