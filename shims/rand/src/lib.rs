//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this shim
//! provides the (small) subset of the `rand 0.8` API the workspace
//! actually uses: [`SeedableRng::seed_from_u64`], [`Rng::gen_range`],
//! [`Rng::gen`], and [`rngs::StdRng`].
//!
//! [`rngs::StdRng`] here is xoshiro256\*\* seeded through SplitMix64 —
//! a different stream than upstream `StdRng` (ChaCha12), but with the
//! same contract the workspace relies on: deterministic for a given
//! seed, uniform, and fast. Every consumer seeds explicitly via
//! `seed_from_u64`, so cross-crate reproducibility is preserved.

#![forbid(unsafe_code)]

/// A value that can be sampled uniformly from a range.
pub trait SampleUniform: Sized {
    /// Draws one value in `[low, high)` from `rng`.
    fn sample_half_open(rng: &mut rngs::StdRng, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open(rng: &mut rngs::StdRng, low: Self, high: Self) -> Self {
                assert!(low < high, "gen_range called with empty range");
                let span = (high as u128).wrapping_sub(low as u128) as u128;
                // Rejection sampling over the top 64 bits keeps the
                // draw unbiased for every span that fits in u64.
                let span64 = span as u64;
                let zone = u64::MAX - (u64::MAX - span64 + 1) % span64;
                loop {
                    let x = rng.next_u64();
                    if x <= zone {
                        return low.wrapping_add((x % span64) as $t);
                    }
                }
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_half_open(rng: &mut rngs::StdRng, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range called with empty range");
        low + (high - low) * rng.next_f64()
    }
}

impl SampleUniform for f32 {
    fn sample_half_open(rng: &mut rngs::StdRng, low: Self, high: Self) -> Self {
        assert!(low < high, "gen_range called with empty range");
        low + (high - low) * rng.next_f64() as f32
    }
}

/// A range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample(self, rng: &mut rngs::StdRng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample(self, rng: &mut rngs::StdRng) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

macro_rules! impl_sample_range_inclusive_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut rngs::StdRng) -> $t {
                let (low, high) = self.into_inner();
                if low == high {
                    return low;
                }
                if high < <$t>::MAX {
                    <$t>::sample_half_open(rng, low, high + 1)
                } else if low > <$t>::MIN {
                    <$t>::sample_half_open(rng, low - 1, high).wrapping_add(1)
                } else {
                    // Full domain: every u64 draw maps onto it.
                    rng.next_u64() as $t
                }
            }
        }
    )*};
}

impl_sample_range_inclusive_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A value [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn draw(rng: &mut rngs::StdRng) -> Self;
}

impl Standard for f64 {
    fn draw(rng: &mut rngs::StdRng) -> Self {
        rng.next_f64()
    }
}

impl Standard for f32 {
    fn draw(rng: &mut rngs::StdRng) -> Self {
        rng.next_f64() as f32
    }
}

impl Standard for u64 {
    fn draw(rng: &mut rngs::StdRng) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw(rng: &mut rngs::StdRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn draw(rng: &mut rngs::StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The subset of `rand::Rng` the workspace uses.
pub trait Rng {
    /// Uniform draw from a range (`low..high` or `low..=high`).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;

    /// Uniform draw over the value's full/unit domain
    /// (`[0, 1)` for floats).
    fn gen<T: Standard>(&mut self) -> T;

    /// Bernoulli draw.
    fn gen_bool(&mut self, p: f64) -> bool;
}

impl Rng for rngs::StdRng {
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// The subset of `rand::SeedableRng` the workspace uses.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng::from_u64_seed(seed)
    }
}

/// Concrete generators.
pub mod rngs {
    /// Deterministic xoshiro256\*\* generator (the shim's `StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        /// Expands a 64-bit seed into the full state with SplitMix64,
        /// the initialisation recommended by the xoshiro authors.
        pub(crate) fn from_u64_seed(seed: u64) -> Self {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }

        /// Next raw 64 bits.
        #[inline]
        pub(crate) fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform in `[0, 1)` with 53 bits of precision.
        #[inline]
        pub(crate) fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 4);
    }

    #[test]
    fn ranges_respected() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.5f64..4.5);
            assert!((-2.5..4.5).contains(&f));
            let i = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&i));
        }
    }

    #[test]
    fn float_draws_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn the_first_draws_of_two_seeds_are_pinned() {
        // Every synthetic city is drawn from this stream: a change to
        // the generator, its seeding or a range mapping redraws them
        // all, so the first draws are fixed here literally.
        for (seed, raw, unit, index) in [
            (
                42,
                [
                    0x1578_0b2e_0c2e_c716,
                    0x6104_d986_6d11_3a7e,
                    0xae17_5332_39e4_99a1,
                ],
                [
                    0x3fed_9715_a8e0_766c,
                    0x3fef_bcdb_8ffc_5d8b,
                    0x3fe8_a1b4_a620_2f2a,
                ],
                [5_554, 3_207, 5_758],
            ),
            (
                11,
                [
                    0x3928_7fc2_6939_a7df,
                    0x1654_fe5f_5c55_a081,
                    0x3ec9_6828_4636_14ad,
                ],
                [
                    0x3fdc_66cf_2bb3_9254,
                    0x3fb5_d312_ce90_6007,
                    0x3fd3_a082_5450_668d,
                ],
                [187, 7_065, 985],
            ),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let raw_draws: [u64; 3] = std::array::from_fn(|_| rng.gen());
            let unit_draws: [u64; 3] =
                std::array::from_fn(|_| rng.gen_range(f64::EPSILON..1.0).to_bits());
            let index_draws: [usize; 3] = std::array::from_fn(|_| rng.gen_range(0usize..9_600));
            assert_eq!(raw_draws, raw, "seed {seed}: next_u64");
            assert_eq!(unit_draws, unit, "seed {seed}: f64 range");
            assert_eq!(index_draws, index, "seed {seed}: integer range");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits {hits}");
    }
}
