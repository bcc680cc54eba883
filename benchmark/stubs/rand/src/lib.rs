//! Stand-in for the `rand` crate: a seeded, deterministic generator behind
//! rand 0.8's `Rng` / `SeedableRng` / `Distribution` names. Only the surface
//! this repository uses. The streams differ from the real crate's; every
//! consumer here only needs them to repeat for a seed.

use std::ops::{Range, RangeInclusive};

/// Source of random words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// A generator whose stream is a function of `seed` alone.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Convenience sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the type's standard distribution (integers: all
    /// values; floats: `[0, 1)`).
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    /// A value uniform over `range`. Panics on an empty range.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// A value from `distr`.
    fn sample<T, D: distributions::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// One value uniform over the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let unit: $t = rng.gen();
                let v = self.start + (self.end - self.start) * unit;
                // Rounding can land on the excluded end.
                if v < self.end { v } else { self.start }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "empty range");
                let unit: $t = rng.gen();
                start + (end - start) * unit
            }
        }
    )*};
}
float_ranges!(f32, f64);

pub mod distributions {
    //! The `Distribution` trait and the `Standard` distribution.
    use super::{Rng, RngCore};

    /// Types that can produce values of `T` from a generator.
    pub trait Distribution<T> {
        /// One value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    impl<T, D: Distribution<T> + ?Sized> Distribution<T> for &D {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
            (**self).sample(rng)
        }
    }

    /// Integers over their whole range, floats over `[0, 1)`, fair bools.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    macro_rules! standard_ints {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    RngCore::next_u64(rng) as $t
                }
            }
        )*};
    }
    standard_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (RngCore::next_u64(rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (RngCore::next_u64(rng) >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            RngCore::next_u64(rng) >> 63 == 1
        }
    }
}

pub mod rngs {
    //! The one generator: xoshiro256** seeded through SplitMix64.
    use super::{RngCore, SeedableRng};

    /// A deterministic generator (not the real crate's ChaCha stream).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}
