//! Offline stand-in for the part of `rand` 0.8 the recdp input
//! generators use: `SmallRng::seed_from_u64`, `Rng::gen_range` over
//! half-open ranges and `Rng::gen_bool`. The generator is xoshiro256++
//! seeded through SplitMix64, as the published `SmallRng` is on 64-bit
//! targets, but range sampling is simpler, so the generated inputs are
//! deterministic per seed without matching the published crate's
//! streams. The benchmark patches it in because the sandbox has no
//! crate registry; see `perf/README.md`.

use std::ops::Range;

/// Source of random 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `Rng::gen_range` can draw uniformly from a half-open range.
pub trait SampleUniform: Sized {
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

/// A range `Rng::gen_range` can sample from. One blanket impl, as in
/// the published crate, so that an untyped `0..4` takes its type from
/// where the result is used.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(self, rng)
    }
}

/// A uniform double in `[0, 1)` from the top 53 bits of a word.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(range: Range<f64>, rng: &mut R) -> f64 {
        assert!(range.start < range.end, "cannot sample empty range");
        range.start + (range.end - range.start) * unit_f64(rng.next_u64())
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(range: Range<$t>, rng: &mut R) -> $t {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Multiply-shift maps a word onto [0, span) with a bias
                // below 2^-32 for the small spans the generators use.
                let offset = (u128::from(rng.next_u64()) * span) >> 64;
                (range.start as i128 + offset as i128) as $t
            }
        }
    )*};
}
int_range!(i32, i64, u32, u64, usize);

/// The sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p is a probability");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
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

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            let x: f64 = a.gen_range(0.1..1.0);
            assert_eq!(x.to_bits(), b.gen_range(0.1..1.0f64).to_bits());
            assert!((0.1..1.0).contains(&x));
            let i = a.gen_range(1..100);
            assert_eq!(i, b.gen_range(1..100));
            assert!((1..100).contains(&i));
            let u: usize = a.gen_range(0..4);
            assert_eq!(u, b.gen_range(0..4usize));
            seen[u] = true;
            assert_eq!(a.gen_bool(0.35), b.gen_bool(0.35));
        }
        assert_eq!(seen, [true; 4]);
        assert_ne!(
            SmallRng::seed_from_u64(1).gen_range(0..u64::MAX),
            SmallRng::seed_from_u64(2).gen_range(0..u64::MAX)
        );
    }

    #[test]
    fn gen_bool_tracks_its_probability() {
        let mut r = SmallRng::seed_from_u64(7);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.35)).count();
        assert!((3200..3800).contains(&hits), "{hits}");
    }
}
