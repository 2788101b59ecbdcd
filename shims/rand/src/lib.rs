//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the thin slice of the `rand 0.8` API it actually uses: a seedable
//! deterministic generator (`StdRng::seed_from_u64`) plus `Rng::gen_range`
//! over half-open integer ranges. The generator is splitmix64 — good
//! enough statistical quality for test fuzzing and benchmark workloads,
//! and fully reproducible from the seed.

use std::ops::Range;

/// Core RNG trait: anything that can emit uniform `u64`s.
pub trait RngCore {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of RNGs from seeds.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed; identical seeds yield
    /// identical streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// High-level sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from a half-open `low..high` range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }
}

impl<R: RngCore> Rng for R {}

/// Types uniformly samplable from a `Range`.
pub trait SampleUniform: Copy {
    /// Samples uniformly from `range` (panics on an empty range, matching
    /// real `rand`).
    fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! impl_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                let v = ((rng.next_u64() as u128) % span) as i128;
                (range.start as i128 + v) as $t
            }
        }
    )*};
}

impl_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Named RNG implementations, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic splitmix64 generator standing in for `rand`'s
    /// `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1000u32), b.gen_range(0..1000u32));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(0..10usize);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
        for _ in 0..1000 {
            let v = rng.gen_range(-5..5i64);
            assert!((-5..5).contains(&v));
        }
    }
}
