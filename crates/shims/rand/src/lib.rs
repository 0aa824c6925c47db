//! Offline stand-in for the `rand` crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors the *small* slice of the `rand` API it actually
//! uses: [`RngCore`], [`SeedableRng`], and a deterministic [`rngs::StdRng`].
//! The generator is xoshiro256++ seeded through SplitMix64 — high-quality,
//! fast, and fully reproducible across platforms, which is all the
//! deterministic tests and experiment harnesses here need. It is **not**
//! the upstream ChaCha-based `StdRng` and produces a different stream for
//! the same seed.

// Called from the protocol crates, so held to their panic lints (paper
// Lemma 2 — a panicking component is indistinguishable from a hiding one).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// A source of random bits, mirroring `rand::RngCore`.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator constructible from a seed, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array for [`rngs::StdRng`]).
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a 64-bit seed (the only constructor this
    /// workspace uses).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64 { state };
        for chunk in seed.as_mut().chunks_mut(8) {
            for (dst, src) in chunk.iter_mut().zip(sm.next().to_le_bytes()) {
                *dst = src;
            }
        }
        Self::from_seed(seed)
    }
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator standing in for `rand`'s
    /// `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn rotl(x: u64, k: u32) -> u64 {
            x.rotate_left(k)
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = Self::rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = Self::rotl(self.s[3], 45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                for (dst, src) in chunk.iter_mut().zip(self.next_u64().to_le_bytes()) {
                    *dst = src;
                }
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (word, bytes) in s.iter_mut().zip(seed.as_chunks::<8>().0) {
                *word = u64::from_le_bytes(*bytes);
            }
            // All-zero state is the one degenerate case for xoshiro.
            if s == [0, 0, 0, 0] {
                s = [0x9e37_79b9_7f4a_7c15, 1, 2, 3];
            }
            StdRng { s }
        }
    }
}

/// Convenience generator seeded from the system clock (non-reproducible);
/// provided for API compatibility.
pub fn thread_rng() -> rngs::StdRng {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5eed);
    rngs::StdRng::seed_from_u64(nanos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = rngs::StdRng::seed_from_u64(42);
        let mut b = rngs::StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = rngs::StdRng::seed_from_u64(1);
        let mut b = rngs::StdRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = rngs::StdRng::seed_from_u64(7);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn u32_is_not_constant() {
        let mut rng = rngs::StdRng::seed_from_u64(9);
        let a = rng.next_u32();
        let b = rng.next_u32();
        assert!(a != b || rng.next_u32() != a);
    }
}
