//! Probabilistic primality testing (Miller-Rabin) and random prime
//! generation for RSA key material.

use crate::bignum::{BigUint, Montgomery};
use rand::RngCore;

/// Small primes used for cheap trial division before Miller-Rabin.
const SMALL_PRIMES: [u64; 60] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283,
];

/// Number of Miller-Rabin rounds. 40 rounds give a false-positive
/// probability below 2^-80, ample for the simulation's key material.
const MR_ROUNDS: usize = 40;

/// Tests `n` for primality with trial division + Miller-Rabin.
///
/// ```
/// use adlp_crypto::{prime::is_probable_prime, BigUint};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// assert!(is_probable_prime(&BigUint::from_u64(1_000_000_007), &mut rng));
/// assert!(!is_probable_prime(&BigUint::from_u64(1_000_000_008), &mut rng));
/// ```
pub fn is_probable_prime<R: RngCore + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    if n == &BigUint::from_u64(2) {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let pb = BigUint::from_u64(p);
        if n == &pb {
            return true;
        }
        if n.div_rem_u64(p).1 == 0 {
            return false;
        }
    }
    miller_rabin(n, MR_ROUNDS, rng)
}

/// Miller-Rabin with `rounds` random bases. `n` must be odd and > 2.
///
/// Each round stays in Montgomery form: `x ↦ x·R mod n` is a bijection on
/// `[0, n)`, so `x = ±1` is tested on the forms and a squaring is one
/// product.
fn miller_rabin<R: RngCore + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let one = BigUint::one();
    let n_minus_1 = n - &one;
    let s = n_minus_1.trailing_zeros();
    let d = &n_minus_1 >> s;
    // Callers guarantee n odd and > 3 (after the small-prime sieve); treat
    // any contract violation as "not prime" rather than panicking.
    let Ok(mont) = Montgomery::new(n) else {
        return false;
    };
    let plus_one = mont.to_mont(&one);
    let minus_one = mont.to_mont(&n_minus_1);
    let mut scratch = vec![0u64; minus_one.len()];

    let two = BigUint::from_u64(2);
    let Some(span) = n_minus_1.checked_sub(&two) else {
        return false;
    };
    'witness: for _ in 0..rounds {
        // a ∈ [2, n-2]
        let a = &BigUint::random_below(&span, rng) + &two;
        let mut x = mont.pow_mont(&a, &d);
        if x == plus_one || x == minus_one {
            continue;
        }
        for _ in 1..s {
            square(&mont, &mut x, &mut scratch);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// `x ← x² mod n` on a Montgomery form, through `scratch`.
fn square(mont: &Montgomery, x: &mut Vec<u64>, scratch: &mut Vec<u64>) {
    mont.mont_mul(scratch, x, x);
    std::mem::swap(x, scratch);
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// The two top bits are set (standard RSA practice, ensuring the product of
/// two such primes has the full target width).
///
/// # Panics
///
/// Panics if `bits < 8`.
pub fn random_prime<R: RngCore + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime width too small");
    loop {
        let mut candidate = BigUint::random_bits(bits, rng);
        candidate.set_bit(0); // odd
        candidate.set_bit(bits - 2); // top two bits set
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn small_primes_and_composites() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 101, 257, 65537] {
            assert!(is_probable_prime(&BigUint::from_u64(p), &mut r), "{p}");
        }
        for c in [0u64, 1, 4, 9, 15, 21, 100, 65535, 1_000_000_000] {
            assert!(!is_probable_prime(&BigUint::from_u64(c), &mut r), "{c}");
        }
    }

    #[test]
    fn known_large_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let mut r = rng();
        let m127 = (BigUint::one() << 127) - BigUint::one();
        assert!(is_probable_prime(&m127, &mut r));
        // 2^128 - 1 is composite.
        let m128 = (BigUint::one() << 128) - BigUint::one();
        assert!(!is_probable_prime(&m128, &mut r));
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat but not Miller-Rabin.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_probable_prime(&BigUint::from_u64(c), &mut r), "{c}");
        }
    }

    #[test]
    fn a_miller_rabin_squaring_is_one_product() {
        let mut r = rng();
        let n = random_prime(256, &mut r);
        let mont = Montgomery::new(&n).unwrap();
        let v = BigUint::random_below(&n, &mut r);
        let mut x = mont.to_mont(&v);
        let mut scratch = vec![0u64; x.len()];
        let before = Montgomery::products();
        square(&mont, &mut x, &mut scratch);
        assert_eq!(Montgomery::products() - before, 1);
        assert_eq!(x, mont.to_mont(&v.square().rem_internal(&n)));
    }

    #[test]
    fn generated_prime_has_width_and_parity() {
        let mut r = rng();
        for bits in [64usize, 128, 256] {
            let p = random_prime(bits, &mut r);
            assert_eq!(p.bits(), bits);
            assert!(!p.is_even());
            assert!(p.bit(bits - 2), "top two bits set");
        }
    }
}
