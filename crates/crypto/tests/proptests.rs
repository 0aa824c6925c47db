//! Property-based tests for the cryptographic substrate.

use adlp_crypto::bignum::Montgomery;
use adlp_crypto::sha256::{sha256, sha256_portable, Sha256};
use adlp_crypto::{pkcs1, BigUint, RsaKeyPair};
use proptest::prelude::*;
use rand::SeedableRng;

fn arb_biguint(max_bytes: usize) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..=max_bytes).prop_map(|b| BigUint::from_bytes_be(&b))
}

/// The value of little-endian limbs.
fn from_limbs(limbs: &[u64]) -> BigUint {
    let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
    BigUint::from_bytes_be(&bytes)
}

/// An odd modulus of 1–17 or 32 limbs whose top `ones` limbs (0–3) are
/// all-ones: the carries are maximal there and the final subtraction is
/// taken most often. The widths cover the kernel's specialised ones (4, 8,
/// 16), a width on each side of each, and the 32-limb RSA-2048 modulus.
fn arb_modulus() -> impl Strategy<Value = BigUint> {
    (
        prop_oneof![1usize..=17, Just(32)],
        0usize..=3,
        proptest::collection::vec(any::<u64>(), 32),
    )
        .prop_map(|(len, ones, mut limbs)| {
            limbs.truncate(len);
            for top in limbs.iter_mut().rev().take(ones) {
                *top = u64::MAX;
            }
            // A non-zero top limb and n > 1, then odd.
            if let Some(top) = limbs.last_mut() {
                *top |= 2;
            }
            if let Some(low) = limbs.first_mut() {
                *low |= 1;
            }
            from_limbs(&limbs)
        })
}

/// An exponent of exactly `bits` bits (zero for 0) cut from random limbs.
fn exponent(limbs: &[u64], bits: usize) -> BigUint {
    let mut e = &from_limbs(limbs) >> (limbs.len() * 64).saturating_sub(bits);
    if bits > 0 {
        e.set_bit(bits - 1);
    }
    e
}

/// A base in one of four shapes: 0, n − 1, n + r (≥ n) or r of any size.
fn base(kind: usize, n: &BigUint, r: &BigUint) -> BigUint {
    match kind {
        0 => BigUint::zero(),
        1 => n - &BigUint::one(),
        2 => n + r,
        _ => r.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let v = BigUint::from_bytes_be(&bytes);
        let out = v.to_bytes_be();
        // Round-trips modulo leading zeros.
        let trimmed: Vec<u8> = bytes.iter().copied().skip_while(|&b| b == 0).collect();
        prop_assert_eq!(out, trimmed);
    }

    #[test]
    fn hex_roundtrip(v in arb_biguint(64)) {
        prop_assert_eq!(BigUint::from_hex(&v.to_hex()).unwrap(), v);
    }

    #[test]
    fn add_commutative(a in arb_biguint(96), b in arb_biguint(96)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in arb_biguint(64), b in arb_biguint(64), c in arb_biguint(64)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutative(a in arb_biguint(96), b in arb_biguint(96)) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes(a in arb_biguint(48), b in arb_biguint(48), c in arb_biguint(48)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn sub_inverts_add(a in arb_biguint(96), b in arb_biguint(96)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn div_rem_identity(a in arb_biguint(128), b in arb_biguint(64)) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b).unwrap();
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn shifts_are_mul_div_by_powers(a in arb_biguint(64), s in 0usize..200) {
        let two_s = BigUint::one() << s;
        prop_assert_eq!(&a << s, &a * &two_s);
        let (q, _) = a.div_rem(&two_s).unwrap();
        prop_assert_eq!(&a >> s, q);
    }

    #[test]
    fn square_matches_mul(a in arb_biguint(96)) {
        prop_assert_eq!(a.square(), &a * &a);
    }

    /// Product-sized moduli and exponents of 0–1,024 bits, plus 63, 64 and
    /// 65 bits on every case: the switch from 1-bit to 4-bit windows.
    #[test]
    fn montgomery_matches_plain_modpow(
        m in arb_modulus(),
        bits in prop_oneof![Just(63usize), Just(64), Just(65), 0usize..=1024],
        exp_limbs in proptest::collection::vec(any::<u64>(), 16),
        kind in 0usize..4,
        r in proptest::collection::vec(any::<u64>(), 0..=33),
    ) {
        let mont = Montgomery::new(&m).unwrap();
        let base = base(kind, &m, &from_limbs(&r));
        for bits in [bits, 63, 64, 65] {
            let exp = exponent(&exp_limbs, bits);
            let (got, want) = (mont.mod_pow(&base, &exp), base.mod_pow_plain(&exp, &m));
            prop_assert!(got == want, "{bits}-bit exponent: {got:?} != {want:?}");
        }
    }

    #[test]
    fn montgomery_mul_matches_plain(
        m in arb_modulus(),
        kinds in (0usize..4, 0usize..4),
        a in proptest::collection::vec(any::<u64>(), 0..=33),
        b in proptest::collection::vec(any::<u64>(), 0..=33),
    ) {
        let mont = Montgomery::new(&m).unwrap();
        let a = base(kinds.0, &m, &from_limbs(&a));
        let b = base(kinds.1, &m, &from_limbs(&b));
        prop_assert_eq!(mont.mul(&a, &b), (&a * &b).div_rem(&m).unwrap().1);
    }

    #[test]
    fn mod_inverse_is_inverse(a in arb_biguint(31)) {
        // 2^255 - 19, a known prime; a < 2^248 < m, so gcd(a, m) = 1 for
        // every non-zero a.
        let m = BigUint::from_hex(
            "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed",
        ).unwrap();
        prop_assume!(!a.is_zero());
        let inv = a.mod_inverse(&m).unwrap();
        prop_assert_eq!((&a * &inv).div_rem(&m).unwrap().1, BigUint::one());
    }

    #[test]
    fn gcd_divides_both(a in arb_biguint(32), b in arb_biguint(32)) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = a.gcd(&b);
        prop_assert!(a.div_rem(&g).unwrap().1.is_zero());
        prop_assert!(b.div_rem(&g).unwrap().1.is_zero());
    }

    /// Whatever kernel this CPU runs, any 0–8 KiB input fed in up to five
    /// updates hashes to the portable kernel's one-shot digest.
    #[test]
    fn sha256_any_splits_equal_the_portable_oneshot(data in proptest::collection::vec(any::<u8>(), 0..8192), cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..5)) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Sha256::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([data.len()]) {
            h.update(&data[from..cut]);
            from = cut;
        }
        let oracle = sha256_portable(&data);
        prop_assert_eq!(h.finalize(), oracle);
        prop_assert_eq!(sha256(&data), oracle);
    }

    #[test]
    fn sha256_distinct_for_prefix_flip(mut data in proptest::collection::vec(any::<u8>(), 1..512), idx in any::<prop::sample::Index>()) {
        let original = sha256(&data);
        let i = idx.index(data.len());
        data[i] ^= 0xff;
        prop_assert_ne!(sha256(&data), original);
    }
}

proptest! {
    // Signing with real keys is costly; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pkcs1_sign_verify(message in proptest::collection::vec(any::<u8>(), 0..1024), seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let sig = pkcs1::sign(kp.private_key(), &message).unwrap();
        prop_assert!(pkcs1::verify(kp.public_key(), &message, &sig));
        // Any bit flip in the message must invalidate the signature.
        if !message.is_empty() {
            let mut tampered = message.clone();
            tampered[0] ^= 1;
            prop_assert!(!pkcs1::verify(kp.public_key(), &tampered, &sig));
        }
    }

    #[test]
    fn rsa_raw_roundtrip(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kp = RsaKeyPair::generate(256, &mut rng);
        let m = BigUint::random_below(kp.public_key().modulus(), &mut rng);
        let s = kp.private_key().raw_sign(&m).unwrap();
        prop_assert_eq!(kp.public_key().raw_verify(&s).unwrap(), m);
    }
}

/// CRT signing equals `m^d mod n` at RSA-2048: 16-limb primes on the
/// unrolled product, a 32-limb modulus on the slice one, and the signature
/// verifies back to `m`.
#[test]
fn crt_matches_no_crt_at_2048_bits() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2048);
    let kp = RsaKeyPair::generate(2048, &mut rng);
    for _ in 0..3 {
        let m = BigUint::random_below(kp.public_key().modulus(), &mut rng);
        let s = kp.private_key().raw_sign(&m).unwrap();
        assert_eq!(s, kp.private_key().raw_sign_no_crt(&m).unwrap());
        assert_eq!(kp.public_key().raw_verify(&s).unwrap(), m);
    }
}
