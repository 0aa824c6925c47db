//! RSA key generation and raw RSA operations (RFC 8017 §5), with CRT
//! acceleration for private-key operations.
//!
//! The ADLP prototype uses RSA-1024, producing the 128-byte signatures whose
//! size shows up throughout the paper's Tables III-IV. Key generation here
//! follows standard practice: two random primes with top-two bits set,
//! `e = 65537`, and `d = e^{-1} mod λ(n)` (Carmichael).

mod crt;

use crate::bignum::{BigUint, Montgomery};
use crate::CryptoError;
use crt::CrtHalf;
use rand::RngCore;
use std::fmt;
use std::sync::Arc;

/// The conventional public exponent.
pub const PUBLIC_EXPONENT: u64 = 65537;

/// An RSA public key `(n, e)`.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    mont_n: Arc<Montgomery>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl RsaPublicKey {
    /// Builds a public key from modulus and exponent.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] if `n` is even or trivially small.
    pub fn new(n: BigUint, e: BigUint) -> Result<Self, CryptoError> {
        let mont_n = Montgomery::new(&n).map_err(|_| CryptoError::Malformed("modulus"))?;
        Ok(RsaPublicKey {
            n,
            e,
            mont_n: Arc::new(mont_n),
        })
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus length in whole bytes (128 for RSA-1024).
    pub fn modulus_len(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// Raw RSA verification primitive `RSAVP1`: `s^e mod n`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLarge`] if `s >= n`.
    pub fn raw_verify(&self, s: &BigUint) -> Result<BigUint, CryptoError> {
        if s >= &self.n {
            return Err(CryptoError::MessageTooLarge);
        }
        Ok(self.mont_n.mod_pow(s, &self.e))
    }

    /// Raw RSA encryption primitive `RSAEP` (same math as verification).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLarge`] if `m >= n`.
    pub fn raw_encrypt(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        self.raw_verify(m)
    }

    /// Serializes as `len(n) ‖ n ‖ len(e) ‖ e` (big-endian, u32 lengths).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses the [`Self::to_bytes`] format.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] on truncated or invalid input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let (n_bytes, rest) = take_field(bytes)?;
        let (e_bytes, rest) = take_field(rest)?;
        if !rest.is_empty() {
            return Err(CryptoError::Malformed("public key (trailing bytes)"));
        }
        Self::new(
            BigUint::from_bytes_be(n_bytes),
            BigUint::from_bytes_be(e_bytes),
        )
    }
}

fn take_field(bytes: &[u8]) -> Result<(&[u8], &[u8]), CryptoError> {
    let (len_bytes, rest) = bytes
        .split_at_checked(4)
        .ok_or(CryptoError::Malformed("public key (truncated length)"))?;
    let len = u32::from_be_bytes(
        len_bytes
            .try_into()
            .map_err(|_| CryptoError::Malformed("public key (truncated length)"))?,
    ) as usize;
    rest.split_at_checked(len)
        .ok_or(CryptoError::Malformed("public key (truncated field)"))
}

impl fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("modulus_bits", &self.n.bits())
            .field("e", &self.e)
            .finish()
    }
}

/// An RSA private key with CRT parameters.
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    /// `m ↦ m^dp mod p`, run by the signer.
    half_p: Arc<CrtHalf>,
    /// `m ↦ m^dq mod q`, which a helper thread may run (module `crt`).
    half_q: Arc<CrtHalf>,
    /// `qinv·R mod p`, so one Montgomery product multiplies by `qinv`.
    qinv_mont: Vec<u64>,
}

impl RsaPrivateKey {
    /// Derives the CRT halves and the Montgomery contexts from `(e, d, p, q)`.
    fn from_factors(e: BigUint, d: BigUint, p: BigUint, q: BigUint) -> Result<Self, CryptoError> {
        let half = |r: &BigUint, what| {
            let mont = Montgomery::new(r).map_err(|_| CryptoError::Malformed(what))?;
            let r1 = r
                .checked_sub(&BigUint::one())
                .ok_or(CryptoError::Malformed(what))?;
            Ok::<_, CryptoError>(Arc::new(CrtHalf::new(mont, d.rem_internal(&r1))))
        };
        let qinv = q
            .mod_inverse(&p)
            .map_err(|_| CryptoError::Malformed("private key (qinv)"))?;
        let half_p = half(&p, "private key (p)")?;
        let half_q = half(&q, "private key (q)")?;
        let qinv_mont = half_p.montgomery().to_mont(&qinv);
        let public =
            RsaPublicKey::new(&p * &q, e).map_err(|_| CryptoError::Malformed("private key (n)"))?;
        Ok(RsaPrivateKey {
            public,
            d,
            half_p,
            half_q,
            qinv_mont,
        })
    }

    /// The matching public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Raw RSA signature primitive `RSASP1` using the CRT:
    /// `m1 = m^dp mod p`, `m2 = m^dq mod q`,
    /// `h = qinv (m1 - m2) mod p`, `s = m2 + h q`.
    ///
    /// When this is the only signature in flight in the process and the
    /// host has a second core, `m2` is computed on a helper thread while
    /// the caller computes `m1`; otherwise both run on the caller. The
    /// result is the same either way.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLarge`] if `m >= n`.
    pub fn raw_sign(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        if m >= &self.public.n {
            return Err(CryptoError::MessageTooLarge);
        }
        let (m1, m2) = crt::both_halves(&self.half_p, &self.half_q, m);
        let p = self.half_p.prime();
        let diff = m1.mod_sub(&m2.rem_internal(p), p);
        let h = self.half_p.montgomery().mul_by_mont(&self.qinv_mont, &diff);
        Ok(&m2 + &(&h * self.half_q.prime()))
    }

    /// Raw signature without CRT (`m^d mod n`); used to cross-check CRT and
    /// to benchmark the CRT speedup.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLarge`] if `m >= n`.
    pub fn raw_sign_no_crt(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        if m >= &self.public.n {
            return Err(CryptoError::MessageTooLarge);
        }
        Ok(self.public.mont_n.mod_pow(m, &self.d))
    }

    /// Raw RSA decryption primitive `RSADP` (same math as signing).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLarge`] if `c >= n`.
    pub fn raw_decrypt(&self, c: &BigUint) -> Result<BigUint, CryptoError> {
        self.raw_sign(c)
    }

    /// Serializes the key material (`e ‖ d ‖ p ‖ q`, length-prefixed). The
    /// caller is responsible for protecting the bytes — the paper assumes
    /// "a standard security mechanism is in place to protect the private
    /// key in each component" (§II-A).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let (p, q) = (self.half_p.prime(), self.half_q.prime());
        for field in [&self.public.e, &self.d, p, q] {
            let bytes = field.to_bytes_be();
            out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// Reconstructs a key from [`Self::to_bytes`], recomputing the CRT
    /// parameters and Montgomery contexts.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] for truncated input or
    /// inconsistent key material.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let (e_b, rest) = take_field(bytes)?;
        let (d_b, rest) = take_field(rest)?;
        let (p_b, rest) = take_field(rest)?;
        let (q_b, rest) = take_field(rest)?;
        if !rest.is_empty() {
            return Err(CryptoError::Malformed("private key (trailing bytes)"));
        }
        let e = BigUint::from_bytes_be(e_b);
        let d = BigUint::from_bytes_be(d_b);
        let p = BigUint::from_bytes_be(p_b);
        let q = BigUint::from_bytes_be(q_b);
        if p.is_zero() || q.is_zero() || p.is_one() || q.is_one() || p == q {
            return Err(CryptoError::Malformed("private key (factors)"));
        }
        Self::from_factors(e, d, p, q)
    }
}

impl fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print private material.
        f.debug_struct("RsaPrivateKey")
            .field("modulus_bits", &self.public.n.bits())
            .finish_non_exhaustive()
    }
}

/// A freshly generated RSA key pair.
///
/// # Example
///
/// ```
/// use adlp_crypto::rsa::RsaKeyPair;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let keys = RsaKeyPair::generate(512, &mut rng);
/// assert_eq!(keys.public_key().modulus_len(), 64);
/// ```
#[derive(Debug)]
pub struct RsaKeyPair {
    private: RsaPrivateKey,
}

impl RsaKeyPair {
    /// Generates a key pair with a modulus of exactly `bits` bits.
    ///
    /// The paper's configuration is `bits = 1024`; tests use smaller keys for
    /// speed. Primes are regenerated until `gcd(e, λ(n)) = 1` and the modulus
    /// width is exact.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 32` or `bits` is odd.
    pub fn generate<R: RngCore + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(
            bits >= 32 && bits.is_multiple_of(2),
            "invalid RSA modulus width"
        );
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = crate::prime::random_prime(bits / 2, rng);
            let mut q = crate::prime::random_prime(bits / 2, rng);
            while q == p {
                q = crate::prime::random_prime(bits / 2, rng);
            }
            let n = &p * &q;
            if n.bits() != bits {
                continue;
            }
            let one = BigUint::one();
            let p1 = &p - &one;
            let q1 = &q - &one;
            // λ(n) = lcm(p-1, q-1)
            let g = p1.gcd(&q1);
            // gcd of positive numbers is non-zero; re-draw primes if any of
            // these structurally-guaranteed steps ever fails.
            let Ok((lambda, _)) = (&p1 * &q1).div_rem(&g) else {
                continue;
            };
            let d = match e.mod_inverse(&lambda) {
                Ok(d) => d,
                Err(_) => continue, // e not coprime with λ(n); rare
            };
            let Ok(private) = RsaPrivateKey::from_factors(e.clone(), d, p, q) else {
                continue;
            };
            return RsaKeyPair { private };
        }
    }

    /// The public half.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.private.public
    }

    /// The private half.
    pub fn private_key(&self) -> &RsaPrivateKey {
        &self.private
    }

    /// Consumes the pair, returning the private key (which owns the public).
    pub fn into_private_key(self) -> RsaPrivateKey {
        self.private
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn generate_roundtrip_sign_verify_raw() {
        let mut r = rng();
        let kp = RsaKeyPair::generate(256, &mut r);
        let m = BigUint::from_u64(0xdead_beef);
        let s = kp.private_key().raw_sign(&m).unwrap();
        assert_eq!(kp.public_key().raw_verify(&s).unwrap(), m);
    }

    #[test]
    fn crt_matches_no_crt() {
        let mut r = rng();
        let kp = RsaKeyPair::generate(1024, &mut r);
        for _ in 0..10 {
            let m = BigUint::random_below(kp.public_key().modulus(), &mut r);
            assert_eq!(
                kp.private_key().raw_sign(&m).unwrap(),
                kp.private_key().raw_sign_no_crt(&m).unwrap()
            );
        }
    }

    #[test]
    fn concurrent_signers_sign_like_no_crt() {
        // Four threads with distinct keys: whichever signature is alone in
        // flight runs its mod-q half on the helper, the others inline.
        std::thread::scope(|scope| {
            for seed in 0..4u64 {
                scope.spawn(move || {
                    let mut r = rand::rngs::StdRng::seed_from_u64(100 + seed);
                    let kp = RsaKeyPair::generate(1024, &mut r);
                    for _ in 0..8 {
                        let m = BigUint::random_below(kp.public_key().modulus(), &mut r);
                        let s = kp.private_key().raw_sign(&m).unwrap();
                        assert_eq!(s, kp.private_key().raw_sign_no_crt(&m).unwrap());
                        assert_eq!(kp.public_key().raw_verify(&s).unwrap(), m);
                    }
                });
            }
        });
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut r = rng();
        let kp = RsaKeyPair::generate(256, &mut r);
        let m = BigUint::from_u64(42);
        let c = kp.public_key().raw_encrypt(&m).unwrap();
        assert_ne!(c, m);
        assert_eq!(kp.private_key().raw_decrypt(&c).unwrap(), m);
    }

    #[test]
    fn message_out_of_range_rejected() {
        let mut r = rng();
        let kp = RsaKeyPair::generate(128, &mut r);
        let too_big = kp.public_key().modulus().clone();
        assert_eq!(
            kp.private_key().raw_sign(&too_big),
            Err(CryptoError::MessageTooLarge)
        );
        assert_eq!(
            kp.public_key().raw_verify(&too_big),
            Err(CryptoError::MessageTooLarge)
        );
    }

    #[test]
    fn modulus_width_is_exact() {
        let mut r = rng();
        for bits in [128usize, 256, 512] {
            let kp = RsaKeyPair::generate(bits, &mut r);
            assert_eq!(kp.public_key().modulus().bits(), bits);
            assert_eq!(kp.public_key().modulus_len(), bits / 8);
        }
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        let mut r = rng();
        let kp = RsaKeyPair::generate(128, &mut r);
        let bytes = kp.public_key().to_bytes();
        let parsed = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&parsed, kp.public_key());
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(RsaPublicKey::from_bytes(&[0, 0]).is_err());
    }

    #[test]
    fn private_key_bytes_roundtrip() {
        let mut r = rng();
        let kp = RsaKeyPair::generate(256, &mut r);
        let bytes = kp.private_key().to_bytes();
        let restored = RsaPrivateKey::from_bytes(&bytes).unwrap();
        assert_eq!(restored.public_key(), kp.public_key());
        // The restored key signs identically (CRT params recomputed).
        let m = BigUint::from_u64(0xfeed);
        assert_eq!(
            restored.raw_sign(&m).unwrap(),
            kp.private_key().raw_sign(&m).unwrap()
        );
        // Truncation and garbage are rejected.
        assert!(RsaPrivateKey::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(RsaPrivateKey::from_bytes(&[0, 0, 0]).is_err());
    }

    #[test]
    fn distinct_keys_for_distinct_seeds() {
        let mut r1 = rand::rngs::StdRng::seed_from_u64(1);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(2);
        let k1 = RsaKeyPair::generate(128, &mut r1);
        let k2 = RsaKeyPair::generate(128, &mut r2);
        assert_ne!(k1.public_key().modulus(), k2.public_key().modulus());
    }
}
