//! RSASSA-PKCS1-v1_5 with SHA-256 (RFC 8017 §8.2 / §9.2).
//!
//! This is the exact signature scheme the ADLP prototype uses
//! (`sign_x(h(seq ‖ D))` with RSA-1024 → 128-byte signatures).

use crate::bignum::BigUint;
use crate::rsa::{RsaPrivateKey, RsaPublicKey};
use crate::sha256::{Digest, DIGEST_LEN};
use crate::CryptoError;
use std::fmt;
use std::hash::{Hash, Hasher};

/// ASN.1 DER `DigestInfo` prefix for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// A detached RSASSA-PKCS1-v1_5 signature.
///
/// The byte length always equals the signer's modulus length (128 bytes for
/// the paper's RSA-1024), which is what makes ADLP's message and log-entry
/// size overheads constant per entry.
///
/// `==` is constant-time in the bytes ([`crate::ct::constant_time_eq`]);
/// only the length, a public modulus size, may end it early.
#[derive(Clone, Eq)]
pub struct Signature(Vec<u8>);

impl Signature {
    /// Wraps raw signature bytes (e.g. read from a log).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Signature(bytes)
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the signature is empty (never true for real signatures).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Consumes self, returning the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

impl PartialEq for Signature {
    #[inline]
    fn eq(&self, other: &Signature) -> bool {
        crate::ct::constant_time_eq(&self.0, &other.0)
    }
}

impl Hash for Signature {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature({} bytes, {}…)",
            self.0.len(),
            crate::hex::encode(self.0.get(..self.0.len().min(8)).unwrap_or(&[]))
        )
    }
}

impl AsRef<[u8]> for Signature {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest into `em_len` bytes:
/// `0x00 0x01 PS 0x00 DigestInfo` with `PS` = `0xff` padding.
///
/// # Errors
///
/// Returns [`CryptoError::KeyTooSmall`] when `em_len` cannot fit the
/// encoding with the mandatory 8 padding bytes.
pub fn emsa_pkcs1_v15_encode(digest: &Digest, em_len: usize) -> Result<Vec<u8>, CryptoError> {
    let t_len = SHA256_DIGEST_INFO_PREFIX.len() + DIGEST_LEN;
    if em_len < t_len + 11 {
        return Err(CryptoError::KeyTooSmall);
    }
    let mut em = Vec::with_capacity(em_len);
    em.push(0x00);
    em.push(0x01);
    em.resize(em_len - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO_PREFIX);
    em.extend_from_slice(digest.as_bytes());
    debug_assert_eq!(em.len(), em_len);
    Ok(em)
}

/// Signs a precomputed SHA-256 digest.
///
/// # Errors
///
/// Returns [`CryptoError::KeyTooSmall`] for moduli under 62 bytes.
///
/// ```
/// use adlp_crypto::{pkcs1, rsa::RsaKeyPair, sha256::sha256};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), adlp_crypto::CryptoError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let keys = RsaKeyPair::generate(512, &mut rng);
/// let sig = pkcs1::sign_digest(keys.private_key(), &sha256(b"msg"))?;
/// assert_eq!(sig.len(), 64);
/// # Ok(())
/// # }
/// ```
pub fn sign_digest(key: &RsaPrivateKey, digest: &Digest) -> Result<Signature, CryptoError> {
    let k = key.public_key().modulus_len();
    let em = emsa_pkcs1_v15_encode(digest, k)?;
    let m = BigUint::from_bytes_be(&em);
    let s = key.raw_sign(&m)?;
    Ok(Signature(s.to_bytes_be_padded(k)?))
}

/// Signs a message by hashing it first.
///
/// # Errors
///
/// Propagates [`sign_digest`] errors.
pub fn sign(key: &RsaPrivateKey, message: &[u8]) -> Result<Signature, CryptoError> {
    sign_digest(key, &crate::sha256::sha256(message))
}

/// Verifies a signature over a precomputed digest. Returns `false` for any
/// failure (wrong key, wrong digest, malformed signature) — never panics.
pub fn verify_digest(key: &RsaPublicKey, digest: &Digest, signature: &Signature) -> bool {
    let k = key.modulus_len();
    if signature.len() != k {
        return false;
    }
    let s = BigUint::from_bytes_be(signature.as_bytes());
    let Ok(m) = key.raw_verify(&s) else {
        return false;
    };
    let Ok(em) = m.to_bytes_be_padded(k) else {
        return false;
    };
    match emsa_pkcs1_v15_encode(digest, k) {
        Ok(expected) => crate::ct::constant_time_eq(&em, &expected),
        Err(_) => false,
    }
}

/// Verifies a signature over a message.
pub fn verify(key: &RsaPublicKey, message: &[u8], signature: &Signature) -> bool {
    verify_digest(key, &crate::sha256::sha256(message), signature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeyPair;
    use crate::sha256::sha256;
    use rand::SeedableRng;

    fn keys() -> RsaKeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        RsaKeyPair::generate(512, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keys();
        let sig = sign(kp.private_key(), b"lidar scan #17").unwrap();
        assert_eq!(sig.len(), 64);
        assert!(verify(kp.public_key(), b"lidar scan #17", &sig));
    }

    #[test]
    fn tampered_message_fails() {
        let kp = keys();
        let sig = sign(kp.private_key(), b"steering 0.10").unwrap();
        assert!(!verify(kp.public_key(), b"steering 0.11", &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = keys();
        let sig = sign(kp.private_key(), b"msg").unwrap();
        let mut bytes = sig.into_bytes();
        bytes[10] ^= 0x01;
        assert!(!verify(
            kp.public_key(),
            b"msg",
            &Signature::from_bytes(bytes)
        ));
    }

    #[test]
    fn wrong_key_fails() {
        let kp = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(999);
        let other = RsaKeyPair::generate(512, &mut rng);
        let sig = sign(kp.private_key(), b"msg").unwrap();
        assert!(!verify(other.public_key(), b"msg", &sig));
    }

    #[test]
    fn wrong_length_signature_fails_cleanly() {
        let kp = keys();
        assert!(!verify(
            kp.public_key(),
            b"msg",
            &Signature::from_bytes(vec![0u8; 10])
        ));
        assert!(!verify(
            kp.public_key(),
            b"msg",
            &Signature::from_bytes(vec![])
        ));
        // All 0xff of the right length: numerically >= n, must fail cleanly.
        assert!(!verify(
            kp.public_key(),
            b"msg",
            &Signature::from_bytes(vec![0xff; 64])
        ));
    }

    #[test]
    fn em_encoding_structure() {
        let em = emsa_pkcs1_v15_encode(&sha256(b"x"), 128).unwrap();
        assert_eq!(em.len(), 128);
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        let sep = em.iter().skip(2).position(|&b| b != 0xff).unwrap() + 2;
        assert_eq!(em[sep], 0x00);
        assert_eq!(&em[sep + 1..sep + 20], &SHA256_DIGEST_INFO_PREFIX);
    }

    #[test]
    fn key_too_small_for_encoding() {
        assert_eq!(
            emsa_pkcs1_v15_encode(&sha256(b"x"), 32),
            Err(CryptoError::KeyTooSmall)
        );
    }

    #[test]
    fn digest_reuse_matches_message_signing() {
        let kp = keys();
        let d = sha256(b"payload");
        let s1 = sign_digest(kp.private_key(), &d).unwrap();
        let s2 = sign(kp.private_key(), b"payload").unwrap();
        // PKCS#1 v1.5 is deterministic.
        assert_eq!(s1, s2);
        assert!(verify_digest(kp.public_key(), &d, &s1));
    }
}
