//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! The paper's future-work section (§VI-E) considers "lightweight crypto
//! functions" to improve ADLP's scalability. A symmetric MAC over a
//! pairwise shared key is the natural candidate: orders of magnitude
//! cheaper than RSA signing, at the cost of *repudiability between the
//! pair* (either key holder could have produced the tag, so the auditor
//! can no longer arbitrate publisher-vs-subscriber disputes — only detect
//! third-party tampering). The `crypto_ops` bench quantifies the speedup;
//! DESIGN.md discusses the trade-off.

use crate::sha256::{Digest, Sha256};

const BLOCK_LEN: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// A keyed HMAC-SHA256 instance.
///
/// ```
/// use adlp_crypto::hmac::HmacSha256;
///
/// let mac = HmacSha256::new(b"shared pairwise key");
/// let tag = mac.tag(b"message");
/// assert!(mac.verify(b"message", &tag));
/// assert!(!mac.verify(b"other", &tag));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    /// Key XOR ipad, precomputed.
    inner_pad: [u8; BLOCK_LEN],
    /// Key XOR opad, precomputed.
    outer_pad: [u8; BLOCK_LEN],
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Derives the instance from a key of any length (longer-than-block
    /// keys are hashed first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let hashed;
        let key_bytes: &[u8] = if key.len() > BLOCK_LEN {
            hashed = crate::sha256::sha256(key);
            hashed.as_bytes()
        } else {
            key
        };
        let mut block = [0u8; BLOCK_LEN];
        for (b, k) in block.iter_mut().zip(key_bytes) {
            *b = *k;
        }
        let mut inner_pad = [0u8; BLOCK_LEN];
        let mut outer_pad = [0u8; BLOCK_LEN];
        for ((ip, op), b) in inner_pad.iter_mut().zip(outer_pad.iter_mut()).zip(block) {
            *ip = b ^ IPAD;
            *op = b ^ OPAD;
        }
        HmacSha256 {
            inner_pad,
            outer_pad,
        }
    }

    /// Computes the tag for a message.
    pub fn tag(&self, message: &[u8]) -> Digest {
        let mut inner = Sha256::new();
        inner.update(&self.inner_pad);
        inner.update(message);
        let inner_digest = inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.outer_pad);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    /// Verifies a tag in constant time.
    pub fn verify(&self, message: &[u8], tag: &Digest) -> bool {
        self.tag(message) == *tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto_test_vectors::*;

    /// RFC 4231 test vectors for HMAC-SHA256.
    mod adlp_crypto_test_vectors {
        pub const CASES: &[(&[u8], &[u8], &str)] = &[
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
        ];
    }

    #[test]
    fn rfc4231_vectors() {
        for (key, msg, expect) in CASES {
            let mac = HmacSha256::new(key);
            assert_eq!(mac.tag(msg).to_hex(), *expect);
            assert!(mac.verify(msg, &mac.tag(msg)));
        }
    }

    #[test]
    fn rfc4231_long_key_vector() {
        // Case 6: 131-byte key (forces the hash-the-key path).
        let key = [0xaa_u8; 131];
        let msg = b"Test Using Larger Than Block-Size Key - Hash Key First";
        let mac = HmacSha256::new(&key);
        assert_eq!(
            mac.tag(msg).to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_keys_different_tags() {
        let a = HmacSha256::new(b"key-a");
        let b = HmacSha256::new(b"key-b");
        assert_ne!(a.tag(b"m"), b.tag(b"m"));
        assert!(!b.verify(b"m", &a.tag(b"m")));
    }

    #[test]
    fn empty_message_and_key() {
        let mac = HmacSha256::new(b"");
        let tag = mac.tag(b"");
        assert!(mac.verify(b"", &tag));
        assert!(!mac.verify(b"x", &tag));
    }
}
