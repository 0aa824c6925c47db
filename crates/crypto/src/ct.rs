//! Constant-time comparison.
//!
//! Digest and signature verification must not leak, via early exit, how
//! many leading bytes of an attacker-supplied value matched the expected
//! one. [`crate::Digest`] and [`crate::Signature`] implement `==` through
//! [`constant_time_eq`], so every comparison of such values, in any crate,
//! is constant-time; raw encodings (pkcs1's encoded message) call it
//! directly.

/// Compares two byte strings in time dependent only on their lengths.
///
/// Length inequality returns early: in this protocol all compared lengths
/// (digest size, modulus size) are public constants, so the length check
/// leaks nothing.
#[inline]
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_and_unequal() {
        assert!(constant_time_eq(b"", b""));
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
    }

    #[test]
    fn every_single_bit_flip_detected() {
        let base = [0x5au8; 32];
        for byte in 0..32 {
            for bit in 0..8 {
                let mut other = base;
                other[byte] ^= 1 << bit;
                assert!(!constant_time_eq(&base, &other));
            }
        }
    }
}
