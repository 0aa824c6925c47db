//! Arbitrary-precision unsigned integers.
//!
//! [`BigUint`] stores magnitude as little-endian `u64` limbs with the
//! invariant that the most significant limb is non-zero (zero is the empty
//! limb vector). The implementation covers exactly what RSA needs: ring
//! arithmetic, Knuth Algorithm D division, modular exponentiation (plain and
//! Montgomery), modular inverse, and random generation.

mod arith;
mod div;
mod modular;
mod mont;

pub use mont::Montgomery;

use crate::CryptoError;
use rand::RngCore;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// # Example
///
/// ```
/// use adlp_crypto::BigUint;
///
/// let a = BigUint::from_u64(1) << 128;
/// let b = BigUint::from_u64(3);
/// let (q, r) = a.div_rem(&b).unwrap();
/// assert_eq!(&q * &b + &r, a);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; the last limb, if any, is non-zero.
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        if hi == 0 {
            Self::from_u64(lo)
        } else {
            BigUint {
                limbs: vec![lo, hi],
            }
        }
    }

    /// Constructs from little-endian limbs, normalizing trailing zeros.
    pub(crate) fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Parses a big-endian byte string (leading zeros permitted).
    ///
    /// ```
    /// use adlp_crypto::BigUint;
    /// assert_eq!(BigUint::from_bytes_be(&[1, 0]), BigUint::from_u64(256));
    /// ```
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | u64::from(b);
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes to big-endian bytes with no leading zeros (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(bytes.get(skip..).unwrap_or(&[]));
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to big-endian bytes left-padded with zeros to `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLarge`] if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Result<Vec<u8>, CryptoError> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return Err(CryptoError::MessageTooLarge);
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Ok(out)
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] on non-hex characters.
    pub fn from_hex(s: &str) -> Result<Self, CryptoError> {
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let mut s = s.as_bytes();
        // Odd-length strings have an implicit leading nibble.
        if s.len() % 2 == 1 {
            if let Some((&first, rest)) = s.split_first() {
                bytes.push(hex_val(first)?);
                s = rest;
            }
        }
        for pair in s.chunks_exact(2) {
            if let [hi, lo] = pair {
                bytes.push(hex_val(*hi)? << 4 | hex_val(*lo)?);
            }
        }
        Ok(Self::from_bytes_be(&bytes))
    }

    /// Parses a base-10 string.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] for empty input or non-digit
    /// characters.
    ///
    /// ```
    /// use adlp_crypto::BigUint;
    /// let v = BigUint::from_decimal("340282366920938463463374607431768211456").unwrap();
    /// assert_eq!(v, BigUint::one() << 128);
    /// ```
    pub fn from_decimal(s: &str) -> Result<Self, CryptoError> {
        if s.is_empty() {
            return Err(CryptoError::Malformed("decimal string (empty)"));
        }
        let mut v = BigUint::zero();
        for c in s.bytes() {
            if !c.is_ascii_digit() {
                return Err(CryptoError::Malformed("decimal string"));
            }
            v = &v.mul_u64(10) + &BigUint::from_u64(u64::from(c - b'0'));
        }
        Ok(v)
    }

    /// Renders as a base-10 string.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        // Peel 19 digits at a time (largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits_rev = Vec::new();
        let mut v = self.clone();
        while !v.is_zero() {
            let (q, r) = v.div_rem_u64(CHUNK);
            v = q;
            if v.is_zero() {
                let mut r = r;
                while r > 0 {
                    digits_rev.push(b'0' + (r % 10) as u8);
                    r /= 10;
                }
            } else {
                let mut r = r;
                for _ in 0..19 {
                    digits_rev.push(b'0' + (r % 10) as u8);
                    r /= 10;
                }
            }
        }
        digits_rev.reverse();
        digits_rev.iter().map(|&d| char::from(d)).collect()
    }

    /// Renders as lowercase hexadecimal ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Whether this value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether this value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Whether the lowest bit is clear.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|&l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to one, growing as needed.
    pub fn set_bit(&mut self, i: usize) {
        let (limb, off) = (i / 64, i % 64);
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        if let Some(l) = self.limbs.get_mut(limb) {
            *l |= 1 << off;
        }
    }

    /// Low 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Uniformly random value with exactly `bits` bits (top bit set).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn random_bits<R: RngCore + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits > 0, "cannot generate a 0-bit integer");
        let mut v = Self::random_below_bits(bits, rng);
        v.set_bit(bits - 1);
        v
    }

    /// Uniformly random value in `[0, 2^bits)`.
    pub fn random_below_bits<R: RngCore + ?Sized>(bits: usize, rng: &mut R) -> Self {
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
        let excess = limbs * 64 - bits;
        if let Some(top) = v.last_mut() {
            *top >>= excess;
        }
        Self::from_limbs(v)
    }

    /// Uniformly random value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: RngCore + ?Sized>(bound: &BigUint, rng: &mut R) -> Self {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bits();
        loop {
            let candidate = Self::random_below_bits(bits, rng);
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

fn hex_val(c: u8) -> Result<u8, CryptoError> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        _ => Err(CryptoError::Malformed("hex string")),
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        non_eq => return non_eq,
                    }
                }
                Ordering::Equal
            }
            non_eq => non_eq,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl std::str::FromStr for BigUint {
    type Err = CryptoError;

    /// Parses decimal by default; `0x`-prefixed strings parse as hex.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.strip_prefix("0x") {
            Some(hex) => Self::from_hex(hex),
            None => Self::from_decimal(s),
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        Self::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_empty_and_even() {
        let z = BigUint::zero();
        assert!(z.is_zero());
        assert!(z.is_even());
        assert_eq!(z.bits(), 0);
        assert_eq!(z.to_bytes_be(), Vec::<u8>::new());
        assert_eq!(z.to_hex(), "0");
    }

    #[test]
    fn roundtrip_bytes_be() {
        let v = BigUint::from_bytes_be(&[0, 0, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0]);
        assert_eq!(
            v.to_bytes_be(),
            vec![0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0]
        );
        assert_eq!(v.to_hex(), "123456789abcdef0");
    }

    #[test]
    fn roundtrip_hex() {
        let v = BigUint::from_hex("deadbeefcafebabe112233445566778899").unwrap();
        assert_eq!(v.to_hex(), "deadbeefcafebabe112233445566778899");
        assert!(BigUint::from_hex("xyz").is_err());
    }

    #[test]
    fn padded_bytes() {
        let v = BigUint::from_u64(0x0102);
        assert_eq!(v.to_bytes_be_padded(4).unwrap(), vec![0, 0, 1, 2]);
        assert_eq!(v.to_bytes_be_padded(1), Err(CryptoError::MessageTooLarge));
    }

    #[test]
    fn bit_access() {
        let mut v = BigUint::zero();
        v.set_bit(100);
        assert!(v.bit(100));
        assert!(!v.bit(99));
        assert_eq!(v.bits(), 101);
        assert_eq!(v.limbs.len(), 2);
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u128(1 << 100);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn random_below_respects_bound() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let bound = BigUint::from_u64(1000);
        for _ in 0..200 {
            assert!(BigUint::random_below(&bound, &mut rng) < bound);
        }
    }

    #[test]
    fn decimal_roundtrip() {
        for s in ["0", "1", "9", "10", "12345678901234567890123456789012345"] {
            assert_eq!(BigUint::from_decimal(s).unwrap().to_decimal(), s);
        }
        assert_eq!(
            BigUint::from_u64(u64::MAX).to_decimal(),
            u64::MAX.to_string()
        );
        assert!(BigUint::from_decimal("").is_err());
        assert!(BigUint::from_decimal("12a").is_err());
        assert!(BigUint::from_decimal("-5").is_err());
    }

    #[test]
    fn from_str_dispatches_on_prefix() {
        use std::str::FromStr;
        assert_eq!(BigUint::from_str("255").unwrap(), BigUint::from_u64(255));
        assert_eq!(BigUint::from_str("0xff").unwrap(), BigUint::from_u64(255));
        assert!(BigUint::from_str("0xzz").is_err());
    }

    #[test]
    fn decimal_matches_hex_for_random_values() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let v = BigUint::random_bits(200, &mut rng);
            let dec = v.to_decimal();
            assert_eq!(BigUint::from_decimal(&dec).unwrap(), v);
        }
    }

    #[test]
    fn random_bits_has_exact_width() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for bits in [1, 63, 64, 65, 512] {
            let v = BigUint::random_bits(bits, &mut rng);
            assert_eq!(v.bits(), bits);
        }
    }
}
