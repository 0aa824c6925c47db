//! Addition, subtraction and multiplication (schoolbook + Karatsuba).

use super::BigUint;
use std::ops::{Add, Mul, Shl, Shr, Sub};

/// Limb count above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 32;

pub(crate) fn add_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (longer, shorter) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(longer.len() + 1);
    let mut carry = 0u64;
    for (i, &limb) in longer.iter().enumerate() {
        let (mut sum, mut c) = limb.overflowing_add(carry);
        if let Some(&s) = shorter.get(i) {
            let (sum2, c2) = sum.overflowing_add(s);
            sum = sum2;
            c |= c2;
        }
        out.push(sum);
        carry = u64::from(c);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Subtracts `b` from `a` in place over limb slices. Returns the final borrow
/// (non-zero means `b > a`, leaving wrapped limbs behind).
pub(crate) fn sub_limbs_in_place(a: &mut [u64], b: &[u64]) -> u64 {
    debug_assert!(a.len() >= b.len());
    let mut borrow = 0u64;
    for (i, limb) in a.iter_mut().enumerate() {
        let (mut diff, mut br) = limb.overflowing_sub(borrow);
        if let Some(&s) = b.get(i) {
            let (diff2, br2) = diff.overflowing_sub(s);
            diff = diff2;
            br |= br2;
        } else if borrow == 0 {
            // Nothing left to subtract and no borrow: remaining limbs copy over.
            break;
        }
        *limb = diff;
        borrow = u64::from(br);
    }
    borrow
}

/// Schoolbook product of limb slices.
fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        // Row `i` of the product lands at limb offset `i`; `out` always has
        // `b.len() + 1` or more limbs past that point, so the zip below
        // consumes all of `b` and leaves room for the carry to settle.
        let (_, row) = out.split_at_mut(i);
        let mut slots = row.iter_mut();
        let mut carry = 0u128;
        for (&bj, slot) in b.iter().zip(&mut slots) {
            let t = u128::from(ai) * u128::from(bj) + u128::from(*slot) + carry;
            *slot = t as u64;
            carry = t >> 64;
        }
        for slot in slots {
            if carry == 0 {
                break;
            }
            let t = u128::from(*slot) + carry;
            *slot = t as u64;
            carry = t >> 64;
        }
    }
    out
}

/// Karatsuba product: splits at half the shorter length and recombines as
/// `z2·B² + (z1 − z2 − z0)·B + z0`.
fn mul_karatsuba(a: &[u64], b: &[u64]) -> Vec<u64> {
    let split = a.len().min(b.len()) / 2;
    if split < KARATSUBA_THRESHOLD / 2 {
        return mul_schoolbook(a, b);
    }
    let (a0, a1) = a.split_at(split);
    let (b0, b1) = b.split_at(split);

    let z0 = mul_karatsuba(a0, b0);
    let z2 = mul_karatsuba(a1, b1);
    let a01 = add_limbs(a0, a1);
    let b01 = add_limbs(b0, b1);
    let mut z1 = mul_karatsuba(&a01, &b01);
    // z1 -= z0 + z2 (never underflows).
    let borrow1 = sub_limbs_in_place(&mut z1, &z0);
    let borrow2 = sub_limbs_in_place(&mut z1, &z2);
    debug_assert_eq!(borrow1 | borrow2, 0, "karatsuba middle term underflow");

    let mut out = vec![0u64; a.len() + b.len()];
    add_into(&mut out, &z0, 0);
    add_into(&mut out, &z1, split);
    add_into(&mut out, &z2, 2 * split);
    out
}

/// `acc[offset..] += src` with carry propagation; `acc` must be long enough
/// for the sum (all callers size it to hold the full product).
fn add_into(acc: &mut [u64], src: &[u64], offset: usize) {
    let (_, dst) = acc.split_at_mut(offset);
    let mut slots = dst.iter_mut();
    let mut carry = 0u64;
    for (&s, slot) in src.iter().zip(&mut slots) {
        let (s1, c1) = slot.overflowing_add(s);
        let (s2, c2) = s1.overflowing_add(carry);
        *slot = s2;
        carry = u64::from(c1) + u64::from(c2);
    }
    for slot in slots {
        if carry == 0 {
            break;
        }
        let (s, c) = slot.overflowing_add(carry);
        *slot = s;
        carry = u64::from(c);
    }
    debug_assert_eq!(carry, 0, "add_into accumulator too short");
}

pub(crate) fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len().min(b.len()) >= KARATSUBA_THRESHOLD {
        mul_karatsuba(a, b)
    } else {
        mul_schoolbook(a, b)
    }
}

impl BigUint {
    /// Checked subtraction; `None` when `other > self`.
    ///
    /// ```
    /// use adlp_crypto::BigUint;
    /// let five = BigUint::from_u64(5);
    /// let seven = BigUint::from_u64(7);
    /// assert_eq!(seven.checked_sub(&five), Some(BigUint::from_u64(2)));
    /// assert_eq!(five.checked_sub(&seven), None);
    /// ```
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut limbs = self.limbs.clone();
        let borrow = sub_limbs_in_place(&mut limbs, &other.limbs);
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(limbs))
    }

    /// Multiplies by a single limb.
    pub fn mul_u64(&self, rhs: u64) -> BigUint {
        if rhs == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let t = u128::from(l) * u128::from(rhs) + carry;
            out.push(t as u64);
            carry = t >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    /// The square of this value (dispatches to the same kernels as `Mul`).
    pub fn square(&self) -> BigUint {
        BigUint::from_limbs(mul_limbs(&self.limbs, &self.limbs))
    }
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::from_limbs(add_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        &self + &rhs
    }
}

impl Add<&BigUint> for BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        &self + rhs
    }
}

impl Add<u64> for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: u64) -> BigUint {
        self + &BigUint::from_u64(rhs)
    }
}

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;
    /// # Panics
    ///
    /// Panics on underflow; use [`BigUint::checked_sub`] to handle it.
    #[allow(
        clippy::expect_used,
        reason = "the panic is the documented operator contract; checked_sub is the fallible form"
    )]
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs)
            .expect("BigUint subtraction underflow")
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl Sub<&BigUint> for BigUint {
    type Output = BigUint;
    /// # Panics
    ///
    /// Panics on underflow; use [`BigUint::checked_sub`] to handle it.
    fn sub(self, rhs: &BigUint) -> BigUint {
        &self - rhs
    }
}

impl Mul<&BigUint> for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::from_limbs(mul_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        &self * &rhs
    }
}

impl Mul<&BigUint> for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        &self * rhs
    }
}

impl Shl<usize> for BigUint {
    type Output = BigUint;
    fn shl(self, shift: usize) -> BigUint {
        &self << shift
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, shift: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let (limb_shift, bit_shift) = (shift / 64, shift % 64);
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Shr<usize> for BigUint {
    type Output = BigUint;
    fn shr(self, shift: usize) -> BigUint {
        &self >> shift
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, shift: usize) -> BigUint {
        let limb_shift = shift / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = shift % 64;
        let src = self.limbs.get(limb_shift..).unwrap_or(&[]);
        if bit_shift == 0 {
            return BigUint::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for (i, &lo) in src.iter().enumerate() {
            let hi = src.get(i + 1).copied().unwrap_or(0);
            out.push((lo >> bit_shift) | (hi << (64 - bit_shift)));
        }
        BigUint::from_limbs(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn big(hex: &str) -> BigUint {
        BigUint::from_hex(hex).unwrap()
    }

    #[test]
    fn add_with_carry_chain() {
        let a = big("ffffffffffffffffffffffffffffffff");
        let one = BigUint::one();
        assert_eq!((&a + &one).to_hex(), "100000000000000000000000000000000");
    }

    #[test]
    fn sub_borrow_chain() {
        let a = big("100000000000000000000000000000000");
        let one = BigUint::one();
        assert_eq!((&a - &one).to_hex(), "ffffffffffffffffffffffffffffffff");
    }

    #[test]
    fn sub_equal_is_zero() {
        let a = big("deadbeef00112233");
        assert!((&a - &a).is_zero());
    }

    #[test]
    fn mul_small() {
        let a = BigUint::from_u64(0xffff_ffff_ffff_ffff);
        let sq = &a * &a;
        assert_eq!(sq.to_hex(), "fffffffffffffffe0000000000000001");
        assert_eq!(a.square(), sq);
    }

    #[test]
    fn mul_by_zero_and_one() {
        let a = big("123456789abcdef0123456789abcdef0");
        assert!((&a * &BigUint::zero()).is_zero());
        assert_eq!(&a * &BigUint::one(), a);
        assert_eq!(a.mul_u64(0), BigUint::zero());
        assert_eq!(a.mul_u64(1), a);
    }

    #[test]
    fn shifts_roundtrip() {
        let a = big("deadbeefcafebabe12345");
        for s in [0usize, 1, 17, 63, 64, 65, 130] {
            assert_eq!((&a << s) >> s, a, "shift {s}");
        }
        assert_eq!(&big("f0") >> 4, big("f"));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..10 {
            // Wide enough to cross KARATSUBA_THRESHOLD.
            let a = BigUint::random_bits(64 * 80, &mut rng);
            let b = BigUint::random_bits(64 * 70, &mut rng);
            let k = mul_karatsuba(&a.limbs, &b.limbs);
            let s = mul_schoolbook(&a.limbs, &b.limbs);
            assert_eq!(BigUint::from_limbs(k), BigUint::from_limbs(s));
        }
    }

    #[test]
    fn distributive_law() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let a = BigUint::random_bits(300, &mut rng);
            let b = BigUint::random_bits(200, &mut rng);
            let c = BigUint::random_bits(250, &mut rng);
            assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        }
    }
}
