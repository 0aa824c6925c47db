//! Division: short division by a limb and Knuth Algorithm D for the general
//! case (TAOCP Vol. 2, §4.3.1).

use super::BigUint;
use crate::CryptoError;
use std::ops::Rem;

impl BigUint {
    /// Computes `(self / divisor, self % divisor)`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::DivisionByZero`] if `divisor` is zero.
    ///
    /// ```
    /// use adlp_crypto::BigUint;
    /// let a = BigUint::from_u64(1000);
    /// let (q, r) = a.div_rem(&BigUint::from_u64(7)).unwrap();
    /// assert_eq!(q, BigUint::from_u64(142));
    /// assert_eq!(r, BigUint::from_u64(6));
    /// ```
    pub fn div_rem(&self, divisor: &BigUint) -> Result<(BigUint, BigUint), CryptoError> {
        if divisor.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if self < divisor {
            return Ok((BigUint::zero(), self.clone()));
        }
        if let [d] = divisor.limbs.as_slice() {
            let (q, r) = self.div_rem_u64(*d);
            return Ok((q, BigUint::from_u64(r)));
        }
        Ok(knuth_d(self, divisor))
    }

    /// Computes `(self / d, self % d)` for a single non-zero limb.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_rem_u64(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "division by zero");
        let mut quotient = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for (q, &limb) in quotient.iter_mut().rev().zip(self.limbs.iter().rev()) {
            let cur = (rem << 64) | u128::from(limb);
            *q = (cur / u128::from(d)) as u64;
            rem = cur % u128::from(d);
        }
        (BigUint::from_limbs(quotient), rem as u64)
    }

    /// `self mod m` (internal fast path). A zero modulus yields `self`
    /// unchanged — the `gcd(x, 0) = x` convention — so the operation is
    /// total; every arithmetic call site passes a nonzero modulus anyway
    /// (Montgomery contexts and modular inverses reject zero at
    /// construction).
    pub(crate) fn rem_internal(&self, m: &BigUint) -> BigUint {
        match self.div_rem(m) {
            Ok((_, r)) => r,
            Err(_) => self.clone(),
        }
    }
}

/// Knuth Algorithm D for multi-limb divisors (`v.limbs.len() ≥ 2`, both
/// operands normalized, `u ≥ v` — guaranteed by `div_rem`). Written with
/// slice patterns and zipped windows so no arithmetic step can panic on
/// out-of-range access.
fn knuth_d(u: &BigUint, v: &BigUint) -> (BigUint, BigUint) {
    let n = v.limbs.len();
    let m = u.limbs.len().saturating_sub(n);

    // D1: normalize so the divisor's top limb has its high bit set.
    let shift = v.limbs.last().map_or(0, |top| top.leading_zeros() as usize);
    let vn = (v << shift).limbs;
    let mut un = (u << shift).limbs;
    un.resize(u.limbs.len() + 1, 0); // extra high limb for the algorithm

    // Top two normalized divisor limbs; the multi-limb path guarantees
    // n ≥ 2, so the pattern always matches.
    let [.., v_next, v_top] = vn.as_slice() else {
        return (BigUint::zero(), u.clone());
    };
    let (v_top, v_next) = (u128::from(*v_top), u128::from(*v_next));

    // D2-D7: main loop over quotient digits, highest first.
    let mut q_rev = Vec::with_capacity(m + 1);
    for j in (0..=m).rev() {
        // The active dividend window un[j ..= j+n]: n+1 limbs, always in
        // range because un was resized to u.limbs.len()+1 ≥ j+n+1.
        let Some(win) = un.get_mut(j..=j + n) else {
            break;
        };
        // D3: estimate the quotient digit from the top two dividend limbs.
        // With a normalized divisor, clamping the estimate to b-1 leaves it
        // at most 2 above the true digit (Knuth Theorem B), so the
        // correction loop below runs at most twice.
        let [.., third, second, top] = &*win else {
            break; // n ≥ 2 ⇒ the window has ≥ 3 limbs
        };
        let num = (u128::from(*top) << 64) | u128::from(*second);
        let num_third = u128::from(*third);
        let mut qhat = num / v_top;
        let mut rhat = num % v_top;
        if qhat > u128::from(u64::MAX) {
            qhat = u128::from(u64::MAX);
            rhat = num - qhat * v_top;
        }
        while rhat <= u128::from(u64::MAX) && qhat * v_next > ((rhat << 64) | num_third) {
            qhat -= 1;
            rhat += v_top;
        }

        // D4: multiply-subtract qhat * v from the dividend window (the
        // zip covers the n low limbs; the window's top limb takes the
        // final carry/borrow).
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for (ui, &vi) in win.iter_mut().zip(vn.iter()) {
            let p = qhat * u128::from(vi) + carry;
            carry = p >> 64;
            let t = i128::from(*ui) - i128::from(p as u64) - borrow;
            *ui = t as u64;
            borrow = i64::from(t < 0) as i128;
        }
        let mut t = 0i128;
        if let Some(top) = win.last_mut() {
            t = i128::from(*top) - i128::from(carry as u64) - borrow;
            *top = t as u64;
        }

        // D5-D6: if we overshot (rare), add the divisor back once.
        if t < 0 {
            qhat -= 1;
            let mut carry = 0u128;
            for (ui, &vi) in win.iter_mut().zip(vn.iter()) {
                let s = u128::from(*ui) + u128::from(vi) + carry;
                *ui = s as u64;
                carry = s >> 64;
            }
            if let Some(top) = win.last_mut() {
                *top = top.wrapping_add(carry as u64);
            }
        }
        q_rev.push(qhat as u64);
    }
    q_rev.reverse();

    // D8: denormalize the remainder (the low n limbs of un).
    un.truncate(n);
    let r = BigUint::from_limbs(un) >> shift;
    (BigUint::from_limbs(q_rev), r)
}

impl Rem<&BigUint> for &BigUint {
    type Output = BigUint;
    /// Total remainder: `x % 0` is `x` (the Euclidean `gcd(x, 0) = x`
    /// convention); use [`BigUint::div_rem`] to treat a zero divisor as an
    /// error instead.
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.rem_internal(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn division_by_zero_is_error() {
        let a = BigUint::from_u64(5);
        assert_eq!(
            a.div_rem(&BigUint::zero()),
            Err(CryptoError::DivisionByZero)
        );
    }

    #[test]
    fn rem_by_zero_is_identity_not_panic() {
        let a = BigUint::from_u64(5);
        assert_eq!(&a % &BigUint::zero(), a);
        assert!(BigUint::zero().rem_internal(&BigUint::zero()).is_zero());
    }

    #[test]
    fn smaller_dividend() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u64(9);
        let (q, r) = a.div_rem(&b).unwrap();
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn exact_division() {
        let b = BigUint::from_hex("deadbeefcafebabe1234567890").unwrap();
        let a = &b * &BigUint::from_u64(1_000_003);
        let (q, r) = a.div_rem(&b).unwrap();
        assert_eq!(q, BigUint::from_u64(1_000_003));
        assert!(r.is_zero());
    }

    #[test]
    fn single_limb_divisor() {
        let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let (q, r) = a.div_rem(&BigUint::from_u64(10)).unwrap();
        assert_eq!(&q.mul_u64(10) + &BigUint::from_u64(r.low_u64()), a);
    }

    #[test]
    fn knuth_d_identity_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for i in 0..200 {
            let a_bits = 64 + (i * 13) % 1500;
            let b_bits = 65 + (i * 7) % (a_bits.max(66) - 1);
            let a = BigUint::random_bits(a_bits, &mut rng);
            let b = BigUint::random_bits(b_bits, &mut rng);
            let (q, r) = a.div_rem(&b).unwrap();
            assert!(r < b, "remainder must be < divisor");
            assert_eq!(&(&q * &b) + &r, a, "identity failed at iter {i}");
        }
    }

    #[test]
    fn knuth_d_qhat_estimate_overflow() {
        // Regression: when the top dividend limb equals the top divisor
        // limb, the initial digit estimate is ≥ 2^64 and must be clamped to
        // 2^64 - 1, not decremented one-by-one (hang) or used unclamped
        // (multiply overflow → wrong remainder → Euclid loops downstream).
        let v = BigUint::from_limbs(vec![0, 1u64 << 63]);
        for low in [0u64, 1, u64::MAX, 1 << 63] {
            let u = BigUint::from_limbs(vec![low, 1 << 63, 1 << 63]);
            let (q, r) = u.div_rem(&v).unwrap();
            assert!(r < v, "remainder out of range for low={low}");
            assert_eq!(&(&q * &v) + &r, u, "identity failed for low={low}");
        }
        // And a dense randomized sweep over this shape.
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7777);
        for _ in 0..500 {
            let top = (1u64 << 63) | (rng.next_u64() >> 1);
            let v = BigUint::from_limbs(vec![rng.next_u64(), top]);
            let u = BigUint::from_limbs(vec![rng.next_u64(), rng.next_u64(), top]);
            let (q, r) = u.div_rem(&v).unwrap();
            assert!(r < v);
            assert_eq!(&(&q * &v) + &r, u);
        }
    }

    #[test]
    fn knuth_d_addback_case() {
        // Classic add-back trigger: dividend just below a multiple of divisor
        // with maximal top limbs.
        let v = BigUint::from_limbs(vec![0, u64::MAX, u64::MAX >> 1 | 1 << 63]);
        let u = &(&v * &BigUint::from_limbs(vec![u64::MAX, u64::MAX])) + &BigUint::from_u64(5);
        let (q, r) = u.div_rem(&v).unwrap();
        assert_eq!(q, BigUint::from_limbs(vec![u64::MAX, u64::MAX]));
        assert_eq!(r, BigUint::from_u64(5));
    }
}
