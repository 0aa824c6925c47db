//! Montgomery modular multiplication (fused CIOS) and fixed-window
//! exponentiation.

use super::BigUint;
use crate::CryptoError;

#[cfg(test)]
thread_local! {
    /// Montgomery products computed on this thread, for the cost tests.
    static PRODUCTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Precomputed context for Montgomery arithmetic modulo an odd modulus.
///
/// # Example
///
/// ```
/// use adlp_crypto::{BigUint, bignum::Montgomery};
///
/// let m = BigUint::from_u64(97);
/// let mont = Montgomery::new(&m).unwrap();
/// let r = mont.mod_pow(&BigUint::from_u64(5), &BigUint::from_u64(3));
/// assert_eq!(r, BigUint::from_u64(28)); // 125 mod 97
/// ```
#[derive(Debug, Clone)]
pub struct Montgomery {
    n: Vec<u64>,
    n_big: BigUint,
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n` where `R = 2^(64·len(n))`.
    r2: Vec<u64>,
}

impl Montgomery {
    /// Builds a context for odd modulus `n > 1`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::NotInvertible`] for even moduli and
    /// [`CryptoError::DivisionByZero`] for zero.
    pub fn new(n: &BigUint) -> Result<Self, CryptoError> {
        if n.is_zero() {
            return Err(CryptoError::DivisionByZero);
        }
        if n.is_even() || n.is_one() {
            return Err(CryptoError::NotInvertible);
        }
        let limbs = n.limbs.clone();
        let s = limbs.len();
        // Newton iteration for the inverse of n[0] mod 2^64 (5 steps suffice).
        // A non-zero modulus always has a low limb; the odd fallback keeps the
        // iteration well-defined regardless.
        let n0 = limbs.first().copied().unwrap_or(1);
        let mut inv = n0;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let r2 = (BigUint::one() << (2 * 64 * s)).rem_internal(n);
        let mut r2_limbs = r2.limbs;
        r2_limbs.resize(s, 0);
        Ok(Montgomery {
            n: limbs,
            n_big: n.clone(),
            n0inv: inv.wrapping_neg(),
            r2: r2_limbs,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n_big
    }

    /// The one Montgomery product: writes `a·b·R^{-1} mod n` into `out`.
    /// All three are `s`-limb slices and `a, b < n`.
    ///
    /// At 4, 8 and 16 limbs, the prime and modulus widths of RSA-512, -1024
    /// and -2048, the body runs on array views, so the compiler unrolls it
    /// with the width known. Other widths run the same body on slices.
    pub(crate) fn mont_mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        debug_assert!(out.len() == self.n.len() && a.len() == out.len() && b.len() == out.len());
        #[cfg(test)]
        PRODUCTS.with(|count| count.set(count.get() + 1));
        let (n, n0inv) = (self.n.as_slice(), self.n0inv);
        match n.len() {
            4 => mul_at::<4>(out, a, b, n, n0inv),
            8 => mul_at::<8>(out, a, b, n, n0inv),
            16 => mul_at::<16>(out, a, b, n, n0inv),
            _ => mul(out, a, b, n, n0inv),
        }
    }

    /// `a mod n` as `s` limbs.
    fn reduced(&self, a: &BigUint) -> Vec<u64> {
        let mut limbs = a.rem_internal(&self.n_big).limbs;
        limbs.resize(self.n.len(), 0);
        limbs
    }

    /// Converts to Montgomery form (`a·R mod n`).
    pub(crate) fn to_mont(&self, a: &BigUint) -> Vec<u64> {
        let mut out = vec![0u64; self.n.len()];
        self.mont_mul(&mut out, &self.reduced(a), &self.r2);
        out
    }

    /// Converts out of Montgomery form (named for symmetry with `to_mont`,
    /// not as a constructor).
    #[allow(clippy::wrong_self_convention)]
    fn from_mont(&self, a: &[u64]) -> BigUint {
        let mut one = vec![0u64; self.n.len()];
        if let Some(low) = one.first_mut() {
            *low = 1;
        }
        let mut out = vec![0u64; self.n.len()];
        self.mont_mul(&mut out, a, &one);
        BigUint::from_limbs(out)
    }

    /// `(a * b) mod n` in two products: `a·b·R^{-1}`, then times `R^2`.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let (a, b) = (self.reduced(a), self.reduced(b));
        let mut ab = vec![0u64; self.n.len()];
        self.mont_mul(&mut ab, &a, &b);
        let mut out = a;
        self.mont_mul(&mut out, &ab, &self.r2);
        BigUint::from_limbs(out)
    }

    /// `base^exp mod n`, left to right over fixed windows.
    ///
    /// Exponents of at most 64 bits (the public `e`, Miller–Rabin's `d` for
    /// small candidates) use 1-bit windows: plain square-and-multiply by
    /// the base, no table. Longer ones (the secret CRT exponents) use 4-bit
    /// windows over a table of `base^1 ..= base^15`. The accumulator,
    /// scratch and table are allocated once per call.
    pub fn mod_pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.from_mont(&self.pow_mont(base, exp))
    }

    /// [`Self::mod_pow`] with the result left in Montgomery form.
    pub(crate) fn pow_mont(&self, base: &BigUint, exp: &BigUint) -> Vec<u64> {
        let bits = exp.bits();
        if bits == 0 {
            return self.to_mont(&BigUint::one());
        }
        let s = self.n.len();
        let width = if bits <= 64 { 1 } else { 4 };
        // table[d − 1] = base^d in Montgomery form, d = 1 .. 2^width.
        let mut table = self.to_mont(base);
        table.resize(((1 << width) - 1) * s, 0);
        let (first, rest) = table.split_at_mut(s);
        let base_m: &[u64] = first;
        let mut prev = base_m;
        for slot in rest.chunks_exact_mut(s) {
            self.mont_mul(slot, prev, base_m);
            prev = slot;
        }
        let entry = |digit: usize| {
            digit
                .checked_sub(1)
                .and_then(|i| table.chunks_exact(s).nth(i))
        };

        let windows = bits.div_ceil(width);
        // The top window holds the top bit, so its digit is never zero and
        // the lookup always hits; the fallback only keeps the access total.
        let mut acc = entry(window_at(exp, windows - 1, width))
            .map(<[u64]>::to_vec)
            .unwrap_or_default();
        let mut scratch = vec![0u64; s];
        for w in (0..windows - 1).rev() {
            for _ in 0..width {
                self.mont_mul(&mut scratch, &acc, &acc);
                std::mem::swap(&mut acc, &mut scratch);
            }
            if let Some(power) = entry(window_at(exp, w, width)) {
                self.mont_mul(&mut scratch, &acc, power);
                std::mem::swap(&mut acc, &mut scratch);
            }
        }
        acc
    }

    /// Products computed on this thread so far.
    #[cfg(test)]
    pub(crate) fn products() -> usize {
        PRODUCTS.with(std::cell::Cell::get)
    }
}

/// Extracts the `w`-th `width`-bit window (little-endian) of `exp`. Both
/// widths divide 64, so a window never straddles two limbs.
fn window_at(exp: &BigUint, w: usize, width: usize) -> usize {
    let bit = w * width;
    let limb = exp.limbs.get(bit / 64).copied().unwrap_or(0);
    ((limb >> (bit % 64)) & ((1 << width) - 1)) as usize
}

/// [`mul`] on `K`-limb array views, so the compiler unrolls it with the
/// width known. [`Montgomery::mont_mul`] only calls it with `K`-limb
/// operands; any other length leaves `out` as it is. Kept out of line: with
/// the three widths inlined into `mont_mul`, its slice body ran ≈ 20 %
/// slower at 32 limbs.
#[inline(never)]
fn mul_at<const K: usize>(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0inv: u64) {
    if let (Ok(out), Ok(a), Ok(b), Ok(n)) = (
        <&mut [u64; K]>::try_from(out),
        <&[u64; K]>::try_from(a),
        <&[u64; K]>::try_from(b),
        <&[u64; K]>::try_from(n),
    ) {
        mul(out, a, b, n, n0inv);
    }
}

/// Fused CIOS: writes `a·b·R^{-1} mod n` into `out`.
///
/// Each limb `ai` of `a` takes one pass over `b` and `n` with two
/// independent carry chains: `t + ai·b`, and `+ m·n` where `m` makes the
/// low limb vanish. The pass stores limb `j` of the sum into limb `j−1` of
/// `out`, so the division by 2^64 is the write offset; `t_hi` is
/// accumulator limb `s`. Every access is a zip or a split, nothing
/// allocates.
#[inline(always)]
fn mul(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0inv: u64) {
    out.fill(0);
    let (Some((&b0, b_rest)), Some((&n0, n_rest))) = (b.split_first(), n.split_first()) else {
        return;
    };
    let mut t_hi = 0u64;
    for &ai in a {
        let Some((t0, t_rest)) = out.split_first_mut() else {
            return;
        };
        let ab = u128::from(*t0) + u128::from(ai) * u128::from(b0);
        let m = (ab as u64).wrapping_mul(n0inv);
        let mn = u128::from(ab as u64) + u128::from(m) * u128::from(n0);
        let (mut carry_ab, mut carry_mn) = (ab >> 64, mn >> 64);
        let mut prev = t0;
        for ((tj, &bj), &nj) in t_rest.iter_mut().zip(b_rest).zip(n_rest) {
            let ab = u128::from(*tj) + u128::from(ai) * u128::from(bj) + carry_ab;
            let mn = u128::from(ab as u64) + u128::from(m) * u128::from(nj) + carry_mn;
            *prev = mn as u64;
            (carry_ab, carry_mn) = (ab >> 64, mn >> 64);
            prev = tj;
        }
        let top = u128::from(t_hi) + carry_ab + carry_mn;
        *prev = top as u64;
        t_hi = (top >> 64) as u64;
    }
    // Final conditional subtraction: result < 2n at this point, so one
    // subtraction of n cancels the high limb and fits in s limbs.
    if t_hi != 0 || cmp_limbs(out, n) != std::cmp::Ordering::Less {
        let _borrow = super::arith::sub_limbs_in_place(out, n);
    }
}

fn cmp_limbs(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(y) {
            std::cmp::Ordering::Equal => continue,
            o => return o,
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_even_or_trivial_moduli() {
        assert!(Montgomery::new(&BigUint::from_u64(10)).is_err());
        assert!(Montgomery::new(&BigUint::zero()).is_err());
        assert!(Montgomery::new(&BigUint::one()).is_err());
    }

    #[test]
    fn mul_matches_plain() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let mut m = BigUint::random_bits(256, &mut rng);
            m.set_bit(0);
            let mont = Montgomery::new(&m).unwrap();
            let a = BigUint::random_below(&m, &mut rng);
            let b = BigUint::random_below(&m, &mut rng);
            assert_eq!(mont.mul(&a, &b), (&a * &b).rem_internal(&m));
        }
    }

    #[test]
    fn mod_pow_matches_plain_many_widths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for bits in [64usize, 65, 128, 512, 1024] {
            let mut m = BigUint::random_bits(bits, &mut rng);
            m.set_bit(0);
            let mont = Montgomery::new(&m).unwrap();
            let base = BigUint::random_below(&m, &mut rng);
            let exp = BigUint::random_bits(bits.min(96), &mut rng);
            assert_eq!(
                mont.mod_pow(&base, &exp),
                base.mod_pow_plain(&exp, &m),
                "width {bits}"
            );
        }
    }

    #[test]
    fn mod_pow_zero_exponent() {
        let m = BigUint::from_u64(97);
        let mont = Montgomery::new(&m).unwrap();
        assert_eq!(
            mont.mod_pow(&BigUint::from_u64(12), &BigUint::zero()),
            BigUint::one()
        );
    }

    #[test]
    fn base_larger_than_modulus() {
        let m = BigUint::from_u64(97);
        let mont = Montgomery::new(&m).unwrap();
        let base = BigUint::from_u64(97 * 5 + 3);
        assert_eq!(
            mont.mod_pow(&base, &BigUint::from_u64(2)),
            BigUint::from_u64(9)
        );
    }

    /// Products spent by `f` on this thread.
    fn products_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = Montgomery::products();
        let value = f();
        (value, Montgomery::products() - before)
    }

    #[test]
    fn verify_at_e_65537_takes_19_products() {
        // to_mont, 16 squarings, one multiply by the base, from_mont.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut m = BigUint::random_bits(1024, &mut rng);
        m.set_bit(0);
        let mont = Montgomery::new(&m).unwrap();
        let s = BigUint::random_below(&m, &mut rng);
        let e = BigUint::from_u64(65537);
        let (v, products) = products_of(|| mont.mod_pow(&s, &e));
        assert_eq!(products, 19);
        assert_eq!(v, s.mod_pow_plain(&e, &m));
    }

    #[test]
    fn long_exponents_keep_the_4_bit_window() {
        // to_mont + 14 table products, then per window below the top 4
        // squarings and one multiply unless its digit is 0, then from_mont.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut m = BigUint::random_bits(512, &mut rng);
        m.set_bit(0);
        let mont = Montgomery::new(&m).unwrap();
        let base = BigUint::random_below(&m, &mut rng);
        let exp = BigUint::random_bits(509, &mut rng);
        let windows = 509usize.div_ceil(4);
        let nonzero = (0..windows - 1)
            .filter(|&w| window_at(&exp, w, 4) != 0)
            .count();
        let (v, products) = products_of(|| mont.mod_pow(&base, &exp));
        assert_eq!(products, 1 + 14 + 4 * (windows - 1) + nonzero + 1);
        assert_eq!(v, base.mod_pow_plain(&exp, &m));
    }
}
