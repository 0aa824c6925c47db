//! Collection strategies: `vec` and `btree_map`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeMap;
use std::ops::{Range, RangeInclusive};

/// Inclusive bounds for generated collection sizes.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        rng.range_usize(self.min, self.max)
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Strategy for `Vec<S::Value>` with a size drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.sample(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `BTreeMap<K, V>` with a size drawn from `size` (duplicate
/// generated keys collapse, so the result may be smaller).
pub fn btree_map<K, V>(keys: K, values: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    BTreeMapStrategy {
        keys,
        values,
        size: size.into(),
    }
}

/// See [`btree_map`].
pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let n = self.size.sample(rng);
        (0..n)
            .map(|_| (self.keys.generate(rng), self.values.generate(rng)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::any;

    #[test]
    fn vec_sizes_in_range() {
        let mut rng = TestRng::from_seed(9);
        let s = vec(any::<u8>(), 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
        let exact = vec(any::<u8>(), 0..=3);
        for _ in 0..100 {
            assert!(exact.generate(&mut rng).len() <= 3);
        }
    }

    #[test]
    fn btree_map_generates_entries() {
        let mut rng = TestRng::from_seed(10);
        let s = btree_map(any::<u16>(), any::<bool>(), 1..8);
        let mut saw_nonempty = false;
        for _ in 0..50 {
            let m = s.generate(&mut rng);
            assert!(m.len() < 8);
            saw_nonempty |= !m.is_empty();
        }
        assert!(saw_nonempty);
    }
}
