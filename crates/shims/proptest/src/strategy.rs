//! The [`Strategy`] trait and combinators.

use crate::string::generate_pattern;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (needed by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among type-erased strategies; built by `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; `arms` must be non-empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// Regex-like char-class patterns (e.g. `"[a-z_]{1,16}"`) are strategies
/// for `String`.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        generate_pattern(self, rng)
    }
}

macro_rules! int_range_strategies {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*
    };
}

int_range_strategies!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategies {
    ($($t:ty => $u:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
        )*
    };
}

signed_range_strategies!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.f64_unit() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.f64_unit() as f32) * (self.end - self.start)
    }
}

macro_rules! tuple_strategies {
    ($(($($name:ident),+))*) => {
        $(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*
    };
}

tuple_strategies! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
    (A, B, C, D, E, F, G, H, I)
    (A, B, C, D, E, F, G, H, I, J)
    (A, B, C, D, E, F, G, H, I, J, K)
    (A, B, C, D, E, F, G, H, I, J, K, L)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::from_seed(3);
        for _ in 0..200 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
            let i = (0usize..=5).generate(&mut rng);
            assert!(i <= 5);
        }
    }

    #[test]
    fn map_and_union_compose() {
        let mut rng = TestRng::from_seed(4);
        let s = crate::prop_oneof![(0u8..10).prop_map(|v| v as u32), 100u32..110,];
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v < 10 || (100..110).contains(&v));
        }
    }

    #[test]
    fn string_patterns_generate() {
        let mut rng = TestRng::from_seed(5);
        for _ in 0..50 {
            let s = "[a-z_]{1,12}".generate(&mut rng);
            assert!((1..=12).contains(&s.len()));
            assert!(s.chars().all(|c| c == '_' || c.is_ascii_lowercase()));
        }
    }
}
