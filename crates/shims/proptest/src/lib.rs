//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`strategy::Strategy`] trait with `prop_map`, `any::<T>()` for common
//! types, range and regex-character-class string strategies, tuple
//! strategies, `collection::{vec, btree_map}`, `option::of`, `Just`,
//! `prop_oneof!`, and the `proptest!` / `prop_assert*!` / `prop_assume!`
//! macros.
//!
//! Differences from real proptest: values are generated from a
//! deterministic per-test RNG (seeded from the test name, so runs are
//! reproducible) and failing cases are reported without shrinking. That
//! trades minimal counterexamples for a dependency-free build; the
//! properties themselves are exercised identically.

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod sample;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub use arbitrary::{any, Arbitrary};
pub use strategy::{Just, Strategy};

/// Namespace mirror so `prop::sample::Index`-style paths resolve.
pub mod prop {
    pub use crate::collection;
    pub use crate::option;
    pub use crate::sample;
    pub use crate::strategy;
    pub use crate::string;
}

/// The glob import used by every property test.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Fails the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current property case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
}

/// Fails the current property case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left != right,
            "assertion failed: `left != right`\n  both: `{:?}`",
            left
        );
    }};
}

/// Rejects the current case (does not count toward the case budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Picks uniformly among the given strategies (all must yield the same
/// value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` body runs
/// for the configured number of generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($config:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut runner =
                    $crate::test_runner::TestRunner::new(config, stringify!($name));
                let strat = ($($strat,)+);
                runner
                    .run(&strat, |($($pat,)+)| {
                        $body
                        ::core::result::Result::Ok(())
                    })
                    .unwrap();
            }
        )*
    };
}
