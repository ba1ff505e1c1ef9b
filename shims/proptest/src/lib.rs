//! Offline mini-`proptest`.
//!
//! Implements exactly the surface the workspace's property tests use —
//! `proptest! { #![proptest_config(..)] #[test] fn t(x in strategy, ..) }`,
//! integer/float range strategies, `prop::collection::vec`, tuple
//! strategies, `any::<bool>()`, and the `prop_assert*` macros — on top of
//! a deterministic RNG. There is no shrinking: a failing case panics with
//! the sampled inputs' debug representation so it can be reproduced
//! directly. Case streams are a pure function of the test name and case
//! index, so failures are stable across runs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Debug;
use std::ops::Range;

/// Per-test configuration (only the knob the workspace uses).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// The RNG handed to strategies while sampling one case.
pub struct TestRunner {
    rng: StdRng,
}

impl TestRunner {
    /// Deterministic runner for `(test name, case index)`.
    pub fn deterministic(test_name: &str, case: u32) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        Self {
            rng: StdRng::seed_from_u64(h ^ (case as u64).wrapping_mul(0x9E37_79B9)),
        }
    }

    /// The case's random stream.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Samples one value.
    fn sample(&self, runner: &mut TestRunner) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, runner: &mut TestRunner) -> $t {
                runner.rng().random_range(self.clone())
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, runner: &mut TestRunner) -> $t {
                runner.rng().random_range(self.clone())
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, runner: &mut TestRunner) -> Self::Value {
                ($(self.$idx.sample(runner),)+)
            }
        }
    )+};
}
tuple_strategy!(
    (A.0, B.1),
    (A.0, B.1, C.2),
    (A.0, B.1, C.2, D.3),
    (A.0, B.1, C.2, D.3, E.4),
);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + Debug {
    /// Samples an arbitrary value.
    fn arbitrary(runner: &mut TestRunner) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(runner: &mut TestRunner) -> Self {
        runner.rng().random()
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(runner: &mut TestRunner) -> Self {
                runner.rng().random()
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy wrapper produced by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, runner: &mut TestRunner) -> T {
        T::arbitrary(runner)
    }
}

/// The strategy generating any value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (`prop::collection::vec`).
pub mod prop {
    /// Vec strategies.
    pub mod collection {
        use super::super::{Strategy, TestRunner};
        use rand::RngExt;
        use std::ops::Range;

        /// Number of elements a [`vec()`] strategy generates: a fixed size
        /// or a uniformly drawn one.
        #[derive(Debug, Clone)]
        pub enum SizeRange {
            /// Exactly this many elements.
            Exact(usize),
            /// Uniform in `[start, end)`.
            Span(usize, usize),
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange::Exact(n)
            }
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                SizeRange::Span(r.start, r.end)
            }
        }

        /// Strategy for vectors of `element` with `size` elements.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// See [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, runner: &mut TestRunner) -> Self::Value {
                let n = match self.size {
                    SizeRange::Exact(n) => n,
                    SizeRange::Span(a, b) => runner.rng().random_range(a..b.max(a + 1)),
                };
                (0..n).map(|_| self.element.sample(runner)).collect()
            }
        }
    }
}

/// Everything a property-test module imports.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Any, Arbitrary,
        ProptestConfig, Strategy, TestRunner,
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}

/// Declares property tests.
///
/// Each `fn name(arg in strategy, ..) { body }` becomes a `#[test]`
/// running `cases` deterministic random cases; a failing case panics with
/// the sampled inputs.
#[macro_export]
macro_rules! proptest {
    (@tests ($cfg:expr) ) => {};
    (
        @tests ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut runner =
                    $crate::TestRunner::deterministic(stringify!($name), case);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut runner);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let outcome = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| { $body }),
                );
                if let Err(payload) = outcome {
                    eprintln!(
                        "proptest case {case}/{} failed: {inputs}",
                        config.cases,
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
        $crate::proptest!(@tests ($cfg) $($rest)*);
    };
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@tests ($cfg) $($rest)*);
    };
    ( $($rest:tt)* ) => {
        $crate::proptest!(@tests ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_and_vecs(
            n in 2usize..6,
            xs in prop::collection::vec(-1.0f64..1.0, 8),
            pair in (any::<bool>(), 0u32..10),
        ) {
            prop_assert!((2..6).contains(&n));
            prop_assert_eq!(xs.len(), 8);
            prop_assert!(xs.iter().all(|x| (-1.0..1.0).contains(x)));
            prop_assert!(pair.1 < 10);
        }

        #[test]
        fn spans_vary(sizes in prop::collection::vec(0u64..100, 1..10)) {
            prop_assert!(!sizes.is_empty() && sizes.len() < 10);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRunner::deterministic("t", 3);
        let mut b = TestRunner::deterministic("t", 3);
        let s = prop::collection::vec(0u32..1_000, 5);
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }
}
