//! Offline, deterministic stand-in for the [`proptest`] crate.
//!
//! The build environment for this workspace has no access to the crates.io
//! registry, so the real `proptest` cannot be resolved — even as an unused
//! optional dependency, Cargo insists on resolving it into the lockfile.
//! This crate implements the exact API subset the workspace's property
//! tests use, as a path dependency, so the tests compile and run unchanged
//! offline.
//!
//! Differences from real proptest, by design:
//!
//! * Generation is **deterministic**: a splitmix64 PRNG seeded from the
//!   test's module path, so every run explores the same cases (matching
//!   the workspace's "determinism" design principle; see DESIGN.md §5).
//! * No shrinking: a failing case panics with the ordinary assert message.
//! * No persistence: `.proptest-regressions` files are ignored.
//! * Strategies are re-sampled uniformly; `prop_oneof!` weights and
//!   `prop_recursive` size hints are accepted but only the depth bound is
//!   honoured.
//!
//! [`proptest`]: https://docs.rs/proptest

use std::ops::Range;
use std::rc::Rc;

/// Test-runner configuration and the deterministic PRNG.
pub mod test_runner {
    /// Mirror of `proptest::test_runner::Config` (subset: `cases`).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases each property runs.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Deterministic splitmix64 generator, seeded from the test path so
    /// each property explores a stable but distinct case sequence.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator from a test's fully qualified name (FNV-1a).
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self { state: h }
        }

        /// Next 64 pseudo-random bits (splitmix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

use test_runner::TestRng;

/// A value generator: the mirror of `proptest::strategy::Strategy`.
///
/// Unlike the real trait this one simply produces values (no value trees,
/// no shrinking); combinators keep their real-proptest names so call sites
/// compile unchanged.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy. The result is cheaply cloneable.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }

    /// Recursive strategies: `self` is the leaf; `recurse` builds one
    /// level on top of a strategy for the level below. `depth` bounds the
    /// recursion; the size hints are accepted for API compatibility but
    /// unused.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R + 'static,
    {
        let leaf = self.boxed();
        let mut tower = leaf.clone();
        for _ in 0..depth {
            let rec = recurse(tower).boxed();
            tower = Union::new(vec![leaf.clone(), rec]).boxed();
        }
        tower
    }
}

/// A cloneable, type-erased strategy (mirror of
/// `proptest::strategy::BoxedStrategy`).
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        Self(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// The strategy produced by [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the given value (mirror of
/// `proptest::strategy::Just`).
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between alternative strategies — what [`prop_oneof!`]
/// builds.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union of the given arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Self { arms }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Self {
            arms: self.arms.clone(),
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128) - (self.start as i128);
                assert!(span > 0, "empty range strategy");
                #[allow(clippy::cast_sign_loss)]
                let off = (rng.next_u64() as u128 % span as u128) as i128;
                ((self.start as i128) + off) as $t
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($( ( $($S:ident . $idx:tt),+ ) )+) => {$(
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($( self.$idx.generate(rng), )+)
            }
        }
    )+};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Collection strategies (mirror of `proptest::collection`).
pub mod collection {
    use super::{test_runner::TestRng, Strategy};
    use std::ops::Range;

    /// Strategy for `Vec`s with a size drawn from a range.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.clone().generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies (mirror of `proptest::bool`).
pub mod bool {
    /// The strategy behind [`ANY`].
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Generates `true` or `false` uniformly.
    pub const ANY: Any = Any;

    impl super::Strategy for Any {
        type Value = bool;

        fn generate(&self, rng: &mut super::test_runner::TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// The common imports (mirror of `proptest::prelude`).
pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
    pub use crate::{BoxedStrategy, Just, Strategy, Union};
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($p:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            let __strategy = ( $($strat,)+ );
            let mut __rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__config.cases {
                let _ = __case;
                let ( $($p,)+ ) = $crate::Strategy::generate(&__strategy, &mut __rng);
                // The closure gives `prop_assume!` an early-exit `return`.
                (|| $body)();
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

/// Uniform choice among strategies. Weighted arms are not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( $crate::Strategy::boxed($arm) ),+ ])
    };
}

/// Asserts a condition inside a property (plain `assert!`; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property (plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a property (plain `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::test_runner::TestRng::for_test("x::y");
        let mut b = crate::test_runner::TestRng::for_test("x::y");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_runner::TestRng::for_test("x::z");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_test("ranges");
        for _ in 0..200 {
            let v = Strategy::generate(&(-20_i64..20), &mut rng);
            assert!((-20..20).contains(&v));
            let u = Strategy::generate(&(0_u8..4), &mut rng);
            assert!(u < 4);
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(i64),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(n) => {
                    assert!((0..10).contains(n), "leaf outside its strategy range");
                    0
                }
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = (0_i64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 8, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
            });
        let mut rng = crate::test_runner::TestRng::for_test("rec");
        for _ in 0..100 {
            assert!(depth(&strat.generate(&mut rng)) <= 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro wires patterns, assume, and asserts together.
        #[test]
        fn macro_end_to_end((a, b) in (0_u32..10, 0_u32..10), v in crate::collection::vec(0_u8..3, 0..5)) {
            prop_assume!(a != 3);
            prop_assert!(a < 10 && b < 10);
            prop_assert_eq!(v.iter().filter(|x| **x > 2).count(), 0);
        }
    }
}
