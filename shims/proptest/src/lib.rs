//! Offline stand-in for `proptest`.
//!
//! The build environment has no registry access, so the workspace vendors
//! the subset of proptest 1.x it uses: the `proptest!` / `prop_oneof!` /
//! `prop_assert*` macros, `Strategy` with `prop_map`, integer-range and
//! simple-regex string strategies, tuples, `collection::{vec, btree_map}`,
//! and `option::of`. Generation is deterministic per test name and case
//! index. There is **no shrinking** — a failing case reports the full
//! generated inputs instead.

pub mod strategy;
pub mod test_runner;

pub use strategy::{any, Just, Strategy};

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;

    /// Strategy for `Vec`s with lengths drawn from `size`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// Generates vectors of `elem` values with a length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.usize_in(self.size.clone());
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap`s with sizes drawn from `size`.
    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    /// Generates maps of `key -> value` entries with a size in `size`.
    /// Key collisions may leave the map below the drawn size, as in real
    /// proptest before retries.
    pub fn btree_map<K, V>(key: K, value: V, size: Range<usize>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        BTreeMapStrategy { key, value, size }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = rng.usize_in(self.size.clone());
            let mut out = BTreeMap::new();
            // Bounded retries so colliding key strategies still terminate.
            for _ in 0..target.saturating_mul(4) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.key.generate(rng), self.value.generate(rng));
            }
            out
        }
    }
}

/// Option strategies (`proptest::option`).
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy wrapping an inner strategy in `Option`.
    #[derive(Clone)]
    pub struct OptionStrategy<S>(S);

    /// Generates `Some` roughly three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Everything a proptest-based test module needs.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Defines property tests: an optional `#![proptest_config(..)]` header
/// followed by `fn name(arg in strategy, ..) { body }` items (each keeps
/// its own `#[test]` attribute, as in real proptest).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config $cfg; $($rest)*);
    };
    (@with_config $cfg:expr; $($(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let strategies = ($($strat,)+);
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(stringify!($name), case);
                    let ($($arg,)+) = {
                        let ($(ref $arg,)+) = strategies;
                        ($($crate::strategy::Strategy::generate($arg, &mut rng),)+)
                    };
                    let described = format!("{:?}", ($(&$arg,)+));
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    match outcome {
                        Ok(()) => {}
                        Err($crate::test_runner::TestCaseError::Reject) => continue,
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => panic!(
                            "proptest '{}' failed at case {}/{}: {}\ninputs: {}",
                            stringify!($name), case, config.cases, msg, described,
                        ),
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config $crate::test_runner::Config::default(); $($rest)*);
    };
}

/// Picks uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(::std::boxed::Box::new($strat) as ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>,)+
        ])
    };
}

/// Asserts inside a proptest body, failing the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {:?} != {:?}", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("{}: {:?} != {:?}", format!($($fmt)+), l, r),
            ));
        }
    }};
}

/// Discards the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}
