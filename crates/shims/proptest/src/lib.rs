//! Offline shim for the subset of the `proptest` API this workspace uses.
//!
//! The build environment has no network access, so this in-tree crate
//! provides the pieces the property tests consume: the [`Strategy`] trait
//! with `prop_map` / `prop_flat_map`, range and tuple strategies, [`Just`],
//! [`collection::vec`] / [`collection::btree_set`], the [`proptest!`] macro,
//! and the `prop_assert*` family.
//!
//! Differences from crates.io proptest, by design:
//!
//! * **no shrinking** — a failing case panics with the standard assert
//!   message; the generation is deterministic (seeded from the test name), so
//!   failures replay exactly under `cargo test`;
//! * `prop_assert!` panics instead of returning `Err`, so test bodies need no
//!   `Result` plumbing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner configuration. Only the case count is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Smaller than crates.io's 256: no shrinking means a failure report
        // is cheap, and the suite runs in CI on every push.
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic per-test RNG: FNV-1a of the test name, overridable with
/// `PROPTEST_SEED` for replaying an alternative universe.
pub fn new_test_rng(test_name: &str) -> StdRng {
    let mut h = 0xCBF29CE484222325u64;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001B3);
    }
    if let Ok(s) = std::env::var("PROPTEST_SEED") {
        if let Ok(extra) = s.parse::<u64>() {
            h ^= extra.wrapping_mul(0x9E3779B97F4A7C15);
        }
    }
    StdRng::seed_from_u64(h)
}

/// A generator of arbitrary values of type `Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn gen_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn gen_value(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn gen_value(&self, rng: &mut StdRng) -> Self::Value {
        (self.f)(self.inner.gen_value(rng)).gen_value(rng)
    }
}

/// Strategy that always yields a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn gen_value(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategies {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn gen_value(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.gen_value(rng),)+)
            }
        }
    )*};
}

tuple_strategies!((A.0)(A.0, B.1)(A.0, B.1, C.2)(A.0, B.1, C.2, D.3)(
    A.0, B.1, C.2, D.3, E.4
)(A.0, B.1, C.2, D.3, E.4, F.5));

/// Collection sizes: an exact count or a half-open range.
pub trait IntoSizeRange {
    /// Draws a size.
    fn draw_size(&self, rng: &mut StdRng) -> usize;
}

impl IntoSizeRange for usize {
    fn draw_size(&self, _rng: &mut StdRng) -> usize {
        *self
    }
}

impl IntoSizeRange for std::ops::Range<usize> {
    fn draw_size(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl IntoSizeRange for std::ops::RangeInclusive<usize> {
    fn draw_size(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{IntoSizeRange, Strategy};
    use rand::rngs::StdRng;
    use std::collections::BTreeSet;

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn gen_value(&self, rng: &mut StdRng) -> Self::Value {
            let len = self.size.draw_size(rng);
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>` with a target size drawn from
    /// `size`. If the element universe is smaller than the target the set
    /// saturates below it (bounded retries), mirroring proptest's behavior
    /// of not looping forever.
    pub fn btree_set<S, R>(element: S, size: R) -> BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: IntoSizeRange,
    {
        BTreeSetStrategy { element, size }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S, R> Strategy for BTreeSetStrategy<S, R>
    where
        S: Strategy,
        S::Value: Ord,
        R: IntoSizeRange,
    {
        type Value = BTreeSet<S::Value>;

        fn gen_value(&self, rng: &mut StdRng) -> Self::Value {
            let target = self.size.draw_size(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0usize;
            while out.len() < target && attempts < 20 * (target + 1) {
                out.insert(self.element.gen_value(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy,
    };
}

/// Defines property tests: each `pat in strategy` argument is generated
/// `config.cases` times and the body re-run per case.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (
        @with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let strategies = ($($strat,)+);
                let mut rng = $crate::new_test_rng(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..config.cases {
                    $crate::proptest!(@bind rng strategies ($($pat),+));
                    $body
                }
            }
        )*
    };
    (@bind $rng:ident $strats:ident ($p0:pat)) => {
        let $p0 = $crate::Strategy::gen_value(&$strats.0, &mut $rng);
    };
    (@bind $rng:ident $strats:ident ($p0:pat, $p1:pat)) => {
        let $p0 = $crate::Strategy::gen_value(&$strats.0, &mut $rng);
        let $p1 = $crate::Strategy::gen_value(&$strats.1, &mut $rng);
    };
    (@bind $rng:ident $strats:ident ($p0:pat, $p1:pat, $p2:pat)) => {
        let $p0 = $crate::Strategy::gen_value(&$strats.0, &mut $rng);
        let $p1 = $crate::Strategy::gen_value(&$strats.1, &mut $rng);
        let $p2 = $crate::Strategy::gen_value(&$strats.2, &mut $rng);
    };
    (@bind $rng:ident $strats:ident ($p0:pat, $p1:pat, $p2:pat, $p3:pat)) => {
        let $p0 = $crate::Strategy::gen_value(&$strats.0, &mut $rng);
        let $p1 = $crate::Strategy::gen_value(&$strats.1, &mut $rng);
        let $p2 = $crate::Strategy::gen_value(&$strats.2, &mut $rng);
        let $p3 = $crate::Strategy::gen_value(&$strats.3, &mut $rng);
    };
    (@bind $rng:ident $strats:ident ($p0:pat, $p1:pat, $p2:pat, $p3:pat, $p4:pat)) => {
        let $p0 = $crate::Strategy::gen_value(&$strats.0, &mut $rng);
        let $p1 = $crate::Strategy::gen_value(&$strats.1, &mut $rng);
        let $p2 = $crate::Strategy::gen_value(&$strats.2, &mut $rng);
        let $p3 = $crate::Strategy::gen_value(&$strats.3, &mut $rng);
        let $p4 = $crate::Strategy::gen_value(&$strats.4, &mut $rng);
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($args:tt)*) $body:block
        )*
    ) => {
        $crate::proptest!(
            @with_config ($crate::ProptestConfig::default())
            $(
                $(#[$meta])*
                fn $name($($args)*) $body
            )*
        );
    };
}

/// Asserts a condition inside a property (panics with context on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Skips the current case when its precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_maps_generate_in_bounds() {
        let mut rng = crate::new_test_rng("ranges_and_maps");
        let s = (2usize..10).prop_map(|n| n * 2);
        for _ in 0..200 {
            let v = s.gen_value(&mut rng);
            assert!((4..20).contains(&v) && v % 2 == 0);
        }
    }

    #[test]
    fn flat_map_threads_dependent_values() {
        let mut rng = crate::new_test_rng("flat_map");
        let s = (3u32..6).prop_flat_map(|n| (Just(n), crate::collection::vec(0..n, 1..5)));
        for _ in 0..200 {
            let (n, v) = s.gen_value(&mut rng);
            assert!((3..6).contains(&n));
            assert!(!v.is_empty() && v.len() < 5);
            assert!(v.iter().all(|&x| x < n));
        }
    }

    #[test]
    fn btree_set_respects_size_and_universe() {
        let mut rng = crate::new_test_rng("btree");
        let s = crate::collection::btree_set(0u32..3, 1..4);
        for _ in 0..100 {
            let set = s.gen_value(&mut rng);
            assert!(!set.is_empty() && set.len() <= 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: patterns, multiple args, assume, asserts.
        #[test]
        fn macro_roundtrip((a, mut b) in (0u32..5, 1u32..5), c in 0.0f64..1.0) {
            b += 1;
            prop_assume!(a != 4);
            prop_assert!(a < 4);
            prop_assert_eq!(b - 1, b - 1);
            prop_assert_ne!(b, 0);
            prop_assert!((0.0..1.0).contains(&c), "c = {}", c);
        }
    }
}
