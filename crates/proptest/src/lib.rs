//! A vendored, std-only stand-in for the `proptest` crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors the *subset* of the proptest API its test-suites
//! actually use: [`strategy::Strategy`] with `prop_map`,
//! [`arbitrary::any`], integer-range strategies, tuple composition,
//! [`collection::vec()`], the [`proptest!`] macro with
//! `#![proptest_config(...)]`, and `prop_assert*`.
//!
//! Differences from the real crate, by design:
//!
//! * **no shrinking** — a failing case panics with the test's name, the
//!   case index and the `Debug` rendering of every generated input (cases
//!   are small here, so minimization matters less);
//! * **deterministic seeding** — the RNG seed is derived from the test
//!   function's name (FNV-1a), so failures reproduce exactly across runs
//!   and machines;
//! * values are generated eagerly per case; there is no rejection /
//!   filtering machinery.

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` generated inputs.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

pub mod test_runner {
    //! The deterministic RNG driving generation (SplitMix64).

    /// A small, fast, deterministic RNG (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates an RNG from a seed.
        pub fn new(seed: u64) -> TestRng {
            TestRng { state: seed }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Multiply-shift; bias is negligible for test generation.
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }
    }

    /// FNV-1a hash of a string, used to derive per-test seeds from names.
    pub const fn fnv1a(s: &str) -> u64 {
        let bytes = s.as_bytes();
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        let mut i = 0;
        while i < bytes.len() {
            hash ^= bytes[i] as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            i += 1;
        }
        hash
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
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

    /// The strategy returned by [`crate::arbitrary::any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(pub(crate) core::marker::PhantomData<T>);

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A fixed value (proptest's `Just`).
    #[derive(Debug, Clone, Copy)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
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
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod arbitrary {
    //! The [`Arbitrary`] trait and [`any`].

    use crate::strategy::Any;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-range generator.
    pub trait Arbitrary {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An inclusive size range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        /// Minimum length (inclusive).
        pub min: usize,
        /// Maximum length (inclusive).
        pub max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64;
            let len = self.size.min + rng.below(span + 1) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy generating `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! The usual `use proptest::prelude::*;` surface.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Declares property tests.
///
/// Supported grammar (the subset this workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn my_property(x in 0u8..10, v in proptest::collection::vec(any::<u64>(), 1..=4)) {
///         prop_assert!(v.len() <= 4);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let seed = $crate::test_runner::fnv1a(concat!(module_path!(), "::", stringify!($name)));
                let mut rng = $crate::test_runner::TestRng::new(seed);
                for __case in 0..config.cases {
                    let __start = rng.clone();
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    )+
                    $crate::__run_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                        || $body,
                        || {
                            // Regenerates the case's inputs from its start state.
                            let mut rng = __start;
                            let mut inputs = String::new();
                            $(
                                inputs.push_str(&format!(
                                    "\n  {} = {:?}",
                                    stringify!($arg),
                                    $crate::strategy::Strategy::generate(&($strat), &mut rng)
                                ));
                            )+
                            inputs
                        },
                    );
                }
            }
        )*
    };
}

/// Runs one case's `body`. If it panics, panics again with the test's name,
/// the case index, the inputs that `inputs` renders (called only then) and
/// the original panic message.
#[doc(hidden)]
pub fn __run_case(name: &str, case: u32, body: impl FnOnce(), inputs: impl FnOnce() -> String) {
    let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) else {
        return;
    };
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(non-string panic payload)");
    panic!(
        "proptest {name} failed at case {case} with inputs:{}\n{message}",
        inputs()
    );
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::new(1);
        for _ in 0..1000 {
            let v = Strategy::generate(&(3u8..7), &mut rng);
            assert!((3..7).contains(&v));
            let w = Strategy::generate(&(1usize..=4), &mut rng);
            assert!((1..=4).contains(&w));
        }
    }

    #[test]
    fn vec_lengths_honor_size_range() {
        let mut rng = crate::test_runner::TestRng::new(2);
        for _ in 0..200 {
            let v = Strategy::generate(&crate::collection::vec(any::<u64>(), 2..=5), &mut rng);
            assert!((2..=5).contains(&v.len()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = (any::<u64>(), 0u8..9).prop_map(|(a, b)| (a, b));
        let mut r1 = crate::test_runner::TestRng::new(42);
        let mut r2 = crate::test_runner::TestRng::new(42);
        for _ in 0..100 {
            assert_eq!(strat.generate(&mut r1), strat.generate(&mut r2));
        }
    }

    /// Counts the cases [`failing_case_reports_its_index_and_inputs`] ran.
    static CASES_RUN: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The third case fails: its report names the test, the case index
        /// and every input, then repeats the assertion's message.
        #[test]
        #[should_panic(expected = "proptest proptest::tests::failing_case_reports_its_index_and_inputs \
                                   failed at case 2 with inputs:\n  \
                                   x = 5\n  \
                                   (label, v) = (\"fixed\", [1, 2])\n\
                                   third case")]
        fn failing_case_reports_its_index_and_inputs(
            x in 5u8..6,
            (label, v) in (Just("fixed"), Just(vec![1u8, 2])),
        ) {
            let case = CASES_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            prop_assert!(case < 2, "third case");
            prop_assert_eq!((x, label, v.len()), (5, "fixed", 2));
        }

        #[test]
        fn macro_roundtrip(x in 0u8..16, v in crate::collection::vec(any::<bool>(), 1..=3)) {
            prop_assert!(x < 16);
            prop_assert!(!v.is_empty() && v.len() <= 3);
        }
    }
}
