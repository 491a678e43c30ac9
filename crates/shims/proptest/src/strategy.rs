//! The [`Strategy`] trait and its combinators.
//!
//! A strategy here is simply a cloneable generator: `generate` draws one
//! value from the deterministic [`TestRng`]. Combinators mirror the real
//! crate's names (`prop_map`, `prop_recursive`, `boxed`) so test code is
//! source-compatible.

use crate::test_runner::TestRng;
use std::marker::PhantomData;
use std::rc::Rc;

/// A generator of test values.
pub trait Strategy: Clone {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U + Clone,
    {
        Map { inner: self, f }
    }

    /// Builds a recursive strategy: `f` receives the strategy for the
    /// *inner* (shallower) levels and returns the strategy for one level
    /// up. `depth` bounds the nesting; `_desired_size` and
    /// `_expected_branch_size` are accepted for API compatibility and
    /// ignored.
    fn prop_recursive<F, S>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let base = self.clone().boxed();
        let mut current = self.boxed();
        for _ in 0..depth {
            let deeper = f(current).boxed();
            let leaf = base.clone();
            current = BoxedStrategy(Rc::new(move |rng: &mut TestRng| {
                // Mix leaves back in at every level so sizes vary and
                // generation of deep values stays cheap.
                if rng.below(4) == 0 {
                    leaf.generate(rng)
                } else {
                    deeper.generate(rng)
                }
            }));
        }
        current
    }

    /// Type-erases the strategy behind a cheap, cloneable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        let s = self;
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| s.generate(rng)))
    }
}

/// A type-erased strategy handle (`Rc`-shared, cheaply cloneable).
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// The [`Strategy::prop_map`] combinator.
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U + Clone,
{
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (built by `prop_oneof!`).
pub struct OneOf<T> {
    alts: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    /// Builds the choice from at least one alternative.
    pub fn new(alts: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!alts.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { alts }
    }
}

impl<T> Clone for OneOf<T> {
    fn clone(&self) -> Self {
        OneOf {
            alts: self.alts.clone(),
        }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.alts.len() as u64) as usize;
        self.alts[i].generate(rng)
    }
}

/// Values with a canonical "any value of this type" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
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

/// The strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical unconstrained strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.end > self.start, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!((A), (A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        crate::string::generate_from_pattern(self, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::from_name("strategy-tests")
    }

    #[test]
    fn ranges_and_maps() {
        let mut r = rng();
        let s = (-5i64..5).prop_map(|v| v * 2);
        for _ in 0..100 {
            let v = s.generate(&mut r);
            assert!((-10..10).contains(&v) && v % 2 == 0);
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut r = rng();
        let s = crate::prop_oneof![Just(0u8), Just(1u8), Just(2u8)];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[s.generate(&mut r) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn recursion_terminates() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(i64),
            Node(Vec<Tree>),
        }
        let mut r = rng();
        let s = (0i64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 3, |inner| {
                crate::collection::vec(inner, 0..3).prop_map(Tree::Node)
            });
        // At most `depth` levels of `Node` above the leaves, whose values
        // stay in the base strategy's range.
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(v) => {
                    assert!((0..10).contains(v));
                    0
                }
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        for _ in 0..100 {
            assert!(depth(&s.generate(&mut r)) <= 3);
        }
    }
}
