//! Value-generation strategies.

use crate::test_runner::TestRng;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// A generator of values of one type. Unlike real proptest there is no
/// value tree / shrinking; `generate` draws one value directly.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, T> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy always yielding a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy produced by [`any`].
#[derive(Clone)]
pub struct Any<T>(PhantomData<T>);

/// Uniform values of a primitive type (`any::<u8>()`, `any::<bool>()`, …).
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(PhantomData)
}

/// Primitive types supported by [`any`].
pub trait ArbitraryValue {
    /// Draws one uniform value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + ((rng.next_u64() as u128 % span) as i128)) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128 + 1) as u128;
                (start as i128 + ((rng.next_u64() as u128 % span) as i128)) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// `&str` strategies: a simplified regex of the form `[class]{m,n}`
/// (character classes with ranges and literals). A pattern without a
/// class generates itself literally.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (chars, min, max) = parse_pattern(self);
        if chars.is_empty() {
            return (*self).to_string();
        }
        let len = rng.usize_in(min..max + 1);
        (0..len).map(|_| chars[rng.usize_in(0..chars.len())]).collect()
    }
}

/// Parses `[a-z_%]{1,6}` into (alphabet, min, max). Returns an empty
/// alphabet for patterns without a leading class.
fn parse_pattern(pattern: &str) -> (Vec<char>, usize, usize) {
    let bytes: Vec<char> = pattern.chars().collect();
    if bytes.first() != Some(&'[') {
        return (Vec::new(), 0, 0);
    }
    let close = match bytes.iter().position(|&c| c == ']') {
        Some(i) => i,
        None => return (Vec::new(), 0, 0),
    };
    let mut chars = Vec::new();
    let mut i = 1;
    while i < close {
        if i + 2 < close && bytes[i + 1] == '-' {
            let (lo, hi) = (bytes[i] as u32, bytes[i + 2] as u32);
            for c in lo..=hi {
                if let Some(c) = char::from_u32(c) {
                    chars.push(c);
                }
            }
            i += 3;
        } else {
            // `\\` escapes inside a class pass the next char through.
            if bytes[i] == '\\' && i + 1 < close {
                i += 1;
            }
            chars.push(bytes[i]);
            i += 1;
        }
    }
    // Repetition suffix {m,n}, {m}, or none (defaults to exactly one).
    let rest: String = bytes[close + 1..].iter().collect();
    let (min, max) = if rest.starts_with('{') && rest.ends_with('}') {
        let body = &rest[1..rest.len() - 1];
        match body.split_once(',') {
            Some((m, n)) => (m.trim().parse().unwrap_or(0), n.trim().parse().unwrap_or(1)),
            None => {
                let k = body.trim().parse().unwrap_or(1);
                (k, k)
            }
        }
    } else {
        (1, 1)
    };
    (chars, min, max)
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Uniform choice among boxed strategies (built by `prop_oneof!`).
pub struct Union<T> {
    arms: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Builds the union; panics on zero arms.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.usize_in(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn string_pattern_shapes() {
        let mut rng = TestRng::for_case("string_pattern_shapes", 0);
        for _ in 0..200 {
            let s = "[a-z]{1,6}".generate(&mut rng);
            assert!((1..=6).contains(&s.len()), "bad len {s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = "[ab_%]{0,8}".generate(&mut rng);
            assert!(t.len() <= 8);
            assert!(t.chars().all(|c| matches!(c, 'a' | 'b' | '_' | '%')));
        }
    }

    #[test]
    fn ranges_and_tuples() {
        let mut rng = TestRng::for_case("ranges_and_tuples", 1);
        for _ in 0..200 {
            let v = (1..40i64).generate(&mut rng);
            assert!((1..40).contains(&v));
            let (a, b) = (1..40i64, "[a-z]{1,6}").generate(&mut rng);
            assert!((1..40).contains(&a) && !b.is_empty());
        }
    }

    #[test]
    fn union_hits_every_arm() {
        let mut rng = TestRng::for_case("union_hits_every_arm", 2);
        let u = crate::prop_oneof![Just(0u8), Just(1u8), Just(2u8)];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[u.generate(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
