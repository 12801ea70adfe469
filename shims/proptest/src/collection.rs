//! Collection strategies: `vec`, `hash_set`, `btree_map`.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::{Range, RangeInclusive};

use crate::strategy::{Strategy, TestRng};

/// An inclusive size bound for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        rng.usize_in(self.lo, self.hi)
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

/// Generates `Vec`s of `element` values with a length in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
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

/// Generates `HashSet`s of `element` values. The set may come out smaller
/// than the sampled size when duplicates collide, as in real proptest.
pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
where
    S: Strategy,
    S::Value: Eq + Hash,
{
    HashSetStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`hash_set`].
pub struct HashSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for HashSetStrategy<S>
where
    S: Strategy,
    S::Value: Eq + Hash,
{
    type Value = HashSet<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
        let target = self.size.sample(rng);
        let mut set = HashSet::new();
        // Bounded attempts so low-entropy element strategies terminate.
        for _ in 0..target.saturating_mul(4).max(8) {
            if set.len() >= target {
                break;
            }
            set.insert(self.element.generate(rng));
        }
        set
    }
}

/// Generates `BTreeMap`s from key and value strategies. The map may come
/// out smaller than the sampled size when keys collide.
pub fn btree_map<K, V>(key: K, value: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    BTreeMapStrategy {
        key,
        value,
        size: size.into(),
    }
}

/// Strategy returned by [`btree_map`].
pub struct BTreeMapStrategy<K, V> {
    key: K,
    value: V,
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
        let target = self.size.sample(rng);
        let mut map = BTreeMap::new();
        for _ in 0..target.saturating_mul(4).max(8) {
            if map.len() >= target {
                break;
            }
            map.insert(self.key.generate(rng), self.value.generate(rng));
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::any;

    #[test]
    fn vec_respects_bounds() {
        let s = vec(any::<u8>(), 0..60);
        let mut rng = TestRng::new(4);
        for _ in 0..200 {
            assert!(s.generate(&mut rng).len() < 60);
        }
    }

    #[test]
    fn maps_and_sets_generate() {
        let mut rng = TestRng::new(5);
        let set = hash_set(0u32..10, 0..8).generate(&mut rng);
        assert!(set.len() < 8);
        let map = btree_map("[a-z]{1,8}", 1u32..1000, 1..5).generate(&mut rng);
        assert!(!map.is_empty() && map.len() < 5);
    }
}
