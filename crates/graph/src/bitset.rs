//! Packed bitsets over dense `u32`/`usize` universes.
//!
//! The responsibility hot path (DNF minimization, hitting-set
//! branch-and-bound, contingency search) is set algebra over small dense
//! universes: once tuple variables are interned to dense ids, every
//! subset / intersection / difference test collapses to a handful of
//! word-wise `u64` operations instead of a pointer-chasing tree walk.
//! [`FixedBitSet`] is that representation. The same type backs the
//! max-flow module's residual-reachability marking in min-cut
//! extraction.
//!
//! Semantically a `FixedBitSet` is a finite set of `usize` elements; the
//! backing word vector grows on demand and **trailing zero words never
//! affect equality, ordering, or hashing** — `{1, 2}` is the same set no
//! matter how wide the buffer that holds it.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

const BITS: usize = u64::BITS as usize;

/// A growable packed bitset of `usize` elements.
#[derive(Clone, Default)]
pub struct FixedBitSet {
    words: Vec<u64>,
}

impl FixedBitSet {
    /// The empty set.
    pub fn new() -> Self {
        FixedBitSet::default()
    }

    /// The empty set with capacity for elements `0..bits` preallocated.
    pub fn with_capacity(bits: usize) -> Self {
        FixedBitSet {
            words: vec![0; bits.div_ceil(BITS)],
        }
    }

    /// Build a set from elements.
    pub fn from_iter_elems(elems: impl IntoIterator<Item = usize>) -> Self {
        let mut set = FixedBitSet::new();
        for e in elems {
            set.insert(e);
        }
        set
    }

    /// Number of backing words (for sizing scratch buffers).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Insert `elem`, growing the backing storage as needed.
    pub fn insert(&mut self, elem: usize) {
        let w = elem / BITS;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (elem % BITS);
    }

    /// Remove `elem` if present.
    pub fn remove(&mut self, elem: usize) {
        let w = elem / BITS;
        if w < self.words.len() {
            self.words[w] &= !(1u64 << (elem % BITS));
        }
    }

    /// Whether `elem` is in the set.
    pub fn contains(&self, elem: usize) -> bool {
        let w = elem / BITS;
        w < self.words.len() && self.words[w] & (1u64 << (elem % BITS)) != 0
    }

    /// Number of elements (popcount).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove all elements, keeping the allocation (scratch reuse).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether `self ⊆ other`: word-wise masked compare with early exit.
    pub fn is_subset(&self, other: &FixedBitSet) -> bool {
        for (i, &w) in self.words.iter().enumerate() {
            let o = other.words.get(i).copied().unwrap_or(0);
            if w & !o != 0 {
                return false;
            }
        }
        true
    }

    /// Whether the two sets share an element.
    pub fn intersects(&self, other: &FixedBitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(&a, &b)| a & b != 0)
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &FixedBitSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// `self ∩= other`.
    pub fn intersect_with(&mut self, other: &FixedBitSet) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// `self ∖= other` (restriction with `true` in lineage terms).
    pub fn difference_with(&mut self, other: &FixedBitSet) {
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// A fresh `self ∖ other` without mutating either operand.
    pub fn without(&self, other: &FixedBitSet) -> FixedBitSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Iterate the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(i * BITS + bit)
            })
        })
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * BITS + w.trailing_zeros() as usize)
    }

    /// Compare as *sorted element sequences* — the order `BTreeSet`s of
    /// the same elements would compare in ({1,5} < {2}, prefixes first).
    /// This is the ordering lineage minimization sorts conjuncts by; it
    /// is **not** the subset order.
    ///
    /// Word-wise: below the smallest element `d` in exactly one of the
    /// sets, the sequences agree. The set holding `d` sorts first if the
    /// other one still has an element (necessarily above `d`) and last
    /// if the other one ends there, being its prefix.
    pub fn cmp_elements(&self, other: &FixedBitSet) -> Ordering {
        let n = self.words.len().max(other.words.len());
        for i in 0..n {
            let a = self.words.get(i).copied().unwrap_or(0);
            let b = other.words.get(i).copied().unwrap_or(0);
            let diff = a ^ b;
            if diff == 0 {
                continue;
            }
            let bit = diff & diff.wrapping_neg();
            return match (
                a & bit != 0,
                self.any_above(i, bit),
                other.any_above(i, bit),
            ) {
                (true, _, true) | (false, false, _) => Ordering::Less,
                (true, _, false) | (false, true, _) => Ordering::Greater,
            };
        }
        Ordering::Equal
    }

    /// Whether the set has an element above the one at `bit` of word
    /// `word`.
    fn any_above(&self, word: usize, bit: u64) -> bool {
        let above = !(bit | (bit - 1));
        self.words.get(word).is_some_and(|&w| w & above != 0)
            || self.words.iter().skip(word + 1).any(|&w| w != 0)
    }
}

impl PartialEq for FixedBitSet {
    fn eq(&self, other: &Self) -> bool {
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| {
            self.words.get(i).copied().unwrap_or(0) == other.words.get(i).copied().unwrap_or(0)
        })
    }
}

impl Eq for FixedBitSet {}

/// Total order for use as a map/set key (word-wise, padding with zeros).
/// Like the derived order on the element vector it is arbitrary but
/// consistent with [`FixedBitSet::eq`]; use
/// [`FixedBitSet::cmp_elements`] when the `BTreeSet`-style sequence
/// order matters.
impl Ord for FixedBitSet {
    fn cmp(&self, other: &Self) -> Ordering {
        let n = self.words.len().max(other.words.len());
        for i in 0..n {
            let a = self.words.get(i).copied().unwrap_or(0);
            let b = other.words.get(i).copied().unwrap_or(0);
            match a.cmp(&b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for FixedBitSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for FixedBitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash only up to the last nonzero word so equal sets with
        // different buffer widths hash identically.
        let last = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        self.words[..last].hash(state);
    }
}

/// Renders like a set literal (`{1, 5, 9}`) for test-failure readability.
impl fmt::Debug for FixedBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for FixedBitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        FixedBitSet::from_iter_elems(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn set(elems: &[usize]) -> FixedBitSet {
        elems.iter().copied().collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = FixedBitSet::new();
        assert!(s.is_empty());
        s.insert(3);
        s.insert(200); // forces growth across word boundaries
        assert!(s.contains(3) && s.contains(200));
        assert!(!s.contains(4) && !s.contains(1000));
        assert_eq!(s.len(), 2);
        s.remove(3);
        s.remove(999); // out of range: no-op
        assert!(!s.contains(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let narrow = set(&[1, 2]);
        let mut wide = FixedBitSet::with_capacity(1024);
        wide.insert(1);
        wide.insert(2);
        assert_eq!(narrow, wide);
        assert_eq!(narrow.cmp(&wide), Ordering::Equal);
        let mut grown = set(&[1, 2, 500]);
        grown.remove(500);
        assert_eq!(narrow, grown);
        // Hash consistency with Eq.
        use std::collections::hash_map::DefaultHasher;
        let h = |s: &FixedBitSet| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&narrow), h(&wide));
        assert_eq!(h(&narrow), h(&grown));
    }

    #[test]
    fn subset_and_intersection_match_btreeset() {
        let cases: &[(&[usize], &[usize])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[1, 3], &[1, 2, 3]),
            (&[1, 64, 130], &[1, 64]),
            (&[63, 64, 65], &[64]),
            (&[0, 127], &[0, 127, 128]),
        ];
        for (a, b) in cases {
            let (fa, fb) = (set(a), set(b));
            let (ba, bb): (BTreeSet<_>, BTreeSet<_>) = (a.iter().collect(), b.iter().collect());
            assert_eq!(fa.is_subset(&fb), ba.is_subset(&bb), "{a:?} ⊆ {b:?}");
            assert_eq!(fb.is_subset(&fa), bb.is_subset(&ba), "{b:?} ⊆ {a:?}");
            assert_eq!(fa.intersects(&fb), !ba.is_disjoint(&bb), "{a:?} ∩ {b:?}");
        }
    }

    #[test]
    fn word_ops_match_set_algebra() {
        let a = set(&[1, 5, 64, 200]);
        let b = set(&[5, 64, 300]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, set(&[1, 5, 64, 200, 300]));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, set(&[5, 64]));
        assert_eq!(a.without(&b), set(&[1, 200]));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, set(&[1, 200]));
    }

    #[test]
    fn iter_ascending_and_first() {
        let s = set(&[130, 2, 64, 7]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 7, 64, 130]);
        assert_eq!(s.first(), Some(2));
        assert_eq!(FixedBitSet::new().first(), None);
    }

    #[test]
    fn cmp_elements_matches_btreeset_order() {
        // The classic witness that sequence order ≠ word order:
        // {1,5} < {2} as sequences, but 2^1|2^5 > 2^2 as words.
        let a = set(&[1, 5]);
        let b = set(&[2]);
        assert_eq!(a.cmp_elements(&b), Ordering::Less);
        let ba: BTreeSet<usize> = [1, 5].into();
        let bb: BTreeSet<usize> = [2].into();
        assert_eq!(a.cmp_elements(&b), ba.cmp(&bb));
        // Prefix sorts first.
        assert_eq!(set(&[1]).cmp_elements(&set(&[1, 9])), Ordering::Less);
        assert_eq!(set(&[3]).cmp_elements(&set(&[3])), Ordering::Equal);
    }

    #[test]
    fn cmp_elements_agrees_with_sequence_order_across_words() {
        // Sets over 0..200 (four words, the top bit of a word included),
        // drawn with a fixed LCG, some with trailing zero words.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let elems = [0, 1, 2, 62, 63, 64, 65, 127, 128, 190, 191];
        let sets: Vec<FixedBitSet> = (0..300)
            .map(|_| {
                let mut s = FixedBitSet::with_capacity(draw(2) as usize * 256);
                for _ in 0..draw(5) {
                    s.insert(elems[draw(elems.len() as u64) as usize]);
                }
                s
            })
            .collect();
        for a in &sets {
            for b in &sets {
                assert_eq!(a.cmp_elements(b), a.iter().cmp(b.iter()), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = set(&[500]);
        let words = s.word_count();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.word_count(), words, "scratch reuse keeps allocation");
    }
}
