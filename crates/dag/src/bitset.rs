//! A fixed-capacity bit set backed by `u64` words.
//!
//! Reachability queries dominate the cost of every membership checker in
//! this workspace, so the representation is kept deliberately simple and
//! cache-friendly: one contiguous `Vec<u64>`, no growth, no indirection.
//! All set operations between two sets require equal capacity.

/// A fixed-capacity set of `usize` values in `0..capacity`.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

const WORD_BITS: usize = 64;

#[inline]
fn word_index(bit: usize) -> (usize, u64) {
    (bit / WORD_BITS, 1u64 << (bit % WORD_BITS))
}

impl BitSet {
    /// Creates an empty set able to hold values in `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet { words: vec![0; capacity.div_ceil(WORD_BITS)], capacity }
    }

    /// Creates a set containing every value in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for w in &mut s.words {
            *w = !0;
        }
        s.trim();
        s
    }

    /// The maximum number of distinct values this set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Raises the capacity to `new_capacity`, preserving all current
    /// members. No-op if the set is already at least that large. This is
    /// the one growth path, used by the incremental reachability append
    /// ([`crate::Reachability::extend`]) to keep all closure sets at a
    /// shared geometric capacity.
    pub fn grow(&mut self, new_capacity: usize) {
        if new_capacity <= self.capacity {
            return;
        }
        self.words.resize(new_capacity.div_ceil(WORD_BITS), 0);
        self.capacity = new_capacity;
    }

    /// Zeroes any bits beyond `capacity` (internal invariant).
    fn trim(&mut self) {
        let extra = self.words.len() * WORD_BITS - self.capacity;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= !0 >> extra;
            }
        }
    }

    /// Inserts `bit`. Panics if `bit >= capacity`.
    #[inline]
    pub fn insert(&mut self, bit: usize) {
        assert!(bit < self.capacity, "bit {bit} out of capacity {}", self.capacity);
        let (w, m) = word_index(bit);
        self.words[w] |= m;
    }

    /// Removes `bit`. Panics if `bit >= capacity`.
    #[inline]
    pub fn remove(&mut self, bit: usize) {
        assert!(bit < self.capacity, "bit {bit} out of capacity {}", self.capacity);
        let (w, m) = word_index(bit);
        self.words[w] &= !m;
    }

    /// Tests membership of `bit`.
    #[inline]
    pub fn contains(&self, bit: usize) -> bool {
        if bit >= self.capacity {
            return false;
        }
        let (w, m) = word_index(bit);
        self.words[w] & m != 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union: `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: `self −= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Whether the two sets share at least one element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Re-initialises to an empty set of `capacity` bits in place,
    /// reusing the existing word storage (no allocation when the new
    /// capacity needs no more words than the old one).
    pub fn reset(&mut self, capacity: usize) {
        let words = capacity.div_ceil(WORD_BITS);
        self.words.truncate(words);
        for w in &mut self.words {
            *w = 0;
        }
        self.words.resize(words, 0);
        self.capacity = capacity;
    }

    /// Makes `self` an exact copy of `other`, reusing storage
    /// (`clone_from` without the derive's field-by-field indirection).
    pub fn copy_from(&mut self, other: &BitSet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.capacity = other.capacity;
    }

    /// The backing words, lowest elements first: bit `i % 64` of word
    /// `i / 64` is element `i`. Bits at or beyond `capacity` are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Ones<'_> {
        Ones { words: &self.words, current: self.words.first().copied().unwrap_or(0), word_idx: 0 }
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects values into a set whose capacity is `max + 1`.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |&m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

/// Iterator over set bits, lowest first.
pub struct Ones<'a> {
    words: &'a [u64],
    current: u64,
    word_idx: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let tz = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_members() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(0));
        assert!(!s.contains(99));
    }

    #[test]
    fn grow_preserves_members_and_extends_range() {
        let mut s = BitSet::new(10);
        s.insert(3);
        s.insert(9);
        s.grow(200);
        assert_eq!(s.capacity(), 200);
        assert!(s.contains(3) && s.contains(9));
        assert_eq!(s.len(), 2);
        s.insert(199);
        assert!(s.contains(199));
        // Shrinking requests are ignored.
        s.grow(5);
        assert_eq!(s.capacity(), 200);
        assert!(s.contains(199));
    }

    #[test]
    fn insert_and_contains_across_word_boundary() {
        let mut s = BitSet::new(130);
        for &b in &[0, 63, 64, 65, 127, 128, 129] {
            s.insert(b);
        }
        for &b in &[0, 63, 64, 65, 127, 128, 129] {
            assert!(s.contains(b), "missing {b}");
        }
        assert!(!s.contains(1));
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn words_expose_members_bit_by_bit() {
        let mut s = BitSet::full(70);
        s.remove(64);
        assert_eq!(s.words(), &[!0, (1 << 6) - 2]);
        assert!(BitSet::new(0).words().is_empty());
    }

    #[test]
    fn remove_clears_membership() {
        let mut s = BitSet::new(10);
        s.insert(3);
        s.insert(7);
        s.remove(3);
        assert!(!s.contains(3));
        assert!(s.contains(7));
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn union_intersection_difference() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        a.insert(1);
        a.insert(2);
        b.insert(2);
        b.insert(3);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn subset_and_intersects() {
        let a: BitSet = [1usize, 2].into_iter().collect();
        let mut b = BitSet::new(3);
        b.insert(1);
        b.insert(2);
        let mut c = BitSet::new(3);
        c.insert(2);
        assert!(c.is_subset(&b));
        assert!(!b.is_subset(&c));
        assert!(b.intersects(&c));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn iter_on_empty_words() {
        let s = BitSet::new(0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn iter_yields_sorted_unique() {
        let mut s = BitSet::new(200);
        for &b in &[199, 5, 64, 5, 128] {
            s.insert(b);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 64, 128, 199]);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::full(65);
        s.clear();
        assert!(s.is_empty());
    }
}
