//! A fixed-capacity bit set over dense ground-atom ids.
//!
//! The fixpoint engines spend their time in membership tests and
//! insertions over `GroundAtomId`s, so a `Vec<u64>` bitset (rather than a
//! hash set) keeps them cache-friendly.

/// A fixed-capacity set of `u32` indices backed by 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for indices `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The capacity (number of representable indices).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Inserts `i`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Inserts every index in `0..capacity`.
    pub fn fill(&mut self) {
        self.words.fill(u64::MAX);
        self.trim();
    }

    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.len;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// `self ∪= other` (capacities must match).
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self ∩= other` (capacities must match).
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Whether `self ∩ other = ∅`.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// The complement within `0..capacity`.
    pub fn complement(&self) -> BitSet {
        let mut out = BitSet {
            words: self.words.iter().map(|&w| !w).collect(),
            len: self.len,
        };
        out.trim();
        out
    }

    /// Complements in place within `0..capacity` — the allocation-free
    /// form used by the reusable fixpoint scratch.
    pub fn complement_in_place(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.trim();
    }

    /// Copies `other`'s contents into `self` (capacities must match);
    /// reuses the existing allocation.
    pub fn copy_from(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        self.words.copy_from_slice(&other.words);
    }

    /// The raw backing words, read-only. Lets the incremental fixpoint
    /// engines diff two same-capacity sets word-by-word instead of
    /// probing every index.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Grows the capacity to `new_len`, preserving the current members.
    /// No-op when `new_len` is not larger than the current capacity
    /// (only [`BitSet::truncate`] shrinks), so ids handed out earlier
    /// stay valid.
    /// This is the resize hook the session engines use when a commit
    /// appends ground atoms.
    pub fn grow(&mut self, new_len: usize) {
        if new_len <= self.len {
            return;
        }
        self.words.resize(new_len.div_ceil(64), 0);
        self.len = new_len;
    }

    /// Cuts the capacity back to `new_len`, dropping the members at or
    /// past it; a no-op when `new_len` is not smaller. The inverse of
    /// [`BitSet::grow`], for the engines a rolled-back commit shrinks
    /// again (the ids past the cut were handed out by the commit being
    /// undone, so nothing valid refers to them).
    pub fn truncate(&mut self, new_len: usize) {
        if new_len >= self.len {
            return;
        }
        self.words.truncate(new_len.div_ceil(64));
        self.len = new_len;
        self.trim();
    }

    /// Builds a set with explicit capacity `cap` from an iterator of
    /// member indices.
    ///
    /// This is the only iterator constructor: sizing a set to its
    /// largest member (as a `FromIterator` impl once did) silently
    /// violates the capacity-equality contract every binary operation
    /// (`union_with`, `is_subset`, …) debug-asserts the moment such a
    /// set meets a program-sized one.
    pub fn from_indices(cap: usize, iter: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(cap);
        for i in iter {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(!s.contains(63));
        assert!(s.insert(63));
        assert!(!s.insert(63));
        assert!(s.contains(63));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert!(!s.contains(63));
    }

    #[test]
    fn word_boundaries() {
        let mut s = BitSet::new(129);
        for i in [0, 63, 64, 127, 128] {
            s.insert(i);
        }
        assert_eq!(s.count(), 5);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 63, 64, 127, 128]);
    }

    #[test]
    fn fill_and_complement_respect_capacity() {
        let mut s = BitSet::new(70);
        s.fill();
        assert_eq!(s.count(), 70);
        let c = s.complement();
        assert!(c.is_empty());
        let empty = BitSet::new(70);
        assert_eq!(empty.complement().count(), 70);
    }

    #[test]
    fn truncate_drops_members_past_the_cut_and_regrows_clean() {
        let mut s = BitSet::from_indices(200, [0, 63, 64, 130, 131, 199]);
        s.truncate(131);
        assert_eq!(s.capacity(), 131);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 130]);
        assert_eq!(s.count(), 4);
        // Equal to a set that never had the dropped members — the stray
        // bits of the last word are gone, so growing brings none back.
        assert_eq!(s, BitSet::from_indices(131, [0, 63, 64, 130]));
        s.grow(200);
        assert_eq!(s, BitSet::from_indices(200, [0, 63, 64, 130]));
        s.truncate(300); // not smaller: a no-op
        assert_eq!(s.capacity(), 200);
        s.truncate(64);
        assert_eq!((s.count(), s.words().len()), (2, 1));
    }

    #[test]
    fn union_intersect_subset() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        a.insert(1);
        a.insert(2);
        b.insert(2);
        b.insert(3);
        assert!(!a.is_subset(&b));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 3);
        assert!(a.is_subset(&u));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn disjointness() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        a.insert(1);
        b.insert(2);
        assert!(a.is_disjoint(&b));
        b.insert(1);
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn from_indices_respects_requested_capacity() {
        let s = BitSet::from_indices(100, [3usize, 5, 9]);
        assert_eq!(s.capacity(), 100);
        assert_eq!(s.count(), 3);
        assert!(s.contains(9));
        // The whole point: it can meet a program-sized set without
        // tripping the capacity-equality contract.
        let mut program_sized = BitSet::new(100);
        program_sized.insert(64);
        program_sized.union_with(&s);
        assert_eq!(program_sized.count(), 4);
        assert!(s.is_subset(&program_sized));
    }

    #[test]
    fn zero_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert!(s.iter().next().is_none());
    }
}
