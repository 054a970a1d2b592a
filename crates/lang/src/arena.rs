//! The shared append-only arena every interning structure stores into.
//!
//! An [`Arena`] is a vector cut into fixed-size chunks. A chunk is
//! either **owned** — a plain `Vec` only this arena can see, written in
//! place at `Vec` speed — or **published** — behind an [`Arc`],
//! immutable while anyone else holds it. That makes a committed state
//! publishable as a *frozen prefix*: [`Arena::share`] moves every owned
//! chunk behind an `Arc` (no element is cloned) and hands out a second
//! arena over the same chunks, an ordinary immutable value, `Send +
//! Sync`, read with plain loads — no lock, no atomic on any read path.
//! The owner keeps writing: a write to a chunk a clone still shares
//! copies **that chunk only** (copy-on-write, after which it is owned
//! again); a write to a published chunk whose clones are all gone takes
//! it back without copying; a full chunk that is never written again is
//! never copied again. Grounding and term interning are append-only, so
//! after a snapshot the writer re-copies at most the tail chunk of each
//! arena it appends to.
//!
//! Append-only has one exception, the rollback of a commit:
//! [`Arena::truncate_to`] cuts the arena back to a length it had
//! earlier. Whole tail chunks are dropped (a clone that shares them
//! keeps them alive) and the last kept chunk is shortened — in place if
//! only this arena holds it, otherwise by leaving the published chunk to
//! its clones and taking a copy of the kept prefix. Either way a clone
//! never sees the cut, nor the different values the writer pushes into
//! the freed positions afterwards.
//!
//! `clone()` keeps value semantics for every caller: shared chunks cost
//! one refcount bump each, owned ones are copied — so cloning a frozen
//! value (a snapshot's store) copies nothing, and cloning a live writer
//! copies exactly what it has not published yet.
//!
//! The chunk size is a constant, [`CHUNK`]. It trades the writer's
//! copy-on-write cost (at most one chunk per arena written after a
//! publish) against what chunking costs everyone else: each chunk is a
//! refcount bump at publish, and each chunk boundary restarts the
//! hardware prefetch stream of a sequential scan. Measured on the
//! 10^5-atom benchmark board: at 512 elements predicate scans ran ~10%
//! slower than over flat vectors, at 2048 the difference is inside the
//! run-to-run spread, and at 4096 a chunk of terms would cross the
//! allocator's `mmap` threshold.
//!
//! Copy-on-write work is tallied on the writer's side ([`CowTally`]) so
//! a session can report — and a test can bound — what publishing a
//! commit really copied.

use std::ops::Index;
use std::sync::Arc;

/// log₂ of [`CHUNK`].
pub const CHUNK_BITS: u32 = 11;
/// Elements per chunk.
pub const CHUNK: usize = 1 << CHUNK_BITS;
const MASK: usize = CHUNK - 1;

/// What copy-on-write has cost one writer so far: chunks it found
/// shared with a clone when it wrote to them, and the bytes it copied
/// to unshare them. Monotone; compare two readings for a delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowTally {
    /// Chunks copied because a clone still shared them.
    pub chunks: u64,
    /// `size_of::<T>()` × elements in those chunks.
    pub bytes: u64,
}

impl std::ops::Add for CowTally {
    type Output = CowTally;
    fn add(self, o: CowTally) -> CowTally {
        CowTally {
            chunks: self.chunks + o.chunks,
            bytes: self.bytes + o.bytes,
        }
    }
}

impl CowTally {
    /// The work done since the earlier reading `base`.
    pub fn delta_since(&self, base: &CowTally) -> CowTally {
        CowTally {
            chunks: self.chunks - base.chunks,
            bytes: self.bytes - base.bytes,
        }
    }
}

#[derive(Clone)]
enum Chunk<T> {
    /// Visible to this arena only: written in place, at `Vec` speed.
    Owned(Vec<T>),
    /// Published: the writer's `Vec`, spare capacity included, behind
    /// an `Arc` — immutable while a clone holds it, taken back without
    /// a copy once none does.
    Shared(Arc<Vec<T>>),
}

impl<T> Chunk<T> {
    #[inline]
    fn as_vec(&self) -> &Vec<T> {
        match self {
            Chunk::Owned(v) => v,
            Chunk::Shared(v) => v,
        }
    }
}

/// A chunked, structurally shared vector. See the module docs.
#[derive(Clone)]
pub struct Arena<T> {
    /// Every chunk but the last holds exactly [`CHUNK`] elements.
    chunks: Vec<Chunk<T>>,
    len: usize,
    cow: CowTally,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena. Allocates nothing.
    pub const fn new() -> Self {
        Arena {
            chunks: Vec::new(),
            len: 0,
            cow: CowTally {
                chunks: 0,
                bytes: 0,
            },
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `i`, if in bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i >> CHUNK_BITS)?.as_vec().get(i & MASK)
    }

    /// The chunk holding element `i`, as `(index of its first element,
    /// its elements)` — lets a loop over nearby indices pay the chunk
    /// lookup once per chunk instead of once per element.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn run_of(&self, i: usize) -> (usize, &[T]) {
        assert!(i < self.len, "arena index out of bounds");
        (i & !MASK, self.chunks[i >> CHUNK_BITS].as_vec())
    }

    /// Iterates the elements in index order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            chunks: self.chunks.iter(),
            current: [].iter(),
            remaining: self.len,
        }
    }

    /// Iterates the elements from index `start` on, in index order
    /// (nothing when `start` is at or past the end) — the appended tail
    /// behind a prefix some reader has already digested.
    pub fn iter_from(&self, start: usize) -> Iter<'_, T> {
        let start = start.min(self.len);
        let mut chunks = self.chunks[start >> CHUNK_BITS..].iter();
        let current = match chunks.next() {
            Some(chunk) => chunk.as_vec()[start & MASK..].iter(),
            None => [].iter(),
        };
        Iter {
            chunks,
            current,
            remaining: self.len - start,
        }
    }

    /// Bytes of element storage the chunks hold (capacity, not length),
    /// each chunk counted once whoever else shares it. O(1).
    pub fn heap_bytes(&self) -> usize {
        let slots = match self.chunks.last() {
            Some(tail) => (self.chunks.len() - 1) * CHUNK + tail.as_vec().capacity(),
            None => 0,
        };
        slots * std::mem::size_of::<T>()
    }

    /// Copy-on-write work this arena's writer has done.
    pub fn cow_tally(&self) -> CowTally {
        self.cow
    }

    /// Publishes the current contents: every owned chunk moves behind
    /// an [`Arc`] as it is and the returned arena shares all of them.
    /// No element is copied. O(chunks). This arena stays writable — see
    /// the module docs for what its next writes cost.
    pub fn share(&mut self) -> Arena<T> {
        let chunks = self
            .chunks
            .iter_mut()
            .map(|chunk| {
                if let Chunk::Owned(v) = chunk {
                    *chunk = Chunk::Shared(Arc::new(std::mem::take(v)));
                }
                match chunk {
                    Chunk::Shared(v) => Chunk::Shared(Arc::clone(v)),
                    Chunk::Owned(_) => unreachable!("every chunk was just published"),
                }
            })
            .collect();
        Arena {
            chunks,
            len: self.len,
            cow: CowTally::default(),
        }
    }
}

impl<T: Clone> Arena<T> {
    /// Makes `chunk` writable in place: nothing to do when owned; a
    /// published chunk is taken back if its clones are gone and copied
    /// (tallied) if not. Either way this arena owns it afterwards.
    #[inline]
    fn owned<'c>(chunk: &'c mut Chunk<T>, cow: &mut CowTally) -> &'c mut Vec<T> {
        if matches!(chunk, Chunk::Shared(_)) {
            let Chunk::Shared(shared) = std::mem::replace(chunk, Chunk::Owned(Vec::new())) else {
                unreachable!("matched above")
            };
            let vec = Arc::try_unwrap(shared).unwrap_or_else(|still_shared| {
                cow.chunks += 1;
                cow.bytes += (still_shared.len() * std::mem::size_of::<T>()) as u64;
                let mut copy = Vec::with_capacity(still_shared.capacity());
                copy.extend(still_shared.iter().cloned());
                copy
            });
            *chunk = Chunk::Owned(vec);
        }
        match chunk {
            Chunk::Owned(v) => v,
            Chunk::Shared(_) => unreachable!("chunk was just unshared"),
        }
    }

    /// An arena of `n` copies of `value`, built chunk by chunk (no flat
    /// staging buffer).
    pub fn filled(n: usize, value: T) -> Self {
        let chunks = (0..n.div_ceil(CHUNK))
            .map(|c| Chunk::Owned(vec![value.clone(); CHUNK.min(n - c * CHUNK)]))
            .collect();
        Arena {
            chunks,
            len: n,
            cow: CowTally::default(),
        }
    }

    /// Appends `value`.
    pub fn push(&mut self, value: T) {
        if self.len & MASK == 0 {
            // The first chunk grows by doubling so small arenas stay
            // small; later chunks are sized once.
            let cap = if self.chunks.is_empty() { 0 } else { CHUNK };
            self.chunks.push(Chunk::Owned(Vec::with_capacity(cap)));
        }
        let tail = self.chunks.last_mut().expect("a tail chunk exists");
        Self::owned(tail, &mut self.cow).push(value);
        self.len += 1;
    }

    /// Cuts the arena back to its first `len` elements (a no-op when it
    /// holds no more): whole tail chunks are dropped and the last kept
    /// one is shortened. A chunk only this arena holds is shortened in
    /// place and keeps its capacity, so truncating and pushing again
    /// inside one chunk allocates nothing. A chunk a clone still shares
    /// is left to the clone as it is — a published chunk never changes
    /// under a reader — and this arena takes a copy of the kept prefix
    /// (tallied as copy-on-write), which its next pushes then extend:
    /// every clone keeps reading the values it was published with,
    /// whatever the writer pushes into the same positions afterwards.
    pub fn truncate_to(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.chunks.truncate(len.div_ceil(CHUNK));
        self.len = len;
        let keep = len & MASK;
        if keep == 0 {
            return; // the last kept chunk is full (or none is kept)
        }
        let tail = self.chunks.last_mut().expect("a partial tail chunk");
        if let Chunk::Shared(shared) = tail {
            if Arc::get_mut(shared).is_none() {
                self.cow.chunks += 1;
                self.cow.bytes += (keep * std::mem::size_of::<T>()) as u64;
                let mut copy = Vec::with_capacity(shared.capacity());
                copy.extend(shared[..keep].iter().cloned());
                *tail = Chunk::Owned(copy);
                return;
            }
        }
        Self::owned(tail, &mut self.cow).truncate(keep);
    }

    /// Mutable access to the element at `i`, unsharing its chunk first.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        let chunk = &mut self.chunks[i >> CHUNK_BITS];
        &mut Self::owned(chunk, &mut self.cow)[i & MASK]
    }
}

/// Iterator over an [`Arena`]'s elements. Knows its exact length, so
/// collecting from it allocates once. The default is empty.
#[derive(Clone)]
pub struct Iter<'a, T> {
    chunks: std::slice::Iter<'a, Chunk<T>>,
    current: std::slice::Iter<'a, T>,
    remaining: usize,
}

impl<T> Default for Iter<'_, T> {
    fn default() -> Self {
        Iter {
            chunks: [].iter(),
            current: [].iter(),
            remaining: 0,
        }
    }
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.current.next() {
                self.remaining -= 1;
                return Some(item);
            }
            self.current = self.chunks.next()?.as_vec().iter();
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

impl<T> Index<usize> for Arena<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.chunks[i >> CHUNK_BITS].as_vec()[i & MASK]
    }
}

impl<T> FromIterator<T> for Arena<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut arena = Arena::new();
        loop {
            let chunk: Vec<T> = iter.by_ref().take(CHUNK).collect();
            let n = chunk.len();
            if n > 0 {
                arena.len += n;
                arena.chunks.push(Chunk::Owned(chunk));
            }
            if n < CHUNK {
                return arena;
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per chunk: 0 if owned, else its `Arc::strong_count`.
    fn counts<T>(a: &Arena<T>) -> Vec<usize> {
        a.chunks
            .iter()
            .map(|c| match c {
                Chunk::Owned(_) => 0,
                Chunk::Shared(v) => Arc::strong_count(v),
            })
            .collect()
    }

    #[test]
    fn empty_arena_allocates_nothing_and_reads_as_empty() {
        let mut a: Arena<u32> = Arena::new();
        assert_eq!((a.len(), a.chunks.len(), a.heap_bytes()), (0, 0, 0));
        assert!(a.get(0).is_none());
        assert_eq!(a.iter().count(), 0);
        assert_eq!(a.iter_from(3).count(), 0);
        assert_eq!(a.share().len(), 0);
    }

    #[test]
    fn chunk_boundaries_minus_one_zero_plus_one() {
        for n in [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1] {
            let mut a = Arena::new();
            for i in 0..n {
                a.push(i);
            }
            assert_eq!(a.len(), n);
            assert_eq!(a.chunks.len(), n.div_ceil(CHUNK));
            assert!((0..n).all(|i| a[i] == i && a.get(i) == Some(&i)));
            assert!(a.get(n).is_none());
            assert!(a.iter().copied().eq(0..n));
            assert_eq!(a.iter().len(), n);
            for from in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, n - 1, n, n + 1] {
                assert!(a.iter_from(from).copied().eq(from.min(n)..n), "{from}");
                assert_eq!(a.iter_from(from).len(), n.saturating_sub(from));
            }
            let collected: Arena<usize> = (0..n).collect();
            assert!(collected.iter().eq(a.iter()));
            assert_eq!(collected.chunks.len(), a.chunks.len());
            // Sharing at the boundary, then writing past it.
            let frozen = a.share();
            a.push(n);
            assert_eq!((frozen.len(), a.len()), (n, n + 1));
            assert!(frozen.iter().copied().eq(0..n));
            assert!(a.iter().copied().eq(0..=n));
        }
    }

    #[test]
    fn share_then_write_leaves_the_shared_arena_unchanged() {
        let mut a: Arena<String> = (0..CHUNK + 3).map(|i| i.to_string()).collect();
        let frozen = a.share();
        a.push("new".to_owned());
        *a.get_mut(0) = "rewritten".to_owned();
        assert_eq!(frozen.len(), CHUNK + 3);
        assert_eq!(frozen[0], "0");
        assert!(frozen.get(CHUNK + 3).is_none());
        assert_eq!(a[0], "rewritten");
        assert_eq!(a[CHUNK + 3], "new");
    }

    #[test]
    fn push_after_share_copies_exactly_the_tail_chunk() {
        let mut a: Arena<u64> = (0..2 * CHUNK as u64 + 10).collect();
        assert_eq!(counts(&a), vec![0, 0, 0]);
        let frozen = a.share();
        assert_eq!(counts(&a), vec![2, 2, 2]);
        a.push(7);
        // Full chunks stay shared; only the tail was copied, and the
        // writer owns the copy.
        assert_eq!(counts(&a), vec![2, 2, 0]);
        assert_eq!(counts(&frozen), vec![2, 2, 1]);
        assert_eq!(
            a.cow_tally(),
            CowTally {
                chunks: 1,
                bytes: 10 * 8
            }
        );
        // Further pushes copy nothing.
        a.push(8);
        assert_eq!(a.cow_tally().chunks, 1);
        drop(frozen);
        assert_eq!(counts(&a), vec![1, 1, 0]);
    }

    #[test]
    fn write_after_the_shared_arena_is_gone_copies_nothing() {
        let mut a: Arena<u64> = (0..CHUNK as u64 + 10).collect();
        drop(a.share());
        assert_eq!(counts(&a), vec![1, 1]);
        a.push(1);
        *a.get_mut(3) = 9;
        // Both chunks were taken back, not copied.
        assert_eq!(counts(&a), vec![0, 0]);
        assert_eq!(a.cow_tally(), CowTally::default());
        assert_eq!((a[3], a[CHUNK + 10]), (9, 1));
    }

    #[test]
    fn push_onto_an_exactly_full_shared_arena_shares_every_old_chunk() {
        let mut a: Arena<u64> = (0..CHUNK as u64).collect();
        let frozen = a.share();
        a.push(1);
        assert_eq!(counts(&a), vec![2, 0]);
        assert_eq!(a.cow_tally(), CowTally::default());
        assert_eq!(frozen.len(), CHUNK);
    }

    #[test]
    fn get_mut_unshares_only_the_written_chunk() {
        let mut a: Arena<u64> = (0..3 * CHUNK as u64).collect();
        let frozen = a.share();
        *a.get_mut(CHUNK + 5) = 0;
        assert_eq!(counts(&a), vec![2, 0, 2]);
        assert_eq!(frozen[CHUNK + 5], CHUNK as u64 + 5);
        assert_eq!(
            a.cow_tally(),
            CowTally {
                chunks: 1,
                bytes: (CHUNK * 8) as u64
            }
        );
    }

    #[test]
    fn clone_bumps_shared_chunks_and_copies_owned_ones() {
        let mut a: Arena<u64> = (0..CHUNK as u64 + 10).collect();
        let frozen = a.share();
        a.push(1); // the tail is owned again
        let b = a.clone();
        assert_eq!(counts(&a), vec![3, 0]);
        assert_eq!(counts(&b), vec![3, 0]);
        assert!(b.iter().eq(a.iter()));
        // A clone of a frozen value copies nothing.
        let c = frozen.clone();
        assert_eq!(counts(&c), vec![4, 2]);
    }

    #[test]
    fn truncate_drops_tail_chunks_and_copies_at_most_the_kept_prefix() {
        let mut a: Arena<u64> = (0..2 * CHUNK as u64 + 10).collect();
        // Unshared: cut in place, nothing tallied, capacity kept.
        a.truncate_to(2 * CHUNK + 4);
        assert_eq!((a.len(), counts(&a)), (2 * CHUNK + 4, vec![0, 0, 0]));
        assert_eq!(a.cow_tally(), CowTally::default());
        // Shared: the clone keeps its chunk whole; the writer copies the
        // four values it keeps, and what it pushes next is its own.
        let frozen = a.share();
        a.truncate_to(2 * CHUNK + 2);
        assert_eq!(counts(&a), vec![2, 2, 0]);
        assert_eq!(
            a.cow_tally(),
            CowTally {
                chunks: 1,
                bytes: 2 * 8
            }
        );
        a.push(77);
        assert_eq!(
            (frozen.len(), frozen[2 * CHUNK + 2]),
            (2 * CHUNK + 4, 2 * CHUNK as u64 + 2)
        );
        assert_eq!((a.len(), a[2 * CHUNK + 2]), (2 * CHUNK + 3, 77));
        // Cut at a chunk boundary, or past the end: no chunk is touched.
        a.truncate_to(a.len() + 5);
        a.truncate_to(2 * CHUNK);
        assert_eq!((a.len(), counts(&a)), (2 * CHUNK, vec![2, 2]));
        assert_eq!(a.cow_tally().chunks, 1);
        // A published chunk whose clone is gone is taken back, not copied.
        drop(frozen);
        a.truncate_to(CHUNK + 1);
        assert_eq!((counts(&a), a.cow_tally().chunks), (vec![1, 0], 1));
        assert!(a.iter().copied().eq(0..CHUNK as u64 + 1));
        a.truncate_to(0);
        assert_eq!((a.len(), a.chunks.len(), a.iter().count()), (0, 0, 0));
    }

    #[test]
    fn heap_bytes_counts_capacity_chunk_by_chunk() {
        let mut a: Arena<u32> = Arena::new();
        a.push(1);
        assert!(a.heap_bytes() >= 4 && a.heap_bytes() <= 64);
        for i in 0..CHUNK as u32 {
            a.push(i);
        }
        assert_eq!(a.heap_bytes(), 2 * CHUNK * 4);
    }
}
