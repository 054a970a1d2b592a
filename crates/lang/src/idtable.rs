//! The one hash-interning table of the workspace: an open-addressing
//! set of `u32` ids over a caller-owned backing store.
//!
//! Symbols, terms, ground atoms and ground clauses all intern through
//! an [`IdTable`]: the key's identity lives wherever the caller keeps
//! it (a name arena, the term arena, the atom arena, the CSR clause
//! store) and the table stores only ids, hashing and comparing through
//! caller-supplied closures — so a probe never materialises an owned
//! key and no key is stored twice.
//!
//! The slot array is an [`Arena`], i.e. chunked and structurally
//! shared: [`IdTable::share`] publishes a table in one refcount bump
//! per chunk, and an insert into a table a clone still shares copies
//! the one chunk the claimed slot lives in. A grow builds a fresh slot
//! array, as any hash table does — every stored id is rehashed, once
//! per doubling, so a caller that knows its load calls
//! [`IdTable::reserve`] first. [`IdTable::truncate_to`] unlinks a
//! range of ids again (the caller is cutting its backing store back to
//! a mark): backward-shift deletes, which under sharing are slot writes
//! like any other — a clone keeps the chunks it was published with and
//! goes on finding every id it held.

use crate::arena::{Arena, CowTally};

const EMPTY: u64 = u64::MAX;
/// Slots of a table's first allocation (tables start empty and
/// unallocated, so a throwaway per-request store costs nothing until
/// it interns).
const FIRST_SLOTS: usize = 16;

#[inline]
fn pack(id: u32, hash: u64) -> u64 {
    ((id as u64) << 32) | (hash >> 32)
}

/// An open-addressing set of `u32` ids with caller-supplied hashing and
/// equality.
///
/// Each slot packs `(id << 32) | tag`, where the tag is the upper half
/// of the key's hash and the probe index comes from the lower half.
/// Comparing tags first means a probe walk touches only the slot array
/// — the caller's `eq` (which dereferences the backing store) runs only
/// on a tag match, i.e. almost exclusively on genuine hits.
///
/// The default table is empty and unallocated.
#[derive(Debug, Clone, Default)]
pub struct IdTable {
    /// Power-of-two slot array (or empty, before the first insert);
    /// `u64::MAX` marks an empty slot.
    slots: Arena<u64>,
    len: usize,
    /// Copy-on-write tallies of the slot arrays grows have replaced.
    retired_cow: CowTally,
}

impl IdTable {
    /// Looks up the id whose key hashes to `hash` and satisfies `eq`.
    pub fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let tag = hash >> 32;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            if s & 0xffff_ffff == tag {
                let id = (s >> 32) as u32;
                if eq(id) {
                    return Some(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// One probe walk that either finds the existing id for this key or
    /// claims the empty slot for `candidate` (returning `None`, after
    /// which the caller commits `candidate` to the backing store).
    /// `rehash` recomputes a stored id's hash when the table grows.
    pub fn find_or_insert(
        &mut self,
        hash: u64,
        candidate: u32,
        mut eq: impl FnMut(u32) -> bool,
        rehash: impl FnMut(u32) -> u64,
    ) -> Option<u32> {
        // Grow before probing so the claimed slot stays valid.
        self.make_room(rehash);
        let mask = self.slots.len() - 1;
        let tag = hash >> 32;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                *self.slots.get_mut(i) = pack(candidate, hash);
                self.len += 1;
                return None;
            }
            if s & 0xffff_ffff == tag {
                let id = (s >> 32) as u32;
                if eq(id) {
                    return Some(id);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Unlinks every stored id in `ids` — the inverse of the inserts
    /// that claimed them, for a caller cutting its backing store back to
    /// a mark. `rehash` must still resolve every stored id, the ones in
    /// `ids` included: call this **before** the backing elements are
    /// cut. Ids in the range the table never held (a clause store's
    /// facts, say) are skipped. Each removal is a backward-shift delete —
    /// no tombstones, so probe walks stay as short as if the ids had
    /// never been inserted — and costs its probe cluster: O(dropped)
    /// overall. The slot array keeps its size.
    ///
    /// Under sharing a removal is an ordinary slot write: a chunk a
    /// clone still shares is copied first, and the clone goes on finding
    /// the ids it was published with.
    pub fn truncate_to(&mut self, ids: std::ops::Range<u32>, mut rehash: impl FnMut(u32) -> u64) {
        for id in ids.rev() {
            self.remove(rehash(id), id, &mut rehash);
        }
    }

    /// Removes `id`, whose key hashes to `hash`, by backward-shift
    /// deletion; whether it was stored.
    fn remove(&mut self, hash: u64, id: u32, mut rehash: impl FnMut(u32) -> u64) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let mask = self.slots.len() - 1;
        let mut hole = hash as usize & mask;
        loop {
            let s = self.slots[hole];
            if s == EMPTY {
                return false;
            }
            if (s >> 32) as u32 == id {
                break;
            }
            hole = (hole + 1) & mask;
        }
        // Close the gap: an entry further along its cluster moves back
        // into the hole unless its home slot lies after the hole (it
        // would become unreachable from there).
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s == EMPTY {
                break;
            }
            let home = rehash((s >> 32) as u32) as usize & mask;
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                *self.slots.get_mut(hole) = s;
                hole = j;
            }
        }
        *self.slots.get_mut(hole) = EMPTY;
        self.len -= 1;
        true
    }

    /// Pre-sizes the table for about `n` entries, rehashing the current
    /// contents once, so bulk loads skip the doubling cascade.
    pub fn reserve(&mut self, n: usize, rehash: impl FnMut(u32) -> u64) {
        let want = (n * 8 / 7 + 1).next_power_of_two().max(FIRST_SLOTS);
        if want > self.slots.len() {
            self.grow_to(want, rehash);
        }
    }

    /// Keeps the load factor under 7/8 with one more entry.
    #[inline]
    fn make_room(&mut self, rehash: impl FnMut(u32) -> u64) {
        if (self.len + 1) * 8 >= self.slots.len() * 7 {
            self.grow_to((self.slots.len() * 2).max(FIRST_SLOTS), rehash);
        }
    }

    fn grow_to(&mut self, target: usize, mut rehash: impl FnMut(u32) -> u64) {
        // A fresh slot array: the new generation shares nothing with
        // any clone of the old one.
        let mut bigger = Arena::filled(target, EMPTY);
        let mask = target - 1;
        for &old in self.slots.iter() {
            if old != EMPTY {
                let id = (old >> 32) as u32;
                let mut i = rehash(id) as usize & mask;
                while bigger[i] != EMPTY {
                    i = (i + 1) & mask;
                }
                *bigger.get_mut(i) = old;
            }
        }
        self.retired_cow = self.cow_tally();
        self.slots = bigger;
    }

    /// Publishes the table: the returned table shares every slot chunk
    /// with this one ([`Arena::share`]).
    pub fn share(&mut self) -> IdTable {
        IdTable {
            slots: self.slots.share(),
            len: self.len,
            retired_cow: CowTally::default(),
        }
    }

    /// Number of stored ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots allocated (a power of two, or 0).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of slot storage. O(1).
    pub fn heap_bytes(&self) -> usize {
        self.slots.heap_bytes()
    }

    /// Copy-on-write work inserts into this table have done.
    pub fn cow_tally(&self) -> CowTally {
        self.retired_cow + self.slots.cow_tally()
    }
}
