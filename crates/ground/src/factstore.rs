//! The semi-naive fact store: interned-id fact rows and multi-argument
//! composite indexes with sorted posting lists.
//!
//! ## Layout
//!
//! Facts of one predicate live in a flat column store: the arguments of
//! row `r` of a predicate with arity `k` occupy `cols[r·k .. (r+1)·k]`
//! as [`TermId`]s — no per-fact `Atom` allocation, no pointer chasing
//! during scans. Rows are append-only and numbered by insertion order,
//! which makes the **semi-naive role split** a pair of row bounds: `Old`
//! is `[0, old_rows)`, `Delta` is `[old_rows, rows)`, `Full` is
//! `[0, rows)` (see [`Role`]).
//!
//! ## Composite indexes
//!
//! The join planner registers the *bound-argument signatures* it will
//! probe — e.g. "predicate `e/2`, arguments `{1}` bound" — and each one
//! becomes a [`SigIndex`]: a hash map from the bound-argument value
//! tuple to a **posting list** of row numbers. Posting lists are
//! appended in row order, so they are always sorted; restricting a
//! probe to a role's `[lo, hi)` row range is a pair of binary searches
//! (`partition_point`) yielding a contiguous sub-slice — never a filter
//! scan over the full list. This is the *delta sub-range invariant* the
//! grounder's delta- and old-restricted probes rely on.
//!
//! Registration backfills an index over rows that already exist, so
//! plans may be built after the seed round has populated the store.
//!
//! Predicates and indexes are referred to by dense slot/handle numbers
//! handed out at registration, so the grounder's inner loop performs no
//! hash lookups to find them.

use crate::program::{GroundAtomId, GroundProgram};
use gsls_lang::fxhash::FxHasher;
// The interning table the atom and clause stores dedup through lives in
// `gsls-lang`, next to the arena it is laid out on.
pub(crate) use gsls_lang::idtable::IdTable;
use gsls_lang::{FxHashMap, Pred, TermId};
use std::hash::{Hash, Hasher};

/// Which slice of a predicate's fact rows a join literal ranges over —
/// the standard semi-naive split. For the body literal chosen as the
/// delta position, only last round's new rows participate; literals at
/// earlier body positions see everything, literals at later positions
/// only what was known *before* last round. Summed over delta positions
/// this enumerates exactly the instances that mention at least one new
/// atom, each once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// All rows.
    Full,
    /// Rows added by the most recent round.
    Delta,
    /// Rows that existed before the most recent round.
    Old,
}

/// Facts of one predicate: a flat argument column store plus the
/// handles of the composite indexes that cover it.
#[derive(Debug, Default)]
struct PredFacts {
    arity: u32,
    /// Number of fact rows.
    rows: u32,
    /// Rows `[old_rows, rows)` are the delta of the most recent round.
    old_rows: u32,
    /// Row `r`'s arguments at `cols[r·arity .. (r+1)·arity]`.
    cols: Vec<TermId>,
    /// Row `r`'s interned atom id — matched positive body literals
    /// reuse it directly, so joins never re-intern a fact they matched.
    ids: Vec<GroundAtomId>,
    /// Indexes into [`FactStore::indexes`] that must absorb new rows.
    handles: Vec<u32>,
}

/// One registered composite index: bound-argument value tuple → sorted
/// posting list of row numbers.
#[derive(Debug)]
struct SigIndex {
    /// Sorted argument positions forming the key.
    argpos: Box<[u32]>,
    map: FxHashMap<Box<[TermId]>, Vec<u32>>,
}

impl SigIndex {
    /// Appends `row` (of the owning predicate) to the posting list for
    /// its key tuple. Rows arrive in increasing order, so every posting
    /// list stays sorted.
    fn push_row(&mut self, row: u32, args: &[TermId], key_buf: &mut Vec<TermId>) {
        key_buf.clear();
        for &p in self.argpos.iter() {
            key_buf.push(args[p as usize]);
        }
        if let Some(list) = self.map.get_mut(key_buf.as_slice()) {
            list.push(row);
        } else {
            self.map.insert(key_buf.as_slice().into(), vec![row]);
        }
    }
}

impl SigIndex {
    /// Undoes [`SigIndex::push_row`] for `row`, the last row posted: it
    /// is the last entry of its key's list, and a list it empties goes
    /// (the key was first seen with that row).
    fn pop_row(&mut self, row: u32, args: &[TermId], key_buf: &mut Vec<TermId>) {
        key_buf.clear();
        key_buf.extend(self.argpos.iter().map(|&p| args[p as usize]));
        let list = self
            .map
            .get_mut(key_buf.as_slice())
            .expect("a posted row has a posting list");
        debug_assert_eq!(list.last(), Some(&row));
        list.pop();
        if list.is_empty() {
            self.map.remove(key_buf.as_slice());
        }
    }
}

/// The per-predicate fact store driving semi-naive evaluation.
#[derive(Debug, Default)]
pub(crate) struct FactStore {
    slots: FxHashMap<Pred, u32>,
    preds: Vec<PredFacts>,
    indexes: Vec<SigIndex>,
    /// Deduplicates [`FactStore::register_index`] calls.
    sig_handles: FxHashMap<(u32, Box<[u32]>), u32>,
    /// Once frozen (after planning), atoms of predicates without a slot
    /// are dropped by [`FactStore::advance`]: no plan can ever join
    /// them, so storing their rows would be pure overhead.
    frozen: bool,
}

impl FactStore {
    /// The dense slot for `pred`, creating it if unknown.
    pub fn pred_slot(&mut self, pred: Pred) -> u32 {
        if let Some(&s) = self.slots.get(&pred) {
            return s;
        }
        let s = u32::try_from(self.preds.len()).expect("fact-store predicate overflow");
        self.slots.insert(pred, s);
        self.preds.push(PredFacts {
            arity: pred.arity,
            ..PredFacts::default()
        });
        s
    }

    /// The slot for `pred` if it has one.
    pub fn slot_of(&self, pred: Pred) -> Option<u32> {
        self.slots.get(&pred).copied()
    }

    /// Stops slot creation: subsequent [`FactStore::advance`] calls drop
    /// atoms of unregistered predicates (see [`FactStore::frozen`]).
    /// Called once planning has registered every joinable predicate.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Number of predicate slots handed out.
    pub fn pred_count(&self) -> usize {
        self.preds.len()
    }

    /// Number of composite indexes registered.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Approximate heap footprint in bytes: column stores, row-id
    /// arrays, and composite indexes. O(predicates + indexes) — posting
    /// lists are estimated as one entry per indexed row and key maps by
    /// their entry count, never walked — so governance can poll it
    /// every grounding round.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.slots.capacity() * (size_of::<Pred>() + 12);
        for p in &self.preds {
            bytes += p.cols.capacity() * size_of::<TermId>()
                + p.ids.capacity() * size_of::<GroundAtomId>();
            // Each covering index posts every row of this predicate.
            bytes += p.handles.len() * p.rows as usize * 4;
        }
        for ix in &self.indexes {
            bytes += ix.map.len() * (ix.argpos.len() * size_of::<TermId>() + 72);
        }
        bytes
    }

    /// Number of fact rows of the predicate in `slot`.
    pub fn rows(&self, slot: u32) -> u32 {
        self.preds[slot as usize].rows
    }

    /// The row range a literal with `role` ranges over.
    #[inline]
    pub fn range(&self, slot: u32, role: Role) -> (u32, u32) {
        let pf = &self.preds[slot as usize];
        match role {
            Role::Full => (0, pf.rows),
            Role::Delta => (pf.old_rows, pf.rows),
            Role::Old => (0, pf.old_rows),
        }
    }

    /// The argument tuple of fact `row` of the predicate in `slot`.
    #[inline]
    pub fn row_args(&self, slot: u32, row: u32) -> &[TermId] {
        let pf = &self.preds[slot as usize];
        let a = pf.arity as usize;
        &pf.cols[row as usize * a..(row as usize + 1) * a]
    }

    /// The interned atom id of fact `row` of the predicate in `slot`.
    #[inline]
    pub fn row_atom(&self, slot: u32, row: u32) -> GroundAtomId {
        self.preds[slot as usize].ids[row as usize]
    }

    /// Registers a composite index on `pred` keyed by the sorted
    /// argument positions `sig`, returning its handle. Idempotent per
    /// `(pred, sig)`; backfills over rows already stored.
    pub fn register_index(&mut self, pred: Pred, sig: &[u32]) -> u32 {
        debug_assert!(!sig.is_empty() && sig.windows(2).all(|w| w[0] < w[1]));
        let slot = self.pred_slot(pred);
        if let Some(&h) = self.sig_handles.get(&(slot, sig.into())) {
            return h;
        }
        let h = u32::try_from(self.indexes.len()).expect("fact-store index overflow");
        self.sig_handles.insert((slot, sig.into()), h);
        let mut idx = SigIndex {
            argpos: sig.into(),
            map: FxHashMap::default(),
        };
        let pf = &self.preds[slot as usize];
        let mut key_buf = Vec::with_capacity(sig.len());
        let a = pf.arity as usize;
        for row in 0..pf.rows {
            let args = &pf.cols[row as usize * a..(row as usize + 1) * a];
            idx.push_row(row, args, &mut key_buf);
        }
        self.indexes.push(idx);
        self.preds[slot as usize].handles.push(h);
        h
    }

    /// The full (role-unrestricted) posting list for `key` in the index
    /// `handle`; empty if the tuple was never seen. Always sorted by
    /// row number, so callers clamp it to a role range with two binary
    /// searches.
    #[inline]
    pub fn posting<'s>(&'s self, handle: u32, key: &[TermId]) -> &'s [u32] {
        self.indexes[handle as usize]
            .map
            .get(key)
            .map_or(&[][..], Vec::as_slice)
    }

    /// Cuts the store back to an earlier quiescent state, given what is
    /// left of it: `derivable` says whether an atom still heads a
    /// clause. A row is pushed when its atom is first derived, and rows
    /// of one predicate are in push order — so the rows added since are
    /// exactly each predicate's trailing rows whose atom is no longer
    /// derivable, popped here with their postings. Predicate slots and
    /// composite indexes registered since (a rule batch's) are dropped
    /// by count. Every delta ends empty. O(dropped).
    pub fn truncate_to(
        &mut self,
        derivable: impl Fn(GroundAtomId) -> bool,
        n_preds: usize,
        n_indexes: usize,
    ) {
        if n_indexes < self.indexes.len() {
            self.indexes.truncate(n_indexes);
            self.sig_handles.retain(|_, h| (*h as usize) < n_indexes);
            for pf in &mut self.preds {
                pf.handles.retain(|&h| (h as usize) < n_indexes);
            }
        }
        if n_preds < self.preds.len() {
            self.preds.truncate(n_preds);
            self.slots.retain(|_, s| (*s as usize) < n_preds);
        }
        let mut key_buf: Vec<TermId> = Vec::new();
        for pf in &mut self.preds {
            let a = pf.arity as usize;
            while pf.ids.last().is_some_and(|&id| !derivable(id)) {
                pf.ids.pop();
                pf.rows -= 1;
                let args = &pf.cols[pf.rows as usize * a..];
                for &h in &pf.handles {
                    self.indexes[h as usize].pop_row(pf.rows, args, &mut key_buf);
                }
                pf.cols.truncate(pf.rows as usize * a);
            }
            pf.old_rows = pf.rows;
        }
    }

    /// Ends a round: the previous delta becomes old, `new_atoms`
    /// becomes the next delta (argument tuples are copied out of the
    /// interned atoms of `gp`). Fills `grown` with the slots of
    /// predicates that gained rows.
    pub fn advance(
        &mut self,
        gp: &GroundProgram,
        new_atoms: &[GroundAtomId],
        grown: &mut Vec<u32>,
    ) {
        for pf in &mut self.preds {
            pf.old_rows = pf.rows;
        }
        let mut key_buf: Vec<TermId> = Vec::new();
        for &id in new_atoms {
            let atom = gp.atom(id);
            let slot = if self.frozen {
                match self.slots.get(&atom.pred_id()) {
                    Some(&s) => s,
                    None => continue,
                }
            } else {
                self.pred_slot(atom.pred_id())
            };
            let pf = &mut self.preds[slot as usize];
            debug_assert_eq!(atom.args.len() as u32, pf.arity);
            let row = pf.rows;
            pf.rows += 1;
            pf.cols.extend_from_slice(&atom.args);
            pf.ids.push(id);
            // `atom.args` borrows `gp`, so the disjoint-field borrows of
            // `preds` (read handles) and `indexes` (append) are clean.
            let handles = &self.preds[slot as usize].handles;
            for &h in handles {
                self.indexes[h as usize].push_row(row, &atom.args, &mut key_buf);
            }
        }
        grown.clear();
        for (s, pf) in self.preds.iter().enumerate() {
            if pf.rows > pf.old_rows {
                grown.push(s as u32);
            }
        }
    }
}

/// Hashes an atom identity `(pred, args)` with the workspace Fx hasher.
pub(crate) fn atom_hash(pred: gsls_lang::Symbol, args: &[TermId]) -> u64 {
    let mut h = FxHasher::default();
    pred.hash(&mut h);
    h.write_usize(args.len());
    for a in args {
        a.hash(&mut h);
    }
    h.finish()
}

/// Hashes a ground clause identity `(head, pos, neg)` as an id triple.
pub(crate) fn clause_hash(head: u32, pos: &[GroundAtomId], neg: &[GroundAtomId]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(head);
    h.write_usize(pos.len());
    for p in pos {
        h.write_u32(p.0);
    }
    h.write_usize(neg.len());
    for n in neg {
        h.write_u32(n.0);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsls_lang::{parse_program, TermStore};

    fn store_with(src: &str) -> (TermStore, GroundProgram, Vec<GroundAtomId>) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let mut gp = GroundProgram::new();
        let ids: Vec<GroundAtomId> = p
            .clauses()
            .iter()
            .map(|c| gp.intern_atom(c.head.clone()))
            .collect();
        (s, gp, ids)
    }

    #[test]
    fn roles_split_rows_by_round() {
        let (_, gp, ids) = store_with("e(a, b). e(b, c). e(c, d).");
        let mut fs = FactStore::default();
        let mut grown = Vec::new();
        fs.advance(&gp, &ids[..2], &mut grown);
        let e = fs.slot_of(Pred::new(gp.atom(ids[0]).pred, 2)).unwrap();
        assert_eq!(grown, vec![e]);
        assert_eq!(fs.range(e, Role::Full), (0, 2));
        assert_eq!(fs.range(e, Role::Delta), (0, 2));
        assert_eq!(fs.range(e, Role::Old), (0, 0));
        fs.advance(&gp, &ids[2..], &mut grown);
        assert_eq!(fs.range(e, Role::Full), (0, 3));
        assert_eq!(fs.range(e, Role::Delta), (2, 3));
        assert_eq!(fs.range(e, Role::Old), (0, 2));
    }

    #[test]
    fn composite_index_posting_lists_sorted_and_backfilled() {
        let (_, gp, ids) = store_with("e(a, b). e(a, c). e(b, c). e(a, d).");
        let mut fs = FactStore::default();
        let mut grown = Vec::new();
        // Backfill path: two rows exist before registration.
        fs.advance(&gp, &ids[..2], &mut grown);
        let pred = gp.atom(ids[0]).pred_id();
        let h = fs.register_index(pred, &[0]);
        assert_eq!(fs.register_index(pred, &[0]), h, "registration idempotent");
        fs.advance(&gp, &ids[2..], &mut grown);
        let a = gp.atom(ids[0]).args[0];
        let b = gp.atom(ids[2]).args[0];
        assert_eq!(fs.posting(h, &[a]), &[0, 1, 3], "sorted by insertion row");
        assert_eq!(fs.posting(h, &[b]), &[2]);
        assert!(fs.posting(h, &[TermId(999)]).is_empty());
        // Two-column signature.
        let h2 = fs.register_index(pred, &[0, 1]);
        let d = gp.atom(ids[3]).args[1];
        assert_eq!(fs.posting(h2, &[a, d]), &[3]);
    }

    #[test]
    fn reserved_table_fills_without_growing() {
        let keys: Vec<u64> = (0..2000u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let mut t = IdTable::default();
        t.reserve(keys.len(), |id| keys[id as usize]);
        let slots = t.slot_count();
        for (i, &k) in keys.iter().enumerate() {
            let eq = |id: u32| keys[id as usize] == k;
            let rehash = |_| unreachable!("a reserved table does not grow");
            assert_eq!(t.find_or_insert(k, i as u32, eq, rehash), None);
        }
        assert_eq!((t.len(), t.slot_count()), (keys.len(), slots));
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(
                t.find(k, |id| keys[id as usize] == k),
                Some(i as u32),
                "key {i}"
            );
        }
    }

    #[test]
    fn id_table_find_insert_grow() {
        let keys: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let mut t = IdTable::default();
        for (i, &k) in keys.iter().enumerate() {
            assert!(t.find(k, |id| keys[id as usize] == k).is_none());
            let inserted = t.find_or_insert(
                k,
                i as u32,
                |id| keys[id as usize] == k,
                |id| keys[id as usize],
            );
            assert_eq!(inserted, None, "key {i} fresh");
        }
        assert_eq!(t.len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.find(k, |id| keys[id as usize] == k), Some(i as u32));
            // A second find_or_insert is a lookup, not an insertion.
            let dup = t.find_or_insert(k, 999, |id| keys[id as usize] == k, |id| keys[id as usize]);
            assert_eq!(dup, Some(i as u32));
        }
        assert_eq!(t.len(), keys.len());
    }
}
