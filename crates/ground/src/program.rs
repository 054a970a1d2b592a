//! The ground program: interned ground atoms and a CSR clause store.
//!
//! A [`GroundProgram`] stores interned ground atoms as `u32` ids and
//! clauses in **CSR (compressed-sparse-row) form**: one flat array holds
//! every body atom of every clause (positive literals first, then
//! negative), and per-clause offset tables delimit the slices. On top of
//! the clause store, [`GroundProgram::finalize`] maintains three CSR
//! reverse indexes — head → clauses, atom → clauses watching it
//! positively, atom → clauses watching it negatively — so fixpoint
//! engines never rebuild watch lists per call. (The predicate → atoms
//! index is not one of them: it is kept current at interning time.) See
//! the crate docs for the full layout contract.
//!
//! The store is split along the reader/writer line. The **atom side**
//! ([`GroundAtoms`]: atom arena, interning table, predicate → atoms
//! lists) is everything a query reads; it is laid out on [`Arena`]
//! chunks, so a snapshot captures it ([`GroundProgram::share_atoms`])
//! without copying an atom. (Its argument index is the one part readers
//! write: see the `argindex` module.) The **clause side** (heads,
//! bodies, offsets and the three reverse indexes) is read only by the
//! fixpoint chains and the grounder; it stays contiguous `Vec`s, private
//! to the writer.
//!
//! Nothing here knows about joins: the store is what every fixpoint
//! engine reads and what [`crate::grounder`] appends to.

use crate::argindex::{ArgCandidates, ArgIndex, Reseal};
use crate::factstore::{atom_hash, IdTable};
use gsls_lang::{arena, Arena, Atom, CowTally, FxHashMap, Pred, Symbol, TermId, TermStore};

/// Identity of an interned ground atom within a [`GroundProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroundAtomId(pub u32);

impl GroundAtomId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An owned ground clause `head ← pos₁,…,posₘ, ¬neg₁,…,¬negₖ`.
///
/// This is the *builder* form: [`GroundProgram::push_clause`] copies it
/// into the CSR store. Engines never see it — they work on borrowed
/// [`ClauseRef`] views, and the grounder deduplicates against the CSR
/// store directly (id-triple hashing), so no owned clause is built per
/// candidate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroundClause {
    /// Head atom.
    pub head: GroundAtomId,
    /// Positive body atoms.
    pub pos: Box<[GroundAtomId]>,
    /// Atoms appearing negated in the body.
    pub neg: Box<[GroundAtomId]>,
}

impl GroundClause {
    /// Whether this is a fact.
    pub fn is_fact(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }

    /// Total body length.
    pub fn body_len(&self) -> usize {
        self.pos.len() + self.neg.len()
    }
}

/// A borrowed view of one clause inside the CSR store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClauseRef<'a> {
    /// Head atom.
    pub head: GroundAtomId,
    /// Positive body atoms.
    pub pos: &'a [GroundAtomId],
    /// Atoms appearing negated in the body.
    pub neg: &'a [GroundAtomId],
}

impl ClauseRef<'_> {
    /// Whether this is a fact.
    pub fn is_fact(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }

    /// Total body length.
    pub fn body_len(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// Copies into an owned [`GroundClause`].
    pub fn to_owned(&self) -> GroundClause {
        GroundClause {
            head: self.head,
            pos: self.pos.into(),
            neg: self.neg.into(),
        }
    }
}

/// A compressed-sparse-row map from `u32` keys to lists of `u32` items:
/// row `k` is `items[off[k] .. off[k+1]]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr {
    off: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Builds from `(key, item)` pairs produced by calling `each` with a
    /// sink; `n_keys` bounds the key space. Two passes: count, then fill.
    fn build(n_keys: usize, each: impl Fn(&mut dyn FnMut(u32, u32))) -> Csr {
        let mut counts = vec![0u32; n_keys + 1];
        each(&mut |k, _| counts[k as usize + 1] += 1);
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut items = vec![0u32; *counts.last().unwrap_or(&0) as usize];
        let mut cursor = counts.clone();
        each(&mut |k, v| {
            let c = &mut cursor[k as usize];
            items[*c as usize] = v;
            *c += 1;
        });
        Csr { off: counts, items }
    }

    /// The item list for `key`.
    #[inline]
    pub fn row(&self, key: usize) -> &[u32] {
        &self.items[self.off[key] as usize..self.off[key + 1] as usize]
    }

    /// O(delta) in-place growth for the common append case: when every
    /// delta pair's key is a **new** key (≥ the current key count), the
    /// new rows land entirely after the existing items, so the arrays
    /// extend without any re-layout. Returns `false` (leaving `self`
    /// untouched) when some delta key is an existing one — the caller
    /// falls back to the full [`Csr::extend`] merge.
    ///
    /// This is what makes a session commit's re-index cheap: a fresh
    /// fact's head and positive watches index under fresh atom ids;
    /// typically only the negative-watch index (whose delta can point
    /// at old atoms) pays the merge.
    fn try_append_tail(
        &mut self,
        n_keys: usize,
        each_new: &impl Fn(&mut dyn FnMut(u32, u32)),
    ) -> bool {
        let old_keys = self.len();
        debug_assert!(n_keys >= old_keys);
        let mut ok = true;
        each_new(&mut |k, _| ok &= k as usize >= old_keys);
        if !ok {
            return false;
        }
        let mut counts = vec![0u32; n_keys - old_keys];
        each_new(&mut |k, _| counts[k as usize - old_keys] += 1);
        let total = self.items.len() as u32;
        // Per-new-key start cursors, then the off tail (end offsets).
        let mut cursor = counts;
        let mut run = total;
        for c in cursor.iter_mut() {
            let len = *c;
            *c = run;
            run += len;
            self.off.push(run);
        }
        self.items.resize(run as usize, 0);
        let items = &mut self.items;
        each_new(&mut |k, v| {
            let c = &mut cursor[k as usize - old_keys];
            items[*c as usize] = v;
            *c += 1;
        });
        true
    }

    /// Builds the CSR holding every `(key, item)` pair of `self` plus
    /// the pairs `each_new` produces, over a possibly larger key space —
    /// the merge step behind the incremental `finalize`: old rows are
    /// block-copied, only the delta re-runs the counting pass. `spare`
    /// (the generation-before-last's arrays) is recycled so steady-state
    /// session commits allocate nothing here.
    fn extend(
        &self,
        n_keys: usize,
        each_new: impl Fn(&mut dyn FnMut(u32, u32)),
        spare: Csr,
    ) -> Csr {
        debug_assert!(n_keys >= self.len());
        let Csr {
            off: mut counts,
            mut items,
        } = spare;
        counts.clear();
        counts.resize(n_keys + 1, 0);
        each_new(&mut |k, _| counts[k as usize + 1] += 1);
        for k in 0..self.len() {
            counts[k + 1] += self.off[k + 1] - self.off[k];
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let total = *counts.last().unwrap_or(&0) as usize;
        // Every slot is written below (old-row copy + delta fill cover
        // the whole count), so stale spare contents are harmless.
        items.clear();
        items.resize(total, 0);
        let mut cursor = counts.clone();
        for (k, c) in cursor.iter_mut().enumerate().take(self.len()) {
            let row = &self.items[self.off[k] as usize..self.off[k + 1] as usize];
            let start = *c as usize;
            items[start..start + row.len()].copy_from_slice(row);
            *c += row.len() as u32;
        }
        each_new(&mut |k, v| {
            let c = &mut cursor[k as usize];
            items[*c as usize] = v;
            *c += 1;
        });
        Csr { off: counts, items }
    }

    /// Grows the map over `n_keys` keys by the pairs `each_new`
    /// produces: appended in place when every pair lands on a new key
    /// ([`Csr::try_append_tail`]), otherwise merged ([`Csr::extend`])
    /// into `spare`'s arrays — `spare` then holds the replaced
    /// generation, ready for the next merge.
    fn grow(
        &mut self,
        n_keys: usize,
        each_new: impl Fn(&mut dyn FnMut(u32, u32)),
        spare: &mut Csr,
    ) {
        if !self.try_append_tail(n_keys, &each_new) {
            let merged = self.extend(n_keys, each_new, std::mem::take(spare));
            *spare = std::mem::replace(self, merged);
        }
    }

    /// The inverse of [`Csr::grow`]: cuts the map back to its first
    /// `n_keys` keys and to the items below `item_mark`. Rows of dropped
    /// keys are a cut of both arrays' tails. Items at or past the mark
    /// inside *surviving* rows sit at each row's end (items ascend
    /// within a row — they are clause indices, filed in clause order),
    /// so removing them is one compaction pass from `dirty_from`, the
    /// first surviving key that has one (`n_keys` when none does — a
    /// tail-append growth touched no old row — and the pass is skipped).
    fn truncate(&mut self, n_keys: usize, item_mark: u32, dirty_from: usize) {
        let n_keys = n_keys.min(self.len());
        self.off.truncate(n_keys + 1);
        if dirty_from < n_keys {
            let mut write = self.off[dirty_from] as usize;
            for k in dirty_from..n_keys {
                let (start, end) = (self.off[k] as usize, self.off[k + 1] as usize);
                let keep = self.items[start..end].partition_point(|&item| item < item_mark);
                self.off[k] = write as u32;
                self.items.copy_within(start..start + keep, write);
                write += keep;
            }
            self.off[n_keys] = write as u32;
        }
        self.items
            .truncate(self.off.last().map_or(0, |&end| end as usize));
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// Whether there are no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The reverse indexes precomputed by [`GroundProgram::finalize`].
#[derive(Debug, Clone)]
struct Indexes {
    /// head atom → clause indices.
    by_head: Csr,
    /// atom → clauses whose *positive* body contains it (one entry per
    /// occurrence, so counter-based propagation can decrement per watch).
    watch_pos: Csr,
    /// atom → clauses whose *negative* body contains it.
    watch_neg: Csr,
    /// The atom/clause counts these indexes cover. A mismatch with the
    /// live store means the indexes are stale — accessors panic, and
    /// `finalize` **extends** them over the appended suffix instead of
    /// rebuilding (sessions commit small deltas against big programs).
    n_atoms: usize,
    n_clauses: usize,
}

/// The atom side of a [`GroundProgram`]: interned ground atoms, the
/// table that interns them and the predicate → atoms lists — exactly
/// what evaluating a query against a model reads, and nothing a
/// fixpoint engine needs beyond the atom count.
///
/// Append-only and stored on [`Arena`] chunks: [`GroundAtoms::share`]
/// bumps one refcount per chunk and copies no atom, which is how a
/// `Snapshot` captures it; the writer then re-copies only the chunks
/// its next interned atoms land in.
#[derive(Debug, Clone, Default)]
pub struct GroundAtoms {
    atoms: Arena<Atom>,
    /// Open-addressing interning table over `atoms` (identity = `(pred,
    /// args)`; probes hash borrowed parts, so lookups allocate nothing).
    table: IdTable,
    /// predicate → interned atom ids (query-enumeration index).
    /// Maintained incrementally at interning time — unlike the CSR
    /// reverse indexes it never needs a rebuild, so sessions that
    /// append atoms per commit pay one hash-push per *new* atom instead
    /// of a full re-scan in `finalize`.
    by_pred: FxHashMap<Pred, Arena<u32>>,
    /// `(predicate, argument position)` → sorted runs over `by_pred`,
    /// built and re-built by the queries that want them (see
    /// [`crate::argindex`]). The write path never looks inside:
    /// [`GroundAtoms::share`] hands the cell to the snapshot, `clone()`
    /// starts an empty one.
    arg_index: ArgIndex,
}

impl GroundAtoms {
    /// One probe walk: the existing id for `(pred, args)`, or the slot
    /// claimed for the next id (in which case the caller pushes the
    /// atom). Keeps the hot interning path at a single table traversal.
    fn intern_probe(&mut self, pred: Symbol, args: &[TermId]) -> Option<GroundAtomId> {
        let hash = atom_hash(pred, args);
        let candidate = u32::try_from(self.atoms.len()).expect("ground atom overflow");
        let atoms = &self.atoms;
        self.table
            .find_or_insert(
                hash,
                candidate,
                |id| {
                    let a = &atoms[id as usize];
                    a.pred == pred && a.args[..] == *args
                },
                |id| {
                    let a = &atoms[id as usize];
                    atom_hash(a.pred, &a.args)
                },
            )
            .map(GroundAtomId)
    }

    /// Appends an atom [`GroundAtoms::intern_probe`] just claimed a
    /// slot for.
    fn push(&mut self, atom: Atom) -> GroundAtomId {
        let id = GroundAtomId(u32::try_from(self.atoms.len()).expect("ground atom overflow"));
        self.by_pred.entry(atom.pred_id()).or_default().push(id.0);
        self.atoms.push(atom);
        id
    }

    /// Cuts the atom side back to its first `n` atoms — the inverse of
    /// the interning since: the dropped ids are unlinked from the table
    /// (re-hashed from the arena *before* it is cut), come off the tail
    /// of their predicates' lists (the lists ascend, so a predicate's
    /// dropped atoms are exactly its last ones), and the argument index
    /// forks ([`crate::argindex`]: runs over surviving prefixes are
    /// kept). O(dropped). Snapshots keep every chunk they share.
    fn truncate_to(&mut self, n: usize) {
        let len = self.atoms.len();
        if n >= len {
            return;
        }
        let mut dropped: FxHashMap<Pred, usize> = FxHashMap::default();
        for id in n..len {
            *dropped.entry(self.atoms[id].pred_id()).or_default() += 1;
        }
        let atoms = &self.atoms;
        self.table.truncate_to(n as u32..len as u32, |id| {
            let a = &atoms[id as usize];
            atom_hash(a.pred, &a.args)
        });
        for (pred, k) in dropped {
            let ids = self.by_pred.get_mut(&pred).expect("interned under it");
            ids.truncate_to(ids.len() - k);
            if ids.is_empty() {
                self.by_pred.remove(&pred);
            }
        }
        self.atoms.truncate_to(n);
        let by_pred = &self.by_pred;
        self.arg_index
            .truncate_to(|pred| by_pred.get(&pred).map_or(0, Arena::len));
    }

    /// Publishes the atom side: the returned value shares every chunk
    /// with this one ([`Arena::share`]). O(chunks + predicates).
    pub fn share(&mut self) -> GroundAtoms {
        GroundAtoms {
            atoms: self.atoms.share(),
            table: self.table.share(),
            by_pred: self
                .by_pred
                .iter_mut()
                .map(|(&p, ids)| (p, ids.share()))
                .collect(),
            arg_index: self.arg_index.share(),
        }
    }

    /// Looks up a ground atom from borrowed parts without interning (and
    /// without building an owned [`Atom`]) — the query engines' hot
    /// point-lookup path.
    pub fn lookup_atom_parts(&self, pred: Symbol, args: &[TermId]) -> Option<GroundAtomId> {
        self.table
            .find(atom_hash(pred, args), |id| {
                let a = &self.atoms[id as usize];
                a.pred == pred && a.args[..] == *args
            })
            .map(GroundAtomId)
    }

    /// Looks up a ground atom without interning.
    pub fn lookup_atom(&self, atom: &Atom) -> Option<GroundAtomId> {
        self.lookup_atom_parts(atom.pred, &atom.args)
    }

    /// The atom for `id`.
    pub fn atom(&self, id: GroundAtomId) -> &Atom {
        &self.atoms[id.index()]
    }

    /// The run of consecutively stored atoms around `id`, as `(id of
    /// the first, the atoms)`: a scan over ascending ids (a predicate's
    /// atoms) resolves most of them by offset into the run it already
    /// holds instead of a lookup each.
    pub fn atom_run(&self, id: GroundAtomId) -> (usize, &[Atom]) {
        self.atoms.run_of(id.index())
    }

    /// Number of interned atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// The ids of predicate `pred`'s interned atoms, in interning order,
    /// as a nameable iterator: a query scan holds it across calls and
    /// pulls candidates on demand instead of materialising the list.
    pub fn pred_ids(&self, pred: Pred) -> arena::Iter<'_, u32> {
        static NONE: Arena<u32> = Arena::new();
        self.by_pred.get(&pred).unwrap_or(&NONE).iter()
    }

    /// Interned atoms of predicate `pred`, in interning (id) order.
    pub fn atoms_with_pred(&self, pred: Pred) -> impl Iterator<Item = GroundAtomId> + '_ {
        self.pred_ids(pred).map(|&i| GroundAtomId(i))
    }

    /// The ids of `pred`'s atoms that can carry `key` as argument
    /// `argpos` — the third access path, beside the point lookup and
    /// [`GroundAtoms::pred_ids`]: a binary search in each of the two
    /// runs readers have sealed, then the few atoms interned since
    /// (unfiltered; the caller matches every candidate anyway). Also
    /// says what this call rebuilt: the big run on the first lookup of
    /// a `(pred, argpos)` and once in every `1024 + covered / 16`
    /// appended atoms, the small one whenever it found more than 64
    /// unsealed.
    pub fn arg_candidates(
        &self,
        pred: Pred,
        argpos: u32,
        key: TermId,
    ) -> (ArgCandidates<'_>, Option<Reseal>) {
        match self.by_pred.get(&pred) {
            Some(ids) => self
                .arg_index
                .candidates(&self.atoms, ids, (pred, argpos), key),
            None => Default::default(),
        }
    }

    /// Copy-on-write work interning has done because a clone (a
    /// snapshot) shared the chunk written to. Monotone.
    pub fn cow_tally(&self) -> CowTally {
        self.by_pred
            .values()
            .fold(self.atoms.cow_tally() + self.table.cow_tally(), |t, ids| {
                t + ids.cow_tally()
            })
    }

    /// Approximate heap footprint in bytes; see
    /// [`GroundProgram::approx_bytes`]. Counts the argument index the
    /// lineage's readers have built so far (8 bytes per covered atom).
    pub fn approx_bytes(&self) -> usize {
        let atoms = self.atoms.heap_bytes() + self.atoms.len() * 16;
        let by_pred: usize = self.by_pred.values().map(|v| v.heap_bytes() + 48).sum();
        atoms + self.table.heap_bytes() + by_pred + 8 * self.arg_index.covered_total()
    }
}

/// A program compiled to ground form (CSR clause storage).
#[derive(Debug)]
pub struct GroundProgram {
    /// The atom side: shared with snapshots chunk by chunk.
    atoms: GroundAtoms,
    /// Clause heads, one per clause. This and every field below is the
    /// clause side: contiguous and writer-private.
    heads: Vec<GroundAtomId>,
    /// Flat body store: clause `c`'s positive atoms then negative atoms.
    body: Vec<GroundAtomId>,
    /// `body_start[c] .. body_start[c+1]` delimits clause `c`'s body.
    body_start: Vec<u32>,
    /// Within that range, negatives start at `neg_start[c]`.
    neg_start: Vec<u32>,
    /// Reverse indexes; `None` until [`GroundProgram::finalize`] runs (or
    /// after any mutation, which invalidates them).
    index: Option<Indexes>,
    /// The previous generation's index arrays, recycled by the next
    /// incremental `finalize` (double buffering: steady-state session
    /// commits re-index without allocating). Never cloned.
    index_spare: Option<Indexes>,
}

impl Default for GroundProgram {
    fn default() -> Self {
        GroundProgram {
            atoms: GroundAtoms::default(),
            heads: Vec::new(),
            body: Vec::new(),
            body_start: vec![0],
            neg_start: Vec::new(),
            index: None,
            index_spare: None,
        }
    }
}

impl Clone for GroundProgram {
    /// A full copy, for an engine that wants a program of its own
    /// (only atom-side chunks already published to a snapshot are
    /// shared instead). Snapshots do not go through here: they take
    /// [`GroundProgram::share_atoms`] alone.
    fn clone(&self) -> Self {
        GroundProgram {
            atoms: self.atoms.clone(),
            heads: self.heads.clone(),
            body: self.body.clone(),
            body_start: self.body_start.clone(),
            neg_start: self.neg_start.clone(),
            index: self.index.clone(),
            // The recycling buffer is an allocation cache, not state.
            index_spare: None,
        }
    }
}

impl GroundProgram {
    /// Creates an empty ground program.
    pub fn new() -> Self {
        Self::default()
    }

    /// The atom side — the part of the program query evaluation reads.
    pub fn atoms(&self) -> &GroundAtoms {
        &self.atoms
    }

    /// Publishes the atom side for a snapshot ([`GroundAtoms::share`]).
    /// Appends nothing, so the reverse indexes stay current.
    pub fn share_atoms(&mut self) -> GroundAtoms {
        self.atoms.share()
    }

    /// Interns a ground atom, returning its id.
    pub fn intern_atom(&mut self, atom: Atom) -> GroundAtomId {
        match self.atoms.intern_probe(atom.pred, &atom.args) {
            Some(id) => id,
            // A fresh atom widens the id space the reverse indexes
            // cover; they go stale (count mismatch) until the next
            // `finalize`, which extends them over the new suffix.
            None => self.atoms.push(atom),
        }
    }

    /// Interns a ground atom from borrowed parts; the owned [`Atom`] is
    /// built only when the atom is genuinely new. This is the grounder's
    /// hot interning path — duplicate candidates allocate nothing.
    pub fn intern_atom_parts(&mut self, pred: Symbol, args: &[TermId]) -> GroundAtomId {
        match self.atoms.intern_probe(pred, args) {
            Some(id) => id,
            None => self.atoms.push(Atom::new(pred, args.to_vec())),
        }
    }

    /// Pre-sizes the interning table for about `n_atoms` entries and
    /// the clause store for `n_clauses`, so bulk grounding skips the
    /// grow-and-rehash cascade. (The atom arena grows a chunk at a time
    /// and needs no reservation.)
    pub fn reserve(&mut self, n_atoms: usize, n_clauses: usize) {
        let GroundAtoms { atoms, table, .. } = &mut self.atoms;
        table.reserve(n_atoms, |id| {
            let a = &atoms[id as usize];
            atom_hash(a.pred, &a.args)
        });
        self.heads
            .reserve(n_clauses.saturating_sub(self.heads.len()));
        self.body_start.reserve(n_clauses);
        self.neg_start.reserve(n_clauses);
    }

    /// Cuts the program back to its first `n_atoms` atoms and
    /// `n_clauses` clauses — a state it was in earlier (appends are the
    /// only mutation), so no surviving clause mentions a dropped atom.
    /// The clause arrays truncate; the atom side unlinks what it drops
    /// (`GroundAtoms::truncate_to`); the reverse indexes are cut back
    /// only as far as a `finalize` had absorbed the suffix
    /// (`Csr::truncate`), and a program that was finalized at the mark
    /// is finalized again on return. O(dropped), plus one compaction
    /// pass over an index whose old rows the suffix had been merged
    /// into.
    pub fn truncate_to(&mut self, n_atoms: usize, n_clauses: usize) {
        assert!(
            n_atoms <= self.atom_count() && n_clauses <= self.heads.len(),
            "truncate_to past the end of the program"
        );
        if let Some(idx) = &mut self.index {
            if idx.n_atoms > n_atoms || idx.n_clauses > n_clauses {
                // The first surviving key of each index that filed a
                // dropped clause.
                let mut dirty = [n_atoms; 3];
                let mut file = |which: usize, key: GroundAtomId| {
                    dirty[which] = dirty[which].min(key.index());
                };
                for ci in n_clauses..idx.n_clauses {
                    let (start, end) = (self.body_start[ci], self.body_start[ci + 1]);
                    let mid = self.neg_start[ci];
                    file(0, self.heads[ci]);
                    self.body[start as usize..mid as usize]
                        .iter()
                        .for_each(|&a| file(1, a));
                    self.body[mid as usize..end as usize]
                        .iter()
                        .for_each(|&a| file(2, a));
                }
                let item_mark = n_clauses as u32;
                idx.by_head.truncate(n_atoms, item_mark, dirty[0]);
                idx.watch_pos.truncate(n_atoms, item_mark, dirty[1]);
                idx.watch_neg.truncate(n_atoms, item_mark, dirty[2]);
                idx.n_atoms = idx.n_atoms.min(n_atoms);
                idx.n_clauses = idx.n_clauses.min(n_clauses);
            }
        }
        self.heads.truncate(n_clauses);
        self.neg_start.truncate(n_clauses);
        self.body_start.truncate(n_clauses + 1);
        self.body.truncate(self.body_start[n_clauses] as usize);
        self.atoms.truncate_to(n_atoms);
    }

    /// Looks up a ground atom from borrowed parts without interning (and
    /// without building an owned [`Atom`]) — the query engines' hot
    /// point-lookup path.
    pub fn lookup_atom_parts(&self, pred: Symbol, args: &[TermId]) -> Option<GroundAtomId> {
        self.atoms.lookup_atom_parts(pred, args)
    }

    /// Looks up a ground atom without interning.
    pub fn lookup_atom(&self, atom: &Atom) -> Option<GroundAtomId> {
        self.atoms.lookup_atom(atom)
    }

    /// The atom for `id`.
    pub fn atom(&self, id: GroundAtomId) -> &Atom {
        self.atoms.atom(id)
    }

    /// Number of interned atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.atom_count()
    }

    /// Iterates over all atom ids.
    pub fn atom_ids(&self) -> impl Iterator<Item = GroundAtomId> {
        (0..self.atom_count() as u32).map(GroundAtomId)
    }

    /// Approximate heap footprint of the CSR store, interning table,
    /// and reverse indexes, in bytes. O(number of predicates), computed
    /// from capacities, chunk counts and lengths (never by walking atoms
    /// or clauses; a chunk counts once however many snapshots share
    /// it), so governance can poll it every grounding round. A per-atom
    /// constant stands in for the boxed argument lists; budgets are
    /// approximate by contract.
    pub fn approx_bytes(&self) -> usize {
        let csr = (self.heads.capacity() + self.body.capacity()) * 4
            + (self.body_start.capacity() + self.neg_start.capacity()) * 4;
        // Reverse indexes: by_head + watch_pos + watch_neg each hold one
        // offset per atom and one item per watch occurrence (≈ body len).
        let index = match &self.index {
            Some(_) => 3 * (self.atom_count() + 1) * 4 + (self.body.len() + self.heads.len()) * 12,
            None => 0,
        };
        self.atoms.approx_bytes() + csr + index
    }

    /// Adds a clause (deduplication is the grounder's responsibility).
    pub fn push_clause(&mut self, clause: GroundClause) {
        self.push_clause_parts(clause.head, &clause.pos, &clause.neg);
    }

    /// Adds a clause from borrowed parts, avoiding the boxed builder.
    pub fn push_clause_parts(
        &mut self,
        head: GroundAtomId,
        pos: &[GroundAtomId],
        neg: &[GroundAtomId],
    ) {
        self.heads.push(head);
        self.body.extend_from_slice(pos);
        self.neg_start
            .push(u32::try_from(self.body.len()).expect("ground body overflow"));
        self.body.extend_from_slice(neg);
        self.body_start
            .push(u32::try_from(self.body.len()).expect("ground body overflow"));
    }

    /// Iterates over all clauses as borrowed views.
    pub fn clauses(&self) -> impl Iterator<Item = ClauseRef<'_>> + '_ {
        (0..self.clause_count() as u32).map(move |i| self.clause(i))
    }

    /// Number of clauses.
    pub fn clause_count(&self) -> usize {
        self.heads.len()
    }

    /// The clause at `idx`.
    #[inline]
    pub fn clause(&self, idx: u32) -> ClauseRef<'_> {
        let i = idx as usize;
        let (start, end) = (self.body_start[i] as usize, self.body_start[i + 1] as usize);
        let mid = self.neg_start[i] as usize;
        ClauseRef {
            head: self.heads[i],
            pos: &self.body[start..mid],
            neg: &self.body[mid..end],
        }
    }

    /// Number of positive body atoms of clause `idx` (O(1), no slice
    /// construction — used by propagator init loops).
    #[inline]
    pub fn pos_len(&self, idx: u32) -> u32 {
        self.neg_start[idx as usize] - self.body_start[idx as usize]
    }

    /// All clause heads, indexed by clause (O(1) head access for hot
    /// propagation loops that don't need the bodies).
    #[inline]
    pub fn heads(&self) -> &[GroundAtomId] {
        &self.heads
    }

    /// The atom → positively-watching-clauses index as a raw [`Csr`],
    /// for hot loops that hoist the per-lookup indirection (same panics
    /// as [`GroundProgram::clauses_for`]).
    pub fn watch_pos_index(&self) -> &Csr {
        &self.index().watch_pos
    }

    /// Builds the reverse indexes (head → clauses and the two watch
    /// maps). Idempotent; must be re-run after any `push_clause` /
    /// fresh-atom `intern_atom`. [`crate::Grounder::ground`] returns programs
    /// already finalized.
    ///
    /// **Incremental:** when stale indexes exist and the store only
    /// grew (the append-only session path), the new indexes are built
    /// by block-copying the old rows and counting only the appended
    /// clause suffix — a commit's finalize cost tracks the delta's
    /// watch entries plus one pass over the key space, not the whole
    /// body store.
    pub fn finalize(&mut self) {
        let n = self.atom_count();
        let nc = self.heads.len();
        let from = match &self.index {
            Some(idx) if idx.n_atoms == n && idx.n_clauses == nc => return,
            Some(idx) if idx.n_atoms <= n && idx.n_clauses <= nc => idx.n_clauses,
            _ => 0,
        };
        let (heads, body, body_start, neg_start) =
            (&self.heads, &self.body, &self.body_start, &self.neg_start);
        let new_by_head = |sink: &mut dyn FnMut(u32, u32)| {
            for (ci, &h) in heads.iter().enumerate().skip(from) {
                sink(h.0, ci as u32);
            }
        };
        let new_watch_pos = |sink: &mut dyn FnMut(u32, u32)| {
            for ci in from..nc {
                let (start, mid) = (body_start[ci] as usize, neg_start[ci] as usize);
                for a in &body[start..mid] {
                    sink(a.0, ci as u32);
                }
            }
        };
        let new_watch_neg = |sink: &mut dyn FnMut(u32, u32)| {
            for ci in from..nc {
                let (mid, end) = (neg_start[ci] as usize, body_start[ci + 1] as usize);
                for a in &body[mid..end] {
                    sink(a.0, ci as u32);
                }
            }
        };
        if from > 0 {
            // Incremental: the replaced generation of a merged index
            // becomes the next spare.
            let mut idx = self.index.take().expect("from > 0 implies an index");
            let mut spare = self.index_spare.take().unwrap_or(Indexes {
                by_head: Csr::default(),
                watch_pos: Csr::default(),
                watch_neg: Csr::default(),
                n_atoms: 0,
                n_clauses: 0,
            });
            idx.by_head.grow(n, new_by_head, &mut spare.by_head);
            idx.watch_pos.grow(n, new_watch_pos, &mut spare.watch_pos);
            idx.watch_neg.grow(n, new_watch_neg, &mut spare.watch_neg);
            idx.n_atoms = n;
            idx.n_clauses = nc;
            self.index_spare = Some(spare);
            self.index = Some(idx);
            return;
        }
        let built = Indexes {
            by_head: Csr::build(n, new_by_head),
            watch_pos: Csr::build(n, new_watch_pos),
            watch_neg: Csr::build(n, new_watch_neg),
            n_atoms: n,
            n_clauses: nc,
        };
        self.index_spare = self.index.replace(built);
    }

    /// Whether the reverse indexes are current.
    pub fn is_finalized(&self) -> bool {
        self.index
            .as_ref()
            .is_some_and(|i| i.n_atoms == self.atom_count() && i.n_clauses == self.heads.len())
    }

    fn index(&self) -> &Indexes {
        let idx = self
            .index
            .as_ref()
            .expect("GroundProgram::finalize must be called after mutation");
        assert!(
            idx.n_atoms == self.atom_count() && idx.n_clauses == self.heads.len(),
            "GroundProgram::finalize must be called after mutation"
        );
        idx
    }

    /// Indices of clauses with head `id`.
    ///
    /// # Panics
    /// Panics if the program was mutated since the last
    /// [`GroundProgram::finalize`].
    pub fn clauses_for(&self, id: GroundAtomId) -> &[u32] {
        self.index().by_head.row(id.index())
    }

    /// Clauses whose positive body contains `id`, one entry per
    /// occurrence (same panics as [`GroundProgram::clauses_for`]).
    pub fn watch_pos(&self, id: GroundAtomId) -> &[u32] {
        self.index().watch_pos.row(id.index())
    }

    /// Clauses whose negative body contains `id`, one entry per
    /// occurrence (same panics as [`GroundProgram::clauses_for`]).
    pub fn watch_neg(&self, id: GroundAtomId) -> &[u32] {
        self.index().watch_neg.row(id.index())
    }

    /// Interned atoms of predicate `pred`, in interning (id) order. Lets
    /// query engines enumerate candidate instances without scanning the
    /// whole atom table. Maintained at interning time, so — unlike the
    /// clause-side accessors — it is valid even before
    /// [`GroundProgram::finalize`].
    pub fn atoms_with_pred(&self, pred: Pred) -> impl Iterator<Item = GroundAtomId> + '_ {
        self.atoms.atoms_with_pred(pred)
    }

    /// Ground-atom counts per predicate — FactStore-style cardinality
    /// hints for cost estimation (the `gsls-analyze` instantiation
    /// lints). Like [`GroundProgram::atoms_with_pred`], valid before
    /// finalization.
    pub fn pred_cardinalities(&self) -> gsls_lang::FxHashMap<Pred, usize> {
        self.atoms
            .by_pred
            .iter()
            .map(|(&p, v)| (p, v.len()))
            .collect()
    }

    /// Renders an atom.
    pub fn display_atom(&self, store: &TermStore, id: GroundAtomId) -> String {
        self.atom(id).display(store)
    }

    /// Renders the whole ground program.
    pub fn display(&self, store: &TermStore) -> String {
        let mut s = String::new();
        for c in self.clauses() {
            s.push_str(&self.display_atom(store, c.head));
            if !c.is_fact() {
                s.push_str(" :- ");
                let mut first = true;
                for &p in c.pos.iter() {
                    if !first {
                        s.push_str(", ");
                    }
                    first = false;
                    s.push_str(&self.display_atom(store, p));
                }
                for &n in c.neg.iter() {
                    if !first {
                        s.push_str(", ");
                    }
                    first = false;
                    s.push('~');
                    s.push_str(&self.display_atom(store, n));
                }
            }
            s.push_str(".\n");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounder::Grounder;
    use gsls_lang::parse_program;

    fn ground(src: &str) -> (TermStore, GroundProgram) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        (s, gp)
    }

    #[test]
    fn lookup_vs_intern() {
        let (mut s, mut gp) = ground("p(a).");
        let p = s.intern_symbol("p");
        let b = s.constant("b");
        let pb = Atom::new(p, vec![b]);
        assert!(gp.lookup_atom(&pb).is_none());
        let id = gp.intern_atom(pb.clone());
        assert_eq!(gp.lookup_atom(&pb), Some(id));
        assert_eq!(gp.atom(id), &pb);
        // Parts-based interning agrees with the owned-atom path.
        assert_eq!(gp.intern_atom_parts(p, &pb.args), id);
    }

    #[test]
    fn csr_views_match_pushed_clauses() {
        // Round-trip: clauses pushed as owned builders come back
        // identical through the CSR views, in order.
        let mut s = TermStore::new();
        let mut gp = GroundProgram::new();
        let mut mk = |name: &str| {
            let sym = s.intern_symbol(name);
            gp.intern_atom(Atom::new(sym, Vec::new()))
        };
        let (a, b, c, d) = (mk("a"), mk("b"), mk("c"), mk("d"));
        let cls = vec![
            GroundClause {
                head: a,
                pos: vec![b, c].into(),
                neg: vec![d].into(),
            },
            GroundClause {
                head: b,
                pos: Vec::new().into(),
                neg: Vec::new().into(),
            },
            GroundClause {
                head: c,
                pos: vec![b, b].into(), // duplicate body literal survives
                neg: vec![a, d].into(),
            },
        ];
        for cl in &cls {
            gp.push_clause(cl.clone());
        }
        assert_eq!(gp.clause_count(), cls.len());
        for (i, cl) in cls.iter().enumerate() {
            let view = gp.clause(i as u32);
            assert_eq!(&view.to_owned(), cl, "clause {i}");
            assert_eq!(view.pos.len() as u32, gp.pos_len(i as u32));
        }
        // Reverse indexes agree with a brute-force scan.
        gp.finalize();
        for atom in gp.atom_ids() {
            let heads: Vec<u32> = (0..cls.len() as u32)
                .filter(|&ci| gp.clause(ci).head == atom)
                .collect();
            assert_eq!(gp.clauses_for(atom), &heads[..], "by_head {atom:?}");
            let mut pos_watch = Vec::new();
            let mut neg_watch = Vec::new();
            for ci in 0..cls.len() as u32 {
                for &p in gp.clause(ci).pos {
                    if p == atom {
                        pos_watch.push(ci);
                    }
                }
                for &q in gp.clause(ci).neg {
                    if q == atom {
                        neg_watch.push(ci);
                    }
                }
            }
            assert_eq!(gp.watch_pos(atom), &pos_watch[..], "watch_pos {atom:?}");
            assert_eq!(gp.watch_neg(atom), &neg_watch[..], "watch_neg {atom:?}");
        }
    }

    #[test]
    fn incremental_finalize_matches_full_rebuild() {
        // Finalize, append clauses that watch both old and brand-new
        // atoms (tail-append AND merge paths), finalize again — every
        // reverse index must equal a single from-scratch finalize of
        // the same store. Repeated rounds exercise spare recycling.
        let mut s = TermStore::new();
        let p =
            parse_program(&mut s, "e(a). e(b). p(X) :- e(X), ~q(X). q(a). r :- ~p(a).").unwrap();
        let mut gp = Grounder::ground(&mut s, &p).unwrap();
        let mut oracle = GroundProgram::new();
        for a in gp.atom_ids() {
            oracle.intern_atom(gp.atom(a).clone());
        }
        for c in gp.clauses() {
            oracle.push_clause_parts(c.head, c.pos, c.neg);
        }
        for round in 0..4 {
            // New head atom + body mixing an old atom and a new atom.
            let sym = s.intern_symbol(&format!("n{round}"));
            let dep = s.intern_symbol(&format!("m{round}"));
            let h = gp.intern_atom(Atom::new(sym, Vec::new()));
            let d = gp.intern_atom(Atom::new(dep, Vec::new()));
            let old = GroundAtomId(round as u32 % 3);
            gp.push_clause_parts(h, &[old, d], &[GroundAtomId(0)]);
            gp.push_clause_parts(d, &[], &[]);
            gp.finalize();
            let h2 = oracle.intern_atom(Atom::new(sym, Vec::new()));
            let d2 = oracle.intern_atom(Atom::new(dep, Vec::new()));
            assert_eq!((h, d), (h2, d2), "interning order preserved");
            oracle.push_clause_parts(h2, &[old, d2], &[GroundAtomId(0)]);
            oracle.push_clause_parts(d2, &[], &[]);
            let mut fresh = GroundProgram::new();
            for a in oracle.atom_ids() {
                fresh.intern_atom(oracle.atom(a).clone());
            }
            for c in oracle.clauses() {
                fresh.push_clause_parts(c.head, c.pos, c.neg);
            }
            fresh.finalize();
            for a in gp.atom_ids() {
                assert_eq!(gp.clauses_for(a), fresh.clauses_for(a), "by_head {a:?}");
                assert_eq!(gp.watch_pos(a), fresh.watch_pos(a), "watch_pos {a:?}");
                assert_eq!(gp.watch_neg(a), fresh.watch_neg(a), "watch_neg {a:?}");
            }
        }
    }

    #[test]
    fn csr_grow_then_truncate_is_the_csr_before() {
        // (key, item) pairs; items ascend, as clause indices do.
        let old: Vec<(u32, u32)> = vec![(0, 0), (2, 0), (2, 1), (3, 2), (0, 3)];
        let each = |pairs: &[(u32, u32)]| {
            let pairs = pairs.to_vec();
            move |sink: &mut dyn FnMut(u32, u32)| pairs.iter().for_each(|&(k, v)| sink(k, v))
        };
        let before = Csr::build(4, each(&old));
        // Tail-append growth: every new pair lands on a new key.
        let tail = [(4, 4), (6, 4), (6, 5)];
        let mut grown = before.clone();
        grown.grow(7, each(&tail), &mut Csr::default());
        assert_eq!(grown.row(6), &[4, 5]);
        grown.truncate(4, 4, 4);
        assert_eq!(grown, before, "tail-append growth");
        // Merged growth: new pairs on old keys (and on new ones).
        let merged = [(2, 4), (0, 5), (5, 5), (3, 6)];
        let mut grown = before.clone();
        let mut spare = Csr::default();
        grown.grow(6, each(&merged), &mut spare);
        assert_eq!(grown.row(2), &[0, 1, 4]);
        assert_eq!(spare, before, "the merge replaced the arrays");
        grown.truncate(4, 4, 0);
        assert_eq!(grown, before, "merged growth");
        // Keys appended, no pair at all (atoms interned, no clause).
        let mut grown = before.clone();
        grown.grow(9, each(&[]), &mut Csr::default());
        grown.truncate(4, 4, 4);
        assert_eq!(grown, before, "key-only growth");
    }

    #[test]
    fn truncate_to_is_the_inverse_of_appending_and_finalizing() {
        // Grow a finalized program by clauses that watch old and new
        // atoms, with and without a finalize in between; cutting back
        // must give the program as it was — clause views, every reverse
        // index, the interning table and the predicate lists.
        let (mut s, mut gp) = ground("e(a). e(b). p(X) :- e(X), ~q(X). q(a). r :- ~p(a).");
        let (n_atoms, n_clauses) = (gp.atom_count(), gp.clause_count());
        let snapshot = |gp: &GroundProgram, s: &TermStore| {
            let rows: Vec<_> = gp
                .atom_ids()
                .map(|a| {
                    (
                        gp.clauses_for(a).to_vec(),
                        gp.watch_pos(a).to_vec(),
                        gp.watch_neg(a).to_vec(),
                    )
                })
                .collect();
            let mut cards: Vec<_> = gp.pred_cardinalities().into_iter().collect();
            cards.sort();
            (gp.display(s), rows, cards)
        };
        let before = snapshot(&gp, &s);
        for finalize_first in [true, false] {
            let held = gp.share_atoms();
            for round in 0..3 {
                let h = s.intern_symbol(&format!("n{round}"));
                let d = s.intern_symbol(&format!("m{round}"));
                let h = gp.intern_atom(Atom::new(h, Vec::new()));
                let d = gp.intern_atom(Atom::new(d, Vec::new()));
                gp.push_clause_parts(h, &[GroundAtomId(round), d], &[GroundAtomId(0)]);
                gp.push_clause_parts(GroundAtomId(1), &[d], &[h]);
                if finalize_first {
                    gp.finalize();
                }
            }
            gp.truncate_to(n_atoms, n_clauses);
            assert!(gp.is_finalized(), "finalized at the mark, finalized after");
            assert_eq!(snapshot(&gp, &s), before, "finalize_first {finalize_first}");
            let n0 = s.intern_symbol("n0");
            assert!(gp.lookup_atom(&Atom::new(n0, Vec::new())).is_none());
            assert_eq!(held.atom_count(), n_atoms, "a shared atom side is a value");
            // The freed id is handed out again.
            let again = gp.intern_atom(Atom::new(n0, Vec::new()));
            assert_eq!(again.index(), n_atoms);
            gp.truncate_to(n_atoms, n_clauses);
        }
    }

    #[test]
    fn mutation_invalidates_indexes() {
        let (_, mut gp) = ground("p :- ~q.");
        assert!(gp.is_finalized());
        let p = GroundAtomId(0);
        gp.push_clause(GroundClause {
            head: p,
            pos: Vec::new().into(),
            neg: Vec::new().into(),
        });
        assert!(!gp.is_finalized());
        gp.finalize();
        assert!(gp.is_finalized());
        assert!(gp.clauses_for(p).len() >= 2 || gp.clauses_for(p).len() == 1);
    }
}
