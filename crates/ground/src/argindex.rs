//! The reader-built argument index over a predicate's atoms.
//!
//! A query literal with one argument bound wants the atoms of its
//! predicate that carry that term at that position — its answers, not
//! its predicate. The build path must not pay for that: interning,
//! grounding and `finalize` never touch this module. Instead the first
//! *reader* that asks digests the predicate's id list into a **sealed
//! run** — the `(argument term, atom id)` pairs of a prefix of the list,
//! sorted — and leaves it in a cell every snapshot of the lineage
//! shares. The id lists are append-only, so a run stays right for every
//! later state; what was appended since is a tail the lookup walks
//! linearly.
//!
//! ## Two levels, so the tail is a constant
//!
//! A lookup pays for every unsealed atom it walks, and a long-lived
//! writer appends for ever: with one run the tail would saw-tooth from
//! nothing up to the re-seal threshold (thousands of atoms), and a query
//! would cost whatever the writer had appended lately. So a sealed entry
//! is **two** runs: the big `base` over `ids[..base.covered]`, and a
//! small `delta` over `ids[base.covered..covered]`. A lookup is a binary
//! search in `base`, one in `delta` (skipped when empty — a store nobody
//! writes to never has one), and a linear walk of at most [`TAIL`]
//! unsealed ids. The reader that finds the tail longer merges it into
//! `delta` — O(|delta|), outside the lock — and `delta` folds into
//! `base` once it outgrows `DELTA_BASE + |base| / DELTA_SHARE`, which is
//! as often as a single run would have been re-sealed. Per appended
//! atom that is at most `|delta|` / [`TAIL`] pair moves for the merges
//! and about `DELTA_SHARE` for the folds, paid on the read side. Two
//! levels, three constants; a deeper ladder would add a cold binary
//! search per level to every lookup.
//!
//! ## Which state may read which run
//!
//! A run is valid for any state of the **same lineage**, older ones
//! included: atom ids ascend along an id list, so an older snapshot
//! meeting a longer run drops exactly the ids at or past its own atom
//! count (in both levels). Lineages never share a cell —
//! [`ArgIndex::share`] is the only way to hand one on, and `clone()`
//! starts an empty one (a cloned program may go on to intern different
//! atoms).
//!
//! A **truncation** ([`ArgIndex::truncate_to`], a rolled-back commit)
//! forks the lineage: the states past the cut — snapshots taken inside
//! the rolled-back range — stay on the old branch, the writer starts a
//! new one from the cut. A run whose `covered` lies at or below the cut's
//! list length describes a prefix both branches have: the writer keeps
//! it, so a rollback costs the readers nothing they had built (an entry
//! whose `delta` alone reaches past the cut keeps its `base`). A longer
//! one files rolled-back atoms under ids the next commit hands out
//! again, so the writer drops it — and moves to a **fresh cell**, because
//! a snapshot on the old branch may still seal such a run later. The
//! old branch's snapshots, and older ones that hold the old cell, keep
//! everything.

use gsls_lang::{arena, Arena, Atom, FxHashMap, Pred, TermId};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The longest unsealed tail a lookup walks: one cache-resident pass,
/// a few hundred nanoseconds beside a binary search over a board-sized
/// run.
const TAIL: usize = 64;
/// `delta` folds into `base` past `DELTA_BASE + |base| / DELTA_SHARE`
/// pairs: small enough that merging a tail into it stays in the tens of
/// microseconds, large enough that a fold (linear in `|base|`) is paid
/// at most once per that many appended atoms.
const DELTA_BASE: usize = 1024;
const DELTA_SHARE: usize = 16;

type Pairs = [(TermId, u32)];

/// What one lookup had to rebuild, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reseal {
    /// The unsealed tail was merged into the small run.
    Delta,
    /// The big run was (re)built: the first lookup of a `(predicate,
    /// position)`, or the small run folding into it.
    Base,
}

/// The digested prefix of a predicate's id list, for one argument
/// position. Immutable once built.
#[derive(Debug)]
struct Sealed {
    /// `(argument term, atom id)` over `ids[..base_covered]`, sorted —
    /// so the ids under one term are contiguous and ascending. Shared
    /// between the entries that only differ in `delta`.
    base: Arc<Pairs>,
    /// The same over `ids[base.len()..covered]`.
    delta: Box<Pairs>,
}

impl Sealed {
    /// Length of the prefix of the id list the two runs cover.
    fn covered(&self) -> usize {
        self.base.len() + self.delta.len()
    }
}

type Runs = FxHashMap<(Pred, u32), Arc<Sealed>>;

/// The cell the runs of one lineage live in: written by readers, only
/// handed on by the writer.
#[derive(Debug, Default)]
pub(crate) struct ArgIndex {
    runs: Arc<Mutex<Runs>>,
}

impl Clone for ArgIndex {
    /// A clone is a diverging lineage: it starts with no runs.
    fn clone(&self) -> ArgIndex {
        ArgIndex::default()
    }
}

impl ArgIndex {
    /// The same cell, for a snapshot of this lineage.
    pub(crate) fn share(&self) -> ArgIndex {
        ArgIndex {
            runs: Arc::clone(&self.runs),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Runs> {
        // The map only ever gains or swaps a finished, immutable run, so
        // it is whole at every step: a reader that panicked while
        // holding the lock has broken nothing.
        self.runs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Σ `covered` over the runs held — 8 bytes of index each.
    pub(crate) fn covered_total(&self) -> usize {
        self.lock().values().map(|run| run.covered()).sum()
    }

    /// Forks the lineage at a truncation (module docs): `len_of` gives
    /// each predicate's id-list length after the cut. This handle moves
    /// to a fresh cell holding the runs that fit under it — whole, or
    /// their `base` alone; the old cell stays with the snapshots that
    /// share it.
    pub(crate) fn truncate_to(&mut self, len_of: impl Fn(Pred) -> usize) {
        let kept: Runs = self
            .lock()
            .iter()
            .filter_map(|(&(pred, argpos), run)| {
                let len = len_of(pred);
                let run = if run.covered() <= len {
                    Arc::clone(run)
                } else if run.base.len() <= len {
                    Arc::new(Sealed {
                        base: Arc::clone(&run.base),
                        delta: Box::default(),
                    })
                } else {
                    return None;
                };
                Some(((pred, argpos), run))
            })
            .collect();
        self.runs = Arc::new(Mutex::new(kept));
    }

    /// The atoms among `ids` (predicate `pred`'s id list over `atoms`)
    /// that can carry `key` at `argpos`: those the two sealed runs file
    /// under `key`, then the whole unsealed tail (at most [`TAIL`] ids).
    /// Also says what this call had to rebuild. One short lock per call,
    /// none per candidate.
    pub(crate) fn candidates<'a>(
        &self,
        atoms: &Arena<Atom>,
        ids: &'a Arena<u32>,
        (pred, argpos): (Pred, u32),
        key: TermId,
    ) -> (ArgCandidates<'a>, Option<Reseal>) {
        let found = self.lock().get(&(pred, argpos)).cloned();
        let (run, resealed) = match found {
            Some(run) if ids.len().saturating_sub(run.covered()) <= TAIL => (run, None),
            old => {
                // Built outside the lock; kept only if no longer run got
                // there first.
                let (built, what) = seal(atoms, ids, argpos as usize, old.as_deref());
                let built = Arc::new(built);
                let mut runs = self.lock();
                let run = match runs.get(&(pred, argpos)) {
                    Some(cur) if cur.covered() >= built.covered() => Arc::clone(cur),
                    _ => {
                        runs.insert((pred, argpos), Arc::clone(&built));
                        built
                    }
                };
                (run, Some(what))
            }
        };
        // Sealed by a later state of the lineage: ids at or past this
        // state's atom count are not here yet.
        let clip = (run.covered() > ids.len()).then_some(atoms.len());
        let base = range_of(&run.base, key, clip);
        let delta = range_of(&run.delta, key, clip);
        let candidates = ArgCandidates {
            tail: ids.iter_from(run.covered()),
            run: Some(run),
            base,
            delta,
        };
        (candidates, resealed)
    }
}

/// The index range of `pairs` filed under `key`, without the ids at or
/// past `clip`.
fn range_of(pairs: &Pairs, key: TermId, clip: Option<usize>) -> (usize, usize) {
    if pairs.is_empty() {
        return (0, 0);
    }
    let lo = pairs.partition_point(|p| p.0 < key);
    let mut end = lo + pairs[lo..].partition_point(|p| p.0 == key);
    if let Some(n_atoms) = clip {
        end = lo + pairs[lo..end].partition_point(|p| (p.1 as usize) < n_atoms);
    }
    (lo, end)
}

/// Digests all of `ids` for `argpos`, reusing `old` (an entry over a
/// shorter prefix of the same list) for the part it already sorted: the
/// unsealed tail merges into `delta`, or — first seal, or `delta` over
/// its threshold — everything folds into one `base`.
fn seal(
    atoms: &Arena<Atom>,
    ids: &Arena<u32>,
    argpos: usize,
    old: Option<&Sealed>,
) -> (Sealed, Reseal) {
    let covered = old.map_or(0, Sealed::covered);
    let fresh = ids
        .iter_from(covered)
        .map(|&id| (atoms[id as usize].args[argpos], id));
    let (base, done): (_, [&Pairs; 2]) = match old {
        Some(run) if ids.len() - run.base.len() <= DELTA_BASE + run.base.len() / DELTA_SHARE => {
            (Some(Arc::clone(&run.base)), [&run.delta, &[]])
        }
        Some(run) => (None, [&run.base, &run.delta]),
        None => (None, [&[], &[]]),
    };
    let sorted: usize = done.iter().map(|run| run.len()).sum();
    let mut pairs = Vec::with_capacity(sorted + fresh.len());
    done.iter().for_each(|run| pairs.extend_from_slice(run));
    pairs.extend(fresh);
    pairs[sorted..].sort_unstable();
    if sorted > 0 {
        // A few sorted runs: the stable sort finds them and merges.
        pairs.sort();
    }
    match base {
        Some(base) => (
            Sealed {
                base,
                delta: pairs.into(),
            },
            Reseal::Delta,
        ),
        None => (
            Sealed {
                base: pairs.into(),
                delta: Box::default(),
            },
            Reseal::Base,
        ),
    }
}

/// The candidates of one indexed lookup
/// ([`crate::GroundAtoms::arg_candidates`]), as atom ids: ascending
/// within each sealed run, then ascending along the tail. Tail ids are
/// unfiltered — the caller's match rejects them.
#[derive(Default)]
pub struct ArgCandidates<'a> {
    run: Option<Arc<Sealed>>,
    /// The ranges of `run.base` / `run.delta` still to yield.
    base: (usize, usize),
    delta: (usize, usize),
    tail: arena::Iter<'a, u32>,
}

impl Iterator for ArgCandidates<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.base.0 < self.base.1 {
            let id = self.run.as_ref()?.base[self.base.0].1;
            self.base.0 += 1;
            return Some(id);
        }
        if self.delta.0 < self.delta.1 {
            let id = self.run.as_ref()?.delta[self.delta.0].1;
            self.delta.0 += 1;
            return Some(id);
        }
        self.tail.next().copied()
    }
}
