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
//! linearly, and once the tail outgrows `TAIL_BASE + covered /
//! TAIL_SHARE` the reader that notices re-seals: amortised O(1) per
//! appended atom, geometric, paid on the read side.
//!
//! A run is valid for any state of the **same lineage**, older ones
//! included: atom ids ascend along an id list, so an older snapshot
//! meeting a longer run drops exactly the ids at or past its own atom
//! count. Lineages never share a cell — [`ArgIndex::share`] is the only
//! way to hand one on, and `clone()` starts an empty one (a cloned
//! program may go on to intern different atoms).

use gsls_lang::{arena, Arena, Atom, FxHashMap, Pred, TermId};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A lookup re-seals when the unsealed tail is longer than `TAIL_BASE +
/// covered / TAIL_SHARE`: short enough that walking it costs less than
/// the answers' own work on a board-sized predicate, long enough that a
/// re-seal (linear in `covered`) is paid at most once per that many
/// appended atoms.
const TAIL_BASE: usize = 1024;
const TAIL_SHARE: usize = 16;

/// One digested prefix of a predicate's id list, for one argument
/// position. Immutable once built.
#[derive(Debug)]
struct Sealed {
    /// Length of the prefix of the id list the run covers.
    covered: usize,
    /// `(argument term, atom id)` over that prefix, sorted — so the ids
    /// under one term are contiguous and ascending.
    pairs: Box<[(TermId, u32)]>,
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
        self.lock().values().map(|run| run.covered).sum()
    }

    /// The atoms among `ids` (predicate `pred`'s id list over `atoms`)
    /// that can carry `key` at `argpos`: those the sealed run files
    /// under `key`, then the whole unsealed tail. Also says whether this
    /// call (re-)sealed. One short lock per call, none per candidate.
    pub(crate) fn candidates<'a>(
        &self,
        atoms: &Arena<Atom>,
        ids: &'a Arena<u32>,
        (pred, argpos): (Pred, u32),
        key: TermId,
    ) -> (ArgCandidates<'a>, bool) {
        let found = self.lock().get(&(pred, argpos)).cloned();
        let stale = found.as_ref().is_none_or(|run| {
            ids.len().saturating_sub(run.covered) > TAIL_BASE + run.covered / TAIL_SHARE
        });
        let run = match found {
            Some(run) if !stale => run,
            old => {
                // Built outside the lock; kept only if no longer run got
                // there first.
                let built = Arc::new(seal(atoms, ids, argpos as usize, old.as_deref()));
                let mut runs = self.lock();
                match runs.get(&(pred, argpos)) {
                    Some(cur) if cur.covered >= built.covered => Arc::clone(cur),
                    _ => {
                        runs.insert((pred, argpos), Arc::clone(&built));
                        built
                    }
                }
            }
        };
        let lo = run.pairs.partition_point(|p| p.0 < key);
        let mut end = lo + run.pairs[lo..].partition_point(|p| p.0 == key);
        if run.covered > ids.len() {
            // Sealed by a later state of the lineage: ids at or past
            // this state's atom count are not here yet.
            end = lo + run.pairs[lo..end].partition_point(|p| (p.1 as usize) < atoms.len());
        }
        let candidates = ArgCandidates {
            tail: ids.iter_from(run.covered),
            run: Some(run),
            next: lo,
            end,
        };
        (candidates, stale)
    }
}

/// Digests all of `ids` for `argpos`, reusing `old` (a run over a
/// shorter prefix of the same list) for the part it already sorted.
fn seal(atoms: &Arena<Atom>, ids: &Arena<u32>, argpos: usize, old: Option<&Sealed>) -> Sealed {
    let (done, covered) = old.map_or((&[][..], 0), |run| (&run.pairs[..], run.covered));
    let mut pairs = Vec::with_capacity(ids.len());
    pairs.extend_from_slice(done);
    pairs.extend(
        ids.iter_from(covered)
            .map(|&id| (atoms[id as usize].args[argpos], id)),
    );
    pairs[covered..].sort_unstable();
    if covered > 0 {
        // Two sorted runs: the stable sort finds them and merges once.
        pairs.sort();
    }
    Sealed {
        covered: ids.len(),
        pairs: pairs.into(),
    }
}

/// The candidates of one indexed lookup
/// ([`crate::GroundAtoms::arg_candidates`]), as atom ids: ascending
/// within the sealed part, then ascending along the tail. Tail ids are
/// unfiltered — the caller's match rejects them.
#[derive(Default)]
pub struct ArgCandidates<'a> {
    run: Option<Arc<Sealed>>,
    next: usize,
    end: usize,
    tail: arena::Iter<'a, u32>,
}

impl Iterator for ArgCandidates<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.next < self.end {
            let id = self.run.as_ref()?.pairs[self.next].1;
            self.next += 1;
            return Some(id);
        }
        self.tail.next().copied()
    }
}
