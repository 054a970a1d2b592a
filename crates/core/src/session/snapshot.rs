//! Immutable, `Send + Sync` views of a committed session state.
//!
//! A committed epoch is a value: for a function-free program the
//! well-founded model is a function of the program, and the Herbrand
//! side of the state — symbols, terms, ground atoms, the active domain
//! — only ever grows (grounding is append-only; retraction switches
//! clauses at the model level). So a [`Snapshot`] is a **frozen
//! prefix**, not a copy: it shares the term store, the ground program's
//! atom side and the domain with the live session chunk by chunk
//! ([`gsls_lang::Arena`]), and copies only the model's two bitsets
//! (atoms/8 bytes each — the one board-proportional copy left). It
//! holds no clause store and no reverse index: a query reads atoms and
//! truth values, and the model already is the clauses' consequence.
//!
//! After a capture the writer copies a chunk only when it writes into
//! one the snapshot still shares — the tail chunk of each arena it
//! appends to, the one table chunk an interned id lands in — and a
//! commit that interns nothing (a retract, a re-assert) copies nothing.
//! `snapshot.cow_bytes` / `snapshot.chunks_shared` in
//! [`Session::metrics`] report that work per commit, and
//! `snapshot.model_bytes` what the captures copied.

use super::query::{sealed, ModelView, QueryObs, QuerySource};
use super::{PreparedQuery, Session, SessionError};
use gsls_ground::GroundAtoms;
use gsls_lang::{Arena, Atom, TermId, TermStore};
use gsls_wfs::{Interp, Truth};
use std::sync::Arc;

/// The four things a query reads ([`ModelView`]), owned: three shared
/// prefixes and one copied model.
#[derive(Debug)]
struct SnapshotInner {
    store: TermStore,
    atoms: GroundAtoms,
    model: Interp,
    domain: Arena<TermId>,
    epoch: u64,
    /// Query counters shared with the originating session, so reads
    /// off snapshots on other threads keep counting.
    qobs: QueryObs,
}

/// An immutable view of a committed session state. Cloning is an
/// [`Arc`] refcount bump; the snapshot is `Send + Sync`, so any number
/// of threads can run one shared [`PreparedQuery`] against it — the
/// same `execute` that takes `&Session` takes `&Snapshot` — while the
/// originating session keeps committing. Point queries and scans take
/// no lock and touch no atomic; a literal answered through the argument
/// index takes one uncontended lock each time it is entered (to pick
/// up, or seal, the run it reads) and none per candidate.
#[derive(Debug, Clone)]
pub struct Snapshot {
    inner: Arc<SnapshotInner>,
}

impl Snapshot {
    /// The commit epoch this snapshot captured.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The captured term store. `clone()` it for a store of your own
    /// to intern into (e.g. to run a batch engine next to the
    /// session): the clone of a frozen store shares every chunk with
    /// it and copies only what it goes on to write.
    pub fn store(&self) -> &TermStore {
        &self.inner.store
    }

    /// Number of ground atoms interned as of this snapshot's epoch.
    pub fn atom_count(&self) -> usize {
        self.inner.atoms.atom_count()
    }

    /// The truth of a ground atom in the captured model.
    pub fn truth_of_atom(&self, atom: &Atom) -> Truth {
        match self.inner.atoms.lookup_atom(atom) {
            Some(id) => self.inner.model.truth(id),
            None => Truth::False,
        }
    }

    /// Compiles query text (e.g. `"?- win(X)."`) exactly as
    /// [`Session::prepare`] does, against this snapshot's immutable
    /// store, so reader threads prepare concurrently with commits. A name
    /// unknown here matches nothing (its negation holds) until a run finds
    /// it on a source a later commit introduced it to.
    pub fn prepare(&self, src: &str) -> Result<PreparedQuery, SessionError> {
        PreparedQuery::compile(&self.inner.store, src)
    }
}

impl<'a> QuerySource<'a> for &'a Snapshot {}

impl<'a> sealed::Source<'a> for &'a Snapshot {
    fn view(self) -> ModelView<'a> {
        ModelView {
            store: &self.inner.store,
            atoms: &self.inner.atoms,
            model: &self.inner.model,
            domain: &self.inner.domain,
        }
    }

    fn qobs(self) -> &'a QueryObs {
        &self.inner.qobs
    }
}

impl Session {
    /// An immutable, `Send + Sync` snapshot of the committed state —
    /// the session's own read view, owned.
    ///
    /// Every call captures: one refcount bump per chunk of the term
    /// store, the atom table and the domain, plus a copy of the model's
    /// two bitsets. Nothing proportional to the program is copied but
    /// those bitsets, so there is nothing to cache between commits.
    /// Readers on other threads never block the session's writers —
    /// they simply keep seeing their epoch.
    pub fn snapshot(&mut self) -> Snapshot {
        let (atoms, domain) = self.engine.grounder.share_read_side();
        let model = self.engine.model.clone();
        let words = model.pos().words().len() + model.neg().words().len();
        self.sobs.snapshot_model_bytes.add(8 * words as u64);
        Snapshot {
            inner: Arc::new(SnapshotInner {
                store: self.store.share(),
                atoms,
                model,
                domain,
                epoch: self.epoch,
                qobs: self.sobs.query.clone(),
            }),
        }
    }
}
