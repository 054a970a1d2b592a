//! Immutable, `Send + Sync` views of a committed session state, and the
//! fully read-only query surface over them.
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

use super::query::{Answers, ModelView, Names, QueryObs, QueryPlan, ScratchSlot};
use super::{Answer, Session, SessionError};
use crate::govern::Guard;
use gsls_ground::GroundAtoms;
use gsls_lang::{parse_goal, Arena, Atom, TermId, TermStore};
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
/// of threads can run [`super::PreparedQuery::execute_on`] against it
/// while the originating session keeps committing. Point queries and
/// scans take no lock and touch no atomic; a literal answered through
/// the argument index takes one uncontended lock each time it is
/// entered (to pick up, or seal, the run it reads) and none per
/// candidate.
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

    fn view(&self) -> ModelView<'_> {
        ModelView {
            store: &self.inner.store,
            atoms: &self.inner.atoms,
            model: &self.inner.model,
            domain: &self.inner.domain,
        }
    }

    /// Compiles query text (e.g. `"?- win(X)."`) against this
    /// snapshot's **immutable** store: the goal parses into a private
    /// scratch store and every constant translates by read-only
    /// lookup, so any number of reader threads can prepare and run
    /// queries concurrently while the owning session keeps committing.
    /// Names the snapshot has never seen are legal — their atoms are
    /// simply false (and their negations true), matching the
    /// committed-state semantics.
    ///
    /// The compiled query remains valid on *later* snapshots of the
    /// same session (ids are stable under the append-only arena), but
    /// a constant unknown at compile time stays foreign even if a
    /// later commit introduces it — recompile per snapshot when that
    /// matters.
    pub fn prepare(&self, src: &str) -> Result<SnapshotQuery, SessionError> {
        let mut scratch = TermStore::new();
        let goal = parse_goal(&mut scratch, src)?;
        let names = Names {
            source: &scratch,
            target: Some(&self.inner.store),
        };
        let plan = QueryPlan::compile(names, &goal)?;
        Ok(SnapshotQuery {
            plan,
            names: scratch,
        })
    }

    /// Streams `plan` over this snapshot under `guard`; each run
    /// allocates its own scratch, so `&self` serves any number of
    /// reader threads.
    pub(super) fn run<'a>(
        &'a self,
        plan: &'a QueryPlan,
        guard: &Guard,
    ) -> Result<Answers<'a>, SessionError> {
        Answers::start(
            plan,
            self.view(),
            ScratchSlot::Owned(Box::default()),
            guard.clone(),
            Some(&self.inner.qobs),
        )
    }
}

/// A query compiled by [`Snapshot::prepare`] — fully read-only on the
/// snapshot it runs against (`&self` everywhere), so one instance can
/// serve many reader threads.
#[derive(Debug)]
pub struct SnapshotQuery {
    plan: QueryPlan,
    /// The scratch store that parsed the goal; keeps the goal's
    /// variable names for rendering answers.
    names: TermStore,
}

impl SnapshotQuery {
    /// Streams the answers over `snapshot` (each run allocates its own
    /// scratch).
    pub fn execute<'a>(&'a self, snapshot: &'a Snapshot) -> Result<Answers<'a>, SessionError> {
        snapshot.run(&self.plan, &Guard::none())
    }

    /// Governed variant: the stream checks `guard` every
    /// [`crate::govern::TICK_INTERVAL`] backtracking steps and, when a
    /// limit trips, ends early with [`Answers::interrupted`] set.
    pub fn execute_governed<'a>(
        &'a self,
        snapshot: &'a Snapshot,
        guard: &Guard,
    ) -> Result<Answers<'a>, SessionError> {
        snapshot.run(&self.plan, guard)
    }

    /// The goal's variable names, in binding-slot order.
    pub fn var_names(&self) -> Vec<String> {
        self.plan
            .vars
            .iter()
            .map(|&v| self.names.var_name(v))
            .collect()
    }

    /// Renders one answer's bindings as `"X = a, Y = b"` (empty for a
    /// ground goal): variable names from the parsed goal, terms from
    /// the snapshot's store.
    pub fn render_answer(&self, snapshot: &Snapshot, answer: &Answer) -> String {
        // One buffer per answer: an enumeration renders 10^4 of these.
        let mut out = String::new();
        for &v in &self.plan.vars {
            if let Some(t) = answer.subst.lookup(v) {
                if !out.is_empty() {
                    out.push_str(", ");
                }
                self.names.write_var_name(v, &mut out);
                out.push_str(" = ");
                snapshot.store().fmt_term(t, &mut out);
            }
        }
        out
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
