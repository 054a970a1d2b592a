//! Immutable, `Send + Sync` views of a committed session state, and the
//! fully read-only query surface over them.

use super::query::{Answers, ModelView, Names, QueryObs, QueryPlan, ScratchSlot};
use super::{Answer, Session, SessionError};
use crate::govern::Guard;
use gsls_ground::GroundProgram;
use gsls_lang::{parse_goal, Atom, TermId, TermStore};
use gsls_wfs::{Interp, Truth};
use std::sync::Arc;

#[derive(Debug)]
struct SnapshotInner {
    store: TermStore,
    gp: GroundProgram,
    model: Interp,
    domain: Vec<TermId>,
    epoch: u64,
    /// Query counters shared with the originating session, so reads
    /// off snapshots on other threads keep counting.
    qobs: QueryObs,
}

/// An immutable view of a committed session state. Cloning is an
/// [`Arc`] refcount bump; the snapshot is `Send + Sync`, so any number
/// of threads can run [`super::PreparedQuery::execute_on`] against it
/// while the originating session keeps committing.
#[derive(Debug, Clone)]
pub struct Snapshot {
    inner: Arc<SnapshotInner>,
}

impl Snapshot {
    /// The commit epoch this snapshot captured.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The captured term store.
    pub fn store(&self) -> &TermStore {
        &self.inner.store
    }

    /// The captured ground program.
    pub fn ground_program(&self) -> &GroundProgram {
        &self.inner.gp
    }

    /// The captured well-founded model.
    pub fn model(&self) -> &Interp {
        &self.inner.model
    }

    /// The truth of a ground atom in the captured model.
    pub fn truth_of_atom(&self, atom: &Atom) -> Truth {
        match self.inner.gp.lookup_atom(atom) {
            Some(id) => self.inner.model.truth(id),
            None => Truth::False,
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
        let view = ModelView {
            store: &self.inner.store,
            gp: &self.inner.gp,
            model: &self.inner.model,
            domain: &self.inner.domain,
        };
        Answers::start(
            plan,
            view,
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
        let mut parts = Vec::with_capacity(self.plan.vars.len());
        for &v in &self.plan.vars {
            if let Some(t) = answer.subst.lookup(v) {
                parts.push(format!(
                    "{} = {}",
                    self.names.var_name(v),
                    snapshot.store().display_term(t)
                ));
            }
        }
        parts.join(", ")
    }
}

impl Session {
    /// An immutable, `Send + Sync` snapshot of the committed state.
    ///
    /// The first snapshot after a commit clones the store, ground
    /// program and model into an [`Arc`]; repeated calls between
    /// commits return the cached `Arc` (refcount bump only). Readers
    /// on other threads never block the session's writers — they
    /// simply keep seeing their epoch.
    pub fn snapshot(&mut self) -> Snapshot {
        if let Some(s) = &self.snapshot_cache {
            return s.clone();
        }
        let snap = Snapshot {
            inner: Arc::new(SnapshotInner {
                store: self.store.clone(),
                gp: self.engine.grounder.ground_program().clone(),
                model: self.engine.model.clone(),
                domain: self.engine.grounder.universe().to_vec(),
                epoch: self.epoch,
                qobs: self.sobs.query.clone(),
            }),
        };
        self.snapshot_cache = Some(snap.clone());
        snap
    }
}
