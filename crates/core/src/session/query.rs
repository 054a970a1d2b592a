//! The model-backed query engine: one goal compiler ([`QueryPlan`]),
//! one streaming evaluator ([`Answers`]), and one compiled query
//! ([`PreparedQuery`]) that runs on whichever [`QuerySource`] it is
//! handed — the live session or a [`Snapshot`](super::Snapshot), the
//! same [`ModelView`] either way. The [`crate::Solver`] shim runs the
//! very same plans through the very same [`Answers::start`].
//!
//! A positive literal reaches its candidate atoms by one of three
//! access paths ([`Access`]), chosen when the goal is compiled — which
//! slots are bound when a literal is entered is a static fact of the
//! goal order, and the goal order is never changed: a **point** lookup
//! in the interning table when every argument is bound, the
//! reader-built **argument index** ([`GroundAtoms::arg_candidates`])
//! when some argument is, and a **scan** of the predicate's atoms when
//! none is. So a partially bound literal costs about its answers, not
//! its predicate.

use super::{record_trip, Session, SessionError};
use crate::govern::{Guard, InterruptCause, InterruptPhase, QueryOpts, TripInfo};
use crate::solver::QueryResult;
use gsls_ground::{ArgCandidates, GroundAtomId, GroundAtoms, Reseal};
use gsls_lang::{
    arena, parse_goal, Arena, Atom, FxHashMap, Goal, Pred, Subst, Symbol, Term, TermId, TermStore,
    Var,
};
use gsls_obs::{Counter, Obs};
use gsls_wfs::{Interp, Truth};
use std::borrow::Cow;

/// Sentinel for an unbound query binding slot.
const UNBOUND: TermId = TermId(u32::MAX);

/// Sentinel ids for names a goal mentions that the target store has
/// never interned. They compare unequal to every real id (the arena
/// would overflow its `u32` long before reaching them), so a pattern
/// holding one simply never matches — which is the correct semantics:
/// an unknown constant's atom is false, and its negation true.
const FOREIGN_TERM: TermId = TermId(u32::MAX - 1);
const FOREIGN_SYM: Symbol = Symbol(u32::MAX);

/// Hard cap on residual (universe-enumerated) query instances.
const MAX_QUERY_INSTANCES: usize = 100_000;

/// Query-path metric handles, owned by the session (and by each
/// snapshot, so reader threads keep counting). [`Answers`] only
/// *borrows* them: it accumulates plain `u64`s during enumeration and
/// flushes on drop — zero atomics per answer, and no refcount traffic
/// per execution on cache lines every reader thread shares.
///
/// Nominally `pub` only because [`QuerySource`]'s sealed half hands it
/// out; this module is private, so nothing outside the crate can name
/// it, and its fields are private.
#[derive(Clone)]
pub struct QueryObs {
    executions: Counter,
    answers: Counter,
    point_lookups: Counter,
    scans: Counter,
    index_lookups: Counter,
    /// Lookups that (re)built an index's big run / merged its unsealed
    /// tail into the small one.
    index_seals: Counter,
    index_merges: Counter,
    candidates: Counter,
    interrupts: Counter,
    /// For cold-path trip recording (dynamic counter + ring event).
    obs: Obs,
}

impl QueryObs {
    pub(super) fn new(obs: &Obs) -> QueryObs {
        let reg = obs.registry();
        QueryObs {
            executions: reg.counter("query.executions"),
            answers: reg.counter("query.answers"),
            point_lookups: reg.counter("query.point_lookups"),
            scans: reg.counter("query.scans"),
            index_lookups: reg.counter("query.index_lookups"),
            index_seals: reg.counter("query.index_seals"),
            index_merges: reg.counter("query.index_merges"),
            candidates: reg.counter("query.candidates"),
            interrupts: reg.counter("query.interrupts"),
            obs: obs.clone(),
        }
    }
}

impl std::fmt::Debug for QueryObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("QueryObs { .. }")
    }
}

/// A read view the query evaluator runs against: the session's live
/// state, a snapshot's captured state, or the [`crate::Solver`] shim's
/// batch state — the same four things either way, which is what makes
/// a live read "the snapshot of now". A query reads atoms and truth
/// values, never clauses, so the view holds the ground program's atom
/// side only. (Nominally `pub` for the same reason as [`QueryObs`].)
#[derive(Clone, Copy)]
pub struct ModelView<'a> {
    pub(crate) store: &'a TermStore,
    pub(crate) atoms: &'a GroundAtoms,
    pub(crate) model: &'a Interp,
    /// Constants for residual (all-negative) enumeration.
    pub(crate) domain: &'a Arena<TermId>,
}

/// What a [`PreparedQuery`] runs on: `&Session` (its committed model)
/// or `&Snapshot` (the model it captured). Both supply the same
/// [`ModelView`] and count into the session's `query.*` counters.
/// Sealed: no other type implements it.
pub trait QuerySource<'a>: sealed::Source<'a> {}

pub(super) mod sealed {
    use super::{ModelView, QueryObs};

    /// The crate-private half of [`super::QuerySource`].
    pub trait Source<'a>: Copy {
        fn view(self) -> ModelView<'a>;
        fn qobs(self) -> &'a QueryObs;
    }
}

impl<'a> QuerySource<'a> for &'a Session {}

impl<'a> sealed::Source<'a> for &'a Session {
    /// The session's read view — what [`Session::snapshot`] freezes.
    fn view(self) -> ModelView<'a> {
        ModelView {
            store: &self.store,
            atoms: self.engine.grounder.ground_program().atoms(),
            model: &self.engine.model,
            domain: self.engine.grounder.universe(),
        }
    }

    fn qobs(self) -> &'a QueryObs {
        &self.sobs.query
    }
}

/// How a goal's names reach the store its plan runs against: parsed into
/// `source`, resolved into `target` (which may be `source`) by read-only
/// lookup. Names `target` lacks become [`FOREIGN_SYM`] / [`FOREIGN_TERM`],
/// which match no candidate (unknown atom ⇒ false, its negation ⇒ true).
#[derive(Clone, Copy)]
pub(crate) struct Names<'a> {
    pub source: &'a TermStore,
    pub target: &'a TermStore,
}

impl Names<'_> {
    fn symbol(&self, sym: Symbol) -> Symbol {
        self.target
            .lookup_symbol(self.source.symbol_name(sym))
            .unwrap_or(FOREIGN_SYM)
    }

    /// A ground term's id in the target store; [`FOREIGN_TERM`] when
    /// any of its symbols or subterms is absent there.
    fn ground_term(&self, t: TermId) -> TermId {
        let Term::App(sym, args) = self.source.term(t) else {
            unreachable!("ground_term on a non-ground term")
        };
        let targs: Vec<TermId> = args.iter().map(|&a| self.ground_term(a)).collect();
        if targs.contains(&FOREIGN_TERM) {
            return FOREIGN_TERM;
        }
        let sym = self.symbol(*sym);
        self.target.lookup_app(sym, &targs).unwrap_or(FOREIGN_TERM)
    }

    /// Notes what `lit`, compiled from `atom`, left foreign: its predicate
    /// and its constant arguments. A compound needs no note: a session
    /// interns none (commits reject function symbols).
    fn note_late(&self, atom: &Atom, lit: &CompiledLit, late: &mut Vec<Late>) {
        let name = |sym| self.source.symbol_name(sym).into();
        if lit.pred.sym == FOREIGN_SYM {
            late.push(Late::Pred(name(atom.pred)));
        }
        for (&t, arg) in atom.args.iter().zip(lit.args.iter()) {
            match (arg, self.source.term(t)) {
                (PatArg::Const(FOREIGN_TERM), Term::App(c, a)) if a.is_empty() => {
                    late.push(Late::Const(name(*c)))
                }
                _ => {}
            }
        }
    }
}

/// A name a goal uses that the store it compiled against lacked: a
/// predicate is known once its symbol is, a constant once its term is.
#[derive(Debug, Clone)]
enum Late {
    Pred(Box<str>),
    Const(Box<str>),
}

impl Late {
    fn known(&self, store: &TermStore) -> bool {
        match self {
            Late::Pred(name) => store.lookup_symbol(name).is_some(),
            Late::Const(name) => store
                .lookup_symbol(name)
                .is_some_and(|c| store.lookup_app(c, &[]).is_some()),
        }
    }
}

/// One literal argument, compiled store-free: evaluation decomposes
/// candidate terms but never constructs any, so it runs read-only
/// against a shared snapshot.
#[derive(Debug, Clone)]
enum PatArg {
    /// A term ground at compile time (hash-consing makes id equality
    /// structural equality).
    Const(TermId),
    /// A goal variable's binding slot.
    Slot(u32),
    /// A non-ground compound pattern (function symbols only).
    App(Symbol, Box<[PatArg]>),
}

/// How a literal finds its candidate atoms, given which of its slots
/// the literals before it have bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// Every argument is a constant or a bound slot: one hash probe.
    /// (Negative literals always are — they are checked at the leaf.)
    Point,
    /// Argument `argpos` (the first such) is a constant or a bound
    /// slot: the atoms the argument index files under its value.
    Indexed { argpos: u32 },
    /// No argument is bound: every atom of the predicate.
    Scan,
}

#[derive(Debug, Clone)]
struct CompiledLit {
    pred: Pred,
    args: Box<[PatArg]>,
    access: Access,
}

/// A goal compiled for the model-backed engine: positive literals (goal
/// order) drive candidate enumeration over the interned atom table —
/// each by the [`Access`] path its bound arguments allow — residual
/// slots enumerate the domain, negative literals check last.
#[derive(Debug, Clone)]
pub(crate) struct QueryPlan {
    pos: Vec<CompiledLit>,
    neg: Vec<CompiledLit>,
    /// Goal variables in first-occurrence order; slot `i` belongs to
    /// `vars[i]`.
    pub(super) vars: Vec<Var>,
    /// Slots no positive literal binds, in slot order.
    residual: Vec<u32>,
    /// The names the target lacked that a later commit can introduce.
    late: Vec<Late>,
}

impl QueryPlan {
    /// Compiles `goal`, resolving its names per `names`. The plan is
    /// store-free: it stays valid on every later state of the target
    /// store (ids are stable under the append-only arena).
    pub(crate) fn compile(names: Names<'_>, goal: &Goal) -> Result<QueryPlan, SessionError> {
        let vars = goal.vars(names.source);
        let slot_of: FxHashMap<Var, u32> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        fn compile_arg(names: Names<'_>, slot_of: &FxHashMap<Var, u32>, t: TermId) -> PatArg {
            if names.source.is_ground(t) {
                return PatArg::Const(names.ground_term(t));
            }
            match names.source.term(t) {
                Term::Var(v) => PatArg::Slot(slot_of[v]),
                Term::App(f, args) => PatArg::App(
                    names.symbol(*f),
                    args.iter()
                        .map(|&a| compile_arg(names, slot_of, a))
                        .collect(),
                ),
            }
        }
        let compile_lit = |atom: &Atom| CompiledLit {
            pred: Pred::new(names.symbol(atom.pred), atom.arity()),
            args: atom
                .args
                .iter()
                .map(|&t| compile_arg(names, &slot_of, t))
                .collect(),
            access: Access::Point,
        };
        let (mut pos, mut neg, mut late) = (Vec::new(), Vec::new(), Vec::new());
        for lit in goal.literals() {
            let c = compile_lit(&lit.atom);
            names.note_late(&lit.atom, &c, &mut late);
            if lit.is_pos() {
                pos.push(c);
            } else {
                if c.args.iter().any(|a| matches!(a, PatArg::App(..))) {
                    return Err(SessionError::Unsupported(
                        "negative literal with a non-ground compound argument \
                         (use the global-tree engine)"
                            .to_owned(),
                    ));
                }
                neg.push(c);
            }
        }
        // Slots some positive literal binds (matching against ground
        // facts binds every variable of the pattern) — in goal order, so
        // `bound` at a literal is exactly what is bound on entering it.
        let mut bound = vec![false; vars.len()];
        fn mark(bound: &mut [bool], a: &PatArg) {
            match a {
                PatArg::Const(_) => {}
                PatArg::Slot(s) => bound[*s as usize] = true,
                PatArg::App(_, args) => args.iter().for_each(|a| mark(bound, a)),
            }
        }
        for lit in &mut pos {
            let is_bound = |a: &PatArg| match a {
                PatArg::Const(_) => true,
                PatArg::Slot(s) => bound[*s as usize],
                PatArg::App(..) => false,
            };
            lit.access = if lit.args.iter().all(is_bound) {
                Access::Point
            } else {
                match lit.args.iter().position(is_bound) {
                    Some(argpos) => Access::Indexed {
                        argpos: argpos as u32,
                    },
                    None => Access::Scan,
                }
            };
            lit.args.iter().for_each(|a| mark(&mut bound, a));
        }
        let residual = (0..vars.len() as u32)
            .filter(|&s| !bound[s as usize])
            .collect();
        Ok(QueryPlan {
            pos,
            neg,
            vars,
            residual,
            late,
        })
    }

    /// The plan [`QueryPlan::compile`] makes, with every indexed literal
    /// demoted to a scan: the reference the index is tested against.
    #[cfg(test)]
    pub(crate) fn compile_without_index(
        names: Names<'_>,
        goal: &Goal,
    ) -> Result<QueryPlan, SessionError> {
        let mut plan = QueryPlan::compile(names, goal)?;
        for lit in &mut plan.pos {
            if matches!(lit.access, Access::Indexed { .. }) {
                lit.access = Access::Scan;
            }
        }
        Ok(plan)
    }
}

/// Per-depth iteration state of one [`Answers`] run.
#[derive(Debug, Clone, Default)]
struct DepthState {
    /// The one candidate of a fully bound positive literal, until taken.
    point: Option<GroundAtomId>,
    /// Residual depths: the next domain constant.
    cursor: usize,
    /// Trail length on entry — advance/backtrack undoes to here.
    mark: usize,
    /// Whether the matched candidate is undefined (positive depths;
    /// a false one never matches).
    undefined: bool,
}

/// Evaluation scratch, owned by one [`Answers`] run.
struct QueryScratch {
    bindings: Vec<TermId>,
    depths: Vec<DepthState>,
    trail: Vec<u32>,
    key_buf: Vec<TermId>,
}

impl QueryScratch {
    /// Unbinds every slot bound since the trail was `mark` long.
    #[inline]
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let slot = self.trail.pop().expect("trail mark within bounds");
            self.bindings[slot as usize] = UNBOUND;
        }
    }
}

/// Resolves `lit`'s arguments under the current bindings into
/// `s.key_buf` — the atom's interning key. `false` (key incomplete)
/// when a slot is still unbound or an argument is a compound pattern,
/// which [`Access::Point`] rules out.
#[inline]
fn resolve_key(lit: &CompiledLit, s: &mut QueryScratch) -> bool {
    s.key_buf.clear();
    for a in lit.args.iter() {
        match a {
            PatArg::Const(t) => s.key_buf.push(*t),
            PatArg::Slot(slot) if s.bindings[*slot as usize] != UNBOUND => {
                s.key_buf.push(s.bindings[*slot as usize])
            }
            _ => return false,
        }
    }
    true
}

/// One streamed answer: a substitution for the goal variables and the
/// truth of that instance (`True` or `Undefined`; false instances are
/// never yielded).
#[derive(Debug, Clone)]
pub struct Answer {
    /// Bindings for the goal's variables, as parsed into the query's
    /// scratch store, to terms of the source's: render with
    /// [`PreparedQuery::render_answer`], never `Subst::display(store)`.
    pub subst: Subst,
    /// `True` or `Undefined`.
    pub truth: Truth,
}

/// A streaming iterator over the true and undefined instances of a
/// prepared query — answers are produced on demand; nothing is
/// collected unless the caller collects.
pub struct Answers<'a> {
    /// The prepared plan, or one this run recompiled for a late name.
    plan: Cow<'a, QueryPlan>,
    view: ModelView<'a>,
    scratch: QueryScratch,
    /// `scans[d]`: the rest of the predicate scan positive depth `d` is
    /// enumerating — candidates are pulled on demand, never copied out.
    /// Sized on the first scan, so point queries allocate nothing here.
    scans: Vec<arena::Iter<'a, u32>>,
    /// `indexed[d]`: likewise the rest of positive depth `d`'s argument
    /// index lookup. Sized on the first such lookup.
    indexed: Vec<ArgCandidates<'a>>,
    /// The atom run the last candidate fell in (`GroundAtoms::atom_run`).
    run: (usize, &'a [Atom]),
    depth: usize,
    started: bool,
    done: bool,
    /// Resource governance: checked once per backtracking step.
    guard: Guard,
    tick: u32,
    interrupted: Option<InterruptCause>,
    /// Borrowed query metric handles (`None` on the detached
    /// [`crate::Solver`] path) plus locally-accumulated counts, flushed
    /// once on drop (zero shared-memory traffic per answer).
    qobs: Option<&'a QueryObs>,
    n_answers: u64,
    n_point: u64,
    n_scan: u64,
    n_index: u64,
    n_seal: u64,
    n_merge: u64,
    /// Atoms handed to [`try_candidate`].
    n_candidates: u64,
}

impl<'a> Answers<'a> {
    /// Starts a run of `plan` against `view` — the single entry every
    /// execution surface ([`PreparedQuery`] on either source, the
    /// solver shim) goes through. Fails fast if a residual enumeration
    /// would exceed the instance budget.
    pub(crate) fn start(
        plan: Cow<'a, QueryPlan>,
        view: ModelView<'a>,
        guard: Guard,
        qobs: Option<&'a QueryObs>,
    ) -> Result<Answers<'a>, SessionError> {
        if let Some(q) = qobs {
            q.executions.add(1);
        }
        if !plan.residual.is_empty() {
            let total = view.domain.len().checked_pow(plan.residual.len() as u32);
            if total.is_none_or(|t| t > MAX_QUERY_INSTANCES) {
                return Err(SessionError::Unsupported(format!(
                    "all-negative enumeration over {} variables × {} constants \
                     exceeds the instance budget",
                    plan.residual.len(),
                    view.domain.len()
                )));
            }
        }
        let total = plan.pos.len() + plan.residual.len();
        let scratch = QueryScratch {
            bindings: vec![UNBOUND; plan.vars.len()],
            depths: vec![DepthState::default(); total],
            trail: Vec::new(),
            key_buf: Vec::new(),
        };
        Ok(Answers {
            plan,
            view,
            scratch,
            scans: Vec::new(),
            indexed: Vec::new(),
            run: (0, &[]),
            depth: 0,
            started: false,
            done: false,
            guard,
            tick: 0,
            interrupted: None,
            qobs,
            n_answers: 0,
            n_point: 0,
            n_scan: 0,
            n_index: 0,
            n_seal: 0,
            n_merge: 0,
            n_candidates: 0,
        })
    }

    /// Why the stream stopped early, if it did. `Some` means the
    /// iterator hit its deadline/cancellation and went quiet — the
    /// answers already yielded remain valid (a *partial* enumeration),
    /// analogous to a resolution engine returning a budget outcome.
    pub fn interrupted(&self) -> Option<InterruptCause> {
        self.interrupted
    }

    /// Prepares depth `d`'s iteration: for a positive depth the
    /// literal's access path — the point lookup, the argument index
    /// lookup or the predicate's scan; cursor reset for residual depths.
    fn enter(&mut self, d: usize) {
        let mark = self.scratch.trail.len();
        if d < self.plan.pos.len() {
            let (lit, atoms) = (&self.plan.pos[d], self.view.atoms);
            let s = &mut self.scratch;
            match lit.access {
                Access::Point => {
                    self.n_point += 1;
                    let resolved = resolve_key(lit, s);
                    debug_assert!(resolved, "point access with an unbound argument");
                    s.depths[d].point = atoms.lookup_atom_parts(lit.pred.sym, &s.key_buf);
                }
                Access::Indexed { argpos } => {
                    self.n_index += 1;
                    let key = match &lit.args[argpos as usize] {
                        PatArg::Const(t) => *t,
                        PatArg::Slot(slot) => s.bindings[*slot as usize],
                        PatArg::App(..) => unreachable!("compound patterns are never indexed"),
                    };
                    let (candidates, resealed) = atoms.arg_candidates(lit.pred, argpos, key);
                    match resealed {
                        Some(Reseal::Base) => self.n_seal += 1,
                        Some(Reseal::Delta) => self.n_merge += 1,
                        None => {}
                    }
                    if self.indexed.len() <= d {
                        self.indexed.resize_with(d + 1, Default::default);
                    }
                    self.indexed[d] = candidates;
                }
                Access::Scan => {
                    self.n_scan += 1;
                    if self.scans.len() <= d {
                        self.scans.resize_with(d + 1, Default::default);
                    }
                    self.scans[d] = atoms.pred_ids(lit.pred);
                }
            }
        }
        let st = &mut self.scratch.depths[d];
        st.cursor = 0;
        st.mark = mark;
    }

    /// Undoes depth `d`'s bindings and binds its next candidate (or
    /// next domain constant). Returns `false` when exhausted.
    fn advance(&mut self, d: usize) -> bool {
        let mark = self.scratch.depths[d].mark;
        self.scratch.undo_to(mark);
        if d < self.plan.pos.len() {
            // The candidate loop keeps its state — the scan, the atom
            // run — in locals, not behind `self`: a board-sized predicate
            // walks 10^5 candidates per query.
            let (lit, view) = (&self.plan.pos[d], self.view);
            let s = &mut self.scratch;
            let mut run = self.run;
            let truth = match lit.access {
                Access::Scan => {
                    let mut scan = std::mem::take(&mut self.scans[d]);
                    let left = scan.len();
                    let hit = scan.find_map(|&i| {
                        try_candidate(view, lit, GroundAtomId(i), &mut run, s, mark)
                    });
                    self.n_candidates += (left - scan.len()) as u64;
                    self.scans[d] = scan;
                    hit
                }
                Access::Indexed { .. } => return self.advance_indexed(d, mark),
                Access::Point => {
                    let point = s.depths[d].point.take();
                    self.n_candidates += u64::from(point.is_some());
                    point.and_then(|id| try_candidate(view, lit, id, &mut run, s, mark))
                }
            };
            self.run = run;
            if let Some(t) = truth {
                s.depths[d].undefined = t == Truth::Undefined;
            }
            truth.is_some()
        } else {
            let slot = self.plan.residual[d - self.plan.pos.len()];
            let st = &self.scratch.depths[d];
            let Some(&c) = self.view.domain.get(st.cursor) else {
                return false;
            };
            self.scratch.depths[d].cursor += 1;
            let s = &mut self.scratch;
            s.bindings[slot as usize] = c;
            s.trail.push(slot);
            true
        }
    }

    /// [`Answers::advance`] for an indexed depth. A function of its own,
    /// never inlined: a third copy of [`try_candidate`] inside `advance`
    /// cost the scan loop next to it 5% (80k-candidate join, 4 alternated
    /// runs against the two-path evaluator); out of line the scan reads
    /// the same as before there was an index.
    #[inline(never)]
    fn advance_indexed(&mut self, d: usize, mark: usize) -> bool {
        let (lit, view) = (&self.plan.pos[d], self.view);
        let s = &mut self.scratch;
        let mut run = self.run;
        let tried = &mut self.n_candidates;
        let truth = self.indexed[d].find_map(|i| {
            *tried += 1;
            try_candidate(view, lit, GroundAtomId(i), &mut run, s, mark)
        });
        self.run = run;
        if let Some(t) = truth {
            s.depths[d].undefined = t == Truth::Undefined;
        }
        truth.is_some()
    }

    /// Evaluates the leaf under the current (total) binding: checks the
    /// negative literals, folds the three-valued conjunction, and
    /// builds (and counts) the answer. `None` = this instance is false.
    /// No conjunct that reaches the fold is false, so it is undefined iff
    /// one is.
    fn leaf(&mut self) -> Option<Answer> {
        let pos = &self.scratch.depths[..self.plan.pos.len()];
        let mut undefined = pos.iter().any(|st| st.undefined);
        for lit in &self.plan.neg {
            let s = &mut self.scratch;
            let resolved = resolve_key(lit, s);
            debug_assert!(resolved, "leaf with an unbound slot or compound pattern");
            let t = self
                .view
                .atoms
                .lookup_atom_parts(lit.pred.sym, &s.key_buf)
                .map_or(Truth::False, |id| self.view.model.truth(id));
            match t {
                Truth::True => return None,
                Truth::Undefined => undefined = true,
                Truth::False => {}
            }
        }
        let truth = if undefined {
            Truth::Undefined
        } else {
            Truth::True
        };
        let mut subst = Subst::new();
        for (i, &v) in self.plan.vars.iter().enumerate() {
            let b = self.scratch.bindings[i];
            debug_assert_ne!(b, UNBOUND, "leaf with unbound goal variable");
            subst.bind(v, b);
        }
        self.n_answers += 1;
        Some(Answer { subst, truth })
    }

    /// Drains the iterator into a compatibility [`QueryResult`].
    pub fn collect_result(mut self) -> QueryResult {
        let mut answers = Vec::new();
        let mut undefined = Vec::new();
        for a in self.by_ref() {
            match a.truth {
                Truth::True => answers.push(a.subst),
                Truth::Undefined => undefined.push(a.subst),
                Truth::False => unreachable!("false instances are never yielded"),
            }
        }
        let truth = if !answers.is_empty() {
            Truth::True
        } else if !undefined.is_empty() {
            Truth::Undefined
        } else {
            Truth::False
        };
        QueryResult {
            truth,
            answers,
            undefined,
            floundered: false,
            interrupted: self.interrupted,
        }
    }
}

impl Iterator for Answers<'_> {
    type Item = Answer;

    fn next(&mut self) -> Option<Answer> {
        if self.done {
            return None;
        }
        let total = self.plan.pos.len() + self.plan.residual.len();
        if !self.started {
            self.started = true;
            if total == 0 {
                self.done = true;
                return self.leaf();
            }
            self.enter(0);
            self.depth = 0;
        } else {
            self.depth = total - 1;
        }
        loop {
            if let Err(cause) = self.guard.tick(&mut self.tick) {
                self.interrupted = Some(cause);
                self.done = true;
                if let Some(q) = self.qobs {
                    q.interrupts.add(1);
                    record_trip(
                        &q.obs,
                        InterruptPhase::Query,
                        cause,
                        &TripInfo::from_guard(&self.guard),
                    );
                }
                return None;
            }
            if self.advance(self.depth) {
                if self.depth + 1 == total {
                    if let Some(a) = self.leaf() {
                        return Some(a);
                    }
                } else {
                    self.depth += 1;
                    self.enter(self.depth);
                }
            } else if self.depth == 0 {
                self.done = true;
                return None;
            } else {
                self.depth -= 1;
            }
        }
    }
}

impl Drop for Answers<'_> {
    fn drop(&mut self) {
        let Some(q) = self.qobs else { return };
        for (counter, n) in [
            (&q.answers, self.n_answers),
            (&q.point_lookups, self.n_point),
            (&q.scans, self.n_scan),
            (&q.index_lookups, self.n_index),
            (&q.index_seals, self.n_seal),
            (&q.index_merges, self.n_merge),
            (&q.candidates, self.n_candidates),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

/// Matches a positive literal against candidate atom `id`, binding its
/// slots on the trail: the candidate's truth, or `None` (bindings undone
/// to `mark`) when the atom is false in the model or does not match.
/// `run` caches the atom run the previous candidate fell in — candidates
/// ascend, so most fall in the run at hand.
#[inline(always)]
fn try_candidate<'a>(
    view: ModelView<'a>,
    lit: &CompiledLit,
    id: GroundAtomId,
    run: &mut (usize, &'a [Atom]),
    s: &mut QueryScratch,
    mark: usize,
) -> Option<Truth> {
    let t = view.model.truth(id);
    if t == Truth::False {
        return None;
    }
    if id.index().wrapping_sub(run.0) >= run.1.len() {
        *run = view.atoms.atom_run(id);
    }
    let atom = &run.1[id.index() - run.0];
    let ok = lit
        .args
        .iter()
        .zip(atom.args.iter())
        .all(|(p, &tgt)| match_pat(view.store, p, tgt, s));
    if !ok {
        s.undo_to(mark);
    }
    ok.then_some(t)
}

/// Structurally matches one compiled pattern argument against a ground
/// target term, binding slots on the trail. Read-only on the store.
fn match_pat(store: &TermStore, pat: &PatArg, tgt: TermId, s: &mut QueryScratch) -> bool {
    match pat {
        PatArg::Const(t) => *t == tgt,
        PatArg::Slot(slot) => {
            let cur = s.bindings[*slot as usize];
            if cur == UNBOUND {
                s.bindings[*slot as usize] = tgt;
                s.trail.push(*slot);
                true
            } else {
                cur == tgt
            }
        }
        PatArg::App(f, args) => match store.term(tgt) {
            Term::App(g, targs) if g == f && targs.len() == args.len() => args
                .iter()
                .zip(targs.iter())
                .all(|(p, &t)| match_pat(store, p, t, s)),
            _ => false,
        },
    }
}

/// A query compiled once and runnable any number of times — on the live
/// session or on any [`Snapshot`](super::Snapshot) of it, from any
/// thread: the plan is store-free and every run owns its scratch, so a
/// run needs only `&self`. [`Session::prepare`] and
/// [`Snapshot::prepare`](super::Snapshot::prepare) make one, the same
/// way; a name a later commit introduces starts to match (late names).
#[derive(Debug)]
pub struct PreparedQuery {
    plan: QueryPlan,
    /// The goal's variable names, in binding-slot order.
    var_names: Box<[String]>,
    /// The goal text, kept (else empty) while the plan has late names:
    /// a run recompiles it once one of them is known.
    src: Box<str>,
}

impl PreparedQuery {
    /// Parses `src` into a scratch store and compiles it against
    /// `store` by read-only lookup: every prepare, and every recompile
    /// for a late name, is this call.
    pub(super) fn compile(store: &TermStore, src: &str) -> Result<PreparedQuery, SessionError> {
        let mut scratch = TermStore::new();
        let goal = parse_goal(&mut scratch, src)?;
        let names = Names {
            source: &scratch,
            target: store,
        };
        let plan = QueryPlan::compile(names, &goal)?;
        let var_names = plan.vars.iter().map(|&v| scratch.var_name(v)).collect();
        let src = if plan.late.is_empty() { "" } else { src }.into();
        Ok(PreparedQuery {
            plan,
            var_names,
            src,
        })
    }

    /// Streams the answers on `on` — `&session` or `&snapshot`.
    pub fn execute<'a>(&'a self, on: impl QuerySource<'a>) -> Result<Answers<'a>, SessionError> {
        self.execute_governed(on, &Guard::none())
    }

    /// Governed variant of [`PreparedQuery::execute`]: the stream checks
    /// `guard` every [`crate::govern::TICK_INTERVAL`] backtracking steps.
    /// When a limit trips, the stream simply ends — answers already
    /// yielded stay valid — and [`Answers::interrupted`] reports the
    /// cause. Build the guard with [`Guard::builder`] (share its
    /// [`crate::govern::InterruptHandle`] across reader threads), or
    /// with [`Session::query_guard`] to let the session's
    /// [`Session::interrupt_handle`] cancel the run. Each late name is
    /// probed in `on`'s store; if one is known there, the run recompiles
    /// (every such run: the recompiled plan is not kept).
    pub fn execute_governed<'a>(
        &'a self,
        on: impl QuerySource<'a>,
        guard: &Guard,
    ) -> Result<Answers<'a>, SessionError> {
        let view = on.view();
        let store = view.store;
        let learned = self.plan.late.iter().any(|late| late.known(store));
        let plan = if learned {
            Cow::Owned(PreparedQuery::compile(store, &self.src)?.plan)
        } else {
            Cow::Borrowed(&self.plan)
        };
        Answers::start(plan, view, guard.clone(), Some(on.qobs()))
    }

    /// Renders one answer's bindings as `"X = a, Y = b"` (empty for a
    /// ground goal): variable names from the parsed goal, terms from
    /// the store of `on`, the source the answer came from.
    pub fn render_answer<'a>(&self, on: impl QuerySource<'a>, answer: &Answer) -> String {
        let store = on.view().store;
        // One buffer per answer: an enumeration renders 10^4 of these.
        let mut out = String::new();
        for (&v, name) in self.plan.vars.iter().zip(self.var_names.iter()) {
            if let Some(t) = answer.subst.lookup(v) {
                if !out.is_empty() {
                    out.push_str(", ");
                }
                out.push_str(name);
                out.push_str(" = ");
                store.fmt_term(t, &mut out);
            }
        }
        out
    }
}

impl Session {
    /// Compiles a query (e.g. `"?- win(X)."`) into a [`PreparedQuery`]
    /// that runs on this session or on any of its snapshots, exactly as
    /// [`Snapshot::prepare`](super::Snapshot::prepare) does: a read
    /// interns nothing into the session.
    pub fn prepare(&self, src: &str) -> Result<PreparedQuery, SessionError> {
        PreparedQuery::compile(&self.store, src)
    }

    /// One-shot convenience: parse, prepare, execute, collect. As in an
    /// [`Answer`], each `Subst` binds the goal's scratch variables: compare
    /// them, or render through [`PreparedQuery::render_answer`].
    pub fn query(&self, src: &str) -> Result<QueryResult, SessionError> {
        let q = self.prepare(src)?;
        q.execute(self).map(Answers::collect_result)
    }

    /// Governed one-shot query: like [`Session::query`] but the
    /// enumeration respects `opts` plus this session's
    /// [`Session::interrupt_handle`]. A tripped limit yields a
    /// *partial* result — the answers found so far, with
    /// [`QueryResult::interrupted`] set to the cause — never an error.
    pub fn query_governed(&self, src: &str, opts: &QueryOpts) -> Result<QueryResult, SessionError> {
        let q = self.prepare(src)?;
        q.execute_governed(self, &self.query_guard(opts))
            .map(Answers::collect_result)
    }

    /// The guard for one governed query: `opts`' deadline and fuel plus
    /// the session's cancel flag, which is cleared here — so
    /// [`Session::interrupt_handle`] cancels the run this guard is
    /// handed to ([`PreparedQuery::execute_governed`], on the session or
    /// on a snapshot), and a stale cancel never lands on it.
    pub fn query_guard(&self, opts: &QueryOpts) -> Guard {
        self.governed_guard(opts.deadline, None, opts.fuel, false)
    }

    /// Truth of a single (ground) query — shorthand over
    /// [`Session::query`].
    pub fn truth(&self, src: &str) -> Result<Truth, SessionError> {
        Ok(self.query(src)?.truth)
    }

    /// The committed truth of a ground atom (atoms the grounder never
    /// saw are false).
    pub fn truth_of_atom(&self, atom: &Atom) -> Truth {
        match self.ground_program().lookup_atom(atom) {
            Some(id) => self.engine.model.truth(id),
            None => Truth::False,
        }
    }
}
