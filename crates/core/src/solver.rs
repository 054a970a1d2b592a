//! The batch-compatibility facade: one-shot programs, caller-owned
//! [`TermStore`]s.
//!
//! [`Solver`] predates [`crate::Session`] and survives as a **thin
//! shim over the session machinery**: the `Tabled` engine grounds the
//! program once, materializes the well-founded model, and evaluates
//! queries through the same compiled-plan streaming evaluator
//! (`QueryPlan` / `Answers`) a session's prepared queries use — only
//! the incremental layers (delta grounding, warm-chain maintenance,
//! snapshots) are absent, because a `Solver`'s program never changes.
//! New code should use [`crate::Session`]; see the crate-root
//! migration notes.
//!
//! * [`Engine::Tabled`] — the memoized/model-backed engine, exact for
//!   function-free programs; any query shape over the finite domain;
//! * [`Engine::GlobalTree`] — explicit global-tree construction: needed
//!   when you want the tree itself (traces, levels, floundering
//!   diagnosis) or when the program has function symbols (budgeted);
//! * the SLDNF and SLS baselines live in `gsls-resolution` and are
//!   compared in the experiment harness, not proxied here.

use crate::global::{GlobalOpts, GlobalTree};
use crate::govern::Guard;
use crate::session::{Answers, ModelView, Names, QueryPlan, SessionError};
use gsls_ground::{herbrand, GroundProgram, Grounder};
use gsls_lang::{Goal, Literal, Program, Subst, TermStore};
use gsls_wfs::{well_founded_model, Interp, Truth};
use std::borrow::Cow;
use std::fmt;

/// Engine selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Memoized effective engine (function-free programs): the
    /// precomputed well-founded model behind the streaming query
    /// evaluator.
    #[default]
    Tabled,
    /// Explicit (budgeted) global-tree construction.
    GlobalTree,
}

/// A three-valued query verdict with optional answer substitutions.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The verdict for the query as a whole. For nonground queries,
    /// `True` means *some* instance is true; `False` means *every*
    /// instance is false.
    pub truth: Truth,
    /// Substitutions whose instances are true (for queries with
    /// variables; ground queries get at most the empty substitution).
    pub answers: Vec<Subst>,
    /// Substitutions whose instances are undefined.
    pub undefined: Vec<Subst>,
    /// Whether the evaluation floundered (global-tree engine only).
    pub floundered: bool,
    /// `Some(cause)` when a governed enumeration stopped early
    /// (deadline, cancellation, fuel): the answers above are a valid
    /// *partial* set and `truth` reflects only what was enumerated.
    /// Always `None` for ungoverned runs.
    pub interrupted: Option<crate::govern::InterruptCause>,
}

/// Solver errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// The tabled engine requires function-free programs.
    NotFunctionFree,
    /// Grounding exceeded its budget.
    Grounding(String),
    /// Query shape not supported by the selected engine.
    Unsupported(String),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NotFunctionFree => {
                write!(f, "tabled engine requires a function-free program")
            }
            SolverError::Grounding(e) => write!(f, "grounding failed: {e}"),
            SolverError::Unsupported(e) => write!(f, "unsupported query: {e}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<SessionError> for SolverError {
    fn from(e: SessionError) -> Self {
        match e {
            SessionError::NotFunctionFree => SolverError::NotFunctionFree,
            SessionError::Grounding(g) => SolverError::Grounding(g),
            other => SolverError::Unsupported(other.to_string()),
        }
    }
}

/// The ground-and-solve state behind the `Tabled` engine, built on the
/// first tabled query.
struct ModelState {
    gp: GroundProgram,
    model: Interp,
    /// Constants (with the invented default if the program has none)
    /// for all-negative enumeration — the finite-domain counterpart of
    /// the constructive-negation escape hatch the paper's Section 6
    /// points to [4, 20].
    domain: gsls_lang::Arena<gsls_lang::TermId>,
}

/// The compatibility facade.
pub struct Solver {
    program: Program,
    ready: Option<ModelState>,
}

impl Solver {
    /// Creates a solver for `program`.
    pub fn new(program: Program) -> Self {
        Solver {
            program,
            ready: None,
        }
    }

    /// The program under evaluation.
    pub fn program(&self) -> &Program {
        &self.program
    }

    fn ensure_ready(&mut self, store: &mut TermStore) -> Result<&ModelState, SolverError> {
        if !self.program.is_function_free(store) {
            return Err(SolverError::NotFunctionFree);
        }
        if self.ready.is_none() {
            let gp = Grounder::ground(store, &self.program)
                .map_err(|e| SolverError::Grounding(e.to_string()))?;
            let model = well_founded_model(&gp);
            let domain = herbrand::constants_with_default(store, &self.program)
                .into_iter()
                .map(|c| store.app(c, &[]))
                .collect();
            self.ready = Some(ModelState { gp, model, domain });
        }
        Ok(self.ready.as_ref().expect("just initialised"))
    }

    /// Truth of a single ground literal under the selected engine.
    pub fn literal_truth(
        &mut self,
        store: &mut TermStore,
        lit: &Literal,
        engine: Engine,
    ) -> Result<Truth, SolverError> {
        let goal = Goal::new(vec![lit.clone()]);
        let r = self.query(store, &goal, engine)?;
        Ok(r.truth)
    }

    /// Evaluates a query.
    ///
    /// Supported shapes under the tabled engine: any conjunction of
    /// literals over the finite domain — positive literals enumerate
    /// candidates from the interned atom table, variables bound by no
    /// positive literal are enumerated over the constant domain
    /// (budgeted).
    pub fn query(
        &mut self,
        store: &mut TermStore,
        goal: &Goal,
        engine: Engine,
    ) -> Result<QueryResult, SolverError> {
        match engine {
            Engine::Tabled => self.query_tabled(store, goal),
            Engine::GlobalTree => Ok(self.query_global(store, goal)),
        }
    }

    fn query_tabled(
        &mut self,
        store: &mut TermStore,
        goal: &Goal,
    ) -> Result<QueryResult, SolverError> {
        self.ensure_ready(store)?;
        let names = Names {
            source: store,
            target: store,
        };
        let plan = QueryPlan::compile(names, goal)?;
        let st = self.ready.as_ref().expect("ensure_ready succeeded");
        let view = ModelView {
            store,
            atoms: st.gp.atoms(),
            model: &st.model,
            domain: &st.domain,
        };
        // Ungoverned and uncounted: a solver has no session registry.
        let answers = Answers::start(Cow::Borrowed(&plan), view, Guard::none(), None)?;
        Ok(answers.collect_result())
    }

    fn query_global(&self, store: &mut TermStore, goal: &Goal) -> QueryResult {
        let tree = GlobalTree::build(store, &self.program, goal, GlobalOpts::default());
        let answers = tree
            .answers(store)
            .into_iter()
            .map(|a| a.subst)
            .collect::<Vec<_>>();
        let (truth, floundered) = tree.verdict();
        QueryResult {
            truth,
            answers,
            undefined: Vec::new(),
            floundered,
            interrupted: None,
        }
    }

    /// Builds (and returns) the global tree for a goal — for traces and
    /// level inspection.
    pub fn global_tree(&self, store: &mut TermStore, goal: &Goal) -> GlobalTree {
        GlobalTree::build(store, &self.program, goal, GlobalOpts::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsls_lang::{parse_goal, parse_program};

    fn solver(src: &str) -> (TermStore, Solver) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        (s, Solver::new(p))
    }

    const WINGAME: &str = "move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).";

    #[test]
    fn ground_query_both_engines_agree() {
        for engine in [Engine::Tabled, Engine::GlobalTree] {
            let (mut s, mut solver) = solver(WINGAME);
            let g = parse_goal(&mut s, "?- win(b).").unwrap();
            let r = solver.query(&mut s, &g, engine).unwrap();
            assert_eq!(r.truth, Truth::True, "{engine:?}");
            let g2 = parse_goal(&mut s, "?- win(a).").unwrap();
            let r2 = solver.query(&mut s, &g2, engine).unwrap();
            assert_eq!(r2.truth, Truth::False, "{engine:?}");
        }
    }

    #[test]
    fn nonground_enumeration_tabled() {
        let (mut s, mut solver) = solver(WINGAME);
        let g = parse_goal(&mut s, "?- win(X).").unwrap();
        let r = solver.query(&mut s, &g, Engine::Tabled).unwrap();
        assert_eq!(r.truth, Truth::True);
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].display(&s), "{X = b}");
        assert!(r.undefined.is_empty());
    }

    #[test]
    fn undefined_instances_reported() {
        let src = "move(a, b). move(b, a). win(X) :- move(X, Y), ~win(Y).";
        let (mut s, mut solver) = solver(src);
        let g = parse_goal(&mut s, "?- win(X).").unwrap();
        let r = solver.query(&mut s, &g, Engine::Tabled).unwrap();
        assert_eq!(r.truth, Truth::Undefined);
        assert_eq!(r.undefined.len(), 2);
    }

    #[test]
    fn conjunctive_ground_query() {
        let (mut s, mut solver) = solver("p. q :- ~r.");
        let g = parse_goal(&mut s, "?- p, q.").unwrap();
        let r = solver.query(&mut s, &g, Engine::Tabled).unwrap();
        assert_eq!(r.truth, Truth::True);
        let g2 = parse_goal(&mut s, "?- p, ~q.").unwrap();
        let r2 = solver.query(&mut s, &g2, Engine::Tabled).unwrap();
        assert_eq!(r2.truth, Truth::False);
    }

    #[test]
    fn join_with_negative_literal() {
        let (mut s, mut solver) = solver("d(a). d(b). d(c). bad(b). good(X) :- d(X), ~bad(X).");
        let g = parse_goal(&mut s, "?- d(X), ~bad(X).").unwrap();
        let r = solver.query(&mut s, &g, Engine::Tabled).unwrap();
        assert_eq!(r.answers.len(), 2);
    }

    #[test]
    fn function_symbols_rejected_by_tabled() {
        let (mut s, mut solver) = solver("nat(0). nat(s(X)) :- nat(X).");
        let g = parse_goal(&mut s, "?- nat(0).").unwrap();
        assert_eq!(
            solver.query(&mut s, &g, Engine::Tabled).unwrap_err(),
            SolverError::NotFunctionFree
        );
        // The global-tree engine handles it.
        let r = solver.query(&mut s, &g, Engine::GlobalTree).unwrap();
        assert_eq!(r.truth, Truth::True);
    }

    #[test]
    fn all_negative_nonground_enumerated() {
        // The tree procedure flounders on ?- ~q(X); the tabled engine
        // answers by finite-domain enumeration: q(a) true, q(b) false.
        let (mut s, mut solver) = solver("q(a). d(b).");
        let g = parse_goal(&mut s, "?- ~q(X).").unwrap();
        let r = solver.query(&mut s, &g, Engine::Tabled).unwrap();
        assert_eq!(r.truth, Truth::True);
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].display(&s), "{X = b}");
    }

    #[test]
    fn all_negative_two_variables() {
        let (mut s, mut solver) = solver("e(a, b). d(a). d(b).");
        let g = parse_goal(&mut s, "?- ~e(X, Y).").unwrap();
        let r = solver.query(&mut s, &g, Engine::Tabled).unwrap();
        // 4 pairs, only (a,b) is an edge.
        assert_eq!(r.answers.len(), 3);
    }

    #[test]
    fn global_engine_reports_floundering() {
        let (mut s, solver) = solver("p(X) :- ~q(f(X)). q(a).");
        let g = parse_goal(&mut s, "?- p(X).").unwrap();
        let r = solver.query_global(&mut s, &g);
        assert!(r.floundered);
    }

    #[test]
    fn literal_truth_shorthand() {
        let (mut s, mut solver) = solver("p.");
        let g = parse_goal(&mut s, "?- ~p.").unwrap();
        let t = solver
            .literal_truth(&mut s, &g.literals()[0], Engine::Tabled)
            .unwrap();
        assert_eq!(t, Truth::False);
    }

    #[test]
    fn unknown_atom_is_false() {
        let (mut s, mut solver) = solver("p.");
        let g = parse_goal(&mut s, "?- zzz.").unwrap();
        let r = solver.query(&mut s, &g, Engine::Tabled).unwrap();
        assert_eq!(r.truth, Truth::False);
    }
}
