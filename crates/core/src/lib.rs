//! # gsls-core — Global SLS-resolution
//!
//! The paper's primary contribution (Ross, *A Procedural Semantics for
//! Well-Founded Negation in Logic Programs*, PODS 1989 / JLP 1992),
//! implemented in full:
//!
//! * [`ordinal`] — levels as ordinals below ω^ω (Def. 3.3, Example 3.1);
//! * [`rule`] — safe / positivistic / negatively-parallel / preferential
//!   computation rules, plus the two deviant rules of Examples 3.2–3.3;
//! * [`slp`] — SLP-trees with active/dead leaves, computed mgus, and
//!   sound ground-loop pruning (the ideal "infinite branch = failed");
//! * [`global`] — global trees with negation/tree/nonground nodes,
//!   bottom-up status assignment (successful / failed / floundered /
//!   indeterminate) and ordinal levels, with shared ground subgoals;
//! * [`deviant`] — goal evaluation under non-preferential rules,
//!   demonstrating the completeness counterexamples;
//! * [`tabled`] — the **effective** memoized engine for function-free
//!   programs (Sec. 7): relevant-subprogram extraction + SCC-local
//!   alternating fixpoints; agrees with the well-founded model;
//! * [`trace`] — ASCII rendering of SLP and global trees (Figures 1–4);
//! * [`session`] — the incremental, durable, snapshot-isolated
//!   [`Session`]: the engine most users talk to (below);
//! * [`solver`] — the one-shot batch facade over the same query
//!   evaluator.
//!
//! ## The session, by module
//!
//! [`session`] is a module tree cut along the decisions it makes, one
//! definition each (its docs carry the full map and diagram):
//! `engine` — the maintained state, its single `build` and its
//! `truncate_to`;
//! `commit` — [`UpdateBatch`] and the one pipeline every write is a
//! call of, `validate → admit → journal → apply → publish` per batch
//! inside one group loop that fsyncs the group's records once before
//! any commit returns (a lone commit is a group of one), WAL replay
//! entering at `apply`, a failure after `journal` either *unwound*
//! (engine truncated, WAL cut, both to the rollback point's marks) or
//! leaving the session *poisoned* until [`Session::recover`] completes
//! the unwind;
//! `query` — the one goal compiler, the one streaming evaluator
//! ([`Answers`]) and the one compiled query ([`PreparedQuery`]), run on
//! either [`QuerySource`]; `snapshot` — the frozen `Send + Sync` read
//! view; `errors` — [`SessionError`] and friends.
//!
//! ```
//! use gsls_core::{Engine, Solver};
//! use gsls_lang::{parse_goal, parse_program, TermStore};
//! use gsls_wfs::Truth;
//!
//! let mut store = TermStore::new();
//! let program = parse_program(
//!     &mut store,
//!     "move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).",
//! ).unwrap();
//! let mut solver = Solver::new(program);
//! let goal = parse_goal(&mut store, "?- win(b).").unwrap();
//! let result = solver.query(&mut store, &goal, Engine::Tabled).unwrap();
//! assert_eq!(result.truth, Truth::True);
//! ```

#![forbid(unsafe_code)]

pub mod deviant;
pub mod global;
pub mod govern;
pub mod ground_tree;
pub mod ordinal;
pub mod rule;
pub mod scc;
pub mod session;
pub mod slp;
pub mod solver;
pub mod tabled;
pub mod trace;

pub use deviant::{evaluate as deviant_evaluate, DeviantOpts, Verdict};
pub use global::{
    GlobalAnswer, GlobalOpts, GlobalTree, NegChild, NegNode, Status, StatusFlags, TreeNode,
};
pub use govern::{
    CommitOpts, Guard, GuardBuilder, InterruptCause, InterruptHandle, InterruptPhase, QueryOpts,
    TripInfo, TICK_INTERVAL,
};
pub use ground_tree::{GroundStatus, GroundTreeAnalysis};
pub use ordinal::Ordinal;
pub use rule::{RuleKind, Selection};
pub use scc::SccSolver;
pub use session::{
    Answer, Answers, CommitError, CommitRejection, CommitStats, PreparedQuery, QuerySource,
    Session, SessionError, Snapshot, UpdateBatch,
};
pub use slp::{SlpNode, SlpNodeKind, SlpOpts, SlpTree};
pub use solver::{Engine, QueryResult, Solver, SolverError};
pub use tabled::{TabledEngine, TabledStats};
pub use trace::{render_global, render_slp};
