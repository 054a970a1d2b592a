//! # global-sls — Global SLS-resolution for well-founded negation
//!
//! A full implementation of **Kenneth A. Ross, "A Procedural Semantics
//! for Well-Founded Negation in Logic Programs"** (PODS 1989; JLP 1992):
//! global trees, SLP-trees, ordinal levels, computation rules, the
//! effective memoized engine for function-free programs, the bottom-up
//! well-founded-model baselines, and the SLD/SLDNF/SLS comparison
//! procedures — grown into an **incremental deductive-database engine**
//! served through the [`prelude::Session`] API.
//!
//! ## Quickstart
//!
//! A [`prelude::Session`] owns the term store, the program, and a
//! continuously maintained well-founded model. Updates are
//! transactional and delta-grounded; queries are prepared once and
//! stream their answers; snapshots give lock-free concurrent reads.
//!
//! ```
//! use global_sls::prelude::*;
//!
//! let mut session = Session::from_source(
//!     "move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).",
//! )?;
//!
//! // Prepared queries compile once and stream answers.
//! let winners = session.prepare("?- win(X).")?;
//! let wins: Vec<Answer> = winners.execute(&session)?.collect();
//! assert_eq!(wins.len(), 1); // win(b): b can move to the lost c
//! assert_eq!(wins[0].truth, Truth::True);
//!
//! // Incremental update: give c an escape move. The commit re-joins
//! // only the affected plans and repairs the model on warm chains —
//! // no re-grounding, no from-scratch solve.
//! session.assert_facts("move(c, a).")?;
//! assert_eq!(session.truth("?- win(b).")?, Truth::Undefined); // all draws now
//!
//! // Retraction is a model-level switch; re-asserting re-enables.
//! session.retract_facts("move(c, a).")?;
//! assert_eq!(session.truth("?- win(b).")?, Truth::True);
//!
//! // Transactions batch updates atomically.
//! session.begin()?;
//! session.assert_facts("move(c, a).")?;
//! session.retract_facts("move(b, c).")?;
//! session.rollback(); // never mind
//!
//! // Snapshots are immutable, Send + Sync and share the store with the
//! // session instead of copying it: readers on other threads keep
//! // their epoch while the session commits on.
//! // One prepared query runs on either: the snapshot or the session.
//! let snapshot = session.snapshot();
//! session.assert_facts("move(c, a).")?;
//! assert_eq!(winners.execute(&snapshot)?.count(), 1); // pre-commit view
//! let live: Vec<Answer> = winners.execute(&session)?.collect(); // live view
//! assert!(live.len() == 3 && live.iter().all(|a| a.truth == Truth::Undefined));
//! # Ok::<(), SessionError>(())
//! ```
//!
//! ## Durability & recovery
//!
//! [`prelude::Session::open`] roots a session in a directory and makes
//! every commit **durable**: the batch is validated up front (typed
//! [`prelude::CommitError`] rejections mutate nothing), serialized as a
//! checksummed write-ahead-log record, applied, and fsync'd *before the
//! commit returns* — a lone commit is a group of one, and a group's
//! records share one covering fsync — so an acknowledged commit
//! survives a crash at any instant, and one that never returned `Ok`
//! is never replayed. Reopening the directory loads the newest valid
//! checkpoint (falling back one generation if the newest fails its
//! checksum) and replays the WAL tail through the normal commit path; a
//! torn or corrupt tail left by a crash mid-append is detected by
//! checksum and truncated, never replayed. Checkpoints are taken automatically once
//! the WAL passes the [`prelude::DurableOpts`] thresholds, or on demand
//! with [`prelude::Session::checkpoint`]; they are written atomically
//! (temp file + rename) and rotate the WAL.
//!
//! ```
//! use global_sls::prelude::*;
//!
//! let dir = std::env::temp_dir().join(format!("gsls_doc_{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! {
//!     let mut session = Session::open(&dir)?;
//!     session.add_rules("win(X) :- move(X, Y), ~win(Y).")?;
//!     session.assert_facts("move(a, b).")?;
//! } // dropped without ceremony — the commits are already on disk
//! let mut session = Session::open(&dir)?;
//! assert_eq!(session.truth("?- win(a).")?, Truth::True);
//! session.checkpoint()?; // explicit snapshot + WAL rotation
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), SessionError>(())
//! ```
//!
//! Failure is non-fatal by design: a commit that fails mid-apply
//! (e.g. the grounding clause budget) is unwound — its WAL record is
//! truncated off the log and what it appended in memory is truncated
//! off the engine, which is back at the previous epoch for the price of
//! the failed commit, not of the program (the ground state is
//! append-only, so undoing a commit is cutting a suffix off; the model,
//! written last, was never touched) — so it degrades to a rolled-back
//! transaction and the session stays writable. Only an unwind that
//! cannot complete — the WAL record cannot be cut off, so it could
//! still replay — poisons the session, as does a panic escaping
//! mid-commit, after which no in-memory invariant can be trusted and
//! [`prelude::Session::recover`] rebuilds the engine from source:
//! *unwind or poison*, never carry on over a record nobody was acked
//! for. The crash-injection harness behind this lives in
//! [`durable`](gsls_durable): a [`internals::FaultPlan`]-driven storage
//! double that drops or fails fsyncs, fails truncates, tears final
//! records and kills writes at a chosen byte, driving the
//! reopen-equals-rebuild property tests.
//!
//! ## Failure model & resource governance
//!
//! Every failure an application can see is typed, and none of them is
//! terminal. The taxonomy, from earliest to latest in a commit:
//!
//! | error | when | state after |
//! |-------|------|-------------|
//! | [`prelude::SessionError::Rejected`] | up-front validation / lint gate | untouched — nothing journaled |
//! | `Interrupted { phase: Admission, .. }` | predicted cost exceeds a [`prelude::CommitOpts`] cap | untouched — rejected before the WAL |
//! | `Interrupted { phase: Grounding \| ModelRefresh, .. }` | deadline, cancel, or budget trips mid-apply | rolled back — WAL record truncated, engine truncated to the previous epoch (cost: what the commit appended; `rollback.truncations`) |
//! | [`prelude::SessionError::Grounding`] | the grounder's own clause budget | rolled back, same path |
//! | [`prelude::SessionError::Durable`] | storage failure on the WAL append, or on the fsync that covers the record after the apply | a failed append: untouched in memory, the frame cut back off the WAL (the log refuses further appends until it is); a failed fsync: a lone commit is unwound like a failed apply (poisoned only if its record cannot be cut off), a [`prelude::Session::commit_group`] is poisoned (next row). Either way the commit never happened |
//! | [`prelude::SessionError::Poisoned`] | an unwind could not complete (the WAL record could not be cut off), a [`prelude::Session::commit_group`]'s covering fsync failed, or a panic escaped mid-commit | reads serve the last consistent model; [`prelude::Session::recover`] completes the unwind — engine (truncated; rebuilt from source after a panic, `rollback.rebuilds`) *and* WAL back at the last acked state |
//!
//! The [`prelude::InterruptCause`] inside `Interrupted` says *why*
//! (`Cancelled`, `DeadlineExceeded`, `MemoryBudget`); the
//! [`prelude::InterruptPhase`] says *where*. The invariant: **a
//! timeout is a rolled-back transaction, never a poisoned session** —
//! the interrupt-at-every-phase and panic-injection sweeps in
//! `tests/governance.rs` hold this at every guard check a commit
//! performs.
//!
//! Governance is opt-in per operation. [`prelude::Session::commit_with`]
//! takes [`prelude::CommitOpts`] (wall-clock deadline, clause cap,
//! approximate memory budget over the term store + ground program +
//! indexes); [`prelude::Session::query_governed`] takes
//! [`prelude::QueryOpts`], and [`prelude::PreparedQuery::execute_governed`]
//! takes a guard — [`prelude::Session::query_guard`] builds one from
//! the same opts. [`prelude::Session::interrupt_handle`]
//! returns a `Send + Sync` [`prelude::InterruptHandle`] any thread can
//! use to cancel the operation in flight; every hot loop in the engine
//! — grounding join rounds, fixpoint propagation, SCC-by-SCC tabling,
//! query backtracking — polls the shared guard every ~1024 work units.
//! An interrupted *query* is even gentler than a commit: the stream
//! just ends, the answers already yielded stay valid, and
//! [`prelude::QueryResult::interrupted`] reports the cause.
//!
//! ```
//! use global_sls::prelude::*;
//! use std::time::{Duration, Instant};
//!
//! let mut session = Session::from_source(
//!     "e(a, b). e(b, c). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).",
//! )?;
//!
//! // A deadline that already passed: the commit is interrupted and
//! // rolls back — same epoch, not poisoned, still writable.
//! session.begin()?;
//! session.assert_facts("e(c, d). e(d, a).")?;
//! let opts = CommitOpts {
//!     deadline: Some(Instant::now() - Duration::from_millis(1)),
//!     ..CommitOpts::default()
//! };
//! let err = session.commit_with(&opts).unwrap_err();
//! assert!(matches!(err, SessionError::Interrupted { .. }));
//! assert!(!session.is_poisoned());
//! assert_eq!(session.epoch(), 0);
//! assert_eq!(session.truth("?- e(c, d).")?, Truth::False);
//!
//! // Admission control: a batch *predicted* to exceed the clause cap
//! // is rejected before the write-ahead log would see it.
//! session.begin()?;
//! session.assert_facts("e(c, d). e(d, a).")?;
//! let err = session.commit_with(&CommitOpts { max_clauses: Some(1), ..CommitOpts::default() })
//!     .unwrap_err();
//! assert!(matches!(
//!     err,
//!     SessionError::Interrupted { phase: InterruptPhase::Admission, .. }
//! ));
//!
//! // Unlimited opts behave exactly like a plain commit …
//! session.begin()?;
//! session.assert_facts("e(c, d). e(d, a).")?;
//! session.commit_with(&CommitOpts::none())?;
//! assert_eq!(session.truth("?- t(a, a).")?, Truth::True);
//!
//! // … and any thread holding the handle can cancel the operation
//! // *in flight*. Each governed operation clears the flag when it
//! // starts, so a stale cancel never kills the next commit — and a
//! // consumed one doesn't either (see tests/governance.rs for the
//! // cross-thread version). The deterministic stand-in for "the guard
//! // tripped mid-commit" is the fuel knob:
//! let handle = session.interrupt_handle();
//! assert!(!handle.is_cancelled());
//! session.begin()?;
//! session.assert_facts("e(a, e0).")?;
//! let err = session
//!     .commit_with(&CommitOpts { fuel: Some(0), ..CommitOpts::default() })
//!     .unwrap_err();
//! assert!(matches!(
//!     err,
//!     SessionError::Interrupted { cause: InterruptCause::Cancelled, .. }
//! ));
//! assert!(!session.is_poisoned()); // rolled back; carry on
//! session.assert_facts("e(a, e0).")?; // the same batch, ungoverned
//! assert_eq!(session.truth("?- e(a, e0).")?, Truth::True);
//! # Ok::<(), SessionError>(())
//! ```
//!
//! ## Observability
//!
//! Every session carries an always-on [`obs`](gsls_obs) bundle: a
//! lock-cheap metrics registry (atomic counters + log-linear latency
//! histograms) and a bounded trace-event ring. The commit pipeline
//! records one histogram per phase (`commit.validate`,
//! `commit.admission`, `commit.journal`, `commit.ground`,
//! `commit.refresh`, `commit.index`, `commit.publish`, plus
//! `commit.total`); the grounder, fixpoint chains, WAL and query
//! evaluator feed counters (`ground.*`, `lfp.*`, `wal.*`, `query.*`),
//! and `snapshot.*` counts what sharing the store with live snapshots
//! made commits copy; guard trips surface both as
//! `guard.trips.<phase>.<cause>` counters and as ring events carrying
//! the [`prelude::TripInfo`] resource readings.
//! [`prelude::Session::metrics`] snapshots everything consistently —
//! cheap enough to call per request — and
//! [`prelude::Session::recent_events`] drains the ring for post-hoc
//! reconstruction of a slow commit. The same numbers are inspectable
//! offline with the `gsls-obs` binary, and the `obs_overhead` release
//! test of `tests/observability.rs` (run by `scripts/check.sh`) holds
//! the always-on overhead at ≤ 3% on a warm single-fact commit.
//!
//! ```
//! use global_sls::prelude::*;
//!
//! let mut session = Session::from_source("move(a, b). move(b, a).")?;
//! session.assert_facts("move(b, c).")?;
//! let q = session.query("?- move(a, X).")?;
//! assert_eq!(q.answers.len(), 1);
//!
//! let m = session.metrics();
//! assert_eq!(m.counter("commit.count"), Some(1));
//! assert_eq!(m.counter("query.executions"), Some(1));
//! assert!(m.counter("query.answers") >= Some(1));
//! // Per-phase latency histograms cover the whole commit pipeline.
//! let ground = m.histogram("commit.ground").unwrap();
//! assert_eq!(ground.count, 1);
//! assert!(ground.p99 >= ground.p50);
//! // The event ring holds the recent spans, oldest first.
//! let events = session.recent_events();
//! assert!(events.iter().any(|e| e.label == "commit.total"));
//! # Ok::<(), SessionError>(())
//! ```
//!
//! ## Serving
//!
//! [`serve`](gsls_serve) puts the whole stack on a socket: a std-only
//! TCP server ([`prelude::Server`]) multiplexing concurrent clients
//! onto named durable sessions, and a blocking [`prelude::Client`].
//! Every message is one CRC-framed record — `[len: u32 LE]
//! [crc32: u32 LE][payload]`, the WAL's own framing reused on the wire
//! — whose payload starts with a protocol version byte and a tag:
//!
//! | request | payload | reply |
//! |---------|---------|-------|
//! | `Ping` | — | `Pong` |
//! | `Open` | session name | `Opened{session, epoch}` |
//! | `Commit` | rules, asserts, retracts, budgets | `Committed{epoch, stats}` |
//! | `Query` | goal text, budgets | `Answers{truth, answers, undefined, interrupted}` |
//! | `Metrics` | — | `Text` (Prometheus exposition format) |
//! | `Events` | — | `Text` (JSON lines from the trace ring) |
//! | `Checkpoint` | — | `Text` |
//! | `Shutdown` | — | `Text` (server drains and stops) |
//!
//! An `Answers` reply holds at most [`serve::MAX_ANSWERS`] answers and
//! fits one frame ([`serve::MAX_FRAME`]); an enumeration that would
//! outgrow either ends early with `interrupted` set.
//!
//! Failures come back as `Error{kind, message}` with a coarse kind
//! (`Parse`, `Rejected`, `Interrupted`, `Busy`, …). Each request's
//! optional `deadline_ms` / `fuel` / `max_memory_bytes` /
//! `max_clauses` budgets map 1:1 onto [`prelude::CommitOpts`] and the
//! query guards, with deadlines measured from server receipt — so
//! end-to-end governance works exactly like in-process governance.
//!
//! **Group commit.** Each session sits behind one writer lock. A
//! commit waits on the connection thread that received it, and one
//! waiting thread per session leads: it takes the oldest pending
//! batches as one group — at once for a lone writer; while several
//! write, once every writer of the last group has sent again or that
//! group's run has passed again, with no timer — journals every batch
//! to the WAL *unsynced*, validates/governs/applies each under its own
//! budget, then issues a single covering fsync for the whole run
//! ([`prelude::Session::commit_group`]). Clients are answered only
//! after that fsync — fsync before *ack*, not before *apply*, the
//! contract of every commit (an embedded one is a group of one) — so
//! under concurrent writers the fsync cost is amortized across the
//! group (watch `wal.group_records` / `wal.group_syncs` in the
//! scrape). A batch that fails its own validation or budget is
//! truncated off the WAL tail and rolled back; **only that client**
//! sees the error, and the rest of the group commits.
//!
//! **Disconnects.** A client vanishing mid-request can never poison a
//! session: a half-written frame fails its length/CRC check and never
//! reaches the engine, and a fully received commit whose client is gone
//! commits normally (the reply just has nobody to go to). Queries run
//! on [`prelude::Snapshot`]s, each on its connection's thread, and
//! never block a commit. See `examples/serve_demo.rs` for the whole
//! loop, and the `gsls-serve` / `gsls-client` binaries for the CLI pair.
//!
//! ## Diagnostics & linting
//!
//! Every commit is gated by the static analyzer in
//! [`analysis`](gsls_analyze): safety/range-restriction (unbound head
//! variables, floundering negative-only variables, non-ground facts,
//! arity conflicts), stratification diagnostics with a named witness
//! cycle, dead-code analysis, and cost lints (cartesian products,
//! instantiation estimates). Safety violations are deny-by-default —
//! the batch is rejected with a [`prelude::CommitRejection`] carrying
//! *every* violation, **before** anything reaches the write-ahead log —
//! while the rest warn into [`prelude::Session::last_lint_report`].
//! Levels are per-lint via [`prelude::LintConfig`]; unstratified
//! programs are *allowed* by default (serving them is this engine's
//! purpose), and `LintConfig::permissive()` switches the gate off.
//!
//! ```
//! use global_sls::prelude::*;
//!
//! let mut session = Session::from_source("q(a).")?;
//! // `X` occurs only under negation: no computation rule can ground
//! // it, so the rule flounders — denied before it is journaled.
//! let err = session.add_rules("p(X) :- ~q(X).").unwrap_err();
//! match err {
//!     SessionError::Rejected(rejection) => {
//!         let diag = match rejection.first() {
//!             CommitError::Unsafe(d) => d,
//!             other => panic!("expected a lint rejection: {other}"),
//!         };
//!         assert_eq!(diag.lint, Lint::NegativeOnlyVar);
//!         assert_eq!(diag.severity, Severity::Error);
//!         assert!(diag.render().starts_with("error[negative-only-var]"));
//!     }
//!     other => panic!("expected a rejection: {other}"),
//! }
//! // Opting out admits the rule (it grounds over the active domain).
//! session.set_lint_config(LintConfig::permissive());
//! session.add_rules("p(X) :- ~q(X).")?;
//! assert_eq!(session.truth("?- p(a).")?, Truth::False);
//! # Ok::<(), SessionError>(())
//! ```
//!
//! The same passes run standalone — [`analysis`](gsls_analyze)'s
//! `analyze` over any [`prelude::Program`], or the `gsls-lint` binary
//! over `.lp` files and the workload generators (`check.sh` gates on
//! it).
//!
//! ## Batch vs. session
//!
//! The one-shot [`prelude::Solver`] facade (`parse_program` →
//! `Solver::new` → `query`) remains as a compatibility shim over the
//! same query machinery — see the `solver_compat` example. Migration is
//! mechanical: `Solver::new(program)` → [`prelude::Session::from_parts`],
//! `solver.query(..)` → [`prelude::Session::query`] (or `prepare` +
//! `execute` to reuse the compiled goal), and updates that used to mean
//! "rebuild the solver" become [`prelude::Session::assert_facts`] /
//! [`prelude::Session::retract_facts`] / [`prelude::Session::add_rules`]
//! commits. Programs with function symbols stay on the `Solver`'s
//! global-tree engine.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`lang`] | terms, atoms, clauses, unification, parser; the chunk-shared `Arena` + `IdTable` every interning structure is built on |
//! | [`analysis`] | static analyzer: safety, stratification, dead-code and cost lints |
//! | [`ground`] | grounding: join-plan compiler, fact store, incremental (session) grounder; the ground program (atom side shared with snapshots, clause side writer-private) |
//! | [`wfs`] | bottom-up well-founded semantics; difference-driven fixpoint chains |
//! | [`resolution`] | SLD / SLDNF / SLS baselines |
//! | [`core`] | the `Session` engine and its frozen-prefix `Snapshot`s, the `Solver` shim, global SLS-resolution trees |
//! | [`par`] | resource guard (`govern`) and thread-count policy |
//! | [`durable`] | write-ahead log, checkpoint/restore, crash-injection harness |
//! | [`obs`] | metrics registry, latency histograms, span tracing (std-only, dependency leaf) |
//! | [`serve`] | TCP server + client: wire protocol, group-commit write path, queries on snapshots |
//! | [`workloads`] | experiment program generators |
//!
//! The [`prelude`] re-exports the user-facing surface; diagnostic and
//! paper-machinery types (global trees, deviant computation rules,
//! Herbrand transforms, the raw tabled engine) live in [`internals`].

pub use gsls_analyze as analysis;
pub use gsls_core as core;
pub use gsls_durable as durable;
pub use gsls_ground as ground;
pub use gsls_lang as lang;
pub use gsls_obs as obs;
pub use gsls_par as par;
pub use gsls_resolution as resolution;
pub use gsls_serve as serve;
pub use gsls_wfs as wfs;
pub use gsls_workloads as workloads;

/// Everything a typical user needs: the session API, the compatibility
/// solver, the object language, and the bottom-up semantics.
pub mod prelude {
    pub use gsls_analyze::{Diagnostic, Lint, LintConfig, LintLevel, LintReport, Severity};
    pub use gsls_core::{
        Answer, Answers, CommitError, CommitOpts, CommitRejection, CommitStats, Engine,
        InterruptCause, InterruptHandle, InterruptPhase, PreparedQuery, QueryOpts, QueryResult,
        Session, SessionError, Snapshot, Solver, SolverError, Status, TripInfo, UpdateBatch,
    };
    pub use gsls_durable::{DurableOpts, StorageKind};
    pub use gsls_ground::{
        GroundProgram, Grounder, GrounderOpts, GroundingMode, IncrementalGrounder,
    };
    pub use gsls_lang::{
        parse_goal, parse_program, parse_query, parse_term, Atom, Clause, Goal, GovernOpts,
        Literal, Program, Sign, Subst, TermStore,
    };
    pub use gsls_obs::{HistogramSnapshot, MetricsSnapshot, Obs, TraceEvent};
    pub use gsls_resolution::{
        perfect_model, sld_solve, sldnf_solve, sls_solve, SldOpts, SldnfOpts, SldnfOutcome, SlsOpts,
    };
    pub use gsls_serve::{Client, ClientError, Server, ServerConfig};
    pub use gsls_wfs::{
        fitting_model, stable_models, vp_iteration, well_founded_model, Interp, Truth,
    };
}

/// The power-user / diagnostic surface: the paper's explicit tree
/// machinery, deviant computation rules, Herbrand transforms, program
/// analyses, and the raw memoized engine. Stable enough to use, but
/// not part of the typical serving path — which is why it is no longer
/// in the [`prelude`].
pub mod internals {
    pub use gsls_core::{
        deviant_evaluate, render_global, render_slp, DeviantOpts, GlobalAnswer, GlobalOpts,
        GlobalTree, GroundStatus, GroundTreeAnalysis, Guard, GuardBuilder, NegChild, NegNode,
        Ordinal, RuleKind, SccSolver, Selection, SlpNode, SlpNodeKind, SlpOpts, SlpTree,
        StatusFlags, TabledEngine, TabledStats, TreeNode, Verdict, TICK_INTERVAL,
    };
    pub use gsls_durable::{
        DurableError, DurableLog, FaultPlan, FaultyFile, FileStorage, Recovered, Wal, WalScan,
        WalStorage,
    };
    pub use gsls_ground::{
        augment_program, herbrand_universe, term_transform, AtomDepGraph, ClauseRef, Csr, DepGraph,
        GroundAtomId, GroundClause, GroundStats, GroundingError, HerbrandOpts, JoinStrategy,
        ProgramClass,
    };
    pub use gsls_wfs::{
        greatest_unfounded, is_stable_model, well_founded_model_rebuild,
        well_founded_model_scratch, well_founded_model_with_stats, well_founded_refresh,
        AlternatingStats, BitSet, ChangeCone, IncrementalLfp, NegMode, Propagator,
    };
}
