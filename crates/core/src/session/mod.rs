//! The incremental, snapshot-isolated [`Session`] — the primary entry
//! point of the crate.
//!
//! A [`Session`] owns the [`TermStore`], the source [`Program`], the
//! ground program and the engine state, and keeps the **well-founded
//! model continuously up to date** across updates:
//!
//! * **Transactional updates** — [`Session::assert_facts`],
//!   [`Session::retract_facts`] and [`Session::add_rules`] buffer into
//!   an open transaction ([`Session::begin`] / [`Session::commit`] /
//!   [`Session::rollback`]) or auto-commit when none is open. A commit
//!   routes fact deltas through the persistent grounder's
//!   [`gsls_ground::IncrementalGrounder::extend`] (re-joining only the
//!   plans whose predicates grew, via the relevance index) and
//!   maintains the model on two warm [`gsls_wfs::IncrementalLfp`] chains
//!   instead of re-solving from scratch. Retraction is a model-level
//!   clause switch: the ground program is append-only, a retracted
//!   fact's clause is disabled on the chains and re-enabled by a later
//!   re-assert. The model refresh costs the change, not the program:
//!   the alternating iteration restarts
//!   ([`gsls_wfs::well_founded_refresh`]) from the previous model's true
//!   atoms *outside the forward dependency cone* of the clauses the
//!   commit appended or switched ([`gsls_wfs::ChangeCone`]) — relevance,
//!   the property Ross's global tree makes literal (the tree for `← A`
//!   only visits atoms `A` depends on), keeps every verdict outside that
//!   cone fixed.
//! * **Prepared queries** — [`Session::prepare`] and
//!   [`Snapshot::prepare`] are one compile into one [`PreparedQuery`]:
//!   parse into scratch, resolve names by read-only lookup (a read
//!   interns nothing), re-probe the names the source lacked per run.
//!   [`PreparedQuery::execute`] runs it on the live session or a
//!   snapshot and streams bindings through the [`Answers`] iterator.
//! * **Snapshot reads** — [`Session::snapshot`] returns an immutable,
//!   [`Send`]`+`[`Sync`] [`Snapshot`] of the committed state: a frozen
//!   prefix that shares the term store, the atom table and the domain
//!   with the live session chunk by chunk and copies only the model's
//!   two bitsets, so taking one costs the same after every commit and
//!   nothing is cached. Queryable from any number of threads while the
//!   session keeps committing; a live read runs on the very same view.
//!
//! The session engine requires **function-free** programs (the class
//! for which the paper's memoized procedure is effective); programs
//! with function symbols keep working through
//! [`crate::Solver`]'s global-tree engine.
//!
//! ## Module map
//!
//! | module | owns | the one thing it decides |
//! |---|---|---|
//! | `mod` | [`Session`]: construction, durable open, checkpoint, accessors | what a session *is* |
//! | `errors` | [`CommitError`], [`CommitRejection`], [`SessionError`] | the error vocabulary |
//! | `engine` | `EngineState`, its single `build` and its `truncate_to` | how ground program, chains, model and retract set derive from source — and return to an earlier state of themselves |
//! | `commit` | [`UpdateBatch`], the update surface, `run_commit`, `unwind` | how a write becomes committed state — or provably doesn't |
//! | `query` | `QueryPlan`, [`Answers`], [`PreparedQuery`], [`QuerySource`] | how a goal compiles and streams, on either source |
//! | `snapshot` | [`Snapshot`] | what a frozen read view holds |
//!
//! ## The commit pipeline
//!
//! Auto-commit, [`Session::commit`], [`Session::commit_with`] and each
//! batch of [`Session::commit_group`] are one call of the same function
//! inside one group loop — a lone commit is a group of one — and WAL
//! replay ([`Session::open`]) enters it at `apply`. The entry points
//! differ only in the guard (none, or built from `CommitOpts`).
//! `journal` appends the record unsynced; once the group's batches have
//! applied, one covering fsync makes their records durable before any
//! of them returns (fsync before ack), and only then may the WAL rotate
//! into a checkpoint. `apply` is ground → index → refresh: delta-ground
//! the batch, finalize the CSR indexes, then
//! `EngineState::refresh_model` — the same function a from-source build
//! runs on unprimed chains — grows and switches the chains and restarts
//! the alternation below the change's cone, every loop of it polling
//! the commit's guard. `publish` bumps the epoch and flushes the
//! commit's counters (snapshots are captured on demand, so there is
//! nothing to invalidate). Seven phase histograms (`commit.validate`,
//! `.admission`, `.journal`, `.ground`, `.index`, `.refresh`,
//! `.publish`) add up to `commit.total`, which ends before the group's
//! covering fsync (counted by `wal.group_syncs`).
//!
//! ```text
//! validate ──▶ admit ──────▶ journal ─────▶ apply ──────────▶ publish ──▶ fsync (per group)
//! `Rejected`   `Interrupted  append fails:  fails or is interrupted:      fails: UNWIND a
//! (nothing     {Admission}`  frame cut      UNWIND — engine truncated to  lone commit at
//! journaled,   (over a       back off the   the rollback point, WAL cut   once; POISON a
//! nothing      `CommitOpts`  WAL            to its mark; panics: POISON   group until
//! mutated)     cap)                         — reads only, until           `recover()`
//!                                           `recover()` rebuilds
//! ```
//!
//! The unwind is the eighth phase, `commit.unwind`: what a failed commit
//! appended — atoms, clauses, fact rows, table entries, chain state — is
//! cut off by length (`EngineState::truncate_to`), the switches it
//! flipped flip back, and the model, which a commit writes last, was
//! never touched; the cost is the failed commit's own, counted by
//! `rollback.truncations` / `.dropped_atoms` / `.dropped_clauses` (and
//! `.reprimes` when the interrupt landed inside a fixpoint chain).
//! `EngineState::build` — re-ground and re-solve from source — is left
//! with what it is for: construction, reopening, and `recover()` after a
//! panic (`rollback.rebuilds`).
//!
//! ## Semantics of updates
//!
//! The committed model always equals `well_founded_model` of a
//! from-scratch grounding of the *merged* program (rules plus every
//! currently-asserted fact) — the workspace property tests pin this
//! across random update walks. Within one commit, updates apply in the
//! order: added rules, asserted facts, retracted facts. Only **source
//! facts** — ground facts of the initial program and facts issued
//! through [`Session::assert_facts`] — are retractable; ground facts
//! arriving in an [`Session::add_rules`] batch, like rule-derived
//! fact instances, are permanent program text, and retracting a source
//! fact never falsifies an atom such a permanent clause (or any rule)
//! still derives. Rules whose variables are not bound by a positive
//! body literal are enumerated over the **active domain** (every
//! constant ever seen); retracting a fact does not shrink that domain.

mod commit;
mod engine;
mod errors;
mod query;
mod snapshot;
#[cfg(test)]
mod tests;

pub use commit::{CommitStats, UpdateBatch};
pub use errors::{CommitError, CommitRejection, SessionError};
pub use query::{Answer, Answers, PreparedQuery, QuerySource};
pub(crate) use query::{ModelView, Names, QueryPlan};
pub use snapshot::Snapshot;

use crate::govern::{Guard, InterruptCause, InterruptHandle, InterruptPhase, TripInfo};
use commit::{Pending, RollbackPoint};
use engine::EngineState;
use gsls_analyze::{analyze_batch, analyze_with_ground, AnalyzerOpts, LintConfig, LintReport};
use gsls_durable::{
    decode_checkpoint, encode_checkpoint, CheckpointImage, DurableLog, DurableOpts, WalObs,
};
use gsls_ground::{GroundProgram, GroundStats, GrounderOpts};
use gsls_lang::{parse_program, Atom, CowTally, FxHashMap, Program, TermStore};
use gsls_obs::{Counter, Histogram, MetricsSnapshot, Obs, TraceEvent};
use gsls_wfs::{IncStats, Interp};
use query::QueryObs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Replaying at least this many WAL records on [`Session::open`]
/// triggers an immediate post-recovery checkpoint, so the tail is paid
/// for once instead of on every subsequent reopen.
const REPLAY_CHECKPOINT_THRESHOLD: usize = 8;

/// The incremental, snapshot-isolated entry point. See the module docs.
pub struct Session {
    store: TermStore,
    program: Program,
    engine: EngineState,
    /// Open transaction, if any ([`Session::begin`]).
    txn: Option<Pending>,
    /// Monotone commit counter; snapshots carry the epoch they saw.
    epoch: u64,
    /// Grounding options, kept for the engine rebuild `recover()` owes
    /// after a panic.
    opts: GrounderOpts,
    /// Per-lint levels for the static analysis gating every rule batch
    /// (and the seed program).
    lint_config: LintConfig,
    /// Warn-level findings of the most recent analyzer run (seed
    /// program or committed rule batch).
    last_report: LintReport,
    /// Write-ahead log + checkpoints, when opened durably.
    durable: Option<DurableLog>,
    /// An armed rollback point: the committed state an incomplete
    /// commit (or group) still has to be unwound to. `Some` **is** the
    /// poisoned state — set for the duration of every apply (so a panic
    /// escaping mid-apply leaves it behind), kept when an unwind fails
    /// or a group's covering fsync does, and consumed by
    /// [`Session::recover`]. `None` whenever the in-memory state and the
    /// WAL are known to agree.
    poisoned: Option<RollbackPoint>,
    /// Persistent cancellation flag shared with every
    /// [`Session::interrupt_handle`]; cleared at the start of each
    /// governed operation.
    cancel: Arc<AtomicBool>,
    /// Observability bundle: metrics registry + bounded trace ring.
    /// Cloned handles ([`Session::obs`]) share the same storage, so a
    /// monitoring thread can snapshot mid-commit.
    obs: Obs,
    /// Metric handles pre-resolved at construction so the commit and
    /// query hot paths never take the registry lock (or allocate).
    sobs: SessionObs,
    /// Per-commit delta baselines over the subsystems' lifetime stat
    /// counters (flushed into the registry at the end of each commit).
    base_gstats: GroundStats,
    base_t: IncStats,
    base_u: IncStats,
    base_cow: CowTally,
}

/// Metric handles pre-resolved against the session's registry at
/// construction — one lock acquisition per *name* per session lifetime,
/// zero on the commit path. Every handle is a clone of the registered
/// cell, so increments land in [`Session::metrics`] snapshots.
struct SessionObs {
    commits: Counter,
    rules_added: Counter,
    facts_asserted: Counter,
    facts_reenabled: Counter,
    facts_retracted: Counter,
    new_atoms: Counter,
    new_clauses: Counter,
    commit_total: Histogram,
    phase_validate: Histogram,
    phase_admission: Histogram,
    phase_journal: Histogram,
    phase_ground: Histogram,
    phase_refresh: Histogram,
    phase_index: Histogram,
    phase_publish: Histogram,
    /// `commit.unwind`: one observation per rollback, either arm.
    phase_unwind: Histogram,
    /// Rollbacks by truncation / by rebuild (after a panic), the chains
    /// a truncation had to re-solve, and what truncations dropped.
    rollback_truncations: Counter,
    rollback_rebuilds: Counter,
    rollback_reprimes: Counter,
    rollback_dropped_atoms: Counter,
    rollback_dropped_clauses: Counter,
    ground_rounds: Counter,
    ground_join_candidates: Counter,
    ground_index_probes: Counter,
    ground_dedup_hits: Counter,
    lfp_evaluations: Counter,
    lfp_clause_checks: Counter,
    lfp_enqueues: Counter,
    lfp_revives: Counter,
    /// Values are retraction-cone sizes in *atoms*, not nanoseconds.
    lfp_cone: Histogram,
    wal_recovered_records: Counter,
    wal_fallbacks: Counter,
    wal_torn_bytes: Counter,
    /// Bytes the writer copied because a live snapshot shared the chunk
    /// it wrote into, and the number of such chunks.
    cow_bytes: Counter,
    cow_chunks: Counter,
    /// Bytes of model bitsets copied into snapshots — the one
    /// board-proportional copy a capture makes.
    snapshot_model_bytes: Counter,
    query: QueryObs,
}

impl SessionObs {
    fn new(obs: &Obs) -> SessionObs {
        let reg = obs.registry();
        SessionObs {
            commits: reg.counter("commit.count"),
            rules_added: reg.counter("commit.rules_added"),
            facts_asserted: reg.counter("commit.facts_asserted"),
            facts_reenabled: reg.counter("commit.facts_reenabled"),
            facts_retracted: reg.counter("commit.facts_retracted"),
            new_atoms: reg.counter("commit.new_atoms"),
            new_clauses: reg.counter("commit.new_clauses"),
            commit_total: reg.histogram("commit.total"),
            phase_validate: reg.histogram("commit.validate"),
            phase_admission: reg.histogram("commit.admission"),
            phase_journal: reg.histogram("commit.journal"),
            phase_ground: reg.histogram("commit.ground"),
            phase_refresh: reg.histogram("commit.refresh"),
            phase_index: reg.histogram("commit.index"),
            phase_publish: reg.histogram("commit.publish"),
            phase_unwind: reg.histogram("commit.unwind"),
            rollback_truncations: reg.counter("rollback.truncations"),
            rollback_rebuilds: reg.counter("rollback.rebuilds"),
            rollback_reprimes: reg.counter("rollback.reprimes"),
            rollback_dropped_atoms: reg.counter("rollback.dropped_atoms"),
            rollback_dropped_clauses: reg.counter("rollback.dropped_clauses"),
            ground_rounds: reg.counter("ground.rounds"),
            ground_join_candidates: reg.counter("ground.join_candidates"),
            ground_index_probes: reg.counter("ground.index_probes"),
            ground_dedup_hits: reg.counter("ground.dedup_hits"),
            lfp_evaluations: reg.counter("lfp.evaluations"),
            lfp_clause_checks: reg.counter("lfp.clause_checks"),
            lfp_enqueues: reg.counter("lfp.enqueues"),
            lfp_revives: reg.counter("lfp.revives"),
            lfp_cone: reg.histogram("lfp.retraction_cone"),
            wal_recovered_records: reg.counter("wal.recovered_records"),
            wal_fallbacks: reg.counter("wal.fallbacks"),
            wal_torn_bytes: reg.counter("wal.torn_bytes"),
            cow_bytes: reg.counter("snapshot.cow_bytes"),
            cow_chunks: reg.counter("snapshot.chunks_shared"),
            snapshot_model_bytes: reg.counter("snapshot.model_bytes"),
            query: QueryObs::new(obs),
        }
    }

    /// Counts one applied commit.
    fn record_commit(&self, stats: &CommitStats) {
        self.commits.add(1);
        self.rules_added.add(stats.rules_added as u64);
        self.facts_asserted.add(stats.facts_asserted as u64);
        self.facts_reenabled.add(stats.facts_reenabled as u64);
        self.facts_retracted.add(stats.facts_retracted as u64);
        self.new_atoms.add(stats.new_atoms as u64);
        self.new_clauses.add(stats.new_clauses as u64);
    }
}

/// Records a guard trip: bumps the dynamic `guard.trips.<phase>.<cause>`
/// counter and pushes a `guard.trip` ring event carrying the resource
/// readings. Cold path by construction (a trip aborts the operation),
/// so the registry lock and the `format!`s are fine here.
fn record_trip(obs: &Obs, phase: InterruptPhase, cause: InterruptCause, trip: &TripInfo) {
    if !obs.is_enabled() {
        return;
    }
    let phase_slug = match phase {
        InterruptPhase::Admission => "admission",
        InterruptPhase::Grounding => "grounding",
        InterruptPhase::ModelRefresh => "model_refresh",
        InterruptPhase::Query => "query",
    };
    let cause_slug = match cause {
        InterruptCause::Cancelled => "cancelled",
        InterruptCause::DeadlineExceeded => "deadline_exceeded",
        InterruptCause::MemoryBudget => "memory_budget",
    };
    let name = format!("guard.trips.{phase_slug}.{cause_slug}");
    obs.registry().counter(&name).add(1);
    let mut detail = format!("phase={phase} cause={cause}");
    let readings = trip.render();
    if !readings.is_empty() {
        detail.push(' ');
        detail.push_str(&readings);
    }
    obs.tracer().event("guard.trip", Some(detail));
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// An empty session: no rules, no facts. Grow it with
    /// [`Session::add_rules`] and [`Session::assert_facts`].
    pub fn new() -> Session {
        Session::from_parts(TermStore::new(), Program::new())
            .expect("the empty program grounds trivially")
    }

    /// Parses `src` as the initial program.
    pub fn from_source(src: &str) -> Result<Session, SessionError> {
        let mut store = TermStore::new();
        let program = parse_program(&mut store, src)?;
        Session::from_parts(store, program)
    }

    /// Builds a session over an already-parsed program and its store.
    pub fn from_parts(store: TermStore, program: Program) -> Result<Session, SessionError> {
        Session::with_opts(store, program, GrounderOpts::default())
    }

    /// [`Session::from_parts`] with explicit grounding options. Only
    /// `max_clauses` applies to a session: it always grounds on the
    /// planned relevant path over its active domain (the program's
    /// constants), so `mode`, `strategy` and `universe` are ignored.
    ///
    /// The seed program is gated by the static analyzer under the
    /// default [`LintConfig`] — see [`Session::with_opts_lints`] to
    /// open deliberately non-allowed programs (active-domain
    /// enumeration, floundering demos) under a permissive one.
    pub fn with_opts(
        store: TermStore,
        program: Program,
        opts: GrounderOpts,
    ) -> Result<Session, SessionError> {
        Session::with_opts_lints(store, program, opts, LintConfig::default())
    }

    /// [`Session::with_opts`] with an explicit lint configuration: the
    /// seed program (and every later rule batch) is analyzed under it,
    /// deny-level findings rejecting construction with
    /// [`SessionError::Rejected`] before any state exists.
    pub fn with_opts_lints(
        store: TermStore,
        program: Program,
        opts: GrounderOpts,
        lints: LintConfig,
    ) -> Result<Session, SessionError> {
        if !program.is_function_free(&store) {
            return Err(SessionError::NotFunctionFree);
        }
        let report = analyze_batch(
            &store,
            &program,
            0,
            &AnalyzerOpts::with_config(lints.clone()),
        );
        let errors: Vec<CommitError> = report
            .errors()
            .map(|d| CommitError::Unsafe(d.clone()))
            .collect();
        if !errors.is_empty() {
            return Err(SessionError::Rejected(CommitRejection { errors }));
        }
        let mut s = Session::assemble(store, program, opts, Vec::new(), 0)?;
        s.lint_config = lints;
        s.last_report = report;
        Ok(s)
    }

    /// Assembles a session at `epoch` around a freshly built engine,
    /// bypassing the analyzer: the lint-validated path above, and
    /// checkpoint restore (that program was gated when it was
    /// committed).
    fn assemble(
        mut store: TermStore,
        program: Program,
        opts: GrounderOpts,
        retracted: Vec<Atom>,
        epoch: u64,
    ) -> Result<Session, SessionError> {
        let engine = EngineState::build(&mut store, &program, opts, retracted)?;
        let obs = Obs::new();
        let sobs = SessionObs::new(&obs);
        // Baselines are taken *after* seed grounding/refresh, so the
        // registry counts per-commit work only (the seed cost is
        // construction, not a commit).
        let base_gstats = engine.grounder.stats();
        let base_t = engine.t_chain.stats();
        let base_u = engine.u_chain.stats();
        let base_cow = store.cow_tally() + engine.cow_tally();
        Ok(Session {
            store,
            program,
            engine,
            txn: None,
            epoch,
            opts,
            lint_config: LintConfig::default(),
            last_report: LintReport::default(),
            durable: None,
            poisoned: None,
            cancel: Arc::new(AtomicBool::new(false)),
            obs,
            sobs,
            base_gstats,
            base_t,
            base_u,
            base_cow,
        })
    }

    /// Replaces the engine with one rebuilt from the source program
    /// and the given retracted-fact set — the in-memory half of an
    /// unwind after a **panic**, when the live engine can no longer be
    /// trusted enough to truncate. The committed *state* is preserved
    /// exactly; internal clause/atom numbering may change.
    fn install_engine(
        &mut self,
        retracted: impl IntoIterator<Item = Atom>,
    ) -> Result<(), SessionError> {
        self.engine = EngineState::build(&mut self.store, &self.program, self.opts, retracted)?;
        self.rebase_subsystem_stats();
        Ok(())
    }

    /// Re-anchors the per-commit delta baselines at the subsystems'
    /// current lifetime stats, so a rollback's own work — the failed
    /// commit's and the unwind's, or a rebuilt engine's counters
    /// restarting at zero — is never flushed to the registry as a
    /// commit's.
    fn rebase_subsystem_stats(&mut self) {
        self.base_gstats = self.engine.grounder.stats();
        self.base_t = self.engine.t_chain.stats();
        self.base_u = self.engine.u_chain.stats();
        self.base_cow = self.cow_tally();
    }

    // ---- durable sessions --------------------------------------------

    /// Opens (creating if needed) a **durable** session rooted at
    /// `dir`: loads the newest valid checkpoint, replays the
    /// write-ahead log tail through the normal commit path, and keeps
    /// journaling every commit from here on. See the crate-level
    /// "Durability & recovery" docs.
    pub fn open(dir: impl AsRef<Path>) -> Result<Session, SessionError> {
        Session::open_with(dir, GrounderOpts::default(), DurableOpts::default())
    }

    /// [`Session::open`] with explicit grounding and durability options.
    pub fn open_with(
        dir: impl AsRef<Path>,
        opts: GrounderOpts,
        dopts: DurableOpts,
    ) -> Result<Session, SessionError> {
        Session::open_with_parts(dir, TermStore::new(), Program::new(), opts, dopts)
    }

    /// [`Session::open_with`] seeded with an initial program. The
    /// initial parts are used **only when the directory is fresh** (no
    /// checkpoint, no WAL records) — they become the epoch-0 state and
    /// are immediately checkpointed so they are durable. When the
    /// directory already holds state, that state wins and the parts
    /// are ignored.
    pub fn open_with_parts(
        dir: impl AsRef<Path>,
        store: TermStore,
        program: Program,
        opts: GrounderOpts,
        dopts: DurableOpts,
    ) -> Result<Session, SessionError> {
        let (mut log, recovered) = DurableLog::open(dir.as_ref(), dopts)?;
        let fresh = recovered.checkpoint.is_none() && recovered.records.is_empty();
        let mut session = match recovered.checkpoint {
            Some(payload) => {
                let mut store = TermStore::new();
                let image = decode_checkpoint(&mut store, &payload)?;
                let program = Program::from_clauses(image.clauses);
                // Restored state was gated when it was committed; the
                // analyzer must not be able to veto recovery.
                Session::assemble(store, program, opts, image.retracted, image.epoch)?
            }
            None if fresh => Session::with_opts(store, program, opts)?,
            None => Session::with_opts(TermStore::new(), Program::new(), opts)?,
        };
        let replayed = session.replay(&recovered.records)?;
        // From here on the log reports its I/O into this session's
        // registry; what recovery itself found is recorded once.
        log.set_obs(WalObs::register(session.obs.registry()));
        session
            .sobs
            .wal_recovered_records
            .add(recovered.records.len() as u64);
        if recovered.fell_back {
            session.sobs.wal_fallbacks.add(1);
        }
        session.sobs.wal_torn_bytes.add(recovered.torn_bytes);
        if recovered.fell_back || recovered.torn_bytes > 0 {
            session.obs.tracer().event(
                "wal.recovery",
                Some(format!(
                    "records={} fell_back={} torn_bytes={}",
                    recovered.records.len(),
                    recovered.fell_back,
                    recovered.torn_bytes
                )),
            );
        }
        session.durable = Some(log);
        if fresh {
            // Make the seed program durable before the first commit.
            session.checkpoint()?;
        } else if replayed >= REPLAY_CHECKPOINT_THRESHOLD {
            // A long WAL tail was just replayed through the full
            // commit pipeline. Fold it into a fresh checkpoint now so
            // the *next* reopen decodes one image instead of
            // re-grounding the tail again — otherwise every reopen
            // pays the same replay the last one did. Failure is
            // swallowed exactly like an auto-checkpoint: the state is
            // already durable (checkpoint + WAL), only the next
            // reopen's speed is at stake.
            let _ = session.checkpoint();
        }
        Ok(session)
    }

    /// Takes an explicit checkpoint: atomically writes a snapshot of
    /// the committed state as the next checkpoint generation and
    /// rotates the write-ahead log. Errors for non-durable sessions.
    /// (Checkpoints are also taken automatically once the active WAL
    /// passes the thresholds in [`DurableOpts`]; those failures are
    /// swallowed — the log has already rotated onto a fresh WAL, so the
    /// next attempt comes once that WAL passes the thresholds — and
    /// this explicit call is the one that reports them.)
    pub fn checkpoint(&mut self) -> Result<(), SessionError> {
        if self.is_poisoned() {
            return Err(SessionError::Poisoned);
        }
        let Some(log) = self.durable.as_mut() else {
            return Err(SessionError::Durable(
                "session has no durable directory (use Session::open)".into(),
            ));
        };
        let mut retracted: Vec<(&u32, &Atom)> = self.engine.disabled.iter().collect();
        retracted.sort_by_key(|(ci, _)| **ci);
        let image = CheckpointImage {
            epoch: self.epoch,
            clauses: self.program.clauses().to_vec(),
            retracted: retracted.into_iter().map(|(_, a)| a.clone()).collect(),
        };
        log.install_checkpoint(&encode_checkpoint(&self.store, &image))?;
        Ok(())
    }

    // ---- static analysis ---------------------------------------------

    /// Replaces the lint configuration gating every subsequent rule
    /// batch (builder form; see [`Session::set_lint_config`]).
    pub fn with_lint_config(mut self, lints: LintConfig) -> Self {
        self.lint_config = lints;
        self
    }

    /// Replaces the lint configuration gating every subsequent rule
    /// batch. Already-committed state is unaffected.
    pub fn set_lint_config(&mut self, lints: LintConfig) {
        self.lint_config = lints;
    }

    /// The active lint configuration.
    pub fn lint_config(&self) -> &LintConfig {
        &self.lint_config
    }

    /// The report of the most recent analyzer run — the warn-level
    /// findings of the last committed rule batch (or of the seed
    /// program, before any commit). Deny-level findings never land
    /// here: they reject the batch as [`SessionError::Rejected`].
    pub fn last_lint_report(&self) -> &LintReport {
        &self.last_report
    }

    /// Analyzes the full committed program — all passes, including the
    /// stratification and reachability diagnostics that single-batch
    /// commit validation skips — under the session's [`LintConfig`],
    /// feeding the grounder's fact cardinalities and active domain
    /// into the cost lints.
    pub fn analyze(&self) -> LintReport {
        let aopts = AnalyzerOpts {
            known_arities: FxHashMap::default(),
            ..self.engine.analyzer_opts(self.lint_config.clone())
        };
        analyze_with_ground(
            &self.store,
            &self.program,
            Some(self.ground_program()),
            &aopts,
        )
    }

    // ---- accessors ---------------------------------------------------

    /// The term store (parsing interns into it through the session's
    /// `&mut self` methods).
    pub fn store(&self) -> &TermStore {
        &self.store
    }

    /// Mutable access to the term store, for callers that intern terms
    /// out-of-band — e.g. a server decoding wire-format update batches
    /// directly into the session's arena before [`Session::commit_group`].
    /// The arena is append-only and hash-consed, so interning extra
    /// terms can never invalidate existing ids or session state.
    pub fn store_mut(&mut self) -> &mut TermStore {
        &mut self.store
    }

    /// The source program: initial clauses, added rules, and every
    /// asserted fact (retracted facts stay listed; retraction is a
    /// model-level switch).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The (finalized) ground program.
    pub fn ground_program(&self) -> &GroundProgram {
        self.engine.grounder.ground_program()
    }

    /// The committed well-founded model.
    pub fn model(&self) -> &Interp {
        &self.engine.model
    }

    /// Number of commits applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Whether the session is poisoned: a failed commit could not be
    /// fully unwound (its WAL cut failed), a group's covering fsync
    /// failed, or a panic escaped mid-commit. Reads keep
    /// serving; writes are refused until [`Session::recover`] completes
    /// the unwind.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// A `Send + Sync` handle that cancels the session's *currently
    /// running* governed operation ([`Session::commit_with`],
    /// [`Session::query_governed`], a run under a
    /// [`Session::query_guard`], …) from another thread. Each governed
    /// operation clears the flag on entry, so a cancellation
    /// is consumed by the operation it lands on (or by the next one to
    /// start) and never lingers.
    pub fn interrupt_handle(&self) -> InterruptHandle {
        InterruptHandle::from_flag(self.cancel.clone())
    }

    /// The guard for one governed operation — commit or query — over
    /// the session's persistent cancel flag, which is cleared here: a
    /// cancel only ever lands on the operation in flight.
    fn governed_guard(
        &self,
        deadline: Option<Instant>,
        max_memory_bytes: Option<usize>,
        fuel: Option<u64>,
        panic_on_fuel: bool,
    ) -> Guard {
        self.cancel.store(false, Ordering::SeqCst);
        let mut b = Guard::builder().cancel_flag(self.cancel.clone());
        if let Some(d) = deadline {
            b = b.deadline(d);
        }
        if let Some(m) = max_memory_bytes {
            b = b.memory_budget(m);
        }
        if let Some(f) = fuel {
            b = b.fuel(f);
        }
        if panic_on_fuel {
            b = b.panic_on_trip();
        }
        b.build()
    }

    // ---- observability -----------------------------------------------

    /// A consistent snapshot of every engine metric this session has
    /// recorded: commit counters, per-phase commit latency histograms
    /// (`commit.validate` … `commit.publish`, plus `commit.total`),
    /// grounder/fixpoint work counters, WAL I/O, query counters,
    /// `snapshot.cow_bytes` / `snapshot.chunks_shared` (what commits
    /// copied because a live snapshot shared the chunk they wrote) and
    /// `snapshot.model_bytes` (what captures copied), and
    /// `guard.trips.<phase>.<cause>`. Cheap enough to call per request.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Drains the bounded trace-event ring: the most recent spans
    /// (commit phases), guard trips, and recovery events, in order.
    /// The ring holds [`gsls_obs::DEFAULT_RING_CAPACITY`] events;
    /// older ones are evicted, so a slow commit is reconstructable
    /// after the fact without unbounded memory.
    pub fn recent_events(&self) -> Vec<TraceEvent> {
        self.obs.tracer().drain()
    }

    /// A clone of the session's observability bundle. Clones share
    /// storage with the session, so another thread can poll
    /// [`Obs::snapshot`] mid-commit, or [`Obs::set_enabled`] can turn
    /// all recording off (every probe degrades to one relaxed atomic
    /// load and a branch).
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// Copy-on-write work done so far by everything snapshots share:
    /// the term store, the atom side and the domain.
    fn cow_tally(&self) -> CowTally {
        self.store.cow_tally() + self.engine.cow_tally()
    }

    /// Flushes this commit's deltas of the subsystems' lifetime stat
    /// counters (grounder, fixpoint chains, scheduler) into the
    /// registry, and advances the baselines.
    fn flush_subsystem_stats(&mut self) {
        let g = self.engine.grounder.stats();
        let dg = g.delta_since(&self.base_gstats);
        self.base_gstats = g;
        self.sobs.ground_rounds.add(u64::from(dg.rounds));
        self.sobs.ground_join_candidates.add(dg.join_candidates);
        self.sobs.ground_index_probes.add(dg.index_probes);
        self.sobs.ground_dedup_hits.add(dg.dedup_hits);

        let t = self.engine.t_chain.stats();
        let u = self.engine.u_chain.stats();
        let dt = t.delta_since(&self.base_t);
        let du = u.delta_since(&self.base_u);
        self.base_t = t;
        self.base_u = u;
        self.sobs
            .lfp_evaluations
            .add(dt.evaluations + du.evaluations);
        self.sobs
            .lfp_clause_checks
            .add(dt.clause_checks + du.clause_checks);
        self.sobs.lfp_enqueues.add(dt.enqueues + du.enqueues);
        self.sobs.lfp_revives.add(dt.revives + du.revives);
        let cone = dt.retraction_cone + du.retraction_cone;
        if cone > 0 {
            self.sobs.lfp_cone.record(cone);
        }

        // What sharing chunks with live snapshots cost this commit.
        let cow = self.cow_tally();
        let dcow = cow.delta_since(&self.base_cow);
        self.base_cow = cow;
        self.sobs.cow_bytes.add(dcow.bytes);
        self.sobs.cow_chunks.add(dcow.chunks);
    }
}
