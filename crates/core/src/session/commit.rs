//! The write path: the buffered update surface and the **one** commit
//! pipeline every write goes through — `run_group`, one covering fsync
//! over `run_commit` per batch: validate → admit → journal → apply →
//! publish, with WAL replay entering at the apply stage and `unwind` (or
//! poison) behind every failure. The stages, their failure modes and the
//! diagram are in the [module docs](super).

use super::engine::EngineMark;
use super::{record_trip, CommitError, CommitRejection, Session, SessionError};
use crate::govern::{CommitOpts, Guard, InterruptCause, InterruptPhase, TripInfo};
use gsls_analyze::{analyze_batch, estimate_batch_instances, Lint, LintLevel, LintReport};
use gsls_durable::{decode_batch, encode_batch, DurableLog};
use gsls_ground::GroundingError;
use gsls_lang::{parse_program, Atom, Clause, FxHashMap, Program, Span, Symbol, TermStore};
use std::time::Instant;

/// What one [`Session::commit`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Rules (and rule-batch facts) appended to the program.
    pub rules_added: usize,
    /// Genuinely new facts grounded in.
    pub facts_asserted: usize,
    /// Previously-retracted facts switched back on.
    pub facts_reenabled: usize,
    /// Fact clauses switched off.
    pub facts_retracted: usize,
    /// Ground atoms added by this commit.
    pub new_atoms: usize,
    /// Ground clauses added by this commit.
    pub new_clauses: usize,
}

/// One already-parsed update batch — the unit the commit pipeline
/// works on, and the public input of [`Session::commit_group`]. Built
/// by a network front end (or any batching caller) from decoded clauses
/// and atoms; within the batch, rules apply before asserts, asserts
/// before retracts — exactly the [`Session::commit`] ordering.
#[derive(Debug, Default, Clone)]
pub struct UpdateBatch {
    /// Rule clauses (including facts committed as permanent rules).
    pub rules: Vec<Clause>,
    /// Ground facts to assert.
    pub asserts: Vec<Atom>,
    /// Ground facts to retract.
    pub retracts: Vec<Atom>,
}

impl UpdateBatch {
    /// Whether the batch would commit nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.asserts.is_empty() && self.retracts.is_empty()
    }

    /// The shape every batch must have before the engine sees it: rules
    /// function-free, facts ground and function-free. Checked against
    /// whichever `store` the batch's terms live in, so a front end can
    /// bounce a mis-shaped batch off its decode scratch store before
    /// anything is interned into a session. Collects every violation.
    pub fn check_shape(&self, store: &TermStore) -> Result<(), CommitRejection> {
        let mut errors = Vec::new();
        for c in &self.rules {
            if !c.is_function_free(store) {
                errors.push(CommitError::FunctionSymbol(c.display(store)));
            }
        }
        for atom in self.asserts.iter().chain(&self.retracts) {
            errors.extend(check_fact(store, atom).err());
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(CommitRejection { errors })
        }
    }
}

/// The ground-function-free fact check.
fn check_fact(store: &TermStore, atom: &Atom) -> Result<(), CommitError> {
    if !atom.is_ground(store) {
        return Err(CommitError::NotGround(atom.display(store)));
    }
    if !atom.args_function_free(store) {
        return Err(CommitError::FunctionSymbol(atom.display(store)));
    }
    Ok(())
}

/// A batch on its way into the pipeline: the [`UpdateBatch`] plus what
/// only parsed text can supply.
#[derive(Debug, Default)]
pub(super) struct Pending {
    batch: UpdateBatch,
    /// Source positions of `batch.rules`, aligned by index (parsed
    /// batches carry them; programmatic clauses don't). Feeds analyzer
    /// diagnostics only — never journaled.
    rule_spans: Vec<Option<Span>>,
}

impl Pending {
    /// The rule batch as a standalone program, for the analyzer.
    fn rules_program(&self) -> Program {
        let mut rules = Program::new();
        for (i, c) in self.batch.rules.iter().enumerate() {
            rules.push_spanned(c.clone(), self.rule_spans.get(i).copied().flatten());
        }
        rules
    }
}

impl From<UpdateBatch> for Pending {
    fn from(batch: UpdateBatch) -> Pending {
        Pending {
            batch,
            rule_spans: Vec::new(),
        }
    }
}

/// The committed state to return to when a commit (or a whole group)
/// cannot complete: lengths only, read in O(1) when the point is armed —
/// the forward commit journals nothing and clones nothing for it. While
/// one is armed in `Session::poisoned` the session is poisoned;
/// [`Session::unwind`] consumes it.
#[derive(Debug, Clone, Copy)]
pub(super) struct RollbackPoint {
    program_len: usize,
    epoch: u64,
    /// The engine's append-only lengths, retract-set undo log included.
    engine: EngineMark,
    /// WAL length before the first record to cut, when one was written.
    wal_mark: Option<u64>,
    /// Set while an apply or an unwind is in flight over this point, so
    /// it is what a panic escaping either leaves armed: no invariant of
    /// the engine can be assumed then, and the unwind rebuilds from
    /// source instead of truncating.
    torn: bool,
}

impl RollbackPoint {
    /// The same point, as armed while an apply or unwind runs over it.
    fn torn(self) -> RollbackPoint {
        RollbackPoint { torn: true, ..self }
    }
}

impl Session {
    // ---- transactional updates -------------------------------------

    /// Opens a transaction: subsequent updates buffer until
    /// [`Session::commit`] (or vanish on [`Session::rollback`]).
    pub fn begin(&mut self) -> Result<(), SessionError> {
        self.check_writable()?;
        if self.txn.is_some() {
            return Err(SessionError::NestedTransaction);
        }
        self.txn = Some(Pending::default());
        Ok(())
    }

    /// Discards the open transaction (no-op when none is open). Terms
    /// parsed for the discarded batch stay interned; nothing else
    /// changes. If a previous commit left the session poisoned, this
    /// also attempts the unwind that restores the last committed
    /// state, so a rollback leaves the session writable whenever the
    /// state is recoverable (use [`Session::recover`] to observe an
    /// unwind failure).
    pub fn rollback(&mut self) {
        let _ = self.recover();
    }

    /// Asserts ground facts, parsed from `src` (e.g. `"e(a, b). e(b,
    /// c)."`). Returns how many were queued. Auto-commits unless a
    /// transaction is open.
    pub fn assert_facts(&mut self, src: &str) -> Result<usize, SessionError> {
        let atoms = self.parse_facts(src)?;
        self.assert_fact_atoms(atoms)
    }

    /// Asserts already-built ground fact atoms.
    pub fn assert_fact_atoms(&mut self, atoms: Vec<Atom>) -> Result<usize, SessionError> {
        self.buffer_facts(atoms, |batch| &mut batch.asserts)
    }

    /// Retracts ground facts, parsed from `src`. Facts never asserted
    /// (or already retracted) are silently skipped at commit. Returns
    /// how many were queued.
    pub fn retract_facts(&mut self, src: &str) -> Result<usize, SessionError> {
        let atoms = self.parse_facts(src)?;
        self.retract_fact_atoms(atoms)
    }

    /// Retracts already-built ground fact atoms.
    pub fn retract_fact_atoms(&mut self, atoms: Vec<Atom>) -> Result<usize, SessionError> {
        self.buffer_facts(atoms, |batch| &mut batch.retracts)
    }

    fn buffer_facts(
        &mut self,
        atoms: Vec<Atom>,
        side: impl FnOnce(&mut UpdateBatch) -> &mut Vec<Atom>,
    ) -> Result<usize, SessionError> {
        self.check_writable()?;
        for atom in &atoms {
            // The buffered surface reports a mis-shaped fact eagerly, in
            // its own (pre-pipeline) vocabulary.
            check_fact(&self.store, atom).map_err(|e| match e {
                CommitError::NotGround(a) => SessionError::NotAFact(a),
                _ => SessionError::NotFunctionFree,
            })?;
        }
        let n = atoms.len();
        self.buffer(|p| side(&mut p.batch).extend(atoms))?;
        Ok(n)
    }

    /// Adds rules (any clauses, including facts), parsed from `src`.
    /// Returns how many were queued. Auto-commits unless a transaction
    /// is open.
    pub fn add_rules(&mut self, src: &str) -> Result<usize, SessionError> {
        self.check_writable()?;
        let batch = parse_program(&mut self.store, src)?;
        if !batch
            .clauses()
            .iter()
            .all(|c| c.is_function_free(&self.store))
        {
            return Err(SessionError::NotFunctionFree);
        }
        let n = batch.clauses().len();
        self.buffer(|p| {
            p.batch.rules.extend_from_slice(batch.clauses());
            p.rule_spans.extend_from_slice(batch.spans());
        })?;
        Ok(n)
    }

    /// Applies the open transaction: delta-grounds the update through
    /// the persistent grounder and refreshes the model on the warm
    /// chains. Within the batch, rules apply before asserts, asserts
    /// before retracts. Without an open transaction this is a no-op
    /// (single updates auto-commit as they are issued).
    pub fn commit(&mut self) -> Result<CommitStats, SessionError> {
        self.commit_txn(None)
    }

    /// [`Session::commit`] under resource governance: the commit is
    /// admission-checked against `opts` *before* the WAL sees a
    /// record, and the grounding and model-refresh loops check the
    /// deadline, the cancel flag and the memory budget every
    /// [`crate::govern::TICK_INTERVAL`] work units. An interrupted
    /// commit returns [`SessionError::Interrupted`] after unwinding
    /// completely — WAL record truncated, engine truncated back to the
    /// previous epoch (what the commit appended is cut off, at the
    /// commit's cost, not the program's) — so a timeout behaves exactly
    /// like a rolled-back transaction. The session's cancel flag is cleared
    /// when the commit starts; a [`Session::interrupt_handle`]
    /// cancellation therefore targets the *running* operation, and a
    /// subsequent commit starts fresh.
    ///
    /// The commit is a group of one ([`Session::commit_group`]): its
    /// record is fsynced after the apply and before this returns. Should
    /// that fsync fail, the commit is unwound at once and the `Err`
    /// reports a rolled-back transaction; only if the WAL cut fails too
    /// does the session stay poisoned until [`Session::recover`].
    pub fn commit_with(&mut self, opts: &CommitOpts) -> Result<CommitStats, SessionError> {
        self.commit_txn(Some(*opts))
    }

    fn commit_txn(&mut self, opts: Option<CommitOpts>) -> Result<CommitStats, SessionError> {
        self.check_writable()?;
        let Some(pending) = self.txn.take() else {
            return Ok(CommitStats::default());
        };
        match self.run_group(vec![(pending, opts)]) {
            Ok(mut results) => results.pop().expect("one result per batch"),
            Err(e) => {
                // The covering fsync failed: undo the lone commit now.
                let _ = self.recover();
                Err(e)
            }
        }
    }

    /// Commits a run of queued batches as one **group**: every batch is
    /// journaled to the WAL *without* an fsync, applied in memory, and
    /// the whole run is made durable by a single covering fsync at the
    /// end — the group-commit write path a serving front end drains its
    /// commit queue through, and the one every commit takes
    /// ([`Session::commit`] is a group of one). Returns one result per
    /// batch, in order.
    ///
    /// Semantics per batch are identical to [`Session::commit_with`]:
    /// each batch is validated, admission-checked and governed by its
    /// own [`CommitOpts`] (so one slow batch times out as a rolled-back
    /// transaction — its WAL record and whatever it appended in memory
    /// are truncated off the tail, at a cost proportional to that, not
    /// to the program — while the rest of the group commits), and each
    /// successful batch bumps the epoch. The durability contract is
    /// **fsync before ack**: callers must not acknowledge any batch
    /// until this method returns `Ok`, because a crash before the
    /// covering fsync tears unsynced records off the recovered WAL. An `Err`
    /// from the covering fsync therefore invalidates every `Ok` entry
    /// in the (discarded) result vector — and, because the batches are
    /// already applied in memory while their durability is unknown, it
    /// **poisons the session**: further writes are refused until
    /// [`Session::recover`] has unwound the whole group — engine
    /// truncated back to the state before the group (snapshots taken
    /// in between keep answering as their epoch did), its records cut
    /// off the WAL.
    ///
    /// Fails fast — before touching anything — if the session is
    /// poisoned or a buffered transaction is open.
    pub fn commit_group(
        &mut self,
        batches: Vec<(UpdateBatch, CommitOpts)>,
    ) -> Result<Vec<Result<CommitStats, SessionError>>, SessionError> {
        self.check_writable()?;
        if self.txn.is_some() {
            return Err(SessionError::NestedTransaction);
        }
        let batches = batches.into_iter().map(|(b, o)| (b.into(), Some(o)));
        self.run_group(batches.collect())
    }

    /// The group loop behind every commit: [`Session::run_commit`] per
    /// batch, then one covering fsync, then the checkpoint and the undo
    /// log's release — each only here. A failed fsync leaves the session
    /// poisoned at the point before the group.
    fn run_group(
        &mut self,
        batches: Vec<(Pending, Option<CommitOpts>)>,
    ) -> Result<Vec<Result<CommitStats, SessionError>>, SessionError> {
        let group_start = self.rollback_point(self.durable.as_ref().map(DurableLog::wal_len));
        let mut results = Vec::with_capacity(batches.len());
        let mut journaled = 0u64;
        for (pending, opts) in batches {
            if self.is_poisoned() {
                // An earlier batch failed *and* its unwind failed;
                // nothing further can apply.
                results.push(Err(SessionError::Poisoned));
                continue;
            }
            let journals = !pending.batch.is_empty() && self.durable.is_some();
            let r = self.run_commit(pending, opts.as_ref());
            if r.is_ok() && journals {
                journaled += 1;
            }
            results.push(r);
        }
        if journaled > 0 {
            if let Some(log) = &mut self.durable {
                if let Err(e) = log.sync_group(journaled) {
                    // The group is applied in memory but not known
                    // durable: acks must not go out, and the session's
                    // state no longer matches its WAL. Session-fatal.
                    self.poisoned = Some(group_start);
                    return Err(e.into());
                }
            }
            // Only after the covering fsync may the WAL rotate.
            self.maybe_checkpoint();
        }
        // The group stands: nothing older than now can be rolled back to.
        self.engine.forget_undo();
        Ok(results)
    }

    /// Restores a poisoned session to its last committed state:
    /// completes the unwind a failed commit, a failed group fsync or a
    /// panic mid-apply left armed (and discards any open transaction).
    /// A no-op on healthy sessions. After a successful recover the
    /// session is writable again; on `Err` it stays poisoned.
    pub fn recover(&mut self) -> Result<(), SessionError> {
        self.txn = None;
        match self.poisoned.take() {
            Some(point) => self.unwind(point),
            None => Ok(()),
        }
    }

    fn check_writable(&self) -> Result<(), SessionError> {
        if self.is_poisoned() {
            return Err(SessionError::Poisoned);
        }
        Ok(())
    }

    /// Buffers an update into the open transaction, or applies it
    /// immediately (auto-commit) when none is open.
    fn buffer(&mut self, add: impl FnOnce(&mut Pending)) -> Result<(), SessionError> {
        let auto = self.txn.is_none();
        add(self.txn.get_or_insert_with(Pending::default));
        if auto {
            self.commit_txn(None)?;
        }
        Ok(())
    }

    fn parse_facts(&mut self, src: &str) -> Result<Vec<Atom>, SessionError> {
        self.check_writable()?;
        let batch = parse_program(&mut self.store, src)?;
        let mut atoms = Vec::with_capacity(batch.len());
        for c in batch.clauses() {
            if !c.is_fact() {
                return Err(SessionError::NotAFact(c.display(&self.store)));
            }
            atoms.push(c.head.clone());
        }
        Ok(atoms)
    }

    // ---- the commit pipeline ---------------------------------------

    /// The pipeline (module docs): **validate → admit → journal →
    /// apply → publish**. `opts: None` is the ungoverned commit —
    /// [`Guard::none`], no admission control.
    fn run_commit(
        &mut self,
        pending: Pending,
        opts: Option<&CommitOpts>,
    ) -> Result<CommitStats, SessionError> {
        let guard = match opts {
            Some(o) => self.governed_guard(o.deadline, o.max_memory_bytes, o.fuel, o.panic_on_fuel),
            None => Guard::none(),
        };
        if pending.batch.is_empty() {
            return Ok(CommitStats::default());
        }
        let t_total = Instant::now();
        // Validation (including static analysis of the rule batch) and
        // admission control run BEFORE anything touches the WAL: a
        // rejected batch leaves no record that could ever replay.
        self.last_report = {
            let _s = self
                .obs
                .span("commit.validate", Some(&self.sobs.phase_validate));
            self.validate(&pending)?
        };
        if let Some(opts) = opts {
            let _s = self
                .obs
                .span("commit.admission", Some(&self.sobs.phase_admission));
            self.admit(&pending, opts, &guard)?;
        }
        let wal_mark = self.journal(&pending.batch)?;
        let stats = self.apply_and_publish(pending.batch, &guard, wal_mark)?;
        // The group's covering fsync and checkpoint come after, so the
        // phase histograms sum to this total.
        let dur = t_total.elapsed().as_nanos() as u64;
        self.sobs.commit_total.record(dur);
        self.obs.tracer().span_event("commit.total", t_total, dur);
        Ok(stats)
    }

    /// Up-front batch validation (see [`CommitError`] for the policy).
    /// Runs before the WAL append and before any in-memory mutation,
    /// and collects **every** violation of the batch — the structural
    /// checks and the static analyzer's deny-level findings — into one
    /// [`CommitRejection`]. On success, returns the analyzer's
    /// warn-level report.
    fn validate(&self, pending: &Pending) -> Result<LintReport, CommitRejection> {
        let batch = &pending.batch;
        let mut errors = match batch.check_shape(&self.store) {
            Ok(()) => Vec::new(),
            Err(rejection) => rejection.errors,
        };
        // Arities introduced earlier in this same batch (a rule may
        // define a predicate an assert then uses).
        let mut seen: FxHashMap<Symbol, usize> = FxHashMap::default();
        for c in &batch.rules {
            self.check_arity(&mut seen, &c.head, true, &mut errors);
            for l in &c.body {
                self.check_arity(&mut seen, &l.atom, true, &mut errors);
            }
        }
        for atom in &batch.asserts {
            self.check_arity(&mut seen, atom, true, &mut errors);
        }
        for atom in &batch.retracts {
            // A retract of an unknown predicate is a silent no-op and
            // does not pin the predicate's arity.
            self.check_arity(&mut seen, atom, false, &mut errors);
        }

        // Static analysis of the rule batch. Fact-only batches skip it
        // entirely (the bulk-load path stays one cheap loop), and the
        // arity lint is muted: the structural ArityMismatch above
        // already reports conflicts with typed expected/found fields.
        let mut report = LintReport::default();
        if !batch.rules.is_empty() && !self.lint_config.all_allowed(&Lint::ALL) {
            let config = self
                .lint_config
                .clone()
                .set(Lint::ArityConflict, LintLevel::Allow);
            report = analyze_batch(
                &self.store,
                &pending.rules_program(),
                0,
                &self.engine.analyzer_opts(config),
            );
            errors.extend(report.errors().map(|d| CommitError::Unsafe(d.clone())));
        }

        if errors.is_empty() {
            Ok(report)
        } else {
            Err(CommitRejection { errors })
        }
    }

    /// Checks one atom's arity against the committed and in-batch
    /// arity maps, appending a violation to `errors` on mismatch; when
    /// `define` is set, an unknown predicate is recorded at this atom's
    /// arity.
    fn check_arity(
        &self,
        batch: &mut FxHashMap<Symbol, usize>,
        atom: &Atom,
        define: bool,
        errors: &mut Vec<CommitError>,
    ) {
        let found = atom.args.len();
        let known = self
            .engine
            .arities
            .get(&atom.pred)
            .or_else(|| batch.get(&atom.pred))
            .copied();
        match known {
            Some(expected) if expected != found => errors.push(CommitError::ArityMismatch {
                pred: self.store.symbol_name(atom.pred).to_string(),
                expected,
                found,
            }),
            Some(_) => {}
            None => {
                if define {
                    batch.insert(atom.pred, found);
                }
            }
        }
    }

    /// Pre-commit admission control: predicts the batch's ground
    /// growth from the analyzer's instantiation estimates (rules) plus
    /// the literal fact count (asserts) and rejects — before WAL
    /// journaling, before any mutation — when the prediction exceeds a
    /// [`CommitOpts`] cap. The rejection surfaces as
    /// [`SessionError::Interrupted`] in the `Admission` phase; the
    /// budgets are enforced again (on actual usage) during grounding.
    fn admit(
        &self,
        pending: &Pending,
        opts: &CommitOpts,
        guard: &Guard,
    ) -> Result<(), SessionError> {
        if opts.max_clauses.is_none() && opts.max_memory_bytes.is_none() {
            return Ok(());
        }
        let est = estimate_batch_instances(
            &self.store,
            &pending.rules_program(),
            0,
            &self.engine.analyzer_opts(self.lint_config.clone()),
        );
        let predicted = usize::try_from(est)
            .unwrap_or(usize::MAX)
            .saturating_add(pending.batch.asserts.len());
        // ≈ bytes per predicted ground clause: one CSR row (head +
        // bounds) plus a few body ids plus fact-index postings.
        const BYTES_PER_CLAUSE: usize = 48;
        let over_clauses = opts.max_clauses.is_some_and(|max| {
            self.ground_program()
                .clause_count()
                .saturating_add(predicted)
                > max
        });
        let over_memory = opts.max_memory_bytes.is_some_and(|max| {
            self.engine_bytes()
                .saturating_add(predicted.saturating_mul(BYTES_PER_CLAUSE))
                > max
        });
        if over_clauses || over_memory {
            return Err(self.interrupted(
                InterruptPhase::Admission,
                InterruptCause::MemoryBudget,
                guard,
            ));
        }
        Ok(())
    }

    /// Journals the batch as one unsynced WAL record (durable sessions
    /// only) and returns the WAL length before it — the mark a later
    /// unwind cuts back to. The record becomes durable at its group's
    /// covering fsync, before any ack ([`Session::run_group`]).
    fn journal(&mut self, batch: &UpdateBatch) -> Result<Option<u64>, SessionError> {
        let Some(log) = &mut self.durable else {
            return Ok(None);
        };
        let _s = self
            .obs
            .span("commit.journal", Some(&self.sobs.phase_journal));
        let payload = encode_batch(
            &self.store,
            self.epoch + 1,
            &batch.rules,
            &batch.asserts,
            &batch.retracts,
        );
        let mark = log.wal_len();
        if let Err(e) = log.append_unsynced(&payload) {
            // Nothing is applied, so memory still equals the acked
            // state — but the frame may be on storage, where the next
            // fsync would make it durable behind our back. Cut it off.
            // Should that fail too, the log stays dirty and refuses
            // appends until a cut succeeds: no acked record can land
            // behind this one, so memory needs no poisoning.
            log.truncate_to(mark)?;
            return Err(e.into());
        }
        Ok(Some(mark))
    }

    /// **apply → publish**, with the rollback point armed in between.
    /// WAL replay enters the pipeline here — it must stay deterministic
    /// given the same batch over the same state.
    fn apply_and_publish(
        &mut self,
        batch: UpdateBatch,
        guard: &Guard,
        wal_mark: Option<u64>,
    ) -> Result<CommitStats, SessionError> {
        // Armed — and marked torn — before the first mutation, so a
        // panic escaping mid-apply leaves it for `Session::recover`.
        let point = self.rollback_point(wal_mark);
        self.poisoned = Some(point.torn());
        let applied = self.apply_steps(batch, guard);
        self.poisoned = None;
        match applied {
            Ok(stats) => {
                // Phase `commit.publish`: the new epoch becomes visible
                // and the commit's counters are flushed.
                let t_publish = Instant::now();
                self.epoch += 1;
                self.sobs.record_commit(&stats);
                self.flush_subsystem_stats();
                let publish_ns = t_publish.elapsed().as_nanos() as u64;
                self.sobs.phase_publish.record(publish_ns);
                self.obs
                    .tracer()
                    .span_event("commit.publish", t_publish, publish_ns);
                Ok(stats)
            }
            Err(e) => {
                // The failed commit degrades to a rolled-back
                // transaction; a failed unwind re-arms the point (the
                // session is poisoned) for `recover` to retry.
                let _ = self.unwind(point);
                Err(e)
            }
        }
    }

    /// The in-memory apply proper. Any `Err` leaves program, engine and
    /// retract set half-edited: the caller unwinds.
    fn apply_steps(
        &mut self,
        batch: UpdateBatch,
        guard: &Guard,
    ) -> Result<CommitStats, SessionError> {
        let mut stats = CommitStats::default();
        // Grounding vs. index-finalize attribution: steps 1–3 are timed
        // as one wall interval; the grounder's own finalize_ns delta is
        // then split out as the `commit.index` phase.
        let gstats_before = self.engine.grounder.stats();
        let t_ground = Instant::now();
        let atoms_before = self.ground_program().atom_count();
        let clauses_before = self.ground_program().clause_count();

        // 1. Rules (they may reference facts asserted in the same batch
        //    only through the later semi-naive rounds, which is fine:
        //    asserts run next and cascade through the new plans).
        let first_new = self.program.len();
        if !batch.rules.is_empty() {
            for c in batch.rules {
                self.program.push(c);
                stats.rules_added += 1;
            }
            self.engine
                .grounder
                .add_rules(&mut self.store, &self.program, first_new, guard)
                .map_err(|e| self.grounding_error(e, guard))?;
        }

        // 2. Asserts: queue re-enables of retracted facts, ground the
        //    new ones.
        let mut enable: Vec<u32> = Vec::new();
        let mut new_facts: Vec<Atom> = Vec::new();
        for atom in batch.asserts {
            match self.engine.source_fact_clause(&atom) {
                Some(ci) => {
                    if self.engine.disabled.contains_key(&ci) && !enable.contains(&ci) {
                        enable.push(ci);
                        stats.facts_reenabled += 1;
                    }
                }
                None => new_facts.push(atom),
            }
        }
        if !new_facts.is_empty() {
            for atom in &new_facts {
                self.program.push(Clause::fact(atom.clone()));
            }
            stats.facts_asserted = new_facts.len();
            self.engine
                .grounder
                .extend(&mut self.store, &new_facts, guard)
                .map_err(|e| self.grounding_error(e, guard))?;
        }
        for &ci in &enable {
            self.engine.reassert(ci);
        }

        // 3. Retracts: switch fact clauses off. A retract that lands on
        //    a clause this same commit queued for re-enabling cancels
        //    the pending enable instead (retracts apply last): the
        //    chains never saw the enable, so pushing a disable too
        //    would desync them from the retract set.
        let mut disable: Vec<u32> = Vec::new();
        for atom in batch.retracts {
            let Some(ci) = self.engine.source_fact_clause(&atom) else {
                continue; // never asserted — nothing to retract
            };
            if self.engine.retract(ci, atom) {
                if let Some(pos) = enable.iter().position(|&e| e == ci) {
                    enable.swap_remove(pos);
                } else {
                    disable.push(ci);
                }
                stats.facts_retracted += 1;
            }
        }

        // Phases `commit.ground` / `commit.index` are complete (only
        // completed phases are recorded — an interrupted commit shows
        // up as a `guard.trip` event, not a skewed histogram).
        let ground_wall = t_ground.elapsed().as_nanos() as u64;
        let fin_delta = self
            .engine
            .grounder
            .stats()
            .finalize_ns
            .saturating_sub(gstats_before.finalize_ns);
        let ground_ns = ground_wall.saturating_sub(fin_delta);
        self.sobs.phase_ground.record(ground_ns);
        self.sobs.phase_index.record(fin_delta);
        let tracer = self.obs.tracer();
        tracer.span_event("commit.ground", t_ground, ground_ns);
        tracer.span_event("commit.index", t_ground, fin_delta);

        // 4. Model maintenance: grow the chains over the appended
        //    atoms/clauses, flip the switched clauses, restart the
        //    alternation below the change's dependency cone.
        let t_refresh = Instant::now();
        if let Err(cause) = self
            .engine
            .refresh_model(clauses_before, &disable, &enable, guard)
        {
            return Err(self.interrupted(InterruptPhase::ModelRefresh, cause, guard));
        }
        let refresh_ns = t_refresh.elapsed().as_nanos() as u64;
        self.sobs.phase_refresh.record(refresh_ns);
        tracer.span_event("commit.refresh", t_refresh, refresh_ns);

        let gp = self.engine.grounder.ground_program();
        stats.new_atoms = gp.atom_count() - atoms_before;
        stats.new_clauses = gp.clause_count() - clauses_before;
        // Everything this batch appended (rules, new facts) defines the
        // arity of whatever predicate it was first to mention.
        self.engine
            .note_arities(&self.program.clauses()[first_new..]);
        Ok(stats)
    }

    // ---- unwind ------------------------------------------------------

    /// The committed state as of now, as the point a failing commit
    /// (or group) returns to. A handful of lengths; O(1).
    fn rollback_point(&self, wal_mark: Option<u64>) -> RollbackPoint {
        RollbackPoint {
            program_len: self.program.len(),
            epoch: self.epoch,
            engine: self.engine.mark(),
            wal_mark,
            torn: false,
        }
    }

    /// Returns the session to `point`. In memory that is a truncation
    /// (`EngineState::truncate_to`): program, ground state and chains
    /// are cut back to the point's lengths and the retract-set edits
    /// inverted — work proportional to what the failed commit (or
    /// group) appended, with every run of the argument index that
    /// covers only surviving atoms kept for the readers. Only a point a
    /// **panic** left armed rebuilds the engine from source, because no
    /// invariant survives one. Then the WAL is cut back to the point's
    /// mark so the unwound records can never replay. Both halves are
    /// always attempted (a poisoned session should at least serve a
    /// consistent model); if either fails the point is re-armed — the
    /// session stays poisoned — and the error returned.
    fn unwind(&mut self, point: RollbackPoint) -> Result<(), SessionError> {
        let t_unwind = Instant::now();
        // Armed torn throughout: a panic in here leaves a rebuild owed.
        self.poisoned = Some(point.torn());
        let mut truncated = None;
        let restored = if point.torn {
            let retracted = self.engine.retracted_at(&point.engine);
            self.program.truncate(point.program_len);
            self.sobs.rollback_rebuilds.add(1);
            self.install_engine(retracted)
        } else {
            // Successful commits being undone too (a group) have
            // overwritten the model; a lone failed one has not.
            let model_stale = self.epoch != point.epoch;
            let cut = self.engine.truncate_to(&point.engine, model_stale);
            self.program.truncate(point.program_len);
            self.rebase_subsystem_stats();
            let q = &self.sobs;
            q.rollback_truncations.add(1);
            q.rollback_reprimes.add(cut.reprimes as u64);
            q.rollback_dropped_atoms.add(cut.atoms as u64);
            q.rollback_dropped_clauses.add(cut.clauses as u64);
            truncated = Some(cut);
            Ok(())
        };
        self.epoch = point.epoch;
        let cut = match (point.wal_mark, &mut self.durable) {
            (Some(mark), Some(log)) => log.truncate_to(mark).map_err(SessionError::from),
            _ => Ok(()),
        };
        self.poisoned = match (&restored, &cut) {
            (Ok(()), Ok(())) => None,
            // Memory is the point's state: re-marked (a rebuild
            // renumbers), and a retry only has the WAL left to cut.
            (Ok(()), Err(_)) => Some(RollbackPoint {
                engine: self.engine.mark(),
                torn: false,
                ..point
            }),
            (Err(_), _) => Some(point.torn()),
        };
        // Phase `commit.unwind`, with what it dropped for the trace.
        let dur = t_unwind.elapsed().as_nanos() as u64;
        self.sobs.phase_unwind.record(dur);
        self.obs
            .tracer()
            .span_event_with("commit.unwind", t_unwind, dur, || match truncated {
                Some(cut) => format!(
                    "dropped_atoms={} dropped_clauses={} reprimes={}",
                    cut.atoms, cut.clauses, cut.reprimes
                ),
                None => "engine rebuilt from source".to_owned(),
            });
        restored.and(cut)
    }

    // ---- WAL replay and auto-checkpoint ---------------------------

    /// Replays recovered WAL records through [`Session::apply_and_publish`].
    /// Records at or below the current epoch are skipped — that makes
    /// replay idempotent when a crash during checkpointing forces the
    /// fallback generation to re-cover an older WAL. Returns how many
    /// records were applied.
    pub(super) fn replay(&mut self, records: &[Vec<u8>]) -> Result<usize, SessionError> {
        let mut replayed = 0usize;
        for payload in records {
            let batch = decode_batch(&mut self.store, payload)?;
            if batch.epoch <= self.epoch {
                continue;
            }
            replayed += 1;
            self.epoch = batch.epoch - 1;
            let batch = UpdateBatch {
                rules: batch.rules,
                asserts: batch.asserts,
                retracts: batch.retracts,
            };
            // Replay is never governed: recovery must be deterministic
            // and always reach the journaled epoch.
            self.apply_and_publish(batch, &Guard::none(), None)?;
        }
        Ok(replayed)
    }

    /// Auto-checkpoint after a commit once the WAL passes the
    /// configured thresholds. Failures are swallowed: the commit
    /// itself is already durable in the WAL, and the log has already
    /// rotated onto a fresh WAL, so the next attempt comes once that
    /// WAL passes the thresholds.
    fn maybe_checkpoint(&mut self) {
        if self.durable.as_ref().is_some_and(|l| l.should_checkpoint()) {
            let _ = self.checkpoint();
        }
    }

    // ---- interruption forensics ------------------------------------

    /// Approximate bytes held by the term store and the ground state.
    fn engine_bytes(&self) -> usize {
        self.store.approx_bytes() + self.engine.grounder.approx_bytes()
    }

    /// Builds an enriched [`SessionError::Interrupted`]: captures the
    /// guard's fuel/deadline readings plus the engine's byte count at
    /// trip time (*before* rollback shrinks it), and records the trip
    /// as a dynamic counter + ring event.
    fn interrupted(
        &self,
        phase: InterruptPhase,
        cause: InterruptCause,
        guard: &Guard,
    ) -> SessionError {
        let mut trip = TripInfo::from_guard(guard);
        trip.memory_used_bytes = Some(self.engine_bytes());
        record_trip(&self.obs, phase, cause, &trip);
        SessionError::Interrupted { phase, cause, trip }
    }

    /// Maps a grounding failure out of steps 1–2 of the apply,
    /// enriching guard trips with [`TripInfo`] forensics.
    fn grounding_error(&self, e: GroundingError, guard: &Guard) -> SessionError {
        match e {
            GroundingError::Interrupted(cause) => {
                self.interrupted(InterruptPhase::Grounding, cause, guard)
            }
            other => other.into(),
        }
    }
}
