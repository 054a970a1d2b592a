//! Herbrand instantiation (Def. 1.5): the grounding kernel.
//!
//! [`Grounder::ground`] performs **relevant grounding**: instead of the
//! full Herbrand instantiation, which is wasteful or infinite, it
//! computes the least fixpoint of the positive-closure operator
//! (negative literals ignored) and emits only rule instances whose
//! positive bodies are potentially derivable. Rule instances pruned this
//! way can never fire in any fixpoint of `W_P`, so the well-founded model
//! restricted to derivable atoms is unchanged, and atoms never interned
//! are false in the well-founded model. Variables not bound by the
//! positive body are enumerated over the (depth-bounded) Herbrand
//! universe. The output is a [`GroundProgram`] (module
//! [`crate::program`]).
//!
//! The relevant-grounding loop is **semi-naive** and **plan-compiled**:
//! each `rule × delta-position` pair is compiled once into a
//! [`crate::plan::JoinPlan`] — a selectivity-ordered body-literal
//! sequence with precomputed bound-argument signatures, composite-index
//! handles, and cached residual variables — and each round executes only
//! the plans whose delta predicate actually grew (the relevance index).
//! Facts live in the [`crate::factstore::FactStore`] as interned-id
//! rows; candidate lookups are composite-index probes clamped to the
//! delta/old row range by binary search. See the `plan` and `factstore`
//! module docs for the invariants.
//!
//! ## One kernel
//!
//! All ground state lives in one struct, [`IncrementalGrounder`]: the
//! *emission half* (`Emission`, in `emission.rs`: the ground program,
//! the derivability closure and delta queue, the dedup spaces, the
//! active domain, binding and buffer scratch, statistics) and, beside
//! it, the *compiled half* (rule templates, join plans, fact store). The
//! join walk is a set of `Emission` methods that borrow the compiled
//! half immutably and take what belongs to the caller — the
//! [`TermStore`] and the governance [`Guard`] — per operation (`Run`);
//! nothing is moved in or out.
//!
//! **Batch grounding is the kernel, dropped**: [`Grounder::ground_with`]
//! builds one, runs it once, finalizes, and returns its program. A
//! session keeps it ([`IncrementalGrounder::new`]) and feeds it deltas
//! ([`IncrementalGrounder::extend`], [`IncrementalGrounder::add_rules`]).
//! The two differ in one field, `Emission::persistent`, read in exactly
//! the places where a kernel that will see later deltas must behave
//! differently from one that will not:
//!
//! * **fact dedup** (`Emission::push_unique`): a session retracts a
//!   *source* fact by switching its clause off, so source facts and
//!   *permanent* fact-shaped clauses (rule instances, facts of a rule
//!   batch) dedup in separate spaces, each keeping its own clause;
//!   batch grounding keeps one clause per head;
//! * **rule compilation** (`build_templates`): every persistent template
//!   consults the clause-dedup table — a rule added later may collide
//!   with any signature — where batch grounding skips the table for
//!   rules whose signature is unique in the program;
//! * **the fact store** is frozen after planning only in batch mode — a
//!   later rule may join a predicate no current plan touches.
//!
//! **After an `Err`** (clause budget, guard trip) the kernel holds part
//! of a delta, un-finalized. Every length it appends to has one owner,
//! so the way back is a cut: [`IncrementalGrounder::truncate_to`] a
//! [`GroundMark`] taken before the operation — what
//! `global_sls::Session` does to roll a commit back, in time
//! proportional to what the commit appended. (Or drop the kernel.)
//!
//! The Subst-based reference implementations — [`GroundingMode::Full`]
//! and the [`JoinStrategy::Naive`] differential oracle — live in
//! `instantiate.rs` and share only the emission step with the kernel;
//! `tests/grounding_diff.rs` pins planned ≡ naive ≡
//! kernel-fed-in-batches at the clause-set level.

use crate::emission::{Emission, FactKind, Run};
use crate::factstore::{FactStore, Role};
use crate::herbrand::HerbrandOpts;
use crate::instantiate;
use crate::plan::{append_plans, build_plans, build_templates, template_of, Planner, RuleTemplate};
use crate::program::{GroundAtomId, GroundAtoms, GroundProgram};
use gsls_lang::{Arena, Atom, FxHashSet, Program, TermId, TermStore};
use gsls_par::govern::{Guard, InterruptCause};
use std::fmt;
use std::time::Instant;

/// How clause instances are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroundingMode {
    /// Relevant grounding: positive bodies are joined against the
    /// positive-closure fixpoint, pruning rule instances that can never
    /// fire. Smaller output, same well-founded model on derivable atoms.
    #[default]
    Relevant,
    /// Full Herbrand instantiation (Def. 1.5) over the (depth-bounded)
    /// universe: every substitution of universe terms for clause
    /// variables. Needed when the syntactic shape of *all* instances
    /// matters (ground global trees, local-stratification analyses).
    Full,
}

/// How [`GroundingMode::Relevant`] joins rule bodies against the fact
/// store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Precompiled join plans: selectivity-ordered literals, composite
    /// indexes, delta sub-ranges, relevance-driven rounds (see the
    /// [`crate::plan`] module docs). The production path.
    #[default]
    Planned,
    /// Unordered full-scan joins, re-run over every rule each pass.
    /// Quadratically slower, but so simple it is obviously correct —
    /// kept exclusively as the differential-testing oracle for
    /// [`JoinStrategy::Planned`].
    Naive,
}

/// Options controlling grounding.
#[derive(Debug, Clone, Copy)]
pub struct GrounderOpts {
    /// Universe enumeration bounds (relevant only with function symbols).
    pub universe: HerbrandOpts,
    /// Hard cap on emitted ground clauses.
    pub max_clauses: usize,
    /// Instance enumeration strategy.
    pub mode: GroundingMode,
    /// Join evaluation strategy for [`GroundingMode::Relevant`].
    pub strategy: JoinStrategy,
}

impl Default for GrounderOpts {
    fn default() -> Self {
        GrounderOpts {
            universe: HerbrandOpts::default(),
            max_clauses: 2_000_000,
            mode: GroundingMode::Relevant,
            strategy: JoinStrategy::Planned,
        }
    }
}

/// Grounding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroundingError {
    /// The `max_clauses` budget was exceeded.
    ClauseBudget(usize),
    /// A governance [`Guard`] tripped mid-run (cancel, deadline, or
    /// memory budget); the half-built delta is the caller's to unwind.
    Interrupted(InterruptCause),
}

impl fmt::Display for GroundingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundingError::ClauseBudget(n) => {
                write!(f, "grounding exceeded the clause budget of {n}")
            }
            GroundingError::Interrupted(cause) => {
                write!(f, "grounding interrupted: {cause}")
            }
        }
    }
}

impl std::error::Error for GroundingError {}

/// Per-stage instrumentation of one grounding run, from
/// [`Grounder::ground_with_stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GroundStats {
    /// Semi-naive rounds after the seed round.
    pub rounds: u32,
    /// Join plans compiled (`rule × delta-position` pairs).
    pub plans: u32,
    /// Composite indexes registered in the fact store.
    pub indexes: u32,
    /// Candidate fact rows examined across all joins (scans + posting
    /// sub-ranges).
    pub join_candidates: u64,
    /// Composite-index probes (one hash lookup + two binary searches).
    pub index_probes: u64,
    /// Candidate instances discarded as already-emitted clauses.
    pub dedup_hits: u64,
    /// Wall time of the seed round (rules without positive body).
    pub seed_ns: u64,
    /// Wall time of plan compilation + index registration/backfill.
    pub plan_ns: u64,
    /// Wall time of the semi-naive join rounds.
    pub join_ns: u64,
    /// Wall time of [`GroundProgram::finalize`].
    pub finalize_ns: u64,
}

impl GroundStats {
    /// Field-wise `self - earlier`, saturating. The incremental
    /// grounder accumulates for its lifetime; callers that want
    /// per-commit readings diff against a baseline captured before the
    /// commit (`plans`/`indexes` are running totals, not deltas, and
    /// are reported as-is).
    pub fn delta_since(&self, earlier: &GroundStats) -> GroundStats {
        GroundStats {
            rounds: self.rounds.saturating_sub(earlier.rounds),
            plans: self.plans,
            indexes: self.indexes,
            join_candidates: self.join_candidates.saturating_sub(earlier.join_candidates),
            index_probes: self.index_probes.saturating_sub(earlier.index_probes),
            dedup_hits: self.dedup_hits.saturating_sub(earlier.dedup_hits),
            seed_ns: self.seed_ns.saturating_sub(earlier.seed_ns),
            plan_ns: self.plan_ns.saturating_sub(earlier.plan_ns),
            join_ns: self.join_ns.saturating_sub(earlier.join_ns),
            finalize_ns: self.finalize_ns.saturating_sub(earlier.finalize_ns),
        }
    }
}

/// A state of an [`IncrementalGrounder`], as the lengths of everything
/// it appends to ([`IncrementalGrounder::mark`]) — what
/// [`IncrementalGrounder::truncate_to`] cuts back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroundMark {
    atoms: usize,
    clauses: usize,
    universe: usize,
    templates: usize,
    plans: usize,
    preds: usize,
    indexes: usize,
}

impl GroundMark {
    /// Ground atoms interned at the mark.
    pub fn atom_count(&self) -> usize {
        self.atoms
    }

    /// Ground clauses stored at the mark.
    pub fn clause_count(&self) -> usize {
        self.clauses
    }
}

/// Batch grounding: one [`IncrementalGrounder`] kernel built, run once
/// and dropped, its finalized program returned.
pub enum Grounder {}

impl Grounder {
    /// Grounds `program` with default options.
    pub fn ground(
        store: &mut TermStore,
        program: &Program,
    ) -> Result<GroundProgram, GroundingError> {
        Self::ground_with(store, program, GrounderOpts::default())
    }

    /// Grounds `program` with explicit options. The returned program is
    /// finalized (reverse indexes built).
    pub fn ground_with(
        store: &mut TermStore,
        program: &Program,
        opts: GrounderOpts,
    ) -> Result<GroundProgram, GroundingError> {
        Self::ground_with_stats(store, program, opts).map(|(gp, _)| gp)
    }

    /// [`Grounder::ground_with`] plus per-stage instrumentation.
    pub fn ground_with_stats(
        store: &mut TermStore,
        program: &Program,
        opts: GrounderOpts,
    ) -> Result<(GroundProgram, GroundStats), GroundingError> {
        let mut k = IncrementalGrounder::start(store, program, opts, false);
        let guard = Guard::none();
        let run = &mut Run::new(store, &guard);
        match (opts.mode, opts.strategy) {
            (GroundingMode::Full, _) => instantiate::run_full(&mut k.em, run, program),
            (GroundingMode::Relevant, JoinStrategy::Planned) => k.run_planned(run, program),
            (GroundingMode::Relevant, JoinStrategy::Naive) => {
                instantiate::run_naive(&mut k.em, run, program)
            }
        }?;
        k.finalize();
        Ok((k.em.gp, k.em.stats))
    }
}

/// The grounding kernel — every piece of ground state (see the module
/// docs), kept by `global_sls::Session` so that committing a delta
/// re-joins only the plans whose predicates actually grew instead of
/// re-grounding from scratch.
///
/// Contract of a kept kernel, beyond batch grounding's:
///
/// * **Function-free only** ([`IncrementalGrounder::new`] rejects
///   programs with proper function symbols): the Herbrand universe is
///   then exactly the constant set, which the session can maintain as
///   facts and rules arrive.
/// * **Append-only output**: [`GroundProgram`] atoms and clauses are
///   only ever added (retraction is a model-level clause switch — see
///   [`IncrementalGrounder::fact_clause_of`] and
///   `gsls_wfs::IncrementalLfp::set_clauses_enabled`). Grounding stays
///   monotone over everything *ever* asserted, so a retracted fact's
///   rule instances remain stored (harmlessly: their bodies are
///   underivable once the fact clause is switched off) and re-asserting
///   is a pure re-enable.
/// * **Active-domain enumeration**: rules whose variables no positive
///   body literal binds are enumerated over the constants seen so far;
///   when a commit introduces new constants, every such rule is
///   re-joined in full (the dedup spaces absorb the overlap), so the
///   emitted instance set always equals a from-scratch grounding of the
///   merged program. (Corner case: if the *initial* program had no
///   constants at all, the batch grounder's invented constant persists
///   in the session universe.)
/// * The program is re-[`finalized`](GroundProgram::finalize) after
///   every operation that completes. One that returns `Err` leaves part
///   of a delta behind and the reverse indexes where they were: the
///   kernel must be cut back ([`IncrementalGrounder::truncate_to`]) to a
///   [`mark`](IncrementalGrounder::mark) taken before it, or dropped.
pub struct IncrementalGrounder {
    em: Emission,
    /// Membership view of `em.universe` (constants, function-free).
    uni_set: FxHashSet<TermId>,
    /// Per-rule compilation, indexed like the source program's clauses.
    templates: Vec<Option<RuleTemplate>>,
    planner: Planner,
    facts: FactStore,
    /// Rule indices with residual (universe-enumerated) slots — the
    /// rules that must re-join in full when the universe grows.
    residual_rules: Vec<u32>,
}

impl IncrementalGrounder {
    /// The empty kernel for `program` — the one place ground state is
    /// initialised.
    fn start(store: &TermStore, program: &Program, opts: GrounderOpts, persistent: bool) -> Self {
        // With function symbols the universe is depth-truncated; emitted
        // atoms must respect the same bound or grounding diverges. For
        // function-free programs terms never grow, so no bound is needed.
        let max_depth = if program.is_function_free(store) {
            u32::MAX
        } else {
            opts.universe.max_depth
        };
        IncrementalGrounder {
            em: Emission::new(opts, max_depth, persistent),
            uni_set: FxHashSet::default(),
            templates: Vec::new(),
            planner: Planner::default(),
            facts: FactStore::default(),
            residual_rules: Vec::new(),
        }
    }

    /// Grounds `program` and keeps every piece of run state for later
    /// [`IncrementalGrounder::extend`] / [`IncrementalGrounder::
    /// add_rules`] calls. The program must be function-free.
    pub fn new(
        store: &mut TermStore,
        program: &Program,
        opts: GrounderOpts,
    ) -> Result<Self, GroundingError> {
        assert!(
            program.is_function_free(store),
            "IncrementalGrounder requires a function-free program"
        );
        let mut k = Self::start(store, program, opts, true);
        // Active-domain universe: the constant set, computed eagerly so
        // later deltas only need to diff against it. (`ensure_universe`
        // skips its sweep when this is non-empty; when the program has
        // no constants at all it may still invent the batch grounder's
        // default one — see the corner case in the type docs.)
        let consts = program.constants(store);
        k.em.universe = consts.into_iter().map(|c| store.app(c, &[])).collect();
        k.run_planned(&mut Run::new(store, &Guard::none()), program)?;
        k.uni_set = k.em.universe.iter().copied().collect();
        k.finalize();
        Ok(k)
    }

    /// The (finalized) ground program.
    pub fn ground_program(&self) -> &GroundProgram {
        &self.em.gp
    }

    /// The active domain: every constant seen so far, as interned
    /// terms. Query engines enumerate unbound all-negative variables
    /// over exactly this set.
    pub fn universe(&self) -> &Arena<TermId> {
        &self.em.universe
    }

    /// Publishes what a query reads of the ground state — the program's
    /// atom side and the active domain — as values sharing every chunk
    /// with the live ones (`gsls_lang::Arena::share`): a snapshot's
    /// half of the kernel. Grounds nothing.
    pub fn share_read_side(&mut self) -> (GroundAtoms, Arena<TermId>) {
        (self.em.gp.share_atoms(), self.em.universe.share())
    }

    /// Cumulative grounding statistics across all operations so far.
    pub fn stats(&self) -> GroundStats {
        self.em.stats
    }

    /// Approximate heap footprint of the persistent ground state — CSR
    /// program plus fact store and composite indexes — in bytes. The
    /// session adds the term store's own accounting on top.
    pub fn approx_bytes(&self) -> usize {
        self.em.gp.approx_bytes() + self.facts.approx_bytes()
    }

    /// The clause index of the **source** fact clause for `id`, if one
    /// was ever emitted (initial-program facts and `extend`ed facts) —
    /// the handle retraction switches off (and re-assertion back on) at
    /// the model layer. Fact-shaped *rule instances* and facts arriving
    /// through [`IncrementalGrounder::add_rules`] are permanent program
    /// text and have no entry here.
    pub fn fact_clause_of(&self, id: GroundAtomId) -> Option<u32> {
        self.em.fact_clause.get(&id.0).copied()
    }

    /// The kernel's append-only lengths as of now: plain counts, read in
    /// O(1), with nothing journaled on the way there. Meaningful between
    /// operations (the delta queue empty, the program finalized), which
    /// is where a session arms its rollback points.
    pub fn mark(&self) -> GroundMark {
        debug_assert!(self.em.gp.is_finalized(), "mark taken mid-operation");
        GroundMark {
            atoms: self.em.gp.atom_count(),
            clauses: self.em.gp.clause_count(),
            universe: self.em.universe.len(),
            templates: self.templates.len(),
            plans: self.planner.plans.len(),
            preds: self.facts.pred_count(),
            indexes: self.facts.index_count(),
        }
    }

    /// Returns the kernel to `mark`: everything appended since — by
    /// operations that completed and by one an `Err` cut short — is
    /// dropped, in time proportional to what is dropped, and the kernel
    /// is exactly as fit for further deltas as it was at the mark (same
    /// ids handed out again, same dedup verdicts, same fact rows and
    /// postings, the program finalized). Snapshots published in between
    /// keep the chunks they share. The [`TermStore`] is not involved:
    /// terms interned since stay interned, as harmless as any other
    /// unused term.
    pub fn truncate_to(&mut self, mark: &GroundMark) {
        for &c in self.em.universe.iter_from(mark.universe) {
            self.uni_set.remove(&c);
        }
        self.em.universe.truncate_to(mark.universe);
        self.templates.truncate(mark.templates);
        self.residual_rules
            .retain(|&r| (r as usize) < mark.templates);
        self.planner.plans.truncate(mark.plans);
        self.planner.dependents.truncate(mark.preds);
        for plans in &mut self.planner.dependents {
            plans.retain(|&p| (p as usize) < mark.plans);
        }
        self.em.truncate_to(mark.atoms, mark.clauses);
        let em = &self.em;
        self.facts
            .truncate_to(|id| em.is_derivable(id), mark.preds, mark.indexes);
        self.em.stats.plans = self.planner.plans.len() as u32;
        self.em.stats.indexes = self.facts.index_count() as u32;
    }

    /// The production path: rule-template compilation, seed round, plan
    /// compilation, then relevance-driven semi-naive rounds over the
    /// compiled plans using dense binding slots.
    fn run_planned(&mut self, run: &mut Run<'_>, program: &Program) -> Result<(), GroundingError> {
        // Seed round: rules without positive body — their instances don't
        // depend on the closure and are emitted exactly once. Ground
        // facts (template `None`) bypass enumeration entirely.
        let t = Instant::now();
        self.templates = build_templates(run.store, program, self.em.persistent);
        self.residual_rules = residual_rules_of(&self.templates);
        let Self {
            em,
            templates,
            planner,
            facts,
            residual_rules,
            ..
        } = self;
        if !residual_rules.is_empty() {
            em.ensure_universe(run.store, program);
        }
        em.fit_scratch(templates);
        // Size the arenas for the extensional load: most programs are
        // dominated by their facts, each contributing one atom and one
        // clause (further growth is the usual amortized doubling).
        em.gp.reserve(program.len(), program.len());
        for (ci, clause) in program.clauses().iter().enumerate() {
            match &templates[ci] {
                // Initial-program ground facts are source facts: a
                // session may retract them.
                None if !em.exceeds_depth(run.store, &clause.head.args) => {
                    em.emit_ground_fact(run, &clause.head, FactKind::Source)?;
                }
                None => {}
                Some(tmpl) if tmpl.n_pos == 0 => em.enumerate_residual(run, tmpl, 0)?,
                Some(_) => {}
            }
        }
        em.stats.seed_ns = t.elapsed().as_nanos() as u64;

        // Compile plans once, after the seed round, so the selectivity
        // order can use observed cardinalities; index registration
        // backfills over the seed facts.
        let t = Instant::now();
        let mut grown: Vec<u32> = Vec::new();
        em.flush_delta(facts, &mut grown);
        *planner = build_plans(run.store, program, templates, facts);
        // Every joinable predicate now has a slot; anything else is
        // dead weight and gets dropped by subsequent advances. A
        // persistent kernel must keep everything: a rule added later
        // may join a predicate no current plan touches.
        if !em.persistent {
            facts.freeze();
        }
        em.stats.plans = planner.plans.len() as u32;
        em.stats.indexes = facts.index_count() as u32;
        em.stats.plan_ns = t.elapsed().as_nanos() as u64;

        // Interning micro-fix: pre-size for the join rounds from the
        // seed round's observed cardinality. On relational workloads
        // derived heads track the delta rows — about one new atom and
        // clause per seed fact — so doubling the seeded counts removes
        // the grow-and-rehash cascade that dominated the 10^6-atom
        // profiles (a grow rehashes the whole atom table; after this
        // reserve the join rounds trigger none at all).
        let seeded_atoms = em.gp.atom_count();
        let seeded_clauses = em.gp.clause_count();
        em.gp.reserve(seeded_atoms * 2, seeded_clauses * 2);

        // Semi-naive rounds: only plans whose delta predicate grew are
        // re-joined (relevance index).
        let t = Instant::now();
        self.drain_rounds(run, &mut grown)?;
        self.em.stats.join_ns += t.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Runs relevance-driven semi-naive rounds to quiescence: while some
    /// predicate grew, re-join exactly the plans whose delta predicate
    /// it is, then advance the fact store. `grown` carries the slots of
    /// the most recent advance in and comes back empty, as does the
    /// delta queue.
    fn drain_rounds(
        &mut self,
        run: &mut Run<'_>,
        grown: &mut Vec<u32>,
    ) -> Result<(), GroundingError> {
        let Self {
            em,
            templates,
            planner,
            facts,
            ..
        } = self;
        while !grown.is_empty() {
            em.stats.rounds += 1;
            run.check_memory(&em.gp, facts)?;
            for &slot in grown.iter() {
                for &pid in planner.dependents_of(slot) {
                    let plan = &planner.plans[pid as usize];
                    let tmpl = templates[plan.rule as usize]
                        .as_ref()
                        .expect("planned rules have templates");
                    em.exec(run, plan, tmpl, 0, None, facts)?;
                }
            }
            em.flush_delta(facts, grown);
        }
        Ok(())
    }

    /// Joins rule `ri` once against everything stored — the catch-up
    /// pass of a rule new to a live kernel, and of every residual-slot
    /// rule after the active domain grew. Rules without positive body
    /// enumerate their residual slots; bodied rules join with every
    /// literal at full range. The dedup spaces absorb the instances
    /// that already exist.
    fn join_in_full(&mut self, run: &mut Run<'_>, ri: u32) -> Result<(), GroundingError> {
        let tmpl = self.templates[ri as usize]
            .as_ref()
            .expect("rules have templates");
        if tmpl.n_pos == 0 {
            return self.em.enumerate_residual(run, tmpl, 0);
        }
        let plan = self
            .planner
            .plans
            .iter()
            .find(|p| p.rule == ri && p.delta_pos == 0)
            .expect("bodied rules compile at least one plan");
        self.em
            .exec(run, plan, tmpl, 0, Some(Role::Full), &self.facts)
    }

    /// Adds `arg` to the active domain; whether it was new.
    fn absorb_constant(&mut self, arg: TermId) -> bool {
        let new = self.uni_set.insert(arg);
        if new {
            self.em.universe.push(arg);
        }
        new
    }

    /// Grounds one delta into the live program: `seed` emits what the
    /// delta states directly; if the delta grew the active domain every
    /// residual-slot rule is then re-joined in full (only the
    /// combinations touching new constants survive dedup); semi-naive
    /// rounds run to quiescence; and the program is re-finalized — not
    /// on `Err`, after which the caller cuts the kernel back or drops
    /// it, and either way the merge would be wasted.
    fn ground_delta(
        &mut self,
        run: &mut Run<'_>,
        universe_grew: bool,
        seed: impl FnOnce(&mut Self, &mut Run<'_>) -> Result<(), GroundingError>,
    ) -> Result<(), GroundingError> {
        let joins = |k: &mut Self, run: &mut Run<'_>| {
            let t = Instant::now();
            seed(k, run)?;
            if universe_grew {
                for i in 0..k.residual_rules.len() {
                    k.join_in_full(run, k.residual_rules[i])?;
                }
            }
            k.em.stats.seed_ns += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let mut grown = Vec::new();
            k.em.flush_delta(&mut k.facts, &mut grown);
            k.drain_rounds(run, &mut grown)?;
            k.em.stats.join_ns += t.elapsed().as_nanos() as u64;
            Ok(())
        };
        let r = joins(self, run);
        if r.is_ok() {
            self.finalize();
        }
        r
    }

    /// Re-finalizes the program, charging the time to `finalize_ns`.
    fn finalize(&mut self) {
        let t = Instant::now();
        self.em.gp.finalize();
        self.em.stats.finalize_ns += t.elapsed().as_nanos() as u64;
    }

    /// Grounds a batch of **new ground facts** into the live program:
    /// interns the heads, emits their fact clauses, then runs
    /// relevance-driven semi-naive rounds so every rule instance the new
    /// facts enable is emitted. Facts whose atoms already have a fact
    /// clause are skipped (re-assertion after retraction is a clause
    /// re-enable, not a grounding change). Atoms and clauses are only
    /// appended; the program is re-finalized on `Ok`. `guard` governs
    /// this call only.
    ///
    /// The caller is expected to append the same facts (in order) to
    /// the session's source [`Program`]; the kernel keeps its per-clause
    /// compilation aligned with those indices.
    pub fn extend(
        &mut self,
        store: &mut TermStore,
        new_facts: &[Atom],
        guard: &Guard,
    ) -> Result<(), GroundingError> {
        // Keep templates index-aligned with the session program, which
        // records each asserted fact as a ground fact clause.
        self.templates
            .extend(std::iter::repeat_with(|| None).take(new_facts.len()));
        // New constants grow the active domain: every rule with
        // universe-enumerated slots must then re-join in full.
        let mut universe_grew = false;
        for atom in new_facts {
            for &arg in atom.args.iter() {
                debug_assert!(store.is_ground(arg), "asserted facts must be ground");
                universe_grew |= self.absorb_constant(arg);
            }
        }
        self.ground_delta(&mut Run::new(store, guard), universe_grew, |k, run| {
            // `assert`ed facts are source facts (retractable).
            new_facts
                .iter()
                .try_for_each(|fact| k.em.emit_ground_fact(run, fact, FactKind::Source))
        })
    }

    /// Compiles and grounds clauses appended to the session program:
    /// `program` is the full updated program whose clauses from
    /// `first_new` on are new (rules or facts). New rules are compiled
    /// to templates and plans, joined once **in full** against the live
    /// fact store, and then participate in semi-naive rounds like any
    /// other rule. Constants the new clauses introduce grow the active
    /// domain exactly as in [`IncrementalGrounder::extend`]. `guard`
    /// governs this call only.
    pub fn add_rules(
        &mut self,
        store: &mut TermStore,
        program: &Program,
        first_new: usize,
        guard: &Guard,
    ) -> Result<(), GroundingError> {
        assert_eq!(
            first_new,
            self.templates.len(),
            "add_rules must receive exactly the clauses after the last compiled one"
        );
        assert!(
            program.is_function_free(store),
            "IncrementalGrounder requires a function-free program"
        );
        let new_clauses = &program.clauses()[first_new..];
        // Absorb new constants (every ground argument of a function-free
        // clause is one).
        let mut universe_grew = false;
        for clause in new_clauses {
            let atoms = std::iter::once(&clause.head).chain(clause.body.iter().map(|l| &l.atom));
            for &arg in atoms.flat_map(|a| a.args.iter()) {
                if store.is_ground(arg) {
                    universe_grew |= self.absorb_constant(arg);
                }
            }
        }
        let t = Instant::now();
        for clause in new_clauses {
            let tmpl = template_of(store, clause, |_| true);
            if tmpl.as_ref().is_some_and(|t| !t.residual.is_empty()) {
                self.residual_rules.push(self.templates.len() as u32);
            }
            self.templates.push(tmpl);
        }
        append_plans(
            store,
            program,
            &self.templates,
            &mut self.facts,
            first_new,
            &mut self.planner,
        );
        self.em.fit_scratch(&self.templates);
        self.em.stats.plans = self.planner.plans.len() as u32;
        self.em.stats.indexes = self.facts.index_count() as u32;
        self.em.stats.plan_ns += t.elapsed().as_nanos() as u64;
        self.ground_delta(&mut Run::new(store, guard), universe_grew, |k, run| {
            // One catch-up pass per new clause: facts emit directly (as
            // permanent program text), rules join once in full.
            for (ci, clause) in new_clauses.iter().enumerate() {
                if k.templates[first_new + ci].is_some() {
                    k.join_in_full(run, (first_new + ci) as u32)?;
                } else {
                    k.em.emit_ground_fact(run, &clause.head, FactKind::Permanent)?;
                }
            }
            Ok(())
        })
    }
}

/// Rule indices whose templates have residual (universe-enumerated)
/// slots.
fn residual_rules_of(templates: &[Option<RuleTemplate>]) -> Vec<u32> {
    templates
        .iter()
        .enumerate()
        .filter_map(|(i, t)| {
            t.as_ref()
                .is_some_and(|t| !t.residual.is_empty())
                .then_some(i as u32)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::sorted_clauses;
    use gsls_lang::parse_program;

    fn ground(src: &str) -> (TermStore, GroundProgram) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        (s, gp)
    }

    #[test]
    fn facts_ground_to_themselves() {
        let (s, gp) = ground("p(a). q(b).");
        assert_eq!(gp.clause_count(), 2);
        assert_eq!(gp.atom_count(), 2);
        assert!(gp.clauses().all(|c| c.is_fact()));
        let text = gp.display(&s);
        assert!(text.contains("p(a)."));
    }

    #[test]
    fn positive_join_restricts_instances() {
        // p(X) :- e(X). Only e(a) derivable, so only p(a) emitted even
        // though the universe has two constants.
        let (s, gp) = ground("e(a). other(b). p(X) :- e(X).");
        let text = gp.display(&s);
        assert!(text.contains("p(a) :- e(a)."));
        assert!(!text.contains("p(b)"));
    }

    #[test]
    fn unbound_vars_enumerated_over_universe() {
        let (s, gp) = ground("q(a). q(b). p(X) :- ~q(X).");
        let text = gp.display(&s);
        assert!(text.contains("p(a) :- ~q(a)."));
        assert!(text.contains("p(b) :- ~q(b)."));
    }

    #[test]
    fn negative_atoms_interned_even_if_underivable() {
        let (s, gp) = ground("p :- ~q.");
        // q has no rules but must still get an id so engines can see the
        // body literal.
        let q = gp
            .atom_ids()
            .find(|&id| gp.display_atom(&s, id) == "q")
            .expect("q interned");
        assert!(gp.clauses_for(q).is_empty());
    }

    #[test]
    fn recursive_rules_reach_fixpoint() {
        let (s, gp) = ground("e(a, b). e(b, c). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).");
        let text = gp.display(&s);
        assert!(text.contains("t(a, c) :- e(a, b), t(b, c)."));
        // t(a,b), t(b,c), t(a,c) derivable — no spurious t(c, _).
        assert!(!text.contains("t(c,"));
    }

    #[test]
    fn function_symbols_ground_to_depth() {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "e(s(X), 0) :- e(X, 0). e(s(s(s(0))), 0).").unwrap();
        let gp = Grounder::ground_with(
            &mut s,
            &p,
            GrounderOpts {
                universe: HerbrandOpts {
                    max_depth: 6,
                    max_terms: 1000,
                },
                max_clauses: 10_000,
                ..GrounderOpts::default()
            },
        )
        .unwrap();
        let text = gp.display(&s);
        assert!(text.contains("e(s(s(s(s(0)))), 0) :- e(s(s(s(0))), 0)."));
    }

    #[test]
    fn win_move_game_grounding() {
        let (s, gp) = ground("move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).");
        let text = gp.display(&s);
        assert!(text.contains("win(a) :- move(a, b), ~win(b)."));
        assert!(text.contains("win(b) :- move(b, a), ~win(a)."));
        assert!(text.contains("win(b) :- move(b, c), ~win(c)."));
        // win(c) has no move: no rule instance with head win(c).
        assert!(!text.contains("win(c) :-"));
    }

    #[test]
    fn duplicate_instances_deduped() {
        let (_, gp) = ground("p(a). p(a). q :- p(a), p(a).");
        // The two p(a) facts collapse to one; the q rule appears once.
        assert_eq!(gp.clause_count(), 2);
    }

    #[test]
    fn clause_budget_enforced() {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "d(a). d(b). d(c). p(X, Y, Z) :- ~q(X, Y, Z).").unwrap();
        let err = Grounder::ground_with(
            &mut s,
            &p,
            GrounderOpts {
                max_clauses: 5,
                ..GrounderOpts::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, GroundingError::ClauseBudget(5));
    }

    #[test]
    fn zero_arity_program() {
        let (s, gp) = ground("p :- ~q. q :- ~p. r :- p.");
        assert_eq!(gp.clause_count(), 3);
        assert_eq!(gp.atom_count(), 3);
        let text = gp.display(&s);
        assert!(text.contains("r :- p."));
    }

    #[test]
    fn semi_naive_matches_long_chain() {
        // A linear chain forces many rounds; every hop must appear.
        let mut src = String::new();
        src.push_str("r(v0).\n");
        for i in 0..12 {
            src.push_str(&format!("e(v{i}, v{}).\n", i + 1));
        }
        src.push_str("r(Y) :- r(X), e(X, Y).\n");
        let (s, gp) = ground(&src);
        let text = gp.display(&s);
        for i in 0..=12 {
            assert!(text.contains(&format!("r(v{i})")), "r(v{i}) missing");
        }
        assert!(!text.contains("r(v13)"));
    }

    #[test]
    fn stats_expose_plan_and_probe_counts() {
        let mut s = TermStore::new();
        let p = parse_program(
            &mut s,
            "e(a, b). e(b, c). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).",
        )
        .unwrap();
        let (_, stats) = Grounder::ground_with_stats(&mut s, &p, GrounderOpts::default()).unwrap();
        // 1 plan for the base rule, 2 for the recursive rule.
        assert_eq!(stats.plans, 3);
        assert!(stats.indexes >= 2, "both join signatures indexed");
        assert!(stats.index_probes > 0);
        assert!(stats.join_candidates > 0);
        assert!(stats.rounds >= 2, "chain needs several rounds");
    }

    /// Oracle: the incremental clause set must equal a batch grounding
    /// of the merged program (modulo interning order).
    fn assert_matches_batch(store: &TermStore, k: &IncrementalGrounder, merged_src: &str) {
        let mut s2 = TermStore::new();
        let p2 = parse_program(&mut s2, merged_src).unwrap();
        let batch = Grounder::ground(&mut s2, &p2).unwrap();
        assert_eq!(
            sorted_clauses(store, k.ground_program()),
            sorted_clauses(&s2, &batch),
            "incremental vs batch divergence on: {merged_src}"
        );
    }

    #[test]
    fn incremental_extend_matches_batch_grounding() {
        let mut s = TermStore::new();
        let base = "e(a, b). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).";
        let p = parse_program(&mut s, base).unwrap();
        let mut k = IncrementalGrounder::new(&mut s, &p, GrounderOpts::default()).unwrap();
        assert!(k.ground_program().is_finalized());
        // Extend with a chain extension: new constants, recursive cascade.
        let facts = parse_program(&mut s, "e(b, c). e(c, d).").unwrap();
        let atoms: Vec<Atom> = facts.clauses().iter().map(|c| c.head.clone()).collect();
        k.extend(&mut s, &atoms, &Guard::none()).unwrap();
        assert!(k.ground_program().is_finalized());
        assert_matches_batch(
            &s,
            &k,
            "e(a, b). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z). e(b, c). e(c, d).",
        );
        // Duplicate extension is a no-op.
        let before = k.ground_program().clause_count();
        k.extend(&mut s, &atoms, &Guard::none()).unwrap();
        assert_eq!(k.ground_program().clause_count(), before);
        // Fact clauses are tracked for retraction.
        let eab = k
            .ground_program()
            .lookup_atom(&facts.clauses()[0].head)
            .unwrap();
        let ci = k.fact_clause_of(eab).unwrap();
        assert!(k.ground_program().clause(ci).is_fact());
    }

    #[test]
    fn incremental_add_rules_matches_batch_grounding() {
        let mut s = TermStore::new();
        let base = "e(a, b). e(b, c). r(a).";
        let p0 = parse_program(&mut s, base).unwrap();
        let mut k = IncrementalGrounder::new(&mut s, &p0, GrounderOpts::default()).unwrap();
        // Add a recursive rule after the fact base exists: the catch-up
        // full join must pick up all existing rows.
        let mut p = p0.clone();
        let add = parse_program(&mut s, "r(Y) :- r(X), e(X, Y). w(X) :- e(X, Y), ~w(Y).").unwrap();
        let first_new = p.len();
        for c in add.clauses() {
            p.push(c.clone());
        }
        k.add_rules(&mut s, &p, first_new, &Guard::none()).unwrap();
        assert_matches_batch(
            &s,
            &k,
            "e(a, b). e(b, c). r(a). r(Y) :- r(X), e(X, Y). w(X) :- e(X, Y), ~w(Y).",
        );
        // And a later fact extension still cascades through the rules
        // added above.
        let fx = parse_program(&mut s, "e(c, d).").unwrap();
        let atoms: Vec<Atom> = fx.clauses().iter().map(|c| c.head.clone()).collect();
        k.extend(&mut s, &atoms, &Guard::none()).unwrap();
        assert_matches_batch(
            &s,
            &k,
            "e(a, b). e(b, c). r(a). r(Y) :- r(X), e(X, Y). w(X) :- e(X, Y), ~w(Y). e(c, d).",
        );
    }

    #[test]
    fn incremental_universe_growth_reruns_residual_rules() {
        // p(X) :- ~q(X) enumerates X over the active domain; asserting a
        // fact with a brand-new constant must retroactively add the new
        // instance, matching a from-scratch grounding.
        let mut s = TermStore::new();
        let p0 = parse_program(&mut s, "q(a). d(a). p(X) :- ~q(X).").unwrap();
        let mut k = IncrementalGrounder::new(&mut s, &p0, GrounderOpts::default()).unwrap();
        let fx = parse_program(&mut s, "d(b).").unwrap();
        let atoms: Vec<Atom> = fx.clauses().iter().map(|c| c.head.clone()).collect();
        k.extend(&mut s, &atoms, &Guard::none()).unwrap();
        assert_matches_batch(&s, &k, "q(a). d(a). p(X) :- ~q(X). d(b).");
        // Growth via add_rules constants, too.
        let mut p = p0.clone();
        let add = parse_program(&mut s, "d(c).").unwrap();
        let first_new = p.len();
        for c in fx.clauses().iter().chain(add.clauses()) {
            p.push(c.clone());
        }
        // (fx was applied via extend; add_rules also accepts fact
        // clauses, so route the new constant c through it.)
        k.add_rules(&mut s, &p, first_new + 1, &Guard::none())
            .unwrap();
        assert_matches_batch(&s, &k, "q(a). d(a). p(X) :- ~q(X). d(b). d(c).");
    }

    #[test]
    fn delta_subrange_probes_stay_linear_on_chains() {
        // Regression for the indexed-candidate path: posting lists are
        // restricted to the delta/old sub-range by binary search, so a
        // linear derivation chain examines O(edges) candidates overall —
        // the old full-list filter scan (and the pre-relevance sweep of
        // every rule per round) was quadratic in the round count.
        let n = 256usize;
        let mut src = String::new();
        src.push_str("r(v0).\n");
        for i in 0..n {
            src.push_str(&format!("e(v{i}, v{}).\n", i + 1));
        }
        src.push_str("r(Y) :- r(X), e(X, Y).\n");
        let mut s = TermStore::new();
        let p = parse_program(&mut s, &src).unwrap();
        let (gp, stats) = Grounder::ground_with_stats(&mut s, &p, GrounderOpts::default()).unwrap();
        // 1 seed fact + n edge facts + n rule instances.
        assert_eq!(gp.clause_count(), 1 + n + n);
        let bound = (n as u64) * 16;
        assert!(
            stats.join_candidates <= bound,
            "chain join candidates {} exceed linear bound {bound}",
            stats.join_candidates
        );
    }

    #[test]
    fn ground_program_is_shareable_across_workers() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<GroundProgram>();
        assert_sync::<GroundProgram>();
        assert_sync::<TermStore>();
    }

    #[test]
    fn planned_and_naive_agree_on_core_programs() {
        for src in [
            "e(a). other(b). p(X) :- e(X).",
            "q(a). q(b). p(X) :- ~q(X).",
            "e(a, b). e(b, c). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).",
            "move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).",
            "p :- ~q. q :- ~p. r :- p.",
            // Wide rule with shared variables across four positive
            // literals plus a residual-only negative.
            "a(x, y). a(y, z). b(y). c(y, z). d(z). \
             p(X, Z) :- a(X, Y), b(Y), c(Y, Z), d(Z), ~p(Z, X).",
        ] {
            let mut s1 = TermStore::new();
            let p1 = parse_program(&mut s1, src).unwrap();
            let planned = Grounder::ground(&mut s1, &p1).unwrap();
            let mut s2 = TermStore::new();
            let p2 = parse_program(&mut s2, src).unwrap();
            let naive = Grounder::ground_with(
                &mut s2,
                &p2,
                GrounderOpts {
                    strategy: JoinStrategy::Naive,
                    ..GrounderOpts::default()
                },
            )
            .unwrap();
            assert_eq!(
                sorted_clauses(&s1, &planned),
                sorted_clauses(&s2, &naive),
                "strategy divergence on {src}"
            );
        }
    }
}
