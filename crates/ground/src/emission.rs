//! The emission half of the grounding kernel and the join walk that
//! writes it.
//!
//! [`Emission`] is everything a grounding run *produces* or scribbles
//! on: the ground program, the derivability closure and its delta
//! queue, the fact- and clause-dedup spaces, the universe, dense binding
//! slots and scratch buffers, statistics. The walk — `exec` / `try_row`
//! / `enumerate_residual` / `emit_template` / `push_unique` — borrows
//! the compiled half of the kernel (templates, plans, fact store)
//! immutably and the caller's term store and guard per operation
//! ([`Run`]). See [`crate::grounder`] for how the kernel drives it and
//! for where batch and persistent kernels differ.

use crate::factstore::{clause_hash, FactStore, IdTable, Role};
use crate::grounder::{GroundStats, GrounderOpts, GroundingError};
use crate::herbrand::herbrand_universe;
use crate::plan::{ArgSpec, JoinPlan, RuleTemplate, NO_INDEX, UNBOUND};
use crate::program::{GroundAtomId, GroundProgram};
use gsls_lang::{Arena, Atom, FxHashMap, Program, Term, TermId, TermStore, Var};
use gsls_par::govern::Guard;

/// What one kernel operation borrows from its caller: the term store
/// (joins read term structure, compound emission interns) and the
/// governance guard, polled every [`gsls_par::TICK_INTERVAL`] join
/// candidates / emissions and once per semi-naive round (where the
/// memory budget is also enforced). [`Guard::none`] costs one branch per
/// tick site.
pub(crate) struct Run<'a> {
    pub(crate) store: &'a mut TermStore,
    guard: &'a Guard,
    /// This operation's tick cadence (caller-owned by `Guard::tick`).
    tick: u32,
}

impl<'a> Run<'a> {
    pub(crate) fn new(store: &'a mut TermStore, guard: &'a Guard) -> Self {
        Run {
            store,
            guard,
            tick: 0,
        }
    }

    /// One governance tick (amortized check) charged to this run.
    #[inline]
    fn tick(&mut self) -> Result<(), GroundingError> {
        self.guard
            .tick(&mut self.tick)
            .map_err(GroundingError::Interrupted)
    }

    /// A real governance check plus memory accounting over the term
    /// store, the CSR program, and the fact-store indexes — the
    /// per-round boundary check.
    pub(crate) fn check_memory(
        &self,
        gp: &GroundProgram,
        facts: &FactStore,
    ) -> Result<(), GroundingError> {
        if !self.guard.is_governed() {
            return Ok(());
        }
        let r = if self.guard.memory_budget().is_some() {
            let used = self.store.approx_bytes() + gp.approx_bytes() + facts.approx_bytes();
            self.guard.check_memory(used)
        } else {
            self.guard.check()
        };
        r.map_err(GroundingError::Interrupted)
    }
}

/// Which dedup space a fact-shaped clause of a persistent kernel lands
/// in (batch grounding has one space and ignores the distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FactKind {
    /// A ground fact the session can later retract: initial-program
    /// facts and `extend`ed facts. Its clause index is tracked
    /// ([`crate::IncrementalGrounder::fact_clause_of`]).
    Source,
    /// Everything else fact-shaped — residual rule instances, facts
    /// arriving in an `add_rules` batch, the oracles' instances. Never
    /// switchable, so retracting a source fact can never falsify a
    /// rule-derived or rule-batch duplicate.
    Permanent,
}

/// The emission half of the ground state: everything the join walk
/// writes. See the module docs.
pub(crate) struct Emission {
    pub(crate) opts: GrounderOpts,
    /// Maximum term depth allowed in emitted atoms: heads like `e(s(X),0)`
    /// can otherwise escape the bounded universe and diverge.
    max_depth: u32,
    /// The (depth-bounded) Herbrand universe residual variables range
    /// over. Batch: computed on demand — purely extensional workloads
    /// have no residual variables (see [`Emission::ensure_universe`]).
    /// Persistent: the active domain, every constant seen so far — an
    /// [`Arena`] because session snapshots share it (queries enumerate
    /// all-negative variables over it).
    pub(crate) universe: Arena<TermId>,
    pub(crate) gp: GroundProgram,
    /// `derivable[atom id]`: the atom heads an emitted instance, so it is
    /// in the positive closure and has been queued through the delta.
    derivable: Vec<bool>,
    /// The delta queue: atoms first derived since the fact store last
    /// advanced.
    new_atoms: Vec<GroundAtomId>,
    /// `fact_seen[atom id]`: a fact-shaped clause with this head was
    /// already stored (fact dedup without touching the clause table).
    fact_seen: Vec<bool>,
    /// `free_fact_seen[atom id]`: a [`FactKind::Permanent`] fact clause
    /// with this head exists (persistent mode's second dedup space).
    free_fact_seen: Vec<bool>,
    /// head atom id → clause index of its [`FactKind::Source`] fact
    /// clause (persistent mode only) — the retraction hook a session
    /// flips clauses with, and that space's dedup.
    pub(crate) fact_clause: FxHashMap<u32, u32>,
    /// Clause dedup: id-triple hashes over the CSR store.
    clause_table: IdTable,
    /// Dense binding slots: `bindings[slot]` is the ground value of the
    /// current rule's variable `slot`, or [`UNBOUND`]. Sized to the
    /// widest rule.
    bindings: Vec<TermId>,
    /// Backtracking trail of slot numbers.
    slot_trail: Vec<u32>,
    /// `matched_buf[p]`: the interned atom id of the fact row matched by
    /// positive body literal `p` (clause order) — emission reuses these
    /// ids instead of re-interning the atoms.
    pub(crate) matched_buf: Vec<GroundAtomId>,
    /// The instance's negative body ids, in clause order.
    pub(crate) neg_buf: Vec<GroundAtomId>,
    /// Reusable buffers (probe keys, resolved head/body arguments) — the
    /// join inner loop allocates nothing.
    key_buf: Vec<TermId>,
    head_buf: Vec<TermId>,
    body_buf: Vec<TermId>,
    pub(crate) stats: GroundStats,
    /// Whether this kernel outlives its first run ([`crate::grounder`]
    /// lists the three places that read it).
    pub(crate) persistent: bool,
}

impl Emission {
    /// Empty emission state — the one place it is initialised.
    pub(crate) fn new(opts: GrounderOpts, max_depth: u32, persistent: bool) -> Self {
        Emission {
            opts,
            max_depth,
            universe: Arena::new(),
            gp: GroundProgram::new(),
            derivable: Vec::new(),
            new_atoms: Vec::new(),
            fact_seen: Vec::new(),
            free_fact_seen: Vec::new(),
            fact_clause: FxHashMap::default(),
            clause_table: IdTable::default(),
            bindings: Vec::new(),
            slot_trail: Vec::new(),
            matched_buf: Vec::new(),
            neg_buf: Vec::new(),
            key_buf: Vec::new(),
            head_buf: Vec::new(),
            body_buf: Vec::new(),
            stats: GroundStats::default(),
            persistent,
        }
    }

    /// Sizes the dense binding scratch for the widest rule compiled so
    /// far.
    pub(crate) fn fit_scratch(&mut self, templates: &[Option<RuleTemplate>]) {
        let rules = || templates.iter().flatten();
        let max_slots = rules().map(|t| t.n_slots).max().unwrap_or(0) as usize;
        let max_pos = rules().map(|t| t.n_pos).max().unwrap_or(0) as usize;
        if self.bindings.len() < max_slots {
            self.bindings.resize(max_slots, UNBOUND);
        }
        if self.matched_buf.len() < max_pos {
            self.matched_buf.resize(max_pos, GroundAtomId(0));
        }
    }

    /// Ends a round: hands the delta queue to the fact store (whose
    /// previous delta becomes old) and empties it; `grown` receives the
    /// slots of the predicates that gained rows.
    pub(crate) fn flush_delta(&mut self, facts: &mut FactStore, grown: &mut Vec<u32>) {
        facts.advance(&self.gp, &self.new_atoms, grown);
        self.new_atoms.clear();
    }

    /// Whether `id` heads an emitted clause (and so has a fact-store row
    /// once the delta it is queued on has been flushed).
    pub(crate) fn is_derivable(&self, id: GroundAtomId) -> bool {
        self.derivable.get(id.index()).is_some_and(|&d| d)
    }

    /// Cuts a persistent kernel's emission state back to the first
    /// `n_atoms` atoms / `n_clauses` clauses — a quiescent state it was
    /// in earlier — by inverting what each dropped clause recorded: its
    /// clause-table entry, its fact-dedup mark (a source fact's
    /// `fact_clause` entry is recognised by pointing at the clause; any
    /// other fact-shaped clause is a permanent one), and the
    /// `derivable` flag of a head no surviving clause derives. The
    /// program truncates ([`GroundProgram::truncate_to`]; it must have
    /// been finalized at the mark), the delta queue empties, and the
    /// binding scratch an interrupted join left half-bound is reset.
    /// O(dropped).
    pub(crate) fn truncate_to(&mut self, n_atoms: usize, n_clauses: usize) {
        debug_assert!(self.persistent, "batch kernels are dropped, not cut back");
        let nc = self.gp.clause_count();
        let mut old_heads: Vec<GroundAtomId> = Vec::new();
        for ci in n_clauses as u32..nc as u32 {
            let c = self.gp.clause(ci);
            if c.is_fact() {
                if self.fact_clause.get(&c.head.0) == Some(&ci) {
                    self.fact_clause.remove(&c.head.0);
                } else if let Some(seen) = self.free_fact_seen.get_mut(c.head.index()) {
                    *seen = false;
                }
            }
            if c.head.index() < n_atoms {
                old_heads.push(c.head);
            }
        }
        let gp = &self.gp;
        self.clause_table
            .truncate_to(n_clauses as u32..nc as u32, |ci| {
                let c = gp.clause(ci);
                clause_hash(c.head.0, c.pos, c.neg)
            });
        self.gp.truncate_to(n_atoms, n_clauses);
        self.derivable.truncate(n_atoms);
        self.free_fact_seen.truncate(n_atoms);
        for h in old_heads {
            if self.gp.clauses_for(h).is_empty() {
                self.derivable[h.index()] = false;
            }
        }
        self.new_atoms.clear();
        self.bindings.fill(UNBOUND);
        self.slot_trail.clear();
        self.key_buf.clear();
    }

    /// Enumerates the (depth-bounded) Herbrand universe, once per run.
    /// Deferred so that runs which never enumerate a residual variable —
    /// every rule's variables bound by its positive body — skip the
    /// constant/function sweep over the whole program.
    pub(crate) fn ensure_universe(&mut self, store: &mut TermStore, program: &Program) {
        if self.universe.is_empty() {
            self.universe = herbrand_universe(store, program, self.opts.universe)
                .into_iter()
                .collect();
        }
    }

    /// Executes plan literal `li` under the current bindings: an index
    /// probe clamped to the literal's role sub-range, or a row-range
    /// scan when nothing is bound at this slot. `role` overrides every
    /// literal's semi-naive role — the one-shot catch-up join of a rule
    /// against everything already stored passes [`Role::Full`].
    pub(crate) fn exec(
        &mut self,
        run: &mut Run<'_>,
        plan: &JoinPlan,
        tmpl: &RuleTemplate,
        li: usize,
        role: Option<Role>,
        facts: &FactStore,
    ) -> Result<(), GroundingError> {
        let Some(lit) = plan.literals.get(li) else {
            return self.enumerate_residual(run, tmpl, 0);
        };
        let lit_role = match role {
            Some(role) => role,
            None => match lit.orig.cmp(&plan.delta_pos) {
                std::cmp::Ordering::Less => Role::Full,
                std::cmp::Ordering::Equal => Role::Delta,
                std::cmp::Ordering::Greater => Role::Old,
            },
        };
        let (lo, hi) = facts.range(lit.pred_slot, lit_role);
        if lo >= hi {
            return Ok(());
        }
        if lit.handle != NO_INDEX {
            let mark = self.key_buf.len();
            for &p in lit.bound.iter() {
                let value = match lit.specs[p as usize] {
                    ArgSpec::Ground(id) => id,
                    ArgSpec::Slot(s) => self.bindings[s as usize],
                    ArgSpec::Compound(_) => unreachable!("compound args never join signatures"),
                };
                debug_assert_ne!(value, UNBOUND, "bound signature slot unbound");
                self.key_buf.push(value);
            }
            self.stats.index_probes += 1;
            let posting = facts.posting(lit.handle, &self.key_buf[mark..]);
            self.key_buf.truncate(mark);
            // Sorted posting list: the role restriction is a contiguous
            // sub-range, not a filter over the whole list.
            let a = posting.partition_point(|&r| r < lo);
            let b = posting.partition_point(|&r| r < hi);
            for &row in &posting[a..b] {
                self.try_row(run, plan, tmpl, li, role, row, facts)?;
            }
        } else {
            for row in lo..hi {
                self.try_row(run, plan, tmpl, li, role, row, facts)?;
            }
        }
        Ok(())
    }

    /// Matches plan literal `li` against fact `row` (skipping the
    /// index-guaranteed bound positions), recursing on success and
    /// undoing the slot bindings afterwards.
    #[allow(clippy::too_many_arguments)]
    fn try_row(
        &mut self,
        run: &mut Run<'_>,
        plan: &JoinPlan,
        tmpl: &RuleTemplate,
        li: usize,
        role: Option<Role>,
        row: u32,
        facts: &FactStore,
    ) -> Result<(), GroundingError> {
        let lit = &plan.literals[li];
        self.stats.join_candidates += 1;
        run.tick()?;
        let targs = facts.row_args(lit.pred_slot, row);
        let mark = self.slot_trail.len();
        let mut ok = true;
        let mut bi = 0usize;
        for (p, (&spec, &tgt)) in lit.specs.iter().zip(targs.iter()).enumerate() {
            if bi < lit.bound.len() && lit.bound[bi] as usize == p {
                // The index key already pinned this position.
                bi += 1;
                continue;
            }
            let matched = match spec {
                // Hash-consing: id equality is structural equality, so
                // deep ground terms (numerals) compare in O(1).
                ArgSpec::Ground(id) => id == tgt,
                ArgSpec::Slot(s) => {
                    let cur = self.bindings[s as usize];
                    if cur == UNBOUND {
                        self.bindings[s as usize] = tgt;
                        self.slot_trail.push(s);
                        true
                    } else {
                        cur == tgt
                    }
                }
                ArgSpec::Compound(pat) => match_compound(
                    run.store,
                    pat,
                    tgt,
                    &tmpl.var_slots,
                    &mut self.bindings,
                    &mut self.slot_trail,
                ),
            };
            if !matched {
                ok = false;
                break;
            }
        }
        if ok {
            self.matched_buf[lit.orig as usize] = facts.row_atom(lit.pred_slot, row);
            self.exec(run, plan, tmpl, li + 1, role, facts)?;
        }
        while self.slot_trail.len() > mark {
            let s = self
                .slot_trail
                .pop()
                .expect("slot trail mark within bounds");
            self.bindings[s as usize] = UNBOUND;
        }
        Ok(())
    }

    /// Enumerates the rule's residual slots over the universe, emitting
    /// the instance when all are bound.
    pub(crate) fn enumerate_residual(
        &mut self,
        run: &mut Run<'_>,
        tmpl: &RuleTemplate,
        j: usize,
    ) -> Result<(), GroundingError> {
        let Some(&slot) = tmpl.residual.get(j) else {
            return self.emit_template(run, tmpl);
        };
        for u in 0..self.universe.len() {
            run.tick()?;
            self.bindings[slot as usize] = self.universe[u];
            self.enumerate_residual(run, tmpl, j + 1)?;
        }
        self.bindings[slot as usize] = UNBOUND;
        Ok(())
    }

    /// Resolves one template argument to its ground term.
    fn resolve_spec(&self, store: &mut TermStore, spec: ArgSpec, tmpl: &RuleTemplate) -> TermId {
        match spec {
            ArgSpec::Ground(id) => id,
            ArgSpec::Slot(s) => {
                let t = self.bindings[s as usize];
                debug_assert_ne!(t, UNBOUND, "unbound slot at emit");
                t
            }
            ArgSpec::Compound(t) => self.resolve_compound(store, t, tmpl),
        }
    }

    /// Substitutes slot values into a non-ground compound argument,
    /// interning the new terms (cold path: function symbols only).
    fn resolve_compound(&self, store: &mut TermStore, t: TermId, tmpl: &RuleTemplate) -> TermId {
        if store.is_ground(t) {
            return t;
        }
        match store.term(t).clone() {
            Term::Var(v) => {
                let b = self.bindings[tmpl.var_slots[&v] as usize];
                debug_assert_ne!(b, UNBOUND, "unbound variable at emit");
                b
            }
            Term::App(f, args) => {
                let new_args: Vec<TermId> = args
                    .iter()
                    .map(|&a| self.resolve_compound(store, a, tmpl))
                    .collect();
                store.app(f, &new_args)
            }
        }
    }

    /// Emits the instance under the current bindings: the positive body
    /// ids come straight from the matched fact rows; only the head and
    /// the negative body atoms are resolved and interned.
    fn emit_template(
        &mut self,
        run: &mut Run<'_>,
        tmpl: &RuleTemplate,
    ) -> Result<(), GroundingError> {
        // Resolve before interning anything: an instance that escapes
        // the bounded universe must leave no trace in the atom table.
        // (Positive body atoms are matched fact rows, i.e. previously
        // emitted heads, so they are within depth by induction.)
        self.head_buf.clear();
        for i in 0..tmpl.head.args.len() {
            let t = self.resolve_spec(run.store, tmpl.head.args[i], tmpl);
            self.head_buf.push(t);
        }
        if self.exceeds_depth(run.store, &self.head_buf) {
            return Ok(());
        }
        self.body_buf.clear();
        for ni in 0..tmpl.neg.len() {
            let start = self.body_buf.len();
            for ai in 0..tmpl.neg[ni].args.len() {
                let t = self.resolve_spec(run.store, tmpl.neg[ni].args[ai], tmpl);
                self.body_buf.push(t);
            }
            if self.exceeds_depth(run.store, &self.body_buf[start..]) {
                return Ok(());
            }
        }
        let head_id = self.gp.intern_atom_parts(tmpl.head.pred, &self.head_buf);
        self.neg_buf.clear();
        let mut off = 0usize;
        for nt in tmpl.neg.iter() {
            let n = nt.args.len();
            let id = self
                .gp
                .intern_atom_parts(nt.pred, &self.body_buf[off..off + n]);
            off += n;
            self.neg_buf.push(id);
        }
        self.push_unique(
            run,
            head_id,
            tmpl.n_pos as usize,
            tmpl.table_dedup,
            FactKind::Permanent,
        )
    }

    /// Emits the ground fact `head` as a fact clause of `kind`.
    pub(crate) fn emit_ground_fact(
        &mut self,
        run: &mut Run<'_>,
        head: &Atom,
        kind: FactKind,
    ) -> Result<(), GroundingError> {
        let head_id = self.gp.intern_atom_parts(head.pred, &head.args);
        self.neg_buf.clear();
        self.push_unique(run, head_id, 0, false, kind)
    }

    /// Dedups and stores the clause `head ← matched_buf[..n_pos],
    /// ¬neg_buf`, queueing a first-time head through the delta — the one
    /// emission step of the kernel and of the reference instantiations.
    ///
    /// Fact-shaped instances (empty body) dedup by head atom alone — two
    /// such clauses are equal iff their heads are — in the space `kind`
    /// names. Bodied instances consult the id-triple clause table only
    /// when `use_table` says a colliding rule may exist (see
    /// `RuleTemplate::table_dedup`); planned semi-naive enumeration is
    /// duplicate-free within one rule.
    pub(crate) fn push_unique(
        &mut self,
        run: &mut Run<'_>,
        head_id: GroundAtomId,
        n_pos: usize,
        use_table: bool,
        kind: FactKind,
    ) -> Result<(), GroundingError> {
        run.tick()?;
        if n_pos == 0 && self.neg_buf.is_empty() {
            // A session may switch a source clause off, so a permanent
            // duplicate must get its own always-on clause, and vice
            // versa — a later `assert` over a permanent clause still
            // needs a switchable one to retract.
            let duplicate = match (self.persistent, kind) {
                (false, _) => *flag(&mut self.fact_seen, head_id),
                (true, FactKind::Source) => self.fact_clause.contains_key(&head_id.0),
                (true, FactKind::Permanent) => *flag(&mut self.free_fact_seen, head_id),
            };
            if duplicate {
                self.stats.dedup_hits += 1;
                return Ok(());
            }
            return self.emit_fact(head_id, kind);
        }
        if use_table {
            let pos = &self.matched_buf[..n_pos];
            let neg = &self.neg_buf;
            let hash = clause_hash(head_id.0, pos, neg);
            let gp = &self.gp;
            let eq = |ci: u32| {
                let c = gp.clause(ci);
                c.head == head_id && c.pos == pos && c.neg == &neg[..]
            };
            let ci = gp.clause_count() as u32;
            if (ci as usize) >= self.opts.max_clauses {
                // At the budget only duplicates may still arrive cleanly.
                if self.clause_table.find(hash, eq).is_some() {
                    self.stats.dedup_hits += 1;
                    return Ok(());
                }
                return Err(GroundingError::ClauseBudget(self.opts.max_clauses));
            }
            let existing = self.clause_table.find_or_insert(hash, ci, eq, |i| {
                let c = gp.clause(i);
                clause_hash(c.head.0, c.pos, c.neg)
            });
            if existing.is_some() {
                self.stats.dedup_hits += 1;
                return Ok(());
            }
        } else if self.gp.clause_count() >= self.opts.max_clauses {
            return Err(GroundingError::ClauseBudget(self.opts.max_clauses));
        }
        self.gp
            .push_clause_parts(head_id, &self.matched_buf[..n_pos], &self.neg_buf);
        self.queue_derivable(head_id);
        Ok(())
    }

    /// Emits the fact clause for a head already known novel in its
    /// `kind`'s space: budget check, dedup mark, clause push, delta
    /// queue — the tail of [`Emission::push_unique`]'s fact branch.
    fn emit_fact(&mut self, head_id: GroundAtomId, kind: FactKind) -> Result<(), GroundingError> {
        if self.gp.clause_count() >= self.opts.max_clauses {
            return Err(GroundingError::ClauseBudget(self.opts.max_clauses));
        }
        match (self.persistent, kind) {
            (false, _) => *flag(&mut self.fact_seen, head_id) = true,
            (true, FactKind::Source) => {
                let ci = u32::try_from(self.gp.clause_count()).expect("ground clause overflow");
                self.fact_clause.insert(head_id.0, ci);
            }
            (true, FactKind::Permanent) => *flag(&mut self.free_fact_seen, head_id) = true,
        }
        self.gp.push_clause_parts(head_id, &[], &[]);
        self.queue_derivable(head_id);
        Ok(())
    }

    /// Marks `head_id` derivable, queueing it through the delta on the
    /// first derivation.
    fn queue_derivable(&mut self, head_id: GroundAtomId) {
        let derivable = flag(&mut self.derivable, head_id);
        if !*derivable {
            *derivable = true;
            self.new_atoms.push(head_id);
        }
    }

    pub(crate) fn exceeds_depth(&self, store: &TermStore, args: &[TermId]) -> bool {
        self.max_depth != u32::MAX && args.iter().any(|&t| store.depth(t) > self.max_depth)
    }
}

/// The per-atom flag of `id`, growing the (dense, lazily sized) flag
/// vector to cover it.
fn flag(flags: &mut Vec<bool>, id: GroundAtomId) -> &mut bool {
    if flags.len() <= id.index() {
        flags.resize(id.index() + 1, false);
    }
    &mut flags[id.index()]
}

/// Structurally matches a non-ground compound pattern (e.g. `s(X)`)
/// against a ground target, binding pattern variables into the rule's
/// dense slots and recording each new binding on the slot trail. The
/// cold path of [`Emission::try_row`] — only reachable in programs with
/// function symbols.
fn match_compound(
    store: &TermStore,
    pat: TermId,
    tgt: TermId,
    var_slots: &FxHashMap<Var, u32>,
    bindings: &mut [TermId],
    slot_trail: &mut Vec<u32>,
) -> bool {
    if store.is_ground(pat) {
        // Hash-consing: ground ids are equal iff the terms are.
        return pat == tgt;
    }
    match store.term(pat) {
        Term::Var(v) => {
            let s = var_slots[v] as usize;
            let cur = bindings[s];
            if cur == UNBOUND {
                bindings[s] = tgt;
                slot_trail.push(s as u32);
                true
            } else {
                cur == tgt
            }
        }
        Term::App(f, pargs) => match store.term(tgt) {
            Term::App(g, targs) if f == g && pargs.len() == targs.len() => {
                // Clone the id slices (Copy elements) so we can recurse
                // while mutating the bindings.
                let pargs: Vec<TermId> = pargs.to_vec();
                let targs: Vec<TermId> = targs.to_vec();
                pargs
                    .into_iter()
                    .zip(targs)
                    .all(|(p, t)| match_compound(store, p, t, var_slots, bindings, slot_trail))
            }
            _ => false,
        },
    }
}
