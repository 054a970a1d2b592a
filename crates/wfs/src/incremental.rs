//! Difference-driven reduct least fixpoints — the incremental mode of
//! the propagation substrate.
//!
//! The alternating fixpoint, the `V_P` stages, and every other engine
//! that iterates `A(S)` evaluate long chains of reduct fixpoints whose
//! negative contexts differ in only a few atoms. The full-recompute path
//! ([`crate::propagator::Propagator::lfp_into`]) pays O(program) per
//! call regardless: it template-copies every counter and rescans every
//! clause with negative literals. [`IncrementalLfp`] instead keeps the
//! previous call's state alive — the missing-positive counters, the
//! derived set, and an owned copy of the context — and on the next call
//! diffs the new context against the stored one word-by-word,
//! re-enqueueing only the clauses reachable from *changed* atoms through
//! the `watch_neg` CSR index:
//!
//! * a clause whose blockers all left the context is **revived**: its
//!   counter is recomputed against the live derived set and, when
//!   already complete, its head re-enters the work queue;
//! * a clause whose blocker entered the context is **re-deleted**; if it
//!   was satisfied, the derivation it provided is invalidated and the
//!   dependent cone is retracted by delete-and-rederive: overdelete
//!   through `watch_pos` (removing every atom whose derivation used a
//!   retracted atom, which correctly kills positive support cycles that
//!   reference counting alone would keep alive), then re-derive the
//!   overdeleted atoms that still have surviving support.
//!
//! The result equals a from-scratch `lfp_into` on every call (the
//! workspace property tests compare them on random programs and random
//! context walks); the work per call is proportional to the *change*
//! between contexts plus the size of the affected cone, not to program
//! size. After the first (priming) call, `evaluate` performs zero heap
//! allocation once its scratch vectors have reached steady capacity.
//!
//! Both readings of a negative literal are supported ([`NegMode`]), so
//! one type serves the Gelfond–Lifschitz chains (`A(S)`, blockers are
//! context members) and the `T̄^ω(S⁻)` chains of the `V_P` iteration
//! (blockers are context non-members).

use crate::bitset::BitSet;
use gsls_ground::{GroundAtomId, GroundProgram};
use gsls_par::govern::{Guard, InterruptCause};

/// Sentinel marking a clause deleted under the current context.
const DEAD: u32 = u32::MAX;

/// How a negative body literal `¬q` reads the context set `S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegMode {
    /// `¬q` is satisfied iff `q ∉ S` — the Gelfond–Lifschitz reduct
    /// `A(S)` of the alternating fixpoint.
    SatisfiedOutside,
    /// `¬q` is satisfied iff `q ∈ S` — the `T̄^ω(S⁻)` reading of
    /// Lemma 4.2, where `S` is a set of already-false atoms.
    SatisfiedInside,
}

/// Work counters for one [`IncrementalLfp`] across its lifetime.
///
/// `clause_checks` is the comparable unit between the incremental and
/// full-recompute paths: the full path examines every clause with
/// negative literals on every call, the incremental path only those
/// reachable from context changes through `watch_neg`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncStats {
    /// Number of `evaluate` calls.
    pub evaluations: u64,
    /// Clause liveness (re)evaluations, including the priming scan.
    pub clause_checks: u64,
    /// Atoms pushed onto a work queue (derivation or retraction).
    pub enqueues: u64,
    /// Clauses revived from `DEAD` (context change or re-enable).
    pub revives: u64,
    /// Atoms overdeleted by delete-and-rederive cascades — the summed
    /// retraction cone size.
    pub retraction_cone: u64,
}

impl IncStats {
    /// Field-wise `self - earlier`, saturating — the per-call (or
    /// per-commit) work when `earlier` was captured before it.
    pub fn delta_since(&self, earlier: &IncStats) -> IncStats {
        IncStats {
            evaluations: self.evaluations.saturating_sub(earlier.evaluations),
            clause_checks: self.clause_checks.saturating_sub(earlier.clause_checks),
            enqueues: self.enqueues.saturating_sub(earlier.enqueues),
            revives: self.revives.saturating_sub(earlier.revives),
            retraction_cone: self.retraction_cone.saturating_sub(earlier.retraction_cone),
        }
    }
}

/// A reduct least fixpoint maintained incrementally across a chain of
/// nearby contexts.
#[derive(Debug, Clone)]
pub struct IncrementalLfp {
    mode: NegMode,
    /// The context the current state reflects (owned copy; diffed
    /// against the caller's set on each call).
    s: BitSet,
    /// The least fixpoint of the reduct w.r.t. `s`.
    out: BitSet,
    out_count: usize,
    /// Per-clause count of positive body occurrences not yet in `out`
    /// (`DEAD` = deleted under the current context). Invariant between
    /// calls, for alive clauses: `missing[ci]` = number of positive
    /// occurrences whose atom is outside `out`.
    missing: Vec<u32>,
    /// Derivation work queue (atoms inserted into `out`, not yet
    /// propagated).
    queue: Vec<u32>,
    /// Atoms retracted during the current call, in retraction order;
    /// doubles as the overdeletion queue (cursor-driven) and the
    /// re-derivation candidate list.
    retracted: Vec<u32>,
    /// Scratch: atoms whose toggle makes them block watching clauses.
    now_blocking: Vec<u32>,
    /// Scratch: atoms whose toggle unblocks watching clauses.
    now_unblocked: Vec<u32>,
    /// Scratch: heads of clauses revived complete (inserted after all
    /// revival counters are computed, so counts never see pending
    /// queue entries).
    revived_heads: Vec<u32>,
    /// Session-level clause switch: a disabled clause is treated as
    /// absent regardless of the context (fact retraction). Distinct
    /// from the `DEAD` counter sentinel, which also encodes
    /// "context-blocked" — a context change must never revive a clause
    /// the session has switched off.
    disabled: Vec<bool>,
    primed: bool,
    /// Whether the latest evaluation's context differed from the stored
    /// one (a priming call always counts as a change).
    context_changed: bool,
    stats: IncStats,
    n_atoms: usize,
    /// Governance guard for the operation in flight (unset outside the
    /// `*_governed` entry points).
    guard: Guard,
    /// Work-tick counter feeding [`Guard::tick`].
    tick: u32,
}

impl IncrementalLfp {
    /// Creates an engine sized to `gp` (which must stay finalized and
    /// unchanged for this engine's lifetime).
    pub fn new(gp: &GroundProgram, mode: NegMode) -> Self {
        assert!(
            gp.is_finalized(),
            "IncrementalLfp requires a finalized GroundProgram"
        );
        let n = gp.atom_count();
        IncrementalLfp {
            mode,
            s: BitSet::new(n),
            out: BitSet::new(n),
            out_count: 0,
            missing: vec![0; gp.clause_count()],
            queue: Vec::new(),
            retracted: Vec::new(),
            now_blocking: Vec::new(),
            now_unblocked: Vec::new(),
            revived_heads: Vec::new(),
            disabled: vec![false; gp.clause_count()],
            primed: false,
            context_changed: false,
            stats: IncStats::default(),
            n_atoms: n,
            guard: Guard::none(),
            tick: 0,
        }
    }

    /// The current fixpoint (valid after the first [`Self::evaluate`];
    /// empty before).
    pub fn out(&self) -> &BitSet {
        &self.out
    }

    /// Number of atoms in the current fixpoint.
    pub fn count(&self) -> usize {
        self.out_count
    }

    /// Lifetime work counters.
    pub fn stats(&self) -> IncStats {
        self.stats
    }

    /// Whether the most recent evaluation was presented a context that
    /// differed *as a set* from the one the engine had stored (a priming
    /// evaluation always counts as changed). An iteration that feeds a
    /// chain its own successive results reads its set-equality stop test
    /// off this: `false` means the presented set equalled the previous
    /// one, at the cost of the word-wise diff the evaluation runs anyway.
    pub fn context_changed(&self) -> bool {
        self.context_changed
    }

    #[inline]
    fn sat(s: &BitSet, mode: NegMode, q: GroundAtomId) -> bool {
        s.contains(q.index()) == (mode == NegMode::SatisfiedInside)
    }

    /// Brings the fixpoint to the reduct of `gp` w.r.t. `context` and
    /// returns its cardinality. The first call computes from scratch;
    /// every later call re-enqueues only clauses reachable from the
    /// context delta through `watch_neg`.
    pub fn evaluate(&mut self, gp: &GroundProgram, context: &BitSet) -> usize {
        self.evaluate_governed(gp, context, &Guard::none())
            .expect("an ungoverned evaluation cannot be interrupted")
    }

    /// [`Self::evaluate`] under a governance [`Guard`]: the fixpoint
    /// loops check the guard every [`gsls_par::govern::TICK_INTERVAL`]
    /// work units and bail out with the trip cause. An interrupted
    /// engine is left **unprimed** — its partial counters are
    /// inconsistent, so the next evaluation re-primes from scratch; the
    /// engine is never poisoned.
    pub fn evaluate_governed(
        &mut self,
        gp: &GroundProgram,
        context: &BitSet,
        guard: &Guard,
    ) -> Result<usize, InterruptCause> {
        self.governed(guard, |lfp| lfp.evaluate_inner(gp, context))
    }

    /// Runs one state-changing operation under `guard`. A trip leaves the
    /// engine **unprimed**: its partial counters are inconsistent, so the
    /// next evaluation re-primes from scratch.
    fn governed<T>(
        &mut self,
        guard: &Guard,
        op: impl FnOnce(&mut Self) -> Result<T, InterruptCause>,
    ) -> Result<T, InterruptCause> {
        self.guard = guard.clone();
        let r = op(self);
        self.guard = Guard::none();
        if r.is_err() {
            self.primed = false;
        }
        r
    }

    fn evaluate_inner(
        &mut self,
        gp: &GroundProgram,
        context: &BitSet,
    ) -> Result<usize, InterruptCause> {
        debug_assert_eq!(self.missing.len(), gp.clause_count(), "program changed");
        debug_assert_eq!(self.n_atoms, gp.atom_count(), "program changed");
        debug_assert_eq!(context.capacity(), self.n_atoms);
        self.stats.evaluations += 1;
        self.context_changed = if self.primed {
            self.update(gp, context)?
        } else {
            self.prime(gp, context)?;
            true
        };
        Ok(self.out_count)
    }

    /// The from-scratch first call: identical structure to
    /// `Propagator::lfp_into`, but leaves counters/out/context alive for
    /// the incremental calls that follow.
    fn prime(&mut self, gp: &GroundProgram, context: &BitSet) -> Result<(), InterruptCause> {
        self.s.copy_from(context);
        self.out.clear();
        self.out_count = 0;
        self.queue.clear();
        self.stats.clause_checks += gp.clause_count() as u64;
        for (ci, c) in gp.clauses().enumerate() {
            self.guard.tick(&mut self.tick)?;
            if !self.disabled[ci] && c.neg.iter().all(|&q| Self::sat(&self.s, self.mode, q)) {
                self.missing[ci] = c.pos.len() as u32;
                if c.pos.is_empty() {
                    self.insert(c.head);
                }
            } else {
                self.missing[ci] = DEAD;
            }
        }
        self.propagate(gp)?;
        self.primed = true;
        Ok(())
    }

    /// One delta step: diff the stored context against `context`, flip
    /// clause liveness through `watch_neg`, retract the cone of broken
    /// derivations, revive and re-derive, then drain the queue. Returns
    /// whether the two contexts differed at all.
    fn update(&mut self, gp: &GroundProgram, context: &BitSet) -> Result<bool, InterruptCause> {
        // Phase 1: word-wise diff into "now blocks its watchers" /
        // "no longer blocks its watchers" atom lists.
        self.now_blocking.clear();
        self.now_unblocked.clear();
        let inside = self.mode == NegMode::SatisfiedInside;
        for (wi, (&sw, &nw)) in self.s.words().iter().zip(context.words()).enumerate() {
            let mut diff = sw ^ nw;
            while diff != 0 {
                let bit = diff.trailing_zeros();
                diff &= diff - 1;
                let a = (wi * 64) as u32 + bit;
                let now_in = nw & (1u64 << bit) != 0;
                if now_in != inside {
                    self.now_blocking.push(a);
                } else {
                    self.now_unblocked.push(a);
                }
            }
        }
        if self.now_blocking.is_empty() && self.now_unblocked.is_empty() {
            return Ok(false);
        }
        self.s.copy_from(context);

        // Phase 2: re-delete clauses that gained a blocker. A deleted
        // clause that was satisfied invalidates one derivation of its
        // head: overdelete the head and cascade through watch_pos
        // (delete-and-rederive; support counting alone would keep
        // positive cycles alive).
        self.retracted.clear();
        let heads = gp.heads();
        for i in 0..self.now_blocking.len() {
            let q = self.now_blocking[i];
            self.guard.tick(&mut self.tick)?;
            for &ci in gp.watch_neg(GroundAtomId(q)) {
                let m = self.missing[ci as usize];
                if m == DEAD {
                    continue;
                }
                self.stats.clause_checks += 1;
                self.missing[ci as usize] = DEAD;
                if m == 0 {
                    self.retract(heads[ci as usize]);
                }
            }
        }
        self.cascade_retractions(gp)?;

        // Phase 3a: revive clauses that lost their last blocker,
        // recomputing counters against the (post-retraction) derived
        // set. No insertions happen here: counters computed from `out`
        // must never see atoms that are pending in the queue, or the
        // later queue drain would decrement them twice.
        self.revived_heads.clear();
        for i in 0..self.now_unblocked.len() {
            let q = self.now_unblocked[i];
            self.guard.tick(&mut self.tick)?;
            for &ci in gp.watch_neg(GroundAtomId(q)) {
                if self.missing[ci as usize] != DEAD || self.disabled[ci as usize] {
                    continue;
                }
                self.stats.clause_checks += 1;
                let c = gp.clause(ci);
                if !c.neg.iter().all(|&b| Self::sat(&self.s, self.mode, b)) {
                    continue; // still blocked by another context atom
                }
                let m = c
                    .pos
                    .iter()
                    .filter(|&&p| !self.out.contains(p.index()))
                    .count() as u32;
                self.missing[ci as usize] = m;
                self.stats.revives += 1;
                if m == 0 {
                    self.revived_heads.push(c.head.0);
                }
            }
        }
        // Phase 3b: insert the heads of complete revived clauses.
        for i in 0..self.revived_heads.len() {
            let h = self.revived_heads[i];
            self.insert(GroundAtomId(h));
        }

        self.rederive_retracted(gp)?;

        // Phase 5: drain the derivation queue.
        self.propagate(gp)?;
        Ok(true)
    }

    /// Overdeletes the dependent cone of everything on `self.retracted`
    /// (cursor-driven, so retractions enqueued mid-walk are processed
    /// too) — the delete half of delete-and-rederive.
    fn cascade_retractions(&mut self, gp: &GroundProgram) -> Result<(), InterruptCause> {
        let heads = gp.heads();
        let watch_pos = gp.watch_pos_index();
        let mut cursor = 0;
        while cursor < self.retracted.len() {
            let a = self.retracted[cursor];
            cursor += 1;
            self.guard.tick(&mut self.tick)?;
            for &ci in watch_pos.row(a as usize) {
                let m = &mut self.missing[ci as usize];
                if *m == DEAD {
                    continue;
                }
                let was_satisfied = *m == 0;
                *m += 1;
                if was_satisfied {
                    self.retract(heads[ci as usize]);
                }
            }
        }
        Ok(())
    }

    /// Re-derives overdeleted atoms with surviving support — an alive
    /// clause whose counter is zero derives its head outright; the rest
    /// (re)complete during propagation, if at all.
    fn rederive_retracted(&mut self, gp: &GroundProgram) -> Result<(), InterruptCause> {
        for i in 0..self.retracted.len() {
            let a = self.retracted[i];
            self.guard.tick(&mut self.tick)?;
            if self.out.contains(a as usize) {
                continue;
            }
            if gp
                .clauses_for(GroundAtomId(a))
                .iter()
                .any(|&ci| self.missing[ci as usize] == 0)
            {
                self.insert(GroundAtomId(a));
            }
        }
        Ok(())
    }

    /// Absorbs program growth: `gp` may have appended atoms and clauses
    /// since the last call (earlier ids and clause indices must be
    /// unchanged — the grounder's append-only contract). New clauses
    /// come up enabled; their liveness is evaluated against the stored
    /// context and the fixpoint is re-closed, so the state invariant
    /// ("`out` is the reduct lfp of `gp` w.r.t. the stored context")
    /// holds again on return. Callers must still present contexts of
    /// the *new* atom capacity to subsequent [`Self::evaluate`] calls.
    pub fn grow(&mut self, gp: &GroundProgram) {
        self.grow_governed(gp, &Guard::none())
            .expect("an ungoverned grow cannot be interrupted")
    }

    /// [`Self::grow`] under a governance [`Guard`]: the re-closing
    /// propagation polls it like an evaluation does. A trip leaves the
    /// engine resized to `gp` but **unprimed**, exactly as
    /// [`Self::evaluate_governed`] does.
    pub fn grow_governed(
        &mut self,
        gp: &GroundProgram,
        guard: &Guard,
    ) -> Result<(), InterruptCause> {
        assert!(
            gp.is_finalized(),
            "IncrementalLfp::grow requires a finalized GroundProgram"
        );
        let n = gp.atom_count();
        let nc = gp.clause_count();
        assert!(
            n >= self.n_atoms && nc >= self.missing.len(),
            "GroundProgram shrank under an IncrementalLfp"
        );
        let old_nc = self.missing.len();
        self.s.grow(n);
        self.out.grow(n);
        self.n_atoms = n;
        self.missing.resize(nc, 0);
        self.disabled.resize(nc, false);
        if !self.primed || old_nc == nc {
            return Ok(());
        }
        self.governed(guard, |lfp| lfp.absorb_clauses(gp, old_nc as u32))
    }

    /// Evaluates the clauses appended from index `first` on against the
    /// stored context and re-closes the fixpoint. Two-phase like
    /// revival: compute every new counter against the pre-insertion
    /// `out`, then insert complete heads, then propagate — counters must
    /// never see pending queue entries.
    fn absorb_clauses(&mut self, gp: &GroundProgram, first: u32) -> Result<(), InterruptCause> {
        self.revived_heads.clear();
        for ci in first..gp.clause_count() as u32 {
            self.guard.tick(&mut self.tick)?;
            self.stats.clause_checks += 1;
            let c = gp.clause(ci);
            if c.neg.iter().all(|&q| Self::sat(&self.s, self.mode, q)) {
                let m = c
                    .pos
                    .iter()
                    .filter(|&&p| !self.out.contains(p.index()))
                    .count() as u32;
                self.missing[ci as usize] = m;
                if m == 0 {
                    self.revived_heads.push(c.head.0);
                }
            } else {
                self.missing[ci as usize] = DEAD;
            }
        }
        for i in 0..self.revived_heads.len() {
            let h = self.revived_heads[i];
            self.insert(GroundAtomId(h));
        }
        self.propagate(gp)
    }

    /// The inverse of [`Self::grow`]: cuts the engine back to the first
    /// `n_atoms` atoms and `n_clauses` clauses of the program it grew
    /// over — a prefix the append-only contract makes a program of its
    /// own (a clause below the cut mentions no atom past it). A no-op
    /// for an engine that never grew past the cut, whatever `gp` holds.
    ///
    /// A **primed** engine that absorbed the suffix first switches the
    /// dropped clauses off through the delete-and-rederive path of
    /// [`Self::set_clauses_enabled`] — work proportional to their cone —
    /// so the state invariant holds for the prefix program against the
    /// stored context; `gp` must then still be the *uncut*, finalized
    /// program. An unprimed engine just truncates and re-primes on its
    /// next evaluation, as it would have anyway.
    pub fn shrink_to(&mut self, gp: &GroundProgram, n_atoms: usize, n_clauses: usize) {
        let nc = self.missing.len();
        if n_clauses < nc {
            if self.primed {
                assert_eq!(
                    (gp.clause_count(), gp.atom_count()),
                    (nc, self.n_atoms),
                    "shrink_to needs the program this engine grew over"
                );
                self.disabled[n_clauses..].fill(true);
                let dropped: Vec<u32> = (n_clauses as u32..nc as u32).collect();
                self.switch_clauses(gp, &dropped, &[])
                    .expect("an ungoverned clause switch cannot be interrupted");
            }
            self.missing.truncate(n_clauses);
            self.disabled.truncate(n_clauses);
        }
        if n_atoms < self.n_atoms {
            // No dropped atom is derived any more: only dropped clauses
            // had one for a head.
            self.s.truncate(n_atoms);
            self.out.truncate(n_atoms);
            self.n_atoms = n_atoms;
            debug_assert!(!self.primed || self.out.count() == self.out_count);
        }
    }

    /// Whether the engine holds a fixpoint for its stored context — false
    /// before the first evaluation and after an interrupted operation,
    /// when the next evaluation computes from scratch.
    pub fn is_primed(&self) -> bool {
        self.primed
    }

    /// Switches clauses off (`disable`) and back on (`enable`) — the
    /// session's fact-retraction hook, though any clause index works.
    /// Disabling an alive satisfied clause retracts its head's
    /// derivation through the same delete-and-rederive cascade a
    /// context change uses; enabling re-evaluates the clause against
    /// the stored context. Indices may repeat; a disable and enable of
    /// the same clause in one call resolves to its `enable` membership.
    pub fn set_clauses_enabled(&mut self, gp: &GroundProgram, disable: &[u32], enable: &[u32]) {
        self.set_clauses_enabled_governed(gp, disable, enable, &Guard::none())
            .expect("an ungoverned clause switch cannot be interrupted")
    }

    /// [`Self::set_clauses_enabled`] under a governance [`Guard`]: the
    /// delete-and-rederive cascade polls it. A trip leaves the switches
    /// recorded and the engine **unprimed** (the re-priming scan reads
    /// them), exactly as [`Self::evaluate_governed`] does.
    pub fn set_clauses_enabled_governed(
        &mut self,
        gp: &GroundProgram,
        disable: &[u32],
        enable: &[u32],
        guard: &Guard,
    ) -> Result<(), InterruptCause> {
        for &ci in disable {
            self.disabled[ci as usize] = true;
        }
        for &ci in enable {
            self.disabled[ci as usize] = false;
        }
        if !self.primed {
            return Ok(()); // prime() reads `disabled` directly
        }
        self.governed(guard, |lfp| lfp.switch_clauses(gp, disable, enable))
    }

    /// Brings the fixpoint in line with freshly recorded clause switches.
    fn switch_clauses(
        &mut self,
        gp: &GroundProgram,
        disable: &[u32],
        enable: &[u32],
    ) -> Result<(), InterruptCause> {
        self.retracted.clear();
        let heads = gp.heads();
        for &ci in disable {
            self.guard.tick(&mut self.tick)?;
            if !self.disabled[ci as usize] {
                continue; // re-enabled later in the same batch
            }
            let m = self.missing[ci as usize];
            if m == DEAD {
                continue; // already context-blocked (or doubly listed)
            }
            self.stats.clause_checks += 1;
            self.missing[ci as usize] = DEAD;
            if m == 0 {
                self.retract(heads[ci as usize]);
            }
        }
        self.cascade_retractions(gp)?;
        self.revived_heads.clear();
        for &ci in enable {
            self.guard.tick(&mut self.tick)?;
            if self.disabled[ci as usize] || self.missing[ci as usize] != DEAD {
                continue; // still off, or already alive
            }
            self.stats.clause_checks += 1;
            let c = gp.clause(ci);
            if !c.neg.iter().all(|&b| Self::sat(&self.s, self.mode, b)) {
                continue; // blocked by the context, not the switch
            }
            let m = c
                .pos
                .iter()
                .filter(|&&p| !self.out.contains(p.index()))
                .count() as u32;
            self.missing[ci as usize] = m;
            self.stats.revives += 1;
            if m == 0 {
                self.revived_heads.push(c.head.0);
            }
        }
        for i in 0..self.revived_heads.len() {
            let h = self.revived_heads[i];
            self.insert(GroundAtomId(h));
        }
        self.rederive_retracted(gp)?;
        self.propagate(gp)
    }

    #[inline]
    fn insert(&mut self, a: GroundAtomId) {
        if self.out.insert(a.index()) {
            self.out_count += 1;
            self.stats.enqueues += 1;
            self.queue.push(a.0);
        }
    }

    #[inline]
    fn retract(&mut self, a: GroundAtomId) {
        if self.out.remove(a.index()) {
            self.out_count -= 1;
            self.stats.enqueues += 1;
            self.stats.retraction_cone += 1;
            self.retracted.push(a.0);
        }
    }

    /// Standard counter-decrement drain over `watch_pos`.
    fn propagate(&mut self, gp: &GroundProgram) -> Result<(), InterruptCause> {
        let watch = gp.watch_pos_index();
        let heads = gp.heads();
        while let Some(a) = self.queue.pop() {
            self.guard.tick(&mut self.tick)?;
            for &ci in watch.row(a as usize) {
                let m = &mut self.missing[ci as usize];
                if *m == DEAD {
                    continue;
                }
                debug_assert!(*m > 0, "over-decrement in incremental propagation");
                *m -= 1;
                if *m == 0 {
                    let head = heads[ci as usize];
                    if self.out.insert(head.index()) {
                        self.out_count += 1;
                        self.stats.enqueues += 1;
                        self.queue.push(head.0);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagator::Propagator;
    use gsls_ground::testutil::atom_id;
    use gsls_ground::Grounder;
    use gsls_lang::{parse_program, TermStore};

    fn ground(src: &str) -> (TermStore, GroundProgram) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        (s, gp)
    }

    #[test]
    fn incremental_state_is_send() {
        // A session's chains move with it onto the server's writer
        // thread; they share only the immutable program.
        fn assert_send<T: Send>() {}
        assert_send::<IncrementalLfp>();
    }

    /// Oracle: from-scratch propagator fixpoint for the same context.
    fn scratch(gp: &GroundProgram, s: &BitSet, mode: NegMode) -> BitSet {
        let mut prop = Propagator::new(gp);
        let mut out = BitSet::new(gp.atom_count());
        match mode {
            NegMode::SatisfiedOutside => prop.lfp_into(gp, |q| !s.contains(q.index()), &mut out),
            NegMode::SatisfiedInside => prop.lfp_into(gp, |q| s.contains(q.index()), &mut out),
        };
        out
    }

    #[test]
    fn revival_grows_the_fixpoint() {
        let (s, gp) = ground("p :- ~q. r :- p. q :- ~z. t.");
        let n = gp.atom_count();
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        // Context {q}: p's clause deleted.
        let mut ctx = BitSet::new(n);
        ctx.insert(atom_id(&s, &gp, "q").index());
        inc.evaluate(&gp, &ctx);
        assert!(!inc.out().contains(atom_id(&s, &gp, "p").index()));
        // q leaves the context: p and r revive incrementally.
        ctx.clear();
        let count = inc.evaluate(&gp, &ctx);
        assert!(inc.out().contains(atom_id(&s, &gp, "p").index()));
        assert!(inc.out().contains(atom_id(&s, &gp, "r").index()));
        assert_eq!(&scratch(&gp, &ctx, NegMode::SatisfiedOutside), inc.out());
        assert_eq!(count, inc.out().count());
    }

    #[test]
    fn deletion_retracts_the_cone() {
        let (s, gp) = ground("p :- ~q. r :- p. u :- r. t. q :- ~z. z :- ~w.");
        let n = gp.atom_count();
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        // Empty context: everything is derivable.
        let mut ctx = BitSet::new(n);
        inc.evaluate(&gp, &ctx);
        assert!(inc.out().contains(atom_id(&s, &gp, "u").index()));
        // q enters the context: the whole p→r→u cone must retract,
        // while the unrelated t/q/z derivations survive.
        ctx.insert(atom_id(&s, &gp, "q").index());
        inc.evaluate(&gp, &ctx);
        assert!(!inc.out().contains(atom_id(&s, &gp, "p").index()));
        assert!(!inc.out().contains(atom_id(&s, &gp, "r").index()));
        assert!(!inc.out().contains(atom_id(&s, &gp, "u").index()));
        assert!(inc.out().contains(atom_id(&s, &gp, "t").index()));
        assert!(inc.out().contains(atom_id(&s, &gp, "z").index()));
        assert_eq!(&scratch(&gp, &ctx, NegMode::SatisfiedOutside), inc.out());
    }

    #[test]
    fn positive_cycle_support_dies_with_its_base() {
        // a and b support each other positively; the only external base
        // is a :- ~q. Blocking it must retract the whole cycle — the
        // case plain reference counting gets wrong.
        use gsls_ground::{GrounderOpts, GroundingMode};
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "a :- b. b :- a. a :- ~q. q :- ~z.").unwrap();
        let gp = Grounder::ground_with(
            &mut s,
            &p,
            GrounderOpts {
                mode: GroundingMode::Full,
                ..GrounderOpts::default()
            },
        )
        .unwrap();
        let n = gp.atom_count();
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        let ctx = BitSet::new(n);
        inc.evaluate(&gp, &ctx);
        assert!(inc.out().contains(atom_id(&s, &gp, "a").index()));
        assert!(inc.out().contains(atom_id(&s, &gp, "b").index()));
        let mut ctx2 = BitSet::new(n);
        ctx2.insert(atom_id(&s, &gp, "q").index());
        inc.evaluate(&gp, &ctx2);
        assert!(!inc.out().contains(atom_id(&s, &gp, "a").index()));
        assert!(!inc.out().contains(atom_id(&s, &gp, "b").index()));
        assert_eq!(&scratch(&gp, &ctx2, NegMode::SatisfiedOutside), inc.out());
    }

    #[test]
    fn retraction_keeps_alternative_support() {
        // c has two independent derivations; killing one keeps c.
        let (s, gp) = ground("c :- a. c :- b. a :- ~p. b :- ~q. p :- ~z0. q :- ~z1. d :- c.");
        let n = gp.atom_count();
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        let mut ctx = BitSet::new(n);
        ctx.insert(atom_id(&s, &gp, "p").index());
        ctx.insert(atom_id(&s, &gp, "q").index());
        inc.evaluate(&gp, &ctx);
        // Unblock both a and b.
        ctx.clear();
        inc.evaluate(&gp, &ctx);
        assert!(inc.out().contains(atom_id(&s, &gp, "c").index()));
        // Re-block a only: c survives via b, d survives via c.
        ctx.insert(atom_id(&s, &gp, "p").index());
        inc.evaluate(&gp, &ctx);
        assert!(!inc.out().contains(atom_id(&s, &gp, "a").index()));
        assert!(inc.out().contains(atom_id(&s, &gp, "b").index()));
        assert!(inc.out().contains(atom_id(&s, &gp, "c").index()));
        assert!(inc.out().contains(atom_id(&s, &gp, "d").index()));
        assert_eq!(&scratch(&gp, &ctx, NegMode::SatisfiedOutside), inc.out());
    }

    #[test]
    fn mixed_delta_revive_and_delete_in_one_call() {
        let (s, gp) = ground("p :- ~q. r :- ~w. x :- p, r. q :- ~z0. w :- ~z1.");
        let n = gp.atom_count();
        let q = atom_id(&s, &gp, "q").index();
        let w = atom_id(&s, &gp, "w").index();
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        let mut ctx = BitSet::new(n);
        ctx.insert(q);
        inc.evaluate(&gp, &ctx);
        // One call: q leaves (revives p), w enters (kills r).
        ctx.clear();
        ctx.insert(w);
        inc.evaluate(&gp, &ctx);
        assert!(inc.out().contains(atom_id(&s, &gp, "p").index()));
        assert!(!inc.out().contains(atom_id(&s, &gp, "r").index()));
        assert!(!inc.out().contains(atom_id(&s, &gp, "x").index()));
        assert_eq!(&scratch(&gp, &ctx, NegMode::SatisfiedOutside), inc.out());
    }

    #[test]
    fn inside_mode_matches_scratch() {
        let (s, gp) = ground("p :- ~q. t :- p, ~r. u :- t.");
        let n = gp.atom_count();
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedInside);
        let mut ctx = BitSet::new(n);
        inc.evaluate(&gp, &ctx);
        assert_eq!(&scratch(&gp, &ctx, NegMode::SatisfiedInside), inc.out());
        // q becomes known-false: p derivable.
        ctx.insert(atom_id(&s, &gp, "q").index());
        inc.evaluate(&gp, &ctx);
        assert!(inc.out().contains(atom_id(&s, &gp, "p").index()));
        assert!(!inc.out().contains(atom_id(&s, &gp, "t").index()));
        ctx.insert(atom_id(&s, &gp, "r").index());
        inc.evaluate(&gp, &ctx);
        assert!(inc.out().contains(atom_id(&s, &gp, "u").index()));
        assert_eq!(&scratch(&gp, &ctx, NegMode::SatisfiedInside), inc.out());
    }

    #[test]
    fn random_context_walk_matches_scratch() {
        // A deterministic pseudo-random walk over contexts, including
        // non-monotone flips, duplicate negative literals, and facts —
        // run in both modes so both retraction paths are exercised.
        let (_, gp) = ground(
            "f. p :- ~a, ~a. q :- p, ~b. r :- q, ~c. s :- ~p. \
             t :- s, r. a :- ~d. b :- ~e. c :- f, ~g.",
        );
        let n = gp.atom_count();
        for mode in [NegMode::SatisfiedOutside, NegMode::SatisfiedInside] {
            let mut inc = IncrementalLfp::new(&gp, mode);
            let mut ctx = BitSet::new(n);
            let mut state = 0x9e3779b97f4a7c15u64;
            for step in 0..200 {
                // Flip 1–3 pseudo-random atoms.
                for _ in 0..(1 + step % 3) {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let a = (state >> 33) as usize % n;
                    if ctx.contains(a) {
                        ctx.remove(a);
                    } else {
                        ctx.insert(a);
                    }
                }
                let count = inc.evaluate(&gp, &ctx);
                let oracle = scratch(&gp, &ctx, mode);
                assert_eq!(inc.out(), &oracle, "step {step} ({mode:?})");
                assert_eq!(count, oracle.count(), "step {step} ({mode:?})");
            }
        }
    }

    #[test]
    fn unchanged_context_is_a_no_op() {
        let (_, gp) = ground("p :- ~q. r :- p.");
        let n = gp.atom_count();
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        let ctx = BitSet::new(n);
        let c1 = inc.evaluate(&gp, &ctx);
        let checks_after_prime = inc.stats().clause_checks;
        let c2 = inc.evaluate(&gp, &ctx);
        assert_eq!(c1, c2);
        assert_eq!(
            inc.stats().clause_checks,
            checks_after_prime,
            "no clause may be re-checked for an identical context"
        );
    }

    #[test]
    fn interrupted_evaluation_reprimes_cleanly() {
        use gsls_par::govern::{Guard, InterruptCause};
        // Enough clauses that the priming scan crosses a tick interval
        // and performs a real guard check.
        let mut src = String::new();
        for i in 0..1500 {
            src.push_str(&format!("f{i}.\n"));
        }
        src.push_str("p :- ~q, f0. r :- p.");
        let (s, gp) = ground(&src);
        let ctx = BitSet::new(gp.atom_count());
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        let tripping = Guard::builder().fuel(0).build();
        assert_eq!(
            inc.evaluate_governed(&gp, &ctx, &tripping),
            Err(InterruptCause::Cancelled)
        );
        // The engine re-primes on the next call instead of trusting the
        // torn counters — both governed (with ample fuel) and plain
        // evaluations must match the scratch oracle.
        let roomy = Guard::builder().fuel(u64::MAX - 1).build();
        let count = inc.evaluate_governed(&gp, &ctx, &roomy).unwrap();
        let oracle = scratch(&gp, &ctx, NegMode::SatisfiedOutside);
        assert_eq!(inc.out(), &oracle);
        assert_eq!(count, oracle.count());
        assert!(inc.out().contains(atom_id(&s, &gp, "r").index()));
        let count2 = inc.evaluate(&gp, &ctx);
        assert_eq!(count2, count);
    }

    /// A positive chain long enough that re-closing it (or retracting
    /// it) crosses a tick interval: `c0 :- b. cᵢ₊₁ :- cᵢ.`
    fn long_chain(with_base: bool) -> (TermStore, GroundProgram) {
        let mut src = String::from(if with_base { "b.\n" } else { "" });
        src.push_str("c0 :- b.\n");
        for i in 0..1500 {
            src.push_str(&format!("c{} :- c{i}.\n", i + 1));
        }
        let mut s = TermStore::new();
        let p = parse_program(&mut s, &src).unwrap();
        let gp = Grounder::ground_with(
            &mut s,
            &p,
            gsls_ground::GrounderOpts {
                mode: gsls_ground::GroundingMode::Full,
                ..Default::default()
            },
        )
        .unwrap();
        (s, gp)
    }

    #[test]
    fn interrupted_grow_and_switch_reprime_cleanly() {
        use gsls_par::govern::{Guard, InterruptCause};
        let tripping = Guard::builder().fuel(0).build();

        // Switch: retracting the base fact cascades down the chain.
        let (s, gp) = long_chain(true);
        assert!(gp.clause(0).is_fact());
        let ctx = BitSet::new(gp.atom_count());
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        inc.evaluate(&gp, &ctx);
        assert!(inc.out().contains(atom_id(&s, &gp, "c1500").index()));
        assert_eq!(
            inc.set_clauses_enabled_governed(&gp, &[0], &[], &tripping),
            Err(InterruptCause::Cancelled)
        );
        // The switch is recorded; the torn counters are not trusted.
        inc.evaluate(&gp, &ctx);
        assert_eq!(
            &scratch_disabled(&gp, &ctx, NegMode::SatisfiedOutside, &[0]),
            inc.out()
        );
        assert!(inc.out().is_empty());

        // Grow: appending the base fact derives the whole chain.
        let (s, mut gp) = long_chain(false);
        let ctx = BitSet::new(gp.atom_count());
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        inc.evaluate(&gp, &ctx);
        assert!(inc.out().is_empty());
        gp.push_clause_parts(atom_id(&s, &gp, "b"), &[], &[]);
        gp.finalize();
        assert_eq!(
            inc.grow_governed(&gp, &tripping),
            Err(InterruptCause::Cancelled)
        );
        // Resized to the grown program, unprimed.
        inc.evaluate(&gp, &ctx);
        assert_eq!(&scratch(&gp, &ctx, NegMode::SatisfiedOutside), inc.out());
        assert!(inc.out().contains(atom_id(&s, &gp, "c1500").index()));
    }

    #[test]
    fn grow_absorbs_appended_clauses_and_atoms() {
        // Start from a small program, prime, then append clauses (and a
        // fresh atom) the way the session grounder does, grow, and
        // compare against a scratch solve of the grown program at every
        // context — including contexts touching the new atoms.
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "p :- ~q. r :- p.").unwrap();
        let mut gp = Grounder::ground(&mut s, &p).unwrap();
        let n0 = gp.atom_count();
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        let ctx = BitSet::new(n0);
        inc.evaluate(&gp, &ctx);
        // Append: new fact t., new rule u :- r, ~w. (w is a new atom).
        let t = gp.intern_atom(gsls_lang::Atom::new(s.intern_symbol("t"), Vec::new()));
        let u = gp.intern_atom(gsls_lang::Atom::new(s.intern_symbol("u"), Vec::new()));
        let w = gp.intern_atom(gsls_lang::Atom::new(s.intern_symbol("w"), Vec::new()));
        let r = atom_id(&s, &gp, "r");
        gp.push_clause_parts(t, &[], &[]);
        gp.push_clause_parts(u, &[r], &[w]);
        gp.finalize();
        inc.grow(&gp);
        let n = gp.atom_count();
        assert!(n > n0);
        // The grown state must already be the fixpoint for the grown
        // program under the (grown) stored context.
        assert_eq!(
            &scratch(&gp, &BitSet::new(n), NegMode::SatisfiedOutside),
            inc.out()
        );
        assert!(inc.out().contains(t.index()));
        assert!(inc.out().contains(u.index()));
        // And later evaluations — including ones flipping new atoms —
        // keep matching scratch.
        let mut ctx = BitSet::new(n);
        ctx.insert(w.index());
        inc.evaluate(&gp, &ctx);
        assert!(!inc.out().contains(u.index()));
        assert_eq!(&scratch(&gp, &ctx, NegMode::SatisfiedOutside), inc.out());
        ctx.insert(atom_id(&s, &gp, "q").index());
        ctx.remove(w.index());
        inc.evaluate(&gp, &ctx);
        assert_eq!(&scratch(&gp, &ctx, NegMode::SatisfiedOutside), inc.out());
    }

    /// Scratch oracle over a program with some clauses disabled: solve a
    /// copy with the disabled clauses omitted, mapped back by identical
    /// atom ids.
    fn scratch_disabled(gp: &GroundProgram, s: &BitSet, mode: NegMode, disabled: &[u32]) -> BitSet {
        let mut copy = GroundProgram::new();
        for a in gp.atom_ids() {
            copy.intern_atom(gp.atom(a).clone());
        }
        for (ci, c) in gp.clauses().enumerate() {
            if !disabled.contains(&(ci as u32)) {
                copy.push_clause_parts(c.head, c.pos, c.neg);
            }
        }
        copy.finalize();
        scratch(&copy, s, mode)
    }

    #[test]
    fn disable_and_enable_clauses_track_scratch() {
        let (s, gp) =
            ground("f. p :- f, ~a. q :- p, ~b. r :- q. c :- c2. c2 :- c. c :- p. a :- ~d.");
        let n = gp.atom_count();
        // Clause 0 is the fact f. — the retraction target.
        assert!(gp.clause(0).is_fact());
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        let mut ctx = BitSet::new(n);
        inc.evaluate(&gp, &ctx);
        assert!(inc.out().contains(atom_id(&s, &gp, "r").index()));
        assert!(inc.out().contains(atom_id(&s, &gp, "c2").index()));
        // Retract f: the whole p→q→r cone and the c/c2 positive cycle
        // fed by p must die (the reference-counting trap).
        inc.set_clauses_enabled(&gp, &[0], &[]);
        assert_eq!(
            &scratch_disabled(&gp, &ctx, NegMode::SatisfiedOutside, &[0]),
            inc.out()
        );
        assert!(!inc.out().contains(atom_id(&s, &gp, "c2").index()));
        // Context changes while the clause is off must not revive it.
        ctx.insert(atom_id(&s, &gp, "a").index());
        inc.evaluate(&gp, &ctx);
        assert_eq!(
            &scratch_disabled(&gp, &ctx, NegMode::SatisfiedOutside, &[0]),
            inc.out()
        );
        ctx.clear();
        inc.evaluate(&gp, &ctx);
        assert_eq!(
            &scratch_disabled(&gp, &ctx, NegMode::SatisfiedOutside, &[0]),
            inc.out()
        );
        assert!(!inc.out().contains(atom_id(&s, &gp, "f").index()));
        // Re-assert f: everything comes back.
        inc.set_clauses_enabled(&gp, &[], &[0]);
        assert_eq!(&scratch(&gp, &ctx, NegMode::SatisfiedOutside), inc.out());
        assert!(inc.out().contains(atom_id(&s, &gp, "r").index()));
        // Disable+enable in one call resolves to enabled.
        inc.set_clauses_enabled(&gp, &[0], &[0]);
        assert_eq!(&scratch(&gp, &ctx, NegMode::SatisfiedOutside), inc.out());
    }

    #[test]
    fn disable_before_priming_respected() {
        let (s, gp) = ground("f. p :- f.");
        let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        inc.set_clauses_enabled(&gp, &[0], &[]);
        let ctx = BitSet::new(gp.atom_count());
        inc.evaluate(&gp, &ctx);
        assert!(!inc.out().contains(atom_id(&s, &gp, "p").index()));
        assert_eq!(
            &scratch_disabled(&gp, &ctx, NegMode::SatisfiedOutside, &[0]),
            inc.out()
        );
    }

    #[test]
    #[should_panic(expected = "finalized")]
    fn unfinalized_program_rejected() {
        let mut gp = GroundProgram::new();
        let mut s = TermStore::new();
        let sym = s.intern_symbol("x");
        gp.intern_atom(gsls_lang::Atom::new(sym, Vec::new()));
        let _ = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
    }
}
