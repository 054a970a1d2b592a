//! The reusable Dowling–Gallier propagation context.
//!
//! Every bottom-up engine in this crate — the alternating fixpoint, the
//! stable-model check, unfounded-set computation, the staged `W_P`/`V_P`
//! iterations, and the tabled engine's SCC-local fixpoints in
//! `gsls-core` — bottoms out in the same linear-time least-fixpoint
//! computation over a [`GroundProgram`]. A [`Propagator`] owns all the
//! scratch that computation needs so that repeated calls perform **zero
//! heap allocation** after the first: the watch lists come from the CSR
//! reverse indexes precomputed by [`GroundProgram::finalize`], and the
//! per-clause state is reset by a bulk copy from a precomputed template,
//! not reallocated.
//!
//! Beyond scratch reuse, [`Propagator::new`] precomputes the
//! reduct-independent structure once per program:
//!
//! * `missing_template` — each clause's positive-body count, restored
//!   per call with one `copy_from_slice`;
//! * `fact_heads` — heads of definite facts, which seed every call's
//!   queue unconditionally;
//! * a flattened side table of the clauses that *have* negative
//!   literals, so the per-call Gelfond–Lifschitz deletion scan touches
//!   only those clauses instead of the whole program.
//!
//! ## Reuse contract
//!
//! * A `Propagator` is sized to one program at [`Propagator::new`] and
//!   may only be used with that program (same atom and clause counts);
//!   debug assertions enforce this.
//! * The program must stay finalized; mutating it invalidates the CSR
//!   indexes and the next call panics.
//! * `lfp_into`/`lfp_alive`/`supported_into` clear the output set
//!   themselves. [`Propagator::lfp_restricted`] is the subset form: the
//!   caller pre-clears exactly the bits its clause subset can set (its
//!   heads) and the call touches no other bits — that is what lets the
//!   tabled engine keep one global-sized scratch set across thousands of
//!   tiny SCC fixpoints without an O(atoms) clear per SCC.
//!
//! Subset liveness uses epoch stamping: each restricted call bumps a
//! counter and stamps its live clauses; stale stamps read as dead, so no
//! O(clauses) reset is ever needed. Full-program calls instead mark
//! reduct-deleted clauses with a `u32::MAX` sentinel in the (freshly
//! template-copied) counter array.
//!
//! Every call here recomputes from scratch (O(program) even for a
//! context that barely moved). Engines that evaluate a *chain* of
//! nearby contexts — the alternating fixpoint, the `V_P` stages — use
//! the substrate's difference-driven mode instead:
//! [`crate::incremental::IncrementalLfp`].
//!
//! ## Threads
//!
//! A `Propagator` holds no interior mutability and no references into
//! the program, so it is `Send` (pinned by a compile-time test): an
//! engine that owns one moves to whichever thread evaluates with it,
//! over a `GroundProgram` threads share by reference (`Sync`). A clone
//! has warm-sized scratch of its own, never aliased.

use crate::bitset::BitSet;
use crate::interp::Interp;
use gsls_ground::{ClauseRef, GroundAtomId, GroundProgram};

/// Sentinel marking a clause deleted for the current full-program call.
const DEAD: u32 = u32::MAX;

/// One entry of the negative-literal side table: a clause index plus the
/// range of its negative literals in [`Propagator::neg_lits`].
#[derive(Debug, Clone, Copy)]
struct NegClause {
    ci: u32,
    start: u32,
    end: u32,
    /// Cached `pos_len == 0`: when the negatives are satisfied, such a
    /// clause seeds the queue directly.
    no_pos: bool,
}

/// Reusable scratch for linear-time least-fixpoint propagation.
#[derive(Debug, Clone)]
pub struct Propagator {
    /// Positive-body count per clause — the per-call reset template.
    missing_template: Vec<u32>,
    /// Heads of definite facts (no body at all): unconditional seeds.
    fact_heads: Vec<u32>,
    /// Clauses with at least one negative literal.
    neg_clauses: Vec<NegClause>,
    /// Their negative literals, flattened for sequential scanning.
    neg_lits: Vec<GroundAtomId>,
    /// Per-clause count of not-yet-true tracked positive literals
    /// (`DEAD` = deleted this call).
    missing: Vec<u32>,
    /// Work queue of newly-true atoms.
    queue: Vec<u32>,
    /// Clause liveness stamps for the restricted (subset) mode.
    epoch: Vec<u32>,
    cur: u32,
    n_atoms: usize,
}

impl Propagator {
    /// Creates a propagator sized to `gp` (which must be finalized).
    pub fn new(gp: &GroundProgram) -> Self {
        assert!(
            gp.is_finalized(),
            "Propagator requires a finalized GroundProgram"
        );
        let n_clauses = gp.clause_count();
        let mut missing_template = Vec::with_capacity(n_clauses);
        let mut fact_heads = Vec::new();
        let mut neg_clauses = Vec::new();
        let mut neg_lits = Vec::new();
        for (ci, c) in gp.clauses().enumerate() {
            let pos_len = c.pos.len() as u32;
            debug_assert!(pos_len < DEAD, "clause body too large");
            missing_template.push(pos_len);
            if c.body_len() == 0 {
                fact_heads.push(c.head.0);
            }
            if !c.neg.is_empty() {
                let start = neg_lits.len() as u32;
                neg_lits.extend_from_slice(c.neg);
                neg_clauses.push(NegClause {
                    ci: ci as u32,
                    start,
                    end: neg_lits.len() as u32,
                    no_pos: pos_len == 0,
                });
            }
        }
        Propagator {
            missing_template,
            fact_heads,
            neg_clauses,
            neg_lits,
            missing: vec![0; n_clauses],
            queue: Vec::new(),
            epoch: vec![0; n_clauses],
            cur: 0,
            n_atoms: gp.atom_count(),
        }
    }

    fn check(&self, gp: &GroundProgram, out: &BitSet) {
        debug_assert_eq!(self.missing.len(), gp.clause_count(), "program changed");
        debug_assert_eq!(self.n_atoms, gp.atom_count(), "program changed");
        debug_assert_eq!(out.capacity(), self.n_atoms);
    }

    /// Least fixpoint of positive derivation where a body literal `¬q` is
    /// considered satisfied iff `neg_sat(q)` — the Gelfond–Lifschitz
    /// reduct fixpoint `A(S)` (with `neg_sat(q) = q ∉ S`) and the
    /// `T̄^ω(S⁻)` iteration of Lemma 4.2 (with `neg_sat(q) = ¬q ∈ S⁻`).
    ///
    /// Clears `out`, fills it with the derivable atoms, and returns their
    /// number. Zero heap allocation (after queue warm-up): counters are
    /// template-copied and only clauses with negative literals are
    /// scanned for reduct deletion.
    pub fn lfp_into(
        &mut self,
        gp: &GroundProgram,
        neg_sat: impl Fn(GroundAtomId) -> bool,
        out: &mut BitSet,
    ) -> usize {
        self.check(gp, out);
        out.clear();
        self.queue.clear();
        self.missing.copy_from_slice(&self.missing_template);
        let mut inserted = 0usize;
        for &h in &self.fact_heads {
            if out.insert(h as usize) {
                inserted += 1;
                self.queue.push(h);
            }
        }
        let heads = gp.heads();
        for nc in &self.neg_clauses {
            let negs = &self.neg_lits[nc.start as usize..nc.end as usize];
            if negs.iter().all(|&q| neg_sat(q)) {
                if nc.no_pos {
                    let head = heads[nc.ci as usize];
                    if out.insert(head.index()) {
                        inserted += 1;
                        self.queue.push(head.0);
                    }
                }
            } else {
                // Deleted by the reduct.
                self.missing[nc.ci as usize] = DEAD;
            }
        }
        inserted + self.propagate_full(gp, out)
    }

    /// The general full-program form: least fixpoint of positive
    /// derivation over the clauses `alive` admits (negative literals are
    /// the caller's business — they only influence liveness). Clears
    /// `out`, fills it, returns the number of derived atoms. Scans every
    /// clause; prefer [`Propagator::lfp_into`] when liveness is a pure
    /// negative-literal condition.
    pub fn lfp_alive(
        &mut self,
        gp: &GroundProgram,
        mut alive: impl FnMut(ClauseRef<'_>) -> bool,
        out: &mut BitSet,
    ) -> usize {
        self.check(gp, out);
        out.clear();
        self.queue.clear();
        self.missing.copy_from_slice(&self.missing_template);
        let mut inserted = 0usize;
        for ci in 0..gp.clause_count() as u32 {
            let c = gp.clause(ci);
            if !alive(c) {
                self.missing[ci as usize] = DEAD;
            } else if c.pos.is_empty() && out.insert(c.head.index()) {
                inserted += 1;
                self.queue.push(c.head.0);
            }
        }
        inserted + self.propagate_full(gp, out)
    }

    /// The externally-supported closure underlying greatest unfounded
    /// sets: least set `X` with `p ∈ X` iff some rule for `p` is not
    /// blocked w.r.t. `i` (no body literal's complement in `i`) and has
    /// all positive body atoms in `X`. `U_P(i)` is its complement.
    pub fn supported_into(&mut self, gp: &GroundProgram, i: &Interp, out: &mut BitSet) -> usize {
        self.lfp_alive(
            gp,
            |c| !c.pos.iter().any(|&a| i.is_false(a)) && !c.neg.iter().any(|&a| i.is_true(a)),
            out,
        )
    }

    /// Least fixpoint restricted to a clause subset (e.g. one SCC of the
    /// tabled engine). `classify` maps each clause view to `None` (clause
    /// deleted for this pass) or `Some(k)` where `k` is the number of
    /// **tracked** positive body occurrences — those whose atoms the
    /// propagation itself must derive into `out`. Positive literals
    /// already known true externally are simply not counted.
    ///
    /// Contract: the caller pre-clears the `out` bits for every head in
    /// `clauses`; the call reads/writes only those bits, so `out` may be
    /// a long-lived global-sized scratch set.
    pub fn lfp_restricted(
        &mut self,
        gp: &GroundProgram,
        clauses: &[u32],
        mut classify: impl FnMut(ClauseRef<'_>) -> Option<u32>,
        out: &mut BitSet,
    ) -> usize {
        self.check(gp, out);
        self.queue.clear();
        if self.cur == u32::MAX {
            self.epoch.fill(0);
            self.cur = 0;
        }
        self.cur += 1;
        let cur = self.cur;
        let mut inserted = 0usize;
        for &ci in clauses {
            let c = gp.clause(ci);
            let Some(m) = classify(c) else {
                continue;
            };
            self.epoch[ci as usize] = cur;
            self.missing[ci as usize] = m;
            if m == 0 && out.insert(c.head.index()) {
                inserted += 1;
                self.queue.push(c.head.0);
            }
        }
        inserted + self.propagate_restricted(gp, out)
    }

    /// Queue drain for full-program calls: deadness is the `DEAD`
    /// counter sentinel. The watch index and head table are hoisted out
    /// of the loop — this is the hottest path in the workspace.
    fn propagate_full(&mut self, gp: &GroundProgram, out: &mut BitSet) -> usize {
        let watch = gp.watch_pos_index();
        let heads = gp.heads();
        let mut inserted = 0usize;
        while let Some(a) = self.queue.pop() {
            for &ci in watch.row(a as usize) {
                let m = &mut self.missing[ci as usize];
                if *m == DEAD {
                    continue;
                }
                debug_assert!(*m > 0, "over-decrement in propagation");
                *m -= 1;
                if *m == 0 {
                    let head = heads[ci as usize];
                    if out.insert(head.index()) {
                        inserted += 1;
                        self.queue.push(head.0);
                    }
                }
            }
        }
        inserted
    }

    /// Queue drain for restricted calls: deadness is a stale epoch.
    fn propagate_restricted(&mut self, gp: &GroundProgram, out: &mut BitSet) -> usize {
        let watch = gp.watch_pos_index();
        let heads = gp.heads();
        let mut inserted = 0usize;
        while let Some(a) = self.queue.pop() {
            for &ci in watch.row(a as usize) {
                if self.epoch[ci as usize] != self.cur {
                    continue;
                }
                let m = &mut self.missing[ci as usize];
                debug_assert!(*m > 0, "over-decrement in propagation");
                *m -= 1;
                if *m == 0 {
                    let head = heads[ci as usize];
                    if out.insert(head.index()) {
                        inserted += 1;
                        self.queue.push(head.0);
                    }
                }
            }
        }
        inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsls_ground::testutil::atom_id as id;
    use gsls_ground::Grounder;
    use gsls_lang::{parse_program, TermStore};

    fn ground(src: &str) -> (TermStore, GroundProgram) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        (s, gp)
    }

    #[test]
    fn reuse_across_calls_gives_same_results() {
        let (s, gp) = ground("p :- ~q. q. r :- p. t :- q.");
        let mut prop = Propagator::new(&gp);
        let mut out = BitSet::new(gp.atom_count());
        // Call 1: all negations satisfied.
        let n1 = prop.lfp_into(&gp, |_| true, &mut out);
        assert!(out.contains(id(&s, &gp, "p").index()));
        assert!(out.contains(id(&s, &gp, "r").index()));
        assert_eq!(n1, out.count());
        // Call 2 on the same scratch: no negations satisfied.
        let n2 = prop.lfp_into(&gp, |_| false, &mut out);
        assert!(!out.contains(id(&s, &gp, "p").index()));
        assert!(out.contains(id(&s, &gp, "q").index()));
        assert!(out.contains(id(&s, &gp, "t").index()));
        assert_eq!(n2, 2);
        // Call 3: back to all satisfied — identical to call 1.
        let n3 = prop.lfp_into(&gp, |_| true, &mut out);
        assert_eq!(n3, n1);
    }

    #[test]
    fn alive_and_neg_sat_forms_agree() {
        let (_, gp) = ground("p :- ~q. q :- r. r. s :- r, ~p. t.");
        let mut prop = Propagator::new(&gp);
        let mut a = BitSet::new(gp.atom_count());
        let mut b = BitSet::new(gp.atom_count());
        for flag in [false, true] {
            prop.lfp_into(&gp, |_| flag, &mut a);
            prop.lfp_alive(&gp, |c| c.neg.is_empty() || flag, &mut b);
            assert_eq!(a, b, "neg_sat={flag}");
        }
    }

    #[test]
    fn restricted_only_touches_subset_heads() {
        let (s, gp) = ground("a. b :- a. c :- b. d :- ~z.");
        let a = id(&s, &gp, "a");
        let b = id(&s, &gp, "b");
        let c = id(&s, &gp, "c");
        let d = id(&s, &gp, "d");
        let mut prop = Propagator::new(&gp);
        let mut out = BitSet::new(gp.atom_count());
        // Pretend d is already known from an earlier pass; it must
        // survive a restricted call over the a/b clauses untouched.
        out.insert(d.index());
        let sub: Vec<u32> = gp
            .clauses_for(a)
            .iter()
            .chain(gp.clauses_for(b))
            .copied()
            .collect();
        let n = prop.lfp_restricted(&gp, &sub, |cl| Some(cl.pos.len() as u32), &mut out);
        assert_eq!(n, 2);
        assert!(out.contains(a.index()) && out.contains(b.index()));
        assert!(!out.contains(c.index()), "c's clause not in the subset");
        assert!(out.contains(d.index()), "unrelated bits preserved");
    }

    #[test]
    fn restricted_untracked_literals_pre_satisfied() {
        // b :- ext, a.  With `ext` external-true (untracked), b needs
        // only a.
        let (s, gp) = ground("ext. a. b :- ext, a.");
        let a = id(&s, &gp, "a");
        let b = id(&s, &gp, "b");
        let ext = id(&s, &gp, "ext");
        let mut prop = Propagator::new(&gp);
        let mut out = BitSet::new(gp.atom_count());
        let sub: Vec<u32> = gp
            .clauses_for(a)
            .iter()
            .chain(gp.clauses_for(b))
            .copied()
            .collect();
        prop.lfp_restricted(
            &gp,
            &sub,
            |cl| {
                // Track only non-ext positives.
                Some(cl.pos.iter().filter(|&&p| p != ext).count() as u32)
            },
            &mut out,
        );
        assert!(out.contains(b.index()), "externally satisfied literal");
        assert!(!out.contains(ext.index()), "ext never inserted");
    }

    #[test]
    fn full_and_restricted_modes_interleave() {
        let (s, gp) = ground("a. b :- a, ~z. c :- b.");
        let b = id(&s, &gp, "b");
        let mut prop = Propagator::new(&gp);
        let mut out = BitSet::new(gp.atom_count());
        let full1 = prop.lfp_into(&gp, |_| true, &mut out);
        let all: Vec<u32> = (0..gp.clause_count() as u32).collect();
        let mut out2 = BitSet::new(gp.atom_count());
        let restricted = prop.lfp_restricted(
            &gp,
            &all,
            |cl| Some(cl.pos.len() as u32), // all negs treated satisfied
            &mut out2,
        );
        assert_eq!(full1, restricted);
        assert_eq!(out, out2);
        // And a full call after a restricted one still works.
        let full2 = prop.lfp_into(&gp, |_| true, &mut out);
        assert_eq!(full1, full2);
        assert!(out.contains(b.index()));
    }

    #[test]
    fn duplicate_body_occurrences_counted_per_watch() {
        let (s, gp) = ground("p :- q, q. q.");
        let mut prop = Propagator::new(&gp);
        let mut out = BitSet::new(gp.atom_count());
        prop.lfp_into(&gp, |_| false, &mut out);
        assert!(out.contains(id(&s, &gp, "p").index()));
    }

    #[test]
    fn worker_contract_types_are_send() {
        // A thread receives a Propagator by value and shares the program
        // by reference.
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Propagator>();
        assert_send::<BitSet>();
        assert_sync::<GroundProgram>();
        assert_sync::<Propagator>();
    }

    #[test]
    #[should_panic(expected = "finalized")]
    fn unfinalized_program_rejected() {
        let mut gp = GroundProgram::new();
        let mut s = TermStore::new();
        let sym = s.intern_symbol("x");
        gp.intern_atom(gsls_lang::Atom::new(sym, Vec::new()));
        let _ = Propagator::new(&gp);
    }
}
