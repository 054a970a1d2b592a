//! The two reference instantiations, written against substitutions
//! instead of compiled plans:
//!
//! * [`run_full`] — [`GroundingMode::Full`](crate::GroundingMode::Full),
//!   the whole (depth-bounded) Herbrand instantiation of Def. 1.5: every
//!   substitution of universe terms for clause variables. Ground global
//!   trees and the `T_P` / Fitting analyses need the syntactic shape of
//!   *all* instances.
//! * [`run_naive`] — [`JoinStrategy::Naive`](crate::JoinStrategy::Naive),
//!   relevant grounding by the most obvious join there is (original
//!   literal order, full fact scans, whole-store re-joins per pass). It
//!   is the differential oracle the planned kernel is tested against and
//!   is kept deliberately independent of it.
//!
//! Both share only the emission step ([`Emission::push_unique`] and the
//! id buffers it reads) with the kernel; neither ever runs on a
//! persistent kernel.

use crate::emission::{Emission, FactKind, Run};
use crate::factstore::{FactStore, Role};
use crate::grounder::GroundingError;
use crate::plan::residual_vars;
use gsls_lang::{match_term_recording, Atom, Clause, Program, Subst, TermId, Var};
use std::time::Instant;

/// Full instantiation doesn't consult the derivable closure: one
/// enumeration pass emits everything.
pub(crate) fn run_full(
    em: &mut Emission,
    run: &mut Run<'_>,
    program: &Program,
) -> Result<(), GroundingError> {
    let t = Instant::now();
    em.ensure_universe(run.store, program);
    let mut inst = Instantiator::new(em, run);
    for clause in program.clauses() {
        let free = clause.vars(inst.run.store);
        inst.enumerate_free(clause, &free, 0)?;
    }
    em.stats.seed_ns = t.elapsed().as_nanos() as u64;
    Ok(())
}

/// The differential oracle: per pass, every rule is re-joined against
/// the whole fact store with unordered full scans, until a pass emits
/// nothing new.
pub(crate) fn run_naive(
    em: &mut Emission,
    run: &mut Run<'_>,
    program: &Program,
) -> Result<(), GroundingError> {
    let t = Instant::now();
    em.ensure_universe(run.store, program);
    let mut facts = FactStore::default();
    let mut grown: Vec<u32> = Vec::new();
    let mut inst = Instantiator::new(em, run);
    loop {
        let before = inst.em.gp.clause_count();
        for clause in program.clauses() {
            let pats: Vec<&Atom> = clause.pos_body().map(|l| &l.atom).collect();
            if pats.is_empty() {
                let free = clause.vars(inst.run.store);
                inst.enumerate_free(clause, &free, 0)?;
            } else {
                let residual = residual_vars(inst.run.store, clause);
                inst.naive_join(clause, &pats, &residual, 0, &facts)?;
            }
        }
        inst.em.flush_delta(&mut facts, &mut grown);
        if inst.em.gp.clause_count() == before {
            break;
        }
        inst.em.stats.rounds += 1;
    }
    em.stats.join_ns = t.elapsed().as_nanos() as u64;
    Ok(())
}

/// One reference run: the emission state it writes plus its own
/// substitution, backtracking trail and argument buffers.
struct Instantiator<'e, 'r, 's> {
    em: &'e mut Emission,
    run: &'r mut Run<'s>,
    subst: Subst,
    /// Backtracking trail for `Subst`-based matching.
    trail: Vec<Var>,
    head_buf: Vec<TermId>,
    body_buf: Vec<TermId>,
}

impl<'e, 'r, 's> Instantiator<'e, 'r, 's> {
    fn new(em: &'e mut Emission, run: &'r mut Run<'s>) -> Self {
        Instantiator {
            em,
            run,
            subst: Subst::new(),
            trail: Vec::new(),
            head_buf: Vec::new(),
            body_buf: Vec::new(),
        }
    }

    /// Matches naive-order literal `i` against every fact row of its
    /// predicate — the oracle join.
    fn naive_join(
        &mut self,
        clause: &Clause,
        pats: &[&Atom],
        residual: &[Var],
        i: usize,
        facts: &FactStore,
    ) -> Result<(), GroundingError> {
        if i == pats.len() {
            return self.enumerate_free(clause, residual, 0);
        }
        let pat = pats[i];
        let Some(slot) = facts.slot_of(pat.pred_id()) else {
            return Ok(());
        };
        let (lo, hi) = facts.range(slot, Role::Full);
        for row in lo..hi {
            self.em.stats.join_candidates += 1;
            let targs = facts.row_args(slot, row);
            let mark = self.trail.len();
            let mut ok = true;
            for (&p, &t) in pat.args.iter().zip(targs.iter()) {
                if !match_term_recording(self.run.store, &mut self.subst, p, t, &mut self.trail) {
                    ok = false;
                    break;
                }
            }
            if ok {
                self.naive_join(clause, pats, residual, i + 1, facts)?;
            }
            while self.trail.len() > mark {
                let v = self.trail.pop().expect("trail mark within bounds");
                self.subst.remove(v);
            }
        }
        Ok(())
    }

    /// Binds `free[j..]` to every universe term in turn, emitting the
    /// instance when all are bound.
    fn enumerate_free(
        &mut self,
        clause: &Clause,
        free: &[Var],
        j: usize,
    ) -> Result<(), GroundingError> {
        if j == free.len() {
            return self.emit(clause);
        }
        for u in 0..self.em.universe.len() {
            let t = self.em.universe[u];
            self.subst.bind(free[j], t);
            self.enumerate_free(clause, free, j + 1)?;
            self.subst.remove(free[j]);
        }
        Ok(())
    }

    /// Resolves the instance under the substitution, interns its atoms,
    /// and hands the clause to the shared dedup-and-store step.
    fn emit(&mut self, clause: &Clause) -> Result<(), GroundingError> {
        // Resolve every atom before interning anything: an instance that
        // escapes the bounded universe belongs to a deeper prefix of the
        // (infinite) Herbrand instantiation than this grounding
        // approximates, and must leave no trace in the atom table.
        let store = &mut *self.run.store;
        self.head_buf.clear();
        for &a in clause.head.args.iter() {
            let t = self.subst.resolve(store, a);
            debug_assert!(store.is_ground(t), "unbound head variable at emit");
            self.head_buf.push(t);
        }
        if self.em.exceeds_depth(store, &self.head_buf) {
            return Ok(());
        }
        self.body_buf.clear();
        for lit in &clause.body {
            let start = self.body_buf.len();
            for &a in lit.atom.args.iter() {
                let t = self.subst.resolve(store, a);
                debug_assert!(store.is_ground(t), "unbound variable at emit");
                self.body_buf.push(t);
            }
            if self.em.exceeds_depth(store, &self.body_buf[start..]) {
                return Ok(());
            }
        }
        let em = &mut *self.em;
        let head_id = em.gp.intern_atom_parts(clause.head.pred, &self.head_buf);
        em.matched_buf.clear();
        em.neg_buf.clear();
        let mut off = 0usize;
        for lit in &clause.body {
            let n = lit.atom.args.len();
            let id = em
                .gp
                .intern_atom_parts(lit.atom.pred, &self.body_buf[off..off + n]);
            off += n;
            if lit.is_pos() {
                em.matched_buf.push(id);
            } else {
                em.neg_buf.push(id);
            }
        }
        let n_pos = em.matched_buf.len();
        em.push_unique(self.run, head_id, n_pos, true, FactKind::Permanent)
    }
}
