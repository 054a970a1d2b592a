//! The SCC-local alternating-fixpoint solver — the tabled engine's
//! reusable scratch.
//!
//! [`SccSolver`] owns everything solving a single SCC needs beyond the
//! immutable [`GroundProgram`]: a [`Propagator`] and the global-sized
//! (sparsely cleared) bitset scratch for the alternating rounds.
//! [`crate::tabled::TabledEngine`] holds exactly one and solves SCCs on
//! it one after the other.
//!
//! External atoms (body literals outside the SCC) are resolved through
//! a caller-supplied lookup — the engine's memo table. The scheduling
//! contract — an SCC is solved only after every SCC it depends on —
//! makes the lookup total; a miss panics.

use gsls_ground::{ClauseRef, GroundAtomId, GroundProgram};
use gsls_wfs::{BitSet, Propagator, Truth};

/// Reusable state for solving SCCs one at a time against a shared
/// finalized [`GroundProgram`]. See the module docs.
#[derive(Debug, Clone)]
pub struct SccSolver {
    /// Propagation scratch for every SCC-local fixpoint.
    prop: Propagator,
    /// Clause indices of the SCC currently being solved.
    scc_clauses: Vec<u32>,
    /// Membership mask of the SCC currently being solved.
    in_scc: BitSet,
    /// Alternating-fixpoint buffers (global-sized, sparsely cleared).
    t: BitSet,
    u: BitSet,
    t_next: BitSet,
    u_next: BitSet,
    /// Verdicts of the last [`SccSolver::solve`], parallel to its
    /// `atoms` argument.
    verdicts: Vec<Truth>,
}

impl SccSolver {
    /// Creates solver state sized to `gp` (which must be finalized).
    pub fn new(gp: &GroundProgram) -> Self {
        let n = gp.atom_count();
        SccSolver {
            prop: Propagator::new(gp),
            scc_clauses: Vec::new(),
            in_scc: BitSet::new(n),
            t: BitSet::new(n),
            u: BitSet::new(n),
            t_next: BitSet::new(n),
            u_next: BitSet::new(n),
            verdicts: Vec::new(),
        }
    }

    /// The verdicts of the most recent [`SccSolver::solve`], in the
    /// order of its `atoms` argument.
    pub fn verdicts(&self) -> &[Truth] {
        &self.verdicts
    }

    /// Solves one SCC by a local alternating fixpoint, reading
    /// out-of-SCC atoms through `external` (they are guaranteed decided
    /// by the reverse-topological schedule). Verdicts land in
    /// [`SccSolver::verdicts`].
    ///
    /// Each reduct evaluation is [`Propagator::lfp_restricted`] over the
    /// SCC's clause indices with global atom ids: internal positive
    /// literals are tracked by the propagation, external ones resolve
    /// through `external` at classification time, and internal negative
    /// literals delete clauses per the Gelfond–Lifschitz reduct w.r.t.
    /// the opposite approximation. Fixpoint detection uses derivation
    /// counts (`T` grows, `U` shrinks along the iteration).
    ///
    /// **Singleton fast path:** most SCCs of real dependency graphs are
    /// single atoms without a self-loop, where every body literal is
    /// external and already decided. The three-valued verdict is then
    /// two classification passes over the atom's clauses — no bitset
    /// bookkeeping, no restricted fixpoints, no alternating rounds.
    pub fn solve(
        &mut self,
        gp: &GroundProgram,
        atoms: &[GroundAtomId],
        external: impl Fn(GroundAtomId) -> Truth,
    ) {
        self.verdicts.clear();
        if let [a] = *atoms {
            let self_dep = gp.clauses_for(a).iter().any(|&ci| {
                let c = gp.clause(ci);
                c.pos.contains(&a) || c.neg.contains(&a)
            });
            if !self_dep {
                let mut verdict = Truth::False;
                for &ci in gp.clauses_for(a) {
                    let c = gp.clause(ci);
                    // Definite reading: every literal decided its way.
                    if c.pos.iter().all(|&b| external(b) == Truth::True)
                        && c.neg.iter().all(|&b| external(b) == Truth::False)
                    {
                        verdict = Truth::True;
                        break;
                    }
                    // Possible reading: no literal decided against.
                    if c.pos.iter().all(|&b| external(b) != Truth::False)
                        && c.neg.iter().all(|&b| external(b) != Truth::True)
                    {
                        verdict = Truth::Undefined;
                    }
                }
                self.verdicts.push(verdict);
                return;
            }
        }
        let Self {
            prop,
            scc_clauses,
            in_scc,
            t,
            u,
            t_next,
            u_next,
            verdicts,
        } = self;
        for &a in atoms {
            in_scc.insert(a.index());
            t.remove(a.index());
            u.remove(a.index());
            t_next.remove(a.index());
            u_next.remove(a.index());
        }
        scc_clauses.clear();
        for &a in atoms {
            scc_clauses.extend_from_slice(gp.clauses_for(a));
        }
        let scc_mask = &*in_scc;
        // `classify(c, s, under)`: `None` = clause deleted for this pass;
        // `Some(k)` = number of internal positive literals the
        // propagation must derive. `under` selects the definite (T) or
        // possible (U) reading of external undefined literals.
        let classify = |c: ClauseRef<'_>, s: &BitSet, under: bool| -> Option<u32> {
            let mut missing = 0u32;
            for &b in c.pos {
                if scc_mask.contains(b.index()) {
                    missing += 1;
                } else {
                    match external(b) {
                        Truth::True => {}
                        Truth::Undefined if under => return None,
                        Truth::Undefined => {}
                        Truth::False => return None,
                    }
                }
            }
            for &b in c.neg {
                if scc_mask.contains(b.index()) {
                    if s.contains(b.index()) {
                        return None;
                    }
                } else {
                    match external(b) {
                        Truth::False => {}
                        Truth::Undefined if under => return None,
                        Truth::Undefined => {}
                        Truth::True => return None,
                    }
                }
            }
            Some(missing)
        };
        // T₀ = ∅; U₀ = A_over(T₀); then alternate until the counts of
        // both approximations stop moving.
        let mut t_count = 0usize;
        let mut u_count = prop.lfp_restricted(gp, scc_clauses, |c| classify(c, t, false), u);
        loop {
            let tc = prop.lfp_restricted(gp, scc_clauses, |c| classify(c, u, true), t_next);
            let uc = prop.lfp_restricted(gp, scc_clauses, |c| classify(c, t_next, false), u_next);
            let stable = tc == t_count && uc == u_count;
            std::mem::swap(t, t_next);
            std::mem::swap(u, u_next);
            t_count = tc;
            u_count = uc;
            if stable {
                break;
            }
            // The swapped-out buffers hold the previous round; clear the
            // SCC's bits before they serve as outputs again.
            for &a in atoms {
                t_next.remove(a.index());
                u_next.remove(a.index());
            }
        }
        for &a in atoms {
            let verdict = if t.contains(a.index()) {
                Truth::True
            } else if !u.contains(a.index()) {
                Truth::False
            } else {
                Truth::Undefined
            };
            verdicts.push(verdict);
        }
        // The membership mask must not leak into the next SCC.
        for &a in atoms {
            in_scc.remove(a.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An engine moves onto whichever thread evaluates with it, and
    /// threads share the program by reference — pinned by the type
    /// system.
    #[test]
    fn worker_contract_types_are_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<SccSolver>();
        assert_send::<Propagator>();
        assert_send::<BitSet>();
        assert_sync::<GroundProgram>();
    }
}
