//! The immediate-consequence operators `T_P`, `T̄_P` and reduct least
//! fixpoints (Def. 2.3 of the paper).
//!
//! The least-fixpoint entry points here are convenience wrappers over
//! [`crate::propagator::Propagator`], which owns the reusable scratch;
//! engines making many reduct calls (alternating fixpoint, stable-model
//! enumeration, staged iterations, the tabled engine) hold a `Propagator`
//! directly so no per-call allocation happens. [`lfp_with_rebuild`] keeps
//! the old rebuild-everything-per-call implementation: the reduct
//! oracle independent of the CSR and the `Propagator`, behind
//! [`crate::well_founded_model_rebuild`].

use crate::bitset::BitSet;
use crate::interp::Interp;
use crate::propagator::Propagator;
use gsls_ground::{GroundAtomId, GroundProgram};

/// One application of `T_P` to a partial interpretation: `p ∈ T_P(I)` iff
/// some rule for `p` has every body literal in `I` (positive literals true
/// in `I`, negated atoms false in `I`).
pub fn tp(gp: &GroundProgram, i: &Interp) -> BitSet {
    let mut out = BitSet::new(gp.atom_count());
    tp_into(gp, i, &mut out);
    out
}

/// [`tp`] into a caller-provided set (cleared first) — the
/// allocation-free form for iterated callers.
pub fn tp_into(gp: &GroundProgram, i: &Interp, out: &mut BitSet) {
    out.clear();
    for c in gp.clauses() {
        let fires = c.pos.iter().all(|&a| i.is_true(a)) && c.neg.iter().all(|&a| i.is_false(a));
        if fires {
            out.insert(c.head.index());
        }
    }
}

/// `T̄_P(I) = T_P(I) ∪ I` restricted to the positive side: applies one
/// step and unions with the positive part of `i`.
pub fn tp_bar(gp: &GroundProgram, i: &Interp) -> BitSet {
    let mut out = tp(gp, i);
    out.union_with(i.pos());
    out
}

/// The ω-iteration `⋃ₖ T̄_P^k(S⁻)` of Lemma 4.2(1): the least fixpoint of
/// positive derivation where a negated atom `¬q` holds iff `q ∈ neg_true`,
/// computed in linear time (Dowling–Gallier counter propagation).
///
/// Returns the set of derivable atoms.
pub fn tp_omega(gp: &GroundProgram, neg_true: &BitSet) -> BitSet {
    lfp_with(gp, |a| neg_true.contains(a.index()))
}

/// Least fixpoint of positive derivation where a body literal `¬q` is
/// considered satisfied iff `neg_sat(q)`.
///
/// This single primitive expresses the Gelfond–Lifschitz reduct fixpoint
/// `A(S)` (with `neg_sat(q) = q ∉ S`) used by the alternating fixpoint,
/// as well as the `T̄^ω(S⁻)` iteration of Lemma 4.2 (with
/// `neg_sat(q) = ¬q ∈ S⁻`).
///
/// Convenience form allocating fresh scratch; hot paths reuse a
/// [`Propagator`] and call [`Propagator::lfp_into`].
pub fn lfp_with(gp: &GroundProgram, neg_sat: impl Fn(GroundAtomId) -> bool) -> BitSet {
    let mut prop = Propagator::new(gp);
    let mut out = BitSet::new(gp.atom_count());
    prop.lfp_into(gp, neg_sat, &mut out);
    out
}

/// The pre-CSR baseline: identical semantics to [`lfp_with`], but
/// rebuilds the entire watch structure (`vec![Vec::new(); n]`) on every
/// call, as the engines did before the reusable propagator existed. Kept
/// as the oracle independent of the CSR and the `Propagator` (through
/// [`crate::well_founded_model_rebuild`], compared by
/// `tests/incremental.rs` and `crates/wfs/tests/properties.rs`); do not
/// use in engines.
pub fn lfp_with_rebuild(gp: &GroundProgram, neg_sat: impl Fn(GroundAtomId) -> bool) -> BitSet {
    let n = gp.atom_count();
    let mut truth = BitSet::new(n);
    // Per-clause count of unsatisfied positive body atoms.
    let mut missing: Vec<u32> = Vec::with_capacity(gp.clause_count());
    // Clause watch lists: clauses containing atom positively in the body.
    let mut watchers: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut queue: Vec<GroundAtomId> = Vec::new();

    for (ci, c) in gp.clauses().enumerate() {
        let ci = ci as u32;
        if !c.neg.iter().all(|&q| neg_sat(q)) {
            // A negative body literal is unsatisfied: the clause is
            // deleted by the reduct and can never fire.
            missing.push(u32::MAX);
            continue;
        }
        missing.push(c.pos.len() as u32);
        if c.pos.is_empty() {
            if truth.insert(c.head.index()) {
                queue.push(c.head);
            }
        } else {
            for &a in c.pos.iter() {
                watchers[a.index()].push(ci);
            }
        }
    }

    while let Some(a) = queue.pop() {
        // Move the watcher list out to appease the borrow checker; atom
        // `a` is true forever, so its watchers are needed only once.
        let ws = std::mem::take(&mut watchers[a.index()]);
        for ci in ws {
            let m = &mut missing[ci as usize];
            if *m == u32::MAX {
                continue;
            }
            // A clause may watch the same atom twice (duplicate body
            // literal); decrement once per watcher entry, which matches
            // the number of watch registrations.
            *m -= 1;
            if *m == 0 {
                let head = gp.clause(ci).head;
                if truth.insert(head.index()) {
                    queue.push(head);
                }
            }
        }
    }
    truth
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsls_ground::testutil::atom_id;
    use gsls_ground::Grounder;
    use gsls_lang::{parse_program, TermStore};

    fn ground(src: &str) -> (TermStore, GroundProgram) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        (s, gp)
    }

    use atom_id as id;

    #[test]
    fn tp_single_step() {
        let (s, gp) = ground("p :- q. q.");
        let q = id(&s, &gp, "q");
        let p = id(&s, &gp, "p");
        let empty = Interp::new(gp.atom_count());
        let t1 = tp(&gp, &empty);
        assert!(t1.contains(q.index()), "fact fires immediately");
        assert!(!t1.contains(p.index()), "p needs q true first");
        let mut i = Interp::new(gp.atom_count());
        i.set_true(q);
        let t2 = tp(&gp, &i);
        assert!(t2.contains(p.index()));
    }

    #[test]
    fn tp_uses_negative_info() {
        let (s, gp) = ground("p :- ~q. q :- r.");
        let p = id(&s, &gp, "p");
        let q = id(&s, &gp, "q");
        let empty = Interp::new(gp.atom_count());
        assert!(!tp(&gp, &empty).contains(p.index()), "~q not yet known");
        let mut i = Interp::new(gp.atom_count());
        i.set_false(q);
        assert!(tp(&gp, &i).contains(p.index()));
    }

    #[test]
    fn tp_bar_accumulates() {
        let (s, gp) = ground("p :- q. q.");
        let q = id(&s, &gp, "q");
        let mut i = Interp::new(gp.atom_count());
        i.set_true(q);
        let t = tp_bar(&gp, &i);
        assert!(t.contains(q.index()), "T̄ keeps old atoms");
    }

    #[test]
    fn lfp_definite_chain() {
        let (s, gp) = ground("p0. p1 :- p0. p2 :- p1. p3 :- p2.");
        let out = lfp_with(&gp, |_| false);
        assert_eq!(out.count(), 4);
        let p3 = id(&s, &gp, "p3");
        assert!(out.contains(p3.index()));
    }

    #[test]
    fn lfp_respects_reduct_deletion() {
        let (s, gp) = ground("p :- ~q. q.");
        let p = id(&s, &gp, "p");
        let q = id(&s, &gp, "q");
        // neg_sat(q) = false: the p-rule is deleted.
        let out = lfp_with(&gp, |_| false);
        assert!(!out.contains(p.index()));
        assert!(out.contains(q.index()));
        // neg_sat(q) = true: both derivable.
        let out2 = lfp_with(&gp, |_| true);
        assert!(out2.contains(p.index()));
    }

    #[test]
    fn lfp_positive_loop_not_derived() {
        // Full instantiation keeps the a/b loop (relevant grounding would
        // prune it as never-derivable).
        use gsls_ground::{GrounderOpts, GroundingMode};
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "a :- b. b :- a. c.").unwrap();
        let gp = Grounder::ground_with(
            &mut s,
            &p,
            GrounderOpts {
                mode: GroundingMode::Full,
                ..GrounderOpts::default()
            },
        )
        .unwrap();
        let a = id(&s, &gp, "a");
        let out = lfp_with(&gp, |_| true);
        assert!(!out.contains(a.index()), "positive loop stays underived");
        assert_eq!(out.count(), 1);
    }

    #[test]
    fn lfp_duplicate_body_literal() {
        // A clause mentioning q twice positively must still fire exactly
        // when q is derived.
        let (s, gp) = ground("p :- q, q. q.");
        let p = id(&s, &gp, "p");
        let out = lfp_with(&gp, |_| false);
        assert!(out.contains(p.index()));
    }

    #[test]
    fn tp_omega_matches_lemma_4_2_direction() {
        // p :- ~q. with ¬q ∈ S⁻: p derivable by T̄^ω(S⁻).
        let (s, gp) = ground("p :- ~q. r :- p.");
        let q = id(&s, &gp, "q");
        let p = id(&s, &gp, "p");
        let r = id(&s, &gp, "r");
        let mut sneg = BitSet::new(gp.atom_count());
        sneg.insert(q.index());
        let out = tp_omega(&gp, &sneg);
        assert!(out.contains(p.index()));
        assert!(out.contains(r.index()), "chained through p");
    }

    #[test]
    fn rebuild_baseline_agrees_with_propagator() {
        for src in [
            "p0. p1 :- p0. p2 :- p1.",
            "p :- ~q. q. r :- p, ~s.",
            "a :- b, ~c. b :- ~d. d.",
        ] {
            let (_, gp) = ground(src);
            for flag in [false, true] {
                assert_eq!(
                    lfp_with(&gp, |_| flag),
                    lfp_with_rebuild(&gp, |_| flag),
                    "{src} / neg_sat={flag}"
                );
            }
        }
    }
}
