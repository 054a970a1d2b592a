//! The alternating fixpoint: the polynomial bottom-up baseline.
//!
//! Van Gelder's alternating-fixpoint characterisation of the well-founded
//! model (the bottom-up algorithm the paper's footnote 5 cites as [32]):
//! let `A(S)` be the least fixpoint of the Gelfond–Lifschitz reduct of `P`
//! w.r.t. `S` (a negated atom `¬q` holds iff `q ∉ S`). `A` is
//! antimonotone, so `A∘A` is monotone; iterating
//!
//! ```text
//! T₀ = ∅,  U₀ = A(T₀),  Tᵢ₊₁ = A(Uᵢ),  Uᵢ₊₁ = A(Tᵢ₊₁)
//! ```
//!
//! converges with `T∞ ⊆ U∞`. Then `M_WF(P)` has true atoms `T∞`, false
//! atoms `H ∖ U∞`, undefined `U∞ ∖ T∞`. Each `A` call is linear in program
//! size, and the iteration count is bounded by the number of atoms, giving
//! the quadratic worst case (typically a handful of rounds).

use crate::bitset::BitSet;
use crate::incremental::{IncrementalLfp, NegMode};
use crate::interp::Interp;
use crate::propagator::Propagator;
use crate::tp::lfp_with_rebuild;
use gsls_ground::{GroundAtomId, GroundProgram};
use gsls_par::govern::{Guard, InterruptCause};

/// Statistics from an alternating-fixpoint run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlternatingStats {
    /// Number of `A(·)` evaluations performed.
    pub reduct_calls: u32,
    /// Number of outer rounds until the fixpoint.
    pub rounds: u32,
    /// Clause liveness (re)checks across all `A(·)` evaluations. The
    /// from-scratch path would pay `reduct_calls × #clauses`; the
    /// difference-driven path pays the two priming scans plus only the
    /// clauses reachable from context changes through `watch_neg`.
    pub clause_checks: u64,
    /// Atoms enqueued (derived or retracted) across all evaluations.
    pub enqueues: u64,
}

/// Computes the well-founded model of `gp`.
pub fn well_founded_model(gp: &GroundProgram) -> Interp {
    well_founded_model_with_stats(gp).0
}

/// [`well_founded_model`] plus iteration statistics.
///
/// Two fresh [`IncrementalLfp`] chains run [`well_founded_refresh`] from
/// `T₀ = ∅` — the same alternation a session build runs. Each chain
/// diffs every context against the one it last saw, so after the two
/// priming scans a round re-enqueues only the clauses whose negative
/// context changed (revivals on the growing `T`-chain, retractions on the
/// shrinking `U`-chain): per-round work is proportional to the *delta*.
/// The statistics are the chains' own counters: `reduct_calls` sums
/// both chains' evaluations, and `rounds` is the `T`-chain's.
pub fn well_founded_model_with_stats(gp: &GroundProgram) -> (Interp, AlternatingStats) {
    let mut t_chain = IncrementalLfp::new(gp, NegMode::SatisfiedOutside);
    let mut u_chain = IncrementalLfp::new(gp, NegMode::SatisfiedOutside);
    let mut model = Interp::new(gp.atom_count());
    let start = BitSet::new(gp.atom_count());
    well_founded_refresh(gp, &mut t_chain, &mut u_chain, &start, &mut model);
    let (t, u) = (t_chain.stats(), u_chain.stats());
    let stats = AlternatingStats {
        reduct_calls: (t.evaluations + u.evaluations) as u32,
        rounds: t.evaluations as u32,
        clause_checks: t.clause_checks + u.clause_checks,
        enqueues: t.enqueues + u.enqueues,
    };
    (model, stats)
}

/// Brings the well-founded model of `gp` up to date on **warm** chains
/// — the one refresh behind session construction, every commit and WAL
/// replay. The two [`IncrementalLfp`] chains carry their state across
/// calls (and across program growth via [`IncrementalLfp::grow`] and
/// clause switching via [`IncrementalLfp::set_clauses_enabled`]), so
/// every reduct evaluation diffs against the chain's stored context and
/// pays for what changed, not for program size. The result is written
/// into `model` in place (capacity `gp.atom_count()`); nothing is
/// allocated once the chains' scratch has reached steady capacity.
///
/// **The start-set contract.** The alternation runs from `T₀ = start`
/// instead of `T₀ = ∅`:
///
/// ```text
/// T₀ = start,  U₀ = A(T₀),  Tᵢ₊₁ = A(Uᵢ),  Uᵢ₊₁ = A(Tᵢ₊₁)
/// ```
///
/// and `start` must satisfy `start ⊆ T∞`, the true set of `gp`'s
/// well-founded model. `∅` always qualifies (it is what unprimed chains
/// get), and so does [`ChangeCone::restart_set`]: the previous model's
/// true atoms outside the forward dependency cone of whatever changed,
/// which relevance — `M_WF(P)(a)` is fixed by the clauses `a` depends
/// on — leaves true. A `start` with an atom outside `T∞` is a contract
/// violation; debug builds catch it (`start ⊆ result`).
///
/// **Correctness note (the sandwich).** `F = A∘A` is monotone and `T∞`
/// is its least fixpoint, so `∅ ⊆ start ⊆ T∞` gives
/// `Fⁿ(∅) ⊆ Fⁿ(start) ⊆ Fⁿ(T∞) = T∞` for every `n`. The lower bound is
/// the classical iteration, which reaches `T∞` after finitely many
/// rounds; the restart is squeezed onto `T∞` no later, and each of its
/// rounds touches only what differs from the chains' stored state — the
/// cone, not the program.
///
/// **The stop rule is set equality.** From a non-empty start the `Tᵢ`
/// need not grow monotonically (`start` is below `T∞`, not necessarily
/// below `F(start)`), so equal cardinalities of consecutive rounds can
/// hide different sets. The loop stops when `Tᵢ₊₁ = Tᵢ` as sets, read
/// off [`IncrementalLfp::context_changed`] — the `U`-chain diffs the
/// presented `Tᵢ₊₁` against its stored `Tᵢ` anyway. That is a fixpoint
/// of `F` inside the sandwich, i.e. below the least one: it is `T∞`.
pub fn well_founded_refresh(
    gp: &GroundProgram,
    t_chain: &mut IncrementalLfp,
    u_chain: &mut IncrementalLfp,
    start: &BitSet,
    model: &mut Interp,
) {
    well_founded_refresh_governed(gp, t_chain, u_chain, start, model, &Guard::none())
        .expect("an ungoverned refresh cannot be interrupted")
}

/// [`well_founded_refresh`] under a governance [`Guard`]: every reduct
/// evaluation runs governed ([`IncrementalLfp::evaluate_governed`]) and
/// the outer alternation checks the guard once per round, so a
/// cancellation, deadline, or fuel trip surfaces within one tick
/// interval of work. On interruption `model` is untouched — it is
/// written last — the chain that tripped is left unprimed (it re-primes
/// on next use) and the error carries the trip cause. The chains then
/// hold fixpoints of *some* contexts over the program as it is, which
/// is all the next call needs: roll the program change back
/// ([`IncrementalLfp::shrink_to`] and the inverse switches, as the
/// session does) and refresh from the untouched model's true set, or
/// go on from any other `start` below the new true set — `∅` always
/// is.
pub fn well_founded_refresh_governed(
    gp: &GroundProgram,
    t_chain: &mut IncrementalLfp,
    u_chain: &mut IncrementalLfp,
    start: &BitSet,
    model: &mut Interp,
    guard: &Guard,
) -> Result<(), InterruptCause> {
    debug_assert_eq!(start.capacity(), gp.atom_count());
    u_chain.evaluate_governed(gp, start, guard)?;
    loop {
        guard.check()?;
        t_chain.evaluate_governed(gp, u_chain.out(), guard)?;
        u_chain.evaluate_governed(gp, t_chain.out(), guard)?;
        if !u_chain.context_changed() {
            break;
        }
    }
    debug_assert!(
        start.is_subset(t_chain.out()),
        "refresh start set was not below the well-founded true set"
    );
    model.assign_bounds(t_chain.out(), u_chain.out());
    Ok(())
}

/// Reusable scratch for the restart set of [`well_founded_refresh`]:
/// the forward dependency cone of a program change, and the previous
/// model's true atoms outside it.
#[derive(Debug, Clone, Default)]
pub struct ChangeCone {
    /// Cone atoms whose dependents are still to be visited.
    stack: Vec<u32>,
    /// The cone: every atom that depends on a changed clause's head.
    cone: BitSet,
    /// `old_true ∖ cone`.
    start: BitSet,
    /// Work-tick counter feeding [`Guard::tick`].
    tick: u32,
}

impl ChangeCone {
    /// An empty scratch; it sizes itself to the program on first use.
    pub fn new() -> Self {
        ChangeCone::default()
    }

    /// Computes `old_true ∖ cone`, where `cone` is the forward closure —
    /// over `watch_pos ∪ watch_neg → heads` of the finalized `gp` — of
    /// the heads of the `changed` clauses (indices; every clause the
    /// change appended, disabled or enabled), and `old_true` is the true
    /// set of the well-founded model *before* the change, at
    /// `gp.atom_count()` capacity.
    ///
    /// An atom outside the cone depends on no changed clause, so the
    /// clauses it depends on — and with them its well-founded verdict —
    /// are the same before and after: the returned set lies below the
    /// new model's true set, which is the [`well_founded_refresh`]
    /// start-set contract. The walk covers switched-off clauses too (a
    /// superset of the cone is as sound) and ticks `guard` per visited
    /// atom; its cost is the cone's atoms plus the watch lists they head.
    pub fn restart_set(
        &mut self,
        gp: &GroundProgram,
        changed: impl IntoIterator<Item = u32>,
        old_true: &BitSet,
        guard: &Guard,
    ) -> Result<&BitSet, InterruptCause> {
        let n = gp.atom_count();
        // (A rolled-back commit leaves the program smaller than the
        // scratch last saw it.)
        self.cone.truncate(n);
        self.cone.grow(n);
        self.cone.clear();
        self.start.truncate(n);
        self.start.grow(n);
        self.start.copy_from(old_true);
        self.stack.clear();
        let heads = gp.heads();
        for ci in changed {
            let h = heads[ci as usize];
            if self.cone.insert(h.index()) {
                self.stack.push(h.0);
            }
        }
        while let Some(a) = self.stack.pop() {
            guard.tick(&mut self.tick)?;
            self.start.remove(a as usize);
            let a = GroundAtomId(a);
            for &ci in gp.watch_pos(a).iter().chain(gp.watch_neg(a)) {
                let h = heads[ci as usize];
                if self.cone.insert(h.index()) {
                    self.stack.push(h.0);
                }
            }
        }
        Ok(&self.start)
    }

    /// The set [`ChangeCone::restart_set`] last computed, cut back to
    /// the first `n_atoms` atoms — for undoing an append: the walk runs
    /// on the program that still holds the appended clauses (they are
    /// the change), the refresh on the prefix that is left. Every atom
    /// past the cut heads only appended clauses, so it was in the cone
    /// and the cut drops no member (one that heads no clause at all was
    /// never true).
    pub fn start_cut_to(&mut self, n_atoms: usize) -> &BitSet {
        self.start.truncate(n_atoms);
        &self.start
    }
}

/// The full-recompute alternating fixpoint of PR 1: every `A(·)` runs
/// through one shared [`Propagator`] from scratch (template-copied
/// counters, full negative-clause rescan). Zero allocation per reduct
/// call, but O(program) work per call regardless of how little the
/// context moved. The differential-testing oracle for the incremental
/// path (`tests/incremental.rs`, `crates/wfs/tests/`), and also
/// `benchmark/`'s calibration kernel and its oracle's model.
pub fn well_founded_model_scratch(gp: &GroundProgram) -> Interp {
    let n = gp.atom_count();
    let mut prop = Propagator::new(gp);
    let mut t = BitSet::new(n);
    let mut u = BitSet::new(n);
    let mut t_next = BitSet::new(n);
    let mut u_next = BitSet::new(n);

    let mut t_count = 0usize;
    let mut u_count = prop.lfp_into(gp, |q| !t.contains(q.index()), &mut u);
    loop {
        let tc = prop.lfp_into(gp, |q| !u.contains(q.index()), &mut t_next);
        let uc = prop.lfp_into(gp, |q| !t_next.contains(q.index()), &mut u_next);
        debug_assert!(t.is_subset(&t_next), "T must grow monotonically");
        debug_assert!(u_next.is_subset(&u), "U must shrink monotonically");
        let stable = tc == t_count && uc == u_count;
        std::mem::swap(&mut t, &mut t_next);
        std::mem::swap(&mut u, &mut u_next);
        t_count = tc;
        u_count = uc;
        if stable {
            break;
        }
    }
    debug_assert!(t.is_subset(&u), "alternating fixpoint order violated");
    u.complement_in_place();
    Interp::from_parts(t, u)
}

/// The pre-propagator baseline: identical semantics to
/// [`well_founded_model`], but every `A(·)` call rebuilds its watch
/// structure from scratch ([`lfp_with_rebuild`]). The oracle that
/// shares neither the CSR watch lists nor the [`Propagator`] with the
/// engine, compared against it by `tests/incremental.rs` and
/// `crates/wfs/tests/properties.rs`.
pub fn well_founded_model_rebuild(gp: &GroundProgram) -> Interp {
    let n = gp.atom_count();
    let a = |s: &BitSet| lfp_with_rebuild(gp, |q| !s.contains(q.index()));
    let mut t = BitSet::new(n);
    let mut u = a(&t);
    loop {
        let t_next = a(&u);
        let u_next = a(&t_next);
        let stable = t_next == t && u_next == u;
        t = t_next;
        u = u_next;
        if stable {
            break;
        }
    }
    let false_set = u.complement();
    Interp::from_parts(t, false_set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Truth;
    use crate::wp::{vp_iteration, wp_iteration};
    use gsls_ground::testutil::atom_id as id;
    use gsls_ground::Grounder;
    use gsls_lang::{parse_program, TermStore};

    fn wfm(src: &str) -> (TermStore, GroundProgram, Interp) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        let m = well_founded_model(&gp);
        (s, gp, m)
    }

    #[test]
    fn definite_program_two_valued() {
        let (s, gp, m) = wfm("e(a, b). e(b, c). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).");
        assert!(m.is_total());
        assert_eq!(m.truth(id(&s, &gp, "t(a, c)")), Truth::True);
    }

    #[test]
    fn mutual_negation_undefined() {
        let (s, gp, m) = wfm("p :- ~q. q :- ~p.");
        assert_eq!(m.truth(id(&s, &gp, "p")), Truth::Undefined);
        assert_eq!(m.truth(id(&s, &gp, "q")), Truth::Undefined);
    }

    #[test]
    fn odd_loop_undefined() {
        let (s, gp, m) = wfm("p :- ~p.");
        assert_eq!(m.truth(id(&s, &gp, "p")), Truth::Undefined);
    }

    #[test]
    fn agrees_with_wp_and_vp_iterations() {
        for src in [
            "q. p :- ~q. r :- ~p.",
            "p :- ~q. q :- ~p. r :- ~s. s.",
            "p :- ~q, ~r. q :- r, ~p. r :- p, ~q. s :- ~p, ~q, ~r.",
            "p :- ~p. q :- ~s, ~p. s :- ~q.",
            "move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).",
            "e(a, b). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).",
        ] {
            let mut s = TermStore::new();
            let p = parse_program(&mut s, src).unwrap();
            let gp = Grounder::ground(&mut s, &p).unwrap();
            let alt = well_founded_model(&gp);
            assert_eq!(alt, vp_iteration(&gp).model, "vp mismatch: {src}");
            assert_eq!(alt, wp_iteration(&gp).model, "wp mismatch: {src}");
        }
    }

    #[test]
    fn wfm_is_a_partial_model() {
        for src in [
            "q. p :- ~q. r :- ~p.",
            "p :- ~q. q :- ~p.",
            "move(a, b). move(b, a). win(X) :- move(X, Y), ~win(Y).",
        ] {
            let (_, gp, m) = wfm(src);
            assert!(m.satisfies(&gp), "WFM must satisfy the program: {src}");
        }
    }

    #[test]
    fn stats_reported() {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "p :- ~q. q :- ~p.").unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        let (_, stats) = well_founded_model_with_stats(&gp);
        assert!(stats.reduct_calls >= 3);
        assert!(stats.rounds >= 1);
        assert!(stats.clause_checks >= 2 * gp.clause_count() as u64);
    }

    #[test]
    fn incremental_equals_scratch_and_rebuild() {
        for src in [
            "q. p :- ~q. r :- ~p.",
            "p :- ~q. q :- ~p. r :- ~s. s.",
            "p :- ~q, ~r. q :- r, ~p. r :- p, ~q. s :- ~p, ~q, ~r.",
            "p :- ~p. q :- ~s, ~p. s :- ~q.",
            "move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).",
            "e(a, b). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).",
        ] {
            let mut s = TermStore::new();
            let p = parse_program(&mut s, src).unwrap();
            let gp = Grounder::ground(&mut s, &p).unwrap();
            let inc = well_founded_model(&gp);
            assert_eq!(inc, well_founded_model_scratch(&gp), "scratch: {src}");
            assert_eq!(inc, well_founded_model_rebuild(&gp), "rebuild: {src}");
        }
    }

    #[test]
    fn deep_chain_does_delta_sized_rounds() {
        // a_i :- ~a_{i+1}: the alternating iteration takes many rounds,
        // each changing O(1) atoms — exactly the shape the incremental
        // path exists for. Total clause checks must stay far below
        // reduct_calls × clauses.
        let mut src = String::from("a40.\n");
        for i in (0..40).rev() {
            src.push_str(&format!("a{} :- ~a{}.\n", i, i + 1));
        }
        let mut s = TermStore::new();
        let p = parse_program(&mut s, &src).unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        let (m, stats) = well_founded_model_with_stats(&gp);
        assert!(m.is_total());
        let scratch_checks = stats.reduct_calls as u64 * gp.clause_count() as u64;
        assert!(
            stats.clause_checks < scratch_checks / 4,
            "incremental checks {} vs scratch-equivalent {}",
            stats.clause_checks,
            scratch_checks
        );
    }

    #[test]
    fn refresh_tracks_growth_and_switching() {
        let mut s = TermStore::new();
        let p = parse_program(
            &mut s,
            "move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).",
        )
        .unwrap();
        let mut gp = Grounder::ground(&mut s, &p).unwrap();
        let mut t_chain = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        let mut u_chain = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        let mut cone = ChangeCone::new();
        let mut model = Interp::new(gp.atom_count());
        let none = Guard::none();
        // Unprimed chains, nothing changed: the start set is ∅.
        let start = cone.restart_set(&gp, [], model.pos(), &none).unwrap();
        assert!(start.is_empty());
        well_founded_refresh(&gp, &mut t_chain, &mut u_chain, start, &mut model);
        assert_eq!(model, well_founded_model(&gp));
        let m0 = model.clone();
        // Grow: give c an escape move back to a, plus its win rule
        // instance — flips the board's values.
        let mv = s.intern_symbol("move");
        let win = s.intern_symbol("win");
        let (a, c) = (s.constant("a"), s.constant("c"));
        let mca = gp.intern_atom(gsls_lang::Atom::new(mv, vec![c, a]));
        let wc = gp.intern_atom(gsls_lang::Atom::new(win, vec![c]));
        let wa = gp.lookup_atom(&gsls_lang::Atom::new(win, vec![a])).unwrap();
        let first_new = gp.clause_count() as u32;
        gp.push_clause_parts(mca, &[], &[]);
        gp.push_clause_parts(wc, &[mca], &[wa]);
        gp.finalize();
        t_chain.grow(&gp);
        u_chain.grow(&gp);
        model.grow(gp.atom_count());
        let start = cone
            .restart_set(&gp, first_new..first_new + 2, model.pos(), &none)
            .unwrap();
        well_founded_refresh(&gp, &mut t_chain, &mut u_chain, start, &mut model);
        assert_eq!(model, well_founded_model(&gp), "after growth");
        // Switch the new move fact off again on both chains: the model
        // must return to the original board's verdicts on old atoms.
        t_chain.set_clauses_enabled(&gp, &[first_new], &[]);
        u_chain.set_clauses_enabled(&gp, &[first_new], &[]);
        let start = cone
            .restart_set(&gp, [first_new], model.pos(), &none)
            .unwrap();
        well_founded_refresh(&gp, &mut t_chain, &mut u_chain, start, &mut model);
        for atom in [("win(a)"), ("win(b)"), ("win(c)")] {
            let old = gsls_ground::testutil::atom_id(&s, &gp, atom);
            assert_eq!(model.truth(old), m0.truth(old), "{atom} after switch-off");
        }
    }

    #[test]
    fn deep_negation_chain() {
        // a_i :- ~a_{i+1}; a_n fact. Alternating values down the chain.
        let mut src = String::from("a10.\n");
        for i in (0..10).rev() {
            src.push_str(&format!("a{} :- ~a{}.\n", i, i + 1));
        }
        let (s, gp, m) = wfm(&src);
        assert!(m.is_total());
        // a10 true, a9 false, a8 true, ...
        for i in 0..=10 {
            let expect = if (10 - i) % 2 == 0 {
                Truth::True
            } else {
                Truth::False
            };
            assert_eq!(m.truth(id(&s, &gp, &format!("a{i}"))), expect, "a{i}");
        }
    }
}
