//! Soundness of the cone-restarted refresh: `well_founded_refresh` run
//! from `T∞(old) ∖ cone` on warm chains must land on the well-founded
//! model a from-scratch solve of the changed program computes — over
//! random programs and random walks of clause appends and clause
//! switches, and on the named shapes where a naive restart goes wrong.

use gsls_ground::{GroundAtomId, GroundProgram, Grounder};
use gsls_lang::{parse_program, Atom, TermStore};
use gsls_par::govern::Guard;
use gsls_wfs::{
    well_founded_model_scratch, well_founded_model_with_stats, well_founded_refresh, BitSet,
    ChangeCone, IncrementalLfp, Interp, NegMode, Propagator, Truth,
};
use proptest::prelude::*;

/// A propositional clause: head atom, body `(atom, positive)` literals.
type RawClause = (u8, Vec<(u8, bool)>);

/// A ground program under maintenance, the way a session drives one:
/// append clauses or flip clause switches, then [`Maintained::refresh`].
struct Maintained {
    store: TermStore,
    gp: GroundProgram,
    t_chain: IncrementalLfp,
    u_chain: IncrementalLfp,
    /// The other `NegMode` user: a `T̄^ω(S⁻)` chain grown and switched
    /// in lockstep, evaluated at the model's false set.
    inside: IncrementalLfp,
    cone: ChangeCone,
    model: Interp,
    disabled: Vec<bool>,
}

impl Maintained {
    /// Warm state over an already-finalized program, solved once through
    /// the same `refresh` every later step uses (unprimed chains, nothing
    /// changed: the start is `∅`).
    fn over(store: TermStore, gp: GroundProgram) -> Maintained {
        let mut m = Maintained {
            t_chain: IncrementalLfp::new(&gp, NegMode::SatisfiedOutside),
            u_chain: IncrementalLfp::new(&gp, NegMode::SatisfiedOutside),
            inside: IncrementalLfp::new(&gp, NegMode::SatisfiedInside),
            cone: ChangeCone::new(),
            model: Interp::new(gp.atom_count()),
            disabled: vec![false; gp.clause_count()],
            store,
            gp,
        };
        m.refresh(m.gp.clause_count() as u32, &[], &[]);
        m
    }

    /// The propositional program `clauses`, appended onto an empty one.
    fn new(clauses: &[RawClause]) -> Maintained {
        let mut gp = GroundProgram::new();
        gp.finalize();
        let mut m = Maintained::over(TermStore::new(), gp);
        for (head, body) in clauses {
            m.push(*head, body);
        }
        m.refresh(0, &[], &[]);
        m
    }

    fn from_source(src: &str) -> Maintained {
        let mut store = TermStore::new();
        let program = parse_program(&mut store, src).expect("source parses");
        let gp = Grounder::ground(&mut store, &program).expect("source grounds");
        Maintained::over(store, gp)
    }

    fn atom(&mut self, i: u8) -> GroundAtomId {
        let sym = self.store.intern_symbol(&format!("p{i}"));
        self.gp.intern_atom(Atom::new(sym, Vec::new()))
    }

    fn named(&self, name: &str) -> GroundAtomId {
        gsls_ground::testutil::atom_id(&self.store, &self.gp, name)
    }

    /// The clause whose head is `head` and whose body is empty.
    fn fact_clause(&self, head: &str) -> u32 {
        let head = self.named(head);
        (0..self.gp.clause_count() as u32)
            .find(|&ci| self.gp.clause(ci).head == head && self.gp.clause(ci).is_fact())
            .expect("fact clause present")
    }

    /// Appends one clause (unfinalized until the next `refresh`).
    fn push(&mut self, head: u8, body: &[(u8, bool)]) {
        let head = self.atom(head);
        let (mut pos, mut neg) = (Vec::new(), Vec::new());
        for &(a, positive) in body {
            let a = self.atom(a);
            if positive { &mut pos } else { &mut neg }.push(a);
        }
        self.gp.push_clause_parts(head, &pos, &neg);
        self.disabled.push(false);
    }

    /// One commit's model maintenance: finalize, grow the chains over
    /// the clauses from `first_new` on, flip the switches, restart the
    /// alternation below the cone of everything that changed.
    fn refresh(&mut self, first_new: u32, disable: &[u32], enable: &[u32]) {
        self.absorb(disable, enable, 3);
        let gp = &self.gp;
        let changed = (first_new..gp.clause_count() as u32)
            .chain(disable.iter().copied())
            .chain(enable.iter().copied());
        let start = self
            .cone
            .restart_set(gp, changed, self.model.pos(), &Guard::none())
            .expect("ungoverned");
        well_founded_refresh(
            gp,
            &mut self.t_chain,
            &mut self.u_chain,
            start,
            &mut self.model,
        );
    }

    /// The first half of a commit's maintenance — finalize, record the
    /// switches, grow and switch the first `chains` of the three chains,
    /// size the model — which is as far as an interrupted commit gets:
    /// the model itself is written last, by the refresh.
    fn absorb(&mut self, disable: &[u32], enable: &[u32], chains: usize) {
        self.gp.finalize();
        let gp = &self.gp;
        for &ci in disable {
            self.disabled[ci as usize] = true;
        }
        for &ci in enable {
            self.disabled[ci as usize] = false;
        }
        for chain in [&mut self.t_chain, &mut self.u_chain, &mut self.inside]
            .into_iter()
            .take(chains)
        {
            chain.grow(gp);
            chain.set_clauses_enabled(gp, disable, enable);
        }
        self.model.grow(gp.atom_count());
    }

    /// Rolls back to the program's first `n_atoms` atoms / `n_clauses`
    /// clauses and flips `switched` back, the way a session unwinds:
    /// chains shrink over the uncut program, the program truncates, the
    /// switches flip back, and the model — untouched if the commit being
    /// undone never refreshed it, else (`model_stale`) refreshed below
    /// the cone of everything dropped or flipped.
    fn undo(&mut self, n_atoms: usize, n_clauses: usize, switched: &[u32], model_stale: bool) {
        let gp = &self.gp;
        if model_stale {
            let changed =
                (n_clauses as u32..gp.clause_count() as u32).chain(switched.iter().copied());
            self.cone
                .restart_set(gp, changed, self.model.pos(), &Guard::none())
                .expect("ungoverned");
        }
        for chain in [&mut self.t_chain, &mut self.u_chain, &mut self.inside] {
            chain.shrink_to(gp, n_atoms, n_clauses);
        }
        self.gp.truncate_to(n_atoms, n_clauses);
        self.disabled.truncate(n_clauses);
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for &ci in switched {
            let flag = &mut self.disabled[ci as usize];
            *flag = !*flag;
            if *flag { &mut off } else { &mut on }.push(ci);
        }
        let gp = &self.gp;
        assert!(gp.is_finalized());
        for chain in [&mut self.t_chain, &mut self.u_chain, &mut self.inside] {
            chain.set_clauses_enabled(gp, &off, &on);
        }
        self.model.truncate(n_atoms);
        if model_stale {
            let start = self.cone.start_cut_to(n_atoms);
            well_founded_refresh(
                gp,
                &mut self.t_chain,
                &mut self.u_chain,
                start,
                &mut self.model,
            );
        }
    }

    /// The program a from-scratch solver sees: same atom ids, switched-
    /// off clauses omitted.
    fn effective_program(&self) -> GroundProgram {
        let mut copy = GroundProgram::new();
        for a in self.gp.atom_ids() {
            copy.intern_atom(self.gp.atom(a).clone());
        }
        for (ci, c) in self.gp.clauses().enumerate() {
            if !self.disabled[ci] {
                copy.push_clause_parts(c.head, c.pos, c.neg);
            }
        }
        copy.finalize();
        copy
    }

    /// Maintained model ≡ scratch model, and the `SatisfiedInside` chain
    /// at the model's false set ≡ its scratch fixpoint ≡ the true set
    /// (`T̄^ω(M⁻) = M⁺` at the well-founded model, Lemma 4.2).
    fn check(&mut self, what: &str) {
        let effective = self.effective_program();
        assert_eq!(
            self.model,
            well_founded_model_scratch(&effective),
            "cone-restart model diverges from scratch {what}"
        );
        self.inside.evaluate(&self.gp, self.model.neg());
        let mut oracle = BitSet::new(effective.atom_count());
        Propagator::new(&effective).lfp_into(
            &effective,
            |q| self.model.neg().contains(q.index()),
            &mut oracle,
        );
        assert_eq!(self.inside.out(), &oracle, "inside chain vs scratch {what}");
        assert_eq!(self.inside.out(), self.model.pos(), "T̄^ω(M⁻) = M⁺ {what}");
    }

    fn truth(&self, name: &str) -> Truth {
        self.model.truth(self.named(name))
    }
}

fn clause_strategy() -> impl Strategy<Value = RawClause> {
    (
        0u8..10,
        prop::collection::vec(((0u8..10), any::<bool>()), 0..4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random ground programs × random walks of appends
    /// (`push_clause_parts` + `finalize` + `grow`) and
    /// `set_clauses_enabled` flips — alone and combined in one step, as
    /// a commit combines them: after every step the cone-restart model
    /// equals `well_founded_model_scratch` of the result, in both
    /// `NegMode` users. A third of the steps are then **undone**
    /// (`shrink_to` + `truncate_to`, the session's rollback): some after
    /// committing in full, so the model has to be refreshed back, some
    /// after only growing and switching zero to three of the chains, as
    /// an interrupted commit leaves them — either way the state must be
    /// the scratch model of the program before the step, and the walk
    /// goes on from it.
    #[test]
    fn refresh_cone_restart_matches_scratch_on_random_walks(
        clauses in prop::collection::vec(clause_strategy(), 1..14),
        walk in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), clause_strategy()), 1..14),
    ) {
        let mut m = Maintained::new(&clauses);
        m.check("after the initial solve");
        for (step, (kind, pick_a, pick_b, clause)) in walk.iter().enumerate() {
            let first_new = m.gp.clause_count() as u32;
            let n_atoms = m.gp.atom_count();
            if kind % 3 != 1 {
                m.push(clause.0, &clause.1);
                if kind % 5 == 0 {
                    // A second clause whose head feeds the first's body.
                    m.push(*pick_a % 10, &[(clause.0, kind % 2 == 0)]);
                }
            }
            let (mut disable, mut enable) = (Vec::new(), Vec::new());
            if kind % 3 != 0 {
                for pick in [pick_a, pick_b] {
                    let ci = u32::from(*pick) % first_new;
                    if disable.contains(&ci) || enable.contains(&ci) {
                        continue;
                    }
                    if m.disabled[ci as usize] { &mut enable } else { &mut disable }.push(ci);
                }
            }
            let what = format!("step {step} (+{} clauses, -{disable:?} +{enable:?})",
                m.gp.clause_count() as u32 - first_new);
            let switched: Vec<u32> = disable.iter().chain(&enable).copied().collect();
            match (kind / 16) % 6 {
                undone @ (0 | 1) => {
                    if undone == 0 {
                        m.refresh(first_new, &disable, &enable);
                        m.check(&format!("at {what}"));
                    } else {
                        m.absorb(&disable, &enable, usize::from(*pick_b % 4));
                    }
                    m.undo(n_atoms, first_new as usize, &switched, undone == 0);
                    prop_assert_eq!(
                        (m.gp.atom_count(), m.gp.clause_count()),
                        (n_atoms, first_new as usize)
                    );
                    m.check(&format!("after undoing {what}"));
                }
                _ => {
                    m.refresh(first_new, &disable, &enable);
                    m.check(&format!("at {what}"));
                }
            }
        }
    }
}

/// An odd loop through negation sits inside the cone: `p :- f, ~p` is
/// undefined while `f` holds and false once `f` is retracted, and `q`,
/// `r` downstream must follow — while `y`, outside the cone, keeps its
/// (undefined) verdict without being touched.
#[test]
fn refresh_odd_loop_through_negation_inside_the_cone() {
    let mut m = Maintained::from_source(
        "f. p :- f, ~p. q :- ~p. r :- q, ~s. s :- ~r, p. x :- ~y. y :- ~x. z :- ~x, f.",
    );
    m.check("initially");
    assert_eq!(m.truth("p"), Truth::Undefined);
    assert_eq!(m.truth("q"), Truth::Undefined);
    let f = m.fact_clause("f");
    m.refresh(m.gp.clause_count() as u32, &[f], &[]);
    m.check("after retracting f");
    assert_eq!(m.truth("p"), Truth::False);
    assert_eq!(m.truth("q"), Truth::True);
    assert_eq!(m.truth("r"), Truth::True);
    assert_eq!(m.truth("y"), Truth::Undefined);
    m.refresh(m.gp.clause_count() as u32, &[], &[f]);
    m.check("after re-asserting f");
    assert_eq!(m.truth("p"), Truth::Undefined);
    assert_eq!(m.truth("r"), Truth::Undefined);
    // Grow the loop from inside the cone: a second odd loop hanging off
    // the first.
    let first_new = m.gp.clause_count() as u32;
    let (o, p) = (m.named("q"), m.named("p"));
    m.gp.push_clause_parts(o, &[], &[o, p]);
    m.disabled.push(false);
    m.refresh(first_new, &[], &[]);
    m.check("after appending q :- ~q, ~p");
}

/// A positive cycle `c ⇄ d` straddles the cone boundary: its members
/// are in the cone of the switched fact `x`, one of its two supports
/// (`e`) is outside. With `e` on, the cycle must be re-derived from the
/// untouched side after the restart dropped it from the start set; with
/// `e` off too, it must die with `x` instead of supporting itself.
#[test]
fn refresh_positive_cycle_straddling_the_cone_boundary() {
    let mut m = Maintained::from_source(
        "x. e. g. c :- d. d :- c. c :- e, ~n. d :- x. n :- ~g. w :- ~c. v :- d, ~w.",
    );
    m.check("initially");
    assert_eq!(m.truth("c"), Truth::True);
    let (x, e) = (m.fact_clause("x"), m.fact_clause("e"));
    let none = m.gp.clause_count() as u32;
    m.refresh(none, &[x], &[]);
    m.check("after retracting x (e still supports the cycle)");
    assert_eq!(m.truth("d"), Truth::True);
    assert_eq!(m.truth("v"), Truth::True);
    m.refresh(none, &[e], &[]);
    m.check("after retracting e too");
    assert_eq!(m.truth("c"), Truth::False);
    assert_eq!(m.truth("d"), Truth::False);
    assert_eq!(m.truth("w"), Truth::True);
    m.refresh(none, &[], &[x]);
    m.check("after re-asserting x alone");
    assert_eq!(m.truth("c"), Truth::True);
    m.refresh(none, &[x], &[e]);
    m.check("after swapping the supports in one step");
    assert_eq!(m.truth("d"), Truth::True);
}

/// `A(S)` by the scratch propagator.
fn reduct_lfp(gp: &GroundProgram, s: &BitSet) -> BitSet {
    let mut out = BitSet::new(gp.atom_count());
    Propagator::new(gp).lfp_into(gp, |q| !s.contains(q.index()), &mut out);
    out
}

/// A start below `T∞` that is not a pre-fixpoint. On the chain
/// `a0. aᵢ₊₁ :- ~aᵢ.` (`T∞` = the even atoms) `F = A∘A` maps `S` to
/// `{a0} ∪ {aᵢ₊₂ : aᵢ ∈ S}`, so from `T₀ = {a0, a4}` on six atoms
/// `T₁ = {a0, a2}` and `U₀`, `U₁` both lack two atoms: consecutive
/// rounds with equal cardinalities and different sets, neither of them
/// the fixpoint `{a0, a2, a4}`. A stop test on counts ends here, with
/// `a4` and `a5` undefined; the set-equality test must not.
#[test]
fn refresh_stop_rule_is_set_equality_not_cardinality() {
    let mut store = TermStore::new();
    let src = "a0. a1 :- ~a0. a2 :- ~a1. a3 :- ~a2. a4 :- ~a3. a5 :- ~a4.";
    let program = parse_program(&mut store, src).unwrap();
    let gp = Grounder::ground(&mut store, &program).unwrap();
    let id = |name: &str| gsls_ground::testutil::atom_id(&store, &gp, name);
    let n = gp.atom_count();
    let start = BitSet::from_indices(n, [id("a0").index(), id("a4").index()]);
    let wfm = well_founded_model_scratch(&gp);
    assert!(start.is_subset(wfm.pos()), "the start-set contract holds");

    // The trap is armed: one round from `start` preserves both
    // cardinalities, changes both sets, and is not yet the fixpoint.
    let u0 = reduct_lfp(&gp, &start);
    let t1 = reduct_lfp(&gp, &u0);
    let u1 = reduct_lfp(&gp, &t1);
    assert_eq!((t1.count(), u1.count()), (start.count(), u0.count()));
    assert!(t1 != start && u1 != u0);
    assert!(!start.is_subset(&t1), "not a pre-fixpoint");
    assert_ne!(&t1, wfm.pos());

    let mut t_chain = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
    let mut u_chain = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
    let mut model = Interp::new(n);
    well_founded_refresh(&gp, &mut t_chain, &mut u_chain, &start, &mut model);
    assert_eq!(model, wfm);
    assert_eq!(model.truth(id("a4")), Truth::True);
    assert_eq!(model.truth(id("a5")), Truth::False);
}

/// From `start = ∅` on unprimed chains the refresh *is* the classical
/// iteration: the same model after exactly the `reduct_calls` of
/// `well_founded_model_with_stats` — the set-equality stop costs no
/// extra round.
#[test]
fn refresh_from_empty_start_does_exactly_the_classical_reduct_calls() {
    let mut deep = String::from("a40.\n");
    for i in (0..40).rev() {
        deep.push_str(&format!("a{} :- ~a{}.\n", i, i + 1));
    }
    for src in [
        "q. p :- ~q. r :- ~p.",
        "p :- ~q. q :- ~p. r :- ~s. s.",
        "p :- ~p. q :- ~s, ~p. s :- ~q.",
        "e(a, b). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).",
        "move(a, b). move(b, a). move(b, c). move(c, d). win(X) :- move(X, Y), ~win(Y).",
        deep.as_str(),
    ] {
        let mut store = TermStore::new();
        let program = parse_program(&mut store, src).unwrap();
        let gp = Grounder::ground(&mut store, &program).unwrap();
        let (classical, stats) = well_founded_model_with_stats(&gp);
        let mut t_chain = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        let mut u_chain = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
        let mut model = Interp::new(gp.atom_count());
        let empty = BitSet::new(gp.atom_count());
        well_founded_refresh(&gp, &mut t_chain, &mut u_chain, &empty, &mut model);
        assert_eq!(model, classical, "{src}");
        assert_eq!(
            t_chain.stats().evaluations + u_chain.stats().evaluations,
            u64::from(stats.reduct_calls),
            "reduct calls: {src}"
        );
    }
}
