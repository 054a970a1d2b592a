//! Unit tests of the session surface (moved verbatim from the old
//! single-file module; the workspace-level suites live in `tests/`).

use super::*;
use crate::solver::Engine;
use gsls_analyze::{Lint, LintLevel};
use gsls_lang::parse_goal;
use gsls_wfs::Truth;
use std::borrow::Cow;

#[test]
fn snapshot_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>();
    assert_send_sync::<PreparedQuery>();
}

#[test]
fn quickstart_flow() {
    let sess =
        Session::from_source("move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).")
            .unwrap();
    assert_eq!(sess.truth("?- win(b).").unwrap(), Truth::True);
    assert_eq!(sess.truth("?- win(a).").unwrap(), Truth::False);
    assert_eq!(sess.truth("?- win(c).").unwrap(), Truth::False);
    let r = sess.query("?- win(X).").unwrap();
    assert_eq!(r.truth, Truth::True);
    assert_eq!(r.answers.len(), 1);
    // The substitution binds the goal's own variables: it renders
    // through a prepared query, not through the session's store.
    let q = sess.prepare("?- win(X).").unwrap();
    let answer = Answer {
        subst: r.answers[0].clone(),
        truth: r.truth,
    };
    assert_eq!(q.render_answer(&sess, &answer), "X = b");
}

/// Reading interns nothing: a thousand text queries, then a thousand
/// over constants the session has never seen, leave the live store
/// exactly as they found it.
#[test]
fn read_path_interns_nothing_into_the_session() {
    let sess =
        Session::from_source("move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).")
            .unwrap();
    let footprint = |s: &Session| {
        let store = s.store();
        (store.var_count(), store.len(), store.approx_bytes())
    };
    let before = footprint(&sess);
    for _ in 0..1000 {
        assert_eq!(sess.truth("?- win(X).").unwrap(), Truth::True);
    }
    assert_eq!(footprint(&sess), before, "1,000 enumerations");
    for i in 0..1000 {
        let goal = format!("?- win(zebra{i}).");
        assert_eq!(sess.truth(&goal).unwrap(), Truth::False);
    }
    assert_eq!(footprint(&sess), before, "1,000 unseen constants");
}

#[test]
fn assert_retract_roundtrip() {
    let mut sess = Session::from_source("move(a, b). win(X) :- move(X, Y), ~win(Y).").unwrap();
    assert_eq!(sess.truth("?- win(a).").unwrap(), Truth::True);
    // Give b an escape: a↔b draw loop.
    sess.assert_facts("move(b, a).").unwrap();
    assert_eq!(sess.truth("?- win(a).").unwrap(), Truth::Undefined);
    assert_eq!(sess.epoch(), 1);
    // Retract it again.
    sess.retract_facts("move(b, a).").unwrap();
    assert_eq!(sess.truth("?- win(a).").unwrap(), Truth::True);
    assert_eq!(sess.truth("?- move(b, a).").unwrap(), Truth::False);
    // Re-assert: re-enable, no new clauses.
    let before = sess.ground_program().clause_count();
    sess.assert_facts("move(b, a).").unwrap();
    assert_eq!(sess.ground_program().clause_count(), before);
    assert_eq!(sess.truth("?- move(b, a).").unwrap(), Truth::True);
}

#[test]
fn transaction_batches_and_rollback() {
    let mut sess = Session::from_source("p :- e, ~q.").unwrap();
    sess.begin().unwrap();
    sess.assert_facts("e.").unwrap();
    // Not yet visible.
    assert_eq!(sess.truth("?- p.").unwrap(), Truth::False);
    assert!(sess.in_transaction());
    assert!(matches!(sess.begin(), Err(SessionError::NestedTransaction)));
    let stats = sess.commit().unwrap();
    assert_eq!(stats.facts_asserted, 1);
    assert_eq!(sess.truth("?- p.").unwrap(), Truth::True);
    // Rollback drops the batch.
    sess.begin().unwrap();
    sess.retract_facts("e.").unwrap();
    sess.rollback();
    sess.commit().unwrap();
    assert_eq!(sess.truth("?- p.").unwrap(), Truth::True);
}

#[test]
fn add_rules_against_live_facts() {
    let mut sess = Session::from_source("e(a, b). e(b, c).").unwrap();
    sess.add_rules("t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).")
        .unwrap();
    assert_eq!(sess.truth("?- t(a, c).").unwrap(), Truth::True);
    // New facts flow through rules added earlier.
    sess.assert_facts("e(c, d).").unwrap();
    assert_eq!(sess.truth("?- t(a, d).").unwrap(), Truth::True);
}

#[test]
fn prepared_query_reuse_across_commits() {
    let mut sess = Session::from_source("d(a). good(X) :- d(X), ~bad(X).").unwrap();
    let q = sess.prepare("?- good(X).").unwrap();
    // A constant and a predicate no commit has introduced yet, and a
    // constant named like a predicate the program already has.
    let late = [
        sess.prepare("?- d(zebra).").unwrap(),
        sess.prepare("?- nope(X).").unwrap(),
        sess.prepare("?- d(bad).").unwrap(),
    ];
    assert_eq!(q.execute(&sess).unwrap().count(), 1);
    sess.assert_facts("d(b). d(c). bad(b).").unwrap();
    let answers: Vec<Answer> = q.execute(&sess).unwrap().collect();
    assert_eq!(answers.len(), 2, "a and c");
    for a in &answers {
        assert_eq!(a.truth, Truth::True);
    }

    // Once a commit introduces the late names, the plans match them —
    // on the session and on a newer snapshot; an older one still treats
    // them as foreign.
    let old = sess.snapshot();
    for late in &late {
        assert_eq!(late.execute(&sess).unwrap().count(), 0);
    }
    sess.assert_facts("d(zebra). nope(a). d(bad).").unwrap();
    let new = sess.snapshot();
    for late in &late {
        assert_eq!(late.execute(&sess).unwrap().count(), 1);
        assert_eq!(late.execute(&new).unwrap().count(), 1);
        assert_eq!(late.execute(&old).unwrap().count(), 0);
    }
    let rows: Vec<String> = (late[1].execute(&new).unwrap())
        .map(|a| late[1].render_answer(&new, &a))
        .collect();
    assert_eq!(rows, ["X = a"]);
}

#[test]
fn answers_stream_lazily() {
    let sess = Session::from_source("d(a). d(b). d(c). d(e).").unwrap();
    let q = sess.prepare("?- d(X).").unwrap();
    let mut it = q.execute(&sess).unwrap();
    assert!(it.next().is_some());
    assert!(it.next().is_some());
    drop(it); // abandoning mid-stream is fine
    assert_eq!(q.execute(&sess).unwrap().count(), 4);
}

#[test]
fn snapshot_isolation_under_writes() {
    let mut sess = Session::from_source("q(a). d(a). d(b). d(c).").unwrap();
    let q = sess.prepare("?- ~q(X).").unwrap();
    let snap = sess.snapshot();
    let snap2 = sess.snapshot();
    assert_eq!(snap.epoch(), snap2.epoch());
    // Writer moves on.
    sess.assert_facts("q(b).").unwrap();
    let live = sess.query("?- ~q(X).").unwrap();
    assert_eq!(live.answers.len(), 1);
    // The snapshot still sees epoch 0: ~q(b) holds there.
    let frozen: Vec<Answer> = q.execute(&snap).unwrap().collect();
    assert_eq!(frozen.len(), 2);
    assert_eq!(q.render_answer(&snap, &frozen[0]), "X = b");
    // One prepared query, shared by four threads: on a snapshot of now
    // it answers exactly as on the session, on the old one as before.
    let now = sess.snapshot();
    let rows = |answers: Answers<'_>, on: &Snapshot| -> Vec<String> {
        answers.map(|a| q.render_answer(on, &a)).collect()
    };
    let on_session: Vec<String> = q
        .execute(&sess)
        .unwrap()
        .map(|a| q.render_answer(&sess, &a))
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    (
                        rows(q.execute(&now).unwrap(), &now),
                        rows(q.execute(&snap).unwrap(), &snap),
                    )
                })
            })
            .collect();
        for h in handles {
            let (current, old) = h.join().unwrap();
            assert_eq!(current, on_session, "a snapshot of now is the session");
            assert_eq!(current, ["X = c"]);
            assert_eq!(old, ["X = b", "X = c"], "the old snapshot keeps its epoch");
        }
    });
}

#[test]
fn empty_session_grows_from_nothing() {
    let mut sess = Session::new();
    assert_eq!(sess.truth("?- p.").unwrap(), Truth::False);
    sess.add_rules("p :- ~q.").unwrap();
    assert_eq!(sess.truth("?- p.").unwrap(), Truth::True);
    sess.assert_facts("q.").unwrap();
    assert_eq!(sess.truth("?- p.").unwrap(), Truth::False);
}

#[test]
fn function_symbols_rejected() {
    assert!(matches!(
        Session::from_source("nat(0). nat(s(X)) :- nat(X)."),
        Err(SessionError::NotFunctionFree)
    ));
    let mut sess = Session::new();
    assert!(matches!(
        sess.add_rules("p(f(X)) :- q(X)."),
        Err(SessionError::NotFunctionFree)
    ));
    assert!(matches!(
        sess.assert_facts("p(f(a))."),
        Err(SessionError::NotFunctionFree)
    ));
    assert!(matches!(
        sess.assert_facts("p(X)."),
        Err(SessionError::NotAFact(_))
    ));
    assert!(matches!(
        sess.assert_facts("p :- q."),
        Err(SessionError::NotAFact(_))
    ));
}

#[test]
fn assert_then_retract_same_fact_in_one_commit_nets_retracted() {
    // Regression: retracts apply last, even against a re-enable
    // queued by the same commit, and the disabled-set stays in sync
    // with the chains so later retracts still work.
    let mut sess = Session::from_source("f.").unwrap();
    sess.retract_facts("f.").unwrap();
    sess.begin().unwrap();
    sess.assert_facts("f.").unwrap();
    sess.retract_facts("f.").unwrap();
    sess.commit().unwrap();
    assert_eq!(sess.truth("?- f.").unwrap(), Truth::False);
    // The inverse order nets asserted? No — retracts always apply
    // last within a batch: still false.
    sess.begin().unwrap();
    sess.retract_facts("f.").unwrap();
    sess.assert_facts("f.").unwrap();
    sess.commit().unwrap();
    assert_eq!(sess.truth("?- f.").unwrap(), Truth::False);
    // And the bookkeeping is intact: a plain assert re-enables, a
    // plain retract disables.
    sess.assert_facts("f.").unwrap();
    assert_eq!(sess.truth("?- f.").unwrap(), Truth::True);
    sess.retract_facts("f.").unwrap();
    assert_eq!(sess.truth("?- f.").unwrap(), Truth::False);
}

#[test]
fn rule_instances_are_not_retractable() {
    // Regression: p(X). derives p(a)/p(b) as permanent rule
    // instances; retract_facts must not be able to switch them off.
    // (The analyzer denies such facts by default; this test is
    // exactly about the active-domain enumeration they trigger.)
    let mut sess = Session::from_source("d(a). d(b).")
        .unwrap()
        .with_lint_config(LintConfig::default().set(Lint::NonGroundFact, LintLevel::Allow));
    sess.add_rules("p(X).").unwrap();
    assert_eq!(sess.truth("?- p(a).").unwrap(), Truth::True);
    sess.retract_facts("p(a).").unwrap();
    assert_eq!(sess.truth("?- p(a).").unwrap(), Truth::True);
    // An asserted fact shadowed by a rule instance survives its own
    // retraction through the rule, matching a scratch rebuild.
    sess.assert_facts("p(c).").unwrap();
    sess.retract_facts("p(c).").unwrap();
    assert_eq!(
        sess.truth("?- p(c).").unwrap(),
        Truth::True,
        "p(X). still derives p(c) for the active-domain constant c"
    );
}

#[test]
fn unsafe_rule_batch_rejected_with_all_violations() {
    // A floundering rule AND an arity conflict in one batch: the
    // rejection lists both (collect-all, not first-error).
    let mut sess = Session::from_source("q(a).").unwrap();
    sess.begin().unwrap();
    sess.add_rules("p(X) :- ~w(X).").unwrap();
    sess.assert_facts("q(a, b).").unwrap();
    let err = sess.commit().unwrap_err();
    let SessionError::Rejected(rej) = &err else {
        panic!("expected rejection, got {err:?}");
    };
    assert_eq!(rej.errors.len(), 2, "{rej}");
    assert!(rej.errors.iter().any(|e| matches!(
        e,
        CommitError::ArityMismatch {
            expected: 1,
            found: 2,
            ..
        }
    )));
    assert!(rej.errors.iter().any(|e| matches!(
        e,
        CommitError::Unsafe(d) if d.lint == Lint::NegativeOnlyVar
    )));
    assert!(!sess.is_poisoned());
    assert_eq!(sess.epoch(), 0, "nothing applied");
    // Still writable.
    sess.assert_facts("q(b).").unwrap();
    assert_eq!(sess.truth("?- q(b).").unwrap(), Truth::True);
}

#[test]
fn permissive_lints_admit_floundering_rules() {
    let mut sess = Session::from_source("f(a).")
        .unwrap()
        .with_lint_config(LintConfig::permissive());
    // Denied by default, admitted here: u ranges over the active
    // domain minus f.
    sess.add_rules("u(X) :- ~f(X).").unwrap();
    sess.assert_facts("f(b). g(c).").unwrap();
    assert_eq!(sess.truth("?- u(c).").unwrap(), Truth::True);
    assert_eq!(sess.truth("?- u(a).").unwrap(), Truth::False);
}

#[test]
fn seed_program_is_gated_too() {
    let err = match Session::from_source("p(X) :- ~q(X). q(a).") {
        Err(e) => e,
        Ok(_) => panic!("floundering seed program must be rejected"),
    };
    assert!(
        matches!(&err, SessionError::Rejected(r)
            if matches!(r.first(), CommitError::Unsafe(d) if d.lint == Lint::NegativeOnlyVar)),
        "got {err:?}"
    );
    // The permissive escape hatch admits the same program.
    let mut store = TermStore::new();
    let program = parse_program(&mut store, "p(X) :- ~q(X). q(a).").unwrap();
    let sess = Session::with_opts_lints(
        store,
        program,
        GrounderOpts::default(),
        LintConfig::permissive(),
    )
    .unwrap();
    assert_eq!(sess.epoch(), 0);
}

#[test]
fn warnings_surface_in_last_lint_report() {
    let mut sess = Session::from_source("e(a, b).").unwrap();
    // Singleton Y: warn-level — the commit succeeds and the report
    // is retrievable.
    sess.add_rules("p(X) :- e(X, Y).").unwrap();
    let report = sess.last_lint_report();
    assert!(!report.has_errors());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.lint == Lint::SingletonVar && d.witness.as_deref() == Some("Y")),
        "{}",
        report.render()
    );
    assert_eq!(sess.truth("?- p(a).").unwrap(), Truth::True);
    // A fact-only commit skips analysis and leaves a clean report.
    sess.assert_facts("e(b, c).").unwrap();
    assert!(sess.last_lint_report().is_clean());
}

#[test]
fn analyze_reports_on_the_full_program() {
    let mut sess =
        Session::from_source("move(a, b). move(b, a). win(X) :- move(X, Y), ~win(Y).").unwrap();
    // Default config allows unstratified programs — that's the
    // engine's job — so the full-program report is clean.
    assert!(sess.analyze().is_clean(), "{}", sess.analyze().render());
    // Under strict lints the cycle is named with its witness.
    sess.set_lint_config(LintConfig::strict());
    let report = sess.analyze();
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.lint == Lint::Unstratified)
        .expect("win-game is unstratified");
    assert_eq!(d.witness.as_deref(), Some("win → not win"));
    assert!(
        d.message.contains("locally stratified"),
        "ground program is available, the class must be named: {}",
        d.message
    );
}

#[test]
fn rule_batch_facts_are_permanent() {
    // Regression: a fact added via add_rules is program text — it
    // must stay true even if an identical source fact was retracted
    // before (or is retracted after).
    let mut sess = Session::from_source("g.").unwrap();
    sess.retract_facts("g.").unwrap();
    assert_eq!(sess.truth("?- g.").unwrap(), Truth::False);
    sess.add_rules("g.").unwrap();
    assert_eq!(sess.truth("?- g.").unwrap(), Truth::True);
    sess.retract_facts("g.").unwrap();
    assert_eq!(
        sess.truth("?- g.").unwrap(),
        Truth::True,
        "the rule-batch clause is not retractable"
    );
    // Re-asserting and retracting the source fact keeps working.
    sess.assert_facts("g.").unwrap();
    sess.retract_facts("g.").unwrap();
    assert_eq!(sess.truth("?- g.").unwrap(), Truth::True);
}

#[test]
fn session_matches_scratch_rebuild() {
    // A miniature of the workspace property test: after a mixed
    // walk, the session model equals a from-scratch solve of the
    // merged program.
    let mut sess =
        Session::from_source("e(a, b). e(b, c). r(X) :- e(X, Y), ~dead(X). dead(c).").unwrap();
    sess.assert_facts("e(c, a).").unwrap();
    sess.add_rules("t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).")
        .unwrap();
    sess.retract_facts("e(b, c).").unwrap();
    sess.assert_facts("dead(a).").unwrap();
    sess.retract_facts("dead(c).").unwrap();
    sess.assert_facts("e(b, c).").unwrap(); // re-enable
                                            // Rebuild: rules + currently-active facts.
    let mut s2 = TermStore::new();
    let p2 = parse_program(
        &mut s2,
        "e(a, b). e(b, c). r(X) :- e(X, Y), ~dead(X). \
         t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z). e(c, a). dead(a).",
    )
    .unwrap();
    let gp2 = gsls_ground::Grounder::ground(&mut s2, &p2).unwrap();
    let m2 = gsls_wfs::well_founded_model(&gp2);
    // Compare truths over the rebuilt program's atoms...
    for id2 in gp2.atom_ids() {
        let atom2 = gp2.atom(id2);
        let name = atom2.display(&s2);
        let goal = format!("?- {name}.");
        assert_eq!(
            sess.truth(&goal).unwrap(),
            m2.truth(id2),
            "atom {name} diverges"
        );
    }
    // ...and session atoms absent from the rebuild must be false.
    let session_atoms: Vec<String> = sess
        .ground_program()
        .atom_ids()
        .map(|id| sess.ground_program().display_atom(sess.store(), id))
        .collect();
    for name in session_atoms {
        let mut s3 = s2.clone();
        let g = parse_goal(&mut s3, &format!("?- {name}.")).unwrap();
        let known = g.literals()[0]
            .atom
            .is_ground(&s3)
            .then(|| gp2.lookup_atom(&g.literals()[0].atom))
            .flatten();
        if known.is_none() {
            assert_eq!(
                sess.truth(&format!("?- {name}.")).unwrap(),
                Truth::False,
                "session-only atom {name} must be false"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Indexed ≡ scan: the argument index is an access path, not a semantics.
// ---------------------------------------------------------------------

/// Minimal deterministic PRNG for the differential walk.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Runs a hand-compiled `plan` on `on`, as [`PreparedQuery::execute`]
/// runs a prepared one.
fn run_plan<'a>(plan: QueryPlan, on: impl QuerySource<'a>) -> Vec<Answer> {
    let answers = Answers::start(Cow::Owned(plan), on.view(), Guard::none(), Some(on.qobs()));
    answers.expect("plans run").collect()
}

/// One row per answer — bindings in slot order, then the truth — sorted:
/// the answer **multiset**, whatever order the candidates came in.
fn answer_rows(
    answers: Vec<Answer>,
    vars: &[gsls_lang::Var],
    names: &TermStore,
    terms: &TermStore,
) -> Vec<(String, u8)> {
    let mut rows: Vec<(String, u8)> = answers
        .iter()
        .map(|a| {
            let row: Vec<String> = vars
                .iter()
                .filter_map(|&v| {
                    let t = a.subst.lookup(v)?;
                    Some(format!("{} = {}", names.var_name(v), terms.display_term(t)))
                })
                .collect();
            (row.join(", "), a.truth as u8)
        })
        .collect();
    rows.sort();
    rows
}

/// A seeded goal over the walk's vocabulary: the shapes of the
/// session-vs-snapshot goal mix (`tests/incremental.rs`) with every
/// argument position bound in turn, plus repeated variables, slots an
/// earlier literal bound, foreign constants as the indexed key, compound
/// patterns, and joins over the random program's own relations.
fn indexed_goal(rng: &mut Rng, appended: usize, relations: &[(String, u32)]) -> String {
    let c = |rng: &mut Rng| match rng.below(8) {
        0 => format!("zz{}", rng.below(2)), // never interned
        1 | 2 if appended > 0 => format!("n{}", rng.below(appended)),
        _ => format!("c{}", rng.below(6)),
    };
    let rel = |rng: &mut Rng, arity: u32| {
        let of: Vec<&String> = relations
            .iter()
            .filter_map(|(name, a)| (*a == arity).then_some(name))
            .collect();
        (!of.is_empty()).then(|| of[rng.below(of.len())].clone())
    };
    let (unary, binary) = (rel(rng, 1), rel(rng, 2));
    match rng.below(20) {
        0 => format!("?- e({}, {}).", c(rng), c(rng)),
        1 => format!("?- e({}, X).", c(rng)),
        2 => format!("?- e(X, {}).", c(rng)),
        3 => "?- e(X, Y), ~w(Y).".to_owned(),
        4 => format!("?- e({}, Y), ~w(Y).", c(rng)),
        5 => format!("?- w(X), ~e(X, {}).", c(rng)),
        6 => "?- p(X), e(X, Y).".to_owned(),
        7 => "?- f(Y), e(X, Y), ~g(X).".to_owned(),
        8 => "?- e(X, X).".to_owned(),
        9 => format!("?- e({}, X), e(X, Y).", c(rng)),
        10 => format!("?- e({}, X), e(Y, X), ~w(Y).", c(rng)),
        11 => "?- e(zz0, X).".to_owned(),
        12 => "?- f(X), ~e(zz0, X).".to_owned(),
        13 => format!("?- e(k0({}, X), Y).", c(rng)), // stays a scan
        14 => format!("?- e({}, k1(Y)).", c(rng)),    // indexed, matches nothing
        15 => format!("?- nope(X, {}).", c(rng)),     // unseen predicate
        16 | 17 => match (binary, unary) {
            (Some(r), Some(u)) => format!("?- {u}(X), {r}(X, Y)."),
            (Some(r), None) => format!("?- {r}({}, X), {r}(X, Y).", c(rng)),
            _ => "?- f(X).".to_owned(),
        },
        18 => match binary {
            Some(r) => format!("?- {r}(X, {}), e(Y, X).", c(rng)),
            None => "?- g(X).".to_owned(),
        },
        _ => match binary {
            Some(r) => format!("?- {r}({}, Y), ~{r}(Y, Y).", c(rng)),
            None => "?- w(X).".to_owned(),
        },
    }
}

/// The plan the compiler picks — point, argument index or scan per
/// literal — and the same plan with every indexed literal forced to a
/// scan yield the same answer multiset: on the live session, on a
/// snapshot, and (indexed only; it has one compile path) on the
/// [`crate::Solver`] shim rebuilt from the same source — at every commit
/// of a walk whose appends leave the index with no run, a fresh run, a
/// tail merged into the small run and the small run folded into the
/// big one (each at least twice), and whose retractions move the model
/// under runs that stay put.
#[test]
fn indexed_plans_answer_exactly_as_scan_plans() {
    use crate::solver::Solver;
    use gsls_workloads::{random_relational_program, RandomRelationalOpts};

    const LINEAR: &str = "w(X) :- e(X, Y), ~w(Y). p(X) :- f(X), ~g(X).";
    let opts = RandomRelationalOpts {
        constants: 6,
        preds: 4,
        facts: 30,
        rules: 6,
        ..RandomRelationalOpts::default()
    };
    let mut programs = 0usize;
    for seed in 1u64..=400 {
        let mut store = TermStore::new();
        let random = random_relational_program(&mut store, opts, seed);
        let base = format!("{}\n{LINEAR}", random.display(&store));
        // The default lints refuse most random programs (unsafe rules).
        let Ok(mut session) = Session::from_source(&base) else {
            continue;
        };
        programs += 1;
        let mut relations: Vec<(String, u32)> = session
            .ground_program()
            .pred_cardinalities()
            .keys()
            .map(|p| (session.store().symbol_name(p.sym).to_owned(), p.arity))
            .filter(|(name, _)| name.starts_with('r'))
            .collect();
        relations.sort();
        let mut rng = Rng(seed);
        let mut active: Vec<String> = Vec::new();
        let mut retracted: Vec<String> = Vec::new();
        let mut appended = 0usize;
        let (mut reseals, mut merges, mut answered) = (0u64, 0u64, 0usize);
        for step in 0..16 {
            if step % 2 == 0 {
                // A chain over fresh constants, tied back into the old
                // ones: ≈ 470 new `e` atoms, so the queries below meet
                // tails of one, two and three batches before a re-seal.
                let mut batch = Vec::new();
                for _ in 0..350 {
                    let k = appended;
                    appended += 1;
                    batch.push(format!("e(n{k}, n{}).", k + 1));
                    match rng.below(6) {
                        0 => batch.push(format!("e(n{k}, c{}).", rng.below(6))),
                        1 => batch.push(format!("e(c{}, n{k}).", rng.below(6))),
                        2 => batch.push(format!("f(n{k}).")),
                        3 => batch.push(format!("f(n{k}). g(n{k}).")),
                        _ => {}
                    }
                }
                session.assert_facts(&batch.join(" ")).expect("append");
                active.extend(batch);
            } else if step % 4 == 1 {
                let batch: Vec<String> = (0..40)
                    .map(|_| active.swap_remove(rng.below(active.len())))
                    .collect();
                session.retract_facts(&batch.join(" ")).expect("retract");
                retracted.extend(batch);
            } else {
                let batch: Vec<String> = retracted.drain(..20).collect();
                session.assert_facts(&batch.join(" ")).expect("re-assert");
                active.extend(batch);
            }
            assert!(
                session.ground_program().atom_count() < 100_000,
                "seed {seed}: the walk is meant to stay small"
            );
            let snapshot = session.snapshot();
            let mut solver_store = TermStore::new();
            let current =
                parse_program(&mut solver_store, &format!("{base}\n{}", active.join(" ")))
                    .expect("source parses");
            let mut solver = Solver::new(current);

            // The probe that counts what (e, 0) rebuilds along the walk.
            let built = |s: &Session| {
                let m = s.metrics();
                ["query.index_seals", "query.index_merges"].map(|n| m.counter(n).unwrap_or(0))
            };
            let before = built(&session);
            session.query("?- e(c0, X).").expect("probe");
            let after = built(&session);
            reseals += after[0] - before[0];
            merges += after[1] - before[1];

            for _ in 0..25 {
                let goal_src = indexed_goal(&mut rng, appended, &relations);
                let mut scratch = TermStore::new();
                let goal = parse_goal(&mut scratch, &goal_src).expect("goal parses");
                // The indexed plan and its all-scan twin, against `target`.
                let plans = |target| -> Result<[QueryPlan; 2], SessionError> {
                    let names = Names {
                        source: &scratch,
                        target,
                    };
                    Ok([
                        QueryPlan::compile(names, &goal)?,
                        QueryPlan::compile_without_index(names, &goal)?,
                    ])
                };
                let Ok(live_plans) = plans(session.store()) else {
                    continue;
                };
                let vars = live_plans[0].vars.clone();
                let mut live = Vec::new();
                for plan in live_plans {
                    let answers = run_plan(plan, &session);
                    live.push(answer_rows(answers, &vars, &scratch, session.store()));
                }
                assert_eq!(
                    live[0], live[1],
                    "seed {seed} step {step}: {goal_src} (live)"
                );
                answered += usize::from(!live[0].is_empty());

                for plan in plans(snapshot.store()).expect("compiles live, compiles frozen") {
                    let answers = run_plan(plan, &snapshot);
                    let rows = answer_rows(answers, &vars, &scratch, snapshot.store());
                    assert_eq!(
                        rows, live[1],
                        "seed {seed} step {step}: {goal_src} (snapshot)"
                    );
                }

                let goal = parse_goal(&mut solver_store, &goal_src).expect("goal parses");
                let result = solver
                    .query(&mut solver_store, &goal, Engine::Tabled)
                    .expect("solver run");
                let vars = goal.vars(&solver_store);
                let answers = (result.answers.into_iter().map(|s| (s, Truth::True)))
                    .chain(result.undefined.into_iter().map(|s| (s, Truth::Undefined)))
                    .map(|(subst, truth)| Answer { subst, truth })
                    .collect();
                let rows = answer_rows(answers, &vars, &solver_store, &solver_store);
                assert_eq!(
                    rows, live[1],
                    "seed {seed} step {step}: {goal_src} (solver)"
                );
            }
        }
        assert!(
            reseals >= 3 && merges >= 2,
            "seed {seed}: (e, 0) was sealed {reseals} times and merged into {merges} times — \
             the walk must seal, and cross each of the two thresholds twice"
        );
        assert!(
            answered >= 80,
            "seed {seed}: only {answered} goals had answers — the comparison is near-vacuous"
        );
        if programs == 3 {
            break;
        }
    }
    assert_eq!(
        programs, 3,
        "too few random programs pass the default lints"
    );
}
