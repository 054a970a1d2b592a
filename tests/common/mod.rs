//! What two sessions over the same source must agree on, whichever way
//! each got there — committed incrementally, rolled back by truncation,
//! or rebuilt from source: the fingerprint behind "truncate ≡ rebuild".
//! Everything in it is read by *name* (atom ids and clause indices are
//! an engine's own business), and it covers the kernel as well as the
//! model: a dedup entry, a fact row or an atom a rollback left behind
//! shows up as a clause, a cardinality or a domain constant too many —
//! at once or, for what only steers later grounding, after the next
//! commits, which is why callers compare again after running the same
//! commits on both.
#![allow(dead_code)]

use global_sls::prelude::*;
use std::collections::BTreeMap;

/// The rendered, sorted answers of `goal` on `snapshot`.
pub fn frozen_answers(snapshot: &Snapshot, goal: &str) -> Vec<(String, u8)> {
    let q = snapshot.prepare(goal).expect("goal compiles on a snapshot");
    let mut rows: Vec<(String, u8)> = q
        .execute(snapshot)
        .expect("snapshot run")
        .map(|a| (q.render_answer(snapshot, &a), a.truth as u8))
        .collect();
    rows.sort();
    rows
}

/// See the module docs.
#[derive(Debug, PartialEq, Eq)]
pub struct StateFingerprint {
    /// Every interned atom, by name, with its verdict.
    pub verdicts: BTreeMap<String, u8>,
    /// The ground clauses as a multiset of display lines.
    pub clauses: Vec<String>,
    /// Interned atoms per predicate name.
    pub cardinalities: BTreeMap<String, usize>,
    /// Size of the active domain (what an all-negative variable ranges
    /// over).
    pub domain: usize,
    /// The answers of the caller's goals on a fresh snapshot.
    pub answers: Vec<Vec<(String, u8)>>,
}

/// The fingerprint of `s` as it stands.
pub fn state_fingerprint(s: &mut Session, goals: &[&str]) -> StateFingerprint {
    let snapshot = s.snapshot();
    let answers = goals
        .iter()
        .map(|goal| frozen_answers(&snapshot, goal))
        .collect();
    let domain = frozen_answers(&snapshot, "?- ~no_such_predicate(X).").len();
    let gp = s.ground_program();
    assert!(gp.is_finalized(), "a committed state is finalized");
    let verdicts = gp
        .atom_ids()
        .map(|id| (gp.display_atom(s.store(), id), s.model().truth(id) as u8))
        .collect();
    let mut clauses: Vec<String> = gp.display(s.store()).lines().map(str::to_owned).collect();
    clauses.sort();
    let cardinalities = gp
        .pred_cardinalities()
        .into_iter()
        .map(|(p, n)| (format!("{}/{}", s.store().symbol_name(p.sym), p.arity), n))
        .collect();
    StateFingerprint {
        verdicts,
        clauses,
        cardinalities,
        domain,
        answers,
    }
}

/// The rebuild oracle: a session built from `s`'s source program in one
/// go (`EngineState::build`, as construction and `recover()` run it),
/// with the facts `retracted` names switched off again.
pub fn rebuilt_like(s: &Session, retracted: &[String]) -> Session {
    let mut oracle = Session::with_opts_lints(
        s.store().clone(),
        s.program().clone(),
        GrounderOpts::default(),
        s.lint_config().clone(),
    )
    .expect("the committed program grounds from scratch");
    if !retracted.is_empty() {
        oracle
            .retract_facts(&retracted.join(" "))
            .expect("oracle retract");
    }
    oracle
}

/// Asserts that `s` — typically just rolled back — is indistinguishable
/// from a from-source rebuild of the same program and retracted set.
pub fn assert_matches_rebuild(s: &mut Session, retracted: &[String], goals: &[&str], ctx: &str) {
    let mut oracle = rebuilt_like(s, retracted);
    let (got, want) = (
        state_fingerprint(s, goals),
        state_fingerprint(&mut oracle, goals),
    );
    assert_fingerprints_eq(&got, &want, ctx);
}

/// `assert_eq!` on two fingerprints, field by field, so a failure
/// names what diverged instead of printing two boards.
pub fn assert_fingerprints_eq(got: &StateFingerprint, want: &StateFingerprint, ctx: &str) {
    assert_eq!(got.domain, want.domain, "{ctx}: active domain");
    assert_eq!(
        got.cardinalities, want.cardinalities,
        "{ctx}: cardinalities"
    );
    assert_eq!(got.clauses.len(), want.clauses.len(), "{ctx}: clause count");
    assert_eq!(got.clauses, want.clauses, "{ctx}: clause multiset");
    assert_eq!(got.verdicts, want.verdicts, "{ctx}: verdicts");
    assert_eq!(got.answers, want.answers, "{ctx}: goal answers");
}
