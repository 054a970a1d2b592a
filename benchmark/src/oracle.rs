//! The correctness oracle. The reference never comes from the path
//! under test: it is the batch [`Grounder::ground`] followed by
//! [`well_founded_model_scratch`], the full-recompute alternating
//! fixpoint, on source text the harness assembled itself.

use crate::ops::BoardDelta;
use gsls_core::{Engine, Session, Solver};
use gsls_ground::{GroundProgram, Grounder};
use gsls_lang::{parse_goal, parse_program, Pred, TermStore};
use gsls_wfs::{well_founded_model_scratch, Interp, Truth};
use std::collections::{BTreeSet, HashMap};

/// The paper's running example, checked once per `cold_build` run
/// against both of the repo's query engines.
pub const WIN_GAME_SRC: &str = include_str!("../../examples/lp/win_game.lp");

/// An order-independent fingerprint of a set of rendered answers:
/// `(count, wrapping sum of FNV-1a hashes)`. Comparing a 30k-answer
/// reply this way costs one pass and no sort.
pub fn fingerprint<S: AsRef<str>>(answers: impl IntoIterator<Item = S>) -> (usize, u64) {
    let mut count = 0usize;
    let mut sum = 0u64;
    for a in answers {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in a.as_ref().as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        count += 1;
        sum = sum.wrapping_add(h);
    }
    (count, sum)
}

/// The expected reply to one query, in the server's rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// `"true"`, `"false"` or `"undefined"`.
    pub truth: &'static str,
    /// Fingerprint of the true answers.
    pub answers: (usize, u64),
    /// Fingerprint of the undefined answers.
    pub undefined: (usize, u64),
}

fn truth_name(t: Truth) -> &'static str {
    match t {
        Truth::True => "true",
        Truth::False => "false",
        Truth::Undefined => "undefined",
    }
}

/// The reference model of a win/move program: every position's `win`
/// verdict plus the move relation.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Positions whose `win` is true or undefined (all others are false).
    verdicts: HashMap<String, Truth>,
    /// `move` successors of each position.
    moves: HashMap<String, Vec<String>>,
}

impl Oracle {
    /// Grounds and solves `source` from scratch.
    pub fn from_source(source: &str) -> Oracle {
        let (store, gp, model) = solve(source);
        let verdicts = win_verdicts(&store, &gp, &model).collect();
        let mut moves: HashMap<String, Vec<String>> = HashMap::new();
        if let Some(mv) = store.lookup_symbol("move") {
            for id in gp.atoms_with_pred(Pred::new(mv, 2)) {
                if model.truth(id) == Truth::True {
                    let args = &gp.atom(id).args;
                    moves
                        .entry(store.display_term(args[0]))
                        .or_default()
                        .push(store.display_term(args[1]));
                }
            }
        }
        Oracle { verdicts, moves }
    }

    /// The reference for `base` after a writer stream's changes: the
    /// retracted base facts are dropped from the text and the fresh
    /// facts appended.
    pub fn after_delta(base: &str, delta: &BoardDelta) -> Oracle {
        let removed: BTreeSet<&str> = delta.removed.iter().map(String::as_str).collect();
        let mut source = String::with_capacity(base.len() + delta.added.len());
        for line in base.lines() {
            if !removed.contains(line.trim()) {
                source.push_str(line);
                source.push('\n');
            }
        }
        source.push_str(&delta.added);
        Oracle::from_source(&source)
    }

    /// Flips one verdict — the self-test behind `--corrupt-oracle`,
    /// which must make the run fail.
    pub fn corrupt_one_verdict(&mut self) {
        let name = self
            .verdicts
            .keys()
            .min()
            .cloned()
            .unwrap_or_else(|| "n0".to_owned());
        let flipped = match self.verdict(&name) {
            Truth::True => Truth::Undefined,
            _ => Truth::True,
        };
        self.verdicts.insert(name, flipped);
    }

    /// The reference verdict of `win(<position>)`.
    pub fn verdict(&self, position: &str) -> Truth {
        self.verdicts.get(position).copied().unwrap_or(Truth::False)
    }

    /// Number of true / undefined `win` positions.
    pub fn counts(&self) -> (usize, usize) {
        let t = self
            .verdicts
            .values()
            .filter(|&&t| t == Truth::True)
            .count();
        let u = self
            .verdicts
            .values()
            .filter(|&&t| t == Truth::Undefined)
            .count();
        (t, u)
    }

    /// Expected reply to `?- win(n<key>).`.
    pub fn expect_point(&self, key: usize) -> Expected {
        let t = self.verdict(&format!("n{key}"));
        let empty = fingerprint::<&str>([]);
        // A ground goal that holds yields the one empty binding.
        let one = fingerprint([""]);
        Expected {
            truth: truth_name(t),
            answers: if t == Truth::True { one } else { empty },
            undefined: if t == Truth::Undefined { one } else { empty },
        }
    }

    /// Expected reply to `?- move(n<key>, Y), ~win(Y).`.
    pub fn expect_join(&self, key: usize) -> Expected {
        let mut yes = Vec::new();
        let mut maybe = Vec::new();
        for y in self.moves.get(&format!("n{key}")).into_iter().flatten() {
            match self.verdict(y) {
                Truth::False => yes.push(format!("Y = {y}")),
                Truth::Undefined => maybe.push(format!("Y = {y}")),
                Truth::True => {}
            }
        }
        Expected {
            truth: if !yes.is_empty() {
                "true"
            } else if !maybe.is_empty() {
                "undefined"
            } else {
                "false"
            },
            answers: fingerprint(&yes),
            undefined: fingerprint(&maybe),
        }
    }

    /// Expected reply to `?- win(X).`.
    pub fn expect_enum(&self) -> Expected {
        let of = |want: Truth| {
            fingerprint(
                self.verdicts
                    .iter()
                    .filter(|(_, &t)| t == want)
                    .map(|(n, _)| format!("X = {n}")),
            )
        };
        let (t, u) = self.counts();
        Expected {
            truth: if t > 0 {
                "true"
            } else if u > 0 {
                "undefined"
            } else {
                "false"
            },
            answers: of(Truth::True),
            undefined: of(Truth::Undefined),
        }
    }

    /// Compares every `win/1` verdict against `actual` (position →
    /// verdict, false positions omitted). Returns `(compared, wrong)`.
    pub fn compare_all(&self, actual: &HashMap<String, Truth>) -> (u64, u64) {
        let names: BTreeSet<&String> = self.verdicts.keys().chain(actual.keys()).collect();
        let wrong = names
            .iter()
            .filter(|n| self.verdict(n) != actual.get(**n).copied().unwrap_or(Truth::False))
            .count();
        (names.len().max(1) as u64, wrong as u64)
    }
}

/// The reference path: parse, batch-ground, full-recompute fixpoint.
fn solve(source: &str) -> (TermStore, GroundProgram, Interp) {
    let mut store = TermStore::new();
    let program = parse_program(&mut store, source).expect("oracle source parses");
    let gp = Grounder::ground(&mut store, &program).expect("oracle program grounds");
    let model = well_founded_model_scratch(&gp);
    (store, gp, model)
}

/// Non-false `win/1` verdicts of a ground program's model, by position
/// name.
fn win_verdicts(
    store: &TermStore,
    gp: &GroundProgram,
    model: &Interp,
) -> impl Iterator<Item = (String, Truth)> {
    let mut out = Vec::new();
    if let Some(win) = store.lookup_symbol("win") {
        for id in gp.atoms_with_pred(Pred::new(win, 1)) {
            let t = model.truth(id);
            if t != Truth::False {
                out.push((store.display_term(gp.atom(id).args[0]), t));
            }
        }
    }
    out.into_iter()
}

/// The live session's non-false `win/1` verdicts.
pub fn session_verdicts(session: &Session) -> HashMap<String, Truth> {
    win_verdicts(session.store(), session.ground_program(), session.model()).collect()
}

/// The verdicts a served `?- win(X).` reply encodes.
pub fn reply_verdicts(answers: &[String], undefined: &[String]) -> HashMap<String, Truth> {
    let strip = |s: &String| s.strip_prefix("X = ").unwrap_or(s).to_owned();
    answers
        .iter()
        .map(|a| (strip(a), Truth::True))
        .chain(undefined.iter().map(|a| (strip(a), Truth::Undefined)))
        .collect()
}

/// The paper's own procedure against its semantics: `Engine::GlobalTree`
/// and `Engine::Tabled` must both return the oracle's verdict on every
/// ground `win` goal of `examples/lp/win_game.lp`. Returns
/// `(goals checked, disagreements)`.
pub fn conformance() -> (u64, u64) {
    let oracle = Oracle::from_source(WIN_GAME_SRC);
    let mut checked = 0;
    let mut wrong = 0;
    for position in ["a", "b", "c"] {
        for engine in [Engine::GlobalTree, Engine::Tabled] {
            let mut store = TermStore::new();
            let program = parse_program(&mut store, WIN_GAME_SRC).expect("win_game.lp parses");
            let goal =
                parse_goal(&mut store, &format!("?- win({position}).")).expect("goal parses");
            let verdict = Solver::new(program)
                .query(&mut store, &goal, engine)
                .map(|r| r.truth);
            checked += 1;
            if verdict != Ok(oracle.verdict(position)) {
                wrong += 1;
            }
        }
    }
    (checked, wrong)
}

/// Counts of true / undefined answers by program, for `cold_build`'s
/// per-build check.
pub fn answer_counts(source: &str, goal_pred: &str, arity: u32) -> (usize, usize) {
    let (store, gp, model) = solve(source);
    let Some(sym) = store.lookup_symbol(goal_pred) else {
        return (0, 0);
    };
    let (mut yes, mut maybe) = (0, 0);
    for id in gp.atoms_with_pred(Pred::new(sym, arity)) {
        match model.truth(id) {
            Truth::True => yes += 1,
            Truth::Undefined => maybe += 1,
            Truth::False => {}
        }
    }
    (yes, maybe)
}
