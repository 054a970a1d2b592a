//! Differential tests for the difference-driven alternating fixpoint:
//! the incremental `well_founded_model` must equal both the
//! full-recompute propagator baseline (`well_founded_model_scratch`)
//! and the rebuild-everything baseline (`well_founded_model_rebuild`)
//! on random programs, and must do strictly less re-enqueue work than
//! from-scratch restarts on delta-friendly workloads.
//!
//! PR 5 adds the **session maintenance property**: a random walk of
//! assert / retract / add-rule commits on a `global_sls::Session` must
//! leave a model identical to a from-scratch `well_founded_model`
//! rebuild of the merged program after every commit — checked both on
//! the live session and through a `Snapshot` read from
//! `gsls_par::threads()` reader threads (`GSLS_THREADS=2` in check.sh).
//!
//! PR 12 pins **one pipeline, one compiler** differentially: the same
//! seeded batch sequence through every commit entry point (auto-commit,
//! `begin`/`commit`, `commit_with`, `commit_group` of one, WAL replay)
//! must produce identical epochs, `CommitStats`, models and WAL bytes;
//! and seeded goals prepared once through `Session::prepare` and
//! `Snapshot::prepare`, before a walk of commits that introduce their
//! unseen names, must answer after every commit exactly as plans
//! prepared fresh on the session, on a new snapshot and on the first.
//!
//! PR 14 adds the **work gate** for the cone-restarted refresh: the
//! fixpoint work one commit does, read off the exact `lfp.*` registry
//! counters, is bounded by the change's dependency cone — the same
//! constants hold on a 32×32 and a 64×64 board.
//!
//! PR 15 adds the same kind of gate for the **grounder**: the exact
//! `ground.*` counter deltas of a leaf insert, a rule commit and a
//! domain-growing insert on a 32×32 board, recorded before the
//! `Grounder` / `IncrementalGrounder` unification and reproduced after.
//!
//! PR 16 adds **snapshot isolation as a differential property** — every
//! `Snapshot` retained along a walk of bulk asserts, retracts,
//! re-asserts and rule commits keeps answering exactly as it did at
//! capture and agrees with `well_founded_model` of its epoch's program,
//! with many, one and no snapshot alive, under concurrent readers, and
//! across a rolled-back and a recovered commit — and the **publish work
//! gate**: the bytes a commit copies because a snapshot shares the
//! store (`snapshot.cow_bytes`) are bounded by the arena chunk size, by
//! the same constant on a 32×32 and a 64×64 board.
//!
//! PR 21 extends that fingerprint to **bound-argument joins** — the
//! literals the reader-built argument index answers — with the named
//! trap of an index whose runs outlive the snapshot that sealed them
//! (an older snapshot under a longer run; a rebuilt engine must not
//! inherit the old lineage's runs; readers sealing at once), and adds
//! the **candidate gate**: `?- move(n5, Y), ~win(Y).` tries its two
//! answers plus the unsealed tail on either board, seals exactly when
//! the tail rule says, and a session that never asks such a query
//! builds no index at all.
//!
//! PR 22 adds **rollback is a truncation**: a commit interrupted at any
//! of its guard checks, whatever kind of batch it carried, leaves a
//! session indistinguishable from a from-source rebuild — now and after
//! the same eight further commits on both (`tests/common` holds the
//! fingerprint); a group whose covering fsync failed is cut back across
//! its successful commits while a snapshot taken inside it keeps
//! answering as its epoch's rebuild does; and the **rollback work
//! gate**: the `rollback.*` counters of a doomed insert are the same
//! small constants on a 32×32 and a 64×64 board.

mod common;

use common::{
    assert_fingerprints_eq, assert_matches_rebuild, frozen_answers, rebuilt_like, state_fingerprint,
};
use gsls_ground::{Grounder, GrounderOpts, HerbrandOpts};
use gsls_lang::TermStore;
use gsls_wfs::{
    stable_models, vp_iteration, well_founded_model, well_founded_model_rebuild,
    well_founded_model_scratch, well_founded_model_with_stats, wp_iteration,
};
use gsls_workloads::{random_program, van_gelder_program, win_grid, RandomProgramOpts};
use proptest::prelude::*;

fn ground_seed(opts: RandomProgramOpts, seed: u64) -> gsls_ground::GroundProgram {
    let mut store = TermStore::new();
    let program = random_program(&mut store, opts, seed);
    Grounder::ground(&mut store, &program).expect("random program grounds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// All three alternating-fixpoint implementations agree on random
    /// propositional normal programs.
    #[test]
    fn incremental_equals_scratch_and_rebuild(
        seed in any::<u64>(),
        atoms in 2usize..16,
        clauses in 1usize..40,
        max_body in 0usize..4,
    ) {
        let opts = RandomProgramOpts { atoms, clauses, max_body, neg_prob: 0.5 };
        let gp = ground_seed(opts, seed);
        let incremental = well_founded_model(&gp);
        prop_assert_eq!(&incremental, &well_founded_model_scratch(&gp), "scratch, seed {}", seed);
        prop_assert_eq!(&incremental, &well_founded_model_rebuild(&gp), "rebuild, seed {}", seed);
    }

    /// The staged V_P iteration on the incremental substrate still
    /// reaches the same fixpoint as the alternating engines and the
    /// scratch-substrate W_P oracle.
    #[test]
    fn staged_iterations_agree_on_random_programs(seed in any::<u64>()) {
        let opts = RandomProgramOpts { atoms: 10, clauses: 24, max_body: 3, neg_prob: 0.5 };
        let gp = ground_seed(opts, seed);
        let wfm = well_founded_model(&gp);
        prop_assert_eq!(&wfm, &vp_iteration(&gp).model, "vp, seed {}", seed);
        prop_assert_eq!(&wfm, &wp_iteration(&gp).model, "wp, seed {}", seed);
    }

    /// The branch-and-propagate stable enumerator returns genuine stable
    /// models that all extend the WFM, on random programs whose residue
    /// size is whatever it happens to be (no 26-atom ceiling).
    #[test]
    fn stable_enumeration_sound_on_random_programs(seed in any::<u64>()) {
        let opts = RandomProgramOpts { atoms: 10, clauses: 20, max_body: 3, neg_prob: 0.7 };
        let gp = ground_seed(opts, seed);
        let wfm = well_founded_model(&gp);
        for m in stable_models(&gp, 32) {
            prop_assert!(gsls_wfs::is_stable_model(&gp, &m), "seed {}", seed);
            for a in wfm.iter_true() {
                prop_assert!(m.contains(a.index()), "WFM-true in every stable model");
            }
            for a in wfm.iter_false() {
                prop_assert!(!m.contains(a.index()), "WFM-false in no stable model");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Session maintenance: incremental commits ≡ from-scratch rebuilds.
// ---------------------------------------------------------------------

/// Minimal deterministic PRNG (the workloads crate keeps its own
/// private; tests shouldn't depend on its internals).
struct Walk(u64);

impl Walk {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 > 1.0 - p
    }
}

/// The rule pool the walk can add, one by one. Includes recursion
/// through the added rules, negation, a rule feeding a base predicate,
/// and a residual (universe-enumerated) rule.
const WALK_RULES: &[&str] = &[
    "q(X) :- t(X, X).",
    "s(X) :- f(X), ~w(X).",
    "g(X) :- h(X, X).",
    "r2(X, Y) :- e(X, Y), ~e(Y, X).",
    "u(X) :- ~f(X).",
    "v(X) :- t(X, Y), f(Y), ~q(Y).",
];

const WALK_BASE: &str = "
    t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).
    w(X) :- e(X, Y), ~w(Y).
    p(X) :- f(X), ~g(X).
";

/// Constants mentioned in a walk fact source (`c<i>` tokens).
fn consts_in(src: &str) -> Vec<usize> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'c' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
            let mut j = i + 1;
            let mut n = 0usize;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                n = n * 10 + (bytes[j] - b'0') as usize;
                j += 1;
            }
            out.push(n);
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

fn walk_fact(rng: &mut Walk, n_consts: usize) -> String {
    let c = |rng: &mut Walk| format!("c{}", rng.below(n_consts));
    match rng.below(4) {
        0 => format!("e({}, {}).", c(rng), c(rng)),
        1 => format!("f({}).", c(rng)),
        2 => format!("g({}).", c(rng)),
        _ => format!("h({}, {}).", c(rng), c(rng)),
    }
}

/// One random session walk: mixed commits (some batched in explicit
/// transactions), model checked against a merged-program rebuild after
/// every commit, plus a threaded snapshot read.
fn session_walk(seed: u64, commits: usize) {
    use global_sls::prelude::*;

    let mut rng = Walk(seed);
    let mut session = Session::from_source(WALK_BASE).expect("base program grounds");
    // The rule pool deliberately includes lint-deniable rules (u/1 is
    // negative-only: exactly the residual active-domain case this walk
    // exercises), so the gate is opted out for the walk.
    session.set_lint_config(LintConfig::permissive());
    // Seed one fact through the session so both sides always own at
    // least one constant (base facts are retractable like any other).
    session.assert_facts("f(c0).").expect("seed fact");
    // Ever-seen constants anchor the rebuild's universe to the
    // session's active domain (the session never shrinks it).
    let mut sources: Vec<String> = vec![WALK_BASE.to_owned()];
    let mut active: Vec<String> = vec!["f(c0).".to_owned()]; // active fact sources
    let mut rules_left: Vec<&str> = WALK_RULES.to_vec();
    // Constants the *session* has seen (its active domain never
    // shrinks); the rebuild oracle is anchored to exactly this set.
    let mut seen: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    seen.insert(0); // c0 from the base program
    let threads = gsls_par::threads();

    for step in 0..commits {
        // Grow the constant pool over time so commits introduce
        // genuinely new constants (universe growth + residual rules).
        let n_consts = 3 + step.min(3);
        // Within one commit, asserts apply before retracts whatever the
        // issue order (the session's documented batch semantics) — the
        // bookkeeping below mirrors that.
        let batched = rng.chance(0.4);
        if batched {
            session.begin().expect("begin");
        }
        let mut asserts: Vec<String> = Vec::new();
        let mut retracts: Vec<String> = Vec::new();
        for _ in 0..1 + rng.below(3) {
            match rng.below(5) {
                // Assert 1–2 facts (fresh, duplicate, or re-assert).
                0 | 1 | 3 => {
                    for _ in 0..1 + rng.below(2) {
                        let f = walk_fact(&mut rng, n_consts);
                        session.assert_facts(&f).expect("assert");
                        seen.extend(consts_in(&f));
                        asserts.push(f);
                    }
                }
                // Retract an active (or sometimes never-asserted) fact.
                2 => {
                    let f = if !active.is_empty() && rng.chance(0.8) {
                        active[rng.below(active.len())].clone()
                    } else {
                        walk_fact(&mut rng, n_consts)
                    };
                    session.retract_facts(&f).expect("retract");
                    retracts.push(f);
                }
                // Add a rule from the pool.
                _ => {
                    if !rules_left.is_empty() {
                        let r = rules_left.remove(rng.below(rules_left.len()));
                        session.add_rules(r).expect("add_rules");
                        sources.push(r.to_owned());
                    }
                }
            }
            if !batched {
                // Auto-committed: fold into the active set immediately.
                for f in asserts.drain(..) {
                    if !active.contains(&f) {
                        active.push(f);
                    }
                }
                for f in retracts.drain(..) {
                    active.retain(|g| g != &f);
                }
            }
        }
        if batched {
            session.commit().expect("commit");
            for f in asserts.drain(..) {
                if !active.contains(&f) {
                    active.push(f);
                }
            }
            for f in retracts.drain(..) {
                active.retain(|g| g != &f);
            }
        }

        // Oracle: ground + solve the merged program from scratch. The
        // `seen(c)` facts pin the rebuild's Herbrand universe to the
        // session's active domain (constants are never forgotten).
        let mut merged = sources.join("\n");
        for f in &active {
            merged.push('\n');
            merged.push_str(f);
        }
        for c in &seen {
            merged.push_str(&format!("\nseen(c{c})."));
        }
        let mut store2 = TermStore::new();
        let p2 = parse_program(&mut store2, &merged).expect("merged parses");
        let gp2 = Grounder::ground(&mut store2, &p2).expect("merged grounds");
        let m2 = well_founded_model(&gp2);

        // Every rebuild atom must agree with the session…
        let mut atoms = Vec::new();
        for id2 in gp2.atom_ids() {
            let name = gp2.display_atom(&store2, id2);
            if name.starts_with("seen(") {
                continue;
            }
            let got = session.truth(&format!("?- {name}.")).expect("ground query");
            assert_eq!(
                got,
                m2.truth(id2),
                "seed {seed} step {step}: {name} diverges (session {got})"
            );
            atoms.push((name, m2.truth(id2)));
        }
        // …and session atoms the rebuild never interned must be false.
        let sess_names: Vec<String> = session
            .ground_program()
            .atom_ids()
            .map(|id| {
                (
                    session.ground_program().display_atom(session.store(), id),
                    session.model().truth(id),
                )
            })
            .filter(|(name, _)| {
                let g = parse_goal(&mut store2, &format!("?- {name}.")).expect("atom parses");
                gp2.lookup_atom(&g.literals()[0].atom).is_none()
            })
            .map(|(name, truth)| {
                assert_eq!(
                    truth,
                    Truth::False,
                    "seed {seed} step {step}: session-only atom {name} must be false"
                );
                name
            })
            .collect();
        let _ = sess_names;

        // Snapshot read from `threads` readers, each taking a contiguous
        // share of the atoms: same verdicts.
        let parsed: Vec<Atom> = {
            let mut s = session.store().clone();
            atoms
                .iter()
                .map(|(name, _)| {
                    parse_goal(&mut s, &format!("?- {name}."))
                        .expect("atom parses")
                        .literals()[0]
                        .atom
                        .clone()
                })
                .collect()
        };
        let snapshot = session.snapshot();
        let per_reader = parsed.len().div_ceil(threads).max(1);
        let verdicts: Vec<Truth> = std::thread::scope(|scope| {
            let readers: Vec<_> = parsed
                .chunks(per_reader)
                .map(|mine| {
                    let snapshot = &snapshot;
                    scope.spawn(move || -> Vec<Truth> {
                        mine.iter().map(|a| snapshot.truth_of_atom(a)).collect()
                    })
                })
                .collect();
            readers
                .into_iter()
                .flat_map(|reader| reader.join().expect("reader joins"))
                .collect()
        });
        for (i, (name, want)) in atoms.iter().enumerate() {
            assert_eq!(
                verdicts[i], *want,
                "seed {seed} step {step}: snapshot read of {name} diverges at {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The PR 5 acceptance property: session maintenance ≡ rebuild
    /// after every commit of a random update walk.
    #[test]
    fn session_random_walk_matches_rebuild(seed in any::<u64>()) {
        session_walk(seed, 8);
    }
}

/// A fixed-seed long walk that stays in the suite even when the
/// property harness samples few cases (and the `GSLS_THREADS=2` gate in
/// check.sh reruns exactly this with two snapshot readers).
#[test]
fn session_walk_fixed_seeds() {
    for seed in [3, 7, 0xdeadbeef] {
        session_walk(seed, 12);
    }
}

// ---------------------------------------------------------------------
// One commit pipeline: every entry point ≡ every other.
// ---------------------------------------------------------------------

/// One single-kind update batch (so auto-commit can issue it as one
/// commit too).
#[derive(Debug, Clone)]
enum EntryBatch {
    Assert(String),
    Retract(String),
    Rules(String),
}

/// The commit entry points under test; WAL replay is the fifth, run on
/// what these journaled.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Auto,
    Txn,
    Governed,
    GroupOfOne,
}

fn script_entry_batches(seed: u64, commits: usize) -> Vec<EntryBatch> {
    let mut rng = Walk(seed);
    let mut rules_left: Vec<&str> = WALK_RULES.to_vec();
    let mut asserted: Vec<String> = Vec::new();
    (0..commits)
        .map(|step| {
            let n_consts = 3 + step.min(3);
            match rng.below(6) {
                // Retract asserted (or sometimes never-asserted) facts.
                0 | 1 if !asserted.is_empty() => {
                    let mut src = asserted[rng.below(asserted.len())].clone();
                    if rng.chance(0.3) {
                        src.push(' ');
                        src.push_str(&walk_fact(&mut rng, n_consts));
                    }
                    EntryBatch::Retract(src)
                }
                2 if !rules_left.is_empty() => {
                    EntryBatch::Rules(rules_left.remove(rng.below(rules_left.len())).to_owned())
                }
                // Assert 1–3 facts: fresh, duplicate, or re-asserted.
                _ => {
                    let facts: Vec<String> = (0..1 + rng.below(3))
                        .map(|_| walk_fact(&mut rng, n_consts))
                        .collect();
                    asserted.extend(facts.iter().cloned());
                    EntryBatch::Assert(facts.join(" "))
                }
            }
        })
        .collect()
}

fn entry_temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gsls_entry_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything two sessions that committed the same batches must agree
/// on: epoch, the cumulative `CommitStats` (read back from the
/// registry, which also counts auto-commits and replayed commits),
/// ground-program size, and the model by atom name.
fn entry_state(
    s: &global_sls::prelude::Session,
) -> (u64, [u64; 7], usize, usize, Vec<(String, u8)>) {
    let m = s.metrics();
    let stats = [
        "commit.count",
        "commit.rules_added",
        "commit.facts_asserted",
        "commit.facts_reenabled",
        "commit.facts_retracted",
        "commit.new_atoms",
        "commit.new_clauses",
    ]
    .map(|name| m.counter(name).unwrap_or(0));
    let gp = s.ground_program();
    let mut model: Vec<_> = gp
        .atom_ids()
        .map(|id| (gp.display_atom(s.store(), id), s.model().truth(id) as u8))
        .collect();
    model.sort();
    (s.epoch(), stats, gp.atom_count(), gp.clause_count(), model)
}

/// Commits `batch` through `entry`; `None` for auto-commit, whose
/// stats only reach the registry.
fn commit_via(
    s: &mut global_sls::prelude::Session,
    entry: Entry,
    batch: &EntryBatch,
) -> Option<global_sls::prelude::CommitStats> {
    use global_sls::prelude::*;
    let issue = |s: &mut Session| match batch {
        EntryBatch::Assert(src) => s.assert_facts(src),
        EntryBatch::Retract(src) => s.retract_facts(src),
        EntryBatch::Rules(src) => s.add_rules(src),
    };
    match entry {
        Entry::Auto => {
            issue(s).expect("auto-commit");
            None
        }
        Entry::Txn => {
            s.begin().expect("begin");
            issue(s).expect("buffer");
            Some(s.commit().expect("commit"))
        }
        Entry::Governed => {
            s.begin().expect("begin");
            issue(s).expect("buffer");
            Some(s.commit_with(&CommitOpts::default()).expect("commit_with"))
        }
        Entry::GroupOfOne => {
            let (EntryBatch::Assert(src) | EntryBatch::Retract(src) | EntryBatch::Rules(src)) =
                batch;
            let clauses = parse_program(s.store_mut(), src)
                .expect("batch parses")
                .clauses()
                .to_vec();
            let heads = || clauses.iter().map(|c| c.head.clone()).collect();
            let update = match batch {
                EntryBatch::Assert(_) => UpdateBatch {
                    asserts: heads(),
                    ..UpdateBatch::default()
                },
                EntryBatch::Retract(_) => UpdateBatch {
                    retracts: heads(),
                    ..UpdateBatch::default()
                },
                EntryBatch::Rules(_) => UpdateBatch {
                    rules: clauses.clone(),
                    ..UpdateBatch::default()
                },
            };
            let mut results = s
                .commit_group(vec![(update, CommitOpts::default())])
                .expect("group fsync");
            assert_eq!(results.len(), 1);
            Some(results.remove(0).expect("group batch commits"))
        }
    }
}

/// The differential driver: four durable sessions, one per entry
/// point, fed the same batches; after every batch they must be
/// indistinguishable, their WALs byte-identical at the end, and a
/// reopen (the fifth entry: WAL replay) must land in the same state.
fn entry_points_agree(seed: u64, commits: usize) {
    use global_sls::prelude::*;
    use gsls_durable::{scan_dir, wal_path};

    const ENTRIES: [Entry; 4] = [Entry::Auto, Entry::Txn, Entry::Governed, Entry::GroupOfOne];
    let batches = script_entry_batches(seed, commits);
    let dirs: Vec<_> = ENTRIES
        .iter()
        .map(|e| entry_temp_dir(&format!("{seed}_{e:?}")))
        .collect();
    let mut sessions: Vec<Session> = dirs
        .iter()
        .map(|dir| {
            let mut store = TermStore::new();
            let program = parse_program(&mut store, WALK_BASE).expect("base parses");
            let mut s = Session::open_with_parts(
                dir,
                store,
                program,
                GrounderOpts::default(),
                DurableOpts::default(),
            )
            .expect("durable open");
            // The rule pool includes lint-deniable rules (see session_walk).
            s.set_lint_config(LintConfig::permissive());
            s
        })
        .collect();

    for (step, batch) in batches.iter().enumerate() {
        let returned: Vec<Option<CommitStats>> = ENTRIES
            .iter()
            .zip(sessions.iter_mut())
            .map(|(&entry, s)| commit_via(s, entry, batch))
            .collect();
        let want = entry_state(&sessions[0]);
        assert_eq!(want.0, step as u64 + 1, "seed {seed}: one epoch per batch");
        for (entry, s) in ENTRIES.iter().zip(&sessions).skip(1) {
            assert_eq!(
                entry_state(s),
                want,
                "seed {seed} step {step} {batch:?}: {entry:?} diverges from auto-commit"
            );
        }
        let stats: Vec<CommitStats> = returned.into_iter().flatten().collect();
        assert!(
            stats.windows(2).all(|w| w[0] == w[1]),
            "seed {seed} step {step} {batch:?}: returned CommitStats differ: {stats:?}"
        );
    }

    let want = entry_state(&sessions[0]);
    drop(sessions);
    let wal_bytes = |dir: &std::path::Path| {
        let gens = scan_dir(dir).expect("scan dir");
        std::fs::read(wal_path(dir, *gens.wals.iter().max().expect("a wal"))).expect("read wal")
    };
    let wal = wal_bytes(&dirs[0]);
    assert!(!wal.is_empty());
    for (entry, dir) in ENTRIES.iter().zip(&dirs).skip(1) {
        assert_eq!(
            wal_bytes(dir),
            wal,
            "seed {seed}: {entry:?} journaled different WAL bytes"
        );
    }
    // WAL replay: every batch re-enters the pipeline at `apply`.
    let replayed = Session::open(&dirs[0]).expect("reopen");
    assert_eq!(
        entry_state(&replayed),
        want,
        "seed {seed}: WAL replay diverges from the live commits"
    );
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn session_commit_entry_points_agree() {
    for seed in [5, 23, 0xfeed] {
        entry_points_agree(seed, 10);
    }
}

// ---------------------------------------------------------------------
// One prepare: a plan prepared once ≡ one prepared fresh, on every source.
// ---------------------------------------------------------------------

/// A seeded goal over the walk vocabulary — point lookups, scans,
/// joins, residual enumeration — salted with constants and predicates
/// no store has ever interned, with the constant `w` (a name the store
/// knows only as a predicate), and with compound-pattern arguments
/// (which no function-free atom can match).
fn seeded_goal(rng: &mut Walk) -> String {
    let c = |rng: &mut Walk| match rng.below(6) {
        0 => format!("zz{}", rng.below(3)), // never seen
        1 => "w".to_owned(),                // seen, but only as a predicate
        _ => format!("c{}", rng.below(6)),
    };
    match rng.below(12) {
        0 => format!("?- e({}, {}).", c(rng), c(rng)),
        1 => format!("?- t({}, X).", c(rng)),
        2 => "?- e(X, Y), ~w(Y).".to_owned(),
        3 => format!("?- w(X), ~e(X, {}).", c(rng)),
        4 => "?- ~f(X).".to_owned(),
        5 => format!("?- p(X), t(X, {}).", c(rng)),
        6 => format!("?- nope{}(X, {}).", rng.below(3), c(rng)), // unseen predicate
        7 => format!("?- f(X), ~nope{}(X).", rng.below(3)),
        8 => format!("?- e(X, k{}(Y)).", rng.below(2)), // non-ground compound pattern
        9 => format!("?- e(k0({}, X), Y).", c(rng)),
        10 => format!("?- f(X), ~e(X, k1({})).", c(rng)), // ground compound under negation
        _ => "?- f(X), ~e(X, k0(Y)).".to_owned(),         // unsupported on both sides
    }
}

/// A batch over the names [`seeded_goal`] salts its goals with and the
/// base vocabulary lacks: `zz*` constants, the constant `w`, and the
/// `nope*` predicates (`nope0` and `nope1` binary, `nope2` unary — one
/// arity per name, as the commit gate requires).
fn late_name_batch(rng: &mut Walk) -> String {
    let c = |rng: &mut Walk| match rng.below(4) {
        0 => format!("c{}", rng.below(6)),
        1 => "w".to_owned(),
        _ => format!("zz{}", rng.below(3)),
    };
    let facts: Vec<String> = (0..1 + rng.below(3))
        .map(|_| match rng.below(4) {
            0 => format!("e({}, {}).", c(rng), c(rng)),
            1 => format!("f({}).", c(rng)),
            2 => format!("nope{}({}, {}).", rng.below(2), c(rng), c(rng)),
            _ => format!("nope2({}).", c(rng)),
        })
        .collect();
    facts.join(" ")
}

/// Sixty seeded goals, each prepared once on the session and once on
/// its first snapshot, before a walk of commits that introduce the
/// goals' unseen names. After every commit each kept plan answers
/// exactly as a plan prepared fresh — on the session, on a snapshot of
/// now, and on the first snapshot, where a plan from the newer session
/// must treat the later names as foreign.
#[test]
fn session_and_snapshot_prepare_agree_on_seeded_goals() {
    use global_sls::core::QuerySource;
    use global_sls::prelude::*;
    use std::collections::BTreeSet;

    fn rows<'a>(q: &'a PreparedQuery, on: impl QuerySource<'a>) -> BTreeSet<(String, u8)> {
        (q.execute(on).expect("prepared plans run"))
            .map(|a| (q.render_answer(on, &a), a.truth as u8))
            .collect()
    }

    for seed in [2u64, 19, 0xabcdef] {
        let mut rng = Walk(seed);
        let mut session = Session::from_source(WALK_BASE).expect("base program grounds");
        session.set_lint_config(LintConfig::permissive());
        session.add_rules(WALK_RULES[4]).expect("residual rule"); // u(X) :- ~f(X).
        for batch in script_entry_batches(seed, 8) {
            commit_via(&mut session, Entry::Auto, &batch);
        }
        let first = session.snapshot();
        let mut kept = Vec::new();
        for _ in 0..60 {
            let goal = seeded_goal(&mut rng);
            match (session.prepare(&goal), first.prepare(&goal)) {
                (Ok(l), Ok(f)) => kept.push((goal, [l, f])),
                (Err(l), Err(f)) => assert_eq!(l, f, "seed {seed}: {goal} fails differently"),
                (l, f) => panic!("seed {seed}: {goal} compiles on one side only: {l:?} / {f:?}"),
            }
        }
        let before: Vec<_> = kept.iter().map(|(_, [l, _])| rows(l, &session)).collect();
        let answered = before.iter().filter(|r| !r.is_empty()).count();
        assert!(
            answered >= 10,
            "seed {seed}: only {answered} goals had answers — the comparison is near-vacuous"
        );

        let mut changed = 0usize;
        for step in 0..6 {
            session
                .assert_facts(&late_name_batch(&mut rng))
                .expect("late-name batch commits");
            let now = session.snapshot();
            for ((goal, kept), before) in kept.iter().zip(&before) {
                let [fresh, fresh_now, fresh_first] = [
                    session.prepare(goal),
                    now.prepare(goal),
                    first.prepare(goal),
                ]
                .map(|q| q.expect("compiled once, compiles again"));
                let live = rows(&fresh, &session);
                let then = rows(&fresh_first, &first);
                let at = format!("seed {seed} step {step}: {goal}");
                assert_eq!(rows(&fresh_now, &now), live, "{at}: a snapshot of now");
                for (q, from) in kept.iter().zip(["session", "first snapshot"]) {
                    assert_eq!(rows(q, &session), live, "{at}: kept {from} plan, live");
                    assert_eq!(rows(q, &now), live, "{at}: kept {from} plan, now");
                    assert_eq!(rows(q, &first), then, "{at}: kept {from} plan, first");
                }
                assert_eq!(rows(&fresh, &first), then, "{at}: newer plan, first");
                assert_eq!(rows(&fresh_now, &first), then, "{at}: newer plan, first");
                changed += usize::from(live != *before);
            }
        }
        assert!(
            changed > 0,
            "seed {seed}: no goal's answers moved — the walk never exercised a late name"
        );
    }
}

/// The motivating workload: successive `A(S)` contexts on the van Gelder
/// chain differ in O(1) atoms, so difference-driven restarts must do
/// strictly less clause-recheck and enqueue work than `reduct_calls`
/// from-scratch evaluations would.
#[test]
fn incremental_restarts_beat_scratch_work_on_van_gelder() {
    let mut store = TermStore::new();
    let program = van_gelder_program(&mut store);
    let gp = Grounder::ground_with(
        &mut store,
        &program,
        GrounderOpts {
            universe: HerbrandOpts {
                max_depth: 64,
                max_terms: 1_000_000,
            },
            ..GrounderOpts::default()
        },
    )
    .expect("van_gelder grounds");
    let (model, stats) = well_founded_model_with_stats(&gp);
    assert_eq!(model, well_founded_model_scratch(&gp));
    assert!(stats.reduct_calls > 100, "chain forces many rounds");
    // From-scratch restarts check every clause on every call; the
    // incremental path pays two priming scans plus deltas. Demand an
    // order of magnitude, not just "strictly less".
    let scratch_checks = stats.reduct_calls as u64 * gp.clause_count() as u64;
    assert!(
        stats.clause_checks * 10 < scratch_checks,
        "incremental clause checks {} vs from-scratch {}",
        stats.clause_checks,
        scratch_checks
    );
    // Enqueue work: from-scratch re-derives every atom of A(S) on every
    // call (≈ reduct_calls × |model|); incremental enqueues are bounded
    // by deltas and must come in far below.
    let scratch_enqueues = stats.reduct_calls as u64 * model.pos().count() as u64;
    assert!(
        stats.enqueues < scratch_enqueues / 10,
        "incremental enqueues {} vs from-scratch {}",
        stats.enqueues,
        scratch_enqueues
    );
}

/// The grid board grounds to all three truth values at a size where
/// from-scratch restarts would already hurt, and the engines agree.
#[test]
fn grid_board_engines_agree() {
    let mut store = TermStore::new();
    let program = win_grid(&mut store, 24, 24);
    let gp = Grounder::ground(&mut store, &program).expect("grid grounds");
    let incremental = well_founded_model(&gp);
    assert_eq!(incremental, well_founded_model_scratch(&gp));
    let mut truths = [0usize; 3];
    for a in gp.atom_ids() {
        truths[incremental.truth(a) as usize] += 1;
    }
    assert!(
        truths.iter().all(|&c| c > 0),
        "all three values: {truths:?}"
    );
}

// ---------------------------------------------------------------------
// Refresh work is proportional to the change's cone, not to the board.
// ---------------------------------------------------------------------

/// How much each of the `names`d registry counters grew across `op`.
/// Exact counts, the same on every machine and every run.
fn counter_growth<const N: usize>(
    s: &mut global_sls::prelude::Session,
    names: [&str; N],
    op: impl FnOnce(&mut global_sls::prelude::Session),
) -> [u64; N] {
    let read = |s: &global_sls::prelude::Session| {
        let m = s.metrics();
        names.map(|name| m.counter(name).unwrap_or(0))
    };
    let before = read(s);
    op(s);
    let after = read(s);
    std::array::from_fn(|i| after[i] - before[i])
}

/// The fixpoint work `op` costs: the growth of `lfp.enqueues +
/// lfp.clause_checks` — every atom the two chains pushed on a work
/// queue plus every clause whose liveness they re-examined.
fn refresh_work(
    s: &mut global_sls::prelude::Session,
    op: impl FnOnce(&mut global_sls::prelude::Session),
) -> u64 {
    counter_growth(s, ["lfp.enqueues", "lfp.clause_checks"], op)
        .iter()
        .sum()
}

/// The noise-free form of "commit cost is proportional to the delta".
/// A leaf insert `move(w, n)` has a two-atom cone (the fact and
/// `win(w)`, which nothing depends on). The board edge `(1,0) → (2,0)`
/// has the cone `{move, win(1,0), win(0,0)}` on every board: only
/// `(0,0)` moves into `(1,0)` and nothing moves into `(0,0)`. So the
/// fixpoint work of inserting the one and of retracting / re-asserting
/// the other must stay under the same small constant at 32×32 and at
/// 64×64. A refresh that replays the alternation from `T₀ = ∅` spends
/// thousands of units on each, growing with the board.
#[test]
fn refresh_work_is_bounded_by_the_cone_not_the_board() {
    use global_sls::prelude::*;
    const BOUND: u64 = 64;
    for side in [32usize, 64] {
        let leaves = [
            "move(w0, n5).".to_owned(),
            format!("move(w1, n{}).", side * side / 2),
            format!("move(w2, n{}).", side * side - 1),
        ];
        let mut store = TermStore::new();
        let program = win_grid(&mut store, side, side);
        let mut s = Session::from_parts(store, program).expect("board grounds");
        for fact in &leaves {
            let work = refresh_work(&mut s, |s| {
                s.assert_facts(fact).expect("leaf insert");
            });
            assert!(
                work <= BOUND,
                "{side}x{side}: leaf insert {fact} did {work} units of fixpoint work"
            );
        }
        // Twice, so both the first switch-off and a warm toggle count.
        for round in 0..2 {
            let off = refresh_work(&mut s, |s| {
                s.retract_facts("move(n1, n2).").expect("retract");
            });
            let on = refresh_work(&mut s, |s| {
                s.assert_facts("move(n1, n2).").expect("re-assert");
            });
            assert!(
                off <= BOUND && on <= BOUND,
                "{side}x{side} round {round}: edge toggle did {off} / {on} units of fixpoint work"
            );
        }
        // The gate measures a correct engine: still ≡ a rebuild.
        let mut store2 = TermStore::new();
        let mut merged = win_grid(&mut store2, side, side);
        for c in parse_program(&mut store2, &leaves.join(" "))
            .unwrap()
            .clauses()
        {
            merged.push(c.clone());
        }
        let gp2 = Grounder::ground(&mut store2, &merged).expect("merged grounds");
        let m2 = well_founded_model(&gp2);
        for id2 in gp2.atom_ids() {
            let name = gp2.display_atom(&store2, id2);
            assert_eq!(
                s.truth(&format!("?- {name}.")).unwrap(),
                m2.truth(id2),
                "{side}x{side}: {name}"
            );
        }
    }
}

/// The grounder's work for `op`: `[rounds, join_candidates,
/// index_probes, dedup_hits]`.
fn ground_work(
    s: &mut global_sls::prelude::Session,
    op: impl FnOnce(&mut global_sls::prelude::Session),
) -> [u64; 4] {
    const NAMES: [&str; 4] = [
        "ground.rounds",
        "ground.join_candidates",
        "ground.index_probes",
        "ground.dedup_hits",
    ];
    counter_growth(s, NAMES, op)
}

/// The noise-free gate for the grounder: the join work of three kinds
/// of commit on a 32×32 board, and of batch groundings of the same
/// programs, as exact counts. The literals were recorded at the commit
/// before `Grounder` and `IncrementalGrounder` became one kernel
/// (PR 15); any change to what the kernel joins, probes or dedups — a
/// dropped `persistent` branch, a catch-up join at the wrong role, a
/// lost table dedup — moves at least one of them.
#[test]
fn ground_work_per_commit_is_exactly_the_recorded_counts() {
    use global_sls::prelude::*;
    const LEAF: &str = "move(w0, n5).";
    // A recursive pair (catch-up join at full range, then semi-naive
    // rounds), a bodied rule with a residual variable and a body-less
    // residual rule (active-domain enumeration).
    const RULES: &str = "reach(Y) :- move(n0, Y). reach(Y) :- reach(X), move(X, Y). \
                         skip(X, Y) :- move(n0, X), ~win(Y). lose(X) :- ~win(X).";
    // `z0` is a new constant: the active domain grows while the two
    // residual-variable rules exist, so both re-join in full and the
    // dedup spaces absorb every instance that already exists.
    const GROW: &str = "move(z0, n7).";
    let batch_work = |store: &mut TermStore, program: &Program| {
        let (gp, st) = Grounder::ground_with_stats(store, program, GrounderOpts::default())
            .expect("board grounds");
        let work = [
            u64::from(st.rounds),
            st.join_candidates,
            st.index_probes,
            st.dedup_hits,
        ];
        (gp.clause_count(), work)
    };

    let mut store = TermStore::new();
    let program = win_grid(&mut store, 32, 32);
    let (_, board) = batch_work(&mut store, &program);
    assert_eq!(board, [1, 2324, 0, 0], "batch grounding of the board");

    let mut s = Session::from_parts(store, program).expect("board grounds");
    // The default lint gate denies negative-only (residual) rules.
    s.set_lint_config(LintConfig::permissive());
    let leaf = ground_work(&mut s, |s| {
        s.assert_facts(LEAF).expect("leaf insert");
    });
    assert_eq!(leaf, [2, 1, 0, 0], "leaf insert");
    let rules = ground_work(&mut s, |s| {
        s.add_rules(RULES).expect("rule commit");
    });
    assert_eq!(rules, [62, 3369, 1045, 0], "rule commit");
    let grow = ground_work(&mut s, |s| {
        s.assert_facts(GROW).expect("domain-growing insert");
    });
    assert_eq!(grow, [2, 4, 4, 3135], "domain-growing insert");

    // The same program in one batch: the same clauses, by its own
    // (also recorded) amount of work.
    let mut store2 = TermStore::new();
    let mut merged = win_grid(&mut store2, 32, 32);
    for c in parse_program(&mut store2, &[LEAF, RULES, GROW].join(" "))
        .unwrap()
        .clauses()
    {
        merged.push(c.clone());
    }
    let (clauses, work) = batch_work(&mut store2, &merged);
    assert_eq!(
        work,
        [63, 8021, 1045, 0],
        "batch grounding of the merged program"
    );
    assert_eq!(clauses, 10_114);
    assert_eq!(s.ground_program().clause_count(), clauses);
}

// ---------------------------------------------------------------------
// A snapshot is a frozen prefix: isolation as a differential property.
// ---------------------------------------------------------------------

/// The isolation walk's program: a win–move game plus one stratified
/// rule — linear in the facts, so a walk can intern thousands of
/// constants (several arena chunks, many table grows) in milliseconds.
const FROZEN_BASE: &str = "w(X) :- e(X, Y), ~w(Y). p(X) :- f(X), ~g(X).";
const FROZEN_RULES: &[&str] = &[
    "r(X) :- e(X, Y), w(Y).",
    "s(X) :- f(X), ~w(X).",
    "q(X, Y) :- e(X, Y), e(Y, X).",
];

/// The goals a snapshot is fingerprinted with: the enumeration and the
/// unbound join (predicate scans), then one join per way a literal comes
/// to have a bound argument — a constant or a slot an earlier literal
/// bound, in first or second position — which is what sends it through
/// the argument index, whose runs outlive the snapshot that sealed them.
const FROZEN_GOALS: [&str; 6] = [
    "?- w(X).",
    "?- e(X, Y), ~w(Y).",
    "?- e(c0, Y), ~w(Y).",
    "?- e(X, c0).",
    "?- p(X), e(X, Y).",
    "?- f(Y), e(X, Y).",
];

/// A retained snapshot with everything it answered at capture.
struct Frozen {
    snapshot: global_sls::prelude::Snapshot,
    epoch: u64,
    /// Truth of every atom interned when the snapshot was taken.
    atoms: Vec<(gsls_lang::Atom, gsls_wfs::Truth)>,
    /// Rendered, sorted answers of each of [`FROZEN_GOALS`].
    answers: Vec<Vec<(String, u8)>>,
    /// A constant only the *next* commit introduces.
    later: String,
    /// The program as of the epoch, for the rebuild oracle.
    source: String,
}

impl Frozen {
    fn capture(s: &mut global_sls::prelude::Session, source: String) -> Frozen {
        let snapshot = s.snapshot();
        let gp = s.ground_program();
        let atoms = gp
            .atom_ids()
            .map(|id| (gp.atom(id).clone(), s.model().truth(id)))
            .collect();
        Frozen {
            epoch: s.epoch(),
            atoms,
            answers: FROZEN_GOALS
                .iter()
                .map(|goal| frozen_answers(&snapshot, goal))
                .collect(),
            later: format!("zz{}", s.epoch()),
            source,
            snapshot,
        }
    }

    /// Re-asks everything: the snapshot must answer exactly as it did.
    fn recheck(&self) {
        use gsls_wfs::Truth;
        let (snap, epoch) = (&self.snapshot, self.epoch);
        assert_eq!(snap.epoch(), epoch);
        assert_eq!(snap.atom_count(), self.atoms.len(), "epoch {epoch}: atoms");
        for (atom, truth) in &self.atoms {
            assert_eq!(snap.truth_of_atom(atom), *truth, "epoch {epoch}: {atom:?}");
        }
        for (goal, answers) in FROZEN_GOALS.iter().zip(&self.answers) {
            assert_eq!(
                &frozen_answers(snap, goal),
                answers,
                "epoch {epoch}: {goal}"
            );
        }
        // A name a later commit introduced stays foreign here: its
        // atom is false, its negation true.
        let later = &self.later;
        assert!(frozen_answers(snap, &format!("?- w({later}).")).is_empty());
        assert_eq!(
            frozen_answers(snap, &format!("?- ~w({later}).")),
            vec![(String::new(), Truth::True as u8)],
            "epoch {epoch}"
        );
    }

    /// The snapshot ≡ `well_founded_model` of its epoch's program.
    fn check_against_rebuild(&self) {
        use global_sls::prelude::*;
        let mut store = TermStore::new();
        let program = parse_program(&mut store, &self.source).expect("source parses");
        let gp = Grounder::ground(&mut store, &program).expect("source grounds");
        let model = well_founded_model(&gp);
        let mut names = self.snapshot.store().clone();
        let mut settled = 0usize;
        let mut wins = Vec::new();
        let joins = bound_join_oracle(&store, &gp, &model);
        for id in gp.atom_ids() {
            let name = gp.display_atom(&store, id);
            let goal = parse_goal(&mut names, &format!("?- {name}.")).expect("atom parses");
            let got = self.snapshot.truth_of_atom(&goal.literals()[0].atom);
            assert_eq!(got, model.truth(id), "epoch {}: {name}", self.epoch);
            settled += usize::from(got != Truth::False);
            if let Some(arg) = name.strip_prefix("w(").filter(|_| got != Truth::False) {
                wins.push((format!("X = {}", arg.trim_end_matches(')')), got as u8));
            }
        }
        // Atoms only the snapshot knows (retracted facts' cones) are false.
        let non_false = self.atoms.iter().filter(|(_, t)| *t != Truth::False);
        assert_eq!(non_false.count(), settled, "epoch {}", self.epoch);
        // The enumeration path (predicate scan) against the same oracle.
        wins.sort();
        assert_eq!(self.answers[0], wins, "epoch {}: ?- w(X).", self.epoch);
        // The bound-argument joins (argument index) likewise.
        for (goal, (got, want)) in FROZEN_GOALS[2..]
            .iter()
            .zip(self.answers[2..].iter().zip(&joins))
        {
            assert_eq!(got, want, "epoch {}: {goal}", self.epoch);
        }
    }
}

/// What `FROZEN_GOALS[2..]`, the bound-argument joins, must answer on
/// the program `gp` with well-founded model `model` — read off the
/// model's atoms by name, through no query plan and no index.
fn bound_join_oracle(
    store: &TermStore,
    gp: &gsls_ground::GroundProgram,
    model: &gsls_wfs::Interp,
) -> [Vec<(String, u8)>; 4] {
    use gsls_wfs::Truth::{self, False, True, Undefined};
    let truths: std::collections::HashMap<String, Truth> = gp
        .atom_ids()
        .map(|id| (gp.display_atom(store, id), model.truth(id)))
        .collect();
    let truth = |name: String| truths.get(&name).copied().unwrap_or(False);
    let and = |a: Truth, b: Truth| match (a, b) {
        (False, _) | (_, False) => False,
        (True, True) => True,
        _ => Undefined,
    };
    let not = |t: Truth| match t {
        True => False,
        False => True,
        Undefined => Undefined,
    };
    let mut rows: [Vec<(String, u8)>; 4] = Default::default();
    for (name, &edge) in &truths {
        let Some((a, b)) = name
            .strip_prefix("e(")
            .and_then(|rest| rest.strip_suffix(')'))
            .and_then(|args| args.split_once(", "))
        else {
            continue;
        };
        let found = [
            (a == "c0").then(|| (format!("Y = {b}"), and(edge, not(truth(format!("w({b})")))))),
            (b == "c0").then(|| (format!("X = {a}"), edge)),
            Some((
                format!("X = {a}, Y = {b}"),
                and(truth(format!("p({a})")), edge),
            )),
            Some((
                format!("Y = {b}, X = {a}"),
                and(truth(format!("f({b})")), edge),
            )),
        ];
        for (rows, found) in rows.iter_mut().zip(found) {
            rows.extend(
                found
                    .filter(|(_, t)| *t != False)
                    .map(|(row, t)| (row, t as u8)),
            );
        }
    }
    rows.iter_mut().for_each(|r| r.sort());
    rows
}

/// The facts of one bulk commit: a chain over fresh constants with the
/// odd back edge (cycles make undefined positions), some `f`/`g` marks,
/// and the constant `zz<epoch>` the previous snapshot was told about.
fn frozen_bulk(rng: &mut Walk, next_const: &mut usize, epoch: u64) -> Vec<String> {
    let mut facts = vec![format!("e(zz{epoch}, c0).")];
    for _ in 0..250 + rng.below(400) {
        let k = *next_const;
        *next_const += 1;
        facts.push(format!("e(c{k}, c{}).", k + 1));
        match rng.below(8) {
            0 => facts.push(format!("e(c{}, c{}).", k + 1, rng.below(k + 1))),
            1 => facts.push(format!("f(c{k}).")),
            2 => facts.push(format!("f(c{k}). g(c{k}).")),
            _ => {}
        }
    }
    facts
}

/// Commits `facts` on one unit of fuel: interrupted at its second guard
/// check, the commit is rolled back by truncation — or, with
/// `panic_on_fuel`, panics there and poisons the session until
/// `recover()`, which rebuilds the engine. Either way the epoch stands.
fn doomed_commit(s: &mut global_sls::prelude::Session, facts: &str, panic_on_fuel: bool) {
    use global_sls::prelude::*;
    let epoch = s.epoch();
    s.begin().expect("begin");
    s.assert_facts(facts).expect("buffered");
    let opts = CommitOpts {
        fuel: Some(1),
        panic_on_fuel,
        ..CommitOpts::default()
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.commit_with(&opts)));
    match outcome {
        Ok(r) => assert!(
            !panic_on_fuel && matches!(r, Err(SessionError::Interrupted { .. })),
            "fuel 1 must interrupt, got {r:?}"
        ),
        Err(_) => {
            assert!(panic_on_fuel && s.is_poisoned());
            s.recover().expect("recover");
        }
    }
    assert_eq!(s.epoch(), epoch, "rolled back");
}

/// One isolation walk. `retain` bounds how many snapshots stay alive at
/// once (0: each is checked and dropped before the next commit);
/// `faults` routes the walk through a rolled-back commit and a
/// panicked-then-recovered one; `readers` hands every retained snapshot
/// to that many threads, which keep re-checking while the walk commits.
fn snapshot_isolation_walk(seed: u64, commits: usize, retain: usize, faults: bool, readers: usize) {
    use global_sls::prelude::*;
    use std::sync::{mpsc, Arc};

    let mut rng = Walk(seed);
    let mut s = Session::from_source(FROZEN_BASE).expect("base program grounds");
    let mut rules: Vec<&str> = FROZEN_RULES.to_vec();
    let mut sources = vec![FROZEN_BASE.to_owned()];
    let mut active: Vec<String> = Vec::new();
    let mut retracted: Vec<String> = Vec::new();
    let mut next_const = 0usize;
    let mut kept: std::collections::VecDeque<Arc<Frozen>> = Default::default();
    let mut all: Vec<Arc<Frozen>> = Vec::new();
    let mut answered = false;

    std::thread::scope(|scope| {
        // Rendezvous channels: a send returns only once the reader has
        // the snapshot in hand, so its re-check of everything it holds
        // starts exactly as the walk moves on to its next commit.
        let feeds: Vec<mpsc::SyncSender<Arc<Frozen>>> = (0..readers)
            .map(|_| {
                let (tx, rx) = mpsc::sync_channel::<Arc<Frozen>>(0);
                scope.spawn(move || {
                    let mut held: Vec<Arc<Frozen>> = Vec::new();
                    while let Ok(frozen) = rx.recv() {
                        held.push(frozen);
                        held.iter().for_each(|f| f.recheck());
                    }
                });
                tx
            })
            .collect();

        for step in 0..commits {
            let epoch = s.epoch();
            if faults && step == commits / 2 {
                // A commit interrupted mid-grounding is truncated off
                // again, under the live snapshots that share its
                // chunks; one that panics there poisons the session
                // until `recover()` rebuilds it. Either way the
                // committed state — and every snapshot of it — stands.
                let doomed = frozen_bulk(&mut rng, &mut next_const, epoch).join(" ");
                for panic_on_fuel in [false, true] {
                    doomed_commit(&mut s, &doomed, panic_on_fuel);
                    kept.iter().for_each(|f| f.recheck());
                    let ctx = format!("seed {seed}, panic {panic_on_fuel}");
                    assert_matches_rebuild(&mut s, &retracted, &FROZEN_GOALS, &ctx);
                }
            }
            match rng.below(6) {
                3 if !active.is_empty() => {
                    let mut batch = Vec::new();
                    for _ in 0..1 + rng.below(20) {
                        let f = active.swap_remove(rng.below(active.len()));
                        batch.push(f);
                        if active.is_empty() {
                            break;
                        }
                    }
                    s.retract_facts(&batch.join(" ")).expect("retract");
                    retracted.extend(batch);
                }
                4 if !retracted.is_empty() => {
                    let n = 1 + rng.below(retracted.len());
                    let batch: Vec<String> = retracted.drain(..n).collect();
                    s.assert_facts(&batch.join(" ")).expect("re-assert");
                    active.extend(batch);
                }
                5 if !rules.is_empty() => {
                    let r = rules.remove(rng.below(rules.len()));
                    s.add_rules(r).expect("add_rules");
                    sources.push(r.to_owned());
                }
                _ => {
                    let batch = frozen_bulk(&mut rng, &mut next_const, epoch);
                    s.assert_facts(&batch.join(" ")).expect("bulk assert");
                    active.extend(batch);
                }
            }
            let source = format!("{}\n{}", sources.join("\n"), active.join("\n"));
            let frozen = Arc::new(Frozen::capture(&mut s, source));
            answered |= frozen.answers.iter().all(|rows| !rows.is_empty());
            frozen.recheck();
            for tx in &feeds {
                tx.send(frozen.clone()).expect("reader alive");
            }
            all.push(frozen.clone());
            kept.push_back(frozen);
            while kept.len() > retain {
                kept.pop_front();
            }
            if readers == 0 && retain < usize::MAX {
                // Only `kept` may keep snapshots alive.
                all.clear();
            }
            kept.iter().for_each(|f| f.recheck());
        }
        drop(feeds);
    });

    // The walk must have done what the property is about: carried
    // every shared arena across chunk boundaries (and its tables
    // through many grows) after the first snapshots were taken.
    assert!(
        s.store().symbols().len() > gsls_lang::arena::CHUNK
            && s.ground_program().atom_count() > 2 * gsls_lang::arena::CHUNK,
        "seed {seed}: walk too small ({} symbols, {} atoms)",
        s.store().symbols().len(),
        s.ground_program().atom_count()
    );
    for frozen in kept.iter().chain(&all) {
        frozen.recheck();
        frozen.check_against_rebuild();
    }
    assert!(
        answered,
        "seed {seed}: no snapshot had answers to every fingerprint goal"
    );
}

/// With many, one and no snapshot alive across the commits that follow.
#[test]
fn snapshot_isolation_holds_with_many_one_and_no_live_snapshots() {
    for (seed, retain) in [(11u64, usize::MAX), (12, 1), (13, 0)] {
        snapshot_isolation_walk(seed, 16, retain, false, 0);
    }
}

/// Through a fuel-1 rollback (the engine truncated under the live
/// snapshots) and a mid-commit panic followed by `recover()` (rebuilt).
#[test]
fn snapshot_isolation_survives_rollback_and_recover() {
    for seed in [21u64, 22] {
        snapshot_isolation_walk(seed, 16, usize::MAX, true, 0);
    }
}

/// Reader threads re-check retained snapshots while the writer commits.
#[test]
fn snapshot_isolation_holds_under_concurrent_readers() {
    snapshot_isolation_walk(31, 16, usize::MAX, false, gsls_par::threads().max(2));
}

/// The named trap of the reader-built argument index: its runs live in
/// a cell every snapshot of a lineage shares, so snapshots meet runs
/// sealed at other lengths than their own.
///
/// * An **older** snapshot meets a **longer** run (sealed by a snapshot
///   more than two chunks of `e` atoms later): it must take exactly its
///   own prefix of it — equal to its epoch's rebuild, no id past its own
///   atom count (which would index past its model) — and seal nothing.
/// * A fuel-1 rollback **truncates**: the session is the same lineage
///   cut back to a prefix, and every run over that prefix is still
///   right — it keeps them, observed as sealing *nothing* when readers
///   return to it (what a rollback used to cost them: a full re-seal).
/// * A panic + `recover()` **rebuilds** the engine: a new lineage, whose
///   atom ids owe nothing to the old one's. It must start with an empty
///   cell — observed as sealing afresh, where an inherited full-length
///   run would have been taken as is — while the old lineage's
///   snapshots keep their runs and their answers.
/// * Several readers released together onto a fresh lineage all seal
///   the same `(predicate, position)` at once: whichever run gets
///   installed, every one of them answers alike.
#[test]
fn snapshot_isolation_across_runs_of_different_length() {
    use global_sls::prelude::*;
    use gsls_lang::arena::CHUNK;
    use std::sync::Barrier;

    let joins = |snap: &Snapshot| -> Vec<Vec<(String, u8)>> {
        FROZEN_GOALS[2..]
            .iter()
            .map(|goal| frozen_answers(snap, goal))
            .collect()
    };
    let rebuilt = |source: &str| -> Vec<Vec<(String, u8)>> {
        let mut store = TermStore::new();
        let program = parse_program(&mut store, source).expect("source parses");
        let gp = Grounder::ground(&mut store, &program).expect("source grounds");
        bound_join_oracle(&store, &gp, &well_founded_model(&gp)).to_vec()
    };
    const SEALS: [&str; 1] = ["query.index_seals"];
    // The joins index `e` by its first and by its second argument.
    const RUNS: u64 = 2;

    let mut rng = Walk(41);
    let mut s = Session::from_source(FROZEN_BASE).expect("base program grounds");
    let (mut next_const, mut facts) = (0usize, Vec::new());
    let mut bulk = |s: &mut Session, facts: &mut Vec<String>| {
        let batch = frozen_bulk(&mut rng, &mut next_const, s.epoch());
        s.assert_facts(&batch.join(" ")).expect("bulk assert");
        let edges = batch.iter().filter(|f| f.starts_with("e(")).count();
        facts.extend(batch);
        edges
    };
    bulk(&mut s, &mut facts);
    // S1 is asked nothing yet: the first runs it meets will be S2's.
    let s1 = s.snapshot();
    let want1 = rebuilt(&format!("{FROZEN_BASE}\n{}", facts.join("\n")));
    let mut edges = 0usize;
    while edges <= 2 * CHUNK {
        edges += bulk(&mut s, &mut facts);
    }
    let s2 = s.snapshot();
    let want2 = rebuilt(&format!("{FROZEN_BASE}\n{}", facts.join("\n")));
    assert!(want1.iter().chain(&want2).all(|rows| !rows.is_empty()));

    let mut got = Vec::new();
    let [seals] = counter_growth(&mut s, SEALS, |_| got = joins(&s2));
    assert_eq!(
        (seals, &got),
        (RUNS, &want2),
        "S2 seals, one run per position"
    );
    let [seals] = counter_growth(&mut s, SEALS, |_| got = joins(&s1));
    assert_eq!((seals, &got), (0, &want1), "S1 under S2's longer runs");

    // A rolled-back commit — the same lineage, cut back — and a
    // recovered one: a new lineage.
    let doomed = frozen_bulk(&mut rng, &mut next_const, s.epoch()).join(" ");
    for panic_on_fuel in [false, true] {
        doomed_commit(&mut s, &doomed, panic_on_fuel);
        let fresh = s.snapshot();
        let readers = gsls_par::threads().max(2);
        let gate = Barrier::new(readers);
        let [seals] = counter_growth(&mut s, SEALS, |_| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..readers)
                    .map(|_| {
                        scope.spawn(|| {
                            gate.wait();
                            (joins(&fresh), joins(&s1))
                        })
                    })
                    .collect();
                for h in handles {
                    let (new, old) = h.join().expect("reader");
                    assert_eq!((&new, &old), (&want2, &want1), "panic {panic_on_fuel}");
                }
            });
        });
        if panic_on_fuel {
            assert!(
                (RUNS..=RUNS * readers as u64).contains(&seals),
                "the rebuilt engine sealed {seals} runs — it must not inherit the old \
                 lineage's, and each reader seals a position at most once"
            );
        } else {
            assert_eq!(seals, 0, "the truncated engine lost runs that still fit");
        }
        // The old lineage is untouched by all that.
        let [seals] = counter_growth(&mut s, SEALS, |_| got = joins(&s2));
        assert_eq!((seals, &got), (0, &want2), "S2 after the rollback");
    }
}

// ---------------------------------------------------------------------
// A partially bound literal costs its answers, not its predicate.
// ---------------------------------------------------------------------

/// The noise-free form of "a bound-argument join is O(answers)": the
/// query-path counters as exact counts, the same on a 32×32 and a 64×64
/// board. `n5` sits on the top row of either board and moves right and
/// down, so `?- move(n5, Y), ~win(Y).` has two candidates wherever the
/// index has sealed — plus the atoms appended since, the tail, which is
/// never longer than 64: the join that finds it longer merges it into
/// the index's small run, and the small run folds into the big one once
/// it passes `1024 + base / 16`. The index is built on demand: a
/// session that commits, snapshots and enumerates `?- win(X).` (a scan,
/// as ever) seals nothing and accounts for not one byte more; the first
/// join seals once and the memory guard sees the run; the next hundred,
/// live or on a snapshot taken before the seal, seal nothing.
#[test]
fn join_candidates_are_bounded_by_the_answers_not_the_board() {
    use global_sls::prelude::*;
    const NAMES: [&str; 5] = [
        "query.index_lookups",
        "query.index_seals",
        "query.index_merges",
        "query.scans",
        "query.candidates",
    ];
    const JOIN: &str = "?- move(n5, Y), ~win(Y).";
    const OUT_DEGREE: u64 = 2;
    const TAIL: u64 = 64;
    let atoms_of = |s: &Session, name: &str| -> u64 {
        let cards = s.ground_program().pred_cardinalities();
        let of = cards
            .iter()
            .find(|(p, _)| s.store().symbol_name(p.sym) == name);
        *of.expect("predicate has atoms").1 as u64
    };
    let index_bytes = |s: &Session| s.ground_program().atoms().approx_bytes();

    let mut boards = Vec::new();
    for side in [32usize, 64] {
        let mut store = TermStore::new();
        let program = win_grid(&mut store, side, side);
        let mut s = Session::from_parts(store, program).expect("board grounds");
        s.assert_facts("move(w0, n5).").expect("leaf insert");
        let early = s.snapshot();
        let bytes = index_bytes(&s);
        let wins = atoms_of(&s, "win");
        let enumeration = counter_growth(&mut s, NAMES, |s| {
            s.query("?- win(X).").expect("live enumeration");
            frozen_answers(&early, "?- win(X).");
        });
        assert_eq!(
            enumeration,
            [0, 0, 0, 2, 2 * wins],
            "{side}x{side}: ?- win(X)."
        );
        assert_eq!(
            index_bytes(&s),
            bytes,
            "{side}x{side}: no index was asked for"
        );

        let moves = atoms_of(&s, "move");
        let first = counter_growth(&mut s, NAMES, |s| {
            s.query(JOIN).expect("first join");
        });
        assert_eq!(first, [1, 1, 0, 0, OUT_DEGREE], "{side}x{side}: first join");
        assert_eq!(index_bytes(&s), bytes + 8 * moves as usize, "{side}x{side}");
        let warm = counter_growth(&mut s, NAMES, |s| {
            for _ in 0..50 {
                s.query(JOIN).expect("warm join");
                frozen_answers(&early, JOIN);
            }
        });
        assert_eq!(
            warm,
            [100, 0, 0, 0, 100 * OUT_DEGREE],
            "{side}x{side}: warm"
        );

        // An append walk, 200 atoms then 30, a join after each: every
        // join tries its two answers plus a tail of at most 64 — the 200
        // were merged in by the join that met them, the 30 are walked —
        // and the small run folds into the big one exactly when the rule
        // says.
        let (mut base, mut covered, mut len) = (moves, moves, moves);
        let (mut folds, mut merges) = (0u64, 0u64);
        let mut walk = Vec::new();
        for batch in 0..14 {
            for (step, n) in [(0, 200u64), (1, 30)] {
                let facts: Vec<String> = (0..n)
                    .map(|i| format!("move(x{batch}_{step}_{i}, n6)."))
                    .collect();
                s.assert_facts(&facts.join(" ")).expect("append");
                len += n;
                let (mut fold, mut merge) = (0, 0);
                if len - covered > TAIL {
                    if len - base > 1024 + base / 16 {
                        (fold, base) = (1, len);
                    } else {
                        merge = 1;
                    }
                    covered = len;
                }
                let join = counter_growth(&mut s, NAMES, |s| {
                    s.query(JOIN).expect("join over a tail");
                });
                let want = [1, fold, merge, 0, OUT_DEGREE + (len - covered)];
                assert_eq!(join, want, "{side}x{side}: batch {batch}.{step}");
                assert!(len - covered <= TAIL);
                folds += fold;
                merges += merge;
                walk.push([fold + merge, OUT_DEGREE + (len - covered)]);
            }
        }
        assert!(
            folds >= 1 && merges >= 10,
            "{side}x{side}: {folds} folds, {merges} merges — the walk crossed too few thresholds"
        );
        boards.push((first, warm, walk));
    }
    assert_eq!(boards[0], boards[1], "the same counts on both boards");
}

// ---------------------------------------------------------------------
// Publishing a commit copies chunks, not the board.
// ---------------------------------------------------------------------

/// `[snapshot.cow_bytes, snapshot.chunks_shared]` growth across `op`.
fn publish_copies(
    s: &mut global_sls::prelude::Session,
    op: impl FnOnce(&mut global_sls::prelude::Session),
) -> [u64; 2] {
    counter_growth(s, ["snapshot.cow_bytes", "snapshot.chunks_shared"], op)
}

/// What a commit copies because a live snapshot shares the store, as
/// exact byte counts off the `snapshot.*` registry counters. A commit
/// writes into at most the tail chunk of each arena it appends to
/// (names, terms, atoms, two predicate lists, the domain) and one slot
/// chunk per table entry it inserts (symbol, term, atom tables), so its
/// copy is bounded by a constant derived from [`gsls_lang::arena::CHUNK`]
/// alone — the **same** constant on a 32×32 and a 64×64 board; a toggle
/// interns nothing and copies exactly 0 bytes; and with no snapshot
/// alive every commit copies 0. The one board-proportional copy left is
/// the capture's own: the model's two bitsets, atoms/8 bytes each
/// (rounded up to whole words). Before the store was chunked the
/// equivalent copy was the whole term store and ground program per
/// published commit.
#[test]
fn publish_copies_are_bounded_by_the_chunk_not_the_board() {
    use global_sls::prelude::*;
    use gsls_lang::arena::CHUNK;
    use std::mem::size_of;
    // Tail chunks: a boxed name, a term record (≤ 48 bytes), an atom,
    // and three `u32` lists. Table chunks: `u64` slots; a new constant
    // with its two atoms claims one slot in four tables at most.
    const TAILS: usize = CHUNK * (size_of::<Box<str>>() + 48 + size_of::<Atom>() + 3 * 4);
    const TABLE: usize = CHUNK * 8;
    const LEAF_BOUND: u64 = (TAILS + 4 * TABLE) as u64;
    const BATCH8_BOUND: u64 = (TAILS + 8 * 4 * TABLE) as u64;
    let batch8 = |s: &mut Session, tag: &str| {
        s.begin().expect("begin");
        for i in 0..8 {
            s.assert_facts(&format!("move({tag}{i}, n{}).", 3 * i + 1))
                .expect("buffered");
        }
        s.commit().expect("batch commit");
    };

    let mut model_bytes = Vec::new();
    for side in [32usize, 64] {
        let mut store = TermStore::new();
        let program = win_grid(&mut store, side, side);
        let mut s = Session::from_parts(store, program).expect("board grounds");

        // A snapshot held across each commit.
        let held = s.snapshot();
        let [bytes, chunks] = publish_copies(&mut s, |s| {
            s.assert_facts("move(w0, n5).").expect("leaf insert");
        });
        assert!(
            0 < bytes && bytes <= LEAF_BOUND && chunks <= 10,
            "{side}x{side}: leaf insert copied {bytes} bytes in {chunks} chunks"
        );
        drop(held);
        for fact in ["move(n1, n2).", "move(n1, n2)."] {
            let held = s.snapshot();
            let off = publish_copies(&mut s, |s| {
                s.retract_facts(fact).expect("retract");
            });
            drop(held);
            let held = s.snapshot();
            let on = publish_copies(&mut s, |s| {
                s.assert_facts(fact).expect("re-assert");
            });
            drop(held);
            assert_eq!((off, on), ([0, 0], [0, 0]), "{side}x{side}: toggle");
        }
        let held = s.snapshot();
        let [bytes, chunks] = publish_copies(&mut s, |s| batch8(s, "x"));
        assert!(
            0 < bytes && bytes <= BATCH8_BOUND && chunks <= 6 + 8 * 4,
            "{side}x{side}: batch of 8 copied {bytes} bytes in {chunks} chunks"
        );
        // The held snapshot still is the pre-batch state.
        assert!(held
            .prepare("?- win(x0).")
            .unwrap()
            .execute(&held)
            .unwrap()
            .next()
            .is_none());
        drop(held);

        // Snapshots taken and dropped *between* commits (an embedded
        // caller's pattern): every chunk is taken back, none copied.
        drop(s.snapshot());
        let leaf = publish_copies(&mut s, |s| {
            s.assert_facts("move(w1, n6).").expect("leaf insert");
        });
        drop(s.snapshot());
        let off = publish_copies(&mut s, |s| {
            s.retract_facts("move(n1, n2).").expect("retract");
        });
        drop(s.snapshot());
        let batch = publish_copies(&mut s, |s| batch8(s, "y"));
        assert_eq!(
            (leaf, off, batch),
            ([0, 0], [0, 0], [0, 0]),
            "{side}x{side}: no live snapshot"
        );

        // The capture itself copies the two model bitsets.
        let atoms = s.ground_program().atom_count();
        let [copied] = counter_growth(&mut s, ["snapshot.model_bytes"], |s| drop(s.snapshot()));
        assert_eq!(copied, 2 * 8 * atoms.div_ceil(64) as u64, "{side}x{side}");
        model_bytes.push(copied);
    }
    // …which is what grows with the board (4× the atoms, 4× the bytes),
    // while the bounds above did not move.
    assert!(model_bytes[1] > 3 * model_bytes[0], "{model_bytes:?}");
}

/// `approx_bytes` feeds the `max_memory_bytes` guard, so its scale must
/// survive the move from flat `Vec` + `HashMap` storage to chunked
/// arenas: on the 32×32 board each of the three estimates stays within
/// ±15% of what the flat layout reported (the literals, recorded at the
/// last commit before the change).
#[test]
fn approx_bytes_track_the_flat_accounting() {
    use global_sls::prelude::*;
    let mut store = TermStore::new();
    let program = win_grid(&mut store, 32, 32);
    let s = Session::from_parts(store, program).expect("board grounds");
    for (what, got, flat) in [
        ("TermStore", s.store().approx_bytes(), 295_184usize),
        ("SymbolTable", s.store().symbols().approx_bytes(), 109_248),
        ("GroundProgram", s.ground_program().approx_bytes(), 503_176),
    ] {
        let (lo, hi) = (flat * 85 / 100, flat * 115 / 100);
        assert!(
            (lo..=hi).contains(&got),
            "{what}::approx_bytes = {got}, outside ±15% of the flat layout's {flat}"
        );
    }
    // Sharing must not change what the writer accounts for: a chunk is
    // counted once, from the writer's side, snapshot or not.
    let mut s = s;
    let before = (s.store().approx_bytes(), s.ground_program().approx_bytes());
    let held = s.snapshot();
    assert_eq!(
        (s.store().approx_bytes(), s.ground_program().approx_bytes()),
        before
    );
    drop(held);
}

// ---------------------------------------------------------------------
// Rollback is a truncation: truncate ≡ rebuild, and the same future.
// ---------------------------------------------------------------------

/// Where every rollback case starts: the isolation walk's program with
/// two of its three rules in, one bulk of facts committed and twenty of
/// them retracted — so the atom table, both dedup spaces, the fact
/// rows, the retracted set and the model all have something in them —
/// plus the pieces the doomed batches and the commits after them are
/// made of, generated once so both sides of a comparison get the same
/// text.
struct RollbackBed {
    s: global_sls::prelude::Session,
    active: Vec<String>,
    retracted: Vec<String>,
    /// A bulk over fresh constants (it grows the active domain).
    fresh: Vec<String>,
    /// A second one, for after the rollback.
    later: Vec<String>,
}

/// The kinds of batch a rollback has to undo.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Doomed {
    Facts,
    Retract,
    Reassert,
    Mixed,
    Rules,
}

const ROLLBACK_RULES: &str = "q(X, Y) :- e(X, Y), e(Y, X). m(X) :- f(X), ~q(X, X). d(X) :- ~f(X).";

fn rollback_bed(seed: u64) -> RollbackBed {
    use global_sls::prelude::*;
    let mut rng = Walk(seed);
    let mut s = Session::from_source(FROZEN_BASE).expect("base program grounds");
    // `d/1` enumerates the active domain: deniable, and wanted here.
    s.set_lint_config(LintConfig::permissive());
    s.add_rules(FROZEN_RULES[0]).expect("rule 0");
    s.add_rules(FROZEN_RULES[1]).expect("rule 1");
    let mut next_const = 0usize;
    let mut active = frozen_bulk(&mut rng, &mut next_const, 0);
    s.assert_facts(&active.join(" ")).expect("bulk assert");
    let retracted: Vec<String> = (0..20)
        .map(|_| active.swap_remove(rng.below(active.len())))
        .collect();
    s.retract_facts(&retracted.join(" ")).expect("retract");
    let fresh = frozen_bulk(&mut rng, &mut next_const, 1);
    let later = frozen_bulk(&mut rng, &mut next_const, 2);
    RollbackBed {
        s,
        active,
        retracted,
        fresh,
        later,
    }
}

impl RollbackBed {
    /// Buffers the doomed batch of `kind` into an open transaction.
    fn buffer(&mut self, kind: Doomed) {
        let s = &mut self.s;
        s.begin().expect("begin");
        if kind == Doomed::Rules {
            s.add_rules(ROLLBACK_RULES).expect("buffered rules");
        }
        if matches!(kind, Doomed::Facts | Doomed::Mixed | Doomed::Rules) {
            s.assert_facts(&self.fresh.join(" ")).expect("buffered");
        }
        if matches!(kind, Doomed::Reassert | Doomed::Mixed) {
            s.assert_facts(&self.retracted[..10].join(" "))
                .expect("buffered");
        }
        if matches!(kind, Doomed::Retract | Doomed::Mixed) {
            s.retract_facts(&self.active[..30].join(" "))
                .expect("buffered");
        }
    }

    /// The retracted set after the doomed batch of `kind` *committed*.
    fn retracted_after(&self, kind: Doomed) -> Vec<String> {
        let mut out = self.retracted.clone();
        if matches!(kind, Doomed::Reassert | Doomed::Mixed) {
            out.drain(..10);
        }
        if matches!(kind, Doomed::Retract | Doomed::Mixed) {
            out.extend_from_slice(&self.active[..30]);
        }
        out
    }

    /// The eight commits every comparison goes on with, as `(asserts,
    /// retracts, rules)` text: first the very batch that was rolled
    /// back (its names, ids and dedup entries must all be free again),
    /// then retractions inside it, re-assertions of old retractions,
    /// fresh constants, a rule, and facts tying new constants to old.
    fn future(&self, kind: Doomed) -> Vec<[String; 3]> {
        let none = String::new;
        let rules = if kind == Doomed::Rules {
            "k(X) :- f(X), e(X, Y)."
        } else {
            ROLLBACK_RULES
        };
        vec![
            [self.fresh.join(" "), none(), none()],
            [
                none(),
                format!(
                    "{} {}",
                    self.fresh[5..15].join(" "),
                    self.active[40..45].join(" ")
                ),
                none(),
            ],
            [self.retracted[10..].join(" "), none(), none()],
            [self.later.join(" "), none(), none()],
            [none(), none(), rules.to_owned()],
            [none(), self.active[50..65].join(" "), none()],
            [
                format!(
                    "{} e(c3, zq0). f(zq0). e(zq0, zq1).",
                    self.fresh[5..10].join(" ")
                ),
                none(),
                none(),
            ],
            [
                "e(zq1, c0). g(zq0).".to_owned(),
                self.later[..8].join(" "),
                none(),
            ],
        ]
    }
}

fn apply_future(s: &mut global_sls::prelude::Session, [asserts, retracts, rules]: &[String; 3]) {
    s.begin().expect("begin");
    if !rules.is_empty() {
        s.add_rules(rules).expect("buffered rules");
    }
    if !asserts.is_empty() {
        s.assert_facts(asserts).expect("buffered asserts");
    }
    if !retracts.is_empty() {
        s.retract_facts(retracts).expect("buffered retracts");
    }
    s.commit().expect("future commit");
}

const ROLLBACK_COUNTERS: [&str; 3] = [
    "rollback.truncations",
    "rollback.rebuilds",
    "rollback.reprimes",
];

/// **Truncate ≡ rebuild, and the same future.** Every kind of batch —
/// fresh facts (the active domain grows), retractions, re-assertions,
/// all three at once, and a rule batch — is interrupted at *every*
/// guard check it performs (fuel 1, 2, … until it commits): in the
/// seed round, mid-join, between rounds, in the chains' growth and
/// switching, in the cone walk and in every round of the alternation.
/// Each time the session, rolled back by truncation, must be
/// indistinguishable from what it was, and from `EngineState::build`
/// over the same source — verdicts, goal answers through all three
/// access paths, the clause multiset, cardinalities, the active domain —
/// and so must a twin whose commit *panicked* at the same check and
/// was `recover()`ed through the rebuild. Then the truncated session
/// and the rebuilt oracle run the same eight commits, starting with the
/// rolled-back batch itself, and must agree after each: a stale dedup
/// entry, `fact_clause` slot, fact row or posting steers only *later*
/// grounding.
#[test]
fn rollback_truncation_matches_rebuild() {
    use global_sls::prelude::*;
    for (seed, kind) in [
        (51u64, Doomed::Facts),
        (52, Doomed::Retract),
        (53, Doomed::Reassert),
        (54, Doomed::Mixed),
        (55, Doomed::Rules),
    ] {
        let mut reprimed = 0u64;
        let mut fuel = 0u64;
        loop {
            fuel += 1;
            let ctx = format!("{kind:?}, fuel {fuel}");
            let mut bed = rollback_bed(seed);
            let before = state_fingerprint(&mut bed.s, &FROZEN_GOALS);
            let epoch = bed.s.epoch();
            let program_len = bed.s.program().len();
            let bytes = bed.s.ground_program().approx_bytes();

            // The truncation arm.
            bed.buffer(kind);
            let opts = CommitOpts {
                fuel: Some(fuel),
                ..CommitOpts::default()
            };
            let mut outcome = None;
            let [cut, rebuilt, reprimes] = counter_growth(&mut bed.s, ROLLBACK_COUNTERS, |s| {
                outcome = Some(s.commit_with(&opts));
            });
            match outcome.expect("ran") {
                Ok(_) => {
                    assert_eq!([cut, rebuilt], [0, 0], "{ctx}: nothing to roll back");
                    let retracted = bed.retracted_after(kind);
                    assert_matches_rebuild(&mut bed.s, &retracted, &FROZEN_GOALS, &ctx);
                    break;
                }
                Err(SessionError::Interrupted { .. }) => {}
                Err(other) => panic!("{ctx}: {other:?}"),
            }
            assert_eq!([cut, rebuilt], [1, 0], "{ctx}: a clean Err truncates");
            reprimed += reprimes;
            assert!(!bed.s.is_poisoned(), "{ctx}");
            assert_eq!(
                (bed.s.epoch(), bed.s.program().len()),
                (epoch, program_len),
                "{ctx}"
            );
            let cut_back = state_fingerprint(&mut bed.s, &FROZEN_GOALS);
            assert_fingerprints_eq(&cut_back, &before, &format!("{ctx}: ≡ before"));
            let mut oracle = rebuilt_like(&bed.s, &bed.retracted);
            let built = state_fingerprint(&mut oracle, &FROZEN_GOALS);
            assert_fingerprints_eq(&cut_back, &built, &format!("{ctx}: ≡ rebuild"));
            // What the memory guard will be told: within a chunk's worth
            // of slack of what it was (capacities the doomed batch grew
            // stay grown), not a board's.
            let now = bed.s.ground_program().approx_bytes();
            assert!(
                now >= bytes && now - bytes <= bytes / 2 + (64 << 10),
                "{ctx}: approx_bytes {bytes} -> {now}"
            );

            // The rebuild arm: the same commit panics at the same check.
            let mut twin = rollback_bed(seed);
            twin.buffer(kind);
            let panicking = CommitOpts {
                panic_on_fuel: true,
                ..opts
            };
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                twin.s.commit_with(&panicking)
            }));
            assert!(unwound.is_err() && twin.s.is_poisoned(), "{ctx}: panics");
            let [cut, rebuilt, _] = counter_growth(&mut twin.s, ROLLBACK_COUNTERS, |s| {
                s.recover().expect("recover");
            });
            assert_eq!([cut, rebuilt], [0, 1], "{ctx}: after a panic, rebuild");
            let recovered = state_fingerprint(&mut twin.s, &FROZEN_GOALS);
            assert_fingerprints_eq(&recovered, &before, &format!("{ctx}: recovered"));

            // The same future on the truncated session and the oracle.
            for (i, step) in bed.future(kind).iter().enumerate() {
                apply_future(&mut bed.s, step);
                apply_future(&mut oracle, step);
                let (got, want) = (
                    state_fingerprint(&mut bed.s, &FROZEN_GOALS),
                    state_fingerprint(&mut oracle, &FROZEN_GOALS),
                );
                assert_fingerprints_eq(&got, &want, &format!("{ctx}: future commit {i}"));
            }
        }
        assert!(
            fuel >= 6,
            "{kind:?}: only {fuel} guard checks — a vacuous sweep"
        );
        assert!(
            kind == Doomed::Facts || reprimed >= 1,
            "{kind:?}: no interrupt ever landed inside a fixpoint chain"
        );
    }
}

/// **A mark that spans successful commits, with a snapshot inside the
/// cut range.** A group of three commits — a bulk over fresh constants,
/// a retract + re-assert, another bulk — is applied and then loses its
/// covering fsync: the session is poisoned with all three in memory,
/// and reads keep serving, so a snapshot taken now sits *inside* the
/// range `recover()` is about to cut, sharing its chunks. A reader
/// fingerprints it (sealing runs longer than anything the cut leaves).
/// `recover()` then truncates across the three epochs — here the model
/// *was* overwritten, so it is refreshed below the cone of what is
/// dropped — and:
///
/// * the session is its pre-group self and ≡ a rebuild, and it kept the
///   runs that fit (its joins seal nothing: the rollback cost the
///   readers nothing), while the too-long ones are gone from its cell;
/// * the snapshot from inside, and one from before, answer exactly as
///   they did and as their epochs' rebuilds do — also after the writer
///   has pushed *different* atoms into the very chunk positions, ids
///   and table slots the cut freed;
/// * a run the stranded snapshot seals *after* the fork (a position
///   nobody had asked for) never reaches the session, which seals its
///   own and answers from the atoms it really has.
#[test]
fn rollback_of_a_group_strands_its_snapshots_on_a_dead_branch() {
    use global_sls::internals::FaultPlan;
    use global_sls::prelude::*;

    let dir = entry_temp_dir("rollback_group");
    // Syncs #0 and #1 are the two set-up commits'; #2 covers the group.
    let dopts = DurableOpts {
        storage: StorageKind::Faulty(FaultPlan {
            fail_syncs: vec![2],
            ..FaultPlan::default()
        }),
        checkpoint_records: usize::MAX,
        checkpoint_bytes: u64::MAX,
    };
    // With the two-column rule `q` in: `(q, 0)` is the position nobody
    // asks about until after the fork.
    let base = format!("{FROZEN_BASE} {}", FROZEN_RULES[2]);
    let mut store = TermStore::new();
    let program = parse_program(&mut store, &base).expect("base parses");
    let mut s = Session::open_with_parts(&dir, store, program, GrounderOpts::default(), dopts)
        .expect("durable open");
    let mut rng = Walk(61);
    let mut next_const = 0usize;
    let mut active = frozen_bulk(&mut rng, &mut next_const, 0);
    s.assert_facts(&active.join(" ")).expect("bulk (sync #0)");
    let retracted: Vec<String> = (0..12)
        .map(|_| active.swap_remove(rng.below(active.len())))
        .collect();
    s.retract_facts(&retracted.join(" "))
        .expect("retract (sync #1)");
    let source = |active: &[String]| format!("{base}\n{}", active.join("\n"));
    // Before the group: its fingerprinting seals the runs that will fit.
    let old = Frozen::capture(&mut s, source(&active));
    let before = state_fingerprint(&mut s, &FROZEN_GOALS);
    let epoch = s.epoch();

    let mut first = frozen_bulk(&mut rng, &mut next_const, 1);
    first.push("e(u0, u1). e(u1, u0). f(u0).".to_owned());
    let third = frozen_bulk(&mut rng, &mut next_const, 2);
    let mut batch = |asserts: &str, retracts: &str| {
        let mut atoms = |src: &str| -> Vec<Atom> {
            parse_program(s.store_mut(), src)
                .expect("facts parse")
                .clauses()
                .iter()
                .map(|c| c.head.clone())
                .collect()
        };
        let batch = UpdateBatch {
            asserts: atoms(asserts),
            retracts: atoms(retracts),
            ..UpdateBatch::default()
        };
        (batch, CommitOpts::none())
    };
    let group = vec![
        batch(&first.join(" "), ""),
        batch(&retracted[..6].join(" "), &active[..9].join(" ")),
        batch(&third.join(" "), ""),
    ];
    let err = s.commit_group(group).unwrap_err();
    assert!(matches!(err, SessionError::Durable(_)), "got {err:?}");
    assert!(s.is_poisoned() && s.epoch() == epoch + 3);

    // Inside the range: all three commits applied.
    let mut applied: Vec<String> = active[9..].to_vec();
    applied.extend(retracted[..6].iter().cloned());
    applied.extend(first.iter().chain(&third).cloned());
    let merges = ["query.index_seals", "query.index_merges"];
    let mut inside = None;
    let built = counter_growth(&mut s, merges, |s| {
        inside = Some(Frozen::capture(s, source(&applied)));
    });
    let inside = inside.expect("captured");
    assert!(
        built.iter().sum::<u64>() >= 2,
        "the reader inside the range built no run past the cut: {built:?}"
    );

    let [cut, rebuilt, atoms] = counter_growth(
        &mut s,
        [
            "rollback.truncations",
            "rollback.rebuilds",
            "rollback.dropped_atoms",
        ],
        |s| s.recover().expect("recover"),
    );
    assert_eq!([cut, rebuilt], [1, 0], "a failed group fsync truncates");
    assert!(
        atoms as usize > 2 * first.len(),
        "three commits' atoms went"
    );
    assert!(!s.is_poisoned() && s.epoch() == epoch);
    let cut_back = state_fingerprint(&mut s, &FROZEN_GOALS);
    assert_fingerprints_eq(&cut_back, &before, "group: ≡ before");
    assert_matches_rebuild(&mut s, &retracted, &FROZEN_GOALS, "group: ≡ rebuild");
    // (Four fingerprints of the session since the cut, and not one run
    // built: it kept the ones sealed before the group.)
    let kept = counter_growth(&mut s, merges, |s| {
        state_fingerprint(s, &FROZEN_GOALS);
    });
    assert_eq!(kept, [0, 0], "the session rebuilt runs it should have kept");
    for frozen in [&old, &inside] {
        frozen.recheck();
        frozen.check_against_rebuild();
    }

    // After the fork the stranded snapshot seals `(q, 0)`, over a list
    // that holds atoms the session no longer has…
    const LATE: &str = "?- f(X), q(X, Y).";
    let stranded = frozen_answers(&inside.snapshot, LATE);
    assert!(!stranded.is_empty());
    // …and the session interns *other* atoms under the freed ids, in the
    // freed chunk positions and table slots.
    let other: Vec<String> = (0..third.len() + first.len())
        .map(|i| format!("e(y{i}, y{}). e(y{}, y{i}). f(y{i}).", i + 1, i + 1))
        .collect();
    s.assert_facts(&other.join(" "))
        .expect("a different future");
    active.extend(other);
    let [seals] = counter_growth(&mut s, ["query.index_seals"], |s| {
        let live = s.snapshot();
        let got = frozen_answers(&live, LATE);
        assert!(got.len() > stranded.len() && got.iter().any(|(row, _)| row == "X = y0, Y = y1"));
    });
    assert_eq!(seals, 1, "the session seals (q, 0) for itself");
    assert_matches_rebuild(
        &mut s,
        &retracted,
        &FROZEN_GOALS,
        "group: a different future",
    );
    assert_eq!(frozen_answers(&inside.snapshot, LATE), stranded);
    for frozen in [&old, &inside] {
        frozen.recheck();
        frozen.check_against_rebuild();
    }
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// A failed commit costs what it appended, not the program.
// ---------------------------------------------------------------------

/// The noise-free form of "rollback is O(delta)": the `rollback.*`
/// registry counters as exact counts, the same on a 32×32 and a 64×64
/// board. A leaf insert interrupted on one unit of fuel — at the second
/// round's memory check, after its two atoms and two clauses are in —
/// is undone by one truncation that drops exactly those, re-primes no
/// chain (the interrupt never reached one) and rebuilds nothing; a
/// batch of eight, the same times eight. Interrupted later — every fuel
/// value up to the one that lets it commit, which puts the interrupt
/// between the rounds of the alternation, with both chains grown over
/// the suffix — the same insert still drops two and two, by switching
/// the two clauses off on the chains (its cone, not a re-prime: a chain
/// is only ever left unprimed by an interrupt *inside* one of its
/// passes, a thousand work units in, which
/// `rollback_truncation_matches_rebuild` reaches and this insert is too
/// small to). That the engine was not rebuilt on the way
/// also shows on the read side: the argument-index runs the readers
/// had built are still there (a rebuilt engine starts with none).
#[test]
fn rollback_work_is_bounded_by_the_delta_not_the_board() {
    use global_sls::prelude::*;
    const NAMES: [&str; 5] = [
        "rollback.truncations",
        "rollback.rebuilds",
        "rollback.reprimes",
        "rollback.dropped_atoms",
        "rollback.dropped_clauses",
    ];
    const JOIN: &str = "?- move(n5, Y), ~win(Y).";
    let doomed = |s: &mut Session, facts: &str, fuel: u64| -> ([u64; 5], bool) {
        let mut committed = false;
        let counts = counter_growth(s, NAMES, |s| {
            s.begin().expect("begin");
            s.assert_facts(facts).expect("buffered");
            let opts = CommitOpts {
                fuel: Some(fuel),
                ..CommitOpts::default()
            };
            committed = match s.commit_with(&opts) {
                Ok(_) => true,
                Err(SessionError::Interrupted { .. }) => false,
                Err(other) => panic!("fuel {fuel}: {other:?}"),
            };
        });
        (counts, committed)
    };

    let mut boards = Vec::new();
    for side in [32usize, 64] {
        let mut store = TermStore::new();
        let program = win_grid(&mut store, side, side);
        let mut s = Session::from_parts(store, program).expect("board grounds");
        s.query(JOIN).expect("the readers' run is sealed");
        let (atoms, clauses) = (
            s.ground_program().atom_count(),
            s.ground_program().clause_count(),
        );

        let (insert, _) = doomed(&mut s, "move(r0, n0).", 1);
        assert_eq!(insert, [1, 0, 0, 2, 2], "{side}x{side}: doomed insert");
        let batch: Vec<String> = (0..8).map(|i| format!("move(b{i}, n{i}).")).collect();
        let (batch8, _) = doomed(&mut s, &batch.join(" "), 1);
        assert_eq!(batch8, [1, 0, 0, 16, 16], "{side}x{side}: doomed batch8");

        // At every later guard check too.
        let mut sweep = Vec::new();
        for fuel in 2.. {
            let (counts, committed) = doomed(&mut s, "move(r1, n7).", fuel);
            if committed {
                assert_eq!(counts, [0; 5], "{side}x{side}: fuel {fuel} commits");
                break;
            }
            assert_eq!(counts, [1, 0, 0, 2, 2], "{side}x{side}: fuel {fuel}");
            sweep.push(fuel);
        }
        assert!(
            sweep.len() >= 2,
            "{side}x{side}: interrupted only at fuel {sweep:?}"
        );
        assert_eq!(
            (
                s.ground_program().atom_count(),
                s.ground_program().clause_count()
            ),
            (atoms + 2, clauses + 2),
            "{side}x{side}: only the committed insert stayed"
        );
        let kept = counter_growth(
            &mut s,
            [
                "query.index_seals",
                "query.index_merges",
                "query.candidates",
            ],
            |s| {
                s.query(JOIN).expect("join after the rollbacks");
            },
        );
        assert_eq!(kept, [0, 0, 2 + 1], "{side}x{side}: the run survived");
        boards.push((insert, batch8, sweep));
    }
    assert_eq!(boards[0], boards[1], "the same counts on both boards");
}
