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
//! `gsls_par::threads()` worker threads (`GSLS_THREADS=2` in check.sh).
//!
//! PR 12 pins **one pipeline, one compiler** differentially: the same
//! seeded batch sequence through every commit entry point (auto-commit,
//! `begin`/`commit`, `commit_with`, `commit_group` of one, WAL replay)
//! must produce identical epochs, `CommitStats`, models and WAL bytes;
//! and the same seeded goals through `Session::prepare` and
//! `Snapshot::prepare` must produce identical answer sets.
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

        // Snapshot read from `threads` workers: same verdicts.
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
        let verdicts = gsls_par::par_map(threads, parsed.len(), |i| {
            snapshot.truth_of_atom(&parsed[i])
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
/// check.sh reruns exactly this under two worker threads).
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
// One query compiler: Session::prepare ≡ Snapshot::prepare.
// ---------------------------------------------------------------------

/// A seeded goal over the walk vocabulary — point lookups, scans,
/// joins, residual enumeration — salted with constants and predicates
/// no store has ever interned and with compound-pattern arguments
/// (which no function-free atom can match).
fn seeded_goal(rng: &mut Walk) -> String {
    let c = |rng: &mut Walk| match rng.below(5) {
        0 => format!("zz{}", rng.below(3)), // never seen
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

#[test]
fn session_and_snapshot_prepare_agree_on_seeded_goals() {
    use global_sls::prelude::*;
    use std::collections::BTreeSet;

    for seed in [2u64, 19, 0xabcdef] {
        let mut rng = Walk(seed);
        let mut session = Session::from_source(WALK_BASE).expect("base program grounds");
        session.set_lint_config(LintConfig::permissive());
        session.add_rules(WALK_RULES[4]).expect("residual rule"); // u(X) :- ~f(X).
        for batch in script_entry_batches(seed, 8) {
            commit_via(&mut session, Entry::Auto, &batch);
        }
        // Taken before any goal is prepared: the live store then learns
        // the goals' new names, the snapshot's store never does.
        let snapshot = session.snapshot();
        let mut answered = 0usize;
        for _ in 0..60 {
            let goal = seeded_goal(&mut rng);
            let live = session.prepare(&goal);
            let frozen = snapshot.prepare(&goal);
            let (mut live, frozen) = match (live, frozen) {
                (Ok(l), Ok(f)) => (l, f),
                (Err(l), Err(f)) => {
                    assert_eq!(l, f, "seed {seed}: {goal} fails differently");
                    continue;
                }
                (l, f) => panic!("seed {seed}: {goal} compiles on one side only: {l:?} / {f:?}"),
            };
            let vars = live.goal().vars(session.store());
            let got_live: BTreeSet<(String, u8)> = {
                let answers: Vec<Answer> = live.execute(&mut session).expect("live run").collect();
                answers
                    .iter()
                    .map(|a| {
                        let store = session.store();
                        let row: Vec<String> = vars
                            .iter()
                            .filter_map(|&v| {
                                let t = a.subst.lookup(v)?;
                                Some(format!("{} = {}", store.var_name(v), store.display_term(t)))
                            })
                            .collect();
                        (row.join(", "), a.truth as u8)
                    })
                    .collect()
            };
            let got_frozen: BTreeSet<(String, u8)> = frozen
                .execute(&snapshot)
                .expect("snapshot run")
                .map(|a| (frozen.render_answer(&snapshot, &a), a.truth as u8))
                .collect();
            assert_eq!(got_live, got_frozen, "seed {seed}: {goal}");
            answered += usize::from(!got_live.is_empty());
        }
        assert!(
            answered >= 10,
            "seed {seed}: only {answered} goals had answers — the comparison is near-vacuous"
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
