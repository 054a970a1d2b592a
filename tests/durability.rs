//! Durability and recovery properties (PR 6).
//!
//! The central invariant: **reopening a durable session is equivalent
//! to rebuilding from the durable prefix of commits**. A crash at any
//! WAL record boundary — or anywhere inside a record — must recover
//! exactly the commits whose records are intact on disk: no more
//! (torn tails never replay), no less (fsync'd records survive).
//!
//! The harness runs a scripted random walk of transactional commits on
//! a durable session, then:
//!
//! * `crash_at_every_record_boundary_*` truncates a copy of the WAL at
//!   every record boundary (and at mid-record tears) and asserts the
//!   reopened session's model equals a from-scratch in-memory session
//!   replaying exactly that prefix of commits — live and snapshot
//!   reads both;
//! * `fault_injected_crash_recovers_a_commit_prefix` reruns the walk
//!   on [`FaultyFile`] storage (killed writes, dropped fsyncs, torn
//!   tails — seed swept via `GSLS_FAULT_SEED` in check.sh) and asserts
//!   the post-"reboot" state is the prefix named by the recovered
//!   epoch;
//! * the `*_never_surfaces` tests inject *transient* storage errors
//!   (a failed fsync, a failed truncate) and pin the unwind-or-poison
//!   contract: a commit that was not acked is cut off the WAL — or the
//!   session stays poisoned until it is — so it can never replay, and
//!   never shadows a later acked commit, for a single commit (a group
//!   of one) and for a group of several;
//! * the remaining tests pin checkpoint rotation/fallback and the
//!   failed-commit recovery semantics (rejected and failed batches
//!   degrade to rolled-back transactions; rollback un-poisons).

use global_sls::prelude::*;
use gsls_durable::{scan_dir, wal_path, FaultPlan, FileStorage, Wal};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// Walk machinery (mirrors tests/incremental.rs, durable flavor).
// ---------------------------------------------------------------------

/// Minimal deterministic PRNG (splitmix-style; see tests/incremental.rs).
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

const WALK_BASE: &str = "
    t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).
    w(X) :- e(X, Y), ~w(Y).
    p(X) :- f(X), ~g(X).
    f(c0).
";

const WALK_RULES: &[&str] = &[
    "q(X) :- t(X, X).",
    "s(X) :- f(X), ~w(X).",
    "g(X) :- h(X, X).",
    "r2(X, Y) :- e(X, Y), ~e(Y, X).",
    "u(X) :- ~f(X).",
];

/// One update inside a commit, replayable on any session.
#[derive(Debug, Clone)]
enum Op {
    Rules(String),
    Assert(String),
    Retract(String),
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

/// Scripts `commits` random transactional batches. Every batch is an
/// explicit begin/commit so one batch == one WAL record == one epoch.
fn script_walk(seed: u64, commits: usize) -> Vec<Vec<Op>> {
    let mut rng = Walk(seed);
    let mut rules_left: Vec<&str> = WALK_RULES.to_vec();
    let mut active: Vec<String> = vec!["f(c0).".to_owned()];
    let mut batches = Vec::with_capacity(commits);
    for step in 0..commits {
        let n_consts = 3 + step.min(3);
        let mut ops = Vec::new();
        for _ in 0..1 + rng.below(3) {
            match rng.below(5) {
                0 | 1 | 3 => {
                    let f = walk_fact(&mut rng, n_consts);
                    if !active.contains(&f) {
                        active.push(f.clone());
                    }
                    ops.push(Op::Assert(f));
                }
                2 => {
                    let f = if !active.is_empty() && rng.chance(0.8) {
                        active[rng.below(active.len())].clone()
                    } else {
                        walk_fact(&mut rng, n_consts)
                    };
                    active.retain(|g| g != &f);
                    ops.push(Op::Retract(f));
                }
                _ => {
                    if !rules_left.is_empty() {
                        let r = rules_left.remove(rng.below(rules_left.len()));
                        ops.push(Op::Rules(r.to_owned()));
                    }
                }
            }
        }
        batches.push(ops);
    }
    batches
}

/// Replays one batch as a single transaction.
fn apply_batch(session: &mut Session, ops: &[Op]) -> Result<CommitStats, SessionError> {
    session.begin()?;
    for op in ops {
        let r = match op {
            Op::Rules(src) => session.add_rules(src),
            Op::Assert(src) => session.assert_facts(src),
            Op::Retract(src) => session.retract_facts(src),
        };
        if let Err(e) = r {
            session.rollback();
            return Err(e);
        }
    }
    session.commit()
}

/// The in-memory oracle: a fresh session with the first `n` batches.
fn oracle_with_prefix(batches: &[Vec<Op>], n: usize) -> Session {
    let mut s = Session::from_source(WALK_BASE).expect("base grounds");
    // The walk deliberately commits lint-deniable rules (u/1 flounders
    // without active-domain enumeration); durability is about journaling,
    // not the gate, so the oracle matches the walk's permissive config.
    s.set_lint_config(LintConfig::permissive());
    for ops in &batches[..n] {
        apply_batch(&mut s, ops).expect("oracle batch commits");
    }
    s
}

/// The model as displayable fact sets (true, undefined). False atoms
/// are omitted: which false atoms exist depends on interning history,
/// but the true/undefined sets are the semantics.
fn fingerprint(s: &Session) -> (BTreeSet<String>, BTreeSet<String>) {
    let gp = s.ground_program();
    let mut t = BTreeSet::new();
    let mut u = BTreeSet::new();
    for id in gp.atom_ids() {
        match s.model().truth(id) {
            Truth::True => {
                t.insert(gp.display_atom(s.store(), id));
            }
            Truth::Undefined => {
                u.insert(gp.display_atom(s.store(), id));
            }
            Truth::False => {}
        }
    }
    (t, u)
}

/// Asserts `got` (a reopened durable session) matches `want` (the
/// oracle) — model fingerprints, per-atom live queries, and snapshot
/// reads must all agree.
fn assert_sessions_match(ctx: &str, got: &mut Session, want: &mut Session) {
    let want_fp = fingerprint(want);
    let got_fp = fingerprint(got);
    assert_eq!(got_fp, want_fp, "{ctx}: model fingerprints diverge");

    // Live ground queries through the reopened session agree with the
    // oracle on every oracle atom (including false ones).
    let mut checks: Vec<(String, Truth)> = Vec::new();
    {
        let gp = want.ground_program();
        for id in gp.atom_ids() {
            checks.push((gp.display_atom(want.store(), id), want.model().truth(id)));
        }
    }
    for (name, truth) in &checks {
        let live = got.truth(&format!("?- {name}.")).expect("ground query");
        assert_eq!(live, *truth, "{ctx}: live read of {name} diverges");
    }

    // Snapshot reads see the same verdicts.
    let parsed: Vec<Atom> = {
        let mut s = got.store().clone();
        checks
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
    let snapshot = got.snapshot();
    for (i, (name, want_truth)) in checks.iter().enumerate() {
        assert_eq!(
            snapshot.truth_of_atom(&parsed[i]),
            *want_truth,
            "{ctx}: snapshot read of {name} diverges"
        );
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gsls_durability_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Durable options that never auto-checkpoint (single WAL generation —
/// the boundary sweep needs all records in one file).
fn no_auto_checkpoint() -> DurableOpts {
    DurableOpts {
        checkpoint_records: usize::MAX,
        checkpoint_bytes: u64::MAX,
        ..DurableOpts::default()
    }
}

fn open_base(dir: &Path, dopts: DurableOpts) -> Session {
    let mut store = TermStore::new();
    let program = parse_program(&mut store, WALK_BASE).expect("base parses");
    let mut s = Session::open_with_parts(dir, store, program, GrounderOpts::default(), dopts)
        .expect("durable open");
    // Walk batches include rules the default lint gate denies.
    s.set_lint_config(LintConfig::permissive());
    s
}

/// Copies the (flat) durable directory.
fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
    }
}

// ---------------------------------------------------------------------
// The tentpole property: crash at every record boundary.
// ---------------------------------------------------------------------

/// Runs the walk durably, then replays a crash at every WAL record
/// boundary (and a mid-record tear after each) and asserts reopen ≡
/// from-scratch rebuild of exactly that commit prefix.
fn crash_boundary_sweep(seed: u64, commits: usize) {
    let dir = temp_dir(&format!("boundary_{seed}"));
    let batches = script_walk(seed, commits);
    {
        let mut session = open_base(&dir, no_auto_checkpoint());
        for ops in &batches {
            apply_batch(&mut session, ops).expect("durable batch commits");
        }
        assert_eq!(session.epoch(), commits as u64);
    }

    // Locate the active WAL and its record boundaries.
    let gens = scan_dir(&dir).expect("scan dir");
    let active = *gens.wals.iter().max().expect("a wal exists");
    let wal_file = wal_path(&dir, active);
    let scan = {
        let storage = Box::new(FileStorage::open(&wal_file).expect("open wal"));
        Wal::open(storage).expect("scan wal").1
    };
    assert_eq!(
        scan.records.len(),
        commits,
        "one WAL record per transactional commit"
    );
    let clean = std::fs::read(&wal_file).expect("read wal");

    let crash_dir = temp_dir(&format!("boundary_{seed}_crash"));
    let mut boundaries: Vec<(usize, u64)> = vec![(0, 0)];
    boundaries.extend(
        scan.offsets
            .iter()
            .copied()
            .enumerate()
            .map(|(i, o)| (i + 1, o)),
    );
    for (prefix, offset) in boundaries {
        // Crash cuts: exactly at the boundary, and (when a next record
        // exists) tears into its header and into its payload.
        let mut cuts = vec![offset];
        if (offset as usize) < clean.len() {
            let next_end = scan
                .offsets
                .get(prefix)
                .copied()
                .unwrap_or(clean.len() as u64);
            cuts.push(offset + 3); // torn header
            cuts.push(offset + (next_end - offset) / 2); // torn payload
            cuts.push(next_end.saturating_sub(1)); // one byte short
        }
        cuts.retain(|&c| c <= clean.len() as u64);
        cuts.dedup();
        for cut in cuts {
            copy_dir(&dir, &crash_dir);
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(crash_dir.join(wal_file.file_name().unwrap()))
                .expect("open wal copy");
            f.set_len(cut).expect("truncate wal copy");
            drop(f);

            let mut reopened =
                Session::open_with(&crash_dir, GrounderOpts::default(), no_auto_checkpoint())
                    .expect("reopen after crash");
            assert_eq!(
                reopened.epoch(),
                prefix as u64,
                "seed {seed}: cut {cut} must recover {prefix} commits"
            );
            let mut oracle = oracle_with_prefix(&batches, prefix);
            assert_sessions_match(
                &format!("seed {seed} prefix {prefix} cut {cut}"),
                &mut reopened,
                &mut oracle,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn crash_at_every_record_boundary_fixed_seeds() {
    for seed in [11, 42] {
        crash_boundary_sweep(seed, 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance property over random walks.
    #[test]
    fn crash_at_every_record_boundary_random(seed in any::<u64>()) {
        crash_boundary_sweep(seed, 6);
    }
}

// ---------------------------------------------------------------------
// Fault injection: the crash happens *inside* the session.
// ---------------------------------------------------------------------

/// Runs the walk on fault-injecting storage until the injected crash
/// kills a commit, "reboots" onto real storage, and asserts the
/// recovered state is the exact commit prefix named by the recovered
/// epoch (with all fully-fsync'd commits present).
fn fault_injection_run(seed: u64) {
    let dir = temp_dir(&format!("fault_{seed}"));
    let mut rng = Walk(seed ^ 0xfau64);
    let plan = FaultPlan {
        // Somewhere inside the walk's WAL traffic (records are tens of
        // bytes; the full walk writes a few hundred).
        crash_after_bytes: Some(64 + rng.below(700) as u64),
        // Sometimes drop an early fsync (the lying-disk case).
        drop_syncs: if rng.chance(0.5) {
            vec![rng.below(4) as u64]
        } else {
            Vec::new()
        },
        torn_tail_bytes: rng.below(24) as u64,
        ..FaultPlan::default()
    };
    let commits = 10;
    let batches = script_walk(seed, commits);

    let dopts = DurableOpts {
        storage: StorageKind::Faulty(plan),
        ..no_auto_checkpoint()
    };
    let mut survived = 0usize;
    let mut crashed = false;
    {
        let mut session = open_base(&dir, dopts);
        for ops in &batches {
            match apply_batch(&mut session, ops) {
                Ok(_) => survived += 1,
                Err(SessionError::Durable(_)) => {
                    crashed = true;
                    break;
                }
                Err(e) => panic!("unexpected walk error: {e}"),
            }
        }
        // The crash must not corrupt the in-memory session: it still
        // serves its pre-crash state (the failed commit rolled back).
        assert_eq!(session.epoch(), survived as u64);
        assert!(!session.is_poisoned());
    }

    // "Reboot": reopen the directory on real storage. The recovered
    // epoch names how many commits actually reached the disk.
    let mut reopened = Session::open_with(&dir, GrounderOpts::default(), no_auto_checkpoint())
        .expect("reopen after injected crash");
    let recovered = reopened.epoch() as usize;
    assert!(
        recovered <= survived,
        "seed {seed}: disk cannot hold commits that never happened"
    );
    if crashed && plan_all_syncs_kept(seed) {
        // With every fsync honored, every acknowledged commit is on
        // disk: the crash can only have eaten the in-flight one.
        assert_eq!(
            recovered, survived,
            "seed {seed}: fsync'd commits must survive the crash"
        );
    }
    let mut oracle = oracle_with_prefix(&batches, recovered);
    assert_sessions_match(&format!("fault seed {seed}"), &mut reopened, &mut oracle);

    // Recovery is stable: the reopened session keeps committing.
    reopened
        .assert_facts("f(c9).")
        .expect("post-recovery commit");
    assert_eq!(reopened.truth("?- f(c9).").unwrap(), Truth::True);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whether `fault_injection_run(seed)` built a plan with no dropped
/// fsyncs (recomputes the same PRNG draws).
fn plan_all_syncs_kept(seed: u64) -> bool {
    let mut rng = Walk(seed ^ 0xfau64);
    let _ = rng.below(700);
    !rng.chance(0.5)
}

/// Seed sweep, overridable from the environment: check.sh runs this
/// with `GSLS_FAULT_SEED=<n>` to widen coverage.
#[test]
fn fault_injected_crash_recovers_a_commit_prefix() {
    let seeds: Vec<u64> = match std::env::var("GSLS_FAULT_SEED") {
        Ok(s) => {
            let base: u64 = s.parse().expect("GSLS_FAULT_SEED must be an integer");
            (0..4)
                .map(|i| base.wrapping_mul(97).wrapping_add(i))
                .collect()
        }
        Err(_) => vec![1, 2, 5, 8],
    };
    for seed in seeds {
        fault_injection_run(seed);
    }
}

// ---------------------------------------------------------------------
// Transient storage errors: an un-acked record never surfaces.
// ---------------------------------------------------------------------

/// The walk base on fault-injecting storage. The seed checkpoint
/// rotates onto a fresh WAL file, so the plan's sync/truncate indices
/// count from the first commit.
fn open_faulty(dir: &Path, plan: FaultPlan) -> Session {
    open_base(
        dir,
        DurableOpts {
            storage: StorageKind::Faulty(plan),
            ..no_auto_checkpoint()
        },
    )
}

type Fingerprint = (BTreeSet<String>, BTreeSet<String>);

/// What a clean reopen of `dir` (real storage) recovers.
fn reopened_state(dir: &Path) -> (u64, Fingerprint) {
    let s = Session::open_with(dir, GrounderOpts::default(), no_auto_checkpoint())
        .expect("reopen on real storage");
    (s.epoch(), fingerprint(&s))
}

/// The un-acked-record contract, checked after an injected failure made
/// a commit (or group) return `Err`: the session is either already back
/// at the acked state with a clean WAL, or poisoned — refusing writes —
/// until `recover()` gets it there. Either way a crash right now
/// recovers exactly the acked state, the next commit succeeds, and a
/// reopen shows acked + next: never a `failed` fact, never a lost ack.
fn assert_failed_commit_never_surfaces(
    ctx: &str,
    mut s: Session,
    dir: &Path,
    acked: &(u64, Fingerprint),
    failed: &[&str],
) {
    if s.is_poisoned() {
        assert!(
            matches!(s.assert_facts("f(c9)."), Err(SessionError::Poisoned)),
            "{ctx}: a poisoned session refuses writes"
        );
        s.recover().expect("the injected faults are transient");
    }
    assert!(!s.is_poisoned(), "{ctx}");
    assert_eq!(
        (s.epoch(), fingerprint(&s)),
        *acked,
        "{ctx}: live state must be the acked state"
    );
    let crash_dir = temp_dir(&format!("{ctx}_crash"));
    copy_dir(dir, &crash_dir);
    assert_eq!(
        reopened_state(&crash_dir),
        *acked,
        "{ctx}: a crash now must recover exactly the acked state"
    );
    let _ = std::fs::remove_dir_all(&crash_dir);

    s.assert_facts("f(c7).").expect("next commit");
    let live = (s.epoch(), fingerprint(&s));
    assert_eq!(live.0, acked.0 + 1, "{ctx}");
    drop(s);
    let reopened = Session::open_with(dir, GrounderOpts::default(), no_auto_checkpoint())
        .expect("reopen on real storage");
    assert_eq!(
        (reopened.epoch(), fingerprint(&reopened)),
        live,
        "{ctx}: reopen must agree with the session that kept committing"
    );
    assert_eq!(reopened.truth("?- f(c7).").unwrap(), Truth::True, "{ctx}");
    for fact in failed {
        assert_eq!(
            reopened.truth(&format!("?- {fact}.")).unwrap(),
            Truth::False,
            "{ctx}: un-acked {fact} resurfaced after reopen"
        );
    }
}

/// A single commit's covering fsync fails after its apply. The record's
/// bytes are in the page cache, where the *next* commit's fsync would
/// make them durable under the same epoch — replaying the failed batch
/// and skipping the acked one. The commit unwinds at once, so the caller
/// sees a rolled-back transaction; only when the cut fails too does the
/// session stay poisoned until `recover()`.
#[test]
fn failed_fsync_of_a_single_commit_never_surfaces() {
    for cut_fails in [false, true] {
        let ctx = format!("single_cut_fails_{cut_fails}");
        let dir = temp_dir(&ctx);
        let plan = FaultPlan {
            fail_syncs: vec![1],
            fail_truncates: if cut_fails { vec![0] } else { Vec::new() },
            ..FaultPlan::default()
        };
        let mut s = open_faulty(&dir, plan);
        s.assert_facts("e(c0, c1).").expect("sync #0 succeeds");
        let acked = (s.epoch(), fingerprint(&s));
        let err = s.assert_facts("e(c1, c2).").unwrap_err(); // sync #1 fails
        assert!(matches!(err, SessionError::Durable(_)), "got {err:?}");
        assert_eq!(
            s.is_poisoned(),
            cut_fails,
            "{ctx}: poisoned exactly when the WAL cut failed too"
        );
        assert_failed_commit_never_surfaces(&ctx, s, &dir, &acked, &["e(c1, c2)"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every commit is a group of one: an auto-commit and a `begin`/`commit`
/// each cost exactly one covering fsync, and a commit rolled back after
/// its journal costs none and leaves the WAL at its earlier length.
#[test]
fn one_fsync_per_committed_batch_none_per_rolled_back_one() {
    let dir = temp_dir("one_fsync");
    let mut s = open_base(&dir, no_auto_checkpoint());
    let counts = |s: &Session| {
        let m = s.metrics();
        ["wal.fsyncs", "wal.group_syncs", "wal.group_records"].map(|c| m.counter(c).unwrap_or(0))
    };
    let wal_file = wal_path(&dir, *scan_dir(&dir).unwrap().wals.iter().max().unwrap());
    let wal_len = || std::fs::metadata(&wal_file).unwrap().len();

    let before = counts(&s);
    s.assert_facts("e(c0, c1).").expect("auto-commit");
    let after = counts(&s);
    assert_eq!(after, before.map(|n| n + 1), "an auto-commit");
    s.begin().unwrap();
    s.assert_facts("e(c1, c2).").unwrap();
    s.retract_facts("e(c0, c1).").unwrap();
    s.commit().expect("transactional commit");
    let before = counts(&s);
    assert_eq!(before, after.map(|n| n + 1), "a begin/commit");

    let len = wal_len();
    s.begin().unwrap();
    s.assert_facts("e(c2, c3).").unwrap();
    let err = s
        .commit_with(&CommitOpts {
            fuel: Some(0),
            ..CommitOpts::default()
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            SessionError::Interrupted { phase, .. } if phase != InterruptPhase::Admission
        ),
        "the trip must land after journaling, got {err:?}"
    );
    assert_eq!(
        counts(&s)[0],
        before[0],
        "a rolled-back commit fsyncs nothing"
    );
    assert_eq!(wal_len(), len, "the rolled-back record is cut off the WAL");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journaled commit is interrupted mid-apply and the truncate that
/// should cut its record off fails: the record would replay on reopen,
/// so the session must be poisoned until `recover()` has cut it.
#[test]
fn interrupted_commit_with_failed_wal_cut_never_surfaces() {
    let ctx = "interrupted_cut_fails";
    let dir = temp_dir(ctx);
    let plan = FaultPlan {
        fail_truncates: vec![0],
        ..FaultPlan::default()
    };
    let mut s = open_faulty(&dir, plan);
    s.assert_facts("e(c0, c1).").expect("acked commit");
    let acked = (s.epoch(), fingerprint(&s));
    s.begin().unwrap();
    s.assert_facts("e(c1, c2).").unwrap();
    let err = s
        .commit_with(&CommitOpts {
            fuel: Some(0),
            ..CommitOpts::default()
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            SessionError::Interrupted { phase, .. } if phase != InterruptPhase::Admission
        ),
        "the trip must land after journaling, got {err:?}"
    );
    assert!(
        s.is_poisoned(),
        "the record is still in the WAL: the session must not carry on"
    );
    assert_eq!(
        fingerprint(&s),
        acked.1,
        "a poisoned session keeps serving the acked model"
    );
    assert_failed_commit_never_surfaces(ctx, s, &dir, &acked, &["e(c1, c2)"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group mode: the covering fsync fails after both batches were applied
/// in memory. No ack went out, so `recover()` must return to the state
/// before the group — memory and WAL — not bless the un-acked batches.
#[test]
fn failed_group_fsync_never_surfaces() {
    let ctx = "group_fsync_fails";
    let dir = temp_dir(ctx);
    let plan = FaultPlan {
        fail_syncs: vec![1],
        ..FaultPlan::default()
    };
    let mut s = open_faulty(&dir, plan);
    s.assert_facts("e(c0, c1). g(c0).")
        .expect("sync #0 succeeds");
    let acked = (s.epoch(), fingerprint(&s));
    let mut batch = |assert: &str, retract: &str| {
        let mut atoms = |src: &str| -> Vec<Atom> {
            parse_program(s.store_mut(), src)
                .unwrap()
                .clauses()
                .iter()
                .map(|c| c.head.clone())
                .collect()
        };
        let batch = UpdateBatch {
            asserts: atoms(assert),
            retracts: atoms(retract),
            ..UpdateBatch::default()
        };
        (batch, CommitOpts::none())
    };
    let group = vec![batch("e(c1, c2).", "g(c0)."), batch("f(c2).", "")];
    let err = s.commit_group(group).unwrap_err(); // sync #1: the covering fsync
    assert!(matches!(err, SessionError::Durable(_)), "got {err:?}");
    assert!(s.is_poisoned(), "a failed covering fsync poisons");
    assert_failed_commit_never_surfaces(ctx, s, &dir, &acked, &["e(c1, c2)", "f(c2)"]);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Checkpoint/restore.
// ---------------------------------------------------------------------

/// State (including retractions) survives checkpoint + reopen, and the
/// WAL rotates: records before the checkpoint are never replayed.
#[test]
fn checkpoint_restores_state_and_rotates_wal() {
    let dir = temp_dir("checkpoint");
    {
        let mut s = open_base(&dir, no_auto_checkpoint());
        s.assert_facts("e(c0, c1). e(c1, c0). g(c0).").unwrap();
        s.retract_facts("g(c0).").unwrap();
        s.checkpoint().expect("explicit checkpoint");
        s.assert_facts("f(c1).").unwrap(); // post-checkpoint WAL tail
    }
    let gens = scan_dir(&dir).unwrap();
    assert!(gens.checkpoints.len() >= 2, "initial + explicit checkpoint");

    let mut reopened = Session::open(&dir).expect("reopen");
    assert_eq!(
        reopened.truth("?- p(c0).").unwrap(),
        Truth::True,
        "g(c0) retracted"
    );
    assert_eq!(reopened.truth("?- g(c0).").unwrap(), Truth::False);
    assert_eq!(
        reopened.truth("?- f(c1).").unwrap(),
        Truth::True,
        "WAL tail replayed"
    );
    assert_eq!(reopened.truth("?- t(c0, c0).").unwrap(), Truth::True);
    assert_eq!(reopened.truth("?- w(c0).").unwrap(), Truth::Undefined);

    // Retraction still reversible after restore.
    reopened.assert_facts("g(c0).").unwrap();
    assert_eq!(reopened.truth("?- p(c0).").unwrap(), Truth::False);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Auto-checkpointing (record-count threshold) kicks in mid-walk and
/// retention keeps two generations; reopen still equals the oracle.
#[test]
fn auto_checkpoint_with_retention_recovers() {
    let dir = temp_dir("auto_ckpt");
    let batches = script_walk(77, 12);
    let dopts = DurableOpts {
        checkpoint_records: 3,
        ..DurableOpts::default()
    };
    {
        let mut s = open_base(&dir, dopts.clone());
        for ops in &batches {
            apply_batch(&mut s, ops).expect("batch commits");
        }
    }
    let gens = scan_dir(&dir).unwrap();
    assert!(
        gens.checkpoints.len() <= 2,
        "retention keeps at most two generations: {:?}",
        gens.checkpoints
    );
    let mut reopened = Session::open_with(&dir, GrounderOpts::default(), dopts).unwrap();
    assert_eq!(reopened.epoch(), 12);
    let mut oracle = oracle_with_prefix(&batches, 12);
    assert_sessions_match("auto checkpoint", &mut reopened, &mut oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reopen that replays a long WAL tail folds it into a fresh
/// checkpoint, so the next reopen decodes one image and replays
/// nothing; a short tail is left alone and replays again.
#[test]
fn reopen_folds_a_long_wal_tail_into_a_checkpoint() {
    let replayed = |s: &Session| s.metrics().counter("wal.recovered_records").unwrap_or(0);
    let reopen = |dir: &Path| {
        Session::open_with(dir, GrounderOpts::default(), no_auto_checkpoint()).expect("reopen")
    };
    for (tail, second_replay) in [(3u64, 3u64), (9, 0)] {
        let dir = temp_dir(&format!("fold{tail}"));
        {
            let mut s = open_base(&dir, no_auto_checkpoint());
            for i in 0..tail {
                s.assert_facts(&format!("e(c{i}, c{}).", i + 1)).unwrap();
            }
        }
        let first = reopen(&dir);
        assert_eq!((first.epoch(), replayed(&first)), (tail, tail));
        drop(first);
        let second = reopen(&dir);
        assert_eq!(
            (second.epoch(), replayed(&second)),
            (tail, second_replay),
            "a {tail}-record tail"
        );
        let last = format!("?- t(c0, c{tail}).");
        assert_eq!(second.truth(&last).unwrap(), Truth::True);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A corrupt newest checkpoint falls back to the previous generation
/// and replays forward through both WALs — state identical.
#[test]
fn corrupt_newest_checkpoint_falls_back_one_generation() {
    let dir = temp_dir("fallback");
    let batches = script_walk(31, 9);
    {
        let mut s = open_base(&dir, no_auto_checkpoint());
        for (i, ops) in batches.iter().enumerate() {
            apply_batch(&mut s, ops).expect("batch commits");
            if i == 2 || i == 5 {
                s.checkpoint().expect("checkpoint");
            }
        }
    }
    // Flip a payload byte of the newest checkpoint.
    let gens = scan_dir(&dir).unwrap();
    let newest = *gens.checkpoints.iter().max().unwrap();
    let path = gsls_durable::ckpt_path(&dir, newest);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let mut reopened =
        Session::open_with(&dir, GrounderOpts::default(), no_auto_checkpoint()).unwrap();
    assert_eq!(
        reopened.epoch(),
        9,
        "fallback + double replay is idempotent"
    );
    let mut oracle = oracle_with_prefix(&batches, 9);
    assert_sessions_match("checkpoint fallback", &mut reopened, &mut oracle);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Failed commits degrade to rolled-back transactions.
// ---------------------------------------------------------------------

/// A batch rejected by up-front validation (arity mismatch) mutates
/// nothing — no WAL record, no state change — and the session stays
/// writable. The poisoning regression of the issue.
#[test]
fn rejected_batch_leaves_session_writable() {
    let dir = temp_dir("rejected");
    let mut s = open_base(&dir, no_auto_checkpoint());
    s.assert_facts("e(c0, c1).").unwrap();
    let wal_before = {
        let gens = scan_dir(&dir).unwrap();
        std::fs::metadata(wal_path(&dir, *gens.wals.iter().max().unwrap()))
            .unwrap()
            .len()
    };

    s.begin().unwrap();
    s.assert_facts("f(c1).").unwrap();
    // `e` is binary; using it unary must reject the whole batch.
    let err = s.begin().unwrap_err();
    assert_eq!(err, SessionError::NestedTransaction);
    s.assert_facts("e(c1).").unwrap();
    let err = s.commit().unwrap_err();
    assert!(
        matches!(
            &err,
            SessionError::Rejected(r) if matches!(
                r.first(),
                CommitError::ArityMismatch { expected: 2, found: 1, .. }
            )
        ),
        "got {err:?}"
    );
    assert!(!s.is_poisoned(), "rejection must not poison");

    // Nothing was journaled or applied.
    let wal_after = {
        let gens = scan_dir(&dir).unwrap();
        std::fs::metadata(wal_path(&dir, *gens.wals.iter().max().unwrap()))
            .unwrap()
            .len()
    };
    assert_eq!(
        wal_before, wal_after,
        "rejected batch never reaches the WAL"
    );
    assert_eq!(
        s.truth("?- f(c1).").unwrap(),
        Truth::False,
        "batch fully discarded"
    );

    // Still writable, durably.
    s.assert_facts("f(c0). g(c0).").unwrap();
    assert_eq!(s.truth("?- p(c0).").unwrap(), Truth::False);
    drop(s);
    let reopened = Session::open(&dir).unwrap();
    assert_eq!(reopened.truth("?- g(c0).").unwrap(), Truth::True);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch denied by the static analyzer (safety lint) is rejected
/// with `CommitError::Unsafe` *before* any WAL record is written: the
/// acceptance criterion that unsafe programs are never persisted.
#[test]
fn lint_denied_batch_never_reaches_the_wal() {
    let dir = temp_dir("lint_denied");
    let mut store = TermStore::new();
    let program = parse_program(&mut store, WALK_BASE).expect("base parses");
    // Default (deny-by-default) lint config — NOT the walk's permissive one.
    let mut s = Session::open_with_parts(
        &dir,
        store,
        program,
        GrounderOpts::default(),
        no_auto_checkpoint(),
    )
    .expect("durable open");
    s.assert_facts("e(c0, c1).").unwrap();
    let wal_len = |dir: &Path| {
        let gens = scan_dir(dir).unwrap();
        std::fs::metadata(wal_path(dir, *gens.wals.iter().max().unwrap()))
            .unwrap()
            .len()
    };
    let wal_before = wal_len(&dir);
    let epoch_before = s.epoch();

    // Floundering rule: `X` occurs only under negation.
    let err = s.add_rules("bad(X) :- ~f(X).").unwrap_err();
    match &err {
        SessionError::Rejected(r) => match r.first() {
            CommitError::Unsafe(d) => {
                assert_eq!(d.lint, Lint::NegativeOnlyVar, "got {d:?}");
                assert_eq!(d.severity, Severity::Error);
            }
            other => panic!("expected a lint rejection, got {other}"),
        },
        other => panic!("expected rejection, got {other}"),
    }
    assert!(!s.is_poisoned(), "lint denial must not poison");
    assert_eq!(s.epoch(), epoch_before, "nothing applied");
    assert_eq!(
        wal_len(&dir),
        wal_before,
        "denied batch must be rejected before journaling"
    );

    // Still writable durably, and a reopen never sees the denied rule.
    s.assert_facts("f(c1).").unwrap();
    drop(s);
    let reopened = Session::open(&dir).unwrap();
    assert_eq!(reopened.truth("?- f(c1).").unwrap(), Truth::True);
    assert_eq!(reopened.truth("?- p(c1).").unwrap(), Truth::True);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Non-ground facts, function symbols, and arity misuse in rule
/// batches are all rejected up front without touching state.
#[test]
fn validation_rejects_nonground_and_function_symbols() {
    let mut s = Session::from_source("e(a, b).").unwrap();
    // Parse-level guards reject non-ground facts immediately…
    assert!(matches!(
        s.assert_facts("e(X, b)."),
        Err(SessionError::NotAFact(_))
    ));
    // …and function symbols.
    assert!(matches!(
        s.assert_facts("e(s(a), b)."),
        Err(SessionError::NotFunctionFree)
    ));
    // Arity misuse inside a rule batch is a typed commit rejection.
    s.begin().unwrap();
    s.add_rules("p(X) :- e(X).").unwrap();
    let err = s.commit().unwrap_err();
    assert!(
        matches!(
            &err,
            SessionError::Rejected(r) if matches!(
                r.first(),
                CommitError::ArityMismatch { expected: 2, found: 1, .. }
            )
        ),
        "got {err:?}"
    );
    assert!(!s.is_poisoned());
    s.assert_facts("e(b, a).").unwrap();
    assert_eq!(s.truth("?- e(b, a).").unwrap(), Truth::True);
}

/// A commit that blows the grounding clause budget mid-apply is
/// unwound in memory and truncated off the WAL: the session returns to
/// its previous epoch, stays unpoisoned and writable, and a reopen
/// never sees the failed batch.
#[test]
fn budget_failure_restores_previous_state() {
    let dir = temp_dir("budget");
    let mut store = TermStore::new();
    let program = parse_program(&mut store, WALK_BASE).expect("base parses");
    let gopts = GrounderOpts {
        max_clauses: 400,
        ..GrounderOpts::default()
    };
    let mut s =
        Session::open_with_parts(&dir, store, program, gopts, no_auto_checkpoint()).unwrap();
    s.assert_facts("e(c0, c1). e(c1, c2). e(c2, c0).").unwrap();
    let epoch_before = s.epoch();
    let fp_before = fingerprint(&s);

    // A big clique blows the 400-clause budget through t/2 closure.
    let mut batch = String::new();
    for i in 0..24 {
        for j in 0..24 {
            batch.push_str(&format!("e(d{i}, d{j}). "));
        }
    }
    let err = s.assert_facts(&batch).unwrap_err();
    assert!(matches!(err, SessionError::Grounding(_)), "got {err:?}");
    assert!(!s.is_poisoned(), "failed commit must degrade to rollback");
    assert_eq!(s.epoch(), epoch_before);
    assert_eq!(fingerprint(&s), fp_before, "state restored exactly");

    // Still writable…
    s.assert_facts("f(c2).").unwrap();
    assert_eq!(s.truth("?- f(c2).").unwrap(), Truth::True);
    drop(s);
    // …and the failed batch never replays.
    let reopened = Session::open_with(&dir, gopts, no_auto_checkpoint()).unwrap();
    assert_eq!(reopened.truth("?- e(d0, d1).").unwrap(), Truth::False);
    assert_eq!(reopened.truth("?- f(c2).").unwrap(), Truth::True);
    let _ = std::fs::remove_dir_all(&dir);
}

/// In-memory sessions get the same recovery semantics (no durable log
/// involved), and `recover()` reports health.
#[test]
fn in_memory_budget_failure_recovers_too() {
    let mut s = Session::with_opts(
        TermStore::new(),
        Program::new(),
        GrounderOpts {
            max_clauses: 200,
            ..GrounderOpts::default()
        },
    )
    .unwrap();
    s.add_rules("t(X, Z) :- e(X, Y), t(Y, Z). t(X, Y) :- e(X, Y).")
        .unwrap();
    s.assert_facts("e(a, b).").unwrap();

    let mut batch = String::new();
    for i in 0..20 {
        for j in 0..20 {
            batch.push_str(&format!("e(x{i}, x{j}). "));
        }
    }
    assert!(matches!(
        s.assert_facts(&batch),
        Err(SessionError::Grounding(_))
    ));
    assert!(!s.is_poisoned());
    s.recover()
        .expect("recover is a no-op on a healthy session");
    assert_eq!(s.truth("?- t(a, b).").unwrap(), Truth::True);
    assert_eq!(s.truth("?- e(x0, x1).").unwrap(), Truth::False);
    s.assert_facts("e(b, c).").unwrap();
    assert_eq!(s.truth("?- t(a, c).").unwrap(), Truth::True);
}

/// `rollback()` after a failed transactional commit discards the batch
/// and leaves a writable session (the old terminal-poisoning path).
#[test]
fn rollback_unpoisons_after_failed_transactional_commit() {
    let mut s = Session::with_opts(
        TermStore::new(),
        Program::new(),
        GrounderOpts {
            max_clauses: 200,
            ..GrounderOpts::default()
        },
    )
    .unwrap();
    s.add_rules("t(X, Z) :- e(X, Y), t(Y, Z). t(X, Y) :- e(X, Y). f(a).")
        .unwrap();
    s.begin().unwrap();
    let mut batch = String::new();
    for i in 0..20 {
        for j in 0..20 {
            batch.push_str(&format!("e(x{i}, x{j}). "));
        }
    }
    s.assert_facts(&batch).unwrap();
    assert!(s.commit().is_err());
    s.rollback();
    assert!(!s.is_poisoned());
    assert!(!s.in_transaction());
    s.assert_facts("e(a, b).").unwrap();
    assert_eq!(s.truth("?- t(a, b).").unwrap(), Truth::True);
}
