//! Engine-wide deadlines, cancellation, and resource governance (PR 8).
//!
//! The central invariant: **an interrupted commit is a rolled-back
//! transaction**. Whether the guard trips during grounding, during the
//! model refresh, from a deadline, from another thread's
//! [`InterruptHandle`], or from injected fuel exhaustion — the session
//! must come back at its previous epoch, unpoisoned, with no WAL
//! record of the failed batch, and keep committing. A panic escaping
//! mid-commit (the `panic_on_fuel` hook) is allowed to leave the
//! session poisoned, but [`Session::recover`] must always bring it
//! back to the same rolled-back state.
//!
//! The sweeps:
//!
//! * `interrupt_at_every_phase_*` — fuel-driven: re-run one commit with
//!   fuel 0, 1, 2, … until it succeeds, asserting post-interrupt state
//!   ≡ a rollback oracle at every step (the interrupt thereby lands in
//!   every guard-checked phase: admission, grounding rounds, memory
//!   polls, refresh rounds);
//! * `panic_at_every_stage_*` — same sweep with `panic_on_fuel`,
//!   `catch_unwind`, and a `recover()` that must always succeed;
//! * `cancel_mid_commit_from_another_thread` — satellite 3's
//!   concurrent interruption on the 600×600 grid;
//! * `cancel_interleaved_walk_matches_rebuild` — seed-swept random
//!   walk interleaving governed (usually interrupted) commit attempts
//!   into the PR 5 session-vs-rebuild property.
//!
//! Queries get the weaker, better contract: a governed enumeration
//! that trips reports `interrupted()` and keeps every answer already
//! streamed (a *partial* outcome, like a resolution budget), because
//! read-only evaluation has nothing to roll back.

mod common;

use common::assert_matches_rebuild;
use global_sls::internals::Guard;
use global_sls::prelude::*;
use gsls_workloads::win_grid;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Shared machinery (mirrors tests/durability.rs).
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

/// Goals for the truncate ≡ rebuild fingerprint every sweep below takes
/// after a rollback (`common::assert_matches_rebuild`): a scan, and a
/// literal bound in its first, its second and a joined position.
const GOALS: [&str; 4] = [
    "?- w(X).",
    "?- e(k0, Y), ~w(Y).",
    "?- e(X, k1).",
    "?- f(X), t(X, Y).",
];

/// The model as displayable fact sets (true, undefined).
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

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gsls_governance_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn no_auto_checkpoint() -> DurableOpts {
    DurableOpts {
        checkpoint_records: usize::MAX,
        checkpoint_bytes: u64::MAX,
        ..DurableOpts::default()
    }
}

/// A batch heavy enough that grounding + refresh cross many guard
/// checks (t/2 closure over a clique: ~n² atoms, ~n³ join rows).
fn clique_batch(n: usize) -> String {
    let mut batch = String::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                batch.push_str(&format!("e(k{i}, k{j}). "));
            }
        }
    }
    batch
}

/// Begins a transaction, queues `batch`, commits with `opts`.
fn governed_commit(
    s: &mut Session,
    batch: &str,
    opts: &CommitOpts,
) -> Result<CommitStats, SessionError> {
    s.begin()?;
    if let Err(e) = s.assert_facts(batch) {
        s.rollback();
        return Err(e);
    }
    s.commit_with(opts)
}

// ---------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------

/// A batch predicted to blow the clause cap is rejected in the
/// Admission phase before the WAL sees a record; the same batch then
/// commits fine ungoverned.
#[test]
fn admission_rejects_before_wal() {
    use global_sls::durable::{scan_dir, wal_path};
    let dir = temp_dir("admission");
    let mut s = Session::open_with(&dir, GrounderOpts::default(), no_auto_checkpoint())
        .expect("durable open");
    s.add_rules("t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).")
        .unwrap();
    let wal_len = |dir: &PathBuf| {
        let gens = scan_dir(dir).unwrap();
        std::fs::metadata(wal_path(dir, *gens.wals.iter().max().unwrap()))
            .unwrap()
            .len()
    };
    let wal_before = wal_len(&dir);
    let epoch_before = s.epoch();
    let fp_before = fingerprint(&s);

    let opts = CommitOpts {
        max_clauses: Some(50),
        ..CommitOpts::default()
    };
    let err = governed_commit(&mut s, &clique_batch(12), &opts).unwrap_err();
    assert!(
        matches!(
            err,
            SessionError::Interrupted {
                phase: InterruptPhase::Admission,
                cause: InterruptCause::MemoryBudget,
                ..
            }
        ),
        "got {err:?}"
    );
    assert!(!s.is_poisoned());
    assert_eq!(s.epoch(), epoch_before);
    assert_eq!(fingerprint(&s), fp_before);
    assert_eq!(
        wal_len(&dir),
        wal_before,
        "admission rejection must precede journaling"
    );

    // A tiny memory budget rejects the same way.
    let opts = CommitOpts {
        max_memory_bytes: Some(1),
        ..CommitOpts::default()
    };
    let err = governed_commit(&mut s, &clique_batch(12), &opts).unwrap_err();
    assert!(matches!(
        err,
        SessionError::Interrupted {
            phase: InterruptPhase::Admission,
            ..
        }
    ));

    // Ungoverned, the batch is perfectly fine.
    s.begin().unwrap();
    s.assert_facts(&clique_batch(12)).unwrap();
    s.commit().expect("ungoverned commit succeeds");
    assert_eq!(s.truth("?- t(k0, k1).").unwrap(), Truth::True);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unlimited `CommitOpts` admits everything: `commit_with` with the
/// default opts behaves exactly like `commit`.
#[test]
fn default_opts_are_ungoverned() {
    let mut s = Session::from_source(WALK_BASE).unwrap();
    s.begin().unwrap();
    s.assert_facts("e(c0, c1). e(c1, c0).").unwrap();
    s.commit_with(&CommitOpts::none()).unwrap();
    assert_eq!(s.truth("?- t(c0, c0).").unwrap(), Truth::True);
    assert_eq!(s.truth("?- w(c0).").unwrap(), Truth::Undefined);
}

/// An already-expired deadline interrupts the commit mid-apply and the
/// session rolls back to its previous epoch, then keeps committing.
#[test]
fn expired_deadline_rolls_back_and_session_continues() {
    let mut s = Session::from_source(WALK_BASE).unwrap();
    s.assert_facts("e(c0, c1).").unwrap();
    let fp_before = fingerprint(&s);
    let epoch_before = s.epoch();

    let opts = CommitOpts {
        deadline: Some(Instant::now() - Duration::from_millis(1)),
        ..CommitOpts::default()
    };
    let err = governed_commit(&mut s, &clique_batch(10), &opts).unwrap_err();
    match err {
        SessionError::Interrupted { phase, cause, .. } => {
            assert_eq!(cause, InterruptCause::DeadlineExceeded);
            assert!(
                matches!(
                    phase,
                    InterruptPhase::Grounding | InterruptPhase::ModelRefresh
                ),
                "deadline tripped in {phase}"
            );
        }
        other => panic!("expected an interrupt, got {other:?}"),
    }
    assert!(!s.is_poisoned(), "timeout ≡ rolled-back txn");
    assert_eq!(s.epoch(), epoch_before);
    assert_eq!(fingerprint(&s), fp_before, "state restored exactly");

    // A generous deadline lets the same batch through.
    let opts = CommitOpts::none().with_timeout(Duration::from_secs(600));
    governed_commit(&mut s, &clique_batch(10), &opts).expect("commit within deadline");
    assert_eq!(s.truth("?- t(k0, k0).").unwrap(), Truth::True);
}

// ---------------------------------------------------------------------
// The interrupt-at-every-phase sweep (fuel-driven).
// ---------------------------------------------------------------------

/// Interrupts one fixed commit at every guard check it performs (fuel
/// 0, 1, 2, … until the commit succeeds), asserting post-interrupt
/// state ≡ the rollback oracle every time — on an in-memory session
/// and, when `dir` is set, on a durable one whose WAL must stay at its
/// pre-commit length.
fn interrupt_at_every_phase(durable: bool) {
    let dir = durable.then(|| temp_dir("phase_sweep"));
    let mut s = match &dir {
        Some(d) => {
            let mut store = TermStore::new();
            let program = parse_program(&mut store, WALK_BASE).unwrap();
            Session::open_with_parts(
                d,
                store,
                program,
                GrounderOpts::default(),
                no_auto_checkpoint(),
            )
            .unwrap()
        }
        None => Session::from_source(WALK_BASE).unwrap(),
    };
    s.assert_facts("e(c0, c1). e(c1, c2). g(c1).").unwrap();
    let fp_before = fingerprint(&s);
    let epoch_before = s.epoch();
    let wal_before = dir.as_ref().map(|d| {
        use global_sls::durable::{scan_dir, wal_path};
        let gens = scan_dir(d).unwrap();
        std::fs::metadata(wal_path(d, *gens.wals.iter().max().unwrap()))
            .unwrap()
            .len()
    });
    let batch = clique_batch(8);

    let mut interrupted_at = 0u64;
    for fuel in 0.. {
        let opts = CommitOpts {
            fuel: Some(fuel),
            ..CommitOpts::default()
        };
        match governed_commit(&mut s, &batch, &opts) {
            Ok(_) => {
                assert!(fuel > 0, "a zero-fuel commit of this batch cannot succeed");
                break;
            }
            Err(SessionError::Interrupted { cause, .. }) => {
                assert_eq!(cause, InterruptCause::Cancelled, "fuel trips as Cancelled");
                interrupted_at = fuel;
            }
            Err(other) => panic!("fuel {fuel}: unexpected error {other:?}"),
        }
        // The rollback oracle: previous epoch, unpoisoned, identical
        // state, untouched WAL.
        assert!(!s.is_poisoned(), "fuel {fuel}: interrupt must not poison");
        assert_eq!(s.epoch(), epoch_before, "fuel {fuel}");
        assert_eq!(fingerprint(&s), fp_before, "fuel {fuel}: state diverged");
        assert_matches_rebuild(&mut s, &[], &GOALS, &format!("fuel {fuel}"));
        if let (Some(d), Some(before)) = (&dir, wal_before) {
            use global_sls::durable::{scan_dir, wal_path};
            let gens = scan_dir(d).unwrap();
            let len = std::fs::metadata(wal_path(d, *gens.wals.iter().max().unwrap()))
                .unwrap()
                .len();
            assert_eq!(len, before, "fuel {fuel}: interrupted record not truncated");
        }
    }
    assert!(
        interrupted_at >= 2,
        "the sweep should cross several distinct guard checks, last interrupt at {interrupted_at}"
    );
    // The final (successful) governed commit matches an ungoverned
    // oracle of the same history.
    let mut oracle = Session::from_source(WALK_BASE).unwrap();
    oracle.assert_facts("e(c0, c1). e(c1, c2). g(c1).").unwrap();
    oracle.assert_facts(&batch).unwrap();
    assert_eq!(
        fingerprint(&s),
        fingerprint(&oracle),
        "surviving commit must equal the ungoverned oracle"
    );
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn interrupt_at_every_phase_in_memory() {
    interrupt_at_every_phase(false);
}

#[test]
fn interrupt_at_every_phase_durable() {
    interrupt_at_every_phase(true);
}

/// The same sweep over a **retraction**: no grounding happens, so every
/// guard check the commit performs is model maintenance — the
/// delete-and-rederive cascades of both chains' clause switch, the cone
/// walk, the alternation. Cutting the middle edge of an 80-node chain
/// retracts 40 × 40 `t/2` atoms per chain, several tick intervals of
/// cascade. Wherever the fuel runs out, the commit must come back
/// `Interrupted` in `ModelRefresh` and unwound to the pre-commit
/// fingerprint. (That the cascade itself polls the guard is pinned in
/// `gsls-wfs`: `interrupted_grow_and_switch_reprime_cleanly`.)
#[test]
fn interrupt_at_every_check_of_a_retraction() {
    const N: usize = 80;
    let mut src = String::from("t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).\n");
    for i in 0..N {
        src.push_str(&format!("e(k{i}, k{}). ", i + 1));
    }
    let mut s = Session::from_source(&src).unwrap();
    let cut = format!("e(k{}, k{}).", N / 2, N / 2 + 1);
    let fp_before = fingerprint(&s);
    let mut interrupts = 0u64;
    for fuel in 0.. {
        s.begin().unwrap();
        s.retract_facts(&cut).unwrap();
        let opts = CommitOpts {
            fuel: Some(fuel),
            ..CommitOpts::default()
        };
        match s.commit_with(&opts) {
            Ok(stats) => {
                assert_eq!(stats.facts_retracted, 1);
                break;
            }
            Err(SessionError::Interrupted { phase, cause, .. }) => {
                assert_eq!(phase, InterruptPhase::ModelRefresh, "fuel {fuel}");
                assert_eq!(cause, InterruptCause::Cancelled, "fuel {fuel}");
                interrupts += 1;
            }
            Err(other) => panic!("fuel {fuel}: unexpected error {other:?}"),
        }
        assert!(!s.is_poisoned(), "fuel {fuel}: interrupt must not poison");
        assert_eq!(fingerprint(&s), fp_before, "fuel {fuel}: state diverged");
        let goals = ["?- t(k0, Y).", "?- e(X, k41).", "?- t(X, k80)."];
        assert_matches_rebuild(&mut s, &[], &goals, &format!("fuel {fuel}"));
    }
    assert!(
        interrupts >= 2,
        "the sweep should cross several distinct guard checks, crossed {interrupts}"
    );
    assert_eq!(s.truth("?- t(k0, k80).").unwrap(), Truth::False);
    assert_eq!(s.truth("?- t(k0, k40).").unwrap(), Truth::True);
    assert_eq!(s.truth("?- t(k41, k80).").unwrap(), Truth::True);
}

// ---------------------------------------------------------------------
// The panic-at-every-stage sweep.
// ---------------------------------------------------------------------

/// Same sweep with `panic_on_fuel`: the panic escapes mid-commit
/// through `catch_unwind`, the session reports poisoned (torn), and
/// `recover()` must always restore the rollback-oracle state.
fn panic_at_every_stage(durable: bool) {
    let dir = durable.then(|| temp_dir("panic_sweep"));
    let mut s = match &dir {
        Some(d) => {
            let mut store = TermStore::new();
            let program = parse_program(&mut store, WALK_BASE).unwrap();
            Session::open_with_parts(
                d,
                store,
                program,
                GrounderOpts::default(),
                no_auto_checkpoint(),
            )
            .unwrap()
        }
        None => Session::from_source(WALK_BASE).unwrap(),
    };
    s.assert_facts("e(c0, c1). e(c1, c2). g(c1).").unwrap();
    let fp_before = fingerprint(&s);
    let epoch_before = s.epoch();
    let batch = clique_batch(8);

    let mut panicked = 0usize;
    for fuel in 0.. {
        let opts = CommitOpts {
            fuel: Some(fuel),
            panic_on_fuel: true,
            ..CommitOpts::default()
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| governed_commit(&mut s, &batch, &opts)));
        match outcome {
            Ok(Ok(_)) => break,
            Ok(Err(e)) => panic!("fuel {fuel}: panic_on_fuel returned an error: {e:?}"),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                assert!(
                    msg.contains("governance fuel exhausted"),
                    "fuel {fuel}: foreign panic {msg:?}"
                );
                panicked += 1;
            }
        }
        // The torn session refuses writes until recovered…
        assert!(s.is_poisoned(), "fuel {fuel}: escaped panic must poison");
        assert!(matches!(
            s.assert_facts("f(c9)."),
            Err(SessionError::Poisoned)
        ));
        // …and recover() always brings back the rollback oracle.
        s.recover().expect("recover after mid-commit panic");
        assert!(!s.is_poisoned(), "fuel {fuel}: recover must unpoison");
        assert_eq!(s.epoch(), epoch_before, "fuel {fuel}");
        assert_eq!(
            fingerprint(&s),
            fp_before,
            "fuel {fuel}: recovered state diverged"
        );
        assert_matches_rebuild(&mut s, &[], &GOALS, &format!("fuel {fuel}"));
    }
    assert!(panicked >= 2, "the sweep should panic in several stages");

    // Durable flavor: a reboot (reopen) after the last recovery also
    // lands on the rollback oracle — the torn WAL record never replays.
    if let Some(d) = dir {
        drop(s);
        let reopened =
            Session::open_with(&d, GrounderOpts::default(), no_auto_checkpoint()).unwrap();
        assert_eq!(
            reopened.epoch(),
            epoch_before + 1,
            "reopen sees the final successful commit"
        );
        assert!(reopened.truth("?- t(k0, k1).").unwrap() == Truth::True);
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn panic_at_every_stage_in_memory() {
    panic_at_every_stage(false);
}

#[test]
fn panic_at_every_stage_durable() {
    panic_at_every_stage(true);
}

// ---------------------------------------------------------------------
// Satellite 3: concurrent interruption.
// ---------------------------------------------------------------------

/// A second thread cancels through `interrupt_handle()` while the
/// session grinds a 600×600 grid commit: the commit must come back
/// `Interrupted`, rolled back and unpoisoned, and the next (small)
/// commit must succeed — the cancellation is consumed by the commit it
/// landed on.
#[test]
fn cancel_mid_commit_from_another_thread() {
    let mut store = TermStore::new();
    let program = win_grid(&mut store, 600, 600);
    // Stage the whole grid as one transactional batch on an empty
    // session: the win rule, then every move fact.
    let mut rules = String::new();
    let mut facts = String::with_capacity(32 * program.len());
    for c in program.clauses() {
        let line = c.display(&store);
        if c.body.is_empty() {
            facts.push_str(&line);
            facts.push('\n');
        } else {
            rules.push_str(&line);
            rules.push('\n');
        }
    }
    let mut s = Session::from_source("").unwrap();
    s.begin().unwrap();
    s.add_rules(&rules).unwrap();
    s.assert_facts(&facts).unwrap();

    let handle = s.interrupt_handle();
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let canceller = std::thread::spawn(move || {
        rx.recv().expect("commit started");
        std::thread::sleep(Duration::from_millis(100));
        handle.cancel();
    });
    tx.send(()).unwrap();
    let started = Instant::now();
    let err = s.commit_with(&CommitOpts::none()).unwrap_err();
    let latency = started.elapsed();
    canceller.join().unwrap();

    assert!(
        matches!(
            err,
            SessionError::Interrupted {
                cause: InterruptCause::Cancelled,
                ..
            }
        ),
        "got {err:?}"
    );
    assert!(!s.is_poisoned(), "cancelled commit must roll back cleanly");
    assert_eq!(s.epoch(), 0, "nothing committed");
    assert!(!s.in_transaction(), "the batch was consumed");
    assert!(
        latency < Duration::from_secs(30),
        "cancellation took {latency:?}"
    );

    // The flag was consumed: a fresh commit goes through untroubled.
    s.begin().unwrap();
    s.add_rules("win(X) :- move(X, Y), ~win(Y).").unwrap();
    s.assert_facts("move(a, b).").unwrap();
    s.commit_with(&CommitOpts::none())
        .expect("post-cancel commit succeeds");
    assert_eq!(s.truth("?- win(a).").unwrap(), Truth::True);
}

/// Seed-swept: governed (fuel-starved, usually interrupted, sometimes
/// panicking-and-recovered) commit attempts interleave into the PR 5
/// random walk; after every step the session must match a from-scratch
/// rebuild that only saw the *successful* batches.
#[test]
fn cancel_interleaved_walk_matches_rebuild() {
    let seeds: Vec<u64> = match std::env::var("GSLS_GOVERN_SEED") {
        Ok(v) => {
            let base: u64 = v.parse().expect("GSLS_GOVERN_SEED must be an integer");
            (0..3)
                .map(|i| base.wrapping_mul(131).wrapping_add(i))
                .collect()
        }
        Err(_) => vec![3, 17, 29],
    };
    for seed in seeds {
        cancel_interleaved_walk(seed);
    }
}

fn cancel_interleaved_walk(seed: u64) {
    let mut rng = Walk(seed);
    let mut s = Session::from_source(WALK_BASE).unwrap();
    s.set_lint_config(LintConfig::permissive());
    // The rebuild oracle replays only the batches that committed.
    let mut committed: Vec<String> = Vec::new();
    for step in 0..10 {
        let n_consts = 3 + step % 4;
        let mut batch = String::new();
        for _ in 0..2 + rng.below(3) {
            let c = |rng: &mut Walk| format!("c{}", rng.below(n_consts));
            match rng.below(3) {
                0 => batch.push_str(&format!("e({}, {}). ", c(&mut rng), c(&mut rng))),
                1 => batch.push_str(&format!("f({}). ", c(&mut rng))),
                _ => batch.push_str(&format!("h({}, {}). ", c(&mut rng), c(&mut rng))),
            }
        }
        let fp_before = fingerprint(&s);
        if rng.chance(0.6) {
            // A governed attempt with starvation fuel: usually trips,
            // occasionally succeeds (both fine — the oracle follows
            // what actually happened). A third of the attempts panic
            // out of the commit instead of returning, so the walk also
            // exercises mid-flight recovery.
            let inject_panic = rng.chance(0.34);
            let opts = CommitOpts {
                fuel: Some(rng.below(4) as u64),
                panic_on_fuel: inject_panic,
                ..CommitOpts::default()
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| governed_commit(&mut s, &batch, &opts)));
            match outcome {
                Ok(Ok(_)) => committed.push(batch.clone()),
                Ok(Err(SessionError::Interrupted { .. })) => {
                    assert!(!s.is_poisoned(), "seed {seed} step {step}");
                    assert_eq!(
                        fingerprint(&s),
                        fp_before,
                        "seed {seed} step {step}: interrupted commit leaked state"
                    );
                    let ctx = format!("seed {seed} step {step}: truncated");
                    assert_matches_rebuild(&mut s, &[], &GOALS, &ctx);
                    // Retry ungoverned: the session must not hold a
                    // grudge.
                    s.assert_facts(&batch).expect("retry commits");
                    committed.push(batch.clone());
                }
                Ok(Err(other)) => panic!("seed {seed} step {step}: {other:?}"),
                Err(_) => {
                    assert!(inject_panic, "seed {seed} step {step}: foreign panic");
                    assert!(
                        s.is_poisoned(),
                        "seed {seed} step {step}: escaped panic must poison"
                    );
                    s.recover().expect("recover mid-walk");
                    assert_eq!(
                        fingerprint(&s),
                        fp_before,
                        "seed {seed} step {step}: recovery diverged"
                    );
                    let ctx = format!("seed {seed} step {step}: recovered");
                    assert_matches_rebuild(&mut s, &[], &GOALS, &ctx);
                    s.assert_facts(&batch).expect("retry after recovery");
                    committed.push(batch.clone());
                }
            }
        } else {
            s.assert_facts(&batch).expect("ungoverned walk commit");
            committed.push(batch.clone());
        }
        // Session ≡ rebuild of the committed prefix.
        let mut oracle = Session::from_source(WALK_BASE).unwrap();
        oracle.set_lint_config(LintConfig::permissive());
        for b in &committed {
            oracle.assert_facts(b).unwrap();
        }
        assert_eq!(
            fingerprint(&s),
            fingerprint(&oracle),
            "seed {seed} step {step}: session diverged from rebuild"
        );
    }
}

// ---------------------------------------------------------------------
// Governed queries: partial answers, never errors.
// ---------------------------------------------------------------------

/// A fuel-starved governed query stops early with `interrupted()` set
/// and keeps the answers already streamed; ungoverned it enumerates
/// everything with `interrupted` clear.
#[test]
fn governed_query_returns_partial_answers() {
    let mut store = TermStore::new();
    let program = win_grid(&mut store, 40, 40);
    let s = Session::from_parts(store, program).unwrap();

    let full = s.query("?- move(X, Y).").unwrap();
    assert!(full.interrupted.is_none());
    let total = full.answers.len();
    assert!(total > 3000, "grid should have thousands of edges: {total}");

    // Fuel for exactly one tick window: the enumeration is cut off.
    let opts = QueryOpts {
        fuel: Some(1),
        ..QueryOpts::default()
    };
    let partial = s.query_governed("?- move(X, Y).", &opts).unwrap();
    assert_eq!(partial.interrupted, Some(InterruptCause::Cancelled));
    assert!(
        partial.answers.len() < total,
        "a starved query must not finish: {} vs {total}",
        partial.answers.len()
    );
    // Every partial answer is a real answer (both goals parse to the
    // same variables, so their substitutions compare directly).
    for a in &partial.answers {
        assert!(full.answers.contains(a));
    }

    // An expired deadline reports DeadlineExceeded the same way.
    let opts = QueryOpts {
        deadline: Some(Instant::now() - Duration::from_millis(1)),
        ..QueryOpts::default()
    };
    let timed = s.query_governed("?- move(X, Y).", &opts).unwrap();
    assert_eq!(timed.interrupted, Some(InterruptCause::DeadlineExceeded));

    // Ungoverned again: the session serves the full set as before.
    let again = s.query("?- move(X, Y).").unwrap();
    assert_eq!(again.answers.len(), total);
    assert!(again.interrupted.is_none());
}

/// Cancelling through the session's handle mid-stream stops the
/// iterator; the already-yielded answers stay valid.
#[test]
fn cancel_stops_a_streaming_query() {
    let mut store = TermStore::new();
    let program = win_grid(&mut store, 40, 40);
    let mut s = Session::from_parts(store, program).unwrap();
    let handle = s.interrupt_handle();

    let q = s.prepare("?- move(X, Y).").unwrap();
    let guard = s.query_guard(&QueryOpts::default());
    let mut stream = q.execute_governed(&s, &guard).unwrap();
    let mut yielded = 0usize;
    for a in stream.by_ref() {
        assert!(matches!(a.truth, Truth::True | Truth::Undefined));
        yielded += 1;
        if yielded == 10 {
            handle.cancel();
        }
    }
    assert_eq!(
        stream.interrupted(),
        Some(InterruptCause::Cancelled),
        "the stream must report why it went quiet"
    );
    assert!(yielded >= 10, "cancellation cannot retract answers");
    drop(stream);

    // A snapshot stream takes a caller-built guard instead.
    let snap = s.snapshot();
    let guard = Guard::builder().fuel(1).build();
    let q2 = s.prepare("?- move(X, Y).").unwrap();
    let got: Vec<Answer> = q2.execute_governed(&snap, &guard).unwrap().collect();
    // fuel(1) survives two checks: the cut lands at the second
    // TICK_INTERVAL crossing, i.e. at most 2048 backtracking steps.
    assert!(got.len() <= 2048, "starved snapshot stream must be partial");
}
