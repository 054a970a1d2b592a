//! End-to-end tests of the unified observability layer (`gsls-obs`
//! threaded through the session): counter monotonicity, per-phase
//! commit histograms summing to the total, snapshot consistency from a
//! second thread mid-commit, the bounded event ring, and guard-trip
//! forensics — plus, `#[ignore]`d because it times, the gate that holds
//! the instrumentation's own cost at ≤ 3% of a warm commit.

use global_sls::prelude::*;
use std::time::{Duration, Instant};

fn unique_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "gsls-obs-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Engine counters only ever grow, and the commit counters track the
/// committed work exactly across a mixed walk of commits.
#[test]
fn counters_are_monotone_across_commits() {
    let mut s = Session::from_source("t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).").unwrap();
    let mut last = s.metrics();
    for i in 0..20u32 {
        s.assert_facts(&format!("e(n{i}, n{}).", i + 1)).unwrap();
        let m = s.metrics();
        for (name, v) in &m.counters {
            let before = last.counter(name).unwrap_or(0);
            assert!(
                *v >= before,
                "counter {name} went backwards: {before} -> {v}"
            );
        }
        assert_eq!(m.counter("commit.count"), Some(u64::from(i) + 1));
        last = m;
    }
    assert_eq!(last.counter("commit.facts_asserted"), Some(20));
    assert!(last.counter("ground.join_candidates").unwrap_or(0) > 0);
    assert!(last.counter("lfp.evaluations").unwrap_or(0) > 0);
    // Retraction feeds the delete-and-rederive cone histogram.
    s.retract_facts("e(n0, n1).").unwrap();
    let m = s.metrics();
    assert_eq!(m.counter("commit.facts_retracted"), Some(1));
    let cone = m.histogram("lfp.retraction_cone").expect("cone recorded");
    assert!(cone.count >= 1, "retraction must record a cone size");
}

/// On a durable governed commit all seven pipeline phases record
/// exactly once, and their durations sum to ≈ the measured commit wall
/// time.
#[test]
fn phase_histograms_cover_the_commit() {
    let dir = unique_dir("phases");
    let dopts = DurableOpts {
        // Never auto-checkpoint mid-walk: keeps `commit.total` equal to
        // the seven phases plus loop glue.
        checkpoint_records: usize::MAX,
        checkpoint_bytes: u64::MAX,
        ..DurableOpts::default()
    };
    let mut s = Session::open_with(&dir, Default::default(), dopts).unwrap();
    s.add_rules("t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).")
        .unwrap();
    let before = s.metrics();

    const PHASES: [&str; 7] = [
        "commit.validate",
        "commit.admission",
        "commit.journal",
        "commit.ground",
        "commit.refresh",
        "commit.index",
        "commit.publish",
    ];
    const N: u64 = 8;
    for i in 0..N {
        s.begin().unwrap();
        s.assert_facts(&format!("e(p{i}, p{}).", i + 1)).unwrap();
        // `commit_with` (even unrestricted) runs the admission phase.
        s.commit_with(&CommitOpts::none()).unwrap();
    }

    let after = s.metrics();
    let mut phase_sum = 0u64;
    for name in PHASES {
        let h0 = before.histogram(name).copied().unwrap_or_default();
        let h1 = after.histogram(name).copied().unwrap_or_default();
        assert_eq!(
            h1.count - h0.count,
            N,
            "phase {name} must record once per commit"
        );
        phase_sum += h1.sum - h0.sum;
    }
    let t0 = before
        .histogram("commit.total")
        .copied()
        .unwrap_or_default();
    let t1 = after.histogram("commit.total").copied().unwrap_or_default();
    assert_eq!(t1.count - t0.count, N);
    let total = t1.sum - t0.sum;
    assert!(
        phase_sum <= total,
        "phases ({phase_sum}ns) cannot exceed the total ({total}ns)"
    );
    assert!(
        phase_sum * 2 >= total,
        "phases ({phase_sum}ns) must account for most of the total ({total}ns)"
    );
    // WAL I/O counters moved with the journaled commits.
    let appends =
        after.counter("wal.appends").unwrap_or(0) - before.counter("wal.appends").unwrap_or(0);
    assert_eq!(appends, N, "one WAL append per durable commit");
    assert!(after.counter("wal.appended_bytes").unwrap_or(0) > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second thread holding a cloned [`Obs`] can snapshot mid-commit:
/// every snapshot is internally consistent and the counters it sees
/// never move backwards.
#[test]
fn snapshots_from_a_second_thread_are_monotone() {
    let mut s = Session::from_source("w(X) :- e(X, Y), ~w(Y).").unwrap();
    let obs = s.obs();
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let done2 = done.clone();
    let watcher = std::thread::spawn(move || {
        let mut last_commits = 0u64;
        let mut last_ground_sum = 0u64;
        let mut polls = 0u32;
        // Poll-then-test: on a loaded 2-core host the 60 commits can
        // finish before this thread is first scheduled; the final poll
        // still observes the (complete) counters.
        loop {
            let finished = done2.load(std::sync::atomic::Ordering::Relaxed);
            let m = obs.snapshot();
            let commits = m.counter("commit.count").unwrap_or(0);
            assert!(commits >= last_commits, "commit.count went backwards");
            last_commits = commits;
            if let Some(h) = m.histogram("commit.ground") {
                assert!(h.sum >= last_ground_sum, "histogram sum went backwards");
                assert!(h.max <= h.sum, "one observation cannot exceed the sum");
                last_ground_sum = h.sum;
            }
            polls += 1;
            if finished {
                break;
            }
        }
        polls
    });
    for i in 0..60u32 {
        s.assert_facts(&format!("e(m{i}, m{}).", i + 1)).unwrap();
    }
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    let polls = watcher.join().expect("watcher must not panic");
    assert!(polls > 0, "the watcher must have observed something");
    assert_eq!(s.metrics().counter("commit.count"), Some(60));
}

/// The trace ring is bounded: a long commit walk never grows it past
/// its capacity, drains come out in order, and draining empties it.
#[test]
fn event_ring_stays_bounded() {
    let mut s = Session::new();
    for i in 0..1000u32 {
        s.assert_facts(&format!("f(k{i}).")).unwrap();
    }
    let events = s.recent_events();
    assert!(
        events.len() <= global_sls::obs::DEFAULT_RING_CAPACITY,
        "ring must stay bounded: {} events",
        events.len()
    );
    assert!(!events.is_empty());
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq, "events must drain oldest-first");
    }
    // 1000 commits × several spans each — the ring must have evicted.
    assert!(events.last().unwrap().seq > events.len() as u64);
    assert!(s.recent_events().is_empty(), "drain must empty the ring");
}

/// A tripped guard leaves forensics behind: the error carries the
/// resource readings, the trip counter increments, and a `guard.trip`
/// event lands in the ring.
#[test]
fn guard_trips_leave_forensics() {
    let mut s = Session::from_source("t(X, Z) :- e(X, Y), t(Y, Z). t(X, Y) :- e(X, Y).").unwrap();
    s.begin().unwrap();
    // A 12-clique: enough join work that the guard polls mid-commit.
    for i in 0..12u32 {
        for j in 0..12u32 {
            if i != j {
                s.assert_facts(&format!("e(q{i}, q{j}).")).unwrap();
            }
        }
    }
    let opts = CommitOpts {
        deadline: Some(Instant::now() - Duration::from_millis(5)),
        ..CommitOpts::default()
    };
    let err = s.commit_with(&opts).unwrap_err();
    match err {
        SessionError::Interrupted { cause, trip, .. } => {
            assert_eq!(cause, InterruptCause::DeadlineExceeded);
            let over = trip.deadline_over_ns.expect("deadline reading captured");
            assert!(over > 0, "tripped after the deadline passed");
            assert!(
                trip.memory_used_bytes.unwrap_or(0) > 0,
                "pre-rollback byte count captured"
            );
            // The readings render into the error message.
            assert!(format!(
                "{}",
                SessionError::Interrupted {
                    phase: InterruptPhase::Grounding,
                    cause,
                    trip
                }
            )
            .contains("deadline_over_ns"));
        }
        other => panic!("expected an interrupt, got {other:?}"),
    }
    let m = s.metrics();
    let trips: u64 = m
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("guard.trips."))
        .map(|(_, v)| *v)
        .sum();
    assert!(trips >= 1, "the trip must be counted");
    let events = s.recent_events();
    let trip_ev = events
        .iter()
        .find(|e| e.label == "guard.trip")
        .expect("a guard.trip event must be recorded");
    let detail = trip_ev.detail.as_deref().unwrap_or("");
    assert!(detail.contains("cause=deadline exceeded") || detail.contains("cause="));
    assert!(detail.contains("deadline_over_ns"));
}

/// A rolled-back commit is observable end to end: the `rollback.*`
/// counters say which way it was undone and what was dropped, the
/// `commit.unwind` phase histogram takes one observation, and the ring
/// shows the trip and then the unwind span, carrying the counts. A
/// panicked commit recovered with `recover()` counts as a rebuild.
#[test]
fn rollbacks_are_counted_timed_and_traced() {
    const COUNTERS: [&str; 5] = [
        "rollback.truncations",
        "rollback.rebuilds",
        "rollback.reprimes",
        "rollback.dropped_atoms",
        "rollback.dropped_clauses",
    ];
    let mut s = Session::from_source("w(X) :- e(X, Y), ~w(Y). e(a, b).").unwrap();
    let read = |s: &Session| {
        let m = s.metrics();
        (
            COUNTERS.map(|name| m.counter(name).expect("registered at construction")),
            m.histogram("commit.unwind").map_or(0, |h| h.count),
        )
    };
    assert_eq!(read(&s), ([0; 5], 0));
    s.recent_events();

    let doomed = |s: &mut Session, panic_on_fuel: bool| {
        s.begin().unwrap();
        s.assert_facts("e(b, c). e(c, d).").unwrap();
        let opts = CommitOpts {
            fuel: Some(1),
            panic_on_fuel,
            ..CommitOpts::default()
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.commit_with(&opts)))
    };
    let err = doomed(&mut s, false).expect("no panic").unwrap_err();
    assert!(matches!(err, SessionError::Interrupted { .. }), "{err:?}");
    // e(b, c), e(c, d), w(c), w(d) and the four clauses over them.
    assert_eq!(read(&s), ([1, 0, 0, 4, 4], 1));
    let events = s.recent_events();
    let at = |label: &str| events.iter().position(|e| e.label == label);
    let (trip, unwind) = (at("guard.trip").unwrap(), at("commit.unwind").unwrap());
    assert!(trip < unwind, "the trip, then the unwind");
    let span = &events[unwind];
    assert!(span.dur_ns > 0);
    assert_eq!(
        span.detail.as_deref(),
        Some("dropped_atoms=4 dropped_clauses=4 reprimes=0")
    );

    assert!(doomed(&mut s, true).is_err(), "the injected panic escapes");
    s.recover().unwrap();
    assert_eq!(read(&s), ([1, 1, 0, 4, 4], 2));
    // Undone either way: the same commit goes through, ungoverned.
    s.assert_facts("e(b, c). e(c, d).").unwrap();
    assert_eq!(s.truth("?- w(c).").unwrap(), Truth::True);
}

/// Query-path counters: executions, streamed answers, and the split
/// between the three access paths — point lookup, argument index,
/// predicate scan — also from snapshots on another thread.
#[test]
fn query_counters_track_execution_shape() {
    let mut s = Session::from_source("move(a, b). move(b, a). move(b, c).").unwrap();
    let q = s.query("?- move(a, X).").unwrap();
    assert_eq!(q.answers.len(), 1);
    let m = s.metrics();
    assert_eq!(m.counter("query.executions"), Some(1));
    assert!(m.counter("query.answers").unwrap_or(0) >= 1);
    assert_eq!(
        (
            m.counter("query.index_lookups"),
            m.counter("query.index_seals"),
            m.counter("query.index_merges"),
            m.counter("query.candidates"),
            m.counter("query.scans").unwrap_or(0),
        ),
        (Some(1), Some(1), Some(0), Some(1), 0),
        "one bound argument: the index hands over move(a, b) alone, no scan"
    );
    // Fully-ground query → point lookup.
    assert_eq!(s.truth("?- move(b, c).").unwrap(), Truth::True);
    let m = s.metrics();
    assert!(m.counter("query.point_lookups").unwrap_or(0) >= 1);

    // Snapshot reads from another thread keep counting into the
    // session's registry.
    let snap = s.snapshot();
    let pq = s.prepare("?- move(X, Y).").unwrap();
    let before = s.metrics().counter("query.executions").unwrap_or(0);
    let n = std::thread::spawn(move || pq.execute(&snap).unwrap().count())
        .join()
        .unwrap();
    assert_eq!(n, 3);
    let m = s.metrics();
    let after = m.counter("query.executions").unwrap_or(0);
    assert_eq!(after, before + 1, "snapshot reads count as executions");
    assert_eq!(
        m.counter("query.scans"),
        Some(1),
        "no bound argument forces a predicate scan"
    );
}

/// Disabling the bundle stops recording without disturbing what was
/// already recorded; re-enabling resumes.
#[test]
fn runtime_disable_freezes_recording() {
    let mut s = Session::from_source("p(a).").unwrap();
    s.assert_facts("p(b).").unwrap();
    assert_eq!(s.metrics().counter("commit.count"), Some(1));
    s.obs().set_enabled(false);
    s.assert_facts("p(c).").unwrap();
    let frozen = s.metrics();
    assert_eq!(
        frozen.counter("commit.count"),
        Some(1),
        "disabled bundle must not record"
    );
    s.obs().set_enabled(true);
    s.assert_facts("p(d).").unwrap();
    assert_eq!(s.metrics().counter("commit.count"), Some(2));
}

/// The always-on instrumentation costs a warm commit at most 3% at
/// p50: 160 single-fact commits on the 200×200 board, the enable flag
/// flipped per commit so drift from the growing program lands on both
/// sample sets alike. (The registry cannot time its own absence, hence
/// the stopwatch.) A timing test: `scripts/check.sh` runs it by name on
/// a release build, tier-1 does not.
#[test]
#[ignore = "timing gate, run by scripts/check.sh on a release build"]
fn obs_overhead_is_within_three_percent_at_p50() {
    let mut store = TermStore::new();
    let program = gsls_workloads::win_grid(&mut store, 200, 200);
    let mut s = Session::from_parts(store, program).expect("grid is function-free");
    let obs = s.obs();
    let commit = |s: &mut Session, fact: String| {
        let t = Instant::now();
        s.begin().expect("begin");
        s.assert_facts(&fact).expect("stage fact");
        s.commit_with(&CommitOpts::none()).expect("commit");
        t.elapsed().as_nanos() as u64
    };
    for i in 0..8 {
        commit(&mut s, format!("move(warm{i}, n0)."));
    }
    let (mut enabled, mut disabled) = (Vec::new(), Vec::new());
    for i in 0..160 {
        let on = i % 2 == 0;
        obs.set_enabled(on);
        let ns = commit(&mut s, format!("move(ov{i}, n0)."));
        if on { &mut enabled } else { &mut disabled }.push(ns);
    }
    obs.set_enabled(true);
    enabled.sort_unstable();
    disabled.sort_unstable();
    let (on_p50, off_p50) = (enabled[enabled.len() / 2], disabled[disabled.len() / 2]);
    println!("instrumented commit p50 {on_p50} ns, disabled p50 {off_p50} ns");
    assert!(
        on_p50 <= off_p50.max(1) * 103 / 100,
        "instrumented commit p50 {on_p50} ns is {:+.1}% vs the {off_p50} ns disabled p50 \
         (acceptance: <= 3%)",
        (on_p50 as f64 / off_p50.max(1) as f64 - 1.0) * 100.0
    );
}
