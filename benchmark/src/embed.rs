//! `embed_commit`: what an embedder of `Session` sees in-process — one
//! thread, a durable session (default `DurableOpts`, fsync on) on the
//! 200×200 board, no server.
//!
//! Per iteration: one commit from the writer stream (**main**), a fresh
//! `Session::snapshot()`, 2,000 seeded `Snapshot::truth_of_atom` reads
//! on it and one prepared join (**side** — the same join the served
//! workloads' readers issue); every 16th iteration a commit that is
//! rolled back by a one-unit fuel budget (**heavy**) — the backward
//! path, which today unwinds through a full rebuild.
//!
//! The point reads are timed per layer (`core.read_ns`) and not gated:
//! 2,000 random probes of a table larger than the cache measure the
//! host's memory system as much as the program, and moved by 25%
//! between identical runs when everything else moved by 13%.

use crate::fixture::{board_source, open_board_session, Phase, RunConfig, Scrape, Scratch, SETUPS};
use crate::host::{self, Calibration, CALIBRATION_REPS};
use crate::layers;
use crate::ops::{SplitMix64, WriteClass, WriterStream};
use crate::oracle::{self, Oracle};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, Samples, Series};
use gsls_core::{CommitOpts, Session, SessionError};
use gsls_lang::{parse_program, Atom, TermStore};
use gsls_obs::render_prometheus;
use gsls_wfs::Truth;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Point reads per iteration.
const READS: usize = 2_000;
/// The commit every set-up ends with.
const SETUP_FACT: &str = "move(wsetup, n0).";

fn commit(session: &mut Session, asserts: &str, retracts: &str) -> Result<(), SessionError> {
    session.begin()?;
    if !asserts.is_empty() {
        session.assert_facts(asserts)?;
    }
    if !retracts.is_empty() {
        session.retract_facts(retracts)?;
    }
    session.commit().map(|_| ())
}

/// Runs `embed_commit`.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new(cfg.traced);
    let scratch = Scratch::new(&cfg.out_dir);
    let calib = Calibration::new();
    let calib_before = calib.run(CALIBRATION_REPS);
    let board = cfg.grid();

    // Set-up: open on a fresh directory plus the first commit.
    let mut setups = Vec::new();
    let mut kept: Option<(Session, PathBuf)> = None;
    for i in 0..SETUPS {
        if let Some((old, old_dir)) = kept.take() {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let dir = scratch.dir(&format!("embedded-{i}"));
        let t = Instant::now();
        let mut session = open_board_session(&dir, board);
        commit(&mut session, SETUP_FACT, "").expect("first commit");
        setups.push(t.elapsed().as_secs_f64());
        kept = Some((session, dir));
    }
    let (mut session, dir) = kept.expect("SETUPS >= 1");
    report.set("setup_s", median(&setups), setups.len() as u64);

    // Read keys: every grid position's win atom, in the session's own
    // term ids, and a seeded pool of indices into them.
    let win = session.store_mut().intern_symbol("win");
    let atoms: Vec<Atom> = (0..board.positions())
        .map(|k| Atom::new(win, vec![session.store_mut().constant(&format!("n{k}"))]))
        .collect();
    let mut rng = SplitMix64::new(cfg.seed ^ 0x00c0_ffee);
    let pool: Vec<u32> = (0..1 << 16)
        .map(|_| rng.below(atoms.len()) as u32)
        .collect();
    let first = session.snapshot();
    let joins: Vec<_> = (0..16)
        .map(|_| {
            let k = rng.below(atoms.len());
            first
                .prepare(&format!("?- move(n{k}, Y), ~win(Y)."))
                .expect("join compiles")
        })
        .collect();
    drop(first);

    let registry = session.obs();
    let scrape = || Scrape::parse(&render_prometheus(registry.registry()));
    let rotations = registry.registry().counter("wal.rotations");
    let scrape_before = scrape();

    let mut stream = WriterStream::new(cfg.seed, board);
    let (mut commits, mut joined, mut rollbacks) =
        (Series::default(), Series::default(), Series::default());
    // Traced pass only: by class, by driver, and the other steps.
    let mut by_class: [Samples; 3] = Default::default();
    let (mut plain, mut traced_commits) = (Samples::default(), Samples::default());
    let (mut snapshots, mut reads, mut parse, mut stall) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let mut resident = Vec::new();
    let mut cursor = 0usize;
    let mut iteration = 0u32;
    let mut acked = 1u64; // the set-up commit
    let window = cfg.window();
    let mut tracer = Tracer::new(window.warm_end, 0, if cfg.traced { 1 << 20 } else { 0 });
    loop {
        let phase = window.phase(Instant::now());
        if phase == Phase::Done {
            break;
        }
        let (traced, measured) = (phase == Phase::Traced, phase != Phase::Warmup);
        let at = || window.warm_end.elapsed().as_secs_f64();
        iteration += 1;
        let op = stream.next_op();
        let root = traced.then(|| tracer.open("embed.iteration", iteration, 0));
        let parent = root.map_or(0, |r| r.id);
        if traced {
            // What the commit call spends in the parser, timed apart on
            // a scratch store.
            let ((), ns) = tracer.time(true, "lang.parse", iteration, parent, || {
                let mut scratch_store = TermStore::new();
                for text in [&op.asserts, &op.retracts] {
                    black_box(parse_program(&mut scratch_store, text).expect("facts parse"));
                }
            });
            parse.push(ns);
        }

        // main: the commit.
        let rotations_before = rotations.get();
        let (res, ns) = tracer.time(traced, "core.commit", iteration, parent, || {
            commit(&mut session, &op.asserts, &op.retracts)
        });
        report.check(res.is_ok(), || format!("commit {iteration}: {res:?}"));
        if res.is_ok() {
            acked += 1;
            if measured {
                commits.record(at(), ns);
                by_class[op.class as usize].push(ns);
                if traced {
                    &mut traced_commits
                } else {
                    &mut plain
                }
                .push(ns);
                if rotations.get() != rotations_before {
                    stall.push(ns);
                }
            }
        }

        // A fresh view of the committed state.
        let (snap, ns) = tracer.time(traced, "core.snapshot", iteration, parent, || {
            session.snapshot()
        });
        if measured {
            snapshots.push(ns);
        }

        // Point reads on it.
        let ((), ns) = tracer.time(traced, "core.reads", iteration, parent, || {
            let mut holds = 0usize;
            for i in 0..READS {
                let k = pool[(cursor + i) & (pool.len() - 1)] as usize;
                holds += usize::from(snap.truth_of_atom(&atoms[k]) != Truth::False);
            }
            black_box(holds);
        });
        cursor = (cursor + READS) & (pool.len() - 1);
        if measured {
            reads.push(ns);
        }

        // side: a prepared join on it.
        let (answers, ns) = tracer.time(traced, "core.join", iteration, parent, || {
            joins[iteration as usize % joins.len()]
                .execute(&snap)
                .map(Iterator::count)
        });
        report.check(answers.is_ok(), || {
            format!("join on iteration {iteration}: {:?}", answers.err())
        });
        if measured {
            joined.record(at(), ns);
        }
        drop(snap);

        if iteration.is_multiple_of(32) {
            // Read-your-writes, untimed.
            let seen = session.truth(&op.probe);
            let want = if op.probe_holds {
                Truth::True
            } else {
                Truth::False
            };
            report.check(seen == Ok(want), || {
                format!(
                    "after commit {iteration}, {} read {seen:?}, expected {want:?}",
                    op.probe
                )
            });
        }

        if iteration.is_multiple_of(16) {
            // heavy: a commit that must roll back. One unit of fuel
            // trips in grounding, after the WAL append.
            let epoch = session.epoch();
            let (res, ns) = tracer.time(traced, "core.rollback", iteration, parent, || {
                session
                    .begin()
                    .and_then(|()| session.assert_facts(&format!("move(r{iteration}, n0).")))
                    .and_then(|_| {
                        session.commit_with(&CommitOpts {
                            fuel: Some(1),
                            ..CommitOpts::default()
                        })
                    })
            });
            report.check(
                matches!(res, Err(SessionError::Interrupted { .. }))
                    && session.epoch() == epoch
                    && !session.is_poisoned(),
                || {
                    format!(
                        "scripted rollback {iteration}: {res:?}, epoch {} (was {epoch}), poisoned {}",
                        session.epoch(),
                        session.is_poisoned()
                    )
                },
            );
            if measured {
                rollbacks.record(at(), ns);
                resident.push(host::resident_mb());
            }
        }
        if let Some(root) = root {
            tracer.close(root);
        }
    }
    let scrape_after = scrape();
    let calib_after = calib.run(CALIBRATION_REPS);
    let peak_rss_mb = host::peak_rss_mb();

    // End-of-run oracle: the live model against a from-scratch rebuild
    // of the final fact set.
    let base = board_source(board) + SETUP_FACT + "\n";
    let mut final_oracle = Oracle::after_delta(&base, &stream.delta());
    if cfg.corrupt_oracle {
        final_oracle.corrupt_one_verdict();
    }
    report.check_verdicts(
        "the live session",
        final_oracle.compare_all(&oracle::session_verdicts(&session)),
    );
    report.check(session.epoch() == acked, || {
        format!("live epoch {}, {acked} commits succeeded", session.epoch())
    });

    report.set("main_p50_ms", commits.best_p50_ms(), commits.len() as u64);
    report.set("main_per_s", commits.best_per_s(), commits.len() as u64);
    report.set("side_p50_ms", joined.best_p50_ms(), joined.len() as u64);
    report.set(
        "heavy_p50_ms",
        rollbacks.best_p50_ms(),
        rollbacks.len() as u64,
    );
    host::report(
        &mut report,
        calib_before,
        calib_after,
        median(&resident),
        peak_rss_mb,
    );

    if cfg.traced {
        let n = |s: &Samples| s.len() as u64;
        for class in WriteClass::ALL {
            let s = &by_class[class as usize];
            report.set(class.commit_metric(), s.p_ms(50.0), n(s));
        }
        let (all_commits, all_joins) = (commits.latencies(), joined.latencies());
        report.set(
            "core.commit_p90_ms",
            all_commits.p_ms(90.0),
            n(&all_commits),
        );
        report.set("lang.parse_fact_us", parse.p_us(50.0), n(&parse));
        report.set("core.snapshot_ms", snapshots.p_ms(50.0), n(&snapshots));
        report.set(
            "core.read_ns",
            reads.percentile_ns(50.0) / READS as f64,
            n(&reads) * READS as u64,
        );
        report.set("core.execute_join_us", all_joins.p_us(50.0), n(&all_joins));
        report.set("durable.checkpoint_stall_ms", stall.max_ms(), n(&stall));
        layers::report_commit_phases(&mut report, &scrape_before, &scrape_after);
        layers::report_registry_ratios(&mut report, &scrape_before, &scrape_after);
        layers::report_rebuild(&mut report, &session, 3);
        layers::report_durable_probes(&mut report, &scratch.dir("wal-probe"));
        layers::report_checkpoint(&mut report, &mut session, &dir, base.len());
        if !plain.is_empty() && !traced_commits.is_empty() {
            let untraced = plain.percentile_ns(50.0);
            report.set(
                "trace.overhead_pct",
                (traced_commits.percentile_ns(50.0) - untraced) / untraced * 100.0,
                n(&traced_commits),
            );
        }
        report.write_trace(cfg, "embed_commit", tracer.spans());
    }

    // Durability: the same verdicts and epoch after a reopen.
    let epoch = session.epoch();
    drop(session);
    match Session::open(&dir) {
        Ok(reopened) => {
            report.check_verdicts(
                "the reopened session",
                final_oracle.compare_all(&oracle::session_verdicts(&reopened)),
            );
            report.check(reopened.epoch() == epoch, || {
                format!("reopened at epoch {}, closed at {epoch}", reopened.epoch())
            });
        }
        Err(e) => report.check(false, || format!("reopen: {e}")),
    }
    report
}
