//! Per-layer measurements, all taken from outside: the harness times
//! calls into each crate's public functions, and reads (never adds)
//! `gsls-obs` registry counters.
//!
//! The **layer replay** pushes the workload's own op stream through the
//! server's building blocks one layer at a time, on one thread, on a
//! twin durable session — `decode_request` → translate →
//! `Session::commit_group` → `Session::snapshot` → `encode_response`
//! for commits; `Snapshot::prepare` → `execute` → render →
//! `encode_response` for queries. Subtracting the replayed medians from
//! the client-observed `server.wait_*` leaves what no engine layer
//! explains: queue wait, thread handoff, socket, the `snap` mutex.

use crate::fixture::{dir_bytes, RunConfig, Scrape};
use crate::host::van_gelder_opts;
use crate::ops::{ReadClass, ReaderStream, WriteClass, WriterStream};
use crate::oracle::WIN_GAME_SRC;
use crate::report::Report;
use crate::stats::Samples;
use gsls_analyze::{analyze, AnalyzerOpts};
use gsls_core::{CommitOpts, Engine, Session, Snapshot, Solver, UpdateBatch};
use gsls_durable::{DurableLog, DurableOpts};
use gsls_ground::{Grounder, GrounderOpts};
use gsls_lang::{
    decode_request, decode_response, encode_request, encode_response, parse_goal, parse_program,
    Atom, CommitNumbers, GovernOpts, Program, Request, Response, TermStore, TruthTag,
};
use gsls_serve::{read_frame, write_frame};
use gsls_wfs::{well_founded_model_with_stats, Truth};
use gsls_workloads::VAN_GELDER_SRC;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn timed<T>(samples: &mut Samples, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_nanos() as u64);
    out
}

/// The facts of `src` (program text; may be empty) as atoms of `store`
/// — the client's half of a commit request.
pub fn facts(store: &mut TermStore, src: &str) -> Result<Vec<Atom>, String> {
    if src.is_empty() {
        return Ok(Vec::new());
    }
    let program = parse_program(store, src).map_err(|e| e.to_string())?;
    Ok(program.clauses().iter().map(|c| c.head.clone()).collect())
}

/// `core.phase_*`, the retraction cone and the checkpoint counters, from
/// two scrapes of the session's own registry around the window.
pub fn report_commit_phases(report: &mut Report, before: &Scrape, after: &Scrape) {
    for (metric, hist) in [
        ("core.phase_validate_us", "gsls_commit_validate"),
        ("core.phase_journal_us", "gsls_commit_journal"),
        ("core.phase_ground_us", "gsls_commit_ground"),
        ("core.phase_refresh_us", "gsls_commit_refresh"),
        ("core.phase_index_us", "gsls_commit_index"),
    ] {
        let (mean_ns, n) = after.mean_since(before, hist);
        report.set(metric, mean_ns / 1e3, n);
    }
    report.set(
        "core.retraction_cone_p50",
        after.get("gsls_lfp_retraction_cone{quantile=\"0.5\"}"),
        after.get("gsls_lfp_retraction_cone_count") as u64,
    );
    let rotations = after.delta(before, "gsls_wal_rotations");
    report.set("durable.checkpoints", rotations, rotations as u64);
}

/// Per-operation ratios of registry counters over the window: write
/// amplification and how queries found their candidates.
pub fn report_registry_ratios(report: &mut Report, before: &Scrape, after: &Scrape) {
    let commits = after.delta(before, "gsls_commit_count");
    for (metric, counter) in [
        ("durable.wal_bytes_per_commit", "gsls_wal_appended_bytes"),
        ("durable.fsyncs_per_commit", "gsls_wal_fsyncs"),
    ] {
        if commits > 0.0 {
            report.set(
                metric,
                after.delta(before, counter) / commits,
                commits as u64,
            );
        }
    }
    let executions = after.delta(before, "gsls_query_executions");
    for (metric, counter) in [
        ("core.scans_per_query", "gsls_query_scans"),
        ("core.point_lookups_per_query", "gsls_query_point_lookups"),
    ] {
        if executions > 0.0 {
            report.set(
                metric,
                after.delta(before, counter) / executions,
                executions as u64,
            );
        }
    }
}

/// Medians of the commit replay's steps.
pub struct CommitReplay {
    parse: Samples,
    proto_request: Samples,
    decode: Samples,
    commit: [Samples; 3],
    snapshot: Samples,
    encode: Samples,
    request_bytes: Samples,
    response_bytes: Samples,
}

impl CommitReplay {
    fn commits(&self) -> Samples {
        let mut all = Samples::default();
        for c in &self.commit {
            all.extend(c);
        }
        all
    }

    /// Σ of the replayed steps' medians that lie between a commit
    /// request's arrival and its reply's departure, in milliseconds.
    pub fn accounted_ms(&self) -> f64 {
        self.decode.p_ms(50.0)
            + self.commits().p_ms(50.0)
            + self.snapshot.p_ms(50.0)
            + self.encode.p_ms(50.0)
    }

    /// Writes the replay's per-layer metrics.
    pub fn report(&self, report: &mut Report) {
        let n = self.parse.len() as u64;
        report.set("lang.parse_fact_us", self.parse.p_us(50.0), n);
        report.set("lang.proto_request_us", self.proto_request.p_us(50.0), n);
        report.set(
            "lang.request_bytes_commit",
            self.request_bytes.percentile_ns(50.0),
            n,
        );
        report.set(
            "lang.response_bytes_commit",
            self.response_bytes.percentile_ns(50.0),
            n,
        );
        for class in WriteClass::ALL {
            let s = &self.commit[class as usize];
            report.set(class.commit_metric(), s.p_ms(50.0), s.len() as u64);
        }
        report.set("core.snapshot_ms", self.snapshot.p_ms(50.0), n);
    }
}

/// Replays the first `n` commits of the run's writer stream through
/// `decode_request` → `commit_group` → `snapshot` → `encode_response`.
pub fn replay_commits(twin: &mut Session, cfg: &RunConfig, n: usize) -> CommitReplay {
    let mut out = CommitReplay {
        parse: Samples::with_capacity(n),
        proto_request: Samples::with_capacity(n),
        decode: Samples::with_capacity(n),
        commit: Default::default(),
        snapshot: Samples::with_capacity(n),
        encode: Samples::with_capacity(n),
        request_bytes: Samples::with_capacity(n),
        response_bytes: Samples::with_capacity(n),
    };
    let mut stream = WriterStream::new(cfg.seed, cfg.grid());
    let mut client_store = TermStore::new();
    let mut request = Vec::new();
    let mut reply = Vec::new();
    for _ in 0..n {
        let op = stream.next_op();
        // Client side: text → request bytes.
        let (asserts, retracts) = timed(&mut out.parse, || {
            (
                facts(&mut client_store, &op.asserts).expect("generated facts parse"),
                facts(&mut client_store, &op.retracts).expect("generated facts parse"),
            )
        });
        let req = Request::Commit {
            rules: Vec::new(),
            asserts,
            retracts,
            opts: GovernOpts::default(),
        };
        timed(&mut out.proto_request, || {
            request.clear();
            encode_request(&client_store, &req, &mut request);
            black_box(decode_request(&mut TermStore::new(), &request).expect("round trip"));
        });
        out.request_bytes.push(request.len() as u64);
        // Writer thread: decode into a scratch store, translate into
        // the session arena (as `commit_run` does).
        let batch = timed(&mut out.decode, || {
            let mut scratch = TermStore::new();
            let Ok(Request::Commit {
                asserts, retracts, ..
            }) = decode_request(&mut scratch, &request)
            else {
                unreachable!("a commit request decodes to a commit");
            };
            let map = scratch.translate_into(twin.store_mut());
            UpdateBatch {
                rules: Vec::new(),
                asserts: asserts
                    .iter()
                    .map(|a| a.translate(&scratch, twin.store_mut(), &map))
                    .collect(),
                retracts: retracts
                    .iter()
                    .map(|a| a.translate(&scratch, twin.store_mut(), &map))
                    .collect(),
            }
        });
        let stats = timed(&mut out.commit[op.class as usize], || {
            twin.commit_group(vec![(batch, CommitOpts::default())])
                .expect("replayed group commits")
                .remove(0)
                .expect("replayed batch commits")
        });
        timed(&mut out.snapshot, || black_box(twin.snapshot()));
        let resp = Response::Committed {
            epoch: twin.epoch(),
            stats: CommitNumbers {
                rules_added: stats.rules_added as u64,
                facts_asserted: stats.facts_asserted as u64,
                facts_reenabled: stats.facts_reenabled as u64,
                facts_retracted: stats.facts_retracted as u64,
                new_atoms: stats.new_atoms as u64,
                new_clauses: stats.new_clauses as u64,
            },
        };
        timed(&mut out.encode, || {
            reply.clear();
            encode_response(&resp, &mut reply);
        });
        out.response_bytes.push(reply.len() as u64);
    }
    out
}

#[derive(Default)]
struct QuerySteps {
    decode_request: Samples,
    prepare: Samples,
    execute: Samples,
    render: Samples,
    encode: Samples,
    proto_response: Samples,
    request_bytes: Samples,
    response_bytes: Samples,
}

/// Medians of the query replay's steps, by class.
pub struct QueryReplay {
    classes: [QuerySteps; 3],
    /// Size of one `?- win(X).` reply, for the frame probe.
    pub enum_reply_bytes: usize,
}

impl QueryReplay {
    /// Σ of the replayed steps' medians between a point query's arrival
    /// and its reply's departure, in microseconds.
    pub fn accounted_point_us(&self) -> f64 {
        let p = &self.classes[ReadClass::Point as usize];
        p.decode_request.p_us(50.0)
            + p.prepare.p_us(50.0)
            + p.execute.p_us(50.0)
            + p.render.p_us(50.0)
            + p.encode.p_us(50.0)
    }

    /// Writes the replay's per-layer metrics.
    pub fn report(&self, report: &mut Report) {
        let [point, join, enumerate] = &self.classes;
        let n = |s: &Samples| s.len() as u64;
        report.set(
            "core.prepare_point_us",
            point.prepare.p_us(50.0),
            n(&point.prepare),
        );
        report.set(
            "core.prepare_join_us",
            join.prepare.p_us(50.0),
            n(&join.prepare),
        );
        report.set(
            "core.execute_point_us",
            point.execute.p_us(50.0),
            n(&point.execute),
        );
        report.set(
            "core.execute_join_us",
            join.execute.p_us(50.0),
            n(&join.execute),
        );
        report.set(
            "core.execute_enum_ms",
            enumerate.execute.p_ms(50.0),
            n(&enumerate.execute),
        );
        report.set(
            "core.render_enum_ms",
            enumerate.render.p_ms(50.0),
            n(&enumerate.render),
        );
        report.set(
            "lang.proto_response_us",
            point.encode.p_us(50.0) + point.proto_response.p_us(50.0),
            n(&point.encode),
        );
        report.set(
            "lang.proto_response_enum_ms",
            enumerate.encode.p_ms(50.0) + enumerate.proto_response.p_ms(50.0),
            n(&enumerate.encode),
        );
        report.set(
            "lang.request_bytes_query",
            point.request_bytes.percentile_ns(50.0),
            n(&point.request_bytes),
        );
        report.set(
            "lang.response_bytes_point",
            point.response_bytes.percentile_ns(50.0),
            n(&point.response_bytes),
        );
        report.set(
            "lang.response_bytes_enum",
            enumerate.response_bytes.percentile_ns(50.0),
            n(&enumerate.response_bytes),
        );
    }
}

/// Replays the run's reader stream (1,000 operations plus enough
/// enumerations for a median) on `snapshot`, one step at a time.
pub fn replay_queries(snapshot: &Snapshot, cfg: &RunConfig) -> QueryReplay {
    let mut classes: [QuerySteps; 3] = Default::default();
    let mut stream = ReaderStream::new(cfg.seed, cfg.grid());
    let mut request = Vec::new();
    let mut reply = Vec::new();
    let mut enums = 0;
    let mut done = 0;
    while done < 1_000 || enums < 20 {
        let op = stream.next_op();
        if done >= 1_000 && op.class != ReadClass::Enum {
            continue;
        }
        done += 1;
        enums += usize::from(op.class == ReadClass::Enum);
        let steps = &mut classes[op.class as usize];
        let req = Request::Query {
            goal: op.goal.clone(),
            opts: GovernOpts::default(),
        };
        request.clear();
        encode_request(&TermStore::new(), &req, &mut request);
        steps.request_bytes.push(request.len() as u64);
        timed(&mut steps.decode_request, || {
            black_box(decode_request(&mut TermStore::new(), &request).expect("round trip"));
        });
        let query = timed(&mut steps.prepare, || {
            snapshot.prepare(&op.goal).expect("generated goal compiles")
        });
        let answers: Vec<_> = timed(&mut steps.execute, || {
            query
                .execute(snapshot)
                .expect("generated goal executes")
                .collect()
        });
        let (mut yes, mut maybe) = (Vec::new(), Vec::new());
        timed(&mut steps.render, || {
            for a in &answers {
                let rendered = query.render_answer(snapshot, a);
                match a.truth {
                    Truth::True => yes.push(rendered),
                    Truth::Undefined => maybe.push(rendered),
                    Truth::False => {}
                }
            }
        });
        let resp = Response::Answers {
            truth: if !yes.is_empty() {
                TruthTag::True
            } else if !maybe.is_empty() {
                TruthTag::Undefined
            } else {
                TruthTag::False
            },
            answers: yes,
            undefined: maybe,
            interrupted: false,
        };
        timed(&mut steps.encode, || {
            reply.clear();
            encode_response(&resp, &mut reply);
        });
        steps.response_bytes.push(reply.len() as u64);
        timed(&mut steps.proto_response, || {
            black_box(decode_response(&reply).expect("round trip"));
        });
    }
    let enum_reply_bytes = classes[ReadClass::Enum as usize]
        .response_bytes
        .percentile_ns(50.0) as usize;
    QueryReplay {
        classes,
        enum_reply_bytes,
    }
}

/// `server.frame_*`: `write_frame` + `read_frame` through an in-memory
/// buffer at a small reply's size and at an enumeration reply's.
pub fn report_frame_probes(report: &mut Report, enum_reply_bytes: usize) {
    for (name, size, reps) in [
        ("server.frame_small_us", 64usize, 2_000),
        ("server.frame_enum_us", enum_reply_bytes.max(64), 50),
    ] {
        let payload = vec![0x5au8; size];
        let mut wire = Vec::with_capacity(size + 16);
        let mut samples = Samples::with_capacity(reps);
        for _ in 0..reps {
            timed(&mut samples, || {
                wire.clear();
                write_frame(&mut wire, &payload).expect("in-memory write");
                black_box(read_frame(&mut wire.as_slice()).expect("in-memory read"));
            });
        }
        report.set(name, samples.p_us(50.0), reps as u64);
    }
}

/// `durable.append_*` / `durable.sync_us`: the WAL's three write
/// primitives with a commit-sized payload in a scratch directory.
/// These are the sandbox's page cache and fsync, not a device's.
pub fn report_durable_probes(report: &mut Report, dir: &Path) {
    const REPS: usize = 200;
    let (mut log, _) = DurableLog::open(dir, DurableOpts::default()).expect("scratch WAL opens");
    let payload = [0x5au8; 48];
    let mut synced = Samples::with_capacity(REPS);
    let mut unsynced = Samples::with_capacity(REPS);
    let mut sync = Samples::with_capacity(REPS);
    for _ in 0..REPS {
        timed(&mut synced, || log.append(&payload).expect("append"));
        timed(&mut unsynced, || {
            log.append_unsynced(&payload).expect("append")
        });
        timed(&mut sync, || log.sync_group(1).expect("sync"));
    }
    report.set("durable.append_sync_us", synced.p_us(50.0), REPS as u64);
    report.set(
        "durable.append_unsynced_us",
        unsynced.p_us(50.0),
        REPS as u64,
    );
    report.set("durable.sync_us", sync.p_us(50.0), REPS as u64);
}

/// `durable.checkpoint_*` and the space cost: one explicit
/// `Session::checkpoint()` on `session` (rooted at `dir`), then the
/// directory's size against the base board's source text.
pub fn report_checkpoint(
    report: &mut Report,
    session: &mut Session,
    dir: &Path,
    source_bytes: usize,
) {
    let bytes_before = session
        .metrics()
        .counter("wal.checkpoint_bytes")
        .unwrap_or(0);
    let t = Instant::now();
    session.checkpoint().expect("explicit checkpoint");
    report.set("durable.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    let bytes_after = session
        .metrics()
        .counter("wal.checkpoint_bytes")
        .unwrap_or(0);
    report.set(
        "durable.checkpoint_bytes",
        (bytes_after - bytes_before) as f64,
        1,
    );
    report.set(
        "durable.disk_bytes_per_source_byte",
        dir_bytes(dir) as f64 / source_bytes.max(1) as f64,
        1,
    );
}

/// `core.rebuild_ms`: `Session::from_parts` on the session's current
/// program — what a rollback or a recovery pays today.
pub fn report_rebuild(report: &mut Report, session: &Session, reps: usize) {
    let mut samples = Samples::with_capacity(reps);
    for _ in 0..reps {
        let (store, program) = (session.store().clone(), session.program().clone());
        timed(&mut samples, || {
            black_box(Session::from_parts(store, program).expect("committed program rebuilds"))
        });
    }
    report.set("core.rebuild_ms", samples.p_ms(50.0), reps as u64);
}

/// `core.global_tree_us`: the paper's own procedure, `Engine::GlobalTree`,
/// over the ground `win` goals of `examples/lp/win_game.lp`.
pub fn report_global_tree(report: &mut Report) {
    const REPS: usize = 200;
    let mut samples = Samples::with_capacity(REPS);
    for _ in 0..REPS {
        let mut store = TermStore::new();
        let program = parse_program(&mut store, WIN_GAME_SRC).expect("win_game.lp parses");
        let goals: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|p| parse_goal(&mut store, &format!("?- win({p}).")).expect("goal parses"))
            .collect();
        let mut solver = Solver::new(program);
        timed(&mut samples, || {
            for g in &goals {
                black_box(
                    solver
                        .query(&mut store, g, Engine::GlobalTree)
                        .expect("global tree"),
                );
            }
        });
    }
    report.set("core.global_tree_us", samples.p_us(50.0), REPS as u64);
}

/// One cold program for the batch-path probes.
pub struct BatchProgram<'a> {
    /// Metric its grounding time is reported under.
    pub ground_metric: &'static str,
    /// Metric its alternating-fixpoint time is reported under.
    pub wfs_metric: &'static str,
    /// Source text.
    pub source: &'a str,
}

/// `lang.parse_program_ms`, `analysis.*`, `ground.*`, `wfs.*`: the batch
/// path of each cold program, one public call at a time. Stage times
/// and counts are reported for the first program (the 200×200 board).
pub fn report_batch_layers(report: &mut Report, programs: &[BatchProgram<'_>], vg_depth: u32) {
    const REPS: usize = 5;
    for (i, p) in programs.iter().enumerate() {
        let mut parse = Samples::default();
        let mut analysis = Samples::default();
        let mut ground = Samples::default();
        let mut stages: [Samples; 4] = Default::default();
        let mut wfs = Samples::default();
        for _ in 0..REPS {
            let mut store = TermStore::new();
            let program: Program = timed(&mut parse, || {
                parse_program(&mut store, p.source).expect("source parses")
            });
            timed(&mut analysis, || {
                black_box(analyze(&store, &program, &AnalyzerOpts::default()))
            });
            let (gp, gstats) = timed(&mut ground, || {
                Grounder::ground_with_stats(&mut store, &program, GrounderOpts::default())
                    .expect("program grounds")
            });
            for (s, ns) in stages.iter_mut().zip([
                gstats.seed_ns,
                gstats.plan_ns,
                gstats.join_ns,
                gstats.finalize_ns,
            ]) {
                s.push(ns);
            }
            let (_, wstats) = timed(&mut wfs, || well_founded_model_with_stats(&gp));
            if i == 0 {
                report.set("ground.atoms", gp.atom_count() as f64, 1);
                report.set("ground.clauses", gp.clause_count() as f64, 1);
                report.set("ground.join_candidates", gstats.join_candidates as f64, 1);
                report.set("ground.index_probes", gstats.index_probes as f64, 1);
                report.set("wfs.reduct_calls", f64::from(wstats.reduct_calls), 1);
                report.set("wfs.clause_checks", wstats.clause_checks as f64, 1);
            }
        }
        let n = REPS as u64;
        report.set(p.ground_metric, ground.p_ms(50.0), n);
        report.set(p.wfs_metric, wfs.p_ms(50.0), n);
        if i == 0 {
            report.set("lang.parse_program_ms", parse.p_ms(50.0), n);
            report.set("analysis.grid200_ms", analysis.p_ms(50.0), n);
            for (name, s) in [
                "ground.grid200_seed_ms",
                "ground.grid200_plan_ms",
                "ground.grid200_join_ms",
                "ground.grid200_finalize_ms",
            ]
            .into_iter()
            .zip(&stages)
            {
                report.set(name, s.p_ms(50.0), n);
            }
        }
    }
    // Van Gelder's program has function symbols: grounded to a Herbrand
    // depth, not through a Session.
    let mut ground = Samples::default();
    let mut wfs = Samples::default();
    for _ in 0..REPS {
        let mut store = TermStore::new();
        let program = parse_program(&mut store, VAN_GELDER_SRC).expect("static program parses");
        let gp = timed(&mut ground, || {
            Grounder::ground_with(&mut store, &program, van_gelder_opts(vg_depth))
                .expect("Van Gelder's program grounds")
        });
        timed(&mut wfs, || black_box(well_founded_model_with_stats(&gp)));
    }
    report.set("ground.vg1024_ms", ground.p_ms(50.0), REPS as u64);
    report.set("wfs.vg1024_ms", wfs.p_ms(50.0), REPS as u64);
}
