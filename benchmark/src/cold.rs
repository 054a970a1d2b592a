//! `cold_build`: the batch path the paper is about — source text to a
//! queryable well-founded model — and crash recovery, with nothing
//! warm. One thread runs a fixed round-robin of five cold operations,
//! each timed on its own:
//!
//! 1. `grid200`  — `Session::from_source` on the 200×200 board's text
//!    (2.0 MB) + `?- win(X).` (**heavy** on its own: parse + seed bound);
//! 2. `rand50k`  — the same for `win_random(50_000, 4, seed)`;
//! 3. `reach150` — the same for `negated_reachability(150)` and
//!    `?- unreach(X, Y).` (stratified, join-heavy);
//! 4. `vg1024`   — the paper's Example 3.1 (function symbols) through
//!    `Grounder::ground_with` at Herbrand depth 1024 +
//!    `well_founded_model` (deep alternation);
//! 5. `reopen`   — `Session::open` on a directory holding the board's
//!    checkpoint plus a 6-record WAL tail (**side**; below the 8-record
//!    fold threshold, so every reopen finds identical bytes).
//!
//! **main** is the geometric mean of the four programs' medians.

use crate::fixture::{
    board_source, dir_bytes, open_board_session, Phase, RunConfig, Scratch, SETUPS,
};
use crate::host::{self, van_gelder_ground, Calibration, CALIBRATION_REPS};
use crate::layers::{self, BatchProgram};
use crate::oracle::{self, Oracle};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{geometric_mean, median, Samples, Series};
use gsls_core::{Session, SessionError};
use gsls_durable::{DurableLog, DurableOpts};
use gsls_ground::GroundProgram;
use gsls_lang::{Atom, TermStore};
use gsls_wfs::{well_founded_model, Interp, Truth};
use gsls_workloads::{negated_reachability, win_random};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Records in the reopen directory's WAL tail.
const TAIL: usize = 6;
const OPS: [&str; 5] = ["grid200", "rand50k", "reach150", "vg1024", "reopen"];
const SPAN_NAMES: [&str; 5] = [
    "build.grid200",
    "build.rand50k",
    "build.reach150",
    "build.vg1024",
    "build.reopen",
];

/// Input sizes: the issue's at board 200, scaled down with the board
/// for the smoke tests.
struct Sizes {
    rand_positions: usize,
    reach_nodes: usize,
    vg_depth: u32,
}

impl Sizes {
    fn for_board(board: usize) -> Sizes {
        Sizes {
            rand_positions: (50_000 * board * board / 40_000).max(8),
            reach_nodes: (150 * board / 200).max(4),
            vg_depth: (1024 * board as u32 / 200).max(8),
        }
    }
}

fn tail_facts() -> String {
    (0..TAIL).map(|i| format!("move(c{i}, n{i}).\n")).collect()
}

/// Renders the three sources and seeds the reopen directory.
fn set_up(cfg: &RunConfig, sizes: &Sizes, reopen_dir: &Path) -> [String; 3] {
    let grid = board_source(cfg.grid());
    let mut store = TermStore::new();
    let rand = win_random(&mut store, sizes.rand_positions, 4, cfg.seed).display(&store);
    let mut store = TermStore::new();
    let reach = negated_reachability(&mut store, sizes.reach_nodes).display(&store);
    let mut session = open_board_session(reopen_dir, cfg.grid());
    for fact in tail_facts().lines() {
        session.assert_facts(fact).expect("tail commit");
    }
    [grid, rand, reach]
}

/// `Session::from_source` + one enumeration; returns the true and
/// undefined answer counts (and the session, to be dropped untimed).
fn build(source: &str, goal: &str) -> Result<((usize, usize), Session), String> {
    let mut session = Session::from_source(source).map_err(|e| e.to_string())?;
    let result = session.query(goal).map_err(|e| e.to_string())?;
    Ok(((result.answers.len(), result.undefined.len()), session))
}

/// What one cold operation produced, kept alive until after its timing
/// so that neither its check nor its teardown is measured.
enum Built {
    Answers(Result<((usize, usize), Session), String>),
    VanGelder(TermStore, GroundProgram, Interp),
    Reopened(Result<Session, SessionError>),
}

/// Runs `cold_build`.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new(cfg.traced);
    let scratch = Scratch::new(&cfg.out_dir);
    let calib = Calibration::new();
    let calib_before = calib.run(CALIBRATION_REPS);
    let sizes = Sizes::for_board(cfg.board);

    let mut setups = Vec::new();
    let reopen_dir = scratch.dir("reopen");
    let mut sources = None;
    for _ in 0..SETUPS {
        let _ = std::fs::remove_dir_all(&reopen_dir);
        let t = Instant::now();
        sources = Some(set_up(cfg, &sizes, &reopen_dir));
        setups.push(t.elapsed().as_secs_f64());
    }
    let [grid, rand, reach] = sources.expect("SETUPS >= 1");
    report.set("setup_s", median(&setups), setups.len() as u64);

    // The reference for every build, from the independent path.
    let goals = ["?- win(X).", "?- win(X).", "?- unreach(X, Y)."];
    let mut expected = [
        oracle::answer_counts(&grid, "win", 1),
        oracle::answer_counts(&rand, "win", 1),
        oracle::answer_counts(&reach, "unreach", 2),
    ];
    let mut reopen_oracle = Oracle::from_source(&(grid.clone() + &tail_facts()));
    if cfg.corrupt_oracle {
        expected[0].0 += 1;
        reopen_oracle.corrupt_one_verdict();
    }
    let (checked, wrong) = oracle::conformance();
    report.attempted += checked;
    report.failed += wrong;
    if wrong > 0 {
        report.notes.push(format!(
            "FAILED: GlobalTree/Tabled disagree with the oracle on {wrong} of {checked} win_game.lp goals"
        ));
    }

    let mut series: [Series; 5] = Default::default();
    // Traced pass only: by driver.
    let mut plain: [Samples; 5] = Default::default();
    let mut traced: [Samples; 5] = Default::default();
    let mut resident = Vec::new();
    let mut rounds = 0u32;
    let window = cfg.window();
    let mut tracer = Tracer::new(window.warm_end, 0, if cfg.traced { 1 << 16 } else { 0 });
    loop {
        let phase = window.phase(Instant::now());
        if phase == Phase::Done {
            break;
        }
        rounds += 1;
        for op in 0..OPS.len() {
            // Only the operation is timed; its check and its teardown
            // run after.
            let (built, ns) = tracer.time(
                phase == Phase::Traced,
                SPAN_NAMES[op],
                rounds,
                0,
                || match op {
                    0..=2 => Built::Answers(build([&grid, &rand, &reach][op], goals[op])),
                    3 => {
                        let (store, gp) = van_gelder_ground(sizes.vg_depth);
                        let model = well_founded_model(&gp);
                        Built::VanGelder(store, gp, model)
                    }
                    _ => Built::Reopened(Session::open(&reopen_dir)),
                },
            );
            if op == 0 && phase != Phase::Warmup {
                // The freshly built board is still alive here.
                resident.push(host::resident_mb());
            }
            let outcome = match built {
                Built::Answers(Ok((got, _session))) => (got == expected[op])
                    .then_some(())
                    .ok_or_else(|| format!("{got:?} answers, oracle {:?}", expected[op])),
                Built::Answers(Err(e)) => Err(e),
                Built::VanGelder(store, gp, model) => {
                    let w0 = (|| {
                        let zero = store.lookup_app(store.lookup_symbol("0")?, &[])?;
                        let atom = Atom::new(store.lookup_symbol("w")?, vec![zero]);
                        Some(model.truth(gp.lookup_atom(&atom)?))
                    })();
                    (w0 == Some(Truth::True) && model.is_total())
                        .then_some(())
                        .ok_or_else(|| format!("w(0) is {w0:?}, total {}", model.is_total()))
                }
                Built::Reopened(Ok(s)) => {
                    let verdicts = oracle::session_verdicts(&s);
                    let t = verdicts.values().filter(|&&v| v == Truth::True).count();
                    let got = (t, verdicts.len() - t);
                    (got == reopen_oracle.counts() && s.epoch() == TAIL as u64)
                        .then_some(())
                        .ok_or_else(|| {
                            format!(
                                "{got:?} true/undefined at epoch {}, oracle {:?}",
                                s.epoch(),
                                reopen_oracle.counts()
                            )
                        })
                }
                Built::Reopened(Err(e)) => Err(e.to_string()),
            };
            report.check(outcome.is_ok(), || {
                format!("{} in round {rounds}: {}", OPS[op], outcome.unwrap_err())
            });
            match phase {
                Phase::Plain => plain[op].push(ns),
                Phase::Traced => traced[op].push(ns),
                Phase::Warmup | Phase::Done => {}
            }
            if phase != Phase::Warmup {
                series[op].record(window.warm_end.elapsed().as_secs_f64(), ns);
            }
        }
    }
    let calib_after = calib.run(CALIBRATION_REPS);
    let peak_rss_mb = host::peak_rss_mb();

    // Once per run, the reopened model in full.
    match Session::open(&reopen_dir) {
        Ok(s) => report.check_verdicts(
            "the reopened session",
            reopen_oracle.compare_all(&oracle::session_verdicts(&s)),
        ),
        Err(e) => report.check(false, || format!("reopen: {e}")),
    }

    let builds = &series[..4];
    let n = builds[0].len() as u64;
    let best: Vec<f64> = builds.iter().map(Series::best_p50_ms).collect();
    report.set("main_p50_ms", geometric_mean(&best), n);
    // Four builds a round: the rate of the slowest-counted program.
    let rounds_per_s = builds
        .iter()
        .map(Series::best_per_s)
        .fold(f64::INFINITY, f64::min);
    report.set("main_per_s", 4.0 * rounds_per_s, 4 * n);
    report.set(
        "side_p50_ms",
        series[4].best_p50_ms(),
        series[4].len() as u64,
    );
    report.set("heavy_p50_ms", best[0], n);
    host::report(
        &mut report,
        calib_before,
        calib_after,
        median(&resident),
        peak_rss_mb,
    );

    if cfg.traced {
        let all: Vec<Samples> = series.iter().map(Series::latencies).collect();
        for (name, s) in [
            "build.grid200_ms",
            "build.rand50k_ms",
            "build.reach150_ms",
            "build.vg1024_ms",
        ]
        .into_iter()
        .zip(&all)
        {
            report.set(name, s.p_ms(50.0), s.len() as u64);
        }
        let p90s: Vec<f64> = all[..4].iter().map(|s| s.p_ms(90.0)).collect();
        report.set("build.p90_ms", geometric_mean(&p90s), n);
        report.set(
            "build.reopen_p90_ms",
            all[4].p_ms(90.0),
            all[4].len() as u64,
        );
        layers::report_batch_layers(
            &mut report,
            &[
                BatchProgram {
                    ground_metric: "ground.grid200_ms",
                    wfs_metric: "wfs.grid200_ms",
                    source: &grid,
                },
                BatchProgram {
                    ground_metric: "ground.rand50k_ms",
                    wfs_metric: "wfs.rand50k_ms",
                    source: &rand,
                },
                BatchProgram {
                    ground_metric: "ground.reach150_ms",
                    wfs_metric: "wfs.reach150_ms",
                    source: &reach,
                },
            ],
            sizes.vg_depth,
        );
        layers::report_global_tree(&mut report);
        // Recovery, taken apart: reading the directory, rebuilding the
        // engine from the checkpointed program, and what is left for
        // replaying the tail.
        let mut open = Samples::default();
        for _ in 0..5 {
            let t = Instant::now();
            black_box(DurableLog::open(&reopen_dir, DurableOpts::default()).expect("log opens"));
            open.push(t.elapsed().as_nanos() as u64);
        }
        report.set("durable.open_ms", open.p_ms(50.0), 5);
        let board = Session::from_source(&grid).expect("board builds");
        layers::report_rebuild(&mut report, &board, 5);
        let rebuild_ms = report.value("core.rebuild_ms").unwrap_or(0.0);
        report.set(
            "durable.replay_ms_per_record",
            (all[4].p_ms(50.0) - open.p_ms(50.0) - rebuild_ms) / TAIL as f64,
            all[4].len() as u64,
        );
        report.set(
            "durable.disk_bytes_per_source_byte",
            dir_bytes(&reopen_dir) as f64 / grid.len() as f64,
            1,
        );
        let geo_of = |sets: &[Samples; 5]| {
            geometric_mean(&sets[..4].iter().map(|s| s.p_ms(50.0)).collect::<Vec<_>>())
        };
        let (p, t) = (geo_of(&plain), geo_of(&traced));
        if p > 0.0 && t > 0.0 {
            report.set(
                "trace.overhead_pct",
                (t - p) / p * 100.0,
                traced[0].len() as u64,
            );
        }
        report.write_trace(cfg, "cold_build", tracer.spans());
    }
    report
}
