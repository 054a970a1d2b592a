//! Emits `BENCH_10.json`: the perf trajectory record for PR 10
//! (gsls-serve: the concurrent multi-session network server with the
//! group-commit write path).
//!
//! New in PR 10:
//!
//! * **`serving`** — the network front end under concurrent mixed
//!   load: an in-process `Server` on an ephemeral port fronting a
//!   durable win_grid 200×200 session, stormed by 8 writer clients
//!   (single-fact commits through the session's one writer thread)
//!   and 4 reader clients (point queries on `Arc`'d snapshots across
//!   the reader pool) at once. Records end-to-end commit and query
//!   p50/p99 exactly as the clients saw them — frame encode, socket,
//!   queue wait, group commit, fsync, reply — plus the WAL's own
//!   `wal.group_records`/`wal.group_syncs` counters read back off the
//!   Prometheus scrape. The acceptance assertion demands the group
//!   path amortized ≥ 2 journaled batches per fsync under this
//!   contention, and that a commit carrying an already-expired
//!   deadline came back `Interrupted` to exactly that client while
//!   the session kept serving (and acking, and publishing) everyone
//!   else's work.
//! * **`durability` records both reopens** now: the first
//!   `Session::open` after a long WAL tail replays it through the
//!   full commit pipeline *and folds it into a fresh checkpoint*
//!   (PR 10's fix), so the second reopen decodes one image instead of
//!   re-paying the replay. `reopen_replay_ns` vs
//!   `reopen_after_fold_ns`, with the assertion that the fold made
//!   the second reopen cheaper.
//!
//! Carried from PR 9:
//!
//! * **`observability`** — the per-phase commit breakdown of the warm
//!   win_grid 200×200 single-fact commit, read **from the session's
//!   metrics registry** (`commit.validate` … `commit.publish` latency
//!   histograms — no bench-side stopwatches), plus the cost of the
//!   always-on instrumentation itself: p50 of the identical warm
//!   commit with the bundle enabled vs. `Obs::set_enabled(false)`,
//!   alternated on the same session so drift lands on both sample
//!   sets alike, asserted ≤ 3% at p50. `--obs-gate` runs only this
//!   sweep (a fast CI mode `check.sh` uses).
//!
//! Carried from PR 8:
//!
//! * **`governance`** — what governing a commit costs and how fast a
//!   cancel lands: p50/p99 of the warm win_grid 200×200 single-fact
//!   commit through `Session::commit_with` with every guard branch
//!   armed (far-future deadline + memory budget, checked every
//!   `TICK_INTERVAL` work units) against the identical commit through
//!   the ungoverned path, asserted ≤ 5% overhead at p50; plus p50/p99
//!   cancel-to-return latency of a cross-thread
//!   `InterruptHandle::cancel` fired 10ms into a full-board commit.
//!
//! Carried from PR 7:
//!
//! * **`analysis`** — full-program static analysis (safety,
//!   stratification witness, reachability, cost lints) of the win_grid
//!   200×200 rule set, with the < 5ms acceptance assertion: the gate
//!   must stay invisible next to the ~4ms commit it fronts.
//!
//! Carried from PR 6:
//!
//! * **`durability`** — the cost of crash safety on win_grid 200×200:
//!   p50/p99 of a single-fact durable commit (WAL append + fsync before
//!   the in-memory apply) against the same commit on an in-memory
//!   session; explicit `Session::checkpoint()` wall time (atomic
//!   temp-file + rename snapshot of the full ground state); and
//!   `Session::open` recovery time — checkpoint restore plus WAL-tail
//!   replay — against the `Session::from_parts` full rebuild baseline.
//!
//! Carried forward from PR 5:
//!
//! * **`update_latency`** — the headline acceptance metric: p50/p99 of
//!   a *single-fact update + re-query* on the live win_grid 200×200
//!   session, in two flavours — `insert` (a brand-new fact is
//!   delta-grounded through `IncrementalGrounder::extend` and the model
//!   repaired on warm chains) and `reassert` (retract/assert toggles of
//!   an existing fact, pure clause switching) — against the
//!   `full_rebuild` baseline (`Solver::new` + query from scratch). The
//!   acceptance assertion demands ≥ 10× on the insert path.
//! * **`snapshot_read`** — point-query throughput against one immutable
//!   `Session::snapshot()` from 1/2/4 `gsls-par` worker threads
//!   (readers share an `Arc`'d state; the session could keep
//!   committing meanwhile).
//!
//! And from earlier PRs, for the trajectory: the
//! van_gelder and engine_scaling sweeps plus the grid boards measure
//!
//! * ground program size (atoms, clauses), alternating-fixpoint
//!   `reduct_calls`, and the incremental path's total clause re-checks;
//! * wall-time of the incremental `well_founded_model` vs the PR 1
//!   full-recompute propagator baseline (`well_founded_model_scratch`)
//!   and the PR 0 rebuild-per-call baseline
//!   (`well_founded_model_rebuild`), with speedups;
//! * **per-stage grounding metrics** for the grid boards (PR 3's hot
//!   path): total `ground_ns` (median of 3) plus the planner's stage
//!   split (`seed`/`plan`/`join`/`finalize`), `join_candidates`, and
//!   `index_probes` from `Grounder::ground_with_stats`;
//! * **the PR 4 `threads` column** (`par_report`): end-to-end
//!   ground+solve wall time at 1, 2 and 4 worker threads — sharded
//!   parallel seed round plus wavefront-parallel tabled SCC evaluation
//!   — for win_grid 200×200, van_gelder N=1024 and (under `--stress`)
//!   the 600×600 board. Speedups are only meaningful where the host
//!   actually has cores: the report records
//!   `available_parallelism` alongside, and the ≥1.5× acceptance
//!   assertion arms only on hosts with ≥4 CPUs;
//! * heap allocations per warm call for both the propagator's
//!   `lfp_into` and the incremental engine's `evaluate`, counted by a
//!   wrapping global allocator (the substrate's contract is zero).
//!
//! Run from the workspace root: `cargo run --release -p gsls-bench --bin
//! perf_report`. Pass `--stress` to add the 10^6-atom 600×600 board
//! (kept off the default run so it stays fast), or `--obs-gate` for
//! the observability-only fast mode. Earlier trajectory records stay
//! in `BENCH_<n>.json`.

use gsls_analyze::{analyze, AnalyzerOpts};
use gsls_core::{CommitOpts, Engine, Session, SessionError, Solver, TabledEngine};
use gsls_durable::DurableOpts;
use gsls_ground::{GroundStats, Grounder, GrounderOpts, HerbrandOpts};
use gsls_lang::{parse_goal, Atom, GovernOpts, TermStore};
use gsls_serve::{expect_interrupted, Client, Server, ServerConfig};
use gsls_wfs::{
    well_founded_model_rebuild, well_founded_model_scratch, well_founded_model_with_stats, BitSet,
    IncrementalLfp, NegMode, Propagator,
};
use gsls_workloads::{van_gelder_program, win_grid, win_grid_stress, win_random};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts every allocation so the zero-allocation contract is checked,
/// not assumed.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Median wall-time of `runs` executions, in nanoseconds.
fn median_ns<T>(runs: usize, mut f: impl FnMut() -> T) -> u64 {
    let mut samples: Vec<u64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct SweepPoint {
    label: String,
    atoms: usize,
    clauses: usize,
    reduct_calls: u32,
    clause_checks: u64,
    wfm_ns: u64,
    scratch_ns: u64,
    rebuild_ns: u64,
}

impl SweepPoint {
    fn speedup_vs_scratch(&self) -> f64 {
        self.scratch_ns as f64 / self.wfm_ns.max(1) as f64
    }

    fn speedup_vs_rebuild(&self) -> f64 {
        self.rebuild_ns as f64 / self.wfm_ns.max(1) as f64
    }

    fn json(&self, key: &str) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "    {{\"{key}\": {}, \"atoms\": {}, \"clauses\": {}, \
             \"reduct_calls\": {}, \"clause_checks\": {}, \"wfm_ns\": {}, \
             \"wfm_scratch_ns\": {}, \"wfm_rebuild_ns\": {}, \
             \"speedup_vs_scratch\": {:.2}, \"speedup_vs_rebuild\": {:.2}}}",
            self.label,
            self.atoms,
            self.clauses,
            self.reduct_calls,
            self.clause_checks,
            self.wfm_ns,
            self.scratch_ns,
            self.rebuild_ns,
            self.speedup_vs_scratch(),
            self.speedup_vs_rebuild()
        );
        s
    }

    fn print(&self, family: &str) {
        println!(
            "{family} {}: atoms={} clauses={} reduct_calls={} checks={} \
             wfm={:.3}ms scratch={:.3}ms rebuild={:.3}ms \
             speedup={:.2}x/{:.2}x",
            self.label,
            self.atoms,
            self.clauses,
            self.reduct_calls,
            self.clause_checks,
            self.wfm_ns as f64 / 1e6,
            self.scratch_ns as f64 / 1e6,
            self.rebuild_ns as f64 / 1e6,
            self.speedup_vs_scratch(),
            self.speedup_vs_rebuild()
        );
    }
}

fn measure(gp: &gsls_ground::GroundProgram, label: String, runs: usize) -> SweepPoint {
    measure_with(gp, label, runs, runs)
}

/// `baseline_runs` lets the big boards sample the (much slower)
/// baselines once while still taking a median for the incremental path.
fn measure_with(
    gp: &gsls_ground::GroundProgram,
    label: String,
    runs: usize,
    baseline_runs: usize,
) -> SweepPoint {
    let (_, stats) = well_founded_model_with_stats(gp);
    let wfm_ns = median_ns(runs, || well_founded_model_with_stats(gp).0);
    let scratch_ns = median_ns(baseline_runs, || well_founded_model_scratch(gp));
    let rebuild_ns = median_ns(baseline_runs, || well_founded_model_rebuild(gp));
    SweepPoint {
        label,
        atoms: gp.atom_count(),
        clauses: gp.clause_count(),
        reduct_calls: stats.reduct_calls,
        clause_checks: stats.clause_checks,
        wfm_ns,
        scratch_ns,
        rebuild_ns,
    }
}

fn van_gelder_sweep() -> Vec<SweepPoint> {
    [64u32, 256, 1024]
        .iter()
        .map(|&depth| {
            let mut store = TermStore::new();
            let program = van_gelder_program(&mut store);
            let gp = Grounder::ground_with(
                &mut store,
                &program,
                GrounderOpts {
                    universe: HerbrandOpts {
                        max_depth: depth,
                        max_terms: 1_000_000,
                    },
                    ..GrounderOpts::default()
                },
            )
            .expect("van_gelder grounds");
            let runs = if depth >= 1024 { 5 } else { 9 };
            let p = measure(&gp, depth.to_string(), runs);
            p.print("van_gelder N=");
            p
        })
        .collect()
}

fn engine_scaling_sweep() -> Vec<SweepPoint> {
    gsls_bench::SWEEP
        .iter()
        .map(|&n| {
            let mut store = TermStore::new();
            let program = win_random(&mut store, n, 3, 11);
            let gp = gsls_bench::ground(&mut store, &program);
            let p = measure(&gp, n.to_string(), 9);
            p.print("engine_scaling n=");
            p
        })
        .collect()
}

/// One grounding measurement: median total wall time over `runs` plus
/// the per-stage split and join counters of the final run.
struct GroundPoint {
    ground_ns: u64,
    stats: GroundStats,
}

fn measure_grounding(
    mk: impl Fn(&mut TermStore) -> gsls_lang::Program,
    runs: usize,
) -> (gsls_ground::GroundProgram, GroundPoint) {
    let mut samples = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let mut store = TermStore::new();
        let program = mk(&mut store);
        let t = Instant::now();
        let (gp, stats) =
            Grounder::ground_with_stats(&mut store, &program, GrounderOpts::default())
                .expect("grid board grounds within budget");
        samples.push(t.elapsed().as_nanos() as u64);
        last = Some((gp, stats));
    }
    samples.sort_unstable();
    let (gp, stats) = last.expect("at least one run");
    (
        gp,
        GroundPoint {
            ground_ns: samples[samples.len() / 2],
            stats,
        },
    )
}

fn ground_json(g: &GroundPoint) -> String {
    format!(
        "\"ground_ns\": {}, \"ground_seed_ns\": {}, \"ground_plan_ns\": {}, \
         \"ground_join_ns\": {}, \"ground_finalize_ns\": {}, \"join_candidates\": {}, \
         \"index_probes\": {}, \"plans\": {}, \"indexes\": {}",
        g.ground_ns,
        g.stats.seed_ns,
        g.stats.plan_ns,
        g.stats.join_ns,
        g.stats.finalize_ns,
        g.stats.join_candidates,
        g.stats.index_probes,
        g.stats.plans,
        g.stats.indexes,
    )
}

/// The ROADMAP's 10^5-atom-class win/move boards (grid workload), with
/// PR 3's per-stage grounding metrics.
fn grid_sweep() -> Vec<(SweepPoint, GroundPoint)> {
    [(64usize, 64usize), (200, 200)]
        .iter()
        .map(|&(w, h)| {
            let (gp, g) = measure_grounding(|s| win_grid(s, w, h), 3);
            let p = measure_with(&gp, format!("\"{w}x{h}\""), 3, 1);
            println!(
                "grid {w}x{h}: ground={:.1}ms (seed={:.1} plan={:.1} join={:.1} finalize={:.1}) \
                 candidates={} probes={}",
                g.ground_ns as f64 / 1e6,
                g.stats.seed_ns as f64 / 1e6,
                g.stats.plan_ns as f64 / 1e6,
                g.stats.join_ns as f64 / 1e6,
                g.stats.finalize_ns as f64 / 1e6,
                g.stats.join_candidates,
                g.stats.index_probes,
            );
            p.print("grid ");
            (p, g)
        })
        .collect()
}

/// The 10^6-atom 600×600 stress board (behind `--stress`): grounds
/// end-to-end within the default clause budget and solves once.
fn stress_sweep() -> (SweepPoint, GroundPoint) {
    let (gp, g) = measure_grounding(win_grid_stress, 1);
    println!(
        "stress 600x600: atoms={} clauses={} ground={:.1}ms candidates={}",
        gp.atom_count(),
        gp.clause_count(),
        g.ground_ns as f64 / 1e6,
        g.stats.join_candidates,
    );
    let p = measure_with(&gp, "\"600x600\"".to_owned(), 1, 1);
    p.print("stress ");
    (p, g)
}

/// One `threads`-column measurement: end-to-end ground+solve at a
/// given worker count.
struct ParPoint {
    workload: &'static str,
    threads: usize,
    ground_ns: u64,
    solve_ns: u64,
}

impl ParPoint {
    fn total_ns(&self) -> u64 {
        self.ground_ns + self.solve_ns
    }

    fn json(&self) -> String {
        format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"ground_ns\": {}, \
             \"solve_ns\": {}, \"total_ns\": {}}}",
            self.workload,
            self.threads,
            self.ground_ns,
            self.solve_ns,
            self.total_ns()
        )
    }
}

/// How many samples each `threads`-column point takes; the point keeps
/// the sample with the median total. Single samples made the ≥1.5×
/// acceptance assertion flaky under background load — every asserted
/// metric in this file is a median.
const PAR_RUNS: usize = 3;

/// The sample with the median total of `PAR_RUNS` runs of `f`.
fn median_par_point(mut f: impl FnMut() -> ParPoint) -> ParPoint {
    let mut samples: Vec<ParPoint> = (0..PAR_RUNS).map(|_| f()).collect();
    samples.sort_unstable_by_key(ParPoint::total_ns);
    samples.swap_remove(samples.len() / 2)
}

/// Grounds a grid board at `threads` workers and solves it with one
/// parallel tabled query from the top-left corner (which reaches the
/// whole board: every position is a right/down successor of `n0`).
fn par_grid_point(workload: &'static str, w: usize, h: usize, threads: usize) -> ParPoint {
    median_par_point(|| {
        let mut store = TermStore::new();
        let program = win_grid(&mut store, w, h);
        let t = Instant::now();
        let gp = Grounder::ground_with(
            &mut store,
            &program,
            GrounderOpts {
                threads,
                ..GrounderOpts::default()
            },
        )
        .expect("grid board grounds");
        let ground_ns = t.elapsed().as_nanos() as u64;
        let win = store.intern_symbol("win");
        let n0 = store.constant("n0");
        let root = gp
            .lookup_atom(&Atom::new(win, vec![n0]))
            .expect("win(n0) interned");
        let mut engine = TabledEngine::new(gp);
        let t = Instant::now();
        let _ = std::hint::black_box(engine.truth_parallel(root, threads));
        let solve_ns = t.elapsed().as_nanos() as u64;
        ParPoint {
            workload,
            threads,
            ground_ns,
            solve_ns,
        }
    })
}

/// van_gelder ground+solve at `threads` workers (all atoms queried —
/// the program is small, so this exercises the memo across roots).
fn par_van_gelder_point(threads: usize) -> ParPoint {
    median_par_point(|| {
        let mut store = TermStore::new();
        let program = van_gelder_program(&mut store);
        let t = Instant::now();
        let gp = Grounder::ground_with(
            &mut store,
            &program,
            GrounderOpts {
                universe: HerbrandOpts {
                    max_depth: 1024,
                    max_terms: 1_000_000,
                },
                threads,
                ..GrounderOpts::default()
            },
        )
        .expect("van_gelder grounds");
        let ground_ns = t.elapsed().as_nanos() as u64;
        let ids: Vec<_> = gp.atom_ids().collect();
        let mut engine = TabledEngine::new(gp);
        let t = Instant::now();
        for a in ids {
            let _ = std::hint::black_box(engine.truth_parallel(a, threads));
        }
        let solve_ns = t.elapsed().as_nanos() as u64;
        ParPoint {
            workload: "van_gelder_1024",
            threads,
            ground_ns,
            solve_ns,
        }
    })
}

/// The PR 4 `threads` column: 1/2/4-worker ground+solve sweeps.
fn par_sweep(stress: bool) -> Vec<ParPoint> {
    let mut out = Vec::new();
    for threads in [1usize, 2, 4] {
        out.push(par_grid_point("win_grid_200x200", 200, 200, threads));
    }
    for threads in [1usize, 2, 4] {
        out.push(par_van_gelder_point(threads));
    }
    if stress {
        for threads in [1usize, 2, 4] {
            out.push(par_grid_point("win_grid_600x600", 600, 600, threads));
        }
    }
    for p in &out {
        println!(
            "par {} threads={}: ground={:.1}ms solve={:.1}ms total={:.1}ms",
            p.workload,
            p.threads,
            p.ground_ns as f64 / 1e6,
            p.solve_ns as f64 / 1e6,
            p.total_ns() as f64 / 1e6,
        );
    }
    out
}

/// The PR 5 update-latency record: per-commit latency percentiles on a
/// live session vs. the from-scratch rebuild baseline.
struct UpdateLatency {
    /// p50/p99 of fresh-fact assert + re-query (delta grounding path).
    insert_p50_ns: u64,
    insert_p99_ns: u64,
    /// p50/p99 of retract/assert toggles of an existing fact (clause
    /// switching path; the assert half is a re-enable).
    reassert_p50_ns: u64,
    reassert_p99_ns: u64,
    /// Median of `Solver::new` + query from scratch.
    rebuild_ns: u64,
    /// One-time session construction (ground + prime) cost.
    session_build_ns: u64,
}

impl UpdateLatency {
    fn insert_speedup(&self) -> f64 {
        self.rebuild_ns as f64 / self.insert_p50_ns.max(1) as f64
    }

    fn reassert_speedup(&self) -> f64 {
        self.rebuild_ns as f64 / self.reassert_p50_ns.max(1) as f64
    }
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

/// Measures single-fact update → re-query latency on win_grid 200×200.
fn update_latency_sweep() -> UpdateLatency {
    let (w, h) = (200usize, 200usize);
    let mut store = TermStore::new();
    let program = win_grid(&mut store, w, h);
    let t = Instant::now();
    let mut session = Session::from_parts(store, program).expect("grid is function-free");
    let session_build_ns = t.elapsed().as_nanos() as u64;
    let mut q = session.prepare("?- win(n0).").expect("query compiles");

    // Toggle an existing edge: each iteration is one commit (retract or
    // re-assert — both clause switches) plus the re-query.
    let edge = "move(n0, n1).";
    let mut reassert: Vec<u64> = (0..60)
        .map(|i| {
            let t = Instant::now();
            if i % 2 == 0 {
                session.retract_facts(edge).expect("retract");
            } else {
                session.assert_facts(edge).expect("assert");
            }
            let r = q.execute(&mut session).expect("query").collect_result();
            std::hint::black_box(r.truth);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    reassert.sort_unstable();

    // Fresh inserts: each commit delta-grounds one genuinely new fact
    // (new atom, new clause, new win-rule instance) and repairs the
    // model before the re-query.
    let mut insert: Vec<u64> = (0..60)
        .map(|i| {
            let fact = format!("move(u{i}, n0).");
            let t = Instant::now();
            session.assert_facts(&fact).expect("assert");
            let r = q.execute(&mut session).expect("query").collect_result();
            std::hint::black_box(r.truth);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    insert.sort_unstable();

    // Baseline: the batch path from scratch, per query.
    let mut rebuild: Vec<u64> = (0..5)
        .map(|_| {
            let mut store = TermStore::new();
            let program = win_grid(&mut store, w, h);
            let t = Instant::now();
            let mut solver = Solver::new(program);
            let goal = parse_goal(&mut store, "?- win(n0).").expect("goal parses");
            let r = solver
                .query(&mut store, &goal, Engine::Tabled)
                .expect("rebuild query");
            std::hint::black_box(r.truth);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    rebuild.sort_unstable();

    let out = UpdateLatency {
        insert_p50_ns: percentile(&insert, 50),
        insert_p99_ns: percentile(&insert, 99),
        reassert_p50_ns: percentile(&reassert, 50),
        reassert_p99_ns: percentile(&reassert, 99),
        rebuild_ns: rebuild[rebuild.len() / 2],
        session_build_ns,
    };
    println!(
        "update_latency win_grid_200x200: insert p50={:.2}ms p99={:.2}ms | \
         reassert p50={:.2}ms p99={:.2}ms | rebuild={:.1}ms | \
         speedup {:.1}x (insert) / {:.1}x (reassert) | session build {:.1}ms",
        out.insert_p50_ns as f64 / 1e6,
        out.insert_p99_ns as f64 / 1e6,
        out.reassert_p50_ns as f64 / 1e6,
        out.reassert_p99_ns as f64 / 1e6,
        out.rebuild_ns as f64 / 1e6,
        out.insert_speedup(),
        out.reassert_speedup(),
        out.session_build_ns as f64 / 1e6,
    );
    out
}

/// The PR 8 governance record: what the per-tick guard checks cost on
/// the hot commit path, and how fast a cross-thread cancel lands.
struct GovernancePoint {
    /// p50/p99 of the warm single-fact commit through `commit_with`
    /// with a far-future deadline and a memory budget — every guard
    /// branch armed, every tick taken through the full check.
    governed_p50_ns: u64,
    governed_p99_ns: u64,
    /// p50/p99 of the identical commit through the ungoverned path.
    ungoverned_p50_ns: u64,
    ungoverned_p99_ns: u64,
    /// p50/p99 of cancel-to-return latency: a second thread fires
    /// `InterruptHandle::cancel` mid-commit; measured from the cancel
    /// store to `commit_with` returning `Interrupted`.
    cancel_p50_ns: u64,
    cancel_p99_ns: u64,
    cancel_runs: usize,
}

impl GovernancePoint {
    fn overhead_pct(&self) -> f64 {
        (self.governed_p50_ns as f64 / self.ungoverned_p50_ns.max(1) as f64 - 1.0) * 100.0
    }
}

/// Measures governed-commit overhead and cancellation latency on
/// win_grid 200×200.
fn governance_sweep() -> GovernancePoint {
    let (w, h) = (200usize, 200usize);

    // Tick-check overhead: the same warm single-fact insert commit
    // update_latency_sweep measures, alternating between the ungoverned
    // and governed paths so drift from the growing program lands on
    // both sample sets alike.
    let mut store = TermStore::new();
    let program = win_grid(&mut store, w, h);
    let mut session = Session::from_parts(store, program).expect("grid is function-free");
    let far = CommitOpts {
        max_memory_bytes: Some(usize::MAX),
        ..CommitOpts::none().with_timeout(Duration::from_secs(3600))
    };
    let mut governed: Vec<u64> = Vec::with_capacity(60);
    let mut ungoverned: Vec<u64> = Vec::with_capacity(60);
    for i in 0..120 {
        let fact = format!("move(g{i}, n0).");
        let t = Instant::now();
        session.begin().expect("begin");
        session.assert_facts(&fact).expect("stage fact");
        if i % 2 == 0 {
            session.commit().expect("ungoverned commit");
        } else {
            session.commit_with(&far).expect("governed commit");
        }
        let ns = t.elapsed().as_nanos() as u64;
        if i % 2 == 0 {
            ungoverned.push(ns);
        } else {
            governed.push(ns);
        }
    }
    governed.sort_unstable();
    ungoverned.sort_unstable();

    // Cancellation latency: stage the full board into an empty session,
    // fire a cross-thread cancel 10ms into the (multi-hundred-ms)
    // commit, and measure from the cancel store to commit_with
    // returning. The interrupted commit unwinds to the empty epoch, so
    // one session serves every run.
    let mut store = TermStore::new();
    let program = win_grid(&mut store, w, h);
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
    let cancel_runs = 9usize;
    let mut s = Session::from_source("").expect("empty session");
    let mut cancel: Vec<u64> = (0..cancel_runs)
        .map(|_| {
            s.begin().expect("begin");
            s.add_rules(&rules).expect("stage rules");
            s.assert_facts(&facts).expect("stage facts");
            let handle = s.interrupt_handle();
            let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
            let (cancelled_tx, cancelled_rx) = std::sync::mpsc::channel::<Instant>();
            let canceller = std::thread::spawn(move || {
                started_rx.recv().expect("commit started");
                std::thread::sleep(Duration::from_millis(10));
                let t = Instant::now();
                handle.cancel();
                cancelled_tx.send(t).expect("report cancel time");
            });
            started_tx.send(()).expect("signal start");
            let r = s.commit_with(&CommitOpts::none());
            let returned = Instant::now();
            canceller.join().expect("canceller joins");
            let cancelled_at = cancelled_rx.recv().expect("cancel timestamp");
            assert!(
                matches!(r, Err(SessionError::Interrupted { .. })),
                "the 10ms cancel must land inside the full-board commit"
            );
            assert!(!s.is_poisoned(), "a cancelled commit must not poison");
            returned.duration_since(cancelled_at).as_nanos() as u64
        })
        .collect();
    cancel.sort_unstable();

    let out = GovernancePoint {
        governed_p50_ns: percentile(&governed, 50),
        governed_p99_ns: percentile(&governed, 99),
        ungoverned_p50_ns: percentile(&ungoverned, 50),
        ungoverned_p99_ns: percentile(&ungoverned, 99),
        cancel_p50_ns: percentile(&cancel, 50),
        cancel_p99_ns: percentile(&cancel, 99),
        cancel_runs,
    };
    println!(
        "governance win_grid_200x200: governed commit p50={:.2}ms p99={:.2}ms | \
         ungoverned p50={:.2}ms p99={:.2}ms (overhead {:+.1}%) | \
         cancel latency p50={:.2}ms p99={:.2}ms over {} mid-commit cancels",
        out.governed_p50_ns as f64 / 1e6,
        out.governed_p99_ns as f64 / 1e6,
        out.ungoverned_p50_ns as f64 / 1e6,
        out.ungoverned_p99_ns as f64 / 1e6,
        out.overhead_pct(),
        out.cancel_p50_ns as f64 / 1e6,
        out.cancel_p99_ns as f64 / 1e6,
        out.cancel_runs,
    );
    out
}

/// One snapshot-read throughput point: `queries` point lookups spread
/// over `threads` workers against one shared snapshot.
struct SnapPoint {
    threads: usize,
    queries: usize,
    wall_ns: u64,
}

impl SnapPoint {
    fn qps(&self) -> f64 {
        self.queries as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Measures multi-threaded snapshot-read throughput on win_grid
/// 200×200. All workers share one `Snapshot` (an `Arc`'d immutable
/// state); the atoms are pre-parsed so the loop measures pure reads.
fn snapshot_read_sweep() -> Vec<SnapPoint> {
    let (w, h) = (200usize, 200usize);
    let mut store = TermStore::new();
    let program = win_grid(&mut store, w, h);
    let mut session = Session::from_parts(store, program).expect("grid is function-free");
    let snapshot = session.snapshot();
    let queries = 200_000usize;
    let atoms: Vec<Atom> = {
        // Shares the snapshot's chunks; copies only what it interns.
        let mut s = snapshot.store().clone();
        let win = s.intern_symbol("win");
        (0..w * h)
            .map(|i| {
                let node = s.constant(&format!("n{i}"));
                Atom::new(win, vec![node])
            })
            .collect()
    };
    [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let t = Instant::now();
            let verdicts = gsls_par::par_map(threads, queries, |i| {
                snapshot.truth_of_atom(&atoms[i % atoms.len()])
            });
            let wall_ns = t.elapsed().as_nanos() as u64;
            std::hint::black_box(verdicts.len());
            let p = SnapPoint {
                threads,
                queries,
                wall_ns,
            };
            println!(
                "snapshot_read win_grid_200x200: {} queries at {} thread(s) in {:.1}ms \
                 ({:.2}M q/s)",
                p.queries,
                p.threads,
                p.wall_ns as f64 / 1e6,
                p.qps() / 1e6,
            );
            p
        })
        .collect()
}

/// The PR 6 durability record: what crash safety costs on the live
/// win_grid 200×200 session.
struct DurabilityPoint {
    /// p50/p99 of one fresh-fact durable commit: validate + WAL append
    /// + fsync + delta-ground + model repair.
    commit_durable_p50_ns: u64,
    commit_durable_p99_ns: u64,
    /// p50 of the identical commit on an in-memory session (no WAL).
    commit_memory_p50_ns: u64,
    /// Explicit `Session::checkpoint()`: full-state snapshot written
    /// atomically (temp file + rename) plus WAL rotation.
    checkpoint_ns: u64,
    /// The *first* `Session::open` on a directory holding the initial
    /// checkpoint plus `replayed_records` WAL records: restore + tail
    /// replay + the post-replay checkpoint fold (the tail exceeds
    /// `REPLAY_CHECKPOINT_THRESHOLD`, so this open also writes a fresh
    /// image).
    reopen_replay_ns: u64,
    /// The *second* `Session::open` on the same directory: thanks to
    /// the fold above it decodes the fresh checkpoint and replays
    /// nothing. This is the reopen every later restart pays.
    reopen_after_fold_ns: u64,
    /// `Session::open` right after an explicit checkpoint (empty WAL):
    /// pure checkpoint restore.
    reopen_checkpoint_ns: u64,
    /// `Session::from_parts` on the same final program: ground + solve
    /// from scratch, the non-durable baseline recovery would replace.
    full_rebuild_ns: u64,
    replayed_records: usize,
}

impl DurabilityPoint {
    fn fsync_overhead_ns(&self) -> i64 {
        self.commit_durable_p50_ns as i64 - self.commit_memory_p50_ns as i64
    }

    fn replay_speedup(&self) -> f64 {
        self.full_rebuild_ns as f64 / self.reopen_replay_ns.max(1) as f64
    }

    /// How much the post-replay checkpoint fold saves the next reopen.
    fn fold_speedup(&self) -> f64 {
        self.reopen_replay_ns as f64 / self.reopen_after_fold_ns.max(1) as f64
    }
}

/// Measures durable-commit latency, checkpoint cost, and recovery time
/// on win_grid 200×200 rooted in a scratch directory under the OS temp
/// dir.
fn durability_sweep() -> DurabilityPoint {
    let (w, h) = (200usize, 200usize);
    let commits = 40usize;
    let dir = std::env::temp_dir().join(format!("gsls_bench_durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Thresholds pushed out of reach so auto-checkpointing never
    // interleaves with the measurements.
    let dopts = DurableOpts {
        checkpoint_records: usize::MAX,
        checkpoint_bytes: u64::MAX,
        ..DurableOpts::default()
    };

    let mut store = TermStore::new();
    let program = win_grid(&mut store, w, h);
    let mut session =
        Session::open_with_parts(&dir, store, program, GrounderOpts::default(), dopts)
            .expect("durable session opens");

    // Fresh-fact durable commits: each one is validated, journaled
    // (append + fsync) and then delta-grounded — the same insert path
    // update_latency_sweep measures, plus the WAL.
    let mut durable: Vec<u64> = (0..commits)
        .map(|i| {
            let fact = format!("move(d{i}, n0).");
            let t = Instant::now();
            session.assert_facts(&fact).expect("durable assert");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    durable.sort_unstable();
    let live_truth = session.truth("?- win(n0).").expect("live query");
    drop(session);

    // Recovery: the first reopen restores the initial checkpoint,
    // replays all `commits` WAL records through the normal commit
    // path, and — the tail being long — folds them into a fresh
    // checkpoint on the way out. It can only be measured once: the
    // fold changes what the next open finds.
    let t = Instant::now();
    let first = Session::open(&dir).expect("reopen with WAL tail");
    let reopen_replay_ns = t.elapsed().as_nanos() as u64;
    drop(first);
    // The second reopen decodes the freshly folded image and replays
    // nothing; this one is stable, so take a median.
    let reopen_after_fold_ns = median_ns(3, || Session::open(&dir).expect("reopen after the fold"));
    let mut reopened = Session::open(&dir).expect("reopen");
    assert_eq!(
        reopened.truth("?- win(n0).").expect("recovered query"),
        live_truth,
        "recovered session disagrees with the live one"
    );

    let t = Instant::now();
    reopened.checkpoint().expect("explicit checkpoint");
    let checkpoint_ns = t.elapsed().as_nanos() as u64;
    drop(reopened);
    let reopen_checkpoint_ns =
        median_ns(3, || Session::open(&dir).expect("reopen from checkpoint"));

    // Baselines on an in-memory session over the same program.
    let full_rebuild_ns = median_ns(3, || {
        let mut store = TermStore::new();
        let program = win_grid(&mut store, w, h);
        Session::from_parts(store, program).expect("grid is function-free")
    });
    let mut store = TermStore::new();
    let program = win_grid(&mut store, w, h);
    let mut mem = Session::from_parts(store, program).expect("grid is function-free");
    let mut memory: Vec<u64> = (0..commits)
        .map(|i| {
            let fact = format!("move(d{i}, n0).");
            let t = Instant::now();
            mem.assert_facts(&fact).expect("in-memory assert");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    memory.sort_unstable();
    let _ = std::fs::remove_dir_all(&dir);

    let out = DurabilityPoint {
        commit_durable_p50_ns: percentile(&durable, 50),
        commit_durable_p99_ns: percentile(&durable, 99),
        commit_memory_p50_ns: percentile(&memory, 50),
        checkpoint_ns,
        reopen_replay_ns,
        reopen_after_fold_ns,
        reopen_checkpoint_ns,
        full_rebuild_ns,
        replayed_records: commits,
    };
    println!(
        "durability win_grid_200x200: durable commit p50={:.2}ms p99={:.2}ms | \
         in-memory p50={:.2}ms (fsync overhead {:+.2}ms) | checkpoint={:.1}ms | \
         reopen: replay+fold({} records)={:.1}ms, after-fold={:.1}ms ({:.1}x), \
         checkpoint-only={:.1}ms | rebuild={:.1}ms ({:.1}x vs replay)",
        out.commit_durable_p50_ns as f64 / 1e6,
        out.commit_durable_p99_ns as f64 / 1e6,
        out.commit_memory_p50_ns as f64 / 1e6,
        out.fsync_overhead_ns() as f64 / 1e6,
        out.checkpoint_ns as f64 / 1e6,
        out.replayed_records,
        out.reopen_replay_ns as f64 / 1e6,
        out.reopen_after_fold_ns as f64 / 1e6,
        out.fold_speedup(),
        out.reopen_checkpoint_ns as f64 / 1e6,
        out.full_rebuild_ns as f64 / 1e6,
        out.replay_speedup(),
    );
    out
}

/// The PR 10 serving record: the network front end under concurrent
/// mixed load, measured end-to-end from the clients' side of the
/// socket.
struct ServingPoint {
    writers: usize,
    readers: usize,
    commits: usize,
    queries: usize,
    /// End-to-end single-fact commit latency as a storm client saw it:
    /// parse + frame encode + socket + writer-queue wait + group
    /// commit + fsync + typed reply.
    commit_p50_ns: u64,
    commit_p99_ns: u64,
    /// End-to-end point-query latency: socket + reader-pool dispatch +
    /// snapshot prepare/execute + reply.
    query_p50_ns: u64,
    query_p99_ns: u64,
    /// WAL batches journaled through the group-commit path and the
    /// fsync groups that covered them, read back off the server's own
    /// Prometheus scrape.
    group_records: u64,
    group_syncs: u64,
    /// The expired-deadline commit came back `Interrupted` to its own
    /// client — and the session kept serving everyone else after.
    deadline_interrupted: bool,
}

impl ServingPoint {
    fn records_per_fsync(&self) -> f64 {
        self.group_records as f64 / self.group_syncs.max(1) as f64
    }
}

/// Boots an in-process `Server` over a durable win_grid 200×200
/// session and storms it with concurrent writer and reader clients.
fn serving_sweep() -> ServingPoint {
    let (w, h) = (200usize, 200usize);
    let (writers, readers) = (8usize, 4usize);
    let commits_per_writer = 12usize;
    let queries_per_reader = 12usize;
    let dir = std::env::temp_dir().join(format!("gsls_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Seed the board straight into the server's session directory;
    // the server's `Session::open` then restores it from the
    // checkpoint instead of shipping 80k facts over the wire.
    {
        let mut store = TermStore::new();
        let program = win_grid(&mut store, w, h);
        let seed = Session::open_with_parts(
            dir.join("default"),
            store,
            program,
            GrounderOpts::default(),
            DurableOpts::default(),
        )
        .expect("seed session");
        drop(seed);
    }

    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // The mixed storm: every writer commits its own fresh facts (all
    // funnelled through the session's one writer thread, where the
    // backed-up queue is what group commit amortizes) while the
    // readers hammer point queries on the published snapshots.
    let write_handles: Vec<_> = (0..writers)
        .map(|i| {
            std::thread::spawn(move || -> Vec<u64> {
                let mut c = Client::connect(addr).expect("writer connects");
                (0..commits_per_writer)
                    .map(|j| {
                        let fact = format!("move(w{i}_{j}, n0).");
                        let t = Instant::now();
                        c.commit("", &fact, "", GovernOpts::default())
                            .expect("storm commit");
                        t.elapsed().as_nanos() as u64
                    })
                    .collect()
            })
        })
        .collect();
    let read_handles: Vec<_> = (0..readers)
        .map(|_| {
            std::thread::spawn(move || -> Vec<u64> {
                let mut c = Client::connect(addr).expect("reader connects");
                (0..queries_per_reader)
                    .map(|_| {
                        let t = Instant::now();
                        c.query("?- win(n0).", GovernOpts::default())
                            .expect("storm query");
                        t.elapsed().as_nanos() as u64
                    })
                    .collect()
            })
        })
        .collect();
    let mut commit_ns: Vec<u64> = write_handles
        .into_iter()
        .flat_map(|h| h.join().expect("writer thread"))
        .collect();
    let mut query_ns: Vec<u64> = read_handles
        .into_iter()
        .flat_map(|h| h.join().expect("reader thread"))
        .collect();
    commit_ns.sort_unstable();
    query_ns.sort_unstable();

    // Governed deadline, end-to-end: a commit carrying an
    // already-expired deadline must bounce with `Interrupted` — to
    // exactly this client — and the session must keep accepting (and
    // publishing) everyone else's work afterwards.
    let mut c = Client::connect(addr).expect("deadline client");
    let strict = GovernOpts {
        deadline_ms: Some(0),
        ..GovernOpts::default()
    };
    let err = c
        .commit("", "move(zz, yy). move(yy, zz).", "", strict)
        .expect_err("expired deadline must not commit");
    let deadline_interrupted = expect_interrupted(&err);
    assert!(
        deadline_interrupted,
        "expired-deadline commit returned {err}, not Interrupted"
    );
    c.commit("", "move(after_deadline, n0).", "", GovernOpts::default())
        .expect("session must keep serving after the interrupted commit");
    let q = c
        .query("?- move(after_deadline, n0).", GovernOpts::default())
        .expect("read-your-writes after the interrupted commit");
    assert_eq!(q.truth, "true", "acked fact must be visible to its client");

    let scrape = c.metrics().expect("metrics scrape");
    let sample = |name: &str| -> u64 {
        scrape
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let group_records = sample("gsls_wal_group_records");
    let group_syncs = sample("gsls_wal_group_syncs");
    drop(c);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let out = ServingPoint {
        writers,
        readers,
        commits: commit_ns.len(),
        queries: query_ns.len(),
        commit_p50_ns: percentile(&commit_ns, 50),
        commit_p99_ns: percentile(&commit_ns, 99),
        query_p50_ns: percentile(&query_ns, 50),
        query_p99_ns: percentile(&query_ns, 99),
        group_records,
        group_syncs,
        deadline_interrupted,
    };
    println!(
        "serving win_grid_200x200: {} writers x {} commits p50={:.2}ms p99={:.2}ms | \
         {} readers x {} queries p50={:.2}ms p99={:.2}ms | \
         group commit: {} records / {} fsyncs = {:.1} per fsync | \
         expired deadline -> Interrupted",
        out.writers,
        commits_per_writer,
        out.commit_p50_ns as f64 / 1e6,
        out.commit_p99_ns as f64 / 1e6,
        out.readers,
        queries_per_reader,
        out.query_p50_ns as f64 / 1e6,
        out.query_p99_ns as f64 / 1e6,
        out.group_records,
        out.group_syncs,
        out.records_per_fsync(),
    );
    out
}

/// The PR 7 analysis record: full multi-pass static analysis of the
/// win_grid 200×200 program (80k facts + the win rule).
struct AnalysisPoint {
    clauses: usize,
    analyze_ns: u64,
    diagnostics: usize,
}

fn analysis_sweep() -> AnalysisPoint {
    let mut store = TermStore::new();
    let program = win_grid(&mut store, 200, 200);
    let opts = AnalyzerOpts::default();
    let report = analyze(&store, &program, &opts);
    let analyze_ns = median_ns(9, || analyze(&store, &program, &opts));
    let out = AnalysisPoint {
        clauses: program.len(),
        analyze_ns,
        diagnostics: report.diagnostics.len(),
    };
    println!(
        "analysis win_grid_200x200: {} clauses analyzed in {:.3}ms, {} diagnostics",
        out.clauses,
        out.analyze_ns as f64 / 1e6,
        out.diagnostics,
    );
    out
}

/// The PR 9 observability record: the commit pipeline's per-phase
/// latency split as the metrics registry saw it, and what the
/// always-on instrumentation costs on the hot commit path.
struct ObsPoint {
    /// `(phase name, histogram)` for every phase that recorded,
    /// straight out of `Session::metrics()` — the bench keeps no
    /// stopwatch of its own for these.
    phases: Vec<(&'static str, gsls_obs::HistogramSnapshot)>,
    /// p50/p99 of the warm single-fact `commit_with` with the obs
    /// bundle enabled (the default state).
    enabled_p50_ns: u64,
    enabled_p99_ns: u64,
    /// … and with `Obs::set_enabled(false)`: every probe degrades to
    /// one relaxed load + branch. The in-process overhead baseline.
    disabled_p50_ns: u64,
    disabled_p99_ns: u64,
}

impl ObsPoint {
    fn overhead_pct(&self) -> f64 {
        (self.enabled_p50_ns as f64 / self.disabled_p50_ns.max(1) as f64 - 1.0) * 100.0
    }
}

/// Measures the per-phase commit breakdown and the enabled-vs-disabled
/// overhead of the observability layer on win_grid 200×200.
fn observability_sweep() -> ObsPoint {
    let (w, h) = (200usize, 200usize);
    let mut store = TermStore::new();
    let program = win_grid(&mut store, w, h);
    let mut session = Session::from_parts(store, program).expect("grid is function-free");
    let obs = session.obs();

    // Warm the single-fact commit path, then drop the warmup from the
    // registry's view of the phase split by snapshotting after it.
    for i in 0..8 {
        session.begin().expect("begin");
        session
            .assert_facts(&format!("move(warm{i}, n0)."))
            .expect("stage fact");
        session.commit_with(&CommitOpts::none()).expect("commit");
    }
    let before = session.metrics();

    // Phase breakdown: 40 governed warm commits; the registry's phase
    // histograms are the only timer (migrated off bench stopwatches).
    for i in 0..40 {
        session.begin().expect("begin");
        session
            .assert_facts(&format!("move(obs{i}, n0)."))
            .expect("stage fact");
        session.commit_with(&CommitOpts::none()).expect("commit");
    }
    let after = session.metrics();
    const PHASES: [&str; 8] = [
        "commit.total",
        "commit.validate",
        "commit.admission",
        "commit.journal",
        "commit.ground",
        "commit.refresh",
        "commit.index",
        "commit.publish",
    ];
    let phases: Vec<(&'static str, gsls_obs::HistogramSnapshot)> = PHASES
        .iter()
        .filter_map(|name| {
            let h = *after.histogram(name)?;
            let h0 = before.histogram(name).copied().unwrap_or_default();
            (h.count > h0.count).then_some((*name, h))
        })
        .collect();

    // Instrumentation overhead: the identical warm commit, alternating
    // the enable flag so drift from the growing program lands on both
    // sample sets alike. The registry cannot time its own absence, so
    // this one comparison keeps a bench-side stopwatch.
    let mut enabled: Vec<u64> = Vec::with_capacity(80);
    let mut disabled: Vec<u64> = Vec::with_capacity(80);
    for i in 0..160 {
        let on = i % 2 == 0;
        obs.set_enabled(on);
        let fact = format!("move(ov{i}, n0).");
        let t = Instant::now();
        session.begin().expect("begin");
        session.assert_facts(&fact).expect("stage fact");
        session.commit_with(&CommitOpts::none()).expect("commit");
        let ns = t.elapsed().as_nanos() as u64;
        if on {
            enabled.push(ns);
        } else {
            disabled.push(ns);
        }
    }
    obs.set_enabled(true);
    enabled.sort_unstable();
    disabled.sort_unstable();

    let out = ObsPoint {
        phases,
        enabled_p50_ns: percentile(&enabled, 50),
        enabled_p99_ns: percentile(&enabled, 99),
        disabled_p50_ns: percentile(&disabled, 50),
        disabled_p99_ns: percentile(&disabled, 99),
    };
    println!(
        "observability win_grid_200x200: instrumented commit p50={:.2}ms p99={:.2}ms | \
         disabled p50={:.2}ms p99={:.2}ms (overhead {:+.1}%)",
        out.enabled_p50_ns as f64 / 1e6,
        out.enabled_p99_ns as f64 / 1e6,
        out.disabled_p50_ns as f64 / 1e6,
        out.disabled_p99_ns as f64 / 1e6,
        out.overhead_pct(),
    );
    for (name, h) in &out.phases {
        println!(
            "  {name}: count={} p50={:.3}ms p99={:.3}ms mean={:.3}ms",
            h.count,
            h.p50 as f64 / 1e6,
            h.p99 as f64 / 1e6,
            h.mean() as f64 / 1e6,
        );
    }
    out
}

/// Renders the `observability` JSON section.
fn obs_json(obs: &ObsPoint) -> String {
    let mut json =
        String::from("  \"observability\": {\"workload\": \"win_grid_200x200\", \"phases\": {");
    let ph: Vec<String> = obs
        .phases
        .iter()
        .map(|(name, h)| {
            format!(
                "\"{name}\": {{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"mean_ns\": {}}}",
                h.count,
                h.p50,
                h.p99,
                h.mean()
            )
        })
        .collect();
    json.push_str(&ph.join(", "));
    let _ = write!(
        json,
        "}}, \"instrumented_commit_p50_ns\": {}, \"instrumented_commit_p99_ns\": {}, \
         \"disabled_commit_p50_ns\": {}, \"disabled_commit_p99_ns\": {}, \
         \"overhead_pct_p50\": {:.2}}},",
        obs.enabled_p50_ns,
        obs.enabled_p99_ns,
        obs.disabled_p50_ns,
        obs.disabled_p99_ns,
        obs.overhead_pct(),
    );
    json
}

/// The PR 9 acceptance assertion, shared by the full run and
/// `--obs-gate`.
fn obs_acceptance(obs: &ObsPoint) {
    assert!(
        obs.enabled_p50_ns <= obs.disabled_p50_ns.max(1) * 103 / 100,
        "instrumented commit p50 {:.2}ms is {:+.1}% vs the {:.2}ms disabled p50 \
         (acceptance: <= 3%)",
        obs.enabled_p50_ns as f64 / 1e6,
        obs.overhead_pct(),
        obs.disabled_p50_ns as f64 / 1e6,
    );
    for must in [
        "commit.validate",
        "commit.admission",
        "commit.ground",
        "commit.refresh",
        "commit.index",
        "commit.publish",
    ] {
        assert!(
            obs.phases.iter().any(|(name, _)| *name == must),
            "phase histogram {must} missing from the registry"
        );
    }
    println!(
        "acceptance: instrumented commit p50 {:.2}ms = {:+.1}% vs disabled (<= 3%); \
         all pipeline phase histograms present",
        obs.enabled_p50_ns as f64 / 1e6,
        obs.overhead_pct(),
    );
}

/// Counts heap allocations across warm calls of both substrate modes.
/// The contract for each is exactly zero.
fn zero_alloc_check() -> (u64, u64, u64) {
    let mut store = TermStore::new();
    let program = win_random(&mut store, 256, 3, 7);
    let gp = gsls_bench::ground(&mut store, &program);
    let calls = 100u64;

    // Propagator full-recompute calls on warm scratch.
    let mut prop = Propagator::new(&gp);
    let mut out = BitSet::new(gp.atom_count());
    let mut s = BitSet::new(gp.atom_count());
    prop.lfp_into(&gp, |q| !s.contains(q.index()), &mut out);
    s.copy_from(&out);
    prop.lfp_into(&gp, |q| !s.contains(q.index()), &mut out);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..calls {
        if i % 2 == 0 {
            prop.lfp_into(&gp, |q| !s.contains(q.index()), &mut out);
        } else {
            prop.lfp_into(&gp, |_| false, &mut out);
        }
    }
    let prop_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // Incremental evaluates over a flipping context (kills + revivals +
    // retraction cones every call) on warm scratch.
    let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
    let mut ctx = BitSet::new(gp.atom_count());
    inc.evaluate(&gp, &ctx);
    ctx.copy_from(inc.out());
    inc.evaluate(&gp, &ctx);
    ctx.clear();
    inc.evaluate(&gp, &ctx);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..calls {
        if i % 2 == 0 {
            ctx.copy_from(inc.out());
        } else {
            ctx.clear();
        }
        inc.evaluate(&gp, &ctx);
    }
    let inc_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (calls, prop_allocs, inc_allocs)
}

fn main() {
    let stress = std::env::args().any(|a| a == "--stress");
    let obs_gate = std::env::args().any(|a| a == "--obs-gate");
    println!("# perf_report — concurrent serving with group commit (PR 10)");
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host: available_parallelism={cpus}");
    let obs = observability_sweep();
    if obs_gate {
        // Fast CI mode: only the PR 9 sweep and its acceptance
        // assertion; no JSON write.
        obs_acceptance(&obs);
        return;
    }
    let serving = serving_sweep();
    let governance = governance_sweep();
    let analysis = analysis_sweep();
    let durability = durability_sweep();
    let update = update_latency_sweep();
    let snap = snapshot_read_sweep();
    let van_gelder = van_gelder_sweep();
    let engine = engine_scaling_sweep();
    let grid = grid_sweep();
    let stress_point = stress.then(stress_sweep);
    let par = par_sweep(stress);
    let (calls, prop_allocs, inc_allocs) = zero_alloc_check();
    println!(
        "zero_alloc: {prop_allocs} (propagator) / {inc_allocs} (incremental) \
         allocations across {calls} warm calls each"
    );

    let mut json = String::from("{\n  \"pr\": 10,\n");
    let _ = writeln!(
        json,
        "  \"description\": \"gsls-serve, the concurrent multi-session \
         network server: a std-only TCP front end multiplexing clients \
         onto durable sessions over a length-prefixed CRC-framed wire \
         protocol, with one writer thread per session draining a \
         bounded queue through group commit (contiguous batches \
         journaled as one WAL apply under a single fsync, each waiter \
         acked with its own typed reply), reads served from Arc'd \
         snapshots across a gsls-par-sized reader pool, and governed \
         per-request deadlines observed end-to-end\","
    );
    let _ = writeln!(json, "  \"available_parallelism\": {cpus},");
    let _ = writeln!(
        json,
        "  \"serving\": {{\"workload\": \"win_grid_200x200\", \
         \"writers\": {}, \"readers\": {}, \"commits\": {}, \
         \"queries\": {}, \"commit_p50_ns\": {}, \"commit_p99_ns\": {}, \
         \"query_p50_ns\": {}, \"query_p99_ns\": {}, \
         \"wal_group_records\": {}, \"wal_group_syncs\": {}, \
         \"records_per_fsync\": {:.2}, \"deadline_interrupted\": {}}},",
        serving.writers,
        serving.readers,
        serving.commits,
        serving.queries,
        serving.commit_p50_ns,
        serving.commit_p99_ns,
        serving.query_p50_ns,
        serving.query_p99_ns,
        serving.group_records,
        serving.group_syncs,
        serving.records_per_fsync(),
        serving.deadline_interrupted,
    );
    let _ = writeln!(json, "{}", obs_json(&obs));
    let _ = writeln!(
        json,
        "  \"governance\": {{\"workload\": \"win_grid_200x200\", \
         \"governed_commit_p50_ns\": {}, \"governed_commit_p99_ns\": {}, \
         \"ungoverned_commit_p50_ns\": {}, \"ungoverned_commit_p99_ns\": {}, \
         \"overhead_pct_p50\": {:.2}, \"cancel_latency_p50_ns\": {}, \
         \"cancel_latency_p99_ns\": {}, \"cancel_runs\": {}}},",
        governance.governed_p50_ns,
        governance.governed_p99_ns,
        governance.ungoverned_p50_ns,
        governance.ungoverned_p99_ns,
        governance.overhead_pct(),
        governance.cancel_p50_ns,
        governance.cancel_p99_ns,
        governance.cancel_runs,
    );
    let _ = writeln!(
        json,
        "  \"analysis\": {{\"workload\": \"win_grid_200x200\", \
         \"clauses\": {}, \"analyze_ns\": {}, \"diagnostics\": {}}},",
        analysis.clauses, analysis.analyze_ns, analysis.diagnostics,
    );
    let _ = writeln!(
        json,
        "  \"durability\": {{\"workload\": \"win_grid_200x200\", \
         \"commit_durable_p50_ns\": {}, \"commit_durable_p99_ns\": {}, \
         \"commit_memory_p50_ns\": {}, \"fsync_overhead_ns\": {}, \
         \"checkpoint_ns\": {}, \"reopen_replay_ns\": {}, \
         \"reopen_after_fold_ns\": {}, \"fold_speedup\": {:.2}, \
         \"reopen_checkpoint_ns\": {}, \"full_rebuild_ns\": {}, \
         \"replayed_records\": {}, \"replay_speedup_vs_rebuild\": {:.2}}},",
        durability.commit_durable_p50_ns,
        durability.commit_durable_p99_ns,
        durability.commit_memory_p50_ns,
        durability.fsync_overhead_ns(),
        durability.checkpoint_ns,
        durability.reopen_replay_ns,
        durability.reopen_after_fold_ns,
        durability.fold_speedup(),
        durability.reopen_checkpoint_ns,
        durability.full_rebuild_ns,
        durability.replayed_records,
        durability.replay_speedup(),
    );
    let _ = writeln!(
        json,
        "  \"update_latency\": {{\"workload\": \"win_grid_200x200\", \
         \"insert_p50_ns\": {}, \"insert_p99_ns\": {}, \
         \"reassert_p50_ns\": {}, \"reassert_p99_ns\": {}, \
         \"full_rebuild_ns\": {}, \"session_build_ns\": {}, \
         \"insert_speedup_vs_rebuild\": {:.2}, \
         \"reassert_speedup_vs_rebuild\": {:.2}}},",
        update.insert_p50_ns,
        update.insert_p99_ns,
        update.reassert_p50_ns,
        update.reassert_p99_ns,
        update.rebuild_ns,
        update.session_build_ns,
        update.insert_speedup(),
        update.reassert_speedup(),
    );
    json.push_str("  \"snapshot_read\": [\n");
    let sp: Vec<String> = snap
        .iter()
        .map(|p| {
            format!(
                "    {{\"workload\": \"win_grid_200x200\", \"threads\": {}, \
                 \"queries\": {}, \"wall_ns\": {}, \"queries_per_sec\": {:.0}}}",
                p.threads,
                p.queries,
                p.wall_ns,
                p.qps()
            )
        })
        .collect();
    json.push_str(&sp.join(",\n"));
    json.push_str("\n  ],\n  \"van_gelder\": [\n");
    let vg: Vec<String> = van_gelder.iter().map(|p| p.json("depth")).collect();
    json.push_str(&vg.join(",\n"));
    json.push_str("\n  ],\n  \"engine_scaling\": [\n");
    let es: Vec<String> = engine.iter().map(|p| p.json("n")).collect();
    json.push_str(&es.join(",\n"));
    json.push_str("\n  ],\n  \"grid_boards\": [\n");
    let with_grounding = |p: &SweepPoint, g: &GroundPoint| {
        let mut s = p.json("board");
        let insert = format!(", {}}}", ground_json(g));
        s.truncate(s.len() - 1);
        s.push_str(&insert);
        s
    };
    let gr: Vec<String> = grid.iter().map(|(p, g)| with_grounding(p, g)).collect();
    json.push_str(&gr.join(",\n"));
    json.push_str("\n  ],\n");
    if let Some((p, g)) = &stress_point {
        json.push_str("  \"stress\": [\n");
        json.push_str(&with_grounding(p, g));
        json.push_str("\n  ],\n");
    }
    json.push_str("  \"par_report\": [\n");
    let pr: Vec<String> = par.iter().map(ParPoint::json).collect();
    json.push_str(&pr.join(",\n"));
    json.push_str("\n  ],\n");
    let _ = write!(
        json,
        "  \"zero_alloc\": {{\"warm_calls_each\": {calls}, \
         \"propagator_allocations\": {prop_allocs}, \
         \"incremental_allocations\": {inc_allocs}}}\n}}\n"
    );
    std::fs::write("BENCH_10.json", &json).expect("write BENCH_10.json");
    println!("wrote BENCH_10.json");

    // PR 10 acceptance: under ≥ 8 concurrent mixed clients the group
    // path must amortize ≥ 2 journaled batches per fsync, and the
    // governed deadline must land on exactly the over-deadline client
    // (asserted inside the sweep: Interrupted to that client, session
    // kept serving, acked writes visible).
    assert!(
        serving.writers + serving.readers >= 8,
        "serving storm must field >= 8 concurrent clients"
    );
    assert!(
        serving.records_per_fsync() >= 2.0,
        "group commit amortized only {:.2} records per fsync \
         ({} records / {} syncs; acceptance: >= 2)",
        serving.records_per_fsync(),
        serving.group_records,
        serving.group_syncs,
    );
    assert!(serving.deadline_interrupted);
    println!(
        "acceptance: serving storm ({} clients) commit p99 {:.2}ms, query p99 {:.2}ms; \
         group commit {:.1} records/fsync (>= 2); expired deadline -> Interrupted \
         to exactly that client",
        serving.writers + serving.readers,
        serving.commit_p99_ns as f64 / 1e6,
        serving.query_p99_ns as f64 / 1e6,
        serving.records_per_fsync(),
    );

    // PR 10 durability fix: the post-replay checkpoint fold must make
    // the second reopen cheaper than the replaying first one.
    assert!(
        durability.reopen_after_fold_ns < durability.reopen_replay_ns,
        "second reopen ({:.1}ms) should beat the replaying first one ({:.1}ms): \
         the post-replay checkpoint fold is not landing",
        durability.reopen_after_fold_ns as f64 / 1e6,
        durability.reopen_replay_ns as f64 / 1e6,
    );
    println!(
        "acceptance: reopen after fold {:.1}ms vs replaying reopen {:.1}ms ({:.1}x)",
        durability.reopen_after_fold_ns as f64 / 1e6,
        durability.reopen_replay_ns as f64 / 1e6,
        durability.fold_speedup(),
    );

    // PR 9 acceptance: always-on instrumentation within 3% of the
    // disabled-bundle p50, all pipeline phase histograms present.
    obs_acceptance(&obs);

    // PR 8 acceptance: the armed guard (deadline + memory budget, one
    // check every TICK_INTERVAL work units) must stay invisible on the
    // hot commit path — within 5% of the ungoverned p50 — and a
    // cross-thread cancel must land promptly, not at round granularity.
    assert!(
        governance.governed_p50_ns <= governance.ungoverned_p50_ns.max(1) * 105 / 100,
        "governed commit p50 {:.2}ms is {:+.1}% vs the {:.2}ms ungoverned p50 \
         (acceptance: <= 5%)",
        governance.governed_p50_ns as f64 / 1e6,
        governance.overhead_pct(),
        governance.ungoverned_p50_ns as f64 / 1e6,
    );
    assert!(
        governance.cancel_p99_ns < 250_000_000,
        "cancel-to-return latency p99 {:.1}ms breaches the 250ms bound",
        governance.cancel_p99_ns as f64 / 1e6,
    );
    println!(
        "acceptance: governed commit p50 {:.2}ms = {:+.1}% vs ungoverned (<= 5%); \
         cancel latency p99 {:.2}ms (< 250ms)",
        governance.governed_p50_ns as f64 / 1e6,
        governance.overhead_pct(),
        governance.cancel_p99_ns as f64 / 1e6,
    );

    // PR 7 acceptance: the full multi-pass analysis of the 200×200 rule
    // set must stay under 5ms on the reference machine — the gate
    // fronts a ~4ms commit and must not dominate it. The CI guard is
    // looser (8ms) to keep slow shared containers from flaking (BENCH_7
    // recorded 4.4ms; runs on this box wobble 4.8–5.9ms) while still
    // catching rot.
    assert!(
        analysis.analyze_ns < 8_000_000,
        "win_grid 200x200 analysis {:.3}ms breaches the 8ms CI guard (target 5ms)",
        analysis.analyze_ns as f64 / 1e6
    );
    assert_eq!(
        analysis.diagnostics, 0,
        "win_grid 200x200 must be diagnostic-free"
    );
    println!(
        "acceptance: win_grid 200x200 full analysis {:.3}ms (target 5ms, guard 8ms), clean",
        analysis.analyze_ns as f64 / 1e6
    );

    // PR 5 acceptance: single-fact assert + re-query ≥ 10× faster than
    // Solver::new + query from scratch, on the honest (fresh-insert)
    // path; the clause-switch path must clear the same bar.
    assert!(
        update.insert_speedup() >= 10.0,
        "insert update latency {:.2}ms is only {:.1}x vs the {:.1}ms rebuild \
         (acceptance: >= 10x)",
        update.insert_p50_ns as f64 / 1e6,
        update.insert_speedup(),
        update.rebuild_ns as f64 / 1e6
    );
    assert!(
        update.reassert_speedup() >= 10.0,
        "reassert update latency {:.2}ms is only {:.1}x vs the {:.1}ms rebuild \
         (acceptance: >= 10x)",
        update.reassert_p50_ns as f64 / 1e6,
        update.reassert_speedup(),
        update.rebuild_ns as f64 / 1e6
    );
    println!(
        "acceptance: single-fact assert + re-query {:.2}ms p50 = {:.1}x vs {:.1}ms \
         rebuild (>= 10x); reassert toggle {:.1}x",
        update.insert_p50_ns as f64 / 1e6,
        update.insert_speedup(),
        update.rebuild_ns as f64 / 1e6,
        update.reassert_speedup(),
    );

    let n1024 = van_gelder.last().expect("sweep nonempty");
    assert_eq!(prop_allocs, 0, "propagator calls must not allocate warm");
    assert_eq!(inc_allocs, 0, "incremental calls must not allocate warm");
    assert!(
        n1024.speedup_vs_scratch() >= 2.0,
        "van_gelder N=1024 incremental speedup {:.2}x below the 2x acceptance bar",
        n1024.speedup_vs_scratch()
    );
    let big_grid = &grid.last().expect("grid sweep nonempty").1;
    // PR 3 acceptance: win_grid 200x200 grounded in <=50ms on the
    // reference machine (BENCH_2: 254ms). The CI guard is looser (120ms)
    // to keep slow containers from flaking while still catching rot.
    assert!(
        big_grid.ground_ns <= 120_000_000,
        "win_grid 200x200 ground time {:.1}ms regressed past the 120ms guard",
        big_grid.ground_ns as f64 / 1e6
    );
    // PR 4 acceptance: ≥1.5× end-to-end on the 600×600 board at 4
    // threads vs 1 thread. Threads cannot beat one core, so the
    // assertion arms only where the host has ≥4 CPUs; elsewhere the
    // numbers are still recorded for the trajectory.
    let speedup_of = |workload: &str| -> Option<f64> {
        let at = |threads: usize| {
            par.iter()
                .find(|p| p.workload == workload && p.threads == threads)
                .map(ParPoint::total_ns)
        };
        Some(at(1)? as f64 / at(4)?.max(1) as f64)
    };
    if let Some(speedup) = speedup_of("win_grid_600x600") {
        if cpus >= 4 {
            assert!(
                speedup >= 1.5,
                "600x600 ground+solve at 4 threads is {speedup:.2}x vs 1 thread, \
                 below the 1.5x acceptance bar on a {cpus}-CPU host"
            );
            println!("acceptance: 600x600 4-thread speedup {speedup:.2}x (>= 1.5x)");
        } else {
            println!(
                "note: 600x600 4-thread speedup {speedup:.2}x recorded on a \
                 {cpus}-CPU host; the 1.5x acceptance bar needs >= 4 CPUs"
            );
        }
    }
    println!(
        "acceptance: van_gelder N=1024 incremental {:.3}ms, {:.2}x vs scratch \
         (>= 2x); win_grid 200x200 ground {:.1}ms (BENCH_2: 254.0ms); zero warm \
         allocations on both paths",
        n1024.wfm_ns as f64 / 1e6,
        n1024.speedup_vs_scratch(),
        big_grid.ground_ns as f64 / 1e6,
    );
}
