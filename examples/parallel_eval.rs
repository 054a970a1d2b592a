//! Parallel evaluation: sharded grounding, wavefront SCC solving, and
//! multi-threaded snapshot reads.
//!
//! ```sh
//! GSLS_THREADS=4 cargo run --release --example parallel_eval
//! ```
//!
//! Grounds a win/move grid board with the sharded parallel seed round,
//! solves it with the tabled engine's SCC wavefront at 1 thread and at
//! the `gsls_par::threads()`-resolved count (checking the verdicts
//! agree — the determinism contract of `gsls-par`), then serves the
//! same board from a [`Session`] snapshot on every worker at once:
//! readers share one immutable `Arc`'d state and never block.

use global_sls::internals::TabledEngine;
use global_sls::prelude::*;
use global_sls::workloads::win_grid;
use std::time::Instant;

fn main() {
    let threads = gsls_par::threads();
    let (w, h) = (120, 120);
    println!("board: {w}x{h}, threads: {threads} (GSLS_THREADS overrides)");

    let ground_at = |n: usize| {
        let mut store = TermStore::new();
        let program = win_grid(&mut store, w, h);
        let t = Instant::now();
        let gp = Grounder::ground_with(
            &mut store,
            &program,
            GrounderOpts {
                threads: n,
                ..GrounderOpts::default()
            },
        )
        .expect("board grounds");
        println!(
            "  ground at {n} thread(s): {} atoms, {} clauses in {:.1}ms",
            gp.atom_count(),
            gp.clause_count(),
            t.elapsed().as_secs_f64() * 1e3,
        );
        let win = store.intern_symbol("win");
        let n0 = store.constant("n0");
        let root = gp
            .lookup_atom(&Atom::new(win, vec![n0]))
            .expect("win(n0) interned");
        (gp, root)
    };

    let (gp_seq, root) = ground_at(1);
    let (gp_par, root_par) = ground_at(threads);
    assert_eq!(gp_seq.clause_count(), gp_par.clause_count());
    assert_eq!(root, root_par, "deterministic id assignment");

    let t = Instant::now();
    let mut seq = TabledEngine::new(gp_seq);
    let v_seq = seq.truth(root);
    println!(
        "  solve at 1 thread: win(n0) = {v_seq} in {:.1}ms ({} atoms tabled)",
        t.elapsed().as_secs_f64() * 1e3,
        seq.tabled_count(),
    );

    let t = Instant::now();
    let mut par = TabledEngine::new(gp_par);
    let v_par = par.truth_parallel(root, threads);
    println!(
        "  solve at {threads} thread(s): win(n0) = {v_par} in {:.1}ms ({} atoms tabled)",
        t.elapsed().as_secs_f64() * 1e3,
        par.tabled_count(),
    );
    assert_eq!(v_seq, v_par, "thread count must not change verdicts");
    println!("verdicts agree — determinism contract holds");

    // ---- Snapshot reads: one immutable state, many reader threads. ----
    let mut store = TermStore::new();
    let program = win_grid(&mut store, w, h);
    let mut session = Session::from_parts(store, program).expect("board is function-free");
    let snapshot = session.snapshot();
    let queries = 2_000usize;
    let atoms: Vec<Atom> = {
        // A store of our own to intern into: the clone shares every
        // chunk with the snapshot and copies only what it writes.
        let mut s = snapshot.store().clone();
        (0..queries)
            .map(|i| {
                let win = s.intern_symbol("win");
                let node = s.constant(&format!("n{}", i % (w * h)));
                Atom::new(win, vec![node])
            })
            .collect()
    };
    let t = Instant::now();
    let verdicts = gsls_par::par_map(threads, queries, |i| snapshot.truth_of_atom(&atoms[i]));
    let secs = t.elapsed().as_secs_f64();
    let won = verdicts.iter().filter(|&&v| v == Truth::True).count();
    println!(
        "  snapshot reads: {queries} point queries on {threads} thread(s) in {:.1}ms \
         ({:.0} q/s; {won} won)",
        secs * 1e3,
        queries as f64 / secs,
    );
    assert_eq!(verdicts[0], v_seq, "snapshot agrees with the engines");
}
