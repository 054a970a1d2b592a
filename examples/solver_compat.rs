//! The batch-compatibility path, pinned: `parse_program` →
//! `Solver::new` → `query` keeps working exactly as before the
//! [`Session`] redesign, and agrees with a session serving the same
//! program. New code should prefer the session (see `quickstart`); this
//! example exists so the shim's contract stays exercised.
//!
//! ```sh
//! cargo run --example solver_compat
//! ```

use global_sls::prelude::*;

const WINGAME: &str = "move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).";

fn main() -> Result<(), SessionError> {
    // The pre-session flow: caller-owned store, one-shot solver.
    let mut store = TermStore::new();
    let program = parse_program(&mut store, WINGAME).unwrap();
    let mut solver = Solver::new(program);

    let goal = parse_goal(&mut store, "?- win(X).").unwrap();
    let batch = solver.query(&mut store, &goal, Engine::Tabled).unwrap();
    println!("Solver  ?- win(X): truth={}", batch.truth);
    for a in &batch.answers {
        println!("  true for {}", a.display(&store));
    }

    // Both engines answer ground queries identically.
    for q in ["?- win(a).", "?- win(b).", "?- win(c)."] {
        let g = parse_goal(&mut store, q).unwrap();
        let tabled = solver.query(&mut store, &g, Engine::Tabled).unwrap();
        let tree = solver.query(&mut store, &g, Engine::GlobalTree).unwrap();
        assert_eq!(tabled.truth, tree.truth, "{q}");
        println!(
            "Solver  {q}  tabled={} global-tree={}",
            tabled.truth, tree.truth
        );
    }

    // The same program behind a session gives the same answers — the
    // solver is a shim over the session's query machinery.
    let session = Session::from_source(WINGAME)?;
    let live = session.query("?- win(X).")?;
    assert_eq!(live.truth, batch.truth);
    assert_eq!(live.answers.len(), batch.answers.len());
    println!(
        "\nSession ?- win(X): truth={} ({} answer) — shim and session agree.",
        live.truth,
        live.answers.len()
    );
    Ok(())
}
