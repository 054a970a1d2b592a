//! Domain example: full analysis of a combinatorial game board — live.
//!
//! Classifies every position of a game graph as won / lost / drawn by
//! streaming one prepared query over the session's maintained model,
//! then edits the board incrementally and re-classifies. The raw
//! memoized engine's goal-directedness demo rides along (internals).
//!
//! ```sh
//! cargo run --example game_analysis
//! ```

use global_sls::internals::TabledEngine;
use global_sls::prelude::*;
use global_sls::workloads::win_random;

fn classify(session: &Session, q: &PreparedQuery) -> Result<(), SessionError> {
    // One streamed pass: true and undefined instances arrive from the
    // iterator; every other position of the predicate is lost.
    let mut won = Vec::new();
    let mut drawn = Vec::new();
    for ans in q.execute(session)? {
        let name = q.render_answer(session, &ans);
        match ans.truth {
            Truth::True => won.push(name),
            Truth::Undefined => drawn.push(name),
            Truth::False => unreachable!("streams only true/undefined"),
        }
    }
    let gp = session.ground_program();
    let total = gp
        .atom_ids()
        .filter(|&a| gp.display_atom(session.store(), a).starts_with("win("))
        .count();
    println!("  won:   {}", won.join(", "));
    println!("  drawn: {}", drawn.join(", "));
    println!(
        "  lost:  {} of {total} positions",
        total - won.len() - drawn.len()
    );
    Ok(())
}

fn main() -> Result<(), SessionError> {
    let mut store = TermStore::new();
    let program = win_random(&mut store, 24, 2, 7);
    println!("Random game with 24 positions (seed 7):");
    let mut session = Session::from_parts(store, program)?;
    let wins = session.prepare("?- win(X).")?;
    classify(&session, &wins)?;

    // Live edits, each an incremental commit over the same session.
    println!("\nAfter asserting an extra move n0 → n1:");
    session.assert_facts("move(n0, n1).")?;
    classify(&session, &wins)?;
    println!("\nAfter retracting it again:");
    session.retract_facts("move(n0, n1).")?;
    classify(&session, &wins)?;

    // Goal-directedness of the raw memoized engine: two disconnected
    // boards; querying board 1 never evaluates board 2.
    let two_boards = "
        m1(a, b). m1(b, c). w1(X) :- m1(X, Y), ~w1(Y).
        m2(u, v). m2(v, u). w2(X) :- m2(X, Y), ~w2(Y).
    ";
    let mut store = TermStore::new();
    let program = parse_program(&mut store, two_boards).unwrap();
    let gp = Grounder::ground(&mut store, &program).unwrap();
    let total = gp.atom_count();
    let mut engine = TabledEngine::new(gp.clone());
    let w1a = gp
        .atom_ids()
        .find(|&a| gp.display_atom(&store, a) == "w1(a)")
        .unwrap();
    let t = engine.truth(w1a);
    println!(
        "\nTwo disconnected boards ({total} ground atoms total): \
         w1(a) = {t}; evaluated only {} atoms — board 2 untouched.",
        engine.stats().evaluated_atoms
    );
    Ok(())
}
