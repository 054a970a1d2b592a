//! Quickstart: a session-backed deductive database — load a program,
//! stream query answers, update incrementally, read from snapshots.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use global_sls::prelude::*;

fn main() -> Result<(), SessionError> {
    // The win/move game: a position is won iff some move reaches a lost
    // position. a↔b is a potential draw loop, but b can escape to c.
    let mut session = Session::from_source(
        "
        move(a, b). move(b, a). move(b, c).
        win(X) :- move(X, Y), ~win(Y).
        ",
    )?;
    println!("Program:\n{}", session.program().display(session.store()));

    for q in ["?- win(a).", "?- win(b).", "?- win(c)."] {
        println!("{q}  ⇒  {}", session.truth(q)?);
    }

    // Prepared query: compiled once, streamed per execution.
    let winners = session.prepare("?- win(X).")?;
    println!("\n?- win(X).");
    for ans in winners.execute(&session)? {
        let row = winners.render_answer(&session, &ans);
        println!("  {} for {row}", ans.truth);
    }

    // Incremental update: give c an escape move back to a. Every
    // position now sits on a cycle — the whole board becomes a draw.
    // The commit delta-grounds the new fact and repairs the model on
    // warm fixpoint chains; nothing is rebuilt.
    session.assert_facts("move(c, a).")?;
    println!("\nafter assert move(c, a):");
    for ans in winners.execute(&session)? {
        let row = winners.render_answer(&session, &ans);
        println!("  {} for {row}", ans.truth);
    }
    println!("  win(b)  ⇒  {}", session.truth("?- win(b).")?);

    // Snapshot: an immutable, Send + Sync view of the committed state.
    let snapshot = session.snapshot();

    // Retract the escape move again — the original verdicts return…
    session.retract_facts("move(c, a).")?;
    println!("\nafter retract move(c, a):");
    println!("  live:     win(b)  ⇒  {}", session.truth("?- win(b).")?);
    // …while the snapshot still serves its epoch, from any thread.
    let frozen = session.prepare("?- win(b).")?;
    let handle = {
        let snapshot = snapshot.clone();
        std::thread::spawn(move || {
            let q = frozen;
            q.execute(&snapshot).map(|a| a.collect_result().truth)
        })
    };
    println!(
        "  snapshot: win(b)  ⇒  {} (epoch {})",
        handle.join().expect("reader thread")?,
        snapshot.epoch()
    );
    Ok(())
}
