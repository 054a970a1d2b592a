//! Domain example: a live deductive database over a dependency graph.
//!
//! Transitive closure plus negated reachability — the workload the
//! deductive-database community motivated well-founded negation with —
//! served by a [`Session`]: queries stream from the maintained model,
//! and schema/data changes are incremental commits, not rebuilds.
//!
//! ```sh
//! cargo run --example deductive_db
//! ```

use global_sls::internals::DepGraph;
use global_sls::prelude::*;

const DB: &str = "
    % A small software dependency graph.
    dep(app, libui).    dep(app, libnet).
    dep(libui, libcore). dep(libnet, libcore).
    dep(libcore, alloc).
    module(app). module(libui). module(libnet).
    module(libcore). module(alloc).

    % Transitive dependencies.
    reach(X, Y) :- dep(X, Y).
    reach(X, Z) :- dep(X, Y), reach(Y, Z).

    % A module is a leaf if it depends on nothing.
    depends_on_something(X) :- dep(X, Y), module(Y).
    leaf(X) :- module(X), ~depends_on_something(X).

    % Safe-to-rebuild-independently: modules not reachable from app.
    independent(X) :- module(X), ~reach(app, X), ~eq_app(X).
    eq_app(app).
";

fn show(label: &str, session: &Session, q: &PreparedQuery) -> Result<(), SessionError> {
    let names: Vec<String> = (q.execute(session)?)
        .map(|a| q.render_answer(session, &a))
        .collect();
    println!("{label}: {names:?}");
    Ok(())
}

fn main() -> Result<(), SessionError> {
    let mut session = Session::from_source(DB)?;
    println!(
        "Deductive database:\n{}",
        session.program().display(session.store())
    );
    assert!(DepGraph::from_program(session.program()).is_stratified());

    // Prepared queries over the maintained model.
    let leaves = session.prepare("?- leaf(X).")?;
    let independent = session.prepare("?- independent(X).")?;
    show("?- leaf(X)", &session, &leaves)?;
    show("?- independent(X)", &session, &independent)?;

    // The SLS-resolution baseline agrees (stratified program).
    {
        let mut store = session.store().clone();
        let goal = parse_goal(&mut store, "?- leaf(X).")?;
        let sls = sls_solve(&mut store, session.program(), &goal, SlsOpts::default()).unwrap();
        println!(
            "SLS-resolution, ?- leaf(X): {:?}",
            sls.answers
                .iter()
                .map(|a| a.display(&store))
                .collect::<Vec<_>>()
        );
    }

    // Live updates: a new module lands, depending on alloc…
    println!("\n-- commit: add module(newmod), dep(newmod, alloc) --");
    session.begin()?;
    session.assert_facts("module(newmod). dep(newmod, alloc).")?;
    let stats = session.commit()?;
    println!(
        "   ({} new ground atoms, {} new ground clauses)",
        stats.new_atoms, stats.new_clauses
    );
    show("?- independent(X)", &session, &independent)?;

    // …then app drops its UI dependency: libui's whole cone detaches.
    println!("\n-- commit: retract dep(app, libui) --");
    session.retract_facts("dep(app, libui).")?;
    show("?- independent(X)", &session, &independent)?;

    // Bottom-up baseline: the perfect model (= well-founded model) of
    // the original database, computed from scratch.
    let (gp, pm) = {
        let mut store = TermStore::new();
        let program = parse_program(&mut store, DB)?;
        perfect_model(&mut store, &program).unwrap()
    };
    println!(
        "\nPerfect model is total: {} ({} atoms, {} true).",
        pm.is_total(),
        gp.atom_count(),
        pm.count_true()
    );
    Ok(())
}
