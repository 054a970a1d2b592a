//! The semantics landscape of Section 1 on classic programs:
//! Fitting (Kripke–Kleene) vs well-founded vs stable models — with the
//! session serving the well-founded column live.
//!
//! ```sh
//! cargo run --example semantics_zoo
//! ```

use global_sls::internals::GroundAtomId;
use global_sls::prelude::*;

fn analyse(title: &str, src: &str) {
    let mut store = TermStore::new();
    let program = parse_program(&mut store, src).unwrap();
    // Full instantiation so even underivable atoms show up in the
    // side-by-side model displays.
    let gp = Grounder::ground_with(
        &mut store,
        &program,
        GrounderOpts {
            mode: GroundingMode::Full,
            ..GrounderOpts::default()
        },
    )
    .unwrap();
    println!("── {title}\n{}", program.display(&store));
    let fit = fitting_model(&gp);
    let wfm = well_founded_model(&gp);
    println!("  Fitting:       {}", fit.display(&store, &gp));
    println!("  Well-founded:  {}", wfm.display(&store, &gp));
    let stable = stable_models(&gp, 8);
    if stable.is_empty() {
        println!("  Stable models: none");
    } else {
        for (i, m) in stable.iter().enumerate() {
            let atoms: Vec<String> = m
                .iter()
                .map(|x| gp.display_atom(&store, GroundAtomId(x as u32)))
                .collect();
            println!("  Stable model {}: {{{}}}", i + 1, atoms.join(", "));
        }
    }
    // The served view: a session answers every atom from its maintained
    // model — atoms the relevant grounding never interned are false.
    let session = Session::from_source(src).expect("zoo programs are function-free");
    let served: Vec<String> = gp
        .atom_ids()
        .map(|a| {
            let name = gp.display_atom(&store, a);
            let t = session.truth(&format!("?- {name}.")).expect("ground query");
            format!("{name}={t}")
        })
        .collect();
    println!("  Session reads: {}", served.join(", "));
    println!();
}

fn main() {
    analyse("Positive loop — Fitting can't fail it, WFS can", "p :- p.");
    analyse(
        "Odd loop through negation — no stable model, WFS stays partial",
        "p :- ~p.",
    );
    analyse(
        "Even loop — two stable models, WFS undefined on both atoms",
        "p :- ~q. q :- ~p.",
    );
    analyse(
        "Choice with shared consequence — stable intersection beats WFS",
        "a :- ~b. b :- ~a. c :- a. c :- b.",
    );
    analyse(
        "Stratified — all three semantics coincide",
        "q. p :- ~q. r :- ~p.",
    );
    analyse(
        "Example 3.2 — unfounded positive cycle guarded by negation",
        "p :- q, ~r. q :- r, ~p. r :- p, ~q. s :- ~p, ~q, ~r.",
    );
}
