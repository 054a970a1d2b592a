//! Examples 3.2 and 3.3: why the computation rule must be preferential.
//!
//! ```sh
//! cargo run --example computation_rules
//! ```

use global_sls::internals::{deviant_evaluate, DeviantOpts, RuleKind};
use global_sls::prelude::*;

fn main() -> Result<(), SessionError> {
    let mut store = TermStore::new();

    // ---- Example 3.2: positivistic selection is required. -------------
    let ex32 = "p :- q, ~r. q :- r, ~p. r :- p, ~q. s :- ~p, ~q, ~r.";
    let program = parse_program(&mut store, ex32).unwrap();
    println!("Example 3.2:\n{}", program.display(&store));
    println!("Well-founded model: {{s, ~p, ~q, ~r}} — so ← s should succeed.\n");
    let goal = parse_goal(&mut store, "?- s.").unwrap();
    for rule in [RuleKind::Preferential, RuleKind::LeftmostLiteral] {
        let v = deviant_evaluate(&mut store, &program, &goal, rule, DeviantOpts::default());
        println!("  {rule:?}: ← s is {v:?}");
    }
    println!(
        "  The non-positivistic rule expands a negative literal into the p/q/r\n\
         \x20 cycle and recurses through negation forever.\n"
    );

    // ---- Example 3.3: negatively-parallel expansion is required. ------
    let ex33 = "p :- ~p. q :- ~p, ~s. s.";
    let program = parse_program(&mut store, ex33).unwrap();
    println!(
        "Example 3.3 (function-free analogue):\n{}",
        program.display(&store)
    );
    println!("Well-founded model: {{s, ~q}} with p undefined — so ← q should fail.\n");
    let goal = parse_goal(&mut store, "?- q.").unwrap();
    for rule in [RuleKind::Preferential, RuleKind::SequentialNegative] {
        let v = deviant_evaluate(&mut store, &program, &goal, rule, DeviantOpts::default());
        println!("  {rule:?}: ← q is {v:?}");
    }
    println!(
        "  The sequential rule gets stuck on the undefined ¬p and never looks at\n\
         \x20 the failing ¬s; expanding both in parallel fails q immediately."
    );

    // Cross-check with the session's maintained bottom-up model.
    let session = Session::from_source(ex33)?;
    println!(
        "\nSession reads on Example 3.3: p={}, q={}, s={}",
        session.truth("?- p.")?,
        session.truth("?- q.")?,
        session.truth("?- s.")?,
    );
    Ok(())
}
