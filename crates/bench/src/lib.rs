//! Shared helpers for the `perf_report` bin. (The end-to-end and
//! per-layer benchmark lives in the repo-root `benchmark/` workspace,
//! not here.)

use gsls_ground::{GroundAtomId, GroundProgram, Grounder};
use gsls_lang::{parse_goal, Program, TermStore};

/// Grounds a program with default options, panicking on budget failure
/// (report workloads are sized to fit).
pub fn ground(store: &mut TermStore, program: &Program) -> GroundProgram {
    Grounder::ground(store, program).expect("bench workload grounds")
}

/// Finds a ground atom by its source text: parses the atom and does one
/// interning-table lookup, instead of rendering every interned atom.
pub fn atom_named(store: &mut TermStore, gp: &GroundProgram, name: &str) -> GroundAtomId {
    let goal = parse_goal(store, &format!("?- {name}."))
        .unwrap_or_else(|e| panic!("atom {name} does not parse: {e}"));
    let atom = &goal.literals()[0].atom;
    gp.lookup_atom(atom)
        .unwrap_or_else(|| panic!("atom {name} not found"))
}

/// Standard sweep sizes for the scaling reports.
pub const SWEEP: &[usize] = &[16, 64, 256, 1024];

#[cfg(test)]
mod tests {
    use super::*;
    use gsls_lang::parse_program;

    #[test]
    fn helpers_work() {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "p(a).").unwrap();
        let gp = ground(&mut s, &p);
        let a = atom_named(&mut s, &gp, "p(a)");
        assert_eq!(gp.display_atom(&s, a), "p(a)");
    }

    #[test]
    #[should_panic(expected = "not found")]
    fn atom_named_rejects_unknown() {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "p(a).").unwrap();
        let gp = ground(&mut s, &p);
        let _ = atom_named(&mut s, &gp, "p(zzz)");
    }
}
