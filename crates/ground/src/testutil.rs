//! Shared helpers for tests across the workspace.
//!
//! Before this module existed, ten near-identical copies of the
//! find-atom-by-text helper lived in the unit tests of `gsls-wfs` and
//! `gsls-core`. Tests in any crate that depends on `gsls-ground` should
//! use these instead of re-rolling them.

use crate::program::{GroundAtomId, GroundProgram};
use gsls_lang::TermStore;

/// Finds a ground atom by its rendered source text (e.g. `"win(n3)"`),
/// scanning the interned atom table.
///
/// # Panics
/// Panics with `atom {text} not found` if no interned atom renders to
/// `text` — the right behaviour for a test helper. Production code
/// should parse the text and use [`GroundProgram::lookup_atom`].
pub fn atom_id(store: &TermStore, gp: &GroundProgram, text: &str) -> GroundAtomId {
    gp.atom_ids()
        .find(|&a| gp.display_atom(store, a) == text)
        .unwrap_or_else(|| panic!("atom {text} not found"))
}

/// The clause multiset of a ground program as sorted rendered lines —
/// the clause-set identity used by the planned-vs-naive differential
/// oracles (atom ids may be assigned in a different order by different
/// join strategies, so id-level comparison would be wrong).
pub fn sorted_clauses(store: &TermStore, gp: &GroundProgram) -> Vec<String> {
    let mut lines: Vec<String> = gp.display(store).lines().map(str::to_owned).collect();
    lines.sort();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounder::Grounder;
    use gsls_lang::parse_program;

    #[test]
    fn finds_by_rendered_text() {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "p(a). q :- p(a).").unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        let a = atom_id(&s, &gp, "p(a)");
        assert_eq!(gp.display_atom(&s, a), "p(a)");
    }

    #[test]
    #[should_panic(expected = "atom nope not found")]
    fn panics_on_unknown_atom() {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "p(a).").unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        let _ = atom_id(&s, &gp, "nope");
    }
}
