//! Win/move game generators.
//!
//! `win(X) ← move(X, Y), ¬win(Y)` over various board graphs. The game is
//! the canonical workload for the well-founded semantics: positions with
//! a move to a lost position are won, positions whose moves all reach won
//! positions are lost, and positions caught in drawing cycles are
//! *undefined* — exactly the three truth values.

use crate::prng::SplitMix64;
use gsls_lang::{Atom, Clause, Literal, Program, TermStore};

/// Builds the game program over explicit move edges `(from, to)`,
/// numbering positions `n0, n1, …`.
pub fn win_game(store: &mut TermStore, edges: &[(usize, usize)]) -> Program {
    let mv = store.intern_symbol("move");
    let win = store.intern_symbol("win");
    let mut prog = Program::new();
    for &(a, b) in edges {
        let ta = store.constant(&format!("n{a}"));
        let tb = store.constant(&format!("n{b}"));
        prog.push(Clause::fact(Atom::new(mv, vec![ta, tb])));
    }
    let x = store.fresh_var(Some("X"));
    let y = store.fresh_var(Some("Y"));
    prog.push(Clause::new(
        Atom::new(win, vec![x]),
        vec![
            Literal::pos(Atom::new(mv, vec![x, y])),
            Literal::neg(Atom::new(win, vec![y])),
        ],
    ));
    prog
}

/// A chain `n0 → n1 → … → n(n−1)`: win/lose alternates from the dead end,
/// every position defined. `n` is the number of positions.
pub fn win_chain(store: &mut TermStore, n: usize) -> Program {
    let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    win_game(store, &edges)
}

/// A cycle over `n` positions: every position is a draw (undefined) when
/// `n` is even; odd cycles are undefined too (no escape).
pub fn win_cycle(store: &mut TermStore, n: usize) -> Program {
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    win_game(store, &edges)
}

/// A complete binary tree of depth `depth` with edges toward the leaves;
/// positions: `2^(depth+1) − 1`.
pub fn win_tree(store: &mut TermStore, depth: u32) -> Program {
    let mut edges = Vec::new();
    let internal = (1usize << depth) - 1;
    for i in 0..internal {
        edges.push((i, 2 * i + 1));
        edges.push((i, 2 * i + 2));
    }
    win_game(store, &edges)
}

/// A `w × h` grid board — the ROADMAP's 10^5-atom-class win/move
/// workload (positions plus move facts ground to roughly `3·w·h`
/// atoms, so `w = h = 200` already exceeds 10^5).
///
/// Structure, chosen so all three truth values are guaranteed at every
/// scale and the alternating fixpoint needs many delta-sized rounds
/// (the shape the difference-driven restarts exist for):
///
/// * every position moves right and down — long alternation chains
///   radiating from the bottom-right corner, which is the unique
///   terminal (lost) position, so its row neighbour is won;
/// * every row `j ≡ 1 (mod 3)` except the last also moves left,
///   creating local cycles (the last row must stay cycle-free or the
///   corner gains an escape, no position is ever terminal, and the
///   whole board degenerates to undefined in two rounds);
/// * each cycle row exits on the right into a dedicated two-position
///   **draw pocket** (`a ↔ b` with no other moves), whose positions are
///   undefined in the well-founded model.
pub fn win_grid(store: &mut TermStore, w: usize, h: usize) -> Program {
    assert!(w >= 2 && h >= 2, "grid must be at least 2×2");
    let id = |i: usize, j: usize| j * w + i;
    let mut edges = Vec::new();
    let mut next_pocket = w * h;
    for j in 0..h {
        for i in 0..w {
            if i + 1 < w {
                edges.push((id(i, j), id(i + 1, j)));
            }
            if j + 1 < h {
                edges.push((id(i, j), id(i, j + 1)));
            }
            if j % 3 == 1 && j + 1 < h {
                if i > 0 {
                    edges.push((id(i, j), id(i - 1, j)));
                }
                if i + 1 == w {
                    let (a, b) = (next_pocket, next_pocket + 1);
                    next_pocket += 2;
                    edges.push((id(i, j), a));
                    edges.push((a, b));
                    edges.push((b, a));
                }
            }
        }
    }
    win_game(store, &edges)
}

/// A random game graph: `n` positions, each with out-degree sampled from
/// `0..=max_degree` (degree 0 makes lost positions, cycles make draws).
pub fn win_random(store: &mut TermStore, n: usize, max_degree: usize, seed: u64) -> Program {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::new();
    for i in 0..n {
        let deg = rng.below(max_degree + 1);
        for _ in 0..deg {
            let j = rng.below(n);
            edges.push((i, j));
        }
    }
    win_game(store, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsls_ground::Grounder;
    use gsls_wfs::{well_founded_model, Truth};

    fn truth_of(store: &TermStore, prog: &Program, name: &str) -> Truth {
        let mut s2 = store.clone();
        let gp = Grounder::ground(&mut s2, prog).unwrap();
        let m = well_founded_model(&gp);
        let a = gp
            .atom_ids()
            .find(|&a| gp.display_atom(&s2, a) == name)
            .unwrap_or_else(|| panic!("{name} missing"));
        m.truth(a)
    }

    #[test]
    fn chain_alternates() {
        let mut s = TermStore::new();
        let p = win_chain(&mut s, 4); // n0→n1→n2→n3
        assert_eq!(truth_of(&s, &p, "win(n3)"), Truth::False);
        assert_eq!(truth_of(&s, &p, "win(n2)"), Truth::True);
        assert_eq!(truth_of(&s, &p, "win(n1)"), Truth::False);
        assert_eq!(truth_of(&s, &p, "win(n0)"), Truth::True);
    }

    #[test]
    fn cycle_all_draws() {
        let mut s = TermStore::new();
        let p = win_cycle(&mut s, 3);
        for i in 0..3 {
            assert_eq!(truth_of(&s, &p, &format!("win(n{i})")), Truth::Undefined);
        }
    }

    #[test]
    fn tree_root_wins() {
        // Leaves lose (no moves); internal nodes above leaves win; root
        // of depth 2: children win ⇒ root... all moves reach winning
        // positions ⇒ root loses; depth 1: root wins.
        let mut s = TermStore::new();
        let p = win_tree(&mut s, 1);
        assert_eq!(truth_of(&s, &p, "win(n0)"), Truth::True);
        let mut s2 = TermStore::new();
        let p2 = win_tree(&mut s2, 2);
        assert_eq!(truth_of(&s2, &p2, "win(n0)"), Truth::False);
    }

    #[test]
    fn grid_has_all_three_truth_values() {
        let w = 4;
        let h = 4;
        let mut s = TermStore::new();
        let p = win_grid(&mut s, w, h);
        // Bottom-right corner (3,3) = n15 is the unique terminal: lost.
        assert_eq!(truth_of(&s, &p, "win(n15)"), Truth::False);
        // Its row neighbour moves into it: won.
        assert_eq!(truth_of(&s, &p, "win(n14)"), Truth::True);
        // The cycle row (j = 1) exits into the draw pocket n16 ↔ n17.
        assert_eq!(truth_of(&s, &p, "win(n16)"), Truth::Undefined);
        assert_eq!(truth_of(&s, &p, "win(n17)"), Truth::Undefined);
        // A height whose last row would be a cycle row (4 ≡ 1 mod 3)
        // must still keep the corner terminal, hence lost.
        let mut s2 = TermStore::new();
        let p2 = win_grid(&mut s2, 4, 5);
        assert_eq!(truth_of(&s2, &p2, "win(n19)"), Truth::False);
    }

    #[test]
    fn grid_scales_to_roadmap_sizes() {
        // Clause count only — actually grounding 10^5 atoms is the perf
        // harness's job, not a unit test's.
        let mut s = TermStore::new();
        let p = win_grid(&mut s, 10, 10);
        // ~2 edges per position + cycle rows + pockets + 1 rule.
        assert!(p.len() > 2 * 10 * 10);
        let mut s2 = TermStore::new();
        let p2 = win_grid(&mut s2, 20, 10);
        assert!(p2.len() > 2 * p.len() - 40, "clauses scale with area");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut s1 = TermStore::new();
        let p1 = win_random(&mut s1, 20, 3, 42);
        let mut s2 = TermStore::new();
        let p2 = win_random(&mut s2, 20, 3, 42);
        assert_eq!(p1.display(&s1), p2.display(&s2));
        let mut s3 = TermStore::new();
        let p3 = win_random(&mut s3, 20, 3, 43);
        assert_ne!(p1.display(&s1), p3.display(&s3));
    }

    #[test]
    fn sizes_scale() {
        let mut s = TermStore::new();
        let p = win_chain(&mut s, 100);
        assert_eq!(p.len(), 100); // 99 edges + 1 rule
        let t = win_tree(&mut s, 3);
        assert_eq!(t.len(), 2 * ((1 << 3) - 1) + 1);
    }
}
