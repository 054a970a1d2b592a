//! Dependency graphs, SCCs, stratification and acyclicity.
//!
//! Section 7 of the paper distinguishes program classes by how goals can
//! recurse: **stratified** / **locally stratified** programs (no recursion
//! through negation at the predicate / ground-atom level), **acyclic**
//! programs (no recursion at all in the ground atom graph — where plain
//! global SLS-resolution is effective), and general programs (where the
//! memoized engine is needed). This module implements the analyses.

use crate::program::GroundProgram;
use gsls_lang::{FxHashMap, Pred, Program, Sign};

/// A syntactic class of normal programs, ordered from most to least
/// restrictive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramClass {
    /// No negative body literals at all.
    Definite,
    /// Negation never occurs inside a predicate-level recursive component.
    Stratified,
    /// Negation never occurs inside a ground-atom-level recursive
    /// component (checked on the grounded program).
    LocallyStratified,
    /// Anything else; the well-founded model may have undefined atoms.
    General,
}

/// Generic iterative Tarjan SCC.
///
/// `adj[v]` lists successors of `v`. Returns components in reverse
/// topological order (every edge goes from a later component to an earlier
/// one or stays inside a component).
pub fn sccs(adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let n = adj.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut out: Vec<Vec<u32>> = Vec::new();

    // Explicit DFS stack: (node, next-successor-position).
    let mut call: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != u32::MAX {
            continue;
        }
        call.push((root, 0));
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if *pos < adj[v as usize].len() {
                let w = adj[v as usize][*pos];
                *pos += 1;
                if index[w as usize] == u32::MAX {
                    index[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent as usize] = low[parent as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.push(comp);
                }
            }
        }
    }
    out
}

/// The predicate-level dependency graph of a program.
///
/// There is an edge `p → q` (with a sign) whenever some clause with head
/// predicate `p` has a body literal with predicate `q`.
#[derive(Debug, Clone)]
pub struct DepGraph {
    preds: Vec<Pred>,
    /// `edges[p]` = list of `(q, sign)`.
    edges: Vec<Vec<(u32, Sign)>>,
}

impl DepGraph {
    /// Builds the dependency graph of `program`.
    pub fn from_program(program: &Program) -> Self {
        let preds = program.predicates();
        let mut ids = FxHashMap::default();
        for (i, &p) in preds.iter().enumerate() {
            ids.insert(p, i as u32);
        }
        let mut edges = vec![Vec::new(); preds.len()];
        for c in program.clauses() {
            let h = ids[&c.head.pred_id()];

            for l in &c.body {
                let b = ids[&l.atom.pred_id()];
                let e = (b, l.sign);
                if !edges[h as usize].contains(&e) {
                    edges[h as usize].push(e);
                }
            }
        }
        DepGraph { preds, edges }
    }

    /// The predicates of the graph.
    pub fn preds(&self) -> &[Pred] {
        &self.preds
    }

    /// SCCs of the graph in reverse topological order.
    pub fn sccs(&self) -> Vec<Vec<Pred>> {
        let adj: Vec<Vec<u32>> = self
            .edges
            .iter()
            .map(|es| es.iter().map(|&(q, _)| q).collect())
            .collect();
        sccs(&adj)
            .into_iter()
            .map(|comp| comp.into_iter().map(|i| self.preds[i as usize]).collect())
            .collect()
    }

    /// Whether the program is stratified: no negative edge inside any SCC
    /// of the predicate dependency graph.
    pub fn is_stratified(&self) -> bool {
        self.strata().is_some()
    }

    /// Computes the minimal stratification `pred → stratum` if one exists.
    ///
    /// Constraints: `stratum(p) ≥ stratum(q)` for positive edges `p → q`,
    /// `stratum(p) > stratum(q)` for negative edges. Returns `None` when a
    /// cycle through negation makes this impossible.
    pub fn strata(&self) -> Option<FxHashMap<Pred, u32>> {
        let n = self.preds.len();
        let mut stratum = vec![0u32; n];
        // Bellman-Ford style relaxation; more than n·n relaxations in
        // total means a negative-edge cycle.
        for _round in 0..=n {
            let mut changed = false;
            for p in 0..n {
                for &(q, sign) in &self.edges[p] {
                    let need = match sign {
                        Sign::Pos => stratum[q as usize],
                        Sign::Neg => stratum[q as usize] + 1,
                    };
                    if stratum[p] < need {
                        stratum[p] = need;
                        changed = true;
                    }
                }
            }
            if !changed {
                let mut out = FxHashMap::default();
                for (i, &p) in self.preds.iter().enumerate() {
                    out.insert(p, stratum[i]);
                }
                return Some(out);
            }
        }
        None
    }

    /// A witness cycle through negation, when one exists: a sequence
    /// `[(p₀, s₀), (p₁, s₁), …, (pₖ, sₖ)]` where the edge
    /// `pᵢ →(sᵢ) pᵢ₊₁` exists for every `i` (indices mod `k+1`, so the
    /// last edge closes the cycle back to `p₀`) and at least one sign
    /// is negative. Such a cycle is exactly what makes [`DepGraph::strata`]
    /// fail; diagnostics render it as `p → not q → p`. Returns `None`
    /// for stratified programs.
    pub fn negative_cycle_witness(&self) -> Option<Vec<(Pred, Sign)>> {
        let adj: Vec<Vec<u32>> = self
            .edges
            .iter()
            .map(|es| es.iter().map(|&(q, _)| q).collect())
            .collect();
        let comps = sccs(&adj);
        let mut comp_of = vec![0u32; self.preds.len()];
        for (ci, comp) in comps.iter().enumerate() {
            for &v in comp {
                comp_of[v as usize] = ci as u32;
            }
        }
        for u in 0..self.preds.len() {
            for &(v, sign) in &self.edges[u] {
                if sign == Sign::Neg && comp_of[u] == comp_of[v as usize] {
                    let mut out = vec![(self.preds[u], Sign::Neg)];
                    out.extend(self.path_within(&comp_of, v, u as u32));
                    return Some(out);
                }
            }
        }
        None
    }

    /// BFS path `from → … → to` staying inside `from`'s SCC, as
    /// `(pred, sign-of-edge-to-next)` pairs; empty when `from == to`.
    /// Both endpoints must share an SCC (callers guarantee this), so
    /// the path always exists.
    fn path_within(&self, comp_of: &[u32], from: u32, to: u32) -> Vec<(Pred, Sign)> {
        if from == to {
            return Vec::new();
        }
        let comp = comp_of[from as usize];
        let mut prev: Vec<Option<(u32, Sign)>> = vec![None; self.preds.len()];
        let mut queue = std::collections::VecDeque::from([from]);
        'bfs: while let Some(u) = queue.pop_front() {
            for &(v, sign) in &self.edges[u as usize] {
                if comp_of[v as usize] != comp || v == from || prev[v as usize].is_some() {
                    continue;
                }
                prev[v as usize] = Some((u, sign));
                if v == to {
                    break 'bfs;
                }
                queue.push_back(v);
            }
        }
        // Walk back to `from`, collecting (node, sign of node → next).
        let mut rev: Vec<(Pred, Sign)> = Vec::new();
        let mut at = to;
        while at != from {
            let (p, sign) = prev[at as usize].expect("endpoints share an SCC");
            rev.push((self.preds[p as usize], sign));
            at = p;
        }
        rev.reverse();
        rev
    }

    /// Classifies the program at the predicate level.
    pub fn classify(&self, program: &Program) -> ProgramClass {
        if program.is_definite() {
            ProgramClass::Definite
        } else if self.is_stratified() {
            ProgramClass::Stratified
        } else {
            ProgramClass::General
        }
    }
}

/// The ground-atom-level dependency graph of a [`GroundProgram`].
#[derive(Debug, Clone)]
pub struct AtomDepGraph {
    /// `pos[a]` = atoms occurring positively in bodies of rules for `a`.
    pos: Vec<Vec<u32>>,
    /// `neg[a]` = atoms occurring negatively.
    neg: Vec<Vec<u32>>,
}

impl AtomDepGraph {
    /// Builds the atom dependency graph.
    pub fn from_ground(gp: &GroundProgram) -> Self {
        let n = gp.atom_count();
        let mut pos = vec![Vec::new(); n];
        let mut neg = vec![Vec::new(); n];
        for c in gp.clauses() {
            for &p in c.pos.iter() {
                if !pos[c.head.index()].contains(&p.0) {
                    pos[c.head.index()].push(p.0);
                }
            }
            for &q in c.neg.iter() {
                if !neg[c.head.index()].contains(&q.0) {
                    neg[c.head.index()].push(q.0);
                }
            }
        }
        AtomDepGraph { pos, neg }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether the graph has no atoms.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    fn combined_adj(&self) -> Vec<Vec<u32>> {
        self.pos
            .iter()
            .zip(&self.neg)
            .map(|(p, n)| {
                let mut v = p.clone();
                v.extend_from_slice(n);
                v
            })
            .collect()
    }

    /// SCCs over both positive and negative edges, reverse topological.
    pub fn sccs(&self) -> Vec<Vec<u32>> {
        sccs(&self.combined_adj())
    }

    /// Whether the grounded program is **locally stratified**: no cycle
    /// through a negative edge in the atom dependency graph.
    pub fn is_locally_stratified(&self) -> bool {
        let comps = self.sccs();
        let mut comp_of = vec![0u32; self.len()];
        for (ci, comp) in comps.iter().enumerate() {
            for &a in comp {
                comp_of[a as usize] = ci as u32;
            }
        }
        for (a, negs) in self.neg.iter().enumerate() {
            for &b in negs {
                if comp_of[a] == comp_of[b as usize] {
                    return false;
                }
            }
        }
        true
    }

    /// Whether the grounded program is **acyclic**: the atom dependency
    /// graph (all edges) has no cycle. Plain global SLS-resolution is
    /// effective exactly on such (depth-bounded) programs (Sec. 7).
    pub fn is_acyclic(&self) -> bool {
        let adj = self.combined_adj();
        let comps = sccs(&adj);
        comps.iter().all(|c| c.len() == 1)
            && adj
                .iter()
                .enumerate()
                .all(|(a, succ)| !succ.contains(&(a as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounder::Grounder;
    use gsls_lang::{parse_program, TermStore};

    fn dep(src: &str) -> (TermStore, Program, DepGraph) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let g = DepGraph::from_program(&p);
        (s, p, g)
    }

    fn atom_graph(src: &str) -> AtomDepGraph {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        AtomDepGraph::from_ground(&gp)
    }

    fn atom_graph_full(src: &str) -> AtomDepGraph {
        use crate::grounder::{GrounderOpts, GroundingMode};
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let gp = Grounder::ground_with(
            &mut s,
            &p,
            GrounderOpts {
                mode: GroundingMode::Full,
                ..GrounderOpts::default()
            },
        )
        .unwrap();
        AtomDepGraph::from_ground(&gp)
    }

    #[test]
    fn sccs_of_simple_cycle() {
        // 0 -> 1 -> 2 -> 0, 3 isolated
        let adj = vec![vec![1], vec![2], vec![0], vec![]];
        let comps = sccs(&adj);
        assert_eq!(comps.len(), 2);
        let big = comps.iter().find(|c| c.len() == 3).unwrap();
        let mut sorted = big.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn sccs_reverse_topological() {
        // 0 -> 1, no cycles: component of 1 must come before component of 0.
        let adj = vec![vec![1], vec![]];
        let comps = sccs(&adj);
        assert_eq!(comps, vec![vec![1], vec![0]]);
    }

    #[test]
    fn sccs_large_chain_no_overflow() {
        // Deep chain exercises the iterative DFS.
        let n = 200_000;
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                if i + 1 < n {
                    vec![(i + 1) as u32]
                } else {
                    vec![]
                }
            })
            .collect();
        let comps = sccs(&adj);
        assert_eq!(comps.len(), n);
    }

    #[test]
    fn stratified_program_detected() {
        let (_, p, g) = dep("r(a). q(X) :- r(X). p(X) :- ~q(X), r(X).");
        assert!(g.is_stratified());
        assert_eq!(g.classify(&p), ProgramClass::Stratified);
        let strata = g.strata().unwrap();
        let by_name: FxHashMap<u32, u32> = FxHashMap::default();
        drop(by_name);
        // p must sit strictly above q.
        let preds = g.preds().to_vec();
        let find = |name: &str, s: &TermStore| {
            preds
                .iter()
                .find(|pr| s.symbol_name(pr.sym) == name)
                .copied()
                .unwrap()
        };
        let mut s = TermStore::new();
        let _ = parse_program(&mut s, "r(a). q(X) :- r(X). p(X) :- ~q(X), r(X).").unwrap();
        let pp = find("p", &s);
        let qq = find("q", &s);
        assert!(strata[&pp] > strata[&qq]);
    }

    #[test]
    fn win_game_not_stratified() {
        let (_, p, g) = dep("move(a, b). win(X) :- move(X, Y), ~win(Y).");
        assert!(!g.is_stratified());
        assert_eq!(g.classify(&p), ProgramClass::General);
        assert!(g.strata().is_none());
    }

    #[test]
    fn witness_self_loop() {
        let (s, _, g) = dep("move(a, b). win(X) :- move(X, Y), ~win(Y).");
        let w = g.negative_cycle_witness().unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(s.symbol_name(w[0].0.sym), "win");
        assert_eq!(w[0].1, Sign::Neg);
    }

    #[test]
    fn witness_two_step_cycle() {
        // p → not q → p: the negative edge plus the positive closure.
        let (s, _, g) = dep("p(X) :- d(X), ~q(X). q(X) :- p(X). d(a).");
        let w = g.negative_cycle_witness().unwrap();
        assert_eq!(w.len(), 2);
        let names: Vec<&str> = w.iter().map(|(p, _)| s.symbol_name(p.sym)).collect();
        // Cycle may be reported from either entry point; both name p and q.
        assert!(names.contains(&"p") && names.contains(&"q"), "{names:?}");
        assert!(w.iter().any(|&(_, s)| s == Sign::Neg));
        // Every listed edge must exist: walk the cycle and check the next
        // pred is reachable by an edge of the recorded sign.
        for i in 0..w.len() {
            let (from, sign) = w[i];
            let (to, _) = w[(i + 1) % w.len()];
            let fi = g.preds().iter().position(|&p| p == from).unwrap();
            assert!(
                g.edges[fi]
                    .iter()
                    .any(|&(q, s)| { g.preds()[q as usize] == to && s == sign }),
                "missing edge {from:?} →{sign:?} {to:?}"
            );
        }
    }

    #[test]
    fn witness_none_when_stratified() {
        let (_, _, g) = dep("r(a). q(X) :- r(X). p(X) :- ~q(X), r(X).");
        assert!(g.negative_cycle_witness().is_none());
    }

    #[test]
    fn definite_program_classified() {
        let (_, p, g) = dep("e(a, b). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).");
        assert_eq!(g.classify(&p), ProgramClass::Definite);
        assert!(g.is_stratified(), "definite implies stratified");
    }

    #[test]
    fn positive_recursion_is_stratified() {
        let (_, _, g) = dep("p(X) :- q(X). q(X) :- p(X). r(X) :- ~p(X), d(X). d(a).");
        assert!(g.is_stratified());
    }

    #[test]
    fn locally_stratified_but_not_stratified() {
        // even/odd over a finite chain: predicate-level cycle through
        // negation, but ground-level acyclic.
        let src = "num(0). num(s(0)). num(s(s(0))).
                   even(0).
                   even(s(X)) :- num(X), ~even(X).";
        let (_, _, g) = dep(src);
        assert!(!g.is_stratified());
        let ag = atom_graph(src);
        assert!(ag.is_locally_stratified());
    }

    #[test]
    fn win_cycle_not_locally_stratified() {
        let ag = atom_graph("move(a, b). move(b, a). win(X) :- move(X, Y), ~win(Y).");
        assert!(!ag.is_locally_stratified());
        assert!(!ag.is_acyclic());
    }

    #[test]
    fn acyclic_ground_program() {
        let ag = atom_graph("p :- ~q, r. q :- s. r. s.");
        assert!(ag.is_acyclic());
        assert!(ag.is_locally_stratified());
    }

    #[test]
    fn positive_self_loop_not_acyclic_but_locally_stratified() {
        // Relevant grounding prunes `p :- p.` entirely (p is not in the
        // positive closure); the Full instantiation keeps the loop.
        let ag = atom_graph("p :- p.");
        assert!(ag.is_acyclic(), "relevant grounding prunes the loop");
        let ag_full = atom_graph_full("p :- p.");
        assert!(!ag_full.is_acyclic());
        assert!(ag_full.is_locally_stratified());
    }

    #[test]
    fn empty_program_graphs() {
        let (_, _, g) = dep("");
        assert!(g.is_stratified());
        assert!(g.sccs().is_empty());
        let ag = atom_graph("");
        assert!(ag.is_acyclic());
        assert!(ag.is_empty());
    }
}
