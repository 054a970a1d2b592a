//! Global trees and global SLS-resolution (Def. 3.3 – 3.5).
//!
//! A global tree alternates three node types:
//!
//! * **tree nodes** — SLP-trees for intermediate goals; the root tree
//!   node holds the query, internal tree nodes hold single ground atoms;
//! * **negation nodes** — one per active leaf of a tree node, with one
//!   child per negated subgoal of the leaf (expanded *in parallel*);
//! * **nonground nodes** — children standing for nonground negative
//!   subgoals; they flounder.
//!
//! Identical ground subgoals share one tree node (the status of a tree
//! node depends only on its descendants — Sec. 4 makes this observation —
//! so sharing is semantics-preserving), which turns the "tree" into a
//! graph whose back-edges are precisely the recursions through negation.
//! Statuses are then assigned by a least fixpoint of the Def. 3.3 rules:
//! nodes never determined by the fixpoint are **indeterminate**, exactly
//! the goals on which ideal global SLS-resolution would recurse through
//! infinitely many negation nodes. Levels are computed afterwards by the
//! same rules read as ordinal equations.
//!
//! With the ground loop check of [`crate::slp`] pruning infinite positive
//! branches, this construction is effective (and agrees with the
//! well-founded model — tested extensively) for function-free programs;
//! with function symbols, budgets bound the search and unresolved regions
//! surface as indeterminate-by-budget.

use crate::ordinal::Ordinal;
use crate::slp::{SlpOpts, SlpTree};
use gsls_lang::{Atom, FxHashMap, Goal, Literal, Program, Subst, TermStore};
use gsls_wfs::Truth;

/// Budgets and options for global-tree construction.
#[derive(Debug, Clone, Copy)]
pub struct GlobalOpts {
    /// SLP-tree budgets (per tree node).
    pub slp: SlpOpts,
    /// Maximum depth of negation nesting explored.
    pub max_neg_depth: u32,
    /// Maximum number of tree nodes in the global tree.
    pub max_tree_nodes: usize,
}

impl Default for GlobalOpts {
    fn default() -> Self {
        GlobalOpts {
            slp: SlpOpts::default(),
            max_neg_depth: 512,
            max_tree_nodes: 100_000,
        }
    }
}

/// The determination status of a node (Def. 3.3, rule 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Proved successful.
    Successful,
    /// Proved failed.
    Failed,
    /// Proved floundered.
    Floundered,
    /// Not well determined (possibly by budget).
    Indeterminate,
}

/// Status flags — a tree node may be *both* successful and floundered
/// (remark after Def. 3.4), so statuses are not mutually exclusive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusFlags {
    /// Proved successful.
    pub successful: bool,
    /// Proved failed.
    pub failed: bool,
    /// Proved floundered.
    pub floundered: bool,
}

impl StatusFlags {
    /// Whether any status was proved.
    pub fn well_determined(self) -> bool {
        self.successful || self.failed || self.floundered
    }

    /// The primary status (successful/failed win over floundered; matches
    /// the paper's usage when reporting a single verdict).
    pub fn primary(self) -> Status {
        if self.successful {
            Status::Successful
        } else if self.failed {
            Status::Failed
        } else if self.floundered {
            Status::Floundered
        } else {
            Status::Indeterminate
        }
    }
}

/// A child of a negation node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NegChild {
    /// A tree node for the complement of a ground negative subgoal.
    Tree(u32),
    /// A nonground negative subgoal (always floundered).
    NonGround(Atom),
    /// Not expanded because a budget was reached; status unknown.
    Unexpanded(Atom),
}

/// A negation node: corresponds to one active leaf of its parent tree
/// node; its children correspond to the negated subgoals of the leaf.
#[derive(Debug, Clone)]
pub struct NegNode {
    /// Index of the active leaf inside the parent's SLP tree.
    pub leaf: u32,
    /// Children, one per literal of the leaf.
    pub children: Vec<NegChild>,
    /// Computed status flags.
    pub flags: StatusFlags,
    /// Level when successful or failed.
    pub level: Option<Ordinal>,
}

/// A tree node: an SLP-tree plus one negation node per active leaf.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// The goal of this tree node.
    pub goal: Goal,
    /// Its SLP-tree.
    pub slp: SlpTree,
    /// Negation nodes (paired with `slp.active_leaves()` in order).
    pub negnodes: Vec<NegNode>,
    /// Computed status flags.
    pub flags: StatusFlags,
    /// Level when failed.
    pub level_fail: Option<Ordinal>,
    /// Level when successful (internal nodes have one; the root may have
    /// several — see [`GlobalTree::answers`]).
    pub level_succ: Option<Ordinal>,
    /// Depth of negation nesting at which this node was first created.
    pub neg_depth: u32,
    /// Whether children were left unexpanded due to budgets.
    pub budget_hit: bool,
}

/// An answer extracted from the root tree node (Def. 3.4).
#[derive(Debug, Clone)]
pub struct GlobalAnswer {
    /// The answer substitution, restricted to the query's variables.
    pub subst: Subst,
    /// The level of the root with respect to this answer.
    pub level: Option<Ordinal>,
}

/// The global tree for a query.
#[derive(Debug, Clone)]
pub struct GlobalTree {
    nodes: Vec<TreeNode>,
    memo: FxHashMap<Atom, u32>,
    budget_hit: bool,
}

impl GlobalTree {
    /// Builds the global tree for `goal` and computes all statuses and
    /// levels.
    pub fn build(
        store: &mut TermStore,
        program: &Program,
        goal: &Goal,
        opts: GlobalOpts,
    ) -> GlobalTree {
        let mut g = GlobalTree {
            nodes: Vec::new(),
            memo: FxHashMap::default(),
            budget_hit: false,
        };
        g.expand_goal(store, program, goal.clone(), 0, opts);
        g.compute_statuses();
        g.compute_levels();
        g
    }

    /// The root tree node.
    pub fn root(&self) -> &TreeNode {
        &self.nodes[0]
    }

    /// All tree nodes (0 is the root).
    pub fn tree_nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Whether any budget was hit during construction (if so,
    /// indeterminate verdicts may be artefacts of the budget).
    pub fn budget_hit(&self) -> bool {
        self.budget_hit
    }

    /// The status of the whole query.
    pub fn status(&self) -> Status {
        self.root().flags.primary()
    }

    /// The status as a three-valued query verdict, plus whether the
    /// evaluation floundered — the mapping every engine facade reports.
    pub fn verdict(&self) -> (Truth, bool) {
        match self.status() {
            Status::Successful => (Truth::True, self.root().flags.floundered),
            Status::Failed => (Truth::False, false),
            Status::Floundered => (Truth::Undefined, true),
            Status::Indeterminate => (Truth::Undefined, false),
        }
    }

    /// The tree node for a previously expanded ground subgoal.
    pub fn node_for(&self, atom: &Atom) -> Option<&TreeNode> {
        self.memo.get(atom).map(|&i| &self.nodes[i as usize])
    }

    /// Answer substitutions at the root (Def. 3.4): the computed mgus of
    /// the root's successful active leaves, with per-answer levels.
    pub fn answers(&self, store: &mut TermStore) -> Vec<GlobalAnswer> {
        let root = &self.nodes[0];
        let gvars = root.goal.vars(store);
        let leaves = root.slp.active_leaves();
        let mut out = Vec::new();
        for (j, neg) in root.negnodes.iter().enumerate() {
            if neg.flags.successful {
                let leaf_idx = leaves[j];
                let mgu = &root.slp.nodes()[leaf_idx as usize].mgu;
                out.push(GlobalAnswer {
                    subst: mgu.restricted_to(store, &gvars),
                    level: neg.level.as_ref().map(|l| l.succ()),
                });
            }
        }
        out
    }

    fn expand_goal(
        &mut self,
        store: &mut TermStore,
        program: &Program,
        goal: Goal,
        neg_depth: u32,
        opts: GlobalOpts,
    ) -> u32 {
        let idx = self.nodes.len() as u32;
        let slp = SlpTree::build(store, program, &goal, opts.slp);
        self.nodes.push(TreeNode {
            goal,
            slp,
            negnodes: Vec::new(),
            flags: StatusFlags::default(),
            level_fail: None,
            level_succ: None,
            neg_depth,
            budget_hit: false,
        });
        let leaves = self.nodes[idx as usize].slp.active_leaves();
        let mut negnodes = Vec::with_capacity(leaves.len());
        for leaf in leaves {
            let literals: Vec<Literal> = self.nodes[idx as usize].slp.nodes()[leaf as usize]
                .goal
                .literals()
                .to_vec();
            let mut children = Vec::with_capacity(literals.len());
            for lit in literals {
                debug_assert!(lit.is_neg(), "active leaves contain only negatives");
                if !lit.atom.is_ground(store) {
                    children.push(NegChild::NonGround(lit.atom.clone()));
                } else if neg_depth >= opts.max_neg_depth || self.nodes.len() >= opts.max_tree_nodes
                {
                    self.budget_hit = true;
                    self.nodes[idx as usize].budget_hit = true;
                    children.push(NegChild::Unexpanded(lit.atom.clone()));
                } else if let Some(&existing) = self.memo.get(&lit.atom) {
                    children.push(NegChild::Tree(existing));
                } else {
                    // Reserve the memo entry before recursion so cycles
                    // through negation become back-edges to this index.
                    let child_goal = Goal::new(vec![Literal::pos(lit.atom.clone())]);
                    // The child index will be the next allocation made by
                    // expand_goal; record it first.
                    let child_idx = self.nodes.len() as u32;
                    self.memo.insert(lit.atom.clone(), child_idx);
                    let actual = self.expand_goal(store, program, child_goal, neg_depth + 1, opts);
                    debug_assert_eq!(actual, child_idx);
                    children.push(NegChild::Tree(child_idx));
                }
            }
            negnodes.push(NegNode {
                leaf,
                children,
                flags: StatusFlags::default(),
                level: None,
            });
        }
        if self.nodes[idx as usize].slp.is_truncated() {
            self.budget_hit = true;
            self.nodes[idx as usize].budget_hit = true;
        }
        self.nodes[idx as usize].negnodes = negnodes;
        idx
    }

    /// Least fixpoint of the Def. 3.3 status rules over the (shared) tree.
    fn compute_statuses(&mut self) {
        loop {
            let mut changed = false;
            for i in 0..self.nodes.len() {
                // Negation-node rules (2a–2c).
                for j in 0..self.nodes[i].negnodes.len() {
                    let mut flags = self.nodes[i].negnodes[j].flags;
                    let children = self.nodes[i].negnodes[j].children.clone();
                    let any_success = children.iter().any(|c| match c {
                        NegChild::Tree(t) => self.nodes[*t as usize].flags.successful,
                        _ => false,
                    });
                    let all_failed = children.iter().all(|c| match c {
                        NegChild::Tree(t) => self.nodes[*t as usize].flags.failed,
                        _ => false,
                    });
                    // 2(c): some child floundered and none can become
                    // successful — require the others to be determined.
                    let some_floundered = children.iter().any(|c| match c {
                        NegChild::Tree(t) => self.nodes[*t as usize].flags.floundered,
                        NegChild::NonGround(_) => true,
                        NegChild::Unexpanded(_) => false,
                    });
                    let all_determined_or_floundered = children.iter().all(|c| match c {
                        NegChild::Tree(t) => self.nodes[*t as usize].flags.well_determined(),
                        NegChild::NonGround(_) => true,
                        NegChild::Unexpanded(_) => false,
                    });
                    if any_success && !flags.failed {
                        flags.failed = true;
                        changed = true;
                    }
                    if all_failed && !flags.successful {
                        flags.successful = true;
                        changed = true;
                    }
                    if some_floundered
                        && !any_success
                        && all_determined_or_floundered
                        && !flags.floundered
                    {
                        flags.floundered = true;
                        changed = true;
                    }
                    self.nodes[i].negnodes[j].flags = flags;
                }
                // Tree-node rules (3a–3c).
                let mut flags = self.nodes[i].flags;
                let any_success = self.nodes[i].negnodes.iter().any(|n| n.flags.successful);
                let all_failed = self.nodes[i].negnodes.iter().all(|n| n.flags.failed);
                let some_floundered = self.nodes[i].negnodes.iter().any(|n| n.flags.floundered);
                // "T is a leaf of Γ (no active leaves)" fails — but only
                // when the SLP-tree is complete (a truncated tree might
                // still grow active leaves) and no budget cut children.
                let complete = !self.nodes[i].slp.is_truncated() && !self.nodes[i].budget_hit;
                if any_success && !flags.successful {
                    flags.successful = true;
                    changed = true;
                }
                if complete && all_failed && !flags.failed {
                    flags.failed = true;
                    changed = true;
                }
                if some_floundered && !flags.floundered {
                    flags.floundered = true;
                    changed = true;
                }
                self.nodes[i].flags = flags;
            }
            if !changed {
                break;
            }
        }
    }

    /// Computes levels for determined nodes per Def. 3.3.
    ///
    /// Levels are assigned in **ascending order** (Dijkstra-style): a
    /// min-heap holds candidate `(level, node)` pairs, and the first
    /// candidate popped for a node is its level. This is what makes the
    /// `min` in rules 2(a)/3(b) computable without waiting for *all*
    /// successful children — the first successful child to receive a
    /// level is the minimum, because assignments only ascend. The `lub`
    /// rules 2(b)/3(a) instead wait (via counters) until every input is
    /// assigned. A naive fixpoint deadlocks here: a failed negation node
    /// can transitively depend on a node whose level depends back on it
    /// through a larger-level sibling.
    fn compute_levels(&mut self) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// Heap key: negation node `(tree, j)` or tree node.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Key {
            Neg(u32, u32),
            Tree(u32),
        }

        let n = self.nodes.len();
        // Waiting counters for the lub rules.
        // J-succ waits for the fail levels of all its children.
        let mut jsucc_wait: FxHashMap<(u32, u32), usize> = FxHashMap::default();
        // T-fail waits for the levels of all its negation nodes.
        let mut tfail_wait: Vec<usize> = vec![usize::MAX; n];
        // Reverse dependencies.
        let mut on_tree_fail: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n]; // notify J-succ
        let mut on_tree_succ: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n]; // notify J-fail
        let mut heap: BinaryHeap<Reverse<(Ordinal, Key)>> = BinaryHeap::new();

        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let ti = i as u32;
            if self.nodes[i].flags.failed {
                tfail_wait[i] = self.nodes[i].negnodes.len();
                if tfail_wait[i] == 0 {
                    heap.push(Reverse((Ordinal::finite(1), Key::Tree(ti))));
                }
            }
            for (j, neg) in self.nodes[i].negnodes.iter().enumerate() {
                let jj = j as u32;
                if neg.flags.successful {
                    // All children are failed tree nodes (else J could
                    // not be successful).
                    let kids: Vec<u32> = neg
                        .children
                        .iter()
                        .filter_map(|c| match c {
                            NegChild::Tree(t) => Some(*t),
                            _ => None,
                        })
                        .collect();
                    jsucc_wait.insert((ti, jj), kids.len());
                    if kids.is_empty() {
                        heap.push(Reverse((Ordinal::zero(), Key::Neg(ti, jj))));
                    }
                    for t in kids {
                        on_tree_fail[t as usize].push((ti, jj));
                    }
                } else if neg.flags.failed {
                    for c in &neg.children {
                        if let NegChild::Tree(t) = c {
                            if self.nodes[*t as usize].flags.successful {
                                on_tree_succ[*t as usize].push((ti, jj));
                            }
                        }
                    }
                }
            }
        }

        while let Some(Reverse((level, key))) = heap.pop() {
            match key {
                Key::Neg(ti, jj) => {
                    let (i, j) = (ti as usize, jj as usize);
                    if self.nodes[i].negnodes[j].level.is_some() {
                        continue; // later (larger) candidate for the min
                    }
                    self.nodes[i].negnodes[j].level = Some(level.clone());
                    // Notify the parent tree node.
                    if self.nodes[i].flags.successful
                        && self.nodes[i].negnodes[j].flags.successful
                        && self.nodes[i].level_succ.is_none()
                    {
                        heap.push(Reverse((level.succ(), Key::Tree(ti))));
                    }
                    if self.nodes[i].flags.failed {
                        tfail_wait[i] -= 1;
                        if tfail_wait[i] == 0 {
                            let lub = Ordinal::lub(
                                self.nodes[i]
                                    .negnodes
                                    .iter()
                                    .filter_map(|nn| nn.level.as_ref()),
                            );
                            heap.push(Reverse((lub.succ(), Key::Tree(ti))));
                        }
                    }
                }
                Key::Tree(ti) => {
                    let i = ti as usize;
                    if self.nodes[i].flags.successful {
                        if self.nodes[i].level_succ.is_some() {
                            continue;
                        }
                        self.nodes[i].level_succ = Some(level.clone());
                        // J-fail candidates: first assigned child = min.
                        for &(pi, pj) in &on_tree_succ[i].clone() {
                            if self.nodes[pi as usize].negnodes[pj as usize]
                                .level
                                .is_none()
                            {
                                heap.push(Reverse((level.clone(), Key::Neg(pi, pj))));
                            }
                        }
                    } else if self.nodes[i].flags.failed {
                        if self.nodes[i].level_fail.is_some() {
                            continue;
                        }
                        self.nodes[i].level_fail = Some(level.clone());
                        for &(pi, pj) in &on_tree_fail[i].clone() {
                            let w = jsucc_wait.get_mut(&(pi, pj)).expect("registered waiter");
                            *w -= 1;
                            if *w == 0 {
                                // All children fail levels known: lub.
                                let lub = {
                                    let neg = &self.nodes[pi as usize].negnodes[pj as usize];
                                    Ordinal::lub(neg.children.iter().filter_map(|c| match c {
                                        NegChild::Tree(t) => {
                                            self.nodes[*t as usize].level_fail.as_ref()
                                        }
                                        _ => None,
                                    }))
                                };
                                heap.push(Reverse((lub, Key::Neg(pi, pj))));
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsls_lang::{parse_goal, parse_program};

    fn build(src: &str, goal: &str) -> (TermStore, GlobalTree) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let g = parse_goal(&mut s, goal).unwrap();
        let t = GlobalTree::build(&mut s, &p, &g, GlobalOpts::default());
        (s, t)
    }

    fn status_of(src: &str, goal: &str) -> Status {
        build(src, goal).1.status()
    }

    #[test]
    fn fact_succeeds_at_level_one() {
        let (_, t) = build("p(a).", "?- p(a).");
        assert_eq!(t.status(), Status::Successful);
        // Empty active leaf → negation node with no children: level 0;
        // root: 0 + 1 = 1.
        assert_eq!(t.root().level_succ, Some(Ordinal::finite(1)));
    }

    #[test]
    fn missing_atom_fails_at_level_one() {
        let (_, t) = build("p(a).", "?- q(a).");
        assert_eq!(t.status(), Status::Failed);
        assert_eq!(t.root().level_fail, Some(Ordinal::finite(1)));
    }

    #[test]
    fn single_negation_levels() {
        // q has no rules: ←q failed at level 1; negation node for {~q}
        // successful at level 1; ←p successful at level 2.
        let (_, t) = build("p :- ~q.", "?- p.");
        assert_eq!(t.status(), Status::Successful);
        assert_eq!(t.root().level_succ, Some(Ordinal::finite(2)));
    }

    #[test]
    fn positive_loop_failed_by_loop_pruning() {
        let (_, t) = build("p :- p.", "?- p.");
        assert_eq!(t.status(), Status::Failed);
        assert_eq!(t.root().level_fail, Some(Ordinal::finite(1)));
    }

    #[test]
    fn negative_cycle_indeterminate() {
        assert_eq!(
            status_of("p :- ~q. q :- ~p.", "?- p."),
            Status::Indeterminate
        );
        assert_eq!(status_of("p :- ~p.", "?- p."), Status::Indeterminate);
    }

    #[test]
    fn cycle_with_escape_resolves() {
        // win over a↔b with escape b→c: win(b) true, win(a) false.
        let src = "move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).";
        assert_eq!(status_of(src, "?- win(b)."), Status::Successful);
        assert_eq!(status_of(src, "?- win(a)."), Status::Failed);
    }

    #[test]
    fn pure_cycle_win_indeterminate() {
        let src = "move(a, b). move(b, a). win(X) :- move(X, Y), ~win(Y).";
        assert_eq!(status_of(src, "?- win(a)."), Status::Indeterminate);
    }

    #[test]
    fn example_3_2_preferential_succeeds() {
        // Example 3.2: with the preferential rule the goal ←s succeeds
        // (the deviant leftmost rule is exercised in deviant.rs).
        let src = "p :- q, ~r. q :- r, ~p. r :- p, ~q. s :- ~p, ~q, ~r.";
        assert_eq!(status_of(src, "?- s."), Status::Successful);
        assert_eq!(status_of(src, "?- p."), Status::Failed);
    }

    #[test]
    fn example_3_3_parallel_fails_q() {
        // Example 3.3 (function-free analogue): q ← ¬p, ¬s with p
        // indeterminate but s succeeding: parallel expansion fails q.
        let src = "p :- ~p. q :- ~p, ~s. s.";
        assert_eq!(status_of(src, "?- q."), Status::Failed);
        assert_eq!(status_of(src, "?- p."), Status::Indeterminate);
        assert_eq!(status_of(src, "?- s."), Status::Successful);
    }

    #[test]
    fn floundering_nonground_negation() {
        // p(X) :- ~q(f(X)): the goal ←p(X) flounders.
        let (_, t) = build("p(X) :- ~q(f(X)). q(a).", "?- p(X).");
        assert_eq!(t.status(), Status::Floundered);
    }

    #[test]
    fn ground_instance_of_floundering_goal_succeeds() {
        let src = "p(X) :- ~q(f(X)). q(a).";
        assert_eq!(status_of(src, "?- p(a)."), Status::Successful);
    }

    #[test]
    fn answers_with_substitutions() {
        let (mut s, t) = build(
            "move(a, b). move(a, c). win(c). safe(X) :- move(a, X), ~win(X).",
            "?- safe(X).",
        );
        assert_eq!(t.status(), Status::Successful);
        let answers = t.answers(&mut s);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].subst.display(&s), "{X = b}");
        assert!(answers[0].level.is_some());
    }

    #[test]
    fn multiple_answers_multiple_levels() {
        // Root tree nodes may have several levels, one per answer.
        let (mut s, t) = build("q(a). p(a). p(b) :- ~q(b).", "?- p(X).");
        let answers = t.answers(&mut s);
        assert_eq!(answers.len(), 2);
        let mut levels: Vec<Ordinal> = answers.iter().filter_map(|a| a.level.clone()).collect();
        levels.sort();
        assert_eq!(levels, vec![Ordinal::finite(1), Ordinal::finite(2)]);
    }

    #[test]
    fn subgoal_sharing() {
        // ~q appears under both p-rules: only one tree node for q.
        let (mut s, t) = build("p :- ~q, ~r. p2 :- ~q. q :- ~z. z.", "?- p, p2.");
        let qsym = s.intern_symbol("q");
        let qatom = Atom::new(qsym, Vec::new());
        assert!(t.node_for(&qatom).is_some());
        let count = t
            .tree_nodes()
            .iter()
            .filter(|n| n.goal.literals().first().map(|l| l.atom.clone()) == Some(qatom.clone()))
            .count();
        assert_eq!(count, 1, "shared subgoal expanded once");
    }

    #[test]
    fn failed_levels_track_depth() {
        // Chain: a1 :- ~a2. a2 :- ~a3. a3. — a3 succ@1, a2 fail@2, a1 succ@3.
        let (_, t) = build("a1 :- ~a2. a2 :- ~a3. a3.", "?- a1.");
        assert_eq!(t.status(), Status::Successful);
        assert_eq!(t.root().level_succ, Some(Ordinal::finite(3)));
    }

    #[test]
    fn budget_produces_indeterminate_not_wrong_answer() {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "nat(0). nat(s(X)) :- nat(X). q :- ~nat(s(0)).").unwrap();
        let g = parse_goal(&mut s, "?- q.").unwrap();
        // Tight budgets: nat(s(0)) succeeds quickly, so q should fail
        // even with modest budgets.
        let t = GlobalTree::build(&mut s, &p, &g, GlobalOpts::default());
        assert_eq!(t.status(), Status::Failed);
    }

    #[test]
    fn empty_query_succeeds_at_level_one() {
        let (_, t) = build("p.", "?- .");
        assert_eq!(t.status(), Status::Successful);
        assert_eq!(t.root().level_succ, Some(Ordinal::finite(1)));
    }
}
