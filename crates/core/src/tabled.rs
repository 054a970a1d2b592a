//! The memoized (tabled) engine — Sec. 7's effective procedure for
//! function-free programs.
//!
//! Ideal global SLS-resolution is not effective: SLP-trees may be
//! infinite and indeterminate goals recurse forever through negation. The
//! paper prescribes memoing [10, 26] to prune positive loops plus pruning
//! of negative loops. This engine realises that prescription:
//!
//! 1. the program is grounded once (relevant grounding, function-free ⇒
//!    finite);
//! 2. a query atom pulls in only the **relevant subprogram** — the atoms
//!    reachable through rule bodies (this is the goal-directedness that a
//!    top-down procedure buys over the bottom-up baseline);
//! 3. the reachable region is split into SCCs of the atom dependency
//!    graph; each SCC is solved by a **local alternating fixpoint**
//!    relative to the already-tabled truth of lower SCCs — positive loops
//!    within an SCC fail (unfounded), negative loops leave atoms
//!    undefined;
//! 4. verdicts are memoized in a table shared across queries.
//!
//! Truth values agree with the well-founded model (soundness and
//! completeness, Theorems 5.4/6.2, are exercised by `tests/` property
//! tests against the bottom-up oracle); `Undefined` is the effective
//! stand-in for "ideal global SLS-resolution is indeterminate".

use crate::scc::SccSolver;
use gsls_ground::{depgraph, GroundAtomId, GroundProgram};
use gsls_lang::FxHashMap;
use gsls_par::govern::{Guard, InterruptCause};
use gsls_wfs::Truth;

/// Statistics for one query evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TabledStats {
    /// Atoms newly evaluated for this query.
    pub evaluated_atoms: usize,
    /// SCCs processed.
    pub sccs: usize,
    /// Largest SCC size.
    pub max_scc: usize,
}

/// The memoized engine over a ground program.
///
/// SCC-local alternating fixpoints all run through one engine-owned
/// [`SccSolver`] (a [`gsls_wfs::Propagator`] restricted to the SCC's
/// clause range, with bitset scratch cleared sparsely per SCC) — after
/// warm-up, solving an SCC performs no heap allocation.
#[derive(Debug, Clone)]
pub struct TabledEngine {
    gp: GroundProgram,
    /// Memo table: verdicts for already-evaluated atoms.
    table: Vec<Option<Truth>>,
    stats_total: TabledStats,
    /// Scratch every SCC-local fixpoint runs on.
    solver: SccSolver,
}

impl TabledEngine {
    /// Creates an engine for `gp` (finalizing it if needed).
    pub fn new(mut gp: GroundProgram) -> Self {
        gp.finalize();
        let n = gp.atom_count();
        let solver = SccSolver::new(&gp);
        TabledEngine {
            gp,
            table: vec![None; n],
            stats_total: TabledStats::default(),
            solver,
        }
    }

    /// The underlying ground program.
    pub fn ground_program(&self) -> &GroundProgram {
        &self.gp
    }

    /// Cumulative statistics across all queries so far.
    pub fn stats(&self) -> TabledStats {
        self.stats_total
    }

    /// Number of atoms with a memoized verdict.
    pub fn tabled_count(&self) -> usize {
        self.table.iter().filter(|t| t.is_some()).count()
    }

    /// The truth of `atom` in the well-founded model, evaluating (and
    /// memoizing) the relevant subprogram on demand.
    pub fn truth(&mut self, atom: GroundAtomId) -> Truth {
        self.truth_governed(atom, &Guard::none())
            .expect("an ungoverned evaluation cannot be interrupted")
    }

    /// [`TabledEngine::truth`] under a [`Guard`], checked once per SCC.
    /// On interruption, verdicts of SCCs that *completed* stay memoized
    /// — memoization is monotone, so a partial table is simply a smaller
    /// table and the next call resumes from it.
    pub fn truth_governed(
        &mut self,
        atom: GroundAtomId,
        guard: &Guard,
    ) -> Result<Truth, InterruptCause> {
        if let Some(t) = self.table[atom.index()] {
            return Ok(t);
        }
        self.evaluate_from(atom, guard)?;
        Ok(self.table[atom.index()].expect("evaluation must decide the root atom"))
    }

    /// The truth of `atom` if already tabled.
    pub fn cached(&self, atom: GroundAtomId) -> Option<Truth> {
        self.table[atom.index()]
    }

    /// Evaluates all atoms reachable from `root` that are not yet tabled.
    fn evaluate_from(&mut self, root: GroundAtomId, guard: &Guard) -> Result<(), InterruptCause> {
        // 1. Reachable, untabled atoms (DFS over body edges).
        let mut reach: Vec<GroundAtomId> = Vec::new();
        let mut seen = vec![false; self.gp.atom_count()];
        let mut stack = vec![root];
        while let Some(a) = stack.pop() {
            if seen[a.index()] || self.table[a.index()].is_some() {
                continue;
            }
            seen[a.index()] = true;
            reach.push(a);
            for &ci in self.gp.clauses_for(a) {
                let c = self.gp.clause(ci);
                for &b in c.pos.iter().chain(c.neg.iter()) {
                    if !seen[b.index()] && self.table[b.index()].is_none() {
                        stack.push(b);
                    }
                }
            }
        }
        // 2. Local index and SCCs over the reachable region.
        let mut local_of: FxHashMap<u32, u32> = FxHashMap::default();
        for (li, a) in reach.iter().enumerate() {
            local_of.insert(a.0, li as u32);
        }
        let adj: Vec<Vec<u32>> = reach
            .iter()
            .map(|&a| {
                let mut out = Vec::new();
                for &ci in self.gp.clauses_for(a) {
                    let c = self.gp.clause(ci);
                    for &b in c.pos.iter().chain(c.neg.iter()) {
                        if let Some(&lb) = local_of.get(&b.0) {
                            if !out.contains(&lb) {
                                out.push(lb);
                            }
                        }
                    }
                }
                out
            })
            .collect();
        let comps = depgraph::sccs(&adj); // reverse topological: deps first
        self.stats_total.sccs += comps.len();
        self.stats_total.evaluated_atoms += reach.len();
        for comp in &comps {
            self.stats_total.max_scc = self.stats_total.max_scc.max(comp.len());
        }
        // 3. Solve the SCCs bottom-up.
        for comp in comps {
            guard.check()?;
            let atoms: Vec<GroundAtomId> = comp.iter().map(|&l| reach[l as usize]).collect();
            self.solve_scc(&atoms);
        }
        Ok(())
    }

    /// Solves one SCC on the engine-owned [`SccSolver`], reading
    /// external atoms from the memo table (they are guaranteed decided)
    /// and publishing verdicts back into it.
    fn solve_scc(&mut self, atoms: &[GroundAtomId]) {
        let Self {
            gp, table, solver, ..
        } = self;
        solver.solve(gp, atoms, |b| {
            table[b.index()].expect("external atom tabled")
        });
        for (&a, &v) in atoms.iter().zip(solver.verdicts()) {
            table[a.index()] = Some(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsls_ground::Grounder;
    use gsls_lang::{parse_program, TermStore};
    use gsls_wfs::well_founded_model;

    fn engine(src: &str) -> (TermStore, TabledEngine) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        (s, TabledEngine::new(gp))
    }

    use gsls_ground::testutil::atom_id as id;

    #[test]
    fn simple_verdicts() {
        let (s, mut e) = engine("q. p :- ~q. r :- ~p.");
        let gp = e.ground_program().clone();
        assert_eq!(e.truth(id(&s, &gp, "q")), Truth::True);
        assert_eq!(e.truth(id(&s, &gp, "p")), Truth::False);
        assert_eq!(e.truth(id(&s, &gp, "r")), Truth::True);
    }

    #[test]
    fn negative_cycle_undefined() {
        let (s, mut e) = engine("p :- ~q. q :- ~p.");
        let gp = e.ground_program().clone();
        assert_eq!(e.truth(id(&s, &gp, "p")), Truth::Undefined);
        assert_eq!(e.truth(id(&s, &gp, "q")), Truth::Undefined);
    }

    #[test]
    fn matches_bottom_up_on_whole_program() {
        for src in [
            "q. p :- ~q. r :- ~p.",
            "p :- ~q. q :- ~p. r :- ~s. s.",
            "p :- q, ~r. q :- r, ~p. r :- p, ~q. s :- ~p, ~q, ~r.",
            "p :- ~p. q :- ~p, ~s. s.",
            "move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).",
            "e(a, b). e(b, c). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).",
        ] {
            let (_, mut e) = engine(src);
            let gp = e.ground_program().clone();
            let wfm = well_founded_model(&gp);
            for a in gp.atom_ids() {
                assert_eq!(e.truth(a), wfm.truth(a), "atom {a:?} in {src}");
            }
        }
    }

    #[test]
    fn goal_directed_evaluates_less() {
        // Two disconnected components: querying one must not evaluate the
        // other.
        let src = "
            move1(a, b). win1(X) :- move1(X, Y), ~win1(Y).
            move2(u, v). move2(v, u). win2(X) :- move2(X, Y), ~win2(Y).
        ";
        let (s, mut e) = engine(src);
        let gp = e.ground_program().clone();
        let _ = e.truth(id(&s, &gp, "win1(a)"));
        let evaluated = e.stats().evaluated_atoms;
        assert!(
            evaluated < gp.atom_count(),
            "evaluated {evaluated} of {} atoms",
            gp.atom_count()
        );
        assert!(e.cached(id(&s, &gp, "win2(u)")).is_none());
    }

    #[test]
    fn memo_shared_across_queries() {
        let (s, mut e) = engine("q. p :- ~q. r :- ~p.");
        let gp = e.ground_program().clone();
        let _ = e.truth(id(&s, &gp, "r"));
        let before = e.stats().evaluated_atoms;
        let _ = e.truth(id(&s, &gp, "p"));
        assert_eq!(e.stats().evaluated_atoms, before, "second query free");
    }

    #[test]
    fn undefined_external_feeds_scc() {
        // r depends on the undefined p/q cycle: r undefined; s depends
        // negatively on a false atom: true.
        let (s, mut e) = engine("p :- ~q. q :- ~p. r :- p. s :- ~z.");
        let gp = e.ground_program().clone();
        assert_eq!(e.truth(id(&s, &gp, "r")), Truth::Undefined);
        assert_eq!(e.truth(id(&s, &gp, "s")), Truth::True);
    }

    #[test]
    fn win_chain_alternates() {
        let src = "move(n1, n2). move(n2, n3). move(n3, n4).
                   win(X) :- move(X, Y), ~win(Y).";
        let (s, mut e) = engine(src);
        let gp = e.ground_program().clone();
        assert_eq!(e.truth(id(&s, &gp, "win(n4)")), Truth::False);
        assert_eq!(e.truth(id(&s, &gp, "win(n3)")), Truth::True);
        assert_eq!(e.truth(id(&s, &gp, "win(n2)")), Truth::False);
        assert_eq!(e.truth(id(&s, &gp, "win(n1)")), Truth::True);
    }

    #[test]
    fn governed_evaluation_interrupts_and_resumes() {
        let src = "e(a, b). e(b, c). e(c, d). t(X, Y) :- e(X, Y). \
                   t(X, Z) :- e(X, Y), t(Y, Z). w(X) :- e(X, Y), ~w(Y).";
        let (s, mut e) = engine(src);
        let gp = e.ground_program().clone();
        let root = id(&s, &gp, "t(a, d)");
        let wfm = well_founded_model(&gp);
        // Zero fuel: the very first guard check trips.
        let starved = Guard::builder().fuel(0).build();
        assert_eq!(
            e.truth_governed(root, &starved),
            Err(InterruptCause::Cancelled)
        );
        // Two checks of fuel: two SCCs are tabled before the trip.
        let short = Guard::builder().fuel(2).build();
        assert_eq!(
            e.truth_governed(root, &short),
            Err(InterruptCause::Cancelled)
        );
        assert_eq!(e.tabled_count(), 2);
        // The partial memo table is monotone: an ungoverned retry
        // finishes and agrees with the model.
        assert_eq!(e.truth(root), wfm.truth(root));
        for a in gp.atom_ids() {
            assert_eq!(e.truth(a), wfm.truth(a));
        }
    }

    #[test]
    fn scc_stats_reported() {
        let (s, mut e) = engine("p :- ~q. q :- ~p. r :- p.");
        let gp = e.ground_program().clone();
        let _ = e.truth(id(&s, &gp, "r"));
        let st = e.stats();
        assert!(st.sccs >= 2, "p/q cycle plus r: {st:?}");
        assert_eq!(st.max_scc, 2);
    }
}
