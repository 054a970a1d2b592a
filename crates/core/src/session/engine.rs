//! The engine state a [`super::Session`] keeps materialized — grounder,
//! the two warm fixpoint chains, the model, the retracted-fact set and
//! the predicate arities — and the **one** way to build it from source.

use crate::govern::{Guard, InterruptCause};
use gsls_analyze::{AnalyzerOpts, LintConfig};
use gsls_ground::{GrounderOpts, GroundingError, IncrementalGrounder};
use gsls_lang::{Atom, Clause, CowTally, FxHashMap, Program, Symbol, TermStore};
use gsls_wfs::{well_founded_refresh_governed, ChangeCone, IncrementalLfp, Interp, NegMode};

/// Everything derived from `(program, retracted facts)`. Commits
/// maintain it incrementally; construction, checkpoint restore and the
/// rollback of a failed commit all obtain it from [`EngineState::build`].
pub(super) struct EngineState {
    pub grounder: IncrementalGrounder,
    pub t_chain: IncrementalLfp,
    pub u_chain: IncrementalLfp,
    /// Reusable scratch for the refresh's restart set: the dependency
    /// cone of what a commit changed.
    cone: ChangeCone,
    pub model: Interp,
    /// Currently-retracted facts: ground-clause index → source atom.
    /// The atom is kept so the set survives a full re-ground (clause
    /// indices renumber) and can be checkpointed.
    pub disabled: FxHashMap<u32, Atom>,
    /// Known predicate arities (committed state), for up-front batch
    /// validation.
    pub arities: FxHashMap<Symbol, usize>,
}

impl EngineState {
    /// Grounds `program`, switches the `retracted` source facts off on
    /// fresh chains and solves once — through the same
    /// [`EngineState::refresh_model`] every commit runs, which on
    /// unprimed chains starts from `∅`. The committed *state* a rebuild
    /// reproduces is exact; internal clause/atom numbering may differ
    /// from the incrementally-maintained state it replaces.
    pub fn build(
        store: &mut TermStore,
        program: &Program,
        opts: GrounderOpts,
        retracted: impl IntoIterator<Item = Atom>,
    ) -> Result<EngineState, GroundingError> {
        let grounder = IncrementalGrounder::new(store, program, opts)?;
        let gp = grounder.ground_program();
        let mut engine = EngineState {
            t_chain: IncrementalLfp::new(gp, NegMode::SatisfiedOutside),
            u_chain: IncrementalLfp::new(gp, NegMode::SatisfiedOutside),
            cone: ChangeCone::new(),
            model: Interp::new(gp.atom_count()),
            disabled: FxHashMap::default(),
            arities: FxHashMap::default(),
            grounder,
        };
        let mut disable: Vec<u32> = Vec::new();
        for atom in retracted {
            let Some(ci) = engine.source_fact_clause(&atom) else {
                continue;
            };
            if let std::collections::hash_map::Entry::Vacant(slot) = engine.disabled.entry(ci) {
                disable.push(ci);
                slot.insert(atom);
            }
        }
        let clauses = engine.grounder.ground_program().clause_count();
        engine
            .refresh_model(clauses, &disable, &[], &Guard::none())
            .expect("an ungoverned refresh cannot be interrupted");
        note_arities(&mut engine.arities, program.clauses());
        Ok(engine)
    }

    /// Model maintenance — step 4 of a commit, and all of a build: grow
    /// the chains over the clauses appended from index `first_new` on,
    /// flip the switched clauses, then restart the alternation below the
    /// dependency cone of everything that changed
    /// ([`ChangeCone::restart_set`]) and write the model in place. Every
    /// loop polls `guard`; on a trip the chains are torn and the caller
    /// unwinds to a rebuilt engine.
    pub fn refresh_model(
        &mut self,
        first_new: usize,
        disable: &[u32],
        enable: &[u32],
        guard: &Guard,
    ) -> Result<(), InterruptCause> {
        let gp = self.grounder.ground_program();
        self.t_chain.grow_governed(gp, guard)?;
        self.u_chain.grow_governed(gp, guard)?;
        self.model.grow(gp.atom_count());
        self.t_chain
            .set_clauses_enabled_governed(gp, disable, enable, guard)?;
        self.u_chain
            .set_clauses_enabled_governed(gp, disable, enable, guard)?;
        let changed = (first_new as u32..gp.clause_count() as u32)
            .chain(disable.iter().copied())
            .chain(enable.iter().copied());
        let start = self
            .cone
            .restart_set(gp, changed, self.model.pos(), guard)?;
        well_founded_refresh_governed(
            gp,
            &mut self.t_chain,
            &mut self.u_chain,
            start,
            &mut self.model,
            guard,
        )
    }

    /// Copy-on-write work the ground state's snapshot-shared arenas
    /// (atom side, active domain) have done.
    pub fn cow_tally(&self) -> CowTally {
        self.grounder.ground_program().atoms().cow_tally() + self.grounder.universe().cow_tally()
    }

    /// The switchable ground clause of a source fact, if `atom` is one.
    pub fn source_fact_clause(&self, atom: &Atom) -> Option<u32> {
        source_fact_clause(&self.grounder, atom)
    }

    /// Analyzer options over the committed state: known arities plus
    /// the grounder's fact cardinalities and active domain for the
    /// cost lints and instantiation estimates.
    pub fn analyzer_opts(&self, config: LintConfig) -> AnalyzerOpts {
        AnalyzerOpts {
            config,
            known_arities: self.arities.clone(),
            cardinalities: self.grounder.ground_program().pred_cardinalities(),
            domain_hint: self.grounder.universe().len(),
        }
    }
}

fn source_fact_clause(grounder: &IncrementalGrounder, atom: &Atom) -> Option<u32> {
    grounder
        .ground_program()
        .lookup_atom(atom)
        .and_then(|id| grounder.fact_clause_of(id))
}

/// Records the predicate arities `clauses` use (heads and bodies; first
/// occurrence wins, matching the commit-time validation policy).
pub(super) fn note_arities(arities: &mut FxHashMap<Symbol, usize>, clauses: &[Clause]) {
    for c in clauses {
        arities.entry(c.head.pred).or_insert(c.head.args.len());
        for l in &c.body {
            arities.entry(l.atom.pred).or_insert(l.atom.args.len());
        }
    }
}
