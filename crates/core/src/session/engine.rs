//! The engine state a [`super::Session`] keeps materialized — grounder,
//! the two warm fixpoint chains, the model, the retracted-fact set and
//! the predicate arities — and the **one** way to build it from source.

use gsls_analyze::{AnalyzerOpts, LintConfig};
use gsls_ground::{GrounderOpts, GroundingError, IncrementalGrounder};
use gsls_lang::{Atom, Clause, FxHashMap, Program, Symbol, TermStore};
use gsls_wfs::{well_founded_refresh, BitSet, IncrementalLfp, Interp, NegMode};

/// Everything derived from `(program, retracted facts)`. Commits
/// maintain it incrementally; construction, checkpoint restore and the
/// rollback of a failed commit all obtain it from [`EngineState::build`].
pub(super) struct EngineState {
    pub grounder: IncrementalGrounder,
    pub t_chain: IncrementalLfp,
    pub u_chain: IncrementalLfp,
    /// Reusable empty context for the alternating refresh.
    pub empty: BitSet,
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
    /// fresh chains and solves once. The committed *state* a rebuild
    /// reproduces is exact; internal clause/atom numbering may differ
    /// from the incrementally-maintained state it replaces.
    pub fn build(
        store: &mut TermStore,
        program: &Program,
        opts: GrounderOpts,
        retracted: impl IntoIterator<Item = Atom>,
    ) -> Result<EngineState, GroundingError> {
        let grounder = IncrementalGrounder::new(store, program, opts)?;
        let (t_chain, u_chain, empty, model, disabled) = {
            let gp = grounder.ground_program();
            let mut t_chain = IncrementalLfp::new(gp, NegMode::SatisfiedOutside);
            let mut u_chain = IncrementalLfp::new(gp, NegMode::SatisfiedOutside);
            let empty = BitSet::new(gp.atom_count());
            let mut disabled: FxHashMap<u32, Atom> = FxHashMap::default();
            let mut disable: Vec<u32> = Vec::new();
            for atom in retracted {
                let Some(ci) = source_fact_clause(&grounder, &atom) else {
                    continue;
                };
                if let std::collections::hash_map::Entry::Vacant(slot) = disabled.entry(ci) {
                    disable.push(ci);
                    slot.insert(atom);
                }
            }
            if !disable.is_empty() {
                t_chain.set_clauses_enabled(gp, &disable, &[]);
                u_chain.set_clauses_enabled(gp, &disable, &[]);
            }
            let model = well_founded_refresh(gp, &mut t_chain, &mut u_chain, &empty);
            (t_chain, u_chain, empty, model, disabled)
        };
        let mut arities = FxHashMap::default();
        note_arities(&mut arities, program.clauses());
        Ok(EngineState {
            grounder,
            t_chain,
            u_chain,
            empty,
            model,
            disabled,
            arities,
        })
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
