//! The engine state a [`super::Session`] keeps up to date — grounder,
//! the two warm fixpoint chains, the model, the retracted-fact set and
//! the predicate arities — the **one** way to build it from source, and
//! the way back to an earlier state of it: every part only ever appends
//! (or flips a logged switch), so an [`EngineMark`] is a handful of
//! lengths and [`EngineState::truncate_to`] costs what was appended.

use crate::govern::{Guard, InterruptCause};
use gsls_analyze::{AnalyzerOpts, LintConfig};
use gsls_ground::{GroundMark, GrounderOpts, GroundingError, IncrementalGrounder};
use gsls_lang::{Atom, Clause, CowTally, FxHashMap, Program, Symbol, TermStore};
use gsls_wfs::{
    well_founded_refresh, well_founded_refresh_governed, ChangeCone, IncrementalLfp, Interp,
    NegMode,
};

/// One edit a commit made to the retracted-fact set, as its inverse
/// needs it.
#[derive(Debug)]
enum RetractEdit {
    /// The entry was taken out (a re-assert); the atom goes back in.
    Removed(u32, Atom),
    /// The entry was put in (a retract).
    Inserted(u32),
}

/// A state of the engine, as the lengths of everything it appends to.
/// O(1) to take, nothing journaled per element on the way there.
#[derive(Debug, Clone, Copy)]
pub(super) struct EngineMark {
    ground: GroundMark,
    retract_log: usize,
    arities: usize,
}

/// What [`EngineState::truncate_to`] dropped and redid.
#[derive(Debug, Clone, Copy)]
pub(super) struct Truncated {
    pub atoms: usize,
    pub clauses: usize,
    /// Fixpoint chains an interrupt had left unprimed, re-solved here.
    pub reprimes: usize,
}

/// Everything derived from `(program, retracted facts)`. Commits
/// maintain it incrementally and [`EngineState::truncate_to`] takes a
/// failed one back; construction, checkpoint restore and recovery from
/// a panic obtain it from [`EngineState::build`].
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
    /// indices renumber) and can be checkpointed. Edited through
    /// [`EngineState::retract`] / [`EngineState::reassert`] only.
    pub disabled: FxHashMap<u32, Atom>,
    /// The undo log of `disabled`: its edits since the oldest rollback
    /// point still live, oldest first. A commit moves the atoms it
    /// displaces here instead of cloning the set up front, and
    /// [`EngineState::forget_undo`] empties it (capacity kept) once no
    /// point can want them back.
    retract_log: Vec<RetractEdit>,
    /// Known predicate arities (committed state), for up-front batch
    /// validation.
    pub arities: FxHashMap<Symbol, usize>,
    /// `arities`' keys in the order they were first noted, so a mark is
    /// a length.
    arity_order: Vec<Symbol>,
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
            retract_log: Vec::new(),
            arities: FxHashMap::default(),
            arity_order: Vec::new(),
            grounder,
        };
        let mut disable: Vec<u32> = Vec::new();
        for atom in retracted {
            let Some(ci) = engine.source_fact_clause(&atom) else {
                continue;
            };
            if engine.retract(ci, atom) {
                disable.push(ci);
            }
        }
        engine.forget_undo();
        let clauses = engine.grounder.ground_program().clause_count();
        engine
            .refresh_model(clauses, &disable, &[], &Guard::none())
            .expect("an ungoverned refresh cannot be interrupted");
        engine.note_arities(program.clauses());
        Ok(engine)
    }

    /// Puts fact clause `ci` (of source fact `atom`) into the retracted
    /// set; `false` if it already was there.
    pub fn retract(&mut self, ci: u32, atom: Atom) -> bool {
        let std::collections::hash_map::Entry::Vacant(slot) = self.disabled.entry(ci) else {
            return false;
        };
        slot.insert(atom);
        self.retract_log.push(RetractEdit::Inserted(ci));
        true
    }

    /// Takes fact clause `ci` out of the retracted set; `false` if it
    /// was not in it.
    pub fn reassert(&mut self, ci: u32) -> bool {
        let Some(atom) = self.disabled.remove(&ci) else {
            return false;
        };
        self.retract_log.push(RetractEdit::Removed(ci, atom));
        true
    }

    /// Drops the undo log: no rollback point older than now is live.
    pub fn forget_undo(&mut self) {
        self.retract_log.clear();
    }

    /// Records the predicate arities `clauses` use (heads and bodies;
    /// first occurrence wins, matching the commit-time validation
    /// policy).
    pub fn note_arities(&mut self, clauses: &[Clause]) {
        for c in clauses {
            for atom in std::iter::once(&c.head).chain(c.body.iter().map(|l| &l.atom)) {
                if let std::collections::hash_map::Entry::Vacant(slot) =
                    self.arities.entry(atom.pred)
                {
                    slot.insert(atom.args.len());
                    self.arity_order.push(atom.pred);
                }
            }
        }
    }

    /// The engine's state as of now — between commits, where the
    /// program is finalized and the chains are closed.
    pub fn mark(&self) -> EngineMark {
        EngineMark {
            ground: self.grounder.mark(),
            retract_log: self.retract_log.len(),
            arities: self.arity_order.len(),
        }
    }

    /// Takes the retracted set back to `mark` by inverting the logged
    /// edits, newest first. Returns the clauses the edits touched.
    fn rewind_retract_set(&mut self, mark: &EngineMark) -> Vec<u32> {
        let mut touched = Vec::new();
        while self.retract_log.len() > mark.retract_log {
            let ci = match self.retract_log.pop().expect("longer than the mark") {
                RetractEdit::Removed(ci, atom) => {
                    self.disabled.insert(ci, atom);
                    ci
                }
                RetractEdit::Inserted(ci) => {
                    self.disabled.remove(&ci);
                    ci
                }
            };
            touched.push(ci);
        }
        touched
    }

    /// The retracted set as of `mark`, as source atoms — what a rebuild
    /// to that state is given.
    pub fn retracted_at(&mut self, mark: &EngineMark) -> Vec<Atom> {
        self.rewind_retract_set(mark);
        self.disabled.values().cloned().collect()
    }

    /// Returns the engine to `mark` — the in-memory half of rolling a
    /// commit (or a group of them) back — by cutting every append-only
    /// part to its marked length and inverting the retract-set edits:
    ///
    /// 1. a chain that had absorbed the appended clauses switches them
    ///    off (delete-and-rederive over their cone) and shrinks; one the
    ///    failed commit never reached is not touched;
    /// 2. the grounder truncates — atoms, clauses, dedup spaces, fact
    ///    rows, templates and plans
    ///    ([`IncrementalGrounder::truncate_to`]);
    /// 3. the switches the commit flipped flip back on the chains, to
    ///    match the rewound retracted set;
    /// 4. the model: a failed commit writes it last, so it still *is*
    ///    the marked state's and only loses the appended atoms' slots —
    ///    unless `model_stale` says commits that **succeeded** are being
    ///    undone too (a group whose covering fsync failed), in which
    ///    case it is refreshed below the dependency cone of everything
    ///    dropped or flipped, exactly as a forward commit refreshes it.
    ///
    /// A chain an interrupt left unprimed is re-solved here (one
    /// O(program) pass, no re-grounding) rather than on the next
    /// commit's time. Needs no invariant a panic could have broken to
    /// *hold*, but assumes none was: after a panic, rebuild instead.
    pub fn truncate_to(&mut self, mark: &EngineMark, model_stale: bool) -> Truncated {
        let (n_atoms, n_clauses) = (mark.ground.atom_count(), mark.ground.clause_count());
        let gp = self.grounder.ground_program();
        let dropped_from = n_clauses as u32..gp.clause_count() as u32;
        let truncated = Truncated {
            atoms: gp.atom_count() - n_atoms,
            clauses: dropped_from.len(),
            reprimes: [&self.t_chain, &self.u_chain]
                .iter()
                .filter(|chain| !chain.is_primed())
                .count(),
        };
        let mut switched = self.rewind_retract_set(mark);
        switched.retain(|&ci| (ci as usize) < n_clauses);
        for sym in self.arity_order.drain(mark.arities..) {
            self.arities.remove(&sym);
        }
        let gp = self.grounder.ground_program();
        if model_stale {
            // The walk needs the dropped clauses still in place: they
            // are the change.
            let changed = dropped_from.chain(switched.iter().copied());
            self.cone
                .restart_set(gp, changed, self.model.pos(), &Guard::none())
                .expect("an ungoverned walk cannot be interrupted");
        }
        self.t_chain.shrink_to(gp, n_atoms, n_clauses);
        self.u_chain.shrink_to(gp, n_atoms, n_clauses);
        self.grounder.truncate_to(&mark.ground);
        let gp = self.grounder.ground_program();
        let (off, on): (Vec<u32>, Vec<u32>) = switched
            .iter()
            .copied()
            .partition(|ci| self.disabled.contains_key(ci));
        self.t_chain.set_clauses_enabled(gp, &off, &on);
        self.u_chain.set_clauses_enabled(gp, &off, &on);
        self.model.truncate(n_atoms);
        if model_stale || truncated.reprimes > 0 {
            let start = if model_stale {
                self.cone.start_cut_to(n_atoms)
            } else {
                // The model is the marked state's: its true set is the
                // fixpoint itself, and the alternation closes in a round.
                self.cone
                    .restart_set(gp, [], self.model.pos(), &Guard::none())
                    .expect("an ungoverned walk cannot be interrupted")
            };
            well_founded_refresh(
                gp,
                &mut self.t_chain,
                &mut self.u_chain,
                start,
                &mut self.model,
            );
        }
        truncated
    }

    /// Model maintenance — step 4 of a commit, and all of a build: grow
    /// the chains over the clauses appended from index `first_new` on,
    /// flip the switched clauses, then restart the alternation below the
    /// dependency cone of everything that changed
    /// ([`ChangeCone::restart_set`]) and write the model in place. Every
    /// loop polls `guard`; on a trip the model is untouched (it is
    /// written last), the chain that tripped is unprimed, and the caller
    /// unwinds through [`EngineState::truncate_to`].
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
