//! # gsls-ground — Herbrand machinery and program analyses
//!
//! This crate provides everything between the object language and the
//! fixpoint/resolution engines:
//!
//! * [`herbrand`] — Herbrand universe enumeration (Def. 1.2), the
//!   **augmented program** P′ of Def. 6.1 (universal query problem), and
//!   the `term/1` anti-floundering transform of Sec. 6;
//! * [`program`] — the dense [`GroundProgram`] every fixpoint engine
//!   reads: interned ground-atom ids and a CSR clause store with three
//!   reverse indexes (layout below);
//! * [`grounder`] — Herbrand instantiation (Def. 1.5): **one grounding
//!   kernel** that compiles a program to a [`GroundProgram`] with a
//!   **semi-naive** relevant-grounding fixpoint, so only rules whose
//!   positive bodies are potentially derivable are emitted. Rule bodies
//!   are compiled once into **join plans** (selectivity-ordered literals,
//!   composite bound-argument indexes, delta sub-ranges, a relevance
//!   index routing each round to the plans whose delta grew — see the
//!   `plan` and `factstore` module docs). [`Grounder`] builds a kernel,
//!   runs it once and drops it; a session keeps it
//!   ([`IncrementalGrounder`]) and feeds it fact and rule deltas. The
//!   join walk and the state it writes live in the private `emission`
//!   module; the Subst-based [`GroundingMode::Full`] enumeration and the
//!   deliberately simple [`JoinStrategy::Naive`] differential oracle in
//!   `instantiate`;
//! * [`depgraph`] — predicate/atom dependency graphs, Tarjan SCCs,
//!   stratification, local stratification and acyclicity tests for the
//!   program classes discussed in Sec. 7 of the paper.
//!
//! ## CSR ground-program layout
//!
//! [`GroundProgram`] is the substrate every fixpoint engine runs on, so
//! its layout is optimised for iteration, not mutation:
//!
//! * clause bodies live in **one flat `Vec<GroundAtomId>`** (positive
//!   literals first, then negative), delimited per clause by two offset
//!   tables — no per-clause boxes, no pointer chasing;
//! * [`GroundProgram::clause`] returns a borrowed [`ClauseRef`] view
//!   (`head` + `pos`/`neg` slices); the owned [`GroundClause`] exists
//!   only as a builder/dedup key;
//! * [`GroundProgram::finalize`] maintains three reverse indexes: head →
//!   clauses, atom → positively-watching clauses (one entry per
//!   occurrence, so counter propagation decrements per watch) and atom →
//!   negatively-watching clauses — extended over the appended suffix
//!   when the store only grew, rebuilt otherwise. Engines
//!   (`gsls_wfs::Propagator`, the tabled engine, the solver) read these
//!   instead of rebuilding watch lists per call. The fourth index,
//!   predicate → atoms, is kept current at interning time and needs no
//!   finalize.
//!
//! **Sharing contract:** the store has a reader side and a writer side.
//! The *atom side* — [`GroundAtoms`]: atom arena, interning table,
//! predicate → atoms lists — is all a query reads
//! ([`GroundAtoms::lookup_atom_parts`], [`GroundAtoms::atoms_with_pred`],
//! [`GroundAtoms::arg_candidates`], [`GroundAtoms::atom`]); it is append-only and lives on
//! `gsls_lang::Arena` chunks, so a session snapshot captures it with
//! [`GroundProgram::share_atoms`] — refcount bumps, no atom copied — and
//! the writer's next interning copies only the chunks it lands in. One
//! part of the atom side is **reader-written**: the argument index
//! behind [`GroundAtoms::arg_candidates`] (two sorted runs — a big one
//! and a small one that absorbs recent appends — over a prefix of a
//! predicate's atom list, per argument position, so a lookup walks at
//! most 64 unsealed atoms; see `argindex`) sits in a cell that queries
//! fill and refill on demand. The writer never looks inside it —
//! interning, the grounder and `finalize` do not touch it — and only
//! hands it on: `share()` gives a snapshot the same cell, so a run
//! sealed by any state of the lineage serves all of them, while
//! `clone()` starts an empty one, because a clone may go on to intern
//! different atoms under the same ids. The
//! *clause side* — heads, bodies, offsets, the three reverse indexes —
//! stays contiguous and writer-private: only the fixpoint chains and the
//! grounder read it (a model is already the clauses' consequence, so no
//! reader needs them), which is why `finalize` may keep merging new
//! watch entries *into* existing rows of the reverse CSRs in place.
//! `GroundProgram::clone` still copies the clause side in full, for
//! engines that want a program of their own.
//!
//! **Mutation contract:** `push_clause` / fresh-atom `intern_atom`
//! invalidate the indexes; call `finalize` again before using any
//! index-backed accessor (they panic otherwise). [`Grounder::ground`]
//! returns programs already finalized.
//!
//! **Truncation contract:** appends are the only mutation, so every
//! earlier state is a prefix of the current one and
//! [`GroundProgram::truncate_to`] /
//! [`IncrementalGrounder::truncate_to`] return to it in time
//! proportional to what is dropped: clause arrays and reverse-index
//! tails are cut, dropped atoms are unlinked from the interning table
//! and their predicates' lists, fact rows and postings are popped.
//! Snapshots published in between keep the chunks they share
//! (`gsls_lang::Arena::truncate_to`). Of the argument index the writer
//! keeps every run that covers only surviving atoms and moves to a
//! fresh cell — a snapshot from inside the cut range is on a dead branch
//! of the lineage, and what it seals later must not reach the states
//! that reuse its ids.

#![forbid(unsafe_code)]

mod argindex;
pub mod depgraph;
mod emission;
mod factstore;
pub mod grounder;
pub mod herbrand;
mod instantiate;
mod plan;
pub mod program;
pub mod testutil;

pub use argindex::{ArgCandidates, Reseal};
pub use depgraph::{AtomDepGraph, DepGraph, ProgramClass};
pub use grounder::{
    GroundMark, GroundStats, Grounder, GrounderOpts, GroundingError, GroundingMode,
    IncrementalGrounder, JoinStrategy,
};
pub use herbrand::{augment_program, herbrand_universe, term_transform, HerbrandOpts};
pub use program::{ClauseRef, Csr, GroundAtomId, GroundAtoms, GroundClause, GroundProgram};
