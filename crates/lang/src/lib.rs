//! # gsls-lang — the object language of normal logic programs
//!
//! This crate implements the syntactic substrate used by every other crate
//! in the workspace: interned symbols, hash-consed terms, atoms, literals,
//! clauses, programs, goals, substitutions, unification, renaming-apart, a
//! Prolog-style parser and a pretty-printer.
//!
//! The definitions follow Section 1.1 of Ross, *A Procedural Semantics for
//! Well-Founded Negation in Logic Programs* (PODS 1989 / JLP 1992):
//!
//! * a **normal program clause** is `A ← L₁, …, Lₙ` with `A` an atom and
//!   each `Lᵢ` a positive or negative literal ([`Clause`]);
//! * a **program** is a finite set of such clauses ([`Program`]);
//! * a **query** is a set of literals, written as a goal `← Q` ([`Goal`]).
//!
//! ## Term representation
//!
//! Terms are hash-consed into an append-only arena ([`TermStore`]) and
//! referred to by copyable [`TermId`] indices. Structural equality is
//! pointer (id) equality, `is_ground`/`depth`/`size` are cached per term,
//! and shared term graphs never require reference counting — the design
//! recommended for index-heavy database engines.
//!
//! The arena and its hash-consing table are built from the two sharing
//! primitives of the workspace — [`arena::Arena`], a chunked vector whose
//! chunks can be published behind `Arc`s, and [`idtable::IdTable`], the
//! one open-addressing intern table (symbols, terms, ground atoms and
//! ground clauses all intern through it) — so [`TermStore::share`] hands
//! a reader a frozen prefix of the store without copying a term.
//!
//! ```
//! use gsls_lang::{TermStore, Program, parse_program, parse_goal};
//!
//! let mut store = TermStore::new();
//! let prog: Program = parse_program(
//!     &mut store,
//!     "win(X) :- move(X, Y), ~win(Y). move(a, b). move(b, a).",
//! ).unwrap();
//! assert_eq!(prog.len(), 3);
//! let goal = parse_goal(&mut store, "?- win(a).").unwrap();
//! assert_eq!(goal.literals().len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod atom;
pub mod clause;
pub mod error;
pub mod fxhash;
pub mod idtable;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod proto;
pub mod rename;
pub mod subst;
pub mod symbol;
pub mod term;
pub mod unify;
pub mod wire;

pub use arena::{Arena, CowTally};
pub use atom::{Atom, Literal, Pred, Sign};
pub use clause::Clause;
pub use error::ParseError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use parser::{parse_goal, parse_program, parse_query, parse_term};
pub use program::{Goal, Program, Span};
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, CommitNumbers, ErrorKind,
    GovernOpts, Request, Response, TruthTag, PROTO_VERSION,
};
pub use rename::Renamer;
pub use subst::Subst;
pub use symbol::{Symbol, SymbolTable};
pub use term::{Term, TermId, TermStore, Var};
pub use unify::{match_term, match_term_recording, unify, unify_atoms, UnifyOpts};
pub use wire::{
    decode_atom, decode_clause, decode_term, encode_atom, encode_clause, encode_term, read_str,
    read_uv, write_str, write_uv, VarScope, WireError, WireReader,
};
