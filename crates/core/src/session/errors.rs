//! The session's error vocabulary: what a commit batch can be rejected
//! for ([`CommitError`], collected into a [`CommitRejection`]) and what
//! any session operation can fail with ([`SessionError`]).

use crate::govern::{InterruptCause, InterruptPhase, TripInfo};
use gsls_analyze::Diagnostic;
use gsls_durable::DurableError;
use gsls_ground::GroundingError;
use gsls_lang::ParseError;
use std::fmt;

/// Why a commit batch was rejected *before* anything was journaled or
/// applied. A rejected batch leaves the session exactly as it was —
/// consistent, unpoisoned, writable.
///
/// Validation is deliberately permissive about *new* predicates: the
/// first assert (or rule) mentioning a symbol defines its arity, so
/// facts may be asserted before any rule over them exists and retracts
/// of never-asserted facts stay silent no-ops. What it rejects is
/// state that could never replay cleanly: a predicate used at two
/// arities, a non-ground "fact", or a function symbol slipping into
/// the function-free session engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// A predicate is used at an arity different from the one it
    /// already has (committed or earlier in the same batch).
    ArityMismatch {
        /// Predicate name.
        pred: String,
        /// The arity the predicate is already known at.
        expected: usize,
        /// The arity this batch used.
        found: usize,
    },
    /// An asserted or retracted fact contains variables.
    NotGround(String),
    /// A clause or fact mentions a proper function symbol.
    FunctionSymbol(String),
    /// The static analyzer flagged a rule at deny level under the
    /// session's [`gsls_analyze::LintConfig`] (floundering hazards,
    /// non-range-restricted rules, …). The diagnostic carries the lint,
    /// span and witness.
    Unsafe(Diagnostic),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::ArityMismatch {
                pred,
                expected,
                found,
            } => write!(
                f,
                "predicate {pred} used at arity {found} but is declared at arity {expected}"
            ),
            CommitError::NotGround(a) => write!(f, "fact is not ground: {a}"),
            CommitError::FunctionSymbol(a) => {
                write!(
                    f,
                    "function symbols are not allowed in the session engine: {a}"
                )
            }
            CommitError::Unsafe(d) => write!(f, "unsafe program: {}", d.render()),
        }
    }
}

impl std::error::Error for CommitError {}

/// Everything wrong with one rejected commit batch: *all* violations
/// are collected, not just the first, so a client gets the complete
/// report in one round trip. Nothing was journaled or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRejection {
    /// The violations, in batch order (analyzer findings last).
    pub errors: Vec<CommitError>,
}

impl CommitRejection {
    /// The first violation (every rejection has at least one).
    pub fn first(&self) -> &CommitError {
        &self.errors[0]
    }
}

impl fmt::Display for CommitRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.errors.len() == 1 {
            return write!(f, "{}", self.errors[0]);
        }
        write!(f, "{} violations:", self.errors.len())?;
        for e in &self.errors {
            write!(f, "\n  - {e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CommitRejection {}

impl From<CommitError> for CommitRejection {
    fn from(e: CommitError) -> Self {
        CommitRejection { errors: vec![e] }
    }
}

/// Session errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// A source string failed to parse.
    Parse(ParseError),
    /// Grounding failed (clause budget).
    Grounding(String),
    /// The session engine requires function-free programs.
    NotFunctionFree,
    /// `assert_facts` / `retract_facts` was given a non-fact clause or
    /// a non-ground fact.
    NotAFact(String),
    /// Query shape not supported by the selected engine.
    Unsupported(String),
    /// `begin` while a transaction is already open.
    NestedTransaction,
    /// The commit batch failed up-front validation; nothing was
    /// journaled or applied. Every violation of the batch is collected
    /// ([`CommitRejection`]).
    Rejected(CommitRejection),
    /// The durability layer failed (WAL append, checkpoint write,
    /// corrupt stored state on open).
    Durable(String),
    /// An earlier commit could not be fully unwound — its WAL record
    /// could not be cut off, a group's covering fsync failed, or a panic
    /// escaped mid-apply (and the engine rebuild that follows one has
    /// yet to run, or failed). The session
    /// serves reads of the last consistent model and refuses writes
    /// until [`super::Session::recover`] completes the unwind.
    Poisoned,
    /// A governed operation was interrupted — cancelled through an
    /// [`crate::govern::InterruptHandle`], past its deadline, or over its
    /// resource budget. An interrupted *commit* has been fully rolled back
    /// (WAL record truncated, engine restored at the previous epoch):
    /// it is equivalent to a rolled-back transaction, and the session
    /// stays writable. An `Admission` phase means the batch was
    /// rejected before anything was journaled.
    Interrupted {
        /// Where the interruption surfaced.
        phase: InterruptPhase,
        /// What tripped the guard.
        cause: InterruptCause,
        /// Resource readings (fuel / deadline overshoot / memory)
        /// captured at trip time, before rollback — so forensics
        /// don't require a rerun.
        trip: TripInfo,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "parse error: {e}"),
            SessionError::Grounding(e) => write!(f, "grounding failed: {e}"),
            SessionError::NotFunctionFree => {
                write!(f, "the session engine requires a function-free program")
            }
            SessionError::NotAFact(e) => write!(f, "not a ground fact: {e}"),
            SessionError::Unsupported(e) => write!(f, "unsupported query: {e}"),
            SessionError::NestedTransaction => write!(f, "a transaction is already open"),
            SessionError::Rejected(e) => write!(f, "commit rejected: {e}"),
            SessionError::Durable(e) => write!(f, "durability error: {e}"),
            SessionError::Poisoned => {
                write!(f, "session poisoned by a failed commit; reads only")
            }
            SessionError::Interrupted { phase, cause, trip } => {
                write!(f, "interrupted during {phase}: {cause}")?;
                let readings = trip.render();
                if !readings.is_empty() {
                    write!(f, " ({readings})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ParseError> for SessionError {
    fn from(e: ParseError) -> Self {
        SessionError::Parse(e)
    }
}

impl From<GroundingError> for SessionError {
    fn from(e: GroundingError) -> Self {
        match e {
            GroundingError::Interrupted(cause) => SessionError::Interrupted {
                phase: InterruptPhase::Grounding,
                cause,
                trip: TripInfo::default(),
            },
            other => SessionError::Grounding(other.to_string()),
        }
    }
}

impl From<DurableError> for SessionError {
    fn from(e: DurableError) -> Self {
        SessionError::Durable(e.to_string())
    }
}

impl From<CommitError> for SessionError {
    fn from(e: CommitError) -> Self {
        SessionError::Rejected(e.into())
    }
}

impl From<CommitRejection> for SessionError {
    fn from(e: CommitRejection) -> Self {
        SessionError::Rejected(e)
    }
}
