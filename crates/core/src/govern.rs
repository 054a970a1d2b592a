//! Engine-wide resource governance: deadlines, cancellation, and
//! admission control for the [`crate::Session`] API.
//!
//! The mechanism lives in [`gsls_par::govern`] (re-exported here): a
//! `Send + Sync` [`Guard`] bundling a cancel flag, an optional
//! deadline, an approximate memory budget, and a deterministic fuel
//! counter, checked every [`TICK_INTERVAL`] work units by every hot
//! loop in the engine — the grounder's join/seed rounds, the
//! incremental fixpoint chains behind the well-founded refresh, the
//! streaming query iterator, and SCC-by-SCC tabling.
//!
//! This module adds the session-facing policy types:
//!
//! * [`CommitOpts`] — per-commit limits for
//!   [`crate::Session::commit_with`]: wall-clock deadline, clause cap,
//!   and memory budget (admission-controlled *before* WAL journaling,
//!   enforced again during grounding).
//! * [`QueryOpts`] — per-query limits for
//!   [`crate::Session::query_governed`], or for
//!   [`crate::PreparedQuery::execute_governed`] through the guard
//!   [`crate::Session::query_guard`] builds from them.
//! * [`InterruptPhase`] — where an interruption surfaced, carried by
//!   `SessionError::Interrupted` together with the [`InterruptCause`].
//!
//! An interrupted commit unwinds exactly like a failed one: the WAL
//! record is truncated off, the program is restored, and the engine is
//! truncated back to the previous epoch — whatever the commit had
//! appended when the guard tripped is cut off again, at a cost
//! proportional to that — so a timeout is a rolled-back transaction,
//! never a poisoned session (only an unwind that storage refuses to
//! complete poisons), and never a stall for the writers queued behind
//! it. An interrupted query stops
//! yielding and reports the cause through
//! [`crate::session::Answers::interrupted`] — the answers already
//! streamed remain valid (a partial-answers outcome).

pub use gsls_par::govern::{Guard, GuardBuilder, InterruptCause, InterruptHandle, TICK_INTERVAL};
use std::time::Instant;

/// Which engine phase an interruption (or admission rejection)
/// surfaced in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterruptPhase {
    /// Pre-commit admission control: the batch was *predicted* to
    /// exceed a [`CommitOpts`] limit and rejected before anything was
    /// journaled or applied.
    Admission,
    /// Delta-grounding (join/seed rounds, memory polling per round).
    Grounding,
    /// The alternating well-founded refresh on the warm chains.
    ModelRefresh,
    /// A streamed query evaluation.
    Query,
}

impl std::fmt::Display for InterruptPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InterruptPhase::Admission => "admission",
            InterruptPhase::Grounding => "grounding",
            InterruptPhase::ModelRefresh => "model refresh",
            InterruptPhase::Query => "query",
        })
    }
}

/// Resource readings captured at the moment a guard tripped, carried
/// by `SessionError::Interrupted` so timeout forensics don't require a
/// rerun. Every field is optional: only the limits the guard actually
/// enforced (and, for memory, the phases where a byte count is
/// available) produce readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TripInfo {
    /// Fuel remaining when the trip surfaced (fuel-metered guards).
    pub fuel_remaining: Option<u64>,
    /// How far past the deadline the trip surfaced, in nanoseconds
    /// (deadline-bearing guards; 0 when the trip beat the deadline,
    /// e.g. a cancel).
    pub deadline_over_ns: Option<u64>,
    /// Approximate engine bytes in use (term store + ground program)
    /// at trip time.
    pub memory_used_bytes: Option<usize>,
    /// The memory budget the guard enforced, if any.
    pub memory_budget_bytes: Option<usize>,
}

impl TripInfo {
    /// Readings derivable from the guard alone (fuel + deadline);
    /// callers that can produce a byte count fill the memory fields.
    pub fn from_guard(guard: &Guard) -> TripInfo {
        TripInfo {
            fuel_remaining: guard.fuel_remaining(),
            deadline_over_ns: guard.deadline().map(|d| {
                Instant::now()
                    .checked_duration_since(d)
                    .map_or(0, |over| over.as_nanos() as u64)
            }),
            memory_used_bytes: None,
            memory_budget_bytes: guard.memory_budget(),
        }
    }

    /// Renders the non-empty readings as `key=value` pairs for error
    /// messages and trace events; empty string when nothing was read.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        if let Some(f) = self.fuel_remaining {
            parts.push(format!("fuel_remaining={f}"));
        }
        if let Some(ns) = self.deadline_over_ns {
            parts.push(format!("deadline_over_ns={ns}"));
        }
        if let Some(b) = self.memory_used_bytes {
            parts.push(format!("memory_used_bytes={b}"));
        }
        if let Some(b) = self.memory_budget_bytes {
            parts.push(format!("memory_budget_bytes={b}"));
        }
        parts.join(" ")
    }
}

/// Per-commit resource limits for [`crate::Session::commit_with`].
///
/// All limits are optional; the default is fully ungoverned (identical
/// to [`crate::Session::commit`], one dead branch per tick). The
/// clause cap and memory budget are enforced twice: *predictively* at
/// admission (the analyzer's instantiation estimates, before the WAL
/// sees a record) and *actually* during grounding (per-round byte
/// accounting over the term store, ground CSR, and fact indexes).
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitOpts {
    /// Wall-clock deadline; tripping yields `DeadlineExceeded`.
    pub deadline: Option<Instant>,
    /// Cap on total ground clauses after the commit (admission-checked
    /// against the analyzer's instantiation estimate).
    pub max_clauses: Option<usize>,
    /// Approximate memory budget in bytes over the term store + ground
    /// program + fact indexes; tripping yields `MemoryBudget`.
    pub max_memory_bytes: Option<usize>,
    /// Deterministic work budget: the commit is interrupted (as
    /// `Cancelled`) after this many guard checks. The fault-injection
    /// hook behind the interrupt-at-every-phase sweeps; `None` (the
    /// default) means unlimited.
    pub fuel: Option<u64>,
    /// Panic instead of returning when the fuel runs out — the
    /// crash-injection hook (see `gsls_par::govern::FUEL_PANIC`).
    pub panic_on_fuel: bool,
}

impl CommitOpts {
    /// No limits (equivalent to `CommitOpts::default()`).
    pub fn none() -> CommitOpts {
        CommitOpts::default()
    }

    /// Sets a wall-clock deadline `timeout` from now.
    pub fn with_timeout(mut self, timeout: std::time::Duration) -> CommitOpts {
        self.deadline = Some(Instant::now() + timeout);
        self
    }
}

/// Per-query resource limits for [`crate::Session::query_governed`] and
/// [`crate::Session::query_guard`] (whose guard
/// [`crate::PreparedQuery::execute_governed`] takes).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOpts {
    /// Wall-clock deadline; tripping yields `DeadlineExceeded`.
    pub deadline: Option<Instant>,
    /// Deterministic work budget (trips as `Cancelled`); the
    /// fault-injection hook, `None` = unlimited.
    pub fuel: Option<u64>,
}

impl QueryOpts {
    /// Sets a wall-clock deadline `timeout` from now.
    pub fn with_timeout(mut self, timeout: std::time::Duration) -> QueryOpts {
        self.deadline = Some(Instant::now() + timeout);
        self
    }
}
