//! # gsls-wfs — the well-founded semantics, bottom-up
//!
//! Ground-level fixpoint machinery for the well-founded semantics of
//! Van Gelder, Ross & Schlipf, as summarised in Section 2 of Ross's
//! global-SLS paper:
//!
//! * [`interp`] — three-valued partial interpretations (Def. 1.7);
//! * [`propagator`] — the **reusable Dowling–Gallier propagation
//!   context** every engine's least fixpoints run through;
//! * [`incremental`] — the **difference-driven** mode of that substrate:
//!   reduct fixpoints maintained across a chain of nearby contexts, with
//!   work proportional to the context *delta* (revive / delete-and-
//!   rederive through `watch_neg`), backing the alternating fixpoint and
//!   the `V_P` stages;
//! * [`tp`] — the immediate-consequence operators `T_P`, `T̄_P` and the
//!   linear-time reduct least fixpoint (convenience wrappers over the
//!   propagator, plus the rebuild-per-call baseline for the perf
//!   harness);
//! * [`unfounded`] — greatest unfounded sets `U_P(I)` (Def. 2.1/2.2);
//! * [`wp`] — the `W_P` and `V_P` iterations with per-literal **stages**
//!   (Def. 2.3/2.4), the quantity Theorem 4.5 equates with global-tree
//!   levels;
//! * [`alternating`] — the efficient alternating-fixpoint algorithm used
//!   as the bottom-up baseline in every benchmark;
//! * [`fitting`] — Fitting's Kripke–Kleene semantics (comparison);
//! * [`stable`] — stable-model enumeration (comparison).
//!
//! All engines operate on **finalized** [`gsls_ground::GroundProgram`]s
//! (CSR clause storage + precomputed watch indexes).
//!
//! ## Propagator reuse contract
//!
//! A [`Propagator`] is created once per ground program and owns all
//! propagation scratch (missing-literal counters, queue, liveness
//! stamps). Hot paths — the alternating fixpoint, stable-model
//! enumeration, `W_P`/`V_P` stages, and the tabled engine's SCC-local
//! fixpoints in `gsls-core` — hold one propagator plus caller-owned
//! output bitsets and therefore perform **zero heap allocation per
//! reduct call** after warm-up (pinned by `tests/alloc_zero.rs` with a
//! counting allocator). The convenience functions ([`lfp_with`],
//! [`greatest_unfounded`], …) allocate fresh scratch per call and exist
//! for tests and one-shot callers; see [`propagator`] for the full
//! contract, including the pre-clearing rule for
//! [`Propagator::lfp_restricted`].

pub mod alternating;
pub mod bitset;
pub mod fitting;
pub mod incremental;
pub mod interp;
pub mod propagator;
pub mod stable;
pub mod tp;
pub mod unfounded;
pub mod wp;

pub use alternating::{
    well_founded_model, well_founded_model_rebuild, well_founded_model_scratch,
    well_founded_model_with_stats, well_founded_refresh, well_founded_refresh_governed,
    AlternatingStats, ChangeCone,
};
pub use bitset::BitSet;
pub use fitting::{fitting_model, phi};
pub use incremental::{IncStats, IncrementalLfp, NegMode};
pub use interp::{Interp, Truth};
pub use propagator::Propagator;
pub use stable::{is_stable_model, stable_intersection, stable_models, wfm_within_all_stable};
pub use tp::{lfp_with, lfp_with_rebuild, tp, tp_bar, tp_into, tp_omega};
pub use unfounded::{greatest_unfounded, is_unfounded_set, unfounded_into};
pub use wp::{vp_iteration, wp_iteration, StagedModel};
