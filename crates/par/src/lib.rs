//! # gsls-par — the resource guard and the thread-count policy
//!
//! Two small things every other crate of the workspace reads, kept in
//! the one dependency-free crate at the bottom of the graph (**only
//! `std::sync`**, matching the workspace's offline-shim policy):
//!
//! * [`govern`] — [`Guard`]: the engine-wide cancellation / deadline /
//!   memory-budget token every hot loop polls;
//! * [`threads`] / [`threads_from`] — how many threads a component that
//!   fans out should start: the reader fan-outs of the concurrency
//!   tests, and `benchmark/`'s `host.par_threads`.
//!
//! Evaluation itself — grounding, the alternating fixpoint, SCC-by-SCC
//! tabling — is sequential, as the paper's effective procedure is: this
//! crate schedules nothing.
//!
//! ## Thread-count policy
//!
//! [`threads`] honours the `GSLS_THREADS` environment override and
//! falls back to [`std::thread::available_parallelism`].

pub mod govern;

pub use govern::{Guard, GuardBuilder, InterruptCause, InterruptHandle, TICK_INTERVAL};

/// Hard cap on accepted thread counts; a `GSLS_THREADS` typo should not
/// try to spawn a million workers.
const MAX_THREADS: usize = 256;

/// The worker count to use: the `GSLS_THREADS` environment variable if
/// it parses to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if unavailable).
pub fn threads() -> usize {
    threads_from(std::env::var("GSLS_THREADS").ok().as_deref())
}

/// [`threads`] with the environment read factored out, so the override
/// parsing is unit-testable without mutating process state.
pub fn threads_from(raw: Option<&str>) -> usize {
    if let Some(s) = raw {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_parses() {
        assert_eq!(threads_from(Some("4")), 4);
        assert_eq!(threads_from(Some(" 2 ")), 2);
        assert_eq!(threads_from(Some("1")), 1);
        assert_eq!(threads_from(Some("100000")), MAX_THREADS);
    }

    #[test]
    fn bad_override_falls_back_to_hardware() {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for raw in [None, Some(""), Some("0"), Some("-3"), Some("lots")] {
            assert_eq!(threads_from(raw), hw, "raw={raw:?}");
        }
    }
}
