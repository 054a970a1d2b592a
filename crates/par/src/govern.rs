//! Cooperative cancellation, deadlines, and resource budgets.
//!
//! A [`Guard`] is the engine-wide governance token: a shared cancel
//! flag, an optional wall-clock deadline, an optional approximate
//! memory budget, and (for deterministic fault injection) an optional
//! fuel counter that trips after a fixed number of checks. Every hot
//! loop in the workspace — grounder join rounds, fixpoint propagation,
//! query enumeration, SCC-by-SCC tabling — carries a `Guard` and
//! polls it every [`TICK_INTERVAL`] work units via [`Guard::tick`].
//!
//! The design goal is that an **ungoverned** guard ([`Guard::none`])
//! costs one predictable branch per tick site: the inner state is an
//! `Option<Arc<_>>`, so the `None` case never touches shared memory,
//! never reads the clock, and adds no per-iteration atomics.
//!
//! Governed checks are still cheap: the cancel flag is a relaxed-ish
//! atomic load, the clock is read only on real checks (once per
//! `TICK_INTERVAL` units, not per unit), and the memory budget is
//! compared against caller-supplied byte counts at coarse boundaries
//! (per grounding round, per fixpoint pass) rather than per operation.
//!
//! Fuel exists so tests can interrupt *deterministically at every
//! phase*: a guard with `fuel = k` trips on the `k`-th check no matter
//! what the clock or scheduler does, and `panic_on_trip` turns that
//! trip into a panic to exercise unwind paths. Production guards never
//! set either.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many work units a hot loop performs between real guard checks.
/// A power of two so the tick test compiles to a mask.
pub const TICK_INTERVAL: u32 = 1024;

/// Why a governed operation stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterruptCause {
    /// The cancel flag was set (by an [`InterruptHandle`], another
    /// thread, or fuel exhaustion during fault injection).
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The approximate memory accounting exceeded the budget.
    MemoryBudget,
}

impl std::fmt::Display for InterruptCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterruptCause::Cancelled => write!(f, "cancelled"),
            InterruptCause::DeadlineExceeded => write!(f, "deadline exceeded"),
            InterruptCause::MemoryBudget => write!(f, "memory budget exceeded"),
        }
    }
}

#[derive(Debug)]
struct GuardInner {
    cancel: Arc<AtomicBool>,
    deadline: Option<Instant>,
    max_memory_bytes: Option<usize>,
    /// Remaining check allowance for deterministic fault injection;
    /// `u64::MAX` means unlimited.
    fuel: AtomicU64,
    /// When fuel runs out, panic instead of returning `Cancelled`
    /// (drives the panic-at-every-stage sweeps).
    panic_on_trip: bool,
}

/// A shareable cancellation/deadline/budget token. Cloning is cheap
/// (an `Arc` bump); all clones observe the same cancel flag.
///
/// `Guard::default()` / [`Guard::none`] is the ungoverned guard: every
/// check is an inlined `None` test and nothing ever trips.
#[derive(Debug, Clone, Default)]
pub struct Guard {
    inner: Option<Arc<GuardInner>>,
}

/// Message for the panic raised when a guard with `panic_on_trip` runs
/// out of fuel; the fault harness matches on it.
pub const FUEL_PANIC: &str = "governance fuel exhausted (injected panic)";

impl Guard {
    /// The ungoverned guard: never trips, costs one branch per check.
    pub const fn none() -> Self {
        Guard { inner: None }
    }

    /// Starts building a governed guard.
    pub fn builder() -> GuardBuilder {
        GuardBuilder::default()
    }

    /// Whether this guard can ever trip.
    pub fn is_governed(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the cancel flag: the next check anywhere this guard (or a
    /// clone, or its [`InterruptHandle`]) is polled returns
    /// [`InterruptCause::Cancelled`]. No-op on an ungoverned guard.
    pub fn cancel(&self) {
        if let Some(g) = &self.inner {
            g.cancel.store(true, Ordering::SeqCst);
        }
    }

    /// Whether the cancel flag is set.
    pub fn is_cancelled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|g| g.cancel.load(Ordering::SeqCst))
    }

    /// A handle that can cancel this guard from any thread.
    pub fn interrupt_handle(&self) -> InterruptHandle {
        InterruptHandle {
            cancel: self
                .inner
                .as_ref()
                .map(|g| Arc::clone(&g.cancel))
                .unwrap_or_default(),
        }
    }

    /// Performs a real check: fuel, cancel flag, then deadline. Hot
    /// loops should prefer [`Guard::tick`], which amortizes this over
    /// [`TICK_INTERVAL`] work units.
    #[inline]
    pub fn check(&self) -> Result<(), InterruptCause> {
        match &self.inner {
            None => Ok(()),
            Some(g) => g.check(),
        }
    }

    /// Counts one unit of work against `counter` and runs a real check
    /// every [`TICK_INTERVAL`] units. The counter is caller-owned so
    /// each loop ticks at its own cadence without shared-cache traffic.
    #[inline]
    pub fn tick(&self, counter: &mut u32) -> Result<(), InterruptCause> {
        let Some(g) = &self.inner else {
            return Ok(());
        };
        *counter = counter.wrapping_add(1);
        if *counter & (TICK_INTERVAL - 1) == 0 {
            g.check()
        } else {
            Ok(())
        }
    }

    /// Checks `used_bytes` against the memory budget (if any), after a
    /// real [`Guard::check`]. Call at coarse boundaries where a current
    /// byte count is cheap to produce.
    pub fn check_memory(&self, used_bytes: usize) -> Result<(), InterruptCause> {
        let Some(g) = &self.inner else {
            return Ok(());
        };
        g.check()?;
        match g.max_memory_bytes {
            Some(max) if used_bytes > max => Err(InterruptCause::MemoryBudget),
            _ => Ok(()),
        }
    }

    /// The memory budget this guard enforces, if any.
    pub fn memory_budget(&self) -> Option<usize> {
        self.inner.as_ref().and_then(|g| g.max_memory_bytes)
    }

    /// Fuel remaining, if this guard meters fuel. Read at trip time it
    /// answers "how close was the budget" without a rerun.
    pub fn fuel_remaining(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|g| g.fuel.load(Ordering::Relaxed))
            .filter(|&f| f != u64::MAX)
    }

    /// The wall-clock deadline this guard enforces, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|g| g.deadline)
    }
}

impl GuardInner {
    #[inline]
    fn check(&self) -> Result<(), InterruptCause> {
        if self.fuel.load(Ordering::Relaxed) != u64::MAX {
            let burned = self
                .fuel
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |f| f.checked_sub(1))
                .is_err();
            if burned {
                if self.panic_on_trip {
                    panic!("{FUEL_PANIC}");
                }
                return Err(InterruptCause::Cancelled);
            }
        }
        if self.cancel.load(Ordering::SeqCst) {
            return Err(InterruptCause::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(InterruptCause::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// Builder for a governed [`Guard`]. All limits are optional; a built
/// guard with none of them set still responds to [`Guard::cancel`].
#[derive(Debug, Default)]
pub struct GuardBuilder {
    cancel: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    max_memory_bytes: Option<usize>,
    fuel: Option<u64>,
    panic_on_trip: bool,
}

impl GuardBuilder {
    /// Uses `flag` as the cancel flag, sharing it with other guards
    /// (a [`crate::govern::InterruptHandle`] built from any of them
    /// cancels all). Fresh flag if unset.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Trips with [`InterruptCause::DeadlineExceeded`] once `deadline`
    /// passes.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Trips with [`InterruptCause::MemoryBudget`] when a
    /// [`Guard::check_memory`] call reports more than `bytes`.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Fault injection: trips (as `Cancelled`) on check number
    /// `checks + 1`, deterministically.
    pub fn fuel(mut self, checks: u64) -> Self {
        self.fuel = Some(checks);
        self
    }

    /// Fault injection: panic with [`FUEL_PANIC`] instead of returning
    /// an error when fuel runs out.
    pub fn panic_on_trip(mut self) -> Self {
        self.panic_on_trip = true;
        self
    }

    /// Builds the governed guard.
    pub fn build(self) -> Guard {
        Guard {
            inner: Some(Arc::new(GuardInner {
                cancel: self.cancel.unwrap_or_default(),
                deadline: self.deadline,
                max_memory_bytes: self.max_memory_bytes,
                fuel: AtomicU64::new(self.fuel.unwrap_or(u64::MAX)),
                panic_on_trip: self.panic_on_trip,
            })),
        }
    }
}

/// Cancels an in-flight governed operation from any thread. Cloneable,
/// `Send + Sync`, and safe to hold across operations: the flag is
/// shared with every guard built from the same
/// [`GuardBuilder::cancel_flag`].
#[derive(Debug, Clone, Default)]
pub struct InterruptHandle {
    cancel: Arc<AtomicBool>,
}

impl InterruptHandle {
    /// A handle around an existing shared flag.
    pub fn from_flag(cancel: Arc<AtomicBool>) -> Self {
        InterruptHandle { cancel }
    }

    /// Requests cancellation: every guard sharing this flag trips at
    /// its next check.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested and not yet cleared.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// Clears the flag (the owner does this when an operation starts,
    /// so a stale cancel does not kill the next one).
    pub fn clear(&self) {
        self.cancel.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ungoverned_never_trips() {
        let g = Guard::none();
        let mut c = 0u32;
        for _ in 0..10_000 {
            g.tick(&mut c).unwrap();
        }
        g.check().unwrap();
        g.check_memory(usize::MAX).unwrap();
        assert!(!g.is_governed());
        g.cancel(); // no-op
        assert!(!g.is_cancelled());
    }

    #[test]
    fn cancel_trips_all_clones() {
        let g = Guard::builder().build();
        let h = g.interrupt_handle();
        let g2 = g.clone();
        g.check().unwrap();
        h.cancel();
        assert_eq!(g.check(), Err(InterruptCause::Cancelled));
        assert_eq!(g2.check(), Err(InterruptCause::Cancelled));
        h.clear();
        g.check().unwrap();
    }

    #[test]
    fn deadline_trips() {
        let g = Guard::builder()
            .deadline(Instant::now() - Duration::from_millis(1))
            .build();
        assert_eq!(g.check(), Err(InterruptCause::DeadlineExceeded));
        let far = Guard::builder()
            .deadline(Instant::now() + Duration::from_secs(3600))
            .build();
        far.check().unwrap();
    }

    #[test]
    fn memory_budget_trips_only_over() {
        let g = Guard::builder().memory_budget(1000).build();
        g.check_memory(1000).unwrap();
        assert_eq!(g.check_memory(1001), Err(InterruptCause::MemoryBudget));
        assert_eq!(g.memory_budget(), Some(1000));
    }

    #[test]
    fn fuel_trips_deterministically() {
        let g = Guard::builder().fuel(3).build();
        g.check().unwrap();
        g.check().unwrap();
        g.check().unwrap();
        assert_eq!(g.check(), Err(InterruptCause::Cancelled));
        assert_eq!(g.check(), Err(InterruptCause::Cancelled));
    }

    #[test]
    fn tick_checks_every_interval() {
        let g = Guard::builder().fuel(1).build();
        let mut c = 0u32;
        // First TICK_INTERVAL-1 ticks burn no fuel...
        for _ in 0..TICK_INTERVAL - 1 {
            g.tick(&mut c).unwrap();
        }
        // ...tick INTERVAL burns the single unit, tick 2*INTERVAL trips.
        g.tick(&mut c).unwrap();
        for _ in 0..TICK_INTERVAL - 1 {
            g.tick(&mut c).unwrap();
        }
        assert_eq!(g.tick(&mut c), Err(InterruptCause::Cancelled));
    }

    #[test]
    fn fuel_panic_mode() {
        let g = Guard::builder().fuel(0).panic_on_trip().build();
        let r = std::panic::catch_unwind(|| g.check());
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("governance fuel exhausted"));
    }
}
