//! What a commit allocates *for its own rollback*: nothing. The point a
//! failing commit returns to is a handful of lengths, and the retracted
//! set is edited in place with the displaced atoms moved into an undo
//! log — so a commit on a session with 64 facts retracted allocates
//! exactly what the same commit allocates with none retracted. (Before,
//! every commit cloned the whole retracted set up front: one allocation
//! per retracted fact, successful or not.) Counted with a counting
//! allocator, in the style of `crates/lang/tests/alloc_budget.rs`; the
//! counter is thread-local, so the harness's own threads stay out of it.

use global_sls::prelude::*;
use gsls_workloads::win_grid;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only
// addition is a thread-local counter bump, which cannot allocate (const
// initialised, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations of a retract commit, a re-assert commit and a rolled-back
/// insert on a 16×16 board with `retracted` of its edges switched off —
/// each measured on its third round, when every buffer has its size.
fn commit_allocs(retracted: usize) -> [u64; 3] {
    let mut store = TermStore::new();
    let program = win_grid(&mut store, 16, 16);
    let mut s = Session::from_parts(store, program).expect("board grounds");
    if retracted > 0 {
        let facts: Vec<String> = (0..retracted)
            .map(|i| format!("move(n{}, n{}).", 16 + i, 32 + i))
            .collect();
        let stats = s.begin().and_then(|()| {
            s.retract_facts(&facts.join(" "))?;
            s.commit()
        });
        assert_eq!(stats.expect("retract").facts_retracted, retracted);
    }
    let mut counts = [0; 3];
    for _ in 0..3 {
        let (r, off) = allocs_during(|| s.retract_facts("move(n1, n2)."));
        r.expect("toggle off");
        let (r, on) = allocs_during(|| s.assert_facts("move(n1, n2)."));
        r.expect("toggle on");
        let (r, doomed) = allocs_during(|| {
            s.begin()?;
            s.assert_facts("move(rolled, n0).")?;
            s.commit_with(&CommitOpts {
                fuel: Some(1),
                ..CommitOpts::default()
            })
        });
        assert!(matches!(r, Err(SessionError::Interrupted { .. })), "{r:?}");
        counts = [off, on, doomed];
    }
    counts
}

#[test]
fn a_commit_allocates_nothing_for_its_rollback_point() {
    let (none, many) = (commit_allocs(0), commit_allocs(64));
    assert_eq!(
        none, many,
        "[retract, re-assert, rolled-back insert] allocations with 0 and with 64 facts retracted"
    );
}
