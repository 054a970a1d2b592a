//! The substrate's allocation contract: after warm-up, neither a
//! full-recompute [`Propagator::lfp_into`] call nor an
//! [`IncrementalLfp::evaluate`] over a context that keeps flipping
//! (kills, revivals and retraction cones on every call) touches the
//! heap. The counter is thread-local, so the harness's own threads stay
//! out of it.

use gsls_ground::{GroundProgram, Grounder};
use gsls_lang::{parse_program, TermStore};
use gsls_wfs::{BitSet, IncrementalLfp, NegMode, Propagator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

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

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A 256-position win/move game with out-degrees 0..=3: lost positions,
/// won ones and draws, so both approximations move between calls.
fn game() -> GroundProgram {
    let n = 256usize;
    let mut src = String::from("win(X) :- move(X, Y), ~win(Y).\n");
    for i in 0..n {
        for k in 0..(i * 7 + 3) % 4 {
            let _ = writeln!(src, "move(n{i}, n{}).", (i * 31 + k * 17 + 5) % n);
        }
    }
    let mut store = TermStore::new();
    let program = parse_program(&mut store, &src).expect("game parses");
    Grounder::ground(&mut store, &program).expect("game grounds")
}

const CALLS: usize = 100;

#[test]
fn warm_propagator_calls_allocate_nothing() {
    let gp = game();
    let mut prop = Propagator::new(&gp);
    let mut out = BitSet::new(gp.atom_count());
    let mut s = BitSet::new(gp.atom_count());
    prop.lfp_into(&gp, |q| !s.contains(q.index()), &mut out);
    s.copy_from(&out);
    prop.lfp_into(&gp, |q| !s.contains(q.index()), &mut out);
    let n = allocs_during(|| {
        for i in 0..CALLS {
            if i % 2 == 0 {
                prop.lfp_into(&gp, |q| !s.contains(q.index()), &mut out);
            } else {
                prop.lfp_into(&gp, |_| false, &mut out);
            }
        }
    });
    assert_eq!(n, 0, "propagator calls must not allocate warm");
}

#[test]
fn warm_incremental_evaluates_over_a_flipping_context_allocate_nothing() {
    let gp = game();
    let mut inc = IncrementalLfp::new(&gp, NegMode::SatisfiedOutside);
    let mut ctx = BitSet::new(gp.atom_count());
    inc.evaluate(&gp, &ctx);
    ctx.copy_from(inc.out());
    inc.evaluate(&gp, &ctx);
    ctx.clear();
    inc.evaluate(&gp, &ctx);
    let before = inc.stats();
    let n = allocs_during(|| {
        for i in 0..CALLS {
            if i % 2 == 0 {
                ctx.copy_from(inc.out());
            } else {
                ctx.clear();
            }
            inc.evaluate(&gp, &ctx);
        }
    });
    assert_eq!(n, 0, "incremental calls must not allocate warm");
    let work = inc.stats().delta_since(&before);
    assert!(
        work.revives > 0 && work.retraction_cone > 0,
        "the context must really flip: {work:?}"
    );
}
