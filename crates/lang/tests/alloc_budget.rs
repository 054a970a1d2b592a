//! Allocation budget of a throwaway [`TermStore`]: servers build one per
//! request to parse into, so `new()` must be free and the first
//! interned constant must cost a small, *recorded* number of
//! allocations — the arenas and tables allocate lazily and nothing is
//! stored twice. One test per binary: the counter is thread-local, but
//! keeping the file to itself keeps the numbers exact.

use gsls_lang::TermStore;
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

#[test]
fn a_fresh_store_is_free_and_its_first_constant_costs_a_recorded_handful() {
    let (mut store, n) = allocs_during(TermStore::new);
    assert_eq!(n, 0, "TermStore::new() must not allocate");

    // Recorded: the name arena (chunk table + first chunk), the boxed
    // name, the symbol table (chunk table + 16 slots), the term arena
    // (chunk table + first chunk) and the hash-consing table (chunk
    // table + 16 slots) — 9. The flat `Vec` + `HashMap` layout this
    // replaced took 6 and stored the name twice.
    let (a, n) = allocs_during(|| store.constant("a"));
    assert_eq!(n, 9, "allocations of the first constant() changed");

    // Hits allocate nothing; a second constant only boxes its name.
    let (again, n) = allocs_during(|| store.constant("a"));
    assert_eq!((again, n), (a, 0));
    let (_, n) = allocs_during(|| store.constant("b"));
    assert_eq!(n, 1);

    // Lookups on a shared store never allocate.
    let frozen = store.share();
    let (found, n) = allocs_during(|| {
        let sym = frozen.lookup_symbol("b")?;
        frozen.lookup_app(sym, &[])
    });
    assert!(found.is_some());
    assert_eq!(n, 0);
}
