//! Allocation budget of a throwaway [`TermStore`]: servers build one per
//! request to parse into, so `new()` must be free and the first
//! interned constant must cost a small, *recorded* number of
//! allocations — the arenas and tables allocate lazily and nothing is
//! stored twice. And of a rollback: cutting an [`Arena`] or an
//! [`IdTable`] back and appending again inside one unshared chunk must
//! not allocate at all. The counter is thread-local, so the tests do
//! not disturb each other's numbers.

use gsls_lang::idtable::IdTable;
use gsls_lang::{Arena, TermStore};
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

#[test]
fn truncate_and_push_again_inside_one_unshared_chunk_allocates_nothing() {
    let mut arena: Arena<u64> = (0..100).collect();
    let keys: Vec<u64> = (0..100u64)
        .map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut table = IdTable::default();
    let insert = |table: &mut IdTable, i: usize| {
        let k = keys[i];
        let hit = table.find_or_insert(
            k,
            i as u32,
            |id| keys[id as usize] == k,
            |id| keys[id as usize],
        );
        assert_eq!(hit, None, "keys are distinct");
    };
    for i in 0..keys.len() {
        insert(&mut table, i);
    }
    let ((), n) = allocs_during(|| {
        for round in 0..3 {
            arena.truncate_to(40);
            table.truncate_to(40..100, |id| keys[id as usize]);
            for i in 40..keys.len() {
                arena.push(round + i as u64);
                insert(&mut table, i);
            }
        }
    });
    assert_eq!(n, 0, "a cut and a re-push inside one chunk allocated");
    assert_eq!((arena.len(), arena[99], table.len()), (100, 2 + 99, 100));
    // Published and taken back (the snapshot is gone): still nothing.
    drop((arena.share(), table.share()));
    let ((), n) = allocs_during(|| {
        arena.truncate_to(10);
        table.truncate_to(10..100, |id| keys[id as usize]);
        arena.push(7);
    });
    assert_eq!(n, 0, "a cut of a chunk nobody else holds allocated");
}
