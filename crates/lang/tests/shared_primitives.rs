//! Model-based properties of the two sharing primitives every interning
//! structure is built from: [`Arena`] against `Vec`, [`IdTable`] against
//! `HashMap`, under random interleavings of writes, `share`, `clone`,
//! `truncate_to` (a rolled-back commit: the writer cuts back and pushes
//! *different* values into the same positions) and drops of the shared
//! values — plus the same contract one level up, on a [`TermStore`]. (The chunk-exact cases — refcounts per chunk, which
//! chunk a write copies — live next to the arena's private fields, in
//! its unit tests.)

use gsls_lang::arena::CHUNK;
use gsls_lang::idtable::IdTable;
use gsls_lang::{Arena, CowTally, TermStore};
use proptest::prelude::*;
use std::collections::HashMap;

/// A retained published value with the model it must keep equalling.
struct Frozen<V, M> {
    value: V,
    model: M,
}

fn assert_same(arena: &Arena<u64>, model: &[u64]) {
    assert_eq!(arena.len(), model.len());
    assert!(arena.iter().eq(model.iter()), "iteration order");
    assert_eq!(arena.iter().len(), model.len());
    for probe in [0, model.len() / 2, model.len().saturating_sub(1)] {
        assert_eq!(arena.get(probe), model.get(probe), "index {probe}");
    }
    assert_eq!(arena.get(model.len()), None);
    if let Some(last) = model.len().checked_sub(1) {
        let (base, run) = arena.run_of(last);
        assert_eq!(run[last - base], model[last]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pushes (in bursts, so walks cross several chunk boundaries),
    /// in-place writes, `share`, `clone`, truncations and drops in
    /// random order: the writer always equals the `Vec` model, and every
    /// retained shared or cloned arena — taken before, inside or after a
    /// range that is later cut off and pushed over with other values —
    /// equals the model as of the moment it was taken.
    #[test]
    fn arena_matches_vec_under_push_share_clone_drop(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let mut arena: Arena<u64> = Arena::new();
        let mut model: Vec<u64> = Vec::new();
        let mut kept: Vec<Frozen<Arena<u64>, Vec<u64>>> = Vec::new();
        for _ in 0..80 {
            match rng.below(8) {
                0 | 1 => {
                    for _ in 0..rng.below(CHUNK as u64 * 3 / 4) {
                        let v = rng.next_u64();
                        arena.push(v);
                        model.push(v);
                    }
                }
                2 if !model.is_empty() => {
                    let i = rng.below(model.len() as u64) as usize;
                    let v = rng.next_u64();
                    *arena.get_mut(i) = v;
                    model[i] = v;
                }
                3 => kept.push(Frozen { value: arena.share(), model: model.clone() }),
                4 => kept.push(Frozen { value: arena.clone(), model: model.clone() }),
                5 if !kept.is_empty() => {
                    let i = rng.below(kept.len() as u64) as usize;
                    drop(kept.swap_remove(i));
                }
                6 => {
                    // Mostly a short cut inside the tail chunk, sometimes
                    // anywhere (whole chunks go), sometimes a no-op past
                    // the end.
                    let len = model.len() as u64;
                    let to = match rng.below(4) {
                        0 => rng.below(len + 1),
                        1 => len + rng.below(3),
                        _ => len - rng.below(len.min(CHUNK as u64 / 2) + 1),
                    } as usize;
                    arena.truncate_to(to);
                    model.truncate(to);
                }
                _ => {}
            }
            assert_same(&arena, &model);
            for frozen in &kept {
                assert_same(&frozen.value, &frozen.model);
            }
        }
        // With every shared value gone, nothing is left to copy for.
        kept.clear();
        let before = arena.cow_tally();
        arena.push(1);
        if !model.is_empty() {
            *arena.get_mut(0) = 2;
        }
        prop_assert_eq!(arena.cow_tally(), before);
    }

    /// `find_or_insert` / `find` against a `HashMap`, with tables shared
    /// mid-walk (some right before a grow), cut back to an earlier id
    /// mark (`truncate_to`, before the backing store is) and dropped at
    /// random: the writer agrees with the map — a dropped key misses and
    /// re-inserts under a fresh id, a surviving one hits — and a shared
    /// table keeps finding exactly the keys interned when it was taken,
    /// under the ids they had then.
    #[test]
    fn id_table_matches_hash_map_under_insert_share_drop(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        // The backing store: key of id `i` is `keys[i]` (append-only,
        // like every arena a table interns over).
        let mut keys: Vec<u64> = Vec::new();
        let mut table = IdTable::default();
        let mut model: HashMap<u64, u32> = HashMap::new();
        // A shared table reads the backing store as it was shared (in
        // the engine: the arena published with it).
        type Backing = (Vec<u64>, HashMap<u64, u32>);
        let mut kept: Vec<Frozen<IdTable, Backing>> = Vec::new();
        let hash = |k: u64| k.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (k >> 7);
        for _ in 0..50 {
            match rng.below(5) {
                0 | 1 => {
                    for _ in 0..rng.below(600) {
                        let k = rng.below(5_000);
                        let candidate = keys.len() as u32;
                        let got = table.find_or_insert(
                            hash(k),
                            candidate,
                            |id| keys[id as usize] == k,
                            |id| hash(keys[id as usize]),
                        );
                        prop_assert_eq!(got, model.get(&k).copied());
                        if got.is_none() {
                            keys.push(k);
                            model.insert(k, candidate);
                        }
                    }
                }
                2 => kept.push(Frozen {
                    value: table.share(),
                    model: (keys.clone(), model.clone()),
                }),
                3 if !kept.is_empty() => {
                    let i = rng.below(kept.len() as u64) as usize;
                    drop(kept.swap_remove(i));
                }
                4 => {
                    let len = keys.len() as u64;
                    let mark = (len - rng.below(len.min(700) + 1)) as u32;
                    let dropped = mark..keys.len() as u32;
                    table.truncate_to(dropped, |id| hash(keys[id as usize]));
                    keys.truncate(mark as usize);
                    model.retain(|_, id| *id < mark);
                }
                _ => {}
            }
            prop_assert_eq!(table.len(), model.len());
            for _ in 0..64 {
                let k = rng.below(5_000);
                let eq = |id: u32| keys[id as usize] == k;
                prop_assert_eq!(table.find(hash(k), eq), model.get(&k).copied());
            }
            for frozen in &kept {
                let flat = &frozen.value;
                let (keys, model) = &frozen.model;
                prop_assert_eq!(flat.len(), model.len());
                for _ in 0..64 {
                    let k = rng.below(5_000);
                    let eq = |id: u32| keys[id as usize] == k;
                    prop_assert_eq!(flat.find(hash(k), eq), model.get(&k).copied());
                }
            }
        }
    }

    /// The same contract through the types a session shares: a store
    /// published mid-walk keeps its length, resolves exactly the names
    /// and terms it held, and renders them as before, however far the
    /// live store interns on (past chunk boundaries and table grows).
    #[test]
    fn shared_term_store_is_a_frozen_prefix(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let mut store = TermStore::new();
        let f = store.intern_symbol("f");
        // Model: (terms, names, first few terms rendered) at the share.
        type StoreModel = (usize, usize, Vec<String>);
        let mut kept: Vec<Frozen<TermStore, StoreModel>> = Vec::new();
        let mut next = 0usize;
        for round in 0..6 {
            for _ in 0..rng.below(CHUNK as u64) + 1 {
                let c = store.constant(&format!("c{next}"));
                if next.is_multiple_of(3) {
                    store.app(f, &[c, c]);
                }
                next += 1;
            }
            let frozen = if round % 2 == 0 { store.share() } else { store.clone() };
            let rendered = (0..frozen.len().min(8))
                .map(|i| frozen.display_term(gsls_lang::TermId(i as u32)))
                .collect();
            kept.push(Frozen { value: frozen, model: (store.len(), next, rendered) });
            for Frozen { value, model: (terms, names, rendered) } in &kept {
                prop_assert_eq!(value.len(), *terms);
                // `f` plus one constant per name.
                prop_assert_eq!(value.symbols().len(), names + 1);
                let last = format!("c{}", names - 1);
                let sym = value.lookup_symbol(&last).expect("interned before the share");
                prop_assert!(value.lookup_app(sym, &[]).is_some());
                prop_assert!(value.lookup_symbol(&format!("c{names}")).is_none());
                for (i, text) in rendered.iter().enumerate() {
                    prop_assert_eq!(&value.display_term(gsls_lang::TermId(i as u32)), text);
                }
            }
        }
    }
}

#[test]
fn share_taken_right_before_a_grow_survives_it_and_the_grow_copies_nothing() {
    // 16 slots grow at 7/8 load: the 14th insert rehashes.
    let keys: Vec<u64> = (0..14u64)
        .map(|k| k.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .collect();
    let mut table = IdTable::default();
    let insert = |table: &mut IdTable, i: usize| {
        let k = keys[i];
        table.find_or_insert(
            k,
            i as u32,
            |id| keys[id as usize] == k,
            |id| keys[id as usize],
        )
    };
    for i in 0..13 {
        assert_eq!(insert(&mut table, i), None);
    }
    assert_eq!(table.slot_count(), 16);
    let frozen = table.share();
    assert_eq!(insert(&mut table, 13), None);
    assert_eq!(table.slot_count(), 32, "the insert grew the table");
    // A grow builds fresh chunks: nothing was copied *because of* the
    // share, and the shared table still is the 13-key table.
    assert_eq!(table.cow_tally(), CowTally::default());
    assert_eq!((frozen.len(), frozen.slot_count()), (13, 16));
    for (i, &k) in keys.iter().enumerate() {
        let want = (i < 13).then_some(i as u32);
        assert_eq!(frozen.find(k, |id| keys[id as usize] == k), want);
        assert_eq!(table.find(k, |id| keys[id as usize] == k), Some(i as u32));
    }
}

#[test]
fn insert_into_a_shared_table_copies_one_slot_chunk() {
    let n = 3 * CHUNK as u64;
    let keys: Vec<u64> = (0..n)
        .map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut table = IdTable::default();
    table.reserve(2 * keys.len(), |_| unreachable!("empty"));
    let slots = table.slot_count();
    let insert = |table: &mut IdTable, keys: &[u64], i: usize| {
        let k = keys[i];
        let hit = table.find_or_insert(
            k,
            i as u32,
            |id| keys[id as usize] == k,
            |id| keys[id as usize],
        );
        assert_eq!(hit, None, "keys are distinct");
    };
    for i in 0..keys.len() - 1 {
        insert(&mut table, &keys, i);
    }
    let frozen = table.share();
    insert(&mut table, &keys, keys.len() - 1);
    assert_eq!(table.slot_count(), slots, "no grow");
    assert_eq!(
        table.cow_tally(),
        CowTally {
            chunks: 1,
            bytes: (CHUNK * 8) as u64
        }
    );
    drop(frozen);
    // Unshared again: the next insert lands in place.
    let mut keys = keys;
    keys.push(0xdead_beef);
    insert(&mut table, &keys, keys.len() - 1);
    assert_eq!(table.cow_tally().chunks, 1);
}
