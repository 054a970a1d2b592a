//! Differential tests for the join-plan grounder (PR 3).
//!
//! Three oracles pin the planned semi-naive path:
//!
//! * `JoinStrategy::Naive` — unordered full-scan joins re-run to
//!   fixpoint — must produce the **same clause set** (modulo emission
//!   order) on every workload and on random relational programs,
//!   including wide rules (≥4 body literals with shared variables);
//! * `GroundingMode::Full` — the whole depth-bounded Herbrand
//!   instantiation — must agree with relevant grounding on the
//!   **well-founded model restricted to the relevant program's atoms**
//!   (derivable atoms keep their truth value; atoms the relevant
//!   grounder interns without rules are false in both);
//! * the chain regression: delta-restricted index probes keep the
//!   total candidate count linear in the derivation chain.
//!
//! PR 15 adds **kernel ≡ batch ≡ naive on random splits**: the same
//! program fed to an `IncrementalGrounder` in batches (`add_rules` for
//! rule-bearing ones, `extend` for all-fact ones) must end with the
//! clause set of one batch grounding and of the naive oracle — the test
//! that fails if the one grounding kernel loses a `persistent` branch.

use gsls_ground::testutil::sorted_clauses;
use gsls_ground::{
    GroundProgram, Grounder, GrounderOpts, GroundingMode, HerbrandOpts, IncrementalGrounder,
    JoinStrategy,
};
use gsls_lang::{Atom, Clause, Program, TermStore};
use gsls_par::Guard;
use gsls_wfs::well_founded_model;
use gsls_workloads::{
    negated_reachability, odd_even_chain, random_relational_program, van_gelder_program, win_grid,
    RandomRelationalOpts,
};
use proptest::prelude::*;

fn ground_strategy(
    mk: impl Fn(&mut TermStore) -> Program,
    opts: GrounderOpts,
) -> (TermStore, GroundProgram) {
    let mut store = TermStore::new();
    let program = mk(&mut store);
    let gp = Grounder::ground_with(&mut store, &program, opts).expect("workload grounds");
    (store, gp)
}

/// Planned and naive strategies must agree clause-for-clause.
fn assert_strategies_agree(mk: impl Fn(&mut TermStore) -> Program, opts: GrounderOpts, what: &str) {
    let planned = ground_strategy(&mk, opts);
    let naive = ground_strategy(
        &mk,
        GrounderOpts {
            strategy: JoinStrategy::Naive,
            ..opts
        },
    );
    assert_eq!(
        sorted_clauses(&planned.0, &planned.1),
        sorted_clauses(&naive.0, &naive.1),
        "planned vs naive divergence on {what}"
    );
}

#[test]
fn plan_path_matches_naive_on_existing_workloads() {
    assert_strategies_agree(
        |s| win_grid(s, 16, 16),
        GrounderOpts::default(),
        "win_grid 16x16",
    );
    assert_strategies_agree(
        |s| negated_reachability(s, 12),
        GrounderOpts::default(),
        "negated_reachability 12",
    );
    assert_strategies_agree(
        |s| odd_even_chain(s, 48),
        GrounderOpts::default(),
        "odd_even_chain 48",
    );
    assert_strategies_agree(
        van_gelder_program,
        GrounderOpts {
            universe: HerbrandOpts {
                max_depth: 8,
                max_terms: 10_000,
            },
            ..GrounderOpts::default()
        },
        "van_gelder depth 8",
    );
}

/// Wide rules: ≥4 positive/negative body literals drawn from a
/// 4-variable pool, so plans must reorder, probe composite indexes, and
/// split deltas across many positions.
fn wide_rule_opts() -> RandomRelationalOpts {
    RandomRelationalOpts {
        constants: 3,
        preds: 3,
        facts: 9,
        rules: 4,
        min_body: 4,
        max_body: 6,
        vars: 4,
        neg_prob: 0.25,
        ..RandomRelationalOpts::default()
    }
}

/// Grounds `opts`/`seed`'s random program three ways and requires one
/// clause set: (1) an [`IncrementalGrounder`] fed the clause list —
/// shuffled so facts, rules and new constants arrive in any order, but
/// opening with a fact so the active domain never starts empty — as an
/// initial program plus 1–4 batches cut at random points, all-fact
/// batches through `extend` (source facts) and the rest through
/// `add_rules` (whose facts are permanent), each batch first fed
/// *doomed* and cut back off with `truncate_to` (truncate ≡ never having
/// fed it); (2) one batch grounding of
/// the merged program; (3) the naive oracle on it. A source and a
/// permanent copy of one fact count as one clause; a bodied clause
/// stored twice is a failure.
fn assert_kernel_matches_batch_and_naive(opts: RandomRelationalOpts, seed: u64) {
    let mut state = seed;
    let mut below = |n: usize| {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let mut store = TermStore::new();
    let mut clauses: Vec<Clause> = random_relational_program(&mut store, opts, seed)
        .clauses()
        .to_vec();
    for i in (2..clauses.len()).rev() {
        clauses.swap(i, 1 + below(i));
    }
    assert!(clauses[0].is_fact(), "the generator emits facts first");
    let mut cuts: Vec<usize> = (0..1 + below(4))
        .map(|_| 1 + below(clauses.len()))
        .collect();
    cuts.push(clauses.len());
    cuts.sort_unstable();
    cuts.dedup();

    let mut fed = Program::from_clauses(clauses[..cuts[0]].iter().cloned());
    let mut kernel = IncrementalGrounder::new(&mut store, &fed, GrounderOpts::default())
        .expect("initial program grounds");
    for w in cuts.windows(2) {
        let batch = &clauses[w[0]..w[1]];
        let first_new = fed.len();
        for c in batch {
            fed.push(c.clone());
        }
        let mut feed = |kernel: &mut IncrementalGrounder, guard: &Guard| {
            if batch.iter().all(|c| c.is_fact() && c.is_ground(&store)) {
                let atoms: Vec<Atom> = batch.iter().map(|c| c.head.clone()).collect();
                kernel.extend(&mut store, &atoms, guard)
            } else {
                kernel.add_rules(&mut store, &fed, first_new, guard)
            }
        };
        // Every batch is fed twice: first doomed — starved of fuel so it
        // stops at its first or second guard check, or (unstarved) run
        // to completion — and cut back off the kernel, then for real.
        // The cut must leave nothing behind that the second feed, or
        // any later batch, could trip over.
        let mark = kernel.mark();
        let doomed = match below(3) {
            2 => Guard::none(),
            fuel => Guard::builder().fuel(fuel as u64).build(),
        };
        let _ = feed(&mut kernel, &doomed);
        kernel.truncate_to(&mark);
        assert_eq!(kernel.mark(), mark, "cuts {cuts:?}, seed {seed}");
        feed(&mut kernel, &Guard::none()).expect("batch grounds");
    }
    let mut fed_in_batches = sorted_clauses(&store, kernel.ground_program());
    fed_in_batches.dedup_by(|a, b| a == b && !a.contains(":-"));

    // By now `fed` is the merged program.
    let batch = Grounder::ground(&mut store, &fed).expect("merged program grounds");
    assert_eq!(
        fed_in_batches,
        sorted_clauses(&store, &batch),
        "kernel fed at cuts {cuts:?} vs batch, seed {seed}"
    );
    let naive = Grounder::ground_with(
        &mut store,
        &fed,
        GrounderOpts {
            strategy: JoinStrategy::Naive,
            ..GrounderOpts::default()
        },
    )
    .expect("merged program grounds naively");
    assert_eq!(
        fed_in_batches,
        sorted_clauses(&store, &naive),
        "kernel fed at cuts {cuts:?} vs naive, seed {seed}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Planned vs naive joins on random function-free relational
    /// programs.
    #[test]
    fn plan_matches_naive_on_random_relational(
        seed in any::<u64>(),
        constants in 2usize..5,
        facts in 1usize..12,
        rules in 1usize..7,
    ) {
        let opts = RandomRelationalOpts {
            constants,
            facts,
            rules,
            ..RandomRelationalOpts::default()
        };
        let mk = |s: &mut TermStore| random_relational_program(s, opts, seed);
        let planned = ground_strategy(mk, GrounderOpts::default());
        let naive = ground_strategy(mk, GrounderOpts {
            strategy: JoinStrategy::Naive,
            ..GrounderOpts::default()
        });
        prop_assert_eq!(
            sorted_clauses(&planned.0, &planned.1),
            sorted_clauses(&naive.0, &naive.1),
            "seed {}", seed
        );
    }

    /// The same oracle on wide rules ([`wide_rule_opts`]).
    #[test]
    fn plan_matches_naive_on_wide_rules(seed in any::<u64>()) {
        let mk = |s: &mut TermStore| random_relational_program(s, wide_rule_opts(), seed);
        let planned = ground_strategy(mk, GrounderOpts::default());
        let naive = ground_strategy(mk, GrounderOpts {
            strategy: JoinStrategy::Naive,
            ..GrounderOpts::default()
        });
        prop_assert_eq!(
            sorted_clauses(&planned.0, &planned.1),
            sorted_clauses(&naive.0, &naive.1),
            "seed {}", seed
        );
    }

    /// One kernel: feeding a random program in batches equals grounding
    /// it at once, planned or naive.
    #[test]
    fn kernel_fed_in_batches_matches_batch_and_naive(
        seed in any::<u64>(),
        constants in 2usize..5,
        facts in 1usize..12,
        rules in 1usize..7,
    ) {
        assert_kernel_matches_batch_and_naive(
            RandomRelationalOpts {
                constants,
                facts,
                rules,
                ..RandomRelationalOpts::default()
            },
            seed,
        );
    }

    /// The same on wide rules: composite-index probes in the catch-up
    /// joins, many delta positions.
    #[test]
    fn kernel_fed_in_batches_matches_batch_and_naive_on_wide_rules(seed in any::<u64>()) {
        assert_kernel_matches_batch_and_naive(wide_rule_opts(), seed);
    }

    /// Relevant grounding preserves the well-founded model on the atoms
    /// it interns: derivable atoms keep their truth value from the full
    /// instantiation, and atoms pruned as underivable are false there.
    #[test]
    fn relevant_and_full_agree_on_wfm(seed in any::<u64>()) {
        let opts = RandomRelationalOpts {
            constants: 3,
            preds: 3,
            facts: 6,
            rules: 5,
            max_body: 3,
            vars: 3,
            neg_prob: 0.4,
            ..RandomRelationalOpts::default()
        };
        let mut store = TermStore::new();
        let program = random_relational_program(&mut store, opts, seed);
        let relevant = Grounder::ground(&mut store, &program).expect("relevant grounds");
        let full = Grounder::ground_with(&mut store, &program, GrounderOpts {
            mode: GroundingMode::Full,
            ..GrounderOpts::default()
        })
        .expect("full grounds");
        prop_assert!(relevant.clause_count() <= full.clause_count());
        let wfm_rel = well_founded_model(&relevant);
        let wfm_full = well_founded_model(&full);
        for id in relevant.atom_ids() {
            let atom = relevant.atom(id);
            let full_id = full
                .lookup_atom(atom)
                .expect("every relevant atom is fully instantiated");
            prop_assert_eq!(
                wfm_rel.truth(id),
                wfm_full.truth(full_id),
                "atom {} diverges, seed {}",
                atom.display(&store),
                seed
            );
        }
    }
}
