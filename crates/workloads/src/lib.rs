//! # gsls-workloads — program generators for experiments and benches
//!
//! * [`games`] — the win/move game (`win(X) ← move(X,Y), ¬win(Y)`), the
//!   canonical non-stratified workload: chains, cycles, complete binary
//!   trees, random graphs, and the 10^5-atom-class grid boards;
//! * [`van_gelder`] — Example 3.1's ordinal-level program family;
//! * [`stratified`] — stratified deductive-database workloads (negation
//!   over transitive closure);
//! * [`random`] — random propositional normal programs for differential
//!   testing of engines.

pub mod games;
mod prng;
pub mod random;
pub mod stratified;
pub mod van_gelder;

pub use games::{win_chain, win_cycle, win_grid, win_random, win_tree};
pub use random::{
    random_program, random_relational_program, RandomProgramOpts, RandomRelationalOpts,
};
pub use stratified::{negated_reachability, odd_even_chain};
pub use van_gelder::{van_gelder_program, VAN_GELDER_SRC};
