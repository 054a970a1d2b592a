//! Interned constant, function and predicate symbols.
//!
//! Every name occurring in a program — predicate symbols, function symbols
//! and constants — is interned once into a [`SymbolTable`] and referred to
//! by a copyable [`Symbol`] index. Symbol equality is `u32` equality.

use crate::arena::{Arena, CowTally};
use crate::fxhash::FxHasher;
use crate::idtable::IdTable;
use std::fmt;
use std::hash::{Hash, Hasher};

/// An interned symbol: index into a [`SymbolTable`].
///
/// Constants and function symbols share the symbol space; a constant is
/// simply a function symbol used with arity 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The raw index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only intern table mapping names to [`Symbol`]s: a name
/// [`Arena`] plus an [`IdTable`] over it (each name is stored once).
/// [`SymbolTable::share`] publishes both chunk by chunk.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    names: Arena<Box<str>>,
    table: IdTable,
}

fn name_hash(name: &str) -> u64 {
    let mut h = FxHasher::default();
    name.hash(&mut h);
    // Fx leaves a string's entropy in the high bits (names often share
    // their first bytes); fold it down to where the table takes its
    // probe index from.
    let h = h.finish();
    h ^ (h >> 32)
}

impl SymbolTable {
    /// Creates an empty table. Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing symbol if already present.
    pub fn intern(&mut self, name: &str) -> Symbol {
        let candidate = u32::try_from(self.names.len()).expect("symbol table overflow");
        let names = &self.names;
        let found = self.table.find_or_insert(
            name_hash(name),
            candidate,
            |id| &*names[id as usize] == name,
            |id| name_hash(&names[id as usize]),
        );
        match found {
            Some(id) => Symbol(id),
            None => {
                self.names.push(name.into());
                Symbol(candidate)
            }
        }
    }

    /// Publishes the table ([`Arena::share`]): the returned table
    /// shares every chunk with this one and no name is copied.
    pub fn share(&mut self) -> SymbolTable {
        SymbolTable {
            names: self.names.share(),
            table: self.table.share(),
        }
    }

    /// Looks up a symbol without interning.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.table
            .find(name_hash(name), |id| &*self.names[id as usize] == name)
            .map(Symbol)
    }

    /// Approximate heap footprint in bytes. O(1): the name arena's and
    /// the table's chunks (each counted once, however many snapshots
    /// share it) plus a flat per-name estimate — see
    /// `TermStore::approx_bytes` for how the constant is calibrated.
    pub fn approx_bytes(&self) -> usize {
        self.names.heap_bytes() + self.table.heap_bytes() + self.names.len() * 64
    }

    /// Copy-on-write work interning has done because a clone (a
    /// snapshot) shared the chunk written to.
    pub fn cow_tally(&self) -> CowTally {
        self.names.cow_tally() + self.table.cow_tally()
    }

    /// The textual name of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this table.
    pub fn name(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over all interned symbols in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol(i as u32), n.as_ref()))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("foo");
        let b = t.intern("foo");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("foo");
        let b = t.intern("bar");
        assert_ne!(a, b);
        assert_eq!(t.name(a), "foo");
        assert_eq!(t.name(b), "bar");
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = SymbolTable::new();
        assert!(t.lookup("x").is_none());
        let s = t.intern("x");
        assert_eq!(t.lookup("x"), Some(s));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iter_in_insertion_order() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        t.intern("c");
        let names: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_table() {
        let t = SymbolTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
