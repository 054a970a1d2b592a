//! Hash-consed first-order terms.
//!
//! Terms of the Herbrand universe (Def. 1.2 of the paper) plus variables.
//! Every structurally distinct term exists exactly once inside a
//! [`TermStore`]; the copyable [`TermId`] index is the term's identity, so
//! structural equality of terms is integer equality of ids and shared term
//! graphs carry no ownership burden.
//!
//! Per-term attributes needed constantly by the engines — groundness,
//! depth, size — are computed once at interning time and cached.

use crate::arena::{Arena, CowTally};
use crate::fxhash::FxHasher;
use crate::idtable::IdTable;
use crate::symbol::{Symbol, SymbolTable};
use std::fmt;
use std::hash::Hasher;

/// A logic variable, identified by a store-global index.
///
/// Variables are *not* deduplicated by name: each textual occurrence scope
/// (one clause, one query) introduces its own [`Var`]s, and renaming-apart
/// produces fresh ones. The optional name is kept for printing only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// The raw index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape of a term: a variable, or a function application.
///
/// A constant is an application with an empty argument list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A logic variable.
    Var(Var),
    /// `f(t₁,…,tₙ)`; constants have `n = 0`.
    App(Symbol, Box<[TermId]>),
}

/// Identity of a hash-consed term inside a [`TermStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The raw index of this term.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct TermInfo {
    data: Term,
    /// No variables anywhere below this term.
    ground: bool,
    /// Nesting depth: constants and variables have depth 1, `f(t)` has
    /// `1 + max depth of args`.
    depth: u32,
    /// Number of symbol/variable occurrences in the term tree.
    size: u32,
}

/// The arena interning all terms and symbols of a session.
///
/// A `TermStore` owns the [`SymbolTable`] as well, so one `&mut TermStore`
/// is the only context engines need to thread around.
///
/// Terms live in an append-only [`Arena`] with an [`IdTable`] hash-consing
/// over it. [`TermStore::share`] publishes the store as a frozen prefix —
/// one refcount bump per chunk, nothing copied — which is what a session
/// snapshot holds; `clone()` of such a frozen store is just as cheap, so a
/// reader can fork a mutable store of its own off a snapshot. Whoever
/// interns next copies only the chunks it writes to.
#[derive(Debug, Default, Clone)]
pub struct TermStore {
    symbols: SymbolTable,
    terms: Arena<TermInfo>,
    /// Hash-consing index over `terms` (identity = the [`Term`] shape).
    cons: IdTable,
    var_names: Arena<Option<Box<str>>>,
}

fn var_hash(v: Var) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(0);
    h.write_u32(v.0);
    h.finish()
}

fn app_hash(sym: Symbol, args: &[TermId]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(1);
    h.write_u32(sym.0);
    h.write_usize(args.len());
    for a in args {
        h.write_u32(a.0);
    }
    h.finish()
}

/// Whether term `id` of `terms` is exactly `sym(args…)`.
#[inline]
fn is_app(terms: &Arena<TermInfo>, id: u32, sym: Symbol, args: &[TermId]) -> bool {
    matches!(&terms[id as usize].data, Term::App(s, a) if *s == sym && **a == *args)
}

fn term_hash(t: &Term) -> u64 {
    match t {
        Term::Var(v) => var_hash(*v),
        Term::App(sym, args) => app_hash(*sym, args),
    }
}

impl TermStore {
    /// Creates an empty store. Allocates nothing (servers build one per
    /// request to parse into).
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the store: the returned store holds exactly the
    /// symbols, terms and variables interned so far and shares every
    /// chunk with this one (see [`Arena::share`]). O(chunks), no
    /// element copied; this store stays writable.
    pub fn share(&mut self) -> TermStore {
        TermStore {
            symbols: self.symbols.share(),
            terms: self.terms.share(),
            cons: self.cons.share(),
            var_names: self.var_names.share(),
        }
    }

    /// Access to the symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Interns a symbol name.
    pub fn intern_symbol(&mut self, name: &str) -> Symbol {
        self.symbols.intern(name)
    }

    /// Looks a symbol up by name **without interning** — usable on a
    /// shared (`&self`) store, e.g. a snapshot's.
    pub fn lookup_symbol(&self, name: &str) -> Option<Symbol> {
        self.symbols.lookup(name)
    }

    /// Looks up the application `sym(args…)` **without interning**:
    /// `Some` iff exactly this term was interned before. Usable on a
    /// shared (`&self`) store, e.g. a snapshot's.
    pub fn lookup_app(&self, sym: Symbol, args: &[TermId]) -> Option<TermId> {
        self.cons
            .find(app_hash(sym, args), |id| is_app(&self.terms, id, sym, args))
            .map(TermId)
    }

    /// The textual name of a symbol.
    pub fn symbol_name(&self, sym: Symbol) -> &str {
        self.symbols.name(sym)
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of variables ever created.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// Approximate heap footprint of the arena in bytes: the chunks of
    /// the term arena and the interning tables — each counted once,
    /// however many snapshots share it — plus a flat per-entry estimate
    /// of the boxed argument lists and names. O(1) — computed from
    /// counts, never by walking entries — so resource governance can
    /// poll it on every accounting check.
    pub fn approx_bytes(&self) -> usize {
        // Deliberately coarse: budgets are advisory. The per-entry
        // constants are calibrated so that a `max_memory_bytes` budget
        // means what it meant under the flat `Vec` + `HashMap` layout
        // (which stored every name and every term shape twice); the
        // workspace test `approx_bytes_track_the_flat_accounting` pins
        // that.
        let terms = self.terms.heap_bytes() + self.terms.len() * 104;
        let cons = self.cons.heap_bytes();
        let syms = self.symbols.approx_bytes();
        let vars = self.var_names.heap_bytes();
        terms + cons + syms + vars
    }

    /// Copy-on-write work interning has done because a clone (a
    /// snapshot) shared the chunk written to. Monotone.
    pub fn cow_tally(&self) -> CowTally {
        self.symbols.cow_tally()
            + self.terms.cow_tally()
            + self.cons.cow_tally()
            + self.var_names.cow_tally()
    }

    /// Appends a term known to be absent from `cons` (whose slot the
    /// caller's probe just claimed for it).
    fn push_term(&mut self, data: Term, ground: bool, depth: u32, size: u32) -> TermId {
        let id = TermId(u32::try_from(self.terms.len()).expect("term arena overflow"));
        self.terms.push(TermInfo {
            data,
            ground,
            depth,
            size,
        });
        id
    }

    fn intern_var(&mut self, var: Var) -> TermId {
        let candidate = u32::try_from(self.terms.len()).expect("term arena overflow");
        let terms = &self.terms;
        let found = self.cons.find_or_insert(
            var_hash(var),
            candidate,
            |id| matches!(&terms[id as usize].data, Term::Var(v) if *v == var),
            |id| term_hash(&terms[id as usize].data),
        );
        match found {
            Some(id) => TermId(id),
            None => self.push_term(Term::Var(var), false, 1, 1),
        }
    }

    /// Creates a fresh variable with an optional display name.
    pub fn fresh_var(&mut self, name: Option<&str>) -> TermId {
        let var = Var(u32::try_from(self.var_names.len()).expect("variable overflow"));
        self.var_names.push(name.map(Into::into));
        self.intern_var(var)
    }

    /// The term id of an existing variable.
    pub fn var_term(&mut self, var: Var) -> TermId {
        debug_assert!(var.index() < self.var_names.len(), "unknown variable");
        self.intern_var(var)
    }

    /// The display name of a variable (generated `_Gn` if anonymous).
    pub fn var_name(&self, var: Var) -> String {
        let mut s = String::new();
        self.write_var_name(var, &mut s);
        s
    }

    /// Appends [`TermStore::var_name`] to `out`.
    pub fn write_var_name(&self, var: Var, out: &mut String) {
        use std::fmt::Write;
        match self.var_names.get(var.index()).and_then(|n| n.as_deref()) {
            Some(name) => out.push_str(name),
            None => write!(out, "_G{}", var.0).expect("writing to a String cannot fail"),
        }
    }

    /// Interns the application `sym(args…)`.
    pub fn app(&mut self, sym: Symbol, args: &[TermId]) -> TermId {
        let mut ground = true;
        let mut depth = 0u32;
        let mut size = 1u32;
        for &a in args {
            let info = &self.terms[a.index()];
            ground &= info.ground;
            depth = depth.max(info.depth);
            size += info.size;
        }
        let candidate = u32::try_from(self.terms.len()).expect("term arena overflow");
        let terms = &self.terms;
        let found = self.cons.find_or_insert(
            app_hash(sym, args),
            candidate,
            |id| is_app(terms, id, sym, args),
            |id| term_hash(&terms[id as usize].data),
        );
        match found {
            Some(id) => TermId(id),
            // The boxed argument list is built only for a new term.
            None => self.push_term(Term::App(sym, args.into()), ground, depth + 1, size),
        }
    }

    /// Interns the constant named `name`.
    pub fn constant(&mut self, name: &str) -> TermId {
        let sym = self.symbols.intern(name);
        self.app(sym, &[])
    }

    /// Interns the application `name(args…)`, interning the name too.
    pub fn apply(&mut self, name: &str, args: &[TermId]) -> TermId {
        let sym = self.symbols.intern(name);
        self.app(sym, args)
    }

    /// Copies every term of this store into `dst`, returning a map
    /// from this store's [`TermId`]s to the corresponding ids in `dst`
    /// (indexed by [`TermId::index`]). Symbols are re-interned by name
    /// and shared structure stays shared (`dst` hash-conses); each
    /// distinct variable here becomes one fresh variable in `dst`,
    /// keeping its display name.
    ///
    /// This is how a server moves decoded request terms out of a
    /// throwaway scratch store into a long-lived session store only
    /// once the request is known to be worth keeping — a rejected
    /// request decoded straight into an append-only session arena
    /// would grow it forever.
    pub fn translate_into(&self, dst: &mut TermStore) -> Vec<TermId> {
        let mut map: Vec<TermId> = Vec::with_capacity(self.terms.len());
        let mut args_buf = Vec::new();
        for info in self.terms.iter() {
            // Arguments always precede their application in the arena,
            // so `map` already covers every child id.
            let id = match &info.data {
                Term::Var(v) => {
                    let name = self.var_names.get(v.index()).and_then(|n| n.as_deref());
                    dst.fresh_var(name)
                }
                Term::App(sym, args) => {
                    let dsym = dst.intern_symbol(self.symbol_name(*sym));
                    args_buf.clear();
                    args_buf.extend(args.iter().map(|a| map[a.index()]));
                    dst.app(dsym, &args_buf)
                }
            };
            map.push(id);
        }
        map
    }

    /// The shape of `id`.
    #[inline]
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()].data
    }

    /// Whether the term contains no variables.
    #[inline]
    pub fn is_ground(&self, id: TermId) -> bool {
        self.terms[id.index()].ground
    }

    /// Nesting depth of the term (constants and variables: 1).
    #[inline]
    pub fn depth(&self, id: TermId) -> u32 {
        self.terms[id.index()].depth
    }

    /// Number of symbol/variable occurrences in the term.
    #[inline]
    pub fn size(&self, id: TermId) -> u32 {
        self.terms[id.index()].size
    }

    /// If `id` is a variable, returns it.
    pub fn as_var(&self, id: TermId) -> Option<Var> {
        match self.term(id) {
            Term::Var(v) => Some(*v),
            Term::App(..) => None,
        }
    }

    /// If `id` is an application, returns symbol and arguments.
    pub fn as_app(&self, id: TermId) -> Option<(Symbol, &[TermId])> {
        match self.term(id) {
            Term::Var(_) => None,
            Term::App(sym, args) => Some((*sym, args)),
        }
    }

    /// Collects the distinct variables of `id` in first-occurrence order.
    pub fn vars_of(&self, id: TermId) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(id, &mut out);
        out
    }

    /// Appends the distinct variables of `id` (not already in `out`).
    pub fn collect_vars(&self, id: TermId, out: &mut Vec<Var>) {
        if self.is_ground(id) {
            return;
        }
        match self.term(id) {
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Term::App(_, args) => {
                // Clone the slice of ids (cheap: Copy) to appease borrows.
                let args: Vec<TermId> = args.to_vec();
                for a in args {
                    self.collect_vars(a, &mut *out);
                }
            }
        }
    }

    /// Whether variable `v` occurs in term `id` (the *occurs check*).
    pub fn occurs(&self, v: Var, id: TermId) -> bool {
        if self.is_ground(id) {
            return false;
        }
        match self.term(id) {
            Term::Var(w) => *w == v,
            Term::App(_, args) => args.iter().any(|&a| self.occurs(v, a)),
        }
    }

    /// Builds the numeral `s^n(zero)` used by the Van Gelder example
    /// (integer `i` represented as `sⁱ(0)`).
    pub fn numeral(&mut self, succ: &str, zero: &str, n: usize) -> TermId {
        let s = self.symbols.intern(succ);
        let mut t = self.constant(zero);
        for _ in 0..n {
            t = self.app(s, &[t]);
        }
        t
    }

    /// Renders `id` to a string (see [`crate::pretty`] for the grammar).
    pub fn display_term(&self, id: TermId) -> String {
        let mut s = String::new();
        self.fmt_term(id, &mut s);
        s
    }

    /// Appends [`TermStore::display_term`] to `out` — for callers
    /// rendering many terms into one buffer.
    pub fn fmt_term(&self, id: TermId, out: &mut String) {
        match self.term(id) {
            Term::Var(v) => self.write_var_name(*v, out),
            Term::App(sym, args) => {
                out.push_str(self.symbols.name(*sym));
                if !args.is_empty() {
                    out.push('(');
                    for (i, &a) in args.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        self.fmt_term(a, out);
                    }
                    out.push(')');
                }
            }
        }
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut s = TermStore::new();
        let a1 = s.constant("a");
        let a2 = s.constant("a");
        assert_eq!(a1, a2);
        let f = s.intern_symbol("f");
        let t1 = s.app(f, &[a1]);
        let t2 = s.app(f, &[a2]);
        assert_eq!(t1, t2);
        assert_eq!(s.len(), 2); // a, f(a)
    }

    #[test]
    fn distinct_terms_distinct_ids() {
        let mut s = TermStore::new();
        let a = s.constant("a");
        let b = s.constant("b");
        assert_ne!(a, b);
        let f = s.intern_symbol("f");
        assert_ne!(s.app(f, &[a]), s.app(f, &[b]));
    }

    #[test]
    fn groundness_cached() {
        let mut s = TermStore::new();
        let a = s.constant("a");
        let x = s.fresh_var(Some("X"));
        let f = s.intern_symbol("f");
        let fa = s.app(f, &[a]);
        let fx = s.app(f, &[x]);
        assert!(s.is_ground(fa));
        assert!(!s.is_ground(fx));
        assert!(!s.is_ground(x));
    }

    #[test]
    fn depth_and_size() {
        let mut s = TermStore::new();
        let zero = s.constant("0");
        assert_eq!(s.depth(zero), 1);
        assert_eq!(s.size(zero), 1);
        let three = s.numeral("s", "0", 3);
        assert_eq!(s.depth(three), 4);
        assert_eq!(s.size(three), 4);
        let g = s.intern_symbol("g");
        let t = s.app(g, &[three, zero]);
        assert_eq!(s.depth(t), 5);
        assert_eq!(s.size(t), 6);
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut s = TermStore::new();
        let x1 = s.fresh_var(Some("X"));
        let x2 = s.fresh_var(Some("X"));
        assert_ne!(x1, x2, "same display name but distinct variables");
    }

    #[test]
    fn vars_of_ordering_and_dedup() {
        let mut s = TermStore::new();
        let x = s.fresh_var(Some("X"));
        let y = s.fresh_var(Some("Y"));
        let f = s.intern_symbol("f");
        let t = s.app(f, &[y, x, y]);
        let vars = s.vars_of(t);
        assert_eq!(vars.len(), 2);
        assert_eq!(s.var_name(vars[0]), "Y");
        assert_eq!(s.var_name(vars[1]), "X");
    }

    #[test]
    fn occurs_check() {
        let mut s = TermStore::new();
        let x = s.fresh_var(Some("X"));
        let vx = s.as_var(x).unwrap();
        let f = s.intern_symbol("f");
        let fx = s.app(f, &[x]);
        let a = s.constant("a");
        let fa = s.app(f, &[a]);
        assert!(s.occurs(vx, fx));
        assert!(!s.occurs(vx, fa));
        assert!(s.occurs(vx, x));
    }

    #[test]
    fn display_nested() {
        let mut s = TermStore::new();
        let two = s.numeral("s", "0", 2);
        assert_eq!(s.display_term(two), "s(s(0))");
        let x = s.fresh_var(Some("X"));
        let g = s.intern_symbol("g");
        let t = s.app(g, &[two, x]);
        assert_eq!(s.display_term(t), "g(s(s(0)), X)");
    }

    #[test]
    fn anonymous_var_display() {
        let mut s = TermStore::new();
        let v = s.fresh_var(None);
        let var = s.as_var(v).unwrap();
        assert!(s.var_name(var).starts_with("_G"));
    }

    #[test]
    fn numeral_zero() {
        let mut s = TermStore::new();
        let z = s.numeral("s", "0", 0);
        assert_eq!(s.display_term(z), "0");
        assert_eq!(z, s.constant("0"));
    }
}
