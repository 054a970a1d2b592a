//! Substitutions in triangular (binding-chain) form.
//!
//! A [`Subst`] maps variables to terms. During unification we never eagerly
//! rewrite terms; instead bindings accumulate and [`Subst::walk`] follows
//! variable chains lazily. [`Subst::resolve`] materialises the fully
//! substituted term in the store (creating new hash-consed terms only when
//! needed).

use crate::atom::{Atom, Literal};
use crate::fxhash::FxHashMap;
use crate::program::Goal;
use crate::term::{Term, TermId, TermStore, Var};

/// A substitution `{X₁/t₁, …}` in triangular form.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Subst {
    map: FxHashMap<Var, TermId>,
}

impl Subst {
    /// The identity substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether this is the identity substitution.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Binds `var := term`. The caller must have ensured the binding is
    /// consistent (fresh variable or occurs-checked).
    pub fn bind(&mut self, var: Var, term: TermId) {
        debug_assert!(!self.map.contains_key(&var), "rebinding {var:?}");
        self.map.insert(var, term);
    }

    /// Direct binding lookup (no chain following).
    pub fn lookup(&self, var: Var) -> Option<TermId> {
        self.map.get(&var).copied()
    }

    /// Removes the binding for `var`, returning it if present. Used with
    /// [`crate::unify::match_term_recording`] to backtrack a failed match
    /// without cloning the substitution.
    pub fn remove(&mut self, var: Var) -> Option<TermId> {
        self.map.remove(&var)
    }

    /// Follows variable-to-variable chains from `t` until reaching either
    /// an unbound variable or a function application. Does not descend
    /// into arguments.
    pub fn walk(&self, store: &TermStore, mut t: TermId) -> TermId {
        loop {
            match store.term(t) {
                Term::Var(v) => match self.map.get(v) {
                    Some(&next) => t = next,
                    None => return t,
                },
                Term::App(..) => return t,
            }
        }
    }

    /// Fully applies the substitution to `t`, interning any new terms.
    pub fn resolve(&self, store: &mut TermStore, t: TermId) -> TermId {
        let t = self.walk(store, t);
        if store.is_ground(t) {
            return t;
        }
        match store.term(t).clone() {
            Term::Var(_) => t,
            Term::App(sym, args) => {
                let new_args: Vec<TermId> = args.iter().map(|&a| self.resolve(store, a)).collect();
                store.app(sym, &new_args)
            }
        }
    }

    /// Applies the substitution to an atom.
    pub fn resolve_atom(&self, store: &mut TermStore, atom: &Atom) -> Atom {
        let args: Vec<TermId> = atom.args.iter().map(|&a| self.resolve(store, a)).collect();
        Atom::new(atom.pred, args)
    }

    /// Applies the substitution to a literal.
    pub fn resolve_literal(&self, store: &mut TermStore, lit: &Literal) -> Literal {
        Literal {
            sign: lit.sign,
            atom: self.resolve_atom(store, &lit.atom),
        }
    }

    /// Applies the substitution to every literal of a goal.
    pub fn resolve_goal(&self, store: &mut TermStore, goal: &Goal) -> Goal {
        Goal::new(
            goal.literals()
                .iter()
                .map(|l| self.resolve_literal(store, l))
                .collect(),
        )
    }

    /// Restricts the substitution to `vars`, fully resolving each binding.
    /// This is the *answer substitution* form shown to users: only the
    /// query's own variables, with all internal chains collapsed.
    pub fn restricted_to(&self, store: &mut TermStore, vars: &[Var]) -> Subst {
        let mut out = Subst::new();
        for &v in vars {
            let vt = store.var_term(v);
            let resolved = self.resolve(store, vt);
            if store.as_var(resolved) != Some(v) {
                out.bind(v, resolved);
            }
        }
        out
    }

    /// Iterates over raw bindings (triangular, unresolved).
    pub fn iter(&self) -> impl Iterator<Item = (Var, TermId)> + '_ {
        self.map.iter().map(|(&v, &t)| (v, t))
    }

    /// Renders the substitution as `{X = t, …}` with variables sorted for
    /// determinism.
    pub fn display(&self, store: &TermStore) -> String {
        let mut entries: Vec<(Var, TermId)> = self.iter().collect();
        entries.sort_by_key(|&(v, _)| v);
        let mut s = String::from("{");
        for (i, (v, t)) in entries.into_iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&store.var_name(v));
            s.push_str(" = ");
            store.fmt_term(t, &mut s);
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_follows_chains() {
        let mut s = TermStore::new();
        let x = s.fresh_var(Some("X"));
        let y = s.fresh_var(Some("Y"));
        let a = s.constant("a");
        let vx = s.as_var(x).unwrap();
        let vy = s.as_var(y).unwrap();
        let mut sub = Subst::new();
        sub.bind(vx, y);
        sub.bind(vy, a);
        assert_eq!(sub.walk(&s, x), a);
    }

    #[test]
    fn walk_stops_at_unbound() {
        let mut s = TermStore::new();
        let x = s.fresh_var(Some("X"));
        let sub = Subst::new();
        assert_eq!(sub.walk(&s, x), x);
    }

    #[test]
    fn resolve_rewrites_arguments() {
        let mut s = TermStore::new();
        let x = s.fresh_var(Some("X"));
        let a = s.constant("a");
        let f = s.intern_symbol("f");
        let fx = s.app(f, &[x]);
        let vx = s.as_var(x).unwrap();
        let mut sub = Subst::new();
        sub.bind(vx, a);
        let fa = sub.resolve(&mut s, fx);
        assert_eq!(s.display_term(fa), "f(a)");
        assert!(s.is_ground(fa));
    }

    #[test]
    fn resolve_is_identity_on_ground() {
        let mut s = TermStore::new();
        let a = s.constant("a");
        let sub = Subst::new();
        assert_eq!(sub.resolve(&mut s, a), a);
    }

    #[test]
    fn resolve_atom_and_goal() {
        let mut s = TermStore::new();
        let x = s.fresh_var(Some("X"));
        let a = s.constant("a");
        let p = s.intern_symbol("p");
        let vx = s.as_var(x).unwrap();
        let mut sub = Subst::new();
        sub.bind(vx, a);
        let g = Goal::new(vec![Literal::neg(Atom::new(p, vec![x]))]);
        let g2 = sub.resolve_goal(&mut s, &g);
        assert!(g2.is_ground(&s));
        assert_eq!(g2.display(&s), "?- ~p(a).");
    }

    #[test]
    fn restricted_to_collapses_chains() {
        let mut s = TermStore::new();
        let x = s.fresh_var(Some("X"));
        let y = s.fresh_var(Some("Y"));
        let a = s.constant("a");
        let vx = s.as_var(x).unwrap();
        let vy = s.as_var(y).unwrap();
        let mut sub = Subst::new();
        sub.bind(vx, y);
        sub.bind(vy, a);
        let ans = sub.restricted_to(&mut s, &[vx]);
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.lookup(vx), Some(a));
    }

    #[test]
    fn restricted_to_drops_identity() {
        let mut s = TermStore::new();
        let x = s.fresh_var(Some("X"));
        let vx = s.as_var(x).unwrap();
        let sub = Subst::new();
        let ans = sub.restricted_to(&mut s, &[vx]);
        assert!(ans.is_empty());
    }

    #[test]
    fn display_sorted() {
        let mut s = TermStore::new();
        let x = s.fresh_var(Some("X"));
        let y = s.fresh_var(Some("Y"));
        let a = s.constant("a");
        let b = s.constant("b");
        let vx = s.as_var(x).unwrap();
        let vy = s.as_var(y).unwrap();
        let mut sub = Subst::new();
        sub.bind(vy, b);
        sub.bind(vx, a);
        assert_eq!(sub.display(&s), "{X = a, Y = b}");
    }
}
