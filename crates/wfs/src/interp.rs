//! Three-valued (partial) interpretations — Def. 1.7 of the paper.

use crate::bitset::BitSet;
use gsls_ground::{GroundAtomId, GroundProgram};
use gsls_lang::TermStore;
use std::fmt;

/// Truth value of a ground atom in a partial interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Truth {
    /// The atom is in the interpretation.
    True,
    /// The atom's negation is in the interpretation.
    False,
    /// Neither the atom nor its negation is in the interpretation.
    Undefined,
}

impl fmt::Display for Truth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Truth::True => write!(f, "true"),
            Truth::False => write!(f, "false"),
            Truth::Undefined => write!(f, "undefined"),
        }
    }
}

/// A consistent set of literals over a dense ground-atom space: a pair of
/// disjoint bitsets (`pos`, `neg`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interp {
    pos: BitSet,
    neg: BitSet,
}

impl Interp {
    /// The empty interpretation over `n` atoms.
    pub fn new(n: usize) -> Self {
        Interp {
            pos: BitSet::new(n),
            neg: BitSet::new(n),
        }
    }

    /// Builds an interpretation from explicit positive/negative sets.
    ///
    /// # Panics
    /// Panics if the sets intersect (inconsistent, Def. 1.6).
    pub fn from_parts(pos: BitSet, neg: BitSet) -> Self {
        assert!(pos.is_disjoint(&neg), "inconsistent interpretation");
        Interp { pos, neg }
    }

    /// Capacity (number of atoms in the Herbrand base slice).
    pub fn capacity(&self) -> usize {
        self.pos.capacity()
    }

    /// Grows the capacity to `n` atoms (a smaller `n` is a no-op); the
    /// new atoms come up undefined.
    pub fn grow(&mut self, n: usize) {
        self.pos.grow(n);
        self.neg.grow(n);
    }

    /// Cuts the capacity back to `n` atoms, dropping the verdicts of the
    /// atoms at or past it (no-op when `n` is not smaller): the model
    /// side of rolling back a commit that appended atoms.
    pub fn truncate(&mut self, n: usize) {
        self.pos.truncate(n);
        self.neg.truncate(n);
    }

    /// Overwrites `self`, in place, with the interpretation bounded by
    /// `lower ⊆ upper`: true atoms `lower`, false atoms the complement of
    /// `upper` (capacities must match) — how a fixpoint pair `(T∞, U∞)`
    /// becomes a model without a fresh allocation.
    pub fn assign_bounds(&mut self, lower: &BitSet, upper: &BitSet) {
        debug_assert!(lower.is_subset(upper), "inconsistent interpretation");
        self.pos.copy_from(lower);
        self.neg.copy_from(upper);
        self.neg.complement_in_place();
    }

    /// The truth value of `a`.
    #[inline]
    pub fn truth(&self, a: GroundAtomId) -> Truth {
        if self.pos.contains(a.index()) {
            Truth::True
        } else if self.neg.contains(a.index()) {
            Truth::False
        } else {
            Truth::Undefined
        }
    }

    /// Whether `a` is true.
    #[inline]
    pub fn is_true(&self, a: GroundAtomId) -> bool {
        self.pos.contains(a.index())
    }

    /// Whether `a` is false.
    #[inline]
    pub fn is_false(&self, a: GroundAtomId) -> bool {
        self.neg.contains(a.index())
    }

    /// Whether `a` is undefined.
    #[inline]
    pub fn is_undefined(&self, a: GroundAtomId) -> bool {
        !self.pos.contains(a.index()) && !self.neg.contains(a.index())
    }

    /// Marks `a` true. Returns `true` if newly added.
    ///
    /// # Panics
    /// Panics (debug) if `a` is already false.
    pub fn set_true(&mut self, a: GroundAtomId) -> bool {
        debug_assert!(!self.neg.contains(a.index()), "inconsistent insert");
        self.pos.insert(a.index())
    }

    /// Marks `a` false. Returns `true` if newly added.
    pub fn set_false(&mut self, a: GroundAtomId) -> bool {
        debug_assert!(!self.pos.contains(a.index()), "inconsistent insert");
        self.neg.insert(a.index())
    }

    /// Resets to the all-undefined interpretation, keeping allocations.
    pub fn clear(&mut self) {
        self.pos.clear();
        self.neg.clear();
    }

    /// The positive part (set of true atoms).
    pub fn pos(&self) -> &BitSet {
        &self.pos
    }

    /// The negative part (set of false atoms).
    pub fn neg(&self) -> &BitSet {
        &self.neg
    }

    /// Iterates over true atoms.
    pub fn iter_true(&self) -> impl Iterator<Item = GroundAtomId> + '_ {
        self.pos.iter().map(|i| GroundAtomId(i as u32))
    }

    /// Iterates over false atoms.
    pub fn iter_false(&self) -> impl Iterator<Item = GroundAtomId> + '_ {
        self.neg.iter().map(|i| GroundAtomId(i as u32))
    }

    /// Iterates over undefined atoms.
    pub fn iter_undefined(&self) -> impl Iterator<Item = GroundAtomId> + '_ {
        (0..self.capacity() as u32)
            .map(GroundAtomId)
            .filter(|&a| self.is_undefined(a))
    }

    /// Number of true atoms.
    pub fn count_true(&self) -> usize {
        self.pos.count()
    }

    /// Number of false atoms.
    pub fn count_false(&self) -> usize {
        self.neg.count()
    }

    /// Number of undefined atoms.
    pub fn count_undefined(&self) -> usize {
        self.capacity() - self.count_true() - self.count_false()
    }

    /// Whether the interpretation is total (two-valued).
    pub fn is_total(&self) -> bool {
        self.count_undefined() == 0
    }

    /// Information ordering: whether `self ⊆ other` as sets of literals.
    pub fn leq(&self, other: &Interp) -> bool {
        self.pos.is_subset(&other.pos) && self.neg.is_subset(&other.neg)
    }

    /// Whether the interpretation **satisfies** every clause of `gp`
    /// in the three-valued sense used for partial models: no clause has a
    /// body all-true and head false (strong violation witness), using
    /// Przymusinski-style truth ordering false < undefined < true:
    /// `value(head) ≥ min value of body`.
    pub fn satisfies(&self, gp: &GroundProgram) -> bool {
        fn rank(t: Truth) -> u8 {
            match t {
                Truth::False => 0,
                Truth::Undefined => 1,
                Truth::True => 2,
            }
        }
        gp.clauses().all(|c| {
            let body_min = c
                .pos
                .iter()
                .map(|&a| rank(self.truth(a)))
                .chain(c.neg.iter().map(|&a| 2 - rank(self.truth(a))))
                .min()
                .unwrap_or(2);
            rank(self.truth(c.head)) >= body_min
        })
    }

    /// Renders the interpretation as `{p, ~q, r?}` (`?` marks undefined),
    /// sorted by atom id.
    pub fn display(&self, store: &TermStore, gp: &GroundProgram) -> String {
        let mut s = String::from("{");
        let mut first = true;
        for a in gp.atom_ids() {
            let part = match self.truth(a) {
                Truth::True => String::new(),
                Truth::False => "~".to_owned(),
                Truth::Undefined => {
                    let mut t = gp.display_atom(store, a);
                    t.push('?');
                    if !first {
                        s.push_str(", ");
                    }
                    first = false;
                    s.push_str(&t);
                    continue;
                }
            };
            if !first {
                s.push_str(", ");
            }
            first = false;
            s.push_str(&part);
            s.push_str(&gp.display_atom(store, a));
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsls_ground::Grounder;
    use gsls_lang::parse_program;

    fn tiny() -> (TermStore, GroundProgram) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "p :- ~q. q :- ~p. r :- p.").unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        (s, gp)
    }

    fn id(gp: &GroundProgram, store: &mut TermStore, name: &str) -> GroundAtomId {
        let sym = store.intern_symbol(name);
        gp.lookup_atom(&gsls_lang::Atom::new(sym, Vec::new()))
            .unwrap()
    }

    #[test]
    fn truth_transitions() {
        let (mut s, gp) = tiny();
        let p = id(&gp, &mut s, "p");
        let q = id(&gp, &mut s, "q");
        let mut i = Interp::new(gp.atom_count());
        assert_eq!(i.truth(p), Truth::Undefined);
        assert!(i.set_true(p));
        assert!(!i.set_true(p));
        assert!(i.set_false(q));
        assert_eq!(i.truth(p), Truth::True);
        assert_eq!(i.truth(q), Truth::False);
        assert_eq!(i.count_undefined(), 1);
        assert!(!i.is_total());
    }

    #[test]
    fn leq_information_ordering() {
        let (_, gp) = tiny();
        let mut small = Interp::new(gp.atom_count());
        let mut big = Interp::new(gp.atom_count());
        small.set_true(GroundAtomId(0));
        big.set_true(GroundAtomId(0));
        big.set_false(GroundAtomId(1));
        assert!(small.leq(&big));
        assert!(!big.leq(&small));
    }

    #[test]
    fn satisfies_total_model() {
        let (mut s, gp) = tiny();
        let p = id(&gp, &mut s, "p");
        let q = id(&gp, &mut s, "q");
        let r = id(&gp, &mut s, "r");
        // {p, ~q, r} is a (total, stable) model of p:-~q. q:-~p. r:-p.
        let mut i = Interp::new(gp.atom_count());
        i.set_true(p);
        i.set_false(q);
        i.set_true(r);
        assert!(i.satisfies(&gp));
        // {p, ~q, ~r} violates r :- p.
        let mut bad = Interp::new(gp.atom_count());
        bad.set_true(p);
        bad.set_false(q);
        bad.set_false(r);
        assert!(!bad.satisfies(&gp));
    }

    #[test]
    fn all_undefined_satisfies_symmetric_program() {
        let (_, gp) = tiny();
        let i = Interp::new(gp.atom_count());
        // undefined everywhere: head(undef) >= min(body)=undef for every
        // clause; facts would break this but there are none here.
        assert!(i.satisfies(&gp));
    }

    #[test]
    fn facts_require_truth() {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "p.").unwrap();
        let gp = Grounder::ground(&mut s, &p).unwrap();
        let i = Interp::new(gp.atom_count());
        assert!(!i.satisfies(&gp), "fact must be true");
    }

    #[test]
    fn display_marks_statuses() {
        let (mut s, gp) = tiny();
        let p = id(&gp, &mut s, "p");
        let q = id(&gp, &mut s, "q");
        let mut i = Interp::new(gp.atom_count());
        i.set_true(p);
        i.set_false(q);
        let text = i.display(&s, &gp);
        assert!(text.contains("p"));
        assert!(text.contains("~q"));
        assert!(text.contains("r?"));
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn from_parts_rejects_overlap() {
        let mut a = BitSet::new(4);
        let mut b = BitSet::new(4);
        a.insert(2);
        b.insert(2);
        let _ = Interp::from_parts(a, b);
    }

    #[test]
    fn iterators() {
        let (_, gp) = tiny();
        let mut i = Interp::new(gp.atom_count());
        i.set_true(GroundAtomId(0));
        i.set_false(GroundAtomId(2));
        assert_eq!(i.iter_true().collect::<Vec<_>>(), vec![GroundAtomId(0)]);
        assert_eq!(i.iter_false().collect::<Vec<_>>(), vec![GroundAtomId(2)]);
        assert_eq!(
            i.iter_undefined().collect::<Vec<_>>(),
            vec![GroundAtomId(1)]
        );
    }
}
