//! Precompiled join plans for the semi-naive grounding loop.
//!
//! ## Why plans
//!
//! The grounder's inner loop joins each rule's positive body against the
//! fact store once per delta position per round. Everything that loop
//! needs but that does not change between rounds is computed **once**
//! here, when [`build_templates`] / [`build_plans`] run:
//!
//! * **Literal order (selectivity).** For each `rule × delta-position`
//!   pair, the delta literal is pinned first — the delta is the smallest
//!   relation by construction — and the remaining positive literals are
//!   appended greedily, preferring (1) the literal with the most
//!   argument positions already bound by earlier literals, then (2) the
//!   smaller predicate by observed fact-store cardinality, then (3) the
//!   original body position for determinism.
//! * **Bound signatures / index selection.** While ordering, the planner
//!   records for every literal which argument positions are guaranteed
//!   ground when the join reaches its slot: positions holding a term
//!   that is already ground, or a variable bound by an earlier literal
//!   (matching against ground facts binds every variable of a pattern).
//!   Each non-empty signature is registered as a composite index in the
//!   [`FactStore`](crate::factstore::FactStore), so at run time the
//!   literal is a hash probe for the bound-value tuple followed by a
//!   binary-searched role sub-range of the (sorted) posting list — see
//!   the fact-store docs for the delta sub-range invariant.
//! * **Dense binding slots.** Each rule's variables are numbered into
//!   consecutive slots ([`RuleTemplate::n_slots`]), and every literal
//!   argument is compiled to an [`ArgSpec`] — a slot, a ground term, or
//!   (rarely) a non-ground compound. Joining then reads and writes a
//!   flat `TermId` array instead of a hash-map substitution, and
//!   emission copies slot values straight into the interner.
//! * **Residual variables.** Variables of the clause that occur in no
//!   positive body literal are never bound by the join and must be
//!   enumerated over the Herbrand universe at completion. The slot set
//!   is static, so it is cached per rule instead of being recomputed
//!   from `clause.vars()` on every successful body match.
//!
//! Reordering literals cannot change the set of instances a join
//! enumerates (a join is a set intersection), and the semi-naive
//! `Full`/`Delta`/`Old` role of a literal is decided by its **original**
//! body position relative to the delta position, which [`PlanLiteral`]
//! carries along — so planned grounding emits exactly the clauses the
//! unplanned path did.
//!
//! The planner also builds the **relevance index**: `delta predicate →
//! plans whose delta literal has that predicate`. A round then re-joins
//! only plans whose delta actually grew, instead of sweeping every rule
//! × delta position.

use crate::factstore::FactStore;
use gsls_lang::{Atom, FxHashMap, Program, Symbol, Term, TermId, TermStore, Var};

/// Sentinel for "no composite index: scan the role's row range".
pub(crate) const NO_INDEX: u32 = u32::MAX;

/// Sentinel for an unbound binding slot.
pub(crate) const UNBOUND: TermId = TermId(u32::MAX);

/// How one literal argument is produced or matched at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArgSpec {
    /// A variable: its value lives in the rule's binding slot.
    Slot(u32),
    /// A term that is ground at plan time.
    Ground(TermId),
    /// A non-ground compound (e.g. `s(X)`): matched/resolved
    /// structurally through [`RuleTemplate::var_slots`] — the cold path,
    /// only reachable in programs with function symbols.
    Compound(TermId),
}

/// A literal compiled to argument specs.
#[derive(Debug)]
pub(crate) struct AtomTemplate {
    pub pred: Symbol,
    pub args: Box<[ArgSpec]>,
}

impl AtomTemplate {
    fn compile(store: &TermStore, atom: &Atom, var_slots: &FxHashMap<Var, u32>) -> Self {
        let args = atom
            .args
            .iter()
            .map(|&t| {
                if store.is_ground(t) {
                    ArgSpec::Ground(t)
                } else {
                    match store.term(t) {
                        Term::Var(v) => ArgSpec::Slot(var_slots[v]),
                        Term::App(..) => ArgSpec::Compound(t),
                    }
                }
            })
            .collect();
        AtomTemplate {
            pred: atom.pred,
            args,
        }
    }
}

/// The per-rule compilation shared by all of the rule's join plans —
/// binding-slot layout and the emission templates.
#[derive(Debug)]
pub(crate) struct RuleTemplate {
    /// Number of binding slots (distinct clause variables).
    pub n_slots: u32,
    /// Variable → slot, for the compound cold paths.
    pub var_slots: FxHashMap<Var, u32>,
    /// Head emission template.
    pub head: AtomTemplate,
    /// Number of positive body literals (their interned ids come from
    /// the matched fact rows, so they need no emission template).
    pub n_pos: u32,
    /// Negative body literals in clause order.
    pub neg: Box<[AtomTemplate]>,
    /// Slots bound by no positive literal, in clause first-occurrence
    /// order; enumerated over the universe at completion. For rules
    /// without positive body this is every slot.
    pub residual: Box<[u32]>,
    /// Whether emitted instances must consult the clause-dedup table.
    ///
    /// Semi-naive exactness means one rule never enumerates the same
    /// instance twice (each tuple of fact rows is visited at exactly one
    /// `round × delta-position`, distinct tuples give distinct positive
    /// id lists, and distinct residual bindings change the head or a
    /// negative atom). Fact-shaped instances dedup by head atom. So the
    /// table is only needed when *another* rule could emit a colliding
    /// clause — i.e. when two rules share the signature `(head
    /// predicate, positive body predicates in order, negative body
    /// predicates in order)`.
    pub table_dedup: bool,
}

/// One positive body literal at its slot in a join plan.
#[derive(Debug)]
pub(crate) struct PlanLiteral {
    /// Position of this literal in the rule's positive body (decides its
    /// semi-naive role relative to the plan's delta position, and where
    /// its matched row id lands in the emission buffer).
    pub orig: u32,
    /// Fact-store slot of the literal's predicate.
    pub pred_slot: u32,
    /// Composite-index handle for [`PlanLiteral::bound`], or
    /// [`NO_INDEX`] when no argument is bound at this slot.
    pub handle: u32,
    /// The pattern's arguments as compiled specs.
    pub specs: Box<[ArgSpec]>,
    /// Sorted argument positions guaranteed ground at this slot; the
    /// probe key is their current values in this order.
    pub bound: Box<[u32]>,
}

/// A compiled join for one `rule × delta-position`.
#[derive(Debug)]
pub(crate) struct JoinPlan {
    /// Index of the rule in the source program.
    pub rule: u32,
    /// Positive-body position pinned to the delta.
    pub delta_pos: u32,
    /// Literals in execution order.
    pub literals: Box<[PlanLiteral]>,
}

/// All plans of a program plus the relevance index.
#[derive(Debug, Default)]
pub(crate) struct Planner {
    pub plans: Vec<JoinPlan>,
    /// Fact-store pred slot → indices of plans whose delta literal has
    /// that predicate. Slots created after planning (predicates that
    /// occur in no positive body) have no entry; callers must bounds-
    /// check.
    pub dependents: Vec<Vec<u32>>,
}

impl Planner {
    /// Plans triggered when the predicate in `slot` grows.
    pub fn dependents_of(&self, slot: u32) -> &[u32] {
        self.dependents
            .get(slot as usize)
            .map_or(&[][..], Vec::as_slice)
    }
}

/// The clause variables not occurring in any positive body literal, in
/// clause first-occurrence order. After a successful join every
/// positive-body variable is bound (patterns match against ground
/// facts), so exactly these remain free.
pub(crate) fn residual_vars(store: &TermStore, clause: &gsls_lang::Clause) -> Vec<Var> {
    let mut pos_vars = Vec::new();
    for lit in clause.pos_body() {
        lit.collect_vars(store, &mut pos_vars);
    }
    clause
        .vars(store)
        .into_iter()
        .filter(|v| !pos_vars.contains(v))
        .collect()
}

/// Compiles every rule of `program` to a [`RuleTemplate`] (slot layout,
/// head/negative emission templates, residual slots). Independent of
/// fact cardinalities, so the seed round can already emit through
/// templates before any plan exists.
///
/// Ground facts — the overwhelming majority of clauses in extensional
/// workloads — get `None`: they have no variables, no body and no
/// plans, so the grounder interns their head directly instead of paying
/// a template per fact.
///
/// `always_table` forces [`RuleTemplate::table_dedup`] on every rule —
/// a persistent kernel cannot know which signatures later rules will
/// collide with. Otherwise the flag is the signature-collision test
/// within `program`.
pub(crate) fn build_templates(
    store: &TermStore,
    program: &Program,
    always_table: bool,
) -> Vec<Option<RuleTemplate>> {
    // Count rule signatures to decide which rules can skip the clause-
    // dedup table (see `RuleTemplate::table_dedup`). Ground facts are
    // excluded: fact-shaped instances always dedup by head atom.
    type Sig = (gsls_lang::Pred, Vec<gsls_lang::Pred>, Vec<gsls_lang::Pred>);
    let mut sig_counts: FxHashMap<Sig, u32> = FxHashMap::default();
    let sig_of = |clause: &gsls_lang::Clause| -> Sig {
        (
            clause.head.pred_id(),
            clause.pos_body().map(|l| l.atom.pred_id()).collect(),
            clause.neg_body().map(|l| l.atom.pred_id()).collect(),
        )
    };
    if !always_table {
        for clause in program.clauses() {
            if clause.body.is_empty() && clause.head.is_ground(store) {
                continue;
            }
            *sig_counts.entry(sig_of(clause)).or_insert(0) += 1;
        }
    }
    program
        .clauses()
        .iter()
        .map(|clause| {
            template_of(store, clause, |c| {
                always_table || sig_counts[&sig_of(c)] > 1
            })
        })
        .collect()
}

/// Compiles one clause to its template (or `None` for a ground fact).
/// `table_dedup` decides the dedup-table flag for rules: the
/// signature-collision test in batch grounding, constantly `true` in a
/// persistent kernel (see [`build_templates`]).
pub(crate) fn template_of(
    store: &TermStore,
    clause: &gsls_lang::Clause,
    table_dedup: impl Fn(&gsls_lang::Clause) -> bool,
) -> Option<RuleTemplate> {
    if clause.body.is_empty() && clause.head.is_ground(store) {
        return None;
    }
    let vars = clause.vars(store);
    let var_slots: FxHashMap<Var, u32> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let residual: Vec<u32> = residual_vars(store, clause)
        .into_iter()
        .map(|v| var_slots[&v])
        .collect();
    Some(RuleTemplate {
        n_slots: vars.len() as u32,
        head: AtomTemplate::compile(store, &clause.head, &var_slots),
        n_pos: clause.pos_body().count() as u32,
        neg: clause
            .neg_body()
            .map(|l| AtomTemplate::compile(store, &l.atom, &var_slots))
            .collect(),
        residual: residual.into(),
        var_slots,
        table_dedup: table_dedup(clause),
    })
}

/// Argument positions of `pattern` that are ground given `bound_vars`:
/// the argument term is ground, or is a variable already bound. (A
/// non-ground compound argument like `s(X)` is never counted — it is
/// matched structurally instead of probed.)
fn bound_positions(store: &TermStore, pattern: &Atom, bound_vars: &[Var]) -> Vec<u32> {
    let mut out = Vec::new();
    for (p, &arg) in pattern.args.iter().enumerate() {
        let is_bound = store.is_ground(arg)
            || matches!(store.term(arg), Term::Var(v) if bound_vars.contains(v));
        if is_bound {
            out.push(p as u32);
        }
    }
    out
}

/// Builds every `rule × delta-position` join plan for `program`,
/// registering the composite indexes each plan probes (with backfill
/// over facts already in `facts`) and the relevance index. Observed
/// cardinalities — the fact-store row counts at call time, i.e. after
/// the seed round — feed the selectivity order.
pub(crate) fn build_plans(
    store: &TermStore,
    program: &Program,
    templates: &[Option<RuleTemplate>],
    facts: &mut FactStore,
) -> Planner {
    let mut planner = Planner::default();
    append_plans(store, program, templates, facts, 0, &mut planner);
    planner
}

/// Appends the plans of `program`'s clauses from `first_rule` on into
/// an existing `planner`, registering their composite indexes
/// (backfilled over facts already stored) and extending the relevance
/// index — the session path for rules added to a live program.
pub(crate) fn append_plans(
    store: &TermStore,
    program: &Program,
    templates: &[Option<RuleTemplate>],
    facts: &mut FactStore,
    first_rule: usize,
    planner: &mut Planner,
) {
    let mut triggers: Vec<(u32, u32)> = Vec::new();
    for (ci, clause) in program.clauses().iter().enumerate().skip(first_rule) {
        let pats: Vec<&Atom> = clause.pos_body().map(|l| &l.atom).collect();
        if pats.is_empty() {
            continue;
        }
        let var_slots = &templates[ci]
            .as_ref()
            .expect("rules with a positive body always have templates")
            .var_slots;
        let cards: Vec<u32> = pats
            .iter()
            .map(|a| facts.slot_of(a.pred_id()).map_or(0, |s| facts.rows(s)))
            .collect();
        for delta_pos in 0..pats.len() {
            let mut literals = Vec::with_capacity(pats.len());
            let mut bound_vars: Vec<Var> = Vec::new();
            let mut remaining: Vec<usize> = (0..pats.len()).collect();
            let mut next = delta_pos;
            loop {
                remaining.retain(|&i| i != next);
                let pat = pats[next];
                let bound = bound_positions(store, pat, &bound_vars);
                let handle = if bound.is_empty() {
                    NO_INDEX
                } else {
                    facts.register_index(pat.pred_id(), &bound)
                };
                literals.push(PlanLiteral {
                    orig: next as u32,
                    pred_slot: facts.pred_slot(pat.pred_id()),
                    handle,
                    specs: AtomTemplate::compile(store, pat, var_slots).args,
                    bound: bound.into(),
                });
                pat.collect_vars(store, &mut bound_vars);
                let Some(&best) = remaining.iter().min_by_key(|&&i| {
                    let bc = bound_positions(store, pats[i], &bound_vars).len();
                    // Most bound positions first, then smallest relation,
                    // then original position.
                    (usize::MAX - bc, cards[i], i)
                }) else {
                    break;
                };
                next = best;
            }
            let plan_idx = planner.plans.len() as u32;
            triggers.push((literals[0].pred_slot, plan_idx));
            planner.plans.push(JoinPlan {
                rule: ci as u32,
                delta_pos: delta_pos as u32,
                literals: literals.into_boxed_slice(),
            });
        }
    }
    if planner.dependents.len() < facts.pred_count() {
        planner.dependents.resize(facts.pred_count(), Vec::new());
    }
    for (slot, plan) in triggers {
        planner.dependents[slot as usize].push(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::GroundProgram;
    use gsls_lang::parse_program;

    /// Builds a fact store whose cardinalities are the given per-source-
    /// fact counts, by interning each program fact once.
    fn facts_of(program: &Program) -> (GroundProgram, FactStore) {
        let mut gp = GroundProgram::new();
        let ids: Vec<_> = program
            .clauses()
            .iter()
            .filter(|c| c.is_fact())
            .map(|c| gp.intern_atom(c.head.clone()))
            .collect();
        let mut fs = FactStore::default();
        let mut grown = Vec::new();
        fs.advance(&gp, &ids, &mut grown);
        (gp, fs)
    }

    fn plans_for(src: &str) -> (TermStore, Program, Planner) {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, src).unwrap();
        let (_, mut fs) = facts_of(&p);
        let templates = build_templates(&s, &p, false);
        let planner = build_plans(&s, &p, &templates, &mut fs);
        (s, p, planner)
    }

    #[test]
    fn transitive_closure_plans_index_the_join_variable() {
        let (_, _, planner) =
            plans_for("e(a, b). e(b, c). t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).");
        // 1 plan for the base rule + 2 for the recursive rule.
        assert_eq!(planner.plans.len(), 3);
        let rec: Vec<&JoinPlan> = planner.plans.iter().filter(|p| p.rule == 3).collect();
        assert_eq!(rec.len(), 2);
        for plan in rec {
            // Delta literal first, no bound args there.
            assert_eq!(plan.literals[0].orig, plan.delta_pos);
            assert!(plan.literals[0].bound.is_empty());
            assert_eq!(plan.literals[0].handle, NO_INDEX);
            // Second literal probes on the shared variable Y: position 0
            // of t (when e is the delta) or position 1 of e (when t is).
            let second = &plan.literals[1];
            let want = if plan.delta_pos == 0 { [0u32] } else { [1u32] };
            assert_eq!(&second.bound[..], &want[..]);
            assert_ne!(second.handle, NO_INDEX);
        }
    }

    #[test]
    fn bound_count_outranks_cardinality() {
        // After a(X) is matched, b(X, Y) has a bound argument while the
        // (much smaller) relation c has none — b must still come first.
        let (_, _, planner) =
            plans_for("a(u). a(v). b(u, w). b(v, w). c(z). p(X) :- a(X), b(X, Y), c(Z).");
        let plan = planner
            .plans
            .iter()
            .find(|pl| pl.delta_pos == 0)
            .expect("plan for delta at a(X)");
        let order: Vec<u32> = plan.literals.iter().map(|l| l.orig).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(&plan.literals[1].bound[..], &[0]);
        assert!(plan.literals[2].bound.is_empty(), "Z unbound when c runs");
    }

    #[test]
    fn ground_arguments_join_the_signature() {
        let (_, _, planner) = plans_for("f(a). e(a, b). q(X) :- f(X), e(a, X).");
        let plan = planner
            .plans
            .iter()
            .find(|pl| pl.delta_pos == 0)
            .expect("plan for delta at f(X)");
        // e(a, X): position 0 is the constant a, position 1 the now-bound
        // X — both in the signature.
        assert_eq!(&plan.literals[1].bound[..], &[0, 1]);
    }

    #[test]
    fn templates_slot_head_and_residual_vars() {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "e(a). p(X, W) :- e(X), ~q(Z).").unwrap();
        let templates = build_templates(&s, &p, false);
        let t = templates[1].as_ref().expect("rule template");
        // Clause vars in first-occurrence order: X, W, Z.
        assert_eq!(t.n_slots, 3);
        assert_eq!(t.head.args[..], [ArgSpec::Slot(0), ArgSpec::Slot(1)]);
        assert_eq!(t.neg.len(), 1);
        assert_eq!(t.neg[0].args[..], [ArgSpec::Slot(2)]);
        // W and Z are bound by no positive literal.
        assert_eq!(&t.residual[..], &[1, 2]);
        assert_eq!(t.n_pos, 1);
    }

    #[test]
    fn templates_classify_ground_and_compound_args() {
        let mut s = TermStore::new();
        let p = parse_program(&mut s, "e(s(X), 0) :- e(X, 0).").unwrap();
        let templates = build_templates(&s, &p, false);
        let t = templates[0].as_ref().expect("rule template");
        assert!(matches!(t.head.args[0], ArgSpec::Compound(_)));
        assert!(matches!(t.head.args[1], ArgSpec::Ground(_)));
    }

    #[test]
    fn relevance_index_routes_plans_by_delta_pred() {
        let (_, _, planner) = plans_for("e(a, b). r(a). r(Y) :- r(X), e(X, Y).");
        assert_eq!(planner.plans.len(), 2);
        for (i, plan) in planner.plans.iter().enumerate() {
            let slot = plan.literals[0].pred_slot;
            assert!(
                planner.dependents_of(slot).contains(&(i as u32)),
                "plan {i} reachable from its delta predicate"
            );
        }
        // A slot the planner never saw yields no dependents (and no
        // panic) even if it is created later.
        assert!(planner.dependents_of(999).is_empty());
    }
}
