//! The multi-pass analyzer over [`Program`]s.
//!
//! Three passes, each skipped outright when every lint it feeds is
//! allowed (commit-path analysis of a large fact batch costs one cheap
//! loop):
//!
//! 1. **per-clause** — safety/range-restriction (unbound head vars,
//!    negative-only vars, non-ground facts, arity conflicts), singleton
//!    variables, and the cost lints (cartesian products, instantiation
//!    budget);
//! 2. **stratification** — predicate-level recursion through negation,
//!    with a witness cycle and, when a ground program is supplied, the
//!    stratified / locally-stratified / general distinction;
//! 3. **reachability** — predicates with no derivation path and rules
//!    that can never fire.

use crate::diag::{Diagnostic, Lint, LintConfig, LintReport};
use gsls_ground::depgraph::{AtomDepGraph, DepGraph};
use gsls_ground::GroundProgram;
use gsls_lang::{Clause, FxHashMap, Pred, Program, Sign, Symbol, Term, TermId, TermStore, Var};

/// Context the analyzer runs under: the lint configuration plus what
/// the caller already knows about the outside world (a session's
/// committed predicates and fact cardinalities).
#[derive(Debug, Clone, Default)]
pub struct AnalyzerOpts {
    /// Which lints report, and at what level.
    pub config: LintConfig,
    /// Arities of predicates defined outside the analyzed program
    /// (e.g. already committed to a session). Used both to detect
    /// arity conflicts against them and as arity ground truth.
    pub known_arities: FxHashMap<Symbol, usize>,
    /// Known fact cardinalities per predicate (e.g. from a grounder's
    /// fact store): feeds the instantiation estimate and seeds the
    /// reachability analysis.
    pub cardinalities: FxHashMap<Pred, usize>,
    /// Size of the active domain (constant universe) for estimating
    /// residual-variable blowup; `0` means "derive from the program".
    pub domain_hint: usize,
}

impl AnalyzerOpts {
    /// Options with a given configuration and no outside knowledge.
    pub fn with_config(config: LintConfig) -> Self {
        AnalyzerOpts {
            config,
            ..AnalyzerOpts::default()
        }
    }
}

/// The lints produced by the per-clause pass.
const CLAUSE_LINTS: [Lint; 7] = [
    Lint::UnboundHeadVar,
    Lint::NegativeOnlyVar,
    Lint::NonGroundFact,
    Lint::ArityConflict,
    Lint::SingletonVar,
    Lint::CartesianProduct,
    Lint::InstantiationBudget,
];

/// Analyzes a whole program: all three passes.
pub fn analyze(store: &TermStore, program: &Program, opts: &AnalyzerOpts) -> LintReport {
    analyze_with_ground(store, program, None, opts)
}

/// Analyzes a whole program; when `ground` is supplied the
/// stratification diagnostic distinguishes locally-stratified programs
/// (no recursion through negation at the ground-atom level) from fully
/// general ones.
pub fn analyze_with_ground(
    store: &TermStore,
    program: &Program,
    ground: Option<&GroundProgram>,
    opts: &AnalyzerOpts,
) -> LintReport {
    let mut diags = Vec::new();
    clause_pass(store, program, 0, opts, &mut diags);
    strat_pass(store, program, ground, opts, &mut diags);
    reach_pass(store, program, opts, &mut diags);
    LintReport::new(diags)
}

/// Analyzes the clauses at index `first_new` and beyond: the
/// commit-path entry point. Only the per-clause pass runs — the batch
/// alone has no meaningful dependency or reachability structure (use
/// [`analyze`] on the merged program for that) — but arity conflicts
/// are still checked against both the earlier clauses and
/// [`AnalyzerOpts::known_arities`].
pub fn analyze_batch(
    store: &TermStore,
    program: &Program,
    first_new: usize,
    opts: &AnalyzerOpts,
) -> LintReport {
    let mut diags = Vec::new();
    clause_pass(store, program, first_new, opts, &mut diags);
    LintReport::new(diags)
}

/// Renders a predicate as `name/arity`.
fn pred_name(store: &TermStore, pred: Pred) -> String {
    format!("{}/{}", store.symbol_name(pred.sym), pred.arity)
}

/// Renders a witness cycle as `p → not q → p` (the sign of pair `i`
/// labels the edge from predicate `i` to predicate `i+1 mod len`).
pub fn render_cycle(store: &TermStore, cycle: &[(Pred, Sign)]) -> String {
    if cycle.is_empty() {
        return String::new();
    }
    let mut s = store.symbol_name(cycle[0].0.sym).to_string();
    for (i, &(_, sign)) in cycle.iter().enumerate() {
        let next = cycle[(i + 1) % cycle.len()].0;
        s.push_str(if sign == Sign::Neg {
            " → not "
        } else {
            " → "
        });
        s.push_str(store.symbol_name(next.sym));
    }
    s
}

// ---------------------------------------------------------------------
// Pass 1: per-clause safety, singleton and cost lints.
// ---------------------------------------------------------------------

/// Per-variable occurrence facts within one clause.
#[derive(Clone, Copy, Default)]
struct VarInfo {
    count: u32,
    in_head: bool,
    in_pos: bool,
    in_neg: bool,
}

/// Where a variable occurrence sits in the clause.
#[derive(Clone, Copy, PartialEq)]
enum Site {
    Head,
    Pos,
    Neg,
}

/// Walks every variable occurrence of a term (with multiplicity —
/// unlike `collect_vars`, which deduplicates).
fn walk_vars(store: &TermStore, t: TermId, f: &mut impl FnMut(Var)) {
    if store.is_ground(t) {
        return;
    }
    match store.term(t) {
        Term::Var(v) => f(*v),
        Term::App(_, args) => {
            for &a in args.iter() {
                walk_vars(store, a, f);
            }
        }
    }
}

fn clause_pass(
    store: &TermStore,
    program: &Program,
    first_new: usize,
    opts: &AnalyzerOpts,
    diags: &mut Vec<Diagnostic>,
) {
    let cfg = &opts.config;
    if cfg.all_allowed(&CLAUSE_LINTS) {
        return;
    }

    // First-use arity table: the session's committed predicates, then
    // the clauses before the analyzed range, then the range itself.
    let mut first_use: FxHashMap<Symbol, usize> = opts.known_arities.clone();
    for c in &program.clauses()[..first_new.min(program.len())] {
        first_use.entry(c.head.pred).or_insert(c.head.args.len());
        for l in &c.body {
            first_use.entry(l.atom.pred).or_insert(l.atom.args.len());
        }
    }

    // Lazily computed context for the cost estimate.
    let mut fact_counts: Option<FxHashMap<Pred, usize>> = None;
    let mut domain: Option<u64> = None;

    // Scratch reused across clauses.
    let mut infos: FxHashMap<Var, VarInfo> = FxHashMap::default();
    let mut order: Vec<Var> = Vec::new();

    for (idx, c) in program.clauses().iter().enumerate().skip(first_new) {
        let span = program.span(idx);
        let mut emit = |lint: Lint, msg: String, pred: Option<String>, witness: Option<String>| {
            if let Some(severity) = cfg.level(lint).severity() {
                diags.push(Diagnostic {
                    lint,
                    severity,
                    message: msg,
                    clause: Some(idx),
                    span,
                    pred,
                    witness,
                });
            }
        };

        // Arity conflicts: head first, then body literals in order.
        let head_pred = c.head.pred_id();
        let mut check_arity =
            |sym: Symbol,
             arity: usize,
             what: &str,
             emit: &mut dyn FnMut(Lint, String, Option<String>, Option<String>)| {
                match first_use.get(&sym) {
                    Some(&expected) if expected != arity => emit(
                        Lint::ArityConflict,
                        format!(
                            "predicate {} used with arity {arity} in {what} but with arity \
                         {expected} elsewhere",
                            store.symbol_name(sym)
                        ),
                        Some(format!("{}/{arity}", store.symbol_name(sym))),
                        Some(format!("expected /{expected}, found /{arity}")),
                    ),
                    Some(_) => {}
                    None => {
                        first_use.insert(sym, arity);
                    }
                }
            };
        let mut emit_dyn =
            |l: Lint, m: String, p: Option<String>, w: Option<String>| emit(l, m, p, w);
        check_arity(c.head.pred, c.head.args.len(), "a rule head", &mut emit_dyn);
        for l in &c.body {
            check_arity(
                l.atom.pred,
                l.atom.args.len(),
                "a body literal",
                &mut emit_dyn,
            );
        }

        // Fast path for ground facts — the bulk of any EDB-heavy batch.
        if c.is_fact() {
            if !c.head.is_ground(store) {
                emit(
                    Lint::NonGroundFact,
                    format!("fact {} contains variables", c.display(store)),
                    Some(pred_name(store, head_pred)),
                    None,
                );
            }
            continue;
        }
        if c.is_ground(store) {
            continue;
        }

        // Variable occurrence census with multiplicity.
        infos.clear();
        order.clear();
        {
            let visit =
                |v: Var, site: Site, infos: &mut FxHashMap<Var, VarInfo>, order: &mut Vec<Var>| {
                    let info = infos.entry(v).or_insert_with(|| {
                        order.push(v);
                        VarInfo::default()
                    });
                    info.count += 1;
                    match site {
                        Site::Head => info.in_head = true,
                        Site::Pos => info.in_pos = true,
                        Site::Neg => info.in_neg = true,
                    }
                };
            for &t in c.head.args.iter() {
                walk_vars(store, t, &mut |v| {
                    visit(v, Site::Head, &mut infos, &mut order)
                });
            }
            for l in &c.body {
                let site = if l.is_pos() { Site::Pos } else { Site::Neg };
                for &t in l.atom.args.iter() {
                    walk_vars(store, t, &mut |v| visit(v, site, &mut infos, &mut order));
                }
            }
        }

        let head = pred_name(store, head_pred);
        let mut residual = 0u32;
        for &v in &order {
            let info = infos[&v];
            let name = store.var_name(v);
            if !info.in_pos {
                residual += 1;
                if info.in_neg {
                    emit(
                        Lint::NegativeOnlyVar,
                        format!(
                            "variable {name} of the rule for {head} occurs only in negative \
                             literals: no computation rule can ground it, so resolution \
                             flounders (grounding falls back to the active domain)"
                        ),
                        Some(head.clone()),
                        Some(name.clone()),
                    );
                } else {
                    emit(
                        Lint::UnboundHeadVar,
                        format!(
                            "head variable {name} of the rule for {head} is not bound by any \
                             positive body literal (the rule is not range-restricted)"
                        ),
                        Some(head.clone()),
                        Some(name.clone()),
                    );
                }
            }
            if info.count == 1 && !name.starts_with('_') {
                emit(
                    Lint::SingletonVar,
                    format!(
                        "variable {name} occurs exactly once in the rule for {head}; \
                         prefix it with `_` if the singleton is deliberate"
                    ),
                    Some(head.clone()),
                    Some(name),
                );
            }
        }

        // Cost lints operate on the positive body literals.
        if cfg.level(Lint::CartesianProduct).severity().is_some() {
            let groups = join_components(store, c);
            if groups >= 2 {
                emit(
                    Lint::CartesianProduct,
                    format!(
                        "the positive body of the rule for {head} splits into {groups} \
                         variable-disjoint groups: grounding multiplies them as a \
                         cartesian product"
                    ),
                    Some(head.clone()),
                    Some(format!("{groups} disjoint groups")),
                );
            }
        }
        if cfg.level(Lint::InstantiationBudget).severity().is_some() {
            let counts = fact_counts.get_or_insert_with(|| fact_counts_of(store, program));
            let dom = *domain.get_or_insert_with(|| {
                if opts.domain_hint > 0 {
                    opts.domain_hint as u64
                } else {
                    program.constants(store).len().max(1) as u64
                }
            });
            if let Some(est) = estimate_instances(program, c, counts, opts, dom, residual) {
                if est > u128::from(cfg.budget) {
                    emit(
                        Lint::InstantiationBudget,
                        format!(
                            "the rule for {head} may ground to ≈{est} instances, over the \
                             budget of {}",
                            cfg.budget
                        ),
                        Some(head.clone()),
                        Some(format!("≈{est} instances")),
                    );
                }
            }
        }
    }
}

/// Number of variable-connected components among the var-containing
/// positive body literals of `c` (≥ 2 means a cartesian product).
fn join_components(store: &TermStore, c: &Clause) -> usize {
    // Union-find over the positive literals, merged through shared vars.
    let lits: Vec<Vec<Var>> = c
        .pos_body()
        .map(|l| {
            let mut vs = Vec::new();
            l.collect_vars(store, &mut vs);
            vs
        })
        .filter(|vs| !vs.is_empty())
        .collect();
    if lits.len() < 2 {
        return lits.len();
    }
    let mut parent: Vec<usize> = (0..lits.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut owner: FxHashMap<Var, usize> = FxHashMap::default();
    for (i, vs) in lits.iter().enumerate() {
        for &v in vs {
            match owner.get(&v) {
                Some(&j) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    parent[a] = b;
                }
                None => {
                    owner.insert(v, i);
                }
            }
        }
    }
    (0..lits.len())
        .map(|i| find(&mut parent, i))
        .collect::<gsls_lang::FxHashSet<_>>()
        .len()
}

/// Counts the ground facts per predicate in `program`.
fn fact_counts_of(store: &TermStore, program: &Program) -> FxHashMap<Pred, usize> {
    let mut counts: FxHashMap<Pred, usize> = FxHashMap::default();
    for c in program.clauses() {
        if c.is_fact() && c.head.is_ground(store) {
            *counts.entry(c.head.pred_id()).or_insert(0) += 1;
        }
    }
    counts
}

/// Predicted ground-instance count of an update batch — the session's
/// admission-control predictor. Sums the per-clause instantiation
/// estimates (the same arithmetic behind [`Lint::InstantiationBudget`])
/// over `program`'s clauses from `first_new` on: ground facts count 1,
/// rules multiply their positive-body cardinalities (from
/// `opts.cardinalities`, falling back to in-batch fact counts) times
/// `domain_hint` per positively-unbound variable. A clause whose
/// estimate is unknowable contributes 0 — a positive body literal over
/// a predicate with no facts, rules, or supplied cardinality grounds to
/// nothing. Saturating; never walks the ground program.
pub fn estimate_batch_instances(
    store: &TermStore,
    program: &Program,
    first_new: usize,
    opts: &AnalyzerOpts,
) -> u128 {
    let fact_counts = fact_counts_of(store, program);
    let domain = if opts.domain_hint > 0 {
        opts.domain_hint as u64
    } else {
        program.constants(store).len().max(1) as u64
    };
    let mut total: u128 = 0;
    for c in program.clauses().iter().skip(first_new) {
        if c.is_fact() {
            total = total.saturating_add(1);
            continue;
        }
        // Residual = variables not bound by any positive body literal
        // (they enumerate the active domain when grounded).
        let mut pos_vars = gsls_lang::FxHashSet::default();
        let mut collect = Vec::new();
        for l in c.pos_body() {
            l.collect_vars(store, &mut collect);
        }
        pos_vars.extend(collect.iter().copied());
        let mut all_vars = Vec::new();
        for &t in c.head.args.iter() {
            walk_vars(store, t, &mut |v| all_vars.push(v));
        }
        for l in &c.body {
            for &t in l.atom.args.iter() {
                walk_vars(store, t, &mut |v| all_vars.push(v));
            }
        }
        all_vars.sort_unstable();
        all_vars.dedup();
        let residual = all_vars.iter().filter(|v| !pos_vars.contains(v)).count() as u32;
        if let Some(est) = estimate_instances(program, c, &fact_counts, opts, domain, residual) {
            total = total.saturating_add(est);
        }
    }
    total
}

/// Estimates the number of ground instances of `c`: the product of the
/// cardinalities of its positive body predicates, times `domain` per
/// residual (positively unbound) variable. Returns `None` when any
/// cardinality is unknown — no lint is better than a made-up number.
fn estimate_instances(
    program: &Program,
    c: &Clause,
    fact_counts: &FxHashMap<Pred, usize>,
    opts: &AnalyzerOpts,
    domain: u64,
    residual: u32,
) -> Option<u128> {
    let mut est: u128 = 1;
    for l in c.pos_body() {
        let pred = l.atom.pred_id();
        let card = if let Some(&n) = opts.cardinalities.get(&pred) {
            n as u128
        } else if let Some(&n) = fact_counts.get(&pred) {
            n as u128
        } else if !program.clauses_for(pred).is_empty() {
            // IDB with rules but no facts: bounded by domain^arity.
            u128::from(domain).saturating_pow(pred.arity)
        } else {
            return None;
        };
        if card == 0 {
            return Some(0);
        }
        est = est.saturating_mul(card);
    }
    for _ in 0..residual {
        est = est.saturating_mul(u128::from(domain));
    }
    Some(est)
}

// ---------------------------------------------------------------------
// Pass 2: stratification diagnostics.
// ---------------------------------------------------------------------

fn strat_pass(
    store: &TermStore,
    program: &Program,
    ground: Option<&GroundProgram>,
    opts: &AnalyzerOpts,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(severity) = opts.config.level(Lint::Unstratified).severity() else {
        return;
    };
    let graph = DepGraph::from_program(program);
    let Some(cycle) = graph.negative_cycle_witness() else {
        return;
    };
    let witness = render_cycle(store, &cycle);

    // The offending rules: clauses whose head is on the cycle and whose
    // body mentions another cycle predicate.
    let on_cycle: gsls_lang::FxHashSet<Pred> = cycle.iter().map(|&(p, _)| p).collect();
    let offenders: Vec<usize> = program
        .clauses()
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            on_cycle.contains(&c.head.pred_id())
                && c.body.iter().any(|l| on_cycle.contains(&l.atom.pred_id()))
        })
        .map(|(i, _)| i)
        .collect();

    let class = match ground {
        Some(gp) if AtomDepGraph::from_ground(gp).is_locally_stratified() => {
            "locally stratified (negation-free recursion at the ground level), so its \
             well-founded model is total"
        }
        Some(_) => "not even locally stratified: its well-founded model may leave atoms undefined",
        None => "possibly locally stratified — ground the program to distinguish",
    };
    let rules = offenders
        .iter()
        .map(|i| format!("#{i}"))
        .collect::<Vec<_>>()
        .join(", ");
    diags.push(Diagnostic {
        lint: Lint::Unstratified,
        severity,
        message: format!(
            "the program recurses through negation (witness cycle {witness}; rules {rules}) \
             and is {class}"
        ),
        clause: offenders.first().copied(),
        span: offenders.first().and_then(|&i| program.span(i)),
        pred: cycle.first().map(|&(p, _)| pred_name(store, p)),
        witness: Some(witness),
    });
}

// ---------------------------------------------------------------------
// Pass 3: reachability and dead code.
// ---------------------------------------------------------------------

fn reach_pass(
    store: &TermStore,
    program: &Program,
    opts: &AnalyzerOpts,
    diags: &mut Vec<Diagnostic>,
) {
    let cfg = &opts.config;
    if cfg.all_allowed(&[Lint::UnreachablePredicate, Lint::NeverFiringRule]) {
        return;
    }

    // Least fixpoint of "supportable": a predicate with a fact (here or
    // in the caller's fact store), or a rule whose positive body
    // predicates are all supportable (rules with negative-only bodies
    // support their head vacuously).
    let mut supportable: gsls_lang::FxHashSet<Pred> = opts
        .cardinalities
        .iter()
        .filter(|&(_, &n)| n > 0)
        .map(|(&p, _)| p)
        .collect();
    let mut rules: Vec<&Clause> = Vec::new();
    for c in program.clauses() {
        if c.is_fact() {
            supportable.insert(c.head.pred_id());
        } else {
            rules.push(c);
        }
    }
    loop {
        let mut changed = false;
        for c in &rules {
            let head = c.head.pred_id();
            if !supportable.contains(&head)
                && c.pos_body()
                    .all(|l| supportable.contains(&l.atom.pred_id()))
            {
                supportable.insert(head);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Never-firing rules: a positive body literal with no support.
    if cfg.level(Lint::NeverFiringRule).severity().is_some() {
        for (idx, c) in program.clauses().iter().enumerate() {
            if c.is_fact() {
                continue;
            }
            if let Some(dead) = c
                .pos_body()
                .find(|l| !supportable.contains(&l.atom.pred_id()))
            {
                diags.push(Diagnostic {
                    lint: Lint::NeverFiringRule,
                    severity: cfg.level(Lint::NeverFiringRule).severity().unwrap(),
                    message: format!(
                        "the rule for {} can never fire: positive body literal {} has no \
                         derivation path",
                        pred_name(store, c.head.pred_id()),
                        dead.atom.display(store)
                    ),
                    clause: Some(idx),
                    span: program.span(idx),
                    pred: Some(pred_name(store, c.head.pred_id())),
                    witness: Some(pred_name(store, dead.atom.pred_id())),
                });
            }
        }
    }

    // Unreachable predicates: mentioned in a head or positive body
    // position, yet unsupportable. Predicates that only ever occur
    // under negation are exempt — `~absent(X)` is an idiom, not a bug.
    if cfg.level(Lint::UnreachablePredicate).severity().is_some() {
        let mut seen: gsls_lang::FxHashSet<Pred> = gsls_lang::FxHashSet::default();
        for (idx, c) in program.clauses().iter().enumerate() {
            let mut mention = |pred: Pred, idx: usize, diags: &mut Vec<Diagnostic>| {
                if !supportable.contains(&pred) && seen.insert(pred) {
                    diags.push(Diagnostic {
                        lint: Lint::UnreachablePredicate,
                        severity: cfg.level(Lint::UnreachablePredicate).severity().unwrap(),
                        message: format!(
                            "predicate {} has no derivation path: no facts, and no rule \
                             chain can establish it",
                            pred_name(store, pred)
                        ),
                        clause: Some(idx),
                        span: program.span(idx),
                        pred: Some(pred_name(store, pred)),
                        witness: None,
                    });
                }
            };
            mention(c.head.pred_id(), idx, diags);
            for l in c.pos_body() {
                mention(l.atom.pred_id(), idx, diags);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{LintLevel, Severity};
    use gsls_lang::parse_program;

    fn run(src: &str) -> (TermStore, LintReport) {
        run_with(src, &AnalyzerOpts::with_config(LintConfig::strict()))
    }

    fn run_with(src: &str, opts: &AnalyzerOpts) -> (TermStore, LintReport) {
        let mut store = TermStore::new();
        let prog = parse_program(&mut store, src).unwrap();
        let report = analyze(&store, &prog, opts);
        (store, report)
    }

    fn lints(report: &LintReport) -> Vec<Lint> {
        report.diagnostics.iter().map(|d| d.lint).collect()
    }

    #[test]
    fn clean_program_is_clean() {
        let (_, r) = run("win(X) :- move(X, Y), ~win(Y). move(a, b). move(b, a).");
        // strict() warns on unstratified — that's the only finding.
        assert_eq!(lints(&r), vec![Lint::Unstratified]);
        let (_, r) =
            run("e(X, Y) :- edge(X, Y). edge(a, b). edge(b, c). t(X) :- e(X, Y), ~e(Y, X).");
        assert!(
            r.diagnostics.iter().all(|d| d.lint == Lint::SingletonVar),
            "{}",
            r.render()
        );
    }

    #[test]
    fn unbound_head_var() {
        let (_, r) = run("p(X, Y) :- q(X). q(a).");
        assert!(lints(&r).contains(&Lint::UnboundHeadVar), "{}", r.render());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::UnboundHeadVar)
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.witness.as_deref(), Some("Y"));
        assert_eq!(d.clause, Some(0));
        assert!(d.span.is_some(), "parsed clause should carry a span");
    }

    #[test]
    fn negative_only_var() {
        let (_, r) = run("p(X) :- ~q(X). q(a).");
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::NegativeOnlyVar)
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.witness.as_deref(), Some("X"));
        // ...and NOT also an unbound-head-var for the same variable.
        assert!(!lints(&r).contains(&Lint::UnboundHeadVar));
    }

    #[test]
    fn non_ground_fact() {
        let (_, r) = run("p(X).");
        let d = &r.diagnostics[0];
        assert_eq!(d.lint, Lint::NonGroundFact);
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn arity_conflict_within_program() {
        let (_, r) = run("p(a). q(X) :- p(X, X).");
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::ArityConflict)
            .unwrap();
        assert!(d.message.contains("arity 2"), "{}", d.message);
        assert_eq!(d.clause, Some(1));
    }

    #[test]
    fn arity_conflict_against_known() {
        let mut opts = AnalyzerOpts::with_config(LintConfig::strict());
        let mut store = TermStore::new();
        let p = store.intern_symbol("p");
        opts.known_arities.insert(p, 2);
        let prog = parse_program(&mut store, "p(a).").unwrap();
        let r = analyze(&store, &prog, &opts);
        assert!(lints(&r).contains(&Lint::ArityConflict), "{}", r.render());
    }

    #[test]
    fn unstratified_witness_named() {
        let (_, r) = run("win(X) :- move(X, Y), ~win(Y). move(a, b).");
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::Unstratified)
            .unwrap();
        assert_eq!(d.witness.as_deref(), Some("win → not win"));
        assert!(d.message.contains("rules #0"), "{}", d.message);
        // Default config allows it entirely.
        let (_, r) = run_with(
            "win(X) :- move(X, Y), ~win(Y). move(a, b).",
            &AnalyzerOpts::default(),
        );
        assert!(!lints(&r).contains(&Lint::Unstratified));
    }

    #[test]
    fn stratified_program_has_no_cycle_diagnostic() {
        let (_, r) = run("p(X) :- q(X), ~r(X). q(a). r(b).");
        assert!(!lints(&r).contains(&Lint::Unstratified), "{}", r.render());
    }

    #[test]
    fn unreachable_predicate_and_never_firing_rule() {
        let (_, r) = run("p(X) :- ghost(X). q(a).");
        assert!(
            lints(&r).contains(&Lint::UnreachablePredicate),
            "{}",
            r.render()
        );
        assert!(lints(&r).contains(&Lint::NeverFiringRule), "{}", r.render());
        // ghost and p are both unreachable; q is fine.
        let unreachable: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::UnreachablePredicate)
            .map(|d| d.pred.clone().unwrap())
            .collect();
        assert!(unreachable.contains(&"ghost/1".to_string()));
        assert!(unreachable.contains(&"p/1".to_string()));
        assert!(!unreachable.contains(&"q/1".to_string()));
    }

    #[test]
    fn negation_only_mention_is_not_unreachable() {
        let (_, r) = run("p(X) :- q(X), ~blocked(X). q(a).");
        assert!(
            !lints(&r).contains(&Lint::UnreachablePredicate),
            "~blocked(X) alone must not flag blocked: {}",
            r.render()
        );
    }

    #[test]
    fn negative_body_supports_head_vacuously() {
        // r is supportable through a rule with only a negative literal
        // over a supportable predicate.
        let (_, r) = run("r(a) :- ~q(a). q(a).");
        assert!(
            !lints(&r).contains(&Lint::UnreachablePredicate),
            "{}",
            r.render()
        );
        assert!(
            !lints(&r).contains(&Lint::NeverFiringRule),
            "{}",
            r.render()
        );
    }

    #[test]
    fn cardinalities_seed_reachability() {
        let mut store = TermStore::new();
        let prog = parse_program(&mut store, "p(X) :- edb(X).").unwrap();
        let edb = Pred::new(store.intern_symbol("edb"), 1);
        let mut opts = AnalyzerOpts::with_config(LintConfig::strict());
        opts.cardinalities.insert(edb, 10);
        let r = analyze(&store, &prog, &opts);
        assert!(
            !lints(&r).contains(&Lint::NeverFiringRule),
            "{}",
            r.render()
        );
    }

    #[test]
    fn singleton_var_warns_but_underscore_exempt() {
        let (_, r) = run("p(X) :- q(X, Y). q(a, b).");
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::SingletonVar)
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.witness.as_deref(), Some("Y"));
        let (_, r) = run("p(X) :- q(X, _). q(a, b).");
        assert!(!lints(&r).contains(&Lint::SingletonVar), "{}", r.render());
    }

    #[test]
    fn cartesian_product_detected() {
        let (_, r) = run("p(X, Y) :- q(X), r(Y). q(a). r(b).");
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::CartesianProduct)
            .unwrap();
        assert!(d.message.contains("2 variable-disjoint"), "{}", d.message);
        // A connected join is fine.
        let (_, r) = run("p(X, Y) :- q(X, Z), r(Z, Y). q(a, b). r(b, c).");
        assert!(
            !lints(&r).contains(&Lint::CartesianProduct),
            "{}",
            r.render()
        );
    }

    #[test]
    fn instantiation_budget() {
        let mut src = String::from("p(X, Y) :- q(X), r(Y).\n");
        for i in 0..40 {
            src.push_str(&format!("q(a{i}). r(b{i}).\n"));
        }
        let opts = AnalyzerOpts {
            config: LintConfig::strict().with_budget(1000),
            ..AnalyzerOpts::default()
        };
        let (_, r) = run_with(&src, &opts);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::InstantiationBudget)
            .unwrap();
        assert!(d.message.contains("1600"), "{}", d.message);
        // A generous budget keeps it quiet.
        let opts = AnalyzerOpts {
            config: LintConfig::strict().with_budget(1_000_000),
            ..AnalyzerOpts::default()
        };
        let (_, r) = run_with(&src, &opts);
        assert!(!lints(&r).contains(&Lint::InstantiationBudget));
    }

    #[test]
    fn batch_analysis_checks_only_new_clauses() {
        let mut store = TermStore::new();
        let prog = parse_program(&mut store, "p(X). q(a). q(b, b).").unwrap();
        // Clause 0 is outside the analyzed range: its non-ground fact is
        // not reported, but its arity is still learned (none conflict).
        let opts = AnalyzerOpts::default();
        let r = analyze_batch(&store, &prog, 1, &opts);
        assert_eq!(lints(&r), vec![Lint::ArityConflict], "{}", r.render());
        assert_eq!(r.diagnostics[0].clause, Some(2));
    }

    #[test]
    fn permissive_config_reports_nothing() {
        let (_, r) = run_with(
            "p(X) :- ~q(X). junk(X, X, Y). p(a, b) :- p(c).",
            &AnalyzerOpts::with_config(LintConfig::permissive()),
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn report_is_severity_ranked() {
        let (_, r) = run("p(X) :- q(X, Y). p(Z) :- ~w(Z). q(a, b).");
        assert!(r.has_errors());
        let sevs: Vec<Severity> = r.diagnostics.iter().map(|d| d.severity).collect();
        let mut sorted = sevs.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(sevs, sorted, "errors must come first: {}", r.render());
    }

    #[test]
    fn level_overrides_apply() {
        let cfg = LintConfig::default().set(Lint::SingletonVar, LintLevel::Deny);
        let (_, r) = run_with("p(X) :- q(X, Y). q(a, b).", &AnalyzerOpts::with_config(cfg));
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::SingletonVar)
            .unwrap();
        assert_eq!(d.severity, Severity::Error);
    }
}
