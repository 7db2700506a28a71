//! The planner: rewrite passes over [`LogicalPlan`] and the lowering
//! onto a backend-specific [`PhysicalPlan`].
//!
//! Compilation runs in two stages:
//!
//! 1. **Optimize** ([`optimize`] / [`optimize_traced`]) — backend-free,
//!    rule-based rewrites: `predicate_pushdown` sinks filter conjuncts
//!    towards their scans (through projects, and into exactly one side
//!    of a join when every referenced column resolves there), and
//!    `projection_pruning` drops scan columns nothing downstream
//!    reads.
//! 2. **Lower** ([`plan`] / [`plan_with`]) — one candidate loop over
//!    [`JoinAlgo`] × fusion dispatch: heuristic planning lowers the one
//!    candidate [`best_join`] (hash > merge > nested loops, erroring
//!    with the Table-II message when a backend supports none) × the
//!    options' [`FusionPolicy`]; costed planning prices several. Each
//!    candidate becomes straight-line [`Step`]s. The lowering
//!    deduplicates structurally identical subtrees (Q5's shared
//!    region-filtered nations), caches common aggregate subexpressions,
//!    and runs all arithmetic through one constant-fold / affine table
//!    that composed steps and fused kernels both realise. One fused
//!    builder serves every fusion site: with [`PlannerOptions::fusion`]
//!    on, filter → `SUM` chains become [`Step::FusedFilterAgg`]s and
//!    element-wise chains [`Step::FusedMap`]s; with it off, Q6's
//!    `SUM(col · col)` is read off the same candidate as the
//!    [`Step::FilterSumProduct`] fast path.
//!
//! [`plan_traced`] also returns a [`PassTrace`] per pass and decision:
//! each rewrite, the join algorithm chosen, the costed dispatch and every
//! fused kernel's lifted expression, as one note line, formatted only on
//! the traced path and pinned by the `optimizer_traced` and
//! `plan_matrix` goldens.
//!
//! Adding a pass: write a `fn my_pass(&LogicalPlan) -> LogicalPlan`
//! rewriting the tree, append it to `PASSES` (which [`optimize`] and
//! [`optimize_traced`] both walk, so golden tests snapshot its effect
//! and its note), and cover it with a
//! structural unit test here — plans are `PartialEq`.

use crate::backend::{ColType, GpuBackend};
use crate::costing::{Alternative, CostModel, CostReport, TableStats};
use crate::fused::{FusedExpr, FusedPred};
use crate::logical::{AggExpr, JoinSide, LogicalPlan};
use crate::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use crate::physical::{ColRef, PhysicalPlan, PlanPred, SlotKind, SlotMeta, Step};
use crate::plan::{Expr, Predicate};
use gpu_sim::{Result, SimError};
use std::collections::{BTreeMap, BTreeSet};

/// Every join algorithm `backend` supports, in the Table-II preference
/// order (hash > merge > nested loops): the candidate set the cost-based
/// planner prices.
pub(crate) fn supported_joins(backend: &dyn GpuBackend) -> Vec<JoinAlgo> {
    [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::NestedLoops]
        .into_iter()
        .filter(|algo| backend.support(algo.operator()) != Support::None)
        .collect()
}

/// The best join algorithm `backend` supports, the first in the Table-II
/// preference order. `None` when the backend cannot join at all
/// (ArrayFire, per Table II).
pub fn best_join(backend: &dyn GpuBackend) -> Option<JoinAlgo> {
    supported_joins(backend).first().copied()
}

/// Knobs of [`plan_with`].
#[derive(Debug, Clone, Default)]
pub struct PlannerOptions {
    /// The general cross-operator fusion pass (filter→project→aggregate
    /// and elementwise-map chains into single-pass
    /// [`Step::FusedFilterAgg`] / [`Step::FusedMap`] kernels). Off by
    /// default, which leaves Q6's `SUM(col · col)` to the
    /// [`Step::FilterSumProduct`] fast path.
    pub fusion: FusionPolicy,
    /// Cost-based planning: when set, [`plan_with`] prices every
    /// supported join algorithm and fused/composed dispatch against the
    /// [`crate::costing::CostModel`] and keeps the cheapest candidate,
    /// attaching its [`crate::costing::CostReport`] to the plan. `None`
    /// (the default) keeps the heuristic path and its byte-identical
    /// plans.
    pub costing: Option<CostingOptions>,
}

/// Knobs of the cost-based planner ([`PlannerOptions::costing`]).
#[derive(Debug, Clone)]
pub struct CostingOptions {
    /// Device model candidates are priced against — normally the spec
    /// of the device the plan will run on.
    pub spec: gpu_sim::DeviceSpec,
    /// Base-table row counts for cardinality estimation.
    pub stats: TableStats,
}

impl CostingOptions {
    /// Costing against `spec` with `stats`, deciding on first-run
    /// (cold) totals.
    pub fn new(spec: &gpu_sim::DeviceSpec, stats: TableStats) -> Self {
        CostingOptions {
            spec: spec.clone(),
            stats,
        }
    }
}

/// Default row-count break-even for the size-adaptive fused dispatch,
/// calibrated by experiment E20 (fusion scaling). In steady
/// state the fused kernel wins at every swept size (even 4K rows it
/// saves 3–80× warm, launching 1 kernel instead of 7–13), so the
/// threshold guards *cold-start* cost instead: the fused kernel is
/// query-specific and JIT-compiles on first use (40ms on
/// Boost.Compute, 15ms on ArrayFire at 4K rows), while the composed
/// chain reuses the generic operator kernels every query shares.
/// Below ~25K rows a one-shot query amortises nothing, so the
/// composed realisation is the safer default; above it even a single
/// execution recoups the compile. A caller sets another threshold through
/// [`PlannerOptions::fusion`]; nothing else overrides it.
pub const DEFAULT_FUSION_THRESHOLD: usize = 25_000;

/// Knobs of the general cross-operator fusion pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusionPolicy {
    /// `None` (the default) leaves the pass off: default plans, traces
    /// and goldens are unchanged until a caller opts in. `Some(t)` fuses
    /// eligible chains into `FusedMap` / `FusedFilterAgg` steps whose
    /// single-pass kernel dispatches above `t` rows; at or below it the
    /// composed (unfused) realisation runs instead. Both paths are
    /// bit-equal, so `t` is purely a performance knob.
    pub threshold: Option<usize>,
}

impl FusionPolicy {
    /// Fusion on, with the calibrated default threshold.
    pub fn on() -> Self {
        FusionPolicy {
            threshold: Some(DEFAULT_FUSION_THRESHOLD),
        }
    }
}

/// One rewrite-pass snapshot from [`optimize_traced`] / [`plan_traced`].
#[derive(Debug, Clone, PartialEq)]
pub struct PassTrace {
    /// Pass name (`"initial"` for the input plan).
    pub pass: &'static str,
    /// [`LogicalPlan::render`] of the tree after the pass. Empty for
    /// decision entries (join selection, fused lowerings, costed
    /// dispatch) that leave the logical tree unchanged.
    pub plan: String,
    /// One line saying what the entry decided: the rewrite rule, the join
    /// algorithm out of the backend's legal set, the costed winner out of
    /// its candidates, or a fused kernel's expression, input bindings and
    /// predicates. `None` for the `"initial"` snapshot.
    pub note: Option<String>,
}

/// A rewrite pass: the tree in, the rewritten tree out.
type Pass = fn(&LogicalPlan) -> LogicalPlan;

/// The rewrite passes, in the order [`optimize`] and [`optimize_traced`]
/// run them; each name is also its note's rule id.
const PASSES: [(&str, Pass); 2] = [
    ("predicate_pushdown", predicate_pushdown),
    ("projection_pruning", projection_pruning),
];

/// Run every rewrite pass in `PASSES` order.
pub fn optimize(plan: &LogicalPlan) -> LogicalPlan {
    run_passes(plan, None)
}

/// [`optimize`], returning the rendered tree after each pass for
/// inspection and golden tests.
pub fn optimize_traced(plan: &LogicalPlan) -> (LogicalPlan, Vec<PassTrace>) {
    let mut traces = Vec::new();
    let tree = run_passes(plan, Some(&mut traces));
    (tree, traces)
}

/// The one body of [`optimize`] and [`optimize_traced`]: with a `trace`,
/// also render the input and each pass's output.
fn run_passes(plan: &LogicalPlan, mut trace: Option<&mut Vec<PassTrace>>) -> LogicalPlan {
    let mut snapshot = |pass, tree: &LogicalPlan| {
        if let Some(traces) = trace.as_deref_mut() {
            traces.push(PassTrace {
                pass,
                plan: tree.render(),
                note: (pass != "initial").then(|| format!("rewrite rule={pass}")),
            });
        }
    };
    snapshot("initial", plan);
    let mut tree: Option<LogicalPlan> = None;
    for (rule, pass) in PASSES {
        let after = pass(tree.as_ref().unwrap_or(plan));
        snapshot(rule, &after);
        tree = Some(after);
    }
    tree.expect("PASSES is not empty")
}

/// Sink filter conjuncts as close to their scans as possible.
///
/// Filters dissolve into individual conjuncts that travel down through
/// projects (when every referenced column resolves below) and into the
/// single join side whose scope covers them; conjuncts naming a join's
/// own output columns (or spanning both sides) re-materialise as a
/// `Filter` right above the node that produces those names.
pub(crate) fn predicate_pushdown(plan: &LogicalPlan) -> LogicalPlan {
    push(plan, Vec::new())
}

fn conjuncts(p: &Predicate, out: &mut Vec<Predicate>) {
    match p {
        Predicate::And(parts) => {
            for q in parts {
                conjuncts(q, out);
            }
        }
        other => out.push(other.clone()),
    }
}

fn and_of(mut preds: Vec<Predicate>) -> Predicate {
    if preds.len() == 1 {
        preds.pop().expect("non-empty")
    } else {
        Predicate::And(preds)
    }
}

fn wrap(plan: LogicalPlan, pending: Vec<Predicate>) -> LogicalPlan {
    if pending.is_empty() {
        plan
    } else {
        plan.filter(and_of(pending))
    }
}

fn push(plan: &LogicalPlan, pending: Vec<Predicate>) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            // Dissolve: this filter's conjuncts (evaluated first) join
            // whatever arrived from above.
            let mut own = Vec::new();
            conjuncts(predicate, &mut own);
            own.extend(pending);
            push(input, own)
        }
        LogicalPlan::Scan { .. } => wrap(plan.clone(), pending),
        LogicalPlan::Project { input, columns } => {
            let deep = input.deep_columns();
            let (below, above): (Vec<_>, Vec<_>) = pending
                .into_iter()
                .partition(|p| p.columns().iter().all(|c| deep.contains(*c)));
            wrap(
                LogicalPlan::Project {
                    input: Box::new(push(input, below)),
                    columns: columns.clone(),
                },
                above,
            )
        }
        LogicalPlan::Join {
            build,
            probe,
            build_key,
            probe_key,
            semi_distinct,
            project,
        } => {
            let bdeep = build.deep_columns();
            let pdeep = probe.deep_columns();
            let (mut to_build, mut to_probe, mut stay) = (Vec::new(), Vec::new(), Vec::new());
            for p in pending {
                let cols = p.columns();
                let in_b = cols.iter().all(|c| bdeep.contains(*c));
                let in_p = cols.iter().all(|c| pdeep.contains(*c));
                match (in_b, in_p) {
                    (true, false) => to_build.push(p),
                    (false, true) => to_probe.push(p),
                    // Ambiguous, cross-side, or over this join's own
                    // output names: evaluate at this level.
                    _ => stay.push(p),
                }
            }
            wrap(
                LogicalPlan::Join {
                    build: Box::new(push(build, to_build)),
                    probe: Box::new(push(probe, to_probe)),
                    build_key: build_key.clone(),
                    probe_key: probe_key.clone(),
                    semi_distinct: *semi_distinct,
                    project: project.clone(),
                },
                stay,
            )
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => wrap(
            LogicalPlan::Aggregate {
                input: Box::new(push(input, Vec::new())),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            pending,
        ),
        LogicalPlan::SortLimit {
            input,
            order,
            limit,
        } => wrap(
            LogicalPlan::SortLimit {
                input: Box::new(push(input, Vec::new())),
                order: *order,
                limit: *limit,
            },
            pending,
        ),
    }
}

/// Drop scan columns nothing in the plan references (predicates,
/// expressions, projections, join keys and sources, group keys).
pub(crate) fn projection_pruning(plan: &LogicalPlan) -> LogicalPlan {
    let mut used = BTreeSet::new();
    collect_used(plan, &mut used);
    prune(plan, &used)
}

fn collect_used(plan: &LogicalPlan, used: &mut BTreeSet<String>) {
    match plan {
        LogicalPlan::Scan { .. } => {}
        LogicalPlan::Filter { input, predicate } => {
            for c in predicate.columns() {
                used.insert(c.to_string());
            }
            collect_used(input, used);
        }
        LogicalPlan::Project { input, columns } => {
            for c in columns {
                used.insert(c.clone());
            }
            collect_used(input, used);
        }
        LogicalPlan::Join {
            build,
            probe,
            build_key,
            probe_key,
            project,
            ..
        } => {
            used.insert(build_key.clone());
            used.insert(probe_key.clone());
            for jc in project {
                used.insert(jc.source.clone());
            }
            collect_used(build, used);
            collect_used(probe, used);
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            if let Some(k) = group_by {
                used.insert(k.clone());
            }
            for (_, agg) in aggs {
                if let AggExpr::Sum(e) = agg {
                    for c in e.columns() {
                        used.insert(c.to_string());
                    }
                }
            }
            collect_used(input, used);
        }
        LogicalPlan::SortLimit { input, .. } => collect_used(input, used),
    }
}

fn prune(plan: &LogicalPlan, used: &BTreeSet<String>) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { table, columns } => {
            let mut kept: Vec<_> = columns
                .iter()
                .filter(|c| used.contains(&format!("{table}.{}", c.name)))
                .cloned()
                .collect();
            // A scan nothing reads by name (`COUNT(*)`, a constant sum)
            // still supplies the row count: keep one column to carry it.
            if kept.is_empty() {
                kept.extend(columns.first().cloned());
            }
            LogicalPlan::Scan {
                table: table.clone(),
                columns: kept,
            }
        }
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(prune(input, used)),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project { input, columns } => LogicalPlan::Project {
            input: Box::new(prune(input, used)),
            columns: columns.clone(),
        },
        LogicalPlan::Join {
            build,
            probe,
            build_key,
            probe_key,
            semi_distinct,
            project,
        } => LogicalPlan::Join {
            build: Box::new(prune(build, used)),
            probe: Box::new(prune(probe, used)),
            build_key: build_key.clone(),
            probe_key: probe_key.clone(),
            semi_distinct: *semi_distinct,
            project: project.clone(),
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => LogicalPlan::Aggregate {
            input: Box::new(prune(input, used)),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        LogicalPlan::SortLimit {
            input,
            order,
            limit,
        } => LogicalPlan::SortLimit {
            input: Box::new(prune(input, used)),
            order: *order,
            limit: *limit,
        },
    }
}

/// Compile `logical` for `backend` with default [`PlannerOptions`]:
/// optimize, select the join algorithm, lower to a [`PhysicalPlan`].
pub fn plan(query: &str, logical: &LogicalPlan, backend: &dyn GpuBackend) -> Result<PhysicalPlan> {
    plan_with(query, logical, backend, &PlannerOptions::default())
}

/// [`plan`] with explicit [`PlannerOptions`].
///
/// Follows the heuristic path ([`best_join`], the options'
/// [`FusionPolicy`]) or — when [`PlannerOptions::costing`] is set —
/// prices every supported join algorithm × fused/composed dispatch and
/// keeps the cheapest candidate.
pub fn plan_with(
    query: &str,
    logical: &LogicalPlan,
    backend: &dyn GpuBackend,
    opts: &PlannerOptions,
) -> Result<PhysicalPlan> {
    plan_impl(query, logical, backend, opts, None)
}

/// [`plan_with`], additionally returning the full rewrite trace: the
/// `optimize_traced` pass snapshots plus one noted entry per planner
/// decision — join selection, each fused-kernel lowering, and (on the
/// costed path) the fused-vs-composed dispatch. The
/// compiled [`PhysicalPlan`] is byte-identical to [`plan_with`]'s.
pub fn plan_traced(
    query: &str,
    logical: &LogicalPlan,
    backend: &dyn GpuBackend,
    opts: &PlannerOptions,
) -> Result<(PhysicalPlan, Vec<PassTrace>)> {
    let mut traces = Vec::new();
    let plan = plan_impl(query, logical, backend, opts, Some(&mut traces))?;
    Ok((plan, traces))
}

/// The one body of [`plan_with`] and [`plan_traced`]: lower every
/// candidate (join algorithm × fusion dispatch), keep the cheapest.
///
/// Heuristic planning has one unpriced candidate — [`best_join`] × the
/// options' [`FusionPolicy`] — so it neither prices nor names anything.
/// Costed planning enumerates every supported join algorithm × {fused,
/// composed}, prices each against the [`CostModel`] and attaches the
/// winner's report. Without a `trace` nothing is rendered or noted —
/// planning an overhead-bound query must not pay for snapshots nobody
/// reads.
fn plan_impl(
    query: &str,
    logical: &LogicalPlan,
    backend: &dyn GpuBackend,
    opts: &PlannerOptions,
    mut trace: Option<&mut Vec<PassTrace>>,
) -> Result<PhysicalPlan> {
    let optimized = run_passes(logical, trace.as_deref_mut());
    let model = opts
        .costing
        .as_ref()
        .map(|c| CostModel::new(&c.spec, &c.stats));
    let algos: Vec<Option<JoinAlgo>> = if optimized.contains_join() {
        let algos = match model {
            Some(_) => supported_joins(backend),
            None => best_join(backend).into_iter().collect(),
        };
        if algos.is_empty() {
            return Err(SimError::Unsupported(format!(
                "{} supports no join algorithm (Table II)",
                backend.name()
            )));
        }
        algos.into_iter().map(Some).collect()
    } else {
        vec![None]
    };
    // Fused-vs-composed is a pure dispatch knob (both realisations are
    // bit-equal), so the costed planner owns the decision outright: one
    // candidate runs the fusion pass with the threshold pinned to
    // always-fused, the other leaves the pass off.
    let dispatches = if model.is_some() {
        vec![
            ("fused", FusionPolicy { threshold: Some(0) }),
            ("composed", FusionPolicy::default()),
        ]
    } else {
        vec![("default", opts.fusion)]
    };
    struct Best {
        plan: PhysicalPlan,
        report: Option<CostReport>,
        total: u64,
        idx: usize,
        notes: Vec<String>,
        algo: Option<JoinAlgo>,
    }
    let mut best: Option<Best> = None;
    let mut alternatives = Vec::new();
    let traced = trace.is_some();
    for &algo in &algos {
        for &(tag, dispatch) in &dispatches {
            let (plan, notes) = lower_collect(query, &optimized, backend, dispatch, algo, traced)?;
            let report = model.as_ref().map(|m| m.cost_plan(&plan));
            let total = report.as_ref().map_or(0, CostReport::cold_ns);
            if let Some(r) = &report {
                alternatives.push(Alternative {
                    name: match algo {
                        Some(a) => format!("join={a:?}, dispatch={tag}"),
                        None => format!("dispatch={tag}"),
                    },
                    cold_ns: total,
                    warm_ns: r.warm_ns(),
                    chosen: false,
                });
            }
            if best.as_ref().is_none_or(|b| total < b.total) {
                best = Some(Best {
                    plan,
                    report,
                    total,
                    idx: alternatives.len().saturating_sub(1),
                    notes,
                    algo,
                });
            }
        }
    }
    let Best {
        mut plan,
        report,
        idx: chosen,
        notes,
        algo,
        ..
    } = best.expect("at least one candidate");
    if let Some(traces) = trace {
        let mut decision = |pass, note| {
            traces.push(PassTrace {
                pass,
                plan: String::new(),
                note: Some(note),
            })
        };
        if report.is_some() {
            let candidates: Vec<&str> = alternatives.iter().map(|a| a.name.as_str()).collect();
            let chosen = &alternatives[chosen].name;
            decision(
                "costed_dispatch",
                format!("costed_dispatch chosen={chosen} candidates={candidates:?}"),
            );
        }
        if let Some(algo) = algo {
            let (name, supported) = (backend.name(), supported_joins(backend));
            decision(
                "join_selection",
                format!("join_selection backend={name} algo={algo:?} supported={supported:?}"),
            );
        }
        for note in notes {
            decision("fused_lowering", note);
        }
    }
    if let Some(mut report) = report {
        alternatives[chosen].chosen = true;
        report.alternatives = alternatives;
        plan.cost = Some(report);
    }
    Ok(plan)
}

/// [`plan_with`] forcing `algo` as the join algorithm (the knob E21's
/// join sweep uses to measure every candidate, not just the winner).
/// Errors when `backend` does not support `algo` (Table II).
pub fn plan_with_algo(
    query: &str,
    logical: &LogicalPlan,
    backend: &dyn GpuBackend,
    opts: &PlannerOptions,
    algo: JoinAlgo,
) -> Result<PhysicalPlan> {
    if backend.support(algo.operator()) == Support::None {
        return Err(SimError::Unsupported(format!(
            "{} does not support {:?} joins (Table II)",
            backend.name(),
            algo
        )));
    }
    let optimized = optimize(logical);
    lower_collect(query, &optimized, backend, opts.fusion, Some(algo), false).map(|(plan, _)| plan)
}

/// Lower `optimized` for `backend` with `join_algo` already selected and
/// the fusion policy fixed — one planning candidate. When `traced`, also
/// returns the note of each fused kernel the lowering emitted, in
/// emission order.
fn lower_collect(
    query: &str,
    optimized: &LogicalPlan,
    backend: &dyn GpuBackend,
    fusion: FusionPolicy,
    join_algo: Option<JoinAlgo>,
    traced: bool,
) -> Result<(PhysicalPlan, Vec<String>)> {
    let mut lw = Lowerer {
        backend,
        fusion: fusion.threshold,
        join_algo,
        fused: false,
        steps: Vec::new(),
        realize: Vec::new(),
        slots: Vec::new(),
        freed: Vec::new(),
        outputs: Vec::new(),
        base: BTreeMap::new(),
        rel_cache: Vec::new(),
        notes: traced.then(Vec::new),
    };
    lw.lower_root(optimized)?;
    let plan = PhysicalPlan {
        query: query.to_string(),
        backend: backend.name().to_string(),
        join_algo,
        fused: lw.fused,
        steps: lw.steps,
        realize: lw.realize,
        slots: lw.slots,
        outputs: lw.outputs,
        base: lw.base,
        cost: None,
    };
    Ok((plan, lw.notes.unwrap_or_default()))
}

/// A lowered relation: how the rows of a logical subtree exist on the
/// device at this point of the step list.
#[derive(Clone)]
enum Rel {
    /// A bare scan — columns resolved by qualified base name.
    Base(Vec<(String, ColType)>),
    /// Filtered rows of `source`, selected by the row-id column `ids`.
    Ids { source: Box<Rel>, ids: usize },
    /// Materialised columns (name → slot), with the producing join's
    /// context kept for late build-side resolution (Q14's mask).
    Mat {
        cols: Vec<(String, usize)>,
        join: Option<JoinCtx>,
    },
}

/// Join context a [`Rel::Mat`] carries: the build relation and the slot
/// holding build-side row indices, so expressions can still pull
/// build-side base columns through the match list.
#[derive(Clone)]
struct JoinCtx {
    build: Box<Rel>,
    right_idx: usize,
}

fn join_of(rel: &Rel) -> Option<&JoinCtx> {
    match rel {
        Rel::Mat {
            join: Some(ctx), ..
        } => Some(ctx),
        _ => None,
    }
}

/// A value while lowering an expression: a folded constant, or `T` — a
/// device column ([`ColRef`]) on the composed path, a [`FusedExpr`] node
/// in the fused builder.
enum Val<T> {
    Const(f64),
    Ref(T),
}

/// What [`fold`] makes of one arithmetic node.
enum Folded<T> {
    Const(f64),
    /// `input · mul + add`, one affine kernel.
    Affine {
        input: T,
        mul: f64,
        add: f64,
    },
    /// `a · b`, one product kernel.
    Product(T, T),
}

/// The one constant-fold / affine table. The composed lowering
/// ([`Lowerer::lower_arith`]) realises its `Affine` / `Product` as
/// steps and the fused builder ([`Lowerer::build_fused`]) as
/// [`FusedExpr`] nodes — the same per-element f64 operations in the same
/// order, so fused and composed runs stay bit-equal. Constant folding
/// and affine shortcuts keep the library call count down — what a
/// careful rapid-prototyper would write by hand. Column±column is not in
/// the Table-II operator set.
fn fold<T>(whole: &Expr, a: Val<T>, b: Val<T>) -> Result<Folded<T>> {
    use Val::{Const, Ref};
    let affine = |input, mul, add| Folded::Affine { input, mul, add };
    Ok(match (whole, a, b) {
        (Expr::Add(..), Const(x), Const(y)) => Folded::Const(x + y),
        (Expr::Sub(..), Const(x), Const(y)) => Folded::Const(x - y),
        (Expr::Mul(..), Const(x), Const(y)) => Folded::Const(x * y),
        (Expr::Add(..), Ref(x), Const(c)) | (Expr::Add(..), Const(c), Ref(x)) => affine(x, 1.0, c),
        (Expr::Sub(..), Ref(x), Const(c)) => affine(x, 1.0, -c),
        (Expr::Sub(..), Const(c), Ref(x)) => affine(x, -1.0, c),
        (Expr::Mul(..), Ref(x), Const(c)) | (Expr::Mul(..), Const(c), Ref(x)) => affine(x, c, 0.0),
        (Expr::Mul(..), Ref(x), Ref(y)) => Folded::Product(x, y),
        _ => {
            return Err(SimError::Unsupported(
                "column±column addition is not in the Table-II operator set; \
                 rewrite with literals or products"
                    .into(),
            ))
        }
    })
}

/// The columns an aggregate's expressions resolve against (name, where
/// it lives, dtype), plus the producing join for build-side masks.
struct Scope<'r> {
    cols: Vec<(String, ColRef, ColType)>,
    join: Option<&'r JoinCtx>,
}

impl Scope<'_> {
    fn get(&self, name: &str) -> Option<&ColRef> {
        self.cols
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, r, _)| r)
    }
}

/// A fused step's input columns, deduplicated so a column uploads into
/// the kernel once. On a traced lowering `binds` stays parallel to
/// `cols`: the logical subexpression each input materialises, rendered
/// for the fused lowering's note.
struct FusedInputs {
    cols: Vec<ColRef>,
    binds: Option<Vec<String>>,
}

impl FusedInputs {
    fn new(traced: bool) -> Self {
        FusedInputs {
            cols: Vec::new(),
            binds: traced.then(Vec::new),
        }
    }

    /// Index of `r` in the input list, appending it on first use.
    fn leaf(&mut self, r: ColRef, bind: &dyn std::fmt::Display) -> usize {
        if let Some(i) = self.cols.iter().position(|x| *x == r) {
            i
        } else {
            self.cols.push(r);
            if let Some(binds) = &mut self.binds {
                binds.push(bind.to_string());
            }
            self.cols.len() - 1
        }
    }
}

/// Expression-lowering context: the subexpression cache plus the
/// eager-free bookkeeping for scalar aggregates.
#[derive(Default)]
struct ExprCtx {
    cache: Vec<(Expr, ColRef)>,
    /// Grouped mode caches every composite result; scalar mode caches
    /// only subtrees shared between aggregates (the rest is freed
    /// eagerly after each reduction).
    cache_all: bool,
    /// Composite subtrees appearing in more than one aggregate.
    shared: Vec<Expr>,
    /// While > 0, newly created slots belong to a shared subtree and
    /// must survive until plan end.
    defer_depth: usize,
    /// Slots exempt from the per-aggregate eager free.
    deferred: Vec<usize>,
}

impl ExprCtx {
    fn grouped() -> Self {
        ExprCtx {
            cache_all: true,
            ..ExprCtx::default()
        }
    }

    fn scalar(shared: Vec<Expr>) -> Self {
        ExprCtx {
            shared,
            ..ExprCtx::default()
        }
    }

    fn lookup(&self, e: &Expr) -> Option<ColRef> {
        self.cache
            .iter()
            .find(|(k, _)| k == e)
            .map(|(_, r)| r.clone())
    }
}

struct Lowerer<'a> {
    backend: &'a dyn GpuBackend,
    /// [`FusionPolicy::threshold`]: `None` leaves the fusion pass off.
    fusion: Option<usize>,
    join_algo: Option<JoinAlgo>,
    fused: bool,
    steps: Vec<Step>,
    realize: Vec<String>,
    slots: Vec<SlotMeta>,
    /// Parallel to `slots`: whether a Free step has been emitted.
    freed: Vec<bool>,
    outputs: Vec<(String, usize)>,
    base: BTreeMap<String, ColType>,
    /// Structural CSE: identical logical subtrees lower once (Q5 shares
    /// the region-filtered nations between two joins).
    rel_cache: Vec<(LogicalPlan, Rel)>,
    /// On a traced lowering, one note per fused kernel, in
    /// step-emission order.
    notes: Option<Vec<String>>,
}

fn unknown(name: &str) -> SimError {
    SimError::Unsupported(format!("unknown plan column `{name}`"))
}

/// The named entries of `cols` a projection keeps, in `names` order.
fn keep<T: Clone>(cols: &[(String, T)], names: &[String]) -> Result<Vec<(String, T)>> {
    names
        .iter()
        .map(|name| {
            cols.iter()
                .find(|(n, _)| n == name)
                .cloned()
                .ok_or_else(|| unknown(name))
        })
        .collect()
}

/// Unqualified tail of a column name, for slot labels.
fn short(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

impl Lowerer<'_> {
    fn how(&self, op: DbOperator) -> String {
        self.backend.realization(op).to_string()
    }

    fn new_slot(&mut self, name: &str, kind: SlotKind) -> usize {
        self.slots.push(SlotMeta {
            name: name.to_string(),
            kind,
        });
        self.freed.push(false);
        self.slots.len() - 1
    }

    fn emit(&mut self, step: Step, how: String) {
        self.steps.push(step);
        self.realize.push(how);
    }

    /// Note a fused kernel's lowering: its logical expression, the
    /// subexpression each of `fin`'s `inputs` binds and its literal filter
    /// conjuncts. Only a traced lowering formats anything.
    fn note_fused(
        &mut self,
        rule: &str,
        expr: &Expr,
        fin: &FusedInputs,
        inputs: impl IntoIterator<Item = usize>,
        preds: &[(String, CmpOp, f64)],
    ) {
        if let (Some(notes), Some(binds)) = (&mut self.notes, &fin.binds) {
            let binds: Vec<&str> = inputs.into_iter().map(|i| binds[i].as_str()).collect();
            let preds: Vec<String> = preds
                .iter()
                .map(|(c, op, lit)| format!("{c} {op:?} {lit}"))
                .collect();
            notes.push(format!(
                "fused_lowering rule={rule} expr={expr} bindings=[{}] preds=[{}]",
                binds.join(", "),
                preds.join(", ")
            ));
        }
    }

    fn device(dtype: ColType) -> SlotKind {
        SlotKind::Device { dtype }
    }

    fn slot_dtype(&self, slot: usize) -> ColType {
        match self.slots[slot].kind {
            SlotKind::Device { dtype } => dtype,
            _ => ColType::F64,
        }
    }

    /// Resolve `name` in an already-materialised relation.
    fn rel_ref(&self, rel: &Rel, name: &str) -> Result<(ColRef, ColType)> {
        match rel {
            Rel::Base(cols) => cols
                .iter()
                .find(|(n, _)| n == name)
                .map(|(n, t)| (ColRef::Base(n.clone()), *t))
                .ok_or_else(|| unknown(name)),
            Rel::Mat { cols, .. } => cols
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| (ColRef::Slot(*s), self.slot_dtype(*s)))
                .ok_or_else(|| unknown(name)),
            Rel::Ids { .. } => Err(SimError::Unsupported(format!(
                "column `{name}` must be materialised (Project) before use"
            ))),
        }
    }

    fn emit_gather(&mut self, data: ColRef, dtype: ColType, ids: usize, label: &str) -> usize {
        let out = self.new_slot(label, Self::device(dtype));
        let how = self.how(DbOperator::ScatterGather);
        self.emit(
            Step::Gather {
                data,
                ids: ColRef::Slot(ids),
                out,
            },
            how,
        );
        out
    }

    fn free_now(&mut self, slot: usize) {
        if !self.freed[slot] && matches!(self.slots[slot].kind, SlotKind::Device { .. }) {
            self.freed[slot] = true;
            self.steps.push(Step::Free { slot });
            self.realize.push(String::new());
        }
    }

    /// Release every still-live device column, in creation order — the
    /// convention the hand-tuned queries follow at plan end.
    fn free_all_live(&mut self) {
        for slot in 0..self.slots.len() {
            self.free_now(slot);
        }
    }

    fn lower_root(&mut self, plan: &LogicalPlan) -> Result<()> {
        match plan {
            LogicalPlan::SortLimit {
                input,
                order,
                limit,
            } => {
                let LogicalPlan::Aggregate {
                    input: agg_in,
                    group_by,
                    aggs,
                } = input.as_ref()
                else {
                    return Err(SimError::Unsupported(
                        "SortLimit must wrap an Aggregate".into(),
                    ));
                };
                let downloads = self.lower_aggregate(agg_in, group_by.as_deref(), aggs)?;
                self.free_all_live();
                let Some((keys, vals)) = downloads else {
                    return Err(SimError::Unsupported(
                        "SortLimit over a scalar aggregate".into(),
                    ));
                };
                self.emit(
                    Step::HostSort {
                        keys,
                        vals,
                        order: *order,
                        limit: *limit,
                    },
                    "host sort".to_string(),
                );
                Ok(())
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                self.lower_aggregate(input, group_by.as_deref(), aggs)?;
                self.free_all_live();
                Ok(())
            }
            _ => Err(SimError::Unsupported(
                "plan root must be an Aggregate (optionally under SortLimit)".into(),
            )),
        }
    }

    /// Lower an aggregate node. Returns the download slots
    /// `(keys, values)` for grouped aggregates (for a later HostSort),
    /// `None` for scalar ones.
    fn lower_aggregate(
        &mut self,
        input: &LogicalPlan,
        group_by: Option<&str>,
        aggs: &[(String, AggExpr)],
    ) -> Result<Option<(usize, Vec<usize>)>> {
        if group_by.is_none() {
            if let Some(outs) = self.try_fuse_scalar(input, aggs)? {
                self.outputs.extend(outs);
                return Ok(None);
            }
        }
        let rel = self.lower_rel(input)?;
        match group_by {
            Some(key) => self.lower_grouped(&rel, key, aggs).map(Some),
            None => {
                self.lower_scalar(&rel, aggs)?;
                Ok(None)
            }
        }
    }

    /// The one scalar-fusion site: `SUM(expr), …` above a conjunctive
    /// literal filter on a bare scan, built by [`Self::fusable_ops`] +
    /// [`Self::build_fused`] over the scan's columns. With the fusion
    /// pass on, each aggregate becomes one [`Step::FusedFilterAgg`] —
    /// any mask/affine/product expression, any number of aggregates.
    /// With it off, the Q6 shape — exactly one `SUM(col · col)` —
    /// becomes the [`Step::FilterSumProduct`] fast path, read off the
    /// same candidate.
    ///
    /// Everything is validated before anything is emitted, so an
    /// ineligible shape falls back to the normal path untouched.
    fn try_fuse_scalar(
        &mut self,
        input: &LogicalPlan,
        aggs: &[(String, AggExpr)],
    ) -> Result<Option<Vec<(String, usize)>>> {
        let LogicalPlan::Filter {
            input: scan,
            predicate,
        } = input
        else {
            return Ok(None);
        };
        let fast_path_cols = match aggs {
            [(_, AggExpr::Sum(Expr::Mul(a, b)))] if self.fusion.is_none() => {
                match (a.as_ref(), b.as_ref()) {
                    (Expr::Col(a), Expr::Col(b)) => Some([a, b]),
                    _ => None,
                }
            }
            _ => None,
        };
        if !matches!(scan.as_ref(), LogicalPlan::Scan { .. })
            || !(self.fusion.is_some() || fast_path_cols.is_some())
        {
            return Ok(None);
        }
        let Some(cmps) = literal_conjuncts(predicate) else {
            return Ok(None);
        };
        let Rel::Base(cols) = self.lower_rel(scan)? else {
            return Ok(None);
        };
        let scope = Scope {
            cols: cols
                .into_iter()
                .map(|(n, t)| (n.clone(), ColRef::Base(n), t))
                .collect(),
            join: None,
        };
        // The fast path names its columns outright: an unknown one is an
        // error (product columns, then filter columns), not a fallback.
        if let Some(product) = fast_path_cols {
            for name in product.into_iter().chain(cmps.iter().map(|(c, ..)| c)) {
                scope.get(name).ok_or_else(|| unknown(name))?;
            }
        }
        let Some(pred_cols) = cmps
            .iter()
            .map(|(c, ..)| scope.get(c).cloned())
            .collect::<Option<Vec<_>>>()
        else {
            return Ok(None);
        };
        let mut ctx = ExprCtx::scalar(Vec::new());
        let mut built = Vec::new();
        for (name, agg) in aggs {
            let AggExpr::Sum(e) = agg else {
                return Ok(None);
            };
            if self.fusable_ops(e, &scope, &ctx).is_none_or(|p| p.konst) {
                return Ok(None);
            }
            let mut fin = FusedInputs::new(self.notes.is_some());
            let preds: Vec<FusedPred> = cmps
                .iter()
                .zip(&pred_cols)
                .map(|((c, cmp, lit), r)| FusedPred {
                    input: fin.leaf(r.clone(), c),
                    cmp: *cmp,
                    lit: *lit,
                })
                .collect();
            let Val::Ref(expr) = self.build_fused(e, &scope, &mut ctx, &mut fin)? else {
                return Ok(None);
            };
            built.push((name, fin, preds, expr, e));
        }
        let how = format!(
            "{} ; {}",
            self.backend.realization(DbOperator::Selection),
            self.backend.realization(DbOperator::Reduction)
        );
        let Some(threshold) = self.fusion else {
            let [(name, fin, preds, FusedExpr::Mul(a, b), e)] = built.as_slice() else {
                return Ok(None);
            };
            let (FusedExpr::Col(a), FusedExpr::Col(b)) = (a.as_ref(), b.as_ref()) else {
                return Ok(None);
            };
            self.fused = true;
            let out = self.new_slot(name, SlotKind::Scalar);
            self.note_fused("fuse_filter_sum_product", e, fin, [*a, *b], &cmps);
            let preds = preds
                .iter()
                .map(|p| PlanPred {
                    col: fin.cols[p.input].clone(),
                    cmp: p.cmp,
                    lit: p.lit,
                })
                .collect();
            let (a, b) = (fin.cols[*a].clone(), fin.cols[*b].clone());
            self.emit(Step::FilterSumProduct { a, b, preds, out }, how);
            return Ok(Some(vec![(name.to_string(), out)]));
        };
        self.fused = true;
        let mut outs = Vec::new();
        for (name, fin, preds, expr, e) in built {
            let out = self.new_slot(name, SlotKind::Scalar);
            self.note_fused("fuse_filter_agg", e, &fin, 0..fin.cols.len(), &cmps);
            let step = Step::FusedFilterAgg {
                inputs: fin.cols,
                preds,
                expr,
                threshold,
                out,
            };
            self.emit(step, how.clone());
            outs.push((name.clone(), out));
        }
        Ok(Some(outs))
    }

    /// Phase 1 of fusion: a pure probe deciding whether `e` can fuse
    /// into a single fused kernel and how many per-element kernels that
    /// collapses. `None` means "not fusable here" — the caller takes the
    /// normal lowering path, preserving its exact behaviour (errors
    /// included).
    fn fusable_ops(&self, e: &Expr, scope: &Scope, ctx: &ExprCtx) -> Option<FuseProbe> {
        let probe = |konst, ops| Some(FuseProbe { konst, ops });
        if ctx.lookup(e).is_some() {
            return probe(false, 0);
        }
        match e {
            Expr::Lit(_) => probe(true, 0),
            Expr::Col(name) => scope.get(name).and(probe(false, 0)),
            Expr::Mask(name, ..) => {
                let in_scope = scope.get(name).is_some();
                if in_scope && !ctx.shared.contains(e) {
                    probe(false, 1)
                } else if in_scope || scope.join.is_some() {
                    // Shared or join-side masks materialise separately
                    // and enter the fused kernel as plain input columns.
                    probe(false, 0)
                } else {
                    None
                }
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                if ctx.shared.contains(e) {
                    // Shared composites materialise once via the normal
                    // path so later aggregates still hit the cache.
                    return probe(false, 0);
                }
                let pa = self.fusable_ops(a, scope, ctx)?;
                let pb = self.fusable_ops(b, scope, ctx)?;
                if pa.konst && pb.konst {
                    return probe(true, 0);
                }
                if !pa.konst && !pb.konst && !matches!(e, Expr::Mul(..)) {
                    return None; // column±column: not in the operator set
                }
                probe(false, pa.ops + pb.ops + 1)
            }
        }
    }

    /// Phase 2 of fusion: build the [`FusedExpr`] for a subtree the
    /// probe approved, materialising cached/shared/join-side parts
    /// through the normal lowering and referencing them as fused inputs.
    fn build_fused(
        &mut self,
        e: &Expr,
        scope: &Scope,
        ctx: &mut ExprCtx,
        fin: &mut FusedInputs,
    ) -> Result<Val<FusedExpr>> {
        if let Some(hit) = ctx.lookup(e) {
            return Ok(Val::Ref(FusedExpr::Col(fin.leaf(hit, e))));
        }
        match e {
            Expr::Lit(v) => Ok(Val::Const(*v)),
            Expr::Col(name) => {
                let r = scope.get(name).ok_or_else(|| unknown(name))?;
                Ok(Val::Ref(FusedExpr::Col(fin.leaf(r.clone(), e))))
            }
            Expr::Mask(name, cmp, lit) => match scope.get(name) {
                Some(r) if !ctx.shared.contains(e) => Ok(Val::Ref(FusedExpr::Mask {
                    input: Box::new(FusedExpr::Col(fin.leaf(r.clone(), name))),
                    cmp: *cmp,
                    lit: *lit,
                })),
                _ => self.fuse_leaf_via_lowering(e, scope, ctx, fin),
            },
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                if ctx.shared.contains(e) {
                    return self.fuse_leaf_via_lowering(e, scope, ctx, fin);
                }
                let la = self.build_fused(a, scope, ctx, fin)?;
                let lb = self.build_fused(b, scope, ctx, fin)?;
                Ok(match fold(e, la, lb)? {
                    Folded::Const(c) => Val::Const(c),
                    Folded::Affine { input, mul, add } => Val::Ref(FusedExpr::Affine {
                        input: Box::new(input),
                        mul,
                        add,
                    }),
                    Folded::Product(x, y) => Val::Ref(FusedExpr::Mul(Box::new(x), Box::new(y))),
                })
            }
        }
    }

    /// Materialise a subtree through the normal lowering (it is cached,
    /// shared across aggregates, or reads the join build side) and
    /// reference the resulting column as a fused-kernel input.
    fn fuse_leaf_via_lowering(
        &mut self,
        e: &Expr,
        scope: &Scope,
        ctx: &mut ExprCtx,
        fin: &mut FusedInputs,
    ) -> Result<Val<FusedExpr>> {
        Ok(match self.lower_expr(e, scope, ctx)? {
            Val::Ref(r) => Val::Ref(FusedExpr::Col(fin.leaf(r, e))),
            Val::Const(v) => Val::Const(v),
        })
    }

    /// Lower one aggregate's value expression, fusing eligible
    /// element-wise chains (two or more per-element kernels) into a
    /// single [`Step::FusedMap`] when the fusion pass is enabled.
    fn lower_agg_expr(
        &mut self,
        e: &Expr,
        scope: &Scope,
        ctx: &mut ExprCtx,
    ) -> Result<Val<ColRef>> {
        if let Some(threshold) = self.fusion {
            if let Some(p) = self.fusable_ops(e, scope, ctx) {
                if !p.konst && p.ops >= 2 {
                    return self.emit_fused_map(e, threshold, scope, ctx).map(Val::Ref);
                }
            }
        }
        self.lower_expr(e, scope, ctx)
    }

    fn emit_fused_map(
        &mut self,
        whole: &Expr,
        threshold: usize,
        scope: &Scope,
        ctx: &mut ExprCtx,
    ) -> Result<ColRef> {
        let mut fin = FusedInputs::new(self.notes.is_some());
        let Val::Ref(expr) = self.build_fused(whole, scope, ctx, &mut fin)? else {
            unreachable!("the fusion probe rejects constant expressions")
        };
        self.note_fused("fuse_map", whole, &fin, 0..fin.cols.len(), &[]);
        let inputs = fin.cols;
        let r = self.emit_expr_slot(
            "fused",
            |out| Step::FusedMap {
                inputs,
                expr,
                threshold,
                out,
            },
            ctx,
        );
        if ctx.cache_all {
            ctx.cache.push((whole.clone(), r.clone()));
        }
        self.fused = true;
        Ok(r)
    }

    fn lower_rel(&mut self, plan: &LogicalPlan) -> Result<Rel> {
        if let Some((_, rel)) = self.rel_cache.iter().find(|(p, _)| p == plan) {
            return Ok(rel.clone());
        }
        let rel = match plan {
            LogicalPlan::Scan { table, columns } => {
                let cols: Vec<(String, ColType)> = columns
                    .iter()
                    .map(|c| (format!("{table}.{}", c.name), c.dtype))
                    .collect();
                for (n, t) in &cols {
                    self.base.insert(n.clone(), *t);
                }
                Rel::Base(cols)
            }
            LogicalPlan::Filter { input, predicate } => {
                let src = self.lower_rel(input)?;
                let ids = self.lower_filter(&src, predicate)?;
                Rel::Ids {
                    source: Box::new(src),
                    ids,
                }
            }
            LogicalPlan::Project { input, columns } => {
                let src = self.lower_rel(input)?;
                match src {
                    Rel::Ids { source, ids } => {
                        let mut cols = Vec::new();
                        for name in columns {
                            let (data, dtype) = self.rel_ref(&source, name)?;
                            let slot = self.emit_gather(data, dtype, ids, short(name));
                            cols.push((name.clone(), slot));
                        }
                        Rel::Mat { cols, join: None }
                    }
                    Rel::Base(cols) => Rel::Base(keep(&cols, columns)?),
                    Rel::Mat { cols, join } => Rel::Mat {
                        cols: keep(&cols, columns)?,
                        join,
                    },
                }
            }
            LogicalPlan::Join { .. } => self.lower_join(plan)?,
            LogicalPlan::Aggregate { .. } | LogicalPlan::SortLimit { .. } => {
                return Err(SimError::Unsupported(
                    "nested aggregates are not lowerable; aggregate at the plan root".into(),
                ))
            }
        };
        self.rel_cache.push((plan.clone(), rel.clone()));
        Ok(rel)
    }

    fn lower_filter(&mut self, rel: &Rel, pred: &Predicate) -> Result<usize> {
        if let Predicate::ColCmp(a, cmp, b) = pred {
            let (ra, _) = self.rel_ref(rel, a)?;
            let (rb, _) = self.rel_ref(rel, b)?;
            let out = self.new_slot("ids", Self::device(ColType::U32));
            let how = self.how(DbOperator::Selection);
            self.emit(
                Step::SelectionCmpCols {
                    a: ra,
                    b: rb,
                    cmp: *cmp,
                    out,
                },
                how,
            );
            return Ok(out);
        }
        // A lone literal comparison is a one-predicate conjunction: the
        // same backend call, realised as Table II's selection.
        let (parts, conn, op) = match pred {
            Predicate::And(parts) => (
                &parts[..],
                Connective::And,
                DbOperator::ConjunctionDisjunction,
            ),
            Predicate::Or(parts) => (
                &parts[..],
                Connective::Or,
                DbOperator::ConjunctionDisjunction,
            ),
            _ => (
                std::slice::from_ref(pred),
                Connective::And,
                DbOperator::Selection,
            ),
        };
        let preds: Vec<PlanPred> = parts
            .iter()
            .map(|p| match p {
                Predicate::Cmp(c, cmp, lit) => {
                    let (col, _) = self.rel_ref(rel, c)?;
                    Ok(PlanPred {
                        col,
                        cmp: *cmp,
                        lit: *lit,
                    })
                }
                _ => Err(SimError::Unsupported(
                    "only literal comparisons compose under AND/OR in a plan filter".into(),
                )),
            })
            .collect::<Result<_>>()?;
        let out = self.new_slot("ids", Self::device(ColType::U32));
        let how = self.how(op);
        self.emit(Step::SelectionMulti { preds, conn, out }, how);
        Ok(out)
    }

    fn lower_join(&mut self, plan: &LogicalPlan) -> Result<Rel> {
        let LogicalPlan::Join {
            build,
            probe,
            build_key,
            probe_key,
            semi_distinct,
            project,
        } = plan
        else {
            unreachable!("lower_join is only called on Join nodes");
        };
        let algo = self
            .join_algo
            .expect("join algorithm pre-selected for join-bearing plans");
        // Build side first, then probe — the hand-tuned plan order.
        let build_rel = self.lower_rel(build)?;
        let probe_rel = self.lower_rel(probe)?;
        let (outer, _) = self.rel_ref(&probe_rel, probe_key)?;
        let (inner, _) = self.rel_ref(&build_rel, build_key)?;
        let how = self.how(algo.operator());
        // Outer-row indices come out non-decreasing; inner-row ones do
        // not (hash/probe order).
        let out_left = self.new_slot("join_l", Self::device(ColType::U32));
        let out_right = self.new_slot("join_r", Self::device(ColType::U32));
        self.emit(
            Step::Join {
                outer,
                inner,
                algo,
                out_left,
                out_right,
            },
            how,
        );
        if *semi_distinct {
            // EXISTS: collapse matches to distinct build rows by grouping
            // the build-side indices over a ones column.
            let ones = self.new_slot("ones", Self::device(ColType::F64));
            let how = self.how(DbOperator::Product);
            self.emit(
                Step::ConstantOnes {
                    like: ColRef::Slot(out_right),
                    out: ones,
                },
                how,
            );
            let dk = self.new_slot("distinct", Self::device(ColType::U32));
            let dn = self.new_slot("distinct_n", Self::device(ColType::F64));
            let how = self.how(DbOperator::GroupedAggregation);
            self.emit(
                Step::GroupedSum {
                    keys: ColRef::Slot(out_right),
                    vals: ColRef::Slot(ones),
                    out_keys: dk,
                    out_vals: dn,
                },
                how,
            );
            let mut cols = Vec::new();
            for jc in project {
                if jc.side != JoinSide::Build {
                    return Err(SimError::Unsupported(
                        "a semi-distinct join projects build-side columns only".into(),
                    ));
                }
                let (data, dtype) = self.rel_ref(&build_rel, &jc.source)?;
                let slot = self.emit_gather(data, dtype, dk, &jc.output);
                cols.push((jc.output.clone(), slot));
            }
            Ok(Rel::Mat { cols, join: None })
        } else {
            let mut cols = Vec::new();
            for jc in project {
                let (src_rel, idx) = match jc.side {
                    JoinSide::Probe => (&probe_rel, out_left),
                    JoinSide::Build => (&build_rel, out_right),
                };
                let (data, dtype) = self.rel_ref(src_rel, &jc.source)?;
                let slot = self.emit_gather(data, dtype, idx, &jc.output);
                cols.push((jc.output.clone(), slot));
            }
            Ok(Rel::Mat {
                cols,
                join: Some(JoinCtx {
                    build: Box::new(build_rel),
                    right_idx: out_right,
                }),
            })
        }
    }

    /// Materialise (or resolve in place) the columns an aggregate reads:
    /// the group key (if any), then each expression's plain column reads
    /// in first-use order. Columns read *only* through [`Expr::Mask`]
    /// indicators follow as soft members — a dense mask reads its source
    /// column in place, so they are materialised when the relation can
    /// resolve them (a mask over an otherwise-untouched column still
    /// lowers) and skipped, not errored, when it cannot: a build-side
    /// dimension column reached through a join's match list takes
    /// [`Self::lower_expr`]'s dedicated gather path instead. Filtered
    /// inputs gather each column through the row ids; join outputs and
    /// bare scans resolve directly.
    fn aggregate_scope<'r>(
        &mut self,
        rel: &'r Rel,
        group_by: Option<&str>,
        aggs: &[(String, AggExpr)],
    ) -> Result<Scope<'r>> {
        let mut needed: Vec<&str> = group_by.into_iter().collect();
        let mut masks: Vec<&str> = Vec::new();
        for e in sums(aggs) {
            e.walk(&mut |e| {
                match e {
                    Expr::Col(n) if !needed.contains(&n.as_str()) => needed.push(n),
                    Expr::Mask(n, ..) if !masks.contains(&n.as_str()) => masks.push(n),
                    _ => {}
                }
                true
            });
        }
        masks.retain(|n| !needed.contains(n));
        let (source, ids) = match rel {
            Rel::Ids { source, ids } => (source.as_ref(), Some(*ids)),
            Rel::Base(_) | Rel::Mat { .. } => (rel, None),
        };
        let required = needed.len();
        let mut cols = Vec::new();
        for (i, name) in needed.iter().chain(&masks).enumerate() {
            let (data, dtype) = match self.rel_ref(source, name) {
                Ok(found) => found,
                Err(_) if i >= required => continue,
                Err(e) => return Err(e),
            };
            let r = match ids {
                Some(ids) => ColRef::Slot(self.emit_gather(data, dtype, ids, short(name))),
                None => data,
            };
            cols.push((name.to_string(), r, dtype));
        }
        Ok(Scope {
            cols,
            join: join_of(rel),
        })
    }

    fn lower_grouped(
        &mut self,
        rel: &Rel,
        key: &str,
        aggs: &[(String, AggExpr)],
    ) -> Result<(usize, Vec<usize>)> {
        let scope = self.aggregate_scope(rel, Some(key), aggs)?;
        let key_ref = scope.cols[0].1.clone();
        let first_f64 = scope
            .cols
            .iter()
            .find(|(_, _, t)| *t == ColType::F64)
            .map(|(_, r, _)| r.clone());
        // Evaluate every aggregate's value column (shared subexpressions
        // lower once), then run one grouped reduction per aggregate.
        let mut ctx = ExprCtx::grouped();
        let mut val_refs = Vec::new();
        for (_, agg) in aggs {
            let v = match agg {
                AggExpr::Sum(e) => match self.lower_agg_expr(e, &scope, &mut ctx)? {
                    Val::Ref(r) => r,
                    Val::Const(c) => self.emit_constant(c, key_ref.clone(), &mut ctx),
                },
                AggExpr::Count => {
                    // COUNT(*) sums a ones column: derived from the first
                    // f64 input via `0·x + 1` when one exists (no fresh
                    // allocation path), otherwise filled to key length.
                    let out = self.new_slot("ones", Self::device(ColType::F64));
                    let how = self.how(DbOperator::Product);
                    match &first_f64 {
                        Some(r) => self.emit(
                            Step::Affine {
                                input: r.clone(),
                                mul: 0.0,
                                add: 1.0,
                                out,
                            },
                            how,
                        ),
                        None => self.emit(
                            Step::ConstantOnes {
                                like: key_ref.clone(),
                                out,
                            },
                            how,
                        ),
                    }
                    ColRef::Slot(out)
                }
            };
            val_refs.push(v);
        }
        let mut pairs = Vec::new();
        for ((name, _), val) in aggs.iter().zip(&val_refs) {
            let out_keys = self.new_slot("group_keys", Self::device(ColType::U32));
            let out_vals = self.new_slot(name, Self::device(ColType::F64));
            let how = self.how(DbOperator::GroupedAggregation);
            self.emit(
                Step::GroupedSum {
                    keys: key_ref.clone(),
                    vals: val.clone(),
                    out_keys,
                    out_vals,
                },
                how,
            );
            pairs.push((out_keys, out_vals));
        }
        // Download the (small) result: keys from the first reduction,
        // then every aggregate column.
        let key_dl = self.new_slot("keys", SlotKind::HostU32);
        self.emit(
            Step::DownloadU32 {
                input: ColRef::Slot(pairs[0].0),
                out: key_dl,
            },
            "device→host".to_string(),
        );
        self.outputs.push(("keys".to_string(), key_dl));
        let mut val_dls = Vec::new();
        for ((name, _), (_, vals)) in aggs.iter().zip(&pairs) {
            let dl = self.new_slot(name, SlotKind::HostF64);
            self.emit(
                Step::DownloadF64 {
                    input: ColRef::Slot(*vals),
                    out: dl,
                },
                "device→host".to_string(),
            );
            self.outputs.push((name.clone(), dl));
            val_dls.push(dl);
        }
        Ok((key_dl, val_dls))
    }

    fn lower_scalar(&mut self, rel: &Rel, aggs: &[(String, AggExpr)]) -> Result<()> {
        let scope = self.aggregate_scope(rel, None, aggs)?;
        let mut ctx = ExprCtx::scalar(shared_subtrees(aggs));
        for (name, agg) in aggs {
            let start = self.slots.len();
            let val = match agg {
                AggExpr::Sum(e) => self.lower_agg_expr(e, &scope, &mut ctx)?,
                // COUNT(*) is SUM(1): a ones column, reduced.
                AggExpr::Count => Val::Const(1.0),
            };
            let val = match val {
                Val::Ref(r) => r,
                Val::Const(c) => {
                    let like = self.row_witness(rel)?;
                    self.emit_constant(c, like, &mut ctx)
                }
            };
            let out = self.new_slot(name, SlotKind::Scalar);
            let how = self.how(DbOperator::Reduction);
            self.emit(Step::Reduce { input: val, out }, how);
            self.outputs.push((name.clone(), out));
            // Eagerly release this aggregate's private intermediates;
            // shared subexpressions stay live for later aggregates.
            for slot in start..self.slots.len() {
                if !ctx.deferred.contains(&slot) {
                    self.free_now(slot);
                }
            }
        }
        Ok(())
    }

    fn lower_expr(&mut self, e: &Expr, scope: &Scope, ctx: &mut ExprCtx) -> Result<Val<ColRef>> {
        match e {
            Expr::Col(name) => scope
                .get(name)
                .map(|r| Val::Ref(r.clone()))
                .ok_or_else(|| unknown(name)),
            Expr::Lit(v) => Ok(Val::Const(*v)),
            Expr::Mask(name, cmp, lit) => {
                if let Some(hit) = ctx.lookup(e) {
                    return Ok(Val::Ref(hit));
                }
                let shared = ctx.shared.contains(e);
                if shared {
                    ctx.defer_depth += 1;
                }
                let result = if let Some(r) = scope.get(name) {
                    let input = r.clone();
                    self.emit_expr_slot(
                        "mask",
                        |out| Step::DenseMask {
                            input,
                            cmp: *cmp,
                            lit: *lit,
                            out,
                        },
                        ctx,
                    )
                } else if let Some(jc) = scope.join {
                    // A build-side base column, reached through the join's
                    // match list: mask the dimension column in place, then
                    // gather the indicator per matched row (Q14's CASE).
                    let (data, _) = self.rel_ref(&jc.build, name)?;
                    let ind = self.emit_expr_slot(
                        "mask",
                        |out| Step::DenseMask {
                            input: data,
                            cmp: *cmp,
                            lit: *lit,
                            out,
                        },
                        ctx,
                    );
                    let right = jc.right_idx;
                    let ColRef::Slot(ind_slot) = ind else {
                        unreachable!("emit_expr_slot returns a slot")
                    };
                    let how = self.how(DbOperator::ScatterGather);
                    let out = self.new_slot(short(name), Self::device(ColType::F64));
                    if ctx.defer_depth > 0 {
                        ctx.deferred.push(out);
                    }
                    self.emit(
                        Step::Gather {
                            data: ColRef::Slot(ind_slot),
                            ids: ColRef::Slot(right),
                            out,
                        },
                        how,
                    );
                    ColRef::Slot(out)
                } else {
                    return Err(unknown(name));
                };
                if shared {
                    ctx.defer_depth -= 1;
                }
                if ctx.cache_all || shared {
                    ctx.cache.push((e.clone(), result.clone()));
                }
                Ok(Val::Ref(result))
            }
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                self.lower_arith(e, a, b, scope, ctx)
            }
        }
    }

    /// Emit an expression-producing step whose output is a fresh f64
    /// device slot, honouring the deferral bookkeeping.
    fn emit_expr_slot(
        &mut self,
        label: &str,
        step: impl FnOnce(usize) -> Step,
        ctx: &mut ExprCtx,
    ) -> ColRef {
        let out = self.new_slot(label, Self::device(ColType::F64));
        if ctx.defer_depth > 0 {
            ctx.deferred.push(out);
        }
        let how = self.how(DbOperator::Product);
        self.emit(step(out), how);
        ColRef::Slot(out)
    }

    /// Lower `whole` = `a ∘ b` through [`fold`], emitting its affine or
    /// product kernel. No eager frees: the plan's free schedule is
    /// decided by the aggregate lowering.
    fn lower_arith(
        &mut self,
        whole: &Expr,
        a: &Expr,
        b: &Expr,
        scope: &Scope,
        ctx: &mut ExprCtx,
    ) -> Result<Val<ColRef>> {
        if let Some(hit) = ctx.lookup(whole) {
            return Ok(Val::Ref(hit));
        }
        let shared = ctx.shared.contains(whole);
        if shared {
            ctx.defer_depth += 1;
        }
        let la = self.lower_expr(a, scope, ctx)?;
        let lb = self.lower_expr(b, scope, ctx)?;
        let result = match fold(whole, la, lb)? {
            Folded::Const(c) => Val::Const(c),
            Folded::Affine { input, mul, add } => Val::Ref(self.emit_affine(input, mul, add, ctx)),
            Folded::Product(x, y) => Val::Ref(self.emit_expr_slot(
                "product",
                |out| Step::Product { a: x, b: y, out },
                ctx,
            )),
        };
        if shared {
            ctx.defer_depth -= 1;
        }
        if let Val::Ref(r) = &result {
            if ctx.cache_all || shared {
                ctx.cache.push((whole.clone(), r.clone()));
            }
        }
        Ok(result)
    }

    fn emit_affine(&mut self, input: ColRef, mul: f64, add: f64, ctx: &mut ExprCtx) -> ColRef {
        self.emit_expr_slot(
            "affine",
            |out| Step::Affine {
                input,
                mul,
                add,
                out,
            },
            ctx,
        )
    }

    /// A column as long as `rel` has rows — what sizes the ones column of
    /// an aggregate that reads no column by name.
    fn row_witness(&self, rel: &Rel) -> Result<ColRef> {
        match rel {
            Rel::Ids { ids, .. } => Some(ColRef::Slot(*ids)),
            Rel::Base(cols) => cols.first().map(|(n, _)| ColRef::Base(n.clone())),
            Rel::Mat { cols, .. } => cols.first().map(|(_, s)| ColRef::Slot(*s)),
        }
        .ok_or_else(|| SimError::Unsupported("aggregate over a relation with no columns".into()))
    }

    /// Materialise the folded constant `c` as a column sized like `like`:
    /// a ones column, scaled unless `c` is 1.
    fn emit_constant(&mut self, c: f64, like: ColRef, ctx: &mut ExprCtx) -> ColRef {
        let ones = self.emit_expr_slot("ones", |out| Step::ConstantOnes { like, out }, ctx);
        if c == 1.0 {
            ones
        } else {
            self.emit_affine(ones, c, 0.0, ctx)
        }
    }
}

/// What the phase-1 fusion probe learned about a subtree.
struct FuseProbe {
    /// The subtree folds to a constant.
    konst: bool,
    /// Per-element kernels the fused form collapses.
    ops: usize,
}

/// A predicate's conjuncts when every one is a literal comparison — the
/// filter shape the fused scalar kernels accept.
fn literal_conjuncts(predicate: &Predicate) -> Option<Vec<(String, CmpOp, f64)>> {
    match predicate {
        Predicate::Cmp(c, op, lit) => Some(vec![(c.clone(), *op, *lit)]),
        Predicate::And(parts) => parts
            .iter()
            .map(|p| match p {
                Predicate::Cmp(c, op, lit) => Some((c.clone(), *op, *lit)),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

/// The value expressions of the `SUM` aggregates, in order.
fn sums(aggs: &[(String, AggExpr)]) -> impl Iterator<Item = &Expr> {
    aggs.iter().filter_map(|(_, a)| match a {
        AggExpr::Sum(e) => Some(e),
        AggExpr::Count => None,
    })
}

/// Composite subtrees (arithmetic or masks) appearing in more than one
/// aggregate expression — these lower once and stay live until plan
/// end.
fn shared_subtrees(aggs: &[(String, AggExpr)]) -> Vec<Expr> {
    let exprs: Vec<&Expr> = sums(aggs).collect();
    let contains = |hay: &Expr, needle: &Expr| {
        let mut found = false;
        hay.walk(&mut |e| {
            found |= e == needle;
            !found
        });
        found
    };
    let mut shared: Vec<Expr> = Vec::new();
    for (i, e) in exprs.iter().enumerate() {
        e.walk(&mut |sub| {
            let composite = !matches!(sub, Expr::Col(_) | Expr::Lit(_));
            if composite
                && !shared.contains(sub)
                && exprs
                    .iter()
                    .enumerate()
                    .any(|(j, f)| j != i && contains(f, sub))
            {
                shared.push(sub.clone());
            }
            true
        });
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Framework;
    use crate::logical::{ColumnDecl, JoinCol};
    use crate::physical::PlanBindings;
    use gpu_sim::DeviceSpec;

    fn fw() -> Framework {
        Framework::with_all_backends(&DeviceSpec::gtx1080())
    }

    #[test]
    fn pushdown_routes_conjuncts_through_projects_and_joins() {
        let build = LogicalPlan::scan("d", vec![ColumnDecl::u32("k"), ColumnDecl::u32("size")]);
        let probe = LogicalPlan::scan("f", vec![ColumnDecl::u32("k"), ColumnDecl::f64("v")])
            .project(&["f.k", "f.v"]);
        let joined = LogicalPlan::join(
            build,
            probe,
            "d.k",
            "f.k",
            vec![JoinCol::probe("val", "f.v")],
        )
        .filter(Predicate::And(vec![
            Predicate::cmp("d.size", CmpOp::Le, 10.0),
            Predicate::cmp("f.v", CmpOp::Gt, 0.0),
        ]));
        let pushed = predicate_pushdown(&joined);
        let LogicalPlan::Join { build, probe, .. } = &pushed else {
            panic!("filter should dissolve into the join: {}", pushed.render());
        };
        assert!(
            matches!(build.as_ref(), LogicalPlan::Filter { .. }),
            "build-side conjunct sinks to the build scan: {}",
            pushed.render()
        );
        let LogicalPlan::Project { input, .. } = probe.as_ref() else {
            panic!("probe project survives: {}", pushed.render());
        };
        assert!(
            matches!(input.as_ref(), LogicalPlan::Filter { .. }),
            "probe-side conjunct sinks below the project: {}",
            pushed.render()
        );
    }

    #[test]
    fn pruning_drops_unused_scan_columns() {
        let plan = LogicalPlan::scan(
            "t",
            vec![
                ColumnDecl::f64("used"),
                ColumnDecl::f64("unused"),
                ColumnDecl::u32("ignored"),
            ],
        )
        .aggregate(None, vec![("s", AggExpr::Sum(Expr::col("t.used")))]);
        let pruned = projection_pruning(&plan);
        let LogicalPlan::Aggregate { input, .. } = &pruned else {
            panic!()
        };
        let LogicalPlan::Scan { columns, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(columns, &vec![ColumnDecl::f64("used")]);
    }

    #[test]
    fn fused_map_collapses_elementwise_chains_in_grouped_plans() {
        let fw = fw();
        let tree = LogicalPlan::scan(
            "t",
            vec![
                ColumnDecl::u32("k"),
                ColumnDecl::f64("price"),
                ColumnDecl::f64("disc"),
            ],
        )
        .aggregate(
            Some("t.k"),
            vec![(
                "net",
                AggExpr::Sum(Expr::col("t.price") * (Expr::lit(1.0) - Expr::col("t.disc"))),
            )],
        );
        for b in fw.backends() {
            let k = b.upload_u32(&[1, 2, 1, 2]).unwrap();
            let price = b.upload_f64(&[100.0, 200.0, 300.0, 400.0]).unwrap();
            let disc = b.upload_f64(&[0.10, 0.25, 0.50, 0.75]).unwrap();
            let mut binds = PlanBindings::new();
            binds
                .bind("t.k", &k)
                .bind("t.price", &price)
                .bind("t.disc", &disc);
            let reference = plan("Ref", &tree, b.as_ref())
                .unwrap()
                .execute(b.as_ref(), &binds)
                .unwrap();
            for threshold in [0, usize::MAX] {
                let opts = PlannerOptions {
                    fusion: FusionPolicy {
                        threshold: Some(threshold),
                    },
                    ..PlannerOptions::default()
                };
                let p = plan_with("FusedMap", &tree, b.as_ref(), &opts).unwrap();
                assert!(
                    p.steps().iter().any(|s| matches!(s, Step::FusedMap { .. })),
                    "{}",
                    p.explain()
                );
                let out = p.execute(b.as_ref(), &binds).unwrap();
                assert_eq!(
                    out.f64s("net").unwrap(),
                    reference.f64s("net").unwrap(),
                    "{} (threshold {threshold})",
                    b.name()
                );
            }
            for c in [k, price, disc] {
                b.free(c).unwrap();
            }
        }
    }
}
