//! GL7xx — translation validation for the planner: prove every
//! `optimize_traced` / `plan_traced` run semantically equivalent to the
//! logical tree it started from.
//!
//! The validator never trusts the planner. It consumes the rewrite
//! certificates ([`RewriteCert`]) the planner attaches to its
//! [`PassTrace`] and re-establishes each claim independently:
//!
//! 1. **Abstract interpretation** over [`LogicalPlan`] computes
//!    per-node facts — output schema (column set + [`ColType`] dtypes),
//!    sortedness, nullability, and a cardinality interval — and checks
//!    every tree-to-tree rewrite (predicate pushdown, projection
//!    pruning) preserves them: GL701 (schema/order/nullability mismatch,
//!    error), GL702 (dtype change, error), GL703 (disjoint cardinality
//!    intervals, warning).
//! 2. **A decision procedure over the literal-conjunct fragment** of
//!    [`Predicate`] normalises each tree's filter atoms to per-column
//!    intervals (plus opaque atoms for `OR` / column-column shapes) and
//!    proves the rewritten predicate set equivalent: GL704 (error).
//!    Fused lowerings are checked by lifting the [`FusedExpr`] /
//!    [`FusedPred`] program back to [`Expr`] via the certificate's
//!    input bindings and comparing against the logical chain it
//!    replaced with deterministic seeded sampling: GL705 (error).
//! 3. **Logical↔physical conformance**: the [`PhysicalPlan`]'s outputs
//!    must implement the final logical root (aggregate shape, host-sort
//!    order/limit, join-algorithm legality per Table II — GL706,
//!    error). A `Free` before an output's download is GL404's read of a
//!    freed slot, checked on the same plans.
//!
//! Entry point: [`validate_translation`] over a [`PassTrace`] slice and
//! a [`PhysView`] of the compiled plan (build one with
//! [`crate::phys_view`]).

use std::collections::BTreeMap;

use crate::diag::{Diagnostic, Rule};
use crate::physplan::PhysView;
use proto_core::backend::ColType;
use proto_core::fused::{FusedExpr, FusedPred};
use proto_core::logical::{AggExpr, JoinSide, LogicalPlan, ResultOrder};
use proto_core::ops::CmpOp;
use proto_core::optimizer::{PassTrace, RewriteCert};
use proto_core::physical::{ColRef, SlotKind, Step};
use proto_core::plan::{Expr, Predicate};

/// Nominal per-table row count for the cardinality interval lattice.
/// Only *consistency* between the before/after trees matters, so any
/// fixed positive value works.
const NOMINAL_ROWS: u64 = 1000;

/// Sampling rounds for the GL705 fused-lowering equivalence check.
const SAMPLE_ROUNDS: u64 = 16;

// ---------------------------------------------------------------------
// Abstract interpretation over LogicalPlan
// ---------------------------------------------------------------------

/// Per-node facts plus the evidence the predicate procedure needs.
#[derive(Debug, Clone)]
struct Analysis {
    /// Output columns in order, with dtypes.
    schema: Vec<(String, ColType)>,
    /// Row ordering promise at this node: `None` = base row order,
    /// `"key_asc"` / `"value_desc"` = sorted output.
    sorted: Option<&'static str>,
    /// Whether any output column may be null. Always `false` today —
    /// every join is inner/semi — but tracked so a future outer join
    /// cannot silently change it.
    nullable: bool,
    /// Cardinality interval `[lo, hi]` under [`NOMINAL_ROWS`]-row scans.
    rows: (u64, u64),
    /// Visible name → origin (scan-qualified column or `agg:` tag).
    env: BTreeMap<String, String>,
    /// Origin-resolved literal filter conjuncts from the whole tree.
    literals: Vec<(String, CmpOp, f64)>,
    /// Origin-resolved canonical strings of non-literal filter atoms.
    opaque: Vec<String>,
}

/// Recursively compute [`Analysis`] facts; `Err` carries a
/// human-readable reason (always a schema-resolution failure).
fn analyze(plan: &LogicalPlan) -> Result<Analysis, String> {
    match plan {
        LogicalPlan::Scan { table, columns } => {
            let schema: Vec<(String, ColType)> = columns
                .iter()
                .map(|c| (format!("{table}.{}", c.name), c.dtype))
                .collect();
            let env = schema.iter().map(|(n, _)| (n.clone(), n.clone())).collect();
            Ok(Analysis {
                schema,
                sorted: None,
                nullable: false,
                rows: (NOMINAL_ROWS, NOMINAL_ROWS),
                env,
                literals: Vec::new(),
                opaque: Vec::new(),
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut a = analyze(input)?;
            let mut parts = Vec::new();
            flatten_conjuncts(predicate, &mut parts);
            for p in parts {
                match p {
                    Predicate::Cmp(col, op, lit) => {
                        let origin = a
                            .env
                            .get(col)
                            .ok_or_else(|| format!("filter references unknown column `{col}`"))?;
                        a.literals.push((origin.clone(), *op, *lit));
                    }
                    other => a.opaque.push(canon_pred(other, &a.env)?),
                }
            }
            a.rows = (0, a.rows.1);
            Ok(a)
        }
        LogicalPlan::Project { input, columns } => {
            let mut a = analyze(input)?;
            let kept: Vec<(String, ColType)> = columns
                .iter()
                .map(|name| {
                    a.schema
                        .iter()
                        .find(|(n, _)| n == name)
                        .cloned()
                        .ok_or_else(|| format!("projection references unknown column `{name}`"))
                })
                .collect::<Result<_, _>>()?;
            a.env.retain(|k, _| columns.contains(k));
            a.schema = kept;
            Ok(a)
        }
        LogicalPlan::Join {
            build,
            probe,
            build_key,
            probe_key,
            semi_distinct,
            project,
        } => {
            let b = analyze(build)?;
            let p = analyze(probe)?;
            for (key, side) in [(build_key, &b), (probe_key, &p)] {
                if !side.schema.iter().any(|(n, _)| n == key) {
                    return Err(format!("join key `{key}` is not in its side's schema"));
                }
            }
            let mut schema = Vec::new();
            let mut env = BTreeMap::new();
            for jc in project {
                let side = match jc.side {
                    JoinSide::Build => &b,
                    JoinSide::Probe => &p,
                };
                let (_, dtype) = side
                    .schema
                    .iter()
                    .find(|(n, _)| *n == jc.source)
                    .ok_or_else(|| format!("join projects unknown column `{}`", jc.source))?;
                let origin = side.env.get(&jc.source).cloned().unwrap_or_else(|| {
                    jc.source.clone() // unreachable: schema and env stay in sync
                });
                schema.push((jc.output.clone(), *dtype));
                env.insert(jc.output.clone(), origin);
            }
            // Build-side columns stay reachable after the join — the
            // lowering pulls them through the match list (Q14's CASE
            // mask over `part.size`) — so they remain in scope unless
            // shadowed by a projected name.
            for (name, dtype) in &b.schema {
                if !schema.iter().any(|(n, _)| n == name) {
                    schema.push((name.clone(), *dtype));
                    let origin = b.env.get(name).cloned().unwrap_or_else(|| name.clone());
                    env.insert(name.clone(), origin);
                }
            }
            let hi = if *semi_distinct {
                p.rows.1
            } else {
                b.rows.1.saturating_mul(p.rows.1)
            };
            let mut literals = b.literals;
            literals.extend(p.literals);
            let mut opaque = b.opaque;
            opaque.extend(p.opaque);
            Ok(Analysis {
                schema,
                sorted: None,
                nullable: b.nullable || p.nullable,
                rows: (0, hi),
                env,
                literals,
                opaque,
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let a = analyze(input)?;
            for (_, agg) in aggs {
                if let AggExpr::Sum(e) = agg {
                    check_expr_columns(e, &a.schema)?;
                }
            }
            let mut schema = Vec::new();
            let mut env = BTreeMap::new();
            let rows = if let Some(key) = group_by {
                let (_, dtype) = a
                    .schema
                    .iter()
                    .find(|(n, _)| n == key)
                    .ok_or_else(|| format!("group key `{key}` is not in the input schema"))?;
                schema.push((key.clone(), *dtype));
                let origin = a.env.get(key).cloned().unwrap_or_else(|| key.clone());
                env.insert(key.clone(), origin);
                (u64::from(a.rows.0 > 0), a.rows.1)
            } else {
                (1, 1)
            };
            for (name, _) in aggs {
                schema.push((name.clone(), ColType::F64));
                env.insert(name.clone(), format!("agg:{name}"));
            }
            Ok(Analysis {
                schema,
                sorted: Some("key_asc"),
                nullable: a.nullable,
                rows,
                env,
                literals: a.literals,
                opaque: a.opaque,
            })
        }
        LogicalPlan::SortLimit {
            input,
            order,
            limit,
        } => {
            let mut a = analyze(input)?;
            a.sorted = Some(match order {
                ResultOrder::KeyAsc => "key_asc",
                ResultOrder::ValueDescKeyAsc => "value_desc",
            });
            if let Some(n) = limit {
                let n = *n as u64;
                a.rows = (a.rows.0.min(n), a.rows.1.min(n));
            }
            Ok(a)
        }
    }
}

/// Every column an aggregate value expression reads must resolve in the
/// input schema.
fn check_expr_columns(e: &Expr, schema: &[(String, ColType)]) -> Result<(), String> {
    match e {
        Expr::Lit(_) => Ok(()),
        Expr::Col(name) | Expr::Mask(name, ..) => {
            if schema.iter().any(|(n, _)| n == name) {
                Ok(())
            } else {
                Err(format!("aggregate reads unknown column `{name}`"))
            }
        }
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
            check_expr_columns(a, schema)?;
            check_expr_columns(b, schema)
        }
    }
}

/// Flatten nested `AND`s into conjuncts (mirrors the planner's own
/// split so the two sides agree on atom granularity).
fn flatten_conjuncts<'a>(p: &'a Predicate, out: &mut Vec<&'a Predicate>) {
    match p {
        Predicate::And(parts) => {
            for q in parts {
                flatten_conjuncts(q, out);
            }
        }
        other => out.push(other),
    }
}

/// Canonical origin-resolved rendering of a non-literal predicate atom,
/// stable under column renames (join projections) and atom relocation.
fn canon_pred(p: &Predicate, env: &BTreeMap<String, String>) -> Result<String, String> {
    let origin = |col: &str| {
        env.get(col)
            .cloned()
            .ok_or_else(|| format!("predicate references unknown column `{col}`"))
    };
    Ok(match p {
        Predicate::Cmp(c, op, lit) => format!("{} {op:?} {lit}", origin(c)?),
        Predicate::ColCmp(a, op, b) => format!("{} {op:?} {}", origin(a)?, origin(b)?),
        Predicate::And(parts) => {
            let inner: Vec<String> = parts
                .iter()
                .map(|q| canon_pred(q, env))
                .collect::<Result<_, _>>()?;
            format!("({})", inner.join(" AND "))
        }
        Predicate::Or(parts) => {
            let inner: Vec<String> = parts
                .iter()
                .map(|q| canon_pred(q, env))
                .collect::<Result<_, _>>()?;
            format!("({})", inner.join(" OR "))
        }
    })
}

// ---------------------------------------------------------------------
// GL704 — the literal-conjunct decision procedure
// ---------------------------------------------------------------------

/// The solved form of all literal conjuncts on one origin column: an
/// interval with open/closed bounds plus a `!=` exclusion multiset.
/// Conjunction is order-insensitive and idempotent, so duplicated or
/// reordered (but equivalent) predicate sets normalise identically.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ColConstraint {
    lo: u64,
    lo_strict: bool,
    hi: u64,
    hi_strict: bool,
    nes: Vec<u64>,
}

impl ColConstraint {
    fn unconstrained() -> Self {
        ColConstraint {
            lo: f64::NEG_INFINITY.to_bits(),
            lo_strict: false,
            hi: f64::INFINITY.to_bits(),
            hi_strict: false,
            nes: Vec::new(),
        }
    }

    fn apply(&mut self, op: CmpOp, lit: f64) {
        let (lo, hi) = (f64::from_bits(self.lo), f64::from_bits(self.hi));
        match op {
            CmpOp::Lt => {
                if lit < hi {
                    self.hi = lit.to_bits();
                    self.hi_strict = true;
                } else if lit == hi {
                    self.hi_strict = true;
                }
            }
            CmpOp::Le => {
                if lit < hi {
                    self.hi = lit.to_bits();
                    self.hi_strict = false;
                }
            }
            CmpOp::Gt => {
                if lit > lo {
                    self.lo = lit.to_bits();
                    self.lo_strict = true;
                } else if lit == lo {
                    self.lo_strict = true;
                }
            }
            CmpOp::Ge => {
                if lit > lo {
                    self.lo = lit.to_bits();
                    self.lo_strict = false;
                }
            }
            CmpOp::Eq => {
                self.apply(CmpOp::Ge, lit);
                self.apply(CmpOp::Le, lit);
            }
            CmpOp::Ne => {
                self.nes.push(lit.to_bits());
                self.nes.sort_unstable();
            }
        }
    }
}

/// Solve one tree's literal atoms into per-origin constraints.
fn solve_literals(literals: &[(String, CmpOp, f64)]) -> BTreeMap<String, ColConstraint> {
    let mut out: BTreeMap<String, ColConstraint> = BTreeMap::new();
    for (origin, op, lit) in literals {
        out.entry(origin.clone())
            .or_insert_with(ColConstraint::unconstrained)
            .apply(*op, *lit);
    }
    out
}

// ---------------------------------------------------------------------
// GL705 — lifting fused programs back to Expr
// ---------------------------------------------------------------------

/// splitmix64: the deterministic sample stream for GL705.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Evaluate the certificate's logical expression under the sample
/// assignment `vals` (parallel to `binds`). A subtree structurally
/// equal to a binding reads its sample; everything else must decompose
/// down to literals and bound columns.
fn eval_logical(e: &Expr, binds: &[Expr], vals: &[f64]) -> Result<f64, String> {
    if let Some(i) = binds.iter().position(|b| b == e) {
        return Ok(vals[i]);
    }
    match e {
        Expr::Lit(v) => Ok(*v),
        Expr::Add(a, b) => Ok(eval_logical(a, binds, vals)? + eval_logical(b, binds, vals)?),
        Expr::Sub(a, b) => Ok(eval_logical(a, binds, vals)? - eval_logical(b, binds, vals)?),
        Expr::Mul(a, b) => Ok(eval_logical(a, binds, vals)? * eval_logical(b, binds, vals)?),
        Expr::Mask(name, cmp, lit) => {
            let col = Expr::Col(name.clone());
            let i = binds
                .iter()
                .position(|b| *b == col)
                .ok_or_else(|| format!("mask column `{name}` is not a fused input binding"))?;
            Ok(f64::from(cmp.eval(vals[i], *lit)))
        }
        Expr::Col(name) => Err(format!("column `{name}` is not a fused input binding")),
    }
}

/// Every comparison literal in a logical expression (mask thresholds) —
/// the sampling pool straddles them so wrong thresholds are caught.
fn expr_literals(e: &Expr, out: &mut Vec<f64>) {
    match e {
        Expr::Lit(_) | Expr::Col(_) => {}
        Expr::Mask(_, _, lit) => out.push(*lit),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
            expr_literals(a, out);
            expr_literals(b, out);
        }
    }
}

/// Same, over the fused program.
fn fused_literals(e: &FusedExpr, out: &mut Vec<f64>) {
    match e {
        FusedExpr::Col(_) => {}
        FusedExpr::Affine { input, .. } => fused_literals(input, out),
        FusedExpr::Mul(a, b) => {
            fused_literals(a, out);
            fused_literals(b, out);
        }
        FusedExpr::Mask { input, lit, .. } => {
            out.push(*lit);
            fused_literals(input, out);
        }
    }
}

/// One fused step in lift-ready form.
struct FusedSite<'a> {
    step_idx: usize,
    inputs: Vec<ColRef>,
    preds: Vec<FusedPred>,
    expr: FusedExpr,
    kind: &'a str,
}

/// Check one fused step against its certificate. Returns diagnostics
/// (empty when the lowering is proven equivalent).
fn check_fused_site(site: &FusedSite<'_>, cert: &RewriteCert) -> Vec<Diagnostic> {
    let RewriteCert::FusedLowering {
        bindings,
        preds: cert_preds,
        expr: cert_expr,
        ..
    } = cert
    else {
        return vec![Diagnostic::new(
            Rule::FusedLoweringMismatch,
            vec![site.step_idx],
            format!(
                "{} step #{} is paired with a non-fused certificate {:?}",
                site.kind,
                site.step_idx,
                cert.rule()
            ),
        )];
    };
    let mut out = Vec::new();
    if bindings.len() != site.inputs.len() {
        out.push(Diagnostic::new(
            Rule::FusedLoweringMismatch,
            vec![site.step_idx],
            format!(
                "{} step #{} has {} inputs but its certificate binds {}",
                site.kind,
                site.step_idx,
                site.inputs.len(),
                bindings.len()
            ),
        ));
        return out;
    }
    // Base-column inputs must bind to exactly that column by name; slot
    // inputs carry the certificate's binding as the witness.
    for (i, r) in site.inputs.iter().enumerate() {
        if let ColRef::Base(name) = r {
            if bindings[i] != Expr::Col(name.clone()) {
                out.push(Diagnostic::new(
                    Rule::FusedLoweringMismatch,
                    vec![site.step_idx],
                    format!(
                        "{} step #{} input {i} reads base column `{name}` but its \
                         certificate binds `{}`",
                        site.kind, site.step_idx, bindings[i]
                    ),
                ));
            }
        }
    }
    // Predicates: lift each fused predicate through its input binding
    // and compare the multiset against the certificate's conjuncts.
    let mut lifted: Vec<(String, CmpOp, u64)> = Vec::new();
    for p in &site.preds {
        let Some(bind) = bindings.get(p.input) else {
            out.push(Diagnostic::new(
                Rule::FusedLoweringMismatch,
                vec![site.step_idx],
                format!(
                    "{} step #{} predicate reads input {} beyond the binding table",
                    site.kind, site.step_idx, p.input
                ),
            ));
            continue;
        };
        let Expr::Col(name) = bind else {
            out.push(Diagnostic::new(
                Rule::FusedLoweringMismatch,
                vec![site.step_idx],
                format!(
                    "{} step #{} predicate input {} binds to non-column `{bind}`",
                    site.kind, site.step_idx, p.input
                ),
            ));
            continue;
        };
        lifted.push((name.clone(), p.cmp, p.lit.to_bits()));
    }
    let mut expect: Vec<(String, CmpOp, u64)> = cert_preds
        .iter()
        .map(|(c, op, lit)| (c.clone(), *op, lit.to_bits()))
        .collect();
    lifted
        .sort_by(|a, b| (&a.0, format!("{:?}", a.1), a.2).cmp(&(&b.0, format!("{:?}", b.1), b.2)));
    expect
        .sort_by(|a, b| (&a.0, format!("{:?}", a.1), a.2).cmp(&(&b.0, format!("{:?}", b.1), b.2)));
    if lifted != expect {
        out.push(Diagnostic::new(
            Rule::FusedLoweringMismatch,
            vec![site.step_idx],
            format!(
                "{} step #{} predicates {:?} do not match the logical conjuncts {:?}",
                site.kind,
                site.step_idx,
                lifted
                    .iter()
                    .map(|(c, op, l)| format!("{c} {op:?} {}", f64::from_bits(*l)))
                    .collect::<Vec<_>>(),
                expect
                    .iter()
                    .map(|(c, op, l)| format!("{c} {op:?} {}", f64::from_bits(*l)))
                    .collect::<Vec<_>>(),
            ),
        ));
    }
    // Value expression: seeded sampling through both evaluators. The
    // pool straddles every mask threshold on either side so a wrong
    // comparison constant or operator flips at least one round.
    let mut pool = Vec::new();
    expr_literals(cert_expr, &mut pool);
    fused_literals(&site.expr, &mut pool);
    let boundaries: Vec<f64> = pool
        .iter()
        .flat_map(|l| [*l - 0.5, *l, *l + 0.5])
        .filter(|v| v.is_finite())
        .collect();
    for round in 0..SAMPLE_ROUNDS {
        let vals: Vec<f64> = (0..bindings.len())
            .map(|i| {
                let h = mix(round.wrapping_mul(0x1000).wrapping_add(i as u64));
                let pick = (h as usize) % (boundaries.len() + 1);
                if pick < boundaries.len() {
                    boundaries[pick]
                } else {
                    0.5 + (mix(h) % 1000) as f64 / 250.0
                }
            })
            .collect();
        let want = match eval_logical(cert_expr, bindings, &vals) {
            Ok(v) => v,
            Err(why) => {
                out.push(Diagnostic::new(
                    Rule::FusedLoweringMismatch,
                    vec![site.step_idx],
                    format!(
                        "{} step #{} certificate cannot be lifted: {why}",
                        site.kind, site.step_idx
                    ),
                ));
                return out;
            }
        };
        let got = site.expr.eval_row(&|i| vals[i]);
        let equal = want == got || (want.is_nan() && got.is_nan());
        if !equal {
            out.push(Diagnostic::new(
                Rule::FusedLoweringMismatch,
                vec![site.step_idx],
                format!(
                    "{} step #{} computes {got} where the logical chain `{cert_expr}` \
                     computes {want} (sample round {round}, inputs {vals:?})",
                    site.kind, site.step_idx
                ),
            ));
            return out;
        }
    }
    out
}

// ---------------------------------------------------------------------
// The validator
// ---------------------------------------------------------------------

/// Run every GL7xx check over a planner trace and the compiled plan's
/// [`PhysView`]. Diagnostics come back in check order: tree rewrites
/// (GL701–704), fused lowerings (GL705), physical conformance
/// (GL706).
pub(crate) fn validate_translation(traces: &[PassTrace], view: &PhysView) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut final_plan: Option<&LogicalPlan> = None;

    for (idx, t) in traces.iter().enumerate() {
        let Some(RewriteCert::Rewrite {
            rule,
            before,
            after,
        }) = &t.cert
        else {
            continue;
        };
        final_plan = Some(after);
        let (a, b) = match (analyze(before), analyze(after)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(why), _) | (_, Err(why)) => {
                diags.push(Diagnostic::new(
                    Rule::TranslationSchemaMismatch,
                    vec![idx],
                    format!("{rule}: cannot interpret rewrite certificate: {why}"),
                ));
                continue;
            }
        };
        check_rewrite(rule, idx, &a, &b, &mut diags);
    }

    let fused_certs: Vec<(usize, &RewriteCert)> = traces
        .iter()
        .enumerate()
        .filter(|(_, t)| t.pass == "fused_lowering")
        .filter_map(|(i, t)| t.cert.as_ref().map(|c| (i, c)))
        .collect();
    check_fused(view, &fused_certs, &mut diags);

    match final_plan {
        Some(plan) => check_conformance(plan, view, traces, &mut diags),
        None => diags.push(Diagnostic::new(
            Rule::TranslationSchemaMismatch,
            vec![],
            "trace carries no rewrite certificates; the translation cannot be validated",
        )),
    }
    diags
}

/// GL701/702/703/704 over one certified tree-to-tree rewrite.
fn check_rewrite(rule: &str, idx: usize, a: &Analysis, b: &Analysis, diags: &mut Vec<Diagnostic>) {
    let names_a: Vec<&String> = a.schema.iter().map(|(n, _)| n).collect();
    let names_b: Vec<&String> = b.schema.iter().map(|(n, _)| n).collect();
    if names_a != names_b {
        diags.push(Diagnostic::new(
            Rule::TranslationSchemaMismatch,
            vec![idx],
            format!("{rule}: output columns changed from {names_a:?} to {names_b:?}"),
        ));
    } else {
        for ((name, ta), (_, tb)) in a.schema.iter().zip(&b.schema) {
            if ta != tb {
                diags.push(Diagnostic::new(
                    Rule::TranslationDtypeChange,
                    vec![idx],
                    format!("{rule}: column `{name}` changed dtype {ta:?} → {tb:?}"),
                ));
            }
        }
    }
    if a.sorted != b.sorted || a.nullable != b.nullable {
        diags.push(Diagnostic::new(
            Rule::TranslationSchemaMismatch,
            vec![idx],
            format!(
                "{rule}: root facts changed: sorted {:?} → {:?}, nullable {} → {}",
                a.sorted, b.sorted, a.nullable, b.nullable
            ),
        ));
    }
    if b.rows.1 < a.rows.0 || a.rows.1 < b.rows.0 {
        diags.push(Diagnostic::new(
            Rule::TranslationCardinalityViolation,
            vec![idx],
            format!(
                "{rule}: cardinality interval moved from [{}, {}] to the disjoint [{}, {}]",
                a.rows.0, a.rows.1, b.rows.0, b.rows.1
            ),
        ));
    }
    let sa = solve_literals(&a.literals);
    let sb = solve_literals(&b.literals);
    if sa != sb {
        let cols: Vec<&String> = sa
            .iter()
            .filter(|(k, v)| sb.get(*k) != Some(v))
            .map(|(k, _)| k)
            .chain(sb.keys().filter(|k| !sa.contains_key(*k)))
            .collect();
        diags.push(Diagnostic::new(
            Rule::PredicateNotImplied,
            vec![idx],
            format!("{rule}: predicate constraints changed on column(s) {cols:?}"),
        ));
    }
    let mut oa = a.opaque.clone();
    let mut ob = b.opaque.clone();
    oa.sort();
    ob.sort();
    if oa != ob {
        diags.push(Diagnostic::new(
            Rule::PredicateNotImplied,
            vec![idx],
            format!("{rule}: non-literal predicate atoms changed from {oa:?} to {ob:?}"),
        ));
    }
}

/// GL705: pair fused steps with their certificates in emission order
/// and check each lowering.
fn check_fused(view: &PhysView, certs: &[(usize, &RewriteCert)], diags: &mut Vec<Diagnostic>) {
    let sites: Vec<FusedSite<'_>> = view
        .steps
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            Step::FusedFilterAgg {
                inputs,
                preds,
                expr,
                ..
            } => Some(FusedSite {
                step_idx: i,
                inputs: inputs.clone(),
                preds: preds.clone(),
                expr: expr.clone(),
                kind: "fused_filter_agg",
            }),
            Step::FusedMap { inputs, expr, .. } => Some(FusedSite {
                step_idx: i,
                inputs: inputs.clone(),
                preds: Vec::new(),
                expr: expr.clone(),
                kind: "fused_map",
            }),
            Step::FilterSumProduct { a, b, preds, .. } => Some(FusedSite {
                step_idx: i,
                inputs: [a.clone(), b.clone()]
                    .into_iter()
                    .chain(preds.iter().map(|p| p.col.clone()))
                    .collect(),
                preds: preds
                    .iter()
                    .enumerate()
                    .map(|(j, p)| FusedPred {
                        // Each filter column enters as a synthetic extra
                        // input after the two factors.
                        input: 2 + j,
                        cmp: p.cmp,
                        lit: p.lit,
                    })
                    .collect(),
                expr: FusedExpr::Mul(Box::new(FusedExpr::Col(0)), Box::new(FusedExpr::Col(1))),
                kind: "filter_sum_product",
            }),
            _ => None,
        })
        .collect();
    if sites.len() != certs.len() {
        diags.push(Diagnostic::new(
            Rule::FusedLoweringMismatch,
            sites.iter().map(|s| s.step_idx).collect(),
            format!(
                "plan has {} fused step(s) but the trace certifies {}",
                sites.len(),
                certs.len()
            ),
        ));
        return;
    }
    for (site, (_, cert)) in sites.iter().zip(certs) {
        // FilterSumProduct predicates reference columns directly, not
        // the input table — extend the synthetic bindings to match.
        if site.kind == "filter_sum_product" {
            if let (
                Step::FilterSumProduct { preds, .. },
                RewriteCert::FusedLowering {
                    rule,
                    bindings,
                    preds: cert_preds,
                    expr,
                },
            ) = (&view.steps[site.step_idx], cert)
            {
                let mut bindings = bindings.clone();
                for p in preds {
                    bindings.push(match &p.col {
                        ColRef::Base(name) => Expr::Col(name.clone()),
                        ColRef::Slot(s) => Expr::Col(format!("%{s}")),
                    });
                }
                let extended = RewriteCert::FusedLowering {
                    rule,
                    bindings,
                    preds: cert_preds.clone(),
                    expr: expr.clone(),
                };
                diags.extend(check_fused_site(site, &extended));
                continue;
            }
        }
        diags.extend(check_fused_site(site, cert));
    }
}

/// GL706: the physical plan's outputs, host sort and join algorithm
/// must implement the final logical tree.
fn check_conformance(
    final_plan: &LogicalPlan,
    view: &PhysView,
    traces: &[PassTrace],
    diags: &mut Vec<Diagnostic>,
) {
    // --- join algorithm legality (Table II) -------------------------
    let join_steps: Vec<usize> = view
        .steps
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Step::Join { .. }))
        .map(|(i, _)| i)
        .collect();
    if final_plan.contains_join() == join_steps.is_empty() {
        diags.push(Diagnostic::new(
            Rule::PlanShapeNonconforming,
            join_steps.clone(),
            format!(
                "logical tree {} joins but the plan has {} join step(s)",
                if final_plan.contains_join() {
                    "contains"
                } else {
                    "contains no"
                },
                join_steps.len()
            ),
        ));
    }
    match view.join_algo {
        Some(algo) => {
            if !view.supported.contains(&algo) {
                diags.push(Diagnostic::new(
                    Rule::PlanShapeNonconforming,
                    join_steps.clone(),
                    format!(
                        "plan joins with {algo:?} but {} only supports {:?} (Table II)",
                        view.backend, view.supported
                    ),
                ));
            }
            for i in &join_steps {
                if let Step::Join { algo: a, .. } = &view.steps[*i] {
                    if *a != algo {
                        diags.push(Diagnostic::new(
                            Rule::PlanShapeNonconforming,
                            vec![*i],
                            format!("join step #{i} uses {a:?} but the plan selected {algo:?}"),
                        ));
                    }
                }
            }
        }
        None => {
            if !join_steps.is_empty() {
                diags.push(Diagnostic::new(
                    Rule::PlanShapeNonconforming,
                    join_steps.clone(),
                    "plan has join steps but no selected join algorithm",
                ));
            }
        }
    }
    for t in traces {
        if let Some(RewriteCert::JoinSelection {
            algo, supported, ..
        }) = &t.cert
        {
            if Some(*algo) != view.join_algo {
                diags.push(Diagnostic::new(
                    Rule::PlanShapeNonconforming,
                    join_steps.clone(),
                    format!(
                        "join-selection certificate chose {algo:?} but the plan carries {:?}",
                        view.join_algo
                    ),
                ));
            }
            if !supported.contains(algo) {
                diags.push(Diagnostic::new(
                    Rule::PlanShapeNonconforming,
                    join_steps.clone(),
                    format!(
                        "join-selection certificate chose {algo:?} outside its own \
                         supported set {supported:?}"
                    ),
                ));
            }
        }
    }

    // --- root aggregate shape ---------------------------------------
    let (agg_node, order) = match final_plan {
        LogicalPlan::SortLimit {
            input,
            order,
            limit,
        } => (input.as_ref(), Some((*order, *limit))),
        other => (other, None),
    };
    let LogicalPlan::Aggregate { group_by, aggs, .. } = agg_node else {
        diags.push(Diagnostic::new(
            Rule::PlanShapeNonconforming,
            vec![],
            "final logical tree does not end in an aggregate",
        ));
        return;
    };
    let kind_of = |slot: usize| view.slots.get(slot).map(|m| m.kind);
    let mut expect: Vec<(String, SlotKind)> = Vec::new();
    if group_by.is_some() {
        expect.push(("keys".to_string(), SlotKind::HostU32));
        for (name, _) in aggs {
            expect.push((name.clone(), SlotKind::HostF64));
        }
    } else {
        for (name, _) in aggs {
            expect.push((name.clone(), SlotKind::Scalar));
        }
    }
    let got: Vec<(String, Option<SlotKind>)> = view
        .outputs
        .iter()
        .map(|(n, s)| (n.clone(), kind_of(*s)))
        .collect();
    let conforms = got.len() == expect.len()
        && got
            .iter()
            .zip(&expect)
            .all(|((gn, gk), (en, ek))| gn == en && *gk == Some(*ek));
    if !conforms {
        diags.push(Diagnostic::new(
            Rule::PlanShapeNonconforming,
            vec![],
            format!(
                "plan outputs {:?} do not implement the aggregate shape {:?}",
                got.iter()
                    .map(|(n, k)| format!("{n}:{k:?}"))
                    .collect::<Vec<_>>(),
                expect
                    .iter()
                    .map(|(n, k)| format!("{n}:{k:?}"))
                    .collect::<Vec<_>>(),
            ),
        ));
    }

    // --- host sort / limit ------------------------------------------
    let sorts: Vec<usize> = view
        .steps
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Step::HostSort { .. }))
        .map(|(i, _)| i)
        .collect();
    match order {
        Some((want_order, want_limit)) => {
            let ok = sorts.len() == 1
                && matches!(
                    &view.steps[sorts[0]],
                    Step::HostSort { order, limit, .. }
                        if *order == want_order && *limit == want_limit
                );
            if !ok {
                diags.push(Diagnostic::new(
                    Rule::PlanShapeNonconforming,
                    sorts.clone(),
                    format!(
                        "logical tree ends in sort/limit ({want_order:?}, {want_limit:?}) \
                         but the plan's host sorts do not match"
                    ),
                ));
            }
        }
        None => {
            if !sorts.is_empty() {
                diags.push(Diagnostic::new(
                    Rule::PlanShapeNonconforming,
                    sorts.clone(),
                    "plan host-sorts results but the logical tree has no sort/limit",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proto_core::logical::ColumnDecl;

    fn scan() -> LogicalPlan {
        LogicalPlan::scan(
            "t",
            vec![
                ColumnDecl::u32("k"),
                ColumnDecl::f64("a"),
                ColumnDecl::f64("b"),
            ],
        )
    }

    #[test]
    fn literal_solver_is_order_insensitive_and_idempotent() {
        let a = solve_literals(&[
            ("t.a".into(), CmpOp::Ge, 1.0),
            ("t.a".into(), CmpOp::Lt, 5.0),
            ("t.a".into(), CmpOp::Ge, 1.0),
        ]);
        let b = solve_literals(&[
            ("t.a".into(), CmpOp::Lt, 5.0),
            ("t.a".into(), CmpOp::Ge, 1.0),
        ]);
        assert_eq!(a, b);
        let widened = solve_literals(&[("t.a".into(), CmpOp::Ge, 1.0)]);
        assert_ne!(a, widened);
        let strict = solve_literals(&[
            ("t.a".into(), CmpOp::Ge, 1.0),
            ("t.a".into(), CmpOp::Le, 5.0),
        ]);
        assert_ne!(a, strict, "Lt and Le at the same bound must differ");
    }

    #[test]
    fn analysis_resolves_schema_and_rows() {
        let plan = scan()
            .filter(Predicate::cmp("t.a", CmpOp::Gt, 2.0))
            .aggregate(Some("t.k"), vec![("s", AggExpr::Sum(Expr::col("t.a")))]);
        let a = analyze(&plan).expect("analyzable");
        assert_eq!(
            a.schema,
            vec![
                ("t.k".to_string(), ColType::U32),
                ("s".to_string(), ColType::F64)
            ]
        );
        assert_eq!(
            a.rows,
            (0, NOMINAL_ROWS),
            "filtered input floors at 0 groups"
        );
        assert_eq!(a.sorted, Some("key_asc"));
        assert_eq!(a.literals, vec![("t.a".to_string(), CmpOp::Gt, 2.0)]);
    }

    #[test]
    fn eval_logical_lifts_masks_through_bindings() {
        let binds = vec![Expr::col("t.a")];
        let e = Expr::Mask("t.a".into(), CmpOp::Gt, 2.0) * Expr::lit(3.0);
        assert_eq!(eval_logical(&e, &binds, &[5.0]).unwrap(), 3.0);
        assert_eq!(eval_logical(&e, &binds, &[1.0]).unwrap(), 0.0);
        assert!(eval_logical(&Expr::col("t.z"), &binds, &[0.0]).is_err());
    }
}
