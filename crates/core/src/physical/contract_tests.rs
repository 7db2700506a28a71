//! The step contract: run plans covering every [`Step`] variant one step
//! at a time on all four paper backends and hold each step to its own
//! declaration — every slot [`Step::reads`] names (and a host sort's
//! in-place slots) holds a value before the step, the slots that change
//! are exactly [`Step::writes`], and a [`Step::Free`] clears exactly its
//! slot.

use super::*;
use crate::backends::{make_backend, PAPER_BACKENDS};
use crate::logical::{AggExpr, ColumnDecl, Expr, JoinCol, LogicalPlan, Predicate, ResultOrder};
use crate::ops::CmpOp;
use crate::optimizer::{self, FusionPolicy, PlannerOptions};
use gpu_sim::{Device, DeviceSpec};
use std::collections::BTreeSet;

/// Every label [`Step::label`] returns — one per variant, a join once
/// per algorithm.
const EVERY_LABEL: [&str; 19] = [
    "selection_multi",
    "selection_cmp_cols",
    "gather",
    "affine",
    "product",
    "dense_mask",
    "constant_ones",
    "join[Hash]",
    "join[Merge]",
    "join[NestedLoops]",
    "grouped_sum",
    "reduce",
    "filter_sum_product",
    "fused_map",
    "fused_filter_agg",
    "download_u32",
    "download_f64",
    "host_sort",
    "free",
];

/// Position of `step`'s variant. No wildcard arm: a new variant does not
/// compile until it is listed here (and in [`EVERY_LABEL`]), and then
/// the test fails until some plan below emits it.
fn variant(step: &Step) -> usize {
    match step {
        Step::SelectionMulti { .. } => 0,
        Step::SelectionCmpCols { .. } => 1,
        Step::Gather { .. } => 2,
        Step::Affine { .. } => 3,
        Step::Product { .. } => 4,
        Step::DenseMask { .. } => 5,
        Step::ConstantOnes { .. } => 6,
        Step::Join { .. } => 7,
        Step::GroupedSum { .. } => 8,
        Step::Reduce { .. } => 9,
        Step::FilterSumProduct { .. } => 10,
        Step::FusedMap { .. } => 11,
        Step::FusedFilterAgg { .. } => 12,
        Step::DownloadU32 { .. } => 13,
        Step::DownloadF64 { .. } => 14,
        Step::HostSort { .. } => 15,
        Step::Free { .. } => 16,
    }
}
const VARIANTS: usize = 17;

/// What a slot holds, comparable across a step: a device column by its
/// shape (a step writes only empty slots, so a new column never replaces
/// one), host values by their bits.
#[derive(Debug, PartialEq)]
enum Print {
    Col(ColType, usize),
    Scalar(u64),
    U32s(Vec<u32>),
    F64s(Vec<u64>),
}

fn prints(store: &SlotStore) -> Vec<Option<Print>> {
    store
        .iter()
        .map(|v| {
            v.as_ref().map(|v| match v {
                SlotVal::Col(c) => Print::Col(c.dtype(), c.len()),
                SlotVal::Scalar(x) => Print::Scalar(x.to_bits()),
                SlotVal::U32s(v) => Print::U32s(v.clone()),
                SlotVal::F64s(v) => Print::F64s(v.iter().map(|x| x.to_bits()).collect()),
            })
        })
        .collect()
}

const ROWS: usize = 96;

/// Fact table `t`: group key `k` (5 groups), row number `x`, measures
/// `a` and `b`.
fn t_scan() -> LogicalPlan {
    LogicalPlan::scan(
        "t",
        vec![
            ColumnDecl::u32("k"),
            ColumnDecl::u32("x"),
            ColumnDecl::f64("a"),
            ColumnDecl::f64("b"),
        ],
    )
}

/// `SUM(a * b), … WHERE x < 60 AND a < 0.9`: the Q6 shape when `aggs`
/// is exactly `SUM(a * b)`.
fn q6_shape(aggs: Vec<(&str, AggExpr)>) -> LogicalPlan {
    t_scan()
        .filter(Predicate::And(vec![
            Predicate::cmp("t.x", CmpOp::Lt, 60.0),
            Predicate::cmp("t.a", CmpOp::Lt, 0.9),
        ]))
        .aggregate(None, aggs)
}

/// Join-free logical plans, each with the options it is compiled under.
fn scan_plans() -> Vec<(&'static str, LogicalPlan, PlannerOptions)> {
    let heuristic = PlannerOptions::default;
    let fusion = |threshold| PlannerOptions {
        fusion: FusionPolicy {
            threshold: Some(threshold),
        },
        costing: None,
    };
    let dot = || AggExpr::Sum(Expr::col("t.a") * Expr::col("t.b"));
    let discounted = || Expr::col("t.a") * (Expr::lit(1.0) - Expr::lit(0.5) * Expr::col("t.b"));
    let grouped_fused = || {
        t_scan()
            .filter(Predicate::cmp("t.x", CmpOp::Ge, 10.0))
            .aggregate(Some("t.k"), vec![("v", AggExpr::Sum(discounted()))])
    };
    let fused_scalar = || {
        t_scan()
            .filter(Predicate::cmp("t.x", CmpOp::Lt, 70.0))
            .aggregate(None, vec![("s", AggExpr::Sum(discounted()))])
    };
    vec![
        ("fast path", q6_shape(vec![("s", dot())]), heuristic()),
        (
            "composed",
            q6_shape(vec![("s", dot()), ("a", AggExpr::Sum(Expr::col("t.a")))]),
            heuristic(),
        ),
        ("fused filter-agg", fused_scalar(), fusion(0)),
        ("composed filter-agg", fused_scalar(), fusion(usize::MAX)),
        ("fused map", grouped_fused(), fusion(0)),
        ("composed map", grouped_fused(), fusion(usize::MAX)),
        (
            "count(*)",
            LogicalPlan::scan("t", vec![ColumnDecl::u32("k"), ColumnDecl::u32("x")])
                .filter(Predicate::cmp("t.x", CmpOp::Lt, 50.0))
                .aggregate(Some("t.k"), vec![("c", AggExpr::Count)]),
            heuristic(),
        ),
        (
            "case mask",
            t_scan().aggregate(
                Some("t.k"),
                vec![
                    (
                        "m",
                        AggExpr::Sum(Expr::Mask("t.x".into(), CmpOp::Lt, 30.0) * Expr::col("t.a")),
                    ),
                    ("c", AggExpr::Count),
                ],
            ),
            heuristic(),
        ),
        (
            "column compare",
            t_scan()
                .filter(Predicate::col_cmp("t.a", CmpOp::Lt, "t.b"))
                .aggregate(None, vec![("s", AggExpr::Sum(Expr::col("t.a")))]),
            heuristic(),
        ),
        (
            "top-k",
            grouped_fused().sort_limit(ResultOrder::ValueDescKeyAsc, Some(2)),
            heuristic(),
        ),
        (
            "key-ordered limit",
            grouped_fused().sort_limit(ResultOrder::KeyAsc, Some(3)),
            heuristic(),
        ),
    ]
}

/// `d` (12 rows) joined to `t` on `d.pk = t.k`, plain and EXISTS.
fn join_plans() -> Vec<(&'static str, LogicalPlan)> {
    let dim = || LogicalPlan::scan("d", vec![ColumnDecl::u32("pk"), ColumnDecl::f64("w")]);
    let fact = || LogicalPlan::scan("t", vec![ColumnDecl::u32("k"), ColumnDecl::f64("a")]);
    vec![
        (
            "join",
            LogicalPlan::join(
                dim(),
                fact(),
                "d.pk",
                "t.k",
                vec![JoinCol::probe("m_a", "t.a"), JoinCol::build("m_w", "d.w")],
            )
            .aggregate(
                None,
                vec![("s", AggExpr::Sum(Expr::col("m_a") * Expr::col("m_w")))],
            ),
        ),
        (
            "semi join",
            LogicalPlan::semi_join(
                dim(),
                fact(),
                "d.pk",
                "t.k",
                vec![JoinCol::build("m_w", "d.w")],
            )
            .aggregate(None, vec![("s", AggExpr::Sum(Expr::col("m_w")))]),
        ),
    ]
}

/// Run `plan` one step at a time, holding every step to its
/// declaration; returns the labels executed.
fn run_checked(
    what: &str,
    plan: &PhysicalPlan,
    backend: &dyn GpuBackend,
    binds: &PlanBindings<'_>,
    seen: &mut [bool; VARIANTS],
) -> Vec<&'static str> {
    let ctx = |ix: usize| format!("{what} on {}, step {ix}", backend.name());
    let mut store = plan.new_store();
    let mut labels = Vec::new();
    for (ix, step) in plan.steps().iter().enumerate() {
        let mut read: Vec<usize> = step
            .reads()
            .iter()
            .filter_map(|r| match *r.col {
                ColRef::Slot(s) => Some(s),
                ColRef::Base(_) => None,
            })
            .collect();
        if let Step::HostSort { .. } = step {
            read.extend(step.writes()); // reordered in place
        }
        for s in read {
            assert!(store[s].is_some(), "{}: reads empty slot %{s}", ctx(ix));
        }
        let before = prints(&store);
        plan.exec_step(backend, binds, &mut store, ix)
            .unwrap_or_else(|e| panic!("{}: {e}", ctx(ix)));
        let after = prints(&store);
        let changed: BTreeSet<usize> = (0..store.len())
            .filter(|&s| before[s] != after[s])
            .collect();
        match step {
            Step::Free { slot } => {
                assert_eq!(step.writes().count(), 0, "{}", ctx(ix));
                assert_eq!(changed, BTreeSet::from([*slot]), "{}", ctx(ix));
                assert!(store[*slot].is_none(), "{}", ctx(ix));
            }
            _ => assert_eq!(changed, step.writes().collect(), "{}", ctx(ix)),
        }
        seen[variant(step)] = true;
        labels.push(step.label());
    }
    plan.collect_outputs(&mut store)
        .unwrap_or_else(|e| panic!("{what} on {}: {e}", backend.name()));
    labels
}

#[test]
fn every_step_reads_and_writes_what_it_declares() {
    let k: Vec<u32> = (0..ROWS as u32).map(|i| (i * 7) % 5).collect();
    let x: Vec<u32> = (0..ROWS as u32).collect();
    let a: Vec<f64> = (0..ROWS).map(|i| (i as f64 * 0.37).fract()).collect();
    let b: Vec<f64> = (0..ROWS).map(|i| (i as f64 * 0.61).fract()).collect();
    let pk: Vec<u32> = (0..12).collect();
    let w: Vec<f64> = (0..12).map(|i| 1.0 + i as f64 * 0.25).collect();
    let mut seen = [false; VARIANTS];
    let mut labels = BTreeSet::new();
    for name in PAPER_BACKENDS {
        let boxed = make_backend(name, &Device::new(DeviceSpec::gtx1080()));
        let backend = boxed.as_ref();
        let cols = [
            ("t.k", backend.upload_u32(&k).unwrap()),
            ("t.x", backend.upload_u32(&x).unwrap()),
            ("t.a", backend.upload_f64(&a).unwrap()),
            ("t.b", backend.upload_f64(&b).unwrap()),
            ("d.pk", backend.upload_u32(&pk).unwrap()),
            ("d.w", backend.upload_f64(&w).unwrap()),
        ];
        let mut binds = PlanBindings::new();
        for (n, c) in &cols {
            binds.bind(n, c);
        }
        for (what, logical, opts) in scan_plans() {
            let plan = optimizer::plan_with(what, &logical, backend, &opts)
                .unwrap_or_else(|e| panic!("{what} on {name}: {e}"));
            labels.extend(run_checked(what, &plan, backend, &binds, &mut seen));
        }
        for (what, logical) in join_plans() {
            for algo in optimizer::supported_joins(backend) {
                let plan = optimizer::plan_with_algo(
                    what,
                    &logical,
                    backend,
                    &PlannerOptions::default(),
                    algo,
                )
                .unwrap_or_else(|e| panic!("{what} [{algo:?}] on {name}: {e}"));
                labels.extend(run_checked(what, &plan, backend, &binds, &mut seen));
            }
        }
        for (_, c) in cols {
            backend.free(c).unwrap();
        }
    }
    let missing: Vec<usize> = (0..VARIANTS).filter(|&v| !seen[v]).collect();
    assert!(missing.is_empty(), "variants never exercised: {missing:?}");
    assert_eq!(
        labels,
        EVERY_LABEL.into_iter().collect::<BTreeSet<_>>(),
        "labels seen vs every label"
    );
}
