//! Golden tests for the optimizer pipeline.
//!
//! The pass-by-pass logical renders and the final per-backend
//! `explain()` listings for Q1 and Q6 are snapshotted under
//! `tests/golden/`. A diff here means the planner changed behaviour —
//! regenerate with `UPDATE_GOLDEN=1 cargo test -p tpch --test
//! optimizer_golden` only after the per-query trace-equality tests
//! still pass.

use gpu_sim::DeviceSpec;
use proto_core::optimizer::{self, CostingOptions, PlannerOptions};
use proto_core::prelude::*;
use tpch::queries::{q1, q3, q6};

/// Build the full golden document: every pass trace for both queries,
/// then the three physical listings (Q1, Q6 on the fast path, Q6 under
/// general fusion).
fn snapshot() -> String {
    let mut doc = String::new();
    for (q, plan) in [("Q1", q1::logical_plan()), ("Q6", q6::logical_plan())] {
        let (_, traces) = optimizer::optimize_traced(&plan);
        for t in &traces {
            doc.push_str(&format!("==== {q} after {} ====\n{}\n", t.pass, t.plan));
        }
    }
    let fw = Framework::single_backend(&DeviceSpec::gtx1080(), "Thrust");
    let b = fw.as_ref();
    let q1_plan = optimizer::plan("Q1", &q1::logical_plan(), b).unwrap();
    doc.push_str(&format!("==== Q1 explain ====\n{}\n", q1_plan.explain()));
    let q6_fused = optimizer::plan("Q6", &q6::logical_plan(), b).unwrap();
    doc.push_str(&format!(
        "==== Q6 explain fused ====\n{}\n",
        q6_fused.explain()
    ));
    let opts = PlannerOptions {
        fusion: FusionPolicy::on(),
        ..PlannerOptions::default()
    };
    let q6_general = optimizer::plan_with("Q6", &q6::logical_plan(), b, &opts).unwrap();
    doc.push_str(&format!(
        "==== Q6 explain general fusion ====\n{}",
        q6_general.explain()
    ));
    doc
}

#[test]
fn pass_traces_and_explains_match_the_golden_file() {
    let got = snapshot();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/optimizer.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file; UPDATE_GOLDEN=1 to create");
    assert_eq!(
        got, want,
        "planner output drifted from tests/golden/optimizer.txt"
    );
}

/// Render every `plan_traced` trace entry as `pass: note` — the full
/// decision-note stream, covering a
/// join-selection decision (Q3 heuristic), both fused-lowering shapes
/// (Q6 heuristic fast path, Q6 general fusion), and a costed
/// fused-vs-composed dispatch (Q6 costing).
fn traced_snapshot() -> String {
    let fw = Framework::single_backend(&DeviceSpec::gtx1080(), "Thrust");
    let b = fw.as_ref();
    let mut doc = String::new();
    let cases: [(&str, &str, LogicalPlan, PlannerOptions); 4] = [
        (
            "Q3 heuristic",
            "Q3",
            q3::logical_plan(),
            PlannerOptions::default(),
        ),
        (
            "Q6 heuristic",
            "Q6",
            q6::logical_plan(),
            PlannerOptions::default(),
        ),
        (
            "Q6 fusion",
            "Q6",
            q6::logical_plan(),
            PlannerOptions {
                fusion: FusionPolicy::on(),
                ..PlannerOptions::default()
            },
        ),
        (
            "Q6 costing",
            "Q6",
            q6::logical_plan(),
            PlannerOptions {
                costing: Some(CostingOptions::new(
                    &DeviceSpec::gtx1080(),
                    TableStats::new(),
                )),
                ..PlannerOptions::default()
            },
        ),
    ];
    for (title, q, plan, opts) in &cases {
        let (_, traces) = optimizer::plan_traced(q, plan, b, opts).unwrap();
        doc.push_str(&format!("==== {title} ====\n"));
        for t in &traces {
            match &t.note {
                Some(note) => doc.push_str(&format!("{}: {note}\n", t.pass)),
                None => doc.push_str(&format!("{}\n", t.pass)),
            }
        }
    }
    doc
}

#[test]
fn trace_notes_match_the_golden_trace_file() {
    let got = traced_snapshot();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/optimizer_traced.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file; UPDATE_GOLDEN=1 to create");
    assert_eq!(
        got, want,
        "trace notes drifted from tests/golden/optimizer_traced.txt"
    );
}

#[test]
fn q1_and_q6_are_fixpoints_of_the_rewrite_passes() {
    // Both queries declare their filters directly above the scans and
    // touch every scanned column, so pushdown and pruning must be
    // identities — the golden file shows three identical renders per
    // query. Guard that structurally too.
    for plan in [q1::logical_plan(), q6::logical_plan()] {
        let (_, traces) = optimizer::optimize_traced(&plan);
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].pass, "initial");
        assert_eq!(traces[1].pass, "predicate_pushdown");
        assert_eq!(traces[2].pass, "projection_pruning");
        assert_eq!(traces[0].plan, traces[1].plan);
        assert_eq!(traces[1].plan, traces[2].plan);
    }
}

#[test]
fn the_fast_path_and_general_fusion_q6_listings_differ_only_in_strategy() {
    let fw = Framework::single_backend(&DeviceSpec::gtx1080(), "Thrust");
    let b = fw.as_ref();
    let fast = optimizer::plan("Q6", &q6::logical_plan(), b).unwrap();
    let opts = PlannerOptions {
        fusion: FusionPolicy::on(),
        ..PlannerOptions::default()
    };
    let general = optimizer::plan_with("Q6", &q6::logical_plan(), b, &opts).unwrap();
    for plan in [&fast, &general] {
        assert!(plan.explain().contains("fast paths: on"));
        assert_eq!(plan.steps().len(), 1, "{}", plan.explain());
    }
    assert!(fast.explain().contains("filter_sum_product"));
    assert!(!general.explain().contains("filter_sum_product"));
    assert!(general.explain().contains("fused_filter_agg"));
}

/// No TPC-H query writes a filter above a join, so this is the one input
/// that routes conjuncts through pushdown at a join: a build-side-only
/// and a probe-side-only conjunct each sink into its own side, leaving
/// nothing between the aggregate and the join.
#[test]
fn single_side_filters_above_a_join_sink_into_their_inputs() {
    let customer = LogicalPlan::scan(
        "customer",
        vec![ColumnDecl::u32("mktsegment"), ColumnDecl::u32("custkey")],
    );
    let orders = LogicalPlan::scan(
        "orders",
        vec![ColumnDecl::u32("custkey"), ColumnDecl::f64("totalprice")],
    );
    let plan = LogicalPlan::join(
        customer,
        orders,
        "customer.custkey",
        "orders.custkey",
        vec![JoinCol::probe("price", "orders.totalprice")],
    )
    .filter(Predicate::And(vec![
        Predicate::cmp("customer.mktsegment", CmpOp::Eq, 1.0),
        Predicate::cmp("orders.totalprice", CmpOp::Gt, 100.0),
    ]))
    .aggregate(None, vec![("total", AggExpr::Sum(Expr::col("price")))]);
    let optimized = optimizer::optimize(&plan);
    let LogicalPlan::Aggregate { input, .. } = &optimized else {
        panic!("the root stays an aggregate: {}", optimized.render());
    };
    let LogicalPlan::Join { build, probe, .. } = input.as_ref() else {
        panic!("a filter stayed above the join: {}", optimized.render());
    };
    assert!(
        build.render().contains("Filter customer.mktsegment Eq 1"),
        "{}",
        optimized.render()
    );
    assert!(
        probe.render().contains("Filter orders.totalprice Gt 100"),
        "{}",
        optimized.render()
    );
}
