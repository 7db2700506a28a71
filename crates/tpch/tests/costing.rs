//! Property and golden tests for the cost-based planner on the TPC-H
//! queries.
//!
//! * Property: for every (query, SF, backend) cell the costed plan's
//!   simulated wall time never exceeds the heuristic plan's — the
//!   optimizer may only ever pay off.
//! * Bit-equality: costing is a pure perf knob; costed and heuristic
//!   plans return identical answers down to the f64 bit pattern.
//! * Golden: the `CostReport` rendering (and the cost-annotated
//!   `explain()` listing) is snapshotted under `tests/golden/`.
//!   Regenerate with `UPDATE_GOLDEN=1 cargo test -p tpch --test costing`.

use gpu_sim::DeviceSpec;
use proto_core::optimizer::{self, FusionPolicy, PlannerOptions};
use proto_core::prelude::*;
use tpch::queries::{q1, q6};
use tpch::Database;

/// The four paper backends.
const BACKENDS: [&str; 4] = ["Thrust", "Boost.Compute", "ArrayFire", "Handwritten"];

/// Bind the lineitem columns each query touches. Uploads every column
/// either query needs; unused bindings are ignored by `execute`.
struct LineitemCols {
    shipdate: Col,
    groupkey: Col,
    quantity: Col,
    extendedprice: Col,
    discount: Col,
    tax: Col,
}

impl LineitemCols {
    fn upload(backend: &dyn GpuBackend, db: &Database) -> LineitemCols {
        let li = &db.lineitem;
        let keys: Vec<u32> = li
            .returnflag
            .iter()
            .zip(&li.linestatus)
            .map(|(&rf, &ls)| (rf << 8) | ls)
            .collect();
        LineitemCols {
            shipdate: backend.upload_u32(&li.shipdate).unwrap(),
            groupkey: backend.upload_u32(&keys).unwrap(),
            quantity: backend.upload_f64(&li.quantity).unwrap(),
            extendedprice: backend.upload_f64(&li.extendedprice).unwrap(),
            discount: backend.upload_f64(&li.discount).unwrap(),
            tax: backend.upload_f64(&li.tax).unwrap(),
        }
    }

    fn bindings(&self) -> PlanBindings<'_> {
        let mut binds = PlanBindings::new();
        binds
            .bind("lineitem.shipdate", &self.shipdate)
            .bind("lineitem.groupkey", &self.groupkey)
            .bind("lineitem.quantity", &self.quantity)
            .bind("lineitem.extendedprice", &self.extendedprice)
            .bind("lineitem.discount", &self.discount)
            .bind("lineitem.tax", &self.tax);
        binds
    }
}

fn heuristic_opts() -> PlannerOptions {
    PlannerOptions::default()
}

fn costed_opts(rows: usize) -> PlannerOptions {
    let stats = TableStats::new().with_rows("lineitem", rows);
    PlannerOptions {
        costing: Some(CostingOptions::new(&DeviceSpec::gtx1080(), stats)),
        ..PlannerOptions::default()
    }
}

/// Execute `plan` on a fresh single-backend framework and return
/// (cold simulated ns, outputs of the cold run).
fn run_cold(plan: &PhysicalPlan, backend: &str, db: &Database) -> (u64, PlanOutput) {
    let fw = Framework::single_backend(&DeviceSpec::gtx1080(), backend);
    let b = fw.as_ref();
    let cols = LineitemCols::upload(b, db);
    let binds = cols.bindings();
    let t0 = b.device().now();
    let out = plan.execute(b, &binds).unwrap();
    let cold = (b.device().now() - t0).as_nanos();
    (cold, out)
}

#[test]
fn costed_plans_never_lose_to_heuristic_plans() {
    for sf in [0.001, 0.005] {
        let db = tpch::generate(sf);
        let rows = db.lineitem.shipdate.len();
        for (query, logical) in [("Q1", q1::logical_plan()), ("Q6", q6::logical_plan())] {
            for backend in BACKENDS {
                let fw = Framework::single_backend(&DeviceSpec::gtx1080(), backend);
                let b = fw.as_ref();
                let heuristic = optimizer::plan_with(query, &logical, b, &heuristic_opts())
                    .unwrap_or_else(|e| panic!("{query} heuristic on {backend}: {e:?}"));
                let costed = optimizer::plan_with(query, &logical, b, &costed_opts(rows))
                    .unwrap_or_else(|e| panic!("{query} costed on {backend}: {e:?}"));
                assert!(costed.cost_report().is_some(), "costed plan carries report");
                assert!(
                    heuristic.cost_report().is_none(),
                    "heuristic plan carries no report"
                );
                let (t_heur, out_heur) = run_cold(&heuristic, backend, &db);
                let (t_cost, out_cost) = run_cold(&costed, backend, &db);
                assert_eq!(
                    out_heur, out_cost,
                    "{query} sf={sf} on {backend}: costing changed an answer"
                );
                assert!(
                    t_cost <= t_heur,
                    "{query} sf={sf} on {backend}: costed plan slower \
                     ({t_cost} ns > {t_heur} ns)\n{}",
                    costed.explain()
                );
            }
        }
    }
}

#[test]
fn cost_report_names_every_candidate_alternative() {
    let db = tpch::generate(0.001);
    let rows = db.lineitem.shipdate.len();
    let fw = Framework::single_backend(&DeviceSpec::gtx1080(), "Thrust");
    let b = fw.as_ref();
    let plan = optimizer::plan_with("Q6", &q6::logical_plan(), b, &costed_opts(rows)).unwrap();
    let report = plan.cost_report().unwrap();
    let names: Vec<&str> = report
        .alternatives
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    assert_eq!(names, ["dispatch=fused", "dispatch=composed"]);
    assert_eq!(
        report.alternatives.iter().filter(|a| a.chosen).count(),
        1,
        "exactly one chosen alternative"
    );
    // Q6's scalar fast path materialises nothing; Q1's grouped
    // aggregation must report a real device footprint.
    let q1_plan = optimizer::plan_with("Q1", &q1::logical_plan(), b, &costed_opts(rows)).unwrap();
    assert!(q1_plan.cost_report().unwrap().peak_device_bytes > 0);
}

/// The fused step's dispatch threshold, if the plan has one.
fn fused_threshold(plan: &PhysicalPlan) -> Option<usize> {
    plan.steps().iter().find_map(|s| match s {
        Step::FusedFilterAgg { threshold, .. } | Step::FusedMap { threshold, .. } => {
            Some(*threshold)
        }
        _ => None,
    })
}

/// The options' `FusionPolicy::threshold` is the threshold of the fused
/// step the heuristic planner emits; the costed planner owns the dispatch
/// and lists exactly the fused and the composed alternative whatever the
/// options' policy says.
#[test]
fn the_options_fusion_threshold_is_the_fused_steps_threshold() {
    let fw = Framework::single_backend(&DeviceSpec::gtx1080(), "Thrust");
    let b = fw.as_ref();
    let logical = q6::logical_plan();
    for threshold in [0, 7, 12_345] {
        let opts = PlannerOptions {
            fusion: FusionPolicy {
                threshold: Some(threshold),
            },
            ..PlannerOptions::default()
        };
        let plan = optimizer::plan_with("Q6", &logical, b, &opts).unwrap();
        assert_eq!(fused_threshold(&plan), Some(threshold));

        let costed = PlannerOptions {
            costing: costed_opts(60_000).costing,
            ..opts
        };
        let plan = optimizer::plan_with("Q6", &logical, b, &costed).unwrap();
        let names: Vec<&str> = plan
            .cost_report()
            .unwrap()
            .alternatives
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, ["dispatch=fused", "dispatch=composed"]);
    }
}

/// Snapshot document: cost-annotated explains for Q6 (Thrust — no JIT,
/// fused vs composed trade) and Q1 (Handwritten — all join algorithms,
/// grouped aggregation), plus a Boost.Compute Q6 report where OpenCL
/// JIT dominates the cold column. Fixed stats keep it independent of
/// the generator.
fn snapshot() -> String {
    let stats = TableStats::new().with_rows("lineitem", 60_000);
    let spec = DeviceSpec::gtx1080();
    let opts = PlannerOptions {
        costing: Some(CostingOptions::new(&spec, stats)),
        ..PlannerOptions::default()
    };
    let mut doc = String::new();
    for (query, logical, backend) in [
        ("Q6", q6::logical_plan(), "Thrust"),
        ("Q6", q6::logical_plan(), "Boost.Compute"),
        ("Q1", q1::logical_plan(), "Handwritten"),
    ] {
        let fw = Framework::single_backend(&spec, backend);
        let plan = optimizer::plan_with(query, &logical, fw.as_ref(), &opts).unwrap();
        doc.push_str(&format!(
            "==== {query} costed on {backend} ====\n{}\n",
            plan.explain()
        ));
    }
    doc
}

#[test]
fn cost_reports_match_the_golden_file() {
    let got = snapshot();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cost_report.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file; UPDATE_GOLDEN=1 to create");
    assert_eq!(
        got, want,
        "cost reports drifted from tests/golden/cost_report.txt"
    );
}
