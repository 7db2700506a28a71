//! `cost_smoke` — gating cost-model accuracy smoke test.
//!
//! Compiles TPC-H Q1 and Q6 with costing on for every paper backend,
//! executes each costed plan on a fresh simulated device, and checks
//! that the model's predicted cold and warm times stay within a loose
//! predicted/simulated ratio band. The band is wide (3x either way)
//! because the smoke run uses the model's *default* magic-number
//! selectivities, not ground-truth cardinalities — it exists to catch
//! structural breakage (double-charged JIT, dropped launch overhead,
//! miscounted transfer bytes), not to re-verify calibration. The tight
//! error band lives in E21 (a section of `all_experiments`), which feeds
//! ground-truth stats.
//!
//! Exits nonzero on any out-of-band ratio.

use gpu_sim::DeviceSpec;
use proto_core::optimizer::{self, CostingOptions, PlannerOptions};
use proto_core::prelude::*;
use tpch::queries::{q1, q6};
use tpch::Database;

/// Widest acceptable predicted/simulated ratio (and its reciprocal).
const RATIO_BAND: f64 = 3.0;

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

/// Execute `plan` twice on a fresh device; (cold ns, warm ns).
fn run(plan: &PhysicalPlan, backend: &str, db: &Database) -> (u64, u64) {
    let fw = Framework::single_backend(&DeviceSpec::gtx1080(), backend);
    let b = fw.as_ref();
    let cols = LineitemCols::upload(b, db);
    let binds = cols.bindings();
    let t0 = b.device().now();
    plan.execute(b, &binds).unwrap();
    let cold = (b.device().now() - t0).as_nanos();
    let t1 = b.device().now();
    plan.execute(b, &binds).unwrap();
    let warm = (b.device().now() - t1).as_nanos();
    (cold, warm)
}

fn main() {
    let db = tpch::cached(0.005);
    let rows = db.lineitem.shipdate.len();
    let spec = DeviceSpec::gtx1080();
    let mut failures = 0u32;
    for (query, logical) in [("Q1", q1::logical_plan()), ("Q6", q6::logical_plan())] {
        for backend in proto_core::backends::PAPER_BACKENDS {
            let fw = Framework::single_backend(&spec, backend);
            let opts = PlannerOptions {
                costing: Some(CostingOptions::new(
                    &spec,
                    TableStats::new().with_rows("lineitem", rows),
                )),
                ..PlannerOptions::default()
            };
            let plan = optimizer::plan_with(query, &logical, fw.as_ref(), &opts)
                .unwrap_or_else(|e| panic!("{query} on {backend}: {e:?}"));
            let report = plan.cost_report().expect("costed plan carries a report");
            let (cold, warm) = run(&plan, backend, &db);
            for (phase, predicted, simulated) in [
                ("cold", report.cold_ns(), cold),
                ("warm", report.warm_ns(), warm),
            ] {
                let ratio = predicted as f64 / simulated.max(1) as f64;
                let ok = (RATIO_BAND.recip()..=RATIO_BAND).contains(&ratio);
                println!(
                    "{query}/{backend}/{phase}: predicted {predicted} ns, \
                     simulated {simulated} ns, ratio {ratio:.2} {}",
                    if ok { "ok" } else { "OUT OF BAND" }
                );
                if !ok {
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("cost_smoke: {failures} ratio(s) outside [1/{RATIO_BAND}, {RATIO_BAND}]");
        std::process::exit(1);
    }
    println!("cost_smoke: all ratios within [1/{RATIO_BAND}, {RATIO_BAND}]");
}
