//! Plan-matrix golden: every TPC-H query × every paper backend × the
//! three planner modes the GL7xx gate lints (defaults, general fusion,
//! costing on the paper device with default table stats).
//!
//! Each entry lists every `plan_traced` pass with its certificate, then
//! the compiled plan's `explain()` (which renders the cost report when
//! the plan was costed). A planning error is recorded as its message.
//! Any change to an emitted step, slot label, `Free` placement,
//! certificate or error text shows up here — regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p tpch --test plan_matrix` only when a
//! planner decision is meant to change.

use gpu_sim::DeviceSpec;
use proto_core::optimizer::{self, CostingOptions, PlannerOptions};
use proto_core::prelude::*;
use tpch::queries::LOGICAL_PLANS;

fn modes() -> [(&'static str, PlannerOptions); 3] {
    [
        ("default", PlannerOptions::default()),
        (
            "fusion",
            PlannerOptions {
                fusion: FusionPolicy::on(),
                ..PlannerOptions::default()
            },
        ),
        (
            "costing",
            PlannerOptions {
                costing: Some(CostingOptions::new(
                    &DeviceSpec::gtx1080(),
                    TableStats::new(),
                )),
                ..PlannerOptions::default()
            },
        ),
    ]
}

fn snapshot() -> String {
    let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
    let mut doc = String::new();
    for (q, logical) in LOGICAL_PLANS {
        for (mode, opts) in modes() {
            for b in fw.backends() {
                doc.push_str(&format!("==== {q} / {mode} / {} ====\n", b.name()));
                match optimizer::plan_traced(q, &logical(), b.as_ref(), &opts) {
                    Ok((plan, traces)) => {
                        for t in &traces {
                            match &t.cert {
                                Some(c) => doc.push_str(&format!("{}: {}\n", t.pass, c.describe())),
                                None => doc.push_str(&format!("{}: (no certificate)\n", t.pass)),
                            }
                        }
                        doc.push_str(&plan.explain());
                        doc.push('\n');
                    }
                    Err(e) => doc.push_str(&format!("error: {e}\n")),
                }
            }
        }
    }
    doc
}

#[test]
fn every_query_mode_and_backend_matches_the_plan_matrix_golden() {
    let got = snapshot();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/plan_matrix.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file; UPDATE_GOLDEN=1 to create");
    assert_eq!(
        got, want,
        "planner output drifted from tests/golden/plan_matrix.txt"
    );
}
