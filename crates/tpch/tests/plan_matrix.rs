//! Plan-matrix golden: every TPC-H query × every paper backend × the
//! three planner modes the `gpu_lint` plan targets compile (defaults,
//! general fusion, costing on the paper device with default table
//! stats).
//!
//! Each entry lists every `plan_traced` pass with its note, then the
//! compiled plan's `explain()` (which renders the cost report when the
//! plan was costed), which must equal the untraced `plan_with`'s. A
//! planning error is recorded as its message. Any change to an emitted
//! step, slot label, `Free` placement, note or error text shows up here — regenerate with
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
                let traced = optimizer::plan_traced(q, &logical(), b.as_ref(), &opts);
                // Tracing only records: the untraced planner compiles the
                // same plan, or fails the same way.
                let untraced = optimizer::plan_with(q, &logical(), b.as_ref(), &opts);
                let heading = format!("{q} / {mode} / {}", b.name());
                match (traced, untraced) {
                    (Ok((plan, traces)), Ok(same)) => {
                        assert_eq!(plan.explain(), same.explain(), "{heading}");
                        for t in &traces {
                            let note = t.note.as_deref().unwrap_or("(no certificate)");
                            doc.push_str(&format!("{}: {note}\n", t.pass));
                        }
                        doc.push_str(&plan.explain());
                        doc.push('\n');
                    }
                    (Err(e), Err(same)) => {
                        assert_eq!(e.to_string(), same.to_string(), "{heading}");
                        doc.push_str(&format!("error: {e}\n"));
                    }
                    (traced, untraced) => panic!(
                        "{heading}: traced {:?} but untraced {:?}",
                        traced.err(),
                        untraced.err()
                    ),
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
