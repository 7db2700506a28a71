//! `PROTO_FUSION_THRESHOLD` pins the fused-dispatch threshold for the
//! heuristic *and* the costed planner (which then skips its
//! fused-vs-composed enumeration). Kept in its own test binary: env
//! mutation must not race the other suites' planning calls.

use gpu_sim::DeviceSpec;
use proto_core::optimizer::{self, FusionPolicy, PlannerOptions, FUSION_THRESHOLD_ENV};
use proto_core::prelude::*;
use tpch::queries::q6;

fn fused_threshold(plan: &PhysicalPlan) -> Option<usize> {
    plan.steps().iter().find_map(|s| match s {
        Step::FusedFilterAgg { threshold, .. } | Step::FusedMap { threshold, .. } => {
            Some(*threshold)
        }
        _ => None,
    })
}

#[test]
fn env_override_pins_both_planner_paths() {
    let fw = Framework::single_backend(&DeviceSpec::gtx1080(), "Thrust");
    let b = fw.as_ref();
    let logical = q6::logical_plan();
    let base = PlannerOptions {
        fuse_fast_paths: false,
        fusion: FusionPolicy {
            enabled: true,
            threshold: 7,
        },
        ..PlannerOptions::default()
    };

    // Without the variable the options' threshold rules.
    std::env::remove_var(FUSION_THRESHOLD_ENV);
    let plain = optimizer::plan_with("Q6", &logical, b, &base).unwrap();
    assert_eq!(fused_threshold(&plain), Some(7));

    std::env::set_var(FUSION_THRESHOLD_ENV, "12345");
    let heuristic = optimizer::plan_with("Q6", &logical, b, &base).unwrap();
    assert_eq!(fused_threshold(&heuristic), Some(12345));

    let stats = TableStats::new().with_rows("lineitem", 60_000);
    let costed_opts = PlannerOptions {
        costing: Some(CostingOptions::new(&DeviceSpec::gtx1080(), stats)),
        ..base.clone()
    };
    let costed = optimizer::plan_with("Q6", &logical, b, &costed_opts).unwrap();
    assert_eq!(
        fused_threshold(&costed),
        Some(12345),
        "costed planner honours the pinned threshold"
    );
    let names: Vec<&str> = costed
        .cost_report()
        .unwrap()
        .alternatives
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    assert_eq!(
        names,
        ["dispatch=default"],
        "pinned dispatch suppresses fused-vs-composed enumeration"
    );
    std::env::remove_var(FUSION_THRESHOLD_ENV);

    // Back off: enumeration returns.
    let costed = optimizer::plan_with("Q6", &logical, b, &costed_opts).unwrap();
    assert_eq!(costed.cost_report().unwrap().alternatives.len(), 2);

    // A value that is not a row count is an error naming the variable and
    // the value, on both entry points — never a silently unpinned plan.
    for bad in ["abc", "-1", "2.5", ""] {
        std::env::set_var(FUSION_THRESHOLD_ENV, bad);
        let heuristic = optimizer::plan_with("Q6", &logical, b, &base).unwrap_err();
        let traced = optimizer::plan_traced("Q6", &logical, b, &costed_opts).unwrap_err();
        for err in [heuristic, traced] {
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("{FUSION_THRESHOLD_ENV} value `{bad}`")),
                "{msg}"
            );
        }
    }
    std::env::remove_var(FUSION_THRESHOLD_ENV);
}
