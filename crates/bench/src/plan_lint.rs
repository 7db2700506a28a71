//! The `gpu-lint` plan driver, the CI gate over the six TPC-H queries:
//! [`translation_reports`] compiles each query once per planner mode on
//! every backend and checks the plan's
//! [`proto_core::costing::CostReport`], when costing priced it, against
//! the memory budget (GL6xx). A plan without a cost report has nothing to
//! check and reports clean.

use gpu_lint::Report;
use gpu_sim::DeviceSpec;
use proto_core::costing::TableStats;
use proto_core::optimizer::{self, CostingOptions, FusionPolicy, PlannerOptions};
use proto_core::physical::PhysicalPlan;

/// Lint `plan` as `target`: its cost report — when costing priced it —
/// against `mem_budget_bytes` and `spec` (GL6xx).
pub(crate) fn lint_plan(
    target: String,
    plan: &PhysicalPlan,
    mem_budget_bytes: Option<u64>,
    spec: &DeviceSpec,
) -> Report {
    match plan.cost_report() {
        Some(cost) => gpu_lint::lint_costed_plan(target, cost, mem_budget_bytes, spec),
        None => Report::new(target, Vec::new()),
    }
}

/// Compile all six TPC-H queries ([`tpch::queries::LOGICAL_PLANS`]) with
/// [`optimizer::plan_with`] under all three planner modes — heuristic
/// (defaults), fusion ([`FusionPolicy::on`]), and costing (default table
/// stats for the paper device) — on every paper backend, and lint each
/// plan once with `lint_plan`, declaring the paper device's own
/// capacity as the memory budget. ArrayFire is skipped for the
/// join-bearing queries — it has no join algorithm (Table II), so the
/// planner refuses at compile time and there is no plan to lint; any
/// other refusal panics.
pub fn translation_reports() -> Vec<Report> {
    let spec = crate::paper_device();
    let modes = [
        ("heuristic", PlannerOptions::default()),
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
                costing: Some(CostingOptions::new(&spec, TableStats::new())),
                ..PlannerOptions::default()
            },
        ),
    ];
    let fw = crate::paper_framework();
    let mut reports = Vec::new();
    for (q, logical) in tpch::queries::LOGICAL_PLANS {
        for (mode, opts) in &modes {
            for b in fw.backends() {
                let b = b.as_ref();
                match optimizer::plan_with(q, &logical(), b, opts) {
                    Ok(plan) => reports.push(lint_plan(
                        format!("plan({q}/{mode}/{})", b.name()),
                        &plan,
                        Some(spec.global_mem_bytes),
                        &spec,
                    )),
                    Err(_) => {
                        assert_eq!(b.name(), "ArrayFire", "only ArrayFire may fail to plan")
                    }
                }
            }
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Q1 (not Q6: Q6 fuses to a single pass with zero device
    /// intermediates, so its estimated peak is legitimately 0) on Thrust,
    /// costed at `lineitem_rows`, linted against `mem_budget_bytes`; and
    /// the estimated peak.
    fn costed_q1(lineitem_rows: usize, mem_budget_bytes: Option<u64>) -> (Report, u64) {
        let spec = crate::paper_device();
        let fw = crate::paper_framework();
        let b = fw.backend("Thrust").unwrap();
        let opts = PlannerOptions {
            costing: Some(CostingOptions::new(
                &spec,
                TableStats::new().with_rows("lineitem", lineitem_rows),
            )),
            ..PlannerOptions::default()
        };
        let plan =
            optimizer::plan_with("Q1", &tpch::queries::q1::logical_plan(), b, &opts).unwrap();
        let peak = plan.cost_report().map_or(0, |c| c.peak_device_bytes);
        let report = lint_plan("Q1".into(), &plan, mem_budget_bytes, &spec);
        (report, peak)
    }

    #[test]
    fn injected_tiny_budget_is_flagged_gl601() {
        // A 4 KiB budget is far below Q1's working set at 65K rows.
        let (r, peak) = costed_q1(1 << 16, Some(4 << 10));
        let ids: Vec<_> = r.diagnostics.iter().map(|d| d.rule.id()).collect();
        assert_eq!(ids, vec!["GL601"], "{}", r.render());
        assert_eq!(r.errors(), 0, "budget overrun is a warning, not an error");
        // One byte short of the estimated peak overruns; the peak fits.
        let (r, _) = costed_q1(1 << 16, Some(peak - 1));
        let ids: Vec<_> = r.diagnostics.iter().map(|d| d.rule.id()).collect();
        assert_eq!(ids, vec!["GL601"], "{}", r.render());
        assert!(r.render().contains("(1.0x)"), "{}", r.render());
        assert!(costed_q1(1 << 16, Some(peak)).0.is_clean());
    }

    #[test]
    fn injected_giant_cardinality_is_flagged_gl602() {
        // Q1 at 2^29 rows holds ~11 GB of intermediates — past the
        // gtx1080's 8 GiB; the symbolic model prices it without
        // allocating anything.
        // With no budget declared, only GL602 fires; with one, both do.
        for (budget, want) in [
            (None, vec!["GL602"]),
            (Some(1 << 10), vec!["GL601", "GL602"]),
        ] {
            let (r, _) = costed_q1(1 << 29, budget);
            let ids: Vec<_> = r.diagnostics.iter().map(|d| d.rule.id()).collect();
            assert_eq!(ids, want, "{}", r.render());
            assert_eq!(r.errors(), 1);
        }
    }

    #[test]
    fn uncosted_plans_have_no_estimate_to_lint() {
        let fw = crate::paper_framework();
        let b = fw.backend("Thrust").unwrap();
        let plan = optimizer::plan("Q1", &tpch::queries::q1::logical_plan(), b).unwrap();
        let spec = crate::paper_device();
        let r = lint_plan("Q1".into(), &plan, Some(1), &spec);
        assert!(r.is_clean(), "{}", r.render());
    }
}
