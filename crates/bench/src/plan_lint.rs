//! The `gpu-lint` plan driver, the CI gate over the six TPC-H queries:
//! [`translation_reports`] compiles each query once per planner mode on
//! every backend and checks that one plan against every plan rule — its
//! [`gpu_lint::PhysView`] (GL4xx), its
//! [`proto_core::costing::CostReport`] when costing priced it (GL6xx),
//! and its certified rewrite trace (GL7xx).

use gpu_lint::Report;
use gpu_sim::DeviceSpec;
use proto_core::backend::GpuBackend;
use proto_core::costing::TableStats;
use proto_core::optimizer::{self, CostingOptions, FusionPolicy, PassTrace, PlannerOptions};
use proto_core::physical::PhysicalPlan;

/// Lint one plan `b` compiled, with its rewrite `traces`, against every
/// plan rule as `target`: GL4xx and GL7xx on the plan, and GL6xx on its
/// cost report — when costing priced it — against `mem_budget_bytes` and
/// `spec`.
pub(crate) fn lint_plan(
    target: String,
    b: &dyn GpuBackend,
    plan: &PhysicalPlan,
    traces: &[PassTrace],
    mem_budget_bytes: Option<u64>,
    spec: &DeviceSpec,
) -> Report {
    let view = gpu_lint::phys_view(plan, optimizer::supported_joins(b));
    let mut parts = vec![gpu_lint::lint_physical_plan(&target, &view)];
    if let Some(cost) = plan.cost_report() {
        parts.push(gpu_lint::lint_costed_plan(
            &target,
            cost,
            mem_budget_bytes,
            spec,
        ));
    }
    parts.push(gpu_lint::lint_translation(&target, traces, &view));
    Report::new(
        target,
        parts.into_iter().flat_map(|r| r.diagnostics).collect(),
    )
}

/// Compile all six TPC-H queries ([`tpch::queries::LOGICAL_PLANS`]) with
/// [`optimizer::plan_traced`] under all three planner modes — heuristic
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
                match optimizer::plan_traced(q, &logical(), b, opts) {
                    Ok((plan, traces)) => reports.push(lint_plan(
                        format!("plan({q}/{mode}/{})", b.name()),
                        b,
                        &plan,
                        &traces,
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

    #[test]
    fn every_tpch_plan_is_clean_in_every_mode_on_every_backend() {
        let reports = translation_reports();
        // 3 planner modes × (6 queries × 4 backends, minus ArrayFire on
        // the 4 join queries).
        assert_eq!(reports.len(), 3 * (6 * 4 - 4));
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }

    /// Q1 (not Q6: Q6 fuses to a single pass with zero device
    /// intermediates, so its estimated peak is legitimately 0) on Thrust,
    /// costed at `lineitem_rows`, linted against `mem_budget_bytes`.
    fn costed_q1(lineitem_rows: usize, mem_budget_bytes: Option<u64>) -> Report {
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
        let (plan, traces) =
            optimizer::plan_traced("Q1", &tpch::queries::q1::logical_plan(), b, &opts).unwrap();
        lint_plan("Q1".into(), b, &plan, &traces, mem_budget_bytes, &spec)
    }

    #[test]
    fn injected_tiny_budget_is_flagged_gl601() {
        // A 4 KiB budget is far below Q1's working set at 65K rows.
        let r = costed_q1(1 << 16, Some(4 << 10));
        let ids: Vec<_> = r.diagnostics.iter().map(|d| d.rule.id()).collect();
        assert_eq!(ids, vec!["GL601"], "{}", r.render());
        assert_eq!(r.errors(), 0, "budget overrun is a warning, not an error");
    }

    #[test]
    fn injected_giant_cardinality_is_flagged_gl602() {
        // Q1 at 2^29 rows holds ~11 GB of intermediates — past the
        // gtx1080's 8 GiB; the symbolic model prices it without
        // allocating anything.
        let r = costed_q1(1 << 29, None);
        let ids: Vec<_> = r.diagnostics.iter().map(|d| d.rule.id()).collect();
        assert_eq!(ids, vec!["GL602"], "{}", r.render());
        assert_eq!(r.errors(), 1);
    }

    #[test]
    fn uncosted_plans_have_no_estimate_to_lint() {
        let fw = crate::paper_framework();
        let b = fw.backend("Thrust").unwrap();
        let (plan, traces) = optimizer::plan_traced(
            "Q1",
            &tpch::queries::q1::logical_plan(),
            b,
            &PlannerOptions::default(),
        )
        .unwrap();
        let spec = crate::paper_device();
        let r = lint_plan("Q1".into(), b, &plan, &traces, Some(1), &spec);
        assert!(r.is_clean(), "{}", r.render());
    }
}
