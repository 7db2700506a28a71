//! The `gpu-lint` plan drivers, the CI gates over the six TPC-H queries:
//! each compiles, prices or executes them and hands the real artifact to
//! the pass that checks it — every compiled plan's [`gpu_lint::PhysView`]
//! (GL4xx, [`query_plan_reports`]), every resilient run's
//! [`proto_core::resilient_plan::RecoveryLog`] (GL5xx,
//! [`recovery_reports`]), every costed plan's
//! [`proto_core::costing::CostReport`] (GL6xx, [`costed_plan_reports`])
//! and every planner mode's certified rewrite trace (GL7xx,
//! [`translation_reports`]).

use gpu_lint::Report;
use proto_core::backend::GpuBackend;
use proto_core::costing::TableStats;
use proto_core::optimizer::{self, CostingOptions, FusionPolicy, PassTrace, PlannerOptions};
use proto_core::physical::PhysicalPlan;

/// Lint one compiled plan (GL4xx).
pub fn lint_query_plan(plan: &PhysicalPlan) -> Report {
    gpu_lint::lint_physical_plan(
        format!("query-plan({}/{})", plan.query(), plan.backend_name()),
        &gpu_lint::phys_view(plan, Vec::new()),
    )
}

/// Compile all six TPC-H queries ([`tpch::queries::LOGICAL_PLANS`])
/// under each of `modes` on every paper backend — as plan
/// `plan_name(query, mode)` — and hand every plan that compiles to
/// `lint` as `(query, mode, backend, plan, rewrite trace)`, queries
/// outermost. ArrayFire is skipped for the join-bearing queries — it has
/// no join algorithm (Table II), so the planner refuses at compile time
/// and there is no plan to lint; any other refusal panics.
fn lint_six_queries(
    modes: &[(&str, PlannerOptions)],
    plan_name: impl Fn(&str, &str) -> String,
    mut lint: impl FnMut(&str, &str, &dyn GpuBackend, PhysicalPlan, Vec<PassTrace>),
) {
    let fw = crate::paper_framework();
    for (q, logical) in tpch::queries::LOGICAL_PLANS {
        for (mode, opts) in modes {
            let name = plan_name(q, mode);
            for b in fw.backends() {
                match optimizer::plan_traced(&name, &logical(), b.as_ref(), opts) {
                    Ok((plan, traces)) => lint(q, mode, b.as_ref(), plan, traces),
                    Err(_) => {
                        assert_eq!(b.name(), "ArrayFire", "only ArrayFire may fail to plan")
                    }
                }
            }
        }
    }
}

fn fusion_on() -> PlannerOptions {
    PlannerOptions {
        fusion: FusionPolicy::on(),
        ..PlannerOptions::default()
    }
}

/// Costing on, with default table stats for the paper device.
fn costing_on() -> PlannerOptions {
    PlannerOptions {
        costing: Some(CostingOptions::new(
            &crate::paper_device(),
            TableStats::new(),
        )),
        ..PlannerOptions::default()
    }
}

/// Compile all six TPC-H queries on every backend that can plan them —
/// once with default options and once with the general fusion pass on,
/// so the fused-step lint arms (including GL405) see real plans — and
/// lint each physical plan (see `lint_six_queries` for the ArrayFire
/// skip).
pub fn query_plan_reports() -> Vec<Report> {
    let modes = [("", PlannerOptions::default()), ("+fused", fusion_on())];
    let mut reports = Vec::new();
    lint_six_queries(
        &modes,
        |q, suffix| format!("{q}{suffix}"),
        |_, _, _, plan, _| reports.push(lint_query_plan(&plan)),
    );
    reports
}

/// Lint one costed plan's memory estimate (GL6xx) against the budget an
/// experiment declared and the device it targets. Returns `None` for a
/// plan compiled without [`proto_core::optimizer::CostingOptions`] —
/// there is no estimate to check.
pub(crate) fn costed_plan_report(
    plan: &PhysicalPlan,
    mem_budget_bytes: Option<u64>,
    spec: &gpu_sim::DeviceSpec,
) -> Option<Report> {
    Some(gpu_lint::lint_costed_plan(
        format!("costed-plan({}/{})", plan.query(), plan.backend_name()),
        plan.cost_report()?,
        mem_budget_bytes,
        spec,
    ))
}

/// Compile all six TPC-H queries with costing on (default table stats)
/// for every backend that can plan them and lint each plan's memory
/// estimate, declaring the paper device's own capacity as the budget —
/// the GL6xx CI gate.
pub fn costed_plan_reports() -> Vec<Report> {
    let spec = crate::paper_device();
    let mut reports = Vec::new();
    lint_six_queries(
        &[("costing", costing_on())],
        |q, _| q.to_string(),
        |_, _, _, plan, _| {
            reports.extend(costed_plan_report(
                &plan,
                Some(spec.global_mem_bytes),
                &spec,
            ))
        },
    );
    reports
}

/// Compile all six TPC-H queries with [`optimizer::plan_traced`] under
/// all three planner modes — heuristic (defaults), fusion
/// ([`FusionPolicy::on`]), and costing (default table stats) — on every
/// backend that can plan them, and validate each run's rewrite trace
/// against the compiled plan (GL7xx).
pub fn translation_reports() -> Vec<Report> {
    let modes = [
        ("heuristic", PlannerOptions::default()),
        ("fusion", fusion_on()),
        ("costing", costing_on()),
    ];
    let mut reports = Vec::new();
    lint_six_queries(
        &modes,
        |q, _| q.to_string(),
        |q, mode, b, plan, traces| {
            let view = gpu_lint::phys_view(&plan, optimizer::supported_joins(b));
            reports.push(gpu_lint::lint_translation(
                format!("translation({q}/{mode}/{})", b.name()),
                &traces,
                &view,
            ));
        },
    );
    reports
}

/// Execute all six TPC-H queries through the resilient plan executor
/// under a 5% uniform fault plan and lint each run's recovery log
/// (GL5xx) — the CI gate that keeps the executor's checkpoint/free
/// ordering and retry budgeting honest.
pub fn recovery_reports() -> Vec<Report> {
    use proto_core::resilient::RetryPolicy;
    use proto_core::resilient_plan::{PlanRecovery, ResilientPlanExecutor};
    use tpch::queries::{q1::Q1, q14::Q14, q3::Q3, q4::Q4, q5::Q5, q6::Q6, Query, QueryData};

    /// One query's run and its recovery log's report.
    fn report<Q: Query>(b: &dyn GpuBackend, exec: &ResilientPlanExecutor) -> Report {
        let q = Q::NAME;
        let data = QueryData::<Q>::upload(b, &tpch::cached(0.001)).expect("upload");
        if let Err(e) = data.execute_with(b, exec) {
            panic!("{q}: {e}");
        }
        let log = exec
            .take_log()
            .unwrap_or_else(|| panic!("{q}: no recovery log"));
        data.free(b).expect("free");
        gpu_lint::lint_recovery(format!("recovery({q}/Handwritten)"), &log)
    }

    let b = proto_core::framework::Framework::single_backend(&crate::paper_device(), "Handwritten");
    let b = b.as_ref();
    // Fault the plan-step site only: uploads/frees happen outside the
    // executor's recovery scope, so faulting them would just kill the
    // harness, not exercise recovery.
    let mut fp = gpu_sim::FaultPlan::uniform(proto_core::workload::SEED, 0.0);
    fp.rates[gpu_sim::FaultSite::PlanStep.index()] = 0.1;
    b.device().install_fault_plan(fp);
    let exec = ResilientPlanExecutor::new(PlanRecovery {
        retry: RetryPolicy { max_retries: 60 },
        ..PlanRecovery::default()
    });
    let reports = [
        report::<Q1>,
        report::<Q3>,
        report::<Q4>,
        report::<Q5>,
        report::<Q6>,
        report::<Q14>,
    ]
    .map(|report| report(b, &exec));
    b.device().clear_fault_plan();
    reports.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tpch_query_plan_is_clean_on_every_backend() {
        let reports = query_plan_reports();
        // (6 queries × 4 backends, minus ArrayFire on the 4 join
        // queries) × {unfused, fused}.
        assert_eq!(reports.len(), 2 * (6 * 4 - 4));
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }

    #[test]
    fn every_tpch_rewrite_trace_validates_on_every_backend() {
        let reports = translation_reports();
        // 3 planner modes × (6 queries × 4 backends, minus ArrayFire on
        // the 4 join queries).
        assert_eq!(reports.len(), 3 * (6 * 4 - 4));
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }

    #[test]
    fn recovery_timelines_of_all_queries_are_clean_under_faults() {
        let reports = recovery_reports();
        assert_eq!(reports.len(), 6);
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }

    #[test]
    fn every_costed_tpch_plan_fits_the_paper_device() {
        let reports = costed_plan_reports();
        assert_eq!(reports.len(), 6 * 4 - 4);
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }

    #[test]
    fn injected_tiny_budget_is_flagged_gl601() {
        use proto_core::costing::TableStats;
        use proto_core::optimizer::{self, CostingOptions, PlannerOptions};
        let spec = crate::paper_device();
        let fw = crate::paper_framework();
        let b = fw.backend("Thrust").unwrap();
        let opts = PlannerOptions {
            costing: Some(CostingOptions::new(
                &spec,
                TableStats::new().with_rows("lineitem", 1 << 16),
            )),
            ..PlannerOptions::default()
        };
        // Q1 (not Q6: Q6 fuses to a single pass with zero device
        // intermediates, so its estimated peak is legitimately 0).
        let plan =
            optimizer::plan_with("Q1", &tpch::queries::q1::logical_plan(), b, &opts).unwrap();
        // A 4 KiB budget is far below Q1's working set at 65K rows.
        let r = costed_plan_report(&plan, Some(4 << 10), &spec).unwrap();
        let ids: Vec<_> = r.diagnostics.iter().map(|d| d.rule.id()).collect();
        assert_eq!(ids, vec!["GL601"], "{}", r.render());
        assert_eq!(r.errors(), 0, "budget overrun is a warning, not an error");
    }

    #[test]
    fn injected_giant_cardinality_is_flagged_gl602() {
        use proto_core::costing::TableStats;
        use proto_core::optimizer::{self, CostingOptions, PlannerOptions};
        let spec = crate::paper_device();
        let fw = crate::paper_framework();
        let b = fw.backend("Thrust").unwrap();
        // Q1 at 2^29 rows holds ~11 GB of intermediates — past the
        // gtx1080's 8 GiB; the symbolic model prices it without
        // allocating anything.
        let opts = PlannerOptions {
            costing: Some(CostingOptions::new(
                &spec,
                TableStats::new().with_rows("lineitem", 1 << 29),
            )),
            ..PlannerOptions::default()
        };
        let plan =
            optimizer::plan_with("Q1", &tpch::queries::q1::logical_plan(), b, &opts).unwrap();
        let r = costed_plan_report(&plan, None, &spec).unwrap();
        let ids: Vec<_> = r.diagnostics.iter().map(|d| d.rule.id()).collect();
        assert_eq!(ids, vec!["GL602"], "{}", r.render());
        assert_eq!(r.errors(), 1);
    }

    #[test]
    fn uncosted_plans_have_no_estimate_to_lint() {
        let fw = crate::paper_framework();
        let b = fw.backend("Thrust").unwrap();
        let plan = tpch::queries::q6::physical_plan(b).unwrap();
        assert!(costed_plan_report(&plan, Some(1), &crate::paper_device()).is_none());
    }
}
