//! Adapter from [`proto_core::physical::PhysicalPlan`] to the
//! `gpu-lint` GL4xx physical-plan checker.
//!
//! `gpu-lint` deliberately does not depend on the planner (the same
//! decoupling its scheduler-plan pass uses), so this module translates
//! a compiled plan into [`gpu_lint::PlanStep`]s: one lint step per plan
//! step, its reads (with their dtype / sortedness / fused-arithmetic
//! requirements) taken from [`Step::reads`] and its device defs from
//! [`Step::writes`]. Bound base columns become pseudo-slots above the
//! plan's own slot range — the lint exempts them from lifetime rules,
//! mirroring the executor contract (the plan borrows its inputs, it
//! never frees them).
//!
//! [`query_plan_reports`] compiles all six TPC-H queries for every
//! backend that can plan them and lints each result — the CI gate that
//! keeps the planner's slot lifetimes and operand shapes honest.
//!
//! The same decoupling covers the GL5xx recovery checker:
//! [`convert_recovery`] translates a
//! [`proto_core::resilient_plan::RecoveryLog`] into the lint's
//! [`RecoveryTimeline`], and [`recovery_reports`] executes all six
//! queries through the resilient plan executor under injected faults
//! and lints each run's recovery history.
//!
//! And the GL6xx resource checker: `costed_plan_report` summarizes a
//! costed plan's estimated peak device bytes into the lint's
//! [`gpu_lint::CostedPlan`] shape, and [`costed_plan_reports`] prices
//! all six queries on every backend (the device's own capacity as the
//! declared budget) — the CI gate that a costed plan's memory estimate
//! stays inside what it will run on.
//!
//! And the GL7xx translation validator: [`translation_reports`] runs
//! every query through [`proto_core::optimizer::plan_traced`] under all
//! three planner modes (heuristic, fusion, costing) on every backend,
//! then replays the certificate-bearing rewrite trace through
//! [`gpu_lint::lint_translation`] — the CI gate that each
//! logical→physical rewrite the planner performs is semantically
//! equivalent to the plan it replaced.

use gpu_lint::{PlanColumn, PlanDtype, PlanStep, PlanUse, RecoveryTimeline, Report};
use proto_core::backend::{ColType, GpuBackend};
use proto_core::costing::TableStats;
use proto_core::optimizer::{self, CostingOptions, FusionPolicy, PassTrace, PlannerOptions};
use proto_core::physical::{ColRef, PhysicalPlan, SlotKind, Step, StepRead};
use proto_core::resilient_plan::RecoveryLog;

fn dtype(ct: ColType) -> PlanDtype {
    match ct {
        ColType::U32 => PlanDtype::U32,
        ColType::F64 => PlanDtype::F64,
    }
}

/// Translate one compiled plan into the lint's shape: the borrowed
/// input columns and one [`PlanStep`] per plan step.
pub fn convert(plan: &PhysicalPlan) -> (Vec<PlanColumn>, Vec<PlanStep>) {
    let n_slots = plan.slots().len();
    let inputs: Vec<PlanColumn> = plan
        .base_columns()
        .iter()
        .enumerate()
        .map(|(i, (name, &ct))| PlanColumn {
            slot: n_slots + i,
            name: name.clone(),
            dtype: dtype(ct),
            sorted: false,
        })
        .collect();
    let slot_of = |r: &ColRef| match r {
        ColRef::Base(name) => inputs.iter().find(|c| c.name == *name).map(|c| c.slot),
        ColRef::Slot(i) => Some(*i),
    };
    let use_of = |r: &StepRead<'_>| PlanUse {
        slot: slot_of(r.col).expect("bound base column"),
        want: r.dtype.map(dtype),
        want_sorted: r.sorted,
        fused_arith: r.fused_arith,
    };
    // A def only exists for device slots; scalar and downloaded host
    // slots have no device lifetime.
    let def_of = |slot: usize| {
        let meta = &plan.slots()[slot];
        match meta.kind {
            SlotKind::Device { dtype: ct, sorted } => Some(PlanColumn {
                slot,
                name: meta.name.clone(),
                dtype: dtype(ct),
                sorted,
            }),
            _ => None,
        }
    };

    let steps = plan
        .steps()
        .iter()
        .map(|step| PlanStep {
            label: step.label().into(),
            reads: step.reads().iter().map(use_of).collect(),
            defs: step.writes().filter_map(def_of).collect(),
            frees: match step {
                Step::Free { slot } => vec![*slot],
                _ => vec![],
            },
        })
        .collect();
    (inputs, steps)
}

/// Lint one compiled plan.
pub fn lint_plan(plan: &PhysicalPlan) -> Report {
    let (inputs, steps) = convert(plan);
    gpu_lint::lint_physical_plan(
        format!("query-plan({}/{})", plan.query(), plan.backend_name()),
        &inputs,
        &steps,
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
        |_, _, _, plan, _| reports.push(lint_plan(&plan)),
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
    let report = plan.cost_report()?;
    Some(gpu_lint::lint_costed_plan(
        format!("costed-plan({}/{})", plan.query(), plan.backend_name()),
        &gpu_lint::CostedPlan {
            peak_device_bytes: report.peak_device_bytes,
            mem_budget_bytes,
            device_mem_bytes: spec.global_mem_bytes,
        },
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

/// Translate a resilient-plan-executor recovery log into the lint's
/// [`RecoveryTimeline`] shape, losslessly.
pub fn convert_recovery(log: &RecoveryLog) -> RecoveryTimeline {
    use gpu_lint::RecoveryEventKind as L;
    use proto_core::resilient_plan::RecoveryEventKind as K;
    RecoveryTimeline {
        max_retries: log.max_retries,
        backoff_budget_ns: log.backoff_budget_ns,
        events: log
            .events
            .iter()
            .map(|e| gpu_lint::RecoveryEvent {
                step: e.step,
                kind: match &e.kind {
                    K::AttemptStart => L::AttemptStart,
                    K::Checkpoint { slot } => L::Checkpoint { slot: *slot },
                    K::Freed { slot } => L::Freed { slot: *slot },
                    K::Retry { backoff_ns } => L::Retry {
                        backoff_ns: *backoff_ns,
                    },
                    K::Fallback { from, to } => L::Fallback {
                        from: from.clone(),
                        to: to.clone(),
                    },
                    K::Partition { parts } => L::Partition { parts: *parts },
                },
            })
            .collect(),
    }
}

/// Execute all six TPC-H queries through the resilient plan executor
/// under a 5% uniform fault plan and lint each run's recovery timeline
/// (GL5xx) — the CI gate that keeps the executor's checkpoint/free
/// ordering and retry budgeting honest.
pub fn recovery_reports() -> Vec<Report> {
    use proto_core::resilient::RetryPolicy;
    use proto_core::resilient_plan::{PlanRecovery, ResilientPlanExecutor};
    use tpch::queries::WorkingSet;

    let db = tpch::cached(0.001);
    let b = proto_core::framework::Framework::single_backend(&crate::paper_device(), "Handwritten");
    let b = b.as_ref();
    // Fault the plan-step site only: uploads/frees happen outside the
    // executor's recovery scope, so faulting them would just kill the
    // harness, not exercise recovery.
    let mut fp = gpu_sim::FaultPlan::uniform(proto_core::workload::SEED, 0.0);
    fp.rates[gpu_sim::FaultSite::PlanStep.index()] = 0.1;
    b.device().install_fault_plan(fp);
    let exec = ResilientPlanExecutor::new(PlanRecovery {
        retry: RetryPolicy {
            max_retries: 60,
            ..RetryPolicy::default()
        },
        ..PlanRecovery::default()
    });
    let mut reports = Vec::new();
    let mut lint = |query: &str, log: Option<RecoveryLog>| {
        let log = log.unwrap_or_else(|| panic!("{query}: no recovery log"));
        reports.push(gpu_lint::lint_recovery(
            format!("recovery({query}/Handwritten)"),
            &convert_recovery(&log),
        ));
    };
    for (q, logical) in tpch::queries::LOGICAL_PLANS {
        let logical = logical();
        let cols = WorkingSet::upload(b, &db, &logical.scan_columns()).expect("upload");
        let plan = optimizer::plan(q, &logical, b).expect("plan");
        exec.execute(b, &plan, &cols.bindings())
            .unwrap_or_else(|e| panic!("{q}: {e}"));
        lint(q, exec.take_log());
        cols.free(b).expect("free");
    }
    b.device().clear_fault_plan();
    reports
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

    #[test]
    fn base_columns_become_exempt_pseudo_slots() {
        let fw = crate::paper_framework();
        let b = fw.backend("Thrust").unwrap();
        let plan = tpch::queries::q6::physical_plan(b).unwrap();
        let (inputs, steps) = convert(&plan);
        assert_eq!(inputs.len(), plan.base_columns().len());
        for c in &inputs {
            assert!(c.slot >= plan.slots().len(), "pseudo-slot above plan range");
        }
        assert_eq!(steps.len(), plan.steps().len());
    }
}
