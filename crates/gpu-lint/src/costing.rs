//! The costed-plan resource pass (`GL6xx`).
//!
//! The planner's cost model reports the estimated **peak device bytes**
//! a plan will hold live at once ([`CostReport::peak_device_bytes`]).
//! That estimate is cheap (symbolic, no device is charged), so it can
//! gate execution: a plan whose peak exceeds the memory budget an
//! experiment declared will trip the resilient executor's partitioned
//! fallback at run time (GL601), and a plan whose peak exceeds the
//! device's physical memory cannot run un-partitioned at all (GL602).

use crate::diag::{Diagnostic, Rule};
use gpu_sim::DeviceSpec;
use proto_core::costing::CostReport;

/// Check a cost report's estimated peak against the declared budget (the
/// resilient executor's partitioning threshold, if any; GL601) and the
/// device's physical memory (GL602).
pub(crate) fn lint_costed_plan(
    report: &CostReport,
    mem_budget_bytes: Option<u64>,
    spec: &DeviceSpec,
) -> Vec<Diagnostic> {
    let peak = report.peak_device_bytes;
    let mut diags = Vec::new();
    if let Some(budget) = mem_budget_bytes.filter(|&b| peak > b) {
        diags.push(Diagnostic::new(
            Rule::CostExceedsMemBudget,
            vec![],
            format!(
                "estimated peak {peak} B exceeds declared mem_budget_bytes {budget} B \
                 ({:.1}x): partitioned execution will engage",
                peak as f64 / budget.max(1) as f64,
            ),
        ));
    }
    if peak > spec.global_mem_bytes {
        diags.push(Diagnostic::new(
            Rule::CostExceedsDeviceMemory,
            vec![],
            format!(
                "estimated peak {peak} B exceeds device memory {} B: \
                 the plan cannot run un-partitioned",
                spec.global_mem_bytes,
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(peak_device_bytes: u64, budget: Option<u64>, device_mem: u64) -> Vec<Diagnostic> {
        let report = CostReport {
            peak_device_bytes,
            ..CostReport::default()
        };
        let spec = DeviceSpec {
            global_mem_bytes: device_mem,
            ..DeviceSpec::default()
        };
        lint_costed_plan(&report, budget, &spec)
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn a_plan_inside_budget_and_device_is_clean() {
        let diags = lint(1 << 20, Some(1 << 21), 1 << 30);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn no_declared_budget_means_no_budget_finding() {
        let diags = lint(1 << 29, None, 1 << 30);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn peak_over_budget_warns_gl601() {
        let diags = lint(3 << 20, Some(1 << 20), 1 << 30);
        assert_eq!(rules(&diags), vec!["GL601"]);
        assert_eq!(diags[0].severity(), crate::Severity::Warning);
        assert!(diags[0].message.contains("3.0x"), "{}", diags[0].message);
    }

    #[test]
    fn peak_over_device_memory_errors_gl602() {
        let diags = lint((1 << 30) + 1, Some(1 << 10), 1 << 30);
        assert_eq!(rules(&diags), vec!["GL601", "GL602"]);
        assert_eq!(diags[1].severity(), crate::Severity::Error);
    }
}
