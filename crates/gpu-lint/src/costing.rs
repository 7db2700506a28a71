//! The costed-plan resource pass (`GL6xx`).
//!
//! The planner's cost model reports the estimated **peak device bytes**
//! a plan will hold live at once. That estimate is cheap (symbolic, no
//! device is charged), so it can gate execution: a plan whose peak
//! exceeds the memory budget an experiment declared will trip the
//! resilient executor's partitioned fallback at run time (GL601), and a
//! plan whose peak exceeds the device's physical memory cannot run
//! un-partitioned at all (GL602).
//!
//! Like every other pass, this one is decoupled from the planner: the
//! caller translates its cost report into a [`CostedPlan`] summary.

use crate::diag::{Diagnostic, Rule};

/// The memory story of one costed plan, as its cost model estimates it.
#[derive(Debug, Clone, Copy)]
pub struct CostedPlan {
    /// Estimated peak bytes live on the device at once.
    pub peak_device_bytes: u64,
    /// The memory budget the experiment declared (the partitioning
    /// threshold of the resilient executor), if any.
    pub mem_budget_bytes: Option<u64>,
    /// The target device's physical global memory.
    pub device_mem_bytes: u64,
}

/// Check a costed plan's estimated peak against its declared budget
/// (GL601) and the device's physical memory (GL602).
pub(crate) fn lint_costed_plan(plan: &CostedPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if let Some(budget) = plan.mem_budget_bytes {
        if plan.peak_device_bytes > budget {
            diags.push(Diagnostic::new(
                Rule::CostExceedsMemBudget,
                vec![],
                format!(
                    "estimated peak {} B exceeds declared mem_budget_bytes {} B \
                     ({:.1}x): partitioned execution will engage",
                    plan.peak_device_bytes,
                    budget,
                    plan.peak_device_bytes as f64 / budget.max(1) as f64,
                ),
            ));
        }
    }
    if plan.peak_device_bytes > plan.device_mem_bytes {
        diags.push(Diagnostic::new(
            Rule::CostExceedsDeviceMemory,
            vec![],
            format!(
                "estimated peak {} B exceeds device memory {} B: \
                 the plan cannot run un-partitioned",
                plan.peak_device_bytes, plan.device_mem_bytes,
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn a_plan_inside_budget_and_device_is_clean() {
        let diags = lint_costed_plan(&CostedPlan {
            peak_device_bytes: 1 << 20,
            mem_budget_bytes: Some(1 << 21),
            device_mem_bytes: 1 << 30,
        });
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn no_declared_budget_means_no_budget_finding() {
        let diags = lint_costed_plan(&CostedPlan {
            peak_device_bytes: 1 << 29,
            mem_budget_bytes: None,
            device_mem_bytes: 1 << 30,
        });
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn peak_over_budget_warns_gl601() {
        let diags = lint_costed_plan(&CostedPlan {
            peak_device_bytes: 3 << 20,
            mem_budget_bytes: Some(1 << 20),
            device_mem_bytes: 1 << 30,
        });
        assert_eq!(rules(&diags), vec!["GL601"]);
        assert_eq!(diags[0].severity(), crate::Severity::Warning);
        assert!(diags[0].message.contains("3.0x"), "{}", diags[0].message);
    }

    #[test]
    fn peak_over_device_memory_errors_gl602() {
        let diags = lint_costed_plan(&CostedPlan {
            peak_device_bytes: (1 << 30) + 1,
            mem_budget_bytes: Some(1 << 10),
            device_mem_bytes: 1 << 30,
        });
        assert_eq!(rules(&diags), vec!["GL601", "GL602"]);
        assert_eq!(diags[1].severity(), crate::Severity::Error);
    }
}
