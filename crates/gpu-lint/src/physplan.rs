//! Physical-query-plan pass: slot-lifetime and operand-shape
//! invariants of a compiled query plan before it runs.
//!
//! The input is the crate's own [`PlanStep`]/[`PlanColumn`] shape (the
//! same decoupling [`crate::plan`] uses for scheduler graphs), so the
//! analyzer does not depend on the planner; `bench`'s `plan_lint`
//! converts `proto_core::physical::PhysicalPlan` losslessly, one lint
//! step per plan step, its reads and defs taken from each step's own
//! declaration (`Step::reads()` / `Step::writes()`). Only *device
//! columns* are modelled — scalars and downloaded host vectors have no
//! device lifetime and no dtype hazards.
//!
//! Checks, in one forward walk over the steps:
//!
//! * **GL404** — a step reads or frees a slot that is undefined at that
//!   point, or was already freed. On real hardware that is a read of
//!   recycled memory (or a double free); the executor would corrupt or
//!   crash.
//! * **GL402** — an operand's dtype does not match what the call
//!   requires: `f64` gather/join indices, `u32` fed into arithmetic.
//!   The simulator's typed columns catch this at runtime; the lint
//!   catches it before anything executes.
//! * **GL405** — a fused step's expression reads a column
//!   arithmetically that does not hold `f64`. Same mechanics as GL402
//!   but its own rule: the mismatch is inside a generated single-pass
//!   kernel, so the runtime error surfaces from the fusion pass rather
//!   than the operator the user wrote, and the fix is different
//!   (exclude the column from fusion, not retype the operand).
//! * **GL403** — a merge join over a key column not known to be sorted.
//!   Backends whose merge join sorts internally never set the
//!   requirement; the rule exists for lowering bugs where a
//!   sort-requiring variant is fed raw scan order.
//! * **GL401** — a device column the plan creates but never frees
//!   (warning): the executor contract is alloc/free balance, so an
//!   unfreed slot leaks until teardown on every query execution.
//!
//! Diagnostic spans hold *step indices*; input pseudo-slots are exempt
//! from lifetime rules (the plan borrows base columns, it does not own
//! them).

use crate::diag::{Diagnostic, Rule};
use std::collections::HashMap;

/// Element dtype of a device column, as the plan checker sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanDtype {
    /// 32-bit unsigned integers (keys, row ids, dictionary codes).
    U32,
    /// 64-bit floats (measures).
    F64,
}

impl std::fmt::Display for PlanDtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanDtype::U32 => write!(f, "u32"),
            PlanDtype::F64 => write!(f, "f64"),
        }
    }
}

/// One device column a plan defines (or borrows, for inputs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanColumn {
    /// The column's slot number (unique within the plan; inputs use
    /// pseudo-slots above the plan's own range).
    pub slot: usize,
    /// Debug name, e.g. `"lineitem.discount"` or `"revenue"`.
    pub name: String,
    /// Element dtype.
    pub dtype: PlanDtype,
    /// Whether the values are known to ascend (selection row ids,
    /// grouped keys).
    pub sorted: bool,
}

/// One operand read of a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanUse {
    /// Slot being read.
    pub slot: usize,
    /// Dtype the call requires, if it requires one.
    pub want: Option<PlanDtype>,
    /// Whether the call requires sorted input (merge-join keys).
    pub want_sorted: bool,
    /// Whether the requirement comes from a fused expression reading
    /// the column arithmetically — a mismatch then fires GL405 instead
    /// of GL402.
    pub fused_arith: bool,
}

impl PlanUse {
    /// An operand with no dtype requirement.
    pub fn any(slot: usize) -> PlanUse {
        PlanUse {
            slot,
            want: None,
            want_sorted: false,
            fused_arith: false,
        }
    }
}

/// One step of a physical plan, as the plan checker sees it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanStep {
    /// What the step is, e.g. `"gather"` or `"join[Merge]"`.
    pub label: String,
    /// Device columns the step reads.
    pub reads: Vec<PlanUse>,
    /// Device columns the step defines.
    pub defs: Vec<PlanColumn>,
    /// Slots the step releases.
    pub frees: Vec<usize>,
}

/// Run every physical-plan check over `steps`, with `inputs` naming the
/// borrowed base columns (pseudo-slots, exempt from lifetime rules).
pub(crate) fn lint_physical_plan(inputs: &[PlanColumn], steps: &[PlanStep]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // slot → (column, live?, defining step). Inputs live forever.
    let mut cols: HashMap<usize, (PlanColumn, bool, Option<usize>)> = inputs
        .iter()
        .map(|c| (c.slot, (c.clone(), true, None)))
        .collect();

    for (i, step) in steps.iter().enumerate() {
        for read in &step.reads {
            let Some((col, live, _)) = cols.get(&read.slot) else {
                diags.push(Diagnostic::new(
                    Rule::PlanUseAfterFree,
                    vec![i],
                    format!(
                        "{} reads slot %{}, which no earlier step defines",
                        step.label, read.slot
                    ),
                ));
                continue;
            };
            if !live {
                diags.push(Diagnostic::new(
                    Rule::PlanUseAfterFree,
                    vec![i],
                    format!(
                        "{} reads {} (%{}) after its free",
                        step.label, col.name, read.slot
                    ),
                ));
            }
            if let Some(want) = read.want {
                if col.dtype != want {
                    if read.fused_arith {
                        diags.push(Diagnostic::new(
                            Rule::FusedArithNotF64,
                            vec![i],
                            format!(
                                "{} expression reads {} (%{}) arithmetically but it holds {}",
                                step.label, col.name, read.slot, col.dtype
                            ),
                        ));
                    } else {
                        diags.push(Diagnostic::new(
                            Rule::PlanDtypeMismatch,
                            vec![i],
                            format!(
                                "{} requires {want} but {} (%{}) holds {}",
                                step.label, col.name, read.slot, col.dtype
                            ),
                        ));
                    }
                }
            }
            if read.want_sorted && !col.sorted {
                diags.push(Diagnostic::new(
                    Rule::MergeJoinUnsorted,
                    vec![i],
                    format!(
                        "{} requires sorted keys but {} (%{}) is not known sorted",
                        step.label, col.name, read.slot
                    ),
                ));
            }
        }
        for def in &step.defs {
            cols.insert(def.slot, (def.clone(), true, Some(i)));
        }
        for &slot in &step.frees {
            match cols.get_mut(&slot) {
                Some((_, live, Some(_))) if *live => *live = false,
                Some((col, _, def)) => {
                    let why = if def.is_none() {
                        "a borrowed input"
                    } else {
                        "already freed"
                    };
                    diags.push(Diagnostic::new(
                        Rule::PlanUseAfterFree,
                        vec![i],
                        format!(
                            "{} frees {} (%{slot}), which is {why}",
                            step.label, col.name
                        ),
                    ));
                }
                None => {
                    diags.push(Diagnostic::new(
                        Rule::PlanUseAfterFree,
                        vec![i],
                        format!("{} frees slot %{slot}, which no step defines", step.label),
                    ));
                }
            }
        }
    }

    // GL401: plan-owned device columns still live at plan end.
    let mut leaked: Vec<(usize, &PlanColumn, usize)> = cols
        .values()
        .filter_map(|(col, live, def)| def.map(|d| (col.slot, col, d)).filter(|_| *live))
        .collect();
    leaked.sort_by_key(|&(slot, _, _)| slot);
    for (slot, col, def_step) in leaked {
        diags.push(Diagnostic::new(
            Rule::UnfreedPlanColumn,
            vec![def_step],
            format!("device column {} (%{slot}) is never freed", col.name),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(slot: usize, name: &str, dtype: PlanDtype, sorted: bool) -> PlanColumn {
        PlanColumn {
            slot,
            name: name.to_string(),
            dtype,
            sorted,
        }
    }

    fn step(
        label: &str,
        reads: Vec<PlanUse>,
        defs: Vec<PlanColumn>,
        frees: Vec<usize>,
    ) -> PlanStep {
        PlanStep {
            label: label.to_string(),
            reads,
            defs,
            frees,
        }
    }

    fn typed(slot: usize, want: PlanDtype) -> PlanUse {
        PlanUse {
            want: Some(want),
            ..PlanUse::any(slot)
        }
    }

    /// An operand a fused expression reads arithmetically.
    fn fused_f64(slot: usize) -> PlanUse {
        PlanUse {
            fused_arith: true,
            ..typed(slot, PlanDtype::F64)
        }
    }

    fn rules(inputs: &[PlanColumn], steps: &[PlanStep]) -> Vec<&'static str> {
        lint_physical_plan(inputs, steps)
            .iter()
            .map(|d| d.rule.id())
            .collect()
    }

    #[test]
    fn a_balanced_typed_plan_is_clean() {
        let inputs = [col(10, "lineitem.discount", PlanDtype::F64, false)];
        let steps = [
            step(
                "selection",
                vec![PlanUse::any(10)],
                vec![col(0, "ids", PlanDtype::U32, true)],
                vec![],
            ),
            step(
                "gather",
                vec![typed(10, PlanDtype::F64), typed(0, PlanDtype::U32)],
                vec![col(1, "discount", PlanDtype::F64, false)],
                vec![],
            ),
            step("free", vec![], vec![], vec![0]),
            step("free", vec![], vec![], vec![1]),
        ];
        assert!(rules(&inputs, &steps).is_empty());
    }

    #[test]
    fn an_unfreed_column_warns_gl401_anchored_at_its_definition() {
        let steps = [step(
            "selection",
            vec![],
            vec![col(0, "ids", PlanDtype::U32, true)],
            vec![],
        )];
        let d = lint_physical_plan(&[], &steps);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule.id(), "GL401");
        assert_eq!(d[0].events, vec![0]);
    }

    #[test]
    fn borrowed_inputs_are_exempt_from_lifetime_rules() {
        let inputs = [col(10, "base", PlanDtype::U32, false)];
        assert!(rules(&inputs, &[]).is_empty());
    }

    #[test]
    fn dtype_mismatch_is_gl402() {
        let inputs = [col(10, "keys", PlanDtype::F64, false)];
        let steps = [step(
            "grouped_sum",
            vec![typed(10, PlanDtype::U32)],
            vec![],
            vec![],
        )];
        assert_eq!(rules(&inputs, &steps), vec!["GL402"]);
    }

    #[test]
    fn fused_arith_over_u32_is_gl405_plain_mismatch_stays_gl402() {
        let inputs = [
            col(10, "l_quantity", PlanDtype::U32, false),
            col(11, "l_price", PlanDtype::F64, false),
        ];
        let steps = [step(
            "fused_filter_agg",
            vec![fused_f64(10), fused_f64(11)],
            vec![],
            vec![],
        )];
        let d = lint_physical_plan(&inputs, &steps);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule.id(), "GL405");
        assert!(d[0].message.contains("arithmetically"), "{}", d[0].message);
        // The same mismatch without the fused provenance is plain GL402.
        let steps = [step(
            "affine",
            vec![typed(10, PlanDtype::F64)],
            vec![],
            vec![],
        )];
        assert_eq!(rules(&inputs, &steps), vec!["GL402"]);
    }

    #[test]
    fn merge_join_on_unsorted_keys_is_gl403() {
        let inputs = [
            col(10, "a", PlanDtype::U32, false),
            col(11, "b", PlanDtype::U32, true),
        ];
        let want_sorted = |slot| PlanUse {
            want_sorted: true,
            ..typed(slot, PlanDtype::U32)
        };
        let steps = [step(
            "join[Merge]",
            vec![want_sorted(10), want_sorted(11)],
            vec![],
            vec![],
        )];
        // Only the unsorted side fires.
        assert_eq!(rules(&inputs, &steps), vec!["GL403"]);
    }

    #[test]
    fn use_after_free_double_free_and_undefined_reads_are_gl404() {
        let steps = [
            step(
                "selection",
                vec![],
                vec![col(0, "ids", PlanDtype::U32, true)],
                vec![],
            ),
            step("free", vec![], vec![], vec![0]),
            step("gather", vec![PlanUse::any(0)], vec![], vec![]), // after free
            step("free", vec![], vec![], vec![0]),                 // double free
            step("gather", vec![PlanUse::any(9)], vec![], vec![]), // never defined
        ];
        assert_eq!(rules(&[], &steps), vec!["GL404", "GL404", "GL404"]);
    }

    #[test]
    fn freeing_a_borrowed_input_is_gl404() {
        let inputs = [col(10, "base", PlanDtype::U32, false)];
        let steps = [step("free", vec![], vec![], vec![10])];
        let d = lint_physical_plan(&inputs, &steps);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule.id(), "GL404");
        assert!(d[0].message.contains("borrowed input"), "{}", d[0].message);
    }
}
