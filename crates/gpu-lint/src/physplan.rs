//! Physical-query-plan pass (GL4xx): slot-lifetime and operand-shape
//! invariants of a compiled query plan before it runs.
//!
//! The pass reads the planner's own types through [`PhysView`], as the
//! GL7xx validator does: operands from [`Step::reads`], definitions from
//! [`Step::writes`] (device slots only — scalars and host vectors have no
//! device lifetime), names from [`Step::label`]. Base columns are
//! borrowed, never freed, so they stay outside the slot [`Liveness`]
//! map. Checks, in one forward walk over the steps:
//!
//! * **GL404** — a step reads or frees a slot that is undefined at that
//!   point or already freed (a read of recycled memory, a double free),
//!   or names a slot past the slot table or an unbound base column.
//! * **GL406** — a step writes a slot that an earlier `Free` released.
//! * **GL402** — an operand's dtype does not match what the call
//!   requires: `f64` gather/join indices, `u32` fed into arithmetic.
//! * **GL405** — the same mismatch in a fused step's expression, which
//!   reads the column arithmetically: the fix is to exclude the column
//!   from fusion, not to retype the operand.
//! * **GL403** — a merge join over a key column not known to be sorted.
//! * **GL401** — a device column the plan creates but never frees
//!   (warning): it leaks until teardown on every query execution.
//!
//! Diagnostic spans hold *step indices*.

use crate::diag::{Diagnostic, Rule};
use crate::liveness::{Access, Liveness};
use proto_core::backend::ColType;
use proto_core::ops::JoinAlgo;
use proto_core::physical::{ColRef, PhysicalPlan, SlotKind, SlotMeta, Step};
use std::collections::BTreeMap;

/// The linter's view of a compiled [`PhysicalPlan`]: the fields the
/// GL4xx and GL7xx passes read, owned and mutable so hazard-injection
/// tests can tamper with a plan without touching the planner.
#[derive(Debug, Clone)]
pub struct PhysView {
    /// Backend the plan was compiled for.
    pub backend: String,
    /// Join algorithm the planner selected (if the plan joins).
    pub join_algo: Option<JoinAlgo>,
    /// Join algorithms Table II allows on this backend.
    pub supported: Vec<JoinAlgo>,
    /// The straight-line step program.
    pub steps: Vec<Step>,
    /// Slot metadata, parallel to the plan's slot table.
    pub slots: Vec<SlotMeta>,
    /// Named output columns: `(logical name, slot)`.
    pub outputs: Vec<(String, usize)>,
    /// The bound base columns the plan reads, with their dtypes.
    pub base: BTreeMap<String, ColType>,
}

/// Build a [`PhysView`] from a compiled plan plus the backend's
/// Table-II supported join set (from
/// [`proto_core::optimizer::supported_joins`]).
pub fn phys_view(plan: &PhysicalPlan, supported: Vec<JoinAlgo>) -> PhysView {
    PhysView {
        backend: plan.backend_name().to_string(),
        join_algo: plan.join_algo(),
        supported,
        steps: plan.steps().to_vec(),
        slots: plan.slots().to_vec(),
        outputs: plan.outputs().to_vec(),
        base: plan.base_columns().clone(),
    }
}

fn dtype_name(t: ColType) -> &'static str {
    match t {
        ColType::U32 => "u32",
        ColType::F64 => "f64",
    }
}

/// Run every physical-plan check over `view`.
pub(crate) fn lint_physical_plan(view: &PhysView) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let slot_name = |slot: usize| view.slots.get(slot).map_or("?", |m| m.name.as_str());
    let mut live: Liveness<usize> = Liveness::new();
    for (i, step) in view.steps.iter().enumerate() {
        let label = step.label();
        let at = |rule, message: String| Diagnostic::new(rule, vec![i], message);
        for read in step.reads() {
            // The operand as messages name it, its dtype and sortedness.
            let (operand, dtype, sorted) = match read.col {
                ColRef::Base(name) => {
                    let Some(&dtype) = view.base.get(name) else {
                        let why = format!("{label} reads {name}, which the plan does not bind");
                        diags.push(at(Rule::PlanUseAfterFree, why));
                        continue;
                    };
                    (name.clone(), dtype, false)
                }
                ColRef::Slot(slot) => {
                    let operand = format!("{} (%{slot})", slot_name(*slot));
                    match live.access(*slot) {
                        Access::Live(()) => {}
                        Access::Freed(_) => diags.push(at(
                            Rule::PlanUseAfterFree,
                            format!("{label} reads {operand} after its free"),
                        )),
                        Access::Undefined => {
                            let why = format!(
                                "{label} reads slot %{slot}, which no earlier step defines"
                            );
                            diags.push(at(Rule::PlanUseAfterFree, why));
                            continue;
                        }
                    }
                    // Only device slots are ever defined.
                    let Some(SlotKind::Device { dtype, sorted }) =
                        view.slots.get(*slot).map(|m| m.kind)
                    else {
                        continue;
                    };
                    (operand, dtype, sorted)
                }
            };
            let held = dtype_name(dtype);
            match read.dtype.filter(|&want| want != dtype) {
                Some(_) if read.fused_arith => diags.push(at(
                    Rule::FusedArithNotF64,
                    format!(
                        "{label} expression reads {operand} arithmetically but it holds {held}"
                    ),
                )),
                Some(want) => diags.push(at(
                    Rule::PlanDtypeMismatch,
                    format!(
                        "{label} requires {} but {operand} holds {held}",
                        dtype_name(want)
                    ),
                )),
                None => {}
            }
            if read.sorted && !sorted {
                diags.push(at(
                    Rule::MergeJoinUnsorted,
                    format!("{label} requires sorted keys but {operand} is not known sorted"),
                ));
            }
        }
        for slot in step.writes() {
            match view.slots.get(slot).map(|m| m.kind) {
                Some(SlotKind::Device { .. }) => {
                    if let Access::Freed(freed) = live.access(slot) {
                        diags.push(at(
                            Rule::PlanWriteAfterFree,
                            format!(
                                "{label} writes {} (%{slot}), which step #{freed} freed",
                                slot_name(slot)
                            ),
                        ));
                    }
                    live.define(slot, i, ());
                }
                Some(_) => {}
                None => diags.push(at(
                    Rule::PlanUseAfterFree,
                    format!(
                        "{label} writes slot %{slot}, past the plan's {} slots",
                        view.slots.len()
                    ),
                )),
            }
        }
        // A free reads and writes nothing: the walk names it here.
        if let Step::Free { slot } = *step {
            let why = match live.free(slot, i) {
                Access::Live(()) => continue,
                Access::Freed(_) => format!(
                    "{label} frees {} (%{slot}), which is already freed",
                    slot_name(slot)
                ),
                Access::Undefined => format!("{label} frees slot %{slot}, which no step defines"),
            };
            diags.push(at(Rule::PlanUseAfterFree, why));
        }
    }
    // GL401: plan-owned device columns still live at plan end.
    for (slot, life) in live.lives().filter(|(_, l)| l.freed.is_none()) {
        diags.push(Diagnostic::new(
            Rule::UnfreedPlanColumn,
            vec![life.def],
            format!("device column {} (%{slot}) is never freed", slot_name(slot)),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use proto_core::fused::FusedExpr;
    use proto_core::ops::CmpOp;
    use ColType::{F64, U32};

    fn dev(dtype: ColType, sorted: bool) -> SlotKind {
        SlotKind::Device { dtype, sorted }
    }

    fn view(base: &[(&str, ColType)], slots: &[(&str, SlotKind)], steps: Vec<Step>) -> PhysView {
        PhysView {
            backend: "test".into(),
            join_algo: None,
            supported: vec![],
            steps,
            slots: slots
                .iter()
                .map(|&(name, kind)| SlotMeta {
                    name: name.into(),
                    kind,
                })
                .collect(),
            outputs: vec![],
            base: base.iter().map(|&(n, t)| (n.to_string(), t)).collect(),
        }
    }

    fn base(name: &str) -> ColRef {
        ColRef::Base(name.into())
    }

    fn select(input: ColRef, out: usize) -> Step {
        Step::Selection {
            input,
            cmp: CmpOp::Gt,
            lit: 0.0,
            out,
        }
    }

    fn rules(view: &PhysView) -> Vec<&'static str> {
        lint_physical_plan(view)
            .iter()
            .map(|d| d.rule.id())
            .collect()
    }

    #[test]
    fn fused_arith_over_u32_is_gl405_plain_mismatch_stays_gl402() {
        let cols = [("l_quantity", U32), ("l_price", F64)];
        let product = FusedExpr::Mul(Box::new(FusedExpr::Col(0)), Box::new(FusedExpr::Col(1)));
        let v = view(
            &cols,
            &[("revenue", SlotKind::Scalar)],
            vec![Step::FusedFilterAgg {
                inputs: vec![base("l_quantity"), base("l_price")],
                preds: vec![],
                expr: product,
                threshold: 0,
                out: 0,
            }],
        );
        let d = lint_physical_plan(&v);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule.id(), "GL405");
        assert!(d[0].message.contains("arithmetically"), "{}", d[0].message);
        // The same mismatch without the fused provenance is plain GL402.
        let v = view(
            &cols,
            &[("scaled", dev(F64, false))],
            vec![
                Step::Affine {
                    input: base("l_quantity"),
                    mul: 2.0,
                    add: 0.0,
                    out: 0,
                },
                Step::Free { slot: 0 },
            ],
        );
        assert_eq!(rules(&v), vec!["GL402"]);
    }

    #[test]
    fn merge_join_on_unsorted_keys_is_gl403() {
        let v = view(
            &[("t.a", U32), ("t.b", U32)],
            &[
                ("b_ids", dev(U32, true)),
                ("left", dev(U32, true)),
                ("right", dev(U32, false)),
            ],
            vec![
                select(base("t.b"), 0),
                Step::Join {
                    outer: base("t.a"),
                    inner: ColRef::Slot(0),
                    algo: JoinAlgo::Merge,
                    out_left: 1,
                    out_right: 2,
                },
                Step::Free { slot: 0 },
                Step::Free { slot: 1 },
                Step::Free { slot: 2 },
            ],
        );
        // Only the unsorted side fires.
        assert_eq!(rules(&v), vec!["GL403"]);
    }

    #[test]
    fn a_write_after_free_is_gl406() {
        let v = view(
            &[("t.a", F64)],
            &[("ids", dev(U32, true))],
            vec![
                select(base("t.a"), 0),
                Step::Free { slot: 0 },
                select(base("t.a"), 0),
                Step::Free { slot: 0 },
            ],
        );
        let d = lint_physical_plan(&v);
        assert_eq!(rules(&v), vec!["GL406"], "{d:?}");
        assert_eq!(d[0].events, vec![2]);
        assert!(d[0].message.contains("step #1 freed"), "{}", d[0].message);
    }
}
