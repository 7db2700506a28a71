//! Program verifier: abstract interpretation of a compiled
//! [`arrayfire_sim::ProgramSpec`]'s stack machine.
//!
//! Instead of values, the interpreter pushes abstract dtypes
//! (`AbstractTy`) and tracks the producing instruction index, which
//! lets it report *where* an imbalance or mismatch originates. Checks:
//! stack underflow / non-singleton final stack (GL201), loads of slots
//! outside the leaf table (GL202), logical operators over operands that
//! are definitely numeric (GL203), leaf slots bound but never loaded —
//! dead subexpressions whose host conversion is wasted work (GL204) —
//! and a true maximum depth above what the executor reserves (GL205).
//!
//! The abstract dtype is the type the value has in the generated kernel:
//! loads push the leaf's declared [`DType`], arithmetic (and `Select`)
//! widens to `f64`, comparisons and `And`/`Or`/`Not` produce `b8` masks,
//! and a cast adopts its target. (The host engine holds every one of them
//! in an `f64` register — masks as exactly 0 / 1.) The only mismatch that
//! changes semantics is feeding a non-mask into `And`/`Or`/`Not`, which on
//! real ArrayFire silently reinterprets nonzero-ness; the check names the
//! concrete offending dtype.

use crate::diag::{Diagnostic, Rule};
use arrayfire_sim::{BinaryOp, DType, ProgramSpec, UnaryOp};
use gpu_sim::hostexec::expr::{Cast, Instr};

/// Abstract stack dtype — the type of the value in the generated kernel.
type AbstractTy = DType;

fn binary_is_logical(op: BinaryOp) -> bool {
    matches!(op, BinaryOp::And | BinaryOp::Or)
}

fn binary_result(op: BinaryOp) -> AbstractTy {
    match op {
        BinaryOp::And
        | BinaryOp::Or
        | BinaryOp::Lt
        | BinaryOp::Le
        | BinaryOp::Gt
        | BinaryOp::Ge
        | BinaryOp::Eq
        | BinaryOp::Ne => DType::B8,
        BinaryOp::Add
        | BinaryOp::Sub
        | BinaryOp::Mul
        | BinaryOp::Div
        | BinaryOp::Min
        | BinaryOp::Max
        | BinaryOp::Select => DType::F64,
    }
}

/// Verify one compiled program spec.
pub(crate) fn lint_program(spec: &ProgramSpec) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // (type, producing instruction index)
    let mut stack: Vec<(AbstractTy, usize)> = Vec::new();
    let mut max_depth = 0usize;
    let mut loaded = vec![false; spec.leaf_dtypes.len()];

    let check_logical = |diags: &mut Vec<Diagnostic>, i: usize, operand: (AbstractTy, usize)| {
        if operand.0 != DType::B8 {
            diags.push(Diagnostic::new(
                Rule::DtypeMismatch,
                vec![operand.1, i],
                format!(
                    "logical operator at #{i} consumes a {} lane from #{}",
                    operand.0.name(),
                    operand.1
                ),
            ));
        }
    };

    for (i, instr) in spec.instrs.iter().enumerate() {
        let pops = match instr {
            Instr::Load(_) => 0,
            Instr::Binary(_) => 2,
            _ => 1,
        };
        let Some(base) = stack.len().checked_sub(pops) else {
            diags.push(Diagnostic::new(
                Rule::StackImbalance,
                vec![i],
                format!(
                    "instruction #{i} pops {pops} value(s) but the stack holds {}",
                    stack.len()
                ),
            ));
            return diags; // everything after an underflow is garbage
        };
        // The instruction's operands, bottom (left-hand) first.
        let operands = stack.split_off(base);
        match instr {
            Instr::Load(slot) => {
                let ty = match spec.leaf_dtypes.get(*slot) {
                    Some(&dt) => {
                        loaded[*slot] = true;
                        dt
                    }
                    None => {
                        diags.push(Diagnostic::new(
                            Rule::UnboundLeaf,
                            vec![i],
                            format!(
                                "load of leaf slot {slot}, but the table binds only {}",
                                spec.leaf_dtypes.len()
                            ),
                        ));
                        DType::F64
                    }
                };
                stack.push((ty, i));
            }
            Instr::Unary(UnaryOp::Not) => {
                for &operand in &operands {
                    check_logical(&mut diags, i, operand);
                }
                stack.push((DType::B8, i));
            }
            Instr::Unary(UnaryOp::Neg | UnaryOp::Abs) => stack.push((DType::F64, i)),
            Instr::Binary(op) | Instr::ScalarRhs(op, _) | Instr::ScalarLhs(op, _) => {
                if binary_is_logical(*op) {
                    for &operand in &operands {
                        check_logical(&mut diags, i, operand);
                    }
                }
                stack.push((binary_result(*op), i));
            }
            Instr::Cast(to) => stack.push((
                match to {
                    Cast::F64 => DType::F64,
                    Cast::U32 => DType::U32,
                    Cast::B8 => DType::B8,
                },
                i,
            )),
        }
        max_depth = max_depth.max(stack.len());
    }

    if stack.len() != 1 {
        let producers: Vec<usize> = stack.iter().map(|&(_, i)| i).collect();
        diags.push(Diagnostic::new(
            Rule::StackImbalance,
            producers,
            format!(
                "program ends with {} value(s) on the stack, expected exactly 1",
                stack.len()
            ),
        ));
    }
    if max_depth > spec.declared_stack_depth {
        diags.push(Diagnostic::new(
            Rule::StackDepthExceeded,
            vec![],
            format!(
                "true stack depth {max_depth} exceeds the declared reserve of {}",
                spec.declared_stack_depth
            ),
        ));
    }
    for (slot, was_loaded) in loaded.iter().enumerate() {
        if !was_loaded {
            diags.push(Diagnostic::new(
                Rule::DeadLeaf,
                vec![slot],
                format!("leaf slot {slot} is bound but never loaded (dead subexpression)"),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(instrs: Vec<Instr>, leaves: Vec<DType>, depth: usize) -> ProgramSpec {
        ProgramSpec {
            instrs,
            leaf_dtypes: leaves,
            declared_stack_depth: depth,
        }
    }

    fn rules(spec: &ProgramSpec) -> Vec<&'static str> {
        lint_program(spec).iter().map(|d| d.rule.id()).collect()
    }

    #[test]
    fn underflow_is_caught_and_analysis_stops() {
        let p = spec(vec![Instr::Binary(BinaryOp::Add)], vec![DType::F64], 4);
        assert_eq!(rules(&p), vec!["GL201"]);
    }

    #[test]
    fn not_over_numeric_warns_but_comparisons_launder() {
        let clean = spec(
            vec![
                Instr::Load(0),
                Instr::ScalarRhs(BinaryOp::Gt, 0.0),
                Instr::Unary(UnaryOp::Not),
            ],
            vec![DType::F64],
            4,
        );
        assert!(rules(&clean).is_empty());
        let dirty = spec(
            vec![Instr::Load(0), Instr::Unary(UnaryOp::Not)],
            vec![DType::F64],
            4,
        );
        assert_eq!(rules(&dirty), vec!["GL203"]);
    }

    /// The abstract dtypes track the typed-lane executor: integer
    /// leaves keep their native dtype (and are named in GL203
    /// messages), while a `Cast` to b8 launders any lane for logical
    /// use.
    #[test]
    fn typed_lanes_name_concrete_dtypes_and_casts_launder() {
        let dirty = spec(
            vec![Instr::Load(0), Instr::Unary(UnaryOp::Not)],
            vec![DType::U32],
            4,
        );
        let d = lint_program(&dirty);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule.id(), "GL203");
        assert!(d[0].message.contains("u32 lane"), "{}", d[0].message);

        let clean = spec(
            vec![
                Instr::Load(0),
                Instr::Cast(Cast::B8),
                Instr::Load(1),
                Instr::Binary(BinaryOp::And),
            ],
            vec![DType::U32, DType::B8],
            4,
        );
        assert!(rules(&clean).is_empty(), "{:?}", lint_program(&clean));
    }
}
