//! The cross-operator fusion IR and its composed (unfused) reference
//! realisation.
//!
//! A [`FusedExpr`] is a small per-row expression program over a fused
//! step's input columns — exactly the element-wise vocabulary the
//! planner's unfused lowering emits as separate
//! [`crate::physical::Step`]s (`Affine`, `Product`, `DenseMask`), closed
//! under composition. Two fused kernel shapes consume it:
//!
//! * [`GpuBackend::fused_map`] — evaluate the expression once per row
//!   into a fresh `f64` column (a fused element-wise chain);
//! * [`GpuBackend::fused_filter_agg`] — `SUM(expr(row)) WHERE preds`,
//!   the general form of the Q6 `filter_sum_product` fast path with an
//!   arbitrary value expression.
//!
//! The trait defaults here *compose* the ordinary library operators in
//! exactly the order the unfused plan would run them, so a fused step is
//! **bit-equal to the unfused chain by construction**: per element, the
//! same `f64` operations execute in the same order
//! ([`FusedExpr::eval_row`] mirrors `dense_mask`/`affine`/`product`
//! semantics verbatim), and every backend's reduction is a sequential
//! left fold from `+0.0`. Backends override the two methods with genuine
//! single-pass kernels (handwritten), `transform_reduce` over a zip
//! iterator (Thrust / Boost.Compute), or the lazy JIT DAG (ArrayFire).
//!
//! The composed forms are also exposed as free functions
//! (`composed_map` / `composed_filter_agg`) — the physical executor
//! routes *small* inputs through them (the size-adaptive threshold
//! dispatch; see `DESIGN.md` §8 and the E20 calibration bench), since
//! below the break-even the fused single pass loses to the pipelined
//! chain.

use crate::backend::{Col, GpuBackend, Pred};
use crate::ops::{CmpOp, Connective};
use gpu_sim::hostexec::expr::{BinaryOp, Instr, Program};
use gpu_sim::hostexec::{Lane, Rhs, RowPred};
use gpu_sim::{Result, SimError};

/// Per-row value expression over a fused step's input columns.
///
/// Leaves index the step's `inputs` list. The operator set is closed
/// over what the unfused lowering emits: `Affine` covers every
/// column-op-literal shape (the planner's constant folding), `Mul` the
/// column product, `Mask` the dense 0/1 CASE indicator.
#[derive(Debug, Clone, PartialEq)]
pub enum FusedExpr {
    /// Input column `i` (index into the step's input list).
    Col(usize),
    /// `eval(input) * mul + add` — one fused multiply-add, exactly the
    /// `affine` operator applied per row.
    Affine {
        /// Operand expression.
        input: Box<FusedExpr>,
        /// Multiplier.
        mul: f64,
        /// Addend.
        add: f64,
    },
    /// `eval(a) * eval(b)` — the `product` operator applied per row.
    Mul(Box<FusedExpr>, Box<FusedExpr>),
    /// `if cmp(eval(input), lit) { 1.0 } else { 0.0 }` — the
    /// `dense_mask` operator applied per row.
    Mask {
        /// Operand expression (usually a bare `Col`).
        input: Box<FusedExpr>,
        /// Comparison operator.
        cmp: CmpOp,
        /// Literal to compare against.
        lit: f64,
    },
}

impl FusedExpr {
    /// Number of operator nodes (leaves are free): the per-row flop count
    /// and the number of unfused steps this expression replaces.
    pub fn op_count(&self) -> usize {
        match self {
            FusedExpr::Col(_) => 0,
            FusedExpr::Affine { input, .. } | FusedExpr::Mask { input, .. } => 1 + input.op_count(),
            FusedExpr::Mul(a, b) => 1 + a.op_count() + b.op_count(),
        }
    }

    /// Largest input index referenced, or `None` for a constant-free
    /// leafless expression (impossible today — every variant bottoms out
    /// in `Col`).
    fn max_input(&self) -> Option<usize> {
        match self {
            FusedExpr::Col(i) => Some(*i),
            FusedExpr::Affine { input, .. } | FusedExpr::Mask { input, .. } => input.max_input(),
            FusedExpr::Mul(a, b) => match (a.max_input(), b.max_input()) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            },
        }
    }

    /// Collect every input index read, in first-use order.
    pub(crate) fn collect_inputs(&self, out: &mut Vec<usize>) {
        match self {
            FusedExpr::Col(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            FusedExpr::Affine { input, .. } | FusedExpr::Mask { input, .. } => {
                input.collect_inputs(out)
            }
            FusedExpr::Mul(a, b) => {
                a.collect_inputs(out);
                b.collect_inputs(out);
            }
        }
    }

    /// Evaluate one row given a closure resolving input index → value.
    /// This is the reference semantics every fused kernel reproduces:
    /// the same `f64` op per node as the unfused operator it replaces.
    pub fn eval_row(&self, col: &impl Fn(usize) -> f64) -> f64 {
        match self {
            FusedExpr::Col(i) => col(*i),
            FusedExpr::Affine { input, mul, add } => input.eval_row(col) * mul + add,
            FusedExpr::Mul(a, b) => a.eval_row(col) * b.eval_row(col),
            FusedExpr::Mask { input, cmp, lit } => f64::from(cmp.eval(input.eval_row(col), *lit)),
        }
    }

    /// Compile to the host expression engine's post-order program, input
    /// `i` read from leaf slot `i`: `Affine` is a scalar multiply then a
    /// scalar add (two roundings, as [`FusedExpr::eval_row`] computes it),
    /// `Mask` a scalar comparison, `Mul` the binary product. Every fused
    /// kernel body runs this program; `eval_row` is the reference it is
    /// tested against.
    pub fn compile(&self) -> Program {
        fn emit(e: &FusedExpr, out: &mut Vec<Instr>) {
            match e {
                FusedExpr::Col(i) => out.push(Instr::Load(*i)),
                FusedExpr::Affine { input, mul, add } => {
                    emit(input, out);
                    out.push(Instr::ScalarRhs(BinaryOp::Mul, *mul));
                    out.push(Instr::ScalarRhs(BinaryOp::Add, *add));
                }
                FusedExpr::Mul(a, b) => {
                    emit(a, out);
                    emit(b, out);
                    out.push(Instr::Binary(BinaryOp::Mul));
                }
                FusedExpr::Mask { input, cmp, lit } => {
                    emit(input, out);
                    let op = match cmp {
                        CmpOp::Lt => BinaryOp::Lt,
                        CmpOp::Le => BinaryOp::Le,
                        CmpOp::Gt => BinaryOp::Gt,
                        CmpOp::Ge => BinaryOp::Ge,
                        CmpOp::Eq => BinaryOp::Eq,
                        CmpOp::Ne => BinaryOp::Ne,
                    };
                    out.push(Instr::ScalarRhs(op, *lit));
                }
            }
        }
        let mut instrs = Vec::new();
        emit(self, &mut instrs);
        Program::new(instrs)
    }

    /// Inputs read *arithmetically* — anywhere except as the bare column
    /// under a `Mask` comparison. The composed realisation runs
    /// `affine`/`product` on these, which require `f64` columns, so
    /// fused kernels enforce the same rule and both dispatch paths
    /// accept exactly the same plans.
    pub(crate) fn arith_inputs(&self) -> Vec<usize> {
        fn walk(e: &FusedExpr, out: &mut Vec<usize>) {
            match e {
                FusedExpr::Col(i) => {
                    if !out.contains(i) {
                        out.push(*i);
                    }
                }
                FusedExpr::Affine { input, .. } => walk(input, out),
                FusedExpr::Mul(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                FusedExpr::Mask { input, .. } => {
                    // A bare column under a comparison may be any dtype
                    // (`dense_mask` reads it in place); composite mask
                    // operands are ordinary arithmetic.
                    if !matches!(input.as_ref(), FusedExpr::Col(_)) {
                        walk(input, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Render for `explain()` output, with inputs shown through `leaf`.
    pub fn render(&self, leaf: &impl Fn(usize) -> String) -> String {
        match self {
            FusedExpr::Col(i) => leaf(*i),
            FusedExpr::Affine { input, mul, add } => {
                format!("({} * {mul} + {add})", input.render(leaf))
            }
            FusedExpr::Mul(a, b) => format!("({} * {})", a.render(leaf), b.render(leaf)),
            FusedExpr::Mask { input, cmp, lit } => {
                format!("mask({} {cmp:?} {lit})", input.render(leaf))
            }
        }
    }
}

/// One fused-selection predicate: `inputs[input] CMP lit`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedPred {
    /// Input column index.
    pub input: usize,
    /// Comparison operator.
    pub cmp: CmpOp,
    /// Literal to compare against.
    pub lit: f64,
}

impl FusedPred {
    /// The predicate over `lanes`, a fused step's input columns read in
    /// place.
    pub(crate) fn row_pred<'a>(&self, lanes: &[Lane<'a>]) -> RowPred<'a> {
        RowPred {
            col: lanes[self.input],
            cmp: self.cmp.into(),
            rhs: Rhs::Lit(self.lit),
        }
    }
}

fn input<'a>(inputs: &[&'a Col], i: usize) -> Result<&'a Col> {
    inputs.get(i).copied().ok_or_else(|| {
        SimError::Unsupported(format!(
            "fused expression reads input {i} but only {} are bound",
            inputs.len()
        ))
    })
}

/// Validate a fused kernel's operands exactly like the composed chain
/// would: every referenced input bound, all inputs the same length, and
/// arithmetic reads `f64` (the `affine`/`product` dtype rule). Returns the
/// row count. Backend overrides call this before touching device storage,
/// and read every input through their owner-checked accessor, so fused
/// and composed dispatch reject exactly the same plans.
pub(crate) fn check_fused_inputs(
    inputs: &[&Col],
    preds: &[FusedPred],
    expr: &FusedExpr,
) -> Result<usize> {
    if let Some(m) = expr.max_input() {
        input(inputs, m)?;
    }
    for p in preds {
        input(inputs, p.input)?;
    }
    let len = inputs.first().map_or(0, |c| c.len());
    for c in inputs {
        if c.len() != len {
            return Err(SimError::SizeMismatch {
                left: len,
                right: c.len(),
            });
        }
    }
    for i in expr.arith_inputs() {
        crate::backend::check_dtype(input(inputs, i)?, crate::backend::ColType::F64)?;
    }
    Ok(len)
}

/// Evaluation result while composing: either a borrowed input column or
/// an operator-produced temporary, freed when it drops.
enum Val<'a> {
    Borrowed(&'a Col),
    Owned(Col),
}

impl Val<'_> {
    fn col(&self) -> &Col {
        match self {
            Val::Borrowed(c) => c,
            Val::Owned(c) => c,
        }
    }
}

/// Evaluate `expr` over `inputs` by composing the ordinary library
/// operators, post-order — the exact call sequence the unfused plan
/// would make for this chain. A node's operands drop as soon as its
/// operator returns, whether or not it succeeds, so a refused chain
/// leaves nothing behind.
fn composed_expr<'a, B: GpuBackend + ?Sized>(
    b: &B,
    inputs: &[&'a Col],
    expr: &FusedExpr,
) -> Result<Val<'a>> {
    Ok(match expr {
        FusedExpr::Col(i) => Val::Borrowed(input(inputs, *i)?),
        FusedExpr::Affine { input: e, mul, add } => {
            let v = composed_expr(b, inputs, e)?;
            Val::Owned(b.affine(v.col(), *mul, *add)?)
        }
        FusedExpr::Mul(x, y) => {
            let vx = composed_expr(b, inputs, x)?;
            let vy = composed_expr(b, inputs, y)?;
            let out = b.product(vx.col(), vy.col());
            drop((vx, vy));
            Val::Owned(out?)
        }
        FusedExpr::Mask { input: e, cmp, lit } => {
            let v = composed_expr(b, inputs, e)?;
            Val::Owned(b.dense_mask(v.col(), *cmp, *lit)?)
        }
    })
}

/// The composed (unfused) realisation of [`GpuBackend::fused_map`]:
/// the element-wise operator chain, one library call per node.
pub(crate) fn composed_map_impl<B: GpuBackend + ?Sized>(
    b: &B,
    inputs: &[&Col],
    expr: &FusedExpr,
) -> Result<Col> {
    match composed_expr(b, inputs, expr)? {
        Val::Owned(c) => Ok(c),
        // A bare `Col(i)` chain: copy via the identity affine so the
        // caller always owns the result.
        Val::Borrowed(c) => b.affine(c, 1.0, 0.0),
    }
}

/// The composed (unfused) realisation of
/// [`GpuBackend::fused_filter_agg`]: multi-predicate selection, one
/// gather per distinct input the expression reads, the element-wise
/// chain over the gathered columns, then a reduction — the same
/// pipeline (and the same per-element `f64` ops, in the same order) as
/// the unfused plan, so results are bit-equal.
pub(crate) fn composed_filter_agg_impl<B: GpuBackend + ?Sized>(
    b: &B,
    inputs: &[&Col],
    preds: &[FusedPred],
    expr: &FusedExpr,
) -> Result<f64> {
    let sum = |views: &[&Col]| composed_expr(b, views, expr).and_then(|v| b.reduction(v.col()));
    if preds.is_empty() {
        return sum(inputs);
    }
    let plain: Vec<Pred<'_>> = preds
        .iter()
        .map(|p| {
            Ok(Pred {
                col: input(inputs, p.input)?,
                cmp: p.cmp,
                lit: p.lit,
            })
        })
        .collect::<Result<_>>()?;
    let ids = b.selection_multi(&plain, Connective::And)?;
    // Gather each input the value expression reads, then evaluate the
    // chain over the compacted columns. The gathered columns drop in
    // order, then the row ids.
    let mut used = Vec::new();
    expr.collect_inputs(&mut used);
    let gathered = used
        .iter()
        .map(|&i| Ok((i, b.gather(input(inputs, i)?, &ids)?)))
        .collect::<Result<Vec<(usize, Col)>>>()?;
    let views: Vec<&Col> = (0..inputs.len())
        .map(|i| {
            gathered
                .iter()
                .find(|(j, _)| *j == i)
                .map(|(_, g)| g)
                .unwrap_or(inputs[i])
        })
        .collect();
    sum(&views)
}

/// The composed (unfused) map realisation over a trait object — the
/// physical executor's below-threshold dispatch target.
pub(crate) fn composed_map(b: &dyn GpuBackend, inputs: &[&Col], expr: &FusedExpr) -> Result<Col> {
    composed_map_impl(b, inputs, expr)
}

/// The composed (unfused) filter+aggregate realisation over a trait
/// object — the physical executor's below-threshold dispatch target.
pub(crate) fn composed_filter_agg(
    b: &dyn GpuBackend,
    inputs: &[&Col],
    preds: &[FusedPred],
    expr: &FusedExpr,
) -> Result<f64> {
    composed_filter_agg_impl(b, inputs, preds, expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize) -> FusedExpr {
        FusedExpr::Col(i)
    }

    #[test]
    fn op_count_and_inputs() {
        let e = FusedExpr::Mul(
            Box::new(col(0)),
            Box::new(FusedExpr::Affine {
                input: Box::new(col(1)),
                mul: -1.0,
                add: 1.0,
            }),
        );
        assert_eq!(e.op_count(), 2);
        assert_eq!(e.max_input(), Some(1));
        let mut used = Vec::new();
        e.collect_inputs(&mut used);
        assert_eq!(used, vec![0, 1]);
    }

    #[test]
    fn eval_row_matches_the_operator_semantics() {
        // price * (1 - disc), with a mask thrown in: mask(q < 24) * price
        let vals = [100.0f64, 0.06, 23.0];
        let at = |i: usize| vals[i];
        let disc_price = FusedExpr::Mul(
            Box::new(col(0)),
            Box::new(FusedExpr::Affine {
                input: Box::new(col(1)),
                mul: -1.0,
                add: 1.0,
            }),
        );
        // Spelled `x * mul + add`, the affine node's own evaluation order
        // (bit-equality is the claim; `1.0 - 0.06` rounds the same here
        // but says less).
        #[allow(clippy::neg_multiply)]
        let want = 100.0 * (0.06 * -1.0 + 1.0);
        assert_eq!(disc_price.eval_row(&at), want);
        let masked = FusedExpr::Mul(
            Box::new(FusedExpr::Mask {
                input: Box::new(col(2)),
                cmp: CmpOp::Lt,
                lit: 24.0,
            }),
            Box::new(col(0)),
        );
        assert_eq!(masked.eval_row(&at), 100.0);
    }

    /// A random expression of at most `depth` operator levels over three
    /// inputs, literals drawn from the values that break arithmetic.
    fn random_expr(rng: &mut impl rand::Rng, depth: u32) -> FusedExpr {
        const LITS: [f64; 7] = [
            2.5,
            -1.0,
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        const CMPS: [CmpOp; 6] = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        let mut lit = || LITS[rng.gen::<usize>() % LITS.len()];
        let (mul, add, cmp_lit) = (lit(), lit(), lit());
        let shape = if depth == 0 { 0 } else { rng.gen::<u32>() % 4 };
        let mut sub = || Box::new(random_expr(rng, depth - 1));
        match shape {
            0 => col(rng.gen::<usize>() % 3),
            1 => FusedExpr::Affine {
                input: sub(),
                mul,
                add,
            },
            2 => FusedExpr::Mul(sub(), sub()),
            _ => FusedExpr::Mask {
                input: sub(),
                cmp: CMPS[rng.gen::<usize>() % 6],
                lit: cmp_lit,
            },
        }
    }

    /// Every shape `eval_row` accepts compiles, and the engine's column is
    /// `eval_row`'s row by row — the contract every fused kernel body rests
    /// on.
    #[test]
    fn compiled_programs_agree_with_eval_row() {
        use gpu_sim::hostexec::expr::{self, Leaf};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300];
        let n = 3000;
        let mut column = |scale: f64| -> Vec<f64> {
            (0..n)
                .map(|i| match i % 5 {
                    0 => specials[rng.gen::<usize>() % specials.len()],
                    _ => (rng.gen::<f64>() - 0.5) * scale,
                })
                .collect()
        };
        let (a, b) = (column(1e3), column(2.0));
        let keys: Vec<u32> = (0..n as u32)
            .map(|i| [0, u32::MAX, 7][i as usize % 3] ^ (i % 4))
            .collect();
        let leaves = [Leaf::F64(&a), Leaf::F64(&b), Leaf::U32(&keys)];
        let mut shapes = vec![col(2), random_expr(&mut rng, 1)];
        shapes.extend((0..200).map(|i| random_expr(&mut rng, 1 + i % 5)));
        for e in &shapes {
            let got: Vec<f64> = expr::map(&e.compile(), &leaves, n);
            for (row, got) in got.into_iter().enumerate() {
                let want = e.eval_row(&|i| [a[row], b[row], f64::from(keys[row])][i]);
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "row {row} of {e:?}: {got} != {want}"
                );
            }
        }
    }

    #[test]
    fn row_preds_read_the_named_input() {
        let (a, keys) = ([1.0, 2.0], [5u32, 6]);
        let lanes = [Lane::F64(&a), Lane::U32(&keys)];
        let p = FusedPred {
            input: 1,
            cmp: CmpOp::Ge,
            lit: 6.0,
        };
        let got = gpu_sim::hostexec::select_rows(&[p.row_pred(&lanes)], true);
        assert_eq!(got.ids, [1]);
    }

    #[test]
    fn render_is_readable() {
        let e = FusedExpr::Mask {
            input: Box::new(col(0)),
            cmp: CmpOp::Ge,
            lit: 5.0,
        };
        assert_eq!(e.render(&|i| format!("%{i}")), "mask(%0 Ge 5)");
    }
}
