//! Compiled evaluation of the lazy expression DAG.
//!
//! [`Array::eval`](crate::Array::eval) used to interpret its tree with a
//! per-element recursive walk ([`Node::eval_at`]) — one tree traversal and
//! one leaf-lane lookup *per element per leaf*. This module compiles the
//! tree once per evaluation into a flat post-order [`Program`] (a stack
//! machine over **typed** lane buffers) and executes it op-at-a-time over
//! fixed-size chunks: every instruction streams through a cache-resident
//! lane and leaf ids are resolved to dense slot indices at compile time.
//!
//! Lanes carry their native width end to end: integer leaf columns load
//! without an up-front whole-column `f64` materialisation, comparisons
//! and `And`/`Or`/`Not` produce one-byte `b8` masks, and a trailing
//! `Cast` stores its native type — so an integer-keyed pipeline never
//! round-trips through an `f64` buffer ([`Program::eval_into`] hands the
//! result to [`ColumnData`] in the output dtype directly). *Arithmetic*
//! is still `f64` exactly as the recursive interpreter's: a lane's
//! observable value (`Lane::get`) widens precisely the way
//! [`Node::lanes`] widened the leaf, and the instruction order is the
//! same post-order, so every element sees the identical sequence of
//! `f64` operations and results are bit-for-bit those of `eval_at`.
//!
//! Execution splits across host threads at fixed chunk granularity
//! ([`gpu_sim::hostexec::par_map_chunks`]) — chunk boundaries don't
//! depend on thread count, so results are deterministic at any
//! parallelism. Simulated time is charged by the caller exactly as
//! before — compilation here is pure host-side mechanics, not the
//! modelled JIT (which `crate::array::Backend::ensure_jit` accounts
//! separately).

use crate::dtype::{ColumnData, DType};
use crate::node::{BinaryOp, Node, UnaryOp};
use gpu_sim::Reservation;
use std::collections::HashMap;
use std::sync::Arc;

/// Elements processed per inner lane: small enough that a handful of lane
/// buffers stay cache-resident, large enough to amortise dispatch.
const LANE: usize = 2048;

/// Analysis-friendly mirror of one [`Program`] instruction, exposed for
/// static verification (`gpu-lint`'s Program pass). Carries the operator
/// identity but not the execution plumbing, so checkers can abstractly
/// interpret stack effects and dtypes without access to column data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstrSpec {
    /// Push leaf slot `slot`'s lane.
    Load {
        /// Index into the program's leaf table.
        slot: usize,
    },
    /// Apply a unary op to the top of stack.
    Unary {
        /// The operator.
        op: UnaryOp,
    },
    /// Pop the right operand, apply to the left in place.
    Binary {
        /// The operator.
        op: BinaryOp,
    },
    /// Top-of-stack `op` scalar constant.
    ScalarRhs {
        /// The operator.
        op: BinaryOp,
    },
    /// Scalar constant `op` top-of-stack.
    ScalarLhs {
        /// The operator.
        op: BinaryOp,
    },
    /// Dtype-cast the top of stack.
    Cast {
        /// Target dtype.
        dtype: DType,
    },
}

impl InstrSpec {
    /// Net stack effect: pushes minus pops.
    pub fn stack_effect(&self) -> isize {
        match self {
            InstrSpec::Load { .. } => 1,
            InstrSpec::Binary { .. } => -1,
            _ => 0,
        }
    }

    /// Operands consumed from the stack before any push.
    pub fn pops(&self) -> usize {
        match self {
            InstrSpec::Load { .. } => 0,
            InstrSpec::Binary { .. } => 2,
            _ => 1,
        }
    }
}

/// Public description of a compiled [`Program`]: the instruction list plus
/// the leaf table's dtypes and the stack depth the executor will reserve.
/// Produced by [`Program::spec`]; checkers (and hazard-injection tests)
/// can also build one directly since all fields are public.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// Post-order instruction list.
    pub instrs: Vec<InstrSpec>,
    /// Dtype of each leaf slot (`InstrSpec::Load` indexes this).
    pub leaf_dtypes: Vec<DType>,
    /// Stack depth the executor allocates; must cover the true maximum.
    pub declared_stack_depth: usize,
}

impl ProgramSpec {
    /// Check the structural invariants `Program::compile` guarantees:
    /// every `Load` slot is bound, no instruction underflows the stack,
    /// exactly one value remains at the end, and the declared stack depth
    /// covers the true maximum. Returns a description of the first
    /// violation. This is the cheap self-check behind the `debug_assert!`
    /// in [`Program::compile`]; `gpu-lint` layers rule ids, spans and
    /// dtype analysis on top.
    pub fn well_formed(&self) -> std::result::Result<(), String> {
        let mut depth = 0usize;
        let mut max_depth = 0usize;
        for (i, instr) in self.instrs.iter().enumerate() {
            if let InstrSpec::Load { slot } = instr {
                if *slot >= self.leaf_dtypes.len() {
                    return Err(format!(
                        "instr {i}: load of unbound leaf slot {slot} ({} bound)",
                        self.leaf_dtypes.len()
                    ));
                }
            }
            if depth < instr.pops() {
                return Err(format!(
                    "instr {i}: {instr:?} pops {} with stack depth {depth}",
                    instr.pops()
                ));
            }
            depth = (depth as isize + instr.stack_effect()) as usize;
            max_depth = max_depth.max(depth);
        }
        if depth != 1 {
            return Err(format!(
                "program leaves {depth} values on the stack (want exactly 1)"
            ));
        }
        if max_depth > self.declared_stack_depth {
            return Err(format!(
                "true stack depth {max_depth} exceeds declared {}",
                self.declared_stack_depth
            ));
        }
        Ok(())
    }
}

/// One stack-machine instruction of a compiled tree.
enum Instr {
    /// Push leaf slot `n`'s lane.
    Load(usize),
    /// Apply a unary op to the top of stack.
    Unary(UnaryOp),
    /// Pop the right operand, apply to the left in place.
    Binary(BinaryOp),
    /// Top-of-stack `op` scalar.
    ScalarRhs(BinaryOp, f64),
    /// Scalar `op` top-of-stack.
    ScalarLhs(BinaryOp, f64),
    /// Dtype-cast the top of stack.
    Cast(DType),
}

/// A lazy tree compiled to a flat post-order program.
///
/// `Debug` summarizes shape only (instruction/leaf counts); use
/// [`Program::spec`] for a structural view.
pub struct Program {
    instrs: Vec<Instr>,
    /// Distinct leaf columns in slot order (`Instr::Load` indexes this).
    leaves: Vec<Arc<ColumnData>>,
    stack_depth: usize,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("instrs", &self.instrs.len())
            .field("leaves", &self.leaves.len())
            .field("stack_depth", &self.stack_depth)
            .finish()
    }
}

impl Program {
    /// Compile `root` into a post-order instruction list, resolving each
    /// distinct leaf id to a dense slot.
    pub fn compile(root: &Node) -> Program {
        let mut prog = Program {
            instrs: Vec::new(),
            leaves: Vec::new(),
            stack_depth: 0,
        };
        let mut slots: HashMap<u64, usize> = HashMap::new();
        let mut cur = 0usize;
        prog.emit(root, &mut slots, &mut cur);
        debug_assert!(
            matches!(prog.spec().well_formed(), Ok(())),
            "Program::compile produced an ill-formed program: {}",
            prog.spec().well_formed().unwrap_err()
        );
        prog
    }

    /// Analysis view of this program (see [`ProgramSpec`]).
    pub fn spec(&self) -> ProgramSpec {
        ProgramSpec {
            instrs: self
                .instrs
                .iter()
                .map(|i| match i {
                    Instr::Load(slot) => InstrSpec::Load { slot: *slot },
                    Instr::Unary(op) => InstrSpec::Unary { op: *op },
                    Instr::Binary(op) => InstrSpec::Binary { op: *op },
                    Instr::ScalarRhs(op, _) => InstrSpec::ScalarRhs { op: *op },
                    Instr::ScalarLhs(op, _) => InstrSpec::ScalarLhs { op: *op },
                    Instr::Cast(dt) => InstrSpec::Cast { dtype: *dt },
                })
                .collect(),
            leaf_dtypes: self.leaves.iter().map(|c| c.dtype()).collect(),
            declared_stack_depth: self.stack_depth,
        }
    }

    fn emit(&mut self, node: &Node, slots: &mut HashMap<u64, usize>, cur: &mut usize) {
        match node {
            Node::Leaf(id, col) => {
                let slot = *slots.entry(*id).or_insert_with(|| {
                    self.leaves.push(Arc::clone(col));
                    self.leaves.len() - 1
                });
                self.instrs.push(Instr::Load(slot));
                *cur += 1;
                self.stack_depth = self.stack_depth.max(*cur);
            }
            Node::Unary(op, c) => {
                self.emit(c, slots, cur);
                self.instrs.push(Instr::Unary(*op));
            }
            Node::Binary(op, l, r) => {
                self.emit(l, slots, cur);
                self.emit(r, slots, cur);
                self.instrs.push(Instr::Binary(*op));
                *cur -= 1;
            }
            Node::ScalarRhs(op, c, s) => {
                self.emit(c, slots, cur);
                self.instrs.push(Instr::ScalarRhs(*op, s.as_f64()));
            }
            Node::ScalarLhs(op, s, c) => {
                self.emit(c, slots, cur);
                self.instrs.push(Instr::ScalarLhs(*op, s.as_f64()));
            }
            Node::Cast(dt, c) => {
                self.emit(c, slots, cur);
                self.instrs.push(Instr::Cast(*dt));
            }
        }
    }

    /// Execute the program over `len` elements, widening the final lane
    /// to the interpreter's observable `f64` values. Kept for callers and
    /// tests that want the working representation; [`Program::eval_into`]
    /// materialises a typed column without this widening step.
    pub fn eval(&self, len: usize) -> Vec<f64> {
        let views: Vec<LeafView<'_>> = self.leaves.iter().map(LeafView::of).collect();
        let chunks =
            gpu_sim::par_map_chunks(len, 1 << 12, |r| self.eval_range(&views, r, DType::F64));
        let mut out = Vec::with_capacity(len);
        for lane in chunks {
            match lane {
                Lane::F64(v) => out.extend_from_slice(&v),
                _ => unreachable!("eval_range honours the requested f64 accumulator"),
            }
        }
        out
    }

    /// Execute the program and materialise the result directly as a
    /// `dtype` column in `out` (a reservation for `len` elements of
    /// `dtype`) — the native-width path `Array::eval` uses. Each
    /// `LANE` window's typed lane appends straight into a native
    /// accumulator, so an integer result never detours through a
    /// whole-column `f64` buffer. Values are bit-identical to
    /// `fill_from_f64(out, dtype, self.eval(len))`.
    pub fn eval_into(&self, out: Reservation, dtype: DType, len: usize) -> ColumnData {
        let views: Vec<LeafView<'_>> = self.leaves.iter().map(LeafView::of).collect();
        let chunks = gpu_sim::par_map_chunks(len, 1 << 12, |r| self.eval_range(&views, r, dtype));
        macro_rules! assemble {
            ($variant:ident) => {{
                let mut v = Vec::with_capacity(len);
                for lane in chunks {
                    match lane {
                        Lane::$variant(c) => v.extend_from_slice(&c),
                        _ => unreachable!("eval_range honours the requested accumulator dtype"),
                    }
                }
                ColumnData::$variant(out.into_buffer(v))
            }};
        }
        match dtype {
            DType::F64 => assemble!(F64),
            DType::U64 => assemble!(U64),
            DType::U32 => assemble!(U32),
            DType::I64 => assemble!(I64),
            DType::B8 => assemble!(B8),
        }
    }

    /// Evaluate one parallel chunk, accumulating the output in `dtype`'s
    /// native representation. Runs the instruction list `LANE` elements
    /// at a time over a typed lane stack.
    fn eval_range(&self, views: &[LeafView<'_>], r: std::ops::Range<usize>, dtype: DType) -> Lane {
        let mut acc = Lane::with_capacity(dtype, r.len());
        let mut start = r.start;
        while start < r.end {
            let w = LANE.min(r.end - start);
            let mut stack: Vec<Lane> = Vec::with_capacity(self.stack_depth);
            for instr in &self.instrs {
                match instr {
                    Instr::Load(slot) => stack.push(views[*slot].load(start, w)),
                    Instr::Unary(op) => {
                        let a = stack.pop().expect("well-formed program");
                        stack.push(unary_lane(*op, a, w));
                    }
                    Instr::Binary(op) => {
                        let rhs = stack.pop().expect("well-formed program");
                        let lhs = stack.pop().expect("well-formed program");
                        stack.push(binary_lane(*op, lhs, &rhs, w));
                    }
                    Instr::ScalarRhs(op, s) => {
                        let a = stack.pop().expect("well-formed program");
                        stack.push(scalar_lane(*op, a, *s, false, w));
                    }
                    Instr::ScalarLhs(op, s) => {
                        let a = stack.pop().expect("well-formed program");
                        stack.push(scalar_lane(*op, a, *s, true, w));
                    }
                    Instr::Cast(dt) => {
                        let a = stack.pop().expect("well-formed program");
                        stack.push(cast_lane(*dt, a, w));
                    }
                }
            }
            acc.append_from(&stack.pop().expect("program yields one lane"), w);
            start += w;
        }
        acc
    }
}

/// One typed working buffer of the stack machine — a `LANE`-wide window
/// of values in their native representation. Arithmetic observes lanes
/// through [`Lane::get`] (the interpreter's `f64` working value), but
/// storage stays native: integer leaves load without conversion,
/// comparisons hold one-byte masks, and a trailing cast keeps its target
/// width all the way into the output column.
enum Lane {
    F64(Vec<f64>),
    U64(Vec<u64>),
    U32(Vec<u32>),
    I64(Vec<i64>),
    B8(Vec<u8>),
}

impl Lane {
    fn with_capacity(dt: DType, cap: usize) -> Lane {
        match dt {
            DType::F64 => Lane::F64(Vec::with_capacity(cap)),
            DType::U64 => Lane::U64(Vec::with_capacity(cap)),
            DType::U32 => Lane::U32(Vec::with_capacity(cap)),
            DType::I64 => Lane::I64(Vec::with_capacity(cap)),
            DType::B8 => Lane::B8(Vec::with_capacity(cap)),
        }
    }

    /// Observable value of element `i` — exactly the `f64` the recursive
    /// interpreter holds at this point (native lanes widen the way
    /// [`ColumnData::to_f64_vec`] widens leaves).
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            Lane::F64(v) => v[i],
            Lane::U64(v) => v[i] as f64,
            Lane::U32(v) => f64::from(v[i]),
            Lane::I64(v) => v[i] as f64,
            Lane::B8(v) => f64::from(v[i]),
        }
    }

    /// Append `w` elements of `lane`, cast to `self`'s representation
    /// with [`column_from_f64`](crate::dtype::column_from_f64)'s rules
    /// applied to the observable values. Same-width fast paths exist only
    /// where they are provably bit-identical to the `f64` detour:
    /// `f64`/`u32` round-trip exactly, `b8` after normalising to 0/1;
    /// 64-bit integers always re-cast because `(x as f64) as u64` is
    /// lossy above 2^53.
    fn append_from(&mut self, lane: &Lane, w: usize) {
        match (self, lane) {
            (Lane::F64(a), Lane::F64(v)) => a.extend_from_slice(&v[..w]),
            (Lane::U32(a), Lane::U32(v)) => a.extend_from_slice(&v[..w]),
            (Lane::B8(a), Lane::B8(v)) => a.extend(v[..w].iter().map(|&x| u8::from(x != 0))),
            (Lane::F64(a), l) => a.extend((0..w).map(|i| l.get(i))),
            (Lane::U64(a), l) => a.extend((0..w).map(|i| l.get(i) as u64)),
            (Lane::U32(a), l) => a.extend((0..w).map(|i| l.get(i) as u32)),
            (Lane::I64(a), l) => a.extend((0..w).map(|i| l.get(i) as i64)),
            (Lane::B8(a), l) => a.extend((0..w).map(|i| u8::from(l.get(i) != 0.0))),
        }
    }
}

/// Borrowed native view of one leaf column; `Load` copies a window of it
/// into a typed lane with no dtype conversion (the old engine converted
/// every leaf to a whole-column `f64` lane up front).
enum LeafView<'a> {
    F64(&'a [f64]),
    U64(&'a [u64]),
    U32(&'a [u32]),
    I64(&'a [i64]),
    B8(&'a [u8]),
}

impl<'a> LeafView<'a> {
    fn of(col: &Arc<ColumnData>) -> LeafView<'_> {
        match col.as_ref() {
            ColumnData::F64(b) => LeafView::F64(b.host()),
            ColumnData::U64(b) => LeafView::U64(b.host()),
            ColumnData::U32(b) => LeafView::U32(b.host()),
            ColumnData::I64(b) => LeafView::I64(b.host()),
            ColumnData::B8(b) => LeafView::B8(b.host()),
        }
    }

    fn load(&self, start: usize, w: usize) -> Lane {
        match self {
            LeafView::F64(s) => Lane::F64(s[start..start + w].to_vec()),
            LeafView::U64(s) => Lane::U64(s[start..start + w].to_vec()),
            LeafView::U32(s) => Lane::U32(s[start..start + w].to_vec()),
            LeafView::I64(s) => Lane::I64(s[start..start + w].to_vec()),
            LeafView::B8(s) => Lane::B8(s[start..start + w].to_vec()),
        }
    }
}

/// Whether `op` produces a boolean mask (stored as a `b8` lane).
fn mask_out(op: BinaryOp) -> bool {
    op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or)
}

fn binary_lane(op: BinaryOp, lhs: Lane, rhs: &Lane, w: usize) -> Lane {
    if mask_out(op) {
        // Comparisons/And/Or yield exactly 0.0 or 1.0, so the byte mask
        // is an exact encoding of the interpreter's working value.
        Lane::B8(
            (0..w)
                .map(|i| u8::from(op.apply(lhs.get(i), rhs.get(i)) != 0.0))
                .collect(),
        )
    } else if let Lane::F64(mut v) = lhs {
        for (i, x) in v[..w].iter_mut().enumerate() {
            *x = op.apply(*x, rhs.get(i));
        }
        Lane::F64(v)
    } else {
        Lane::F64((0..w).map(|i| op.apply(lhs.get(i), rhs.get(i))).collect())
    }
}

fn scalar_lane(op: BinaryOp, lane: Lane, s: f64, scalar_is_lhs: bool, w: usize) -> Lane {
    let ap = |x: f64| {
        if scalar_is_lhs {
            op.apply(s, x)
        } else {
            op.apply(x, s)
        }
    };
    if mask_out(op) {
        Lane::B8((0..w).map(|i| u8::from(ap(lane.get(i)) != 0.0)).collect())
    } else if let Lane::F64(mut v) = lane {
        for x in &mut v[..w] {
            *x = ap(*x);
        }
        Lane::F64(v)
    } else {
        Lane::F64((0..w).map(|i| ap(lane.get(i))).collect())
    }
}

fn unary_lane(op: UnaryOp, lane: Lane, w: usize) -> Lane {
    match op {
        UnaryOp::Not => match lane {
            // `Not` is x == 0.0 on the observable value; for a byte lane
            // that is exactly x == 0.
            Lane::B8(mut v) => {
                for x in &mut v[..w] {
                    *x = u8::from(*x == 0);
                }
                Lane::B8(v)
            }
            l => Lane::B8(
                (0..w)
                    .map(|i| u8::from(op.apply(l.get(i)) != 0.0))
                    .collect(),
            ),
        },
        UnaryOp::Neg | UnaryOp::Abs => {
            if let Lane::F64(mut v) = lane {
                for x in &mut v[..w] {
                    *x = op.apply(*x);
                }
                Lane::F64(v)
            } else {
                Lane::F64((0..w).map(|i| op.apply(lane.get(i))).collect())
            }
        }
    }
}

/// Apply [`Node::eval_at`]'s cast semantics to a lane. `F64`/`U32`/`B8`
/// keep (or adopt) a native representation — at those widths the native
/// value and the interpreter's post-cast `f64` working value are in
/// exact bijection (`b8` after normalising to 0/1). `U64`/`I64` always
/// recompute from the observable `f64`: the interpreter's cast is
/// `(x as u64) as f64`, lossy above 2^53, so a native passthrough (e.g.
/// of a large `u64` leaf) would be *more* precise than `eval_at` and
/// break bit-identity.
fn cast_lane(dt: DType, lane: Lane, w: usize) -> Lane {
    match dt {
        DType::F64 => match lane {
            Lane::F64(v) => Lane::F64(v),
            l => Lane::F64((0..w).map(|i| l.get(i)).collect()),
        },
        DType::U32 => match lane {
            Lane::U32(v) => Lane::U32(v),
            l => Lane::U32((0..w).map(|i| l.get(i) as u32).collect()),
        },
        DType::B8 => match lane {
            Lane::B8(mut v) => {
                for x in &mut v[..w] {
                    *x = u8::from(*x != 0);
                }
                Lane::B8(v)
            }
            l => Lane::B8((0..w).map(|i| u8::from(l.get(i) != 0.0)).collect()),
        },
        DType::U64 => Lane::U64((0..w).map(|i| lane.get(i) as u64).collect()),
        DType::I64 => Lane::I64((0..w).map(|i| lane.get(i) as i64).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::Scalar;
    use gpu_sim::Device;

    fn leaf(id: u64, data: Vec<f64>) -> Arc<Node> {
        let dev = Device::with_defaults();
        Arc::new(Node::Leaf(
            id,
            Arc::new(ColumnData::from_f64(&dev, data).unwrap()),
        ))
    }

    /// The compiled program must agree bit-for-bit with the recursive
    /// interpreter on every node kind, including shared leaves and casts.
    #[test]
    fn program_matches_recursive_interpreter() {
        let n = 10_000;
        let a = leaf(1, (0..n).map(|i| i as f64 * 0.25 - 100.0).collect());
        let b = leaf(2, (0..n).map(|i| ((i * 7) % 23) as f64).collect());
        let tree = Node::Binary(
            BinaryOp::Add,
            Arc::new(Node::Cast(
                DType::U32,
                Arc::new(Node::Binary(
                    BinaryOp::Mul,
                    Arc::new(Node::ScalarRhs(BinaryOp::Max, a.clone(), Scalar::F64(3.5))),
                    Arc::new(Node::Unary(UnaryOp::Abs, b.clone())),
                )),
            )),
            Arc::new(Node::ScalarLhs(BinaryOp::Sub, Scalar::F64(1.0), a.clone())),
        );
        let lanes = tree.lanes();
        let want: Vec<f64> = (0..n).map(|i| tree.eval_at(i, &lanes)).collect();
        let got = Program::compile(&tree).eval(n);
        assert_eq!(got, want);
    }

    #[test]
    fn shared_leaves_resolve_to_one_slot() {
        let a = leaf(7, vec![1.0, 2.0, 3.0]);
        let tree = Node::Binary(BinaryOp::Mul, a.clone(), a.clone());
        let prog = Program::compile(&tree);
        assert_eq!(prog.leaves.len(), 1, "one conversion for a shared leaf");
        assert_eq!(prog.eval(3), vec![1.0, 4.0, 9.0]);
    }

    #[test]
    fn spec_mirrors_instructions_and_passes_self_check() {
        let a = leaf(1, vec![1.0, 2.0]);
        let b = leaf(2, vec![3.0, 4.0]);
        let tree = Node::Cast(
            DType::U32,
            Arc::new(Node::Binary(
                BinaryOp::Add,
                Arc::new(Node::Unary(UnaryOp::Abs, a)),
                Arc::new(Node::ScalarRhs(BinaryOp::Mul, b, Scalar::F64(2.0))),
            )),
        );
        let spec = Program::compile(&tree).spec();
        assert_eq!(
            spec.instrs,
            vec![
                InstrSpec::Load { slot: 0 },
                InstrSpec::Unary { op: UnaryOp::Abs },
                InstrSpec::Load { slot: 1 },
                InstrSpec::ScalarRhs { op: BinaryOp::Mul },
                InstrSpec::Binary { op: BinaryOp::Add },
                InstrSpec::Cast { dtype: DType::U32 },
            ]
        );
        assert_eq!(spec.leaf_dtypes, vec![DType::F64, DType::F64]);
        assert_eq!(spec.declared_stack_depth, 2);
        assert!(spec.well_formed().is_ok());
    }

    #[test]
    fn well_formed_rejects_broken_specs() {
        let ok = ProgramSpec {
            instrs: vec![InstrSpec::Load { slot: 0 }],
            leaf_dtypes: vec![DType::F64],
            declared_stack_depth: 1,
        };
        assert!(ok.well_formed().is_ok());

        let unbound = ProgramSpec {
            instrs: vec![InstrSpec::Load { slot: 3 }],
            ..ok.clone()
        };
        assert!(unbound.well_formed().unwrap_err().contains("unbound"));

        let underflow = ProgramSpec {
            instrs: vec![InstrSpec::Binary { op: BinaryOp::Add }],
            ..ok.clone()
        };
        assert!(underflow.well_formed().unwrap_err().contains("pops"));

        let unbalanced = ProgramSpec {
            instrs: vec![InstrSpec::Load { slot: 0 }, InstrSpec::Load { slot: 0 }],
            ..ok.clone()
        };
        assert!(unbalanced.well_formed().unwrap_err().contains("stack"));

        let shallow = ProgramSpec {
            instrs: vec![
                InstrSpec::Load { slot: 0 },
                InstrSpec::Load { slot: 0 },
                InstrSpec::Binary { op: BinaryOp::Add },
            ],
            declared_stack_depth: 1,
            ..ok
        };
        assert!(shallow.well_formed().unwrap_err().contains("exceeds"));
    }

    /// Integer and boolean leaves run on native lanes; every observable
    /// value must still match the `f64` recursive interpreter bit for
    /// bit — including `u64` keys above 2^53, where the interpreter's
    /// widening is lossy and the typed engine must reproduce the loss.
    #[test]
    fn typed_lanes_match_interpreter_on_integer_leaves() {
        let dev = Device::with_defaults();
        let n = 9_000;
        let keys = Arc::new(Node::Leaf(
            10,
            Arc::new(
                ColumnData::from_u32(&dev, (0..n).map(|i| (i as u32 * 13) % 1009).collect())
                    .unwrap(),
            ),
        ));
        let big = Arc::new(Node::Leaf(
            11,
            Arc::new(
                ColumnData::from_u64(
                    &dev,
                    (0..n).map(|i| (1u64 << 53) + 7 * i as u64 + 3).collect(),
                )
                .unwrap(),
            ),
        ));
        let flags = Arc::new(Node::Leaf(
            12,
            Arc::new(
                ColumnData::from_b8(&dev, (0..n).map(|i| (i % 3 == 0) as u8).collect()).unwrap(),
            ),
        ));
        // (keys < 500 && !flags) widened, times (big cast to i64), plus keys.
        let tree = Node::Binary(
            BinaryOp::Add,
            Arc::new(Node::Binary(
                BinaryOp::Mul,
                Arc::new(Node::Cast(
                    DType::F64,
                    Arc::new(Node::Binary(
                        BinaryOp::And,
                        Arc::new(Node::ScalarRhs(
                            BinaryOp::Lt,
                            keys.clone(),
                            Scalar::F64(500.0),
                        )),
                        Arc::new(Node::Unary(UnaryOp::Not, flags)),
                    )),
                )),
                Arc::new(Node::Cast(DType::I64, big)),
            )),
            keys,
        );
        let lanes = tree.lanes();
        let want: Vec<f64> = (0..n).map(|i| tree.eval_at(i, &lanes)).collect();
        let got = Program::compile(&tree).eval(n);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    /// `eval_into` must hand back a native column equal to what the old
    /// `eval` → `column_from_f64` detour produced, for every dtype.
    #[test]
    fn eval_into_materialises_native_columns() {
        let dev = Device::with_defaults();
        let n = 5_000;
        let a = leaf(1, (0..n).map(|i| i as f64 * 0.5 - 700.0).collect());
        let tree = Node::Cast(
            DType::U32,
            Arc::new(Node::ScalarRhs(BinaryOp::Mul, a.clone(), Scalar::F64(3.0))),
        );
        let prog = Program::compile(&tree);
        for dt in [DType::F64, DType::U64, DType::U32, DType::I64, DType::B8] {
            let out = crate::dtype::reserve_column(&dev, dt, n).unwrap();
            let got = prog.eval_into(out, dt, n);
            assert_eq!(got.dtype(), dt);
            assert_eq!(got.len(), n);
            let via_f64 = crate::dtype::column_from_f64(&dev, dt, prog.eval(n)).unwrap();
            match dt {
                DType::F64 => assert_eq!(got.as_f64().unwrap(), via_f64.as_f64().unwrap()),
                DType::U64 => assert_eq!(got.as_u64().unwrap(), via_f64.as_u64().unwrap()),
                DType::U32 => assert_eq!(got.as_u32().unwrap(), via_f64.as_u32().unwrap()),
                DType::I64 => assert_eq!(got.as_i64().unwrap(), via_f64.as_i64().unwrap()),
                DType::B8 => assert_eq!(got.as_b8().unwrap(), via_f64.as_b8().unwrap()),
            }
        }
    }

    #[test]
    fn empty_and_single_element_programs() {
        let a = leaf(1, vec![]);
        let tree = Node::ScalarRhs(BinaryOp::Add, a, Scalar::F64(1.0));
        assert!(Program::compile(&tree).eval(0).is_empty());
        let b = leaf(2, vec![41.0]);
        let tree = Node::ScalarRhs(BinaryOp::Add, b, Scalar::F64(1.0));
        assert_eq!(Program::compile(&tree).eval(1), vec![42.0]);
    }
}
