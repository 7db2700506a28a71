//! Compiled evaluation of the lazy expression DAG.
//!
//! [`Array::eval`](crate::Array::eval) does not interpret its tree per
//! element (`Node::eval_at` does, and stays as the test oracle): it
//! compiles the tree once per evaluation into a flat post-order
//! [`Program`] — leaf ids resolved to dense slots — and hands it to the
//! host expression engine ([`gpu_sim::hostexec::expr`]), which runs it
//! op-at-a-time over `f64` register windows with the leaf columns read in
//! place. The engine's arithmetic is
//! [`BinaryOp::apply`](crate::BinaryOp::apply) /
//! [`UnaryOp::apply`](crate::UnaryOp::apply) on the interpreter's `f64`
//! working value, in the same post-order, so every element sees the
//! identical sequence of `f64` operations and results are bit-for-bit
//! those of `eval_at`;
//! `Program::eval_into` converts to the output dtype at the store, by
//! `column_from_f64`'s rules.
//!
//! Simulated time is charged by the caller exactly as before — compilation
//! here is pure host-side mechanics, not the modelled JIT (which
//! `crate::array::Backend::ensure_jit` accounts separately).

use crate::dtype::{ColumnData, DType};
use crate::node::Node;
use gpu_sim::hostexec::expr::{self, Cast, Instr, Leaf};
use gpu_sim::{Device, Reservation};
use std::collections::HashMap;
use std::sync::Arc;

/// A lazy tree compiled to a flat post-order program.
///
/// `Debug` summarizes shape only (instruction/leaf counts).
pub struct Program {
    code: expr::Program,
    /// Distinct leaf columns in slot order (`Instr::Load` indexes this).
    leaves: Vec<Arc<ColumnData>>,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("instrs", &self.code.instrs().len())
            .field("leaves", &self.leaves.len())
            .field("stack_depth", &self.code.depth())
            .finish()
    }
}

impl Program {
    /// Compile `root` into a post-order instruction list, resolving each
    /// distinct leaf id to a dense slot.
    pub fn compile(root: &Node) -> Program {
        let (mut instrs, mut leaves) = (Vec::new(), Vec::new());
        emit(root, &mut instrs, &mut leaves, &mut HashMap::new());
        Program {
            code: expr::Program::new(instrs),
            leaves,
        }
    }

    /// The leaf columns, in slot order: what a body running the program
    /// reads.
    pub(crate) fn leaves(&self) -> Vec<&dyn gpu_sim::Readable> {
        self.leaves.iter().map(|c| c.as_ref() as _).collect()
    }

    /// The leaf columns as the engine reads them: in place.
    fn leaf_views(&self) -> Vec<Leaf<'_>> {
        self.leaves
            .iter()
            .map(|col| match col.as_ref() {
                ColumnData::F64(b) => Leaf::F64(b.host()),
                ColumnData::U32(b) => Leaf::U32(b.host()),
                ColumnData::B8(b) => Leaf::B8(b.host()),
            })
            .collect()
    }

    /// Execute the program over `len` elements as the interpreter's
    /// observable `f64` values.
    #[cfg(test)]
    fn eval(&self, len: usize) -> Vec<f64> {
        expr::map(&self.code, &self.leaf_views(), len)
    }

    /// Execute the program and materialise the result directly as a
    /// `dtype` column in `out` (a reservation for `len` elements of
    /// `dtype`) — the path `Array::eval` uses. Values are those of
    /// `fill_from_f64(out, dtype, <the f64 results>)`, or shape-only in a
    /// dry scope on `device` ([`Device::outputs`]).
    pub(crate) fn eval_into(
        &self,
        device: &Device,
        out: Reservation,
        dtype: DType,
        len: usize,
    ) -> ColumnData {
        macro_rules! column {
            ($variant:ident) => {{
                let data = device.outputs(len, || expr::map(&self.code, &self.leaf_views(), len));
                ColumnData::$variant(out.into_buffer(data))
            }};
        }
        match dtype {
            DType::F64 => column!(F64),
            DType::U32 => column!(U32),
            DType::B8 => column!(B8),
        }
    }
}

fn emit(
    node: &Node,
    instrs: &mut Vec<Instr>,
    leaves: &mut Vec<Arc<ColumnData>>,
    slots: &mut HashMap<u64, usize>,
) {
    match node {
        Node::Leaf(id, col) => {
            let slot = *slots.entry(*id).or_insert_with(|| {
                leaves.push(Arc::clone(col));
                leaves.len() - 1
            });
            instrs.push(Instr::Load(slot));
        }
        Node::Unary(op, c) => {
            emit(c, instrs, leaves, slots);
            instrs.push(Instr::Unary(*op));
        }
        Node::Binary(op, l, r) => {
            emit(l, instrs, leaves, slots);
            emit(r, instrs, leaves, slots);
            instrs.push(Instr::Binary(*op));
        }
        Node::ScalarRhs(op, c, s) => {
            emit(c, instrs, leaves, slots);
            instrs.push(Instr::ScalarRhs(*op, s.as_f64()));
        }
        Node::ScalarLhs(op, s, c) => {
            emit(c, instrs, leaves, slots);
            instrs.push(Instr::ScalarLhs(*op, s.as_f64()));
        }
        Node::Cast(dt, c) => {
            emit(c, instrs, leaves, slots);
            instrs.push(Instr::Cast(match dt {
                DType::F64 => Cast::F64,
                DType::U32 => Cast::U32,
                DType::B8 => Cast::B8,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::Scalar;
    use crate::node::{BinaryOp, UnaryOp};
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
    fn compile_lists_the_engine_instructions() {
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
        let prog = Program::compile(&tree);
        assert_eq!(
            prog.code.instrs(),
            [
                Instr::Load(0),
                Instr::Unary(UnaryOp::Abs),
                Instr::Load(1),
                Instr::ScalarRhs(BinaryOp::Mul, 2.0),
                Instr::Binary(BinaryOp::Add),
                Instr::Cast(Cast::U32),
            ]
        );
        let dtypes: Vec<DType> = prog.leaves.iter().map(|c| c.dtype()).collect();
        assert_eq!(dtypes, [DType::F64, DType::F64]);
        assert_eq!(prog.code.depth(), 2);
    }

    /// Integer and boolean leaves are read in place; every observable
    /// value must still match the `f64` recursive interpreter bit for bit.
    #[test]
    fn typed_lanes_match_interpreter_on_integer_leaves() {
        let dev = Device::with_defaults();
        let n = 9_000;
        let keys = Arc::new(Node::Leaf(
            10,
            Arc::new(
                ColumnData::from_u32(
                    &dev,
                    (0..n).map(|i| (i as u32 * 13) % 1009).collect::<Vec<_>>(),
                )
                .unwrap(),
            ),
        ));
        let flags: Vec<u8> = (0..n).map(|i| (i % 3 == 0) as u8).collect();
        let flags = Arc::new(Node::Leaf(
            12,
            Arc::new(ColumnData::B8(
                dev.buffer_from_vec(flags, gpu_sim::AllocPolicy::Pooled)
                    .unwrap(),
            )),
        ));
        // (keys < 500 && !flags) widened, times (keys cast to b8), plus keys.
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
                Arc::new(Node::Cast(DType::B8, keys.clone())),
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
        for dt in [DType::F64, DType::U32, DType::B8] {
            let out = crate::dtype::reserve_column(&dev, dt, n).unwrap();
            let got = prog.eval_into(&dev, out, dt, n);
            assert_eq!(got.dtype(), dt);
            assert_eq!(got.len(), n);
            let via_f64 = crate::dtype::column_from_f64(&dev, dt, prog.eval(n).into()).unwrap();
            match dt {
                DType::F64 => assert_eq!(got.as_f64().unwrap(), via_f64.as_f64().unwrap()),
                DType::U32 => assert_eq!(got.as_u32().unwrap(), via_f64.as_u32().unwrap()),
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
