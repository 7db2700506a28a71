//! The lazy expression DAG behind every [`Array`](crate::Array).
//!
//! Element-wise operations do **not** execute: they allocate a [`Node`] and
//! return immediately (ArrayFire's JIT design). At [`eval`](crate::Array::eval)
//! time the tree becomes a single fused kernel — one read per distinct leaf,
//! one write for the result, no intermediates. The tree's *shape signature*
//! (operators + dtypes, not data) keys the JIT kernel cache: the first
//! evaluation of a new shape pays codegen, repeats don't.

use crate::dtype::{ColumnData, DType, Scalar};
use std::collections::HashSet;
use std::sync::Arc;

pub use gpu_sim::hostexec::expr::{BinaryOp, UnaryOp};

/// Mnemonic of a binary operator in shape signatures.
fn binary_name(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::Add => "add",
        BinaryOp::Sub => "sub",
        BinaryOp::Mul => "mul",
        BinaryOp::Div => "div",
        BinaryOp::Min => "min",
        BinaryOp::Max => "max",
        BinaryOp::And => "and",
        BinaryOp::Or => "or",
        BinaryOp::Lt => "lt",
        BinaryOp::Le => "le",
        BinaryOp::Gt => "gt",
        BinaryOp::Ge => "ge",
        BinaryOp::Eq => "eq",
        BinaryOp::Ne => "ne",
        BinaryOp::Select => "select",
    }
}

/// Mnemonic of a unary operator in shape signatures.
fn unary_name(op: UnaryOp) -> &'static str {
    match op {
        UnaryOp::Not => "not",
        UnaryOp::Neg => "neg",
        UnaryOp::Abs => "abs",
    }
}

/// A node of the lazy expression tree.
#[derive(Debug)]
pub enum Node {
    /// Materialised device data (unique leaf id, column).
    Leaf(u64, Arc<ColumnData>),
    /// Fused unary op.
    Unary(UnaryOp, Arc<Node>),
    /// Fused binary op over two subtrees.
    Binary(BinaryOp, Arc<Node>, Arc<Node>),
    /// Fused binary op against a scalar constant (`scalar_on_left`
    /// distinguishes `s - x` from `x - s`).
    ScalarRhs(BinaryOp, Arc<Node>, Scalar),
    /// Scalar on the left: `s op x`.
    ScalarLhs(BinaryOp, Scalar, Arc<Node>),
    /// Fused dtype cast.
    Cast(DType, Arc<Node>),
}

impl Node {
    /// Structural signature of the tree — operators and dtypes only, so
    /// two evaluations over different data share one JIT kernel.
    pub(crate) fn signature(&self) -> String {
        let mut s = String::new();
        self.sig_into(&mut s);
        s
    }

    fn sig_into(&self, s: &mut String) {
        match self {
            Node::Leaf(_, col) => {
                s.push_str("leaf:");
                s.push_str(col.dtype().name());
            }
            Node::Unary(op, c) => {
                s.push_str(unary_name(*op));
                s.push('(');
                c.sig_into(s);
                s.push(')');
            }
            Node::Binary(op, l, r) => {
                s.push_str(binary_name(*op));
                s.push('(');
                l.sig_into(s);
                s.push(',');
                r.sig_into(s);
                s.push(')');
            }
            Node::ScalarRhs(op, c, sc) => {
                s.push_str(binary_name(*op));
                s.push('(');
                c.sig_into(s);
                s.push_str(",lit:");
                s.push_str(sc.dtype().name());
                s.push(')');
            }
            Node::ScalarLhs(op, sc, c) => {
                s.push_str(binary_name(*op));
                s.push_str("(lit:");
                s.push_str(sc.dtype().name());
                s.push(',');
                c.sig_into(s);
                s.push(')');
            }
            Node::Cast(dt, c) => {
                s.push_str("cast:");
                s.push_str(dt.name());
                s.push('(');
                c.sig_into(s);
                s.push(')');
            }
        }
    }

    /// Distinct leaf columns referenced (each is read once by the fused
    /// kernel), returned as total bytes.
    pub(crate) fn leaf_bytes(&self) -> u64 {
        let mut seen = HashSet::new();
        let mut bytes = 0;
        self.collect_leaves(&mut seen, &mut bytes);
        bytes
    }

    fn collect_leaves(&self, seen: &mut HashSet<u64>, bytes: &mut u64) {
        match self {
            Node::Leaf(id, col) => {
                if seen.insert(*id) {
                    *bytes += col.size_bytes();
                }
            }
            Node::Unary(_, c)
            | Node::ScalarRhs(_, c, _)
            | Node::ScalarLhs(_, _, c)
            | Node::Cast(_, c) => c.collect_leaves(seen, bytes),
            Node::Binary(_, l, r) => {
                l.collect_leaves(seen, bytes);
                r.collect_leaves(seen, bytes);
            }
        }
    }

    /// Number of operator nodes (per-element flops of the fused kernel).
    pub fn op_count(&self) -> u64 {
        match self {
            Node::Leaf(..) => 0,
            Node::Unary(_, c)
            | Node::ScalarRhs(_, c, _)
            | Node::ScalarLhs(_, _, c)
            | Node::Cast(_, c) => 1 + c.op_count(),
            Node::Binary(_, l, r) => 1 + l.op_count() + r.op_count(),
        }
    }
}

/// The recursive interpreter — the oracle the compiled
/// [`Program`](crate::Program) is tested against.
#[cfg(test)]
impl Node {
    /// Evaluate one element through the tree on the `f64` interpreter lane.
    pub(crate) fn eval_at(&self, i: usize, lanes: &LeafLanes) -> f64 {
        match self {
            Node::Leaf(id, _) => lanes.get(*id)[i],
            Node::Unary(op, c) => op.apply(c.eval_at(i, lanes)),
            Node::Binary(op, l, r) => op.apply(l.eval_at(i, lanes), r.eval_at(i, lanes)),
            Node::ScalarRhs(op, c, s) => op.apply(c.eval_at(i, lanes), s.as_f64()),
            Node::ScalarLhs(op, s, c) => op.apply(s.as_f64(), c.eval_at(i, lanes)),
            Node::Cast(dt, c) => {
                let x = c.eval_at(i, lanes);
                match dt {
                    DType::F64 => x,
                    DType::U32 => x as u32 as f64,
                    DType::B8 => f64::from(x != 0.0),
                }
            }
        }
    }

    /// Collect `f64` views of every distinct leaf for interpretation.
    pub(crate) fn lanes(&self) -> LeafLanes {
        let mut lanes = LeafLanes::default();
        self.collect_lanes(&mut lanes);
        lanes
    }

    fn collect_lanes(&self, lanes: &mut LeafLanes) {
        match self {
            Node::Leaf(id, col) => lanes.insert(*id, col),
            Node::Unary(_, c)
            | Node::ScalarRhs(_, c, _)
            | Node::ScalarLhs(_, _, c)
            | Node::Cast(_, c) => c.collect_lanes(lanes),
            Node::Binary(_, l, r) => {
                l.collect_lanes(lanes);
                r.collect_lanes(lanes);
            }
        }
    }
}

/// `f64` working copies of the distinct leaves of a tree, keyed by leaf
/// id (hashed — insert and lookup are O(1), not a linear scan per call).
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct LeafLanes {
    lanes: std::collections::HashMap<u64, Vec<f64>>,
}

#[cfg(test)]
impl LeafLanes {
    fn insert(&mut self, id: u64, col: &ColumnData) {
        self.lanes.entry(id).or_insert_with(|| col.to_f64_vec());
    }

    fn get(&self, id: u64) -> &[f64] {
        self.lanes.get(&id).expect("leaf lane missing")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;

    fn leaf(id: u64, data: Vec<f64>) -> Arc<Node> {
        let dev = Device::with_defaults();
        Arc::new(Node::Leaf(
            id,
            Arc::new(ColumnData::from_f64(&dev, data).unwrap()),
        ))
    }

    #[test]
    fn signature_ignores_data_but_not_structure() {
        let a = leaf(1, vec![1.0]);
        let b = leaf(2, vec![9.0]);
        let t1 = Node::Binary(BinaryOp::Add, a.clone(), b.clone());
        let t2 = Node::Binary(BinaryOp::Add, b.clone(), a.clone());
        assert_eq!(t1.signature(), t2.signature(), "same shape, same kernel");
        let t3 = Node::Binary(BinaryOp::Mul, a.clone(), b.clone());
        assert_ne!(t1.signature(), t3.signature());
    }

    #[test]
    fn leaf_bytes_deduplicates_shared_leaves() {
        let a = leaf(1, vec![1.0, 2.0]); // 16 bytes
        let t = Node::Binary(BinaryOp::Mul, a.clone(), a.clone());
        assert_eq!(t.leaf_bytes(), 16, "a is read once despite two refs");
        assert_eq!(t.op_count(), 1);
    }

    #[test]
    fn eval_at_interprets_the_tree() {
        let a = leaf(1, vec![1.0, 2.0, 3.0]);
        let t = Node::ScalarRhs(BinaryOp::Mul, a, Scalar::F64(2.0));
        let lanes = t.lanes();
        assert_eq!(t.eval_at(0, &lanes), 2.0);
        assert_eq!(t.eval_at(2, &lanes), 6.0);
    }

    #[test]
    fn scalar_side_matters_for_signature_and_value() {
        let a = leaf(1, vec![10.0]);
        let l = Node::ScalarLhs(BinaryOp::Sub, Scalar::F64(1.0), a.clone());
        let r = Node::ScalarRhs(BinaryOp::Sub, a, Scalar::F64(1.0));
        assert_ne!(l.signature(), r.signature());
        assert_eq!(l.eval_at(0, &l.lanes()), -9.0);
        assert_eq!(r.eval_at(0, &r.lanes()), 9.0);
    }

    #[test]
    fn comparisons_yield_booleans() {
        assert!(BinaryOp::Lt.is_comparison());
        assert!(!BinaryOp::Add.is_comparison());
        assert_eq!(BinaryOp::Gt.apply(3.0, 2.0), 1.0);
        assert_eq!(BinaryOp::And.apply(1.0, 0.0), 0.0);
        assert_eq!(UnaryOp::Not.apply(0.0), 1.0);
        assert_eq!(UnaryOp::Abs.apply(-3.0), 3.0);
        assert_eq!(UnaryOp::Neg.apply(3.0), -3.0);
    }
}
