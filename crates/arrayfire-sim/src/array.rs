//! `af::array` equivalent: lazily evaluated, JIT-fused device arrays.

use crate::dtype::{ColumnData, DType, Scalar};
use crate::node::{BinaryOp, Node, UnaryOp};
use gpu_sim::{
    Contents, Device, DeviceBuffer, DeviceCopy, KernelCost, Reservation, Result, SimError,
};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Host-side bookkeeping cost of creating one lazy node (ArrayFire's
/// runtime maintains the JIT graph on the host).
pub const NODE_OVERHEAD_NS: u64 = 300;

/// The ArrayFire runtime handle: owns the JIT kernel cache and mints leaf
/// ids. (Real ArrayFire keeps this in process-global state; a handle keeps
/// the simulator explicit and testable.)
#[derive(Debug)]
pub struct Backend {
    device: Arc<Device>,
    jit_cache: Mutex<HashSet<String>>,
    next_leaf: AtomicU64,
}

impl Backend {
    /// Create a runtime on `device` with a cold JIT cache.
    pub fn new(device: &Arc<Device>) -> Arc<Backend> {
        Arc::new(Backend {
            device: Arc::clone(device),
            jit_cache: Mutex::new(HashSet::new()),
            next_leaf: AtomicU64::new(1),
        })
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    pub(crate) fn fresh_leaf_id(&self) -> u64 {
        self.next_leaf.fetch_add(1, Ordering::Relaxed)
    }

    /// Charge JIT codegen for `signature` if unseen. Returns `true` on a
    /// cache miss.
    pub(crate) fn ensure_jit(&self, signature: &str) -> bool {
        let mut cache = self.jit_cache.lock();
        if cache.contains(signature) {
            return false;
        }
        cache.insert(signature.to_string());
        drop(cache);
        self.device
            .charge_jit(signature, self.device.spec().arrayfire_jit_compile_ns);
        true
    }

    /// Upload an `f64` column (charges the transfer).
    pub fn array_f64(self: &Arc<Self>, data: &[f64]) -> Result<Array> {
        let buf = self.device.htod(data)?;
        self.wrap(ColumnData::F64(buf))
    }

    /// Upload a `u32` column.
    pub fn array_u32(self: &Arc<Self>, data: &[u32]) -> Result<Array> {
        let buf = self.device.htod(data)?;
        self.wrap(ColumnData::U32(buf))
    }

    /// Upload the `len` values `source` produces, sharing them, which
    /// inside a dry scope it never calls: the array is then shape-only
    /// ([`Device::upload`]).
    pub fn upload<T>(
        self: &Arc<Self>,
        len: usize,
        source: impl FnOnce() -> Arc<Vec<T>>,
    ) -> Result<Array>
    where
        T: DeviceCopy,
        ColumnData: From<DeviceBuffer<T>>,
    {
        let buf = self.device.upload(len, source)?;
        self.wrap(buf.into())
    }

    /// Back a `u32` reservation a non-fused operation's charge half made
    /// (`af::where`, the set operations) with its index data.
    pub fn fill_u32(
        self: &Arc<Self>,
        out: Reservation,
        data: impl Into<Contents<u32>>,
    ) -> Result<Array> {
        self.wrap(ColumnData::U32(out.into_buffer(data)))
    }

    /// Back an `f64` reservation a non-fused operation's charge half made
    /// with its data.
    pub fn fill_f64(
        self: &Arc<Self>,
        out: Reservation,
        data: impl Into<Contents<f64>>,
    ) -> Result<Array> {
        self.wrap(ColumnData::F64(out.into_buffer(data)))
    }

    /// Wrap an already-materialised column into an evaluated array (no
    /// transfer charged) — used by the non-fused ops.
    pub(crate) fn wrap(self: &Arc<Self>, col: ColumnData) -> Result<Array> {
        let id = self.fresh_leaf_id();
        let col = Arc::new(col);
        let len = col.len();
        let dtype = col.dtype();
        Ok(Array {
            backend: Arc::clone(self),
            node: Arc::new(Node::Leaf(id, Arc::clone(&col))),
            cache: Arc::new(Mutex::new(Some(col))),
            len,
            dtype,
        })
    }
}

/// A lazily evaluated device array (always 1-D: a column).
#[derive(Debug, Clone)]
pub struct Array {
    backend: Arc<Backend>,
    node: Arc<Node>,
    /// Materialised result, filled by `eval`.
    cache: Arc<Mutex<Option<Arc<ColumnData>>>>,
    len: usize,
    dtype: DType,
}

impl Array {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// The runtime handle.
    pub fn backend(&self) -> &Arc<Backend> {
        &self.backend
    }

    /// The node downstream expressions should reference: the materialised
    /// leaf when available (so an `eval`'d subtree is not recomputed),
    /// otherwise the lazy tree.
    fn current_node(&self) -> Arc<Node> {
        if let Some(col) = self.cache.lock().as_ref() {
            if !matches!(*self.node, Node::Leaf(..)) {
                return Arc::new(Node::Leaf(self.backend.fresh_leaf_id(), Arc::clone(col)));
            }
        }
        Arc::clone(&self.node)
    }

    fn lazy(&self, node: Node, dtype: DType, len: usize) -> Array {
        self.backend
            .device()
            .advance(gpu_sim::SimDuration::from_nanos(NODE_OVERHEAD_NS));
        Array {
            backend: Arc::clone(&self.backend),
            node: Arc::new(node),
            cache: Arc::new(Mutex::new(None)),
            len,
            dtype,
        }
    }

    fn promote(a: DType, b: DType) -> DType {
        use DType::*;
        if a == F64 || b == F64 {
            F64
        } else if a == U32 || b == U32 {
            U32
        } else {
            B8
        }
    }

    /// Checked element-wise binary op (library surface behind the operator
    /// overloads, which panic on length mismatch like ArrayFire throws).
    pub fn try_binary(&self, op: BinaryOp, rhs: &Array) -> Result<Array> {
        if self.len != rhs.len {
            return Err(SimError::SizeMismatch {
                left: self.len,
                right: rhs.len,
            });
        }
        let dtype = if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
            DType::B8
        } else {
            Self::promote(self.dtype, rhs.dtype)
        };
        Ok(self.lazy(
            Node::Binary(op, self.current_node(), rhs.current_node()),
            dtype,
            self.len,
        ))
    }

    /// Element-wise binary op against a scalar (`x op s`).
    pub(crate) fn binary_scalar(&self, op: BinaryOp, s: impl Into<Scalar>) -> Array {
        let s = s.into();
        let dtype = if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
            DType::B8
        } else {
            Self::promote(self.dtype, s.dtype())
        };
        self.lazy(Node::ScalarRhs(op, self.current_node(), s), dtype, self.len)
    }

    /// Element-wise unary op.
    fn unary(&self, op: UnaryOp) -> Array {
        let dtype = match op {
            UnaryOp::Not => DType::B8,
            _ => self.dtype,
        };
        self.lazy(Node::Unary(op, self.current_node()), dtype, self.len)
    }

    /// Lazy dtype cast (fuses into the surrounding kernel).
    pub fn cast(&self, dtype: DType) -> Array {
        self.lazy(Node::Cast(dtype, self.current_node()), dtype, self.len)
    }

    /// Logical negation.
    pub fn not(&self) -> Array {
        self.unary(UnaryOp::Not)
    }

    /// Absolute value.
    pub fn abs(&self) -> Array {
        self.unary(UnaryOp::Abs)
    }

    // -- comparisons (ArrayFire spells these lt/le/gt/ge/eq/neq) --------

    /// `self < rhs` element-wise.
    pub fn lt(&self, rhs: &Array) -> Result<Array> {
        self.try_binary(BinaryOp::Lt, rhs)
    }
    /// `self <= rhs` element-wise.
    pub fn le(&self, rhs: &Array) -> Result<Array> {
        self.try_binary(BinaryOp::Le, rhs)
    }
    /// `self > rhs` element-wise.
    pub fn gt(&self, rhs: &Array) -> Result<Array> {
        self.try_binary(BinaryOp::Gt, rhs)
    }
    /// `self >= rhs` element-wise.
    pub fn ge(&self, rhs: &Array) -> Result<Array> {
        self.try_binary(BinaryOp::Ge, rhs)
    }
    /// `self == rhs` element-wise.
    pub fn eq_elem(&self, rhs: &Array) -> Result<Array> {
        self.try_binary(BinaryOp::Eq, rhs)
    }
    /// `self != rhs` element-wise.
    pub fn ne_elem(&self, rhs: &Array) -> Result<Array> {
        self.try_binary(BinaryOp::Ne, rhs)
    }

    /// `self < s` against a scalar.
    pub fn lt_scalar(&self, s: impl Into<Scalar>) -> Array {
        self.binary_scalar(BinaryOp::Lt, s)
    }
    /// `self <= s` against a scalar.
    pub fn le_scalar(&self, s: impl Into<Scalar>) -> Array {
        self.binary_scalar(BinaryOp::Le, s)
    }
    /// `self > s` against a scalar.
    pub fn gt_scalar(&self, s: impl Into<Scalar>) -> Array {
        self.binary_scalar(BinaryOp::Gt, s)
    }
    /// `self >= s` against a scalar.
    pub fn ge_scalar(&self, s: impl Into<Scalar>) -> Array {
        self.binary_scalar(BinaryOp::Ge, s)
    }
    /// `self == s` against a scalar.
    pub fn eq_scalar(&self, s: impl Into<Scalar>) -> Array {
        self.binary_scalar(BinaryOp::Eq, s)
    }
    /// Conjunction with another boolean array.
    pub fn and(&self, rhs: &Array) -> Result<Array> {
        self.try_binary(BinaryOp::And, rhs)
    }
    /// Disjunction with another boolean array.
    pub fn or(&self, rhs: &Array) -> Result<Array> {
        self.try_binary(BinaryOp::Or, rhs)
    }

    // -- evaluation ------------------------------------------------------

    /// Force evaluation: fuse the lazy tree into one generated kernel,
    /// JIT-compiling its shape on first sight, then execute it. Idempotent.
    /// Outside a dry scope a shape-only leaf is [`SimError::ShapeOnly`],
    /// before anything is charged; inside one the result is shape-only.
    pub fn eval(&self) -> Result<Arc<ColumnData>> {
        if let Some(col) = self.cache.lock().as_ref() {
            return Ok(Arc::clone(col));
        }
        // Execute functionally through the compiled post-order program —
        // bit-identical to the recursive interpreter, op-at-a-time over
        // typed chunked lanes instead of a tree walk per element. The
        // result materialises in the array's dtype directly: integer
        // outputs never round-trip through a whole-column f64 buffer.
        let program = crate::program::Program::compile(&self.node);
        self.backend.device().reads(&program.leaves())?;
        let out = self.charge_eval()?;
        let col = Arc::new(program.eval_into(self.backend.device(), out, self.dtype, self.len));
        *self.cache.lock() = Some(Arc::clone(&col));
        Ok(col)
    }

    /// What evaluating this (not yet evaluated) array costs on the device:
    /// JIT of the fused kernel's shape on first sight, the output
    /// allocation, and the one fused launch. [`Array::eval`] pays exactly
    /// this and then computes the column into the reservation; a caller
    /// that has the chain's final answer from elsewhere pays it for an
    /// intermediate nobody reads.
    pub fn charge_eval(&self) -> Result<Reservation> {
        let device = self.backend.device();
        // JIT the fused kernel shape (cache-hit on repeats).
        let sig = self.node.signature();
        self.backend.ensure_jit(&sig);
        let out = crate::dtype::reserve_column(device, self.dtype, self.len)?;
        // One fused kernel: read each distinct leaf once, write once.
        let cost = KernelCost {
            bytes_read: self.node.leaf_bytes(),
            bytes_written: out.size_bytes(),
            flops: self.node.op_count() * self.len as u64,
            pattern: gpu_sim::AccessPattern::Coalesced,
            divergence: 0.0,
            launch_overhead_ns: device.spec().cuda_launch_latency_ns,
        };
        device.try_charge_kernel("af::jit_fused", cost)?;
        Ok(out)
    }

    /// Evaluate and download as `f64` (charges the transfer).
    pub fn host_f64(&self) -> Result<Vec<f64>> {
        Ok(self.download()?.to_f64_vec())
    }

    /// Evaluate and download as `u32`; errors if the dtype differs.
    pub fn host_u32(&self) -> Result<Vec<u32>> {
        Ok(self.download()?.as_u32()?.to_vec())
    }

    /// Evaluate and charge the download, handing back the evaluated
    /// column itself rather than a copy of it. A shape-only column has
    /// nothing to download: [`SimError::ShapeOnly`], before the transfer is
    /// charged.
    pub fn download(&self) -> Result<Arc<ColumnData>> {
        let col = self.eval()?;
        gpu_sim::Readable::readable(&*col)?;
        self.charge_download();
        Ok(col)
    }

    /// Charge moving this array's values to the host, priced by its length
    /// alone: a host round trip that reads them only where a kernel body
    /// runs (indexed assignment).
    pub fn charge_download(&self) {
        let device = self.backend.device();
        let t = gpu_sim::transfer::transfer_time(
            device.spec(),
            gpu_sim::transfer::Direction::DeviceToHost,
            (self.len * self.dtype.size()) as u64,
        );
        device.advance(t);
    }
}

macro_rules! impl_array_op {
    ($trait:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait for &Array {
            type Output = Array;
            /// Lazy element-wise operator.
            ///
            /// # Panics
            /// Panics on length mismatch (ArrayFire throws `af::exception`).
            #[allow(clippy::expect_used)]
            fn $method(self, rhs: &Array) -> Array {
                // INVARIANT: `std::ops` cannot return `Result`, so the
                // overloads panic where ArrayFire throws; library code
                // checks lengths first or calls `try_binary`.
                self.try_binary($op, rhs).expect("array length mismatch")
            }
        }
    };
}

impl_array_op!(Add, add, BinaryOp::Add);
impl_array_op!(Sub, sub, BinaryOp::Sub);
impl_array_op!(Mul, mul, BinaryOp::Mul);
impl_array_op!(Div, div, BinaryOp::Div);
impl_array_op!(BitAnd, bitand, BinaryOp::And);
impl_array_op!(BitOr, bitor, BinaryOp::Or);

macro_rules! impl_scalar_op {
    ($trait:ident, $method:ident, $op:expr, $t:ty) => {
        impl std::ops::$trait<$t> for &Array {
            type Output = Array;
            /// Lazy element-wise operator against a scalar.
            fn $method(self, rhs: $t) -> Array {
                self.binary_scalar($op, rhs)
            }
        }
    };
}

impl_scalar_op!(Add, add, BinaryOp::Add, f64);
impl_scalar_op!(Sub, sub, BinaryOp::Sub, f64);
impl_scalar_op!(Mul, mul, BinaryOp::Mul, f64);
impl_scalar_op!(Div, div, BinaryOp::Div, f64);
impl_scalar_op!(Add, add, BinaryOp::Add, u32);
impl_scalar_op!(Sub, sub, BinaryOp::Sub, u32);
impl_scalar_op!(Mul, mul, BinaryOp::Mul, u32);

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> (Arc<Device>, Arc<Backend>) {
        let dev = Device::with_defaults();
        let af = Backend::new(&dev);
        (dev, af)
    }

    #[test]
    fn lazy_ops_do_not_launch_until_eval() {
        let (dev, af) = backend();
        let a = af.array_f64(&[1.0, 2.0, 3.0]).unwrap();
        let b = af.array_f64(&[4.0, 5.0, 6.0]).unwrap();
        dev.reset_stats();
        let c = &(&a * &b) + 1.0;
        assert_eq!(dev.stats().total_launches(), 0, "still lazy");
        let v = c.host_f64().unwrap();
        assert_eq!(v, vec![5.0, 11.0, 19.0]);
        assert_eq!(
            dev.stats().launches_of("af::jit_fused"),
            1,
            "whole chain fused into one kernel"
        );
    }

    #[test]
    fn fused_chain_is_one_kernel_regardless_of_length() {
        let (dev, af) = backend();
        let a = af.array_f64(&vec![1.0; 128]).unwrap();
        dev.reset_stats();
        let mut e = &a + 1.0;
        for _ in 0..6 {
            e = &e * 2.0;
        }
        e.eval().unwrap();
        assert_eq!(dev.stats().launches_of("af::jit_fused"), 1);
    }

    #[test]
    fn jit_shapes_compile_once() {
        let (dev, af) = backend();
        let a = af.array_f64(&[1.0, 2.0]).unwrap();
        let b = af.array_f64(&[5.0, 6.0]).unwrap();
        (&a + 1.0).eval().unwrap();
        let jits = dev.stats().jit_compiles;
        (&b + 2.0).eval().unwrap(); // same shape: add(leaf:f64, lit:f64)
        assert_eq!(dev.stats().jit_compiles, jits, "shape cache hit");
        (&b * 2.0).eval().unwrap(); // new shape
        assert_eq!(dev.stats().jit_compiles, jits + 1);
    }

    #[test]
    fn eval_is_idempotent_and_cached() {
        let (dev, af) = backend();
        let a = af.array_f64(&[1.0]).unwrap();
        let e = &a + 1.0;
        e.eval().unwrap();
        let launches = dev.stats().total_launches();
        e.eval().unwrap();
        assert_eq!(dev.stats().total_launches(), launches);
    }

    #[test]
    fn downstream_of_evaluated_array_reads_cache_not_tree() {
        let (dev, af) = backend();
        let a = af.array_f64(&[2.0]).unwrap();
        let b = &a * 3.0;
        b.eval().unwrap();
        dev.reset_stats();
        let c = &b + 1.0; // should reference b's materialised leaf
        assert_eq!(c.host_f64().unwrap(), vec![7.0]);
        let fused = &dev.stats().kernels["af::jit_fused"];
        assert_eq!(fused.launches, 1);
        // One mul would be recomputed if the tree were re-fused; op_count
        // of the new kernel is 1 (add) so flops == len == 1.
        assert_eq!(fused.bytes_read, 8, "reads only b's cached leaf");
    }

    #[test]
    fn comparisons_produce_b8() {
        let (_dev, af) = backend();
        let a = af.array_u32(&[1, 5, 3]).unwrap();
        let m = a.gt_scalar(2u32);
        assert_eq!(m.dtype(), DType::B8);
        assert_eq!(m.eval().unwrap().as_b8().unwrap(), &[0, 1, 1]);
    }

    #[test]
    fn conjunction_and_disjunction_fuse() {
        let (dev, af) = backend();
        let x = af.array_u32(&[1, 5, 3, 8]).unwrap();
        let lo = x.gt_scalar(2u32);
        let hi = x.lt_scalar(8u32);
        dev.reset_stats();
        let both = lo.and(&hi).unwrap();
        assert_eq!(both.eval().unwrap().as_b8().unwrap(), &[0, 1, 1, 0]);
        assert_eq!(dev.stats().launches_of("af::jit_fused"), 1);
        let either = lo.or(&hi).unwrap();
        assert_eq!(either.eval().unwrap().as_b8().unwrap(), &[1, 1, 1, 1]);
    }

    #[test]
    fn type_promotion() {
        let (_dev, af) = backend();
        let u = af.array_u32(&[1, 2]).unwrap();
        let f = af.array_f64(&[0.5, 0.5]).unwrap();
        let s = u.try_binary(BinaryOp::Add, &f).unwrap();
        assert_eq!(s.dtype(), DType::F64);
        assert_eq!(s.host_f64().unwrap(), vec![1.5, 2.5]);
        let c = u.cast(DType::F64);
        assert_eq!(c.dtype(), DType::F64);
    }

    #[test]
    fn length_mismatch_is_checked() {
        let (_dev, af) = backend();
        let a = af.array_f64(&[1.0]).unwrap();
        let b = af.array_f64(&[1.0, 2.0]).unwrap();
        assert!(a.try_binary(BinaryOp::Add, &b).is_err());
    }

    #[test]
    fn typed_host_accessors_enforce_dtype() {
        let (_dev, af) = backend();
        let a = af.array_f64(&[-1.0, 2.0]).unwrap();
        assert!(a.host_u32().is_err());
        assert_eq!(a.abs().host_f64().unwrap(), vec![1.0, 2.0]);
        assert_eq!(a.not().dtype(), DType::B8);
    }
}
