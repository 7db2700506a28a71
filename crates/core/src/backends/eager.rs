//! The eager algorithm-library adapter — Table II's Thrust and
//! Boost.Compute columns, written once.
//!
//! Both libraries expose the same surface: free algorithms over device
//! vectors, every call launching at once and materialising its result. How
//! that surface realises the operator set is therefore one decision, made
//! here. Selection is the paper's canonical example of library chaining:
//! `transform()` (predicate flags) → `exclusive_scan()` (output offsets) →
//! `scatter_if()` (compaction), three kernels with two materialised
//! intermediates. Grouped aggregation is `sort_by_key()` +
//! `reduce_by_key()`. The only join the surface can express is nested loops
//! via `for_each_n()`; merge and hash joins are unsupported (Table II "–").
//!
//! What a call *charges* is the library's own business and sits behind
//! [`EagerLib`]: [`thrust`](super::thrust) launches pre-compiled kernels
//! out of a pooled allocator, [`boost`](super::boost) enqueues on an OpenCL
//! queue that JIT-compiles each kernel on first use and allocates raw.

use super::{
    check_keyed, check_sum_product, row_width, same_len, select, select_cmp_cols, with_lanes,
    StoredColumn,
};
use crate::backend::{check_col, Col, ColType, GpuBackend, Pred, Slab};
use crate::fused::{check_fused_inputs, FusedExpr, FusedPred};
use crate::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use gpu_sim::hostexec::{self, Lane};
use gpu_sim::{
    presets, AllocPolicy, BufferId, Device, DeviceBuffer, DeviceCopy, KernelCost, Reservation,
    Result, SimDuration, SimError,
};
use std::sync::Arc;

/// A library's device vector: a typed wrapper around one device buffer.
pub trait EagerVector<T: DeviceCopy>: Send {
    /// Adopt `buf` as a vector.
    fn from_buffer(buf: DeviceBuffer<T>) -> Self;
    /// The buffer behind the vector.
    fn buffer(&self) -> &DeviceBuffer<T>;
}

/// An operand of a charge half: `(length, buffer)`.
pub type Operand = (usize, BufferId);

/// One eager algorithm library, as [`EagerBackend`] drives it: a value
/// holding the library's execution context, the algorithm calls the adapter
/// makes (element types fixed to the two a [`Col`] can have) and the
/// data-free charge halves behind its two chains (DESIGN.md §5).
pub trait EagerLib: Send + Sync + Sized {
    /// Backend name — the Table II column header.
    const NAME: &'static str;
    /// How the library allocates its vectors, operator outputs included.
    const ALLOC: AllocPolicy;
    /// The library's device vector.
    type Vector<T: DeviceCopy>: EagerVector<T>;

    /// The library's context on `device`, cold.
    fn new(device: &Arc<Device>) -> Self;

    /// `transform()` — unary map into `f64`.
    fn transform<T: DeviceCopy>(
        &self,
        src: &Self::Vector<T>,
        op: impl Fn(T) -> f64 + Sync,
    ) -> Result<Self::Vector<f64>>;
    /// `transform()` over two ranges.
    fn transform_binary(
        &self,
        a: &Self::Vector<f64>,
        b: &Self::Vector<f64>,
        op: impl Fn(f64, f64) -> f64 + Sync,
    ) -> Result<Self::Vector<f64>>;
    /// `fill()`.
    fn fill(&self, v: &mut Self::Vector<f64>, value: f64) -> Result<()>;
    /// `reduce()` with `plus`.
    fn reduce(&self, src: &Self::Vector<f64>) -> Result<f64>;
    /// `inner_product()` with `plus` / `multiplies`.
    fn inner_product(&self, a: &Self::Vector<f64>, b: &Self::Vector<f64>) -> Result<f64>;
    /// `exclusive_scan()` from zero.
    fn exclusive_scan(&self, src: &Self::Vector<u32>) -> Result<Self::Vector<u32>>;
    /// `sort()`, in place.
    fn sort(&self, v: &mut Self::Vector<u32>) -> Result<()>;
    /// `sort_by_key()`, in place.
    fn sort_by_key(&self, k: &mut Self::Vector<u32>, v: &mut Self::Vector<f64>) -> Result<()>;
    /// `gather()` — `src[map[i]]`.
    fn gather<T: DeviceCopy + Default>(
        &self,
        map: &Self::Vector<u32>,
        src: &Self::Vector<T>,
    ) -> Result<Self::Vector<T>>;
    /// `scatter()` — `dst[map[i]] = src[i]`.
    fn scatter(
        &self,
        src: &Self::Vector<u32>,
        map: &Self::Vector<u32>,
        dst: &mut Self::Vector<u32>,
    ) -> Result<()>;
    /// `for_each_n()` with a caller-declared cost.
    fn for_each_n(&self, n: usize, cost: KernelCost) -> Result<()>;
    /// `transform()` over a zip of `reads` as a row functor. `key` names
    /// the program and is only built by a library that caches JIT output.
    fn transform_zip(
        &self,
        len: usize,
        key: impl FnOnce() -> String,
        read_bytes: u64,
        reads: &[BufferId],
        op: impl Fn(usize) -> f64 + Sync,
    ) -> Result<Self::Vector<f64>>;
    /// `transform_reduce()` with `plus` over a zip; rows mapping to `None`
    /// contribute nothing. `key` as for [`Self::transform_zip`].
    fn transform_reduce_zip(
        &self,
        len: usize,
        key: impl FnOnce() -> String,
        read_bytes: u64,
        reads: &[BufferId],
        op: impl Fn(usize) -> Option<f64>,
    ) -> Result<f64>;

    /// What a `transform()` of `n` `T`s in `src` into `u32` flags costs.
    fn charge_transform<T: DeviceCopy>(&self, n: usize, src: BufferId) -> Result<Reservation>;
    /// What a binary `transform()` of two `T` ranges into flags costs.
    fn charge_transform_binary<T: DeviceCopy>(&self, a: Operand, b: Operand)
        -> Result<Reservation>;
    /// What an `exclusive_scan()` over `n` flags in `src` costs.
    fn charge_exclusive_scan(&self, n: usize, src: BufferId) -> Result<Reservation>;
    /// What materialising the row ids `0..n` costs.
    fn charge_sequence(&self, n: usize) -> Result<Reservation>;
    /// What a `scatter_if()` of `kept` of `n` row ids into `dst` costs.
    fn charge_scatter_if(
        &self,
        n: usize,
        kept: usize,
        reads: [BufferId; 3],
        dst: BufferId,
    ) -> Result<()>;
    /// What an in-place `sort_by_key()` of `u32` keys / `f64` values costs.
    fn charge_sort_by_key(&self, keys: Operand, vals: Operand) -> Result<()>;
    /// What a `reduce_by_key()` of `n` sorted rows into `groups` costs.
    fn charge_reduce_by_key(
        &self,
        n: usize,
        groups: usize,
        reads: [BufferId; 2],
    ) -> Result<(Reservation, Reservation)>;
}

/// Device column as stored by the adapter.
enum Stored<L: EagerLib> {
    U32(L::Vector<u32>),
    F64(L::Vector<f64>),
}

impl<L: EagerLib> Stored<L> {
    fn u32s(&self) -> &L::Vector<u32> {
        match self {
            Stored::U32(v) => v,
            Stored::F64(_) => unreachable!("dtype checked"),
        }
    }

    fn f64s(&self) -> &L::Vector<f64> {
        match self {
            Stored::F64(v) => v,
            Stored::U32(_) => unreachable!("dtype checked"),
        }
    }
}

impl<L: EagerLib> StoredColumn for Stored<L> {
    fn lane(&self) -> Lane<'_> {
        match self {
            Stored::U32(v) => Lane::U32(v.buffer().host()),
            Stored::F64(v) => Lane::F64(v.buffer().host()),
        }
    }

    fn buffer_id(&self) -> BufferId {
        match self {
            Stored::U32(v) => v.buffer().id(),
            Stored::F64(v) => v.buffer().id(),
        }
    }
}

/// Program key of a fused kernel: each distinct expression (and predicate
/// list) is its own program to a library that compiles at run time.
fn fused_key(preds: &[FusedPred], expr: &FusedExpr) -> String {
    let body = expr.render(&|i| format!("c{i}"));
    if preds.is_empty() {
        body
    } else {
        let ps: Vec<String> = preds
            .iter()
            .map(|p| format!("c{} {:?} {}", p.input, p.cmp, p.lit))
            .collect();
        format!("{} where {}", body, ps.join(" && "))
    }
}

/// An eager algorithm library plugged into the framework.
pub struct EagerBackend<L: EagerLib> {
    device: Arc<Device>,
    lib: L,
    slab: Slab<Stored<L>>,
}

impl<L: EagerLib> std::fmt::Debug for EagerBackend<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EagerBackend")
            .field("lib", &L::NAME)
            .finish_non_exhaustive()
    }
}

impl<L: EagerLib> EagerBackend<L> {
    /// Create the backend on `device`, the library's context cold.
    pub fn new(device: &Arc<Device>) -> Self {
        EagerBackend {
            device: Arc::clone(device),
            lib: L::new(device),
            slab: Slab::default(),
        }
    }

    fn mint(&self, stored: Stored<L>) -> Col {
        let (dtype, len) = match &stored {
            Stored::U32(v) => (ColType::U32, v.buffer().len()),
            Stored::F64(v) => (ColType::F64, v.buffer().len()),
        };
        Col {
            id: self.slab.insert(stored),
            dtype,
            len,
            backend: L::NAME,
        }
    }

    fn mint_u32(&self, buf: DeviceBuffer<u32>) -> Col {
        self.mint(Stored::U32(EagerVector::from_buffer(buf)))
    }

    fn mint_f64(&self, buf: DeviceBuffer<f64>) -> Col {
        self.mint(Stored::F64(EagerVector::from_buffer(buf)))
    }

    /// The `transform()` stage of a selection over `col` (stored in buffer
    /// `src`), charged: its predicate-flag vector is never read.
    fn charge_flags(&self, col: &Col, src: BufferId) -> Result<Reservation> {
        match col.dtype {
            ColType::U32 => self.lib.charge_transform::<u32>(col.len, src),
            ColType::F64 => self.lib.charge_transform::<f64>(col.len, src),
        }
    }

    /// `exclusive_scan()` + `scatter_if()` over `n` flags, charged; `ids`
    /// — the rows the flags stand for — become the compacted output.
    fn compact(&self, flags: &Reservation, n: usize, ids: Vec<u32>) -> Result<Col> {
        let offs = self.lib.charge_exclusive_scan(n, flags.id())?;
        // Reading the total back is a tiny device→host copy in real code.
        self.device
            .advance(SimDuration::from_nanos(self.device.spec().pcie_latency_ns));
        let seq = self.lib.charge_sequence(n)?;
        let out = self
            .device
            .reserve((ids.len() * 4) as u64, L::ALLOC, false)?;
        self.lib
            .charge_scatter_if(n, ids.len(), [seq.id(), offs.id(), flags.id()], out.id())?;
        Ok(self.mint_u32(out.into_buffer(ids)))
    }

    /// Run `f` on the `u32` vector behind `col`, once `col` is known to be
    /// this backend's and of that type.
    fn u32s<R>(&self, col: &Col, f: impl FnOnce(&L::Vector<u32>) -> Result<R>) -> Result<R> {
        check_col(col, L::NAME, ColType::U32)?;
        self.slab.with(col.id, |s| f(s.u32s()))?
    }

    /// [`Self::u32s`] for an `f64` column.
    fn f64s<R>(&self, col: &Col, f: impl FnOnce(&L::Vector<f64>) -> Result<R>) -> Result<R> {
        check_col(col, L::NAME, ColType::F64)?;
        self.slab.with(col.id, |s| f(s.f64s()))?
    }
}

impl<L: EagerLib> GpuBackend for EagerBackend<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn device(&self) -> Arc<Device> {
        Arc::clone(&self.device)
    }

    fn support(&self, op: DbOperator) -> Support {
        match op {
            DbOperator::MergeJoin | DbOperator::HashJoin => Support::None,
            _ => Support::Full,
        }
    }

    fn realization(&self, op: DbOperator) -> &'static str {
        match op {
            DbOperator::Selection => "transform() & exclusive_scan() & scatter_if()",
            DbOperator::ConjunctionDisjunction => "bit_and<T>(), bit_or<T>()",
            DbOperator::NestedLoopsJoin => "for_each_n()",
            DbOperator::MergeJoin | DbOperator::HashJoin => "–",
            DbOperator::GroupedAggregation => "sort_by_key() & reduce_by_key()",
            DbOperator::Reduction => "reduce()",
            DbOperator::SortByKey => "sort_by_key()",
            DbOperator::Sort => "sort()",
            DbOperator::PrefixSum => "exclusive_scan()",
            DbOperator::ScatterGather => "scatter(), gather()",
            DbOperator::Product => "transform() & multiplies<T>()",
        }
    }

    fn upload_u32(&self, data: &[u32]) -> Result<Col> {
        Ok(self.mint_u32(self.device.htod_with(data, L::ALLOC)?))
    }

    fn upload_f64(&self, data: &[f64]) -> Result<Col> {
        Ok(self.mint_f64(self.device.htod_with(data, L::ALLOC)?))
    }

    fn download_u32(&self, col: &Col) -> Result<Vec<u32>> {
        self.u32s(col, |v| self.device.dtoh(v.buffer()))
    }

    fn download_f64(&self, col: &Col) -> Result<Vec<f64>> {
        self.f64s(col, |v| self.device.dtoh(v.buffer()))
    }

    fn free(&self, col: Col) -> Result<()> {
        if col.backend != L::NAME {
            return Err(SimError::Unsupported("foreign column handle".into()));
        }
        self.slab.take(col.id).map(drop)
    }

    fn selection(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        self.selection_multi(&[Pred { col, cmp, lit }], Connective::And)
    }

    fn selection_multi(&self, preds: &[Pred<'_>], conn: Connective) -> Result<Col> {
        let n = same_len(preds)?;
        let (picked, srcs) = select(&self.slab, preds, conn)?;
        // The chain Table II names, charged: one transform() per predicate,
        // folded with bit_and / bit_or, then the scan + scatter compaction.
        let mut combined = self.charge_flags(preds[0].col, srcs[0])?;
        for (p, &src) in preds.iter().zip(&srcs).skip(1) {
            let f = self.charge_flags(p.col, src)?;
            combined = self
                .lib
                .charge_transform_binary::<u32>((n, combined.id()), (n, f.id()))?;
        }
        self.compact(&combined, n, picked.ids)
    }

    fn selection_cmp_cols(&self, a: &Col, b: &Col, cmp: CmpOp) -> Result<Col> {
        if a.dtype != b.dtype {
            return Err(SimError::Unsupported(
                "mixed-dtype column comparison".into(),
            ));
        }
        let (ids, [ia, ib]) = select_cmp_cols(&self.slab, a, b, cmp)?;
        let (xa, xb) = ((a.len, ia), (b.len, ib));
        let flags = match a.dtype {
            ColType::U32 => self.lib.charge_transform_binary::<u32>(xa, xb),
            ColType::F64 => self.lib.charge_transform_binary::<f64>(xa, xb),
        }?;
        self.compact(&flags, a.len, ids)
    }

    fn dense_mask(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        let mask = move |x: f64| f64::from(u8::from(cmp.eval(x, lit)));
        let out = self.slab.with(col.id, |s| match s {
            Stored::U32(v) => self.lib.transform(v, move |x| mask(f64::from(x))),
            Stored::F64(v) => self.lib.transform(v, mask),
        })??;
        Ok(self.mint(Stored::F64(out)))
    }

    fn product(&self, a: &Col, b: &Col) -> Result<Col> {
        check_col(a, L::NAME, ColType::F64)?;
        check_col(b, L::NAME, ColType::F64)?;
        let out = self.slab.with2(a.id, b.id, |x, y| {
            self.lib.transform_binary(x.f64s(), y.f64s(), |p, q| p * q)
        })??;
        Ok(self.mint(Stored::F64(out)))
    }

    fn affine(&self, col: &Col, mul: f64, add: f64) -> Result<Col> {
        let out = self.f64s(col, |v| self.lib.transform(v, move |x| x * mul + add))?;
        Ok(self.mint(Stored::F64(out)))
    }

    fn constant_f64(&self, len: usize, value: f64) -> Result<Col> {
        let mut v = EagerVector::from_buffer(self.device.alloc_with(len, L::ALLOC)?);
        self.lib.fill(&mut v, value)?;
        Ok(self.mint(Stored::F64(v)))
    }

    fn reduction(&self, col: &Col) -> Result<f64> {
        self.f64s(col, |v| self.lib.reduce(v))
    }

    fn prefix_sum(&self, col: &Col) -> Result<Col> {
        let out = self.u32s(col, |v| self.lib.exclusive_scan(v))?;
        Ok(self.mint(Stored::U32(out)))
    }

    fn sort(&self, col: &Col) -> Result<Col> {
        let copy = self.u32s(col, |v| self.device.dtod(v.buffer()))?;
        let mut copy = EagerVector::from_buffer(copy);
        self.lib.sort(&mut copy)?;
        Ok(self.mint(Stored::U32(copy)))
    }

    fn sort_by_key(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        check_col(vals, L::NAME, ColType::F64)?;
        let k = self.u32s(keys, |k| self.device.dtod(k.buffer()))?;
        let v = self.f64s(vals, |v| self.device.dtod(v.buffer()))?;
        let (mut k, mut v) = (EagerVector::from_buffer(k), EagerVector::from_buffer(v));
        self.lib.sort_by_key(&mut k, &mut v)?;
        Ok((self.mint(Stored::U32(k)), self.mint(Stored::F64(v))))
    }

    fn grouped_sum(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        check_keyed(L::NAME, keys, vals)?;
        // sort_by_key() on copies, then reduce_by_key(), charged: neither
        // sorted copy is ever read. The sums come from one row-order pass,
        // seeded so that each group starts from its first value as
        // reduce_by_key does.
        let (k, v, (gk, gv)) = self.slab.with2(keys.id, vals.id, |a, b| {
            let (keys, vals) = (a.u32s().buffer(), b.f64s().buffer());
            let k = self.device.reserve_dtod(keys)?;
            let v = self.device.reserve_dtod(vals)?;
            Ok((k, v, hostexec::grouped_sum(keys.host(), vals.host(), -0.0)))
        })??;
        let reads = [k.id(), v.id()];
        self.lib
            .charge_sort_by_key((keys.len, reads[0]), (vals.len, reads[1]))?;
        let reduced = self.lib.charge_reduce_by_key(keys.len, gk.len(), reads);
        // Release the sorted scratch on the fault path too: a caller
        // retrying the op must not inherit leaked intermediates.
        drop(k);
        drop(v);
        let (rk, rv) = reduced?;
        Ok((
            self.mint_u32(rk.into_buffer(gk)),
            self.mint_f64(rv.into_buffer(gv)),
        ))
    }

    fn gather(&self, data: &Col, idx: &Col) -> Result<Col> {
        check_col(idx, L::NAME, ColType::U32)?;
        if data.backend != L::NAME {
            return Err(SimError::Unsupported("foreign column handle".into()));
        }
        let stored = self.slab.with2(data.id, idx.id, |d, i| match d {
            Stored::U32(v) => self.lib.gather(i.u32s(), v).map(Stored::U32),
            Stored::F64(v) => self.lib.gather(i.u32s(), v).map(Stored::F64),
        })??;
        Ok(self.mint(stored))
    }

    fn scatter(&self, data: &Col, idx: &Col, dst_len: usize) -> Result<Col> {
        check_col(data, L::NAME, ColType::U32)?;
        check_col(idx, L::NAME, ColType::U32)?;
        let mut dst = EagerVector::from_buffer(self.device.alloc_with(dst_len, L::ALLOC)?);
        self.slab.with2(data.id, idx.id, |d, i| {
            self.lib.scatter(d.u32s(), i.u32s(), &mut dst)
        })??;
        Ok(self.mint(Stored::U32(dst)))
    }

    fn join(&self, outer: &Col, inner: &Col, algo: JoinAlgo) -> Result<(Col, Col)> {
        check_col(outer, L::NAME, ColType::U32)?;
        check_col(inner, L::NAME, ColType::U32)?;
        if algo != JoinAlgo::NestedLoops {
            return Err(SimError::Unsupported(format!(
                "{} has no {:?} join (Table II)",
                L::NAME,
                algo
            )));
        }
        let (left, right) = self.slab.with2(outer.id, inner.id, |o, i| {
            hostexec::equi_join(o.u32s().buffer().host(), i.u32s().buffer().host())
        })?;
        // The library expression of NLJ: one for_each_n launch over the
        // outer side whose functor scans the inner relation.
        self.lib.for_each_n(
            outer.len,
            presets::nested_loops::<u32>(outer.len, inner.len).with_write((left.len() * 8) as u64),
        )?;
        let lb = self.device.buffer_from_vec(left, L::ALLOC)?;
        let rb = self.device.buffer_from_vec(right, L::ALLOC)?;
        Ok((self.mint_u32(lb), self.mint_u32(rb)))
    }

    fn filter_sum_product(&self, a: &Col, b: &Col, preds: &[Pred<'_>]) -> Result<f64> {
        check_col(a, L::NAME, ColType::F64)?;
        check_col(b, L::NAME, ColType::F64)?;
        check_sum_product(a, b, preds)?;
        // The library's best pipeline fuses the final product+sum into one
        // inner_product call after materialising survivors. Each stage
        // frees every already-minted intermediate before propagating a
        // fault, so a retrying caller starts clean.
        let mut held = vec![self.selection_multi(preds, Connective::And)?];
        let total = (|| {
            held.push(self.gather(a, &held[0])?);
            held.push(self.gather(b, &held[0])?);
            self.slab.with2(held[1].id, held[2].id, |x, y| {
                self.lib.inner_product(x.f64s(), y.f64s())
            })?
        })();
        for c in held {
            self.free(c)?;
        }
        total
    }

    fn fused_map(&self, inputs: &[&Col], expr: &FusedExpr) -> Result<Col> {
        let len = check_fused_inputs(L::NAME, inputs, &[], expr)?;
        // One transform over a zip of all operand ranges: the whole
        // element-wise chain runs as a single launch with no
        // materialised intermediates.
        let read_bytes = (len * row_width(inputs.iter().copied())) as u64;
        let out = with_lanes(&self.slab, inputs, |views, reads| {
            self.lib.transform_zip(
                len,
                || fused_key(&[], expr),
                read_bytes,
                reads,
                |i| expr.eval_row(&|k| views[k].get(i)),
            )
        })??;
        Ok(self.mint(Stored::F64(out)))
    }

    fn fused_filter_agg(
        &self,
        inputs: &[&Col],
        preds: &[FusedPred],
        expr: &FusedExpr,
    ) -> Result<f64> {
        let len = check_fused_inputs(L::NAME, inputs, preds, expr)?;
        // Single transform_reduce over the zip: rows failing a predicate
        // contribute nothing (rather than adding 0.0), so the fold is
        // the composed selection→gather→reduce sequence exactly —
        // bit-equal including signed zeros.
        let read_bytes = (len * row_width(inputs.iter().copied())) as u64;
        with_lanes(&self.slab, inputs, |views, reads| {
            self.lib.transform_reduce_zip(
                len,
                || fused_key(preds, expr),
                read_bytes,
                reads,
                |i| {
                    preds
                        .iter()
                        .all(|p| p.cmp.eval(views[p.input].get(i), p.lit))
                        .then(|| expr.eval_row(&|k| views[k].get(i)))
                },
            )
        })?
    }
}
