//! The eager algorithm-library adapter — Table II's Thrust and
//! Boost.Compute columns, written once.
//!
//! Both libraries expose the same surface ([`gpu_sim::eager`]): free
//! algorithms over device vectors, every call launching at once and
//! materialising its result. How that surface realises the operator set is
//! therefore one decision, made here. Selection is the paper's canonical
//! example of library chaining: `transform()` (predicate flags) →
//! `exclusive_scan()` (output offsets) → `scatter_if()` (compaction), three
//! kernels with two materialised intermediates. Grouped aggregation is
//! `sort_by_key()` + `reduce_by_key()`. The only join the surface can
//! express is nested loops via `for_each_n()`; merge and hash joins are
//! unsupported (Table II "–").
//!
//! What a call *charges* is the library's runtime profile, its
//! [`Launch`]: [`thrust`](super::thrust) launches pre-compiled kernels out
//! of a pooled allocator, [`boost`](super::boost) enqueues on an OpenCL
//! queue that JIT-compiles each kernel on first use and allocates raw.

use super::{
    check_keyed, check_sum_product, group_sums, leaves, row_width, same_len, select,
    select_cmp_cols, Buffers, Element,
};
use crate::backend::{check_dtype, Col, ColType, GpuBackend, Owner, Pred, Source};
use crate::fused::{check_fused_inputs, FusedExpr, FusedPred};
use crate::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use gpu_sim::eager::{self, Launch, Vector};
use gpu_sim::hostexec;
use gpu_sim::{
    presets, BufferId, Contents, Device, DeviceBuffer, DeviceCopy, Reservation, Result, SimError,
};
use std::sync::Arc;

/// One eager algorithm library plugged into [`EagerBackend`]: its runtime
/// profile, and the two things the framework adds to it.
pub trait EagerLib: Launch + Send + Sync + Sized {
    /// Backend name — the Table II column header.
    const NAME: &'static str;

    /// The library's context on `device`, cold.
    fn cold(device: &Arc<Device>) -> Self;
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
    lib: L,
    owner: Owner,
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
            lib: L::cold(device),
            owner: Owner::new(L::NAME),
        }
    }

    fn mint<T: Element>(&self, v: Vector<T>) -> Col {
        Col::new(self.owner, T::DTYPE, v.len(), v)
    }

    fn mint_buffer<T: Element>(&self, buf: DeviceBuffer<T>) -> Col {
        self.mint(Vector::from_buffer(buf))
    }

    /// The vector behind `col`, once `col` is this backend's and holds
    /// `T`s.
    fn vec<'c, T: DeviceCopy>(&self, col: &'c Col) -> Result<&'c Vector<T>> {
        col.get(self.owner)
    }

    /// The `transform()` stage of a selection over `col` (stored in buffer
    /// `src`), charged: its predicate-flag vector is never read.
    fn charge_flags(&self, col: &Col, src: BufferId) -> Result<Reservation> {
        match col.dtype() {
            ColType::U32 => eager::charge_transform::<u32, u32>(&self.lib, col.len(), src),
            ColType::F64 => eager::charge_transform::<f64, u32>(&self.lib, col.len(), src),
        }
    }

    /// `exclusive_scan()` + `scatter_if()` over `n` flags, charged; `ids`
    /// — the rows the flags stand for — become the compacted output.
    fn compact(&self, flags: &Reservation, n: usize, ids: Contents<u32>) -> Result<Col> {
        let offs = eager::charge_exclusive_scan::<u32>(&self.lib, n, flags.id())?;
        // Reading the total back is a tiny device→host copy in real code.
        let device = self.lib.device();
        device.read_back_scalar();
        let seq = eager::charge_sequence(&self.lib, n)?;
        let out = device.reserve((ids.len() * 4) as u64, L::ALLOC, false)?;
        let reads = [seq.id(), offs.id(), flags.id()];
        eager::charge_scatter_if::<u32>(&self.lib, n, ids.len(), reads, out.id())?;
        Ok(self.mint_buffer(out.into_buffer(ids)))
    }
}

impl<L: EagerLib> Buffers for EagerBackend<L> {
    fn buffer<'c, T: DeviceCopy>(&self, col: &'c Col) -> Result<&'c DeviceBuffer<T>> {
        self.vec(col).map(Vector::buffer)
    }
}

impl<L: EagerLib> GpuBackend for EagerBackend<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn device(&self) -> Arc<Device> {
        Arc::clone(self.lib.device())
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
        Ok(self.mint(Vector::from_host(&self.lib, data)?))
    }

    fn upload_f64(&self, data: &[f64]) -> Result<Col> {
        Ok(self.mint(Vector::from_host(&self.lib, data)?))
    }

    fn upload(&self, len: usize, source: Source<'_>) -> Result<Col> {
        let lib = &self.lib;
        Ok(match source {
            Source::U32(values) => self.mint(Vector::upload(lib, len, values)?),
            Source::F64(values) => self.mint(Vector::upload(lib, len, values)?),
        })
    }

    fn download_u32(&self, col: &Col) -> Result<Vec<u32>> {
        self.vec::<u32>(col)?.to_host()
    }

    fn download_f64(&self, col: &Col) -> Result<Vec<f64>> {
        self.vec::<f64>(col)?.to_host()
    }

    fn free(&self, col: Col) -> Result<()> {
        col.free(self.owner)
    }

    fn selection_multi(&self, preds: &[Pred<'_>], conn: Connective) -> Result<Col> {
        let n = same_len(preds)?;
        let ((ids, _), srcs) = select(self.lib.device(), self, preds, conn)?;
        // The chain Table II names, charged: one transform() per predicate,
        // folded with bit_and / bit_or, then the scan + scatter compaction.
        let mut combined = self.charge_flags(preds[0].col, srcs[0])?;
        for (p, &src) in preds.iter().zip(&srcs).skip(1) {
            let f = self.charge_flags(p.col, src)?;
            let (x, y) = ((n, combined.id()), (n, f.id()));
            combined = eager::charge_transform_binary::<u32, u32, u32>(&self.lib, x, y)?;
        }
        self.compact(&combined, n, ids)
    }

    fn selection_cmp_cols(&self, a: &Col, b: &Col, cmp: CmpOp) -> Result<Col> {
        if a.dtype() != b.dtype() {
            return Err(SimError::Unsupported(
                "mixed-dtype column comparison".into(),
            ));
        }
        let (ids, [ia, ib]) = select_cmp_cols(self.lib.device(), self, a, b, cmp)?;
        let (xa, xb) = ((a.len(), ia), (b.len(), ib));
        let flags = match a.dtype() {
            ColType::U32 => eager::charge_transform_binary::<u32, u32, u32>(&self.lib, xa, xb),
            ColType::F64 => eager::charge_transform_binary::<f64, f64, u32>(&self.lib, xa, xb),
        }?;
        self.compact(&flags, a.len(), ids)
    }

    fn dense_mask(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        let mask = move |x: f64| f64::from(u8::from(cmp.eval(x, lit)));
        let out = match col.dtype() {
            ColType::U32 => eager::transform(&self.lib, self.vec::<u32>(col)?, move |x| {
                mask(f64::from(x))
            }),
            ColType::F64 => eager::transform(&self.lib, self.vec::<f64>(col)?, mask),
        }?;
        Ok(self.mint(out))
    }

    fn product(&self, a: &Col, b: &Col) -> Result<Col> {
        let (x, y) = (self.vec::<f64>(a)?, self.vec::<f64>(b)?);
        Ok(self.mint(eager::transform_binary(&self.lib, x, y, |p, q| p * q)?))
    }

    fn affine(&self, col: &Col, mul: f64, add: f64) -> Result<Col> {
        let v = self.vec::<f64>(col)?;
        Ok(self.mint(eager::transform(&self.lib, v, move |x| x * mul + add)?))
    }

    fn constant_f64(&self, len: usize, value: f64) -> Result<Col> {
        let mut v = Vector::zeroed(&self.lib, len)?;
        eager::fill(&self.lib, &mut v, value)?;
        Ok(self.mint(v))
    }

    fn reduction(&self, col: &Col) -> Result<f64> {
        eager::reduce(&self.lib, self.vec::<f64>(col)?, 0.0f64, |a, x| a + x)
    }

    fn prefix_sum(&self, col: &Col) -> Result<Col> {
        let v = self.vec::<u32>(col)?;
        Ok(self.mint(eager::exclusive_scan(&self.lib, v, 0u32)?))
    }

    fn sort(&self, col: &Col) -> Result<Col> {
        let mut copy = self.vec::<u32>(col)?.dclone()?;
        eager::sort(&self.lib, &mut copy)?;
        Ok(self.mint(copy))
    }

    fn sort_by_key(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        let (k, v) = (self.vec::<u32>(keys)?, self.vec::<f64>(vals)?);
        self.check_reads(self.lib.device(), &[keys, vals])?;
        let (mut k, mut v) = (k.dclone()?, v.dclone()?);
        eager::sort_by_key(&self.lib, &mut k, &mut v)?;
        Ok((self.mint(k), self.mint(v)))
    }

    fn grouped_sum(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        check_keyed(keys, vals)?;
        // sort_by_key() on copies, then reduce_by_key(), charged: neither
        // sorted copy is ever read. The sums come from one row-order pass,
        // seeded so that each group starts from its first value as
        // reduce_by_key does.
        let (kb, vb) = (self.buffer::<u32>(keys)?, self.buffer::<f64>(vals)?);
        let device = self.lib.device();
        let (gk, gv) = group_sums(device, kb, vb, -0.0)?;
        let k = device.reserve_dtod(kb)?;
        let v = device.reserve_dtod(vb)?;
        let (n, reads) = (keys.len(), [k.id(), v.id()]);
        eager::charge_sort_by_key::<u32, f64>(&self.lib, (n, reads[0]), (vals.len(), reads[1]))?;
        let reduced = eager::charge_reduce_by_key::<u32, f64>(&self.lib, n, gk.len(), reads);
        // Release the sorted scratch on the fault path too: a caller
        // retrying the op must not inherit leaked intermediates.
        drop(k);
        drop(v);
        let (rk, rv) = reduced?;
        Ok((
            self.mint_buffer(rk.into_buffer(gk)),
            self.mint_buffer(rv.into_buffer(gv)),
        ))
    }

    fn gather(&self, data: &Col, idx: &Col) -> Result<Col> {
        let map = self.vec::<u32>(idx)?;
        Ok(match data.dtype() {
            ColType::U32 => self.mint(eager::gather(&self.lib, map, self.vec::<u32>(data)?)?),
            ColType::F64 => self.mint(eager::gather(&self.lib, map, self.vec::<f64>(data)?)?),
        })
    }

    fn scatter(&self, data: &Col, idx: &Col, dst_len: usize) -> Result<Col> {
        let (d, i) = (self.vec::<u32>(data)?, self.vec::<u32>(idx)?);
        self.check_reads(self.lib.device(), &[data, idx])?;
        let mut dst = Vector::zeroed(&self.lib, dst_len)?;
        eager::scatter(&self.lib, d, i, &mut dst)?;
        Ok(self.mint(dst))
    }

    fn join(&self, outer: &Col, inner: &Col, algo: JoinAlgo) -> Result<(Col, Col)> {
        let (o, i) = (self.buffer::<u32>(outer)?, self.buffer::<u32>(inner)?);
        if algo != JoinAlgo::NestedLoops {
            return Err(SimError::Unsupported(format!(
                "{} has no {:?} join (Table II)",
                L::NAME,
                algo
            )));
        }
        let (left, right) = hostexec::equi_join(o.data()?, i.data()?);
        // The library expression of NLJ: one for_each_n launch over the
        // outer side whose functor scans the inner relation. Against an
        // empty inner side each functor call still runs its loop test once,
        // so the declaration counts at least one operation per outer row;
        // any non-empty inner side makes the all-pairs count the larger.
        let (outer, inner) = (outer.len(), inner.len());
        let mut cost =
            presets::nested_loops::<u32>(outer, inner).with_write((left.len() * 8) as u64);
        cost.flops = cost.flops.max(outer as u64);
        eager::for_each_n(&self.lib, outer, cost, |_| {})?;
        let lb = self.lib.device().buffer_from_vec(left, L::ALLOC)?;
        let rb = self.lib.device().buffer_from_vec(right, L::ALLOC)?;
        Ok((self.mint_buffer(lb), self.mint_buffer(rb)))
    }

    fn filter_sum_product(&self, a: &Col, b: &Col, preds: &[Pred<'_>]) -> Result<f64> {
        check_dtype(a, ColType::F64)?;
        check_dtype(b, ColType::F64)?;
        check_sum_product(a, b, preds)?;
        self.check_reads(self.lib.device(), &[a, b])?;
        // The library's best pipeline fuses the final product+sum into one
        // inner_product call after materialising survivors. A fault drops
        // every intermediate minted so far, so a retrying caller starts
        // clean.
        let ids = self.selection_multi(preds, Connective::And)?;
        let (ga, gb) = (self.gather(a, &ids)?, self.gather(b, &ids)?);
        let (plus, times) = (|p, q| p + q, |p, q| p * q);
        let (x, y) = (self.vec::<f64>(&ga)?, self.vec::<f64>(&gb)?);
        let total = eager::inner_product(&self.lib, x, y, 0.0f64, plus, times);
        drop((ids, ga, gb));
        total
    }

    fn fused_map(&self, inputs: &[&Col], expr: &FusedExpr) -> Result<Col> {
        let len = check_fused_inputs(inputs, &[], expr)?;
        // One transform over a zip of all operand ranges: the whole
        // element-wise chain runs as a single launch with no
        // materialised intermediates.
        let read_bytes = (len * row_width(inputs.iter().copied())) as u64;
        let (prog, (lanes, reads)) = (expr.compile(), self.lanes(inputs)?);
        let key = || fused_key(&[], expr);
        let leaves = leaves(&lanes);
        let out: Vector<f64> =
            eager::transform_zip(&self.lib, len, key, read_bytes, &reads, &prog, &leaves)?;
        Ok(self.mint(out))
    }

    fn fused_filter_agg(
        &self,
        inputs: &[&Col],
        preds: &[FusedPred],
        expr: &FusedExpr,
    ) -> Result<f64> {
        let len = check_fused_inputs(inputs, preds, expr)?;
        // Single transform_reduce over the zip: rows failing a predicate
        // contribute nothing (rather than adding 0.0), so the fold is
        // the composed selection→gather→reduce sequence exactly —
        // bit-equal including signed zeros.
        let read_bytes = (len * row_width(inputs.iter().copied())) as u64;
        let (prog, (lanes, reads)) = (expr.compile(), self.lanes(inputs)?);
        let key = || fused_key(preds, expr);
        let row_preds: Vec<_> = preds.iter().map(|p| p.row_pred(&lanes)).collect();
        let cols = leaves(&lanes);
        eager::transform_reduce_zip(
            &self.lib, len, key, read_bytes, &reads, 0.0, &prog, &cols, &row_preds,
        )
    }
}
