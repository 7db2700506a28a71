//! ArrayFire adapter — Table II's first column.
//!
//! Selection is only *partially* supported ("~"): `where()` yields the
//! qualifying indices, but materialising values needs a follow-up
//! `lookup()`. Conjunction/disjunction go through `setIntersect()` /
//! `setUnion()` on index sets. Grouped aggregation is `sort()` by key +
//! `sumByKey()`. Joins are not expressible at all — ArrayFire offers no
//! arbitrary-functor kernel like `for_each_n`. What ArrayFire *does* bring
//! is lazy JIT fusion: chained element-wise math (Product, predicates)
//! compiles into a single kernel.

use super::{check_keyed, check_sum_product, group_sums, kept, row_preds, same_len};
use crate::backend::{check_dtype, Col, ColType, GpuBackend, Owner, Pred, Source};
use crate::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use arrayfire_sim as af;
use arrayfire_sim::{Array, ColumnData, DType};
use gpu_sim::hostexec::{Lane, Rhs, RowPred};
use gpu_sim::{Device, DeviceBuffer, Readable, Reservation, Result, SimError};
use std::sync::Arc;

/// The ArrayFire library plugged into the framework.
pub struct ArrayFireBackend {
    device: Arc<Device>,
    runtime: Arc<af::Backend>,
    owner: Owner,
}

impl std::fmt::Debug for ArrayFireBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayFireBackend").finish_non_exhaustive()
    }
}

const NAME: &str = "ArrayFire";

impl ArrayFireBackend {
    /// Create the backend on `device` (cold JIT kernel cache).
    pub fn new(device: &Arc<Device>) -> Self {
        ArrayFireBackend {
            device: Arc::clone(device),
            runtime: af::Backend::new(device),
            owner: Owner::new(NAME),
        }
    }

    fn mint(&self, arr: Array) -> Col {
        let dtype = match arr.dtype() {
            DType::U32 => ColType::U32,
            _ => ColType::F64,
        };
        Col::new(self.owner, dtype, arr.len(), arr)
    }

    /// The array behind `col`, once `col` is this backend's.
    fn arr<'c>(&self, col: &'c Col) -> Result<&'c Array> {
        col.get(self.owner)
    }

    /// [`Self::arr`] of a column that must hold `dtype` elements.
    fn typed<'c>(&self, col: &'c Col, dtype: ColType) -> Result<&'c Array> {
        check_dtype(col, dtype)?;
        self.arr(col)
    }

    /// [`Device::reads`] over `cols`, evaluated: what an operator building
    /// lazy nodes over them checks first, since each node costs host
    /// bookkeeping time (`af::NODE_OVERHEAD_NS`).
    fn reads(&self, cols: &[&Col]) -> Result<()> {
        let evaluated: Vec<_> = cols
            .iter()
            .map(|c| self.arr(c)?.eval())
            .collect::<Result<_>>()?;
        let inputs: Vec<&dyn Readable> = evaluated.iter().map(|c| c.as_ref() as _).collect();
        self.device.reads(&inputs)
    }

    fn mask(&self, p: &Pred<'_>) -> Result<Array> {
        Ok(cmp_node(self.arr(p.col)?, p.cmp, p.lit))
    }

    /// `where()` over the lazy `mask`, charged: the fused mask kernel, the
    /// scan + compact pair and the `kept` indices, whose contents (like
    /// the mask's) are only backed if the caller fills them.
    fn charge_where(&self, mask: &Array, kept: usize) -> Result<Reservation> {
        let _mask = mask.charge_eval()?;
        af::charge_where(&self.runtime, mask.len(), kept)
    }
}

/// The evaluated column behind a stored array, for a host kernel to read
/// in place. The backend stores `u32` and `f64` columns only; a shape-only
/// one has no lane ([`SimError::ShapeOnly`]).
fn lane(col: &ColumnData) -> Result<Lane<'_>> {
    match col {
        ColumnData::U32(b) => Ok(Lane::U32(b.data()?)),
        ColumnData::F64(b) => Ok(Lane::F64(b.data()?)),
        other => Err(SimError::Unsupported(format!(
            "{} column in a selection",
            other.dtype().name()
        ))),
    }
}

/// The buffer behind an evaluated `u32` column.
fn u32s(col: &ColumnData) -> Result<&DeviceBuffer<u32>> {
    match col {
        ColumnData::U32(b) => Ok(b),
        other => Err(SimError::Unsupported(format!(
            "{} column where u32 expected",
            other.dtype().name()
        ))),
    }
}

/// The buffer behind an evaluated `f64` column.
fn f64s(col: &ColumnData) -> Result<&DeviceBuffer<f64>> {
    match col {
        ColumnData::F64(b) => Ok(b),
        other => Err(SimError::Unsupported(format!(
            "{} column where f64 expected",
            other.dtype().name()
        ))),
    }
}

/// Lazy comparison node `a CMP lit` (B8 mask).
fn cmp_node(a: &Array, cmp: CmpOp, lit: f64) -> Array {
    match cmp {
        CmpOp::Lt => a.lt_scalar(lit),
        CmpOp::Le => a.le_scalar(lit),
        CmpOp::Gt => a.gt_scalar(lit),
        CmpOp::Ge => a.ge_scalar(lit),
        CmpOp::Eq => a.eq_scalar(lit),
        CmpOp::Ne => a.eq_scalar(lit).not(),
    }
}

/// Translate a [`crate::fused::FusedExpr`] into ArrayFire's lazy node
/// DAG without evaluating: `Affine` is the scalar multiply-add chain,
/// `Mul` the element-wise product, `Mask` a comparison cast to `f64` —
/// each exactly the node the unfused `affine`/`product`/`dense_mask`
/// operators build, so evaluation is element-wise identical. The whole
/// tree collapses into one generated kernel at `eval()`.
fn fuse_node(inputs: &[&Array], expr: &crate::fused::FusedExpr) -> Result<Array> {
    use crate::fused::FusedExpr;
    Ok(match expr {
        FusedExpr::Col(i) => inputs[*i].clone(),
        FusedExpr::Affine { input, mul, add } => {
            let a = fuse_node(inputs, input)?;
            &(&a * *mul) + *add
        }
        FusedExpr::Mul(a, b) => {
            fuse_node(inputs, a)?.try_binary(af::BinaryOp::Mul, &fuse_node(inputs, b)?)?
        }
        FusedExpr::Mask { input, cmp, lit } => {
            cmp_node(&fuse_node(inputs, input)?, *cmp, *lit).cast(DType::F64)
        }
    })
}

/// `af::select(mask, value, 0.0)`: `value` where the rows pass, `+0.0`
/// where they do not — whatever a dropped row holds. (`value * mask` would
/// turn a dropped `inf` or `NaN` into a `NaN` that poisons the sum.)
fn masked_by(value: &Array, mask: &Array) -> Result<Array> {
    value.try_binary(af::BinaryOp::Select, &mask.cast(DType::F64))
}

impl GpuBackend for ArrayFireBackend {
    fn name(&self) -> &'static str {
        NAME
    }

    fn device(&self) -> Arc<Device> {
        Arc::clone(&self.device)
    }

    fn support(&self, op: DbOperator) -> Support {
        match op {
            DbOperator::Selection => Support::Partial,
            DbOperator::ScatterGather => Support::Partial,
            DbOperator::NestedLoopsJoin | DbOperator::MergeJoin | DbOperator::HashJoin => {
                Support::None
            }
            _ => Support::Full,
        }
    }

    fn realization(&self, op: DbOperator) -> &'static str {
        match op {
            DbOperator::Selection => "where(operator())",
            DbOperator::ConjunctionDisjunction => "setIntersect(), setUnion()",
            DbOperator::NestedLoopsJoin | DbOperator::MergeJoin | DbOperator::HashJoin => "–",
            DbOperator::GroupedAggregation => "sumByKey(), countByKey()",
            DbOperator::Reduction => "sum<T>()",
            DbOperator::SortByKey => "sort(keys, values)",
            DbOperator::Sort => "sort()",
            DbOperator::PrefixSum => "scan()",
            DbOperator::ScatterGather => "lookup() / assign()",
            DbOperator::Product => "operator*()",
        }
    }

    fn upload_u32(&self, data: &[u32]) -> Result<Col> {
        Ok(self.mint(self.runtime.array_u32(data)?))
    }

    fn upload_f64(&self, data: &[f64]) -> Result<Col> {
        Ok(self.mint(self.runtime.array_f64(data)?))
    }

    fn upload(&self, len: usize, source: Source<'_>) -> Result<Col> {
        Ok(self.mint(match source {
            Source::U32(values) => self.runtime.upload(len, values)?,
            Source::F64(values) => self.runtime.upload(len, values)?,
        }))
    }

    fn download_u32(&self, col: &Col) -> Result<Vec<u32>> {
        self.typed(col, ColType::U32)?.host_u32()
    }

    fn download_f64(&self, col: &Col) -> Result<Vec<f64>> {
        self.typed(col, ColType::F64)?.host_f64()
    }

    fn free(&self, col: Col) -> Result<()> {
        col.free(self.owner)
    }

    fn selection_multi(&self, preds: &[Pred<'_>], conn: Connective) -> Result<Col> {
        same_len(preds)?;
        let all = conn == Connective::And;
        let cols = preds
            .iter()
            .map(|p| self.arr(p.col)?.eval())
            .collect::<Result<Vec<_>>>()?;
        let lanes = cols.iter().map(|c| lane(c)).collect::<Result<Vec<_>>>()?;
        let (picked, counts) = kept(&self.device, &row_preds(&lanes, preds), all);
        // Table II realisation, charged: one where() per predicate,
        // combined with set operations on the index arrays. Only the last
        // index array is ever read, so only it gets contents.
        let mut ids = self.charge_where(&self.mask(&preds[0])?, counts.each[0])?;
        for (j, p) in preds.iter().enumerate().skip(1) {
            let next = self.charge_where(&self.mask(p)?, counts.each[j])?;
            ids = af::charge_set_op(
                &self.runtime,
                all,
                counts.prefix[j - 1],
                counts.each[j],
                counts.prefix[j],
            )?;
            drop(next);
        }
        Ok(self.mint(self.runtime.fill_u32(ids, picked)?))
    }

    fn selection_cmp_cols(&self, a: &Col, b: &Col, cmp: CmpOp) -> Result<Col> {
        let (xa, xb) = (self.arr(a)?, self.arr(b)?);
        let (ca, cb) = (xa.eval()?, xb.eval()?);
        let pred = RowPred {
            col: lane(&ca)?,
            cmp: cmp.into(),
            rhs: Rhs::Col(lane(&cb)?),
        };
        let mask = match cmp {
            CmpOp::Lt => xa.lt(xb)?,
            CmpOp::Le => xa.le(xb)?,
            CmpOp::Gt => xa.gt(xb)?,
            CmpOp::Ge => xa.ge(xb)?,
            CmpOp::Eq => xa.eq_elem(xb)?,
            CmpOp::Ne => xa.ne_elem(xb)?,
        };
        let (picked, _) = kept(&self.device, &[pred], true);
        let ids = self.charge_where(&mask, picked.len())?;
        Ok(self.mint(self.runtime.fill_u32(ids, picked)?))
    }

    fn dense_mask(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        // The comparison mask is lazy; cast to f64 so it multiplies into
        // downstream arithmetic (all of which fuses into one kernel).
        self.reads(&[col])?;
        let mask = self.mask(&Pred { col, cmp, lit })?;
        let out = mask.cast(af::DType::F64);
        out.eval()?;
        Ok(self.mint(out))
    }

    fn product(&self, a: &Col, b: &Col) -> Result<Col> {
        let (xa, xb) = (self.typed(a, ColType::F64)?, self.typed(b, ColType::F64)?);
        self.reads(&[a, b])?;
        let prod = xa.try_binary(af::BinaryOp::Mul, xb)?;
        prod.eval()?;
        Ok(self.mint(prod))
    }

    fn affine(&self, col: &Col, mul: f64, add: f64) -> Result<Col> {
        let a = self.typed(col, ColType::F64)?;
        self.reads(&[col])?;
        let out = &(a * mul) + add; // lazy — fuses with downstream use
        out.eval()?;
        Ok(self.mint(out))
    }

    fn constant_f64(&self, len: usize, value: f64) -> Result<Col> {
        Ok(self.mint(af::constant(&self.runtime, value, len)?))
    }

    fn reduction(&self, col: &Col) -> Result<f64> {
        af::sum(self.typed(col, ColType::F64)?)
    }

    fn prefix_sum(&self, col: &Col) -> Result<Col> {
        Ok(self.mint(af::scan(self.typed(col, ColType::U32)?, true)?))
    }

    fn sort(&self, col: &Col) -> Result<Col> {
        Ok(self.mint(af::sort(self.typed(col, ColType::U32)?)?))
    }

    fn sort_by_key(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        let k = self.typed(keys, ColType::U32)?;
        let (k, v) = af::sort_by_key(k, self.typed(vals, ColType::F64)?)?;
        Ok((self.mint(k), self.mint(v)))
    }

    fn grouped_sum(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        check_keyed(keys, vals)?;
        let (ka, va) = (self.arr(keys)?, self.arr(vals)?);
        let (kcol, vcol) = (ka.eval()?, va.eval()?);
        let (kb, vb) = (u32s(&kcol)?, f64s(&vcol)?);
        // sort(keys, values) then sumByKey(), charged: the sorted columns
        // are never read. The sums come from one row-order pass, seeded so
        // that each group starts from its first value as sumByKey does.
        let (gk, gv) = group_sums(&self.device, kb, vb, -0.0)?;
        let (kd, vd) = (kcol.dtype(), vcol.dtype());
        let n = keys.len();
        let (_sorted_keys, _sorted_vals) = af::charge_sort_by_key(&self.runtime, n, kd, vd)?;
        let (rk, rv) = af::charge_sum_by_key(&self.runtime, n, gk.len(), kd, vd)?;
        Ok((
            self.mint(self.runtime.fill_u32(rk, gk)?),
            self.mint(self.runtime.fill_f64(rv, gv)?),
        ))
    }

    fn gather(&self, data: &Col, idx: &Col) -> Result<Col> {
        let map = self.typed(idx, ColType::U32)?;
        Ok(self.mint(af::lookup(self.arr(data)?, map)?))
    }

    fn scatter(&self, data: &Col, idx: &Col, dst_len: usize) -> Result<Col> {
        // ArrayFire expresses scatter as indexed assignment
        // (`out(idx) = data`); partial support — a host round trip, costed
        // like a random write kernel over the data. The round trip is
        // priced by lengths; only a body reads the data.
        let (d, i) = (
            self.typed(data, ColType::U32)?,
            self.typed(idx, ColType::U32)?,
        );
        let (dcol, icol) = (d.eval()?, i.eval()?);
        let (db, ib) = (u32s(&dcol)?, u32s(&icol)?);
        self.device.reads(&[db, ib])?;
        d.charge_download();
        i.charge_download();
        if db.len() != ib.len() {
            return Err(SimError::SizeMismatch {
                left: db.len(),
                right: ib.len(),
            });
        }
        ib.check_indices(dst_len)?;
        self.device.charge_kernel(
            "af::assign",
            gpu_sim::presets::scatter::<u32>(db.len())
                .with_launch_overhead(self.device.spec().cuda_launch_latency_ns),
        );
        let scattered = || {
            let mut out = vec![0; dst_len];
            for (&x, &at) in db.host().iter().zip(ib.host()) {
                out[at as usize] = x;
            }
            Arc::new(out)
        };
        Ok(self.mint(self.runtime.upload(dst_len, scattered)?))
    }

    fn join(&self, _outer: &Col, _inner: &Col, algo: JoinAlgo) -> Result<(Col, Col)> {
        Err(SimError::Unsupported(format!(
            "ArrayFire offers no {:?} join (Table II: no arbitrary-functor kernels)",
            algo
        )))
    }

    fn filter_sum_product(&self, a: &Col, b: &Col, preds: &[Pred<'_>]) -> Result<f64> {
        // ArrayFire's native pipeline: the predicate masks, the product
        // and the mask select all fuse into ONE generated kernel;
        // only the final reduction is a second launch.
        let (xa, xb) = (self.typed(a, ColType::F64)?, self.typed(b, ColType::F64)?);
        check_sum_product(a, b, preds)?;
        let cols: Vec<&Col> = [a, b]
            .into_iter()
            .chain(preds.iter().map(|p| p.col))
            .collect();
        self.reads(&cols)?;
        let mut mask = self.mask(&preds[0])?;
        for p in &preds[1..] {
            mask = mask.and(&self.mask(p)?)?;
        }
        af::sum(&masked_by(&(xa * xb), &mask)?)
    }

    fn fused_map(&self, inputs: &[&Col], expr: &crate::fused::FusedExpr) -> Result<Col> {
        crate::fused::check_fused_inputs(inputs, &[], expr)?;
        self.reads(inputs)?;
        let arrs: Vec<&Array> = inputs
            .iter()
            .map(|c| self.arr(c))
            .collect::<Result<Vec<_>>>()?;
        // The whole chain stays lazy until one eval(): ArrayFire's JIT
        // generates a single fused kernel for the entire expression.
        let out = fuse_node(&arrs, expr)?;
        out.eval()?;
        Ok(self.mint(out))
    }

    fn fused_filter_agg(
        &self,
        inputs: &[&Col],
        preds: &[crate::fused::FusedPred],
        expr: &crate::fused::FusedExpr,
    ) -> Result<f64> {
        crate::fused::check_fused_inputs(inputs, preds, expr)?;
        self.reads(inputs)?;
        let arrs: Vec<&Array> = inputs
            .iter()
            .map(|c| self.arr(c))
            .collect::<Result<Vec<_>>>()?;
        // ArrayFire's native shape, generalising filter_sum_product: the
        // predicate masks, the value expression and the mask select all
        // fuse into ONE generated kernel; only the reduction is a second
        // launch.
        let mut mask: Option<Array> = None;
        for p in preds {
            let m = cmp_node(arrs[p.input], p.cmp, p.lit);
            mask = Some(match mask {
                None => m,
                Some(acc) => acc.and(&m)?,
            });
        }
        let node = fuse_node(&arrs, expr)?;
        let masked = match mask {
            Some(m) => masked_by(&node, &m)?,
            None => node,
        };
        af::sum(&masked)
    }
}

/// ArrayFire's cost profile; answers are `conformance`'s business.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::conformance::{revenue, stats_of};

    #[test]
    fn conjunction_and_disjunction_are_set_operations() {
        let b = ArrayFireBackend::new(&Device::with_defaults());
        let ([price, _, qty], ..) = revenue(&b);
        let over = |col| Pred {
            col,
            cmp: CmpOp::Gt,
            lit: 15.0,
        };
        let preds = [over(&qty), over(&price)];
        let s = stats_of(&b, || b.selection_multi(&preds, Connective::And).unwrap());
        assert_eq!(s.launches_of("af::setIntersect"), 1);
        assert_eq!(s.launches_of("af::setUnion"), 0);
        let s = stats_of(&b, || b.selection_multi(&preds, Connective::Or).unwrap());
        assert_eq!(s.launches_of("af::setIntersect"), 0);
        assert_eq!(s.launches_of("af::setUnion"), 1);
    }

    #[test]
    fn elementwise_chains_are_one_generated_kernel() {
        let b = ArrayFireBackend::new(&Device::with_defaults());
        let ([price, disc, qty], expr, few) = revenue(&b);
        let s = stats_of(&b, || b.product(&price, &disc).unwrap());
        assert_eq!(s.launches_of("af::jit_fused"), 1);
        let s = stats_of(&b, || b.fused_map(&[&price, &disc], &expr).unwrap());
        assert_eq!(s.launches_of("af::jit_fused"), 1, "whole chain fused");
        // Mask, value expression and mask select fuse; the sum is the
        // only other launch.
        let preds = [Pred {
            col: &qty,
            cmp: CmpOp::Lt,
            lit: 25.0,
        }];
        let s = stats_of(&b, || b.filter_sum_product(&price, &disc, &preds).unwrap());
        assert_eq!(s.launches_of("af::jit_fused"), 1, "mask+product fused");
        assert_eq!(s.launches_of("af::sum"), 1);
        let inputs = [&price, &disc, &qty];
        let s = stats_of(&b, || b.fused_filter_agg(&inputs, &few, &expr).unwrap());
        assert_eq!(s.launches_of("af::jit_fused"), 1, "mask+expr fused");
        assert_eq!(s.launches_of("af::sum"), 1);
    }
}
