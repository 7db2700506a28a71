//! Handwritten-kernel adapter — the expert baseline.
//!
//! Every operator is a purpose-built fused kernel: selection is one pass,
//! grouped aggregation is a hash table instead of sort+reduce, and all
//! three joins exist — including the hash join Table II shows no library
//! offers.

use super::{
    check_keyed, check_sum_product, group_sums, leaves, row_preds, row_width, same_len, select,
    select_cmp_cols, Buffers, Element,
};
use crate::backend::{Col, ColType, GpuBackend, Owner, Pred, Source};
use crate::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use gpu_sim::hostexec::Lane;
use gpu_sim::{Contents, Device, DeviceBuffer, DeviceCopy, Result};
use handwritten as hw;
use std::sync::Arc;

/// The handwritten kernel collection plugged into the framework.
pub struct HandwrittenBackend {
    device: Arc<Device>,
    owner: Owner,
}

impl std::fmt::Debug for HandwrittenBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandwrittenBackend").finish_non_exhaustive()
    }
}

const NAME: &str = "Handwritten";

impl HandwrittenBackend {
    /// Create the backend on `device`.
    pub fn new(device: &Arc<Device>) -> Self {
        HandwrittenBackend {
            device: Arc::clone(device),
            owner: Owner::new(NAME),
        }
    }

    fn mint<T: Element>(&self, buf: DeviceBuffer<T>) -> Col {
        Col::new(self.owner, T::DTYPE, buf.len(), buf)
    }

    /// One fused predicate + compact kernel over `n` rows of `width` bytes,
    /// charged; `ids` — the surviving rows — become its output.
    fn select_fused(&self, n: usize, width: usize, ids: Contents<u32>) -> Result<Col> {
        let out = hw::charge_select_fused(&self.device, n, width, ids.len())?;
        Ok(self.mint(out.into_buffer(ids)))
    }
}

impl Buffers for HandwrittenBackend {
    fn buffer<'c, T: DeviceCopy>(&self, col: &'c Col) -> Result<&'c DeviceBuffer<T>> {
        col.get(self.owner)
    }
}

impl GpuBackend for HandwrittenBackend {
    fn name(&self) -> &'static str {
        NAME
    }

    fn device(&self) -> Arc<Device> {
        Arc::clone(&self.device)
    }

    fn support(&self, _op: DbOperator) -> Support {
        Support::Full
    }

    fn realization(&self, op: DbOperator) -> &'static str {
        match op {
            DbOperator::Selection => "fused predicate+compact kernel",
            DbOperator::ConjunctionDisjunction => "fused multi-predicate kernel",
            DbOperator::NestedLoopsJoin => "tiled NLJ kernel",
            DbOperator::MergeJoin => "sorted-merge kernel",
            DbOperator::HashJoin => "hash build+probe kernels",
            DbOperator::GroupedAggregation => "hash aggregation kernel",
            DbOperator::Reduction => "tree reduction kernel",
            DbOperator::SortByKey => "LSD radix sort",
            DbOperator::Sort => "LSD radix sort",
            DbOperator::PrefixSum => "decoupled-lookback scan",
            DbOperator::ScatterGather => "direct kernels",
            DbOperator::Product => "fused map kernel",
        }
    }

    fn upload_u32(&self, data: &[u32]) -> Result<Col> {
        Ok(self.mint(self.device.htod(data)?))
    }

    fn upload_f64(&self, data: &[f64]) -> Result<Col> {
        Ok(self.mint(self.device.htod(data)?))
    }

    fn upload(&self, len: usize, source: Source<'_>) -> Result<Col> {
        Ok(match source {
            Source::U32(values) => self.mint(self.device.upload(len, values)?),
            Source::F64(values) => self.mint(self.device.upload(len, values)?),
        })
    }

    fn download_u32(&self, col: &Col) -> Result<Vec<u32>> {
        self.device.dtoh(self.buffer::<u32>(col)?)
    }

    fn download_f64(&self, col: &Col) -> Result<Vec<f64>> {
        self.device.dtoh(self.buffer::<f64>(col)?)
    }

    fn free(&self, col: Col) -> Result<()> {
        col.free(self.owner)
    }

    fn selection_multi(&self, preds: &[Pred<'_>], conn: Connective) -> Result<Col> {
        let n = same_len(preds)?;
        // One fused kernel evaluates the whole connective per row.
        let ((ids, _), _) = select(&self.device, self, preds, conn)?;
        self.select_fused(n, row_width(preds.iter().map(|p| p.col)), ids)
    }

    fn selection_cmp_cols(&self, a: &Col, b: &Col, cmp: CmpOp) -> Result<Col> {
        let (ids, _) = select_cmp_cols(&self.device, self, a, b, cmp)?;
        self.select_fused(a.len(), row_width([a, b]), ids)
    }

    fn dense_mask(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        let mask = |x: f64| f64::from(u8::from(cmp.eval(x, lit)));
        let out: Vec<f64> = match self.lane(col)?.0 {
            Lane::U32(v) => v.iter().map(|&x| mask(f64::from(x))).collect(),
            Lane::F64(v) => v.iter().map(|&x| mask(x)).collect(),
        };
        charge_map(&self.device, out.len());
        let buf = self
            .device
            .buffer_from_vec(out, gpu_sim::AllocPolicy::Pooled)?;
        Ok(self.mint(buf))
    }

    fn product(&self, a: &Col, b: &Col) -> Result<Col> {
        let (va, vb) = (self.buffer::<f64>(a)?, self.buffer::<f64>(b)?);
        Ok(self.mint(hw::product_f64(&self.device, va, vb)?))
    }

    fn affine(&self, col: &Col, mul: f64, add: f64) -> Result<Col> {
        let v = self.buffer::<f64>(col)?;
        let data: Vec<f64> = v.data()?.iter().map(|&x| x * mul + add).collect();
        charge_map(&self.device, v.len());
        let out = self
            .device
            .buffer_from_vec(data, gpu_sim::AllocPolicy::Pooled)?;
        Ok(self.mint(out))
    }

    fn constant_f64(&self, len: usize, value: f64) -> Result<Col> {
        charge_map(&self.device, len);
        let data = self.device.outputs(len, || vec![value; len]);
        let buf = self
            .device
            .buffer_from_vec(data, gpu_sim::AllocPolicy::Pooled)?;
        Ok(self.mint(buf))
    }

    fn reduction(&self, col: &Col) -> Result<f64> {
        hw::reduce_f64(&self.device, self.buffer(col)?)
    }

    fn prefix_sum(&self, col: &Col) -> Result<Col> {
        let v = self.buffer::<u32>(col)?;
        Ok(self.mint(hw::exclusive_scan_u32(&self.device, v)?))
    }

    fn sort(&self, col: &Col) -> Result<Col> {
        let v = self.buffer::<u32>(col)?;
        Ok(self.mint(hw::sort_u32(&self.device, v)?))
    }

    fn sort_by_key(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        check_keyed(keys, vals)?;
        let (kb, vb) = (self.buffer::<u32>(keys)?, self.buffer::<f64>(vals)?);
        self.check_reads(&self.device, &[keys, vals])?;
        // Sort (key, row-id) pairs, then gather the payload — the tuned
        // pattern for wide payloads.
        let n = keys.len();
        let ids = self.device.outputs(n, || (0..n as u32).collect());
        let mut kbuf = self.device.dtod(kb)?;
        let mut ibuf = self
            .device
            .buffer_from_vec(ids, gpu_sim::AllocPolicy::Pooled)?;
        hw::radix_sort_pairs(&self.device, &mut kbuf, &mut ibuf)?;
        let vout = hw::gather(&self.device, vb, &ibuf)?;
        Ok((self.mint(kbuf), self.mint(vout)))
    }

    fn grouped_sum(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        check_keyed(keys, vals)?;
        // The hash-aggregation kernel pair, charged; of its five output
        // columns only keys and sums are read, so only they get contents —
        // from one row-order pass seeded like the kernel's zeroed
        // accumulators.
        let (kb, vb) = (self.buffer::<u32>(keys)?, self.buffer::<f64>(vals)?);
        let (gk, gv) = group_sums(&self.device, kb, vb, 0.0)?;
        let reads = [kb.id(), vb.id()];
        let out = hw::charge_hash_group_aggregate(&self.device, keys.len(), gk.len(), reads)?;
        Ok((
            self.mint(out.keys.into_buffer(gk)),
            self.mint(out.sums.into_buffer(gv)),
        ))
    }

    fn grouped_sum_count(&self, keys: &Col, vals: &Col) -> Result<(Col, Col, Col)> {
        // One fused hash-aggregation pass yields every aggregate at once —
        // the freedom a custom kernel has and a library interface lacks.
        let (kb, vb) = (self.buffer::<u32>(keys)?, self.buffer::<f64>(vals)?);
        let agg = hw::hash_group_aggregate(&self.device, kb, vb)?;
        let counts_f64 = self.device.outputs(agg.len(), || {
            agg.counts.host().iter().map(|&c| c as f64).collect()
        });
        let counts = self
            .device
            .buffer_from_vec(counts_f64, gpu_sim::AllocPolicy::Pooled)?;
        Ok((self.mint(agg.keys), self.mint(agg.sums), self.mint(counts)))
    }

    fn gather(&self, data: &Col, idx: &Col) -> Result<Col> {
        let map = self.buffer::<u32>(idx)?;
        Ok(match data.dtype() {
            ColType::U32 => self.mint(hw::gather(&self.device, self.buffer::<u32>(data)?, map)?),
            ColType::F64 => self.mint(hw::gather(&self.device, self.buffer::<f64>(data)?, map)?),
        })
    }

    fn scatter(&self, data: &Col, idx: &Col, dst_len: usize) -> Result<Col> {
        let (src, map) = (self.buffer::<u32>(data)?, self.buffer::<u32>(idx)?);
        Ok(self.mint(hw::scatter_u32(&self.device, src, map, dst_len)?))
    }

    fn join(&self, outer: &Col, inner: &Col, algo: JoinAlgo) -> Result<(Col, Col)> {
        let (ov, iv) = (self.buffer::<u32>(outer)?, self.buffer::<u32>(inner)?);
        self.check_reads(&self.device, &[outer, inner])?;
        let result = match algo {
            JoinAlgo::Hash => hw::hash_join(&self.device, ov, iv)?,
            JoinAlgo::NestedLoops => hw::nested_loops_join(&self.device, ov, iv)?,
            JoinAlgo::Merge => {
                // Inputs are arbitrary; a tuned merge join sorts
                // (key, row-id) pairs first, merges, then maps row-ids
                // back through the sort permutations.
                let mut ok = self.device.dtod(ov)?;
                let mut oi = self.device.buffer_from_vec(
                    (0..ov.len() as u32).collect::<Vec<_>>(),
                    gpu_sim::AllocPolicy::Pooled,
                )?;
                hw::radix_sort_pairs(&self.device, &mut ok, &mut oi)?;
                let mut ik = self.device.dtod(iv)?;
                let mut ii = self.device.buffer_from_vec(
                    (0..iv.len() as u32).collect::<Vec<_>>(),
                    gpu_sim::AllocPolicy::Pooled,
                )?;
                hw::radix_sort_pairs(&self.device, &mut ik, &mut ii)?;
                let merged = hw::merge_join(&self.device, &ok, &ik)?;
                let left = hw::gather(&self.device, &oi, &merged.left)?;
                let right = hw::gather(&self.device, &ii, &merged.right)?;
                hw::JoinResult { left, right }
            }
        };
        // Normalise output order to (outer, inner) ascending for
        // cross-backend comparability. The hash and nested-loops kernels
        // emit that order already; the merge join emits key order.
        let (mut l, mut r) = (result.left.host().to_vec(), result.right.host().to_vec());
        if algo == JoinAlgo::Merge {
            let mut pairs: Vec<(u32, u32)> = l.into_iter().zip(r).collect();
            pairs.sort_unstable();
            (l, r) = pairs.into_iter().unzip();
        }
        let lb = self
            .device
            .buffer_from_vec(l, gpu_sim::AllocPolicy::Pooled)?;
        let rb = self
            .device
            .buffer_from_vec(r, gpu_sim::AllocPolicy::Pooled)?;
        Ok((self.mint(lb), self.mint(rb)))
    }

    fn filter_sum_product(&self, a: &Col, b: &Col, preds: &[Pred<'_>]) -> Result<f64> {
        let (va, vb) = (self.buffer::<f64>(a)?, self.buffer::<f64>(b)?);
        check_sum_product(a, b, preds)?;
        let width = row_width(preds.iter().map(|p| p.col));
        let cols: Vec<&Col> = preds.iter().map(|p| p.col).collect();
        let (lanes, pred_ids) = self.lanes(&cols)?;
        let row_preds = row_preds(&lanes, preds);
        hw::fused_filter_dot(&self.device, va, vb, width, &pred_ids, &row_preds)
    }

    fn fused_map(&self, inputs: &[&Col], expr: &crate::fused::FusedExpr) -> Result<Col> {
        let len = crate::fused::check_fused_inputs(inputs, &[], expr)?;
        // The whole element-wise chain as one purpose-built kernel.
        let (width, prog) = (row_width(inputs.iter().copied()), expr.compile());
        let (lanes, ids) = self.lanes(inputs)?;
        let out = hw::fused_map_expr(&self.device, len, width, &ids, &prog, &leaves(&lanes))?;
        Ok(self.mint(out))
    }

    fn fused_filter_agg(
        &self,
        inputs: &[&Col],
        preds: &[crate::fused::FusedPred],
        expr: &crate::fused::FusedExpr,
    ) -> Result<f64> {
        let len = crate::fused::check_fused_inputs(inputs, preds, expr)?;
        // Predicate, value expression and reduction share one pass;
        // failing rows are skipped, not zero-padded, so the fold order
        // is the composed chain's exactly.
        let (width, prog) = (row_width(inputs.iter().copied()), expr.compile());
        let (lanes, ids) = self.lanes(inputs)?;
        let row_preds: Vec<_> = preds.iter().map(|p| p.row_pred(&lanes)).collect();
        let cols = leaves(&lanes);
        hw::fused_filter_sum(&self.device, len, width, &ids, &prog, &cols, &row_preds)
    }
}

/// Charge a single fused `f64` map kernel (CUDA launch overhead).
pub(crate) fn charge_map(device: &Arc<Device>, n: usize) {
    device.charge_kernel(
        "hw::affine",
        gpu_sim::KernelCost::map::<f64, f64>(n)
            .with_launch_overhead(device.spec().cuda_launch_latency_ns),
    );
}

impl ColType {
    /// Byte width of one element.
    pub fn width(self) -> usize {
        match self {
            ColType::U32 => 4,
            ColType::F64 => 8,
        }
    }
}

/// The handwritten kernels' cost profile; answers are `conformance`'s
/// business.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::conformance::{revenue, stats_of};

    #[test]
    fn selections_and_fused_kernels_are_one_launch_each() {
        let b = HandwrittenBackend::new(&Device::with_defaults());
        let ([price, disc, qty], expr, few) = revenue(&b);
        let over = |col| Pred {
            col,
            cmp: CmpOp::Gt,
            lit: 15.0,
        };
        let preds = [over(&qty), over(&price)];
        let inputs = [&price, &disc, &qty];
        let s = stats_of(&b, || b.selection(&qty, CmpOp::Gt, 15.0).unwrap());
        assert_eq!(s.total_launches(), 1, "selection");
        let s = stats_of(&b, || b.selection_multi(&preds, Connective::And).unwrap());
        assert_eq!(s.total_launches(), 1, "conjunction");
        let s = stats_of(&b, || b.selection_multi(&preds, Connective::Or).unwrap());
        assert_eq!(s.total_launches(), 1, "disjunction");
        let s = stats_of(&b, || b.filter_sum_product(&price, &disc, &preds).unwrap());
        assert_eq!(s.total_launches(), 1, "filter_sum_product");
        let s = stats_of(&b, || b.fused_map(&[&price, &disc], &expr).unwrap());
        assert_eq!(s.total_launches(), 1, "fused_map");
        let s = stats_of(&b, || b.fused_filter_agg(&inputs, &few, &expr).unwrap());
        assert_eq!(s.total_launches(), 1, "fused_filter_agg");
    }

    #[test]
    fn all_three_joins_work_and_agree() {
        let b = HandwrittenBackend::new(&Device::with_defaults());
        let o = b.upload_u32(&[4, 1, 2, 2]).unwrap();
        let i = b.upload_u32(&[2, 4, 9]).unwrap();
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::NestedLoops] {
            let (l, r) = b.join(&o, &i, algo).unwrap();
            assert_eq!(b.download_u32(&l).unwrap(), [0, 2, 3], "{algo:?}");
            assert_eq!(b.download_u32(&r).unwrap(), [1, 0, 0], "{algo:?}");
        }
    }

    #[test]
    fn grouped_sum_is_hash_aggregation_not_a_sort() {
        let b = HandwrittenBackend::new(&Device::with_defaults());
        let ([price, _, qty], ..) = revenue(&b);
        let s = stats_of(&b, || b.grouped_sum(&qty, &price).unwrap());
        assert_eq!(s.launches_of("hw::hash_agg/accumulate"), 1);
        assert_eq!(s.launches_of("hw::radix_sort/scatter"), 0, "no sort needed");
    }
}
