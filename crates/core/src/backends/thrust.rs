//! Thrust adapter — Table II's third column.
//!
//! Selection is the paper's canonical example of library chaining:
//! `transform()` (predicate flags) → `exclusive_scan()` (output offsets) →
//! `scatter_if()` (compaction), three kernels with two materialised
//! intermediates. Grouped aggregation is `sort_by_key()` +
//! `reduce_by_key()`. The only join Thrust can express is nested loops via
//! `for_each_n()`; merge and hash joins are unsupported (Table II "–").

use super::{same_len, select, select_cmp_cols, StoredColumn};
use crate::backend::{check_col, Col, ColType, GpuBackend, Pred, Slab};
use crate::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use gpu_sim::hostexec::{self, Lane};
use gpu_sim::{presets, AllocPolicy, BufferId, Device, Reservation, Result, SimDuration, SimError};
use std::sync::Arc;
use thrust_sim as thrust;
use thrust_sim::DeviceVector;

/// Device column as stored by this backend.
enum Stored {
    U32(DeviceVector<u32>),
    F64(DeviceVector<f64>),
}

impl StoredColumn for Stored {
    fn lane(&self) -> Lane<'_> {
        match self {
            Stored::U32(v) => Lane::U32(v.as_slice()),
            Stored::F64(v) => Lane::F64(v.as_slice()),
        }
    }

    fn buffer_id(&self) -> BufferId {
        match self {
            Stored::U32(v) => v.id(),
            Stored::F64(v) => v.id(),
        }
    }
}

impl Stored {
    fn byte_len(&self) -> u64 {
        match self {
            Stored::U32(v) => (v.len() * std::mem::size_of::<u32>()) as u64,
            Stored::F64(v) => (v.len() * std::mem::size_of::<f64>()) as u64,
        }
    }
}

/// The Thrust library plugged into the framework.
pub struct ThrustBackend {
    device: Arc<Device>,
    slab: Slab<Stored>,
}

impl std::fmt::Debug for ThrustBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThrustBackend").finish_non_exhaustive()
    }
}

const NAME: &str = "Thrust";

impl ThrustBackend {
    /// Create the backend on `device`.
    pub fn new(device: &Arc<Device>) -> Self {
        ThrustBackend {
            device: Arc::clone(device),
            slab: Slab::default(),
        }
    }

    fn mint(&self, stored: Stored) -> Col {
        let (dtype, len) = match &stored {
            Stored::U32(v) => (ColType::U32, v.len()),
            Stored::F64(v) => (ColType::F64, v.len()),
        };
        Col {
            id: self.slab.insert(stored),
            dtype,
            len,
            backend: NAME,
        }
    }

    /// The `transform()` stage of a selection over `col` (stored in buffer
    /// `src`), charged: its predicate-flag vector is never read.
    fn charge_flags(&self, col: &Col, src: BufferId) -> Result<Reservation> {
        match col.dtype {
            ColType::U32 => thrust::charge_transform::<u32, u32>(&self.device, col.len, src),
            ColType::F64 => thrust::charge_transform::<f64, u32>(&self.device, col.len, src),
        }
    }

    /// `exclusive_scan()` + `scatter_if()` over `n` flags, charged; `ids`
    /// — the rows the flags stand for — become the compacted output.
    fn compact(&self, flags: &Reservation, n: usize, ids: Vec<u32>) -> Result<DeviceVector<u32>> {
        let offs = thrust::charge_exclusive_scan::<u32>(&self.device, n, flags.id())?;
        // Reading the total back is a tiny device→host copy in real code.
        self.device
            .advance(SimDuration::from_nanos(self.device.spec().pcie_latency_ns));
        let seq = thrust::charge_sequence(&self.device, n)?;
        let out = self
            .device
            .reserve((ids.len() * 4) as u64, AllocPolicy::Pooled, false)?;
        thrust::charge_scatter_if::<u32>(
            &self.device,
            n,
            ids.len(),
            [seq.id(), offs.id(), flags.id()],
            out.id(),
        )?;
        Ok(DeviceVector::filled(out, ids))
    }
}

impl GpuBackend for ThrustBackend {
    fn name(&self) -> &'static str {
        NAME
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
        Ok(self.mint(Stored::U32(DeviceVector::from_host(&self.device, data)?)))
    }

    fn upload_f64(&self, data: &[f64]) -> Result<Col> {
        Ok(self.mint(Stored::F64(DeviceVector::from_host(&self.device, data)?)))
    }

    fn download_u32(&self, col: &Col) -> Result<Vec<u32>> {
        check_col(col, NAME, ColType::U32)?;
        self.slab.with(col.id, |s| match s {
            Stored::U32(v) => v.to_host(),
            _ => unreachable!("dtype checked"),
        })?
    }

    fn download_f64(&self, col: &Col) -> Result<Vec<f64>> {
        check_col(col, NAME, ColType::F64)?;
        self.slab.with(col.id, |s| match s {
            Stored::F64(v) => v.to_host(),
            _ => unreachable!("dtype checked"),
        })?
    }

    fn free(&self, col: Col) -> Result<()> {
        if col.backend != NAME {
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
            combined = thrust::charge_transform_binary::<u32, u32, u32>(
                &self.device,
                (n, combined.id()),
                (n, f.id()),
            )?;
        }
        let out = self.compact(&combined, n, picked.ids)?;
        Ok(self.mint(Stored::U32(out)))
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
            ColType::U32 => thrust::charge_transform_binary::<u32, u32, u32>(&self.device, xa, xb),
            ColType::F64 => thrust::charge_transform_binary::<f64, f64, u32>(&self.device, xa, xb),
        }?;
        let out = self.compact(&flags, a.len, ids)?;
        Ok(self.mint(Stored::U32(out)))
    }

    fn dense_mask(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        let out = self.slab.with(col.id, |s| match s {
            Stored::U32(v) => {
                thrust::transform(v, move |x| f64::from(u8::from(cmp.eval(x as f64, lit))))
            }
            Stored::F64(v) => thrust::transform(v, move |x| f64::from(u8::from(cmp.eval(x, lit)))),
        })??;
        Ok(self.mint(Stored::F64(out)))
    }

    fn product(&self, a: &Col, b: &Col) -> Result<Col> {
        check_col(a, NAME, ColType::F64)?;
        check_col(b, NAME, ColType::F64)?;
        let out = self.slab.with2(a.id, b.id, |sa, sb| match (sa, sb) {
            (Stored::F64(va), Stored::F64(vb)) => {
                thrust::transform_binary(va, vb, thrust::functional::multiplies())
            }
            _ => unreachable!("dtype checked"),
        })??;
        Ok(self.mint(Stored::F64(out)))
    }

    fn affine(&self, col: &Col, mul: f64, add: f64) -> Result<Col> {
        check_col(col, NAME, ColType::F64)?;
        let out = self.slab.with(col.id, |s| match s {
            Stored::F64(v) => thrust::transform(v, move |x| x * mul + add),
            _ => unreachable!("dtype checked"),
        })??;
        Ok(self.mint(Stored::F64(out)))
    }

    fn constant_f64(&self, len: usize, value: f64) -> Result<Col> {
        let mut v: DeviceVector<f64> = DeviceVector::zeroed(&self.device, len)?;
        thrust::fill(&mut v, value)?;
        Ok(self.mint(Stored::F64(v)))
    }

    fn reduction(&self, col: &Col) -> Result<f64> {
        check_col(col, NAME, ColType::F64)?;
        self.slab.with(col.id, |s| match s {
            Stored::F64(v) => thrust::reduce(v, 0.0f64, |a, x| a + x),
            _ => unreachable!("dtype checked"),
        })?
    }

    fn prefix_sum(&self, col: &Col) -> Result<Col> {
        check_col(col, NAME, ColType::U32)?;
        let out = self.slab.with(col.id, |s| match s {
            Stored::U32(v) => thrust::exclusive_scan(v, 0u32),
            _ => unreachable!("dtype checked"),
        })??;
        Ok(self.mint(Stored::U32(out)))
    }

    fn sort(&self, col: &Col) -> Result<Col> {
        check_col(col, NAME, ColType::U32)?;
        let mut copy = self.slab.with(col.id, |s| match s {
            Stored::U32(v) => v.dclone(),
            _ => unreachable!("dtype checked"),
        })??;
        thrust::sort(&mut copy)?;
        Ok(self.mint(Stored::U32(copy)))
    }

    fn sort_by_key(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        check_col(keys, NAME, ColType::U32)?;
        check_col(vals, NAME, ColType::F64)?;
        let mut k = self.slab.with(keys.id, |s| match s {
            Stored::U32(v) => v.dclone(),
            _ => unreachable!("dtype checked"),
        })??;
        let mut v = self.slab.with(vals.id, |s| match s {
            Stored::F64(v) => v.dclone(),
            _ => unreachable!("dtype checked"),
        })??;
        thrust::sort_by_key(&mut k, &mut v)?;
        Ok((self.mint(Stored::U32(k)), self.mint(Stored::F64(v))))
    }

    fn grouped_sum(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        check_col(keys, NAME, ColType::U32)?;
        check_col(vals, NAME, ColType::F64)?;
        if keys.len != vals.len {
            return Err(SimError::SizeMismatch {
                left: keys.len,
                right: vals.len,
            });
        }
        // sort_by_key() on copies, then reduce_by_key(), charged: neither
        // sorted copy is ever read. The sums come from one row-order pass,
        // seeded so that each group starts from its first value as
        // reduce_by_key does.
        let (k, v, (gk, gv)) = self.slab.with2(keys.id, vals.id, |a, b| match (a, b) {
            (Stored::U32(keys), Stored::F64(vals)) => {
                let k = self.device.reserve_dtod(keys.buffer())?;
                let v = self.device.reserve_dtod(vals.buffer())?;
                let sums = hostexec::grouped_sum(keys.as_slice(), vals.as_slice(), -0.0);
                Ok((k, v, sums))
            }
            _ => unreachable!("dtype checked"),
        })??;
        let reads = [k.id(), v.id()];
        thrust::charge_sort_by_key::<u32, f64>(
            &self.device,
            (keys.len, reads[0]),
            (vals.len, reads[1]),
        )?;
        let reduced =
            thrust::charge_reduce_by_key::<u32, f64>(&self.device, keys.len, gk.len(), reads);
        // Release the sorted scratch on the fault path too: a caller
        // retrying the op must not inherit leaked intermediates.
        drop(k);
        drop(v);
        let (rk, rv) = reduced?;
        Ok((
            self.mint(Stored::U32(DeviceVector::filled(rk, gk))),
            self.mint(Stored::F64(DeviceVector::filled(rv, gv))),
        ))
    }

    fn gather(&self, data: &Col, idx: &Col) -> Result<Col> {
        check_col(idx, NAME, ColType::U32)?;
        if data.backend != NAME {
            return Err(SimError::Unsupported("foreign column handle".into()));
        }
        let stored = self.slab.with2(data.id, idx.id, |d, i| {
            let Stored::U32(map) = i else {
                unreachable!("dtype checked")
            };
            match d {
                Stored::U32(v) => thrust::gather(map, v).map(Stored::U32),
                Stored::F64(v) => thrust::gather(map, v).map(Stored::F64),
            }
        })??;
        Ok(self.mint(stored))
    }

    fn scatter(&self, data: &Col, idx: &Col, dst_len: usize) -> Result<Col> {
        check_col(data, NAME, ColType::U32)?;
        check_col(idx, NAME, ColType::U32)?;
        let mut dst: DeviceVector<u32> = DeviceVector::zeroed(&self.device, dst_len)?;
        self.slab.with2(data.id, idx.id, |d, i| {
            let (Stored::U32(src), Stored::U32(map)) = (d, i) else {
                unreachable!("dtype checked")
            };
            thrust::scatter(src, map, &mut dst)
        })??;
        Ok(self.mint(Stored::U32(dst)))
    }

    fn join(&self, outer: &Col, inner: &Col, algo: JoinAlgo) -> Result<(Col, Col)> {
        check_col(outer, NAME, ColType::U32)?;
        check_col(inner, NAME, ColType::U32)?;
        match algo {
            JoinAlgo::NestedLoops => {}
            other => {
                return Err(SimError::Unsupported(format!(
                    "Thrust has no {:?} join (Table II)",
                    other
                )))
            }
        }
        let (left, right) = self.slab.with2(outer.id, inner.id, |o, i| {
            let (Stored::U32(ov), Stored::U32(iv)) = (o, i) else {
                unreachable!("dtype checked")
            };
            gpu_sim::hostexec::equi_join(ov.as_slice(), iv.as_slice())
        })?;
        // The library expression of NLJ: one for_each_n launch over the
        // outer side whose functor scans the inner relation.
        thrust::for_each_n(
            &self.device,
            outer.len,
            presets::nested_loops::<u32>(outer.len, inner.len).with_write((left.len() * 8) as u64),
            |_| {},
        )?;
        let lb = self
            .device
            .buffer_from_vec(left, gpu_sim::AllocPolicy::Pooled)?;
        let rb = self
            .device
            .buffer_from_vec(right, gpu_sim::AllocPolicy::Pooled)?;
        Ok((
            self.mint(Stored::U32(DeviceVector::from_buffer(lb))),
            self.mint(Stored::U32(DeviceVector::from_buffer(rb))),
        ))
    }

    fn filter_sum_product(&self, a: &Col, b: &Col, preds: &[Pred<'_>]) -> Result<f64> {
        // Thrust's best pipeline fuses the final product+sum into one
        // inner_product call after materialising survivors. Each stage
        // frees every already-minted intermediate before propagating a
        // fault, so a retrying caller starts clean.
        let ids = self.selection_multi(preds, Connective::And)?;
        let ga = match self.gather(a, &ids) {
            Ok(c) => c,
            Err(e) => {
                self.free(ids)?;
                return Err(e);
            }
        };
        let gb = match self.gather(b, &ids) {
            Ok(c) => c,
            Err(e) => {
                self.free(ids)?;
                self.free(ga)?;
                return Err(e);
            }
        };
        let total = self
            .slab
            .with2(ga.id, gb.id, |x, y| match (x, y) {
                (Stored::F64(va), Stored::F64(vb)) => {
                    thrust::inner_product(va, vb, 0.0f64, |p, q| p + q, |p, q| p * q)
                }
                _ => unreachable!("dtype checked"),
            })
            .and_then(|r| r);
        for c in [ids, ga, gb] {
            self.free(c)?;
        }
        total
    }

    fn fused_map(&self, inputs: &[&Col], expr: &crate::fused::FusedExpr) -> Result<Col> {
        let len = crate::fused::check_fused_inputs(NAME, inputs, &[], expr)?;
        let ids: Vec<u64> = inputs.iter().map(|c| c.id).collect();
        // One transform over a zip of all operand ranges: the whole
        // element-wise chain runs as a single launch with no
        // materialised intermediates.
        let out = self.slab.with_many(&ids, |stored| {
            let views: Vec<Lane<'_>> = stored.iter().map(|s| s.lane()).collect();
            let reads: Vec<gpu_sim::BufferId> = stored.iter().map(|s| s.buffer_id()).collect();
            let read_bytes: u64 = stored.iter().map(|s| s.byte_len()).sum();
            thrust::transform_zip(&self.device, len, read_bytes, &reads, |i| {
                expr.eval_row(&|k| views[k].get(i))
            })
        })??;
        Ok(self.mint(Stored::F64(out)))
    }

    fn fused_filter_agg(
        &self,
        inputs: &[&Col],
        preds: &[crate::fused::FusedPred],
        expr: &crate::fused::FusedExpr,
    ) -> Result<f64> {
        let len = crate::fused::check_fused_inputs(NAME, inputs, preds, expr)?;
        let ids: Vec<u64> = inputs.iter().map(|c| c.id).collect();
        // Single transform_reduce over the zip: rows failing a predicate
        // contribute nothing (rather than adding 0.0), so the fold is
        // the composed selection→gather→reduce sequence exactly —
        // bit-equal including signed zeros.
        self.slab.with_many(&ids, |stored| {
            let views: Vec<Lane<'_>> = stored.iter().map(|s| s.lane()).collect();
            let reads: Vec<gpu_sim::BufferId> = stored.iter().map(|s| s.buffer_id()).collect();
            let read_bytes: u64 = stored.iter().map(|s| s.byte_len()).sum();
            thrust::transform_reduce_zip(
                &self.device,
                len,
                read_bytes,
                &reads,
                0.0f64,
                |a, b| a + b,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> ThrustBackend {
        ThrustBackend::new(&Device::with_defaults())
    }

    #[test]
    fn selection_is_three_kernels() {
        let b = backend();
        let col = b.upload_u32(&[5, 2, 9, 1, 7]).unwrap();
        b.device().reset_stats();
        let ids = b.selection(&col, CmpOp::Gt, 4.0).unwrap();
        assert_eq!(b.download_u32(&ids).unwrap(), vec![0, 2, 4]);
        let s = b.device().stats();
        assert_eq!(s.launches_of("thrust::transform"), 1);
        assert_eq!(s.launches_of("thrust::exclusive_scan"), 1);
        assert_eq!(s.launches_of("thrust::scatter_if"), 1);
    }

    #[test]
    fn conjunction_and_disjunction() {
        let b = backend();
        let x = b.upload_u32(&[1, 5, 3, 8]).unwrap();
        let preds = [
            Pred {
                col: &x,
                cmp: CmpOp::Gt,
                lit: 2.0,
            },
            Pred {
                col: &x,
                cmp: CmpOp::Lt,
                lit: 8.0,
            },
        ];
        let and = b.selection_multi(&preds, Connective::And).unwrap();
        assert_eq!(b.download_u32(&and).unwrap(), vec![1, 2]);
        let or = b.selection_multi(&preds, Connective::Or).unwrap();
        assert_eq!(b.download_u32(&or).unwrap(), vec![0, 1, 2, 3]);
        assert!(b.selection_multi(&[], Connective::And).is_err());
    }

    #[test]
    fn grouped_sum_goes_through_sort_reduce() {
        let b = backend();
        let k = b.upload_u32(&[2, 1, 2, 1]).unwrap();
        let v = b.upload_f64(&[20.0, 10.0, 21.0, 11.0]).unwrap();
        b.device().reset_stats();
        let (gk, gv) = b.grouped_sum(&k, &v).unwrap();
        assert_eq!(b.download_u32(&gk).unwrap(), vec![1, 2]);
        assert_eq!(b.download_f64(&gv).unwrap(), vec![21.0, 41.0]);
        let s = b.device().stats();
        assert!(s.launches_of("thrust::sort_by_key/scatter") > 0);
        assert_eq!(s.launches_of("thrust::reduce_by_key"), 1);
    }

    #[test]
    fn joins_support_matrix() {
        let b = backend();
        assert_eq!(b.support(DbOperator::NestedLoopsJoin), Support::Full);
        assert_eq!(b.support(DbOperator::HashJoin), Support::None);
        assert_eq!(b.support(DbOperator::MergeJoin), Support::None);
        let o = b.upload_u32(&[1, 2, 3]).unwrap();
        let i = b.upload_u32(&[2, 3, 4]).unwrap();
        let (l, r) = b.join(&o, &i, JoinAlgo::NestedLoops).unwrap();
        assert_eq!(b.download_u32(&l).unwrap(), vec![1, 2]);
        assert_eq!(b.download_u32(&r).unwrap(), vec![0, 1]);
        assert!(b.join(&o, &i, JoinAlgo::Hash).is_err());
        assert!(b.join(&o, &i, JoinAlgo::Merge).is_err());
    }

    #[test]
    fn primitives_roundtrip() {
        let b = backend();
        let u = b.upload_u32(&[1, 0, 2, 1]).unwrap();
        let ps = b.prefix_sum(&u).unwrap();
        assert_eq!(b.download_u32(&ps).unwrap(), vec![0, 1, 1, 3]);
        let sorted = b.sort(&u).unwrap();
        assert_eq!(b.download_u32(&sorted).unwrap(), vec![0, 1, 1, 2]);
        // input untouched:
        assert_eq!(b.download_u32(&u).unwrap(), vec![1, 0, 2, 1]);
        let f = b.upload_f64(&[1.5, 2.5]).unwrap();
        assert_eq!(b.reduction(&f).unwrap(), 4.0);
        let g = b.product(&f, &f).unwrap();
        assert_eq!(b.download_f64(&g).unwrap(), vec![2.25, 6.25]);
        let idx = b.upload_u32(&[1, 0]).unwrap();
        let gat = b.gather(&f, &idx).unwrap();
        assert_eq!(b.download_f64(&gat).unwrap(), vec![2.5, 1.5]);
        let sc = b.scatter(&idx, &idx, 3).unwrap();
        assert_eq!(b.download_u32(&sc).unwrap(), vec![0, 1, 0]);
    }

    #[test]
    fn filter_sum_product_matches_manual() {
        let b = backend();
        let a = b.upload_f64(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let c = b.upload_f64(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        let k = b.upload_u32(&[0, 1, 2, 3]).unwrap();
        let preds = [Pred {
            col: &k,
            cmp: CmpOp::Ge,
            lit: 2.0,
        }];
        let r = b.filter_sum_product(&a, &c, &preds).unwrap();
        assert_eq!(r, 3.0 * 30.0 + 4.0 * 40.0);
    }

    #[test]
    fn dtype_and_ownership_checks() {
        let b = backend();
        let u = b.upload_u32(&[1]).unwrap();
        assert!(b.download_f64(&u).is_err());
        assert!(b.reduction(&u).is_err());
        let b2 = backend();
        let other = b2.upload_u32(&[1]).unwrap();
        assert!(b.download_u32(&other).is_err());
        assert!(b.free(other).is_err());
        let mine = b.upload_u32(&[1]).unwrap();
        assert!(b.free(mine).is_ok());
    }

    #[test]
    fn fused_map_is_one_launch_and_matches_composed() {
        use crate::fused::{composed_map, FusedExpr};
        let b = backend();
        let price = b.upload_f64(&[100.0, 50.0, 20.0]).unwrap();
        let disc = b.upload_f64(&[0.05, 0.1, 0.0]).unwrap();
        // price * (1 - disc)
        let expr = FusedExpr::Mul(
            Box::new(FusedExpr::Col(0)),
            Box::new(FusedExpr::Affine {
                input: Box::new(FusedExpr::Col(1)),
                mul: -1.0,
                add: 1.0,
            }),
        );
        let reference = composed_map(&b, &[&price, &disc], &expr).unwrap();
        b.device().reset_stats();
        let fused = b.fused_map(&[&price, &disc], &expr).unwrap();
        let s = b.device().stats();
        assert_eq!(s.launches_of("thrust::transform_zip"), 1);
        assert_eq!(s.total_launches(), 1, "fused map must be a single launch");
        let want: Vec<u64> = b
            .download_f64(&reference)
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let got: Vec<u64> = b
            .download_f64(&fused)
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fused_filter_agg_is_one_launch_and_matches_composed() {
        use crate::fused::{composed_filter_agg, FusedExpr, FusedPred};
        let b = backend();
        let price = b.upload_f64(&[100.0, 50.0, 20.0, 80.0]).unwrap();
        let qty = b.upload_u32(&[10, 30, 5, 20]).unwrap();
        let expr = FusedExpr::Affine {
            input: Box::new(FusedExpr::Col(0)),
            mul: 2.0,
            add: 0.0,
        };
        let preds = [FusedPred {
            input: 1,
            cmp: CmpOp::Lt,
            lit: 25.0,
        }];
        let inputs = [&price, &qty];
        let reference = composed_filter_agg(&b, &inputs, &preds, &expr).unwrap();
        b.device().reset_stats();
        let fused = b.fused_filter_agg(&inputs, &preds, &expr).unwrap();
        let s = b.device().stats();
        assert_eq!(s.launches_of("thrust::transform_reduce_zip"), 1);
        assert_eq!(s.total_launches(), 1, "fused agg must be a single launch");
        assert_eq!(fused.to_bits(), reference.to_bits());
        assert_eq!(fused, 2.0 * (100.0 + 20.0 + 80.0));
    }

    #[test]
    fn fused_kernels_reject_what_the_composed_chain_rejects() {
        use crate::fused::FusedExpr;
        let b = backend();
        let u = b.upload_u32(&[1, 2, 3]).unwrap();
        // Arithmetic over a u32 column fails in `affine` on the composed
        // path; the fused kernel must agree (GL405).
        let expr = FusedExpr::Affine {
            input: Box::new(FusedExpr::Col(0)),
            mul: 2.0,
            add: 0.0,
        };
        assert!(b.fused_map(&[&u], &expr).is_err());
        // But a comparison over u32 is fine, as in `dense_mask`.
        let mask = FusedExpr::Mask {
            input: Box::new(FusedExpr::Col(0)),
            cmp: CmpOp::Ge,
            lit: 2.0,
        };
        let out = b.fused_map(&[&u], &mask).unwrap();
        assert_eq!(b.download_f64(&out).unwrap(), vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn empty_selection_works() {
        let b = backend();
        let col = b.upload_u32(&[]).unwrap();
        let ids = b.selection(&col, CmpOp::Gt, 0.0).unwrap();
        assert!(ids.is_empty());
    }
}
