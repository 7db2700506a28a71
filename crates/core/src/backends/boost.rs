//! Boost.Compute adapter — Table II's second column.
//!
//! Same operator realisations as Thrust (`transform` → `exclusive_scan` →
//! `scatter_if` selection, `sort_by_key` + `reduce_by_key` aggregation,
//! `for_each_n` nested loops), but running through an OpenCL command queue:
//! every distinct kernel JIT-compiles on first use and each launch pays
//! OpenCL enqueue overhead. The framework-visible difference is therefore
//! pure cost profile — which is exactly what the paper compares.

use super::{same_len, select, select_cmp_cols, StoredColumn};
use crate::backend::{check_col, Col, ColType, GpuBackend, Pred, Slab};
use crate::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use boost_compute_sim as compute;
use boost_compute_sim::{CommandQueue, Context, Vector};
use gpu_sim::hostexec::{self, Lane};
use gpu_sim::{presets, AllocPolicy, BufferId, Device, Reservation, Result, SimDuration, SimError};
use std::sync::Arc;

enum Stored {
    U32(Vector<u32>),
    F64(Vector<f64>),
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

/// Program key for a fused kernel: each distinct expression (and
/// predicate list) JIT-compiles once and is cached thereafter, exactly
/// like Boost.Compute's lambda-generated kernels.
fn fused_key(preds: &[crate::fused::FusedPred], expr: &crate::fused::FusedExpr) -> String {
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

/// The Boost.Compute library plugged into the framework.
pub struct BoostBackend {
    device: Arc<Device>,
    queue: CommandQueue,
    slab: Slab<Stored>,
}

impl std::fmt::Debug for BoostBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoostBackend").finish_non_exhaustive()
    }
}

const NAME: &str = "Boost.Compute";

impl BoostBackend {
    /// Create the backend on `device` with a fresh OpenCL context (cold
    /// program cache — first calls will JIT).
    pub fn new(device: &Arc<Device>) -> Self {
        let ctx = Context::new(device);
        BoostBackend {
            device: Arc::clone(device),
            queue: CommandQueue::new(&ctx),
            slab: Slab::default(),
        }
    }

    /// The backend's command queue (exposed for tests/ablation benches).
    pub fn queue(&self) -> &CommandQueue {
        &self.queue
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
            ColType::U32 => compute::charge_transform::<u32, u32>(col.len, src, &self.queue),
            ColType::F64 => compute::charge_transform::<f64, u32>(col.len, src, &self.queue),
        }
    }

    /// `exclusive_scan()` + `scatter_if()` over `n` flags, charged; `ids`
    /// — the rows the flags stand for — become the compacted output.
    fn compact(&self, flags: &Reservation, n: usize, ids: Vec<u32>) -> Result<Vector<u32>> {
        let offs = compute::charge_exclusive_scan::<u32>(n, flags.id(), &self.queue)?;
        self.device
            .advance(SimDuration::from_nanos(self.device.spec().pcie_latency_ns));
        let seq = compute::charge_iota(n, &self.queue)?;
        let out = self
            .device
            .reserve((ids.len() * 4) as u64, AllocPolicy::Raw, false)?;
        compute::charge_scatter_if::<u32>(
            n,
            ids.len(),
            [seq.id(), offs.id(), flags.id()],
            out.id(),
            &self.queue,
        )?;
        Ok(Vector::filled(out, ids))
    }
}

impl GpuBackend for BoostBackend {
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
        Ok(self.mint(Stored::U32(Vector::from_host(data, &self.queue)?)))
    }

    fn upload_f64(&self, data: &[f64]) -> Result<Col> {
        Ok(self.mint(Stored::F64(Vector::from_host(data, &self.queue)?)))
    }

    fn download_u32(&self, col: &Col) -> Result<Vec<u32>> {
        check_col(col, NAME, ColType::U32)?;
        self.slab.with(col.id, |s| match s {
            Stored::U32(v) => v.to_host(&self.queue),
            _ => unreachable!("dtype checked"),
        })?
    }

    fn download_f64(&self, col: &Col) -> Result<Vec<f64>> {
        check_col(col, NAME, ColType::F64)?;
        self.slab.with(col.id, |s| match s {
            Stored::F64(v) => v.to_host(&self.queue),
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
            combined = compute::charge_transform_binary::<u32, u32, u32>(
                (n, combined.id()),
                (n, f.id()),
                &self.queue,
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
            ColType::U32 => compute::charge_transform_binary::<u32, u32, u32>(xa, xb, &self.queue),
            ColType::F64 => compute::charge_transform_binary::<f64, f64, u32>(xa, xb, &self.queue),
        }?;
        let out = self.compact(&flags, a.len, ids)?;
        Ok(self.mint(Stored::U32(out)))
    }

    fn dense_mask(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        let out = self.slab.with(col.id, |s| match s {
            Stored::U32(v) => compute::transform(
                v,
                move |x| f64::from(u8::from(cmp.eval(x as f64, lit))),
                &self.queue,
            ),
            Stored::F64(v) => compute::transform(
                v,
                move |x| f64::from(u8::from(cmp.eval(x, lit))),
                &self.queue,
            ),
        })??;
        Ok(self.mint(Stored::F64(out)))
    }

    fn product(&self, a: &Col, b: &Col) -> Result<Col> {
        check_col(a, NAME, ColType::F64)?;
        check_col(b, NAME, ColType::F64)?;
        let out = self.slab.with2(a.id, b.id, |sa, sb| match (sa, sb) {
            (Stored::F64(va), Stored::F64(vb)) => {
                compute::transform_binary(va, vb, |x, y| x * y, &self.queue)
            }
            _ => unreachable!("dtype checked"),
        })??;
        Ok(self.mint(Stored::F64(out)))
    }

    fn affine(&self, col: &Col, mul: f64, add: f64) -> Result<Col> {
        check_col(col, NAME, ColType::F64)?;
        let out = self.slab.with(col.id, |s| match s {
            Stored::F64(v) => compute::transform(v, move |x| x * mul + add, &self.queue),
            _ => unreachable!("dtype checked"),
        })??;
        Ok(self.mint(Stored::F64(out)))
    }

    fn constant_f64(&self, len: usize, value: f64) -> Result<Col> {
        let mut v: Vector<f64> = Vector::zeroed(len, &self.queue)?;
        compute::fill(&mut v, value, &self.queue)?;
        Ok(self.mint(Stored::F64(v)))
    }

    fn reduction(&self, col: &Col) -> Result<f64> {
        check_col(col, NAME, ColType::F64)?;
        self.slab.with(col.id, |s| match s {
            Stored::F64(v) => compute::reduce(v, 0.0f64, |a, x| a + x, &self.queue),
            _ => unreachable!("dtype checked"),
        })?
    }

    fn prefix_sum(&self, col: &Col) -> Result<Col> {
        check_col(col, NAME, ColType::U32)?;
        let out = self.slab.with(col.id, |s| match s {
            Stored::U32(v) => compute::exclusive_scan(v, 0u32, &self.queue),
            _ => unreachable!("dtype checked"),
        })??;
        Ok(self.mint(Stored::U32(out)))
    }

    fn sort(&self, col: &Col) -> Result<Col> {
        check_col(col, NAME, ColType::U32)?;
        let mut copy = self.slab.with(col.id, |s| match s {
            Stored::U32(v) => v.dclone(&self.queue),
            _ => unreachable!("dtype checked"),
        })??;
        compute::sort(&mut copy, &self.queue)?;
        Ok(self.mint(Stored::U32(copy)))
    }

    fn sort_by_key(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        check_col(keys, NAME, ColType::U32)?;
        check_col(vals, NAME, ColType::F64)?;
        let mut k = self.slab.with(keys.id, |s| match s {
            Stored::U32(v) => v.dclone(&self.queue),
            _ => unreachable!("dtype checked"),
        })??;
        let mut v = self.slab.with(vals.id, |s| match s {
            Stored::F64(v) => v.dclone(&self.queue),
            _ => unreachable!("dtype checked"),
        })??;
        compute::sort_by_key(&mut k, &mut v, &self.queue)?;
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
        compute::charge_sort_by_key::<u32, f64>(
            (keys.len, reads[0]),
            (vals.len, reads[1]),
            &self.queue,
        )?;
        let reduced =
            compute::charge_reduce_by_key::<u32, f64>(keys.len, gk.len(), reads, &self.queue);
        // Release the sorted scratch on the fault path too: a caller
        // retrying the op must not inherit leaked intermediates.
        drop(k);
        drop(v);
        let (rk, rv) = reduced?;
        Ok((
            self.mint(Stored::U32(Vector::filled(rk, gk))),
            self.mint(Stored::F64(Vector::filled(rv, gv))),
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
                Stored::U32(v) => compute::gather(map, v, &self.queue).map(Stored::U32),
                Stored::F64(v) => compute::gather(map, v, &self.queue).map(Stored::F64),
            }
        })??;
        Ok(self.mint(stored))
    }

    fn scatter(&self, data: &Col, idx: &Col, dst_len: usize) -> Result<Col> {
        check_col(data, NAME, ColType::U32)?;
        check_col(idx, NAME, ColType::U32)?;
        let mut dst: Vector<u32> = Vector::zeroed(dst_len, &self.queue)?;
        self.slab.with2(data.id, idx.id, |d, i| {
            let (Stored::U32(src), Stored::U32(map)) = (d, i) else {
                unreachable!("dtype checked")
            };
            compute::scatter(src, map, &mut dst, &self.queue)
        })??;
        Ok(self.mint(Stored::U32(dst)))
    }

    fn join(&self, outer: &Col, inner: &Col, algo: JoinAlgo) -> Result<(Col, Col)> {
        check_col(outer, NAME, ColType::U32)?;
        check_col(inner, NAME, ColType::U32)?;
        if algo != JoinAlgo::NestedLoops {
            return Err(SimError::Unsupported(format!(
                "Boost.Compute has no {:?} join (Table II)",
                algo
            )));
        }
        let (left, right) = self.slab.with2(outer.id, inner.id, |o, i| {
            let (Stored::U32(ov), Stored::U32(iv)) = (o, i) else {
                unreachable!("dtype checked")
            };
            gpu_sim::hostexec::equi_join(ov.as_slice(), iv.as_slice())
        })?;
        compute::for_each_n(
            outer.len,
            presets::nested_loops::<u32>(outer.len, inner.len).with_write((left.len() * 8) as u64),
            |_| {},
            &self.queue,
        )?;
        let lb = self
            .device
            .buffer_from_vec(left, gpu_sim::AllocPolicy::Raw)?;
        let rb = self
            .device
            .buffer_from_vec(right, gpu_sim::AllocPolicy::Raw)?;
        Ok((
            self.mint(Stored::U32(Vector::from_buffer(lb))),
            self.mint(Stored::U32(Vector::from_buffer(rb))),
        ))
    }

    fn filter_sum_product(&self, a: &Col, b: &Col, preds: &[Pred<'_>]) -> Result<f64> {
        // Each stage frees every already-minted intermediate before
        // propagating a fault, so a retrying caller starts clean.
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
                    compute::inner_product(va, vb, 0.0f64, |p, q| p + q, |p, q| p * q, &self.queue)
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
        let key = fused_key(&[], expr);
        // One enqueue over a zip of all operand ranges — the whole
        // element-wise chain in a single JIT-cached kernel.
        let out = self.slab.with_many(&ids, |stored| {
            let views: Vec<Lane<'_>> = stored.iter().map(|s| s.lane()).collect();
            let reads: Vec<gpu_sim::BufferId> = stored.iter().map(|s| s.buffer_id()).collect();
            let read_bytes: u64 = stored.iter().map(|s| s.byte_len()).sum();
            compute::transform_zip(
                len,
                &key,
                read_bytes,
                &reads,
                |i| expr.eval_row(&|k| views[k].get(i)),
                &self.queue,
            )
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
        let key = fused_key(preds, expr);
        // Single predicate-gated transform_reduce: failing rows
        // contribute nothing, so the fold sequence is the composed
        // selection→gather→reduce chain's exactly (bit-equal, signed
        // zeros included).
        self.slab.with_many(&ids, |stored| {
            let views: Vec<Lane<'_>> = stored.iter().map(|s| s.lane()).collect();
            let reads: Vec<gpu_sim::BufferId> = stored.iter().map(|s| s.buffer_id()).collect();
            let read_bytes: u64 = stored.iter().map(|s| s.byte_len()).sum();
            compute::transform_reduce_zip(
                len,
                &key,
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
                &self.queue,
            )
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> BoostBackend {
        BoostBackend::new(&Device::with_defaults())
    }

    #[test]
    fn selection_matches_thrust_semantics() {
        let b = backend();
        let col = b.upload_u32(&[5, 2, 9, 1, 7]).unwrap();
        let ids = b.selection(&col, CmpOp::Gt, 4.0).unwrap();
        assert_eq!(b.download_u32(&ids).unwrap(), vec![0, 2, 4]);
    }

    #[test]
    fn first_selection_pays_jit_repeats_do_not() {
        let b = backend();
        let col = b.upload_u32(&(0..4096u32).collect::<Vec<_>>()).unwrap();
        let dev = b.device();
        let (_, cold) = dev.time(|| b.selection(&col, CmpOp::Gt, 100.0).unwrap());
        let (_, warm) = dev.time(|| b.selection(&col, CmpOp::Gt, 100.0).unwrap());
        assert!(
            cold.as_nanos() > warm.as_nanos() + dev.spec().opencl_jit_compile_ns,
            "cold {cold} vs warm {warm}"
        );
    }

    #[test]
    fn grouped_sum_and_reduction() {
        let b = backend();
        let k = b.upload_u32(&[3, 3, 1]).unwrap();
        let v = b.upload_f64(&[1.0, 2.0, 4.0]).unwrap();
        let (gk, gv) = b.grouped_sum(&k, &v).unwrap();
        assert_eq!(b.download_u32(&gk).unwrap(), vec![1, 3]);
        assert_eq!(b.download_f64(&gv).unwrap(), vec![4.0, 3.0]);
        assert_eq!(b.reduction(&v).unwrap(), 7.0);
    }

    #[test]
    fn join_support_matches_table_ii() {
        let b = backend();
        let o = b.upload_u32(&[1, 2]).unwrap();
        let i = b.upload_u32(&[2]).unwrap();
        let (l, r) = b.join(&o, &i, JoinAlgo::NestedLoops).unwrap();
        assert_eq!(b.download_u32(&l).unwrap(), vec![1]);
        assert_eq!(b.download_u32(&r).unwrap(), vec![0]);
        assert!(b.join(&o, &i, JoinAlgo::Hash).is_err());
        assert_eq!(b.support(DbOperator::HashJoin), Support::None);
        assert_eq!(b.support(DbOperator::Selection), Support::Full);
    }

    #[test]
    fn filter_sum_product_is_correct() {
        let b = backend();
        let a = b.upload_f64(&[1.0, 2.0, 3.0]).unwrap();
        let c = b.upload_f64(&[2.0, 2.0, 2.0]).unwrap();
        let k = b.upload_u32(&[10, 20, 30]).unwrap();
        let preds = [Pred {
            col: &k,
            cmp: CmpOp::Lt,
            lit: 25.0,
        }];
        assert_eq!(b.filter_sum_product(&a, &c, &preds).unwrap(), 6.0);
    }

    #[test]
    fn fused_kernels_are_single_launch_and_jit_once() {
        use crate::fused::{composed_filter_agg, FusedExpr, FusedPred};
        let b = backend();
        let price = b.upload_f64(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        let qty = b.upload_u32(&[1, 2, 3, 4]).unwrap();
        let expr = FusedExpr::Affine {
            input: Box::new(FusedExpr::Col(0)),
            mul: 0.5,
            add: 1.0,
        };
        let preds = [FusedPred {
            input: 1,
            cmp: CmpOp::Ge,
            lit: 2.0,
        }];
        let inputs = [&price, &qty];
        let reference = composed_filter_agg(&b, &inputs, &preds, &expr).unwrap();
        let dev = b.device();
        dev.reset_stats();
        let first = b.fused_filter_agg(&inputs, &preds, &expr).unwrap();
        let s = dev.stats();
        assert_eq!(s.total_launches(), 1, "fused agg must be a single launch");
        let jits = s.jit_compiles;
        assert!(jits >= 1, "first fused call JIT-compiles its kernel");
        let second = b.fused_filter_agg(&inputs, &preds, &expr).unwrap();
        assert_eq!(
            dev.stats().jit_compiles,
            jits,
            "repeat of the same expression reuses the cached program"
        );
        assert_eq!(first.to_bits(), reference.to_bits());
        assert_eq!(second.to_bits(), reference.to_bits());
        // fused_map too: one launch, bit-equal to the composed chain.
        dev.reset_stats();
        let m = b.fused_map(&[&price], &expr).unwrap();
        assert_eq!(dev.stats().total_launches(), 1);
        assert_eq!(b.download_f64(&m).unwrap(), vec![6.0, 11.0, 16.0, 21.0]);
    }

    #[test]
    fn sort_and_primitives() {
        let b = backend();
        let u = b.upload_u32(&[3, 1, 2]).unwrap();
        let s = b.sort(&u).unwrap();
        assert_eq!(b.download_u32(&s).unwrap(), vec![1, 2, 3]);
        let ps = b.prefix_sum(&u).unwrap();
        assert_eq!(b.download_u32(&ps).unwrap(), vec![0, 3, 4]);
        let idx = b.upload_u32(&[2, 0]).unwrap();
        let g = b.gather(&u, &idx).unwrap();
        assert_eq!(b.download_u32(&g).unwrap(), vec![2, 3]);
        let sc = b.scatter(&g, &idx, 3).unwrap();
        assert_eq!(b.download_u32(&sc).unwrap(), vec![3, 0, 2]);
    }
}
