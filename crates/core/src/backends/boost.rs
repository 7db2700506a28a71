//! Boost.Compute — Table II's second column — as an `EagerLib`.
//!
//! Same operator realisations as Thrust (`backends::eager`), but
//! running through an OpenCL command queue: every distinct kernel
//! JIT-compiles on first use, each launch pays OpenCL enqueue overhead and
//! every vector is a raw driver allocation. The framework-visible
//! difference is therefore pure cost profile — which is exactly what the
//! paper compares.

use super::eager::{EagerBackend, EagerLib, EagerVector, Operand};
use boost_compute_sim as compute;
use boost_compute_sim::{CommandQueue, Context, Vector};
use gpu_sim::{
    AllocPolicy, BufferId, Device, DeviceBuffer, DeviceCopy, KernelCost, Reservation, Result,
};
use std::sync::Arc;

/// The Boost.Compute library: free algorithms over a command queue.
#[derive(Debug)]
pub struct Boost {
    queue: CommandQueue,
}

/// The Boost.Compute library plugged into the framework.
pub type BoostBackend = EagerBackend<Boost>;

impl<T: DeviceCopy> EagerVector<T> for Vector<T> {
    fn from_buffer(buf: DeviceBuffer<T>) -> Self {
        Vector::from_buffer(buf)
    }

    fn buffer(&self) -> &DeviceBuffer<T> {
        Vector::buffer(self)
    }
}

impl EagerLib for Boost {
    const NAME: &'static str = "Boost.Compute";
    const ALLOC: AllocPolicy = AllocPolicy::Raw;
    type Vector<T: DeviceCopy> = Vector<T>;

    /// A queue on a fresh OpenCL context (cold program cache — first calls
    /// will JIT).
    fn new(device: &Arc<Device>) -> Self {
        Boost {
            queue: CommandQueue::new(&Context::new(device)),
        }
    }

    fn transform<T: DeviceCopy>(
        &self,
        src: &Vector<T>,
        op: impl Fn(T) -> f64 + Sync,
    ) -> Result<Vector<f64>> {
        compute::transform(src, op, &self.queue)
    }

    fn transform_binary(
        &self,
        a: &Vector<f64>,
        b: &Vector<f64>,
        op: impl Fn(f64, f64) -> f64 + Sync,
    ) -> Result<Vector<f64>> {
        compute::transform_binary(a, b, op, &self.queue)
    }

    fn fill(&self, v: &mut Vector<f64>, value: f64) -> Result<()> {
        compute::fill(v, value, &self.queue)
    }

    fn reduce(&self, src: &Vector<f64>) -> Result<f64> {
        compute::reduce(src, 0.0f64, |a, x| a + x, &self.queue)
    }

    fn inner_product(&self, a: &Vector<f64>, b: &Vector<f64>) -> Result<f64> {
        compute::inner_product(a, b, 0.0f64, |p, q| p + q, |p, q| p * q, &self.queue)
    }

    fn exclusive_scan(&self, src: &Vector<u32>) -> Result<Vector<u32>> {
        compute::exclusive_scan(src, 0u32, &self.queue)
    }

    fn sort(&self, v: &mut Vector<u32>) -> Result<()> {
        compute::sort(v, &self.queue)
    }

    fn sort_by_key(&self, k: &mut Vector<u32>, v: &mut Vector<f64>) -> Result<()> {
        compute::sort_by_key(k, v, &self.queue)
    }

    fn gather<T: DeviceCopy + Default>(
        &self,
        map: &Vector<u32>,
        src: &Vector<T>,
    ) -> Result<Vector<T>> {
        compute::gather(map, src, &self.queue)
    }

    fn scatter(&self, src: &Vector<u32>, map: &Vector<u32>, dst: &mut Vector<u32>) -> Result<()> {
        compute::scatter(src, map, dst, &self.queue)
    }

    fn for_each_n(&self, n: usize, cost: KernelCost) -> Result<()> {
        compute::for_each_n(n, cost, |_| {}, &self.queue)
    }

    /// One enqueue of a kernel JIT-compiled per distinct `key`, exactly
    /// like Boost.Compute's lambda-generated kernels.
    fn transform_zip(
        &self,
        len: usize,
        key: impl FnOnce() -> String,
        read_bytes: u64,
        reads: &[BufferId],
        op: impl Fn(usize) -> f64 + Sync,
    ) -> Result<Vector<f64>> {
        compute::transform_zip(len, &key(), read_bytes, reads, op, &self.queue)
    }

    fn transform_reduce_zip(
        &self,
        len: usize,
        key: impl FnOnce() -> String,
        read_bytes: u64,
        reads: &[BufferId],
        op: impl Fn(usize) -> Option<f64>,
    ) -> Result<f64> {
        let (key, plus) = (key(), |a, b| a + b);
        compute::transform_reduce_zip(len, &key, read_bytes, reads, 0.0f64, plus, op, &self.queue)
    }

    fn charge_transform<T: DeviceCopy>(&self, n: usize, src: BufferId) -> Result<Reservation> {
        compute::charge_transform::<T, u32>(n, src, &self.queue)
    }

    fn charge_transform_binary<T: DeviceCopy>(
        &self,
        a: Operand,
        b: Operand,
    ) -> Result<Reservation> {
        compute::charge_transform_binary::<T, T, u32>(a, b, &self.queue)
    }

    fn charge_exclusive_scan(&self, n: usize, src: BufferId) -> Result<Reservation> {
        compute::charge_exclusive_scan::<u32>(n, src, &self.queue)
    }

    fn charge_sequence(&self, n: usize) -> Result<Reservation> {
        compute::charge_iota(n, &self.queue)
    }

    fn charge_scatter_if(
        &self,
        n: usize,
        kept: usize,
        reads: [BufferId; 3],
        dst: BufferId,
    ) -> Result<()> {
        compute::charge_scatter_if::<u32>(n, kept, reads, dst, &self.queue)
    }

    fn charge_sort_by_key(&self, keys: Operand, vals: Operand) -> Result<()> {
        compute::charge_sort_by_key::<u32, f64>(keys, vals, &self.queue)
    }

    fn charge_reduce_by_key(
        &self,
        n: usize,
        groups: usize,
        reads: [BufferId; 2],
    ) -> Result<(Reservation, Reservation)> {
        compute::charge_reduce_by_key::<u32, f64>(n, groups, reads, &self.queue)
    }
}

/// Boost.Compute's cost profile; answers are `conformance`'s business.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GpuBackend;
    use crate::backends::conformance::{revenue, stats_of};
    use crate::fused::FusedExpr;
    use crate::ops::CmpOp;

    #[test]
    fn first_selection_pays_jit_repeats_do_not() {
        let b = BoostBackend::new(&Device::with_defaults());
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
    fn fused_kernels_are_one_launch_and_one_program_per_expression() {
        let b = BoostBackend::new(&Device::with_defaults());
        let ([price, disc, qty], expr, few) = revenue(&b);
        let inputs = [&price, &disc, &qty];
        let agg = |expr| stats_of(&b, || b.fused_filter_agg(&inputs, &few, expr).unwrap());
        let cold = agg(&expr);
        assert_eq!(
            cold.total_launches(),
            1,
            "fused agg must be a single launch"
        );
        assert_eq!(
            cold.jit_compiles, 1,
            "first fused call JIT-compiles its kernel"
        );
        assert_eq!(
            agg(&expr).jit_compiles,
            0,
            "same expression: cached program"
        );
        assert_eq!(
            agg(&FusedExpr::Col(0)).jit_compiles,
            1,
            "new expression: new program"
        );
        let s = stats_of(&b, || b.fused_map(&[&price, &disc], &expr).unwrap());
        assert_eq!(s.total_launches(), 1, "fused map must be a single launch");
    }
}
