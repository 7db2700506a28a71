//! Thrust — Table II's third column — as an `EagerLib`.
//!
//! Every call launches a pre-compiled CUDA kernel (no JIT, CUDA launch
//! latency) and temporaries come from the pooled allocator; the operator
//! realisations themselves are `backends::eager`'s.

use super::eager::{EagerBackend, EagerLib, EagerVector, Operand};
use gpu_sim::{
    AllocPolicy, BufferId, Device, DeviceBuffer, DeviceCopy, KernelCost, Reservation, Result,
};
use std::sync::Arc;
use thrust_sim as thrust;
use thrust_sim::DeviceVector;

/// The Thrust library: free algorithms over a device handle.
#[derive(Debug)]
pub struct Thrust {
    device: Arc<Device>,
}

/// The Thrust library plugged into the framework.
pub type ThrustBackend = EagerBackend<Thrust>;

impl<T: DeviceCopy> EagerVector<T> for DeviceVector<T> {
    fn from_buffer(buf: DeviceBuffer<T>) -> Self {
        DeviceVector::from_buffer(buf)
    }

    fn buffer(&self) -> &DeviceBuffer<T> {
        DeviceVector::buffer(self)
    }
}

impl EagerLib for Thrust {
    const NAME: &'static str = "Thrust";
    const ALLOC: AllocPolicy = AllocPolicy::Pooled;
    type Vector<T: DeviceCopy> = DeviceVector<T>;

    fn new(device: &Arc<Device>) -> Self {
        Thrust {
            device: Arc::clone(device),
        }
    }

    fn transform<T: DeviceCopy>(
        &self,
        src: &DeviceVector<T>,
        op: impl Fn(T) -> f64 + Sync,
    ) -> Result<DeviceVector<f64>> {
        thrust::transform(src, op)
    }

    fn transform_binary(
        &self,
        a: &DeviceVector<f64>,
        b: &DeviceVector<f64>,
        op: impl Fn(f64, f64) -> f64 + Sync,
    ) -> Result<DeviceVector<f64>> {
        thrust::transform_binary(a, b, op)
    }

    fn fill(&self, v: &mut DeviceVector<f64>, value: f64) -> Result<()> {
        thrust::fill(v, value)
    }

    fn reduce(&self, src: &DeviceVector<f64>) -> Result<f64> {
        thrust::reduce(src, 0.0f64, |a, x| a + x)
    }

    fn inner_product(&self, a: &DeviceVector<f64>, b: &DeviceVector<f64>) -> Result<f64> {
        thrust::inner_product(a, b, 0.0f64, |p, q| p + q, |p, q| p * q)
    }

    fn exclusive_scan(&self, src: &DeviceVector<u32>) -> Result<DeviceVector<u32>> {
        thrust::exclusive_scan(src, 0u32)
    }

    fn sort(&self, v: &mut DeviceVector<u32>) -> Result<()> {
        thrust::sort(v)
    }

    fn sort_by_key(&self, k: &mut DeviceVector<u32>, v: &mut DeviceVector<f64>) -> Result<()> {
        thrust::sort_by_key(k, v)
    }

    fn gather<T: DeviceCopy + Default>(
        &self,
        map: &DeviceVector<u32>,
        src: &DeviceVector<T>,
    ) -> Result<DeviceVector<T>> {
        thrust::gather(map, src)
    }

    fn scatter(
        &self,
        src: &DeviceVector<u32>,
        map: &DeviceVector<u32>,
        dst: &mut DeviceVector<u32>,
    ) -> Result<()> {
        thrust::scatter(src, map, dst)
    }

    fn for_each_n(&self, n: usize, cost: KernelCost) -> Result<()> {
        thrust::for_each_n(&self.device, n, cost, |_| {})
    }

    fn transform_zip(
        &self,
        len: usize,
        _key: impl FnOnce() -> String,
        read_bytes: u64,
        reads: &[BufferId],
        op: impl Fn(usize) -> f64 + Sync,
    ) -> Result<DeviceVector<f64>> {
        thrust::transform_zip(&self.device, len, read_bytes, reads, op)
    }

    fn transform_reduce_zip(
        &self,
        len: usize,
        _key: impl FnOnce() -> String,
        read_bytes: u64,
        reads: &[BufferId],
        op: impl Fn(usize) -> Option<f64>,
    ) -> Result<f64> {
        let plus = |a, b| a + b;
        thrust::transform_reduce_zip(&self.device, len, read_bytes, reads, 0.0f64, plus, op)
    }

    fn charge_transform<T: DeviceCopy>(&self, n: usize, src: BufferId) -> Result<Reservation> {
        thrust::charge_transform::<T, u32>(&self.device, n, src)
    }

    fn charge_transform_binary<T: DeviceCopy>(
        &self,
        a: Operand,
        b: Operand,
    ) -> Result<Reservation> {
        thrust::charge_transform_binary::<T, T, u32>(&self.device, a, b)
    }

    fn charge_exclusive_scan(&self, n: usize, src: BufferId) -> Result<Reservation> {
        thrust::charge_exclusive_scan::<u32>(&self.device, n, src)
    }

    fn charge_sequence(&self, n: usize) -> Result<Reservation> {
        thrust::charge_sequence(&self.device, n)
    }

    fn charge_scatter_if(
        &self,
        n: usize,
        kept: usize,
        reads: [BufferId; 3],
        dst: BufferId,
    ) -> Result<()> {
        thrust::charge_scatter_if::<u32>(&self.device, n, kept, reads, dst)
    }

    fn charge_sort_by_key(&self, keys: Operand, vals: Operand) -> Result<()> {
        thrust::charge_sort_by_key::<u32, f64>(&self.device, keys, vals)
    }

    fn charge_reduce_by_key(
        &self,
        n: usize,
        groups: usize,
        reads: [BufferId; 2],
    ) -> Result<(Reservation, Reservation)> {
        thrust::charge_reduce_by_key::<u32, f64>(&self.device, n, groups, reads)
    }
}

/// Thrust's cost profile; answers are `conformance`'s business.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GpuBackend;
    use crate::backends::conformance::{revenue, stats_of};
    use crate::ops::CmpOp;

    #[test]
    fn chains_launch_what_table_ii_names() {
        let b = ThrustBackend::new(&Device::with_defaults());
        let ([price, _, qty], ..) = revenue(&b);
        let s = stats_of(&b, || b.selection(&qty, CmpOp::Gt, 4.0).unwrap());
        assert_eq!(s.launches_of("thrust::transform"), 1);
        assert_eq!(s.launches_of("thrust::exclusive_scan"), 1);
        assert_eq!(s.launches_of("thrust::scatter_if"), 1);
        assert_eq!(s.jit_compiles, 0, "Thrust kernels are pre-compiled");
        let s = stats_of(&b, || b.grouped_sum(&qty, &price).unwrap());
        assert!(s.launches_of("thrust::sort_by_key/scatter") > 0);
        assert_eq!(s.launches_of("thrust::reduce_by_key"), 1);
    }

    #[test]
    fn fused_kernels_are_one_launch_each() {
        let b = ThrustBackend::new(&Device::with_defaults());
        let ([price, disc, qty], expr, few) = revenue(&b);
        let s = stats_of(&b, || b.fused_map(&[&price, &disc], &expr).unwrap());
        assert_eq!(s.launches_of("thrust::transform_zip"), 1);
        assert_eq!(s.total_launches(), 1, "fused map must be a single launch");
        let inputs = [&price, &disc, &qty];
        let s = stats_of(&b, || b.fused_filter_agg(&inputs, &few, &expr).unwrap());
        assert_eq!(s.launches_of("thrust::transform_reduce_zip"), 1);
        assert_eq!(s.total_launches(), 1, "fused agg must be a single launch");
    }
}
