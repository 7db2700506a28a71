//! `thrust::transform`, `fill`, `sequence` — element-wise kernels.

use super::charge_io;
use crate::vector::DeviceVector;
use gpu_sim::{
    AllocPolicy, BufferId, Device, DeviceCopy, KernelCost, Reservation, Result, SimError,
};
use std::sync::Arc;

/// `thrust::transform(first, last, result, op)` — unary map into a fresh
/// vector. One kernel launch; output materialised in device memory.
///
/// The kernel body runs through the host-execution engine: the output is
/// written once (no zero-fill) and split across host threads at fixed
/// chunk granularity.
pub fn transform<T, U>(src: &DeviceVector<T>, op: impl Fn(T) -> U + Sync) -> Result<DeviceVector<U>>
where
    T: DeviceCopy,
    U: DeviceCopy + Default,
{
    let out = charge_transform::<T, U>(src.device(), src.len(), src.id())?;
    let input = src.as_slice();
    Ok(DeviceVector::filled(
        out,
        gpu_sim::par_map_vec(src.len(), |i| op(input[i])),
    ))
}

/// What [`transform`] costs on the device: the output allocation and the
/// one kernel launch, for `n` elements read from buffer `src`.
pub fn charge_transform<T, U>(device: &Arc<Device>, n: usize, src: BufferId) -> Result<Reservation>
where
    T: DeviceCopy,
    U: DeviceCopy,
{
    let out = device.reserve(
        (n * std::mem::size_of::<U>()) as u64,
        AllocPolicy::Pooled,
        true,
    )?;
    charge_io(
        device,
        "transform",
        KernelCost::map::<T, U>(n),
        &[src],
        &[out.id()],
    )?;
    Ok(out)
}

/// `thrust::transform(first1, last1, first2, result, op)` — binary map.
pub fn transform_binary<A, B, U>(
    a: &DeviceVector<A>,
    b: &DeviceVector<B>,
    op: impl Fn(A, B) -> U + Sync,
) -> Result<DeviceVector<U>>
where
    A: DeviceCopy,
    B: DeviceCopy,
    U: DeviceCopy + Default,
{
    let out = charge_transform_binary::<A, B, U>(a.device(), (a.len(), a.id()), (b.len(), b.id()))?;
    let (xa, xb) = (a.as_slice(), b.as_slice());
    Ok(DeviceVector::filled(
        out,
        gpu_sim::par_map_vec(a.len(), |i| op(xa[i], xb[i])),
    ))
}

/// What [`transform_binary`] costs on the device, for operands given as
/// `(length, buffer)`: the length check, the output allocation and the one
/// kernel launch.
pub fn charge_transform_binary<A, B, U>(
    device: &Arc<Device>,
    a: (usize, BufferId),
    b: (usize, BufferId),
) -> Result<Reservation>
where
    A: DeviceCopy,
    B: DeviceCopy,
    U: DeviceCopy,
{
    let n = a.0;
    if n != b.0 {
        return Err(SimError::SizeMismatch {
            left: n,
            right: b.0,
        });
    }
    let out = device.reserve(
        (n * std::mem::size_of::<U>()) as u64,
        AllocPolicy::Pooled,
        true,
    )?;
    let cost = KernelCost::map::<A, U>(n)
        .with_read((n * (std::mem::size_of::<A>() + std::mem::size_of::<B>())) as u64);
    charge_io(device, "transform_binary", cost, &[a.1, b.1], &[out.id()])?;
    Ok(out)
}

/// `thrust::transform(zip_iterator(...), result, op)` — N-ary map over a
/// zip of device ranges, expressed as a row functor `op(i)`. The caller
/// supplies the aggregate read footprint and the zip's constituent
/// buffer ids (for trace data-flow edges), since the arity is only known
/// at run time. One kernel launch regardless of arity — this is the
/// single-pass form fused element-wise chains lower to.
pub fn transform_zip<U>(
    device: &Arc<gpu_sim::Device>,
    len: usize,
    read_bytes: u64,
    reads: &[gpu_sim::BufferId],
    op: impl Fn(usize) -> U + Sync,
) -> Result<DeviceVector<U>>
where
    U: DeviceCopy + Default,
{
    let buf = device.alloc_map_with(len, AllocPolicy::Pooled, &op)?;
    let out = DeviceVector::from_buffer(buf);
    let cost = KernelCost::map::<(), U>(len).with_read(read_bytes);
    charge_io(device, "transform_zip", cost, reads, &[out.id()])?;
    Ok(out)
}

/// `thrust::fill` — set every element to `value`.
pub fn fill<T: DeviceCopy>(vec: &mut DeviceVector<T>, value: T) -> Result<()> {
    let device = Arc::clone(vec.device());
    gpu_sim::par_chunks_mut(vec.as_mut_slice(), 1 << 12, |_, chunk| {
        for x in chunk {
            *x = value;
        }
    });
    let cost = KernelCost::map::<(), T>(vec.len());
    charge_io(&device, "fill", cost, &[], &[vec.id()])
}

/// `thrust::sequence` — write `0, 1, 2, …` (row-id generation).
pub fn sequence(device: &Arc<Device>, len: usize) -> Result<DeviceVector<u32>> {
    let out = charge_sequence(device, len)?;
    Ok(DeviceVector::filled(
        out,
        gpu_sim::par_map_vec(len, |i| i as u32),
    ))
}

/// What [`sequence`] costs on the device: the output allocation and the
/// one kernel launch.
pub fn charge_sequence(device: &Arc<Device>, len: usize) -> Result<Reservation> {
    let out = device.reserve((len * 4) as u64, AllocPolicy::Pooled, true)?;
    charge_io(
        device,
        "sequence",
        KernelCost::map::<(), u32>(len),
        &[],
        &[out.id()],
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional;
    use gpu_sim::Device;

    #[test]
    fn transform_maps_and_launches_one_kernel() {
        let dev = Device::with_defaults();
        let v = DeviceVector::from_host(&dev, &[1u32, 2, 3]).unwrap();
        let w = transform(&v, |x| x * x).unwrap();
        assert_eq!(w.to_host().unwrap(), vec![1, 4, 9]);
        assert_eq!(dev.stats().launches_of("thrust::transform"), 1);
    }

    #[test]
    fn transform_binary_multiplies_columns() {
        let dev = Device::with_defaults();
        let a = DeviceVector::from_host(&dev, &[1.0f64, 2.0, 3.0]).unwrap();
        let b = DeviceVector::from_host(&dev, &[4.0f64, 5.0, 6.0]).unwrap();
        let c = transform_binary(&a, &b, functional::multiplies()).unwrap();
        assert_eq!(c.to_host().unwrap(), vec![4.0, 10.0, 18.0]);
    }

    #[test]
    fn transform_binary_rejects_mismatched_lengths() {
        let dev = Device::with_defaults();
        let a = DeviceVector::from_host(&dev, &[1u8]).unwrap();
        let b = DeviceVector::from_host(&dev, &[1u8, 2]).unwrap();
        assert!(matches!(
            transform_binary(&a, &b, |x, y| x + y),
            Err(SimError::SizeMismatch { left: 1, right: 2 })
        ));
    }

    #[test]
    fn fill_and_sequence() {
        let dev = Device::with_defaults();
        let mut v: DeviceVector<u16> = DeviceVector::zeroed(&dev, 4).unwrap();
        fill(&mut v, 7).unwrap();
        assert_eq!(v.to_host().unwrap(), vec![7; 4]);
        let s = sequence(&dev, 5).unwrap();
        assert_eq!(s.to_host().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn each_call_is_a_separate_launch_eager_semantics() {
        let dev = Device::with_defaults();
        let v = DeviceVector::from_host(&dev, &[1u32; 64]).unwrap();
        let a = transform(&v, |x| x + 1).unwrap();
        let b = transform(&a, |x| x * 2).unwrap();
        let _c = transform(&b, |x| x - 1).unwrap();
        assert_eq!(
            dev.stats().launches_of("thrust::transform"),
            3,
            "no fusion in Thrust: three calls, three kernels"
        );
    }
}
