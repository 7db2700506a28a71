//! `thrust::reduce`, `reduce_by_key`, `inner_product`.

use super::charge_io;
use crate::vector::DeviceVector;
use gpu_sim::{presets, BufferId, Device, DeviceCopy, KernelCost, Reservation, Result, SimError};
use std::sync::Arc;

/// `thrust::reduce` — fold the vector with `op` starting from `init`.
/// The accumulator type may differ from the element type (as in Thrust,
/// where `init`'s type drives the reduction).
pub fn reduce<T, A>(src: &DeviceVector<T>, init: A, op: impl Fn(A, T) -> A) -> Result<A>
where
    T: DeviceCopy,
    A: DeviceCopy,
{
    let device = Arc::clone(src.device());
    let mut acc = init;
    for &x in src.as_slice() {
        acc = op(acc, x);
    }
    charge_io(
        &device,
        "reduce",
        KernelCost::reduce::<T>(src.len()),
        &[src.id()],
        &[],
    )?;
    // The scalar result returns to the host — Thrust's reduce does a small
    // implicit device→host copy.
    device.advance(gpu_sim::SimDuration::from_nanos(
        device.spec().pcie_latency_ns,
    ));
    Ok(acc)
}

/// `thrust::transform_reduce(zip_iterator(...), op, init, combine)` —
/// fused map-reduce over a zip of device ranges, expressed as a row
/// functor. `op(i)` returns `None` for rows the fused predicate drops;
/// those contribute nothing to the fold, so the accumulation sequence is
/// exactly the composed `selection → gather → reduce` chain's (same
/// additions in the same order — bit-equal, including signed zeros).
/// One kernel launch regardless of arity; the caller supplies the
/// aggregate read footprint and the zip's constituent buffer ids.
pub fn transform_reduce_zip<R>(
    device: &Arc<gpu_sim::Device>,
    len: usize,
    read_bytes: u64,
    reads: &[gpu_sim::BufferId],
    init: R,
    combine: impl Fn(R, R) -> R,
    op: impl Fn(usize) -> Option<R>,
) -> Result<R>
where
    R: DeviceCopy,
{
    let mut acc = init;
    for i in 0..len {
        if let Some(v) = op(i) {
            acc = combine(acc, v);
        }
    }
    let cost = KernelCost::reduce::<R>(len).with_read(read_bytes);
    charge_io(device, "transform_reduce_zip", cost, reads, &[])?;
    // Scalar result returns to the host, as in `reduce`.
    device.advance(gpu_sim::SimDuration::from_nanos(
        device.spec().pcie_latency_ns,
    ));
    Ok(acc)
}

/// `thrust::reduce_by_key` — segmented reduction over runs of *consecutive*
/// equal keys (the standard GPU grouped-aggregation building block after a
/// `sort_by_key`). Returns `(unique_keys, reduced_values)`.
pub fn reduce_by_key<K, V>(
    keys: &DeviceVector<K>,
    vals: &DeviceVector<V>,
    op: impl Fn(V, V) -> V,
) -> Result<(DeviceVector<K>, DeviceVector<V>)>
where
    K: DeviceCopy + PartialEq + Default,
    V: DeviceCopy + Default,
{
    if keys.len() != vals.len() {
        return Err(SimError::SizeMismatch {
            left: keys.len(),
            right: vals.len(),
        });
    }
    let device = Arc::clone(keys.device());
    let mut out_keys = Vec::new();
    let mut out_vals: Vec<V> = Vec::new();
    {
        let ks = keys.as_slice();
        let vs = vals.as_slice();
        let mut i = 0;
        while i < ks.len() {
            let k = ks[i];
            let mut acc = vs[i];
            let mut j = i + 1;
            while j < ks.len() && ks[j] == k {
                acc = op(acc, vs[j]);
                j += 1;
            }
            out_keys.push(k);
            out_vals.push(acc);
            i = j;
        }
    }
    let (kbuf, vbuf) =
        charge_reduce_by_key::<K, V>(&device, keys.len(), out_keys.len(), [keys.id(), vals.id()])?;
    Ok((
        DeviceVector::filled(kbuf, out_keys),
        DeviceVector::filled(vbuf, out_vals),
    ))
}

/// What [`reduce_by_key`] costs on the device: one launch over `n` rows
/// of the `[keys, vals]` buffers, then the allocation of the `groups`
/// unique keys and of their reduced values.
pub fn charge_reduce_by_key<K: DeviceCopy, V: DeviceCopy>(
    device: &Arc<Device>,
    n: usize,
    groups: usize,
    reads: [BufferId; 2],
) -> Result<(Reservation, Reservation)> {
    charge_io(
        device,
        "reduce_by_key",
        presets::reduce_by_key::<K, V>(n, groups),
        &reads,
        &[],
    )?;
    let reserve =
        |elem: usize| device.reserve((groups * elem) as u64, gpu_sim::AllocPolicy::Pooled, true);
    let keys = reserve(std::mem::size_of::<K>())?;
    let vals = reserve(std::mem::size_of::<V>())?;
    Ok((keys, vals))
}

/// `thrust::inner_product` — fused multiply(-like) + reduce in a single
/// call (one kernel), e.g. `SUM(price * discount)`.
pub fn inner_product<A, B, R>(
    a: &DeviceVector<A>,
    b: &DeviceVector<B>,
    init: R,
    combine: impl Fn(R, R) -> R,
    multiply: impl Fn(A, B) -> R,
) -> Result<R>
where
    A: DeviceCopy,
    B: DeviceCopy,
    R: DeviceCopy,
{
    if a.len() != b.len() {
        return Err(SimError::SizeMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    let device = Arc::clone(a.device());
    let mut acc = init;
    let (xa, xb) = (a.as_slice(), b.as_slice());
    for i in 0..xa.len() {
        acc = combine(acc, multiply(xa[i], xb[i]));
    }
    let n = a.len();
    let cost = KernelCost::reduce::<A>(n)
        .with_read((n * (std::mem::size_of::<A>() + std::mem::size_of::<B>())) as u64)
        .with_flops(2 * n as u64);
    charge_io(&device, "inner_product", cost, &[a.id(), b.id()], &[])?;
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;

    #[test]
    fn reduce_sums() {
        let dev = Device::with_defaults();
        let v = DeviceVector::from_host(&dev, &[1u32, 2, 3, 4]).unwrap();
        assert_eq!(reduce(&v, 0u64, |a, x| a + x as u64).unwrap(), 10);
        assert_eq!(dev.stats().launches_of("thrust::reduce"), 1);
    }

    #[test]
    fn reduce_by_key_collapses_consecutive_runs() {
        let dev = Device::with_defaults();
        let k = DeviceVector::from_host(&dev, &[1u32, 1, 2, 2, 2, 1]).unwrap();
        let v = DeviceVector::from_host(&dev, &[10u64, 20, 1, 2, 3, 100]).unwrap();
        let (ko, vo) = reduce_by_key(&k, &v, |a, b| a + b).unwrap();
        // NOTE: trailing `1` is a *new* run — Thrust semantics.
        assert_eq!(ko.to_host().unwrap(), vec![1, 2, 1]);
        assert_eq!(vo.to_host().unwrap(), vec![30, 6, 100]);
    }

    #[test]
    fn reduce_by_key_rejects_mismatch() {
        let dev = Device::with_defaults();
        let k = DeviceVector::from_host(&dev, &[1u32]).unwrap();
        let v = DeviceVector::from_host(&dev, &[1u64, 2]).unwrap();
        assert!(reduce_by_key(&k, &v, |a, b| a + b).is_err());
    }

    #[test]
    fn inner_product_fuses_product_and_sum() {
        let dev = Device::with_defaults();
        let a = DeviceVector::from_host(&dev, &[1.0f64, 2.0, 3.0]).unwrap();
        let b = DeviceVector::from_host(&dev, &[2.0f64, 3.0, 4.0]).unwrap();
        let r = inner_product(&a, &b, 0.0, |x, y| x + y, |x, y| x * y).unwrap();
        assert_eq!(r, 2.0 + 6.0 + 12.0);
        assert_eq!(dev.stats().launches_of("thrust::inner_product"), 1);
    }

    #[test]
    fn empty_reduce_returns_init() {
        let dev = Device::with_defaults();
        let v: DeviceVector<u32> = DeviceVector::zeroed(&dev, 0).unwrap();
        assert_eq!(reduce(&v, 42u32, |a, x| a + x).unwrap(), 42);
    }
}
