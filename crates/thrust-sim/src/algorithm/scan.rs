//! `thrust::exclusive_scan` / `inclusive_scan` — prefix sums.
//!
//! The paper uses `exclusive_scan` as the middle stage of library-based
//! selection (predicate flags → output offsets) and as the *Prefix Sum*
//! operator itself.

use super::charge_io;
use crate::vector::DeviceVector;
use gpu_sim::{presets, AllocPolicy, BufferId, Device, DeviceCopy, Reservation, Result};
use std::ops::Add;
use std::sync::Arc;

/// `thrust::exclusive_scan` — `out[i] = init + Σ src[0..i]`.
///
/// The carry chain stays sequential (parallelising it would reorder the
/// f64 additions).
pub fn exclusive_scan<T>(src: &DeviceVector<T>, init: T) -> Result<DeviceVector<T>>
where
    T: DeviceCopy + Add<Output = T> + Default,
{
    let out = charge_exclusive_scan::<T>(src.device(), src.len(), src.id())?;
    let mut data: Vec<T> = gpu_sim::hostmem::take_scratch(src.len());
    let mut acc = init;
    for (o, &x) in data.iter_mut().zip(src.as_slice()) {
        *o = acc;
        acc = acc + x;
    }
    Ok(DeviceVector::filled(out, data))
}

/// What [`exclusive_scan`] costs on the device: the output allocation and
/// the one kernel launch, for `n` elements read from buffer `src`.
pub fn charge_exclusive_scan<T: DeviceCopy>(
    device: &Arc<Device>,
    n: usize,
    src: BufferId,
) -> Result<Reservation> {
    let out = device.reserve(
        (n * std::mem::size_of::<T>()) as u64,
        AllocPolicy::Pooled,
        true,
    )?;
    charge_io(
        device,
        "exclusive_scan",
        presets::scan::<T>(n),
        &[src],
        &[out.id()],
    )?;
    Ok(out)
}

/// `thrust::inclusive_scan` — `out[i] = Σ src[0..=i]`.
pub fn inclusive_scan<T>(src: &DeviceVector<T>) -> Result<DeviceVector<T>>
where
    T: DeviceCopy + Add<Output = T> + Default,
{
    let device = Arc::clone(src.device());
    let mut data: Vec<T> = gpu_sim::hostmem::take_scratch(src.len());
    let mut acc = T::default();
    for (o, &x) in data.iter_mut().zip(src.as_slice()) {
        acc = acc + x;
        *o = acc;
    }
    let out = DeviceVector::from_buffer(device.buffer_from_vec(data, AllocPolicy::Pooled)?);
    charge_io(
        &device,
        "inclusive_scan",
        presets::scan::<T>(src.len()),
        &[src.id()],
        &[out.id()],
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;

    #[test]
    fn exclusive_scan_offsets() {
        let dev = Device::with_defaults();
        let v = DeviceVector::from_host(&dev, &[1u32, 0, 1, 1, 0]).unwrap();
        let s = exclusive_scan(&v, 0).unwrap();
        assert_eq!(s.to_host().unwrap(), vec![0, 1, 1, 2, 3]);
    }

    #[test]
    fn exclusive_scan_with_init() {
        let dev = Device::with_defaults();
        let v = DeviceVector::from_host(&dev, &[2u32, 3]).unwrap();
        let s = exclusive_scan(&v, 100).unwrap();
        assert_eq!(s.to_host().unwrap(), vec![100, 102]);
    }

    #[test]
    fn inclusive_scan_running_totals() {
        let dev = Device::with_defaults();
        let v = DeviceVector::from_host(&dev, &[1u64, 2, 3]).unwrap();
        let s = inclusive_scan(&v).unwrap();
        assert_eq!(s.to_host().unwrap(), vec![1, 3, 6]);
    }

    #[test]
    fn empty_scan_is_empty() {
        let dev = Device::with_defaults();
        let v: DeviceVector<u32> = DeviceVector::zeroed(&dev, 0).unwrap();
        assert!(exclusive_scan(&v, 0).unwrap().is_empty());
        assert!(inclusive_scan(&v).unwrap().is_empty());
    }
}
