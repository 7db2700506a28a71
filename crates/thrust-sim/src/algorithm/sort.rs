//! `thrust::sort` / `sort_by_key` — LSD radix sort cost model.
//!
//! Thrust dispatches primitive keys to CUB's radix sort: one
//! histogram/scan/scatter kernel triple per 8-bit digit. The functional
//! effect uses a stable host sort; the charge model is the radix footprint.

use super::charge_io;
use crate::vector::DeviceVector;
use gpu_sim::{hostexec, presets, Device, DeviceCopy, RadixKey, Result, SimError};
use std::sync::Arc;

fn charge_radix<K>(
    device: &Arc<Device>,
    n: usize,
    payload_bytes: usize,
    label: &str,
    bufs: &[gpu_sim::BufferId],
) -> Result<()> {
    for (i, cost) in presets::radix_sort::<K>(n, payload_bytes)
        .into_iter()
        .enumerate()
    {
        let phase = match i % 3 {
            0 => "histogram",
            1 => "digit_scan",
            _ => "scatter",
        };
        // Every radix phase reads the key/value buffers; the scatter
        // phase writes them back (the sort is in-place at the buffer
        // level — ping-pong scratch is internal to the pass).
        let writes: &[gpu_sim::BufferId] = if i % 3 == 2 { bufs } else { &[] };
        charge_io(device, &format!("{label}/{phase}"), cost, bufs, writes)?;
    }
    Ok(())
}

/// `thrust::sort` — ascending in-place sort. Primitive keys dispatch to a
/// real LSD radix sort ([`gpu_sim::hostexec`]), exactly as Thrust hands
/// them to CUB.
pub fn sort<T>(vec: &mut DeviceVector<T>) -> Result<()>
where
    T: DeviceCopy + RadixKey,
{
    let device = Arc::clone(vec.device());
    hostexec::sort_keys(vec.as_mut_slice());
    charge_radix::<T>(&device, vec.len(), 0, "sort", &[vec.id()])?;
    Ok(())
}

/// `thrust::sort_by_key` — sort `keys` ascending, permuting `vals` along.
/// Stable (LSD radix sort), so equal keys keep their input order.
pub fn sort_by_key<K, V>(keys: &mut DeviceVector<K>, vals: &mut DeviceVector<V>) -> Result<()>
where
    K: DeviceCopy + RadixKey,
    V: DeviceCopy,
{
    let device = Arc::clone(keys.device());
    charge_sort_by_key::<K, V>(&device, (keys.len(), keys.id()), (vals.len(), vals.id()))?;
    hostexec::sort_pairs(keys.as_mut_slice(), vals.as_mut_slice());
    Ok(())
}

/// What [`sort_by_key`] costs on the device, for the key and value
/// vectors given as `(length, buffer)`: the length check and the radix
/// kernel triples.
pub fn charge_sort_by_key<K, V>(
    device: &Arc<Device>,
    keys: (usize, gpu_sim::BufferId),
    vals: (usize, gpu_sim::BufferId),
) -> Result<()> {
    if keys.0 != vals.0 {
        return Err(SimError::SizeMismatch {
            left: keys.0,
            right: vals.0,
        });
    }
    charge_radix::<K>(
        device,
        keys.0,
        std::mem::size_of::<V>(),
        "sort_by_key",
        &[keys.1, vals.1],
    )
}

/// `thrust::is_sorted`.
pub fn is_sorted<T>(vec: &DeviceVector<T>) -> Result<bool>
where
    T: DeviceCopy + PartialOrd,
{
    let device = Arc::clone(vec.device());
    let sorted = vec.as_slice().windows(2).all(|w| w[0] <= w[1]);
    charge_io(
        &device,
        "is_sorted",
        gpu_sim::KernelCost::reduce::<T>(vec.len()),
        &[vec.id()],
        &[],
    )?;
    Ok(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;
    use rand::prelude::*;

    #[test]
    fn sort_orders_random_data() {
        let dev = Device::with_defaults();
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<u32> = (0..10_000).map(|_| rng.gen()).collect();
        let mut v = DeviceVector::from_host(&dev, &data).unwrap();
        sort(&mut v).unwrap();
        assert!(is_sorted(&v).unwrap());
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(v.to_host().unwrap(), expect);
    }

    #[test]
    fn sort_charges_radix_kernel_triples() {
        let dev = Device::with_defaults();
        let mut v = DeviceVector::from_host(&dev, &[5u32, 4, 3, 2, 1]).unwrap();
        sort(&mut v).unwrap();
        let s = dev.stats();
        // u32 keys → 4 passes × {histogram, digit_scan, scatter}.
        assert_eq!(s.launches_of("thrust::sort/histogram"), 4);
        assert_eq!(s.launches_of("thrust::sort/digit_scan"), 4);
        assert_eq!(s.launches_of("thrust::sort/scatter"), 4);
    }

    #[test]
    fn sort_by_key_permutes_payload_consistently() {
        let dev = Device::with_defaults();
        let mut k = DeviceVector::from_host(&dev, &[3u32, 1, 2]).unwrap();
        let mut v = DeviceVector::from_host(&dev, &[30u64, 10, 20]).unwrap();
        sort_by_key(&mut k, &mut v).unwrap();
        assert_eq!(k.to_host().unwrap(), vec![1, 2, 3]);
        assert_eq!(v.to_host().unwrap(), vec![10, 20, 30]);
    }

    #[test]
    fn sort_by_key_is_stable() {
        let dev = Device::with_defaults();
        let mut k = DeviceVector::from_host(&dev, &[1u32, 0, 1, 0]).unwrap();
        let mut v = DeviceVector::from_host(&dev, &[10u8, 20, 11, 21]).unwrap();
        sort_by_key(&mut k, &mut v).unwrap();
        assert_eq!(v.to_host().unwrap(), vec![20, 21, 10, 11]);
    }

    #[test]
    fn sort_by_key_mismatch_errors() {
        let dev = Device::with_defaults();
        let mut k = DeviceVector::from_host(&dev, &[1u32, 2]).unwrap();
        let mut v = DeviceVector::from_host(&dev, &[1u8]).unwrap();
        assert!(sort_by_key(&mut k, &mut v).is_err());
    }

    #[test]
    fn is_sorted_detects_order() {
        let dev = Device::with_defaults();
        let v = DeviceVector::from_host(&dev, &[1u32, 2, 2, 3]).unwrap();
        assert!(is_sorted(&v).unwrap());
        let w = DeviceVector::from_host(&dev, &[2u32, 1]).unwrap();
        assert!(!is_sorted(&w).unwrap());
    }

    #[test]
    fn sort_by_key_charge_sequence_is_the_radix_triple_loop() {
        // The real radix sort must not perturb the charged kernel
        // sequence: still histogram → digit_scan → scatter per pass, in
        // that order, four passes for u32 keys.
        let dev = Device::with_defaults();
        let mut k = DeviceVector::from_host(&dev, &(0..1000u32).rev().collect::<Vec<_>>()).unwrap();
        let mut v = DeviceVector::from_host(&dev, &vec![0.5f64; 1000]).unwrap();
        dev.set_tracing(true);
        sort_by_key(&mut k, &mut v).unwrap();
        dev.set_tracing(false);
        let kernels: Vec<String> = dev
            .take_trace()
            .into_iter()
            .filter_map(|e| match e.kind {
                gpu_sim::TraceKind::Kernel { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        let expect: Vec<String> = (0..4)
            .flat_map(|_| {
                ["histogram", "digit_scan", "scatter"]
                    .into_iter()
                    .map(|p| format!("thrust::sort_by_key/{p}"))
            })
            .collect();
        assert_eq!(kernels, expect);
    }

    #[test]
    fn u64_sort_costs_more_passes_than_u32() {
        let dev32 = Device::with_defaults();
        let dev64 = Device::with_defaults();
        let n = 1 << 16;
        let mut v32 =
            DeviceVector::from_host(&dev32, &(0..n as u32).rev().collect::<Vec<_>>()).unwrap();
        let mut v64 =
            DeviceVector::from_host(&dev64, &(0..n as u64).rev().collect::<Vec<_>>()).unwrap();
        let (_, t32) = dev32.time(|| sort(&mut v32).unwrap());
        let (_, t64) = dev64.time(|| sort(&mut v64).unwrap());
        assert!(t64 > t32, "8 digit passes must outweigh 4");
    }
}
