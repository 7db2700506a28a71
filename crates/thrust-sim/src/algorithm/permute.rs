//! `thrust::scatter` / `gather` — index-directed permutation kernels.
//!
//! These are the materialisation primitives of Table II: selection gathers
//! qualifying rows through computed offsets, and scatter writes rows to
//! computed positions.

use super::charge_io;
use crate::vector::DeviceVector;
use gpu_sim::{presets, AllocPolicy, BufferId, Device, DeviceCopy, Result, SimError};
use std::sync::Arc;

/// `thrust::gather(map, src)` — `out[i] = src[map[i]]`.
pub fn gather<T>(map: &DeviceVector<u32>, src: &DeviceVector<T>) -> Result<DeviceVector<T>>
where
    T: DeviceCopy + Default,
{
    let device = Arc::clone(src.device());
    let m = map.as_slice();
    let s = src.as_slice();
    if let Some(&bad) = m.iter().find(|&&idx| idx as usize >= s.len()) {
        return Err(SimError::IndexOutOfBounds {
            index: bad as usize,
            len: s.len(),
        });
    }
    let buf = device.alloc_map_with(m.len(), AllocPolicy::Pooled, |i| s[m[i] as usize])?;
    let out = DeviceVector::from_buffer(buf);
    charge_io(
        &device,
        "gather",
        presets::gather::<T>(map.len()),
        &[map.id(), src.id()],
        &[out.id()],
    )?;
    Ok(out)
}

/// `thrust::scatter(src, map, dst)` — `dst[map[i]] = src[i]`.
pub fn scatter<T>(
    src: &DeviceVector<T>,
    map: &DeviceVector<u32>,
    dst: &mut DeviceVector<T>,
) -> Result<()>
where
    T: DeviceCopy,
{
    if src.len() != map.len() {
        return Err(SimError::SizeMismatch {
            left: src.len(),
            right: map.len(),
        });
    }
    let device = Arc::clone(src.device());
    {
        let s = src.as_slice();
        let m = map.as_slice();
        let dlen = dst.len();
        let d = dst.as_mut_slice();
        for (i, &idx) in m.iter().enumerate() {
            let idx = idx as usize;
            if idx >= dlen {
                return Err(SimError::IndexOutOfBounds {
                    index: idx,
                    len: dlen,
                });
            }
            d[idx] = s[i];
        }
    }
    charge_io(
        &device,
        "scatter",
        presets::scatter::<T>(src.len()),
        &[src.id(), map.id()],
        &[dst.id()],
    )?;
    Ok(())
}

/// `thrust::scatter_if(src, map, stencil, dst)` — `dst[map[i]] = src[i]`
/// where `stencil[i] != 0`. The third kernel of the paper's library
/// selection pipeline: compacts row-ids to their scanned offsets.
pub fn scatter_if<T>(
    src: &DeviceVector<T>,
    map: &DeviceVector<u32>,
    stencil: &DeviceVector<u32>,
    dst: &mut DeviceVector<T>,
) -> Result<()>
where
    T: DeviceCopy,
{
    if src.len() != map.len() || src.len() != stencil.len() {
        return Err(SimError::SizeMismatch {
            left: src.len(),
            right: map.len().min(stencil.len()),
        });
    }
    let device = Arc::clone(src.device());
    {
        let s = src.as_slice();
        let m = map.as_slice();
        let st = stencil.as_slice();
        let dlen = dst.len();
        let d = dst.as_mut_slice();
        for i in 0..s.len() {
            if st[i] != 0 {
                let idx = m[i] as usize;
                if idx >= dlen {
                    return Err(SimError::IndexOutOfBounds {
                        index: idx,
                        len: dlen,
                    });
                }
                d[idx] = s[i];
            }
        }
    }
    let kept = stencil.as_slice().iter().filter(|&&f| f != 0).count();
    charge_scatter_if::<T>(
        &device,
        src.len(),
        kept,
        [src.id(), map.id(), stencil.id()],
        dst.id(),
    )
}

/// What [`scatter_if`] costs on the device: one launch over `n` elements
/// of which `kept` are written, reading the `[src, map, stencil]` buffers.
pub fn charge_scatter_if<T: DeviceCopy>(
    device: &Device,
    n: usize,
    kept: usize,
    reads: [BufferId; 3],
    dst: BufferId,
) -> Result<()> {
    // Compaction writes are dense (ascending offsets) and sized by the
    // surviving rows: better coalescing than an arbitrary scatter.
    let elem = std::mem::size_of::<T>();
    charge_io(
        device,
        "scatter_if",
        gpu_sim::KernelCost::map::<T, ()>(n)
            .with_read((n * (elem + 8)) as u64) // data + map + stencil
            .with_write((kept * elem) as u64)
            .with_pattern(gpu_sim::AccessPattern::Strided)
            .with_divergence(0.3),
        &reads,
        &[dst],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Device;

    #[test]
    fn gather_permutes() {
        let dev = Device::with_defaults();
        let src = DeviceVector::from_host(&dev, &[10u32, 20, 30, 40]).unwrap();
        let map = DeviceVector::from_host(&dev, &[3u32, 0, 2]).unwrap();
        let out = gather(&map, &src).unwrap();
        assert_eq!(out.to_host().unwrap(), vec![40, 10, 30]);
        assert_eq!(dev.stats().launches_of("thrust::gather"), 1);
    }

    #[test]
    fn gather_bounds_checked() {
        let dev = Device::with_defaults();
        let src = DeviceVector::from_host(&dev, &[1u8]).unwrap();
        let map = DeviceVector::from_host(&dev, &[9u32]).unwrap();
        assert!(matches!(
            gather(&map, &src),
            Err(SimError::IndexOutOfBounds { index: 9, len: 1 })
        ));
    }

    #[test]
    fn scatter_writes_to_mapped_slots() {
        let dev = Device::with_defaults();
        let src = DeviceVector::from_host(&dev, &[7u64, 8]).unwrap();
        let map = DeviceVector::from_host(&dev, &[2u32, 0]).unwrap();
        let mut dst: DeviceVector<u64> = DeviceVector::zeroed(&dev, 3).unwrap();
        scatter(&src, &map, &mut dst).unwrap();
        assert_eq!(dst.to_host().unwrap(), vec![8, 0, 7]);
    }

    #[test]
    fn scatter_validates_lengths_and_bounds() {
        let dev = Device::with_defaults();
        let src = DeviceVector::from_host(&dev, &[1u8, 2]).unwrap();
        let short_map = DeviceVector::from_host(&dev, &[0u32]).unwrap();
        let mut dst: DeviceVector<u8> = DeviceVector::zeroed(&dev, 2).unwrap();
        assert!(scatter(&src, &short_map, &mut dst).is_err());
        let bad_map = DeviceVector::from_host(&dev, &[0u32, 5]).unwrap();
        assert!(scatter(&src, &bad_map, &mut dst).is_err());
    }

    #[test]
    fn scatter_if_compacts_row_ids() {
        // The classic selection tail: row-ids scattered to scanned offsets
        // where the flag is set.
        let dev = Device::with_defaults();
        let ids = DeviceVector::from_host(&dev, &[0u32, 1, 2, 3, 4]).unwrap();
        let flags = DeviceVector::from_host(&dev, &[1u32, 0, 1, 0, 1]).unwrap();
        let offs = DeviceVector::from_host(&dev, &[0u32, 1, 1, 2, 2]).unwrap();
        let mut out: DeviceVector<u32> = DeviceVector::zeroed(&dev, 3).unwrap();
        scatter_if(&ids, &offs, &flags, &mut out).unwrap();
        assert_eq!(out.to_host().unwrap(), vec![0, 2, 4]);
    }

    #[test]
    fn scatter_if_checks_lengths() {
        let dev = Device::with_defaults();
        let ids = DeviceVector::from_host(&dev, &[0u32, 1]).unwrap();
        let short = DeviceVector::from_host(&dev, &[0u32]).unwrap();
        let mut out: DeviceVector<u32> = DeviceVector::zeroed(&dev, 2).unwrap();
        assert!(scatter_if(&ids, &short, &ids, &mut out).is_err());
    }

    #[test]
    fn gather_is_random_access_costed() {
        let dev = Device::with_defaults();
        let n = 1 << 20;
        let src = DeviceVector::from_host(&dev, &vec![1u32; n]).unwrap();
        let map = DeviceVector::from_host(&dev, &(0..n as u32).collect::<Vec<_>>()).unwrap();
        dev.reset_stats();
        let (_, t_gather) = dev.time(|| gather(&map, &src).unwrap());
        let dev2 = Device::with_defaults();
        let src2 = DeviceVector::from_host(&dev2, &vec![1u32; n]).unwrap();
        let (_, t_map) = dev2.time(|| crate::transform(&src2, |x| x).unwrap());
        assert!(t_gather > t_map, "gather pays random-access bandwidth");
    }
}
