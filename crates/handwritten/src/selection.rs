//! Fused selection kernels.
//!
//! A hand-tuned CUDA selection evaluates the predicate, computes output
//! offsets with warp-level ballots/atomics and writes survivors — all in
//! **one** pass over the data. Libraries need three chained calls
//! (`transform`, `exclusive_scan`, `gather`), reading and writing the
//! column multiple times. The ablation experiment A1 quantifies the gap.

use crate::charge;
use gpu_sim::{hostexec, AllocPolicy, Device, DeviceBuffer, KernelCost, Reservation, Result};
use std::sync::Arc;

/// Single-kernel selection: returns the row-ids (u32) of the rows for
/// which `pred(row)` holds.
///
/// `bytes_per_row` declares how many bytes the predicate reads per row
/// (sum of the widths of the columns it touches) so the kernel footprint
/// is charged honestly.
pub fn select_fused(
    device: &Arc<Device>,
    n_rows: usize,
    bytes_per_row: usize,
    pred: impl Fn(usize) -> bool + Sync,
) -> Result<DeviceBuffer<u32>> {
    let idx = hostexec::select_where(n_rows, pred);
    let out = charge_select_fused(device, n_rows, bytes_per_row, idx.len())?;
    Ok(out.into_buffer(idx))
}

/// What [`select_fused`] costs on the device: the one launch over
/// `n_rows` rows of `bytes_per_row` bytes, then the allocation of the
/// `kept` surviving row-ids.
pub fn charge_select_fused(
    device: &Arc<Device>,
    n_rows: usize,
    bytes_per_row: usize,
    kept: usize,
) -> Result<Reservation> {
    let out_bytes = (kept * 4) as u64;
    charge(
        device,
        "select_fused",
        KernelCost::map::<(), ()>(n_rows)
            .with_read((n_rows * bytes_per_row) as u64)
            .with_write(out_bytes)
            .with_flops(2 * n_rows as u64)
            .with_divergence(0.25),
    )?;
    device.reserve(out_bytes, AllocPolicy::Pooled, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_fused_returns_matching_row_ids() {
        let dev = Device::with_defaults();
        let col = [5u32, 2, 9, 1, 7];
        let idx = select_fused(&dev, col.len(), 4, |i| col[i] > 4).unwrap();
        assert_eq!(idx.host(), &[0, 2, 4]);
        assert_eq!(dev.stats().launches_of("hw::select_fused"), 1);
    }

    #[test]
    fn single_kernel_beats_library_three_kernel_chain_at_small_sizes() {
        // 3 launches × 5µs vs 1 launch × 5µs dominates at 1k rows.
        let dev_hw = Device::with_defaults();
        let col: Vec<u32> = (0..1024).collect();
        let (_, t_hw) = dev_hw
            .time(|| select_fused(&dev_hw, col.len(), 4, |i| col[i].is_multiple_of(2)).unwrap());
        // Library chain on an identical device: predicate flags, their
        // scan, and the row ids compacted to the scanned offsets.
        let dev_lib = Device::with_defaults();
        let t_lib = {
            use thrust_sim as thrust;
            let lib = thrust::Thrust::new(&dev_lib);
            let v = thrust::DeviceVector::from_host(&lib, &col).unwrap();
            dev_lib.reset_stats();
            let t0 = dev_lib.now();
            let flags = thrust::transform(&lib, &v, |x| u32::from(x % 2 == 0)).unwrap();
            let offs = thrust::exclusive_scan(&lib, &flags, 0).unwrap();
            let ids = thrust::sequence(&lib, col.len()).unwrap();
            let mut idx = thrust::DeviceVector::zeroed(&lib, col.len() / 2).unwrap();
            thrust::scatter_if(&lib, &ids, &offs, &flags, &mut idx).unwrap();
            dev_lib.now() - t0
        };
        assert!(t_hw < t_lib, "hw {t_hw} vs lib {t_lib}");
    }

    #[test]
    fn empty_selection_yields_empty_buffer() {
        let dev = Device::with_defaults();
        let idx = select_fused(&dev, 100, 4, |_| false).unwrap();
        assert!(idx.is_empty());
    }
}
