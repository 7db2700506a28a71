//! Handwritten join kernels: hash join, merge join, nested-loops join.
//!
//! Table II's starkest finding: **no** surveyed library supports hashing,
//! so hash joins — the workhorse of analytical engines — must be written
//! by hand. This module is that hand-written code. The nested-loops join
//! is also provided as the only join a library user can express
//! (`for_each_n`), so experiments can quantify what the missing hash
//! support costs.

use crate::charge_io;
use gpu_sim::{hostexec, presets, AllocPolicy, Device, DeviceBuffer, KernelCost, Result};
use std::ops::Range;
use std::sync::Arc;

/// Matched row-id pairs: `left[i]` joins with `right[i]`.
#[derive(Debug)]
pub struct JoinResult {
    /// Row ids from the left (probe/outer) relation.
    pub left: DeviceBuffer<u32>,
    /// Row ids from the right (build/inner) relation.
    pub right: DeviceBuffer<u32>,
}

impl JoinResult {
    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.left.len()
    }

    /// Whether no rows matched.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty()
    }
}

/// Upload the matched `(left, right)` row-id columns of a finished join.
fn pairs_to_device(device: &Arc<Device>, pairs: (Vec<u32>, Vec<u32>)) -> Result<JoinResult> {
    Ok(JoinResult {
        left: device.buffer_from_vec(pairs.0, AllocPolicy::Pooled)?,
        right: device.buffer_from_vec(pairs.1, AllocPolicy::Pooled)?,
    })
}

/// Equi hash join: build a table over `build_keys`, probe with
/// `probe_keys`. Two kernels (build, probe) with random-access footprints.
/// Returns pairs `(probe_row, build_row)`, ascending.
pub fn hash_join(
    device: &Arc<Device>,
    probe_keys: &DeviceBuffer<u32>,
    build_keys: &DeviceBuffer<u32>,
) -> Result<JoinResult> {
    let pairs = hostexec::equi_join(probe_keys.data()?, build_keys.data()?);
    charge_io(
        device,
        "hash_join/build",
        presets::hash_build::<u32, u32>(build_keys.len()),
        &[build_keys.id()],
        &[],
    )?;
    charge_io(
        device,
        "hash_join/probe",
        presets::hash_probe::<u32, u32>(probe_keys.len(), build_keys.len())
            .with_write((pairs.0.len() * 8) as u64),
        &[probe_keys.id(), build_keys.id()],
        &[],
    )?;
    pairs_to_device(device, pairs)
}

/// Call `emit(left_rows, right_rows)` for every pair of equal-key runs of
/// two ascending key columns, in key order.
fn for_each_equal_run(ls: &[u32], rs: &[u32], mut emit: impl FnMut(Range<usize>, Range<usize>)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < ls.len() && j < rs.len() {
        match ls[i].cmp(&rs[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let k = ls[i];
                let (i0, j0) = (i, j);
                i += ls[i..].iter().take_while(|&&x| x == k).count();
                j += rs[j..].iter().take_while(|&&x| x == k).count();
                emit(i0..i, j0..j);
            }
        }
    }
}

/// Sorted-merge join: both key columns must be ascending. One linear
/// kernel over both inputs. Returns pairs `(left_row, right_row)`.
pub fn merge_join(
    device: &Arc<Device>,
    left_keys: &DeviceBuffer<u32>,
    right_keys: &DeviceBuffer<u32>,
) -> Result<JoinResult> {
    let ls = left_keys.data()?;
    let rs = right_keys.data()?;
    for (name, s) in [("left", ls), ("right", rs)] {
        if s.windows(2).any(|w| w[0] > w[1]) {
            return Err(gpu_sim::SimError::Unsupported(format!(
                "merge_join requires sorted inputs ({name} is unsorted)"
            )));
        }
    }
    // Size the output from the run lengths, then emit the cross product of
    // each pair of equal runs.
    let mut matches = 0;
    for_each_equal_run(ls, rs, |l, r| matches += l.len() * r.len());
    let mut left = Vec::with_capacity(matches);
    let mut right = Vec::with_capacity(matches);
    for_each_equal_run(ls, rs, |l, r| {
        for li in l {
            for rj in r.clone() {
                left.push(li as u32);
                right.push(rj as u32);
            }
        }
    });
    charge_io(
        device,
        "merge_join",
        KernelCost::map::<u32, ()>(ls.len() + rs.len())
            .with_write((left.len() * 8) as u64)
            .with_flops((ls.len() + rs.len()) as u64 * 2)
            .with_divergence(0.15),
        &[left_keys.id(), right_keys.id()],
        &[],
    )?;
    pairs_to_device(device, (left, right))
}

/// Tiled nested-loops join — the only join expressible with library
/// `for_each_n`. Quadratic compute; the functional result comes from the
/// shared key index (the simulator separates semantics from cost), which
/// already emits NLJ's outer-then-inner order, while the charge is the
/// honest `outer × inner` footprint.
pub fn nested_loops_join(
    device: &Arc<Device>,
    outer_keys: &DeviceBuffer<u32>,
    inner_keys: &DeviceBuffer<u32>,
) -> Result<JoinResult> {
    let pairs = hostexec::equi_join(outer_keys.data()?, inner_keys.data()?);
    charge_io(
        device,
        "nested_loops_join",
        presets::nested_loops::<u32>(outer_keys.len(), inner_keys.len())
            .with_write((pairs.0.len() * 8) as u64),
        &[outer_keys.id(), inner_keys.id()],
        &[],
    )?;
    pairs_to_device(device, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(r: &JoinResult) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = r
            .left
            .host()
            .iter()
            .zip(r.right.host())
            .map(|(&a, &b)| (a, b))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn hash_join_finds_all_matches() {
        let dev = Device::with_defaults();
        let probe = dev.htod(&[1u32, 2, 3, 2]).unwrap();
        let build = dev.htod(&[2u32, 4, 1]).unwrap();
        let r = hash_join(&dev, &probe, &build).unwrap();
        assert_eq!(pairs(&r), vec![(0, 2), (1, 0), (3, 0)]);
        let s = dev.stats();
        assert_eq!(s.launches_of("hw::hash_join/build"), 1);
        assert_eq!(s.launches_of("hw::hash_join/probe"), 1);
    }

    #[test]
    fn hash_join_handles_duplicate_build_keys() {
        let dev = Device::with_defaults();
        let probe = dev.htod(&[7u32]).unwrap();
        let build = dev.htod(&[7u32, 7, 7]).unwrap();
        let r = hash_join(&dev, &probe, &build).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(pairs(&r), vec![(0, 0), (0, 1), (0, 2)]);
    }

    #[test]
    fn merge_join_matches_hash_join() {
        let dev = Device::with_defaults();
        let l = dev.htod(&[1u32, 2, 2, 5]).unwrap();
        let r = dev.htod(&[2u32, 3, 5, 5]).unwrap();
        let m = merge_join(&dev, &l, &r).unwrap();
        assert_eq!(pairs(&m), vec![(1, 0), (2, 0), (3, 2), (3, 3)]);
    }

    #[test]
    fn merge_join_rejects_unsorted() {
        let dev = Device::with_defaults();
        let l = dev.htod(&[3u32, 1]).unwrap();
        let r = dev.htod(&[1u32, 2]).unwrap();
        assert!(merge_join(&dev, &l, &r).is_err());
    }

    #[test]
    fn nlj_agrees_with_hash_join_and_costs_quadratic() {
        let dev_h = Device::with_defaults();
        let dev_n = Device::with_defaults();
        // FK→PK shape: unique inner keys, outer drawn from them (~1 match
        // per probe), at a size where the O(n²) term dominates overheads.
        let n = 1 << 17;
        let outer: Vec<u32> = (0..n as u32).map(|i| (i * 7919) % n as u32).collect();
        let inner: Vec<u32> = (0..n as u32).collect();
        let (ph, bh) = (dev_h.htod(&outer).unwrap(), dev_h.htod(&inner).unwrap());
        let (pn, bn) = (dev_n.htod(&outer).unwrap(), dev_n.htod(&inner).unwrap());
        dev_h.reset_stats();
        dev_n.reset_stats();
        let (h, t_hash) = dev_h.time(|| hash_join(&dev_h, &ph, &bh).unwrap());
        let (n, t_nlj) = dev_n.time(|| nested_loops_join(&dev_n, &pn, &bn).unwrap());
        assert_eq!(pairs(&h), pairs(&n), "same semantics");
        assert!(
            t_nlj.as_nanos() > 10 * t_hash.as_nanos(),
            "nlj {t_nlj} should dwarf hash {t_hash}"
        );
    }

    #[test]
    fn nlj_emits_pairs_in_outer_inner_order() {
        let dev = Device::with_defaults();
        let outer = dev.htod(&[7u32, 7]).unwrap();
        let inner = dev.htod(&[7u32, 7]).unwrap();
        let r = nested_loops_join(&dev, &outer, &inner).unwrap();
        let got: Vec<(u32, u32)> = r
            .left
            .host()
            .iter()
            .zip(r.right.host())
            .map(|(&a, &b)| (a, b))
            .collect();
        assert_eq!(got, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn empty_inputs_join_to_empty() {
        let dev = Device::with_defaults();
        let a = dev.htod(&[1u32, 2]).unwrap();
        let e: DeviceBuffer<u32> = dev.alloc(0).unwrap();
        assert!(hash_join(&dev, &a, &e).unwrap().is_empty());
        assert!(hash_join(&dev, &e, &a).unwrap().is_empty());
        assert!(merge_join(&dev, &e, &a).unwrap().is_empty());
        assert!(nested_loops_join(&dev, &e, &a).unwrap().is_empty());
    }
}
