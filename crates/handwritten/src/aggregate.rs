//! Handwritten hash-based grouped aggregation.
//!
//! Libraries realise `GROUP BY` as `sort_by_key` + `reduce_by_key` — a
//! full radix sort just to make equal keys adjacent. A hand-written kernel
//! aggregates directly into a hash table in one pass (plus a small pass to
//! compact the table), which is dramatically cheaper when the group count
//! is far below the row count — the common analytical case.

use crate::charge_io;
use gpu_sim::hostexec::{self, GroupStats};
use gpu_sim::{
    presets, AllocPolicy, Contents, Device, DeviceBuffer, KernelCost, Reservation, Result, SimError,
};
use std::sync::Arc;

/// Result of a grouped aggregation, sorted by key for determinism.
#[derive(Debug)]
pub struct GroupAggregate {
    /// Distinct group keys (ascending).
    pub keys: DeviceBuffer<u32>,
    /// Per-group sum of the value column.
    pub sums: DeviceBuffer<f64>,
    /// Per-group row count.
    pub counts: DeviceBuffer<u64>,
    /// Per-group minimum.
    pub mins: DeviceBuffer<f64>,
    /// Per-group maximum.
    pub maxs: DeviceBuffer<f64>,
}

impl GroupAggregate {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the input had no rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// One-pass hash aggregation: SUM, COUNT, MIN, MAX per distinct key.
///
/// Two kernels: the aggregation pass (random access into the table) and a
/// compaction pass emitting the dense result.
pub fn hash_group_aggregate(
    device: &Arc<Device>,
    keys: &DeviceBuffer<u32>,
    values: &DeviceBuffer<f64>,
) -> Result<GroupAggregate> {
    if keys.len() != values.len() {
        return Err(SimError::SizeMismatch {
            left: keys.len(),
            right: values.len(),
        });
    }
    // Per-key accumulation in row order, groups ascending by key: the shared
    // host kernel. The charges read only the group count, so a dry scope
    // counts the keys — which must be a real upload — and leaves every
    // column shape-only.
    let key_data = keys.data()?;
    device.reads(&[values])?;
    let (gkeys, sums, counts, mins, maxs) = device.body(
        || {
            let agg = hostexec::group_aggregate(key_data, values.host());
            let GroupStats {
                keys,
                sums,
                counts,
                mins,
                maxs,
            } = agg;
            (
                keys.into(),
                sums.into(),
                counts.into(),
                mins.into(),
                maxs.into(),
            )
        },
        || {
            let g = hostexec::distinct_keys(key_data);
            use Contents::Shape;
            (Shape(g), Shape(g), Shape(g), Shape(g), Shape(g))
        },
    );
    let out =
        charge_hash_group_aggregate(device, keys.len(), gkeys.len(), [keys.id(), values.id()])?;
    Ok(GroupAggregate {
        keys: out.keys.into_buffer(gkeys),
        sums: out.sums.into_buffer(sums),
        counts: out.counts.into_buffer(counts),
        mins: out.mins.into_buffer(mins),
        maxs: out.maxs.into_buffer(maxs),
    })
}

/// The device memory of a [`GroupAggregate`], not backed yet: one
/// reservation per output column, named as there.
#[derive(Debug)]
pub struct GroupAggregateCharge {
    /// For [`GroupAggregate::keys`].
    pub keys: Reservation,
    /// For [`GroupAggregate::sums`].
    pub sums: Reservation,
    /// For [`GroupAggregate::counts`].
    pub counts: Reservation,
    /// For [`GroupAggregate::mins`].
    pub mins: Reservation,
    /// For [`GroupAggregate::maxs`].
    pub maxs: Reservation,
}

/// What [`hash_group_aggregate`] costs on the device: the accumulate and
/// compact launches over `n` rows of the `[keys, values]` buffers falling
/// into `groups` groups, then the allocation of the five output columns.
pub fn charge_hash_group_aggregate(
    device: &Arc<Device>,
    n: usize,
    groups: usize,
    reads: [gpu_sim::BufferId; 2],
) -> Result<GroupAggregateCharge> {
    // A tuned kernel keeps the table in shared memory when the group count
    // allows (≤4Ki entries): the pass is then a coalesced streaming read.
    // Larger tables spill to global memory and pay random-access traffic.
    let input_bytes = (n * (4 + 8)) as u64;
    let accumulate = if groups <= 4096 {
        KernelCost::map::<(), ()>(n)
            .with_read(input_bytes)
            .with_write((groups * 40) as u64)
            .with_flops(8 * n as u64)
            .with_divergence(0.1)
    } else {
        presets::hash_build::<u32, f64>(n).with_flops(8 * n as u64)
    };
    charge_io(device, "hash_agg/accumulate", accumulate, &reads, &[])?;
    charge_io(
        device,
        "hash_agg/compact",
        KernelCost::map::<(), ()>(groups)
            .with_read((groups * 40) as u64)
            .with_write((groups * 40) as u64)
            .with_flops(groups as u64),
        &[],
        &[],
    )?;
    let reserve = |elem: usize| device.reserve((groups * elem) as u64, AllocPolicy::Pooled, true);
    Ok(GroupAggregateCharge {
        keys: reserve(4)?,
        sums: reserve(8)?,
        counts: reserve(8)?,
        mins: reserve(8)?,
        maxs: reserve(8)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_all_stats_per_group() {
        let dev = Device::with_defaults();
        let k = dev.htod(&[2u32, 1, 2, 1, 2]).unwrap();
        let v = dev.htod(&[10.0f64, 1.0, 20.0, 3.0, 30.0]).unwrap();
        let g = hash_group_aggregate(&dev, &k, &v).unwrap();
        assert_eq!(g.keys.host(), &[1, 2]);
        assert_eq!(g.sums.host(), &[4.0, 60.0]);
        assert_eq!(g.counts.host(), &[2, 3]);
        assert_eq!(g.mins.host(), &[1.0, 10.0]);
        assert_eq!(g.maxs.host(), &[3.0, 30.0]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn mismatched_lengths_error() {
        let dev = Device::with_defaults();
        let k = dev.htod(&[1u32]).unwrap();
        let v = dev.htod(&[1.0f64, 2.0]).unwrap();
        assert!(hash_group_aggregate(&dev, &k, &v).is_err());
    }

    #[test]
    fn empty_input_empty_output() {
        let dev = Device::with_defaults();
        let k: DeviceBuffer<u32> = dev.alloc(0).unwrap();
        let v: DeviceBuffer<f64> = dev.alloc(0).unwrap();
        let g = hash_group_aggregate(&dev, &k, &v).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn hash_agg_beats_sort_reduce_for_few_groups() {
        // 1M rows, 64 groups: hash agg reads the data once; the library
        // path radix-sorts the whole column first.
        let n = 1 << 20;
        let keys: Vec<u32> = (0..n as u32).map(|i| i % 64).collect();
        let vals: Vec<f64> = vec![1.0; n];

        let dev_hw = Device::with_defaults();
        let (kb, vb) = (dev_hw.htod(&keys).unwrap(), dev_hw.htod(&vals).unwrap());
        let (_, t_hw) = dev_hw.time(|| hash_group_aggregate(&dev_hw, &kb, &vb).unwrap());

        let dev_lib = Device::with_defaults();
        use thrust_sim as thrust;
        let lib = thrust::Thrust::new(&dev_lib);
        let mut k = thrust::DeviceVector::from_host(&lib, &keys).unwrap();
        let mut v = thrust::DeviceVector::from_host(&lib, &vals).unwrap();
        let (_, t_lib) = dev_lib.time(|| {
            thrust::sort_by_key(&lib, &mut k, &mut v).unwrap();
            thrust::reduce_by_key(&lib, &k, &v, |a, b| a + b).unwrap()
        });
        assert!(
            t_hw.as_nanos() * 2 < t_lib.as_nanos(),
            "hash agg {t_hw} should be well under sort+reduce {t_lib}"
        );
    }
}
