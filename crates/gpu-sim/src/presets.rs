//! Cost footprints of the classic GPU primitives.
//!
//! The three libraries in the study (Thrust, Boost.Compute, ArrayFire) all
//! bottom out in the same handful of data-parallel primitives — map,
//! reduce, scan, radix sort, scatter/gather, stream compaction. Their
//! *memory footprints* are a property of the algorithm, not the library;
//! what differs per library is launch overhead, JIT cost, and how many of
//! them a database operator chains together. This module captures the
//! algorithm footprints once so each library crate applies its own
//! overhead profile on top.

use crate::cost::{AccessPattern, KernelCost};

/// Number of digit passes an LSD radix sort needs for a `bytes`-wide key
/// with 8-bit digits.
fn radix_passes(key_bytes: usize) -> u32 {
    (key_bytes as u32).max(1)
}

/// Kernels launched by one LSD radix-sort pass over `n` keys of `K` with a
/// payload of `payload_bytes` per element: a histogram kernel (coalesced
/// read), a tiny scan over the histogram, and a scatter kernel (coalesced
/// read, scattered write).
pub fn radix_sort_pass<K>(n: usize, payload_bytes: usize) -> Vec<KernelCost> {
    let key_bytes = (n * std::mem::size_of::<K>()) as u64;
    let pay_bytes = (n * payload_bytes) as u64;
    vec![
        // histogram: read keys, few writes
        KernelCost {
            bytes_read: key_bytes,
            bytes_written: 16 * 1024,
            flops: n as u64 * 2,
            pattern: AccessPattern::Coalesced,
            divergence: 0.0,
            launch_overhead_ns: 0,
        },
        // digit scan: negligible data
        KernelCost {
            bytes_read: 16 * 1024,
            bytes_written: 16 * 1024,
            flops: 4_096,
            pattern: AccessPattern::Coalesced,
            divergence: 0.0,
            launch_overhead_ns: 0,
        },
        // scatter: read keys+payload, scattered write of both
        KernelCost {
            bytes_read: key_bytes + pay_bytes,
            bytes_written: key_bytes + pay_bytes,
            flops: n as u64 * 4,
            pattern: AccessPattern::Strided,
            divergence: 0.0,
            launch_overhead_ns: 0,
        },
    ]
}

/// All kernels of a full radix sort of `n` keys of `K` plus payload.
pub fn radix_sort<K>(n: usize, payload_bytes: usize) -> Vec<KernelCost> {
    let mut v = Vec::new();
    for _ in 0..radix_passes(std::mem::size_of::<K>()) {
        v.extend(radix_sort_pass::<K>(n, payload_bytes));
    }
    v
}

/// Work-efficient exclusive/inclusive scan over `n` elements of `T`:
/// reduce-then-scan reads the input twice and writes once.
pub fn scan<T>(n: usize) -> KernelCost {
    let b = (n * std::mem::size_of::<T>()) as u64;
    KernelCost {
        bytes_read: 2 * b,
        bytes_written: b,
        flops: 2 * n as u64,
        pattern: AccessPattern::Coalesced,
        divergence: 0.0,
        launch_overhead_ns: 0,
    }
}

/// Gather `n` elements of `T` through an index vector: coalesced index
/// read, random data read, coalesced write.
pub fn gather<T>(n: usize) -> KernelCost {
    let b = (n * std::mem::size_of::<T>()) as u64;
    let idx = (n * 4) as u64;
    KernelCost {
        bytes_read: b + idx,
        bytes_written: b,
        flops: n as u64,
        pattern: AccessPattern::Random,
        divergence: 0.0,
        launch_overhead_ns: 0,
    }
}

/// Scatter `n` elements of `T` through an index vector: coalesced reads,
/// random writes.
pub fn scatter<T>(n: usize) -> KernelCost {
    gather::<T>(n)
}

/// Segmented reduction over `n` (key,value) pairs with consecutive equal
/// keys (`reduce_by_key`): reads both columns, writes one output pair per
/// segment (bounded by `groups`).
pub fn reduce_by_key<K, V>(n: usize, groups: usize) -> KernelCost {
    let kb = std::mem::size_of::<K>() as u64;
    let vb = std::mem::size_of::<V>() as u64;
    KernelCost {
        bytes_read: n as u64 * (kb + vb),
        bytes_written: groups as u64 * (kb + vb),
        flops: 3 * n as u64,
        pattern: AccessPattern::Coalesced,
        divergence: 0.1,
        launch_overhead_ns: 0,
    }
}

/// Probe side of a hash join / hash aggregation: coalesced read of probe
/// keys, random reads into the table.
pub fn hash_probe<K, V>(n: usize, table_entries: usize) -> KernelCost {
    let kb = std::mem::size_of::<K>() as u64;
    let vb = std::mem::size_of::<V>() as u64;
    let _ = table_entries;
    KernelCost {
        bytes_read: n as u64 * kb + n as u64 * (kb + vb), // probe col + table hits
        bytes_written: n as u64 * vb,
        flops: 6 * n as u64,
        pattern: AccessPattern::Random,
        divergence: 0.25,
        launch_overhead_ns: 0,
    }
}

/// Build side of a hash table over `n` keys: coalesced read, random insert
/// writes.
pub fn hash_build<K, V>(n: usize) -> KernelCost {
    let kb = std::mem::size_of::<K>() as u64;
    let vb = std::mem::size_of::<V>() as u64;
    KernelCost {
        bytes_read: n as u64 * (kb + vb),
        bytes_written: n as u64 * (kb + vb),
        flops: 5 * n as u64,
        pattern: AccessPattern::Random,
        divergence: 0.15,
        launch_overhead_ns: 0,
    }
}

/// One tile-pair pass of a nested-loops join: `outer × inner` comparisons
/// dominated by compute, with the inner side streamed from memory
/// `outer / tile` times.
pub fn nested_loops<K>(outer: usize, inner: usize) -> KernelCost {
    let kb = std::mem::size_of::<K>() as u64;
    // Each outer tile re-reads the inner column; model a tile of 64Ki rows.
    let tiles = (outer as u64).div_ceil(64 * 1024).max(1);
    KernelCost {
        bytes_read: outer as u64 * kb + tiles * inner as u64 * kb,
        bytes_written: 1024,
        flops: (outer as u64) * (inner as u64),
        pattern: AccessPattern::Coalesced,
        divergence: 0.2,
        launch_overhead_ns: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DeviceSpec;

    #[test]
    fn radix_sort_has_three_kernels_per_pass() {
        assert_eq!(radix_passes(4), 4);
        assert_eq!(radix_sort::<u32>(1024, 0).len(), 12);
        assert_eq!(radix_sort::<u64>(1024, 4).len(), 24);
    }

    #[test]
    fn sort_costs_more_than_scan_costs_more_than_gather_floor() {
        let spec = DeviceSpec::gtx1080();
        let n = 1 << 22;
        let sort: u64 = radix_sort::<u32>(n, 0)
            .into_iter()
            .map(|c| c.duration(&spec).as_nanos())
            .sum();
        let scan = scan::<u32>(n).duration(&spec).as_nanos();
        let map = KernelCost::map::<u32, u32>(n).duration(&spec).as_nanos();
        assert!(sort > scan, "sort {sort} > scan {scan}");
        assert!(scan > map, "scan {scan} > map {map}");
    }

    #[test]
    fn nested_loops_is_quadratic_in_compute() {
        let spec = DeviceSpec::gtx1080();
        let small = nested_loops::<u32>(1 << 14, 1 << 14)
            .duration(&spec)
            .as_nanos();
        let large = nested_loops::<u32>(1 << 17, 1 << 17)
            .duration(&spec)
            .as_nanos();
        // 8× inputs → 64× comparisons; compute-bound regime should show ≳30×.
        assert!(large as f64 / small as f64 > 30.0, "{large} vs {small}");
    }

    #[test]
    fn hash_probe_is_random_pattern() {
        let c = hash_probe::<u32, u32>(1000, 500);
        assert_eq!(c.pattern, crate::cost::AccessPattern::Random);
        let b = hash_build::<u32, u32>(1000);
        assert_eq!(b.pattern, crate::cost::AccessPattern::Random);
    }

    #[test]
    fn reduce_by_key_output_scales_with_groups() {
        let few = reduce_by_key::<u32, u64>(1 << 20, 16);
        let many = reduce_by_key::<u32, u64>(1 << 20, 1 << 19);
        assert!(many.bytes_written > few.bytes_written);
        assert_eq!(many.bytes_read, few.bytes_read);
    }
}
