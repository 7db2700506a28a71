//! # handwritten — expert-written custom GPU kernels
//!
//! The paper compares library-based operator implementations against
//! **handwritten** kernels, the approach "leading to the best performance"
//! (§I) at the cost of device expertise and development time. This crate
//! is that baseline, written directly against the [`gpu_sim`] substrate:
//!
//! * **fused selection** — predicate evaluation, offset computation and
//!   compaction in a single pass instead of the library
//!   `transform → exclusive_scan → gather` three-kernel chain;
//! * **hash join** — the fundamental primitive the paper found *no*
//!   library supports ("leaving important tuning potential unused");
//! * **merge join** — single-pass sorted-merge, also unsupported by
//!   libraries;
//! * **hash aggregation** — grouped aggregation without the
//!   sort-then-reduce detour libraries force;
//! * fused filter-product-sum pipelines (the TPC-H Q6 shape).
//!
//! Everything is eager, pays CUDA launch overhead, and uses pooled
//! temporaries — exactly like a tuned CUDA code base.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo
    )
)]

pub mod aggregate;
pub mod join;
pub mod primitives;
pub mod selection;

pub use aggregate::{
    charge_hash_group_aggregate, hash_group_aggregate, GroupAggregate, GroupAggregateCharge,
};
pub use join::{hash_join, merge_join, nested_loops_join, JoinResult};
pub use primitives::{
    exclusive_scan_u32, fused_filter_dot, fused_filter_sum, fused_map_expr, gather, product_f64,
    radix_sort_pairs, reduce_f64, scatter_u32, sort_u32,
};
pub use selection::{charge_select_fused, select_fused};

/// Kernel-name prefix for device statistics.
pub const KERNEL_PREFIX: &str = "hw";

pub(crate) fn charge(
    device: &gpu_sim::Device,
    name: &str,
    cost: gpu_sim::KernelCost,
) -> gpu_sim::Result<()> {
    let cost = cost.with_launch_overhead(device.spec().cuda_launch_latency_ns);
    device.try_charge_kernel(&format!("{KERNEL_PREFIX}::{name}"), cost)?;
    Ok(())
}

/// [`charge`] with the launch's declared read/write buffer sets recorded
/// into the trace for `gpu-lint`. Cost-identical to [`charge`].
pub(crate) fn charge_io(
    device: &gpu_sim::Device,
    name: &str,
    cost: gpu_sim::KernelCost,
    reads: &[gpu_sim::BufferId],
    writes: &[gpu_sim::BufferId],
) -> gpu_sim::Result<()> {
    let cost = cost.with_launch_overhead(device.spec().cuda_launch_latency_ns);
    device.try_charge_kernel_io(&format!("{KERNEL_PREFIX}::{name}"), cost, reads, writes)?;
    Ok(())
}
