//! # thrust-sim — a Thrust-style parallel algorithms library
//!
//! Reimplementation of the NVIDIA **Thrust** programming model on the
//! [`gpu_sim`] substrate, faithful to the cost profile the paper measures:
//!
//! * **eager execution** — every algorithm call launches its kernels
//!   immediately; chained calls materialise intermediates in device memory;
//! * **pre-compiled kernels** — Thrust is a C++ template library compiled
//!   ahead of time, so there is *no* JIT cost (contrast `boost-compute-sim`
//!   and `arrayfire-sim`);
//! * **CUDA launch overhead** — each kernel pays
//!   [`DeviceSpec::cuda_launch_latency_ns`](gpu_sim::DeviceSpec);
//! * **caching allocator** — temporaries come from the device memory pool
//!   (`thrust::detail::caching_allocator` behaviour).
//!
//! The API mirrors Thrust's: free functions over [`DeviceVector`]s, with
//! named functors in [`functional`]. The functions the paper maps to
//! database operators in Table II are all here: `transform`,
//! `exclusive_scan`, `gather`, `scatter`, `for_each_n`, `reduce`,
//! `reduce_by_key`, `sort`, `sort_by_key`, plus the conveniences
//! (`copy_if`, `count_if`, `inner_product`, `sequence`, `fill`).
//!
//! ```
//! use gpu_sim::Device;
//! use thrust_sim as thrust;
//!
//! let dev = Device::with_defaults();
//! let xs = thrust::DeviceVector::from_host(&dev, &[3u32, 1, 4, 1, 5]).unwrap();
//! let doubled = thrust::transform(&xs, |x| x * 2).unwrap();
//! let total = thrust::reduce(&doubled, 0u64, |a, b| a + b as u64).unwrap();
//! assert_eq!(total, 28);
//! ```

#![warn(missing_docs)]

pub mod algorithm;
pub mod functional;
pub mod vector;

pub use algorithm::foreach::{for_each, for_each_n};
pub use algorithm::misc::{
    adjacent_difference, count, equal, max_element, merge, min_element, transform_reduce, unique,
};
pub use algorithm::partition::{copy_if, count_if, partition_flags};
pub use algorithm::permute::{charge_scatter_if, gather, scatter, scatter_if};
pub use algorithm::reduce::{
    charge_reduce_by_key, inner_product, reduce, reduce_by_key, transform_reduce_zip,
};
pub use algorithm::scan::{charge_exclusive_scan, exclusive_scan, inclusive_scan};
pub use algorithm::sort::{charge_sort_by_key, is_sorted, sort, sort_by_key};
pub use algorithm::transform::{
    charge_sequence, charge_transform, charge_transform_binary, fill, sequence, transform,
    transform_binary, transform_zip,
};
pub use vector::DeviceVector;

/// Kernel-name prefix under which all Thrust launches are recorded in
/// device statistics.
pub const KERNEL_PREFIX: &str = "thrust";
