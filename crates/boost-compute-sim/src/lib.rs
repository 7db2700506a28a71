//! # boost-compute-sim — a Boost.Compute-style OpenCL library
//!
//! Reimplementation of the **Boost.Compute** programming model on the
//! [`gpu_sim`] substrate. Boost.Compute translates high-level C++ calls
//! into OpenCL kernel *source*, which the driver JIT-compiles at first use;
//! compiled programs are cached per context. That gives it a sharply
//! different cost profile from Thrust, which the paper's experiments
//! surface:
//!
//! * **first-call JIT penalty** — every distinct kernel instantiation pays
//!   [`DeviceSpec::opencl_jit_compile_ns`](gpu_sim::DeviceSpec) once per
//!   [`Context`] (tens of milliseconds — dwarfing small-input runtimes);
//! * **program cache** — repeat calls hit the cache and skip compilation;
//! * **OpenCL enqueue overhead** — each launch pays
//!   [`DeviceSpec::opencl_enqueue_latency_ns`](gpu_sim::DeviceSpec),
//!   noticeably more than a CUDA launch;
//! * **raw buffer allocation** — `compute::vector` allocates through the
//!   driver on every construction (no caching allocator by default).
//!
//! API style follows Boost.Compute: algorithms are free functions taking a
//! [`CommandQueue`] last, operating on [`Vector`]s.
//!
//! ```
//! use gpu_sim::Device;
//! use boost_compute_sim as compute;
//!
//! let dev = Device::with_defaults();
//! let ctx = compute::Context::new(&dev);
//! let queue = compute::CommandQueue::new(&ctx);
//! let v = compute::Vector::from_host(&[1u32, 2, 3], &queue).unwrap();
//! let out = compute::transform(&v, |x| x + 1, &queue).unwrap();
//! assert_eq!(out.to_host(&queue).unwrap(), vec![2, 3, 4]);
//! // A second call with the same kernel shape hits the program cache:
//! let cold_jits = dev.stats().jit_compiles;
//! let _ = compute::transform(&v, |x| x + 1, &queue).unwrap();
//! assert_eq!(dev.stats().jit_compiles, cold_jits);
//! ```

#![warn(missing_docs)]

pub mod algorithm;
pub mod algorithm_ext;
pub mod context;
pub mod vector;

pub use algorithm::{
    charge_exclusive_scan, charge_iota, charge_reduce_by_key, charge_scatter_if,
    charge_sort_by_key, charge_transform, charge_transform_binary, copy_if, count_if,
    exclusive_scan, fill, for_each_n, gather, inclusive_scan, inner_product, iota, reduce,
    reduce_by_key, scatter, scatter_if, sort, sort_by_key, transform, transform_binary,
};
pub use algorithm_ext::{
    accumulate, adjacent_difference, count, find, max_element, merge, min_element,
    transform_reduce, transform_reduce_zip, transform_zip, unique,
};
pub use context::{CommandQueue, Context};
pub use vector::Vector;

/// Kernel-name prefix for device statistics.
pub const KERNEL_PREFIX: &str = "boost";
