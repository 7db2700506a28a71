//! # boost-compute-sim — Boost.Compute's runtime profile
//!
//! Boost.Compute's algorithm suite is [`gpu_sim::eager`] — the same free
//! algorithms over device [`Vector`]s as Thrust's — which this crate
//! re-exports. What is Boost.Compute's own is *how* a call runs: the
//! library translates high-level C++ calls into OpenCL kernel *source*,
//! which the driver JIT-compiles at first use; compiled programs are cached
//! per context. That gives it a sharply different cost profile from
//! Thrust, which the paper's experiments surface — [`CommandQueue`], an
//! [`eager::Launch`](Launch) on a [`Context`]:
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
//! Kernels are recorded as `boost::<algorithm>`; the one algorithm the two
//! libraries name differently, `sequence`, launches here as `boost::iota`.
//!
//! ```
//! use gpu_sim::Device;
//! use boost_compute_sim as compute;
//!
//! let dev = Device::with_defaults();
//! let ctx = compute::Context::new(&dev);
//! let queue = compute::CommandQueue::new(&ctx);
//! let v = compute::Vector::from_host(&queue, &[1u32, 2, 3]).unwrap();
//! let out = compute::transform(&queue, &v, |x| x + 1).unwrap();
//! assert_eq!(out.to_host().unwrap(), vec![2, 3, 4]);
//! // A second call with the same kernel shape hits the program cache:
//! let cold_jits = dev.stats().jit_compiles;
//! let _ = compute::transform(&queue, &v, |x| x + 1).unwrap();
//! assert_eq!(dev.stats().jit_compiles, cold_jits);
//! ```

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

pub mod context;

pub use context::{CommandQueue, Context};
pub use gpu_sim::eager::*;

/// Kernel-name prefix for device statistics.
pub const KERNEL_PREFIX: &str = "boost";
