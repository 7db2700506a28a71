//! # gpu-sim — a deterministic GPU device simulator
//!
//! This crate is the hardware substrate for the `gpu-proto-db` reproduction
//! of *"Analysis of GPU-Libraries for Rapid Prototyping Database
//! Operations"* (ICDE 2021). The paper benchmarks GPU libraries (Thrust,
//! Boost.Compute, ArrayFire) on a physical NVIDIA GPU; this environment has
//! none, so we substitute a **simulator** that preserves the quantities the
//! paper's findings hinge on:
//!
//! * **kernel-launch latency** — the fixed cost every library call pays,
//!   which dominates at small data sizes;
//! * **JIT compilation cost** — Boost.Compute and ArrayFire compile kernels
//!   at first use; Thrust ships pre-compiled templates;
//! * **memory-bandwidth-bound execution** — at large sizes, database
//!   operators are bound by global-memory traffic, so the number of passes
//!   over the data (library chaining vs. handwritten fusion) decides the
//!   winner;
//! * **PCIe transfer cost** — host↔device movement of columns;
//! * **allocation latency** — `cudaMalloc` is expensive; memory pools
//!   (Thrust's caching allocator, ArrayFire's memory manager) amortise it.
//!
//! Every kernel is also executed **functionally** on the CPU so results are
//! semantically correct and fully testable. The virtual clock is
//! deterministic: the same program produces the same simulated nanoseconds
//! on every run, which makes the benchmark tables reproducible and lets
//! tests assert on cost-model behaviour.
//!
//! ## Quick tour
//!
//! ```
//! use gpu_sim::{Device, DeviceSpec, KernelCost};
//!
//! let dev = Device::new(DeviceSpec::gtx1080());
//! // Move a column to the device (charges PCIe time).
//! let xs = dev.htod(&[1u32, 2, 3, 4]).unwrap();
//! // A kernel = functional execution on host storage + cost accounting.
//! let mut ys = dev.alloc::<u32>(4).unwrap();
//! for (y, x) in ys.host_mut().iter_mut().zip(xs.host()) { *y = x * 2; }
//! dev.charge_kernel("double", KernelCost::map::<u32, u32>(xs.len())
//!     .with_launch_overhead(dev.spec().cuda_launch_latency_ns));
//! assert_eq!(dev.dtoh(&ys).unwrap(), vec![2, 4, 6, 8]);
//! assert!(dev.now().as_nanos() > 0);
//! assert_eq!(dev.stats().launches_of("double"), 1);
//! ```
//!
//! Higher-level crates (`arrayfire-sim`, `handwritten`) build their
//! programming models on these primitives. The eager algorithm suite that
//! Thrust and Boost.Compute share is [`eager`]; `thrust-sim` and
//! `boost-compute-sim` are its two runtime profiles.

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

pub mod buffer;
pub mod clock;
pub mod cost;
pub mod device;
pub mod eager;
pub mod error;
pub mod fault;
pub mod hostalloc;
pub mod hostexec;

/// Recycle large host blocks process-wide — every binary in the
/// workspace links `gpu-sim`, so the whole simulator benefits. See
/// [`hostalloc`] for why this matters on virtualised hosts.
#[global_allocator]
static HOST_ALLOC: hostalloc::RecyclingAlloc = hostalloc::RecyclingAlloc;
pub mod pool;
pub mod presets;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod transfer;

pub use buffer::{publish, BufferId, Contents, DeviceBuffer, DeviceCopy, Readable, Reservation};
pub use clock::{SimDuration, SimTime};
pub use cost::{AccessPattern, KernelCost};
pub use device::{Device, DryScope, POOL_HIT_NS};
pub use error::{Result, SimError};
pub use fault::{FaultPlan, FaultSite};
pub use hostexec::{par_chunks, par_map_vec, RadixKey};
pub use pool::AllocPolicy;
pub use pool::PoolStats;
pub use spec::{DeviceSpec, LaunchApi};
pub use stats::{DeviceStats, KernelStat};
pub use trace::{
    render_timeline, render_timeline_annotated, KernelIo, Recovery, TraceEvent, TraceKind,
};
