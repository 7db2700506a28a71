//! # thrust-sim — NVIDIA Thrust's runtime profile
//!
//! Thrust's algorithm suite is [`gpu_sim::eager`], which this crate
//! re-exports: free algorithms over [`DeviceVector`]s, every call launching
//! at once and materialising its result. What is Thrust's own is *how* a
//! call runs, faithful to the cost profile the paper measures — [`Thrust`],
//! an [`eager::Launch`](Launch):
//!
//! * **pre-compiled kernels** — Thrust is a C++ template library compiled
//!   ahead of time, so there is *no* JIT cost (contrast `boost-compute-sim`
//!   and `arrayfire-sim`);
//! * **CUDA launch overhead** — each kernel pays
//!   [`DeviceSpec::cuda_launch_latency_ns`](gpu_sim::DeviceSpec);
//! * **caching allocator** — vectors and temporaries come from the device
//!   memory pool (`thrust::detail::caching_allocator` behaviour).
//!
//! The functions the paper maps to database operators in Table II are all
//! there: `transform`, `exclusive_scan`, `gather`, `scatter`, `scatter_if`,
//! `for_each_n`, `reduce`, `reduce_by_key`, `sort`, `sort_by_key`, plus
//! `inner_product`, `sequence`, `fill` and the zip-iterator forms fused
//! chains lower to.
//!
//! ```
//! use gpu_sim::Device;
//! use thrust_sim as thrust;
//!
//! let dev = Device::with_defaults();
//! let lib = thrust::Thrust::new(&dev);
//! let xs = thrust::DeviceVector::from_host(&lib, &[3u32, 1, 4, 1, 5]).unwrap();
//! let doubled = thrust::transform(&lib, &xs, |x| x * 2).unwrap();
//! let total = thrust::reduce(&lib, &doubled, 0u64, |a, b| a + b as u64).unwrap();
//! assert_eq!(total, 28);
//! assert_eq!(dev.stats().launches_of("thrust::transform"), 1);
//! assert_eq!(dev.stats().jit_compiles, 0);
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

/// `thrust::device_vector`.
pub use gpu_sim::eager::Vector as DeviceVector;
pub use gpu_sim::eager::*;

use gpu_sim::{AllocPolicy, BufferId, Device, KernelCost, Result};
use std::fmt::Display;
use std::sync::Arc;

/// Kernel-name prefix under which all Thrust launches are recorded in
/// device statistics.
pub const KERNEL_PREFIX: &str = "thrust";

/// The Thrust library on a device.
#[derive(Debug)]
pub struct Thrust {
    device: Arc<Device>,
}

impl Thrust {
    /// Thrust on `device`.
    pub fn new(device: &Arc<Device>) -> Self {
        Thrust {
            device: Arc::clone(device),
        }
    }
}

impl Launch for Thrust {
    const ALLOC: AllocPolicy = AllocPolicy::Pooled;
    const SEQUENCE: &'static str = "sequence";

    fn device(&self) -> &Arc<Device> {
        &self.device
    }

    fn launch<K: Display>(
        &self,
        name: &str,
        _key: impl FnOnce() -> K,
        cost: KernelCost,
        reads: &[BufferId],
        writes: &[BufferId],
    ) -> Result<()> {
        let cost = cost.with_launch_overhead(self.device.spec().cuda_launch_latency_ns);
        let kernel = format!("{KERNEL_PREFIX}::{name}");
        charge_launch(&self.device, &kernel, cost, reads, writes)
    }
}

/// Thrust's profile; what the algorithms answer is `gpu_sim::eager`'s
/// business.
#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::hostexec::expr::{Instr, Leaf, Program};
    use gpu_sim::{FaultPlan, FaultSite, SimError};

    fn never() -> &'static str {
        unreachable!("Thrust kernels are pre-compiled: no program key is ever built")
    }

    #[test]
    fn a_launch_is_a_precompiled_thrust_kernel_at_cuda_latency() {
        let dev = Device::with_defaults();
        let lib = Thrust::new(&dev);
        let (_, took) = dev.time(|| lib.launch("transform", never, KernelCost::empty(), &[], &[]));
        let idle = KernelCost::empty().duration(dev.spec());
        assert_eq!(
            took.as_nanos() - idle.as_nanos(),
            dev.spec().cuda_launch_latency_ns
        );
        let xs = DeviceVector::from_host(&lib, &[1u32, 2, 3]).unwrap();
        let ids = sequence(&lib, 3).unwrap();
        let copy = Program::new(vec![Instr::Load(0)]);
        let leaves = [Leaf::U32(xs.as_slice())];
        transform_zip::<u32, _, _>(&lib, 3, never, 12, &[xs.id()], &copy, &leaves).unwrap();
        let s = dev.stats();
        assert_eq!(s.launches_of("thrust::transform"), 1);
        assert_eq!(s.launches_of("thrust::sequence"), 1);
        assert_eq!(s.launches_of("thrust::transform_zip"), 1);
        assert_eq!((s.jit_compiles, ids.len()), (0, 3));
    }

    #[test]
    fn vectors_and_temporaries_come_from_the_caching_allocator() {
        let dev = Device::with_defaults();
        let lib = Thrust::new(&dev);
        let xs = DeviceVector::from_host(&lib, &vec![1u32; 1 << 14]).unwrap();
        drop(transform(&lib, &xs, |x| x + 1).unwrap());
        let allocs = dev.stats().allocs;
        // Same-sized temporaries again: the pool serves them, the driver
        // sees nothing.
        drop(transform(&lib, &xs, |x| x + 1).unwrap());
        drop(DeviceVector::<u32>::zeroed(&lib, 1 << 14).unwrap());
        assert_eq!(dev.stats().allocs, allocs);
        assert_eq!(dev.pool_stats().hits, 2);
    }

    #[test]
    fn a_launch_that_faults_fails_the_call_before_its_body_runs() {
        let dev = Device::with_defaults();
        let lib = Thrust::new(&dev);
        let mut v = DeviceVector::from_host(&lib, &[3u32, 1, 2]).unwrap();
        dev.install_fault_plan(FaultPlan::new(1).with_rate(FaultSite::Kernel, 1.0));
        assert!(matches!(sort(&lib, &mut v), Err(SimError::DeviceLost(_))));
        assert!(matches!(
            fill(&lib, &mut v, 0),
            Err(SimError::DeviceLost(_))
        ));
        assert_eq!(v.as_slice(), [3, 1, 2]);
    }
}
