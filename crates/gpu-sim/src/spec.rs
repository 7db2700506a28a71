//! Device specifications — the knobs of the cost model.
//!
//! All timing behaviour of the simulator derives from a [`DeviceSpec`].
//! The default preset approximates the class of discrete NVIDIA GPU the
//! paper's era used (GTX 1080-class); alternates model an integrated GPU
//! and a server-class card so experiments can sweep hardware hypotheses.

use serde::{Deserialize, Serialize};

/// Which driver path issues a kernel launch — selects the per-launch
/// overhead ([`DeviceSpec::launch_overhead_ns`]) and the JIT story
/// ([`DeviceSpec::jit_compile_ns`]) a symbolic plan coster charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LaunchApi {
    /// CUDA runtime launches (Thrust, ArrayFire's CUDA build, the
    /// handwritten kernels): ahead-of-time compiled, cheap launches.
    Cuda,
    /// OpenCL command-queue enqueues (Boost.Compute): dearer per
    /// launch, and every distinct program key JIT-compiles once.
    OpenCl,
}

/// Static description of a simulated GPU.
///
/// Units are chosen so arithmetic stays in integers/nanoseconds where
/// possible: bandwidths in GB/s (= bytes/ns), latencies in ns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, used in reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// SIMD lanes (CUDA cores) per SM.
    pub lanes_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Sustained instructions per clock per lane for simple ALU work.
    pub ipc: f64,
    /// Global-memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Host↔device (PCIe) bandwidth in GB/s, effective.
    pub pcie_bandwidth_gbps: f64,
    /// Fixed latency per host↔device transfer, ns.
    pub pcie_latency_ns: u64,
    /// Kernel-launch latency for the native (CUDA-like) driver path, ns.
    pub cuda_launch_latency_ns: u64,
    /// Kernel-enqueue latency for the OpenCL driver path, ns.
    pub opencl_enqueue_latency_ns: u64,
    /// One-time cost of JIT-compiling an OpenCL program, ns.
    pub opencl_jit_compile_ns: u64,
    /// One-time cost of JIT-compiling a fused ArrayFire kernel shape, ns.
    pub arrayfire_jit_compile_ns: u64,
    /// Cost of a raw device allocation (`cudaMalloc`-class), ns.
    pub malloc_latency_ns: u64,
    /// Cost of returning memory to the driver (`cudaFree`-class), ns.
    pub free_latency_ns: u64,
    /// Total global memory, bytes.
    pub global_mem_bytes: u64,
    /// Minimum duration of any kernel, ns (even empty kernels take ~2µs on
    /// real hardware once launch + teardown are counted).
    pub min_kernel_ns: u64,
    /// Effective fraction of peak bandwidth achieved by fully coalesced
    /// access (real kernels rarely exceed ~85% of peak).
    pub coalesced_efficiency: f64,
    /// Effective fraction of peak bandwidth for strided access.
    pub strided_efficiency: f64,
    /// Effective fraction of peak bandwidth for data-dependent random
    /// access (hash probes, gathers with shuffled indices).
    pub random_efficiency: f64,
    /// Multiplier applied to compute time of a fully divergent warp.
    pub divergence_penalty: f64,
}

impl DeviceSpec {
    /// GTX 1080-class discrete GPU — the default device for all paper
    /// experiments.
    pub fn gtx1080() -> Self {
        DeviceSpec {
            name: "SimGPU GTX-1080-class".into(),
            sm_count: 20,
            lanes_per_sm: 128,
            clock_ghz: 1.60,
            ipc: 0.9,
            mem_bandwidth_gbps: 320.0,
            pcie_bandwidth_gbps: 8.0,
            pcie_latency_ns: 10_000,
            cuda_launch_latency_ns: 5_000,
            opencl_enqueue_latency_ns: 9_000,
            opencl_jit_compile_ns: 40_000_000,
            arrayfire_jit_compile_ns: 15_000_000,
            malloc_latency_ns: 100_000,
            free_latency_ns: 40_000,
            global_mem_bytes: 8 * 1024 * 1024 * 1024,
            min_kernel_ns: 2_000,
            coalesced_efficiency: 0.85,
            strided_efficiency: 0.30,
            random_efficiency: 0.08,
            divergence_penalty: 1.0,
        }
    }

    /// Integrated-GPU preset: shared memory (cheap transfers), low
    /// bandwidth, few SMs. Useful for sensitivity experiments.
    pub fn integrated() -> Self {
        DeviceSpec {
            name: "SimGPU integrated".into(),
            sm_count: 6,
            lanes_per_sm: 64,
            clock_ghz: 1.1,
            ipc: 0.8,
            mem_bandwidth_gbps: 34.0,
            pcie_bandwidth_gbps: 20.0, // shared DRAM: cheap "transfers"
            pcie_latency_ns: 2_000,
            cuda_launch_latency_ns: 6_000,
            opencl_enqueue_latency_ns: 10_000,
            opencl_jit_compile_ns: 60_000_000,
            arrayfire_jit_compile_ns: 25_000_000,
            malloc_latency_ns: 50_000,
            free_latency_ns: 20_000,
            global_mem_bytes: 2 * 1024 * 1024 * 1024,
            min_kernel_ns: 3_000,
            coalesced_efficiency: 0.80,
            strided_efficiency: 0.35,
            random_efficiency: 0.12,
            divergence_penalty: 1.0,
        }
    }

    /// Server-class preset (V100-like): more SMs, HBM bandwidth.
    pub fn server() -> Self {
        DeviceSpec {
            name: "SimGPU server-class".into(),
            sm_count: 80,
            lanes_per_sm: 64,
            clock_ghz: 1.53,
            ipc: 0.95,
            mem_bandwidth_gbps: 900.0,
            pcie_bandwidth_gbps: 12.0,
            pcie_latency_ns: 9_000,
            cuda_launch_latency_ns: 4_000,
            opencl_enqueue_latency_ns: 8_000,
            opencl_jit_compile_ns: 35_000_000,
            arrayfire_jit_compile_ns: 12_000_000,
            malloc_latency_ns: 120_000,
            free_latency_ns: 50_000,
            global_mem_bytes: 16 * 1024 * 1024 * 1024,
            min_kernel_ns: 1_800,
            coalesced_efficiency: 0.85,
            strided_efficiency: 0.30,
            random_efficiency: 0.07,
            divergence_penalty: 1.0,
        }
    }

    /// Peak ALU throughput in simple operations per nanosecond.
    pub(crate) fn flops_per_ns(&self) -> f64 {
        self.sm_count as f64 * self.lanes_per_sm as f64 * self.clock_ghz * self.ipc
    }

    /// Per-launch driver overhead of `api` — the number every backend
    /// stamps on its [`crate::KernelCost`]s. Exposed so plan costing can
    /// price launches symbolically, without charging a live device.
    pub fn launch_overhead_ns(&self, api: LaunchApi) -> u64 {
        match api {
            LaunchApi::Cuda => self.cuda_launch_latency_ns,
            LaunchApi::OpenCl => self.opencl_enqueue_latency_ns,
        }
    }

    /// One-time compile cost the runtime of `api` pays the first time a
    /// distinct kernel/program shape is seen (zero for CUDA's ahead-of-
    /// time toolchain, [`DeviceSpec::opencl_jit_compile_ns`] for
    /// OpenCL). ArrayFire's lazy-tree JIT is priced separately via
    /// [`DeviceSpec::arrayfire_jit_compile_ns`].
    pub fn jit_compile_ns(&self, api: LaunchApi) -> u64 {
        match api {
            LaunchApi::Cuda => 0,
            LaunchApi::OpenCl => self.opencl_jit_compile_ns,
        }
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self::gtx1080()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_plausible() {
        for spec in [
            DeviceSpec::gtx1080(),
            DeviceSpec::integrated(),
            DeviceSpec::server(),
        ] {
            assert!(spec.sm_count > 0);
            assert!(spec.flops_per_ns() > 0.0);
            assert!(spec.mem_bandwidth_gbps > 0.0);
            assert!(spec.coalesced_efficiency > spec.strided_efficiency);
            assert!(spec.strided_efficiency > spec.random_efficiency);
            assert!(spec.global_mem_bytes > 1 << 30);
        }
    }

    #[test]
    fn gtx1080_is_default() {
        assert_eq!(DeviceSpec::default(), DeviceSpec::gtx1080());
    }

    #[test]
    fn flops_scale_with_sms() {
        let a = DeviceSpec::gtx1080();
        let b = DeviceSpec::server();
        assert!(b.flops_per_ns() > a.flops_per_ns());
    }

    #[test]
    fn spec_clones_equal() {
        let spec = DeviceSpec::gtx1080();
        assert_eq!(spec, spec.clone());
    }
}
