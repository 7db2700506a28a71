//! Kernel cost descriptions and the analytical timing model.
//!
//! A library implementation knows its own access pattern — how many bytes a
//! kernel reads and writes, how many simple operations it performs per
//! element, and whether its memory accesses coalesce. It describes that in a
//! [`KernelCost`]; the device converts it to simulated time:
//!
//! ```text
//! t = max(t_mem, t_compute) · (1 + divergence · penalty)
//! t_mem     = (bytes_read + bytes_written) / (BW · pattern_efficiency)
//! t_compute = flops / (SMs · lanes · clock · ipc)
//! ```
//!
//! plus the caller-supplied launch overhead (CUDA launch vs. OpenCL enqueue)
//! and a floor of `min_kernel_ns` — even empty kernels cost microseconds on
//! real hardware, which is exactly why library-call chaining hurts at small
//! data sizes (paper §II, “Libraries”).

use crate::clock::SimDuration;
use crate::spec::DeviceSpec;
use serde::{Deserialize, Serialize};

/// How a kernel touches global memory; selects the bandwidth efficiency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AccessPattern {
    /// Adjacent threads access adjacent addresses (ideal).
    #[default]
    Coalesced,
    /// Fixed-stride access (e.g. column of a row-major table).
    Strided,
    /// Data-dependent addresses (hash probes, shuffled gathers).
    Random,
}

impl AccessPattern {
    /// Fraction of peak bandwidth this pattern achieves on `spec`.
    pub fn efficiency(self, spec: &DeviceSpec) -> f64 {
        match self {
            AccessPattern::Coalesced => spec.coalesced_efficiency,
            AccessPattern::Strided => spec.strided_efficiency,
            AccessPattern::Random => spec.random_efficiency,
        }
    }
}

/// Resource footprint of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelCost {
    /// Bytes read from global memory.
    pub bytes_read: u64,
    /// Bytes written to global memory.
    pub bytes_written: u64,
    /// Simple ALU operations executed (adds/compares count as 1).
    pub flops: u64,
    /// Dominant global-memory access pattern.
    pub pattern: AccessPattern,
    /// Fraction of warps suffering divergence, in `[0, 1]`.
    pub divergence: f64,
    /// Fixed overhead of issuing this launch (driver path dependent);
    /// callers take it from [`DeviceSpec::cuda_launch_latency_ns`] or
    /// [`DeviceSpec::opencl_enqueue_latency_ns`].
    pub launch_overhead_ns: u64,
}

impl KernelCost {
    /// A zero-cost placeholder (still pays launch overhead + kernel floor).
    pub fn empty() -> Self {
        KernelCost {
            bytes_read: 0,
            bytes_written: 0,
            flops: 0,
            pattern: AccessPattern::Coalesced,
            divergence: 0.0,
            launch_overhead_ns: 0,
        }
    }

    /// Cost of a coalesced element-wise map over `n` elements reading `I`
    /// and writing `O`, with one operation per element.
    pub fn map<I, O>(n: usize) -> Self {
        KernelCost {
            bytes_read: (n * std::mem::size_of::<I>()) as u64,
            bytes_written: (n * std::mem::size_of::<O>()) as u64,
            flops: n as u64,
            pattern: AccessPattern::Coalesced,
            divergence: 0.0,
            launch_overhead_ns: 0,
        }
    }

    /// Cost of a tree reduction over `n` elements of `T` (reads everything,
    /// writes a handful of partials).
    pub fn reduce<T>(n: usize) -> Self {
        KernelCost {
            bytes_read: (n * std::mem::size_of::<T>()) as u64,
            bytes_written: 256,
            flops: n as u64,
            pattern: AccessPattern::Coalesced,
            divergence: 0.0,
            launch_overhead_ns: 0,
        }
    }

    /// Builder: set bytes read.
    pub fn with_read(mut self, bytes: u64) -> Self {
        self.bytes_read = bytes;
        self
    }

    /// Builder: set bytes written.
    pub fn with_write(mut self, bytes: u64) -> Self {
        self.bytes_written = bytes;
        self
    }

    /// Builder: set the operation count.
    pub fn with_flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Builder: set the access pattern.
    pub fn with_pattern(mut self, pattern: AccessPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Builder: set the divergent-warp fraction.
    pub fn with_divergence(mut self, divergence: f64) -> Self {
        self.divergence = divergence.clamp(0.0, 1.0);
        self
    }

    /// Builder: set the launch overhead in nanoseconds.
    pub fn with_launch_overhead(mut self, ns: u64) -> Self {
        self.launch_overhead_ns = ns;
        self
    }

    /// Total bytes moved through global memory.
    fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Evaluate the cost model against `spec`, producing the simulated
    /// duration of the launch (overhead + execution).
    pub fn duration(&self, spec: &DeviceSpec) -> SimDuration {
        let eff_bw = spec.mem_bandwidth_gbps * self.pattern.efficiency(spec); // bytes/ns
        let t_mem = if eff_bw > 0.0 {
            self.total_bytes() as f64 / eff_bw
        } else {
            0.0
        };
        let t_comp = self.flops as f64 / spec.flops_per_ns();
        let exec = t_mem.max(t_comp) * (1.0 + self.divergence * spec.divergence_penalty);
        let exec_ns = (exec.ceil() as u64).max(spec.min_kernel_ns);
        SimDuration::from_nanos(self.launch_overhead_ns + exec_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        DeviceSpec::gtx1080()
    }

    #[test]
    fn empty_kernel_pays_floor_and_overhead() {
        let c = KernelCost::empty().with_launch_overhead(5_000);
        let d = c.duration(&spec());
        assert_eq!(d.as_nanos(), 5_000 + spec().min_kernel_ns);
    }

    #[test]
    fn large_map_is_bandwidth_bound() {
        let n = 16 << 20; // 16M u32 in, u32 out = 128 MiB traffic
        let c = KernelCost::map::<u32, u32>(n);
        let d = c.duration(&spec());
        let bytes = (2 * n * 4) as f64;
        let expected = bytes / (320.0 * 0.85);
        let got = d.as_nanos() as f64;
        assert!(
            (got - expected).abs() / expected < 0.01,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn random_access_is_slower_than_coalesced() {
        let base = KernelCost::map::<u64, u64>(1 << 20);
        let random = base.with_pattern(AccessPattern::Random);
        assert!(random.duration(&spec()) > base.duration(&spec()));
    }

    #[test]
    fn divergence_inflates_time() {
        let base = KernelCost::map::<u64, u64>(1 << 20);
        let div = base.with_divergence(1.0);
        let t0 = base.duration(&spec()).as_nanos() as f64;
        let t1 = div.duration(&spec()).as_nanos() as f64;
        assert!(
            (t1 / t0 - 2.0).abs() < 0.05,
            "full divergence ≈ 2× on default spec"
        );
    }

    #[test]
    fn divergence_is_clamped() {
        let c = KernelCost::empty().with_divergence(7.5);
        assert_eq!(c.divergence, 1.0);
        let c = KernelCost::empty().with_divergence(-1.0);
        assert_eq!(c.divergence, 0.0);
    }

    #[test]
    fn compute_bound_kernel_ignores_bandwidth() {
        // Tiny data, enormous flops: duration tracks flops/throughput.
        let c = KernelCost::empty().with_flops(10_000_000_000);
        let d = c.duration(&spec());
        let expected = 10_000_000_000.0 / spec().flops_per_ns();
        assert!((d.as_nanos() as f64 - expected).abs() / expected < 0.01);
    }

    #[test]
    fn builders_compose() {
        let c = KernelCost::empty()
            .with_read(100)
            .with_write(50)
            .with_flops(10)
            .with_pattern(AccessPattern::Strided)
            .with_launch_overhead(1);
        assert_eq!(c.total_bytes(), 150);
        assert_eq!(c.pattern, AccessPattern::Strided);
        assert_eq!(c.launch_overhead_ns, 1);
    }
}
