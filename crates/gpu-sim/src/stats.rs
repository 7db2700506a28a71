//! Device statistics — the observables behind the paper's analysis.
//!
//! The paper's §II argues that library-based operator chaining causes
//! "unwanted intermediate data movements"; our ablation experiments (A1–A3)
//! make that claim measurable by counting, per kernel name: launches,
//! simulated busy time, and bytes moved. Transfers, JIT compiles and
//! allocations are tallied device-wide.
//!
//! The counters are a fold over the device's events: the device applies
//! every event it charges, and [`DeviceStats::from_trace`] replays a trace.

use crate::clock::SimDuration;
use crate::trace::{Recovery, TraceEvent, TraceKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregate statistics for one kernel name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelStat {
    /// Number of launches.
    pub launches: u64,
    /// Total simulated execution time (incl. launch overhead).
    pub total_time: SimDurationNs,
    /// Total bytes read from global memory.
    pub bytes_read: u64,
    /// Total bytes written to global memory.
    pub bytes_written: u64,
}

/// Serializable nanosecond wrapper (SimDuration mirror for stats tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimDurationNs(pub u64);

impl From<SimDuration> for SimDurationNs {
    fn from(d: SimDuration) -> Self {
        SimDurationNs(d.as_nanos())
    }
}

impl SimDurationNs {
    /// Back to a [`SimDuration`].
    pub(crate) fn as_duration(self) -> SimDuration {
        SimDuration::from_nanos(self.0)
    }
}

/// Snapshot of all counters on a device.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Per-kernel aggregates, keyed by kernel name.
    pub kernels: BTreeMap<String, KernelStat>,
    /// Bytes copied host→device.
    pub htod_bytes: u64,
    /// Bytes copied device→host.
    pub dtoh_bytes: u64,
    /// Bytes copied device→device.
    pub dtod_bytes: u64,
    /// Number of host→device transfers.
    pub htod_count: u64,
    /// Number of device→host transfers.
    pub dtoh_count: u64,
    /// JIT compilations performed (OpenCL programs / fused kernels).
    pub jit_compiles: u64,
    /// Total simulated time spent in JIT compilation.
    pub jit_time: SimDurationNs,
    /// Raw driver allocations performed.
    pub allocs: u64,
    /// Allocations served from the memory pool without driver round-trip.
    pub pool_hits: u64,
    /// Current device memory in use, bytes (allocator state, not folded).
    pub mem_in_use: u64,
    /// High-water mark of device memory, bytes (not folded either).
    pub mem_peak: u64,
    /// Faults injected by the installed [`crate::fault::FaultPlan`].
    pub faults_injected: u64,
    /// Operation retries performed by resilience layers
    /// ([`Recovery::Retry`]).
    pub retries: u64,
    /// Fallbacks to an alternative implementation
    /// ([`Recovery::Fallback`]).
    pub fallbacks: u64,
    /// Batch splits performed to ride out memory pressure
    /// ([`Recovery::Split`]).
    pub batch_splits: u64,
    /// Partitioned plan re-executions performed by the resilient plan
    /// executor ([`Recovery::Partition`]).
    pub plan_partitions: u64,
}

impl DeviceStats {
    /// Fold one event lasting `dur` into the counters: the one place a
    /// counter is defined.
    pub(crate) fn apply(&mut self, dur: SimDuration, kind: &TraceKind) {
        match kind {
            TraceKind::Kernel {
                name,
                bytes_read,
                bytes_written,
                ..
            } => {
                let add = |stat: &mut KernelStat| {
                    stat.launches += 1;
                    stat.total_time.0 += dur.as_nanos();
                    stat.bytes_read += bytes_read;
                    stat.bytes_written += bytes_written;
                };
                // Only a kernel's first launch allocates its key.
                match self.kernels.get_mut(name) {
                    Some(stat) => add(stat),
                    None => add(self.kernels.entry(name.clone()).or_default()),
                }
            }
            TraceKind::HtoD { bytes, .. } => {
                self.htod_bytes += bytes;
                self.htod_count += 1;
            }
            TraceKind::DtoH { bytes, .. } => {
                self.dtoh_bytes += bytes;
                self.dtoh_count += 1;
            }
            TraceKind::DtoD { bytes, .. } => self.dtod_bytes += bytes,
            TraceKind::Jit(_) => {
                self.jit_compiles += 1;
                self.jit_time.0 += dur.as_nanos();
            }
            TraceKind::Alloc { .. } => self.allocs += 1,
            TraceKind::PoolAlloc { .. } => self.pool_hits += 1,
            TraceKind::Free { .. } => {}
            TraceKind::Fault(_) => self.faults_injected += 1,
            TraceKind::Recovery(r) => {
                *match r {
                    Recovery::Retry { .. } => &mut self.retries,
                    Recovery::Fallback { .. } => &mut self.fallbacks,
                    Recovery::Split { .. } => &mut self.batch_splits,
                    Recovery::Partition { .. } => &mut self.plan_partitions,
                } += 1
            }
        }
    }

    /// The counters `events` fold to. For a trace recorded from device
    /// creation this equals [`crate::Device::stats`] in every field but
    /// `mem_in_use` / `mem_peak`, which it leaves at zero.
    pub fn from_trace(events: &[TraceEvent]) -> DeviceStats {
        let mut stats = DeviceStats::default();
        for e in events {
            stats.apply(e.duration(), &e.kind);
        }
        stats
    }

    /// Total kernel launches across all kernel names.
    pub fn total_launches(&self) -> u64 {
        self.kernels.values().map(|k| k.launches).sum()
    }

    /// Total simulated kernel busy time.
    pub fn total_kernel_time(&self) -> SimDuration {
        SimDuration::from_nanos(self.kernels.values().map(|k| k.total_time.0).sum())
    }

    /// Total bytes moved through device global memory by kernels.
    pub fn total_kernel_bytes(&self) -> u64 {
        self.kernels
            .values()
            .map(|k| k.bytes_read + k.bytes_written)
            .sum()
    }

    /// Launches recorded under `name` (0 if never launched).
    pub fn launches_of(&self, name: &str) -> u64 {
        self.kernels.get(name).map_or(0, |k| k.launches)
    }

    /// Render a compact human-readable report, sorted by time descending.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<(&String, &KernelStat)> = self.kernels.iter().collect();
        rows.sort_by_key(|(_, k)| std::cmp::Reverse(k.total_time.0));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>12} {:>14}",
            "kernel", "launches", "time", "bytes"
        );
        for (name, k) in rows {
            let _ = writeln!(
                out,
                "{:<34} {:>9} {:>12} {:>14}",
                name,
                k.launches,
                k.total_time.as_duration().to_string(),
                k.bytes_read + k.bytes_written
            );
        }
        let _ = writeln!(
            out,
            "transfers: h2d {} B ({}x), d2h {} B ({}x); jit: {} ({}); allocs: {} (+{} pooled); peak mem: {} B",
            self.htod_bytes,
            self.htod_count,
            self.dtoh_bytes,
            self.dtoh_count,
            self.jit_compiles,
            self.jit_time.as_duration(),
            self.allocs,
            self.pool_hits,
            self.mem_peak
        );
        if self.faults_injected
            + self.retries
            + self.fallbacks
            + self.batch_splits
            + self.plan_partitions
            > 0
        {
            let _ = writeln!(
                out,
                "resilience: {} faults injected, {} retries, {} fallbacks, {} batch splits, {} plan partitions",
                self.faults_injected, self.retries, self.fallbacks, self.batch_splits, self.plan_partitions
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeviceStats {
        let mut s = DeviceStats::default();
        s.kernels.insert(
            "scan".into(),
            KernelStat {
                launches: 3,
                total_time: SimDurationNs(9_000),
                bytes_read: 300,
                bytes_written: 150,
            },
        );
        s.kernels.insert(
            "map".into(),
            KernelStat {
                launches: 2,
                total_time: SimDurationNs(4_000),
                bytes_read: 100,
                bytes_written: 100,
            },
        );
        s
    }

    #[test]
    fn aggregates_sum_across_kernels() {
        let s = sample();
        assert_eq!(s.total_launches(), 5);
        assert_eq!(s.total_kernel_time().as_nanos(), 13_000);
        assert_eq!(s.total_kernel_bytes(), 650);
        assert_eq!(s.launches_of("scan"), 3);
        assert_eq!(s.launches_of("missing"), 0);
    }

    #[test]
    fn report_lists_kernels_by_time() {
        let r = sample().report();
        let scan_pos = r.find("scan").unwrap();
        let map_pos = r.find("map").unwrap();
        assert!(scan_pos < map_pos, "slowest kernel first:\n{r}");
        assert!(r.contains("peak mem"));
    }

    #[test]
    fn duration_ns_roundtrip() {
        let d = SimDuration::from_nanos(7_000);
        let ns: SimDurationNs = d.into();
        assert_eq!(ns.as_duration(), d);
    }
}
