//! Benchmark runner: deterministic measurement of simulated operator time.
//!
//! The paper times each operator in isolation and whole queries per
//! library. The runner standardises that: a measurement runs the closure
//! once for **warm-up** (populating JIT caches and memory pools — real GPU
//! benchmarking does the same) and then measures the simulated time of the
//! steady-state repetition. Because the virtual clock is deterministic, a
//! single measured run is exact; `runs` exists to verify steadiness.

use crate::backend::GpuBackend;
use gpu_sim::{Result, SimDuration};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One measured cell: a backend × workload-point sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Backend that produced the sample.
    pub backend: String,
    /// Workload parameter (e.g. rows, selectivity×1000, group count).
    pub x: u64,
    /// Simulated nanoseconds of the measured region (steady state).
    pub nanos: u64,
    /// Simulated nanoseconds of the first (cold) run, capturing JIT and
    /// pool warm-up — the paper discusses exactly this start-up gap.
    pub cold_nanos: u64,
    /// Kernel launches in the measured region.
    pub launches: u64,
    /// Bytes moved through device global memory in the measured region.
    pub kernel_bytes: u64,
}

/// Measure `work` on `backend` at workload point `x`.
///
/// Runs once cold, then measures the second (steady-state) execution,
/// capturing launches and kernel traffic from the device statistics delta.
pub fn measure(
    backend: &dyn GpuBackend,
    x: u64,
    mut work: impl FnMut() -> Result<()>,
) -> Result<Sample> {
    let device = backend.device();
    let t0 = device.now();
    work()?;
    let cold = device.now() - t0;
    device.reset_stats();
    let t1 = device.now();
    work()?;
    let warm = device.now() - t1;
    let stats = device.stats();
    Ok(Sample {
        backend: backend.name().to_string(),
        x,
        nanos: warm.as_nanos(),
        cold_nanos: cold.as_nanos(),
        launches: stats.total_launches(),
        kernel_bytes: stats.total_kernel_bytes(),
    })
}

/// A labelled collection of samples forming one experiment's data.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Experiment {
    /// Experiment id (e.g. "E3").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Meaning of the x axis.
    pub x_label: String,
    /// Collected samples.
    pub samples: Vec<Sample>,
}

impl Experiment {
    /// New, empty experiment.
    pub fn new(id: &str, title: &str, x_label: &str) -> Self {
        Experiment {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            samples: Vec::new(),
        }
    }

    /// Append a sample.
    pub fn push(&mut self, s: Sample) {
        self.samples.push(s);
    }

    /// Distinct backend names, in first-seen order.
    pub fn backends(&self) -> Vec<&str> {
        let mut v: Vec<&str> = Vec::new();
        for s in &self.samples {
            if !v.contains(&s.backend.as_str()) {
                v.push(&s.backend);
            }
        }
        v
    }

    /// Distinct x values, ascending.
    pub fn xs(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.samples.iter().map(|s| s.x).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The sample for `(backend, x)`, if measured.
    pub fn get(&self, backend: &str, x: u64) -> Option<&Sample> {
        self.samples
            .iter()
            .find(|s| s.backend == backend && s.x == x)
    }

    /// Render the experiment as a markdown-ish table: one row per x, one
    /// column per backend, cells in milliseconds — the paper's
    /// figure-as-table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let backends = self.backends();
        let _ = write!(out, "{:>14}", self.x_label);
        for b in &backends {
            let _ = write!(out, " {:>16}", b);
        }
        let _ = writeln!(out);
        for x in self.xs() {
            let _ = write!(out, "{x:>14}");
            for b in &backends {
                match self.get(b, x) {
                    Some(s) => {
                        let _ = write!(out, " {:>16}", format!("{:.3}ms", s.nanos as f64 / 1e6));
                    }
                    None => {
                        let _ = write!(out, " {:>16}", "–");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as CSV (`x,backend,nanos,cold_nanos,launches,kernel_bytes`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x,backend,nanos,cold_nanos,launches,kernel_bytes\n");
        for s in &self.samples {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                s.x, s.backend, s.nanos, s.cold_nanos, s.launches, s.kernel_bytes
            );
        }
        out
    }
}

/// Pretty-print a simulated duration (re-export convenience).
pub fn fmt_duration(ns: u64) -> String {
    SimDuration::from_nanos(ns).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::ThrustBackend;
    use crate::ops::CmpOp;
    use gpu_sim::Device;

    #[test]
    fn measure_separates_cold_and_warm() {
        let b = ThrustBackend::new(&Device::with_defaults());
        let col =
            crate::backend::GpuBackend::upload_u32(&b, &(0..1024u32).collect::<Vec<_>>()).unwrap();
        let sample = measure(&b, 1024, || {
            let ids = crate::backend::GpuBackend::selection(&b, &col, CmpOp::Gt, 100.0)?;
            crate::backend::GpuBackend::free(&b, ids)
        })
        .unwrap();
        assert!(sample.nanos > 0);
        assert!(
            sample.cold_nanos >= sample.nanos,
            "cold includes pool warm-up"
        );
        assert_eq!(sample.launches, 4, "transform+scan+sequence+scatter_if");
        assert!(sample.kernel_bytes > 0);
    }

    #[test]
    fn experiment_rendering_and_lookup() {
        let mut e = Experiment::new("E0", "demo", "rows");
        e.push(Sample {
            backend: "A".into(),
            x: 10,
            nanos: 2_000_000,
            cold_nanos: 3_000_000,
            launches: 2,
            kernel_bytes: 100,
        });
        e.push(Sample {
            backend: "B".into(),
            x: 10,
            nanos: 4_000_000,
            cold_nanos: 4_000_000,
            launches: 5,
            kernel_bytes: 300,
        });
        assert_eq!(e.backends(), vec!["A", "B"]);
        assert_eq!(e.xs(), vec![10]);
        let table = e.render();
        assert!(table.contains("E0"));
        assert!(table.contains("2.000ms"));
        let csv = e.to_csv();
        assert!(csv.contains("10,A,2000000,3000000,2,100"));
    }

    #[test]
    fn fmt_duration_is_humane() {
        assert_eq!(fmt_duration(1_500), "1.50µs");
    }
}
