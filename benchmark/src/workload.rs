//! What a workload is: a set-up, and a *pass* — one run of a fixed
//! schedule of timed calls — that the runner repeats a fixed number of
//! times (`registry::WorkloadDef::passes`). Every loop inside a pass has a
//! fixed iteration count too, so simulated numbers and counts are the same
//! in every pass, on every machine.

use gpu_sim::{Device, DeviceStats};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Settings the command line passes down to a workload's set-up.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// The `benchmark/` directory (goldens in, traces out).
    pub dir: PathBuf,
}

/// Host latency of one timed call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Index into [`Workload::cells`].
    pub cell: u32,
    pub us: f64,
}

/// Simulated-device counters summed over a pass, from `DeviceStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DevTotals {
    pub launches: u64,
    pub kernel_ns: u64,
    pub jit_ns: u64,
    pub transfer_bytes: u64,
    pub kernel_bytes: u64,
    pub allocs: u64,
    pub pool_hits: u64,
    pub mem_peak: u64,
    pub retries: u64,
    pub partitions: u64,
    pub fallbacks: u64,
    pub faults: u64,
}

impl DevTotals {
    pub fn add(&mut self, s: &DeviceStats) {
        self.launches += s.total_launches();
        self.kernel_ns += s.total_kernel_time().as_nanos();
        self.jit_ns += s.jit_time.0;
        self.transfer_bytes += s.htod_bytes + s.dtoh_bytes + s.dtod_bytes;
        self.kernel_bytes += s.total_kernel_bytes();
        self.allocs += s.allocs;
        self.pool_hits += s.pool_hits;
        self.mem_peak = self.mem_peak.max(s.mem_peak);
        self.retries += s.retries;
        self.partitions += s.plan_partitions;
        self.fallbacks += s.fallbacks;
        self.faults += s.faults_injected;
    }
}

/// What one pass of the schedule produced.
#[derive(Debug, Default)]
pub struct PassOut {
    pub calls: Vec<Call>,
    /// Input rows the timed calls consumed.
    pub rows: u64,
    /// Calls that returned an error or a wrong answer.
    pub failed: u64,
    /// Simulated device ns inside the timed calls.
    pub sim_ns: u64,
    /// Per cell, the simulated outcome compared against the golden and
    /// between passes: `"<ns>/<launches>/<kernel bytes>"`, or a digest.
    pub sim_cells: Vec<String>,
    pub dev: DevTotals,
}

/// Per-layer numbers a workload adds after its traced passes.
pub type LayerMetrics = BTreeMap<String, f64>;

pub trait Workload {
    /// Names of the schedule's cells; calls and `sim_cells` index into it.
    fn cells(&self) -> &[String];

    /// Whether an untimed pass runs first so JIT caches, pools and free
    /// lists are in steady state. `grid_full` says no: a regeneration is
    /// one cold process, and that is the cost its user pays.
    fn warm_up(&self) -> bool {
        true
    }

    /// Whether the schedule's inputs ignore `--seed`, so that its golden
    /// holds at every seed.
    fn seed_independent(&self) -> bool {
        false
    }

    /// `PhysicalPlan` steps one pass executes (0: the workload runs no plans).
    fn plan_steps_per_pass(&self) -> u64 {
        0
    }

    /// Host threads that run cells side by side (the grid's workers);
    /// span self times are compared against `wall x parallelism`.
    fn parallelism(&self) -> usize {
        1
    }

    fn pass(&mut self) -> PassOut;

    /// Layer probes and workload-specific metrics of the traced run.
    fn layer_metrics(&mut self, passes: &[&PassOut], out: &mut LayerMetrics);
}

/// Times one call; `Err` counts as a failed operation for the caller.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64 / 1e3)
}

/// Snapshot of a device's simulated clock and counters at a cell boundary.
pub struct SimMark {
    launches: u64,
    kernel_bytes: u64,
}

impl SimMark {
    pub fn take(dev: &Device) -> SimMark {
        let s = dev.stats();
        SimMark {
            launches: s.total_launches(),
            kernel_bytes: s.total_kernel_bytes(),
        }
    }

    /// The cell's golden string: `sim_ns` was summed by the caller around
    /// the timed calls only; launches and bytes are the counter deltas
    /// since `self` (they include the answer check's downloads, which are
    /// as deterministic as the calls).
    pub fn cell(&self, dev: &Device, sim_ns: u64) -> String {
        let s = dev.stats();
        format!(
            "{sim_ns}/{}/{}",
            s.total_launches() - self.launches,
            s.total_kernel_bytes() - self.kernel_bytes
        )
    }
}

/// Median host time (µs) of `reps` runs of `f`, after one untimed run.
pub fn probe_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    crate::stat::median(&times)
}

pub mod grid_full;
pub mod ops_scan;
pub mod queries;
pub mod queries_faulted;

/// Build (set up) the workload called `name`.
pub fn build(name: &str, cfg: &Config) -> Option<Box<dyn Workload>> {
    Some(match name {
        "grid_full" => Box::new(grid_full::GridFull::setup()),
        "ops_scan" => Box::new(ops_scan::OpsScan::setup(cfg)),
        "queries_plan" => Box::new(queries::Queries::setup(cfg, queries::Shape::Plan)),
        "queries_scan" => Box::new(queries::Queries::setup(cfg, queries::Shape::Scan)),
        "queries_faulted" => Box::new(queries_faulted::QueriesFaulted::setup(cfg)),
        _ => return None,
    })
}
