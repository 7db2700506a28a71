//! The benchmark grid: every cell of the experiment table
//! ([`crate::experiments::TABLE`]), scheduled over the deterministic
//! parallel [`Plan`] and emitted in canonical serial order.
//!
//! ## Decomposition
//!
//! A backend's device accumulates state (JIT program cache, memory-pool
//! free lists) that the `cold_nanos` column of later samples observes, so
//! the cells of one backend form a serial **lane** executed in the exact
//! order of the historical serial runner. The four lanes are mutually
//! independent — devices are per-backend — and run concurrently. Cells
//! that build fresh devices by design (the fault sweeps E17 / E19, the
//! cost-model calibration E21, the fusion ablation A2, the JIT ablation
//! A3) are fully independent jobs. Which is which, and in what order, is
//! the table's to say; this module only walks it.
//!
//! ## Determinism
//!
//! Every cell computes simulated measurements from its own device clock;
//! the scheduler only decides *when on the host* a cell runs, never what
//! it computes. Results are stored per cell and assembled in the table's
//! emission order, so stdout and every CSV artifact are byte-identical
//! at any `--jobs` count — and identical to the serial runner's output
//! (experiments are emitted in numeric order; the lanes still *execute*
//! E15 before E14, preserving the per-device operation sequence the
//! historical runner used).

use proto_core::backend::GpuBackend;
use proto_core::backends::PAPER_BACKENDS;
use proto_core::framework::Framework;
use std::sync::{Arc, Mutex};

pub use crate::experiments::SECTIONS;
use crate::experiments::{emitting_row, execution_order, CellOut, EXPERIMENTS, TABLE};
use crate::extensions;
use crate::queries;
use crate::sched::Plan;

/// Parameters of the full regeneration grid. [`GridConfig::default`] is
/// the paper grid (what `all_experiments` runs); tests shrink the fields
/// for fast sweeps.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Row-count sweep for the scaling experiments (E3, E5, E7, E14).
    pub sizes: Vec<usize>,
    /// Selectivity sweep for E4 (and A4).
    pub sels: Vec<f64>,
    /// Fixed row count for E4.
    pub e4_n: usize,
    /// Group-count sweep for E6.
    pub groups: Vec<usize>,
    /// Fixed row count for E6.
    pub e6_n: usize,
    /// Row-count sweep for E8 joins.
    pub join_sizes: Vec<usize>,
    /// Fixed row count for E9.
    pub e9_n: usize,
    /// Predicate-count sweep for E9.
    pub e9_preds: Vec<usize>,
    /// Scale factor validated before the query experiments.
    pub validate_sf: f64,
    /// Scale-factor sweep for E10–E12.
    pub sfs: Vec<f64>,
    /// Scale factor for E13.
    pub e13_sf: f64,
    /// Fixed row count for E15.
    pub e15_n: usize,
    /// Scale factor for E17.
    pub e17_sf: f64,
    /// Fault-rate sweep (permille) for E17.
    pub e17_rates: Vec<u64>,
    /// Scale factor for E19.
    pub e19_sf: f64,
    /// Fault-rate sweep (permille) for E19.
    pub e19_rates: Vec<u64>,
    /// Row-count sweep for E20 (spans the fusion break-even).
    pub e20_sizes: Vec<usize>,
    /// Row-count sweep for E21's fused-vs-composed calibration cells.
    pub e21_sizes: Vec<usize>,
    /// Probe-side row counts for E21's join-algorithm cells.
    pub e21_join_sizes: Vec<usize>,
    /// Fixed row count for A1.
    pub a1_n: usize,
    /// Chain-length sweep for A2.
    pub a2_ks: Vec<usize>,
    /// Fixed row count for A2.
    pub a2_n: usize,
    /// Fixed row count for A3.
    pub a3_n: usize,
    /// Fixed row count for A4.
    pub a4_n: usize,
    /// Selectivity sweep for A4.
    pub a4_sels: Vec<f64>,
}

impl Default for GridConfig {
    fn default() -> Self {
        let sels = vec![0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99];
        GridConfig {
            sizes: crate::default_sizes(),
            sels: sels.clone(),
            e4_n: 1 << 20,
            groups: vec![16, 256, 4_096, 65_536, 1 << 20],
            e6_n: 1 << 20,
            join_sizes: vec![1 << 12, 1 << 14, 1 << 16, 1 << 18],
            e9_n: 1 << 20,
            e9_preds: vec![1, 2, 3, 4],
            validate_sf: 0.001,
            sfs: queries::default_scale_factors(),
            e13_sf: 0.02,
            e15_n: 1 << 20,
            e17_sf: 0.01,
            e17_rates: vec![0, 10, 50, 100],
            e19_sf: 0.01,
            e19_rates: vec![0, 50],
            e20_sizes: extensions::e20_default_sizes(),
            e21_sizes: extensions::e21_default_sizes(),
            e21_join_sizes: extensions::e21_default_join_sizes(),
            a1_n: 1 << 20,
            a2_ks: vec![1, 2, 4, 8],
            a2_n: 1 << 20,
            a3_n: 1 << 20,
            a4_n: 1 << 20,
            a4_sels: sels,
        }
    }
}

/// The outcome of one full grid run.
#[derive(Debug)]
pub struct GridRun {
    /// Exactly what the serial runner prints (modulo the documented
    /// numeric experiment order), as one string.
    pub stdout: String,
    /// CSV artifacts: `(file name, contents)` in emission order.
    pub artifacts: Vec<(String, String)>,
    /// Per-experiment host wall time (sum of the experiment's cell
    /// times), using the serial runner's section labels and order.
    pub sections: Vec<(String, u128)>,
    /// Per-cell host wall time, in canonical cell order.
    pub cells: Vec<(String, u128)>,
    /// Host wall time of the scheduled portion (the `Plan::run` call).
    pub wall_ms: u128,
    /// Summed cell time — what a serial execution of the same cells
    /// costs. `busy_ms / (wall_ms · jobs)` is pool efficiency.
    pub busy_ms: u128,
    /// Worker count the grid ran with.
    pub jobs: usize,
}

struct Slot {
    /// `section/cell label`, e.g. `"E19/r50/fallback/Boost.Compute"`.
    label: String,
    /// [`TABLE`] index of the cell's row.
    row: usize,
    /// The cell's position among its row's cells — where `assemble`
    /// expects its output.
    index: usize,
}

/// Each registered cell's output and host milliseconds, by slot.
type Done = Arc<Mutex<Vec<Option<(CellOut, u128)>>>>;

struct Builder {
    plan: Plan,
    /// One per cell, in registration order: the canonical cell order.
    slots: Vec<Slot>,
    done: Done,
}

impl Builder {
    /// Register a cell: `lane` tags the backend chain it belongs to (if
    /// any), `after` chains it on a lane predecessor (a task id); returns
    /// the task id.
    fn add(
        &mut self,
        lane: Option<&str>,
        after: Option<usize>,
        slot: Slot,
        f: impl FnOnce() -> CellOut + Send + 'static,
    ) -> usize {
        let idx = self.slots.len();
        self.slots.push(slot);
        let done = self.done.clone();
        done.lock().expect("nothing runs yet").push(None);
        let run = move || {
            let t = std::time::Instant::now();
            let out = f();
            let ms = t.elapsed().as_millis();
            done.lock().expect("no cell panics holding the lock")[idx] = Some((out, ms));
        };
        match lane {
            Some(lane) => self.plan.add_on(lane, after, run),
            None => self.plan.add(after, run),
        }
    }
}

/// Register every cell of the experiment [`TABLE`] into a fresh
/// [`Builder`]: the four lanes in [`PAPER_BACKENDS`] order, each in the
/// table's [`execution_order`], then the fresh-device cells in table
/// order — the order the scheduler's FIFO ready queue hands them out in.
/// Shared between [`run`] (which executes the plan) and [`plan_spec`]
/// (which only inspects its dependency structure).
fn build(cfg: &Arc<GridConfig>) -> Builder {
    let mut lanes = PAPER_BACKENDS.map(|_| Vec::new());
    let mut fresh = Vec::new();
    for (row, r) in execution_order() {
        for (index, cell) in r.cells(cfg).into_iter().enumerate() {
            let label = format!("{}/{}", r.section, cell.label);
            let queue = match cell.lane() {
                Some(name) => {
                    let lane = PAPER_BACKENDS.iter().position(|b| *b == name);
                    &mut lanes[lane.expect("lane cells name a paper backend")]
                }
                None => &mut fresh,
            };
            queue.push((Slot { label, row, index }, cell));
        }
    }

    let mut b = Builder {
        plan: Plan::new(),
        slots: Vec::new(),
        done: Done::default(),
    };
    // A backend's device accumulates state, so its cells share one
    // backend and chain in the serial per-device operation order.
    for (name, queue) in PAPER_BACKENDS.into_iter().zip(lanes) {
        let backend: Arc<dyn GpuBackend> =
            Arc::from(Framework::single_backend(&crate::paper_device(), name));
        let mut prev = None;
        for (slot, cell) in queue {
            let bk = backend.clone();
            let run = move || cell.run(Some(bk.as_ref()), false).0;
            prev = Some(b.add(Some(name), prev, slot, run));
        }
    }
    for (slot, cell) in fresh {
        b.add(None, None, slot, move || cell.run(None, false).0);
    }
    b
}

/// The dependency structure of the grid's plan, for static verification
/// (`gpu-lint`'s plan checker): one tagged serial lane per backend plus
/// untagged independent cells. Registers every cell exactly as [`run`]
/// does but executes nothing.
pub fn plan_spec(cfg: GridConfig) -> crate::sched::PlanSpec {
    build(&Arc::new(cfg)).plan.spec()
}

/// Run the whole grid on `jobs` workers and return its assembled output.
///
/// Also divides the host-thread budget of the `gpu-sim` host-execution
/// engine across workers, so cell workers × per-cell `hostexec` threads
/// never oversubscribe the machine.
pub fn run(cfg: GridConfig, jobs: usize) -> GridRun {
    let jobs = jobs.max(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    gpu_sim::hostexec::set_worker_budget(std::cmp::max(1, cores / jobs));

    let cfg = Arc::new(cfg);
    let Builder { plan, slots, done } = build(&cfg);
    let t0 = std::time::Instant::now();
    plan.run(jobs);
    let wall_ms = t0.elapsed().as_millis();

    // ---- Host-cost accounting, and each row's outputs in cell order. ----
    let done = std::mem::take(&mut *done.lock().expect("every cell returned"));
    let mut outs: Vec<Vec<(usize, CellOut)>> = TABLE.iter().map(|_| Vec::new()).collect();
    let mut sections: Vec<(String, u128)> =
        SECTIONS.iter().map(|sec| (sec.to_string(), 0)).collect();
    let mut cells = Vec::new();
    for (slot, done) in slots.into_iter().zip(done) {
        let (out, ms) = done.expect("the plan ran every cell");
        outs[slot.row].push((slot.index, out));
        sections[slot.row].1 += ms;
        cells.push((slot.label, ms));
    }
    let busy_ms = cells.iter().map(|(_, ms)| ms).sum();

    // ---- Assemble and render in canonical (numeric) emission order. ----
    let fw = crate::paper_framework();
    let mut stdout = String::new();
    stdout.push_str(&format!("{}\n", proto_core::survey::render_table()));
    stdout.push_str(&format!("{}\n", fw.support_matrix()));
    let mut artifacts = Vec::new();
    for id in EXPERIMENTS {
        let (row, r) = emitting_row(id);
        let mut row_outs = std::mem::take(&mut outs[row]);
        row_outs.sort_by_key(|(index, _)| *index);
        let row_outs = row_outs.into_iter().map(|(_, out)| out).collect();
        for exp in r.assemble(&cfg, row_outs) {
            stdout.push_str(&format!("{}\n", (r.render)(&exp)));
            artifacts.push((format!("{}.csv", exp.id), exp.to_csv()));
        }
    }

    GridRun {
        stdout,
        artifacts,
        sections,
        cells,
        wall_ms,
        busy_ms,
        jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run_serial, Cells};
    use crate::traced::lint_config;

    #[test]
    fn grid_output_is_jobs_invariant() {
        let one = run(lint_config(), 1);
        let four = run(lint_config(), 4);
        assert_eq!(one.stdout, four.stdout);
        assert_eq!(one.artifacts, four.artifacts);
        assert_eq!(one.jobs, 1);
        assert_eq!(four.jobs, 4);
    }

    #[test]
    fn grid_emits_numeric_order_and_all_artifacts() {
        let r = run(lint_config(), 2);
        let names: Vec<&str> = r.artifacts.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "E3.csv", "E4.csv", "E5a.csv", "E5b.csv", "E6.csv", "E7a.csv", "E7b.csv",
                "E7c.csv", "E7d.csv", "E7e.csv", "E8.csv", "E9a.csv", "E9b.csv", "E10.csv",
                "E11.csv", "E12a.csv", "E12b.csv", "E12c.csv", "E12d.csv", "E13.csv", "E14.csv",
                "E15.csv", "E17.csv", "E19.csv", "E20.csv", "E21.csv", "A1.csv", "A2.csv",
                "A3.csv", "A4.csv"
            ]
        );
        // E14 is emitted before E15 (numeric order).
        let e14 = r.stdout.find("## E14 —").unwrap();
        let e15 = r.stdout.find("## E15 —").unwrap();
        assert!(e14 < e15, "numeric emission order");
        // Accounting covers every section, in table order, and every cell.
        let sections: Vec<&str> = r.sections.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(sections, SECTIONS);
        assert!(r.cells.len() > 70, "lanes + independent cells");
    }

    #[test]
    fn grid_matches_the_serial_runner() {
        // The grid's assembled samples equal `run_serial`'s — same cells,
        // same assemble, different scheduling — for every row whose device
        // state is fresh in both paths: the first operation of the lanes
        // and the rows that build their own devices.
        let ids: Vec<&str> = execution_order()
            .enumerate()
            .filter(|(pos, (_, row))| *pos == 0 || matches!(row.cells, Cells::Fresh(_)))
            .map(|(_, (_, row))| row.id)
            .collect();
        assert_eq!(ids, ["E3", "E17", "E19", "E21", "A2", "A3"]);
        let cfg = lint_config();
        let r = run(cfg.clone(), 3);
        for id in ids {
            for exp in run_serial(id, &crate::paper_framework(), &cfg) {
                let name = format!("{}.csv", exp.id);
                let (_, csv) = r.artifacts.iter().find(|(n, _)| *n == name).unwrap();
                assert_eq!(*csv, exp.to_csv(), "{name}");
            }
        }
    }

    /// `label|lane|after` of every task the paper grid registers, in
    /// registration order, as the hand-enumerated `build` of PR 14
    /// produced them. Registration order is the scheduler's FIFO
    /// ready-queue order and `GridRun::cells` order; labels key
    /// `BENCH_host.json`.
    const DEFAULT_PLAN: &str = "
E3/ArrayFire|ArrayFire|-
E4/ArrayFire|ArrayFire|0
E5a/ArrayFire|ArrayFire|1
E5b/ArrayFire|ArrayFire|2
E6/ArrayFire|ArrayFire|3
E7/ArrayFire|ArrayFire|4
E8/ArrayFire|ArrayFire|5
E9-and/ArrayFire|ArrayFire|6
E9-or/ArrayFire|ArrayFire|7
validate/ArrayFire|ArrayFire|8
E10/ArrayFire|ArrayFire|9
E11/ArrayFire|ArrayFire|10
E12/ArrayFire|ArrayFire|11
E13/ArrayFire|ArrayFire|12
E15/ArrayFire|ArrayFire|13
E14/ArrayFire|ArrayFire|14
A1/ArrayFire|ArrayFire|15
E20/ArrayFire|ArrayFire|16
E3/Boost.Compute|Boost.Compute|-
E4/Boost.Compute|Boost.Compute|18
E5a/Boost.Compute|Boost.Compute|19
E5b/Boost.Compute|Boost.Compute|20
E6/Boost.Compute|Boost.Compute|21
E7/Boost.Compute|Boost.Compute|22
E8/Boost.Compute|Boost.Compute|23
E9-and/Boost.Compute|Boost.Compute|24
E9-or/Boost.Compute|Boost.Compute|25
validate/Boost.Compute|Boost.Compute|26
E10/Boost.Compute|Boost.Compute|27
E11/Boost.Compute|Boost.Compute|28
E12/Boost.Compute|Boost.Compute|29
E13/Boost.Compute|Boost.Compute|30
E15/Boost.Compute|Boost.Compute|31
E14/Boost.Compute|Boost.Compute|32
A1/Boost.Compute|Boost.Compute|33
E20/Boost.Compute|Boost.Compute|34
E3/Thrust|Thrust|-
E4/Thrust|Thrust|36
E5a/Thrust|Thrust|37
E5b/Thrust|Thrust|38
E6/Thrust|Thrust|39
E7/Thrust|Thrust|40
E8/Thrust|Thrust|41
E9-and/Thrust|Thrust|42
E9-or/Thrust|Thrust|43
validate/Thrust|Thrust|44
E10/Thrust|Thrust|45
E11/Thrust|Thrust|46
E12/Thrust|Thrust|47
E13/Thrust|Thrust|48
E15/Thrust|Thrust|49
E14/Thrust|Thrust|50
A1/Thrust|Thrust|51
A4/Thrust|Thrust|52
E20/Thrust|Thrust|53
E3/Handwritten|Handwritten|-
E4/Handwritten|Handwritten|55
E5a/Handwritten|Handwritten|56
E5b/Handwritten|Handwritten|57
E6/Handwritten|Handwritten|58
E7/Handwritten|Handwritten|59
E8/Handwritten|Handwritten|60
E9-and/Handwritten|Handwritten|61
E9-or/Handwritten|Handwritten|62
validate/Handwritten|Handwritten|63
E10/Handwritten|Handwritten|64
E11/Handwritten|Handwritten|65
E12/Handwritten|Handwritten|66
E13/Handwritten|Handwritten|67
E15/Handwritten|Handwritten|68
E14/Handwritten|Handwritten|69
A1/Handwritten|Handwritten|70
E20/Handwritten|Handwritten|71
E17/r0/ArrayFire|-|-
E17/r0/Boost.Compute|-|-
E17/r0/Thrust|-|-
E17/r0/Handwritten|-|-
E17/r10/ArrayFire|-|-
E17/r10/Boost.Compute|-|-
E17/r10/Thrust|-|-
E17/r10/Handwritten|-|-
E17/r50/ArrayFire|-|-
E17/r50/Boost.Compute|-|-
E17/r50/Thrust|-|-
E17/r50/Handwritten|-|-
E17/r100/ArrayFire|-|-
E17/r100/Boost.Compute|-|-
E17/r100/Thrust|-|-
E17/r100/Handwritten|-|-
E19/r0/retry/ArrayFire|-|-
E19/r0/retry/Boost.Compute|-|-
E19/r0/retry/Thrust|-|-
E19/r0/retry/Handwritten|-|-
E19/r0/partition/ArrayFire|-|-
E19/r0/partition/Boost.Compute|-|-
E19/r0/partition/Thrust|-|-
E19/r0/partition/Handwritten|-|-
E19/r0/fallback/ArrayFire|-|-
E19/r0/fallback/Boost.Compute|-|-
E19/r0/fallback/Thrust|-|-
E19/r0/fallback/Handwritten|-|-
E19/r50/retry/ArrayFire|-|-
E19/r50/retry/Boost.Compute|-|-
E19/r50/retry/Thrust|-|-
E19/r50/retry/Handwritten|-|-
E19/r50/partition/ArrayFire|-|-
E19/r50/partition/Boost.Compute|-|-
E19/r50/partition/Thrust|-|-
E19/r50/partition/Handwritten|-|-
E19/r50/fallback/ArrayFire|-|-
E19/r50/fallback/Boost.Compute|-|-
E19/r50/fallback/Thrust|-|-
E19/r50/fallback/Handwritten|-|-
E21/n4096/ArrayFire/composed|-|-
E21/n4096/ArrayFire/fused|-|-
E21/n4096/Boost.Compute/composed|-|-
E21/n4096/Boost.Compute/fused|-|-
E21/n4096/Thrust/composed|-|-
E21/n4096/Thrust/fused|-|-
E21/n4096/Handwritten/composed|-|-
E21/n4096/Handwritten/fused|-|-
E21/n16384/ArrayFire/composed|-|-
E21/n16384/ArrayFire/fused|-|-
E21/n16384/Boost.Compute/composed|-|-
E21/n16384/Boost.Compute/fused|-|-
E21/n16384/Thrust/composed|-|-
E21/n16384/Thrust/fused|-|-
E21/n16384/Handwritten/composed|-|-
E21/n16384/Handwritten/fused|-|-
E21/n65536/ArrayFire/composed|-|-
E21/n65536/ArrayFire/fused|-|-
E21/n65536/Boost.Compute/composed|-|-
E21/n65536/Boost.Compute/fused|-|-
E21/n65536/Thrust/composed|-|-
E21/n65536/Thrust/fused|-|-
E21/n65536/Handwritten/composed|-|-
E21/n65536/Handwritten/fused|-|-
E21/n262144/ArrayFire/composed|-|-
E21/n262144/ArrayFire/fused|-|-
E21/n262144/Boost.Compute/composed|-|-
E21/n262144/Boost.Compute/fused|-|-
E21/n262144/Thrust/composed|-|-
E21/n262144/Thrust/fused|-|-
E21/n262144/Handwritten/composed|-|-
E21/n262144/Handwritten/fused|-|-
E21/j1024/Hash|-|-
E21/j1024/Merge|-|-
E21/j1024/NestedLoops|-|-
E21/j4096/Hash|-|-
E21/j4096/Merge|-|-
E21/j4096/NestedLoops|-|-
E21/j16384/Hash|-|-
E21/j16384/Merge|-|-
E21/j16384/NestedLoops|-|-
A2/k1/ArrayFire|-|-
A2/k1/Thrust|-|-
A2/k2/ArrayFire|-|-
A2/k2/Thrust|-|-
A2/k4/ArrayFire|-|-
A2/k4/Thrust|-|-
A2/k8/ArrayFire|-|-
A2/k8/Thrust|-|-
A3/ArrayFire|-|-
A3/Boost.Compute|-|-
A3/Thrust|-|-
A3/Handwritten|-|-
";

    #[test]
    fn the_paper_grids_plan_is_the_committed_one() {
        let b = build(&Arc::new(GridConfig::default()));
        let tasks = plan_spec(GridConfig::default()).tasks;
        assert_eq!(tasks.len(), 166);
        assert_eq!(b.slots.len(), 166);
        let got: Vec<String> = b
            .slots
            .iter()
            .zip(&tasks)
            .map(|(slot, task)| {
                assert!(task.after.len() <= 1, "chains are linear");
                format!(
                    "{}|{}|{}",
                    slot.label,
                    task.lane.as_deref().unwrap_or("-"),
                    task.after
                        .first()
                        .map_or("-".to_string(), |a| a.to_string()),
                )
            })
            .collect();
        let want: Vec<&str> = DEFAULT_PLAN.split_whitespace().collect();
        assert_eq!(got, want);
    }
}
