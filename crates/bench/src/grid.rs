//! The benchmark grid: every cell of the experiment table
//! ([`crate::experiments::TABLE`]), run as round-robin lanes on `--jobs`
//! workers and emitted in canonical serial order.
//!
//! ## Decomposition
//!
//! A backend's device accumulates state (JIT program cache, memory-pool
//! free lists) that the `cold_nanos` column of later samples observes, so
//! the cells of one backend form a serial **lane**, which owns the backend
//! and runs its cells in the exact order of the historical serial runner.
//! The four lanes are mutually independent — devices are per-backend — and
//! run concurrently. Cells that build fresh devices by design (the fault
//! sweeps E17 / E19, the cost-model calibration E21, the fusion ablation
//! A2, the JIT ablation A3) are one-cell lanes. Which is which, and in
//! what order, is the table's to say; this module only walks it.
//!
//! ## Determinism
//!
//! Every cell computes simulated measurements from its own device clock;
//! the lane queue only decides *when on the host* a cell runs, never what
//! it computes. Results are stored per cell and assembled in the table's
//! emission order, so stdout and every CSV artifact are byte-identical
//! at any `--jobs` count — and identical to the serial runner's output
//! (experiments are emitted in numeric order; the lanes still *execute*
//! E15 before E14, preserving the per-device operation sequence the
//! historical runner used).

use proto_core::backend::GpuBackend;
use proto_core::backends::PAPER_BACKENDS;
use proto_core::framework::Framework;
use proto_core::workload::cache::Pin;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};

pub use crate::experiments::SECTIONS;
use crate::experiments::{emitting_row, execution_order, Cell, CellOut, EXPERIMENTS, TABLE};
use crate::extensions;
use crate::queries;

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

/// The outcome of one full grid run. `all_experiments` prints `stdout`
/// and writes `artifacts`; the host timings are for the benchmark
/// harness's `grid_full` workload (`sched.*`, `grid.<section>_ms`).
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
    /// Host wall time of the cells' run on the workers.
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

/// Cells that run one at a time, in order: a paper backend's lane, whose
/// cells share its backend, or a single fresh cell, which builds its own
/// devices.
struct Lane {
    /// The lane's backend; `None` for a fresh cell.
    backend: Option<Box<dyn GpuBackend>>,
    /// The cells still to run, each with the index of its [`Slot`] and its
    /// row's pin, which every cell of the row holds until it has run.
    cells: VecDeque<(usize, Cell, Arc<Pin>)>,
}

/// Every cell of the experiment [`TABLE`], as slots in canonical cell
/// order and the lanes that run them: the four backend lanes in
/// [`PAPER_BACKENDS`] order, each in the table's [`execution_order`], then
/// one lane per fresh cell in table order. Slots are numbered in that
/// order, which is also the order [`run_lanes`] starts the lanes in.
fn build(cfg: &Arc<GridConfig>) -> (Vec<Slot>, Vec<Lane>) {
    let mut queues = PAPER_BACKENDS.map(|_| Vec::new());
    let mut fresh = Vec::new();
    for (row, r) in execution_order() {
        let pin = Arc::new(Pin::default());
        for (index, cell) in r.cells(cfg).into_iter().enumerate() {
            let label = format!("{}/{}", r.section, cell.label);
            let queue = match cell.lane() {
                Some(name) => {
                    let lane = PAPER_BACKENDS.iter().position(|b| *b == name);
                    &mut queues[lane.expect("lane cells name a paper backend")]
                }
                None => &mut fresh,
            };
            queue.push((Slot { label, row, index }, cell, pin.clone()));
        }
    }

    let mut slots = Vec::new();
    let mut lane = |backend, cells: Vec<(Slot, Cell, Arc<Pin>)>| Lane {
        backend,
        cells: cells
            .into_iter()
            .map(|(slot, cell, pin)| {
                slots.push(slot);
                (slots.len() - 1, cell, pin)
            })
            .collect(),
    };
    let mut lanes: Vec<Lane> = PAPER_BACKENDS
        .into_iter()
        .zip(queues)
        .map(|(name, queue)| {
            let backend = Framework::single_backend(&crate::paper_device(), name);
            lane(Some(backend), queue)
        })
        .collect();
    lanes.extend(fresh.into_iter().map(|cell| lane(None, vec![cell])));
    (slots, lanes)
}

/// Run `lanes` on `jobs` workers. A worker takes the front lane, runs its
/// next cell through `step`, which says whether the lane has cells left,
/// and then pushes the lane to the back while it does. A lane is out of
/// the queue while its cell runs, so its cells run one at a time and in
/// order; across lanes cells run round-robin.
///
/// The push-back after every cell keeps the four backend lanes on the same
/// rows at the same time. Running each lane to its end as one job measured
/// slower at `--jobs 2` on a 2-core VM (median busy time +7 % and +27 % in
/// two sets of runs, identical output): the lanes drift apart. Lanes in
/// step share each column `proto_core::workload::cache` generates — the
/// first lane to ask generates it while the others wait on its slot. Per-
/// cell timings on the same VM showed that wait: before dry rows stopped
/// generating their body-only columns, E7's cells took 159 and 162 ms on
/// the Thrust and Boost.Compute lanes, which arrived first, against 60 and
/// 47 ms on ArrayFire and Handwritten. A row's columns live until its last
/// cell, on whichever lane, has run (`run` pins them per row), so lanes in
/// step also free them sooner.
///
/// A panicking cell stops the run: no worker takes another cell, every
/// worker returns, and the panic is raised again here.
fn run_lanes<L: Send>(lanes: Vec<L>, jobs: usize, step: impl Fn(&mut L) -> bool + Sync) {
    struct Queue<L> {
        lanes: VecDeque<L>,
        /// Lanes out of the queue running a cell. While one is, an empty
        /// queue is not the end of the run: the lane may come back.
        running: usize,
        /// The first panic a cell raised.
        panic: Option<Box<dyn Any + Send>>,
    }

    let workers = jobs.max(1).min(lanes.len());
    let queue = Mutex::new(Queue {
        lanes: lanes.into(),
        running: 0,
        panic: None,
    });
    let wake = Condvar::new();
    let worker = || loop {
        let mut lane = {
            let mut q = queue.lock().expect("no worker panics holding the queue");
            loop {
                if q.panic.is_some() {
                    return;
                }
                if let Some(lane) = q.lanes.pop_front() {
                    q.running += 1;
                    break lane;
                }
                if q.running == 0 {
                    return;
                }
                q = wake.wait(q).expect("no worker panics holding the queue");
            }
        };
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| step(&mut lane)));
        let mut q = queue.lock().expect("no worker panics holding the queue");
        q.running -= 1;
        match outcome {
            Ok(true) => q.lanes.push_back(lane),
            Ok(false) => {}
            Err(payload) => {
                q.panic.get_or_insert(payload);
            }
        }
        drop(q);
        wake.notify_all();
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(worker);
        }
    });
    let queue = queue.into_inner().expect("every worker returned");
    if let Some(payload) = queue.panic {
        std::panic::resume_unwind(payload);
    }
}

/// Run the whole grid on `jobs` workers and return its assembled output.
/// The cells of one row read their generated columns under one shared
/// [`Pin`], dropped when the row's last cell has run, so a column lives
/// while its row runs and no longer.
///
/// Also divides the host-thread budget of the `gpu-sim` host-execution
/// engine across workers, so cell workers × per-cell `hostexec` threads
/// never oversubscribe the machine.
pub fn run(cfg: GridConfig, jobs: usize) -> GridRun {
    let jobs = jobs.max(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    gpu_sim::hostexec::set_worker_budget(std::cmp::max(1, cores / jobs));

    let cfg = Arc::new(cfg);
    let (slots, lanes) = build(&cfg);
    let done: Mutex<Vec<Option<(CellOut, u128)>>> =
        Mutex::new(slots.iter().map(|_| None).collect());
    let t0 = std::time::Instant::now();
    run_lanes(lanes, jobs, |lane| {
        let (slot, cell, pin) = lane.cells.pop_front().expect("a queued lane has a cell");
        let t = std::time::Instant::now();
        let out = pin.scope(|| cell.run(lane.backend.as_deref(), false).0);
        let ms = t.elapsed().as_millis();
        done.lock().expect("no cell panics holding the lock")[slot] = Some((out, ms));
        !lane.cells.is_empty()
    });
    let wall_ms = t0.elapsed().as_millis();

    // ---- Host-cost accounting, and each row's outputs in cell order. ----
    let done = done.into_inner().expect("every cell returned");
    let mut outs: Vec<Vec<(usize, CellOut)>> = TABLE.iter().map(|_| Vec::new()).collect();
    let mut sections: Vec<(String, u128)> =
        SECTIONS.iter().map(|sec| (sec.to_string(), 0)).collect();
    let mut cells = Vec::new();
    for (slot, done) in slots.into_iter().zip(done) {
        let (out, ms) = done.expect("the lanes ran every cell");
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

    /// `label|lane` of every cell the paper grid registers, in canonical
    /// cell order: the four lanes in `PAPER_BACKENDS` order, each in
    /// execution order, then the fresh cells in table order. This is the
    /// order the lanes start in and `GridRun::cells` order.
    const DEFAULT_PLAN: &str = "
E3/ArrayFire|ArrayFire
E4/ArrayFire|ArrayFire
E5a/ArrayFire|ArrayFire
E5b/ArrayFire|ArrayFire
E6/ArrayFire|ArrayFire
E7/ArrayFire|ArrayFire
E8/ArrayFire|ArrayFire
E9-and/ArrayFire|ArrayFire
E9-or/ArrayFire|ArrayFire
validate/ArrayFire|ArrayFire
E10/ArrayFire|ArrayFire
E11/ArrayFire|ArrayFire
E12/ArrayFire|ArrayFire
E13/ArrayFire|ArrayFire
E15/ArrayFire|ArrayFire
E14/ArrayFire|ArrayFire
A1/ArrayFire|ArrayFire
E20/ArrayFire|ArrayFire
E3/Boost.Compute|Boost.Compute
E4/Boost.Compute|Boost.Compute
E5a/Boost.Compute|Boost.Compute
E5b/Boost.Compute|Boost.Compute
E6/Boost.Compute|Boost.Compute
E7/Boost.Compute|Boost.Compute
E8/Boost.Compute|Boost.Compute
E9-and/Boost.Compute|Boost.Compute
E9-or/Boost.Compute|Boost.Compute
validate/Boost.Compute|Boost.Compute
E10/Boost.Compute|Boost.Compute
E11/Boost.Compute|Boost.Compute
E12/Boost.Compute|Boost.Compute
E13/Boost.Compute|Boost.Compute
E15/Boost.Compute|Boost.Compute
E14/Boost.Compute|Boost.Compute
A1/Boost.Compute|Boost.Compute
E20/Boost.Compute|Boost.Compute
E3/Thrust|Thrust
E4/Thrust|Thrust
E5a/Thrust|Thrust
E5b/Thrust|Thrust
E6/Thrust|Thrust
E7/Thrust|Thrust
E8/Thrust|Thrust
E9-and/Thrust|Thrust
E9-or/Thrust|Thrust
validate/Thrust|Thrust
E10/Thrust|Thrust
E11/Thrust|Thrust
E12/Thrust|Thrust
E13/Thrust|Thrust
E15/Thrust|Thrust
E14/Thrust|Thrust
A1/Thrust|Thrust
A4/Thrust|Thrust
E20/Thrust|Thrust
E3/Handwritten|Handwritten
E4/Handwritten|Handwritten
E5a/Handwritten|Handwritten
E5b/Handwritten|Handwritten
E6/Handwritten|Handwritten
E7/Handwritten|Handwritten
E8/Handwritten|Handwritten
E9-and/Handwritten|Handwritten
E9-or/Handwritten|Handwritten
validate/Handwritten|Handwritten
E10/Handwritten|Handwritten
E11/Handwritten|Handwritten
E12/Handwritten|Handwritten
E13/Handwritten|Handwritten
E15/Handwritten|Handwritten
E14/Handwritten|Handwritten
A1/Handwritten|Handwritten
E20/Handwritten|Handwritten
E17/r0/ArrayFire|-
E17/r0/Boost.Compute|-
E17/r0/Thrust|-
E17/r0/Handwritten|-
E17/r10/ArrayFire|-
E17/r10/Boost.Compute|-
E17/r10/Thrust|-
E17/r10/Handwritten|-
E17/r50/ArrayFire|-
E17/r50/Boost.Compute|-
E17/r50/Thrust|-
E17/r50/Handwritten|-
E17/r100/ArrayFire|-
E17/r100/Boost.Compute|-
E17/r100/Thrust|-
E17/r100/Handwritten|-
E19/r0/retry/ArrayFire|-
E19/r0/retry/Boost.Compute|-
E19/r0/retry/Thrust|-
E19/r0/retry/Handwritten|-
E19/r0/partition/ArrayFire|-
E19/r0/partition/Boost.Compute|-
E19/r0/partition/Thrust|-
E19/r0/partition/Handwritten|-
E19/r0/fallback/ArrayFire|-
E19/r0/fallback/Boost.Compute|-
E19/r0/fallback/Thrust|-
E19/r0/fallback/Handwritten|-
E19/r50/retry/ArrayFire|-
E19/r50/retry/Boost.Compute|-
E19/r50/retry/Thrust|-
E19/r50/retry/Handwritten|-
E19/r50/partition/ArrayFire|-
E19/r50/partition/Boost.Compute|-
E19/r50/partition/Thrust|-
E19/r50/partition/Handwritten|-
E19/r50/fallback/ArrayFire|-
E19/r50/fallback/Boost.Compute|-
E19/r50/fallback/Thrust|-
E19/r50/fallback/Handwritten|-
E21/n4096/ArrayFire/composed|-
E21/n4096/ArrayFire/fused|-
E21/n4096/Boost.Compute/composed|-
E21/n4096/Boost.Compute/fused|-
E21/n4096/Thrust/composed|-
E21/n4096/Thrust/fused|-
E21/n4096/Handwritten/composed|-
E21/n4096/Handwritten/fused|-
E21/n16384/ArrayFire/composed|-
E21/n16384/ArrayFire/fused|-
E21/n16384/Boost.Compute/composed|-
E21/n16384/Boost.Compute/fused|-
E21/n16384/Thrust/composed|-
E21/n16384/Thrust/fused|-
E21/n16384/Handwritten/composed|-
E21/n16384/Handwritten/fused|-
E21/n65536/ArrayFire/composed|-
E21/n65536/ArrayFire/fused|-
E21/n65536/Boost.Compute/composed|-
E21/n65536/Boost.Compute/fused|-
E21/n65536/Thrust/composed|-
E21/n65536/Thrust/fused|-
E21/n65536/Handwritten/composed|-
E21/n65536/Handwritten/fused|-
E21/n262144/ArrayFire/composed|-
E21/n262144/ArrayFire/fused|-
E21/n262144/Boost.Compute/composed|-
E21/n262144/Boost.Compute/fused|-
E21/n262144/Thrust/composed|-
E21/n262144/Thrust/fused|-
E21/n262144/Handwritten/composed|-
E21/n262144/Handwritten/fused|-
E21/j1024/Hash|-
E21/j1024/Merge|-
E21/j1024/NestedLoops|-
E21/j4096/Hash|-
E21/j4096/Merge|-
E21/j4096/NestedLoops|-
E21/j16384/Hash|-
E21/j16384/Merge|-
E21/j16384/NestedLoops|-
A2/k1/ArrayFire|-
A2/k1/Thrust|-
A2/k2/ArrayFire|-
A2/k2/Thrust|-
A2/k4/ArrayFire|-
A2/k4/Thrust|-
A2/k8/ArrayFire|-
A2/k8/Thrust|-
A3/ArrayFire|-
A3/Boost.Compute|-
A3/Thrust|-
A3/Handwritten|-
";

    #[test]
    fn the_paper_grids_plan_is_the_committed_one() {
        let (slots, lanes) = build(&Arc::new(GridConfig::default()));
        assert_eq!(slots.len(), 166);
        let order: Vec<usize> = lanes
            .iter()
            .flat_map(|lane| lane.cells.iter().map(|(slot, ..)| *slot))
            .collect();
        assert_eq!(order, (0..166).collect::<Vec<_>>(), "slots in lane order");
        let got: Vec<String> = lanes
            .iter()
            .flat_map(|lane| {
                let name = lane.backend.as_ref().map_or("-", |b| b.name());
                let slots = &slots;
                lane.cells
                    .iter()
                    .map(move |(slot, ..)| format!("{}|{name}", slots[*slot].label))
            })
            .collect();
        let want: Vec<&str> = DEFAULT_PLAN.split_whitespace().collect();
        assert_eq!(got, want);
    }

    /// `lanes` lanes of `cells` cells each, then `fresh` one-cell lanes
    /// (lane ids from `lanes` on), each cell `(lane, index)`.
    fn grid_shaped(lanes: usize, cells: usize, fresh: usize) -> Vec<VecDeque<(usize, usize)>> {
        let mut all: Vec<VecDeque<(usize, usize)>> = (0..lanes)
            .map(|lane| (0..cells).map(|cell| (lane, cell)).collect())
            .collect();
        all.extend((lanes..lanes + fresh).map(|lane| VecDeque::from([(lane, 0)])));
        all
    }

    /// Run `lanes` on `jobs` workers, calling `f` on every cell; returns
    /// the cells in the order they ran.
    fn run_logged(
        lanes: Vec<VecDeque<(usize, usize)>>,
        jobs: usize,
        f: impl Fn((usize, usize)) + Sync,
    ) -> Vec<(usize, usize)> {
        let log = Mutex::new(Vec::new());
        run_lanes(lanes, jobs, |lane| {
            let cell = lane.pop_front().expect("a queued lane has a cell");
            f(cell);
            log.lock().unwrap().push(cell);
            !lane.is_empty()
        });
        log.into_inner().unwrap()
    }

    #[test]
    fn one_worker_runs_the_lanes_round_robin() {
        let log = run_logged(grid_shaped(4, 3, 2), 1, |_| {});
        let mut want = vec![(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)];
        for cell in 1..3 {
            want.extend((0..4).map(|lane| (lane, cell)));
        }
        assert_eq!(log, want);
    }

    #[test]
    fn every_lane_runs_its_cells_in_order() {
        for jobs in [1, 2, 8] {
            let log = run_logged(grid_shaped(4, 5, 7), jobs, |_| {
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
            assert_eq!(log.len(), 4 * 5 + 7, "jobs={jobs}");
            for lane in 0..4 + 7 {
                let cells: Vec<usize> = log
                    .iter()
                    .filter(|(l, _)| *l == lane)
                    .map(|(_, c)| *c)
                    .collect();
                let want: Vec<usize> = (0..if lane < 4 { 5 } else { 1 }).collect();
                assert_eq!(cells, want, "lane {lane} at jobs={jobs}");
            }
        }
    }

    #[test]
    fn at_most_jobs_cells_run_at_once() {
        for jobs in [1, 2, 3] {
            let active = std::sync::atomic::AtomicUsize::new(0);
            let peak = std::sync::atomic::AtomicUsize::new(0);
            run_logged(grid_shaped(4, 2, 8), jobs, |_| {
                use std::sync::atomic::Ordering::SeqCst;
                let now = active.fetch_add(1, SeqCst) + 1;
                peak.fetch_max(now, SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                active.fetch_sub(1, SeqCst);
            });
            let peak = peak.into_inner();
            assert!(peak <= jobs, "{peak} cells at once on {jobs} worker(s)");
        }
    }

    #[test]
    fn a_panicking_cell_is_raised_again_without_hanging() {
        // The panicking cell sits first, mid-lane and last in its lane,
        // while other lanes still have cells queued or running.
        for (lane, cell) in [(0, 0), (2, 1), (3, 2), (5, 0)] {
            for jobs in [1, 2, 8] {
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let outcome = std::panic::catch_unwind(|| {
                        run_logged(grid_shaped(4, 3, 2), jobs, |at| {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            assert_ne!(at, (lane, cell), "boom");
                        })
                    });
                    tx.send(outcome.is_err()).unwrap();
                });
                let raised = rx
                    .recv_timeout(std::time::Duration::from_secs(30))
                    .unwrap_or_else(|_| panic!("cell ({lane}, {cell}) at jobs={jobs} hung"));
                assert!(
                    raised,
                    "cell ({lane}, {cell}) at jobs={jobs} was not raised"
                );
            }
        }
    }
}
