//! `grid_full` — one pass of the `all_experiments` paper regeneration.
//!
//! The user-visible end-to-end run and the number ROADMAP tracks: the only
//! workload where `bench::sched`, `workload::cache`, datagen and the
//! fresh-device E17/E19/E21 cells all take part. The grid's seeds are
//! internal and fixed, so `--seed` does not apply and the output digest is
//! checked at every seed. A pass is one call, and a run of the declared
//! length makes exactly one (`registry::WORKLOADS`): a second regeneration
//! in the same process would find `hostalloc`'s free lists filled and the
//! small TPC-H databases cached and run 5-10 % faster, which is not what
//! `all_experiments` costs. One regeneration takes most of the measuring
//! time by itself.

use super::{Call, LayerMetrics, PassOut, Workload};
use crate::registry::GRID_SECTIONS;
use crate::{probes, span, stat};
use bench::grid::{GridConfig, GridRun};
use proto_core::backends::PAPER_BACKENDS;
use std::time::Instant;

/// Artifacts whose `x` column is a row count; their sum is the pass's
/// "input rows" (a fixed number: the grid's sizes do not depend on data).
const ROW_SWEPT: [&str; 12] = [
    "E3.csv", "E5a.csv", "E5b.csv", "E7a.csv", "E7b.csv", "E7c.csv", "E7d.csv", "E7e.csv",
    "E8.csv", "E14.csv", "E20.csv", "E21.csv",
];

/// Experiments whose cells build fresh devices and run outside the four
/// backend lanes (see `bench::grid`).
const INDEPENDENT: [&str; 5] = ["E17", "E19", "E21", "A2", "A3"];

/// Grid workers of every `grid_full` run, end-to-end and traced alike:
/// every core up to four, so that `wall_s` and `cpu_s` include what
/// `bench::sched` does with more than one worker (lane imbalance, workers
/// contending for `hostalloc`) and `sched.*` explains the same schedule.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

pub struct GridFull {
    cfg: GridConfig,
    /// Whether the pre-flight's two toy runs agreed byte for byte.
    jobs_invariant: bool,
    cells: Vec<String>,
    last: Option<GridRun>,
}

/// Column `col` of a `Experiment::to_csv` artifact, summed.
fn csv_column_sum(csv: &str, col: &str) -> u64 {
    let mut lines = csv.lines();
    let Some(idx) = lines
        .next()
        .and_then(|h| h.split(',').position(|c| c == col))
    else {
        return 0;
    };
    lines
        .filter_map(|l| l.split(',').nth(idx)?.parse::<u64>().ok())
        .sum()
}

fn section_of(label: &str) -> &str {
    label.split('/').next().unwrap_or(label)
}

/// Lane a cell ran in: its backend for lane cells, `"free"` otherwise.
fn lane_of(label: &str) -> &str {
    if INDEPENDENT.contains(&section_of(label)) {
        return "free";
    }
    let last = label.rsplit('/').next().unwrap_or(label);
    PAPER_BACKENDS
        .iter()
        .copied()
        .find(|b| *b == last)
        .unwrap_or("free")
}

impl GridFull {
    /// The grid has no set-up of its own (its datagen is part of the
    /// regeneration), so set-up here is a pre-flight: the whole grid at
    /// the lint gate's toy sizes, once on one worker and once on several,
    /// which must print the same bytes — the scheduling invariance the
    /// measured digest relies on, checked before ten seconds are spent.
    /// The toy sizes share nothing with the real pass but the SF 0.001
    /// database (0.3 ms of datagen), so the pass still runs cold.
    pub fn setup() -> GridFull {
        let toy = bench::traced::lint_config();
        let serial = bench::grid::run(toy.clone(), 1);
        let parallel = bench::grid::run(toy, jobs().max(2));
        GridFull {
            cfg: GridConfig::default(),
            jobs_invariant: serial.stdout == parallel.stdout
                && serial.artifacts == parallel.artifacts,
            cells: Vec::new(),
            last: None,
        }
    }

    /// `GridRun::cells` carries durations only; lay each lane's cells end
    /// to end from the pass's start so the trace shows the lane structure.
    fn record_cell_spans(run: &GridRun, pass_start_ns: u64) {
        let parent = span::current();
        let mut cursor: std::collections::BTreeMap<&str, u64> = Default::default();
        for (label, ms) in &run.cells {
            let at = cursor.entry(lane_of(label)).or_insert(pass_start_ns);
            let end = *at + (*ms as u64) * 1_000_000;
            span::push_measured("grid", label.clone(), parent, *at, end);
            *at = end;
        }
    }
}

impl Workload for GridFull {
    fn cells(&self) -> &[String] {
        &self.cells
    }

    fn warm_up(&self) -> bool {
        false
    }

    fn seed_independent(&self) -> bool {
        true
    }

    fn parallelism(&self) -> usize {
        jobs()
    }

    fn pass(&mut self) -> PassOut {
        let start_ns = span::now_ns();
        let t = Instant::now();
        // Wrong answers do not come back as values here: the assemble
        // steps assert E17/E19 answer invariance and E21's error band and
        // abort the run, which the caller sees as a failed benchmark.
        let run = bench::grid::run(self.cfg.clone(), jobs());
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        if span::enabled() {
            Self::record_cell_spans(&run, start_ns);
        }

        let mut out = PassOut {
            calls: vec![Call { cell: 0, us }],
            failed: u64::from(!self.jobs_invariant),
            ..PassOut::default()
        };
        self.cells = vec!["stdout".to_string()];
        out.sim_cells = vec![format!("fnv:{:016x}", stat::fnv1a(run.stdout.as_bytes()))];
        for (name, csv) in &run.artifacts {
            self.cells.push(name.clone());
            out.sim_cells
                .push(format!("fnv:{:016x}", stat::fnv1a(csv.as_bytes())));
            out.sim_ns += csv_column_sum(csv, "nanos");
            out.dev.launches += csv_column_sum(csv, "launches");
            out.dev.kernel_bytes += csv_column_sum(csv, "kernel_bytes");
            if ROW_SWEPT.contains(&name.as_str()) {
                out.rows += csv_column_sum(csv, "x");
            }
        }
        self.last = Some(run);
        out
    }

    fn layer_metrics(&mut self, _passes: &[&PassOut], out: &mut LayerMetrics) {
        let run = self.last.as_ref().expect("a pass ran");
        let busy_s = run.busy_ms as f64 / 1e3;
        out.insert("sched.busy_s".into(), busy_s);
        out.insert(
            "sched.efficiency".into(),
            busy_s / (run.wall_ms as f64 / 1e3 * run.jobs as f64),
        );
        out.insert("sched.cells".into(), run.cells.len() as f64);
        let lane_s = |lane: &str| -> f64 {
            run.cells
                .iter()
                .filter(|(label, _)| lane_of(label) == lane)
                .map(|(_, ms)| *ms as f64 / 1e3)
                .sum()
        };
        let critical = PAPER_BACKENDS.iter().map(|b| lane_s(b)).fold(0.0, f64::max);
        out.insert("sched.critical_lane_s".into(), critical);
        let mut other = 0.0;
        for (section, ms) in &run.sections {
            if GRID_SECTIONS.contains(&section.as_str()) {
                out.insert(format!("grid.{section}_ms"), *ms as f64);
            } else {
                other += *ms as f64;
            }
        }
        out.insert("grid.other_ms".into(), other);
        probes::workload_gen(out);
        probes::gpu_lint(out);
    }
}
