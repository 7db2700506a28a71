//! The experiment table: one [`Row`] per section of the paper
//! regeneration, read by every runner.
//!
//! A row names its experiment (`"E9a"`), its host-time section
//! (`"E9-and"`), its cells — each a `Cell` saying what it runs on and
//! carrying the closure that runs it — and how the cells' outputs become
//! [`Experiment`]s (`Emit`: a title, an axis and a merge order, or the
//! experiment's own assemble function when it emits several tables or
//! enforces invariants). The part / cell / assemble functions themselves
//! live beside their experiments ([`operators`], [`queries`],
//! [`extensions`], [`ablations`]); this module is the only place that
//! enumerates them.
//!
//! * [`crate::grid`] queues every row's cells on lanes and assembles the
//!   outputs — lane cells on one shared backend per lane, everything else
//!   on devices built per cell.
//! * [`crate::traced`] runs one row's cells with every device built
//!   fresh and tracing, and hands the traces to `gpu-lint`.
//! * [`run_serial`] runs one row on a caller's [`Framework`]: the
//!   binaries that rerun a row on other devices or settings (E16, E17b)
//!   or print other columns of it (E15's launches), and the shape tests.
//!
//! `all_experiments` is the only runner that prints the table's rows as
//! they are and writes their CSVs.
//!
//! A row declared *dry* (`Row::dry`) runs each lane cell inside its
//! device's dry scope ([`Device::dry_scope`]): every charge as with
//! bodies, no kernel body — only the counts a charge reads (rows a
//! selection keeps, distinct groups) are computed, from the uploads. All
//! three runners go through `Cell::run`, so all three see it.
//!
//! ## The three orders
//!
//! The table is written in the order the serial runner executed its
//! sections, which is also [`SECTIONS`]. On a lane, rows execute in table
//! order (`Cells::LaneTail` rows last), so a device sees E15 before
//! E14 and `validate` between E9 and E10. Output is emitted in numeric
//! order of the ids ([`EXPERIMENTS`]): E14 before E15, ablations last.

use std::any::Any;
use std::sync::Arc;

use gpu_sim::{Device, TraceEvent};
use proto_core::backend::GpuBackend;
use proto_core::backends::PAPER_BACKENDS;
use proto_core::framework::Framework;
use proto_core::ops::Connective;
use proto_core::resilient::RetryPolicy;
use proto_core::runner::{Experiment, Sample};
use proto_core::workload::cache::Pin;
use tpch::queries::{q1::Q1, q6::Q6};

use crate::grid::GridConfig;
use crate::{ablations, extensions, operators, queries};

/// What one cell hands to its row's [`Emit`]; each row agrees on the
/// concrete type with itself ([`out`] boxes it, [`take`] unboxes it).
pub(crate) type CellOut = Box<dyn Any + Send>;

fn out<T: Any + Send>(value: T) -> CellOut {
    Box::new(value)
}

fn take<T: Any>(outs: Vec<CellOut>) -> Vec<T> {
    outs.into_iter()
        .map(|o| *o.downcast().expect("a row's cells and assemble agree"))
        .collect()
}

/// One backend's contribution to an experiment: the samples it produces
/// at each sweep step, in per-device execution order.
pub(crate) type Part = Vec<Vec<Sample>>;

/// Interleave per-backend parts in the serial sweep's emission order:
/// sweep step outermost, backends (part order) within a step. Parts may
/// have fewer steps than the widest part (a backend that skips an
/// experiment contributes an empty part).
pub(crate) fn merge_x_major(parts: Vec<Part>) -> Vec<Sample> {
    let steps = parts.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for step in 0..steps {
        for part in &parts {
            if let Some(row) = part.get(step) {
                out.extend(row.iter().cloned());
            }
        }
    }
    out
}

/// Concatenate per-backend sample lists in backend order (experiments
/// whose serial loop is backend-outermost: E13, E15, A1, A3).
fn merge_backend_major(parts: Vec<Vec<Sample>>) -> Vec<Sample> {
    parts.into_iter().flatten().collect()
}

type OnBackend = Box<dyn FnOnce(&dyn GpuBackend) -> CellOut + Send>;
type OnBackendAndReplica = Box<dyn FnOnce(&dyn GpuBackend, &dyn GpuBackend) -> CellOut + Send>;
type OnDevice = Box<dyn FnOnce(&Arc<Device>) -> CellOut + Send>;

/// The drained trace of each device a cell built, as
/// `(label suffix, events)`: `""`, and `"/replica"` for a replica.
pub(crate) type Traces = Vec<(&'static str, Vec<TraceEvent>)>;

/// What a cell runs on, and the closure to run there.
pub(crate) enum Run {
    /// The named backend's serial lane: its device accumulates JIT and
    /// pool state across the lane's cells. With `dry` the cell runs inside
    /// the device's dry scope.
    Lane {
        name: &'static str,
        dry: bool,
        f: OnBackend,
    },
    /// A fresh backend of this name.
    Fresh(&'static str, OnBackend),
    /// A fresh backend behind the deep-retry `ResilientBackend` (E17).
    Resilient(&'static str, OnBackend),
    /// A fresh backend plus a fresh replica of the same name (E19's
    /// fallback mode); the replica's trace is its own `…/replica` cell.
    Replicated(&'static str, OnBackendAndReplica),
    /// A bare device (A2 drives the libraries without a backend shim).
    Device(OnDevice),
}

/// One schedulable unit of an experiment.
pub(crate) struct Cell {
    /// Label after the row's section or id: the backend for lane cells
    /// (`"Thrust"`), the sweep point otherwise (`"r50/fallback/Thrust"`).
    pub(crate) label: String,
    /// Where and what it runs.
    pub(crate) run: Run,
}

impl Cell {
    /// The lane this cell is chained on, if it runs on one.
    pub(crate) fn lane(&self) -> Option<&'static str> {
        match self.run {
            Run::Lane { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Build what the cell runs on, run it, and return its output with
    /// the drained trace of every device built here. A lane cell runs on `lane` when given
    /// (the grid's shared backend, the serial runner's framework member)
    /// and on a fresh backend otherwise (the lint replay, so each trace
    /// is a self-contained buffer-lifetime story), inside its device's dry
    /// scope when the row is dry. `traced` switches recording on
    /// for the devices built here; neither it nor the dry scope changes a
    /// sample or an event.
    pub(crate) fn run(self, lane: Option<&dyn GpuBackend>, traced: bool) -> (CellOut, Traces) {
        let tracing = |b: Box<dyn GpuBackend>| {
            b.device().set_tracing(traced);
            b
        };
        let fresh = |name| tracing(Framework::single_backend(&crate::paper_device(), name));
        match self.run {
            Run::Lane { name, dry, f } => {
                let f: OnBackend = Box::new(move |b| {
                    let device = b.device();
                    let _scope = dry.then(|| device.dry_scope());
                    f(b)
                });
                match lane {
                    Some(b) => (f(b), Vec::new()),
                    None => Cell::run_on(fresh(name), f),
                }
            }
            Run::Fresh(name, f) => Cell::run_on(fresh(name), f),
            Run::Resilient(name, f) => {
                // A deep retry budget: backends run fused multi-kernel
                // pipelines as one retry scope, and at a 10% per-site
                // rate a ~17-site pipeline attempt fails ~5 times out of
                // 6 — backoff is simulated time, so patience is cheap.
                let policy = RetryPolicy { max_retries: 60 };
                let spec = crate::paper_device();
                Cell::run_on(
                    tracing(Framework::single_backend_resilient(&spec, name, policy)),
                    f,
                )
            }
            Run::Replicated(name, f) => {
                let (b, replica) = (fresh(name), fresh(name));
                let out = f(b.as_ref(), replica.as_ref());
                // The replica device is its own buffer-id namespace.
                let traces = vec![
                    ("", b.device().take_trace()),
                    ("/replica", replica.device().take_trace()),
                ];
                (out, traces)
            }
            Run::Device(f) => {
                let dev = Device::new(crate::paper_device());
                dev.set_tracing(traced);
                let out = f(&dev);
                (out, vec![("", dev.take_trace())])
            }
        }
    }

    fn run_on(b: Box<dyn GpuBackend>, f: OnBackend) -> (CellOut, Traces) {
        let out = f(b.as_ref());
        (out, vec![("", b.device().take_trace())])
    }
}

type LaneRun = fn(&dyn GpuBackend, &GridConfig) -> CellOut;

/// How a row's cell outputs (in [`Row::cells`] order) become experiments.
#[derive(Clone, Copy)]
pub(crate) enum Emit {
    /// Nothing: the row only acts on its lane (`validate`).
    Nothing,
    /// One experiment named after the row, with this title and x-axis
    /// label; its samples are the cells' [`Part`]s
    /// interleaved in the serial sweep's order, sweep step outermost.
    XMajor(&'static str, &'static str),
    /// The same, from cells that return `Vec<Sample>`, concatenated in
    /// cell order.
    CellMajor(&'static str, &'static str),
    /// The experiment's own assemble function: several tables from one
    /// sweep (E7, E12) or invariants to enforce across cells (E17, E19,
    /// E21).
    With(fn(&GridConfig, Vec<CellOut>) -> Vec<Experiment>),
}

/// Where a row's cells come from.
#[derive(Clone, Copy)]
pub(crate) enum Cells {
    /// One cell on the serial lane of each listed backend, in table
    /// order relative to the other lane rows.
    Lanes(&'static [&'static str], LaneRun),
    /// One cell on every lane, after every [`Cells::Lanes`] row: E20
    /// joined the grid after the lanes' artifacts were committed, and
    /// running it last leaves every earlier cell its device history.
    LaneTail(LaneRun),
    /// Independent cells, each on devices of its own; registered after
    /// the lanes, in table order.
    Fresh(fn(&GridConfig) -> Vec<Cell>),
}

/// One experiment section.
#[derive(Clone, Copy)]
pub struct Row {
    /// Experiment id: what `gpu_lint`, [`run_serial`] and the lint
    /// labels (`"E9a/Thrust"`) call it.
    pub id: &'static str,
    /// Host-time section label, and the prefix of the grid's cell labels
    /// (`"E9-and/Thrust"`).
    pub section: &'static str,
    pub(crate) cells: Cells,
    /// No charge of the row's lane cells reads what a kernel body computed
    /// beyond the counts the counted placeholders compute from uploads
    /// (sort and scan costs are functions of `n` and the types, a
    /// selection's of the rows it keeps), and no cell checks an answer, so
    /// the lanes run them on a dry device. DESIGN.md §5 classifies every
    /// row.
    pub(crate) dry: bool,
    pub(crate) emit: Emit,
    /// How an emitted experiment prints.
    pub(crate) render: fn(&Experiment) -> String,
}

impl std::fmt::Debug for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Row({})", self.id)
    }
}

/// One cell on every paper backend's lane.
const fn every_lane(run: LaneRun) -> Cells {
    Cells::Lanes(&PAPER_BACKENDS, run)
}

impl Row {
    /// A row whose section label is its id.
    const fn new(id: &'static str, cells: Cells, emit: Emit) -> Row {
        Row {
            id,
            section: id,
            cells,
            dry: false,
            emit,
            render: Experiment::render,
        }
    }

    /// The experiments the row emits from its cells' outputs.
    pub(crate) fn assemble(&self, cfg: &GridConfig, outs: Vec<CellOut>) -> Vec<Experiment> {
        let one = |title, x_label, samples| {
            let mut exp = Experiment::new(self.id, title, x_label);
            exp.samples = samples;
            vec![exp]
        };
        match self.emit {
            Emit::Nothing => Vec::new(),
            Emit::XMajor(title, x_label) => one(title, x_label, merge_x_major(take(outs))),
            Emit::CellMajor(title, x_label) => one(title, x_label, merge_backend_major(take(outs))),
            Emit::With(assemble) => assemble(cfg, outs),
        }
    }

    /// The row's cells at `cfg`, in the order [`Row::assemble`] expects
    /// their outputs.
    pub(crate) fn cells(&self, cfg: &Arc<GridConfig>) -> Vec<Cell> {
        let on_lanes = |lanes: &[&'static str], run: LaneRun| {
            lanes
                .iter()
                .map(|&name| {
                    let c = cfg.clone();
                    Cell {
                        label: name.to_string(),
                        run: Run::Lane {
                            name,
                            dry: self.dry,
                            f: Box::new(move |b| run(b, &c)),
                        },
                    }
                })
                .collect()
        };
        match self.cells {
            Cells::Lanes(lanes, run) => on_lanes(lanes, run),
            Cells::LaneTail(run) => on_lanes(&PAPER_BACKENDS, run),
            Cells::Fresh(cells) => cells(cfg),
        }
    }
}

/// Every experiment section, in the serial runner's execution order.
pub static TABLE: [Row; 24] = [
    Row {
        dry: true,
        ..Row::new(
            "E3",
            every_lane(|b, c| out(operators::e3_part(b, &c.sizes))),
            Emit::XMajor("Selection runtime vs. rows (50% selectivity)", "rows"),
        )
    },
    Row {
        dry: true,
        ..Row::new(
            "E4",
            every_lane(|b, c| out(operators::e4_part(b, c.e4_n, &c.sels))),
            Emit::XMajor(
                "Selection runtime vs. selectivity (fixed rows)",
                "sel_permille",
            ),
        )
    },
    Row {
        dry: true,
        ..Row::new(
            "E5a",
            every_lane(|b, c| out(operators::e5_part(b, &c.sizes, false))),
            Emit::XMajor("Sort runtime vs. rows", "rows"),
        )
    },
    Row {
        dry: true,
        ..Row::new(
            "E5b",
            every_lane(|b, c| out(operators::e5_part(b, &c.sizes, true))),
            Emit::XMajor("Sort-by-key runtime vs. rows", "rows"),
        )
    },
    Row {
        dry: true,
        ..Row::new(
            "E6",
            every_lane(|b, c| out(operators::e6_part(b, c.e6_n, &c.groups))),
            Emit::XMajor("Grouped aggregation (SUM) vs. group count", "groups"),
        )
    },
    Row {
        dry: true,
        ..Row::new(
            "E7",
            every_lane(|b, c| out(operators::e7_part(b, &c.sizes))),
            Emit::With(|_, o| operators::e7_assemble(take(o))),
        )
    },
    // Wet: a join's pair count needs the whole probe.
    Row::new(
        "E8",
        every_lane(|b, c| out(operators::e8_part(b, &c.join_sizes))),
        Emit::XMajor("Join runtime vs. |R|=|S| (FK→PK)", "rows"),
    ),
    Row {
        section: "E9-and",
        dry: true,
        ..Row::new(
            "E9a",
            every_lane(|b, c| out(operators::e9_part(b, c.e9_n, &c.e9_preds, Connective::And))),
            Emit::XMajor(
                "Multi-predicate selection vs. predicate count",
                "predicates",
            ),
        )
    },
    Row {
        section: "E9-or",
        dry: true,
        ..Row::new(
            "E9b",
            every_lane(|b, c| out(operators::e9_part(b, c.e9_n, &c.e9_preds, Connective::Or))),
            Emit::XMajor(
                "Multi-predicate selection vs. predicate count",
                "predicates",
            ),
        )
    },
    // No table is printed from wrong answers: every lane validates its
    // backend's queries before timing them.
    Row::new(
        "validate",
        every_lane(|b, c| {
            let db = tpch::cached(c.validate_sf);
            out(queries::validate_backend(b, &db).expect("query validation"))
        }),
        Emit::Nothing,
    ),
    Row::new(
        "E10",
        every_lane(|b, c| out(queries::part::<Q6>(b, &c.sfs))),
        Emit::XMajor(
            "TPC-H Q6 runtime vs. scale factor (x = SF·1000)",
            "sf_x1000",
        ),
    ),
    Row::new(
        "E11",
        every_lane(|b, c| out(queries::part::<Q1>(b, &c.sfs))),
        Emit::XMajor(
            "TPC-H Q1 runtime vs. scale factor (x = SF·1000)",
            "sf_x1000",
        ),
    ),
    Row::new(
        "E12",
        every_lane(|b, c| out(queries::e12_part(b, &c.sfs))),
        Emit::With(|_, o| queries::e12_assemble(take(o))),
    ),
    Row::new(
        "E13",
        every_lane(|b, c| out(extensions::e13_part(b, c.e13_sf))),
        Emit::CellMajor(
            "Q6: device-resident (x=0) vs. transfer-inclusive (x=1)",
            "mode",
        ),
    ),
    // The serial runner executed E15 before E14; the lanes keep that
    // per-device order even though emission is numeric.
    Row {
        dry: true,
        ..Row::new(
            "E15",
            every_lane(|b, c| out(operators::e15_part(b, c.e15_n))),
            Emit::CellMajor(
                "Kernel launches per operator call (x = operator index)",
                "op_index",
            ),
        )
    },
    Row {
        dry: true,
        ..Row::new(
            "E14",
            every_lane(|b, c| out(extensions::e14_part(b, &c.sizes))),
            Emit::XMajor("Grouped SUM+COUNT (multi-aggregate) vs. rows", "rows"),
        )
    },
    Row::new(
        "E17",
        Cells::Fresh(e17_cells),
        Emit::With(|c, o| vec![extensions::e17_assemble(&c.e17_rates, take(o))]),
    ),
    Row::new(
        "E19",
        Cells::Fresh(e19_cells),
        Emit::With(|c, o| vec![extensions::e19_assemble(&c.e19_rates, take(o))]),
    ),
    Row::new(
        "E20",
        Cells::LaneTail(|b, c| out(extensions::e20_part(b, &c.e20_sizes))),
        Emit::XMajor(
            "General operator fusion: composed chain vs. fused single-pass kernel vs. rows",
            "rows",
        ),
    ),
    Row::new(
        "E21",
        Cells::Fresh(e21_cells),
        Emit::With(|c, o| {
            let mut fusion = take(o);
            let join = fusion.split_off(c.e21_sizes.len() * PAPER_BACKENDS.len() * 2);
            vec![extensions::e21_assemble(fusion, join)]
        }),
    ),
    // `launches` / `kernel_bytes` are the point of A1, so it prints its
    // own anatomy table.
    Row {
        render: ablations::render_a1,
        dry: true,
        ..Row::new(
            "A1",
            every_lane(|b, c| out(ablations::a1_part(b, c.a1_n))),
            Emit::CellMajor(
                "Selection cost anatomy: launches & traffic per backend",
                "rows",
            ),
        )
    },
    Row::new(
        "A2",
        Cells::Fresh(a2_cells),
        Emit::CellMajor(
            "Element-wise chain: fused (ArrayFire) vs. eager (Thrust)",
            "chain_length",
        ),
    ),
    Row::new(
        "A3",
        Cells::Fresh(a3_cells),
        Emit::CellMajor("Cold (x=0) vs. warm (x=1) selection latency", "run"),
    ),
    // A study of one library's materialisation strategies. Wet: its
    // gathers would check placeholder ids.
    Row::new(
        "A4",
        Cells::Lanes(&["Thrust"], |b, c| {
            out(extensions::a4_part(b, c.a4_n, &c.a4_sels))
        }),
        Emit::CellMajor(
            "Early vs. late materialisation (Thrust), selection+product+sum",
            "sel_permille",
        ),
    ),
];

fn e17_cells(c: &GridConfig) -> Vec<Cell> {
    let sf = c.e17_sf;
    let mut cells = Vec::new();
    for &permille in &c.e17_rates {
        for name in PAPER_BACKENDS {
            cells.push(Cell {
                label: format!("r{permille}/{name}"),
                run: Run::Resilient(
                    name,
                    Box::new(move |b| out(extensions::e17_cell_on(b, sf, permille))),
                ),
            });
        }
    }
    cells
}

fn e19_cells(c: &GridConfig) -> Vec<Cell> {
    let sf = c.e19_sf;
    let mut cells = Vec::new();
    for &permille in &c.e19_rates {
        for mode in extensions::E19_MODES {
            for name in PAPER_BACKENDS {
                // The fallback mode replays on a replica of the same
                // backend (its own fresh, fault-free device), so answers
                // stay bit-identical.
                let run = if mode == "fallback" {
                    Run::Replicated(
                        name,
                        Box::new(move |b, replica| {
                            out(extensions::e19_cell_on(
                                b,
                                Some(replica),
                                sf,
                                mode,
                                permille,
                            ))
                        }),
                    )
                } else {
                    Run::Fresh(
                        name,
                        Box::new(move |b| {
                            out(extensions::e19_cell_on(b, None, sf, mode, permille))
                        }),
                    )
                };
                cells.push(Cell {
                    label: format!("r{permille}/{mode}/{name}"),
                    run,
                });
            }
        }
    }
    cells
}

/// E21's fusion cells, `[composed, fused]` per (size, backend), then its
/// join cells per probe size — each on a fresh device, whose cold run is
/// the exact quantity the cost model predicts.
fn e21_cells(c: &GridConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &n in &c.e21_sizes {
        for name in PAPER_BACKENDS {
            for fused in [false, true] {
                let tag = if fused { "fused" } else { "composed" };
                cells.push(Cell {
                    label: format!("n{n}/{name}/{tag}"),
                    run: Run::Fresh(
                        name,
                        Box::new(move |b| out(extensions::e21_fusion_cell_on(b, n, fused))),
                    ),
                });
            }
        }
    }
    for &outer in &c.e21_join_sizes {
        for algo in extensions::E21_JOIN_ALGOS {
            cells.push(Cell {
                label: format!("j{outer}/{algo:?}"),
                run: Run::Fresh(
                    "Handwritten",
                    Box::new(move |b| out(extensions::e21_join_cell_on(b, outer, algo))),
                ),
            });
        }
    }
    cells
}

fn a2_cells(c: &GridConfig) -> Vec<Cell> {
    let n = c.a2_n;
    let mut cells = Vec::new();
    for &k in &c.a2_ks {
        for lib in ablations::A2_LIBS {
            cells.push(Cell {
                label: format!("k{k}/{lib}"),
                run: Run::Device(Box::new(move |dev| {
                    out(vec![ablations::a2_cell_on(dev, lib, k, n)])
                })),
            });
        }
    }
    cells
}

fn a3_cells(c: &GridConfig) -> Vec<Cell> {
    let n = c.a3_n;
    PAPER_BACKENDS
        .iter()
        .map(|&name| Cell {
            label: name.to_string(),
            run: Run::Fresh(name, Box::new(move |b| out(ablations::a3_cell_on(b, n)))),
        })
        .collect()
}

/// Section labels, in table order: the serial runner's `host.time`
/// labels, and the order of [`GridRun::sections`](crate::grid::GridRun).
pub const SECTIONS: [&str; 24] = {
    let mut sections = [""; 24];
    let mut i = 0;
    while i < TABLE.len() {
        sections[i] = TABLE[i].section;
        i += 1;
    }
    sections
};

/// Ids of the rows that emit experiments, in emission order: numeric,
/// `E…` before `A…`.
pub const EXPERIMENTS: [&str; 23] = {
    let mut ids = [""; 23];
    let (mut n, mut i) = (0, 0);
    while i < TABLE.len() {
        if !matches!(TABLE[i].emit, Emit::Nothing) {
            ids[n] = TABLE[i].id;
            n += 1;
        }
        i += 1;
    }
    assert!(n == ids.len());
    // Insertion sort by emission rank.
    let mut i = 1;
    while i < n {
        let mut j = i;
        while j > 0 && emission_rank(ids[j - 1]) > emission_rank(ids[j]) {
            let id = ids[j];
            ids[j] = ids[j - 1];
            ids[j - 1] = id;
            j -= 1;
        }
        i += 1;
    }
    ids
};

/// Sort key of the numeric emission order: `E` before `A`, then the
/// number, then the letter suffix (`"E9a"` < `"E9b"` < `"E10"`).
const fn emission_rank(id: &str) -> u32 {
    let id = id.as_bytes();
    let ablation = (id[0] == b'A') as u32;
    let (mut number, mut i) = (0, 1);
    while i < id.len() && id[i].is_ascii_digit() {
        number = number * 10 + (id[i] - b'0') as u32;
        i += 1;
    }
    let suffix = if i < id.len() { id[i] as u32 } else { 0 };
    (ablation << 24) | (number << 8) | suffix
}

/// Table indices and rows in per-lane execution order: table order, the
/// [`Cells::LaneTail`] rows last.
pub(crate) fn execution_order() -> impl Iterator<Item = (usize, &'static Row)> {
    let tail = |row: &Row| matches!(row.cells, Cells::LaneTail(_));
    let rows = || TABLE.iter().enumerate();
    rows()
        .filter(move |(_, r)| !tail(r))
        .chain(rows().filter(move |(_, r)| tail(r)))
}

/// The emitting row called `id`, with its table index.
///
/// # Panics
/// On an id that is not in [`EXPERIMENTS`].
pub(crate) fn emitting_row(id: &str) -> (usize, &'static Row) {
    TABLE
        .iter()
        .enumerate()
        .find(|(_, row)| row.id == id && !matches!(row.emit, Emit::Nothing))
        .unwrap_or_else(|| panic!("unknown experiment {id:?} (see experiments::EXPERIMENTS)"))
}

/// Run experiment `id` (see [`EXPERIMENTS`]) by itself: its lane cells
/// on `fw`'s backends, one after the other, its other cells on fresh
/// paper devices, all under one cache [`Pin`]: each column is generated
/// once per call (once across calls inside an outer pin).
/// Returns what the row emits (five experiments for `"E7"`, four for
/// `"E12"`, one otherwise).
///
/// # Panics
/// On an unknown id, or when `fw` lacks a backend the row runs on.
pub fn run_serial(id: &str, fw: &Framework, cfg: &GridConfig) -> Vec<Experiment> {
    let (_, row) = emitting_row(id);
    let cfg = Arc::new(cfg.clone());
    let cells = row.cells(&cfg).into_iter().map(|cell| {
        let lane = cell.lane().map(|name| {
            fw.backend(name)
                .unwrap_or_else(|| panic!("{id} runs on {name}, which `fw` lacks"))
        });
        cell.run(lane, false).0
    });
    let outs = Arc::new(Pin::default()).scope(|| cells.collect());
    row.assemble(&cfg, outs)
}

/// [`run_serial`] on a fresh paper framework, for the one-experiment
/// rows' shape tests.
#[cfg(test)]
pub(crate) fn serial(id: &str, cfg: GridConfig) -> Experiment {
    let mut exps = run_serial(id, &crate::paper_framework(), &cfg);
    assert_eq!(exps.len(), 1, "{id} emits one experiment");
    exps.remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_x_major_interleaves_and_skips_empty_parts() {
        let s = |backend: &str, x: u64| Sample {
            backend: backend.into(),
            x,
            nanos: 1,
            cold_nanos: 1,
            launches: 1,
            kernel_bytes: 1,
        };
        let parts = vec![
            vec![vec![s("A", 1)], vec![s("A", 2)]],
            vec![], // backend that skips the experiment
            vec![vec![s("B", 1), s("B2", 1)], vec![s("B", 2)]],
        ];
        let merged = merge_x_major(parts);
        let order: Vec<(String, u64)> = merged.iter().map(|m| (m.backend.clone(), m.x)).collect();
        assert_eq!(
            order,
            vec![
                ("A".into(), 1),
                ("B".into(), 1),
                ("B2".into(), 1),
                ("A".into(), 2),
                ("B".into(), 2)
            ]
        );
    }

    #[test]
    fn ids_are_unique_and_the_derived_lists_are_the_committed_ones() {
        let mut ids: Vec<&str> = TABLE.iter().map(|row| row.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), TABLE.len(), "duplicate experiment id");
        // What `bench::grid::SECTIONS` and `bench::traced::EXPERIMENTS`
        // listed by hand before the table existed: `GridRun::sections`
        // labels and `gpu_lint`'s target order hang off them.
        assert_eq!(
            SECTIONS,
            [
                "E3", "E4", "E5a", "E5b", "E6", "E7", "E8", "E9-and", "E9-or", "validate", "E10",
                "E11", "E12", "E13", "E15", "E14", "E17", "E19", "E20", "E21", "A1", "A2", "A3",
                "A4",
            ]
        );
        assert_eq!(
            EXPERIMENTS,
            [
                "E3", "E4", "E5a", "E5b", "E6", "E7", "E8", "E9a", "E9b", "E10", "E11", "E12",
                "E13", "E14", "E15", "E17", "E19", "E20", "E21", "A1", "A2", "A3", "A4",
            ]
        );
    }

    #[test]
    fn lanes_execute_in_table_order_with_e20_at_the_tail() {
        let lane: Vec<&str> = execution_order()
            .filter(|(_, row)| !matches!(row.cells, Cells::Fresh(_)))
            .map(|(_, row)| row.section)
            .collect();
        assert_eq!(
            lane,
            [
                "E3", "E4", "E5a", "E5b", "E6", "E7", "E8", "E9-and", "E9-or", "validate", "E10",
                "E11", "E12", "E13", "E15", "E14", "A1", "A4", "E20",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn a_row_that_emits_nothing_is_not_an_experiment() {
        emitting_row("validate");
    }

    /// A fresh tracing backend of `name`.
    fn fresh(name: &str) -> Box<dyn GpuBackend> {
        let b = Framework::single_backend(&crate::paper_device(), name);
        b.device().set_tracing(true);
        b
    }

    /// Every dry row at `gpu_lint`'s sizes, each lane cell on a fresh
    /// backend, once as declared and once with bodies: after each cell the
    /// two devices agree on every event, counter, live buffer and the
    /// clock, and the row emits the same samples. A counted placeholder
    /// that read another op's placeholder instead of an upload would count
    /// zeros and charge differently here.
    #[test]
    fn dry_cells_charge_what_cells_with_bodies_charge() {
        let cfg = Arc::new(crate::traced::lint_config());
        let rows: Vec<&Row> = TABLE.iter().filter(|row| row.dry).collect();
        let ids: Vec<&str> = rows.iter().map(|row| row.id).collect();
        let dry = [
            "E3", "E4", "E5a", "E5b", "E6", "E7", "E9a", "E9b", "E15", "E14", "A1",
        ];
        assert_eq!(ids, dry);
        for row in rows {
            let run = |bodies: bool| {
                let (mut outs, mut devices) = (Vec::new(), Vec::new());
                for cell in row.cells(&cfg) {
                    let Run::Lane { name, dry, f } = cell.run else {
                        panic!("{}: a dry row runs on the lanes", row.id)
                    };
                    assert!(dry, "{}/{name} is not declared dry", row.id);
                    let b = fresh(name);
                    let dry = !bodies;
                    let cell = Cell {
                        label: cell.label,
                        run: Run::Lane { name, dry, f },
                    };
                    outs.push(cell.run(Some(b.as_ref()), false).0);
                    let dev = b.device();
                    assert!(!dev.is_dry(), "{}/{name} left its lane dry", row.id);
                    let trace = dev.take_trace();
                    devices.push((trace, dev.stats(), dev.live_buffers(), dev.now()));
                }
                let samples: Vec<_> = row
                    .assemble(&cfg, outs)
                    .into_iter()
                    .map(|exp| (exp.id, exp.samples))
                    .collect();
                (samples, devices)
            };
            let (dry, with_bodies) = (run(false), run(true));
            for (i, (a, b)) in dry.1.iter().zip(&with_bodies.1).enumerate() {
                assert_eq!(a, b, "{} cell {i}: the device saw different work", row.id);
            }
            assert_eq!(dry.0, with_bodies.0, "{}: samples differ", row.id);
        }
    }

    /// A dry lane cell runs inside its device's dry scope — its outputs
    /// are shape-only placeholders, which cannot be downloaded — and
    /// leaves the lane as it found it, also when the cell panics; a cell
    /// that is not dry computes answers.
    #[test]
    fn a_dry_lane_cell_fills_placeholders_and_leaves_the_lane_wet() {
        let sorted = |dry: bool| {
            let b = fresh("Thrust");
            let f: OnBackend = Box::new(|b| {
                let keys = b.upload_u32(&[3, 1, 2]).expect("upload");
                let sorted = b.sort(&keys).expect("sort");
                let got = (sorted.len(), b.download_u32(&sorted));
                b.free(sorted).expect("free");
                b.free(keys).expect("free");
                out(got)
            });
            let cell = Cell {
                label: "probe".into(),
                run: Run::Lane {
                    name: "Thrust",
                    dry,
                    f,
                },
            };
            type Got = (usize, gpu_sim::Result<Vec<u32>>);
            let got = take::<Got>(vec![cell.run(Some(b.as_ref()), false).0]);
            assert!(!b.device().is_dry());
            assert_eq!(b.device().live_buffers(), 0);
            got.into_iter().next().expect("one cell")
        };
        assert_eq!(sorted(false), (3, Ok(vec![1, 2, 3])));
        let (len, download) = sorted(true);
        assert_eq!(len, 3);
        assert!(matches!(download, Err(gpu_sim::SimError::ShapeOnly { .. })));
        let b = fresh("Thrust");
        let cell = Cell {
            label: "probe".into(),
            run: Run::Lane {
                name: "Thrust",
                dry: true,
                f: Box::new(|b| {
                    assert!(b.device().is_dry());
                    panic!("the cell failed")
                }),
            },
        };
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.run(Some(b.as_ref()), false)
        }));
        assert!(failed.is_err());
        assert!(!b.device().is_dry(), "a failed dry cell left its lane dry");
    }
}
