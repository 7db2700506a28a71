//! `queries_plan` and `queries_scan` — the six TPC-H queries through
//! `optimizer::plan_with` + `PhysicalPlan::execute` on resident columns.
//!
//! The two share every line of code and differ only in scale factor:
//! at SF 0.002 a query's kernels are tiny, so planning, costing, the plan
//! interpreter and per-launch device bookkeeping dominate (overhead-bound);
//! at SF 0.05 the kernel bodies do (throughput-bound) and planning is well
//! under 1 %. A planner change should move the first and not the second;
//! a kernel-body change the second, together with `ops_scan`.

use super::{timed, Call, Config, LayerMetrics, PassOut, SimMark, Workload};
use crate::registry::BACKENDS;
use crate::tpch_bind::{self, References, Uploaded, QUERIES};
use crate::tracing_backend::TracingBackend;
use crate::{probes, span};
use gpu_sim::Result;
use proto_core::costing::TableStats;
use proto_core::framework::Framework;
use proto_core::logical::LogicalPlan;
use proto_core::optimizer::{self, CostingOptions, FusionPolicy, PlannerOptions};
use proto_core::physical::{PhysicalPlan, PlanOutput};
use tpch::Database;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    Plan,
    Scan,
}

impl Shape {
    fn scale_factor(self) -> f64 {
        match self {
            Shape::Plan => 0.002,
            Shape::Scan => 0.05,
        }
    }

    /// Planner modes the schedule runs, by [`MODES`] index.
    fn modes(self) -> &'static [usize] {
        match self {
            Shape::Plan => &[0, 1, 2],
            Shape::Scan => &[0, 1],
        }
    }

    /// Back-to-back executions of one cell per pass.
    fn iterations(self) -> usize {
        match self {
            Shape::Plan => 15,
            Shape::Scan => 1,
        }
    }
}

pub const MODES: [&str; 3] = ["default", "fusion", "costing"];

pub fn planner_options(mode: usize) -> PlannerOptions {
    match MODES[mode] {
        "default" => PlannerOptions::default(),
        "fusion" => PlannerOptions {
            fusion: FusionPolicy::on(),
            ..PlannerOptions::default()
        },
        "costing" => PlannerOptions {
            costing: Some(CostingOptions::new(
                &bench::paper_device(),
                TableStats::new(),
            )),
            ..PlannerOptions::default()
        },
        other => unreachable!("unknown planner mode {other}"),
    }
}

/// Seeded database at `sf`; seed 0 would be `tpch::generate`'s own data.
pub fn database(sf: f64, seed: u64) -> Database {
    tpch::generate_seeded(sf, tpch::gen::SEED.wrapping_add(seed))
}

struct Cell {
    backend: usize,
    query: usize,
    mode: usize,
}

pub struct Queries {
    shape: Shape,
    db: Database,
    refs: References,
    fw: Framework,
    logical: Vec<LogicalPlan>,
    options: Vec<PlannerOptions>,
    /// Per backend, the resident base columns of every query it can plan.
    resident: Vec<Uploaded>,
    schedule: Vec<Cell>,
    cells: Vec<String>,
    /// Plan steps the last pass executed.
    steps: u64,
}

impl Queries {
    pub fn setup(cfg: &Config, shape: Shape) -> Queries {
        let db = database(shape.scale_factor(), cfg.seed);
        let refs = References::compute(&db);
        let fw = Framework::with_all_backends(&bench::paper_device());
        let logical: Vec<LogicalPlan> = QUERIES.iter().map(|q| tpch_bind::logical(q)).collect();
        let options: Vec<PlannerOptions> = (0..MODES.len()).map(planner_options).collect();
        let mut resident = Vec::new();
        let mut schedule = Vec::new();
        let mut cells = Vec::new();
        for (bi, b) in fw.backends().iter().enumerate() {
            let mut up = Uploaded::default();
            for (qi, q) in QUERIES.iter().enumerate() {
                // ArrayFire has no join (Table II): those cells do not exist.
                let Ok(plan) = optimizer::plan(q, &logical[qi], b.as_ref()) else {
                    continue;
                };
                up.extend(b.as_ref(), &db, plan.base_columns())
                    .expect("upload base columns");
                for &mode in shape.modes() {
                    schedule.push(Cell {
                        backend: bi,
                        query: qi,
                        mode,
                    });
                    cells.push(format!("{q}/{}/{}", BACKENDS[bi].0, MODES[mode]));
                }
            }
            resident.push(up);
        }
        Queries {
            shape,
            db,
            refs,
            fw,
            logical,
            options,
            resident,
            schedule,
            cells,
            steps: 0,
        }
    }

    /// One timed call: plan, bind, execute — what `QnData::execute` does.
    fn call(&self, cell: &Cell) -> Result<(PhysicalPlan, PlanOutput)> {
        let b = self.fw.backends()[cell.backend].as_ref();
        let plan = span::scope("optimizer", MODES[cell.mode], || {
            optimizer::plan_with(
                QUERIES[cell.query],
                &self.logical[cell.query],
                b,
                &self.options[cell.mode],
            )
        })?;
        let binds = self.resident[cell.backend].bindings(&plan);
        let out = span::scope("physical", "execute", || {
            if span::enabled() {
                plan.execute(&TracingBackend(b), &binds)
            } else {
                plan.execute(b, &binds)
            }
        })?;
        Ok((plan, out))
    }
}

impl Workload for Queries {
    fn cells(&self) -> &[String] {
        &self.cells
    }

    fn pass(&mut self) -> PassOut {
        let mut out = PassOut::default();
        for b in self.fw.backends() {
            b.device().reset_stats();
        }
        let mut steps = 0;
        // Default-mode answer of the (backend, query) being swept: the
        // other planner modes must reproduce it bit for bit.
        let mut baseline: Option<PlanOutput> = None;
        for (ci, cell) in self.schedule.iter().enumerate() {
            let dev = self.fw.backends()[cell.backend].device();
            let mark = SimMark::take(&dev);
            let mut sim_ns = 0;
            for _ in 0..self.shape.iterations() {
                let name = if span::enabled() {
                    self.cells[ci].clone()
                } else {
                    String::new()
                };
                let t0 = dev.now();
                let (res, us) = span::scope("harness", name, || timed(|| self.call(cell)));
                sim_ns += (dev.now() - t0).as_nanos();
                out.calls.push(Call {
                    cell: ci as u32,
                    us,
                });
                let ok = span::scope("harness", "check", || match res {
                    Ok((plan, answer)) => {
                        steps += plan.steps().len() as u64;
                        out.rows += tpch_bind::input_rows(&plan, &self.db);
                        let ok = self.refs.matches(QUERIES[cell.query], &answer)
                            && (cell.mode == 0 || baseline.as_ref() == Some(&answer));
                        if cell.mode == 0 {
                            baseline = Some(answer);
                        }
                        ok
                    }
                    Err(_) => false,
                });
                out.failed += u64::from(!ok);
            }
            out.sim_ns += sim_ns;
            out.sim_cells.push(mark.cell(&dev, sim_ns));
        }
        self.steps = steps;
        for b in self.fw.backends() {
            out.dev.add(&b.device().stats());
        }
        out
    }

    fn plan_steps_per_pass(&self) -> u64 {
        self.steps
    }

    fn layer_metrics(&mut self, _passes: &[&PassOut], out: &mut LayerMetrics) {
        match self.shape {
            Shape::Plan => {
                probes::planner(&self.fw, &self.logical, out);
                probes::cost_error(&self.db, out);
                probes::device(out);
                probes::device_trace_events(&self.db, out);
            }
            Shape::Scan => {
                probes::tpch_gen(self.shape.scale_factor(), out);
                probes::transfers(out);
            }
        }
    }
}
